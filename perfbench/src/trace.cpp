#include "trace.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size()) {
      children[s.parent].push_back({s.start, s.end});
    }
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& p = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0;
    double cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (auto [lo, hi] : kids) {
      lo = std::max(lo, p.start);
      hi = std::min(hi, p.end);
      if (hi <= lo) continue;
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = std::max(0.0, p.duration() - covered);
  }
  return self;
}

double Tracer::Now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

int64_t Tracer::Begin(std::string name, int64_t parent, uint64_t query_id,
                      Tier tier) {
  Span s;
  s.name = std::move(name);
  s.parent = parent;
  s.query_id = query_id;
  s.tier = tier;
  s.start = Now();
  s.end = s.start;
  spans_.push_back(std::move(s));
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Tracer::End(int64_t id) { spans_[id].end = Now(); }

std::string Tracer::ToJson() const {
  static constexpr const char* kTierNames[] = {"", "storage", "compute"};
  std::string out = "[";
  char buf[160];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"id\":%zu,\"parent\":%lld,\"query\":%llu,"
                  "\"start\":%.9f,\"end\":%.9f,\"tier\":\"%s\",\"name\":\"",
                  i ? "," : "", i, static_cast<long long>(s.parent),
                  static_cast<unsigned long long>(s.query_id), s.start, s.end,
                  kTierNames[static_cast<int>(s.tier)]);
    out += buf;
    out += s.name;  // span names are fixed identifiers, no escaping needed
    out += "\"}";
  }
  out += "\n]\n";
  return out;
}

}  // namespace perfbench
