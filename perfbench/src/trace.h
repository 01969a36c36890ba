// In-memory span recorder for the benchmark's traced replay.
//
// A span covers one call into a module's public entry point: name, start,
// end, the span that caused it, and the query it belongs to. Spans are
// kept in memory while the replay runs and written out once at exit, so
// recording costs two clock reads and a vector push. The replay is
// single-threaded; the recorder is not synchronized.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// Which side of the network a span's work runs on. Used to split traced
// time into a storage-side and a compute-side share.
enum class Tier : uint8_t { kNone, kStorage, kCompute };

struct Span {
  std::string name;
  double start = 0;     // seconds since the recorder's epoch
  double end = 0;
  int64_t parent = -1;  // index of the causing span, -1 for a root
  uint64_t query_id = 0;
  Tier tier = Tier::kNone;

  double duration() const { return end - start; }
};

// Self time of every span: its duration minus the part of its interval
// covered by the union of its children's intervals (children clipped to
// the parent, overlapping children counted once).
std::vector<double> SelfTimes(const std::vector<Span>& spans);

class Tracer {
 public:
  Tracer() : epoch_(std::chrono::steady_clock::now()) {}

  // Opens a span and returns its id (index into spans()).
  int64_t Begin(std::string name, int64_t parent, uint64_t query_id,
                Tier tier = Tier::kNone);
  void End(int64_t id);

  const std::vector<Span>& spans() const { return spans_; }

  // All spans as a JSON array (for the trace file written at exit).
  std::string ToJson() const;

 private:
  double Now() const;

  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
};

// Span over a C++ scope.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name, int64_t parent,
             uint64_t query_id, Tier tier = Tier::kNone)
      : tracer_(tracer),
        id_(tracer.Begin(std::move(name), parent, query_id, tier)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  int64_t id_;
};

}  // namespace perfbench
