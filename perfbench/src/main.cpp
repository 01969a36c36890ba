// pocs_perfbench — the repository benchmark's measuring program.
//
//   pocs_perfbench --workload <ocs_pushdown|engine_scan|cached_rw>
//                  --seed <n> --seconds <s> --trace <0|1> [--wrong-reference]
//
// --trace 0 measures one part of an end-to-end run with tracing off: it
// sets the workload up once, runs its clients in a closed loop for
// --seconds, and prints the raw samples as its last line; perfbench/run.py
// pools several parts into the end-to-end metrics. --trace 1 runs the same
// loop for half the time to collect registry deltas and per-query metrics,
// then replays the schedule through each module's entry points with spans
// (replay.h) and prints the per-layer metrics: a table with units and
// sample counts, then one JSON object with correct, attempted, failed and
// the metrics as its last line.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "common/metrics.h"
#include "replay.h"
#include "stats.h"

using namespace perfbench;

namespace {

// Trace files go here, relative to the working directory (the checkout).
constexpr const char* kOutDir = ".bench_out";

struct Metric {
  std::string name;
  double value;
  std::string unit;
  size_t samples;
};

// Peak RSS of this program, from the VmHWM line of /proc/self/status.
// getrusage's ru_maxrss is not used: exec folds the launching process's
// peak RSS into it, so it would report the Python launcher's memory
// whenever that was the larger.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // KiB → MiB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("%-42s %18s %-6s %8s\n", "metric", "value", "unit", "samples");
  for (const Metric& m : metrics) {
    std::printf("%-42s %18.9g %-6s %8zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  char buf[96];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void PrintRecord(const BenchOptions& opts, const RunRecord& r,
                 const std::vector<std::string>& failures) {
  std::printf(
      "run_record {\"workload\": \"%s\", \"seed\": %llu, \"nproc\": %u, "
      "\"clients\": %zu, \"engine_threads\": %zu, \"storage_nodes\": %zu, "
      "\"dataset_rows\": %llu, \"stored_bytes\": %llu, \"codec\": \"%s\", "
      "\"decoded_bytes\": %llu, \"rowgroup_cache_budget_bytes\": %llu, "
      "\"decoded_over_cache_budget\": %.3f, \"warmup_writes\": %zu}\n",
      WorkloadName(opts.workload), static_cast<unsigned long long>(r.seed),
      r.nproc, r.clients, r.engine_threads, r.storage_nodes,
      static_cast<unsigned long long>(r.dataset_rows),
      static_cast<unsigned long long>(r.stored_bytes), r.codec.c_str(),
      static_cast<unsigned long long>(r.decoded_bytes),
      static_cast<unsigned long long>(r.rowgroup_cache_budget),
      r.rowgroup_cache_budget
          ? static_cast<double>(r.decoded_bytes) /
                static_cast<double>(r.rowgroup_cache_budget)
          : 0.0,
      r.warmup_writes);
  for (const auto& f : failures) {
    std::printf("failure %s\n", JsonEscape(f).c_str());
  }
}

// ---- end-to-end part -------------------------------------------------------

// One part of an end-to-end run: one set-up, then the closed loop, then
// the raw samples as one JSON line. perfbench/run.py runs several parts,
// each in a fresh process, and pools their samples into the metrics, so
// one process's thread placement and memory layout cannot set the result.
int RunEndToEndPart(const BenchOptions& opts) {
  const auto t0 = std::chrono::steady_clock::now();
  auto built = Bench::SetUp(opts);
  if (!built.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n",
                 built.status().ToString().c_str());
    return 1;
  }
  Bench& bench = **built;
  const double setup_s = SecondsSince(t0);
  LoopResult loop = RunClosedLoop(bench, opts, opts.seconds);

  PrintRecord(opts, bench.record(), loop.failures);
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "{\"setup_s\": %.9f, \"elapsed_s\": %.9f, \"attempted\": %llu, "
                "\"failed\": %llu, \"peak_rss_mb\": %.6f",
                setup_s, loop.elapsed,
                static_cast<unsigned long long>(loop.attempted),
                static_cast<unsigned long long>(loop.failed), PeakRssMb());
  std::string json = buf;
  json += ", \"queries\": [";
  for (size_t i = 0; i < bench.queries().size(); ++i) {
    json += (i ? ", \"" : "\"") + bench.queries()[i].name + "\"";
  }
  // One [query, wall_s, sim_s, bytes_moved] row per answered query.
  json += "], \"samples\": [";
  for (size_t i = 0; i < loop.timings.size(); ++i) {
    const QueryTiming& q = loop.timings[i];
    std::snprintf(buf, sizeof(buf), "%s[%u, %.9g, %.9g, %llu]", i ? ", " : "",
                  q.query, q.wall, q.total,
                  static_cast<unsigned long long>(q.bytes_moved));
    json += buf;
  }
  json += "], \"writes\": [";
  for (size_t i = 0; i < loop.writes.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%.9g", i ? ", " : "", loop.writes[i]);
    json += buf;
  }
  json += "]}";
  std::printf("%s\n", json.c_str());
  return 0;
}

// ---- traced run -------------------------------------------------------------

using Snapshot = std::map<std::string, pocs::metrics::MetricSample>;

Snapshot TakeSnapshot() {
  Snapshot out;
  for (auto& s : pocs::metrics::Registry::Default().Snapshot()) {
    out[s.name] = s;
  }
  return out;
}

// Registry deltas between two snapshots: counters/histogram counts in
// `value`, histogram second sums in `sum`.
struct Deltas {
  Snapshot before, after;
  double Value(const std::string& name) const {
    return Get(after, name).value - static_cast<double>(Get(before, name).value);
  }
  double Sum(const std::string& name) const {
    return Get(after, name).sum - Get(before, name).sum;
  }
  static pocs::metrics::MetricSample Get(const Snapshot& s,
                                         const std::string& name) {
    auto it = s.find(name);
    return it == s.end() ? pocs::metrics::MetricSample{} : it->second;
  }
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

int RunTraced(const BenchOptions& opts) {
  auto built = Bench::SetUp(opts);
  if (!built.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n",
                 built.status().ToString().c_str());
    return 1;
  }
  Bench& bench = **built;

  // Phase 1: the untraced loop, bracketed by registry snapshots.
  Deltas d;
  d.before = TakeSnapshot();
  LoopResult loop = RunClosedLoop(bench, opts, opts.seconds / 2);
  d.after = TakeSnapshot();

  // Phase 2: the traced replay.
  TraceResult tr = RunTracedReplay(bench, opts, opts.seconds / 2);

  std::filesystem::create_directories(kOutDir);
  const std::string trace_path = std::string(kOutDir) + "/trace-" +
                                 WorkloadName(opts.workload) + "-" +
                                 std::to_string(opts.seed) + ".json";
  std::ofstream(trace_path) << tr.tracer.ToJson();

  // Per-query sums of each span name, then the median over the queries
  // the span occurs in.
  const auto& spans = tr.tracer.spans();
  const std::vector<double> self = SelfTimes(spans);
  std::map<std::string, std::map<uint64_t, double>> per_query;
  double storage_self = 0, compute_self = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    per_query[s.name][s.query_id] += s.duration();
    if (s.tier == Tier::kStorage) storage_self += self[i];
    if (s.tier == Tier::kCompute) compute_self += self[i];
  }
  auto span_median = [&](const char* name) {
    std::vector<double> v;
    if (auto it = per_query.find(name); it != per_query.end()) {
      for (auto [q, x] : it->second) v.push_back(x);
    }
    return std::make_pair(Median(v), v.size());
  };
  // Writes belong to no query: one sample per PutObject span.
  std::vector<double> puts;
  for (const Span& s : spans) {
    if (s.name == "ocs::OcsCluster::PutObject") puts.push_back(s.duration());
  }

  const size_t nq = loop.samples.size();
  const double nqd = static_cast<double>(std::max<size_t>(nq, 1));
  auto per_query_mean = [&](auto field) {
    std::vector<double> v;
    for (const auto& q : loop.samples) v.push_back(field(q));
    return Mean(v);
  };
  auto per_query_median = [&](auto field) {
    std::vector<double> v;
    for (const auto& q : loop.samples) v.push_back(field(q));
    return Median(v);
  };
  double offered = 0, accepted = 0, result_rows = 0, rows_scanned = 0;
  for (const auto& q : loop.samples) {
    offered += static_cast<double>(q.pushdown_offered);
    accepted += static_cast<double>(q.pushdown_accepted);
    result_rows += static_cast<double>(q.result_rows);
    rows_scanned += static_cast<double>(q.rows_scanned);
  }

  const auto& link = bench.bed().config().cluster.link;
  const double wire_bytes = d.Value("netsim.wire_bytes");
  const double wire_msgs = d.Value("netsim.wire_messages");
  double exec_ops = 0;
  for (const char* op : {"Read", "Filter", "Project", "Aggregate", "Sort", "Fetch"}) {
    exec_ops += d.Sum(std::string("exec.") + op + ".seconds");
  }
  const double md_hits = d.Value("connector.metadata_cache.hit");
  const double md_all = md_hits + d.Value("connector.metadata_cache.miss") +
                        d.Value("connector.metadata_cache.stale") +
                        d.Value("connector.metadata_cache.error");
  const double sc_hits = d.Value("ocs.splitresult_cache.hit");
  const double rg_hits = d.Value("ocs.rowgroup_cache.hit");

  auto sm = [&](const char* metric, const char* span) {
    auto [v, n] = span_median(span);
    return Metric{metric, v, "s", n};
  };
  std::vector<Metric> m = {
      sm("sql.parse_s", "sql::ParseQuery"),
      sm("engine.plan_s", "engine.plan"),
      {"engine.stage.logical_plan_analysis_s",
       per_query_median([](const auto& x) { return x.logical_plan_analysis; }),
       "s", nq},
      {"engine.stage.ir_generation_s",
       per_query_median([](const auto& x) { return x.ir_generation; }), "s", nq},
      {"engine.stage.pushdown_and_transfer_s",
       per_query_median([](const auto& x) { return x.pushdown_and_transfer; }),
       "s", nq},
      {"engine.stage.post_scan_execution_s",
       per_query_median([](const auto& x) { return x.post_scan_execution; }),
       "s", nq},
      sm("engine.residual_s", "engine.residual"),
      {"engine.queue_wait_s",
       per_query_median([](const auto& x) { return x.admission_queue_seconds; }),
       "s", nq},
      {"engine.splits_per_query",
       per_query_mean([](const auto& x) { return double(x.splits); }), "count",
       nq},
      {"engine.splits_pruned_per_query",
       per_query_mean([](const auto& x) { return double(x.splits_pruned); }),
       "count", nq},
      {"engine.retries", d.Value("engine.retries"), "count", nq},
      {"engine.fallbacks", d.Value("engine.fallbacks"), "count", nq},
      sm("connector.get_splits_s", "connector::GetSplits"),
      sm("connector.ir_gen_s", "connectors::TranslateScanSpec"),
      sm("connector.page_source_s", "connector::PageSource"),
      {"connector.ocs.decode_s",
       d.Sum("connector.ocs.decode_seconds") / nqd, "s", nq},
      {"connector.hive.csv_decode_s",
       d.Sum("connector.hive.csv_decode_seconds") / nqd, "s", nq},
      {"connector.pushdown_accept_ratio", Ratio(accepted, offered), "ratio",
       static_cast<size_t>(offered)},
      {"connector.metadata_cache.hit_ratio", Ratio(md_hits, md_all), "ratio",
       static_cast<size_t>(md_all)},
      {"connector.split_cache.hit_ratio",
       Ratio(sc_hits, sc_hits + d.Value("ocs.splitresult_cache.miss")), "ratio",
       static_cast<size_t>(sc_hits + d.Value("ocs.splitresult_cache.miss"))},
      sm("substrait.serialize_s", "substrait::SerializePlan"),
      sm("substrait.deserialize_s", "substrait::DeserializePlan"),
      {"substrait.plan_bytes",
       Ratio(static_cast<double>(tr.plan_bytes), static_cast<double>(tr.plans)),
       "bytes", tr.plans},
      {"rpc.calls_per_query", d.Value("rpc.calls") / nqd, "count", nq},
      {"rpc.round_trips_per_query", d.Value("rpc.round_trips") / nqd, "count",
       nq},
      {"rpc.retries", d.Value("rpc.retries"), "count", nq},
      {"netsim.wire_bytes_per_query", wire_bytes / nqd, "bytes", nq},
      {"netsim.transfer_model_s",
       (wire_bytes / link.bandwidth_bytes_per_sec +
        wire_msgs * link.latency_sec) / nqd,
       "s", nq},
      sm("ocs.execute_s", "ocs::StorageNode::ExecutePlan"),
      {"ocs.compute_model_s",
       per_query_median([](const auto& x) { return x.storage_compute_seconds; }),
       "s", nq},
      {"ocs.media_bytes_per_query", d.Value("storage.object_bytes_read") / nqd,
       "bytes", nq},
      {"ocs.rows_scanned_per_result_row", Ratio(rows_scanned, result_rows),
       "ratio", nq},
      {"ocs.rowgroup_cache.hit_ratio",
       Ratio(rg_hits, rg_hits + d.Value("ocs.rowgroup_cache.miss")), "ratio",
       static_cast<size_t>(rg_hits + d.Value("ocs.rowgroup_cache.miss"))},
      {"ocs.rowgroup_cache.evictions",
       d.Value("ocs.rowgroup_cache.eviction") / nqd, "count", nq},
      {"ocs.rows_dict_filtered",
       per_query_mean([](const auto& x) { return double(x.rows_dict_filtered); }),
       "count", nq},
      {"ocs.rows_late_materialized",
       per_query_mean(
           [](const auto& x) { return double(x.rows_late_materialized); }),
       "count", nq},
      {"ocs.bloom_rows_pruned",
       per_query_mean([](const auto& x) { return double(x.bloom_rows_pruned); }),
       "count", nq},
      sm("objectstore.get_s", "objectstore::ObjectStore::Get"),
      sm("objectstore.select_s", "objectstore::ExecuteSelect"),
      {"objectstore.put_s", Median(puts), "s", puts.size()},
      sm("format.decode_s", "format::FileReader::ReadRowGroup"),
      sm("format.dict_filter_s", "format::DictFilter"),
      sm("compress.decompress_s", "compress::Codec::Decompress"),
      {"compress.ratio",
       Ratio(static_cast<double>(tr.decompressed_bytes),
             static_cast<double>(tr.compressed_bytes)),
       "ratio", tr.queries},
  };
  for (const char* op : {"Filter", "Project", "Aggregate", "Sort", "Fetch"}) {
    m.push_back({std::string("exec.") + op + ".s",
                 d.Sum(std::string("exec.") + op + ".seconds") / nqd, "s", nq});
  }
  m.push_back({"exec.Filter.pass_ratio",
               Ratio(d.Value("exec.Filter.rows_out"),
                     d.Value("exec.Filter.rows_in")),
               "ratio", nq});
  m.push_back({"exec.unattributed_s",
               (d.Sum("exec.plan_seconds") - exec_ops) / nqd, "s", nq});
  m.push_back(sm("columnar.ipc_encode_s", "columnar::ipc::SerializeTable"));
  m.push_back(sm("columnar.ipc_decode_s", "columnar::ipc::DeserializeTable"));
  m.push_back({"columnar.ipc_bytes_per_query",
               Ratio(static_cast<double>(tr.ipc_bytes),
                     static_cast<double>(tr.queries)),
               "bytes", tr.queries});
  m.push_back({"trace.overhead_frac",
               Ratio(tr.traced_wall - tr.untraced_wall, tr.untraced_wall),
               "ratio", tr.queries});
  m.push_back({"trace.storage_self_share",
               Ratio(storage_self, storage_self + compute_self), "ratio",
               tr.queries});

  std::vector<std::string> failures = loop.failures;
  failures.insert(failures.end(), tr.failures.begin(), tr.failures.end());
  PrintRecord(opts, bench.record(), failures);
  std::printf("trace_file %s (%zu spans, %zu replayed queries, %llu checked)\n",
              trace_path.c_str(), spans.size(), tr.queries,
              static_cast<unsigned long long>(tr.fidelity_checked));
  const uint64_t attempted = loop.attempted + tr.attempted;
  const uint64_t failed = loop.failed + tr.failed;
  PrintResult(failed == 0 && nq > 0 && tr.queries > 0, attempted, failed, m);
  return 0;
}

bool ParseArgs(int argc, char** argv, BenchOptions* opts) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--wrong-reference") {
      opts->wrong_reference = true;
      continue;
    }
    if ((v = value()) == nullptr) return false;
    if (arg == "--workload") {
      if (!ParseWorkload(v, &opts->workload)) return false;
      have_workload = true;
    } else if (arg == "--seed") {
      opts->seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      opts->seconds = std::strtod(v, nullptr);
    } else if (arg == "--trace") {
      opts->trace = std::strcmp(v, "0") != 0;
    } else {
      return false;
    }
  }
  return have_workload && opts->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Pin glibc malloc at the thresholds its dynamic adjustment converges to
  // in a long-running process (mmap threshold at its 32 MiB ceiling, trim
  // threshold at twice that). Left dynamic, whether a freed megabyte-sized
  // object buffer goes back to the heap or to munmap depends on the
  // allocation history of the run, and timings flip between two modes.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 64 << 20);
  BenchOptions opts;
  if (!ParseArgs(argc, argv, &opts)) {
    std::fprintf(stderr,
                 "usage: %s --workload <ocs_pushdown|engine_scan|cached_rw> "
                 "--seed <n> --seconds <s> --trace <0|1> "
                 "[--wrong-reference]\n",
                 argv[0]);
    return 2;
  }
  return opts.trace ? RunTraced(opts) : RunEndToEndPart(opts);
}
