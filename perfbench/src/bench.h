// Workload set-up and the closed-loop load generator of the repository
// benchmark.
//
// One process builds the in-process testbed (engine -> connectors ->
// rpc/netsim -> OCS storage), generates and ingests a seeded dataset,
// computes a reference answer for every query through an engine-only
// plan, warms the caches, and then runs the workload's clients in a
// closed loop: each client sends its next operation only after the
// previous one returned. The program only ever sees the generated data
// and SQL; the seed stays in the benchmark.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "workloads/testbed.h"

namespace perfbench {

inline double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

enum class WorkloadKind { kOcsPushdown, kEngineScan, kCachedRw };

bool ParseWorkload(const std::string& name, WorkloadKind* out);
const char* WorkloadName(WorkloadKind kind);

struct BenchOptions {
  WorkloadKind workload = WorkloadKind::kOcsPushdown;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Self-test hook: perturb one reference fingerprint so every answer of
  // that query is reported wrong.
  bool wrong_reference = false;
};

// One query template bound to the catalog it runs on.
struct QuerySpec {
  std::string name;     // template[.variant]@catalog
  std::string sql;
  std::string catalog;
  bool join = false;
};

// What the run measured against: machine, threads, data and cache sizes.
struct RunRecord {
  unsigned nproc = 0;
  size_t clients = 0;
  size_t engine_threads = 0;
  uint64_t seed = 0;
  uint64_t dataset_rows = 0;
  uint64_t stored_bytes = 0;   // object bytes as stored (after codec)
  uint64_t decoded_bytes = 0;  // decoded column bytes of the whole dataset
  uint64_t rowgroup_cache_budget = 0;  // per storage node
  size_t storage_nodes = 0;
  std::string codec;
  size_t warmup_writes = 0;  // overwrites in the warm-up (WarmUp)
};

// A fully set-up testbed: data ingested, references computed, warm.
class Bench {
 public:
  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  static pocs::Result<std::unique_ptr<Bench>> SetUp(const BenchOptions& opts);

  pocs::workloads::Testbed& bed() { return *bed_; }
  const std::vector<QuerySpec>& queries() const { return queries_; }
  const RunRecord& record() const { return record_; }
  // Share of cached_rw's scheduled operations that are overwrites (0 on
  // read-only workloads, which write a shadow object after each query).
  double write_share() const { return write_share_; }

  // True if `table` matches query `q`'s reference under any object state
  // the workload can produce (two on cached_rw, one elsewhere).
  bool CheckAnswer(size_t q, const pocs::columnar::RecordBatch& table) const;

  // Overwrite the write target, timed as a client issues it (payload copy
  // included); returns its wall seconds. On cached_rw the target is a
  // table object, alternated between its two contents. Read-only
  // workloads write a shadow copy of that object that no table lists,
  // after every query, so their writes change no answer and no cache.
  pocs::Result<double> Overwrite();

 private:
  Bench() = default;
  pocs::Status Build(const BenchOptions& opts);
  pocs::Status ComputeReferences(size_t state);
  pocs::Status WarmUp();

  WorkloadKind kind_ = WorkloadKind::kOcsPushdown;
  std::unique_ptr<pocs::workloads::Testbed> bed_;
  std::vector<QuerySpec> queries_;
  std::vector<std::array<uint64_t, 2>> refs_;
  size_t states_ = 1;
  double write_share_ = 0;
  RunRecord record_;

  // Overwrite target and its contents; contents_[state_] is stored now.
  std::string write_bucket_, write_key_;
  std::array<pocs::Bytes, 2> contents_;
  size_t state_ = 0;
};

// What the end-to-end metrics need of one answered query. Kept small:
// the samples live in the measured process, and its peak RSS is a metric.
struct QueryTiming {
  uint32_t query = 0;
  double wall = 0;   // seconds in QueryEngine::Execute, timed by the bench
  double total = 0;  // QueryMetrics::total, modelled seconds
  uint64_t bytes_moved = 0;  // bytes_from_storage + bytes_to_storage
};

// The figures of one answered query the per-layer metrics are computed
// from: the bench's own wall time plus a compact copy of the engine's
// QueryMetrics.
struct QuerySample {
  size_t query = 0;
  double wall = 0;  // seconds in QueryEngine::Execute, timed by the bench
  uint64_t result_rows = 0;
  uint64_t pushdown_offered = 0;
  uint64_t pushdown_accepted = 0;
  double total = 0;  // QueryMetrics fields from here on
  double logical_plan_analysis = 0;
  double ir_generation = 0;
  double pushdown_and_transfer = 0;
  double post_scan_execution = 0;
  double admission_queue_seconds = 0;
  double storage_compute_seconds = 0;
  uint64_t bytes_moved = 0;  // bytes_from_storage + bytes_to_storage
  uint64_t rows_scanned = 0;
  uint64_t splits = 0;
  uint64_t splits_pruned = 0;
  uint64_t rows_dict_filtered = 0;
  uint64_t rows_late_materialized = 0;
  uint64_t bloom_rows_pruned = 0;
};

struct LoopResult {
  std::vector<QueryTiming> timings;  // one per query answered correctly
  std::vector<QuerySample> samples;  // the same queries, traced runs only
  std::vector<double> writes;        // overwrite wall seconds
  double elapsed = 0;                // wall seconds of the timed loop
  uint64_t attempted = 0;            // queries + writes issued
  uint64_t failed = 0;               // errors, wrong answers, rejections
  std::vector<std::string> failures;  // first few failure messages
};

// Runs the workload's client in a closed loop for `seconds`, then to the
// end of its round. With opts.trace it also keeps each query's
// QueryMetrics in `samples`.
LoopResult RunClosedLoop(Bench& bench, const BenchOptions& opts,
                         double seconds);

// One operation of the client's seeded schedule.
struct Op {
  bool write = false;
  size_t query = 0;
};

// Seeded operation stream of the client. Queries come in whole rounds,
// each a seeded permutation of every query, so each run holds the same
// query mix; on cached_rw a seeded share of operations are writes, drawn
// between the round's queries.
class Schedule {
 public:
  Schedule(const Bench& bench, uint64_t seed);
  Op Next();
  // True when the last Next() finished a round.
  bool AtRoundEnd() const { return pos_ == 0; }

 private:
  uint64_t Draw();

  size_t n_queries_;
  double write_share_;
  uint64_t state_;
  std::vector<size_t> round_;
  size_t pos_ = 0;
};

}  // namespace perfbench
