// Traced replay: each query of a workload is replayed through the public
// entry points of every module it crosses, with one span per call.
//
// Per query: sql::ParseQuery; the planning calls (GetTableHandle,
// AnalyzeQuery, PruneColumns, RunConnectorOptimizer); Connector::GetSplits;
// and per split the connector's own page source (CreatePageSource plus
// draining Next()), the engine-side residual over the decoded batches,
// and direct calls into the layers below the connector: Substrait
// translation and (de)serialization, StorageNode::ExecutePlan on a
// replica node, IPC decode/encode of the result, the object-store GET or
// Select, Parquet-lite row-group decode, chunk decompression and the
// dictionary-code filter. The replay's per-split row and byte counts are
// compared with what the engine's own Execute of the same query reports.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"
#include "trace.h"

namespace perfbench {

struct TraceResult {
  Tracer tracer;
  size_t queries = 0;           // replayed queries (span query ids 1..n)
  uint64_t attempted = 0;       // operations issued (queries + writes)
  uint64_t failed = 0;          // errors, wrong answers, fidelity breaks
  std::vector<std::string> failures;
  double untraced_wall = 0;     // Σ Execute wall of the replayed queries
  double traced_wall = 0;       // Σ wall of their traced replays
  uint64_t plan_bytes = 0;      // serialized Substrait plan bytes
  uint64_t plans = 0;
  uint64_t ipc_bytes = 0;       // IPC result bytes from storage
  uint64_t compressed_bytes = 0;    // chunk bytes fed to the codec
  uint64_t decompressed_bytes = 0;  // bytes it produced
  uint64_t fidelity_checked = 0;    // queries whose counts were compared
};

// Replays the workload's schedule for `seconds`, one operation at a time.
TraceResult RunTracedReplay(Bench& bench, const BenchOptions& opts,
                            double seconds);

}  // namespace perfbench
