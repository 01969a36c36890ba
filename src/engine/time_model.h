// Simulated end-to-end timing (DESIGN.md §4).
//
// Compute is measured (real wall time of real work); network transfer,
// storage-side compute and media reads are aggregated per scan stage and
// combined with a bottleneck ("roofline") model: a pipelined scan stage
// takes
//   max( bytes / shared link bandwidth,
//        Σ storage-compute / (storage parallelism × nodes),
//        Σ media reads / nodes )
//   + per-split latency amortized over parallel workers,
// and a sequential one (the default) sums the same terms. Compute-side
// residual and decode work is not a scan-stage term: the engine books it
// under post_scan_execution. This reproduces the paper's regimes:
// transfer-bound when raw data moves (no pushdown), storage-compute-bound
// under full pushdown.
#pragma once

#include <algorithm>
#include <cstdint>

namespace pocs::engine {

struct TimeModelConfig {
  double network_bandwidth_bytes_per_sec = 1.25e9;  // 10 GbE (Table 1)
  double network_latency_sec = 100e-6;
  size_t worker_threads = 8;       // compute-node parallel split workers
  size_t storage_parallelism = 16;  // concurrent requests (storage node has 16 cores)
  size_t storage_nodes = 1;        // OCS backend nodes (media/CPU scale out)
  // Stage combination: sequential (sum of media/storage/transfer/compute —
  // matches the paper's observed end-to-end arithmetic, where e.g. Fig. 6's
  // compression savings equal the avoided media time and Fig. 5's pushdown
  // savings equal the avoided transfer time) vs perfectly pipelined (max
  // of the terms). Default sequential.
  bool pipelined = false;
};

struct SplitStageTotals {
  uint64_t bytes_moved = 0;       // storage → compute (+ request bytes)
  uint64_t messages = 0;          // request/response rounds
  double storage_compute_seconds = 0;  // Σ, already cpu-slowdown-scaled
  double media_read_seconds = 0;       // Σ modelled SSD reads (serialized)
  size_t splits = 0;
};

inline double SplitStageSeconds(const SplitStageTotals& totals,
                                const TimeModelConfig& config) {
  const double nodes =
      static_cast<double>(std::max<size_t>(config.storage_nodes, 1));
  double transfer =
      static_cast<double>(totals.bytes_moved) /
      config.network_bandwidth_bytes_per_sec;
  double storage = totals.storage_compute_seconds /
                   (static_cast<double>(std::max<size_t>(
                        config.storage_parallelism, 1)) *
                    nodes);
  double parallel = std::max<size_t>(
      std::min(config.worker_threads, std::max<size_t>(totals.splits, 1)), 1);
  double latency = static_cast<double>(totals.messages) *
                   config.network_latency_sec / static_cast<double>(parallel);
  // Media reads serialize per storage node's SSD; objects are spread
  // round-robin, so N nodes read in parallel.
  double media = totals.media_read_seconds / nodes;
  if (config.pipelined) {
    return std::max({transfer, storage, media}) + latency;
  }
  return transfer + storage + media + latency;
}

}  // namespace pocs::engine
