// An OCS storage node: an object store plus the embedded SQL engine that
// executes IR plans directly over locally stored Parquet-lite objects and
// returns results in the Arrow-like IPC format (§2.3/§3.4 of the paper).
//
// The node's weaker CPU (Table 1: 16 cores @ 2.0 GHz vs the compute
// node's 64 @ 2.9) is modelled by scaling measured execution wall time by
// `cpu_slowdown`; the scaled figure is reported to callers, who fold it
// into query timing. Byte movement is never scaled — it is exact.
//
// Decoded row-group cache (DESIGN.md §10): each node keeps a sharded,
// byte-budgeted LRU of decoded column chunks keyed by (object, object
// version, row group, column). Concurrent splits and repeated queries
// over the same objects skip media reads, decompression, and page
// decoding; a PUT overwrite bumps the object version so stale entries
// can never be served.
#pragma once

#include <atomic>
#include <memory>
#include <string>

#include "columnar/column.h"
#include "common/query_counters.h"
#include "common/thread_pool.h"
#include "exec/scan_source.h"
#include "objectstore/object_store.h"
#include "rpc/rpc.h"
#include "substrait/serialize.h"

namespace pocs::ocs {

struct StorageNodeConfig {
  // Measured in-storage compute seconds are multiplied by this factor.
  // Default approximates the paper's per-node throughput gap:
  // (64 cores x 2.9 GHz) / (16 cores x 2.0 GHz) ≈ 5.8, discounted for
  // imperfect compute-side scaling to 2.5.
  double cpu_slowdown = 2.5;
  // Effective storage-media read bandwidth (Table 1: data on SATA SSD).
  // Object bytes touched by a plan are charged bytes/bandwidth of
  // modelled media time — this is what makes compression pay off in
  // Fig. 6 even for storage-side execution. The 80 MB/s default is
  // derived from the paper's own Fig. 6 arithmetic: Zstd saved
  // filter-only ~198 s on ~15.7 GB of avoided reads ≈ 80 MB/s effective.
  double media_read_bandwidth = 80e6;
  // Byte budget for the node's decoded row-group cache (0 disables).
  // Cached chunks are charged at decoded size; hits skip both the media
  // read and the decode.
  uint64_t rowgroup_cache_bytes = 64ull << 20;
};

// Injectable failure modes for one storage node. Crashing targets only
// the node's *computational* service: ExecutePlan rejects with
// kUnavailable while the plain object-store methods stay up — mirroring
// the paper's framing (and PushdownDB's) of in-storage execution as an
// optional accelerator the engine must survive without. `exec_delay`
// models a slow node by inflating the reported storage compute time; the
// connector's storage deadline turns that into an offload rejection.
struct StorageNodeFaults {
  std::atomic<bool> exec_crashed{false};
  std::atomic<double> exec_delay_seconds{0};
};

// Per-plan storage-side accounting, returned on the OcsResult wire. The
// scan counters (common/query_counters.h) ride in list order between
// object_bytes_read and object_version.
struct OcsExecStats : ScanCounters {
  uint64_t rows_scanned = 0;
  uint64_t rows_output = 0;
  uint64_t object_bytes_read = 0;      // storage-media bytes touched
  // Version of the object this plan scanned (0 if unknown) — the
  // connector's split-result cache keys on it.
  uint64_t object_version = 0;
  double storage_compute_seconds = 0;  // already cpu_slowdown-scaled
  double media_read_seconds = 0;       // modelled SSD read time
  // Injected slow-node delay (StorageNodeFaults::exec_delay_seconds at
  // execution time). Pure model time — no wall clock — so the
  // connector's slow-node detector can police media + delay without
  // tripping on sanitizer-inflated *measured* compute time.
  double exec_delay_seconds = 0;
};

struct OcsResult {
  Bytes arrow_ipc;  // columnar::ipc-serialized result table
  OcsExecStats stats;
};

class StorageNode {
 public:
  StorageNode(std::shared_ptr<objectstore::ObjectStore> store,
              StorageNodeConfig config)
      : store_(std::move(store)), config_(config) {
    if (config_.rowgroup_cache_bytes > 0) {
      rowgroup_cache_ = std::make_shared<exec::RowGroupCache>(LruCacheConfig{
          .byte_budget = config_.rowgroup_cache_bytes,
          .shards = 8,
          .metric_prefix = "ocs.rowgroup_cache"});
    }
  }

  const std::shared_ptr<objectstore::ObjectStore>& store() const {
    return store_;
  }

  // Execute an IR plan whose Read targets an object on this node.
  Result<OcsResult> ExecutePlan(const substrait::Plan& plan) const;

  // Decode every (row group, column) chunk of an object into the cache,
  // fanning the row groups out over `pool` when given. No-op when the
  // cache is disabled. Used to pre-warm a node before a latency-sensitive
  // workload (and to exercise ParallelFor's chunked path).
  Status WarmObjectCache(const std::string& bucket, const std::string& key,
                         ThreadPool* pool = nullptr) const;

  // Register "ExecutePlan" (and the plain object-store methods) on an RPC
  // server living on this node.
  void RegisterService(rpc::Server* server) const;

  // Mutable fault switches; flipped by chaos tests at runtime.
  StorageNodeFaults& faults() const { return faults_; }

  // The node's decoded row-group cache (nullptr when disabled).
  const std::shared_ptr<exec::RowGroupCache>& rowgroup_cache() const {
    return rowgroup_cache_;
  }

 private:
  std::shared_ptr<objectstore::ObjectStore> store_;
  StorageNodeConfig config_;
  mutable StorageNodeFaults faults_;
  // Internally synchronized; shared across concurrent ExecutePlan calls.
  std::shared_ptr<exec::RowGroupCache> rowgroup_cache_;
};

// Wire helpers for OcsResult (shared with the frontend, which forwards
// responses verbatim).
void EncodeOcsResult(const OcsResult& result, BufferWriter* out);
Result<OcsResult> DecodeOcsResult(BufferReader* in);

// The pruning-term collector lives with the scan source it feeds.
using exec::CollectPruningTerms;

}  // namespace pocs::ocs
