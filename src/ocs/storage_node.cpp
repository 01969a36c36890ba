#include "ocs/storage_node.h"

#include <string_view>

#include "columnar/ipc.h"
#include "common/metrics.h"
#include "common/stopwatch.h"
#include "common/thread_annotations.h"
#include "format/parquet_lite.h"
#include "objectstore/service.h"

namespace pocs::ocs {

using substrait::Rel;

Result<OcsResult> StorageNode::ExecutePlan(const substrait::Plan& plan) const {
  if (faults_.exec_crashed.load(std::memory_order_relaxed)) {
    auto& reg = metrics::Registry::Default();
    static auto& rejected = reg.GetCounter("storage.exec_rejected");
    rejected.Increment();
    return Status::Unavailable("ocs: storage execution engine is down");
  }
  POCS_RETURN_NOT_OK(substrait::ValidatePlan(plan));
  Stopwatch timer;
  OcsResult result;

  const Rel* read = plan.root.get();
  while (read->input) read = read->input.get();
  POCS_ASSIGN_OR_RETURN(objectstore::VersionedObject object,
                        store_->GetVersioned(read->bucket, read->object));
  POCS_ASSIGN_OR_RETURN(auto reader, format::FileReader::Open(*object.data));
  POCS_ASSIGN_OR_RETURN(
      std::unique_ptr<exec::ScanSource> source,
      exec::OpenPlanScan(plan, std::move(reader), object.version,
                         rowgroup_cache_.get()));
  result.stats.object_version = object.version;

  exec::ExecStats exec_stats;
  POCS_ASSIGN_OR_RETURN(auto table,
                        exec::ExecuteRel(*plan.root, *source, &exec_stats));
  static_cast<ScanCounters&>(result.stats) = source->counters();
  result.stats.object_bytes_read = source->media_bytes();
  result.stats.rows_scanned = exec_stats.rows_scanned;
  result.stats.rows_output = exec_stats.rows_output;
  result.arrow_ipc = columnar::ipc::SerializeTable(*table);
  result.stats.exec_delay_seconds =
      faults_.exec_delay_seconds.load(std::memory_order_relaxed);
  result.stats.storage_compute_seconds =
      timer.ElapsedSeconds() * config_.cpu_slowdown +
      result.stats.exec_delay_seconds;
  result.stats.media_read_seconds =
      static_cast<double>(result.stats.object_bytes_read) /
      config_.media_read_bandwidth;

  {
    auto& reg = metrics::Registry::Default();
    static auto& plans = reg.GetCounter("storage.plans_executed");
    static auto& rows_scanned = reg.GetCounter("storage.rows_scanned");
    static auto& rows_output = reg.GetCounter("storage.rows_output");
    static auto& media_bytes = reg.GetCounter("storage.object_bytes_read");
    static auto& compute = reg.GetHistogram("storage.compute_seconds");
    static const CounterMirror<ScanCounters> scan_counters(
        [](std::string_view name) { return "storage." + std::string(name); });
    plans.Increment();
    rows_scanned.Add(result.stats.rows_scanned);
    rows_output.Add(result.stats.rows_output);
    media_bytes.Add(result.stats.object_bytes_read);
    scan_counters.Add(result.stats);
    compute.Record(result.stats.storage_compute_seconds);
  }
  return result;
}

Status StorageNode::WarmObjectCache(const std::string& bucket,
                                    const std::string& key,
                                    ThreadPool* pool) const {
  if (!rowgroup_cache_) return Status::OK();
  POCS_ASSIGN_OR_RETURN(objectstore::VersionedObject object,
                        store_->GetVersioned(bucket, key));
  POCS_ASSIGN_OR_RETURN(auto reader, format::FileReader::Open(*object.data));
  // One unfiltered scan per row group (a hint of that group alone), so
  // groups decode in parallel; the scan caches every column it decodes.
  Mutex error_mu;
  Status first_error = Status::OK();
  auto warm_one = [&](size_t g) {
    exec::ScanOptions options;
    options.row_group_hint = {static_cast<uint32_t>(g)};
    options.cache = rowgroup_cache_.get();
    options.object_id = bucket + "/" + key;
    options.object_version = object.version;
    exec::ScanSource scan(reader, std::move(options));
    Result<exec::SelectedBatch> batch = scan.NextSelected();
    if (!batch.ok()) {
      MutexLock lock(error_mu);
      if (first_error.ok()) first_error = batch.status();
    }
  };
  if (pool != nullptr) {
    pool->ParallelFor(reader->num_row_groups(), warm_one);
  } else {
    for (size_t g = 0; g < reader->num_row_groups(); ++g) warm_one(g);
  }
  return first_error;
}

void EncodeOcsResult(const OcsResult& result, BufferWriter* out) {
  const OcsExecStats& stats = result.stats;
  out->WriteVarint(stats.rows_scanned);
  out->WriteVarint(stats.rows_output);
  out->WriteVarint(stats.object_bytes_read);
  stats.ForEach([&](std::string_view, uint64_t value) {
    out->WriteVarint(value);
  });
  out->WriteVarint(stats.object_version);
  out->WriteLE<double>(stats.storage_compute_seconds);
  out->WriteLE<double>(stats.media_read_seconds);
  out->WriteLE<double>(stats.exec_delay_seconds);
  out->WriteVarint(result.arrow_ipc.size());
  out->WriteBytes(result.arrow_ipc.data(), result.arrow_ipc.size());
}

Result<OcsResult> DecodeOcsResult(BufferReader* in) {
  OcsResult result;
  OcsExecStats& stats = result.stats;
  POCS_ASSIGN_OR_RETURN(stats.rows_scanned, in->ReadVarint());
  POCS_ASSIGN_OR_RETURN(stats.rows_output, in->ReadVarint());
  POCS_ASSIGN_OR_RETURN(stats.object_bytes_read, in->ReadVarint());
  Status status;
  stats.ForEach([&](std::string_view, uint64_t& value) {
    if (!status.ok()) return;
    Result<uint64_t> read = in->ReadVarint();
    if (read.ok()) {
      value = *read;
    } else {
      status = read.status();
    }
  });
  POCS_RETURN_NOT_OK(status);
  POCS_ASSIGN_OR_RETURN(stats.object_version, in->ReadVarint());
  POCS_ASSIGN_OR_RETURN(stats.storage_compute_seconds, in->ReadLE<double>());
  POCS_ASSIGN_OR_RETURN(stats.media_read_seconds, in->ReadLE<double>());
  POCS_ASSIGN_OR_RETURN(stats.exec_delay_seconds, in->ReadLE<double>());
  POCS_ASSIGN_OR_RETURN(uint64_t n, in->ReadVarint());
  POCS_ASSIGN_OR_RETURN(ByteSpan ipc, in->ReadSpan(n));
  result.arrow_ipc.assign(ipc.begin(), ipc.end());
  return result;
}

void StorageNode::RegisterService(rpc::Server* server) const {
  // OCS nodes also expose the plain object-store interface: the same data
  // serves both the filter-only (S3 Select) path and the OCS path, as in
  // the paper's comparison setup.
  objectstore::RegisterStorageService(store_, server);

  const StorageNode* node = this;
  server->RegisterMethod("ExecutePlan", [node](ByteSpan req) -> Result<Bytes> {
    POCS_ASSIGN_OR_RETURN(substrait::Plan plan,
                          substrait::DeserializePlan(req));
    POCS_ASSIGN_OR_RETURN(OcsResult result, node->ExecutePlan(plan));
    BufferWriter out;
    EncodeOcsResult(result, &out);
    return std::move(out).Take();
  });
}

}  // namespace pocs::ocs
