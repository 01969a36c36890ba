#include "bench.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/metrics.h"
#include "compress/codec.h"
#include "format/parquet_lite.h"
#include "stats.h"
#include "workloads/laghos.h"
#include "workloads/tpch.h"

namespace perfbench {

using pocs::Result;
using pocs::Status;
namespace wl = pocs::workloads;

namespace {

uint64_t SplitMix(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// Data sizes per workload. ocs_pushdown's decoded working set is several
// times its row-group cache budget; cached_rw's fits every cache.
struct DataShape {
  size_t laghos_files, laghos_rows, tpch_files, tpch_rows, rows_per_group;
  pocs::compress::CodecType codec;
  uint64_t rowgroup_cache_bytes;
};

DataShape ShapeFor(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kOcsPushdown:
      return {4, 16384, 4, 16384, 4096, pocs::compress::CodecType::kFastLz,
              1ull << 20};
    case WorkloadKind::kEngineScan:
      return {4, 2048, 4, 2048, 2048, pocs::compress::CodecType::kNone,
              64ull << 20};
    case WorkloadKind::kCachedRw:
      return {4, 4096, 2, 4096, 1024, pocs::compress::CodecType::kNone,
              4ull << 20};
  }
  return {};
}

uint64_t DecodedBytes(const wl::GeneratedDataset& ds) {
  uint64_t total = 0;
  for (const auto& [key, bytes] : ds.files) {
    auto reader = pocs::format::FileReader::Open(bytes);
    if (!reader.ok()) continue;
    auto table = (*reader)->ReadAll();
    if (table.ok()) total += (*table)->ByteSize();
  }
  return total;
}

}  // namespace

bool ParseWorkload(const std::string& name, WorkloadKind* out) {
  for (WorkloadKind k : {WorkloadKind::kOcsPushdown, WorkloadKind::kEngineScan,
                         WorkloadKind::kCachedRw}) {
    if (name == WorkloadName(k)) {
      *out = k;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kOcsPushdown: return "ocs_pushdown";
    case WorkloadKind::kEngineScan: return "engine_scan";
    case WorkloadKind::kCachedRw: return "cached_rw";
  }
  return "?";
}

Result<std::unique_ptr<Bench>> Bench::SetUp(const BenchOptions& opts) {
  std::unique_ptr<Bench> bench(new Bench());
  POCS_RETURN_NOT_OK(bench->Build(opts));
  return bench;
}

Status Bench::Build(const BenchOptions& opts) {
  kind_ = opts.workload;
  const DataShape shape = ShapeFor(kind_);
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  // Engine workers. With four, run-to-run spreads on a shared 4-vCPU
  // machine were about twice as wide.
  const size_t threads = std::min<size_t>(2, nproc);

  wl::TestbedConfig cfg;
  cfg.cluster.num_storage_nodes = 2;
  cfg.cluster.storage.rowgroup_cache_bytes = shape.rowgroup_cache_bytes;
  cfg.engine.worker_threads = threads;
  if (kind_ == WorkloadKind::kCachedRw) {
    // Admission on, so every query passes the admission gate; one client
    // and one running slot, so none waits in the queue or is refused.
    cfg.engine.admission.enabled = true;
    cfg.engine.admission.max_concurrent = 1;
    cfg.engine.admission.defaults.max_concurrent = 1;
    cfg.engine.admission.defaults.max_queued = 64;
  }
  bed_ = std::make_unique<wl::Testbed>(cfg);

  record_.nproc = nproc;
  record_.clients = 1;
  record_.engine_threads = threads;
  record_.seed = opts.seed;
  record_.rowgroup_cache_budget = shape.rowgroup_cache_bytes;
  record_.storage_nodes = cfg.cluster.num_storage_nodes;
  record_.codec = std::string(pocs::compress::CodecName(shape.codec));

  // ---- data: generated from the seed, then handed to the program --------
  uint64_t seed_state = opts.seed * 0x2545f4914f6cdd1dull + 17;
  wl::LaghosConfig laghos;
  laghos.num_files = shape.laghos_files;
  laghos.rows_per_file = shape.laghos_rows;
  laghos.rows_per_group = shape.rows_per_group;
  laghos.codec = shape.codec;
  laghos.seed = SplitMix(&seed_state);
  wl::TpchConfig tpch;
  tpch.num_files = shape.tpch_files;
  tpch.rows_per_file = shape.tpch_rows;
  tpch.rows_per_group = shape.rows_per_group;
  tpch.codec = shape.codec;
  tpch.seed = SplitMix(&seed_state);
  wl::SupplierConfig supplier;
  supplier.codec = shape.codec;

  std::vector<wl::GeneratedDataset> datasets;
  POCS_ASSIGN_OR_RETURN(auto laghos_ds, wl::GenerateLaghos(laghos));
  write_bucket_ = laghos_ds.info.bucket;
  write_key_ = laghos_ds.files.front().first;
  contents_[0] = laghos_ds.files.front().second;
  if (kind_ == WorkloadKind::kCachedRw) {
    wl::LaghosConfig other = laghos;
    other.seed = SplitMix(&seed_state);
    POCS_ASSIGN_OR_RETURN(auto other_ds, wl::GenerateLaghos(other));
    contents_[1] = std::move(other_ds.files.front().second);
    states_ = 2;
    write_share_ = 0.02;
  }
  datasets.push_back(std::move(laghos_ds));
  POCS_ASSIGN_OR_RETURN(auto tpch_ds, wl::GenerateLineitem(tpch));
  datasets.push_back(std::move(tpch_ds));
  if (kind_ != WorkloadKind::kCachedRw) {
    POCS_ASSIGN_OR_RETURN(auto supplier_ds, wl::GenerateSupplier(supplier));
    datasets.push_back(std::move(supplier_ds));
  }
  for (auto& ds : datasets) {
    record_.dataset_rows += ds.info.row_count;
    for (const auto& [key, bytes] : ds.files) record_.stored_bytes += bytes.size();
    record_.decoded_bytes += DecodedBytes(ds);
    POCS_RETURN_NOT_OK(bed_->Ingest(std::move(ds)));
  }

  // ---- catalogs and queries ---------------------------------------------
  // "ref" runs every operator in the engine: the reference answers.
  pocs::connectors::OcsConnectorConfig engine_only;
  engine_only.pushdown_filter = false;
  engine_only.pushdown_projection = false;
  engine_only.pushdown_aggregation = false;
  engine_only.pushdown_topn = false;
  engine_only.pushdown_join_bloom = false;
  bed_->RegisterOcsCatalog("ref", engine_only);

  struct Template {
    std::string name, sql;
    bool join;
  };
  std::vector<Template> templates;
  std::vector<std::string> catalogs;
  if (kind_ == WorkloadKind::kCachedRw) {
    pocs::connectors::OcsConnectorConfig cached;
    cached.metadata_cache_bytes = 8ull << 20;
    cached.split_result_cache_bytes = 256ull << 10;
    bed_->RegisterOcsCatalog("ocs_cached", cached);
    catalogs = {"ocs_cached"};
    // Each Laghos file covers rows_per_file / 32 vertices; lineitem holds
    // ~rows_per_file / 4 orders per file. The variants prune different
    // numbers of splits, and every one repeats, so caches are reused.
    const int64_t vertices = static_cast<int64_t>(shape.laghos_rows / 32);
    for (int64_t v : {vertices / 2, vertices, 2 * vertices}) {
      for (int64_t limit : {10, 100}) {
        templates.push_back({"laghos_selective.v" + std::to_string(v) + ".l" +
                                 std::to_string(limit),
                             wl::LaghosSelectiveQuery("laghos", v, limit),
                             false});
      }
    }
    const int64_t orders = static_cast<int64_t>(shape.tpch_rows / 4);
    for (int64_t o : {orders / 3, orders, orders * 3 / 2}) {
      templates.push_back({"tpch_selective.o" + std::to_string(o),
                           wl::TpchSelectiveQuery("lineitem", o), false});
    }
  } else {
    templates = {{"laghos", wl::LaghosQuery("laghos"), false},
                 {"tpch_q1", wl::TpchQ1("lineitem"), false},
                 {"tpch_q6", wl::TpchQ6("lineitem"), false},
                 {"tpch_dict", wl::TpchDictFilterQuery("lineitem"), false},
                 {"tpch_join", wl::TpchJoinQuery("lineitem", "supplier"), true}};
    if (kind_ == WorkloadKind::kOcsPushdown) {
      catalogs = {"ocs"};
    } else {
      bed_->RegisterOcsCatalog("ocs_nopush", engine_only);
      catalogs = {"hive_raw", "hive", "ocs_nopush"};
    }
  }
  for (const auto& catalog : catalogs) {
    for (const auto& t : templates) {
      queries_.push_back({t.name + "@" + catalog, t.sql, catalog, t.join});
    }
  }

  // ---- reference answers (both object states on cached_rw) --------------
  refs_.assign(queries_.size(), {0, 0});
  POCS_RETURN_NOT_OK(ComputeReferences(0));
  if (states_ == 2) {
    POCS_RETURN_NOT_OK(Overwrite().status());
    POCS_RETURN_NOT_OK(ComputeReferences(1));
    POCS_RETURN_NOT_OK(Overwrite().status());
  }
  if (opts.wrong_reference) refs_[0][0] = refs_[0][1] = ~refs_[0][0];
  if (states_ == 1) {
    // Read-only workloads write a shadow copy of the target object that no
    // table lists, so their writes invalidate nothing the queries read.
    write_key_ += ".shadow";
    POCS_RETURN_NOT_OK(Overwrite().status());
  }
  return WarmUp();
}

Status Bench::ComputeReferences(size_t state) {
  for (size_t q = 0; q < queries_.size(); ++q) {
    POCS_ASSIGN_OR_RETURN(auto result,
                          bed_->engine().Execute(queries_[q].sql, "ref"));
    refs_[q][state] = ResultFingerprint(*result.table);
    if (states_ == 1) refs_[q][1] = refs_[q][0];
  }
  return Status::OK();
}

// Fills the metadata, split-result and row-group caches and touches every
// object once, so the timed loop starts in steady state. On cached_rw it
// then overwrites and re-reads until both the row-group and the
// split-result cache have evicted: an overwrite leaves the old version's
// row groups and version-pinned split results cached until the LRU drops
// them, so memory grows with the write count until both caches are full,
// and a timed loop that started earlier would measure that growth.
Status Bench::WarmUp() {
  auto pass = [this]() -> Status {
    for (const QuerySpec& spec : queries_) {
      POCS_RETURN_NOT_OK(
          bed_->engine().Execute(spec.sql, spec.catalog).status());
    }
    return Status::OK();
  };
  POCS_RETURN_NOT_OK(pass());
  POCS_RETURN_NOT_OK(pass());
  if (states_ == 1) return Status::OK();
  auto& registry = pocs::metrics::Registry::Default();
  auto& rowgroup = registry.GetCounter("ocs.rowgroup_cache.eviction");
  auto& split = registry.GetCounter("ocs.splitresult_cache.eviction");
  const uint64_t rowgroup0 = rowgroup.value(), split0 = split.value();
  // A few cycles past the first eviction of both, with a cap in case one
  // never comes.
  constexpr size_t kCyclesAfterFull = 8, kMaxCycles = 2000;
  size_t after_full = 0;
  while (after_full < kCyclesAfterFull && record_.warmup_writes < kMaxCycles) {
    POCS_RETURN_NOT_OK(Overwrite().status());
    ++record_.warmup_writes;
    POCS_RETURN_NOT_OK(pass());
    if (rowgroup.value() > rowgroup0 && split.value() > split0) ++after_full;
  }
  return Status::OK();
}

bool Bench::CheckAnswer(size_t q, const pocs::columnar::RecordBatch& table) const {
  const uint64_t fp = ResultFingerprint(table);
  for (size_t s = 0; s < states_; ++s) {
    if (refs_[q][s] == fp) return true;
  }
  return false;
}

// A write is timed as a client issues it: PutObject takes the object's
// bytes by value, so a client that keeps its copy hands over a new buffer.
// The timing covers that copy and the call.
Result<double> Bench::Overwrite() {
  const size_t next = states_ == 2 ? 1 - state_ : 0;
  const auto t0 = std::chrono::steady_clock::now();
  POCS_RETURN_NOT_OK(bed_->cluster().PutObject(write_bucket_, write_key_,
                                               pocs::Bytes(contents_[next])));
  const double wall = SecondsSince(t0);
  state_ = next;
  return wall;
}

// ---- schedule ---------------------------------------------------------------

Schedule::Schedule(const Bench& bench, uint64_t seed)
    : n_queries_(bench.queries().size()),
      write_share_(bench.write_share()),
      state_(seed * 0x9e3779b97f4a7c15ull) {}

uint64_t Schedule::Draw() { return SplitMix(&state_); }

Op Schedule::Next() {
  if (write_share_ > 0) {
    const double u = static_cast<double>(Draw() >> 11) * 0x1.0p-53;
    if (u < write_share_) return {true, 0};
  }
  if (pos_ == 0) {
    round_.resize(n_queries_);
    for (size_t i = 0; i < n_queries_; ++i) round_[i] = i;
    for (size_t i = n_queries_; i > 1; --i) {
      std::swap(round_[i - 1], round_[Draw() % i]);
    }
  }
  const size_t q = round_[pos_];
  pos_ = (pos_ + 1) % n_queries_;
  return {false, q};
}

// ---- closed loop ------------------------------------------------------------

namespace {

QuerySample MakeSample(size_t query, double wall,
                       const pocs::engine::QueryResult& result) {
  const auto& m = result.metrics;
  QuerySample sample;
  sample.query = query;
  sample.wall = wall;
  sample.result_rows = result.table->num_rows();
  for (const auto& d : m.pushdown_decisions) {
    ++sample.pushdown_offered;
    sample.pushdown_accepted += d.accepted ? 1 : 0;
  }
  sample.total = m.total;
  sample.logical_plan_analysis = m.logical_plan_analysis;
  sample.ir_generation = m.ir_generation;
  sample.pushdown_and_transfer = m.pushdown_and_transfer;
  sample.post_scan_execution = m.post_scan_execution;
  sample.admission_queue_seconds = m.admission_queue_seconds;
  sample.storage_compute_seconds = m.storage_compute_seconds;
  sample.bytes_moved = m.bytes_from_storage + m.bytes_to_storage;
  sample.rows_scanned = m.rows_scanned;
  sample.splits = m.splits;
  sample.splits_pruned = m.splits_pruned;
  sample.rows_dict_filtered = m.rows_dict_filtered;
  sample.rows_late_materialized = m.rows_late_materialized;
  sample.bloom_rows_pruned = m.bloom_rows_pruned;
  return sample;
}

}  // namespace


LoopResult RunClosedLoop(Bench& bench, const BenchOptions& opts,
                         double seconds) {
  LoopResult out;
  Schedule schedule(bench, opts.seed);
  auto fail = [&out](std::string msg) {
    ++out.failed;
    if (out.failures.size() < 8) out.failures.push_back(std::move(msg));
  };
  auto write = [&] {
    ++out.attempted;
    auto wall = bench.Overwrite();
    if (wall.ok()) {
      out.writes.push_back(*wall);
    } else {
      fail("write: " + wall.status().ToString());
    }
  };
  // Room for 10000 queries a second, reserved up front: the vector then
  // never reallocates, so it adds to peak RSS only the pages it fills.
  out.timings.reserve(static_cast<size_t>(seconds * 10000) + 1024);
  const auto t0 = std::chrono::steady_clock::now();
  do {
    const Op op = schedule.Next();
    if (op.write) {
      write();
      continue;
    }
    ++out.attempted;
    const QuerySpec& spec = bench.queries()[op.query];
    const auto q0 = std::chrono::steady_clock::now();
    auto result = bench.bed().engine().Execute(spec.sql, spec.catalog);
    const double wall = SecondsSince(q0);
    if (!result.ok()) {
      fail(spec.name + ": " + result.status().ToString());
    } else if (!bench.CheckAnswer(op.query, *result->table)) {
      fail(spec.name + ": answer does not match the reference");
    } else {
      const auto& m = result->metrics;
      out.timings.push_back({static_cast<uint32_t>(op.query), wall, m.total,
                             m.bytes_from_storage + m.bytes_to_storage});
      if (opts.trace) out.samples.push_back(MakeSample(op.query, wall, *result));
    }
    // Read-only workloads follow every query with a shadow write.
    if (bench.write_share() == 0) write();
  } while (SecondsSince(t0) < seconds || !schedule.AtRoundEnd());
  out.elapsed = SecondsSince(t0);
  return out;
}

}  // namespace perfbench
