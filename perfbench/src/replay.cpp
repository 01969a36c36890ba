#include "replay.h"

#include <algorithm>
#include <chrono>
#include <memory>

#include "columnar/ipc.h"
#include "compress/codec.h"
#include "connectors/hive/hive_connector.h"
#include "connectors/ocs/ocs_connector.h"
#include "connectors/ocs/translator.h"
#include "engine/analyzer.h"
#include "engine/optimizer.h"
#include "engine/two_phase.h"
#include "exec/hash_aggregator.h"
#include "format/encoding.h"
#include "format/parquet_lite.h"
#include "objectstore/select.h"
#include "ocs/storage_node.h"
#include "sql/parser.h"
#include "stats.h"
#include "substrait/eval.h"
#include "substrait/serialize.h"

namespace perfbench {

using pocs::Result;
using pocs::Status;
using pocs::columnar::RecordBatchPtr;
using pocs::engine::NodeKind;
using pocs::engine::PlanNode;
using pocs::engine::PlanNodePtr;

namespace {

// Counts the replay saw, compared against the engine's own QueryMetrics.
struct ReplayCounts {
  uint64_t splits = 0;
  uint64_t rows = 0;
  uint64_t bytes = 0;
};

class Replayer {
 public:
  Replayer(Bench& bench, TraceResult* out) : bench_(bench), out_(out) {
    // Replica storage nodes over the same object stores: direct
    // ExecutePlan calls get a row-group cache of the workload's budget
    // that only the replay touches, so they neither warm nor evict the
    // real nodes' caches.
    auto& cluster = bench.bed().cluster();
    pocs::ocs::StorageNodeConfig cfg;
    cfg.rowgroup_cache_bytes = bench.record().rowgroup_cache_budget;
    for (size_t i = 0; i < cluster.num_storage_nodes(); ++i) {
      replicas_.push_back(std::make_unique<pocs::ocs::StorageNode>(
          cluster.storage_node(i).store(), cfg));
    }
  }

  Status ReplayQuery(const QuerySpec& spec, uint64_t qid, int64_t root,
                     ReplayCounts* counts);

 private:
  Status ReplaySplit(const QuerySpec& spec, pocs::connector::Connector& conn,
                     const pocs::connector::TableHandle& table,
                     const pocs::connector::Split& split,
                     const PlanNode& scan,
                     const std::vector<PlanNode*>& stream_nodes,
                     const PlanNode* partial_agg, uint64_t qid, int64_t root,
                     ReplayCounts* counts);
  Status ReplayResidual(const std::vector<RecordBatchPtr>& batches,
                        const PlanNode& scan,
                        const std::vector<PlanNode*>& stream_nodes,
                        const PlanNode* partial_agg);
  Status ReplayModules(const QuerySpec& spec, pocs::connector::Connector& conn,
                       const pocs::connector::TableHandle& table,
                       const pocs::connector::Split& split,
                       const pocs::connector::ScanSpec& scan_spec,
                       uint64_t qid, int64_t parent);

  Bench& bench_;
  TraceResult* out_;
  std::vector<std::unique_ptr<pocs::ocs::StorageNode>> replicas_;
};

// The first pushed filter's predicate, if any.
const pocs::substrait::Expression* PushedFilter(
    const pocs::connector::ScanSpec& spec) {
  for (const auto& op : spec.operators) {
    if (op.kind == pocs::connector::PushedOperator::Kind::kFilter) {
      return &op.predicate;
    }
  }
  return nullptr;
}

// Table columns the scan reads (all when the spec lists none).
std::vector<int> ScanColumns(const pocs::connector::TableHandle& table,
                             const pocs::connector::ScanSpec& spec) {
  if (!spec.columns.empty()) return spec.columns;
  std::vector<int> all(table.info.schema->num_fields());
  for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<int>(i);
  return all;
}

Status Replayer::ReplayQuery(const QuerySpec& spec, uint64_t qid,
                             int64_t root, ReplayCounts* counts) {
  Tracer& tr = out_->tracer;
  auto& engine = bench_.bed().engine();
  pocs::connector::Connector* conn = engine.GetConnector(spec.catalog);
  if (conn == nullptr) return Status::NotFound("catalog " + spec.catalog);

  pocs::sql::Query query;
  {
    ScopedSpan s(tr, "sql::ParseQuery", root, qid, Tier::kCompute);
    POCS_ASSIGN_OR_RETURN(query, pocs::sql::ParseQuery(spec.sql));
  }
  const std::string schema_name =
      query.schema_name.empty() ? "default" : query.schema_name;
  pocs::connector::TableHandle table, build;
  PlanNodePtr plan;
  {
    ScopedSpan plan_span(tr, "engine.plan", root, qid, Tier::kCompute);
    {
      ScopedSpan s(tr, "connector::GetTableHandle", plan_span.id(), qid);
      POCS_ASSIGN_OR_RETURN(table,
                            conn->GetTableHandle(schema_name, query.table_name));
      if (spec.join) {
        POCS_ASSIGN_OR_RETURN(
            build, conn->GetTableHandle(schema_name, query.join_table_name));
      }
    }
    {
      ScopedSpan s(tr, "engine::AnalyzeQuery", plan_span.id(), qid);
      POCS_ASSIGN_OR_RETURN(
          plan, pocs::engine::AnalyzeQuery(query, table,
                                           spec.join ? &build : nullptr));
    }
    {
      ScopedSpan s(tr, "engine::PruneColumns", plan_span.id(), qid);
      POCS_RETURN_NOT_OK(pocs::engine::PruneColumns(plan));
    }
    {
      ScopedSpan s(tr, "engine::RunConnectorOptimizer", plan_span.id(), qid);
      POCS_ASSIGN_OR_RETURN(auto local,
                            pocs::engine::RunConnectorOptimizer(plan, *conn));
      plan = local.plan;
    }
  }

  if (spec.join) {
    // The join chain's two scans and bloom negotiation run inside the
    // engine; the replay covers its planning and times the rest whole.
    ScopedSpan s(tr, "engine::QueryEngine::Execute", root, qid);
    POCS_ASSIGN_OR_RETURN(auto result, engine.Execute(spec.sql, spec.catalog));
    (void)result;
    return Status::OK();
  }

  // Same chain classification as the engine: scan, per-split filters and
  // projections, then an optional aggregation.
  std::vector<PlanNode*> chain;
  for (PlanNode* n = plan.get(); n; n = n->input.get()) chain.push_back(n);
  std::reverse(chain.begin(), chain.end());
  if (chain.empty() || chain[0]->kind != NodeKind::kTableScan) {
    return Status::Internal("replay: optimized plan lost its scan");
  }
  const PlanNode& scan = *chain[0];
  size_t idx = 1;
  std::vector<PlanNode*> stream_nodes;
  while (idx < chain.size() &&
         (chain[idx]->kind == NodeKind::kFilter ||
          (chain[idx]->kind == NodeKind::kProject &&
           !chain[idx]->identity_project))) {
    stream_nodes.push_back(chain[idx++]);
  }
  const PlanNode* partial_agg = nullptr;
  if (idx < chain.size() && chain[idx]->kind == NodeKind::kAggregation &&
      chain[idx]->agg_step == pocs::engine::AggregationStep::kSingle) {
    partial_agg = chain[idx];
  }

  pocs::connector::SplitPlan split_plan;
  {
    ScopedSpan s(tr, "connector::GetSplits", root, qid, Tier::kCompute);
    POCS_ASSIGN_OR_RETURN(split_plan, conn->GetSplits(table, scan.scan_spec));
  }
  counts->splits = split_plan.splits.size();
  for (const auto& split : split_plan.splits) {
    POCS_RETURN_NOT_OK(ReplaySplit(spec, *conn, table, split, scan,
                                   stream_nodes, partial_agg, qid, root,
                                   counts));
  }
  return Status::OK();
}

Status Replayer::ReplaySplit(const QuerySpec& spec,
                             pocs::connector::Connector& conn,
                             const pocs::connector::TableHandle& table,
                             const pocs::connector::Split& split,
                             const PlanNode& scan,
                             const std::vector<PlanNode*>& stream_nodes,
                             const PlanNode* partial_agg, uint64_t qid,
                             int64_t root, ReplayCounts* counts) {
  Tracer& tr = out_->tracer;
  ScopedSpan split_span(tr, "split", root, qid);
  std::vector<RecordBatchPtr> batches;
  {
    ScopedSpan s(tr, "connector::PageSource", split_span.id(), qid);
    POCS_ASSIGN_OR_RETURN(auto source,
                          conn.CreatePageSource(table, split, scan.scan_spec));
    while (true) {
      POCS_ASSIGN_OR_RETURN(RecordBatchPtr batch, source->Next());
      if (!batch) break;
      batches.push_back(std::move(batch));
    }
    counts->rows += source->stats().rows_received;
    counts->bytes += source->stats().bytes_received;
  }
  {
    ScopedSpan s(tr, "engine.residual", split_span.id(), qid, Tier::kCompute);
    POCS_RETURN_NOT_OK(
        ReplayResidual(batches, scan, stream_nodes, partial_agg));
  }
  return ReplayModules(spec, conn, table, split, scan.scan_spec, qid,
                       split_span.id());
}

// The compute-side work the engine does per split: residual filters and
// projections over the decoded pages, then the partial aggregation.
Status Replayer::ReplayResidual(const std::vector<RecordBatchPtr>& batches,
                                const PlanNode& scan,
                                const std::vector<PlanNode*>& stream_nodes,
                                const PlanNode* partial_agg) {
  pocs::columnar::SchemaPtr stream_schema =
      stream_nodes.empty() ? scan.scan_spec.output_schema
                           : stream_nodes.back()->output_schema;
  if (!stream_schema) stream_schema = scan.output_schema;
  std::unique_ptr<pocs::exec::HashAggregator> agg;
  if (partial_agg != nullptr) {
    agg = std::make_unique<pocs::exec::HashAggregator>(
        stream_schema, partial_agg->group_keys,
        pocs::engine::PartialAggSpecs(partial_agg->aggregates));
  }
  for (RecordBatchPtr batch : batches) {
    for (const PlanNode* node : stream_nodes) {
      if (node->kind == NodeKind::kFilter) {
        POCS_ASSIGN_OR_RETURN(
            batch, pocs::substrait::FilterBatch(node->predicate, *batch));
      } else {
        std::vector<pocs::columnar::ColumnPtr> cols;
        for (const auto& e : node->expressions) {
          POCS_ASSIGN_OR_RETURN(auto col, pocs::substrait::Evaluate(e, *batch));
          cols.push_back(std::move(col));
        }
        batch = pocs::columnar::MakeBatch(node->output_schema, std::move(cols));
      }
      if (batch->num_rows() == 0) break;
    }
    if (agg && batch->num_rows() > 0) POCS_RETURN_NOT_OK(agg->Consume(*batch));
  }
  if (agg) POCS_RETURN_NOT_OK(agg->Finish().status());
  return Status::OK();
}

Status Replayer::ReplayModules(const QuerySpec& spec,
                               pocs::connector::Connector& conn,
                               const pocs::connector::TableHandle& table,
                               const pocs::connector::Split& split,
                               const pocs::connector::ScanSpec& scan_spec,
                               uint64_t qid, int64_t parent) {
  Tracer& tr = out_->tracer;
  auto& cluster = bench_.bed().cluster();
  size_t node = cluster.num_storage_nodes();
  for (size_t i = 0; i < cluster.num_storage_nodes(); ++i) {
    if (cluster.storage_node(i).store()->Stat(split.bucket, split.object).ok()) {
      node = i;
      break;
    }
  }
  if (node == cluster.num_storage_nodes()) {
    return Status::NotFound("replay: no node holds " + split.object);
  }
  const auto& store = *cluster.storage_node(node).store();
  const std::vector<int> columns = ScanColumns(table, scan_spec);
  const auto& schema = *table.info.schema;
  std::vector<pocs::columnar::Field> scan_fields;
  for (int c : columns) scan_fields.push_back(schema.field(c));
  const auto scan_schema = pocs::columnar::MakeSchema(scan_fields);
  std::vector<pocs::objectstore::SelectPredicate> terms;
  if (const auto* filter = PushedFilter(scan_spec)) {
    pocs::ocs::CollectPruningTerms(*filter, *scan_schema, &terms);
  }

  pocs::objectstore::ObjectData object;
  const bool raw_get = spec.catalog == "hive_raw";
  if (dynamic_cast<pocs::connectors::OcsConnector*>(&conn) != nullptr) {
    pocs::substrait::Plan plan;
    {
      ScopedSpan s(tr, "connectors::TranslateScanSpec", parent, qid,
                   Tier::kCompute);
      POCS_ASSIGN_OR_RETURN(
          plan, pocs::connectors::TranslateScanSpec(table, split, scan_spec));
    }
    pocs::Bytes wire;
    {
      ScopedSpan s(tr, "substrait::SerializePlan", parent, qid, Tier::kCompute);
      wire = pocs::substrait::SerializePlan(plan);
    }
    out_->plan_bytes += wire.size();
    ++out_->plans;
    pocs::substrait::Plan received;
    {
      ScopedSpan s(tr, "substrait::DeserializePlan", parent, qid,
                   Tier::kStorage);
      POCS_ASSIGN_OR_RETURN(received, pocs::substrait::DeserializePlan(wire));
    }
    pocs::ocs::OcsResult result;
    {
      ScopedSpan s(tr, "ocs::StorageNode::ExecutePlan", parent, qid,
                   Tier::kStorage);
      POCS_ASSIGN_OR_RETURN(result, replicas_[node]->ExecutePlan(received));
    }
    out_->ipc_bytes += result.arrow_ipc.size();
    std::shared_ptr<pocs::columnar::Table> decoded;
    {
      ScopedSpan s(tr, "columnar::ipc::DeserializeTable", parent, qid,
                   Tier::kCompute);
      POCS_ASSIGN_OR_RETURN(decoded,
                            pocs::columnar::ipc::DeserializeTable(result.arrow_ipc));
    }
    {
      ScopedSpan s(tr, "columnar::ipc::SerializeTable", parent, qid);
      pocs::Bytes reencoded = pocs::columnar::ipc::SerializeTable(*decoded);
      (void)reencoded;
    }
  } else if (raw_get) {
    ScopedSpan s(tr, "objectstore::ObjectStore::Get", parent, qid,
                 Tier::kStorage);
    POCS_ASSIGN_OR_RETURN(object, store.Get(split.bucket, split.object));
  } else {
    pocs::objectstore::SelectRequest request;
    request.bucket = split.bucket;
    request.key = split.object;
    for (const auto& f : scan_fields) request.columns.push_back(f.name);
    request.predicates = terms;
    pocs::objectstore::SelectResponse response;
    {
      ScopedSpan s(tr, "objectstore::ExecuteSelect", parent, qid,
                   Tier::kStorage);
      POCS_ASSIGN_OR_RETURN(response,
                            pocs::objectstore::ExecuteSelect(store, request));
    }
    {
      ScopedSpan s(tr, "objectstore::ParseSelectCsv", parent, qid,
                   Tier::kCompute);
      POCS_ASSIGN_OR_RETURN(auto batch, pocs::objectstore::ParseSelectCsv(
                                            response.csv, scan_schema));
      (void)batch;
    }
  }

  // Format, codec and dictionary-filter layers over the split's row
  // groups. On hive_raw the engine itself decodes the object, so that
  // decode is compute-side work; elsewhere it is a layer measurement.
  if (!object) {
    POCS_ASSIGN_OR_RETURN(object, store.Get(split.bucket, split.object));
  }
  POCS_ASSIGN_OR_RETURN(auto reader, pocs::format::FileReader::Open(*object));
  std::vector<size_t> groups;
  if (!split.row_groups.empty()) {
    groups.assign(split.row_groups.begin(), split.row_groups.end());
  } else {
    for (size_t g = 0; g < reader->num_row_groups(); ++g) groups.push_back(g);
  }
  const auto& meta = reader->meta();
  const auto& codec = pocs::compress::GetCodec(meta.codec);
  for (size_t g : groups) {
    if (g >= reader->num_row_groups()) continue;
    {
      ScopedSpan s(tr, "format::FileReader::ReadRowGroup", parent, qid,
                   raw_get ? Tier::kCompute : Tier::kNone);
      POCS_ASSIGN_OR_RETURN(auto batch, reader->ReadRowGroup(g, columns));
      (void)batch;
    }
    for (int c : columns) {
      const auto& chunk = meta.row_groups[g].chunks[c];
      pocs::ByteSpan raw(object->data() + chunk.offset, chunk.length);
      ScopedSpan s(tr, "compress::Codec::Decompress", parent, qid);
      POCS_ASSIGN_OR_RETURN(pocs::Bytes page, codec.Decompress(raw));
      out_->compressed_bytes += chunk.length;
      out_->decompressed_bytes += page.size();
    }
    for (const auto& term : terms) {
      const int c = schema.FieldIndex(term.column);
      if (c < 0 || schema.field(c).type != pocs::columnar::TypeKind::kString) {
        continue;
      }
      POCS_ASSIGN_OR_RETURN(pocs::Bytes page, reader->ReadChunkPage(g, c));
      ScopedSpan s(tr, "format::DictFilter", parent, qid);
      POCS_ASSIGN_OR_RETURN(
          auto dict, pocs::format::DecodeDictionaryPage(
                         page, schema.field(c), meta.row_groups[g].num_rows));
      if (!dict) continue;
      const auto match =
          pocs::format::TranslateDictPredicate(*dict, term.op, term.literal);
      const auto sel = pocs::format::FilterDictCodes(*dict, match);
      (void)sel;
    }
  }
  return Status::OK();
}

bool UsesSplitResultCache(Bench& bench, const QuerySpec& spec) {
  auto* ocs = dynamic_cast<pocs::connectors::OcsConnector*>(
      bench.bed().engine().GetConnector(spec.catalog));
  return ocs != nullptr && ocs->split_result_cache() != nullptr;
}

}  // namespace

TraceResult RunTracedReplay(Bench& bench, const BenchOptions& opts,
                            double seconds) {
  TraceResult out;
  Replayer replayer(bench, &out);
  Schedule schedule(bench, opts.seed);
  auto fail = [&out](std::string msg) {
    ++out.failed;
    if (out.failures.size() < 8) out.failures.push_back(std::move(msg));
  };
  auto write = [&] {
    ++out.attempted;
    const int64_t span =
        out.tracer.Begin("ocs::OcsCluster::PutObject", -1, 0);
    auto wall = bench.Overwrite();
    out.tracer.End(span);
    if (!wall.ok()) fail("write: " + wall.status().ToString());
  };
  // The replay stops after `seconds` or kMaxQueries queries, whichever
  // comes first (then at the end of a round), which bounds the trace file.
  constexpr size_t kMaxQueries = 1000;
  const auto t0 = std::chrono::steady_clock::now();
  while ((SecondsSince(t0) < seconds && out.queries < kMaxQueries) ||
         !schedule.AtRoundEnd()) {
    const Op op = schedule.Next();
    if (op.write) {
      write();
      continue;
    }
    const QuerySpec& spec = bench.queries()[op.query];
    auto& engine = bench.bed().engine();
    // The untraced loop writes the shadow object after every query of a
    // read-only workload; the replay writes it before each one.
    if (bench.write_share() == 0) write();
    ++out.attempted;
    // With a split-result cache, run once more first so the engine's run
    // and the replay both find the cache in the same (warm) state.
    if (UsesSplitResultCache(bench, spec)) {
      (void)engine.Execute(spec.sql, spec.catalog);
    }
    const auto q0 = std::chrono::steady_clock::now();
    auto result = engine.Execute(spec.sql, spec.catalog);
    const double untraced = SecondsSince(q0);
    if (!result.ok()) {
      fail(spec.name + ": " + result.status().ToString());
      continue;
    }
    if (!bench.CheckAnswer(op.query, *result->table)) {
      fail(spec.name + ": answer does not match the reference");
      continue;
    }
    const uint64_t qid = ++out.queries;
    ReplayCounts counts;
    const int64_t root =
        out.tracer.Begin("query:" + spec.name, -1, qid, Tier::kNone);
    Status st = replayer.ReplayQuery(spec, qid, root, &counts);
    out.tracer.End(root);
    out.untraced_wall += untraced;
    out.traced_wall += out.tracer.spans()[root].duration();
    if (!st.ok()) {
      fail(spec.name + ": replay: " + st.ToString());
      continue;
    }
    if (spec.join) continue;
    ++out.fidelity_checked;
    // Splits and rows must match exactly. Bytes may differ only by the
    // response header's cache-dependent varints (media bytes read, cache
    // hits, misses and bytes saved: at most 9 bytes each per split),
    // because the replay finds the row-group cache in another state.
    const auto& m = result->metrics;
    const uint64_t byte_slack = 4 * 9 * counts.splits;
    const uint64_t byte_diff = counts.bytes > m.bytes_from_storage
                                   ? counts.bytes - m.bytes_from_storage
                                   : m.bytes_from_storage - counts.bytes;
    if (counts.splits != m.splits || counts.rows != m.rows_from_storage ||
        byte_diff > byte_slack) {
      fail(spec.name + ": replay moved " + std::to_string(counts.splits) +
           " splits/" + std::to_string(counts.rows) + " rows/" +
           std::to_string(counts.bytes) + " bytes, Execute reported " +
           std::to_string(m.splits) + "/" +
           std::to_string(m.rows_from_storage) + "/" +
           std::to_string(m.bytes_from_storage));
    }
  }
  return out;
}

}  // namespace perfbench
