#include "connectors/hive/hive_connector.h"

#include "common/metrics.h"
#include "common/stopwatch.h"
#include "exec/scan_source.h"
#include "format/parquet_lite.h"

namespace pocs::connectors {

using columnar::RecordBatchPtr;
using columnar::SchemaPtr;
using connector::PageSourceStats;
using connector::PushedOperator;
using connector::ScanSpec;
using connector::Split;
using connector::TableHandle;

Result<TableHandle> HiveConnector::GetTableHandle(
    const std::string& schema_name, const std::string& table) {
  POCS_ASSIGN_OR_RETURN(metastore::TableInfo info,
                        metastore_->GetTable(schema_name, table));
  TableHandle handle;
  handle.connector_id = id_;
  handle.info = std::move(info);
  return handle;
}

Result<connector::SplitPlan> HiveConnector::GetSplits(const TableHandle& table,
                                                      const ScanSpec&) {
  // S3-style storage exposes no object statistics, so hive plans one
  // split per object with no pruning.
  connector::SplitPlan plan;
  for (const std::string& object : table.info.objects) {
    plan.splits.push_back({table.info.bucket, object});
  }
  plan.splits_planned = plan.splits.size();
  return plan;
}

namespace {

// Mirrors every OfferPushdown outcome into the registry.
bool RecordHivePushdownDecision(bool accepted) {
  auto& reg = metrics::Registry::Default();
  static auto& offered = reg.GetCounter("connector.hive.pushdown_offered");
  static auto& ok = reg.GetCounter("connector.hive.pushdown_accepted");
  static auto& rejected = reg.GetCounter("connector.hive.pushdown_rejected");
  offered.Increment();
  (accepted ? ok : rejected).Increment();
  return accepted;
}

}  // namespace

Result<bool> HiveConnector::OfferPushdown(
    const TableHandle& table, const PushedOperator& op, ScanSpec* spec,
    connector::PushdownDecision* decision) {
  (void)table;
  decision->kind = op.kind;
  if (!config_.select_pushdown) {
    decision->accepted = false;
    decision->reason = "select pushdown disabled (raw GET mode)";
    return RecordHivePushdownDecision(false);
  }
  if (op.kind != PushedOperator::Kind::kFilter) {
    decision->accepted = false;
    decision->reason = "S3 Select API supports only filter and projection";
    return RecordHivePushdownDecision(false);
  }
  if (spec->HasOperator(PushedOperator::Kind::kFilter)) {
    decision->accepted = false;
    decision->reason = "one Select filter per scan";
    return RecordHivePushdownDecision(false);
  }
  std::vector<format::SelectPredicate> terms;
  if (!exec::CollectPruningTerms(op.predicate, *spec->output_schema, &terms)) {
    decision->accepted = false;
    decision->reason = "predicate not expressible in the Select API";
    return RecordHivePushdownDecision(false);
  }
  if (config_.s3_strict_types) {
    // Strict S3 Select cannot process or return doubles: any float64 in
    // the scanned schema forces the whole scan off the Select path.
    for (const columnar::Field& f : spec->output_schema->fields()) {
      if (f.type == columnar::TypeKind::kFloat64) {
        decision->accepted = false;
        decision->reason =
            "S3 Select (strict mode) does not support float64 column '" +
            f.name + "'";
        return RecordHivePushdownDecision(false);
      }
    }
  }
  spec->operators.push_back(op);  // filter preserves the schema
  decision->accepted = true;
  decision->reason = "conjunctive comparison filter via S3 Select";
  return RecordHivePushdownDecision(true);
}

namespace {

// Page source for the Select path: one CSV response per split.
class SelectPageSource final : public connector::PageSource {
 public:
  SelectPageSource(SchemaPtr schema, RecordBatchPtr batch,
                   PageSourceStats stats)
      : schema_(std::move(schema)), batch_(std::move(batch)), stats_(stats) {}

  SchemaPtr schema() const override { return schema_; }
  Result<RecordBatchPtr> Next() override {
    RecordBatchPtr out = std::move(batch_);
    batch_ = nullptr;
    return out;
  }
  const PageSourceStats& stats() const override { return stats_; }

 private:
  SchemaPtr schema_;
  RecordBatchPtr batch_;
  PageSourceStats stats_;
};

// Page source for the paths that decode the whole object compute-side:
// raw GET (no terms) and the Select→GET degradation path, whose scan
// re-applies the accepted filter's terms — with the storage scan's
// pruning and dictionary filter — so the rows still honour the pushdown
// contract.
class ScanPageSource final : public connector::PageSource {
 public:
  ScanPageSource(std::unique_ptr<exec::ScanSource> scan, PageSourceStats stats)
      : scan_(std::move(scan)), stats_(stats) {}

  SchemaPtr schema() const override { return scan_->schema(); }

  Result<RecordBatchPtr> Next() override {
    Stopwatch decode;
    POCS_ASSIGN_OR_RETURN(RecordBatchPtr batch, scan_->Next());
    stats_.decode_seconds += decode.ElapsedSeconds();
    static_cast<ScanCounters&>(stats_) = scan_->counters();
    // Every decoded row was "scanned" — at the compute node, which is
    // exactly the baseline's problem.
    stats_.rows_scanned = scan_->rows_read();
    if (batch) stats_.rows_received += batch->num_rows();
    return batch;
  }
  const PageSourceStats& stats() const override { return stats_; }

 private:
  std::unique_ptr<exec::ScanSource> scan_;
  PageSourceStats stats_;
};

Result<std::unique_ptr<connector::PageSource>> MakeScanPageSource(
    Bytes object, exec::ScanOptions options, PageSourceStats stats) {
  POCS_ASSIGN_OR_RETURN(auto reader,
                        format::FileReader::Open(std::move(object)));
  return std::unique_ptr<connector::PageSource>(
      std::make_unique<ScanPageSource>(
          std::make_unique<exec::ScanSource>(std::move(reader),
                                             std::move(options)),
          stats));
}

}  // namespace

Result<std::unique_ptr<connector::PageSource>> HiveConnector::CreatePageSource(
    const TableHandle& table, const Split& split, const ScanSpec& spec) {
  const SchemaPtr& table_schema = table.info.schema;

  // Scan-level column pruning...
  std::vector<int> columns = spec.columns;
  SchemaPtr scan_schema;
  if (columns.empty()) {
    scan_schema = table_schema;
  } else {
    std::vector<columnar::Field> fields;
    for (int c : columns) fields.push_back(table_schema->field(c));
    scan_schema = columnar::MakeSchema(std::move(fields));
  }
  // ...then the result-column projection (drops predicate-only columns;
  // in raw-GET mode this is decode-side projection, in Select mode it is
  // the request's SELECT list).
  SchemaPtr projected = scan_schema;
  if (!spec.result_columns.empty()) {
    std::vector<columnar::Field> fields;
    std::vector<int> table_indices;
    for (int c : spec.result_columns) {
      fields.push_back(scan_schema->field(c));
      table_indices.push_back(columns.empty() ? c : columns[c]);
    }
    projected = columnar::MakeSchema(std::move(fields));
    columns = std::move(table_indices);  // compute-side scans decode these
  }

  // Strict mode: a float64 anywhere in the projection forces raw GET.
  bool strict_blocks_select = false;
  if (config_.s3_strict_types) {
    for (const columnar::Field& f : projected->fields()) {
      if (f.type == columnar::TypeKind::kFloat64) strict_blocks_select = true;
    }
  }

  if (!config_.select_pushdown || strict_blocks_select ||
      spec.operators.empty()) {
    if (config_.select_pushdown && !strict_blocks_select &&
        !spec.columns.empty()) {
      // Select path without a filter: projection-only Select.
      // (Falls through to the Select request below with no predicates.)
    } else if (!config_.select_pushdown || strict_blocks_select) {
      // Raw GET: the entire object crosses the network.
      PageSourceStats stats;
      objectstore::TransferInfo info;
      POCS_ASSIGN_OR_RETURN(
          Bytes object,
          client_.Get(split.bucket, split.object, &info, config_.call));
      stats.dispatch_retries = info.retries;
      {
        auto& reg = metrics::Registry::Default();
        static auto& gets = reg.GetCounter("connector.hive.raw_gets");
        static auto& bytes = reg.GetCounter("connector.hive.bytes_received");
        gets.Increment();
        bytes.Add(info.bytes_received);
      }
      stats.bytes_received = info.bytes_received;
      stats.bytes_sent = info.bytes_sent;
      stats.transfer_seconds = info.transfer_seconds;
      // The GET reads the whole object off the storage node's media.
      stats.media_read_seconds =
          static_cast<double>(object.size()) / config_.media_read_bandwidth;
      exec::ScanOptions options;
      options.columns = columns;
      return MakeScanPageSource(std::move(object), std::move(options), stats);
    }
  }

  // Select path: filter (if pushed) + projection at storage, CSV back.
  objectstore::SelectRequest request;
  request.bucket = split.bucket;
  request.key = split.object;
  for (const columnar::Field& f : projected->fields()) {
    request.columns.push_back(f.name);
  }
  for (const auto& op : spec.operators) {
    if (op.kind != PushedOperator::Kind::kFilter) {
      return Status::Internal("hive: unsupported pushed operator");
    }
    // Predicate field refs are relative to the scan schema (they may name
    // columns dropped from the result projection).
    if (!exec::CollectPruningTerms(op.predicate, *scan_schema,
                                  &request.predicates)) {
      return Status::Internal("hive: accepted filter not expressible");
    }
  }

  PageSourceStats stats;
  objectstore::TransferInfo info;
  Stopwatch select_timer;
  Result<objectstore::SelectResponse> select_or =
      client_.Select(request, &info, config_.call);
  if (!select_or.ok()) {
    stats.bytes_received = info.bytes_received;
    stats.bytes_sent = info.bytes_sent;
    stats.transfer_seconds = info.transfer_seconds;
    stats.dispatch_retries = info.retries;
    stats.failed_dispatches = 1;
    {
      auto& reg = metrics::Registry::Default();
      static auto& failed = reg.GetCounter("connector.hive.failed_selects");
      failed.Increment();
    }
    if (!config_.fallback_to_raw_get || !rpc::IsRetryable(select_or.status())) {
      return select_or.status();
    }
    // Degrade to a raw GET of the whole object; the accepted filter's
    // terms are re-applied compute-side by the scan so rows stay correct.
    objectstore::TransferInfo get_info;
    POCS_ASSIGN_OR_RETURN(
        Bytes object,
        client_.Get(split.bucket, split.object, &get_info,
                    config_.fallback_call));
    stats.bytes_received += get_info.bytes_received;
    stats.bytes_sent += get_info.bytes_sent;
    stats.transfer_seconds += get_info.transfer_seconds;
    stats.dispatch_retries += get_info.retries;
    stats.media_read_seconds +=
        static_cast<double>(object.size()) / config_.media_read_bandwidth;
    stats.fallbacks = 1;
    {
      auto& reg = metrics::Registry::Default();
      static auto& fallbacks = reg.GetCounter("connector.hive.fallbacks");
      fallbacks.Increment();
    }
    exec::ScanOptions options;
    options.columns = columns;
    options.terms = std::move(request.predicates);
    return MakeScanPageSource(std::move(object), std::move(options), stats);
  }
  objectstore::SelectResponse response = std::move(*select_or);
  // The synchronous in-process Select call's wall time is storage-side
  // work; scale it to the storage node's weaker CPU.
  stats.storage_compute_seconds =
      select_timer.ElapsedSeconds() * config_.storage_cpu_slowdown;
  stats.media_read_seconds =
      static_cast<double>(response.stats.object_bytes_read) /
      config_.media_read_bandwidth;
  stats.row_groups_total = response.stats.groups_total;
  stats.row_groups_skipped = response.stats.groups_skipped;
  stats.rows_scanned = response.stats.rows_scanned;
  stats.bytes_received = info.bytes_received;
  stats.bytes_sent = info.bytes_sent;
  stats.transfer_seconds = info.transfer_seconds;
  stats.dispatch_retries = info.retries;

  Stopwatch decode;
  POCS_ASSIGN_OR_RETURN(RecordBatchPtr batch,
                        objectstore::ParseSelectCsv(response.csv, projected));
  stats.decode_seconds = decode.ElapsedSeconds();
  stats.rows_received = batch->num_rows();

  {
    auto& reg = metrics::Registry::Default();
    static auto& selects = reg.GetCounter("connector.hive.select_requests");
    static auto& bytes = reg.GetCounter("connector.hive.bytes_received");
    static auto& rows = reg.GetCounter("connector.hive.rows_received");
    static auto& csv = reg.GetHistogram("connector.hive.csv_decode_seconds");
    selects.Increment();
    bytes.Add(stats.bytes_received);
    rows.Add(stats.rows_received);
    csv.Record(stats.decode_seconds);
  }
  return std::unique_ptr<connector::PageSource>(
      std::make_unique<SelectPageSource>(projected, std::move(batch), stats));
}

}  // namespace pocs::connectors
