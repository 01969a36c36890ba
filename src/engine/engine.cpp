#include "engine/engine.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <unordered_map>

#include "columnar/kernels.h"
#include "common/bloom.h"
#include "common/stopwatch.h"
#include "engine/analyzer.h"
#include "engine/optimizer.h"
#include "engine/two_phase.h"
#include "exec/plan_executor.h"
#include "sql/parser.h"
#include "substrait/rel.h"

namespace pocs::engine {

using columnar::RecordBatchPtr;
using columnar::SchemaPtr;
using columnar::Table;
using connector::PageSourceStats;

QueryEngine::QueryEngine(EngineConfig config) : config_(config) {
  pool_ = std::make_unique<ThreadPool>(config_.worker_threads);
  if (config_.admission.enabled) {
    admission_ = std::make_unique<AdmissionController>(config_.admission);
  }
}

void QueryEngine::RegisterConnector(
    std::shared_ptr<connector::Connector> connector) {
  connectors_[connector->id()] = std::move(connector);
}

connector::Connector* QueryEngine::GetConnector(const std::string& id) const {
  auto it = connectors_.find(id);
  return it == connectors_.end() ? nullptr : it->second.get();
}

void QueryEngine::AddEventListener(
    std::shared_ptr<connector::EventListener> listener) {
  listeners_.push_back(std::move(listener));
}

namespace {

using substrait::Rel;
using substrait::RelKind;

struct SplitOutput {
  std::shared_ptr<Table> data;
  PageSourceStats stats;
  double compute_seconds = 0;  // residual operator time (ExecStats)
  Status status;
};

// Releases an admission slot on every exit path of Execute.
struct TicketReleaser {
  std::shared_ptr<AdmissionTicket> ticket;
  ~TicketReleaser() {
    if (ticket) ticket->Release();
  }
};

// ---- residual lowering: PlanNode chains → substrait::Rel chains -----------
// The engine's residual work runs through exec::ExecuteRel, the executor
// storage and the connector fallback use (DESIGN.md §2).

std::unique_ptr<Rel> StackRel(RelKind kind, std::unique_ptr<Rel> input) {
  auto rel = std::make_unique<Rel>();
  rel->kind = kind;
  rel->input = std::move(input);
  return rel;
}

// Schema of the pages a scan node's page sources return.
SchemaPtr ScanOutputSchema(const PlanNode& scan) {
  return scan.scan_spec.output_schema ? scan.scan_spec.output_schema
                                      : scan.output_schema;
}

// Appends the rel form of one residual node: TopN becomes Sort + Fetch
// (a bounded top-N when it is the chain's first blocking operator), Limit
// a Fetch.
Result<std::unique_ptr<Rel>> LowerNode(const PlanNode& node,
                                       std::unique_ptr<Rel> chain) {
  switch (node.kind) {
    case NodeKind::kFilter:
      chain = StackRel(RelKind::kFilter, std::move(chain));
      chain->predicate = node.predicate;
      return chain;
    case NodeKind::kProject:
      chain = StackRel(RelKind::kProject, std::move(chain));
      chain->expressions = node.expressions;
      chain->output_names = node.output_names;
      return chain;
    case NodeKind::kSort:
    case NodeKind::kTopN:
      chain = StackRel(RelKind::kSort, std::move(chain));
      chain->sort_fields = node.sort_fields;
      if (node.kind == NodeKind::kSort) return chain;
      chain = StackRel(RelKind::kFetch, std::move(chain));
      chain->count = node.limit;
      return chain;
    case NodeKind::kLimit:
      chain = StackRel(RelKind::kFetch, std::move(chain));
      chain->count = node.limit;
      return chain;
    default:
      return Status::Internal("unexpected residual node " +
                              std::string(NodeKindName(node.kind)));
  }
}

// `nodes` (bottom → top) over a Read of batches with `input_schema`.
Result<std::unique_ptr<Rel>> LowerChain(SchemaPtr input_schema,
                                        const std::vector<PlanNode*>& nodes) {
  auto chain = std::make_unique<Rel>();
  chain->base_schema = std::move(input_schema);
  for (const PlanNode* node : nodes) {
    POCS_ASSIGN_OR_RETURN(chain, LowerNode(*node, std::move(chain)));
  }
  return chain;
}

// The engine-side partial phase of `agg` (engine/two_phase.h), grouped by
// `group_keys` of the chain's output.
std::unique_ptr<Rel> PartialAggregate(const PlanNode& agg,
                                      std::vector<int> group_keys,
                                      std::unique_ptr<Rel> chain) {
  chain = StackRel(RelKind::kAggregate, std::move(chain));
  chain->group_keys = std::move(group_keys);
  chain->aggregates = PartialAggSpecs(agg.aggregates);
  chain->agg_phase = substrait::AggPhase::kPartial;
  return chain;
}

// The final phase of `agg` over partial rows (group keys first), then the
// finalize projection that recovers the original outputs (AVG = sum/count).
Result<std::unique_ptr<Rel>> FinalAggregate(const PlanNode& agg,
                                            std::unique_ptr<Rel> chain) {
  const size_t n_keys = agg.group_keys.size();
  chain = StackRel(RelKind::kAggregate, std::move(chain));
  for (size_t k = 0; k < n_keys; ++k) {
    chain->group_keys.push_back(static_cast<int>(k));
  }
  chain->aggregates = FinalAggSpecs(agg.aggregates, n_keys);
  chain->agg_phase = substrait::AggPhase::kFinal;
  POCS_ASSIGN_OR_RETURN(SchemaPtr final_schema,
                        substrait::OutputSchema(*chain));
  chain = StackRel(RelKind::kProject, std::move(chain));
  FinalizeProjection(agg.aggregates, n_keys, *final_schema,
                     &chain->expressions, &chain->output_names);
  return chain;
}

// Measured operator time of one ExecuteRel run: the residual compute the
// simulated timing books under post_scan_execution (DESIGN.md §4).
double OperatorSeconds(const exec::ExecStats& stats) {
  double seconds = 0;
  for (const exec::OperatorCounters& oc : stats.operators) {
    seconds += oc.seconds;
  }
  return seconds;
}

// Folds split planning's counts into the query metrics and the simulated
// scan-stage totals.
void FoldSplitPlan(const connector::SplitPlan& p, QueryMetrics* m,
                   SplitStageTotals* t) {
  m->splits += p.splits.size();
  m->splits_planned += p.splits_planned;
  m->splits_pruned += p.splits_pruned;
  m->metadata_cache_hits += p.metadata_cache_hits;
  m->metadata_cache_misses += p.metadata_cache_misses;
  m->metadata_cache_stale += p.metadata_cache_stale;
  m->metadata_cache_errors += p.metadata_cache_errors;
  t->splits += p.splits.size();
}

// Folds one page source's stats into the query metrics and the simulated
// scan-stage totals.
void FoldSourceStats(const PageSourceStats& s, QueryMetrics* m,
                     SplitStageTotals* t) {
  t->bytes_moved += s.bytes_received + s.bytes_sent;
  t->messages += 2;  // request + response per split
  t->storage_compute_seconds += s.storage_compute_seconds;
  t->media_read_seconds += s.media_read_seconds;
  m->bytes_from_storage += s.bytes_received;
  m->bytes_to_storage += s.bytes_sent;
  m->rows_from_storage += s.rows_received;
  m->rows_scanned += s.rows_scanned;
  m->ir_generation += s.ir_generation_seconds;
  m->storage_compute_seconds += s.storage_compute_seconds;
  m->retries += s.dispatch_retries;
  m->fallbacks += s.fallbacks;
  m->failed_splits += s.failed_dispatches;
  m->bytes_refetched_on_retry += s.bytes_refetched_on_retry;
  *m += static_cast<const ScanCounters&>(s);
}

// The Table 3 stage entries both paths report ahead of the merge stage.
void PushStageTimings(QueryMetrics* m) {
  m->operator_timings.push_back(
      {"plan_analysis", m->logical_plan_analysis, 0, 0});
  m->operator_timings.push_back({"ir_generation", m->ir_generation, 0, 0});
  m->operator_timings.push_back({"scan_transfer", m->pushdown_and_transfer,
                                 m->rows_scanned, m->rows_from_storage});
}

// The merge stage shared by the linear and join paths. `input` holds
// partial-aggregate rows (group keys first) when `agg` is set, plain rows
// otherwise. The final aggregation with its finalize projection, then
// `nodes`, run as one rel chain through exec::ExecuteRel. Books the
// operator time under post_scan_execution and records one
// "merge.<RelKind>" timing per operator kind, then the "post_scan" total.
Result<std::shared_ptr<Table>> RunMergeStage(
    std::shared_ptr<Table> input, const PlanNode* agg,
    const std::vector<PlanNode*>& nodes, QueryMetrics* metrics) {
  if (agg && agg->group_keys.empty() && input->num_rows() == 0) {
    // No partial row reached the merge (every split pruned, none planned,
    // or no probe match): merge the partial state of zero rows, so the
    // global aggregate reads COUNT = 0 rather than a SUM over nothing.
    auto read = std::make_unique<Rel>();
    read->base_schema = input->schema();
    std::unique_ptr<Rel> none = PartialAggregate(*agg, {}, std::move(read));
    exec::TableSource empty(input);
    POCS_ASSIGN_OR_RETURN(input, exec::ExecuteRel(*none, empty));
  }
  auto rel = std::make_unique<Rel>();
  rel->base_schema = input->schema();
  if (agg) {
    POCS_ASSIGN_OR_RETURN(rel, FinalAggregate(*agg, std::move(rel)));
  }
  for (const PlanNode* node : nodes) {
    POCS_ASSIGN_OR_RETURN(rel, LowerNode(*node, std::move(rel)));
  }
  exec::TableSource source(std::move(input));
  exec::ExecStats stats;
  POCS_ASSIGN_OR_RETURN(std::shared_ptr<Table> out,
                        exec::ExecuteRel(*rel, source, &stats));

  std::array<bool, exec::ExecStats::kNumRelKinds> present{};
  for (const Rel* r = rel.get(); r->input; r = r->input.get()) {
    present[static_cast<size_t>(r->kind)] = true;  // every kind but Read
  }
  for (size_t k = 0; k < present.size(); ++k) {
    if (!present[k]) continue;
    const RelKind kind = static_cast<RelKind>(k);
    const exec::OperatorCounters& oc = stats.ForKind(kind);
    metrics->operator_timings.push_back(
        {"merge." + std::string(substrait::RelKindName(kind)), oc.seconds,
         oc.rows_in, oc.rows_out});
  }
  metrics->post_scan_execution += OperatorSeconds(stats);
  metrics->operator_timings.push_back({"post_scan",
                                       metrics->post_scan_execution,
                                       metrics->rows_from_storage,
                                       out->num_rows()});
  return out;
}

// Runs one scan chain (TableScan + residual nodes) sequentially across
// its splits through exec::ExecuteRel and collects every surviving row.
// Used for the join's build (dimension) side, which is small by
// assumption.
Result<std::shared_ptr<Table>> RunScanChain(PlanNode* scan,
                                            const std::vector<PlanNode*>& stream,
                                            connector::Connector& conn,
                                            QueryMetrics* metrics,
                                            SplitStageTotals* totals,
                                            double* residual) {
  POCS_ASSIGN_OR_RETURN(connector::SplitPlan split_plan,
                        conn.GetSplits(scan->table, scan->scan_spec));
  FoldSplitPlan(split_plan, metrics, totals);
  POCS_ASSIGN_OR_RETURN(std::unique_ptr<Rel> rel,
                        LowerChain(ScanOutputSchema(*scan), stream));
  POCS_ASSIGN_OR_RETURN(SchemaPtr out_schema, substrait::OutputSchema(*rel));
  auto out = std::make_shared<Table>(out_schema);
  for (const connector::Split& split : split_plan.splits) {
    POCS_ASSIGN_OR_RETURN(
        std::unique_ptr<connector::PageSource> source,
        conn.CreatePageSource(scan->table, split, scan->scan_spec));
    exec::ExecStats stats;
    POCS_ASSIGN_OR_RETURN(std::shared_ptr<Table> rows,
                          exec::ExecuteRel(*rel, *source, &stats));
    for (const RecordBatchPtr& batch : rows->batches()) {
      out->AppendBatch(batch);
    }
    *residual += OperatorSeconds(stats);
    FoldSourceStats(source->stats(), metrics, totals);
  }
  return out;
}

// Exact hash index over the build (dimension) side: build rows per join
// key.
using DimIndex = std::unordered_map<int64_t, std::vector<uint32_t>>;

template <typename V, typename Fn>
void JoinKeyLoop(const V* vals, const uint8_t* valid, size_t n, Fn& fn) {
  for (size_t i = 0; i < n; ++i) {
    if (valid != nullptr && valid[i] == 0) continue;
    fn(static_cast<uint32_t>(i), static_cast<int64_t>(vals[i]));
  }
}

// Calls fn(row, key) for each row of a join-key column with its key
// sign-extended to 64 bits. The type dispatch is hoisted out of the row
// loop and keys come from the typed value span, as in
// exec::BloomSelectRows. A null key, or a column with no integer
// join-key form, never joins.
template <typename Fn>
void ForEachJoinKey(const columnar::Column& col, Fn fn) {
  const uint8_t* valid = col.has_nulls() ? col.validity().data() : nullptr;
  switch (col.type()) {
    case columnar::TypeKind::kInt64:
      JoinKeyLoop(col.i64_data().data(), valid, col.length(), fn);
      break;
    case columnar::TypeKind::kInt32:
    case columnar::TypeKind::kDate32:
      JoinKeyLoop(col.i32_data().data(), valid, col.length(), fn);
      break;
    default:
      break;
  }
}

// The probe of the join's fact side against the exact build index. Each
// output column comes from the probed batch or from the matched build
// row. The same probe serves raw fact rows (every fact column, then every
// build column) and per-split partial rows (the user's group keys, then
// the partial aggregate columns).
struct JoinProbe {
  struct OutputColumn {
    bool from_probe;
    int index;
  };
  const DimIndex* index = nullptr;
  RecordBatchPtr build;
  int key = -1;  // join-key column of the probed batches
  std::vector<OutputColumn> columns;
  SchemaPtr schema;
  uint64_t rows_in = 0;
  uint64_t rows_out = 0;

  // One output row per (probe row, matching build row) pair, in probe-row
  // order; bloom false positives find no match and drop here. Nullptr
  // when no row matches.
  RecordBatchPtr Run(const columnar::RecordBatch& batch) {
    rows_in += batch.num_rows();
    columnar::SelectionVector sel;
    columnar::SelectionVector build_sel;
    ForEachJoinKey(*batch.column(key), [&](uint32_t row, int64_t k) {
      auto it = index->find(k);
      if (it == index->end()) return;
      for (uint32_t build_row : it->second) {
        sel.push_back(row);
        build_sel.push_back(build_row);
      }
    });
    if (sel.empty()) return nullptr;
    rows_out += sel.size();
    std::vector<columnar::ColumnPtr> cols;
    cols.reserve(columns.size());
    for (const OutputColumn& c : columns) {
      cols.push_back(c.from_probe
                         ? columnar::Take(*batch.column(c.index), sel)
                         : columnar::Take(*build->column(c.index), build_sel));
    }
    return columnar::MakeBatch(schema, std::move(cols));
  }
};

// The join's probed rows as an exec::BatchSource. Split after split it
// runs the fact-side rel chain over the split's page source through
// exec::ExecuteRel, then probes each surviving batch and yields the
// matches. Folds each split's page-source stats into the query and adds
// its operator and probe seconds to *residual.
class ProbedSource : public exec::BatchSource {
 public:
  ProbedSource(connector::Connector& conn, const PlanNode& scan,
               const std::vector<connector::Split>& splits,
               const Rel& fact_rel, JoinProbe* probe, QueryMetrics* metrics,
               SplitStageTotals* totals, double* residual)
      : conn_(conn),
        scan_(scan),
        splits_(splits),
        fact_rel_(fact_rel),
        probe_(probe),
        metrics_(metrics),
        totals_(totals),
        residual_(residual) {}

  SchemaPtr schema() const override { return probe_->schema; }

  Result<RecordBatchPtr> Next() override {
    while (true) {
      if (fact_rows_ && batch_ < fact_rows_->batches().size()) {
        Stopwatch probe_timer;
        RecordBatchPtr probed = probe_->Run(*fact_rows_->batches()[batch_++]);
        *residual_ += probe_timer.ElapsedSeconds();
        if (probed) return probed;
        continue;
      }
      if (split_ == splits_.size()) return RecordBatchPtr{};
      POCS_ASSIGN_OR_RETURN(std::unique_ptr<connector::PageSource> source,
                            conn_.CreatePageSource(scan_.table,
                                                   splits_[split_++],
                                                   scan_.scan_spec));
      exec::ExecStats stats;
      POCS_ASSIGN_OR_RETURN(fact_rows_,
                            exec::ExecuteRel(fact_rel_, *source, &stats));
      batch_ = 0;
      *residual_ += OperatorSeconds(stats);
      FoldSourceStats(source->stats(), metrics_, totals_);
    }
  }

 private:
  connector::Connector& conn_;
  const PlanNode& scan_;
  const std::vector<connector::Split>& splits_;
  const Rel& fact_rel_;
  JoinProbe* probe_;
  QueryMetrics* metrics_;
  SplitStageTotals* totals_;
  double* residual_;
  size_t split_ = 0;
  std::shared_ptr<Table> fact_rows_;  // the current split's fact rows
  size_t batch_ = 0;
};

// Deterministic seed of pushed join-key blooms ("pocsjoin"): plans — and
// therefore plan fingerprints and replay — are identical across runs.
constexpr uint64_t kJoinBloomSeed = 0x706f63736a6f696eULL;

// Executes a plan containing a kJoin node (DESIGN.md §14):
//   1. run the build (dimension) side and collect it in memory;
//   2. build an exact hash index plus a seeded bloom filter over the
//      build keys and offer the bloom to the fact-side connector, so
//      storage drops non-matching rows before any bytes move;
//   3. when the node directly above the join is an aggregation whose
//      arguments are fact-side and the dim keys are unique, split it in
//      two phases: a per-split partial phase grouped by {fact keys ∪ join
//      key}, offered to storage unless a fact filter stays engine-side —
//      dim-referenced group keys are recovered from the matched dim row
//      at probe time (functionally dependent on the unique join key);
//   4. per fact split, run the fact filters (and the partial phase storage
//      did not take) through exec::ExecuteRel, probe the exact index
//      (dropping bloom false positives), and run the probed rows through
//      one more ExecuteRel: the post-join operators and the query-wide
//      partial phase, or — two-phase — a plain collect;
//   5. apply the remaining merge-stage nodes.
// Rejected or faulted pushdowns degrade transparently: the connector's
// fallback re-runs the identical pushed plan engine-side, so this path
// never sees the difference.
Result<std::shared_ptr<Table>> ExecuteJoinChain(const PlanNodePtr& root,
                                                connector::Connector& conn,
                                                const EngineConfig& config,
                                                QueryMetrics* metrics,
                                                double* residual_out) {
  // Bottom→top probe-side chain: [scan, fact filters..., join, above...].
  std::vector<PlanNode*> chain;
  for (PlanNode* n = root.get(); n; n = n->input.get()) chain.push_back(n);
  std::reverse(chain.begin(), chain.end());
  if (chain.empty() || chain[0]->kind != NodeKind::kTableScan) {
    return Status::Internal("join plan lost its scan");
  }
  PlanNode* scan = chain[0];
  size_t join_idx = 0;
  for (size_t i = 0; i < chain.size(); ++i) {
    if (chain[i]->kind == NodeKind::kJoin) join_idx = i;
  }
  PlanNode* join = chain[join_idx];
  std::vector<PlanNode*> fact_stream(chain.begin() + 1,
                                     chain.begin() + join_idx);
  for (PlanNode* node : fact_stream) {
    if (node->kind != NodeKind::kFilter) {
      return Status::Internal("unexpected node below join");
    }
  }

  SplitStageTotals totals;
  double residual = 0;

  // ---- build side: negotiate pushdown, scan, collect the dim table --------
  POCS_ASSIGN_OR_RETURN(LocalOptimizerResult build_local,
                        RunConnectorOptimizer(join->build, conn));
  join->build = build_local.plan;
  for (const auto& d : build_local.decisions) {
    metrics->pushdown_decisions.push_back(d);
  }
  std::vector<PlanNode*> bchain;
  for (PlanNode* n = join->build.get(); n; n = n->input.get()) {
    bchain.push_back(n);
  }
  std::reverse(bchain.begin(), bchain.end());
  if (bchain.empty() || bchain[0]->kind != NodeKind::kTableScan) {
    return Status::Internal("join build subplan lost its scan");
  }
  std::vector<PlanNode*> build_stream(bchain.begin() + 1, bchain.end());
  POCS_ASSIGN_OR_RETURN(
      std::shared_ptr<Table> dim_table,
      RunScanChain(bchain[0], build_stream, conn, metrics, &totals, &residual));
  RecordBatchPtr dim_batch = dim_table->Combine();

  // ---- exact hash index + bloom over the build join keys -------------------
  Stopwatch build_timer;
  DimIndex dim_index;
  ForEachJoinKey(*dim_batch->column(join->build_key),
                 [&](uint32_t row, int64_t key) {
                   dim_index[key].push_back(row);
                 });
  bool keys_unique = true;
  for (const auto& [key, rows] : dim_index) {
    if (rows.size() > 1) {
      keys_unique = false;
      break;
    }
  }
  const uint64_t bloom_bits = std::max<uint64_t>(
      64, static_cast<uint64_t>(config.join_bloom_bits_per_key *
                                std::max<double>(dim_index.size(), 1.0)));
  const uint32_t bloom_hashes = std::clamp<uint32_t>(
      static_cast<uint32_t>(config.join_bloom_bits_per_key * 0.693 + 0.5), 1,
      16);
  BloomFilter bloom(bloom_bits, bloom_hashes, kJoinBloomSeed);
  for (const auto& [key, rows] : dim_index) {
    bloom.Add(static_cast<uint64_t>(key));
  }
  residual += build_timer.ElapsedSeconds();

  // ---- offer the bloom to the fact-side connector --------------------------
  connector::ScanSpec& spec = scan->scan_spec;
  // Join plans skip column pruning, so scan output order matches the
  // table schema — but stay defensive about an explicit projection.
  int bloom_col = join->probe_key;
  if (!spec.columns.empty()) {
    bloom_col = -1;
    for (size_t i = 0; i < spec.columns.size(); ++i) {
      if (spec.columns[i] == join->probe_key) bloom_col = static_cast<int>(i);
    }
  }
  if (bloom_col >= 0) {
    connector::PushedOperator op;
    op.kind = connector::PushedOperator::Kind::kJoinKeyBloom;
    op.bloom_words = bloom.words();
    op.bloom_hashes = bloom.num_hashes();
    op.bloom_seed = bloom.seed();
    op.bloom_column = bloom_col;
    op.bloom_key_count = dim_index.size();
    connector::PushdownDecision decision;
    decision.kind = op.kind;
    POCS_ASSIGN_OR_RETURN(bool bloom_accepted,
                          conn.OfferPushdown(scan->table, op, &spec, &decision));
    metrics->pushdown_decisions.push_back(decision);
    (void)bloom_accepted;
  }

  // ---- post-join pipeline classification ------------------------------------
  std::vector<PlanNode*> post_stream;  // mixed filters above the join
  size_t idx = join_idx + 1;
  while (idx < chain.size() &&
         (chain[idx]->kind == NodeKind::kFilter ||
          (chain[idx]->kind == NodeKind::kProject &&
           !chain[idx]->identity_project))) {
    post_stream.push_back(chain[idx]);
    ++idx;
  }
  PlanNode* agg_node =
      (idx < chain.size() && chain[idx]->kind == NodeKind::kAggregation)
          ? chain[idx]
          : nullptr;
  const size_t merge_from = agg_node ? idx + 1 : idx;

  // ---- early-aggregation offer ----------------------------------------------
  const int n_fact = static_cast<int>(scan->output_schema->num_fields());
  bool storage_agg = false;
  bool two_phase = false;  // per-split partial + engine merge (either side)
  std::vector<int> storage_keys;  // fact-schema indices pushed as group keys
  int probe_pos = -1;             // join-key position within storage_keys
  if (agg_node && post_stream.empty() && keys_unique) {
    bool eligible = true;
    for (const auto& aspec : agg_node->aggregates) {
      if (aspec.func == substrait::AggFunc::kCountStar) continue;
      if (aspec.argument.kind != substrait::ExprKind::kFieldRef ||
          aspec.argument.field_index >= n_fact) {
        eligible = false;  // dim-side or computed argument: keep engine-side
      }
    }
    if (eligible) {
      two_phase = true;
      for (int k : agg_node->group_keys) {
        if (k >= n_fact) continue;  // dim keys recovered at probe time
        if (k == join->probe_key) {
          probe_pos = static_cast<int>(storage_keys.size());
        }
        storage_keys.push_back(k);
      }
      if (probe_pos < 0) {
        probe_pos = static_cast<int>(storage_keys.size());
        storage_keys.push_back(join->probe_key);
      }
    }
    // Storage may only aggregate rows no engine-side fact filter drops.
    if (two_phase && fact_stream.empty()) {
      connector::PushedOperator op;
      op.kind = connector::PushedOperator::Kind::kPartialAggregation;
      op.group_keys = storage_keys;
      op.aggregates = PartialAggSpecs(agg_node->aggregates);
      connector::PushdownDecision decision;
      decision.kind = op.kind;
      POCS_ASSIGN_OR_RETURN(
          storage_agg, conn.OfferPushdown(scan->table, op, &spec, &decision));
      metrics->pushdown_decisions.push_back(decision);
    }
  }

  // ---- fact-side scan, probe, and accumulation ------------------------------
  // Split generation runs after both offers so the connector pins the
  // bloom to each split object's current version.
  POCS_ASSIGN_OR_RETURN(connector::SplitPlan fact_plan,
                        conn.GetSplits(scan->table, spec));
  FoldSplitPlan(fact_plan, metrics, &totals);

  const columnar::Schema& combined = *join->output_schema;
  const size_t n_dim = combined.num_fields() - static_cast<size_t>(n_fact);
  if (dim_batch->num_columns() != n_dim) {
    return Status::Internal("join build schema mismatch");
  }

  // Per split: the engine-side fact filters, then — two-phase with the
  // offer rejected — the per-split partial phase storage would have run.
  // That is the IDENTICAL decomposition and row order, so accepted and
  // rejected plans evaluate the same floating-point operation tree and
  // agree bit-for-bit.
  POCS_ASSIGN_OR_RETURN(std::unique_ptr<Rel> fact_rel,
                        LowerChain(ScanOutputSchema(*scan), fact_stream));
  if (two_phase && !storage_agg) {
    fact_rel = PartialAggregate(*agg_node, storage_keys, std::move(fact_rel));
  }

  JoinProbe probe;
  probe.index = &dim_index;
  probe.build = dim_batch;
  if (two_phase) {
    POCS_ASSIGN_OR_RETURN(SchemaPtr partial_schema,
                          substrait::OutputSchema(*fact_rel));
    probe.key = probe_pos;
    // The user's group keys — from the partial row (fact keys) or from
    // the matched dim row — then the partial aggregate columns.
    std::vector<columnar::Field> fields;
    for (int k : agg_node->group_keys) {
      fields.push_back(combined.field(k));
      if (k >= n_fact) {
        probe.columns.push_back({false, k - n_fact});
        continue;
      }
      const auto pos = std::find(storage_keys.begin(), storage_keys.end(), k);
      probe.columns.push_back(
          {true, static_cast<int>(pos - storage_keys.begin())});
    }
    for (size_t j = storage_keys.size(); j < partial_schema->num_fields();
         ++j) {
      fields.push_back(partial_schema->field(j));
      probe.columns.push_back({true, static_cast<int>(j)});
    }
    probe.schema = columnar::MakeSchema(std::move(fields));
  } else {
    probe.key = join->probe_key;
    for (int j = 0; j < n_fact; ++j) probe.columns.push_back({true, j});
    for (size_t j = 0; j < n_dim; ++j) {
      probe.columns.push_back({false, static_cast<int>(j)});
    }
    probe.schema = join->output_schema;
  }
  // Above the probe: the post-join filters and projections, then the
  // query-wide partial phase of the aggregation. Two-phase there are none
  // of either, and the probed partial rows reach the merge stage as they
  // are.
  POCS_ASSIGN_OR_RETURN(std::unique_ptr<Rel> joined_rel,
                        LowerChain(probe.schema, post_stream));
  if (agg_node && !two_phase) {
    joined_rel = PartialAggregate(*agg_node, agg_node->group_keys,
                                  std::move(joined_rel));
  }

  Stopwatch probe_timer_total;
  ProbedSource probed(conn, *scan, fact_plan.splits, *fact_rel, &probe,
                      metrics, &totals, &residual);
  exec::ExecStats joined_stats;
  POCS_ASSIGN_OR_RETURN(std::shared_ptr<Table> collected,
                        exec::ExecuteRel(*joined_rel, probed, &joined_stats));
  residual += OperatorSeconds(joined_stats);
  if (two_phase) metrics->partial_agg_merges += collected->num_rows();
  metrics->operator_timings.push_back({"join.probe",
                                       probe_timer_total.ElapsedSeconds(),
                                       probe.rows_in, probe.rows_out});

  // ---- simulated scan-stage time (both sides' splits) -----------------------
  metrics->pushdown_and_transfer = SplitStageSeconds(totals, config.time_model);
  PushStageTimings(metrics);

  // ---- merge stage -----------------------------------------------------------
  metrics->post_scan_execution += residual;
  *residual_out = residual;
  return RunMergeStage(std::move(collected), agg_node,
                       {chain.begin() + merge_from, chain.end()}, metrics);
}

}  // namespace

Result<QueryResult> QueryEngine::Execute(const std::string& sql,
                                         const std::string& catalog) {
  return Execute(sql, catalog, QueryOptions{});
}

Result<QueryResult> QueryEngine::Execute(const std::string& sql,
                                         const std::string& catalog,
                                         const QueryOptions& options) {
  // ---- admission -----------------------------------------------------------
  std::shared_ptr<AdmissionTicket> ticket = options.ticket;
  if (!ticket && admission_) {
    POCS_ASSIGN_OR_RETURN(ticket, admission_->Enqueue(options.tenant));
  }
  TicketReleaser releaser{ticket};
  if (ticket) ticket->Wait();

  Stopwatch total_timer;
  QueryResult result;
  QueryMetrics& metrics = result.metrics;
  if (ticket) metrics.admission_queue_seconds = ticket->queue_wait_seconds();

  connector::Connector* conn = GetConnector(catalog);
  if (!conn) return Status::NotFound("no connector '" + catalog + "'");

  // ---- parse ---------------------------------------------------------------
  Stopwatch parse_timer;
  POCS_ASSIGN_OR_RETURN(sql::Query query, sql::ParseQuery(sql));
  metrics.others += parse_timer.ElapsedSeconds();

  // ---- analyze + optimize ---------------------------------------------------
  Stopwatch plan_timer;
  std::string schema_name =
      query.schema_name.empty() ? "default" : query.schema_name;
  POCS_ASSIGN_OR_RETURN(connector::TableHandle table,
                        conn->GetTableHandle(schema_name, query.table_name));
  connector::TableHandle build_table;
  const bool has_join = !query.join_table_name.empty();
  if (has_join) {
    POCS_ASSIGN_OR_RETURN(
        build_table, conn->GetTableHandle(schema_name, query.join_table_name));
  }
  POCS_ASSIGN_OR_RETURN(
      PlanNodePtr plan,
      AnalyzeQuery(query, table, has_join ? &build_table : nullptr));
  POCS_RETURN_NOT_OK(PruneColumns(plan));
  result.logical_plan = PlanChainToString(*plan);

  POCS_ASSIGN_OR_RETURN(LocalOptimizerResult local,
                        RunConnectorOptimizer(plan, *conn));
  plan = local.plan;
  metrics.pushdown_decisions = local.decisions;
  result.optimized_plan = PlanChainToString(*plan);
  metrics.logical_plan_analysis = plan_timer.ElapsedSeconds();

  // Shared epilogue of both execution paths: derive the per-kind pushdown
  // counters from the decision log, close the simulated-time books, and
  // notify listeners.
  auto finish = [&](const std::shared_ptr<Table>& current,
                    double residual_compute) {
    result.table = current->Combine();
    for (const auto& d : metrics.pushdown_decisions) {
      ++metrics.pushdown_offered;
      ++(d.accepted ? metrics.pushdown_accepted : metrics.pushdown_rejected);
      if (d.kind == connector::PushedOperator::Kind::kPartialAggregation) {
        ++(d.accepted ? metrics.partial_agg_accepted
                      : metrics.partial_agg_rejected);
      } else if (d.kind == connector::PushedOperator::Kind::kJoinKeyBloom &&
                 d.accepted) {
        ++metrics.bloom_pushed;
      }
    }
    metrics.others += std::max(
        0.0, total_timer.ElapsedSeconds() -
                 (metrics.logical_plan_analysis + metrics.ir_generation +
                  residual_compute + metrics.storage_compute_seconds +
                  metrics.others));
    metrics.total = metrics.others + metrics.logical_plan_analysis +
                    metrics.ir_generation + metrics.pushdown_and_transfer +
                    metrics.post_scan_execution;

    if (listeners_.empty()) return;
    connector::QueryEvent event;
    event.query_id = "q" + std::to_string(next_query_id_++);
    event.connector_id = catalog;
    event.decisions = metrics.pushdown_decisions;

    connector::QueryStats& qs = event.stats;
    qs.tenant = options.tenant;
    qs.queue_wait_seconds = metrics.admission_queue_seconds;
    qs.wall_seconds = total_timer.ElapsedSeconds();
    qs.simulated_seconds = metrics.total;
    qs.result_rows = result.table ? result.table->num_rows() : 0;
    static_cast<QueryCounters&>(qs) = metrics;
    qs.operator_timings = metrics.operator_timings;

    for (const auto& listener : listeners_) listener->QueryCompleted(event);
  };

  // ---- join path (DESIGN.md §14) -------------------------------------------
  PlanNode* join_node = nullptr;
  for (PlanNode* n = plan.get(); n; n = n->input.get()) {
    if (n->kind == NodeKind::kJoin) join_node = n;
  }
  if (join_node) {
    double join_residual = 0;
    POCS_ASSIGN_OR_RETURN(
        std::shared_ptr<Table> joined,
        ExecuteJoinChain(plan, *conn, config_, &metrics, &join_residual));
    result.optimized_plan = PlanChainToString(*plan);  // includes late offers
    finish(joined, join_residual);
    return result;
  }

  // ---- classify the executable chain ---------------------------------------
  std::vector<PlanNode*> chain;
  for (PlanNode* n = plan.get(); n; n = n->input.get()) chain.push_back(n);
  std::reverse(chain.begin(), chain.end());
  if (chain.empty() || chain[0]->kind != NodeKind::kTableScan) {
    return Status::Internal("optimized plan lost its scan");
  }
  PlanNode* scan = chain[0];

  size_t idx = 1;
  std::vector<PlanNode*> stream_nodes;  // per-split filters/projects
  while (idx < chain.size() &&
         (chain[idx]->kind == NodeKind::kFilter ||
          (chain[idx]->kind == NodeKind::kProject &&
           !chain[idx]->identity_project))) {
    stream_nodes.push_back(chain[idx]);
    ++idx;
  }
  PlanNode* agg_node = nullptr;
  if (idx < chain.size() && chain[idx]->kind == NodeKind::kAggregation) {
    agg_node = chain[idx];
    ++idx;
  }
  const std::vector<PlanNode*> merge_nodes(chain.begin() + idx, chain.end());

  // Per-split residual rel chain: the stream filters/projections, plus the
  // partial phase of a single-step aggregation.
  POCS_ASSIGN_OR_RETURN(std::unique_ptr<Rel> split_rel,
                        LowerChain(ScanOutputSchema(*scan), stream_nodes));
  if (agg_node && agg_node->agg_step == AggregationStep::kSingle) {
    split_rel = PartialAggregate(*agg_node, agg_node->group_keys,
                                 std::move(split_rel));
  }
  POCS_ASSIGN_OR_RETURN(SchemaPtr split_schema,
                        substrait::OutputSchema(*split_rel));

  // ---- split generation ------------------------------------------------------
  // Runs after pushdown negotiation so the connector can prune splits
  // against the accepted predicates (stats-based, zero data RPCs).
  POCS_ASSIGN_OR_RETURN(connector::SplitPlan split_plan,
                        conn->GetSplits(table, scan->scan_spec));
  SplitStageTotals totals;
  FoldSplitPlan(split_plan, &metrics, &totals);
  const std::vector<connector::Split>& splits = split_plan.splits;

  // ---- per-split execution (parallel, real work) -----------------------------
  std::vector<SplitOutput> outputs(splits.size());
  SplitThrottle throttle(config_.max_inflight_splits);
  pool_->ParallelFor(splits.size(), [&](size_t s) {
    SplitOutput& out = outputs[s];
    // Backpressure: at most max_inflight_splits of this query's splits
    // hold a worker (and a storage dispatch) at once. Acquired inside
    // the task body, so a blocked acquire always implies other permits
    // are held by running workers — progress is guaranteed.
    SplitThrottle::Permit permit = throttle.Acquire();
    auto source = conn->CreatePageSource(table, splits[s], scan->scan_spec);
    if (!source.ok()) {
      out.status = source.status();
      return;
    }
    exec::ExecStats exec_stats;
    auto data = exec::ExecuteRel(*split_rel, **source, &exec_stats);
    if (!data.ok()) {
      out.status = data.status();
      return;
    }
    out.data = *std::move(data);
    out.stats = (*source)->stats();
    out.compute_seconds = OperatorSeconds(exec_stats);
  });

  // Residual compute is the operators' measured time plus page decode.
  double residual_compute = 0;
  auto merged = std::make_shared<Table>(split_schema);
  for (const SplitOutput& out : outputs) {
    POCS_RETURN_NOT_OK(out.status);
    FoldSourceStats(out.stats, &metrics, &totals);
    residual_compute += out.compute_seconds + out.stats.decode_seconds;
    for (const RecordBatchPtr& batch : out.data->batches()) {
      merged->AppendBatch(batch);
    }
  }

  // Simulated stage times (DESIGN.md §4): transfer/storage roofline for the
  // scan stage; compute-side work accounted under post-scan execution.
  metrics.pushdown_and_transfer = SplitStageSeconds(totals, config_.time_model);
  metrics.post_scan_execution +=
      residual_compute /
      static_cast<double>(std::max<size_t>(config_.worker_threads, 1));
  PushStageTimings(&metrics);

  // ---- merge stage (single-threaded, real work) ------------------------------
  if (agg_node && agg_node->agg_step == AggregationStep::kFinal) {
    // Inputs are storage-computed partials; count the merge volume.
    metrics.partial_agg_merges += merged->num_rows();
  }
  POCS_ASSIGN_OR_RETURN(
      std::shared_ptr<Table> current,
      RunMergeStage(std::move(merged), agg_node, merge_nodes, &metrics));
  finish(current, residual_compute);
  return result;
}

}  // namespace pocs::engine
