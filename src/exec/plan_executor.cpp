#include "exec/plan_executor.h"

#include <algorithm>
#include <vector>

#include "common/metrics.h"
#include "common/stopwatch.h"
#include "exec/hash_aggregator.h"
#include "exec/sorter.h"
#include "substrait/eval.h"

namespace pocs::exec {

using columnar::RecordBatch;
using columnar::RecordBatchPtr;
using columnar::Table;
using substrait::Rel;
using substrait::RelKind;

namespace {

// Flatten the chain: chain[0] is the Read, chain.back() is the root.
Status FlattenChain(const Rel& root, std::vector<const Rel*>* chain) {
  for (const Rel* r = &root; r != nullptr; r = r->input.get()) {
    chain->push_back(r);
    if (r->kind == RelKind::kRead && r->input) {
      return Status::InvalidArgument("read rel has an input");
    }
  }
  std::reverse(chain->begin(), chain->end());
  if ((*chain)[0]->kind != RelKind::kRead) {
    return Status::InvalidArgument("rel chain must bottom out at a Read");
  }
  return Status::OK();
}

Result<RecordBatchPtr> ApplyProject(const Rel& rel, const RecordBatch& batch,
                                    const columnar::SchemaPtr& out_schema) {
  std::vector<columnar::ColumnPtr> cols;
  cols.reserve(rel.expressions.size());
  for (const substrait::Expression& e : rel.expressions) {
    POCS_ASSIGN_OR_RETURN(columnar::ColumnPtr col,
                          substrait::Evaluate(e, batch));
    cols.push_back(std::move(col));
  }
  return columnar::MakeBatch(out_schema, std::move(cols));
}

// Cached per-RelKind registry metrics (rows in/out counters + a latency
// histogram of per-operator wall time for each executed plan).
struct KindRegistryMetrics {
  metrics::Counter* rows_in;
  metrics::Counter* rows_out;
  metrics::Histogram* seconds;
};

const KindRegistryMetrics& RegistryMetricsFor(RelKind kind) {
  static const auto all = [] {
    std::array<KindRegistryMetrics, ExecStats::kNumRelKinds> a{};
    auto& reg = metrics::Registry::Default();
    for (size_t i = 0; i < a.size(); ++i) {
      std::string prefix =
          "exec." +
          std::string(substrait::RelKindName(static_cast<RelKind>(i)));
      a[i] = {&reg.GetCounter(prefix + ".rows_in"),
              &reg.GetCounter(prefix + ".rows_out"),
              &reg.GetHistogram(prefix + ".seconds")};
    }
    return a;
  }();
  return all[static_cast<size_t>(kind)];
}

void MirrorToRegistry(const ExecStats& stats, double plan_seconds) {
  auto& reg = metrics::Registry::Default();
  static auto& plans = reg.GetCounter("exec.plans");
  static auto& rows_scanned = reg.GetCounter("exec.rows_scanned");
  static auto& rows_output = reg.GetCounter("exec.rows_output");
  static auto& batches = reg.GetCounter("exec.batches_scanned");
  static auto& seconds = reg.GetHistogram("exec.plan_seconds");
  plans.Increment();
  rows_scanned.Add(stats.rows_scanned);
  rows_output.Add(stats.rows_output);
  batches.Add(stats.batches_scanned);
  seconds.Record(plan_seconds);
  for (size_t i = 0; i < stats.operators.size(); ++i) {
    const OperatorCounters& oc = stats.operators[i];
    if (oc.invocations == 0) continue;
    const KindRegistryMetrics& m =
        RegistryMetricsFor(static_cast<RelKind>(i));
    m.rows_in->Add(oc.rows_in);
    m.rows_out->Add(oc.rows_out);
    m.seconds->Record(oc.seconds);
  }
}

}  // namespace

namespace {

// Runs one streaming segment of the chain, starting at chain[begin]: the
// Filter/Project rels up to the first blocking rel apply per batch of
// `source`, and that blocking rel is the segment's sink — a hash
// aggregate, a Sort + Fetch(offset 0) fused into bounded top-N, a Sort,
// or a Fetch. Without one the segment collects its rows. Returns the
// sink's output and sets *next to the first rel of the following segment
// (chain.size() when none is left). Only the caller's own source counts
// as scanned (`scan`).
Result<std::shared_ptr<Table>> RunSegment(const std::vector<const Rel*>& chain,
                                          size_t begin, BatchSource& source,
                                          bool scan, ExecStats* local,
                                          size_t* next) {
  size_t sink_at = begin;
  while (sink_at < chain.size() &&
         (chain[sink_at]->kind == RelKind::kFilter ||
          chain[sink_at]->kind == RelKind::kProject)) {
    ++sink_at;
  }
  const Rel* sink = sink_at < chain.size() ? chain[sink_at] : nullptr;
  const bool fused_top_n = sink != nullptr && sink->kind == RelKind::kSort &&
                     sink_at + 1 < chain.size() &&
                     chain[sink_at + 1]->kind == RelKind::kFetch &&
                     chain[sink_at + 1]->offset == 0 &&
                     chain[sink_at + 1]->count >= 0;
  *next = sink == nullptr ? sink_at : sink_at + (fused_top_n ? 2 : 1);

  // Output schemas of the prefix's projects; `schema` is what reaches the
  // sink.
  std::vector<columnar::SchemaPtr> prefix_schemas(sink_at);
  columnar::SchemaPtr schema = source.schema();
  for (size_t i = begin; i < sink_at; ++i) {
    if (chain[i]->kind != RelKind::kProject) continue;
    POCS_ASSIGN_OR_RETURN(prefix_schemas[i],
                          substrait::OutputSchema(*chain[i]));
    schema = prefix_schemas[i];
  }

  // Streaming sinks: the hash aggregate and the fused top-N. Sort and
  // Fetch need every row, so they run over the collected rows.
  std::unique_ptr<HashAggregator> aggregator;
  std::unique_ptr<TopNAccumulator> topn;
  if (sink != nullptr && sink->kind == RelKind::kAggregate) {
    aggregator = std::make_unique<HashAggregator>(schema, sink->group_keys,
                                                  sink->aggregates);
  } else if (fused_top_n) {
    topn = std::make_unique<TopNAccumulator>(
        schema, sink->sort_fields,
        static_cast<size_t>(chain[sink_at + 1]->count));
  }
  auto collected = std::make_shared<Table>(schema);

  // Batches flow with an optional selection (SelectedBatch): chained
  // filters intersect selections instead of compacting rows, and the
  // one materialization (TakeBatch) happens only at the first operator
  // that needs real values at every row — a Project, the top-N
  // accumulator, or the collected table. Hash aggregation consumes the
  // selection directly.
  while (true) {
    POCS_ASSIGN_OR_RETURN(SelectedBatch sb, source.NextSelected());
    RecordBatchPtr batch = std::move(sb.batch);
    if (!batch) break;
    if (scan) {
      local->rows_scanned += batch->num_rows();
      ++local->batches_scanned;
    }
    std::optional<columnar::SelectionVector> sel = std::move(sb.selection);
    auto live_rows = [&] { return sel ? sel->size() : batch->num_rows(); };
    auto materialize = [&] {
      if (sel) {
        batch = columnar::TakeBatch(*batch, *sel);
        sel.reset();
      }
    };
    bool exhausted = live_rows() == 0;
    for (size_t i = begin; i < sink_at && !exhausted; ++i) {
      const Rel& rel = *chain[i];
      OperatorCounters& oc = local->ForKind(rel.kind);
      Stopwatch op_timer;
      oc.rows_in += live_rows();
      if (rel.kind == RelKind::kFilter) {
        POCS_ASSIGN_OR_RETURN(
            columnar::SelectionVector out_sel,
            substrait::FilterSelection(rel.predicate, *batch,
                                       sel ? &*sel : nullptr));
        sel = std::move(out_sel);
      } else {
        materialize();
        POCS_ASSIGN_OR_RETURN(batch,
                              ApplyProject(rel, *batch, prefix_schemas[i]));
      }
      oc.rows_out += live_rows();
      oc.seconds += op_timer.ElapsedSeconds();
      ++oc.invocations;
      exhausted = live_rows() == 0;
    }
    if (exhausted) continue;
    if (aggregator || topn) {
      OperatorCounters& oc = local->ForKind(sink->kind);
      Stopwatch op_timer;
      oc.rows_in += live_rows();
      if (aggregator) {
        POCS_RETURN_NOT_OK(aggregator->Consume(*batch, sel ? &*sel : nullptr));
      } else {
        materialize();
        POCS_RETURN_NOT_OK(topn->Consume(*batch));
      }
      oc.seconds += op_timer.ElapsedSeconds();
      ++oc.invocations;
    } else {
      materialize();
      collected->AppendBatch(std::move(batch));
    }
  }
  if (sink == nullptr) return collected;

  // The sink's result; the fused top-N is attributed to its Sort.
  OperatorCounters& oc = local->ForKind(sink->kind);
  Stopwatch op_timer;
  std::shared_ptr<Table> out;
  if (sink->kind == RelKind::kFetch) {
    oc.rows_in += collected->num_rows();
    ++oc.invocations;
    POCS_ASSIGN_OR_RETURN(out,
                          FetchTable(*collected, sink->offset, sink->count));
  } else {
    RecordBatchPtr result;
    if (aggregator) {
      POCS_ASSIGN_OR_RETURN(result, aggregator->Finish());
    } else if (topn) {
      POCS_ASSIGN_OR_RETURN(result, topn->Finish());
    } else {
      oc.rows_in += collected->num_rows();
      ++oc.invocations;
      POCS_ASSIGN_OR_RETURN(result, SortTable(*collected, sink->sort_fields));
    }
    out = std::make_shared<Table>(result->schema());
    out->AppendBatch(std::move(result));
  }
  oc.rows_out += out->num_rows();
  oc.seconds += op_timer.ElapsedSeconds();
  return out;
}

}  // namespace

Result<std::shared_ptr<Table>> ExecuteRel(const Rel& root,
                                          BatchSource& source,
                                          ExecStats* stats) {
  Stopwatch plan_timer;
  ExecStats local;

  std::vector<const Rel*> chain;
  POCS_RETURN_NOT_OK(FlattenChain(root, &chain));

  // The first segment pulls from the caller's source; each later one
  // streams the previous segment's output through the same operators.
  size_t next = 1;
  POCS_ASSIGN_OR_RETURN(
      std::shared_ptr<Table> current,
      RunSegment(chain, next, source, /*scan=*/true, &local, &next));
  while (next < chain.size()) {
    TableSource rest(std::move(current));
    POCS_ASSIGN_OR_RETURN(
        current, RunSegment(chain, next, rest, /*scan=*/false, &local, &next));
  }
  local.rows_output = current->num_rows();

  MirrorToRegistry(local, plan_timer.ElapsedSeconds());
  if (stats) *stats = local;
  return current;
}

}  // namespace pocs::exec
