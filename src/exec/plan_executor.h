// Executes a linear IR relation chain (Read → … → root) against an
// abstract batch source. It is the one operator pipeline of the system:
// the OCS storage node runs pushed plans through it, the connector's
// engine-side fallback re-runs the same plans through it, and the query
// engine lowers its residual nodes (per-split filters/projections and
// partial aggregation, the join build side, the merge stage) to rel
// chains and runs them here too, the join's fact side and probed rows
// included (DESIGN.md §2).
//
// Each rel kind has one implementation. The chain runs as streaming
// segments: a Filter/Project prefix applied per batch, closed by at most
// one sink — a hash aggregate, a Sort + Fetch fused into bounded top-N
// (the paper's ORDER BY + LIMIT operator), a Sort, or a Fetch. A rel above
// a sink starts the next segment, which streams the sink's output through
// the same operators.
#pragma once

#include <array>
#include <memory>
#include <optional>

#include "columnar/batch.h"
#include "columnar/kernels.h"
#include "substrait/rel.h"

namespace pocs::exec {

// A scan batch plus an optional selection restricting it. When
// `selection` is set, only those rows (ascending indices) are logically
// present; rows outside it may carry unmaterialized placeholder data
// (late materialization, DESIGN.md §15) and must never be observed
// except under an intersecting selection. Ownership: the selection
// always travels with — and indexes into — exactly this batch.
struct SelectedBatch {
  columnar::RecordBatchPtr batch;  // nullptr at end of stream
  std::optional<columnar::SelectionVector> selection;
};

// Pull-based source of scan batches for one Read relation.
class BatchSource {
 public:
  virtual ~BatchSource() = default;
  virtual columnar::SchemaPtr schema() const = 0;
  // nullptr at end of stream. Always fully materialized.
  virtual Result<columnar::RecordBatchPtr> Next() = 0;
  // Selection-carrying variant, the executor's preferred entry point:
  // sources that pre-filter rows (pushed blooms, code-domain predicate
  // evaluation) hand back the full batch plus the surviving selection
  // instead of materializing a compacted copy. The default wraps Next().
  virtual Result<SelectedBatch> NextSelected() {
    POCS_ASSIGN_OR_RETURN(columnar::RecordBatchPtr batch, Next());
    return SelectedBatch{std::move(batch), std::nullopt};
  }
};

// Rows in/out and measured wall time attributed to one operator kind
// across the whole execution (streaming applies accumulate per batch).
struct OperatorCounters {
  uint64_t rows_in = 0;
  uint64_t rows_out = 0;
  uint64_t invocations = 0;  // batch-level applications (or 1 if blocking)
  double seconds = 0;
};

struct ExecStats {
  static constexpr size_t kNumRelKinds = 6;  // mirrors substrait::RelKind

  uint64_t rows_scanned = 0;
  uint64_t rows_output = 0;
  uint64_t batches_scanned = 0;
  // Per-operator accounting, indexed by substrait::RelKind.
  std::array<OperatorCounters, kNumRelKinds> operators{};

  OperatorCounters& ForKind(substrait::RelKind kind) {
    return operators[static_cast<size_t>(kind)];
  }
  const OperatorCounters& ForKind(substrait::RelKind kind) const {
    return operators[static_cast<size_t>(kind)];
  }
};

// Execute the chain rooted at `root`, pulling the Read leaf's batches
// from `source` (borrowed: the caller keeps it, and whatever accounting
// it carries, after the call). The Read rel supplies the scan schema the
// operators above it are typed against; it must match source.schema().
Result<std::shared_ptr<columnar::Table>> ExecuteRel(
    const substrait::Rel& root, BatchSource& source,
    ExecStats* stats = nullptr);

// An in-memory BatchSource over an existing table (tests, reference runs).
class TableSource : public BatchSource {
 public:
  explicit TableSource(std::shared_ptr<const columnar::Table> table)
      : table_(std::move(table)) {}
  columnar::SchemaPtr schema() const override { return table_->schema(); }
  Result<columnar::RecordBatchPtr> Next() override {
    if (next_ >= table_->batches().size()) return columnar::RecordBatchPtr{};
    return table_->batches()[next_++];
  }

 private:
  std::shared_ptr<const columnar::Table> table_;
  size_t next_ = 0;
};

}  // namespace pocs::exec
