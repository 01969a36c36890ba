// Column statistics collected at write time and stored in chunk metadata
// and the metastore. The Presto-OCS connector's Selectivity Analyzer (§4
// of the paper) consumes exactly these: min/max for range-filter
// selectivity, NDV for aggregation cardinality, row count for reduction
// ratios.
#pragma once

#include <string>
#include <unordered_set>

#include "columnar/column.h"
#include "columnar/ipc.h"
#include "columnar/kernels.h"
#include "columnar/types.h"
#include "common/buffer.h"

namespace pocs::format {

struct ColumnStats {
  columnar::Datum min;   // null datum when no non-null values seen
  columnar::Datum max;
  uint64_t row_count = 0;
  uint64_t null_count = 0;
  uint64_t ndv = 0;          // estimated; exact below kNdvCap distincts
  bool ndv_capped = false;   // true if the distinct tracker overflowed

  void Merge(const ColumnStats& other);

  void Serialize(BufferWriter* out) const;
  static Result<ColumnStats> Deserialize(BufferReader* in);
};

// Accumulates stats over appended columns. Tracks exact distinct values up
// to a cap (kNdvCap); past the cap NDV saturates and is flagged — the
// selectivity estimator treats a capped NDV as "high cardinality", which
// is the conservative direction for pushdown decisions.
class StatsCollector {
 public:
  static constexpr size_t kNdvCap = 1 << 16;

  explicit StatsCollector(columnar::TypeKind type) : type_(type) {
    stats_.min = columnar::Datum::Null(type);
    stats_.max = columnar::Datum::Null(type);
  }

  void Update(const columnar::Column& col);
  const ColumnStats& stats() const { return stats_; }

 private:
  columnar::TypeKind type_;
  ColumnStats stats_;
  std::unordered_set<uint64_t> distinct_;  // value hashes
};

// One conjunct `column <op> literal` of a scan's pushed filter, naming a
// column of the file schema. The Select API's predicates, the storage
// scan's pruning terms and the planner's row-group hints all use it.
struct SelectPredicate {
  std::string column;
  columnar::CompareOp op;
  columnar::Datum literal;
};

// True if chunk statistics cannot rule out rows matching `pred`: the one
// pruning check of every scan path and of the planner (DESIGN.md §13).
// Integers compare exactly, and a NaN bound never prunes.
bool ChunkMayMatch(const ColumnStats& stats, const SelectPredicate& pred);

}  // namespace pocs::format
