#include "format/stats.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "common/hash.h"

namespace pocs::format {

using columnar::CompareOp;
using columnar::Datum;
using columnar::TypeKind;

namespace {

bool IsInteger(TypeKind type) {
  return type == TypeKind::kInt32 || type == TypeKind::kInt64 ||
         type == TypeKind::kDate32 || type == TypeKind::kBool;
}

bool IsNaN(const Datum& d) {
  return d.type() == TypeKind::kFloat64 && std::isnan(d.float64_value());
}

// Order of two non-null values as statistics see it. Integers compare
// exactly (Datum::Compare goes through double, which merges int64 values
// beyond 2^53); nullopt when either side is NaN, which is unordered.
std::optional<int> StatOrder(const Datum& a, const Datum& b) {
  if (IsInteger(a.type()) && IsInteger(b.type())) {
    const int64_t x = a.AsInt64();
    const int64_t y = b.AsInt64();
    return x < y ? -1 : (x > y ? 1 : 0);
  }
  if (IsNaN(a) || IsNaN(b)) return std::nullopt;
  return a.Compare(b);
}

bool StatLess(const Datum& a, const Datum& b) {
  const std::optional<int> order = StatOrder(a, b);
  return order && *order < 0;
}

}  // namespace

bool ChunkMayMatch(const ColumnStats& stats, const SelectPredicate& pred) {
  // An all-null chunk holds no match: a null never satisfies a comparison.
  if (stats.min.is_null() || stats.max.is_null()) return false;
  const Datum& lit = pred.literal;
  if (lit.is_null()) return false;
  const std::optional<int> lo = StatOrder(stats.min, lit);
  const std::optional<int> hi = StatOrder(stats.max, lit);
  if (!lo || !hi) return true;  // a NaN bound proves nothing
  switch (pred.op) {
    case CompareOp::kEq: return *lo <= 0 && *hi >= 0;
    // Only prunable when min == max == literal.
    case CompareOp::kNe: return !(*lo == 0 && *hi == 0);
    case CompareOp::kLt: return *lo < 0;
    case CompareOp::kLe: return *lo <= 0;
    case CompareOp::kGt: return *hi > 0;
    case CompareOp::kGe: return *hi >= 0;
  }
  return true;
}

void ColumnStats::Merge(const ColumnStats& other) {
  if (min.is_null() || (!other.min.is_null() && StatLess(other.min, min))) {
    min = other.min;
  }
  if (max.is_null() || (!other.max.is_null() && StatLess(max, other.max))) {
    max = other.max;
  }
  row_count += other.row_count;
  null_count += other.null_count;
  // NDV union upper bound; per-chunk NDVs can overlap, so this
  // overestimates — acceptable for the pushdown estimator which only
  // needs order of magnitude.
  ndv = std::min<uint64_t>(ndv + other.ndv, row_count);
  ndv_capped = ndv_capped || other.ndv_capped;
}

void ColumnStats::Serialize(BufferWriter* out) const {
  columnar::ipc::WriteDatum(min, out);
  columnar::ipc::WriteDatum(max, out);
  out->WriteVarint(row_count);
  out->WriteVarint(null_count);
  out->WriteVarint(ndv);
  out->WriteU8(ndv_capped ? 1 : 0);
}

Result<ColumnStats> ColumnStats::Deserialize(BufferReader* in) {
  ColumnStats s;
  POCS_ASSIGN_OR_RETURN(s.min, columnar::ipc::ReadDatum(in));
  POCS_ASSIGN_OR_RETURN(s.max, columnar::ipc::ReadDatum(in));
  POCS_ASSIGN_OR_RETURN(s.row_count, in->ReadVarint());
  POCS_ASSIGN_OR_RETURN(s.null_count, in->ReadVarint());
  POCS_ASSIGN_OR_RETURN(s.ndv, in->ReadVarint());
  POCS_ASSIGN_OR_RETURN(uint8_t capped, in->ReadU8());
  s.ndv_capped = capped != 0;
  return s;
}

void StatsCollector::Update(const columnar::Column& col) {
  stats_.row_count += col.length();
  // StatLess for two values of this column's type: int64 exact, and a NaN
  // never less than anything (so a leading NaN stays the bound).
  auto less = [this](const Datum& a, const Datum& b) {
    switch (type_) {
      case TypeKind::kInt64: return a.int64_value() < b.int64_value();
      case TypeKind::kFloat64: return a.float64_value() < b.float64_value();
      default: return a.Compare(b) < 0;
    }
  };
  for (size_t i = 0; i < col.length(); ++i) {
    if (col.IsNull(i)) {
      ++stats_.null_count;
      continue;
    }
    Datum v = col.GetDatum(i);
    if (stats_.min.is_null() || less(v, stats_.min)) stats_.min = v;
    if (stats_.max.is_null() || less(stats_.max, v)) stats_.max = v;
    if (!stats_.ndv_capped) {
      uint64_t h;
      switch (type_) {
        case TypeKind::kString: h = HashString(col.GetString(i)); break;
        case TypeKind::kFloat64: h = HashValue(col.GetFloat64(i)); break;
        default: h = HashValue(v.AsInt64()); break;
      }
      distinct_.insert(h);
      if (distinct_.size() >= kNdvCap) stats_.ndv_capped = true;
    }
  }
  stats_.ndv = distinct_.size();
}

}  // namespace pocs::format
