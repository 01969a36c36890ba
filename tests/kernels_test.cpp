// Equivalence tests for the vectorized kernels (DESIGN.md §15): every
// branch-light typed kernel is checked against a naive per-row reference
// over randomized seeded inputs — nulls, input selections (including
// empty), all-match / none-match literals — and the dictionary code-
// domain path is checked against full materialization at cardinalities
// 1, 255, and overflow-to-plain. The suite carries the `kernels` ctest
// label (run with `ctest -L kernels`, also under ASan/UBSan in CI).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "columnar/kernels.h"
#include "common/bloom.h"
#include "exec/scan_source.h"
#include "format/encoding.h"
#include "format/parquet_lite.h"
#include "objectstore/object_store.h"
#include "ocs/client.h"
#include "ocs/storage_node.h"
#include "substrait/eval.h"

namespace pocs::columnar {
namespace {

using format::DecodeDictionaryPage;
using format::DecodePage;
using format::DictionaryPage;
using format::EncodePage;
using format::FilterDictCodes;
using format::MaterializeDictionary;
using format::MaterializeDictionarySelected;
using format::TranslateDictPredicate;

constexpr CompareOp kAllOps[] = {CompareOp::kEq, CompareOp::kNe,
                                 CompareOp::kLt, CompareOp::kLe,
                                 CompareOp::kGt, CompareOp::kGe};

// ---- naive per-row references (the pre-vectorization semantics) -----------

template <typename T>
int Cmp3(T a, T b) {
  return a < b ? -1 : (a > b ? 1 : 0);
}

// Three-way compare of row i against the literal, with the same numeric
// promotion the typed kernels use (bool/int32/date32 widen to int64).
int NaiveCmp(const Column& col, size_t i, const Datum& lit) {
  switch (col.type()) {
    case TypeKind::kBool:
      return Cmp3<int64_t>(col.GetBool(i) ? 1 : 0, lit.AsInt64());
    case TypeKind::kInt32:
    case TypeKind::kDate32:
      return Cmp3<int64_t>(col.GetInt32(i), lit.AsInt64());
    case TypeKind::kInt64:
      return Cmp3<int64_t>(col.GetInt64(i), lit.AsInt64());
    case TypeKind::kFloat64:
      return Cmp3<double>(col.GetFloat64(i), lit.AsDouble());
    case TypeKind::kString: {
      const std::string_view v = col.GetString(i);
      const std::string& l = lit.string_value();
      return Cmp3<int>(v.compare(l), 0);
    }
  }
  return 0;
}

bool OpHolds(CompareOp op, int cmp) {
  switch (op) {
    case CompareOp::kEq: return cmp == 0;
    case CompareOp::kNe: return cmp != 0;
    case CompareOp::kLt: return cmp < 0;
    case CompareOp::kLe: return cmp <= 0;
    case CompareOp::kGt: return cmp > 0;
    case CompareOp::kGe: return cmp >= 0;
  }
  return false;
}

SelectionVector NaiveCompare(const Column& col, CompareOp op,
                             const Datum& lit,
                             const SelectionVector* input) {
  SelectionVector out;
  if (lit.is_null()) return out;
  auto test = [&](uint32_t i) {
    if (col.IsNull(i)) return;
    if (OpHolds(op, NaiveCmp(col, i, lit))) out.push_back(i);
  };
  if (input) {
    for (uint32_t i : *input) test(i);
  } else {
    for (uint32_t i = 0; i < col.length(); ++i) test(i);
  }
  return out;
}

SelectionVector NaiveBetween(const Column& col, const Datum& lo,
                             const Datum& hi, const SelectionVector* input) {
  SelectionVector out;
  if (lo.is_null() || hi.is_null()) return out;
  auto test = [&](uint32_t i) {
    if (col.IsNull(i)) return;
    if (NaiveCmp(col, i, lo) >= 0 && NaiveCmp(col, i, hi) <= 0) {
      out.push_back(i);
    }
  };
  if (input) {
    for (uint32_t i : *input) test(i);
  } else {
    for (uint32_t i = 0; i < col.length(); ++i) test(i);
  }
  return out;
}

ColumnPtr NaiveTake(const Column& col, const SelectionVector& sel) {
  auto out = MakeColumn(col.type());
  for (uint32_t i : sel) out->AppendFrom(col, i);
  return out;
}

void ExpectColumnsEqual(const Column& a, const Column& b) {
  ASSERT_EQ(a.type(), b.type());
  ASSERT_EQ(a.length(), b.length());
  ASSERT_EQ(a.null_count(), b.null_count());
  for (size_t i = 0; i < a.length(); ++i) {
    ASSERT_EQ(a.IsNull(i), b.IsNull(i)) << "row " << i;
    if (a.IsNull(i)) continue;
    ASSERT_EQ(a.GetDatum(i).ToString(), b.GetDatum(i).ToString())
        << "row " << i;
  }
}

// ---- randomized input generation ------------------------------------------

ColumnPtr RandomColumn(TypeKind type, size_t n, double null_prob,
                       std::mt19937_64* rng) {
  auto col = MakeColumn(type);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_int_distribution<int64_t> ints(-50, 50);
  for (size_t i = 0; i < n; ++i) {
    if (unit(*rng) < null_prob) {
      col->AppendNull();
      continue;
    }
    switch (type) {
      case TypeKind::kBool: col->AppendBool(ints(*rng) > 0); break;
      case TypeKind::kInt32: col->AppendInt32(static_cast<int32_t>(ints(*rng))); break;
      case TypeKind::kDate32: col->AppendInt32(static_cast<int32_t>(ints(*rng))); break;
      case TypeKind::kInt64: col->AppendInt64(ints(*rng)); break;
      case TypeKind::kFloat64: col->AppendFloat64(ints(*rng) * 0.25); break;
      case TypeKind::kString:
        col->AppendString("v" + std::to_string(ints(*rng) + 50));
        break;
    }
  }
  return col;
}

Datum RandomLiteral(TypeKind type, std::mt19937_64* rng) {
  std::uniform_int_distribution<int64_t> ints(-50, 50);
  switch (type) {
    case TypeKind::kBool: return Datum::Bool(ints(*rng) > 0);
    case TypeKind::kInt32: return Datum::Int32(static_cast<int32_t>(ints(*rng)));
    case TypeKind::kDate32: return Datum::Date32(static_cast<int32_t>(ints(*rng)));
    case TypeKind::kInt64: return Datum::Int64(ints(*rng));
    case TypeKind::kFloat64: return Datum::Float64(ints(*rng) * 0.25);
    case TypeKind::kString:
      return Datum::String("v" + std::to_string(ints(*rng) + 50));
  }
  return Datum::Null(type);
}

SelectionVector RandomSelection(size_t n, double keep_prob,
                                std::mt19937_64* rng) {
  SelectionVector sel;
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (size_t i = 0; i < n; ++i) {
    if (unit(*rng) < keep_prob) sel.push_back(static_cast<uint32_t>(i));
  }
  return sel;
}

constexpr TypeKind kAllTypes[] = {TypeKind::kBool,    TypeKind::kInt32,
                                  TypeKind::kInt64,   TypeKind::kFloat64,
                                  TypeKind::kDate32,  TypeKind::kString};

// ---- CompareScalar / Between ----------------------------------------------

TEST(CompareScalarTest, RandomizedEquivalence) {
  std::mt19937_64 rng(0xC0FFEE);
  for (TypeKind type : kAllTypes) {
    for (double null_prob : {0.0, 0.25}) {
      ColumnPtr col = RandomColumn(type, 257, null_prob, &rng);
      const SelectionVector some = RandomSelection(col->length(), 0.5, &rng);
      const SelectionVector empty;
      for (CompareOp op : kAllOps) {
        for (int trial = 0; trial < 4; ++trial) {
          const Datum lit = RandomLiteral(type, &rng);
          EXPECT_EQ(CompareScalar(*col, op, lit, nullptr),
                    NaiveCompare(*col, op, lit, nullptr));
          EXPECT_EQ(CompareScalar(*col, op, lit, &some),
                    NaiveCompare(*col, op, lit, &some));
          EXPECT_EQ(CompareScalar(*col, op, lit, &empty),
                    NaiveCompare(*col, op, lit, &empty));
        }
      }
    }
  }
}

TEST(CompareScalarTest, AllAndNoneMatch) {
  std::mt19937_64 rng(7);
  ColumnPtr col = RandomColumn(TypeKind::kInt64, 500, 0.0, &rng);
  // Values are in [-50, 50]: Lt 1000 keeps everything, Gt 1000 nothing.
  SelectionVector all = CompareScalar(*col, CompareOp::kLt,
                                      Datum::Int64(1000), nullptr);
  ASSERT_EQ(all.size(), col->length());
  for (uint32_t i = 0; i < all.size(); ++i) EXPECT_EQ(all[i], i);
  EXPECT_TRUE(CompareScalar(*col, CompareOp::kGt, Datum::Int64(1000), nullptr)
                  .empty());
}

// An integer column against a float literal compares exactly: fractional
// literals round to the bound that keeps the answer (`v < 1.5` keeps 1),
// literals beyond int64 select all or nothing, and NaN matches only <>.
// The oracle compares in double, exact for these values.
TEST(CompareScalarTest, IntegerColumnComparesFloatLiteralExactly) {
  for (TypeKind type : {TypeKind::kInt64, TypeKind::kInt32}) {
    auto col = columnar::MakeColumn(type);
    std::vector<int64_t> values;
    for (int64_t v = -4; v <= 4; ++v) values.push_back(v);
    if (type == TypeKind::kInt64) {
      values.push_back(std::numeric_limits<int64_t>::max());
      values.push_back(std::numeric_limits<int64_t>::min() + 1);
    }
    for (int64_t v : values) {
      if (type == TypeKind::kInt64) {
        col->AppendInt64(v);
      } else {
        col->AppendInt32(static_cast<int32_t>(v));
      }
    }
    col->AppendNull();
    const SelectionVector some = {0, 2, 5, 6, 9};
    for (double x : {1.5, -1.5, 2.0, -0.25, 0.75, 1e19, -1e19,
                     std::numeric_limits<double>::quiet_NaN()}) {
      for (CompareOp op : kAllOps) {
        SelectionVector expected;
        for (uint32_t i = 0; i < values.size(); ++i) {
          const double v = static_cast<double>(values[i]);
          bool hit = false;
          switch (op) {
            case CompareOp::kEq: hit = v == x; break;
            case CompareOp::kNe: hit = v != x; break;
            case CompareOp::kLt: hit = v < x; break;
            case CompareOp::kLe: hit = v <= x; break;
            case CompareOp::kGt: hit = v > x; break;
            case CompareOp::kGe: hit = v >= x; break;
          }
          if (hit) expected.push_back(i);
        }
        SelectionVector expected_some;
        for (uint32_t i : some) {
          if (std::find(expected.begin(), expected.end(), i) !=
              expected.end()) {
            expected_some.push_back(i);
          }
        }
        const Datum lit = Datum::Float64(x);
        EXPECT_EQ(CompareScalar(*col, op, lit, nullptr), expected)
            << columnar::CompareOpName(op) << " " << x;
        EXPECT_EQ(CompareScalar(*col, op, lit, &some), expected_some)
            << columnar::CompareOpName(op) << " " << x;
      }
      // BETWEEN x AND x + 2: the integers in [x, x + 2], exactly.
      SelectionVector between;
      for (uint32_t i = 0; i < values.size(); ++i) {
        const double v = static_cast<double>(values[i]);
        if (v >= x && v <= x + 2) between.push_back(i);
      }
      EXPECT_EQ(Between(*col, Datum::Float64(x), Datum::Float64(x + 2)),
                between)
          << x;
    }
  }
}

TEST(CompareScalarTest, NullLiteralMatchesNothing) {
  std::mt19937_64 rng(11);
  for (TypeKind type : kAllTypes) {
    ColumnPtr col = RandomColumn(type, 64, 0.2, &rng);
    for (CompareOp op : kAllOps) {
      EXPECT_TRUE(
          CompareScalar(*col, op, Datum::Null(type), nullptr).empty());
    }
  }
}

TEST(BetweenTest, RandomizedEquivalence) {
  std::mt19937_64 rng(0xBEEF);
  for (TypeKind type : kAllTypes) {
    if (type == TypeKind::kBool) continue;  // degenerate bounds domain
    for (double null_prob : {0.0, 0.25}) {
      ColumnPtr col = RandomColumn(type, 311, null_prob, &rng);
      const SelectionVector some = RandomSelection(col->length(), 0.4, &rng);
      for (int trial = 0; trial < 8; ++trial) {
        Datum a = RandomLiteral(type, &rng);
        Datum b = RandomLiteral(type, &rng);
        // Both orders: lo > hi must select nothing, matching the naive
        // double-sided test.
        EXPECT_EQ(Between(*col, a, b, nullptr),
                  NaiveBetween(*col, a, b, nullptr));
        EXPECT_EQ(Between(*col, a, b, &some), NaiveBetween(*col, a, b, &some));
      }
      EXPECT_TRUE(Between(*col, Datum::Null(type), RandomLiteral(type, &rng),
                          nullptr)
                      .empty());
      EXPECT_TRUE(Between(*col, RandomLiteral(type, &rng), Datum::Null(type),
                          nullptr)
                      .empty());
    }
  }
}

// ---- Take / TakeBatch ------------------------------------------------------

TEST(TakeTest, RandomizedEquivalence) {
  std::mt19937_64 rng(0xACE);
  for (TypeKind type : kAllTypes) {
    for (double null_prob : {0.0, 0.3}) {
      ColumnPtr col = RandomColumn(type, 401, null_prob, &rng);
      for (double keep : {0.0, 0.1, 0.6, 1.0}) {
        SelectionVector sel = RandomSelection(col->length(), keep, &rng);
        ColumnPtr got = Take(*col, sel);
        ColumnPtr want = NaiveTake(*col, sel);
        ExpectColumnsEqual(*want, *got);
      }
    }
  }
}

TEST(TakeTest, ContiguousRunsAndSingletons) {
  auto col = MakeColumn(TypeKind::kInt64);
  for (int i = 0; i < 100; ++i) col->AppendInt64(i * 3);
  // A long run, a gap, a singleton, another run: exercises the
  // memcpy-per-run gather path's run detection.
  SelectionVector sel;
  for (uint32_t i = 10; i < 40; ++i) sel.push_back(i);
  sel.push_back(50);
  for (uint32_t i = 90; i < 100; ++i) sel.push_back(i);
  ExpectColumnsEqual(*NaiveTake(*col, sel), *Take(*col, sel));
}

TEST(TakeBatchTest, RandomizedEquivalence) {
  std::mt19937_64 rng(0xB00);
  auto schema = MakeSchema({{"a", TypeKind::kInt64},
                            {"s", TypeKind::kString},
                            {"f", TypeKind::kFloat64}});
  std::vector<ColumnPtr> cols = {RandomColumn(TypeKind::kInt64, 200, 0.1, &rng),
                                 RandomColumn(TypeKind::kString, 200, 0.1, &rng),
                                 RandomColumn(TypeKind::kFloat64, 200, 0.0, &rng)};
  auto batch = MakeBatch(schema, cols);
  SelectionVector sel = RandomSelection(200, 0.35, &rng);
  RecordBatchPtr taken = TakeBatch(*batch, sel);
  ASSERT_EQ(taken->num_rows(), sel.size());
  for (size_t c = 0; c < cols.size(); ++c) {
    ExpectColumnsEqual(*NaiveTake(*cols[c], sel), *taken->column(c));
  }
}

// ---- HashRows --------------------------------------------------------------

TEST(HashRowsTest, EqualRowsHashEqual) {
  std::mt19937_64 rng(0x5EED);
  // Two key columns; rows duplicated (row i == row i + n).
  const size_t n = 128;
  auto k1 = RandomColumn(TypeKind::kInt64, n, 0.2, &rng);
  auto k2 = RandomColumn(TypeKind::kString, n, 0.2, &rng);
  auto d1 = MakeColumn(TypeKind::kInt64);
  auto d2 = MakeColumn(TypeKind::kString);
  for (size_t pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < n; ++i) {
      d1->AppendFrom(*k1, i);
      d2->AppendFrom(*k2, i);
    }
  }
  std::vector<uint64_t> hashes;
  HashRows({d1, d2}, &hashes);
  ASSERT_EQ(hashes.size(), 2 * n);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(hashes[i], hashes[i + n]) << "row " << i;
    EXPECT_TRUE(RowsEqual({d1, d2}, i, i + n));
  }
}

TEST(HashRowsTest, Deterministic) {
  std::mt19937_64 rng(0xD0);
  auto k = RandomColumn(TypeKind::kInt32, 333, 0.15, &rng);
  std::vector<uint64_t> a, b;
  HashRows({k}, &a);
  HashRows({k}, &b);
  EXPECT_EQ(a, b);
}

// ---- selection-aware FilterSelection / BloomSelectRows ---------------------

TEST(FilterSelectionTest, InputSelectionRestrictsOutput) {
  std::mt19937_64 rng(0xF1);
  auto schema = MakeSchema({{"v", TypeKind::kInt64}});
  auto col = RandomColumn(TypeKind::kInt64, 300, 0.2, &rng);
  auto batch = MakeBatch(schema, {col});
  substrait::Expression pred = substrait::Expression::Call(
      substrait::ScalarFunc::kGt,
      {substrait::Expression::FieldRef(0, TypeKind::kInt64),
       substrait::Expression::Literal(Datum::Int64(0))},
      TypeKind::kBool);

  auto full = substrait::FilterSelection(pred, *batch);
  ASSERT_TRUE(full.ok());
  auto full2 = substrait::FilterSelection(pred, *batch, nullptr);
  ASSERT_TRUE(full2.ok());
  EXPECT_EQ(*full, *full2);
  EXPECT_EQ(*full, NaiveCompare(*col, CompareOp::kGt, Datum::Int64(0),
                                nullptr));

  for (double keep : {0.0, 0.3, 1.0}) {
    SelectionVector input = RandomSelection(300, keep, &rng);
    auto restricted = substrait::FilterSelection(pred, *batch, &input);
    ASSERT_TRUE(restricted.ok());
    EXPECT_EQ(*restricted, NaiveCompare(*col, CompareOp::kGt,
                                        Datum::Int64(0), &input));
    // Invariant: output is a subset of the input selection.
    size_t j = 0;
    for (uint32_t r : *restricted) {
      while (j < input.size() && input[j] < r) ++j;
      ASSERT_TRUE(j < input.size() && input[j] == r);
    }
  }
}

TEST(BloomSelectRowsTest, NoFalseNegativesAndNullsDropped) {
  std::mt19937_64 rng(0xB10);
  auto col = RandomColumn(TypeKind::kInt64, 400, 0.2, &rng);
  BloomFilter bloom(1024, 3, 42);
  std::vector<bool> inserted(col->length(), false);
  for (size_t i = 0; i < col->length(); i += 3) {
    if (col->IsNull(i)) continue;
    bloom.Add(static_cast<uint64_t>(col->GetInt64(i)));
    inserted[i] = true;
  }
  SelectionVector sel = exec::BloomSelectRows(*col, bloom);
  std::vector<bool> selected(col->length(), false);
  for (uint32_t i : sel) {
    selected[i] = true;
    EXPECT_FALSE(col->IsNull(i)) << "null row " << i << " passed the bloom";
  }
  for (size_t i = 0; i < col->length(); ++i) {
    if (inserted[i]) {
      EXPECT_TRUE(selected[i]) << "false negative at " << i;
    }
  }
  // Non-integer key column: advisory filter keeps every row.
  auto scol = RandomColumn(TypeKind::kString, 50, 0.0, &rng);
  EXPECT_EQ(exec::BloomSelectRows(*scol, bloom).size(), scol->length());
}

// ---- dictionary code-domain path -------------------------------------------

// Encode `col` and decode the dictionary form, asserting it IS
// dictionary-encoded.
DictionaryPage MustDict(const Column& col) {
  const Field field{"s", TypeKind::kString};
  Bytes page = EncodePage(col, field);
  auto dict = DecodeDictionaryPage(page, field, col.length());
  EXPECT_TRUE(dict.ok()) << dict.status();
  EXPECT_TRUE(dict->has_value()) << "page unexpectedly plain";
  return std::move(**dict);
}

ColumnPtr DictColumn(size_t n, size_t cardinality, double null_prob,
                     std::mt19937_64* rng) {
  auto col = MakeColumn(TypeKind::kString);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_int_distribution<size_t> pick(0, cardinality - 1);
  for (size_t i = 0; i < n; ++i) {
    if (unit(*rng) < null_prob) {
      col->AppendNull();
    } else {
      col->AppendString("val_" + std::to_string(pick(*rng)));
    }
  }
  return col;
}

TEST(DictionaryKernelTest, MaterializeMatchesDecodePage) {
  std::mt19937_64 rng(0xD1C7);
  for (size_t cardinality : {size_t{1}, size_t{8}, size_t{255}}) {
    for (double null_prob : {0.0, 0.2}) {
      ColumnPtr col = DictColumn(600, cardinality, null_prob, &rng);
      const Field field{"s", TypeKind::kString};
      Bytes page = EncodePage(*col, field);
      auto dict = DecodeDictionaryPage(page, field, col->length());
      ASSERT_TRUE(dict.ok()) << dict.status();
      if (!dict->has_value()) continue;  // plain won the size contest
      auto full = DecodePage(page, field, col->length());
      ASSERT_TRUE(full.ok());
      ColumnPtr materialized = MaterializeDictionary(**dict);
      ExpectColumnsEqual(**full, *materialized);
      ExpectColumnsEqual(*col, *materialized);
    }
  }
}

TEST(DictionaryKernelTest, OverflowToPlain) {
  // >255 distinct values: the writer must fall back to plain encoding
  // and DecodeDictionaryPage must report nullopt.
  auto col = MakeColumn(TypeKind::kString);
  for (int i = 0; i < 400; ++i) {
    col->AppendString("unique_value_" + std::to_string(i));
  }
  const Field field{"s", TypeKind::kString};
  EXPECT_FALSE(format::DictionaryEncodeString(*col).has_value());
  Bytes page = EncodePage(*col, field);
  auto dict = DecodeDictionaryPage(page, field, col->length());
  ASSERT_TRUE(dict.ok());
  EXPECT_FALSE(dict->has_value());
  auto full = DecodePage(page, field, col->length());
  ASSERT_TRUE(full.ok());
  ExpectColumnsEqual(*col, **full);
}

TEST(DictionaryKernelTest, CodeDomainFilterMatchesCompareScalar) {
  std::mt19937_64 rng(0xF117);
  for (size_t cardinality : {size_t{1}, size_t{8}, size_t{255}}) {
    for (double null_prob : {0.0, 0.2}) {
      ColumnPtr col = DictColumn(500, cardinality, null_prob, &rng);
      DictionaryPage dict = MustDict(*col);
      const SelectionVector some = RandomSelection(col->length(), 0.5, &rng);
      const SelectionVector empty;
      for (CompareOp op : kAllOps) {
        for (const std::string& value :
             {std::string("val_0"), std::string("val_7"),
              std::string("zzz_absent"), std::string("")}) {
          const Datum lit = Datum::String(value);
          std::vector<uint8_t> match = TranslateDictPredicate(dict, op, lit);
          ASSERT_EQ(match.size(), 256u);
          EXPECT_EQ(FilterDictCodes(dict, match, nullptr),
                    CompareScalar(*col, op, lit, nullptr));
          EXPECT_EQ(FilterDictCodes(dict, match, &some),
                    CompareScalar(*col, op, lit, &some));
          EXPECT_TRUE(FilterDictCodes(dict, match, &empty).empty());
        }
        // NULL literal: all-zero match table, nothing selected.
        std::vector<uint8_t> none =
            TranslateDictPredicate(dict, op, Datum::Null(TypeKind::kString));
        EXPECT_TRUE(FilterDictCodes(dict, none, nullptr).empty());
      }
    }
  }
}

TEST(DictionaryKernelTest, SelectedMaterializationPreservesSurvivors) {
  std::mt19937_64 rng(0x1A7E);
  ColumnPtr col = DictColumn(300, 5, 0.15, &rng);
  DictionaryPage dict = MustDict(*col);
  for (double keep : {0.0, 0.3, 1.0}) {
    SelectionVector sel = RandomSelection(col->length(), keep, &rng);
    ColumnPtr partial = MaterializeDictionarySelected(dict, sel);
    ASSERT_EQ(partial->length(), col->length());
    ASSERT_EQ(partial->null_count(), col->null_count());
    size_t s = 0;
    for (size_t i = 0; i < col->length(); ++i) {
      ASSERT_EQ(partial->IsNull(i), col->IsNull(i)) << "row " << i;
      const bool is_selected = s < sel.size() && sel[s] == i;
      if (is_selected) ++s;
      if (col->IsNull(i)) continue;
      if (is_selected) {
        EXPECT_EQ(partial->GetString(i), col->GetString(i)) << "row " << i;
      } else {
        EXPECT_EQ(partial->GetString(i), "") << "placeholder row " << i;
      }
    }
    // Gathering the survivors out of the partial column must equal
    // gathering them out of the fully decoded column — the invariant the
    // executor's TakeBatch materialization relies on.
    ExpectColumnsEqual(*NaiveTake(*col, sel), *Take(*partial, sel));
  }
}

// ---- end-to-end: storage node with a string predicate ----------------------

columnar::SchemaPtr DictSchema() {
  return MakeSchema({{"id", TypeKind::kInt64},
                     {"flag", TypeKind::kString},
                     {"status", TypeKind::kString},
                     {"qty", TypeKind::kFloat64}});
}

// 1200 rows in 4 row groups; flag cycles R/A/N, status cycles O/F.
Bytes DictFile() {
  format::WriterOptions options;
  options.rows_per_group = 300;
  format::FileWriter writer(DictSchema(), options);
  auto id = MakeColumn(TypeKind::kInt64);
  auto flag = MakeColumn(TypeKind::kString);
  auto status = MakeColumn(TypeKind::kString);
  auto qty = MakeColumn(TypeKind::kFloat64);
  const char* flags[] = {"R", "A", "N"};
  const char* statuses[] = {"O", "F"};
  for (int i = 0; i < 1200; ++i) {
    id->AppendInt64(i);
    flag->AppendString(flags[i % 3]);
    status->AppendString(statuses[i % 2]);
    qty->AppendFloat64(static_cast<double>(i % 50));
  }
  auto batch = MakeBatch(DictSchema(), {id, flag, status, qty});
  EXPECT_TRUE(writer.WriteBatch(*batch).ok());
  auto file = writer.Finish();
  EXPECT_TRUE(file.ok());
  return *file;
}

TEST(StorageNodeDictTest, StringPredicateUsesCodeDomain) {
  auto store = std::make_shared<objectstore::ObjectStore>();
  ASSERT_TRUE(store->CreateBucket("d").ok());
  const Bytes file = DictFile();
  ASSERT_TRUE(store->Put("d", "f0", file).ok());
  ocs::StorageNode node(store, ocs::StorageNodeConfig{1.0});

  substrait::Plan plan;
  auto read = std::make_unique<substrait::Rel>();
  read->kind = substrait::RelKind::kRead;
  read->bucket = "d";
  read->object = "f0";
  read->base_schema = DictSchema();
  auto filter = std::make_unique<substrait::Rel>();
  filter->kind = substrait::RelKind::kFilter;
  filter->input = std::move(read);
  filter->predicate = substrait::Expression::Call(
      substrait::ScalarFunc::kAnd,
      {substrait::Expression::Call(
           substrait::ScalarFunc::kEq,
           {substrait::Expression::FieldRef(1, TypeKind::kString),
            substrait::Expression::Literal(Datum::String("R"))},
           TypeKind::kBool),
       substrait::Expression::Call(
           substrait::ScalarFunc::kLt,
           {substrait::Expression::FieldRef(3, TypeKind::kFloat64),
            substrait::Expression::Literal(Datum::Float64(25.0))},
           TypeKind::kBool)},
      TypeKind::kBool);
  plan.root = std::move(filter);

  auto result = node.ExecutePlan(plan);
  ASSERT_TRUE(result.ok()) << result.status();
  // flag == 'R' keeps 1 in 3 rows; qty < 25 keeps half of those.
  EXPECT_EQ(result->stats.rows_scanned, 1200u);
  EXPECT_EQ(result->stats.rows_output, 200u);
  // The string conjunct must have run in the code domain, and the
  // surviving rows must have been late-materialized (flag and status are
  // both dictionary-encoded string columns).
  EXPECT_GT(result->stats.rows_dict_filtered, 0u);
  EXPECT_GT(result->stats.rows_late_materialized, 0u);

  // The answer must equal a full decode + naive filter of the same file.
  auto table = ocs::OcsClient::DecodeTable(*result);
  ASSERT_TRUE(table.ok());
  auto reader = format::FileReader::Open(file);
  ASSERT_TRUE(reader.ok());
  auto all = (*reader)->ReadAll();
  ASSERT_TRUE(all.ok());
  std::vector<std::string> want;
  for (const auto& b : (*all)->batches()) {
    for (size_t i = 0; i < b->num_rows(); ++i) {
      if (b->column(1)->GetString(i) == "R" &&
          b->column(3)->GetFloat64(i) < 25.0) {
        want.push_back(std::to_string(b->column(0)->GetInt64(i)) + "|" +
                       std::string(b->column(1)->GetString(i)) + "|" +
                       std::string(b->column(2)->GetString(i)) + "|" +
                       std::to_string(b->column(3)->GetFloat64(i)));
      }
    }
  }
  std::vector<std::string> got;
  for (const auto& b : (*table)->batches()) {
    for (size_t i = 0; i < b->num_rows(); ++i) {
      got.push_back(std::to_string(b->column(0)->GetInt64(i)) + "|" +
                    std::string(b->column(1)->GetString(i)) + "|" +
                    std::string(b->column(2)->GetString(i)) + "|" +
                    std::to_string(b->column(3)->GetFloat64(i)));
    }
  }
  EXPECT_EQ(want, got);

  // Partially materialized dictionary columns must never enter the
  // row-group cache; fully decoded non-string columns must.
  ASSERT_TRUE(node.rowgroup_cache() != nullptr);
  EXPECT_EQ(node.rowgroup_cache()->Lookup(
                exec::RowGroupCacheKey{"d/f0", result->stats.object_version,
                                      0, 1}),
            nullptr);
  EXPECT_NE(node.rowgroup_cache()->Lookup(
                exec::RowGroupCacheKey{"d/f0", result->stats.object_version,
                                      0, 3}),
            nullptr);
}

}  // namespace
}  // namespace pocs::columnar
