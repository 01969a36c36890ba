// Tests for the shared execution primitives: hash aggregation, sort /
// top-N / fetch, the plan-chain executor (including the fused streaming
// paths), and the one Parquet-lite scan source (exec::ScanSource).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <random>
#include <set>

#include "exec/hash_aggregator.h"
#include "exec/plan_executor.h"
#include "exec/scan_source.h"
#include "exec/sorter.h"
#include "format/parquet_lite.h"
#include "substrait/eval.h"

namespace pocs::exec {
namespace {

using columnar::Datum;
using columnar::MakeBatch;
using columnar::MakeColumn;
using columnar::MakeSchema;
using columnar::RecordBatchPtr;
using columnar::Table;
using columnar::TypeKind;
using substrait::AggFunc;
using substrait::AggregateSpec;
using substrait::Expression;
using substrait::Rel;
using substrait::RelKind;
using substrait::ScalarFunc;

columnar::SchemaPtr KVSchema() {
  return MakeSchema({{"k", TypeKind::kString}, {"v", TypeKind::kFloat64}});
}

RecordBatchPtr KVBatch(const std::vector<std::pair<std::string, double>>& rows,
                       const std::vector<size_t>& null_rows = {}) {
  auto k = MakeColumn(TypeKind::kString);
  auto v = MakeColumn(TypeKind::kFloat64);
  for (size_t i = 0; i < rows.size(); ++i) {
    k->AppendString(rows[i].first);
    if (std::find(null_rows.begin(), null_rows.end(), i) != null_rows.end()) {
      v->AppendNull();
    } else {
      v->AppendFloat64(rows[i].second);
    }
  }
  return MakeBatch(KVSchema(), {k, v});
}

TEST(HashAggregatorTest, GroupedSumAvgCount) {
  HashAggregator agg(
      KVSchema(), {0},
      {{AggFunc::kSum, Expression::FieldRef(1, TypeKind::kFloat64), "sum_v"},
       {AggFunc::kAvg, Expression::FieldRef(1, TypeKind::kFloat64), "avg_v"},
       {AggFunc::kCountStar, {}, "cnt"}});
  ASSERT_TRUE(agg.Consume(*KVBatch({{"a", 1}, {"b", 10}, {"a", 3}})).ok());
  ASSERT_TRUE(agg.Consume(*KVBatch({{"b", 20}, {"a", 2}})).ok());
  auto result = agg.Finish();
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ((*result)->num_rows(), 2u);
  // Group order = first-seen: a then b.
  EXPECT_EQ((*result)->column(0)->GetString(0), "a");
  EXPECT_DOUBLE_EQ((*result)->column(1)->GetFloat64(0), 6.0);
  EXPECT_DOUBLE_EQ((*result)->column(2)->GetFloat64(0), 2.0);
  EXPECT_EQ((*result)->column(3)->GetInt64(0), 3);
  EXPECT_EQ((*result)->column(0)->GetString(1), "b");
  EXPECT_DOUBLE_EQ((*result)->column(1)->GetFloat64(1), 30.0);
}

TEST(HashAggregatorTest, NullArgumentsSkipped) {
  HashAggregator agg(
      KVSchema(), {0},
      {{AggFunc::kSum, Expression::FieldRef(1, TypeKind::kFloat64), "s"},
       {AggFunc::kCount, Expression::FieldRef(1, TypeKind::kFloat64), "c"},
       {AggFunc::kCountStar, {}, "cs"}});
  // a: values 5, null → SUM 5, COUNT 1, COUNT(*) 2.
  ASSERT_TRUE(agg.Consume(*KVBatch({{"a", 5}, {"a", 99}}, {1})).ok());
  auto result = agg.Finish();
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ((*result)->column(1)->GetFloat64(0), 5.0);
  EXPECT_EQ((*result)->column(2)->GetInt64(0), 1);
  EXPECT_EQ((*result)->column(3)->GetInt64(0), 2);
}

TEST(HashAggregatorTest, MinMaxOverStringsAndDoubles) {
  HashAggregator agg(
      KVSchema(), {},
      {{AggFunc::kMin, Expression::FieldRef(0, TypeKind::kString), "min_k"},
       {AggFunc::kMax, Expression::FieldRef(1, TypeKind::kFloat64), "max_v"}});
  ASSERT_TRUE(agg.Consume(*KVBatch({{"pear", 3}, {"apple", 9}, {"fig", 1}})).ok());
  auto result = agg.Finish();
  ASSERT_TRUE(result.ok());
  ASSERT_EQ((*result)->num_rows(), 1u);
  EXPECT_EQ((*result)->column(0)->GetString(0), "apple");
  EXPECT_DOUBLE_EQ((*result)->column(1)->GetFloat64(0), 9.0);
}

TEST(HashAggregatorTest, GlobalAggregateOverZeroRows) {
  HashAggregator agg(
      KVSchema(), {},
      {{AggFunc::kCountStar, {}, "c"},
       {AggFunc::kSum, Expression::FieldRef(1, TypeKind::kFloat64), "s"}});
  auto result = agg.Finish();
  ASSERT_TRUE(result.ok());
  ASSERT_EQ((*result)->num_rows(), 1u);  // SQL: one row even with no input
  EXPECT_EQ((*result)->column(0)->GetInt64(0), 0);
  EXPECT_TRUE((*result)->column(1)->IsNull(0));
}

TEST(HashAggregatorTest, GroupedAggregateOverZeroRowsIsEmpty) {
  HashAggregator agg(
      KVSchema(), {0},
      {{AggFunc::kCountStar, {}, "c"}});
  auto result = agg.Finish();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result)->num_rows(), 0u);  // grouped: no groups, no rows
}

TEST(HashAggregatorTest, IntegerSumStaysExact) {
  auto schema = MakeSchema({{"n", TypeKind::kInt64}});
  auto col = MakeColumn(TypeKind::kInt64);
  // Values whose double sum would lose precision.
  col->AppendInt64((int64_t{1} << 53) + 1);
  col->AppendInt64(1);
  HashAggregator agg(schema, {},
                     {{AggFunc::kSum,
                       Expression::FieldRef(0, TypeKind::kInt64), "s"}});
  ASSERT_TRUE(agg.Consume(*MakeBatch(schema, {col})).ok());
  auto result = agg.Finish();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result)->column(0)->GetInt64(0), (int64_t{1} << 53) + 2);
}

TEST(HashAggregatorTest, ManyGroupsSurviveRehash) {
  auto schema = MakeSchema({{"g", TypeKind::kInt64}, {"v", TypeKind::kFloat64}});
  HashAggregator agg(schema, {0},
                     {{AggFunc::kSum,
                       Expression::FieldRef(1, TypeKind::kFloat64), "s"}});
  // 10k groups, each appearing twice.
  for (int pass = 0; pass < 2; ++pass) {
    auto g = MakeColumn(TypeKind::kInt64);
    auto v = MakeColumn(TypeKind::kFloat64);
    for (int i = 0; i < 10000; ++i) {
      g->AppendInt64(i);
      v->AppendFloat64(1.0);
    }
    ASSERT_TRUE(agg.Consume(*MakeBatch(schema, {g, v})).ok());
  }
  auto result = agg.Finish();
  ASSERT_TRUE(result.ok());
  ASSERT_EQ((*result)->num_rows(), 10000u);
  for (size_t i = 0; i < 10000; ++i) {
    EXPECT_DOUBLE_EQ((*result)->column(1)->GetFloat64(i), 2.0);
  }
}

TEST(SorterTest, SortTableMultiBatch) {
  Table table(KVSchema());
  table.AppendBatch(KVBatch({{"c", 3}, {"a", 1}}));
  table.AppendBatch(KVBatch({{"b", 2}}));
  auto sorted = SortTable(table, {{0, true, true}});
  ASSERT_TRUE(sorted.ok());
  EXPECT_EQ((*sorted)->column(0)->GetString(0), "a");
  EXPECT_EQ((*sorted)->column(0)->GetString(1), "b");
  EXPECT_EQ((*sorted)->column(0)->GetString(2), "c");
}

TEST(TopNTest, KeepsBestNAcrossManyBatches) {
  TopNAccumulator topn(KVSchema(), {{1, true, true}}, 3);  // 3 smallest v
  std::mt19937 rng(11);
  std::vector<double> all;
  for (int b = 0; b < 50; ++b) {
    std::vector<std::pair<std::string, double>> rows;
    for (int i = 0; i < 100; ++i) {
      double v = std::uniform_real_distribution<>(0, 1000)(rng);
      rows.push_back({"x", v});
      all.push_back(v);
    }
    ASSERT_TRUE(topn.Consume(*KVBatch(rows)).ok());
  }
  auto result = topn.Finish();
  ASSERT_TRUE(result.ok());
  ASSERT_EQ((*result)->num_rows(), 3u);
  std::sort(all.begin(), all.end());
  for (int i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ((*result)->column(1)->GetFloat64(i), all[i]);
  }
}

TEST(TopNTest, FewerRowsThanLimit) {
  TopNAccumulator topn(KVSchema(), {{1, false, true}}, 100);
  ASSERT_TRUE(topn.Consume(*KVBatch({{"a", 1}, {"b", 2}})).ok());
  auto result = topn.Finish();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result)->num_rows(), 2u);
  EXPECT_DOUBLE_EQ((*result)->column(1)->GetFloat64(0), 2.0);  // desc
}

TEST(FetchTest, OffsetAndLimitAcrossBatches) {
  Table table(KVSchema());
  table.AppendBatch(KVBatch({{"a", 0}, {"b", 1}, {"c", 2}}));
  table.AppendBatch(KVBatch({{"d", 3}, {"e", 4}}));
  auto out = FetchTable(table, 2, 2);
  ASSERT_TRUE(out.ok());
  auto combined = (*out)->Combine();
  ASSERT_EQ(combined->num_rows(), 2u);
  EXPECT_EQ(combined->column(0)->GetString(0), "c");
  EXPECT_EQ(combined->column(0)->GetString(1), "d");
  // Unlimited.
  out = FetchTable(table, 1, -1);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ((*out)->num_rows(), 4u);
  // Zero count.
  out = FetchTable(table, 0, 0);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ((*out)->num_rows(), 0u);
  // Offset past end.
  out = FetchTable(table, 100, 5);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ((*out)->num_rows(), 0u);
}

// ---- plan executor --------------------------------------------------------

std::shared_ptr<Table> SourceTable() {
  auto table = std::make_shared<Table>(KVSchema());
  table->AppendBatch(KVBatch({{"a", 1}, {"b", 5}, {"a", 3}}));
  table->AppendBatch(KVBatch({{"c", 7}, {"b", 9}, {"a", 11}}));
  return table;
}

// Runs `root` over a fresh in-memory source of SourceTable().
Result<std::shared_ptr<Table>> RunOverSource(const Rel& root,
                                             ExecStats* stats = nullptr) {
  TableSource source(SourceTable());
  return ExecuteRel(root, source, stats);
}

std::unique_ptr<Rel> ReadRel() {
  auto read = std::make_unique<Rel>();
  read->kind = RelKind::kRead;
  read->bucket = "b";
  read->object = "o";
  read->base_schema = KVSchema();
  return read;
}

TEST(PlanExecutorTest, ScanOnly) {
  ExecStats stats;
  auto result = RunOverSource(*ReadRel(), &stats);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ((*result)->num_rows(), 6u);
  EXPECT_EQ(stats.rows_scanned, 6u);
  EXPECT_EQ(stats.batches_scanned, 2u);
}

TEST(PlanExecutorTest, FilterProjectStreaming) {
  auto filter = std::make_unique<Rel>();
  filter->kind = RelKind::kFilter;
  filter->input = ReadRel();
  filter->predicate = Expression::Call(
      ScalarFunc::kGt,
      {Expression::FieldRef(1, TypeKind::kFloat64),
       Expression::Literal(Datum::Float64(4.0))},
      TypeKind::kBool);
  auto project = std::make_unique<Rel>();
  project->kind = RelKind::kProject;
  project->input = std::move(filter);
  project->expressions = {Expression::Call(
      ScalarFunc::kMultiply,
      {Expression::FieldRef(1, TypeKind::kFloat64),
       Expression::Literal(Datum::Float64(2.0))},
      TypeKind::kFloat64)};
  project->output_names = {"v2"};

  auto result = RunOverSource(*project);
  ASSERT_TRUE(result.ok()) << result.status();
  auto combined = (*result)->Combine();
  ASSERT_EQ(combined->num_rows(), 4u);  // v in {5,7,9,11}
  EXPECT_DOUBLE_EQ(combined->column(0)->GetFloat64(0), 10.0);
  EXPECT_DOUBLE_EQ(combined->column(0)->GetFloat64(3), 22.0);
}

TEST(PlanExecutorTest, StreamingAggregate) {
  auto agg = std::make_unique<Rel>();
  agg->kind = RelKind::kAggregate;
  agg->input = ReadRel();
  agg->group_keys = {0};
  agg->aggregates = {
      {AggFunc::kSum, Expression::FieldRef(1, TypeKind::kFloat64), "sum_v"}};
  ExecStats stats;
  auto result = RunOverSource(*agg, &stats);
  ASSERT_TRUE(result.ok()) << result.status();
  auto combined = (*result)->Combine();
  ASSERT_EQ(combined->num_rows(), 3u);
  EXPECT_EQ(stats.rows_output, 3u);
  // a: 1+3+11=15, b: 5+9=14, c: 7
  EXPECT_EQ(combined->column(0)->GetString(0), "a");
  EXPECT_DOUBLE_EQ(combined->column(1)->GetFloat64(0), 15.0);
}

TEST(PlanExecutorTest, SortPlusFetchFusesToTopN) {
  auto sort = std::make_unique<Rel>();
  sort->kind = RelKind::kSort;
  sort->input = ReadRel();
  sort->sort_fields = {{1, false, true}};  // by v desc
  auto fetch = std::make_unique<Rel>();
  fetch->kind = RelKind::kFetch;
  fetch->input = std::move(sort);
  fetch->count = 2;
  auto result = RunOverSource(*fetch);
  ASSERT_TRUE(result.ok()) << result.status();
  auto combined = (*result)->Combine();
  ASSERT_EQ(combined->num_rows(), 2u);
  EXPECT_DOUBLE_EQ(combined->column(1)->GetFloat64(0), 11.0);
  EXPECT_DOUBLE_EQ(combined->column(1)->GetFloat64(1), 9.0);
}

TEST(PlanExecutorTest, FullChainFilterAggSortFetch) {
  // Filter v > 1 -> group by k sum v -> sort by sum desc -> limit 2.
  auto filter = std::make_unique<Rel>();
  filter->kind = RelKind::kFilter;
  filter->input = ReadRel();
  filter->predicate = Expression::Call(
      ScalarFunc::kGt,
      {Expression::FieldRef(1, TypeKind::kFloat64),
       Expression::Literal(Datum::Float64(1.0))},
      TypeKind::kBool);
  auto agg = std::make_unique<Rel>();
  agg->kind = RelKind::kAggregate;
  agg->input = std::move(filter);
  agg->group_keys = {0};
  agg->aggregates = {
      {AggFunc::kSum, Expression::FieldRef(1, TypeKind::kFloat64), "sum_v"}};
  auto sort = std::make_unique<Rel>();
  sort->kind = RelKind::kSort;
  sort->input = std::move(agg);
  sort->sort_fields = {{1, false, true}};
  auto fetch = std::make_unique<Rel>();
  fetch->kind = RelKind::kFetch;
  fetch->input = std::move(sort);
  fetch->count = 2;

  auto result = RunOverSource(*fetch);
  ASSERT_TRUE(result.ok()) << result.status();
  auto combined = (*result)->Combine();
  ASSERT_EQ(combined->num_rows(), 2u);
  // sums: a=14 (3+11), b=14 (5+9), c=7 → top2 = a,b (stable for ties)
  double s0 = combined->column(1)->GetFloat64(0);
  double s1 = combined->column(1)->GetFloat64(1);
  EXPECT_DOUBLE_EQ(s0, 14.0);
  EXPECT_DOUBLE_EQ(s1, 14.0);
}

TEST(PlanExecutorTest, FetchWithOffsetMaterializes) {
  auto sort = std::make_unique<Rel>();
  sort->kind = RelKind::kSort;
  sort->input = ReadRel();
  sort->sort_fields = {{1, true, true}};
  auto fetch = std::make_unique<Rel>();
  fetch->kind = RelKind::kFetch;
  fetch->input = std::move(sort);
  fetch->offset = 1;
  fetch->count = 2;
  auto result = RunOverSource(*fetch);
  ASSERT_TRUE(result.ok()) << result.status();
  auto combined = (*result)->Combine();
  ASSERT_EQ(combined->num_rows(), 2u);
  EXPECT_DOUBLE_EQ(combined->column(1)->GetFloat64(0), 3.0);
  EXPECT_DOUBLE_EQ(combined->column(1)->GetFloat64(1), 5.0);
}

TEST(PlanExecutorTest, MalformedChainRejected) {
  auto filter = std::make_unique<Rel>();
  filter->kind = RelKind::kFilter;  // no input
  auto result = RunOverSource(*filter);
  EXPECT_FALSE(result.ok());
}

// ---- ExecuteRel vs an independent materializing composition --------------

// Materializing reference for a rel chain, built only from the operator
// primitives: FilterBatch per Filter, Evaluate per Project,
// HashAggregator::Consume without a selection, SortTable, FetchTable.
// It shares no streaming, selection or top-N code with ExecuteRel.
Result<std::shared_ptr<Table>> MaterializingReference(const Rel& root,
                                                      const Table& input) {
  std::vector<const Rel*> chain;
  for (const Rel* r = &root; r != nullptr; r = r->input.get()) {
    chain.push_back(r);
  }
  std::reverse(chain.begin(), chain.end());
  auto current = std::make_shared<Table>(input.schema());
  for (const RecordBatchPtr& b : input.batches()) current->AppendBatch(b);
  for (size_t i = 1; i < chain.size(); ++i) {
    const Rel& rel = *chain[i];
    POCS_ASSIGN_OR_RETURN(columnar::SchemaPtr out_schema,
                          substrait::OutputSchema(rel));
    auto next = std::make_shared<Table>(out_schema);
    switch (rel.kind) {
      case RelKind::kFilter:
        for (const RecordBatchPtr& b : current->batches()) {
          POCS_ASSIGN_OR_RETURN(RecordBatchPtr kept,
                                substrait::FilterBatch(rel.predicate, *b));
          if (kept->num_rows() > 0) next->AppendBatch(std::move(kept));
        }
        break;
      case RelKind::kProject:
        for (const RecordBatchPtr& b : current->batches()) {
          std::vector<columnar::ColumnPtr> cols;
          for (const Expression& e : rel.expressions) {
            POCS_ASSIGN_OR_RETURN(columnar::ColumnPtr col,
                                  substrait::Evaluate(e, *b));
            cols.push_back(std::move(col));
          }
          next->AppendBatch(MakeBatch(out_schema, std::move(cols)));
        }
        break;
      case RelKind::kAggregate: {
        HashAggregator agg(current->schema(), rel.group_keys, rel.aggregates);
        for (const RecordBatchPtr& b : current->batches()) {
          POCS_RETURN_NOT_OK(agg.Consume(*b));
        }
        POCS_ASSIGN_OR_RETURN(RecordBatchPtr out, agg.Finish());
        next->AppendBatch(std::move(out));
        break;
      }
      case RelKind::kSort: {
        POCS_ASSIGN_OR_RETURN(RecordBatchPtr sorted,
                              SortTable(*current, rel.sort_fields));
        next->AppendBatch(std::move(sorted));
        break;
      }
      case RelKind::kFetch: {
        POCS_ASSIGN_OR_RETURN(next,
                              FetchTable(*current, rel.offset, rel.count));
        break;
      }
      case RelKind::kRead:
        return Status::Internal("read rel above the leaf");
    }
    current = next;
  }
  return current;
}

columnar::SchemaPtr TieSchema() {
  return MakeSchema({{"k", TypeKind::kString},
                     {"v", TypeKind::kFloat64},
                     {"id", TypeKind::kInt64}});
}

// Six 500-row batches: v takes ten values (many sort ties) plus nulls, id
// is the arrival order (exposes tie order), and every v in batch 0 is at
// most 1, so the first filter (v > 1) empties that batch.
std::shared_ptr<Table> TieTable() {
  auto table = std::make_shared<Table>(TieSchema());
  std::mt19937 rng(29);
  int64_t id = 0;
  for (int b = 0; b < 6; ++b) {
    auto k = MakeColumn(TypeKind::kString);
    auto v = MakeColumn(TypeKind::kFloat64);
    auto ids = MakeColumn(TypeKind::kInt64);
    for (int r = 0; r < 500; ++r) {
      k->AppendString(std::string(1, static_cast<char>('a' + rng() % 5)));
      const int bucket = static_cast<int>(rng() % 11);  // 10 = null
      if (bucket == 10) {
        v->AppendNull();
      } else {
        v->AppendFloat64(b == 0 ? bucket * 0.1 : bucket + 0.1 * (b % 3));
      }
      ids->AppendInt64(id++);
    }
    table->AppendBatch(MakeBatch(TieSchema(), {k, v, ids}));
  }
  return table;
}

Expression VCompare(ScalarFunc op, double literal) {
  return Expression::Call(op,
                          {Expression::FieldRef(1, TypeKind::kFloat64),
                           Expression::Literal(Datum::Float64(literal))},
                          TypeKind::kBool);
}

std::unique_ptr<Rel> Stack(RelKind kind, std::unique_ptr<Rel> input) {
  auto rel = std::make_unique<Rel>();
  rel->kind = kind;
  rel->input = std::move(input);
  return rel;
}

// Read → Filter(v > 1): the first filter of every oracle chain.
std::unique_ptr<Rel> FilteredTieRead() {
  auto read = std::make_unique<Rel>();
  read->base_schema = TieSchema();
  auto filter = Stack(RelKind::kFilter, std::move(read));
  filter->predicate = VCompare(ScalarFunc::kGt, 1.0);
  return filter;
}

// Filter → Filter → Project → Aggregate: the second filter receives the
// first one's selection; the aggregate's float sums are order-sensitive.
std::unique_ptr<Rel> FilterFilterProjectAggregate() {
  auto filter = Stack(RelKind::kFilter, FilteredTieRead());
  filter->predicate = VCompare(ScalarFunc::kLt, 8.0);
  auto project = Stack(RelKind::kProject, std::move(filter));
  project->expressions = {
      Expression::FieldRef(0, TypeKind::kString),
      Expression::Call(ScalarFunc::kMultiply,
                       {Expression::FieldRef(1, TypeKind::kFloat64),
                        Expression::Literal(Datum::Float64(1.1))},
                       TypeKind::kFloat64),
      Expression::FieldRef(2, TypeKind::kInt64)};
  project->output_names = {"k", "v11", "id"};
  auto agg = Stack(RelKind::kAggregate, std::move(project));
  agg->group_keys = {0};
  agg->aggregates = {
      {AggFunc::kSum, Expression::FieldRef(1, TypeKind::kFloat64), "s"},
      {AggFunc::kAvg, Expression::FieldRef(1, TypeKind::kFloat64), "m"},
      {AggFunc::kCountStar, {}, "n"},
      {AggFunc::kMin, Expression::FieldRef(2, TypeKind::kInt64), "first"}};
  return agg;
}

// Filter → Sort → Fetch: fuses into the bounded top-N, which truncates
// its buffer several times over the ~2.5k survivors; ties on v must
// keep arrival (id) order exactly like a full stable sort + head.
std::unique_ptr<Rel> FilterSortFetch() {
  auto sort = Stack(RelKind::kSort, FilteredTieRead());
  sort->sort_fields = {{1, false, true}};  // v desc, ties everywhere
  auto fetch = Stack(RelKind::kFetch, std::move(sort));
  fetch->count = 25;
  return fetch;
}

std::unique_ptr<Rel> FilterFetch() {
  auto fetch = Stack(RelKind::kFetch, FilteredTieRead());
  fetch->offset = 3;
  fetch->count = 40;
  return fetch;
}

// Filter → Aggregate: the sink whose single output batch the chains
// below stream through later segments.
std::unique_ptr<Rel> FilterAggregate() {
  auto agg = Stack(RelKind::kAggregate, FilteredTieRead());
  agg->group_keys = {0};
  agg->aggregates = {
      {AggFunc::kSum, Expression::FieldRef(1, TypeKind::kFloat64), "s"},
      {AggFunc::kCountStar, {}, "n"}};
  return agg;
}

// Aggregate → Filter → Project → Sort → Fetch(offset 1): a filter and a
// project above the first blocking op, then a Sort + Fetch the offset
// keeps from fusing into top-N.
std::unique_ptr<Rel> AggregateFilterProjectSortFetch() {
  auto filter = Stack(RelKind::kFilter, FilterAggregate());
  filter->predicate = Expression::Call(
      ScalarFunc::kNe,
      {Expression::FieldRef(0, TypeKind::kString),
       Expression::Literal(Datum::String("c"))},
      TypeKind::kBool);
  auto project = Stack(RelKind::kProject, std::move(filter));
  project->expressions = {
      Expression::FieldRef(0, TypeKind::kString),
      Expression::Call(ScalarFunc::kMultiply,
                       {Expression::FieldRef(1, TypeKind::kFloat64),
                        Expression::Literal(Datum::Float64(0.3))},
                       TypeKind::kFloat64),
      Expression::FieldRef(2, TypeKind::kInt64)};
  project->output_names = {"k", "s3", "n"};
  auto sort = Stack(RelKind::kSort, std::move(project));
  sort->sort_fields = {{1, false, true}};
  auto fetch = Stack(RelKind::kFetch, std::move(sort));
  fetch->offset = 1;
  fetch->count = 2;
  return fetch;
}

// Aggregate → Sort: a full sort of the aggregate's output.
std::unique_ptr<Rel> AggregateSort() {
  auto sort = Stack(RelKind::kSort, FilterAggregate());
  sort->sort_fields = {{2, true, true}, {0, false, true}};
  return sort;
}

// Aggregate → Sort → Fetch: a top-N in the segment after the aggregate.
std::unique_ptr<Rel> AggregateSortFetch() {
  auto sort = Stack(RelKind::kSort, FilterAggregate());
  sort->sort_fields = {{1, true, true}};
  auto fetch = Stack(RelKind::kFetch, std::move(sort));
  fetch->count = 3;
  return fetch;
}

struct OracleCase {
  const char* name;
  std::unique_ptr<Rel> (*build)();
};

void PrintTo(const OracleCase& c, std::ostream* os) { *os << c.name; }

class ExecuteRelOracle : public ::testing::TestWithParam<OracleCase> {};

TEST_P(ExecuteRelOracle, MatchesMaterializingComposition) {
  std::unique_ptr<Rel> root = GetParam().build();
  std::shared_ptr<Table> input = TieTable();
  TableSource source(input);
  ExecStats stats;
  auto got = ExecuteRel(*root, source, &stats);
  ASSERT_TRUE(got.ok()) << got.status();
  auto want = MaterializingReference(*root, *input);
  ASSERT_TRUE(want.ok()) << want.status();

  RecordBatchPtr g = (*got)->Combine();
  RecordBatchPtr w = (*want)->Combine();
  ASSERT_TRUE(g->schema()->Equals(*w->schema()));
  ASSERT_EQ(g->num_rows(), w->num_rows());
  ASSERT_GT(w->num_rows(), 0u);
  for (size_t c = 0; c < w->num_columns(); ++c) {
    for (size_t r = 0; r < w->num_rows(); ++r) {
      ASSERT_EQ(g->column(c)->IsNull(r), w->column(c)->IsNull(r))
          << "col " << c << " row " << r;
      if (w->column(c)->IsNull(r)) continue;
      EXPECT_TRUE(g->column(c)->GetDatum(r) == w->column(c)->GetDatum(r))
          << "col " << c << " row " << r << ": "
          << g->column(c)->GetDatum(r).ToString() << " vs "
          << w->column(c)->GetDatum(r).ToString();
    }
  }
  // Only the caller's source counts as scanned, not the later segments'
  // inputs.
  EXPECT_EQ(stats.batches_scanned, 6u);
  EXPECT_EQ(stats.rows_scanned, input->num_rows());
  // Below the first blocking op, the first filter sees every batch and
  // batch 0 leaves it empty; each later filter skips the emptied batch
  // and runs on the other five under its predecessor's selection. A
  // filter above it runs once, on the sink's single output batch.
  size_t below = 0;
  size_t above = 0;
  for (const Rel* r = root.get(); r != nullptr; r = r->input.get()) {
    if (r->kind == RelKind::kAggregate || r->kind == RelKind::kSort ||
        r->kind == RelKind::kFetch) {
      above += below;
      below = 0;
    } else if (r->kind == RelKind::kFilter) {
      ++below;
    }
  }
  EXPECT_EQ(stats.ForKind(RelKind::kFilter).invocations,
            6u + (below - 1) * 5u + above);
}

INSTANTIATE_TEST_SUITE_P(
    Chains, ExecuteRelOracle,
    ::testing::Values(
        OracleCase{"FilterFilterProjectAggregate",
                   &FilterFilterProjectAggregate},
        OracleCase{"FilterSortFetch", &FilterSortFetch},
        OracleCase{"FilterFetch", &FilterFetch},
        OracleCase{"AggregateFilterProjectSortFetch",
                   &AggregateFilterProjectSortFetch},
        OracleCase{"AggregateSort", &AggregateSort},
        OracleCase{"AggregateSortFetch", &AggregateSortFetch}),
    [](const ::testing::TestParamInfo<OracleCase>& info) {
      return std::string(info.param.name);
    });

// ---- ScanSource ------------------------------------------------------------

// 4 row groups x 100 rows: id = 0..399 (group g holds [100g, 100g+100)),
// flag cycles A/B/C (a dictionary page in every group), v = id / 2.
std::shared_ptr<const format::FileReader> ScanFile() {
  auto schema = MakeSchema({{"id", TypeKind::kInt64},
                            {"flag", TypeKind::kString},
                            {"v", TypeKind::kFloat64}});
  auto id = MakeColumn(TypeKind::kInt64);
  auto flag = MakeColumn(TypeKind::kString);
  auto v = MakeColumn(TypeKind::kFloat64);
  for (int64_t i = 0; i < 400; ++i) {
    id->AppendInt64(i);
    flag->AppendString(std::string(1, static_cast<char>('A' + i % 3)));
    v->AppendFloat64(static_cast<double>(i) / 2);
  }
  format::WriterOptions options;
  options.rows_per_group = 100;
  format::FileWriter writer(schema, options);
  EXPECT_TRUE(writer.WriteBatch(*MakeBatch(schema, {id, flag, v})).ok());
  auto file = writer.Finish();
  EXPECT_TRUE(file.ok());
  auto reader = format::FileReader::Open(std::move(*file));
  EXPECT_TRUE(reader.ok());
  return *reader;
}

format::SelectPredicate Term(const std::string& column, columnar::CompareOp op,
                             Datum literal) {
  return {column, op, std::move(literal)};
}

// Every selected row as "id|flag|v" (output columns in order), and the
// number of batches the source returned.
struct ScanOutput {
  std::vector<std::string> rows;
  size_t batches = 0;
};

ScanOutput Drain(ScanSource& source) {
  ScanOutput out;
  while (true) {
    auto sb = source.NextSelected();
    EXPECT_TRUE(sb.ok()) << sb.status();
    if (!sb.ok() || !sb->batch) break;
    ++out.batches;
    RecordBatchPtr batch = sb->selection
                               ? columnar::TakeBatch(*sb->batch, *sb->selection)
                               : sb->batch;
    for (size_t r = 0; r < batch->num_rows(); ++r) {
      std::string row;
      for (size_t c = 0; c < batch->num_columns(); ++c) {
        if (c) row += "|";
        row += batch->column(c)->GetDatum(r).ToString();
      }
      out.rows.push_back(std::move(row));
    }
  }
  return out;
}

// The reference: a full decode of every group, filtered row by row.
std::vector<std::string> NaiveScan(
    const format::FileReader& reader, const std::vector<int>& columns,
    const std::function<bool(int64_t id, const std::string& flag)>& keep) {
  std::vector<std::string> rows;
  for (size_t g = 0; g < reader.num_row_groups(); ++g) {
    auto batch = reader.ReadRowGroup(g);
    EXPECT_TRUE(batch.ok());
    for (size_t r = 0; r < (*batch)->num_rows(); ++r) {
      if (!keep((*batch)->column(0)->GetInt64(r),
                std::string((*batch)->column(1)->GetString(r)))) {
        continue;
      }
      std::string row;
      for (size_t i = 0; i < columns.size(); ++i) {
        if (i) row += "|";
        row += (*batch)->column(columns[i])->GetDatum(r).ToString();
      }
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

TEST(ScanSourceTest, HintSkipsGroupsBeforeStats) {
  auto reader = ScanFile();
  ScanOptions options;
  options.row_group_hint = {1, 3};
  options.terms = {Term("id", columnar::CompareOp::kGe, Datum::Int64(300))};
  ScanSource source(reader, std::move(options));
  ScanOutput out = Drain(source);
  EXPECT_EQ(source.counters().row_groups_total, 4u);
  EXPECT_EQ(source.counters().row_groups_hint_skipped, 2u);  // groups 0, 2
  EXPECT_EQ(source.counters().row_groups_skipped, 1u);       // group 1
  EXPECT_EQ(out.rows.size(), 100u);
  EXPECT_EQ(source.rows_read(), 100u);
}

TEST(ScanSourceTest, StatsPruneReadsNoChunkOfSkippedGroups) {
  auto reader = ScanFile();
  ScanOptions options;
  options.columns = {0, 2};
  options.terms = {Term("id", columnar::CompareOp::kLt, Datum::Int64(150))};
  ScanSource source(reader, std::move(options));
  ScanOutput out = Drain(source);
  EXPECT_EQ(source.counters().row_groups_skipped, 2u);
  EXPECT_EQ(source.media_bytes(), reader->ChunkBytes(0, {0, 2}) +
                                      reader->ChunkBytes(1, {0, 2}));
  EXPECT_EQ(out.rows,
            NaiveScan(*reader, {0, 2},
                      [](int64_t id, const std::string&) { return id < 150; }));
}

TEST(ScanSourceTest, FractionalLiteralOnIntegerColumnIsExact) {
  auto reader = ScanFile();
  // id < 149.5 keeps id 149 (a truncated literal would drop it), and
  // id > 149.5 starts at 150; both with and without the lazy path.
  for (std::vector<int> columns : {std::vector<int>{0}, {0, 2}}) {
    ScanOptions below;
    below.columns = columns;
    below.terms = {Term("id", columnar::CompareOp::kLt, Datum::Float64(149.5))};
    ScanSource lt(reader, std::move(below));
    EXPECT_EQ(Drain(lt).rows,
              NaiveScan(*reader, columns,
                        [](int64_t id, const std::string&) { return id < 150; }));
    ScanOptions above;
    above.columns = columns;
    above.terms = {Term("id", columnar::CompareOp::kGt, Datum::Float64(149.5))};
    ScanSource gt(reader, std::move(above));
    EXPECT_EQ(Drain(gt).rows,
              NaiveScan(*reader, columns, [](int64_t id, const std::string&) {
                return id >= 150;
              }));
  }
}

TEST(ScanSourceTest, LazySkipDecodesOnlyTermColumns) {
  auto reader = ScanFile();
  // v = 10.25 lies inside group 0's [0, 49.5] bounds but no row holds it:
  // the group is dropped after decoding v alone.
  ScanOptions options;
  options.columns = {0, 1};
  options.terms = {Term("v", columnar::CompareOp::kEq, Datum::Float64(10.25))};
  ScanSource source(reader, std::move(options));
  ScanOutput out = Drain(source);
  EXPECT_TRUE(out.rows.empty());
  EXPECT_EQ(out.batches, 0u);
  EXPECT_EQ(source.counters().row_groups_skipped, 3u);
  EXPECT_EQ(source.counters().row_groups_lazy_skipped, 1u);
  EXPECT_EQ(source.media_bytes(), reader->ChunkBytes(0, {2}));
}

TEST(ScanSourceTest, EveryColumnATermColumnKeepsTheBatch) {
  auto reader = ScanFile();
  // No column is left to skip: the group comes back under an empty
  // selection, so it still counts as scanned downstream.
  ScanOptions options;
  options.columns = {2};
  options.terms = {Term("v", columnar::CompareOp::kEq, Datum::Float64(10.25))};
  ScanSource source(reader, std::move(options));
  auto sb = source.NextSelected();
  ASSERT_TRUE(sb.ok()) << sb.status();
  ASSERT_NE(sb->batch, nullptr);
  ASSERT_TRUE(sb->selection.has_value());
  EXPECT_TRUE(sb->selection->empty());
  EXPECT_EQ(source.counters().row_groups_lazy_skipped, 0u);
}

TEST(ScanSourceTest, DictionaryFilterAndLateMaterialization) {
  auto reader = ScanFile();
  ScanOptions options;
  options.columns = {0, 1, 2};
  options.terms = {Term("flag", columnar::CompareOp::kEq, Datum::String("B"))};
  ScanSource source(reader, std::move(options));
  ScanOutput out = Drain(source);
  EXPECT_EQ(out.rows, NaiveScan(*reader, {0, 1, 2},
                                [](int64_t, const std::string& flag) {
                                  return flag == "B";
                                }));
  // The term ran on the code bytes: 2 of 3 rows rejected per group.
  EXPECT_EQ(source.counters().rows_dict_filtered, 400u - out.rows.size());
  // flag late-materialized the survivors only.
  EXPECT_EQ(source.counters().rows_late_materialized, out.rows.size());
}

TEST(ScanSourceTest, BloomIntersectsTheTermSelection) {
  auto reader = ScanFile();
  auto bloom = std::make_unique<BloomFilter>(/*num_bits=*/4096,
                                             /*num_hashes=*/3, /*seed=*/7);
  for (int64_t id = 0; id < 400; id += 4) bloom->Add(static_cast<uint64_t>(id));
  ScanOptions options;
  options.columns = {1, 0};  // the bloom key is output column 1
  options.terms = {Term("flag", columnar::CompareOp::kNe, Datum::String("A"))};
  options.bloom = std::move(bloom);
  options.bloom_column = 1;
  ScanSource source(reader, std::move(options));
  ScanOutput out = Drain(source);
  // Bloom false positives may survive; every row must pass the term and
  // every multiple of 4 that passes the term must be present.
  std::set<std::string> got(out.rows.begin(), out.rows.end());
  for (int64_t id = 0; id < 400; ++id) {
    const std::string flag(1, static_cast<char>('A' + id % 3));
    const std::string row = "'" + flag + "'|" + std::to_string(id);
    if (flag == "A") {
      EXPECT_EQ(got.count(row), 0u) << row;
    } else if (id % 4 == 0) {
      EXPECT_EQ(got.count(row), 1u) << row;
    }
  }
  EXPECT_GT(source.counters().bloom_rows_pruned, 0u);
  EXPECT_LT(out.rows.size(), 400u * 2 / 3);
}

TEST(ScanSourceTest, CacheHitServesTheSameRowsWithoutMediaReads) {
  auto reader = ScanFile();
  RowGroupCache cache(
      LruCacheConfig{.byte_budget = 1 << 20, .shards = 2, .metric_prefix = ""});
  auto scan = [&] {
    ScanOptions options;
    options.terms = {Term("id", columnar::CompareOp::kGe, Datum::Int64(200))};
    options.cache = &cache;
    options.object_id = "b/f";
    options.object_version = 3;
    return std::make_unique<ScanSource>(reader, std::move(options));
  };
  auto cold = scan();
  ScanOutput cold_out = Drain(*cold);
  EXPECT_EQ(cold->counters().cache_hits, 0u);
  EXPECT_EQ(cold->counters().cache_misses, 6u);  // 2 groups x 3 columns
  EXPECT_GT(cold->media_bytes(), 0u);

  auto warm = scan();
  ScanOutput warm_out = Drain(*warm);
  EXPECT_EQ(warm_out.rows, cold_out.rows);
  EXPECT_EQ(warm->counters().cache_hits, 6u);
  EXPECT_EQ(warm->counters().cache_misses, 0u);
  EXPECT_EQ(warm->media_bytes(), 0u);
  EXPECT_EQ(warm->counters().cache_bytes_saved, cold->media_bytes());
}

// A plan Read (filter id >= 300 above it) carrying a hint and a bloom
// pinned to object version 5.
substrait::Plan PinnedPlan(const std::shared_ptr<const format::FileReader>& r) {
  auto read = std::make_unique<Rel>();
  read->kind = RelKind::kRead;
  read->bucket = "b";
  read->object = "f";
  read->base_schema = r->schema();
  read->row_group_hint = {0};
  read->hint_version = 5;
  BloomFilter bloom(/*num_bits=*/64, /*num_hashes=*/2, /*seed=*/1);
  bloom.Add(0);
  read->bloom_words.assign(bloom.words().begin(), bloom.words().end());
  read->bloom_hashes = bloom.num_hashes();
  read->bloom_seed = bloom.seed();
  read->bloom_column = 0;
  read->bloom_version = 5;
  auto filter = std::make_unique<Rel>();
  filter->kind = RelKind::kFilter;
  filter->input = std::move(read);
  filter->predicate = Expression::Call(
      ScalarFunc::kGe,
      {Expression::FieldRef(0, TypeKind::kInt64),
       Expression::Literal(Datum::Int64(300))},
      TypeKind::kBool);
  substrait::Plan plan;
  plan.root = std::move(filter);
  return plan;
}

TEST(ScanSourceTest, OpenPlanScanHonoursOnlyMatchingPins) {
  auto reader = ScanFile();
  const substrait::Plan plan = PinnedPlan(reader);

  // Matching pin: the hint keeps group 0 only, which stats then prune.
  auto pinned = OpenPlanScan(plan, reader, /*object_version=*/5, nullptr);
  ASSERT_TRUE(pinned.ok()) << pinned.status();
  EXPECT_TRUE(Drain(**pinned).rows.empty());
  EXPECT_EQ((*pinned)->counters().row_groups_hint_skipped, 3u);

  // A stale (6) or unknown (0) version drops hint and bloom wholesale;
  // statistics pruning still runs on the bytes in hand.
  for (uint64_t version : {uint64_t{6}, uint64_t{0}}) {
    auto scan = OpenPlanScan(plan, reader, version, nullptr);
    ASSERT_TRUE(scan.ok()) << scan.status();
    ScanOutput out = Drain(**scan);
    EXPECT_EQ(out.rows.size(), 100u) << version;
    EXPECT_EQ((*scan)->counters().row_groups_hint_skipped, 0u) << version;
    EXPECT_EQ((*scan)->counters().row_groups_skipped, 3u) << version;
    EXPECT_EQ((*scan)->counters().bloom_rows_pruned, 0u) << version;
  }
}

TEST(ScanSourceTest, OpenPlanScanRejectsSchemaMismatch) {
  auto reader = ScanFile();
  substrait::Plan plan = PinnedPlan(reader);
  plan.root->input->base_schema =
      MakeSchema({{"id", TypeKind::kInt64}, {"v", TypeKind::kFloat64}});
  auto scan = OpenPlanScan(plan, reader, 5, nullptr);
  EXPECT_EQ(scan.status().code(), StatusCode::kInvalidArgument);
}

TEST(ScanSourceTest, OpenPlanScanRejectsBadReadColumnWithoutFilter) {
  auto reader = ScanFile();
  substrait::Plan plan = PinnedPlan(reader);
  plan.root = std::move(plan.root->input);  // a bare Read, no Filter
  plan.root->read_columns = {0, 7};
  auto scan = OpenPlanScan(plan, reader, 5, nullptr);
  EXPECT_EQ(scan.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace pocs::exec
