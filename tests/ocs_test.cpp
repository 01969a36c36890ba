// Tests for OCS: storage-node plan execution over Parquet-lite objects
// (with pruning and CPU-slowdown accounting), the frontend's routing, and
// end-to-end client → frontend → storage round trips with byte accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string_view>

#include "format/parquet_lite.h"
#include "metastore/metastore.h"
#include "ocs/client.h"
#include "ocs/cluster.h"
#include "ocs/storage_node.h"

namespace pocs::ocs {
namespace {

using columnar::Datum;
using columnar::MakeBatch;
using columnar::MakeColumn;
using columnar::MakeSchema;
using columnar::TypeKind;
using substrait::AggFunc;
using substrait::Expression;
using substrait::Plan;
using substrait::Rel;
using substrait::RelKind;
using substrait::ScalarFunc;

columnar::SchemaPtr SimSchema() {
  return MakeSchema({{"vertex_id", TypeKind::kInt64},
                     {"x", TypeKind::kFloat64},
                     {"e", TypeKind::kFloat64}});
}

// 1000 rows in 10 row groups: vertex_id = i, x = i * 0.01, e = 1000 - i.
Bytes SimFile() {
  format::WriterOptions options;
  options.rows_per_group = 100;
  format::FileWriter writer(SimSchema(), options);
  auto id = MakeColumn(TypeKind::kInt64);
  auto x = MakeColumn(TypeKind::kFloat64);
  auto e = MakeColumn(TypeKind::kFloat64);
  for (int i = 0; i < 1000; ++i) {
    id->AppendInt64(i);
    x->AppendFloat64(i * 0.01);
    e->AppendFloat64(1000.0 - i);
  }
  auto batch = MakeBatch(SimSchema(), {id, x, e});
  EXPECT_TRUE(writer.WriteBatch(*batch).ok());
  auto file = writer.Finish();
  EXPECT_TRUE(file.ok());
  return *file;
}

std::unique_ptr<Rel> ReadSim() {
  auto read = std::make_unique<Rel>();
  read->kind = RelKind::kRead;
  read->bucket = "sim";
  read->object = "f0";
  read->base_schema = SimSchema();
  return read;
}

Expression XBetween(double lo, double hi) {
  auto ge = Expression::Call(
      ScalarFunc::kGe,
      {Expression::FieldRef(1, TypeKind::kFloat64),
       Expression::Literal(Datum::Float64(lo))},
      TypeKind::kBool);
  auto le = Expression::Call(
      ScalarFunc::kLe,
      {Expression::FieldRef(1, TypeKind::kFloat64),
       Expression::Literal(Datum::Float64(hi))},
      TypeKind::kBool);
  return Expression::Call(ScalarFunc::kAnd, {ge, le}, TypeKind::kBool);
}

StorageNode MakeNode(double slowdown = 1.0) {
  auto store = std::make_shared<objectstore::ObjectStore>();
  EXPECT_TRUE(store->CreateBucket("sim").ok());
  EXPECT_TRUE(store->Put("sim", "f0", SimFile()).ok());
  return StorageNode(store, StorageNodeConfig{slowdown});
}

TEST(StorageNodeTest, FilterPlanWithPruning) {
  StorageNode node = MakeNode();
  Plan plan;
  auto filter = std::make_unique<Rel>();
  filter->kind = RelKind::kFilter;
  filter->input = ReadSim();
  filter->predicate = XBetween(2.0, 3.0);  // rows 200..300
  plan.root = std::move(filter);

  auto result = node.ExecutePlan(plan);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->stats.rows_output, 101u);
  // Only groups 2 and 3 overlap [2.0, 3.0]; 8 of 10 groups pruned.
  EXPECT_EQ(result->stats.row_groups_total, 10u);
  EXPECT_EQ(result->stats.row_groups_skipped, 8u);
  EXPECT_EQ(result->stats.rows_scanned, 200u);
  EXPECT_GT(result->stats.storage_compute_seconds, 0.0);

  auto table = OcsClient::DecodeTable(*result);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->num_rows(), 101u);
}

TEST(StorageNodeTest, FullPushdownChainMatchesPaperShape) {
  // Filter -> Aggregate(min id, avg e by nothing...) use group by constant:
  // group by vertex_id % 10 via project first.
  StorageNode node = MakeNode();
  Plan plan;
  auto filter = std::make_unique<Rel>();
  filter->kind = RelKind::kFilter;
  filter->input = ReadSim();
  filter->predicate = XBetween(0.8, 3.2);

  auto project = std::make_unique<Rel>();
  project->kind = RelKind::kProject;
  project->input = std::move(filter);
  project->expressions = {
      Expression::Call(ScalarFunc::kModulo,
                       {Expression::FieldRef(0, TypeKind::kInt64),
                        Expression::Literal(Datum::Int64(7))},
                       TypeKind::kInt64),
      Expression::FieldRef(2, TypeKind::kFloat64)};
  project->output_names = {"g", "e"};

  auto agg = std::make_unique<Rel>();
  agg->kind = RelKind::kAggregate;
  agg->input = std::move(project);
  agg->group_keys = {0};
  agg->aggregates = {
      {AggFunc::kAvg, Expression::FieldRef(1, TypeKind::kFloat64), "avg_e"},
      {AggFunc::kCountStar, {}, "cnt"}};

  auto sort = std::make_unique<Rel>();
  sort->kind = RelKind::kSort;
  sort->input = std::move(agg);
  sort->sort_fields = {{1, true, true}};
  auto fetch = std::make_unique<Rel>();
  fetch->kind = RelKind::kFetch;
  fetch->input = std::move(sort);
  fetch->count = 3;
  plan.root = std::move(fetch);

  auto result = node.ExecutePlan(plan);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->stats.rows_output, 3u);
  auto table = OcsClient::DecodeTable(*result);
  ASSERT_TRUE(table.ok());
  auto combined = (*table)->Combine();
  ASSERT_EQ(combined->num_rows(), 3u);
  // Sorted ascending by avg_e.
  EXPECT_LE(combined->column(1)->GetFloat64(0),
            combined->column(1)->GetFloat64(1));
}

TEST(StorageNodeTest, CpuSlowdownScalesComputeTime) {
  StorageNode fast = MakeNode(1.0);
  StorageNode slow = MakeNode(10.0);
  // The reported compute time is wall-clock scaled by cpu_slowdown, so a
  // single sample is at the mercy of scheduler jitter (especially under
  // sanitizers with parallel test load). Take the minimum of several runs
  // of each before comparing.
  auto min_seconds = [](StorageNode& node) {
    double best = std::numeric_limits<double>::infinity();
    for (int i = 0; i < 5; ++i) {
      Plan plan;
      plan.root = ReadSim();
      auto result = node.ExecutePlan(plan);
      EXPECT_TRUE(result.ok()) << result.status();
      if (result.ok()) {
        best = std::min(best, result->stats.storage_compute_seconds);
      }
    }
    return best;
  };
  double fast_s = min_seconds(fast);
  double slow_s = min_seconds(slow);
  // Same work, 10x reported time (wall jitter tolerated with wide margin).
  EXPECT_GT(slow_s, fast_s * 2);
}

TEST(StorageNodeTest, MissingObjectErrors) {
  StorageNode node = MakeNode();
  Plan plan;
  plan.root = ReadSim();
  plan.root->object = "missing";
  EXPECT_FALSE(node.ExecutePlan(plan).ok());
}

TEST(StorageNodeTest, SchemaMismatchRejected) {
  StorageNode node = MakeNode();
  Plan plan;
  plan.root = ReadSim();
  plan.root->base_schema = MakeSchema({{"wrong", TypeKind::kInt64}});
  EXPECT_FALSE(node.ExecutePlan(plan).ok());
}

TEST(OcsResultWireTest, EncodeDecode) {
  // Every field gets a distinct value; the scan counters 1000, 1001, ...
  // in list order.
  OcsResult result;
  result.stats.rows_scanned = 100;
  result.stats.rows_output = 5;
  result.stats.object_bytes_read = 4096;
  uint64_t next = 1000;
  result.stats.ForEach([&](std::string_view, uint64_t& v) { v = next++; });
  result.stats.object_version = 7;
  result.stats.storage_compute_seconds = 0.125;
  result.stats.media_read_seconds = 0.5;
  result.stats.exec_delay_seconds = 0.25;
  result.arrow_ipc = {1, 2, 3};
  BufferWriter w;
  EncodeOcsResult(result, &w);
  BufferReader r(w.span());
  auto rt = DecodeOcsResult(&r);
  ASSERT_TRUE(rt.ok());
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_EQ(rt->stats.rows_scanned, 100u);
  EXPECT_EQ(rt->stats.rows_output, 5u);
  EXPECT_EQ(rt->stats.object_bytes_read, 4096u);
  uint64_t expected = 1000;
  rt->stats.ForEach([&](std::string_view name, uint64_t v) {
    EXPECT_EQ(v, expected++) << name;
  });
  EXPECT_EQ(expected, next);
  EXPECT_EQ(rt->stats.object_version, 7u);
  EXPECT_DOUBLE_EQ(rt->stats.storage_compute_seconds, 0.125);
  EXPECT_DOUBLE_EQ(rt->stats.media_read_seconds, 0.5);
  EXPECT_DOUBLE_EQ(rt->stats.exec_delay_seconds, 0.25);
  EXPECT_EQ(rt->arrow_ipc, (Bytes{1, 2, 3}));
}

TEST(OcsResultWireTest, GoldenBytesAndTruncatedPrefixes) {
  // Fields are set by name so a reordered or re-typed wire field changes
  // the bytes.
  OcsResult result;
  OcsExecStats& s = result.stats;
  s.rows_scanned = 100;
  s.rows_output = 5;
  s.object_bytes_read = 4096;
  s.row_groups_total = 10;
  s.row_groups_skipped = 8;
  s.row_groups_lazy_skipped = 1;
  s.row_groups_hint_skipped = 2;
  s.cache_hits = 3;
  s.cache_misses = 4;
  s.cache_bytes_saved = 2048;
  s.bloom_rows_pruned = 300;
  s.rows_dict_filtered = 42;
  s.rows_late_materialized = 17;
  s.object_version = 7;
  s.storage_compute_seconds = 0.125;
  s.media_read_seconds = 0.5;
  s.exec_delay_seconds = 0.25;
  result.arrow_ipc = {1, 2, 3};
  const Bytes golden = {
      0x64, 0x05, 0x80, 0x20, 0x0a, 0x08, 0x01, 0x02, 0x03, 0x04, 0x80, 0x10,
      0xac, 0x02, 0x2a, 0x11, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xc0,
      0x3f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe0, 0x3f, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0xd0, 0x3f, 0x03, 0x01, 0x02, 0x03};
  BufferWriter w;
  EncodeOcsResult(result, &w);
  EXPECT_EQ(Bytes(w.span().begin(), w.span().end()), golden);

  BufferReader whole(golden);
  auto decoded = DecodeOcsResult(&whole);
  ASSERT_TRUE(decoded.ok());
  BufferWriter again;
  EncodeOcsResult(*decoded, &again);
  EXPECT_EQ(Bytes(again.span().begin(), again.span().end()), golden);

  for (size_t n = 0; n < golden.size(); ++n) {
    BufferReader prefix(ByteSpan(golden.data(), n));
    EXPECT_FALSE(DecodeOcsResult(&prefix).ok()) << "prefix of " << n;
  }
}

// ---- cluster --------------------------------------------------------------

struct ClusterFixture : ::testing::Test {
  void SetUp() override {
    net = std::make_shared<netsim::Network>(netsim::LinkConfig{1.25e9, 1e-4});
    ClusterConfig config;
    config.num_storage_nodes = 3;
    config.storage.cpu_slowdown = 1.0;
    cluster = std::make_unique<OcsCluster>(net, config);
    compute = net->AddNode("compute");
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(
          cluster->PutObject("sim", "f" + std::to_string(i), SimFile()).ok());
    }
    client = std::make_unique<OcsClient>(
        rpc::Channel(net, compute, cluster->frontend_server()));
  }
  std::shared_ptr<netsim::Network> net;
  std::unique_ptr<OcsCluster> cluster;
  netsim::NodeId compute;
  std::unique_ptr<OcsClient> client;
};

TEST_F(ClusterFixture, ObjectsSpreadAcrossNodes) {
  size_t nodes_with_data = 0;
  for (size_t i = 0; i < cluster->num_storage_nodes(); ++i) {
    if (cluster->storage_node(i).store()->ObjectCount() > 0) {
      ++nodes_with_data;
    }
  }
  EXPECT_EQ(nodes_with_data, 3u);  // round-robin over 3 nodes, 6 objects
  EXPECT_GT(cluster->TotalStoredBytes(), 0u);
}

TEST_F(ClusterFixture, ExecutePlanRoutesThroughFrontend) {
  for (int i = 0; i < 6; ++i) {
    Plan plan;
    auto filter = std::make_unique<Rel>();
    filter->kind = RelKind::kFilter;
    filter->input = ReadSim();
    filter->input->object = "f" + std::to_string(i);
    filter->predicate = XBetween(0.5, 0.6);
    plan.root = std::move(filter);
    objectstore::TransferInfo info;
    auto result = client->ExecutePlan(plan, &info);
    ASSERT_TRUE(result.ok()) << "object f" << i << ": " << result.status();
    EXPECT_EQ(result->stats.rows_output, 11u);
    EXPECT_GT(info.bytes_received, 0u);
  }
  // Traffic exists on compute↔frontend and frontend↔storage links.
  auto total = net->Total();
  EXPECT_GT(total.bytes, 0u);
  auto compute_frontend = net->FlowBetween(compute, cluster->frontend_node());
  EXPECT_GT(compute_frontend.bytes, 0u);
  // Frontend→storage forwarding doubles internal traffic.
  EXPECT_GT(total.bytes, compute_frontend.bytes);
}

TEST_F(ClusterFixture, AggregationPushdownMovesAlmostNothing) {
  net->ResetCounters();
  Plan plan;
  auto filter = std::make_unique<Rel>();
  filter->kind = RelKind::kFilter;
  filter->input = ReadSim();
  filter->input->object = "f0";
  filter->predicate = XBetween(0.0, 9.99);
  auto agg = std::make_unique<Rel>();
  agg->kind = RelKind::kAggregate;
  agg->input = std::move(filter);
  agg->aggregates = {
      {AggFunc::kAvg, Expression::FieldRef(2, TypeKind::kFloat64), "avg_e"},
      {AggFunc::kCountStar, {}, "cnt"}};
  plan.root = std::move(agg);

  auto result = client->ExecutePlan(plan);
  ASSERT_TRUE(result.ok()) << result.status();
  auto table = OcsClient::DecodeTable(*result);
  ASSERT_TRUE(table.ok());
  auto combined = (*table)->Combine();
  ASSERT_EQ(combined->num_rows(), 1u);
  EXPECT_EQ(combined->column(1)->GetInt64(0), 1000);
  // The aggregate result crossing the wire is tiny vs the object.
  EXPECT_LT(net->Total().bytes, uint64_t{*cluster->storage_node(0).store()
                                               ->Size("sim", "f0")} /
                                    4);
}

TEST_F(ClusterFixture, FrontendProxiesObjectStoreMethods) {
  objectstore::StorageClient store_client(
      rpc::Channel(net, compute, cluster->frontend_server()));
  auto size = store_client.Size("sim", "f2");
  ASSERT_TRUE(size.ok()) << size.status();
  EXPECT_GT(*size, 0u);
  auto keys = store_client.List("sim", "f");
  ASSERT_TRUE(keys.ok());
  EXPECT_EQ(keys->size(), 6u);  // merged across storage nodes
  // Select through the frontend (filter-only path on the same data).
  objectstore::SelectRequest request;
  request.bucket = "sim";
  request.key = "f1";
  request.columns = {"vertex_id"};
  request.predicates = {
      {"x", columnar::CompareOp::kLt, Datum::Float64(0.05)}};
  auto response = store_client.Select(request);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->stats.rows_returned, 5u);
}

TEST_F(ClusterFixture, UnknownObjectNotFound) {
  Plan plan;
  plan.root = ReadSim();
  plan.root->object = "missing";
  EXPECT_FALSE(client->ExecutePlan(plan).ok());
}

}  // namespace
}  // namespace pocs::ocs
