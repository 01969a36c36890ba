// End-to-end observability: a query through the testbed must surface a
// fully populated QueryStats at the EventListener — wall time, rows
// scanned vs returned, bytes moved, pushdown accept/reject counts, and
// per-operator timings — for both the full-pushdown (ocs) and
// no-pushdown (hive_raw) paths, with the cross-path relationships the
// paper's Fig. 5 is built on. Every query counter must reach the event
// unchanged from QueryResult::metrics, and from an event the collector's
// totals and the engine.* registry counters.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "connector/query_stats_collector.h"
#include "workloads/laghos.h"
#include "workloads/testbed.h"
#include "workloads/tpch.h"

namespace pocs::workloads {
namespace {

using connector::QueryEvent;
using connector::QueryStats;
using connector::QueryStatsCollector;

constexpr size_t kFiles = 2;
constexpr size_t kRowsPerFile = 1 << 12;

struct ObservabilityFixture : ::testing::Test {
  static void SetUpTestSuite() {
    testbed = std::make_unique<Testbed>();
    LaghosConfig config;
    config.num_files = kFiles;
    config.rows_per_file = kRowsPerFile;
    config.rows_per_group = 1 << 10;
    auto data = GenerateLaghos(config);
    ASSERT_TRUE(data.ok()) << data.status().ToString();
    ASSERT_TRUE(testbed->Ingest(std::move(*data)).ok());
    // A small lineitem ⋈ supplier pair for the join query.
    TpchConfig tpch;
    tpch.num_files = kFiles;
    tpch.rows_per_file = kRowsPerFile;
    tpch.rows_per_group = 1 << 10;
    auto fact = GenerateLineitem(tpch);
    ASSERT_TRUE(fact.ok()) << fact.status().ToString();
    ASSERT_TRUE(testbed->Ingest(std::move(*fact)).ok());
    auto dim = GenerateSupplier(SupplierConfig{});
    ASSERT_TRUE(dim.ok()) << dim.status().ToString();
    ASSERT_TRUE(testbed->Ingest(std::move(*dim)).ok());
  }
  static void TearDownTestSuite() { testbed.reset(); }

  static QueryStats RunAndGetStats(const std::string& catalog) {
    auto result = testbed->Run(LaghosQuery(), catalog);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return testbed->stats().last();
  }

  static std::unique_ptr<Testbed> testbed;
};

std::unique_ptr<Testbed> ObservabilityFixture::testbed;

// (name, value) of every query counter, in list order.
std::vector<std::pair<std::string, uint64_t>> CounterValues(
    const QueryCounters& counters) {
  std::vector<std::pair<std::string, uint64_t>> out;
  counters.ForEach([&](std::string_view name, uint64_t value) {
    out.emplace_back(std::string(name), value);
  });
  return out;
}

// Registry name of a query counter: engine.<name>, except the one alias.
std::string EngineCounterName(std::string_view field) {
  return field == "rows_from_storage" ? "engine.rows_returned"
                                      : "engine." + std::string(field);
}

TEST_F(ObservabilityFixture, PushdownQueryPopulatesQueryStats) {
  QueryStats stats = RunAndGetStats("ocs");

  // The acceptance triple: rows scanned, bytes moved, pushdown accepted.
  EXPECT_GT(stats.rows_scanned, 0u);
  EXPECT_GT(stats.bytes_moved(), 0u);
  EXPECT_GE(stats.pushdown_accepted, 1u);

  EXPECT_GT(stats.wall_seconds, 0.0);
  EXPECT_GT(stats.simulated_seconds, 0.0);
  EXPECT_GT(stats.result_rows, 0u);
  EXPECT_GT(stats.splits, 0u);
  EXPECT_EQ(stats.pushdown_offered,
            stats.pushdown_accepted + stats.pushdown_rejected);
  // The Laghos query's filter is highly selective: far fewer rows cross
  // the storage → compute boundary than are scanned at storage.
  EXPECT_LT(stats.rows_from_storage, stats.rows_scanned);

  // Per-operator timings include the Table 3 stages.
  std::set<std::string> names;
  for (const auto& t : stats.operator_timings) names.insert(t.name);
  EXPECT_TRUE(names.count("plan_analysis")) << "stages seen: " << names.size();
  EXPECT_TRUE(names.count("ir_generation"));
  EXPECT_TRUE(names.count("scan_transfer"));
  EXPECT_TRUE(names.count("post_scan"));
}

TEST_F(ObservabilityFixture, NonPushdownQueryScansEverythingAtCompute) {
  QueryStats stats = RunAndGetStats("hive_raw");

  // No operators accepted; the raw path still reports scan volume —
  // every generated row crosses the wire and is scanned compute-side.
  EXPECT_EQ(stats.pushdown_accepted, 0u);
  EXPECT_EQ(stats.rows_scanned, kFiles * kRowsPerFile);
  EXPECT_EQ(stats.rows_from_storage, kFiles * kRowsPerFile);
  EXPECT_GT(stats.bytes_moved(), 0u);
  EXPECT_GT(stats.result_rows, 0u);
}

TEST_F(ObservabilityFixture, PushdownMovesFewerBytesThanRaw) {
  QueryStats ocs = RunAndGetStats("ocs");
  QueryStats raw = RunAndGetStats("hive_raw");
  EXPECT_LT(ocs.bytes_moved(), raw.bytes_moved());
  EXPECT_LT(ocs.rows_from_storage, raw.rows_from_storage);
  // Both answer the same question over the same data.
  EXPECT_EQ(ocs.result_rows, raw.result_rows);
}

TEST_F(ObservabilityFixture, CollectorAggregatesAcrossQueriesAndCatalogs) {
  QueryStatsCollector& collector = testbed->stats();
  auto before = collector.totals();
  (void)RunAndGetStats("ocs");
  (void)RunAndGetStats("hive_raw");
  auto after = collector.totals();
  EXPECT_EQ(after.queries, before.queries + 2);
  EXPECT_GT(after.rows_scanned, before.rows_scanned);
  EXPECT_GT(after.bytes_from_storage, before.bytes_from_storage);
  EXPECT_GT(after.wall_seconds, before.wall_seconds);

  // Per-connector split: the ocs catalog accumulates accepted pushdowns,
  // the raw catalog none.
  auto ocs_totals = collector.TotalsFor("ocs");
  EXPECT_GT(ocs_totals.queries, 0u);
  EXPECT_GT(ocs_totals.pushdown_accepted, 0u);
  EXPECT_GT(ocs_totals.pushdown_accept_rate(), 0.0);
  auto raw_totals = collector.TotalsFor("hive_raw");
  EXPECT_GT(raw_totals.queries, 0u);
  EXPECT_EQ(raw_totals.pushdown_accepted, 0u);
  // Unknown ids read as zero.
  EXPECT_EQ(collector.TotalsFor("no_such_catalog").queries, 0u);
}

TEST_F(ObservabilityFixture, EngineCountersMirrorIntoProcessRegistry) {
  auto& reg = metrics::Registry::Default();
  uint64_t queries_before = reg.GetCounter("engine.queries").value();
  uint64_t scanned_before = reg.GetCounter("engine.rows_scanned").value();
  (void)RunAndGetStats("ocs");
  EXPECT_EQ(reg.GetCounter("engine.queries").value(), queries_before + 1);
  EXPECT_GT(reg.GetCounter("engine.rows_scanned").value(), scanned_before);
  EXPECT_GT(reg.GetHistogram("engine.query_wall_seconds").count(), 0u);
}

TEST_F(ObservabilityFixture, EventCountersEqualQueryMetrics) {
  struct Capture final : connector::EventListener {
    QueryEvent event;
    void QueryCompleted(const QueryEvent& e) override { event = e; }
  };
  auto capture = std::make_shared<Capture>();
  testbed->engine().AddEventListener(capture);

  auto pushdown = testbed->Run(LaghosQuery(), "ocs");
  ASSERT_TRUE(pushdown.ok()) << pushdown.status().ToString();
  EXPECT_GE(pushdown->metrics.pushdown_accepted, 1u);
  EXPECT_EQ(CounterValues(capture->event.stats),
            CounterValues(pushdown->metrics));

  auto join = testbed->Run(TpchJoinQuery(), "ocs");
  ASSERT_TRUE(join.ok()) << join.status().ToString();
  EXPECT_GE(join->metrics.partial_agg_accepted, 1u);
  EXPECT_GE(join->metrics.bloom_pushed, 1u);
  EXPECT_GT(join->metrics.bloom_rows_pruned, 0u);
  EXPECT_GT(join->metrics.partial_agg_merges, 0u);
  EXPECT_EQ(CounterValues(capture->event.stats), CounterValues(join->metrics));
}

TEST_F(ObservabilityFixture, EngineResidualRunsThroughExecOperators) {
  // hive_raw pushes nothing, so the WHERE filter is engine residual: it
  // runs in exec::ExecuteRel and sees every row that left storage.
  auto& filter_rows_in = metrics::Registry::Default().GetCounter(
      "exec.Filter.rows_in");
  const uint64_t before = filter_rows_in.value();
  auto result = testbed->Run(
      "SELECT vertex_id, AVG(e) AS m FROM laghos WHERE x < 2.0 "
      "GROUP BY vertex_id ORDER BY m DESC LIMIT 5",
      "hive_raw");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->metrics.rows_from_storage, 0u);
  EXPECT_EQ(filter_rows_in.value() - before,
            result->metrics.rows_from_storage);

  // One merge.* entry per merge-stage operator kind: the final aggregate,
  // the finalize and output projections (one kind), and the top-N.
  std::map<std::string, int> merge_entries;
  bool post_scan = false;
  for (const auto& t : result->metrics.operator_timings) {
    if (t.name.rfind("merge.", 0) == 0) ++merge_entries[t.name];
    if (t.name == "post_scan") post_scan = true;
  }
  EXPECT_TRUE(post_scan);
  const std::map<std::string, int> expected = {{"merge.Aggregate", 1},
                                               {"merge.Project", 1},
                                               {"merge.Sort", 1},
                                               {"merge.Fetch", 1}};
  EXPECT_EQ(merge_entries, expected);
}

TEST_F(ObservabilityFixture, LegacyEventFieldsStayPopulated) {
  // The event's identity fields reach a secondary listener: capture a
  // raw event next to the testbed's collector.
  struct Capture final : connector::EventListener {
    connector::QueryEvent event;
    void QueryCompleted(const connector::QueryEvent& e) override {
      event = e;
    }
  };
  auto capture = std::make_shared<Capture>();
  testbed->engine().AddEventListener(capture);
  auto result = testbed->Run(LaghosQuery(), "ocs");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(capture->event.connector_id, "ocs");
  EXPECT_FALSE(capture->event.query_id.empty());
}

TEST(QueryStatsCollectorTest, EveryCounterRollsUpToTotalsAndRegistry) {
  QueryEvent event;
  event.connector_id = "rollup";
  event.stats.result_rows = 3;
  event.stats.wall_seconds = 0.5;
  event.stats.simulated_seconds = 2.0;
  event.stats.queue_wait_seconds = 0.25;
  uint64_t next = 101;
  event.stats.ForEach([&](std::string_view, uint64_t& v) { v = next++; });

  auto& reg = metrics::Registry::Default();
  std::map<std::string, uint64_t> before;
  event.stats.ForEach([&](std::string_view name, uint64_t) {
    before[std::string(name)] = reg.GetCounter(EngineCounterName(name)).value();
  });
  const uint64_t queries_before = reg.GetCounter("engine.queries").value();

  QueryStatsCollector collector;
  collector.QueryCompleted(event);

  const auto expected = CounterValues(event.stats);
  for (const auto& totals : {collector.totals(), collector.TotalsFor("rollup")}) {
    EXPECT_EQ(CounterValues(totals), expected);
    EXPECT_EQ(totals.queries, 1u);
    EXPECT_EQ(totals.result_rows, 3u);
    EXPECT_DOUBLE_EQ(totals.wall_seconds, 0.5);
    EXPECT_DOUBLE_EQ(totals.simulated_seconds, 2.0);
    EXPECT_DOUBLE_EQ(totals.queue_wait_seconds, 0.25);
  }
  EXPECT_EQ(reg.GetCounter("engine.queries").value(), queries_before + 1);
  for (const auto& [name, value] : expected) {
    EXPECT_EQ(reg.GetCounter(EngineCounterName(name)).value() - before[name],
              value)
        << name;
  }
  // rows_from_storage is mirrored under its alias, engine.rows_returned,
  // only.
  for (const auto& sample : reg.Snapshot()) {
    EXPECT_NE(sample.name, "engine.rows_from_storage");
  }
}

}  // namespace
}  // namespace pocs::workloads
