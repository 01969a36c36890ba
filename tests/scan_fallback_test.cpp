// The engine-side fallbacks read row groups through the same scan as
// storage (exec::ScanSource, DESIGN.md §9.3): with every storage exec
// engine crashed (`ocs`), or with the Select call failing over to a GET
// (`hive`), a prunable dictionary-string filter and a bloom join return
// rows bit-identical to the fault-free run, and the fallback reports the
// same pruning the storage scan does — statistics-skipped row groups and
// rows rejected in the dictionary code domain.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "netsim/fault_plan.h"
#include "workloads/testbed.h"
#include "workloads/tpch.h"

namespace pocs {
namespace {

using columnar::TypeKind;

// Same rows in the same order, every double equal bit for bit.
void ExpectBitIdentical(const columnar::RecordBatch& got,
                        const columnar::RecordBatch& want) {
  ASSERT_EQ(got.num_rows(), want.num_rows());
  ASSERT_EQ(got.num_columns(), want.num_columns());
  for (size_t c = 0; c < want.num_columns(); ++c) {
    const columnar::Column& g = *got.column(c);
    const columnar::Column& w = *want.column(c);
    ASSERT_EQ(g.type(), w.type()) << "col " << c;
    for (size_t r = 0; r < want.num_rows(); ++r) {
      ASSERT_EQ(g.IsNull(r), w.IsNull(r)) << "col " << c << " row " << r;
      if (w.IsNull(r)) continue;
      if (w.type() == TypeKind::kFloat64) {
        const double gv = g.GetFloat64(r);
        const double wv = w.GetFloat64(r);
        EXPECT_EQ(std::memcmp(&gv, &wv, sizeof(double)), 0)
            << "col " << c << " row " << r;
      } else {
        EXPECT_TRUE(g.GetDatum(r) == w.GetDatum(r))
            << "col " << c << " row " << r;
      }
    }
  }
}

// 3 files x 4 row groups of 1024 lineitem rows. orderkey grows across
// files, so `orderkey <= 1500` leaves the later row groups provably empty
// by their statistics; returnflag is dictionary-encoded everywhere.
Status IngestLineitem(workloads::Testbed* bed, bool with_supplier) {
  workloads::TpchConfig tpch;
  tpch.num_files = 3;
  tpch.rows_per_file = 1 << 12;
  tpch.rows_per_group = 1 << 10;
  POCS_ASSIGN_OR_RETURN(workloads::GeneratedDataset fact,
                        workloads::GenerateLineitem(tpch));
  POCS_RETURN_NOT_OK(bed->Ingest(std::move(fact)));
  if (!with_supplier) return Status::OK();
  POCS_ASSIGN_OR_RETURN(workloads::GeneratedDataset dim,
                        workloads::GenerateSupplier(workloads::SupplierConfig{}));
  return bed->Ingest(std::move(dim));
}

// quantity is no term column, so the scan takes the lazy path and
// evaluates `returnflag = 'R'` on the dictionary codes.
const char* kDictScan =
    "SELECT orderkey, linenumber, quantity, returnflag FROM lineitem "
    "WHERE returnflag = 'R' AND orderkey <= 1500 "
    "ORDER BY orderkey, linenumber";

const char* kDictJoin =
    "SELECT s_nationkey, SUM(extendedprice) AS revenue, COUNT(*) AS lines "
    "FROM lineitem JOIN supplier ON suppkey = s_suppkey "
    "WHERE returnflag = 'R' AND orderkey <= 1500 AND s_nationkey < 5 "
    "GROUP BY s_nationkey ORDER BY s_nationkey";

void CrashStorageExec(workloads::Testbed* bed) {
  for (size_t i = 0; i < bed->cluster().num_storage_nodes(); ++i) {
    bed->cluster().mutable_storage_node(i).faults().exec_crashed.store(true);
  }
}

TEST(ScanFallbackTest, CrashedOcsFallbackPrunesLikeStorage) {
  workloads::Testbed bed;
  ASSERT_TRUE(IngestLineitem(&bed, /*with_supplier=*/false).ok());

  auto healthy = bed.Run(kDictScan, "ocs");
  ASSERT_TRUE(healthy.ok()) << healthy.status();
  ASSERT_EQ(healthy->metrics.fallbacks, 0u);

  CrashStorageExec(&bed);
  auto degraded = bed.Run(kDictScan, "ocs");
  ASSERT_TRUE(degraded.ok()) << degraded.status();
  const auto& m = degraded->metrics;
  EXPECT_EQ(m.fallbacks, m.splits);
  ExpectBitIdentical(*degraded->table, *healthy->table);
  // The fallback runs the storage scan over the fetched bytes.
  EXPECT_GT(m.row_groups_skipped, 0u);
  EXPECT_GT(m.rows_dict_filtered, 0u);
  EXPECT_EQ(m.row_groups_skipped, healthy->metrics.row_groups_skipped);
  EXPECT_EQ(m.rows_dict_filtered, healthy->metrics.rows_dict_filtered);
  EXPECT_EQ(m.rows_scanned, healthy->metrics.rows_scanned);
}

TEST(ScanFallbackTest, CrashedOcsBloomJoinFallbackPrunes) {
  workloads::Testbed bed;
  ASSERT_TRUE(IngestLineitem(&bed, /*with_supplier=*/true).ok());

  auto healthy = bed.Run(kDictJoin, "ocs");
  ASSERT_TRUE(healthy.ok()) << healthy.status();
  ASSERT_GT(healthy->metrics.bloom_pushed, 0u);

  CrashStorageExec(&bed);
  auto degraded = bed.Run(kDictJoin, "ocs");
  ASSERT_TRUE(degraded.ok()) << degraded.status();
  const auto& m = degraded->metrics;
  EXPECT_GT(m.fallbacks, 0u);
  ExpectBitIdentical(*degraded->table, *healthy->table);
  EXPECT_GT(m.row_groups_skipped, 0u);
  EXPECT_GT(m.rows_dict_filtered, 0u);
  // The bloom's pin is learned by the fallback's Stat, so it applies.
  EXPECT_GT(m.bloom_rows_pruned, 0u);
  EXPECT_EQ(m.bloom_rows_pruned, healthy->metrics.bloom_rows_pruned);
}

TEST(ScanFallbackTest, ChunkedOcsFallbackHonoursAPinnedHint) {
  workloads::TestbedConfig config;
  // The chunked fallback Stats the object first, so it knows the version
  // the planner's hint is pinned to; the metadata cache produces hints.
  config.ocs_connector.dispatch.fallback_chunk_bytes = 32 << 10;
  config.ocs_connector.metadata_cache_bytes = 8 << 20;
  workloads::Testbed bed(config);
  ASSERT_TRUE(IngestLineitem(&bed, /*with_supplier=*/false).ok());

  auto healthy = bed.Run(kDictScan, "ocs");
  ASSERT_TRUE(healthy.ok()) << healthy.status();
  ASSERT_GT(healthy->metrics.row_groups_hint_skipped, 0u);

  CrashStorageExec(&bed);
  auto degraded = bed.Run(kDictScan, "ocs");
  ASSERT_TRUE(degraded.ok()) << degraded.status();
  EXPECT_EQ(degraded->metrics.fallbacks, degraded->metrics.splits);
  ExpectBitIdentical(*degraded->table, *healthy->table);
  EXPECT_EQ(degraded->metrics.row_groups_hint_skipped,
            healthy->metrics.row_groups_hint_skipped);
}

TEST(ScanFallbackTest, FailedHiveSelectFallbackPrunes) {
  workloads::TestbedConfig config;
  config.hive.call.max_attempts = 2;           // Select: attempts 0–1
  config.hive.fallback_call.max_attempts = 6;  // GET: reaches the heal
  workloads::Testbed bed(config);
  ASSERT_TRUE(IngestLineitem(&bed, /*with_supplier=*/false).ok());

  auto reference = bed.Run(kDictScan, "hive");
  ASSERT_TRUE(reference.ok()) << reference.status();
  ASSERT_EQ(reference->metrics.fallbacks, 0u);

  // Partition compute ↔ frontend until attempt 4: the Select's 2-attempt
  // budget exhausts, the fallback GET's 6-attempt budget heals through.
  auto plan = std::make_shared<netsim::FaultPlan>(11);
  plan->AddRule(netsim::FaultPlan::Partition(
      bed.compute_node(), bed.cluster().frontend_node(),
      /*heal_at_attempt=*/4));
  bed.SetFaultPlan(plan);

  auto degraded = bed.Run(kDictScan, "hive");
  ASSERT_TRUE(degraded.ok()) << degraded.status();
  const auto& m = degraded->metrics;
  EXPECT_EQ(m.fallbacks, m.splits);
  ExpectBitIdentical(*degraded->table, *reference->table);
  EXPECT_GT(m.row_groups_skipped, 0u);
  EXPECT_GT(m.rows_dict_filtered, 0u);
  EXPECT_EQ(m.row_groups_skipped, reference->metrics.row_groups_skipped);
}

// An integer column against a fractional literal: the storage scan's
// exact term (all-term-column and lazy projections), the crashed-storage
// fallback and the Select path keep the rows hive_raw's row-wise Filter
// keeps — `orderkey < k.5` keeps orderkey k, `orderkey >= k.5` drops it.
TEST(ScanFallbackTest, FractionalLiteralOnIntegerColumnMatchesHiveRaw) {
  workloads::Testbed bed;
  ASSERT_TRUE(IngestLineitem(&bed, /*with_supplier=*/false).ok());
  auto top = bed.Run(
      "SELECT MAX(orderkey) AS k FROM lineitem WHERE orderkey <= 1500",
      "hive_raw");
  ASSERT_TRUE(top.ok()) << top.status();
  const std::string lit =
      std::to_string(top->table->column(0)->GetDatum(0).AsInt64()) + ".5";

  std::vector<std::string> queries;
  for (const char* cols : {"orderkey", "orderkey, linenumber, quantity"}) {
    for (const char* op : {" < ", " >= "}) {
      queries.push_back(std::string("SELECT ") + cols +
                        " FROM lineitem WHERE orderkey" + op + lit +
                        " ORDER BY " + cols);
    }
  }
  std::vector<engine::QueryResult> want;
  for (const std::string& sql : queries) {
    auto raw = bed.Run(sql, "hive_raw");
    ASSERT_TRUE(raw.ok()) << raw.status();
    ASSERT_GT(raw->table->num_rows(), 0u) << sql;
    for (const char* catalog : {"ocs", "hive"}) {
      auto got = bed.Run(sql, catalog);
      ASSERT_TRUE(got.ok()) << got.status();
      SCOPED_TRACE(sql + " on " + catalog);
      ExpectBitIdentical(*got->table, *raw->table);
    }
    want.push_back(std::move(*raw));
  }
  CrashStorageExec(&bed);
  for (size_t i = 0; i < queries.size(); ++i) {
    auto degraded = bed.Run(queries[i], "ocs");
    ASSERT_TRUE(degraded.ok()) << degraded.status();
    EXPECT_EQ(degraded->metrics.fallbacks, degraded->metrics.splits);
    SCOPED_TRACE(queries[i] + " on the crashed-storage fallback");
    ExpectBitIdentical(*degraded->table, *want[i].table);
  }
}

}  // namespace
}  // namespace pocs
