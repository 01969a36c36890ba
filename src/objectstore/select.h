// The S3-Select / MinIO-Select stand-in: storage-side evaluation of
// WHERE-clause filters and column projection over a single Parquet-lite
// object, with results returned in a ROW-ORIENTED CSV text format.
//
// The operator restriction (filter + projection only, nothing else) and
// the row-format results are the two properties of S3 Select the paper's
// baseline comparison hinges on (§2.2): aggregation/top-N cannot run
// here, and results lose columnar-format efficiency. We intentionally
// reproduce both. Unlike real S3 Select we do support float64 — the
// paper notes S3 Select's lack of doubles as a flaw, not a feature.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "columnar/types.h"
#include "format/parquet_lite.h"
#include "format/stats.h"
#include "objectstore/object_store.h"

namespace pocs::objectstore {

using format::ChunkMayMatch;
using format::SelectPredicate;

struct SelectRequest {
  std::string bucket;
  std::string key;
  // Projected column names; empty selects all columns.
  std::vector<std::string> columns;
  // Conjunctive (AND) predicates.
  std::vector<SelectPredicate> predicates;
};

struct SelectStats {
  uint64_t rows_scanned = 0;
  uint64_t rows_returned = 0;
  uint64_t groups_total = 0;
  uint64_t groups_skipped = 0;  // pruned by chunk min/max statistics
  uint64_t object_bytes_read = 0;
};

struct SelectResponse {
  std::string csv;  // header line + one line per row
  SelectStats stats;
};

// Execute a select against the local store through exec::ScanSource:
// row groups whose chunk statistics prove no predicate match are skipped
// without decoding, and string predicates on dictionary pages run in the
// code domain. The scan counters stay storage-local (the `select.*`
// registry); the response carries only SelectStats.
Result<SelectResponse> ExecuteSelect(const ObjectStore& store,
                                     const SelectRequest& request);

// Parse a CSV result (as produced above) back into a record batch, given
// the expected schema of the projected columns. Used by the compute-side
// Hive connector to turn row-format results back into pages.
Result<columnar::RecordBatchPtr> ParseSelectCsv(
    const std::string& csv, const columnar::SchemaPtr& schema);

}  // namespace pocs::objectstore
