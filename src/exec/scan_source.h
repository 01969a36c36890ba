// The one scan of a Parquet-lite object (DESIGN.md §2). Every path that
// reads row groups constructs it: the OCS storage node and the
// connector's engine-side fallback (both through OpenPlanScan), the
// S3-Select stand-in, and Hive's raw-GET and Select→GET page sources. So
// each of them gets the same pruning (row-group hint, chunk statistics),
// the dictionary-code filter, the lazy column skip, the join-key bloom,
// late materialization and, where the caller has one, the decoded
// row-group cache.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "columnar/batch.h"
#include "common/bloom.h"
#include "common/hash.h"
#include "common/lru_cache.h"
#include "common/query_counters.h"
#include "exec/plan_executor.h"
#include "format/encoding.h"
#include "format/parquet_lite.h"
#include "format/stats.h"
#include "substrait/rel.h"

namespace pocs::exec {

// Key of one decoded column chunk in a row-group cache (DESIGN.md §10).
// The object version is part of the key, so a PUT overwrite can never
// serve stale chunks.
struct RowGroupCacheKey {
  std::string object;   // "bucket/key"
  uint64_t version = 0;
  uint64_t group = 0;
  int32_t column = 0;
  bool operator==(const RowGroupCacheKey&) const = default;
};

struct RowGroupCacheKeyHash {
  size_t operator()(const RowGroupCacheKey& k) const {
    uint64_t h = HashString(k.object);
    h = HashCombine(h, k.version);
    h = HashCombine(h, k.group);
    h = HashCombine(h, static_cast<uint64_t>(static_cast<uint32_t>(k.column)));
    return static_cast<size_t>(h);
  }
};

using RowGroupCache =
    ShardedLruCache<RowGroupCacheKey, columnar::Column, RowGroupCacheKeyHash>;

// Rows of an integer key column that pass a bloom filter (nulls never
// pass — an inner-join key of NULL matches nothing). Non-integer columns
// keep every row: the safe direction, since bloom reduction is advisory.
columnar::SelectionVector BloomSelectRows(const columnar::Column& col,
                                          const BloomFilter& bloom);

// Collect conjunctive `field <cmp> literal` terms from a predicate against
// `scan_schema`. Returns true when every conjunct became a term. Pruning
// ignores the rest (it stays conservative) and is shared with the
// coordinator-side split pruner, so plan-time and storage-time pruning
// evaluate the exact same terms (DESIGN.md §13). The Hive connector's
// Select API takes a filter only when the result is true.
bool CollectPruningTerms(const substrait::Expression& expr,
                         const columnar::Schema& scan_schema,
                         std::vector<format::SelectPredicate>* out);

struct ScanOptions {
  // File column indices to produce, in output order; empty = all.
  std::vector<int> columns;
  // Conjunctive terms over file columns (any column, produced or not).
  // Every term is applied, so a batch's selection is exact for them.
  std::vector<format::SelectPredicate> terms;
  // Row groups that may match; empty = scan all. The caller has checked
  // the hint's version pin.
  std::vector<uint32_t> row_group_hint;
  // Join-key bloom over the output column at `bloom_column`; null = none.
  // The caller has checked the bloom's version pin.
  std::unique_ptr<const BloomFilter> bloom;
  int bloom_column = -1;
  // Decoded-chunk cache (null = none) and the identity its keys use.
  RowGroupCache* cache = nullptr;
  std::string object_id;
  uint64_t object_version = 0;
};

// BatchSource over a FileReader. Per row group:
//   1. the hint, then chunk statistics, drop groups without decoding;
//   2. every term runs against its column — in the dictionary code domain
//      where the chunk is dictionary-encoded and the lazy path is on —
//      and the survivors form the batch's selection;
//   3. lazy column skip: when some output column is not a term column, a
//      group whose terms match no row is dropped before those columns
//      decode (row_groups_lazy_skipped);
//   4. the bloom probes the key column and its survivors intersect the
//      selection; a group with no survivor is dropped;
//   5. output columns decode cache-first. Under a partial selection,
//      dictionary string columns materialize only the selected rows
//      (late materialization, DESIGN.md §15) and are never cached.
// When every output column is a term column there is nothing to skip:
// columns decode fully (and enter the cache), and a group with no match
// still returns its batch, under an empty selection.
class ScanSource final : public BatchSource {
 public:
  ScanSource(std::shared_ptr<const format::FileReader> reader,
             ScanOptions options);

  columnar::SchemaPtr schema() const override { return schema_; }
  // Materializing variant (TakeBatch over the selection).
  Result<columnar::RecordBatchPtr> Next() override;
  Result<SelectedBatch> NextSelected() override;

  const ScanCounters& counters() const { return counters_; }
  // Compressed chunk bytes read off the object (cache hits read none).
  uint64_t media_bytes() const { return media_bytes_; }
  // Rows of the row groups that survived the hint and statistics.
  uint64_t rows_read() const { return rows_read_; }

 private:
  struct Term {
    int column;  // file column index
    format::SelectPredicate pred;
  };
  // The row group being scanned: columns decoded so far, and string
  // chunks kept in dictionary (code) form.
  struct Group {
    size_t index;
    size_t rows;
    std::unordered_map<int, columnar::ColumnPtr> decoded;
    std::unordered_map<int, format::DictionaryPage> dict;
  };

  bool StatsMayMatch(size_t group) const;
  // Resolves file column `c` of `group`, cache first. A string chunk on a
  // dictionary page stays in code form when `code_domain` is set (the
  // returned page); otherwise the column lands in group->decoded and the
  // result is nullptr.
  Result<const format::DictionaryPage*> Resolve(Group* group, int c,
                                                bool code_domain);
  void CacheInsert(size_t group, int c, const columnar::ColumnPtr& col);

  std::shared_ptr<const format::FileReader> reader_;
  ScanOptions options_;
  columnar::SchemaPtr schema_;
  std::vector<Term> terms_;
  std::vector<bool> hinted_;  // empty = no hint; else hinted_[g] = keep
  int bloom_key_ = -1;        // file column of the bloom key, -1 = none
  // Some output column is not a term column (always so without terms):
  // term columns may then stay in the code domain and a group with no
  // match is dropped before the other columns decode.
  bool lazy_ = false;
  size_t next_group_ = 0;
  ScanCounters counters_;
  uint64_t media_bytes_ = 0;
  uint64_t rows_read_ = 0;
};

// Opens the scan of a linear plan's Read leaf over `reader`, the bytes of
// object version `object_version` (0 = unknown): checks the object schema,
// derives the terms of the Filter directly above the Read, and honours the
// row-group hint and the join-key bloom only when their version pin equals
// a known object version — a stale or unknown pin drops them wholesale,
// while statistics pruning still runs on the bytes in hand. The storage
// node and the connector's engine-side fallback both open scans here.
Result<std::unique_ptr<ScanSource>> OpenPlanScan(
    const substrait::Plan& plan,
    std::shared_ptr<const format::FileReader> reader, uint64_t object_version,
    RowGroupCache* cache);

}  // namespace pocs::exec
