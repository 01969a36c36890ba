// The per-query counter schema (DESIGN.md §8.2). Every counter a query
// reports from storage up to the coordinator is declared once, in one of
// the X-macro lists below, and each list generates a struct with
// `operator+=` and `ForEach(name, value)`. The stats structs of every
// layer derive from the generated structs, so a counter keeps one name
// from the storage scan to the registry:
//
//   ScanCounters   ← ocs::OcsExecStats, connector::PageSourceStats
//   QueryCounters  ← engine::QueryMetrics, connector::QueryStats,
//                    connector::QueryStatsCollector::Totals
//
// The OcsResult wire fields, the split → query → collector roll-ups and
// the `storage.*` / `engine.*` registry mirrors (CounterMirror) all
// iterate the lists. Adding a counter is one list line plus its
// increment site.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/metrics.h"

// Counters the storage scan (or the connector's engine-side fallback
// scan) measures per split. Their order is the OcsResult wire order
// (positions 4-13), so a new entry changes the OcsResult wire format.
#define POCS_SCAN_COUNTERS(X)                                                 \
  /* Row groups (chunks) the scan considered. */                              \
  X(row_groups_total)                                                         \
  /* Row groups pruned via min/max chunk statistics. */                       \
  X(row_groups_skipped)                                                       \
  /* Row groups whose pruning predicates, evaluated against the decoded       \
     predicate columns, matched zero rows: the remaining columns were never   \
     materialized (the lazy-column fast path). */                             \
  X(row_groups_lazy_skipped)                                                  \
  /* Row groups skipped on the coordinator's row-group hint (stats-based      \
     pruning at plan time, DESIGN.md §13). Only counted when the hint's       \
     version matched the object; a stale hint is ignored wholesale. */        \
  X(row_groups_hint_skipped)                                                  \
  /* Hits and misses across both cache levels a split touched: the storage    \
     node's decoded row-group cache and the connector's split-result and      \
     fallback range caches (DESIGN.md §10). */                                \
  X(cache_hits)                                                               \
  X(cache_misses)                                                             \
  /* Bytes a cache hit avoided moving: media bytes for row-group-cache hits,  \
     network payload bytes for connector-cache hits. */                       \
  X(cache_bytes_saved)                                                        \
  /* Rows the pushed join-key bloom filter dropped before they could cross    \
     the network (DESIGN.md §14). Only counted when the filter's version pin  \
     matched the object; a stale bloom is ignored wholesale. */               \
  X(bloom_rows_pruned)                                                        \
  /* Rows rejected by predicate evaluation in the dictionary code domain      \
     (DESIGN.md §15): the predicate ran once per distinct value and these     \
     rows' string values were never decoded. */                               \
  X(rows_dict_filtered)                                                       \
  /* Rows whose string values were materialized from a dictionary page        \
     under a selection (only predicate/bloom survivors decode). */            \
  X(rows_late_materialized)

// The scan counters summed over a query's splits, plus the counters the
// engine measures per query.
#define POCS_QUERY_COUNTERS(X)                                                \
  POCS_SCAN_COUNTERS(X)                                                       \
  /* Rows touched at/near storage, all splits. */                             \
  X(rows_scanned)                                                             \
  /* Rows that crossed storage → compute. Mirrored to the registry as         \
     engine.rows_returned, its name before the field was renamed. */          \
  X(rows_from_storage)                                                        \
  /* Data movement, exact and model-free: storage → compute, and request/     \
     plan bytes compute → storage. */                                         \
  X(bytes_from_storage)                                                       \
  X(bytes_to_storage)                                                         \
  /* Split planning (connector::SplitPlan): candidates considered, dropped    \
     by stats-based pruning with zero data RPCs, and surviving (splits =      \
     splits_planned - splits_pruned). */                                      \
  X(splits)                                                                   \
  X(splits_planned)                                                           \
  X(splits_pruned)                                                            \
  /* Planner metadata-cache outcomes: cached and version-validated fresh,     \
     not cached and fetched via the stats RPC, cached but stale and           \
     refetched, and stats-path failures that left the split unpruned. */      \
  X(metadata_cache_hits)                                                      \
  X(metadata_cache_misses)                                                    \
  X(metadata_cache_stale)                                                     \
  X(metadata_cache_errors)                                                    \
  /* Degradation: rpc attempts beyond the first, splits recovered via the     \
     engine-side scan, and splits whose pushdown dispatch was rejected. */    \
  X(retries)                                                                  \
  X(fallbacks)                                                                \
  X(failed_splits)                                                            \
  /* Payload bytes of data calls that only succeeded after at least one       \
     retry: the re-sent traffic partial-result retention shrinks. */          \
  X(bytes_refetched_on_retry)                                                 \
  /* Operators offered to the connector, by outcome (offered = accepted +     \
     rejected). */                                                            \
  X(pushdown_offered)                                                         \
  X(pushdown_accepted)                                                        \
  X(pushdown_rejected)                                                        \
  /* Join/partial-aggregation pushdown (DESIGN.md §14): phase-split           \
     aggregations offered to storage by outcome, join-key blooms attached     \
     to the pushed plan, and storage partial rows merged engine-side. */      \
  X(partial_agg_accepted)                                                     \
  X(partial_agg_rejected)                                                     \
  X(bloom_pushed)                                                             \
  X(partial_agg_merges)

#define POCS_COUNTER_FIELD(name) uint64_t name = 0;
#define POCS_COUNTER_ADD(name) name += other.name;
#define POCS_COUNTER_VISIT(name) fn(std::string_view(#name), name);

namespace pocs {

struct ScanCounters {
  POCS_SCAN_COUNTERS(POCS_COUNTER_FIELD)

  ScanCounters& operator+=(const ScanCounters& other) {
    POCS_SCAN_COUNTERS(POCS_COUNTER_ADD)
    return *this;
  }
  // Calls fn(name, value) per counter, in list order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    POCS_SCAN_COUNTERS(POCS_COUNTER_VISIT)
  }
  template <typename Fn>
  void ForEach(Fn&& fn) {
    POCS_SCAN_COUNTERS(POCS_COUNTER_VISIT)
  }
};

struct QueryCounters {
  POCS_QUERY_COUNTERS(POCS_COUNTER_FIELD)

  QueryCounters& operator+=(const QueryCounters& other) {
    POCS_QUERY_COUNTERS(POCS_COUNTER_ADD)
    return *this;
  }
  // Folds one split's scan counters into the query's.
  QueryCounters& operator+=(const ScanCounters& other) {
    POCS_SCAN_COUNTERS(POCS_COUNTER_ADD)
    return *this;
  }
  // Calls fn(name, value) per counter, in list order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    POCS_QUERY_COUNTERS(POCS_COUNTER_VISIT)
  }
  template <typename Fn>
  void ForEach(Fn&& fn) {
    POCS_QUERY_COUNTERS(POCS_COUNTER_VISIT)
  }

  uint64_t bytes_moved() const { return bytes_from_storage + bytes_to_storage; }
};

// One registry counter per field of `Counters`, looked up once at
// construction, so Add() costs one relaxed atomic add per field. Keep
// instances in function-local statics.
template <typename Counters>
class CounterMirror {
 public:
  // `registry_name(field)` gives the registry name of each field.
  template <typename NameFn>
  explicit CounterMirror(NameFn registry_name) {
    auto& registry = metrics::Registry::Default();
    Counters{}.ForEach([&](std::string_view field, uint64_t) {
      counters_.push_back(&registry.GetCounter(registry_name(field)));
    });
  }

  void Add(const Counters& values) const {
    size_t i = 0;
    values.ForEach([&](std::string_view, uint64_t value) {
      counters_[i++]->Add(value);
    });
  }

 private:
  std::vector<metrics::Counter*> counters_;
};

}  // namespace pocs

#undef POCS_COUNTER_FIELD
#undef POCS_COUNTER_ADD
#undef POCS_COUNTER_VISIT
