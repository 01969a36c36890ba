#include "connector/query_stats_collector.h"

#include <string>
#include <string_view>

#include "common/metrics.h"

namespace pocs::connector {

void QueryStatsCollector::Accumulate(const QueryEvent& event, Totals* t) {
  const QueryStats& s = event.stats;
  *t += s;
  t->queries += 1;
  t->result_rows += s.result_rows;
  t->wall_seconds += s.wall_seconds;
  t->simulated_seconds += s.simulated_seconds;
  t->queue_wait_seconds += s.queue_wait_seconds;
}

void QueryStatsCollector::QueryCompleted(const QueryEvent& event) {
  {
    MutexLock lock(mu_);
    Accumulate(event, &totals_);
    Accumulate(event, &by_connector_[event.connector_id]);
    last_ = event.stats;
  }

  auto& registry = metrics::Registry::Default();
  static auto& queries = registry.GetCounter("engine.queries");
  static auto& wall = registry.GetHistogram("engine.query_wall_seconds");
  // engine.<name> per query counter. The one alias: rows_from_storage
  // keeps engine.rows_returned, its registry name from before the
  // QueryStats field was renamed.
  static const CounterMirror<QueryCounters> counters(
      [](std::string_view name) {
        return "engine." + std::string(name == "rows_from_storage"
                                           ? "rows_returned"
                                           : name);
      });
  queries.Increment();
  counters.Add(event.stats);
  wall.Record(event.stats.wall_seconds);
}

QueryStatsCollector::Totals QueryStatsCollector::totals() const {
  MutexLock lock(mu_);
  return totals_;
}

QueryStatsCollector::Totals QueryStatsCollector::TotalsFor(
    const std::string& connector_id) const {
  MutexLock lock(mu_);
  auto it = by_connector_.find(connector_id);
  return it == by_connector_.end() ? Totals{} : it->second;
}

QueryStats QueryStatsCollector::last() const {
  MutexLock lock(mu_);
  return last_;
}

}  // namespace pocs::connector
