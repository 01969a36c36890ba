// Micro: ShardedLruCache primitive — hit/miss lookup latency, insert
// with eviction churn, and multi-threaded mixed workloads (the shape
// both deployments see: the storage-side row-group cache under
// concurrent splits and the connector-side split-result cache under
// concurrent queries). Also measures the row-group key hash, which sits
// on every storage-side lookup.
#include <benchmark/benchmark.h>

#include "bench/micro_common.h"

#include <cstdint>
#include <memory>
#include <random>
#include <string>

#include "common/buffer.h"
#include "common/lru_cache.h"
#include "exec/scan_source.h"

namespace {

using pocs::Bytes;
using pocs::LruCacheConfig;
using pocs::ShardedLruCache;

using U64Cache = ShardedLruCache<uint64_t, uint64_t>;

constexpr uint64_t kResident = 4096;  // entries pre-loaded before timing

LruCacheConfig Cfg(uint64_t byte_budget) {
  LruCacheConfig config;
  config.byte_budget = byte_budget;
  config.shards = 8;
  return config;
}

std::unique_ptr<U64Cache> MakeLoadedCache(uint64_t budget_entries) {
  // Each entry is charged 64 bytes; the budget admits `budget_entries`.
  auto cache = std::make_unique<U64Cache>(Cfg(budget_entries * 64));
  for (uint64_t k = 0; k < kResident; ++k) {
    cache->Insert(k, std::make_shared<const uint64_t>(k), 64);
  }
  return cache;
}

void BM_LruCacheHit(benchmark::State& state) {
  auto cache = MakeLoadedCache(2 * kResident);
  uint64_t k = 0;
  for (auto _ : state) {
    auto v = cache->Lookup(k);
    benchmark::DoNotOptimize(v.get());
    k = (k + 1) % kResident;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LruCacheHit);

void BM_LruCacheMiss(benchmark::State& state) {
  auto cache = MakeLoadedCache(2 * kResident);
  uint64_t k = kResident;  // never inserted
  for (auto _ : state) {
    auto v = cache->Lookup(k++);
    benchmark::DoNotOptimize(v.get());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LruCacheMiss);

void BM_LruCacheInsertEvict(benchmark::State& state) {
  // Budget half the key space: every insert past warmup evicts a tail
  // entry, so this times the full admit-and-evict path.
  auto cache = MakeLoadedCache(kResident / 2);
  uint64_t k = kResident;
  for (auto _ : state) {
    cache->Insert(k, std::make_shared<const uint64_t>(k), 64);
    ++k;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LruCacheInsertEvict);

// The deployment-shaped workload: mostly hits, some misses, an insert on
// each miss. Shared cache across benchmark threads — the sharded mutexes
// are exactly what this is measuring.
U64Cache& SharedCache() {
  static auto cache = []() {
    auto c = std::make_unique<U64Cache>(Cfg(2 * kResident * 64));
    for (uint64_t k = 0; k < kResident; ++k) {
      c->Insert(k, std::make_shared<const uint64_t>(k), 64);
    }
    return c;
  }();
  return *cache;
}

void BM_LruCacheMixedThreaded(benchmark::State& state) {
  U64Cache& cache = SharedCache();
  // ~90% of lookups land in the resident range; the rest miss and insert.
  std::mt19937_64 rng(pocs::bench::MicroSeed(11) + state.thread_index());
  std::uniform_int_distribution<uint64_t> dist(0,
                                               kResident + kResident / 8 - 1);
  for (auto _ : state) {
    uint64_t k = dist(rng);
    auto v = cache.Lookup(k);
    if (!v) cache.Insert(k, std::make_shared<const uint64_t>(k), 64);
    benchmark::DoNotOptimize(v.get());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LruCacheMixedThreaded)->Threads(1)->Threads(4)->Threads(8);

void BM_RowGroupCacheKeyHash(benchmark::State& state) {
  pocs::exec::RowGroupCacheKey key{"bucket/laghos/part-00000.plite", 3, 17, 2};
  pocs::exec::RowGroupCacheKeyHash hasher;
  for (auto _ : state) {
    uint64_t h = hasher(key);
    benchmark::DoNotOptimize(h);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RowGroupCacheKeyHash);

}  // namespace

POCS_MICRO_BENCH_MAIN();
