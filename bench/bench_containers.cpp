// E11b: container substrate calibration — CountedTreap and hash table
// throughput, the constant factors behind every O(log n) in the paper.
#include <benchmark/benchmark.h>

#include <unordered_map>

#include "container/concurrent_map.hpp"
#include "container/counted_treap.hpp"
#include "container/flat_map.hpp"
#include "parallel/parallel_for.hpp"
#include "util/rng.hpp"

namespace parspan {
namespace {

void BM_TreapInsertErase(benchmark::State& state) {
  size_t n = size_t(state.range(0));
  Rng rng(1);
  std::vector<uint64_t> keys(n);
  for (auto& k : keys) k = rng.next() >> 1;
  for (auto _ : state) {
    CountedTreap<uint64_t> t;
    for (uint64_t k : keys)
      if (!t.find(k)) t.insert(k, k);
    for (uint64_t k : keys) t.erase(k);
    benchmark::DoNotOptimize(t.size());
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(2 * n));
}
BENCHMARK(BM_TreapInsertErase)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 17);

// Bulk build vs n incremental inserts: the ES-tree init path.
void BM_TreapBuildSorted(benchmark::State& state) {
  size_t n = size_t(state.range(0));
  Rng rng(4);
  std::vector<std::pair<uint64_t, uint64_t>> xs;
  {
    CountedTreap<uint64_t> dedup;
    while (xs.size() < n) {
      uint64_t k = rng.next() >> 1;
      if (!dedup.find(k)) {
        dedup.insert(k, 0);
        xs.push_back({k, k});
      }
    }
  }
  std::sort(xs.begin(), xs.end());
  for (auto _ : state) {
    CountedTreap<uint64_t> t;
    t.build_sorted(xs.data(), xs.size());
    benchmark::DoNotOptimize(t.size());
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(n));
}
BENCHMARK(BM_TreapBuildSorted)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 17);

// Flat open-addressing map vs std::unordered_map on the contrib/groups
// access pattern: mixed upsert / find / erase over a bounded key universe.
template <typename MapT>
void churn_flat(MapT& m, const std::vector<uint64_t>& keys) {
  for (size_t i = 0; i < keys.size(); ++i) {
    uint64_t k = keys[i];
    switch (i % 3) {
      case 0:
        ++m[k];
        break;
      case 1:
        benchmark::DoNotOptimize(m.find(k));
        break;
      default:
        m.erase(k);
    }
  }
}

void BM_FlatHashMapChurn(benchmark::State& state) {
  size_t n = size_t(state.range(0));
  Rng rng(5);
  std::vector<uint64_t> keys(n);
  for (auto& k : keys) k = rng.next_below(n / 2 + 1);
  for (auto _ : state) {
    FlatHashMap<uint64_t, uint64_t> m;
    churn_flat(m, keys);
    benchmark::DoNotOptimize(m.size());
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(n));
}
BENCHMARK(BM_FlatHashMapChurn)->Arg(1 << 14)->Arg(1 << 18);

void BM_StdUnorderedMapChurn(benchmark::State& state) {
  size_t n = size_t(state.range(0));
  Rng rng(5);
  std::vector<uint64_t> keys(n);
  for (auto& k : keys) k = rng.next_below(n / 2 + 1);
  for (auto _ : state) {
    std::unordered_map<uint64_t, uint64_t> m;
    churn_flat(m, keys);
    benchmark::DoNotOptimize(m.size());
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(n));
}
BENCHMARK(BM_StdUnorderedMapChurn)->Arg(1 << 14)->Arg(1 << 18);

void BM_TreapSelect(benchmark::State& state) {
  size_t n = size_t(state.range(0));
  Rng rng(2);
  CountedTreap<uint64_t> t;
  for (size_t i = 0; i < n; ++i) {
    uint64_t k = rng.next() >> 1;
    if (!t.find(k)) t.insert(k, k);
  }
  size_t sz = t.size();
  size_t i = 0;
  for (auto _ : state) {
    auto [k, v] = t.select_desc(1 + (i++ % sz));
    benchmark::DoNotOptimize(k);
  }
  state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_TreapSelect)->Arg(1 << 14)->Arg(1 << 18);

void BM_ShardedMapParallelInsert(benchmark::State& state) {
  size_t n = size_t(state.range(0));
  for (auto _ : state) {
    ShardedMap<uint64_t, uint64_t> m(64);
    parallel_for(0, n, [&](size_t i) { m.insert_or_assign(i, i); }, 1024);
    benchmark::DoNotOptimize(m.size());
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(n));
}
BENCHMARK(BM_ShardedMapParallelInsert)->Arg(1 << 14)->Arg(1 << 18);

void BM_ConcurrentFixedMapInsert(benchmark::State& state) {
  size_t n = size_t(state.range(0));
  for (auto _ : state) {
    ConcurrentFixedMap m(n);
    parallel_for(0, n, [&](size_t i) { m.insert(i + 1, i); }, 1024);
    benchmark::DoNotOptimize(m.size());
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(n));
}
BENCHMARK(BM_ConcurrentFixedMapInsert)->Arg(1 << 14)->Arg(1 << 18);

}  // namespace
}  // namespace parspan

BENCHMARK_MAIN();
