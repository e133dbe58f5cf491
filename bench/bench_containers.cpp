// E11b: container substrate calibration — FlatHashMap vs std::unordered_map
// throughput on the hash-table access pattern of the batch-dynamic layers.
#include <benchmark/benchmark.h>

#include <unordered_map>

#include "container/flat_map.hpp"
#include "util/rng.hpp"

namespace parspan {
namespace {

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

}  // namespace
}  // namespace parspan

BENCHMARK_MAIN();
