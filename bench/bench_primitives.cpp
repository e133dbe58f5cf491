// Microbenchmarks for the parallel substrate (scan / pack / sort) and the
// serial stable counting sort (group_by_key). These calibrate the constant
// factors that underlie the work bounds of the batch-dynamic structures.
#include <benchmark/benchmark.h>

#include <vector>

#include "parallel/csr.hpp"
#include "parallel/primitives.hpp"
#include "util/rng.hpp"

namespace parspan {
namespace {

void BM_Scan(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Rng rng(1);
  std::vector<uint64_t> base(n);
  for (auto& x : base) x = rng.next_below(100);
  for (auto _ : state) {
    auto xs = base;
    benchmark::DoNotOptimize(exclusive_scan_inplace(xs));
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(n));
}
BENCHMARK(BM_Scan)->Arg(1 << 14)->Arg(1 << 18)->Arg(1 << 22);

void BM_Sort(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Rng rng(2);
  std::vector<uint64_t> base(n);
  for (auto& x : base) x = rng.next();
  for (auto _ : state) {
    auto xs = base;
    parallel_sort(xs);
    benchmark::DoNotOptimize(xs.data());
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(n));
}
BENCHMARK(BM_Sort)->Arg(1 << 14)->Arg(1 << 18)->Arg(1 << 20);

void BM_Pack(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Rng rng(3);
  std::vector<uint64_t> base(n);
  for (auto& x : base) x = rng.next();
  for (auto _ : state) {
    auto out = filter(base, [](uint64_t x) { return (x & 1) == 0; });
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(n));
}
BENCHMARK(BM_Pack)->Arg(1 << 14)->Arg(1 << 18)->Arg(1 << 22);

// group_by_key over uniform keys at (buckets, keys) shapes its callers
// reach: a tenants top-spanner rebuild (373, 20k), tenants construction
// and snapshots (4096, 65k), small_batch construction (4096, 393k), and
// two larger shapes no gated workload reaches yet. The serial yardstick a
// parallel integer sort has to beat (DESIGN.md §2).
void BM_GroupByKey(benchmark::State& state) {
  const size_t nbuckets = size_t(state.range(0));
  const size_t n = size_t(state.range(1));
  Rng rng(4);
  std::vector<uint32_t> keys(n);
  for (auto& k : keys) k = uint32_t(rng.next_below(nbuckets));
  for (auto _ : state) {
    GroupedIndices g = group_by_key(nbuckets, keys);
    benchmark::DoNotOptimize(g.items.data());
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(n));
}
BENCHMARK(BM_GroupByKey)
    ->Args({373, 20000})
    ->Args({4096, 65536})
    ->Args({4096, 393216})
    ->Args({8192, 990000})
    ->Args({1 << 20, 1 << 21})
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace parspan

BENCHMARK_MAIN();
