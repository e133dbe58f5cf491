// E10: parallel scalability. The work-depth claims are machine-independent
// (phases counters); wall-clock scaling on this host compares 1 vs all
// worker threads on batch updates and on the parallel substrate.
#include <benchmark/benchmark.h>

#include <atomic>
#include <thread>

#include "core/fully_dynamic_spanner.hpp"
#include "core/ultra.hpp"
#include "graph/generators.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/primitives.hpp"

namespace parspan {
namespace {

void BM_UpdateThreads(benchmark::State& state) {
  int threads = int(state.range(0));
  const size_t n = 4096;
  auto [initial, batches] = gen_mixed_stream(n, 8 * n, 1024, 8, 3);
  int saved = num_workers();
  set_num_workers(threads);
  for (auto _ : state) {
    state.PauseTiming();
    FullyDynamicSpannerConfig cfg;
    cfg.k = 3;
    cfg.seed = 1;
    FullyDynamicSpanner sp(n, initial, cfg);
    state.ResumeTiming();
    for (auto& b : batches) {
      auto d = sp.update(b.insertions, b.deletions);
      benchmark::DoNotOptimize(d.inserted.size());
    }
  }
  set_num_workers(saved);
  state.counters["threads"] = double(threads);
}

BENCHMARK(BM_UpdateThreads)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

// One perfbench-tenants-shaped UltraSparseSpanner update (n=4096, m=8n,
// 1024-update batches, the first tenant's stream and seed), rooted on a
// scheduler worker as a service drain runs it. Time is per ten batches;
// items are batches.
void BM_UltraTenantUpdate(benchmark::State& state) {
  int threads = int(state.range(0));
  const size_t n = 4096;
  auto [initial, batches] =
      gen_mixed_stream(n, 8 * n, 1024, 10, 7 * 1000003ULL);
  int saved = num_workers();
  set_num_workers(threads);
  for (auto _ : state) {
    state.PauseTiming();
    UltraConfig cfg;
    cfg.seed = 1;
    UltraSparseSpanner sp(n, initial, cfg);
    state.ResumeTiming();
    std::atomic<size_t> pending{1};
    Scheduler::instance().submit([&] {
      for (auto& b : batches) {
        auto d = sp.update(b.insertions, b.deletions);
        benchmark::DoNotOptimize(d.inserted.size());
      }
      pending.store(0, std::memory_order_release);
      pending.notify_all();
    });
    Scheduler::instance().join(pending);
  }
  set_num_workers(saved);
  state.SetItemsProcessed(int64_t(state.iterations()) *
                          int64_t(batches.size()));
  state.counters["threads"] = double(threads);
  state.counters["num_cpus"] = double(std::thread::hardware_concurrency());
}

BENCHMARK(BM_UltraTenantUpdate)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_SortThreads(benchmark::State& state) {
  int threads = int(state.range(0));
  Rng rng(4);
  std::vector<uint64_t> base(1 << 21);
  for (auto& x : base) x = rng.next();
  int saved = num_workers();
  set_num_workers(threads);
  for (auto _ : state) {
    auto xs = base;
    parallel_sort(xs);
    benchmark::DoNotOptimize(xs.data());
  }
  set_num_workers(saved);
  state.counters["threads"] = double(threads);
}

BENCHMARK(BM_SortThreads)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace parspan

BENCHMARK_MAIN();
