// E12 (Lemma 3.6): the expected number of cluster reassignments per vertex
// over a full deletion sequence is at most 2 t log n. Counters report the
// measured churn against that bound. The construction rows price the
// fully-dynamic layer's rebuilds, and the skewed-degree rows price the ES
// tree's flat in-lists, whose erase and move cost grows with |In(v)|.
#include <benchmark/benchmark.h>

#include <cmath>
#include <vector>

#include "core/cluster_spanner.hpp"
#include "graph/generators.hpp"

namespace parspan {
namespace {

void BM_ClusterChurn(benchmark::State& state) {
  size_t n = size_t(state.range(0));
  uint32_t k = uint32_t(state.range(1));
  auto edges = gen_erdos_renyi(n, 8 * n, 3);
  double churn = 0, bound = 0;
  for (auto _ : state) {
    state.PauseTiming();
    ClusterSpannerConfig cfg;
    cfg.k = k;
    cfg.seed = 5;
    DecrementalClusterSpanner sp(n, edges, cfg);
    auto stream = gen_decremental_stream(edges, 64, 7);
    state.ResumeTiming();
    for (auto& b : stream) sp.delete_edges(b.deletions);
    churn = double(sp.cluster_changes()) / double(n);
    bound = 2.0 * double(sp.t()) * std::log2(double(n));
  }
  state.counters["churn_per_vertex"] = churn;
  state.counters["bound_2tlogn"] = bound;
  state.counters["ratio"] = churn / bound;
}

BENCHMARK(BM_ClusterChurn)
    ->ArgsProduct({{512, 1024, 2048}, {2, 3, 4}})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

// Construction cost of one decremental instance. This is the path the
// fully-dynamic layer (Theorem 1.1) pays on every partition rebuild, so its
// constant factor dominates insertion-heavy workloads.
void BM_ClusterConstruct(benchmark::State& state) {
  size_t n = size_t(state.range(0));
  uint32_t k = uint32_t(state.range(1));
  auto edges = gen_erdos_renyi(n, 8 * n, 3);
  ClusterSpannerConfig cfg;
  cfg.k = k;
  cfg.seed = 5;
  size_t spanner_size = 0;
  for (auto _ : state) {
    DecrementalClusterSpanner sp(n, edges, cfg);
    spanner_size = sp.spanner_size();
    benchmark::DoNotOptimize(spanner_size);
  }
  state.counters["spanner_size"] = double(spanner_size);
  state.SetItemsProcessed(int64_t(state.iterations()) *
                          int64_t(edges.size()));
}

BENCHMARK(BM_ClusterConstruct)
    ->ArgsProduct({{1024, 4096, 16384}, {2, 3, 4}})
    ->Unit(benchmark::kMillisecond);

// The full 256-edge-batch deletion stream at k=3 on skewed degree
// distributions. Each In(v) is a flat key-sorted slice, so one erase or
// priority move costs up to O(|In(v)|): the star hub (in-degree n-1) is
// where that shows. Args: {n, graph}; graph 0 = Erdős–Rényi with m=16n
// (uniform-degree control), 1 = R-MAT with m=16n, 2 = a star hub plus an
// Erdős–Rényi graph with m=4n.
void BM_ClusterDecrementalSkewed(benchmark::State& state) {
  size_t n = size_t(state.range(0));
  int graph = int(state.range(1));
  std::vector<Edge> edges;
  if (graph == 0) {
    edges = gen_erdos_renyi(n, 16 * n, 3);
    state.SetLabel("er");
  } else if (graph == 1) {
    edges = gen_rmat(n, 16 * n, 3);
    state.SetLabel("rmat");
  } else {
    edges = gen_star(n);
    auto er = gen_erdos_renyi(n, 4 * n, 3);
    edges.insert(edges.end(), er.begin(), er.end());
    state.SetLabel("star+er");
  }
  ClusterSpannerConfig cfg;
  cfg.k = 3;
  cfg.seed = 5;
  for (auto _ : state) {
    state.PauseTiming();
    DecrementalClusterSpanner sp(n, edges, cfg);
    auto stream = gen_decremental_stream(edges, 256, 7);
    state.ResumeTiming();
    for (auto& b : stream) sp.delete_edges(b.deletions);
    benchmark::DoNotOptimize(sp.spanner_size());
  }
  state.counters["edges"] = double(edges.size());
}

BENCHMARK(BM_ClusterDecrementalSkewed)
    ->Args({16384, 0})
    ->Args({16384, 1})
    ->Args({16384, 2})
    ->Args({131072, 1})
    ->Args({131072, 2})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

}  // namespace
}  // namespace parspan

BENCHMARK_MAIN();
