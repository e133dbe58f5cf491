// E4 (Theorem 1.2): Even-Shiloach tree amortized work per deletion vs the
// depth bound L. The theorem predicts O(L log n) amortized work per deleted
// edge; the structure's scan_steps counter measures the dominant term
// directly (machine-independently), and phases measure the depth proxy.
#include <benchmark/benchmark.h>

#include "core/es_tree.hpp"
#include "graph/generators.hpp"

namespace parspan {
namespace {

void BM_ESTreeDeletions(benchmark::State& state) {
  size_t n = size_t(state.range(0));
  uint32_t L = uint32_t(state.range(1));
  auto edges = gen_erdos_renyi(n, 6 * n, 3);
  std::vector<std::pair<VertexId, VertexId>> arcs;
  for (const Edge& e : edges) {
    arcs.push_back({e.u, e.v});
    arcs.push_back({e.v, e.u});
  }
  const std::vector<uint32_t> ranks(arcs.size(), 0);
  double scan_per_del = 0, phases = 0, deletions = 0;
  for (auto _ : state) {
    state.PauseTiming();
    ESTree t;
    t.init(n, arcs, ranks, 0, L);
    t.counters().reset();
    Rng rng(11);
    std::vector<uint32_t> order(edges.size());
    for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
    for (size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1], order[rng.next_below(i)]);
    state.ResumeTiming();
    deletions = 0;
    phases = 0;
    const size_t batch = 64;
    for (size_t lo = 0; lo < order.size(); lo += batch) {
      std::vector<uint32_t> doomed;
      for (size_t i = lo; i < std::min(order.size(), lo + batch); ++i) {
        doomed.push_back(2 * order[i]);
        doomed.push_back(2 * order[i] + 1);
      }
      auto rep = t.delete_arcs(doomed);
      phases += double(rep.phases);
      deletions += double(doomed.size());
    }
    scan_per_del = double(t.counters().scan_steps) / deletions;
  }
  state.counters["scan_per_deletion"] = scan_per_del;
  state.counters["L"] = double(L);
  state.counters["phases_total"] = phases;
  state.SetItemsProcessed(int64_t(deletions) * int64_t(state.iterations()));
}

BENCHMARK(BM_ESTreeDeletions)
    ->ArgsProduct({{1024, 4096}, {4, 8, 16, 32}})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

}  // namespace
}  // namespace parspan

BENCHMARK_MAIN();
