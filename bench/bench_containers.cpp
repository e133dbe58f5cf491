// E11b: container substrate calibration — FlatHashMap vs std::unordered_map
// throughput on the hash-table access pattern of the batch-dynamic layers,
// and the NextLevelEdges pair table under tenants-shaped op batches.
#include <benchmark/benchmark.h>

#include <chrono>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "container/flat_map.hpp"
#include "container/next_level_edges.hpp"
#include "parallel/scheduler.hpp"
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

// NextLevelEdges::apply on the shape of one tenants ultra layer (n=4096,
// m=8n): ~30k pairs over ~30.7k member edges, almost all singletons, and
// per batch ~6.5k member moves (~13k ops). 28% of the moves go to a fresh
// pair, so ~1.75k pairs are born and as many vanish per batch; the rest
// leave and rejoin their own pair. Four seeded batches and their inverses
// form a cycle that returns the table to its starting membership, so
// iterations replay a stationary shape. Runs at 1 worker; reports ns per
// op and the table's resident bytes per pair.
void BM_PairTableApply(benchmark::State& state) {
  using Op = NextLevelEdges::Op;
  const VertexId n = 4096;
  const size_t moves = 6500;
  Rng rng(2024);
  std::vector<EdgeKey> where;  // member -> its pair
  FlatHashMap<EdgeKey, uint32_t> count;  // pair -> members
  auto fresh_pair = [&] {
    while (true) {
      VertexId a = VertexId(rng.next_below(n)), b = VertexId(rng.next_below(n));
      if (a != b && !count.contains(edge_key(a, b))) return edge_key(a, b);
    }
  };
  std::vector<Op> build;
  for (uint32_t p = 0; p < 30000; ++p) {
    const EdgeKey pk = fresh_pair();
    const uint32_t size = p < 32 ? 3 + p % 4 : p < 668 ? 2 : 1;
    for (uint32_t i = 0; i < size; ++i) {
      build.push_back({pk, where.size(), true});
      where.push_back(pk);
    }
    count[pk] = size;
  }
  std::vector<std::vector<Op>> cycle;
  for (int b = 0; b < 4; ++b) {
    std::vector<Op> ops;
    for (size_t i = 0; i < moves; ++i) {
      const EdgeKey m = rng.next_below(where.size());
      const EdgeKey from = where[m];
      const EdgeKey to = rng.next_below(100) < 28 ? fresh_pair() : from;
      ops.push_back({from, m, false});
      ops.push_back({to, m, true});
      if (--count[from] == 0) count.erase(from);
      ++count[to];
      where[m] = to;
    }
    cycle.push_back(std::move(ops));
  }
  for (int b = 3; b >= 0; --b) {
    std::vector<Op> undo(cycle[b].rbegin(), cycle[b].rend());
    for (Op& op : undo) op.add = !op.add;
    cycle.push_back(std::move(undo));
  }

  const int saved = num_workers();
  set_num_workers(1);
  NextLevelEdges t(n);
  t.apply(build);
  size_t births = 0, deaths = 0, ops = 0;
  for (const auto& batch : cycle) {  // warm-up pass, counting the shape
    auto d = t.apply(batch);
    births += d.next_ins.size();
    deaths += d.next_del.size();
  }
  size_t next = 0;
  double ns = 0;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    auto d = t.apply(cycle[next]);
    benchmark::DoNotOptimize(d.next_ins.data());
    ns += std::chrono::duration<double, std::nano>(
              std::chrono::steady_clock::now() - start)
              .count();
    ops += cycle[next].size();
    next = (next + 1) % cycle.size();
  }
  set_num_workers(saved);
  state.counters["ns_per_op"] = ns / double(ops);
  state.counters["bytes_per_pair"] = double(t.bytes()) / double(t.size());
  state.counters["pairs"] = double(t.size());
  state.counters["births_per_batch"] = double(births) / double(cycle.size());
  state.counters["deaths_per_batch"] = double(deaths) / double(cycle.size());
  state.counters["num_cpus"] = double(std::thread::hardware_concurrency());
}
BENCHMARK(BM_PairTableApply)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace parspan

BENCHMARK_MAIN();
