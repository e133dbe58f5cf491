// Property-style parameterized sweeps across modules: invariants that must
// hold for every (structure, workload, seed) combination, beyond the
// targeted unit tests.
#include <gtest/gtest.h>

#include <unordered_set>

#include "core/cluster_spanner.hpp"
#include "core/es_tree.hpp"
#include "core/fully_dynamic_spanner.hpp"
#include "core/mpx_spanner.hpp"
#include "graph/generators.hpp"
#include "verify/spanner_check.hpp"

namespace parspan {
namespace {

// ---------------------------------------------------------------------------
// Property: ES-tree distances are monotone non-decreasing under deletions.
// ---------------------------------------------------------------------------
class EsMonotone : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EsMonotone, DistancesNeverDecrease) {
  uint64_t seed = GetParam();
  const size_t n = 60;
  auto edges = gen_erdos_renyi(n, 240, seed);
  std::vector<std::pair<VertexId, VertexId>> arcs;
  for (const Edge& e : edges) {
    arcs.push_back({e.u, e.v});
    arcs.push_back({e.v, e.u});
  }
  ESTree t;
  t.init(n, arcs, std::vector<uint32_t>(arcs.size(), 0), 0, 20);
  std::vector<uint32_t> prev(n);
  for (VertexId v = 0; v < n; ++v) prev[v] = t.dist(v);
  Rng rng(seed ^ 1);
  std::vector<uint32_t> order(edges.size());
  for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  for (size_t i = order.size(); i > 1; --i)
    std::swap(order[i - 1], order[rng.next_below(i)]);
  for (size_t lo = 0; lo < order.size(); lo += 24) {
    std::vector<uint32_t> doomed;
    for (size_t i = lo; i < std::min(order.size(), lo + 24); ++i) {
      doomed.push_back(2 * order[i]);
      doomed.push_back(2 * order[i] + 1);
    }
    t.delete_arcs(doomed);
    for (VertexId v = 0; v < n; ++v) {
      ASSERT_GE(t.dist(v), prev[v]) << "distance decreased at " << v;
      prev[v] = t.dist(v);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EsMonotone,
                         ::testing::Range(uint64_t{1}, uint64_t{9}));

// ---------------------------------------------------------------------------
// Property: the decremental cluster spanner's recourse matches its diffs —
// cumulative |diff| equals the symmetric difference of first/last spanner.
// Also: cluster priorities along tree paths are consistent (a vertex's
// cluster equals its tree root's cluster).
// ---------------------------------------------------------------------------
class ClusterConsistency : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ClusterConsistency, ClusterEqualsRootCluster) {
  uint64_t seed = GetParam();
  const size_t n = 50;
  auto edges = gen_erdos_renyi(n, 220, seed);
  ClusterSpannerConfig cfg;
  cfg.k = 3;
  cfg.seed = seed * 3 + 5;
  DecrementalClusterSpanner sp(n, edges, cfg);
  auto check_roots = [&]() {
    for (VertexId v = 0; v < n; ++v) {
      // Walk parent pointers to the first path-vertex child: its cluster
      // must equal Cluster(v).
      VertexId w = v;
      int guard = 0;
      while (guard++ < int(2 * sp.t() + 2)) {
        VertexId p = sp.es().parent(w);
        ASSERT_NE(p, kNoVertex);
        if (p >= n) break;  // w is the cluster center
        w = p;
      }
      ASSERT_EQ(sp.cluster(v), w);
      ASSERT_EQ(sp.cluster(w), w);
    }
  };
  check_roots();
  auto stream = gen_decremental_stream(edges, 30, seed ^ 0xf00);
  for (auto& b : stream) {
    sp.delete_edges(b.deletions);
    check_roots();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClusterConsistency,
                         ::testing::Range(uint64_t{1}, uint64_t{7}));

// ---------------------------------------------------------------------------
// Property: fully-dynamic spanner handles adversarially structured (but
// oblivious) update patterns: re-inserting previously deleted edges,
// alternating dense/sparse phases.
// ---------------------------------------------------------------------------
class FdChurn : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FdChurn, DeleteReinsertWavesStayValid) {
  uint64_t seed = GetParam();
  const size_t n = 36;
  auto all = gen_erdos_renyi(n, 180, seed);
  FullyDynamicSpannerConfig cfg;
  cfg.k = 2;
  cfg.seed = seed + 77;
  FullyDynamicSpanner sp(n, all, cfg);
  Rng rng(seed ^ 0xc0ffee);
  std::unordered_set<EdgeKey> live;
  for (auto& e : all) live.insert(e.key());
  for (int wave = 0; wave < 6; ++wave) {
    // Delete a random half, then re-insert a random subset of the dead.
    std::vector<Edge> dels, inss;
    for (auto& e : all) {
      bool alive = live.count(e.key()) > 0;
      if (alive && rng.next_bool(0.5)) {
        dels.push_back(e);
        live.erase(e.key());
      } else if (!alive && rng.next_bool(0.6)) {
        inss.push_back(e);
        live.insert(e.key());
      }
    }
    sp.update(inss, dels);
    ASSERT_TRUE(sp.check_invariants());
    ASSERT_EQ(sp.num_edges(), live.size());
    std::vector<Edge> alive;
    for (EdgeKey ek : live) alive.push_back(edge_from_key(ek));
    ASSERT_TRUE(is_spanner(n, alive, sp.spanner_edges(), 3));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FdChurn,
                         ::testing::Range(uint64_t{1}, uint64_t{7}));

// ---------------------------------------------------------------------------
// Property: MonotoneSpanner diffs net to the symmetric difference.
// ---------------------------------------------------------------------------
class MonotoneDiffs : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MonotoneDiffs, DiffsComposeExactly) {
  uint64_t seed = GetParam();
  const size_t n = 30;
  auto edges = gen_erdos_renyi(n, 120, seed);
  MonotoneSpannerConfig cfg;
  cfg.seed = seed * 13;
  cfg.instances = 8;
  MonotoneSpanner sp(n, edges, cfg);
  std::unordered_set<EdgeKey> mat;
  for (auto& e : sp.spanner_edges()) mat.insert(e.key());
  auto stream = gen_decremental_stream(edges, 17, seed ^ 3);
  for (auto& b : stream) {
    auto d = sp.delete_edges(b.deletions);
    for (auto& e : d.removed) ASSERT_EQ(mat.erase(e.key()), 1u);
    for (auto& e : d.inserted) ASSERT_TRUE(mat.insert(e.key()).second);
    std::unordered_set<EdgeKey> now;
    for (auto& e : sp.spanner_edges()) now.insert(e.key());
    ASSERT_EQ(mat, now);
  }
  ASSERT_TRUE(mat.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, MonotoneDiffs,
                         ::testing::Range(uint64_t{1}, uint64_t{6}));

// ---------------------------------------------------------------------------
// Property: structured graphs (grid, cycle, regular) keep all invariants
// through full decremental runs at several k.
// ---------------------------------------------------------------------------
class StructuredGraphs
    : public ::testing::TestWithParam<std::tuple<int, uint32_t>> {};

TEST_P(StructuredGraphs, FullDecrementalRun) {
  auto [shape, k] = GetParam();
  std::vector<Edge> edges;
  size_t n = 0;
  switch (shape) {
    case 0:
      n = 49;
      edges = gen_grid(7, 7);
      break;
    case 1:
      n = 40;
      edges = gen_cycle(40);
      break;
    case 2:
      n = 36;
      edges = gen_random_regular(36, 6, 5);
      break;
    default:
      n = 30;
      edges = gen_star(30);
  }
  ClusterSpannerConfig cfg;
  cfg.k = k;
  cfg.seed = 100 + shape;
  DecrementalClusterSpanner sp(n, edges, cfg);
  ASSERT_TRUE(sp.check_invariants());
  ASSERT_TRUE(is_spanner(n, edges, sp.spanner_edges(), 2 * k - 1));
  auto stream = gen_decremental_stream(edges, 11, 7 + shape);
  std::unordered_set<EdgeKey> dead;
  for (auto& b : stream) {
    sp.delete_edges(b.deletions);
    for (auto& e : b.deletions) dead.insert(e.key());
    ASSERT_TRUE(sp.check_invariants());
    std::vector<Edge> alive;
    for (auto& e : edges)
      if (!dead.count(e.key())) alive.push_back(e);
    ASSERT_TRUE(is_spanner(n, alive, sp.spanner_edges(), 2 * k - 1));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, StructuredGraphs,
    ::testing::Combine(::testing::Values(0, 1, 2, 3),
                       ::testing::Values(uint32_t{2}, uint32_t{3})));

}  // namespace
}  // namespace parspan
