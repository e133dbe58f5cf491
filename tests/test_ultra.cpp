// Tests for the ultra-sparse spanner (Lemma 5.1 / Theorem 1.4).
#include <gtest/gtest.h>

#include <unordered_set>

#include "core/ultra.hpp"
#include "graph/generators.hpp"
#include "verify/spanner_check.hpp"

namespace parspan {
namespace {

TEST(UltraSparseSpanner, InitIsValidSpanner) {
  for (uint64_t seed : {1u, 2u}) {
    // Mixed degrees: a dense core (heavy vertices) + sparse periphery.
    auto edges = gen_erdos_renyi(80, 900, seed);
    UltraConfig cfg;
    cfg.x = 2;
    cfg.seed = seed * 11 + 3;
    UltraSparseSpanner sp(80, edges, cfg);
    EXPECT_TRUE(sp.check_invariants());
    EXPECT_TRUE(
        is_spanner(80, edges, sp.spanner_edges(), sp.stretch_bound()))
        << "seed=" << seed << " bound=" << sp.stretch_bound();
  }
}

TEST(UltraSparseSpanner, UltraSparsity) {
  // Theorem 1.4: n + O(n/x) edges. With a forest-dominated composition the
  // edge count must stay close to n.
  const size_t n = 300;
  auto edges = gen_erdos_renyi(n, 3000, 5);
  UltraConfig cfg;
  cfg.x = 3;
  cfg.seed = 7;
  UltraSparseSpanner sp(n, edges, cfg);
  EXPECT_TRUE(sp.check_invariants());
  EXPECT_LE(sp.spanner_size(), n + n);  // generous O(n/x) slack at small n
}

// The Theorem 1.3 top spanner on the contracted graph is a Bentley–Saxe
// FullyDynamicSpanner: a stream shaped like the tenants benchmark workload
// (n = 4096, m = 8n, 1024-update batches) overflows its small partitions
// within a few batches, so rebuilds() must count them.
TEST(UltraSparseSpanner, TenantsShapedStreamRebuildsTheTopSpanner) {
  const size_t n = 4096;
  const size_t max_batches = 100;
  auto [initial, batches] =
      gen_mixed_stream(n, 8 * n, 1024, max_batches, 7 * 1000003ULL);
  UltraConfig cfg;
  cfg.seed = 1;
  UltraSparseSpanner sp(n, initial, cfg);
  EXPECT_EQ(sp.rebuilds(), 0u);
  for (size_t i = 0; i < batches.size() && sp.rebuilds() == 0; ++i)
    sp.update(batches[i].insertions, batches[i].deletions);
  EXPECT_GT(sp.rebuilds(), 0u);
  EXPECT_TRUE(sp.check_invariants());
}

// Lemma 5.3: a clustered vertex's H1 parent lies in its cluster. In these
// tenants shapes (tenant g of stream seed s: gen_mixed_stream(4096, 8n,
// 1024, ·, s * 1000003 + g) under UltraConfig seed 1 + g) a light ball
// visits a heavy vertex's head and takes it at its exact distance; the
// parent walk must then head for that head, not for the heavy vertex, or
// the parent edge leaves the cluster and may also be its pair's
// representative (H ∩ rep(S_next) ≠ ∅).
TEST(UltraSparseSpanner, TenantsShapesKeepParentsInCluster) {
  const size_t n = 4096;
  struct Shape {
    uint64_t stream_seed;
    uint32_t tenant;
  };
  for (Shape s : {Shape{5, 2}, Shape{1, 0}, Shape{11, 1}, Shape{12, 1}}) {
    auto [initial, batches] = gen_mixed_stream(
        n, 8 * n, 1024, 6, s.stream_seed * 1000003ULL + s.tenant);
    UltraConfig cfg;
    cfg.seed = 1 + s.tenant;
    UltraSparseSpanner sp(n, initial, cfg);
    EXPECT_TRUE(sp.check_invariants())
        << "seed " << s.stream_seed << " tenant " << s.tenant
        << " at construction";
    for (size_t b = 0; b < batches.size(); ++b) {
      sp.update(batches[b].insertions, batches[b].deletions);
      EXPECT_TRUE(sp.check_invariants())
          << "seed " << s.stream_seed << " tenant " << s.tenant
          << " after batch " << b;
    }
  }
}

class UltraRandom : public ::testing::TestWithParam<
                        std::tuple<size_t, size_t, uint32_t, uint64_t>> {};

TEST_P(UltraRandom, MixedStreamKeepsInvariants) {
  auto [n, m, x, seed] = GetParam();
  auto [initial, batches] = gen_mixed_stream(n, m, 16, 8, seed);
  UltraConfig cfg;
  cfg.x = x;
  cfg.seed = seed ^ 0xabcd;
  UltraSparseSpanner sp(n, initial, cfg);
  ASSERT_TRUE(sp.check_invariants());

  std::unordered_set<EdgeKey> live, mat;
  for (const Edge& e : initial) live.insert(e.key());
  for (const Edge& e : sp.spanner_edges()) mat.insert(e.key());

  for (auto& b : batches) {
    auto diff = sp.update(b.insertions, b.deletions);
    for (const Edge& e : b.deletions) live.erase(e.key());
    for (const Edge& e : b.insertions) live.insert(e.key());
    for (const Edge& e : diff.removed) {
      ASSERT_TRUE(mat.count(e.key()));
      mat.erase(e.key());
    }
    for (const Edge& e : diff.inserted) {
      ASSERT_TRUE(!mat.count(e.key()));
      mat.insert(e.key());
    }
    ASSERT_EQ(mat.size(), sp.spanner_size());
    ASSERT_TRUE(sp.check_invariants());
    std::vector<Edge> alive;
    for (EdgeKey ek : live) alive.push_back(edge_from_key(ek));
    ASSERT_TRUE(
        is_spanner(n, alive, sp.spanner_edges(), sp.stretch_bound()));
    for (const Edge& e : sp.spanner_edges())
      ASSERT_TRUE(live.count(e.key()));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, UltraRandom,
    ::testing::Values(
        std::make_tuple(size_t{30}, size_t{200}, uint32_t{2}, uint64_t{1}),
        std::make_tuple(size_t{40}, size_t{500}, uint32_t{2}, uint64_t{2}),
        std::make_tuple(size_t{50}, size_t{300}, uint32_t{3}, uint64_t{3}),
        std::make_tuple(size_t{25}, size_t{80}, uint32_t{2}, uint64_t{4}),
        std::make_tuple(size_t{60}, size_t{900}, uint32_t{4}, uint64_t{5})));

TEST(UltraSparseSpanner, DeleteEverything) {
  auto edges = gen_erdos_renyi(40, 400, 9);
  UltraConfig cfg;
  cfg.x = 2;
  cfg.seed = 13;
  UltraSparseSpanner sp(40, edges, cfg);
  auto diff = sp.delete_edges(edges);
  EXPECT_EQ(sp.spanner_size(), 0u);
  EXPECT_EQ(sp.num_edges(), 0u);
  EXPECT_TRUE(sp.check_invariants());
}

TEST(UltraSparseSpanner, SparseGraphBotComponents) {
  // Tiny disconnected components stay ⊥ and are covered by the H2 forest.
  std::vector<Edge> edges;
  for (VertexId b = 0; b < 30; b += 3) {
    edges.emplace_back(b, b + 1);
    edges.emplace_back(b + 1, b + 2);
  }
  UltraConfig cfg;
  cfg.x = 4;  // T = 80: everything light, components tiny
  cfg.seed = 3;
  UltraSparseSpanner sp(30, edges, cfg);
  EXPECT_TRUE(sp.check_invariants());
  EXPECT_TRUE(is_spanner(30, edges, sp.spanner_edges(), sp.stretch_bound()));
  // Components with no sampled vertex are ⊥-clusters in the H2 forest; the
  // spanner of a forest is the forest itself.
  EXPECT_EQ(sp.spanner_size(), edges.size());
}

}  // namespace
}  // namespace parspan
