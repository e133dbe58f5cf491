// Tests for the dynamic spanning forest substrate (SmallComponentForest).
#include <gtest/gtest.h>

#include <unordered_set>

#include "connectivity/dynamic_forest.hpp"
#include "graph/dynamic_graph.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace parspan {
namespace {

/// Owns the subgraph the forest reads, as UltraSparseSpanner does: applies
/// a batch to a DynamicGraph, then rebuilds the forest around the endpoints
/// of the edges that actually changed.
struct ForestHarness {
  DynamicGraph g;
  SmallComponentForest f;

  explicit ForestHarness(size_t n) : g(n), f(n) {}

  auto nbrs() const {
    return [this](VertexId v, auto&& fn) {
      for (VertexId w : g.neighbors(v)) fn(w);
    };
  }

  SpannerDiff update(const std::vector<Edge>& ins,
                     const std::vector<Edge>& del) {
    std::vector<VertexId> seeds;
    for (const auto& applied : {g.erase_edges(del), g.insert_edges(ins)})
      for (const Edge& e : applied) {
        seeds.push_back(e.u);
        seeds.push_back(e.v);
      }
    DiffAccumulator churn;
    f.rebuild(seeds, nbrs(), churn);
    return churn.drain();
  }

  bool check_invariants() const { return f.check_invariants(nbrs()); }
  bool connected(VertexId u, VertexId v) const { return f.connected(u, v); }
  size_t forest_size() const { return f.forest_size(); }
  std::vector<Edge> forest_edges() const { return f.forest_edges(); }
  size_t num_edges() const { return g.num_edges(); }
};

TEST(SmallComponentForest, LinkAndCut) {
  ForestHarness f(6);
  auto d1 = f.update({{0, 1}, {1, 2}, {3, 4}}, {});
  EXPECT_EQ(d1.inserted.size(), 3u);  // all tree edges
  EXPECT_TRUE(f.connected(0, 2));
  EXPECT_FALSE(f.connected(0, 3));
  auto d2 = f.update({{2, 3}}, {});
  EXPECT_TRUE(f.connected(0, 4));
  auto d3 = f.update({}, {{1, 2}});
  EXPECT_FALSE(f.connected(0, 2));
  EXPECT_TRUE(f.connected(2, 4));
  EXPECT_TRUE(f.check_invariants());
  bool saw_removed = false;
  for (const Edge& e : d3.removed) saw_removed |= (e.key() == edge_key(1, 2));
  EXPECT_TRUE(saw_removed);
}

TEST(SmallComponentForest, CycleDeletionKeepsConnectivity) {
  ForestHarness f(5);
  f.update(gen_cycle(5), {});
  EXPECT_EQ(f.forest_size(), 4u);
  // Deleting one tree edge must reroute through the cycle.
  auto tree = f.forest_edges();
  f.update({}, {tree[0]});
  EXPECT_EQ(f.forest_size(), 4u);
  for (VertexId v = 1; v < 5; ++v) EXPECT_TRUE(f.connected(0, v));
  EXPECT_TRUE(f.check_invariants());
}

TEST(SmallComponentForest, RandomizedAgainstBfsOracle) {
  Rng rng(31);
  const size_t n = 40;
  ForestHarness f(n);
  std::unordered_set<EdgeKey> live;
  for (int step = 0; step < 150; ++step) {
    std::vector<Edge> ins, del;
    for (int i = 0; i < 6; ++i) {
      VertexId u = VertexId(rng.next_below(n));
      VertexId v = VertexId(rng.next_below(n));
      if (u == v) continue;
      EdgeKey k = edge_key(u, v);
      if (live.count(k)) {
        if (rng.next_bool(0.5)) {
          del.push_back(edge_from_key(k));
          live.erase(k);
        }
      } else {
        ins.push_back(edge_from_key(k));
        live.insert(k);
      }
    }
    auto diff = f.update(ins, del);
    ASSERT_TRUE(f.check_invariants()) << "step " << step;
    ASSERT_EQ(f.num_edges(), live.size());
  }
}

TEST(SmallComponentForest, BatchDeleteEverything) {
  auto edges = gen_erdos_renyi(30, 100, 3);
  ForestHarness f(30);
  f.update(edges, {});
  f.update({}, edges);
  EXPECT_EQ(f.forest_size(), 0u);
  EXPECT_EQ(f.num_edges(), 0u);
  EXPECT_TRUE(f.check_invariants());
}

}  // namespace
}  // namespace parspan
