// Tests for the batch-dynamic Even-Shiloach tree (Theorem 1.2).
//
// The main weapon is the randomized oracle test: delete random arc batches
// and after each batch compare distances/tree validity against a
// from-scratch bounded BFS (ESTree::check_invariants). A second oracle test
// interleaves priority moves with the deletions, the way the clustering
// layer drives the tree.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "core/es_tree.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace parspan {
namespace {

// Builds directed arcs (both directions) from undirected edges, keys are
// arbitrary distinct values (arc index).
struct ArcBuild {
  std::vector<std::pair<VertexId, VertexId>> arcs;
  std::vector<uint64_t> keys;
  // arc ids per undirected edge: [2i], [2i+1]
  void add_undirected(const std::vector<Edge>& edges) {
    for (const Edge& e : edges) {
      arcs.push_back({e.u, e.v});
      keys.push_back(arcs.size());
      arcs.push_back({e.v, e.u});
      keys.push_back(arcs.size());
    }
  }
};

TEST(ESTree, InitDistancesOnPath) {
  auto edges = gen_path(10);
  ArcBuild b;
  b.add_undirected(edges);
  ESTree t;
  t.init(10, b.arcs, b.keys, 0, 20);
  for (VertexId v = 0; v < 10; ++v) EXPECT_EQ(t.dist(v), v);
  EXPECT_TRUE(t.check_invariants());
}

TEST(ESTree, DepthBoundCutsOff) {
  auto edges = gen_path(10);
  ArcBuild b;
  b.add_undirected(edges);
  ESTree t;
  t.init(10, b.arcs, b.keys, 0, 4);
  EXPECT_EQ(t.dist(4), 4u);
  EXPECT_EQ(t.dist(5), 5u);  // = L+1: out of tree
  EXPECT_EQ(t.parent(5), kNoVertex);
  EXPECT_TRUE(t.check_invariants());
}

TEST(ESTree, SingleDeletionReroutes) {
  // Cycle 0-1-2-3-0: deleting arc (0,1)+(1,0) makes dist(1) = 3 via 3,2.
  auto edges = gen_cycle(4);
  ArcBuild b;
  b.add_undirected(edges);
  ESTree t;
  t.init(4, b.arcs, b.keys, 0, 10);
  EXPECT_EQ(t.dist(1), 1u);
  // Find arc ids of (0,1) and (1,0).
  std::vector<uint32_t> doomed;
  for (uint32_t a = 0; a < t.num_arcs(); ++a) {
    auto& arc = t.arc(a);
    if ((arc.src == 0 && arc.dst == 1) || (arc.src == 1 && arc.dst == 0))
      doomed.push_back(a);
  }
  auto rep = t.delete_arcs(doomed);
  EXPECT_EQ(t.dist(1), 3u);
  EXPECT_EQ(t.dist(2), 2u);
  EXPECT_EQ(t.dist(3), 1u);
  EXPECT_TRUE(t.check_invariants());
  bool saw_1 = false;
  for (auto& [v, old_arc] : rep.parent_changed) saw_1 |= (v == 1);
  EXPECT_TRUE(saw_1);
}

TEST(ESTree, DisconnectionDropsSubtree) {
  auto edges = gen_path(6);
  ArcBuild b;
  b.add_undirected(edges);
  ESTree t;
  t.init(6, b.arcs, b.keys, 0, 10);
  // Delete both arcs of edge (2,3): vertices 3,4,5 leave the tree.
  std::vector<uint32_t> doomed;
  for (uint32_t a = 0; a < t.num_arcs(); ++a) {
    auto& arc = t.arc(a);
    if (edge_key(arc.src, arc.dst) == edge_key(2, 3)) doomed.push_back(a);
  }
  t.delete_arcs(doomed);
  EXPECT_EQ(t.dist(2), 2u);
  EXPECT_EQ(t.dist(3), 11u);
  EXPECT_EQ(t.dist(5), 11u);
  EXPECT_EQ(t.parent(4), kNoVertex);
  EXPECT_TRUE(t.check_invariants());
}

TEST(ESTree, DoubleDeleteIgnored) {
  auto edges = gen_cycle(5);
  ArcBuild b;
  b.add_undirected(edges);
  ESTree t;
  t.init(5, b.arcs, b.keys, 0, 10);
  t.delete_arcs({0, 1});
  auto rep = t.delete_arcs({0, 1});  // no-op
  EXPECT_TRUE(rep.parent_changed.empty());
  EXPECT_TRUE(t.check_invariants());
}

class ESTreeRandom : public ::testing::TestWithParam<
                         std::tuple<size_t, size_t, uint32_t, uint64_t>> {};

TEST_P(ESTreeRandom, BatchedDeletionsMatchBfsOracle) {
  auto [n, m, L, seed] = GetParam();
  auto edges = gen_erdos_renyi(n, m, seed);
  ArcBuild b;
  b.add_undirected(edges);
  ESTree t;
  t.init(n, b.arcs, b.keys, 0, L);
  ASSERT_TRUE(t.check_invariants());

  Rng rng(seed ^ 0xfeed);
  std::vector<uint32_t> alive(t.num_arcs());
  for (uint32_t a = 0; a < alive.size(); ++a) alive[a] = a;
  // Shuffle undirected edge ids; delete both arcs of each edge together.
  std::vector<uint32_t> order(edges.size());
  for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  for (size_t i = order.size(); i > 1; --i)
    std::swap(order[i - 1], order[rng.next_below(i)]);

  size_t batch = 1 + rng.next_below(16);
  for (size_t lo = 0; lo < order.size(); lo += batch) {
    std::vector<uint32_t> doomed;
    for (size_t i = lo; i < std::min(order.size(), lo + batch); ++i) {
      doomed.push_back(2 * order[i]);
      doomed.push_back(2 * order[i] + 1);
    }
    t.delete_arcs(doomed);
    ASSERT_TRUE(t.check_invariants())
        << "n=" << n << " m=" << m << " L=" << L << " seed=" << seed
        << " after batch at " << lo;
  }
  // Everything deleted: only the source remains at distance 0.
  EXPECT_EQ(t.dist(0), 0u);
  for (VertexId v = 1; v < n; ++v) EXPECT_EQ(t.dist(v), L + 1);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ESTreeRandom,
    ::testing::Values(
        std::make_tuple(size_t{30}, size_t{60}, uint32_t{5}, uint64_t{1}),
        std::make_tuple(size_t{30}, size_t{60}, uint32_t{30}, uint64_t{2}),
        std::make_tuple(size_t{50}, size_t{120}, uint32_t{8}, uint64_t{3}),
        std::make_tuple(size_t{50}, size_t{200}, uint32_t{50}, uint64_t{4}),
        std::make_tuple(size_t{80}, size_t{160}, uint32_t{10}, uint64_t{5}),
        std::make_tuple(size_t{80}, size_t{400}, uint32_t{4}, uint64_t{6}),
        std::make_tuple(size_t{120}, size_t{300}, uint32_t{15}, uint64_t{7}),
        std::make_tuple(size_t{17}, size_t{40}, uint32_t{3}, uint64_t{8})));

class ESTreePriorityMoves
    : public ::testing::TestWithParam<
          std::tuple<size_t, size_t, uint32_t, uint64_t>> {};

// Random key moves (up, down, to the head and to the tail of In(dst)) mixed
// with batched deletions. Each move that can break Invariant A1 is followed
// by the repair the cluster layer makes: a parent moved down is rescanned
// from its pointer; a parent moved up, or another arc moved above the
// parent's key, is rescanned from the head.
TEST_P(ESTreePriorityMoves, MovesAndDeletionsMatchBfsOracle) {
  auto [n, m, L, seed] = GetParam();
  auto edges = gen_erdos_renyi(n, m, seed);
  Rng rng(seed ^ 0xbeef);
  ArcBuild b;
  b.add_undirected(edges);
  // Keys start in a band far from both ends, so head/tail moves never
  // leave the valid range.
  constexpr uint64_t kBase = uint64_t{1} << 40;
  std::vector<std::set<uint64_t>> in_keys(n);
  for (size_t a = 0; a < b.arcs.size(); ++a) {
    uint64_t k;
    do {
      k = kBase + rng.next_below(uint64_t{1} << 32);
    } while (!in_keys[b.arcs[a].second].insert(k).second);
    b.keys[a] = k;
  }
  ESTree t;
  t.init(n, b.arcs, b.keys, 0, L);
  ASSERT_TRUE(t.check_invariants());

  std::vector<uint32_t> order(edges.size());
  for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  for (size_t i = order.size(); i > 1; --i)
    std::swap(order[i - 1], order[rng.next_below(i)]);

  auto move_arc = [&](uint32_t a) {
    const ESTree::Arc& arc = t.arc(a);
    VertexId v = arc.dst;
    std::set<uint64_t>& ks = in_keys[v];
    uint64_t old_key = arc.key, new_key;
    do {
      switch (rng.next_below(4)) {
        case 0:  // up, past a random number of entries
          new_key = old_key + 1 + rng.next_below(uint64_t{1} << 31);
          break;
        case 1:  // down
          new_key = old_key - 1 - rng.next_below(uint64_t{1} << 31);
          break;
        case 2:  // to the head
          new_key = *ks.rbegin() + 1 + rng.next_below(4);
          break;
        default:  // to the tail
          new_key = *ks.begin() - 1 - rng.next_below(4);
      }
    } while (ks.count(new_key));
    int32_t parent = t.parent_arc(v);
    uint64_t parent_key = parent == ESTree::kNoArc ? 0 : t.arc(parent).key;
    ks.erase(old_key);
    ks.insert(new_key);
    bool was_parent = t.update_arc_priority(a, new_key);
    ASSERT_EQ(was_parent, parent == int32_t(a));
    if (was_parent && new_key < old_key)
      t.rescan(v);
    else if (parent != ESTree::kNoArc && new_key > parent_key)
      t.rescan_from_head(v);
  };

  size_t batch = 1 + rng.next_below(8);
  for (size_t lo = 0; lo < order.size(); lo += batch) {
    size_t moves = rng.next_below(24);
    for (size_t i = 0; i < moves; ++i) {
      uint32_t a = uint32_t(rng.next_below(t.num_arcs()));
      if (t.arc(a).valid) move_arc(a);
    }
    ASSERT_TRUE(t.check_invariants()) << "seed=" << seed << " moves at " << lo;
    std::vector<uint32_t> doomed;
    for (size_t i = lo; i < std::min(order.size(), lo + batch); ++i) {
      for (uint32_t a : {2 * order[i], 2 * order[i] + 1}) {
        doomed.push_back(a);
        in_keys[t.arc(a).dst].erase(t.arc(a).key);
      }
    }
    t.delete_arcs(doomed);
    ASSERT_TRUE(t.check_invariants())
        << "seed=" << seed << " deletions at " << lo;
  }
  for (VertexId v = 1; v < n; ++v) EXPECT_EQ(t.dist(v), L + 1);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ESTreePriorityMoves,
    ::testing::Values(
        std::make_tuple(size_t{40}, size_t{160}, uint32_t{6}, uint64_t{11}),
        std::make_tuple(size_t{60}, size_t{300}, uint32_t{12}, uint64_t{12}),
        std::make_tuple(size_t{100}, size_t{250}, uint32_t{40}, uint64_t{13}),
        std::make_tuple(size_t{25}, size_t{200}, uint32_t{3}, uint64_t{14})));

TEST(ESTree, PriorityOrderDeterminesParent) {
  // Diamond: 0->1, 0->2, 1->3, 2->3. Parent of 3 should be the in-arc with
  // the larger key.
  std::vector<std::pair<VertexId, VertexId>> arcs = {
      {0, 1}, {0, 2}, {1, 3}, {2, 3}};
  std::vector<uint64_t> keys = {5, 6, 100, 50};  // arc (1,3) has higher key
  ESTree t;
  t.init(4, arcs, keys, 0, 5);
  EXPECT_EQ(t.parent(3), 1u);
  // Lower the key of arc 2 = (1,3) below arc 3 = (2,3): rescan switches.
  bool was_parent = t.update_arc_priority(2, 10);
  EXPECT_TRUE(was_parent);
  EXPECT_TRUE(t.rescan(3));
  EXPECT_EQ(t.parent(3), 2u);
  EXPECT_TRUE(t.check_invariants());
}

TEST(ESTree, RescanNoChangeWhenStillBest) {
  std::vector<std::pair<VertexId, VertexId>> arcs = {
      {0, 1}, {0, 2}, {1, 3}, {2, 3}};
  std::vector<uint64_t> keys = {5, 6, 100, 50};
  ESTree t;
  t.init(4, arcs, keys, 0, 5);
  // Drop parent's key but keep it above the alternative.
  t.update_arc_priority(2, 60);
  EXPECT_FALSE(t.rescan(3));
  EXPECT_EQ(t.parent(3), 1u);
  EXPECT_TRUE(t.check_invariants());
}

TEST(ESTree, WorkCountersAccumulate) {
  auto edges = gen_erdos_renyi(100, 400, 9);
  ArcBuild b;
  b.add_undirected(edges);
  ESTree t;
  t.init(100, b.arcs, b.keys, 0, 20);
  auto before = t.counters().list_ops;
  t.delete_arcs({0, 1, 2, 3});
  EXPECT_GT(t.counters().list_ops, before);
}

TEST(ESTree, ChildCascadeDepth) {
  // Long path: deleting the first edge forces the whole path out of the
  // tree — the cascade must touch every vertex exactly once per level.
  const size_t n = 200;
  auto edges = gen_path(n);
  ArcBuild b;
  b.add_undirected(edges);
  ESTree t;
  t.init(n, b.arcs, b.keys, 0, uint32_t(n));
  std::vector<uint32_t> doomed = {0, 1};  // both arcs of edge (0,1)
  auto rep = t.delete_arcs(doomed);
  EXPECT_TRUE(t.check_invariants());
  for (VertexId v = 1; v < n; ++v) EXPECT_EQ(t.dist(v), n + 1);
  EXPECT_EQ(rep.parent_changed.size(), n - 1);
}

}  // namespace
}  // namespace parspan
