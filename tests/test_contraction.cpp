// Tests for the Contract(G, x) layer (Lemma 4.1) and the nested-contraction
// sparse spanner (Theorem 1.3).
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <unordered_set>
#include <utility>

#include "core/contraction.hpp"
#include "core/sparse_spanner.hpp"
#include "graph/generators.hpp"
#include "parallel/csr.hpp"
#include "parallel/scheduler.hpp"
#include "util/rng.hpp"
#include "verify/spanner_check.hpp"

namespace parspan {
namespace {

TEST(ContractionLayer, InitInvariantsAndLemma41Postconditions) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    auto edges = gen_erdos_renyi(100, 400, seed);
    ContractionLayer layer(100, edges, 4.0, seed * 13 + 1);
    EXPECT_TRUE(layer.check_invariants());
    EXPECT_GE(layer.next_n(), 1u);
    // f(y) = y for sampled vertices.
    for (VertexId v = 0; v < 100; ++v) {
      if (layer.is_sampled(v)) EXPECT_EQ(layer.head(v), v);
    }
    // Every contracted edge has a live representative with matching heads.
    for (const Edge& p : layer.next_edges()) {
      Edge r = layer.rep(p);
      VertexId hu = layer.head(r.u), hv = layer.head(r.v);
      ASSERT_NE(hu, kNoVertex);
      ASSERT_NE(hv, kNoVertex);
      EXPECT_EQ(edge_key(layer.next_id(hu), layer.next_id(hv)), p.key());
    }
  }
}

TEST(ContractionLayer, DeleteAllEdges) {
  auto edges = gen_erdos_renyi(40, 150, 7);
  ContractionLayer layer(40, edges, 3.0, 5);
  auto res = layer.update({}, edges);
  EXPECT_EQ(layer.alive_edges(), 0u);
  EXPECT_TRUE(layer.next_edges().empty());
  EXPECT_EQ(layer.h_size(), 0u);
  EXPECT_TRUE(layer.check_invariants());
}

std::vector<std::vector<VertexId>> neighbor_lists(
    size_t n, const std::vector<Edge>& edges) {
  std::vector<std::vector<VertexId>> nbrs(n);
  for (const Edge& e : edges) {
    nbrs[e.u].push_back(e.v);
    nbrs[e.v].push_back(e.u);
  }
  return nbrs;
}

// Deleting a vertex's head edge removes the minimum arc of Adj(v): the
// cached minimum is rescanned and the head moves.
TEST(ContractionLayer, HeadMovesWhenItsMinimumArcLeaves) {
  const size_t n = 60;
  auto edges = gen_erdos_renyi(n, 300, 8);
  ContractionLayer layer(n, edges, 4.0, 12);
  size_t moved = 0, to_other_center = 0;
  for (VertexId v = 0; v < n && moved < 8; ++v) {
    VertexId h = layer.head(v);
    if (layer.is_sampled(v) || h == kNoVertex) continue;
    layer.update({}, {Edge(v, h)});
    ASSERT_TRUE(layer.check_invariants()) << "v=" << v;
    EXPECT_NE(layer.head(v), h);
    if (layer.head(v) != kNoVertex) ++to_other_center;
    ++moved;
  }
  EXPECT_EQ(moved, 8u);
  EXPECT_GT(to_other_center, 0u);
}

// Adj(v) is emptied and refilled within one batch (deletions apply first).
TEST(ContractionLayer, ArcListEmptiedAndRefilledInOneBatch) {
  const size_t n = 60;
  auto edges = gen_erdos_renyi(n, 300, 9);
  ContractionLayer layer(n, edges, 4.0, 13);
  auto nbrs = neighbor_lists(n, edges);
  size_t done = 0;
  for (VertexId v = 0; v < n && done < 4; ++v) {
    if (nbrs[v].size() < 3) continue;
    std::vector<Edge> incident;
    for (VertexId w : nbrs[v]) incident.push_back(Edge(v, w));
    size_t alive = layer.alive_edges();
    layer.update(incident, incident);
    ASSERT_TRUE(layer.check_invariants()) << "v=" << v;
    EXPECT_EQ(layer.alive_edges(), alive);
    ++done;
  }
  EXPECT_EQ(done, 4u);
}

// The same key deleted and re-inserted in one batch gets a fresh arc key;
// head edges are the interesting case (their H contribution is dropped
// and must come back).
TEST(ContractionLayer, SameKeyDeletedAndReinsertedInOneBatch) {
  const size_t n = 60;
  auto edges = gen_erdos_renyi(n, 300, 10);
  ContractionLayer layer(n, edges, 4.0, 14);
  size_t done = 0;
  for (VertexId v = 0; v < n && done < 6; ++v) {
    if (layer.is_sampled(v) || layer.head(v) == kNoVertex) continue;
    Edge e(v, layer.head(v));
    size_t alive = layer.alive_edges();
    layer.update({e}, {e});
    ASSERT_TRUE(layer.check_invariants()) << "v=" << v;
    EXPECT_EQ(layer.alive_edges(), alive);
    ++done;
  }
  EXPECT_EQ(done, 6u);
  layer.update({edges[0]}, {edges[0]});
  EXPECT_TRUE(layer.check_invariants());
}

// A vertex whose arcs are all unmarked (no neighbor in D) has head ⊥, and
// all its edges are in H. One marked arc is always the minimum, so
// inserting an edge to a D vertex makes that vertex the head; deleting it
// again returns the head to ⊥.
TEST(ContractionLayer, AllArcsUnmarkedMeansNoHead) {
  const size_t n = 60;
  auto edges = gen_erdos_renyi(n, 120, 11);
  ContractionLayer layer(n, edges, 6.0, 15);
  auto nbrs = neighbor_lists(n, edges);
  std::unordered_set<EdgeKey> h;
  for (const Edge& e : layer.h_edges()) h.insert(e.key());
  VertexId s = 0;
  while (!layer.is_sampled(s)) ++s;
  size_t found = 0;
  for (VertexId v = 0; v < n; ++v) {
    if (layer.is_sampled(v) || nbrs[v].empty()) continue;
    bool unmarked = std::none_of(nbrs[v].begin(), nbrs[v].end(),
                                 [&](VertexId w) { return layer.is_sampled(w); });
    if (!unmarked) continue;
    ++found;
    EXPECT_EQ(layer.head(v), kNoVertex) << "v=" << v;
    for (VertexId w : nbrs[v]) EXPECT_TRUE(h.count(edge_key(v, w)));
    if (found > 1) continue;
    layer.update({Edge(v, s)}, {});
    ASSERT_TRUE(layer.check_invariants());
    EXPECT_EQ(layer.head(v), s);
    layer.update({}, {Edge(v, s)});
    ASSERT_TRUE(layer.check_invariants());
    EXPECT_EQ(layer.head(v), kNoVertex);
  }
  EXPECT_GT(found, 0u);
}

/// a \ b over key-sorted edge lists.
std::vector<Edge> minus(const std::vector<Edge>& a,
                        const std::vector<Edge>& b) {
  std::vector<Edge> out;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(out));
  return out;
}

// Batches of thousands of updates, so the per-vertex phase runs as parallel
// tasks at 4 workers, each holding every same-key case: keys deleted twice;
// keys deleted and re-inserted, among them head edges whose arc an earlier
// swap-pop at the same vertex moves first; keys inserted twice or while
// present; self-loops and out-of-range endpoints. A model of the arc lists
// (swap-pops, then pushes, in batch order) counts the moved head arcs. S_next
// is every pair, and each composed diff must match S before and after. The
// lists and diffs must be equal at 1 and 4 workers.
TEST(ContractionLayer, SameKeyCasesAtParallelBatchSizes) {
  const size_t n = 3000, batches = 6;
  const int saved = num_workers();
  std::vector<ContractionLayer::UpdateResult> first_res;
  std::vector<SpannerDiff> first_diff;
  for (int workers : {1, 4}) {
    set_num_workers(workers);
    Rng rng(77);
    const std::vector<Edge> initial = gen_erdos_renyi(n, 6 * n, 5);
    ContractionLayer layer(n, initial, 4.0, 9);
    layer.compose({}, {layer.next_edges(), {}});
    std::vector<std::vector<VertexId>> adj(n);  // other endpoints by slot
    std::unordered_set<EdgeKey> present;
    for (const Edge& e : initial)
      if (e.u != e.v && present.insert(e.key()).second) {
        adj[e.u].push_back(e.v);
        adj[e.v].push_back(e.u);
      }
    for (size_t b = 0; b < batches; ++b) {
      std::vector<Edge> del, ins;
      // v's head edge whose arc is last in Adj(v): deleting v's first arc
      // before it moves it.
      std::unordered_set<EdgeKey> head_reborn;
      for (VertexId v = VertexId(rng.next_below(n));
           v < n && head_reborn.size() < 40; ++v) {
        const VertexId h = layer.head(v);
        if (layer.is_sampled(v) || h == kNoVertex || adj[v].size() < 2 ||
            adj[v].back() != h)
          continue;
        del.push_back(Edge(v, adj[v][0]));
        del.push_back(Edge(h, v));
        ins.push_back(Edge(v, h));
        head_reborn.insert(edge_key(v, h));
      }
      const std::vector<EdgeKey> alive(present.begin(), present.end());
      for (int i = 0; i < 1200; ++i) {
        const Edge e = edge_from_key(alive[rng.next_below(alive.size())]);
        del.push_back(rng.next_below(2) ? e : Edge(e.v, e.u));
        if (rng.next_below(4) == 0) del.push_back(e);
        if (rng.next_below(4) == 0) ins.push_back(Edge(e.v, e.u));
      }
      for (int i = 0; i < 1200; ++i) {
        const VertexId a = VertexId(rng.next_below(n));
        const VertexId c = VertexId(rng.next_below(n));
        ins.push_back(Edge(a, c));
        if (rng.next_below(6) == 0) ins.push_back(Edge(c, a));
        if (rng.next_below(10) == 0)
          ins.push_back(edge_from_key(alive[rng.next_below(alive.size())]));
      }
      for (VertexId i = 0; i < 20; ++i) {
        const VertexId v = VertexId(rng.next_below(n));
        del.push_back(Edge(v, v));
        ins.push_back(Edge(v, v));
        del.push_back(Edge(v, VertexId(n) + i));
        ins.push_back(Edge(VertexId(n) + i, v));
      }

      // Replay the batch on the model, as the layer resolves it.
      size_t deleted_twice = 0, reinserted = 0, moved_head = 0,
             inserted_twice = 0, inserted_present = 0, invalid = 0;
      std::unordered_set<EdgeKey> dead, born;
      for (const Edge& e : del) {
        if (e.u == e.v || e.u >= n || e.v >= n) ++invalid;
        if (!present.erase(e.key())) {
          deleted_twice += dead.count(e.key());
          continue;
        }
        dead.insert(e.key());
        for (auto [x, o] : {std::pair(e.u, e.v), std::pair(e.v, e.u)}) {
          std::vector<VertexId>& l = adj[x];
          const size_t i = std::find(l.begin(), l.end(), o) - l.begin();
          if (i + 1 != l.size() && layer.head(x) == l.back() &&
              head_reborn.count(edge_key(x, l.back())))
            ++moved_head;
          l[i] = l.back();
          l.pop_back();
        }
      }
      for (const Edge& e : ins) {
        if (e.u == e.v || e.u >= n || e.v >= n) {
          ++invalid;
        } else if (present.count(e.key())) {
          ++(born.count(e.key()) ? inserted_twice : inserted_present);
        } else {
          reinserted += dead.count(e.key());
          present.insert(e.key());
          born.insert(e.key());
          adj[e.u].push_back(e.v);
          adj[e.v].push_back(e.u);
        }
      }
      EXPECT_GT(deleted_twice, 0u) << "b=" << b;
      EXPECT_GT(reinserted, 0u) << "b=" << b;
      EXPECT_GT(moved_head, 0u) << "b=" << b;
      EXPECT_GT(inserted_twice, 0u) << "b=" << b;
      EXPECT_GT(inserted_present, 0u) << "b=" << b;
      EXPECT_GT(invalid, 0u) << "b=" << b;

      const std::vector<Edge> s_before = layer.spanner_edges();
      ContractionLayer::UpdateResult res = layer.update(ins, del);
      ASSERT_TRUE(layer.check_invariants()) << "workers=" << workers;
      ASSERT_EQ(layer.alive_edges(), present.size());
      SpannerDiff d = layer.compose(res, {res.next_ins, res.next_del});
      ASSERT_TRUE(layer.check_composed(layer.next_edges()));
      const std::vector<Edge> s_after = layer.spanner_edges();
      ASSERT_EQ(d.inserted, minus(s_after, s_before)) << "b=" << b;
      ASSERT_EQ(d.removed, minus(s_before, s_after)) << "b=" << b;
      if (workers == 1) {
        first_res.push_back(std::move(res));
        first_diff.push_back(std::move(d));
        continue;
      }
      const ContractionLayer::UpdateResult& want = first_res[b];
      EXPECT_EQ(res.next_ins, want.next_ins) << "b=" << b;
      EXPECT_EQ(res.next_del, want.next_del) << "b=" << b;
      EXPECT_EQ(res.rep_changed, want.rep_changed) << "b=" << b;
      EXPECT_EQ(res.del_rep, want.del_rep) << "b=" << b;
      EXPECT_EQ(res.old_rep, want.old_rep) << "b=" << b;
      EXPECT_EQ(res.h_ins, want.h_ins) << "b=" << b;
      EXPECT_EQ(res.h_del, want.h_del) << "b=" << b;
      EXPECT_EQ(d.inserted, first_diff[b].inserted) << "b=" << b;
      EXPECT_EQ(d.removed, first_diff[b].removed) << "b=" << b;
    }
  }
  set_num_workers(saved);
}

// In one batch, a contracted pair's only member (its representative) is
// deleted and a fresh edge joins the same pair. The pair must be reported
// in rep_changed: a dead record's id reused within the batch would make the
// old and new representatives compare equal, and the SparseSpanner above
// would keep the deleted edge as the pair's stand-in.
TEST(ContractionLayer, RepReplacedWithinOneBatchIsReported) {
  const size_t n = 40;
  const double x = 4.0;
  std::vector<Edge> edges;
  for (EdgeKey k : canonical_edge_keys(n, gen_erdos_renyi(n, 90, 21)))
    edges.push_back(edge_from_key(k));
  std::unordered_set<EdgeKey> present;
  for (const Edge& e : edges) present.insert(e.key());
  SparseSpannerConfig cfg;
  cfg.seed = 5;
  cfg.xs = {x};
  // The same layer SparseSpanner builds as its layer 0.
  const uint64_t layer_seed = hash_combine(cfg.seed, 0xc0);
  ContractionLayer probe(n, edges, x, layer_seed);
  auto pair_of = [&](VertexId a, VertexId b) {
    VertexId ha = probe.head(a), hb = probe.head(b);
    if (ha == kNoVertex || hb == kNoVertex || ha == hb) return kNoEdge;
    return edge_key(probe.next_id(ha), probe.next_id(hb));
  };
  // Inserting (c, d) moves no head if each endpoint is in D or its new arc
  // is unmarked (the other endpoint is not in D).
  auto keeps_heads = [&](VertexId c, VertexId d) {
    return (probe.is_sampled(c) || !probe.is_sampled(d)) &&
           (probe.is_sampled(d) || !probe.is_sampled(c));
  };
  size_t cases = 0, in_spanner = 0;
  for (const Edge& p : probe.next_edges()) {
    Edge r = probe.rep(p);
    // r must be the pair's only member and no endpoint's head edge.
    size_t members = std::count_if(edges.begin(), edges.end(), [&](Edge e) {
      return pair_of(e.u, e.v) == p.key();
    });
    if (members != 1 || probe.head(r.u) == r.v || probe.head(r.v) == r.u)
      continue;
    Edge fresh;
    for (VertexId c = 0; c < n && fresh.u == kNoVertex; ++c)
      for (VertexId d = 0; d < n; ++d)
        if (c != d && pair_of(c, d) == p.key() &&
            !present.count(edge_key(c, d)) && keeps_heads(c, d)) {
          fresh = Edge(c, d);
          break;
        }
    if (fresh.u == kNoVertex) continue;
    ++cases;

    ContractionLayer layer(n, edges, x, layer_seed);
    auto res = layer.update({fresh}, {r});
    ASSERT_TRUE(layer.check_invariants());
    EXPECT_TRUE(std::find(res.rep_changed.begin(), res.rep_changed.end(),
                          p) != res.rep_changed.end())
        << "pair " << p.u << "-" << p.v;
    EXPECT_EQ(layer.rep(p).key(), fresh.key());

    SparseSpanner sp(n, edges, cfg);
    if (sp.in_spanner(r)) ++in_spanner;  // the pair is in S_1
    sp.update({fresh}, {r});
    ASSERT_TRUE(sp.check_invariants()) << "pair " << p.u << "-" << p.v;
    EXPECT_FALSE(sp.in_spanner(r));
  }
  EXPECT_GT(cases, 0u);
  EXPECT_GT(in_spanner, 0u);
}

class ContractionRandom
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, double,
                                                 uint64_t>> {};

TEST_P(ContractionRandom, MixedStreamKeepsInvariants) {
  auto [n, m, x, seed] = GetParam();
  auto [initial, batches] = gen_mixed_stream(n, m, 24, 15, seed);
  ContractionLayer layer(n, initial, x, seed ^ 0xfeed);
  ASSERT_TRUE(layer.check_invariants());
  // Track the contracted graph against the layer's reports.
  std::unordered_set<EdgeKey> next_mat;
  for (const Edge& e : layer.next_edges()) next_mat.insert(e.key());
  std::unordered_set<EdgeKey> h_mat;
  for (const Edge& e : layer.h_edges()) h_mat.insert(e.key());

  for (auto& b : batches) {
    auto res = layer.update(b.insertions, b.deletions);
    for (const Edge& e : res.next_del) {
      ASSERT_TRUE(next_mat.count(e.key()));
      next_mat.erase(e.key());
    }
    for (const Edge& e : res.next_ins) {
      ASSERT_TRUE(!next_mat.count(e.key()));
      next_mat.insert(e.key());
    }
    for (const Edge& e : res.h_del) {
      ASSERT_TRUE(h_mat.count(e.key()));
      h_mat.erase(e.key());
    }
    for (const Edge& e : res.h_ins) {
      ASSERT_TRUE(!h_mat.count(e.key()));
      h_mat.insert(e.key());
    }
    ASSERT_TRUE(layer.check_invariants());
    // Materialized views agree.
    ASSERT_EQ(next_mat.size(), layer.next_edges().size());
    ASSERT_EQ(h_mat.size(), layer.h_size());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ContractionRandom,
    ::testing::Values(std::make_tuple(size_t{30}, size_t{100}, 2.0,
                                      uint64_t{1}),
                      std::make_tuple(size_t{50}, size_t{200}, 3.0,
                                      uint64_t{2}),
                      std::make_tuple(size_t{80}, size_t{240}, 5.0,
                                      uint64_t{3}),
                      std::make_tuple(size_t{25}, size_t{120}, 8.0,
                                      uint64_t{4})));

TEST(ContractionSchedule, ProductHitsTarget) {
  for (double target : {4.0, 10.0, 20.0, 200.0, 5000.0}) {
    auto xs = contraction_schedule(target);
    double prod = 1;
    for (double x : xs) {
      EXPECT_GE(x, 2.0);
      prod *= x;
    }
    EXPECT_GE(prod, target * 0.99);
  }
}

TEST(SparseSpanner, InitIsValidAndSparse) {
  const size_t n = 120;
  auto edges = gen_erdos_renyi(n, 1200, 3);
  SparseSpannerConfig cfg;
  cfg.seed = 17;
  SparseSpanner sp(n, edges, cfg);
  EXPECT_TRUE(sp.check_invariants());
  EXPECT_TRUE(is_spanner(n, edges, sp.spanner_edges(), sp.stretch_bound()))
      << "stretch_bound=" << sp.stretch_bound();
  // Theorem 1.3: O(n) edges — generous constant for small n.
  EXPECT_LE(sp.spanner_size(), 6 * n);
}

class SparseSpannerRandom
    : public ::testing::TestWithParam<std::tuple<size_t, size_t,
                                                 std::vector<double>,
                                                 uint64_t>> {};

TEST_P(SparseSpannerRandom, MixedStreamKeepsEverything) {
  auto [n, m, xs, seed] = GetParam();
  auto [initial, batches] = gen_mixed_stream(n, m, 20, 10, seed);
  SparseSpannerConfig cfg;
  cfg.seed = seed * 5 + 3;
  cfg.xs = xs;
  SparseSpanner sp(n, initial, cfg);
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
    ASSERT_TRUE(is_spanner(n, alive, sp.spanner_edges(),
                           sp.stretch_bound()));
    for (const Edge& e : sp.spanner_edges())
      ASSERT_TRUE(live.count(e.key()));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SparseSpannerRandom,
    ::testing::Values(
        std::make_tuple(size_t{40}, size_t{160}, std::vector<double>{},
                        uint64_t{1}),
        std::make_tuple(size_t{60}, size_t{300}, std::vector<double>{3.0},
                        uint64_t{2}),
        std::make_tuple(size_t{60}, size_t{300},
                        std::vector<double>{2.0, 2.0}, uint64_t{3}),
        std::make_tuple(size_t{80}, size_t{400},
                        std::vector<double>{3.0, 2.0, 2.0}, uint64_t{4}),
        std::make_tuple(size_t{30}, size_t{90}, std::vector<double>{4.0},
                        uint64_t{5})));

TEST(SparseSpanner, FullDeletionThenRebuild) {
  auto edges = gen_erdos_renyi(50, 250, 9);
  SparseSpannerConfig cfg;
  cfg.seed = 2;
  cfg.xs = {2.5, 2.0};
  SparseSpanner sp(50, edges, cfg);
  sp.delete_edges(edges);
  EXPECT_EQ(sp.spanner_size(), 0u);
  EXPECT_TRUE(sp.check_invariants());
  sp.insert_edges(edges);
  EXPECT_TRUE(sp.check_invariants());
  EXPECT_TRUE(is_spanner(50, edges, sp.spanner_edges(), sp.stretch_bound()));
}

}  // namespace
}  // namespace parspan
