// UltraSparseSpanner: the batch-dynamic ultra-sparse spanner of Theorem 1.4
// — n + O(n/x) edges with stretch O(x log x · log n · poly(log log n)) —
// via the single contraction ContractUltra(G, x) of Lemma 5.1 composed with
// the sparse spanner of Theorem 1.3.
//
// ContractUltra (paper §5.1-§5.2):
//  * D ⊆ V sampled once with probability 1/x; rand_v a fixed random value
//    per vertex (the tie-breaking permutation P).
//  * v is HEAVY if deg(v) >= T = ceil(10 x log2 x), else LIGHT (the status
//    is dynamic; crossings are handled as recomputations).
//  * Head(v): sampled vertices head to themselves. Heavy vertices head to
//    the sampled neighbor minimizing rand (else themselves, joining D').
//    Light vertices run the bounded BFS of Algorithm 5 — radius R = T,
//    never branching through heavy vertices — and head to the closest
//    D ∪ D' member (ties by rand), becoming ⊥ when their whole (light)
//    component is exhausted with no candidate, or heading to themselves
//    when the radius truncates.
//  * H1 = the per-cluster shortest-path forest: one parent edge per
//    clustered vertex (Lemma 5.3 guarantees the parent is in-cluster).
//  * H2 = a spanning forest of the edges with both endpoints ⊥, maintained
//    by SmallComponentForest (the [AABD19] substitution, DESIGN.md §1)
//    over a ⊥-filtered view of the graph: the forest keeps no copy of it.
//  * NextLevelEdges buckets + representatives map the contracted graph
//    (over the original vertex-id space, as in the paper's white-box use
//    of Theorem 1.3) into a SparseSpanner. The table is the one the
//    contraction layers use (container/next_level_edges.hpp, edge-key
//    members), and S = H ∪ rep(S_next) with H = H1 ∪ forest(H2) is the
//    same SpannerComposition step SparseSpanner runs per layer.
//
// After a batch, recomputation follows the paper exactly: heavy heads are
// refreshed at updated endpoints first; Algorithm 6's bounded BFS then
// collects every light vertex whose Algorithm-5 ball was touched, and those
// are recomputed against the committed heavy heads.
//
// Layout & parallelism (DESIGN.md §7.2): adjacency is the flat DynamicGraph
// substrate (per-vertex dense vectors + one flat position index); the
// pair table and the composition are flat open-addressing tables; the
// Algorithm-5 balls run on epoch-stamped per-thread scratch.
// Each recomputation phase is two-phase — head *computation* is a
// parallel_for over the affected vertices (reads committed state only),
// then the *commit* fills the phase's table ops in parallel, in the order
// a serial commit in ascending vertex order would issue them. The whole
// batch's ops go through one NextLevelEdges::apply, H and H2 churn is
// netted (order-free), and the batch diff drains key-sorted, so output
// never depends on the worker-thread count.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "connectivity/dynamic_forest.hpp"
#include "container/next_level_edges.hpp"
#include "core/composition.hpp"
#include "core/sparse_spanner.hpp"
#include "graph/dynamic_graph.hpp"
#include "util/types.hpp"

namespace parspan {

struct UltraConfig {
  /// Integer contraction parameter x >= 2 (paper: 2 <= x <=
  /// O(log log n / (log log log n)^2)).
  uint32_t x = 2;
  uint64_t seed = 1;
  /// Configuration of the Theorem 1.3 structure on the contracted graph
  /// (its seed is derived from `seed`).
  SparseSpannerConfig next;
};

class UltraSparseSpanner {
 public:
  UltraSparseSpanner(size_t n, const std::vector<Edge>& edges,
                     const UltraConfig& cfg);

  size_t num_vertices() const { return n_; }
  size_t num_edges() const { return graph_.num_edges(); }
  size_t spanner_size() const { return compose_.size(); }
  std::vector<Edge> spanner_edges() const { return compose_.edges(); }
  bool in_spanner(Edge e) const { return compose_.contains(e.key()); }

  /// Applies one batch (deletions then insertions); returns the net spanner
  /// diff, both sides sorted by canonical key (deterministic across thread
  /// counts — DESIGN.md §7).
  SpannerDiff update(const std::vector<Edge>& insertions,
                     const std::vector<Edge>& deletions);
  SpannerDiff insert_edges(const std::vector<Edge>& ins) {
    return update(ins, {});
  }
  SpannerDiff delete_edges(const std::vector<Edge>& del) {
    return update({}, del);
  }

  /// Head of v: v itself for centers/unclustered, kNoVertex for ⊥.
  VertexId head(VertexId v) const { return head_[v]; }
  bool is_sampled(VertexId v) const { return sampled_[v] != 0; }

  /// Composed stretch witness: 21 x log x · (L+1) over the next level's L.
  uint32_t stretch_bound() const;

  bool check_invariants() const;

  /// Bentley–Saxe instance rebuilds inside the next level's top spanner.
  uint64_t rebuilds() const { return next_->rebuilds(); }

 private:
  static constexpr VertexId kBot = kNoVertex;

  struct HeadResult {
    VertexId head = kBot;
    VertexId par = kNoVertex;  // neighbor toward the head (kNoVertex: none)
  };

  /// Epoch-stamped scratch for one Algorithm-5 ball: O(ball) touched words
  /// per call, no per-call allocation after warm-up. One instance per
  /// worker thread (compute_head runs under parallel_for).
  struct HeadScratch {
    std::vector<uint32_t> dist;   // valid iff stamp[v] == epoch
    std::vector<VertexId> par;    // BFS parent toward the source
    std::vector<uint64_t> stamp;
    std::vector<VertexId> frontier, next;
    uint64_t epoch = 0;

    void ensure(size_t n) {
      if (stamp.size() < n) {
        dist.resize(n);
        par.resize(n);
        stamp.resize(n, 0);
      }
    }
  };

  bool heavy(VertexId v) const { return graph_.degree(v) >= T_; }

  /// H1 parent edge of v under head result hr: kNoEdge unless v is
  /// clustered under another vertex.
  static EdgeKey par_edge_of(VertexId v, const HeadResult& hr) {
    if (hr.head == kBot || hr.head == v) return kNoEdge;
    assert(hr.par != kNoVertex);
    return edge_key(v, hr.par);
  }

  /// Algorithm 5 (light) / neighbor-min (heavy). Reads committed heavy
  /// heads; does not mutate structure state (scratch is caller-owned).
  HeadResult compute_head(VertexId v, HeadScratch& hs) const;

  /// Algorithm 6: light vertices whose Algorithm-5 ball contains a seed,
  /// branching through light vertices and through heavy seeds. Returns the
  /// affected light vertices sorted ascending.
  std::vector<VertexId> light_need_recompute(
      const std::vector<VertexId>& seeds);

  using Table = NextLevelEdges<EdgeKey>;

  /// Contracted pair of an edge whose endpoints head to hu and hv, or
  /// kNoEdge if it is intra-cluster / touches ⊥.
  static EdgeKey pair_of(VertexId hu, VertexId hv) {
    if (hu == kBot || hv == kBot || hu == hv) return kNoEdge;
    return edge_key(hu, hv);
  }
  EdgeKey pair_key_of(Edge e) const { return pair_of(head_[e.u], head_[e.v]); }
  bool edge_in_h2(Edge e) const {
    return head_[e.u] == kBot && head_[e.v] == kBot;
  }
  /// The H2 subgraph as the forest's neighbor view of graph_.
  auto h2_nbrs() const {
    return [this](VertexId v, auto&& fn) {
      if (head_[v] != kBot) return;
      for (VertexId w : graph_.neighbors(v))
        if (head_[w] == kBot) fn(w);
    };
  }

  /// Appends to `ops` the table ops of edges leaving (!add) or joining the
  /// graph.
  void emit_edge_ops(std::vector<Table::Op>& ops,
                     const std::vector<Edge>& edges, bool add) const;
  /// Commits one recomputation phase: vertices vs[i] (ascending) take
  /// heads hrs[i]. Their edges' table ops go to `ops` as a serial commit
  /// in ascending order would issue them.
  void commit_heads(std::vector<Table::Op>& ops,
                    const std::vector<VertexId>& vs,
                    const std::vector<HeadResult>& hrs);

  /// H = H1 ∪ forest(H2).
  std::vector<Edge> h_edges() const;
  /// Representative lookup for next-level pairs.
  SpannerComposition::RepOf rep_of() const;

  size_t n_ = 0;
  UltraConfig cfg_;
  uint32_t T_ = 2;  // heavy threshold = BFS radius (10 x log2 x)

  std::vector<uint8_t> sampled_;
  std::vector<uint64_t> rand_;
  DynamicGraph graph_;  // flat adjacency + edge index (DESIGN.md §2)

  std::vector<VertexId> head_;
  // Heads staged by the commit in progress; equal to head_ otherwise.
  std::vector<VertexId> new_head_;
  std::vector<EdgeKey> par_edge_;  // H1 contribution per vertex

  /// NextLevelEdges[(c, c')]: the alive layer-0 edges whose endpoint heads
  /// are {c, c'}, plus the designated representative.
  Table buckets_;

  SmallComponentForest h2_;
  std::unique_ptr<SparseSpanner> next_;

  // Final spanner S = H ∪ rep(S_next), H = H1 ∪ forest(H2).
  SpannerComposition compose_;

  // Batch-scoped accumulators.
  DiffAccumulator h_net_;   // H churn: H1 parent edges and forest(H2)
  DiffAccumulator h2_net_;  // H2 membership churn: the forest's seeds

  // Algorithm-6 scratch (epoch-stamped seed/visited marks).
  std::vector<uint64_t> seed_mark_, visit_mark_;
  uint64_t mark_epoch_ = 0;
  // Per-thread Algorithm-5 scratch for the parallel compute phases.
  mutable std::vector<HeadScratch> scratch_;
};

}  // namespace parspan
