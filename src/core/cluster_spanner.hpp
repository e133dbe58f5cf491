// DecrementalClusterSpanner: the batch-dynamic decremental (2k-1)-spanner of
// Lemma 3.3, built on exponential start-time clustering [MPVX15] maintained
// by the batch-dynamic Even-Shiloach tree of Theorem 1.2.
//
// Construction (paper §3.3):
//  * every vertex u draws delta_u ~ Exp(beta) with beta = ln(10 n)/k,
//    resampled (Las Vegas) until max_u delta_u < k;
//  * delta_u = d_u + f_u splits into the integer part d_u and fraction f_u;
//    Priority(v) = rank of f_v (larger fraction = higher priority);
//  * the auxiliary digraph G' adds path vertices p_0 .. p_{t-1}
//    (t = max d_u + 1) with arcs p_i -> p_{i+1}, a head-start arc
//    p_{t-1-d_v} -> v per vertex, and both orientations of every edge;
//  * an ES tree from p_0 with depth bound L = t maintains the clustering:
//    Cluster(v) = v if v's parent is a path vertex, else Cluster(parent);
//  * the priority key of arc (w -> v) in In(v) is
//    Priority(Cluster(w)) * 2^32 + arc_id (distinct keys, Lemma 3.1),
//    head-start arcs use Priority(v); thus the ES parent choice maximizes
//    the cluster priority among min-distance candidates.
//
// The spanner is the union of
//  * intra-cluster tree edges: (parent(v), v) for parents in V, and
//  * inter-cluster representatives: one edge per nonempty InterCluster[(v,c)]
//    group with c != Cluster(v).
//
// After each deletion batch the distance phases of Algorithm 1 run first;
// then a *cluster cascade* repairs clusters in level order (DESIGN.md §3.2):
// a vertex is re-examined only after all potential parents carry final
// distances and final cluster priorities. Vertices whose distance changed
// re-select from the head of In(v); distance-stable vertices use the
// forward-only NextWith (their candidates' priorities can only drop).
// Each level runs two phases — parallel parent re-selection, then serial
// deterministic application of contribution and cluster changes
// (DESIGN.md §6.3).
//
// With cfg.intercluster = false the structure maintains only the forest of
// intra-cluster tree edges — the per-instance mode of the monotone spanner
// (Lemma 6.4), where beta is an explicit constant.
//
// Batch semantics: delete_edges applies the whole batch atomically — the
// returned SpannerDiff is the NET change between the spanner before and
// after the batch (an edge that enters and leaves within one batch does not
// appear), with inserted/removed each sorted by canonical edge key. The
// diff is a deterministic function of (construction inputs, deletion batch
// history): it does not depend on the worker-thread count (DESIGN.md §6).
//
// Thread safety: construction and delete_edges parallelize internally but
// external calls must be serialized — one batch at a time, no concurrent
// readers during a batch. Distinct instances are fully independent and may
// be constructed/updated concurrently (the Bentley-Saxe layer of Theorem
// 1.1 rebuilds disjoint partitions in parallel this way).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "container/flat_map.hpp"
#include "container/next_level_edges.hpp"
#include "core/es_tree.hpp"
#include "parallel/arena.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace parspan {

/// Per-batch net-diff accumulator shared by the spanner layers: a flat
/// delta table plus the list of keys it holds. Draining by touched key
/// keeps diff compilation O(batch) — a clear() would scan the table's
/// whole high-water capacity every batch (DESIGN.md §6.4).
class DiffAccumulator {
 public:
  void bump(EdgeKey e, int32_t dir) {
    size_t before = delta_.size();
    int32_t& d = delta_[e];
    if (delta_.size() != before) touched_.push_back(e);
    d += dir;
  }
  void add(EdgeKey e) { bump(e, +1); }
  void remove(EdgeKey e) { bump(e, -1); }

  bool empty() const { return delta_.empty(); }

  /// Compiles the net diff (both sides sorted by canonical key) and leaves
  /// the accumulator empty. Net values must lie in [-1, 1].
  SpannerDiff drain();

  /// Discards all accumulated state without compiling a diff.
  void reset() {
    delta_.clear();
    touched_.clear();
  }

 private:
  FlatHashMap<EdgeKey, int32_t> delta_;
  std::vector<EdgeKey> touched_;
};

struct ClusterSpannerConfig {
  /// Stretch parameter: the spanner has stretch 2k-1.
  uint32_t k = 4;
  /// Seed for delta sampling and the priority permutation.
  uint64_t seed = 1;
  /// Maintain inter-cluster representative edges (true for Lemma 3.3;
  /// false for the forest-only instances of Lemma 6.4).
  bool intercluster = true;
  /// Exponential rate; 0 means the paper's ln(10 n)/k.
  double beta = 0.0;
  /// Las Vegas resample threshold for max delta; 0 means k.
  double delta_cap = 0.0;
};

class DecrementalClusterSpanner {
 public:
  DecrementalClusterSpanner(size_t n, const std::vector<Edge>& edges,
                            const ClusterSpannerConfig& cfg);

  /// Tag selecting the pre-canonicalized construction path.
  struct FromSortedKeys {};

  /// Construction from canonical edge keys, sorted ascending and unique
  /// (the output format of canonical_edge_keys). Skips the dedup sort —
  /// this is the entry point the Bentley-Saxe partition rebuild uses after
  /// its own merge-as-sort already produced exactly this representation.
  DecrementalClusterSpanner(size_t n, FromSortedKeys,
                            std::vector<EdgeKey> sorted_keys,
                            const ClusterSpannerConfig& cfg);

  size_t num_vertices() const { return n_; }
  size_t alive_edges() const { return alive_count_; }

  /// Current spanner size (number of edges).
  size_t spanner_size() const { return contrib_.size(); }

  /// Materializes the current spanner edge set.
  std::vector<Edge> spanner_edges() const;

  /// True iff e is currently in the spanner.
  bool in_spanner(Edge e) const { return contrib_.contains(e.key()); }

  /// Deletes a batch of edges (absent/dead edges ignored); returns the net
  /// spanner diff. Amortized work O(k log^2 n) per deleted edge. Takes a
  /// span so callers can pass arena-backed batch scratch (DESIGN.md §12.5)
  /// as well as plain vectors.
  SpannerDiff delete_edges(std::span<const Edge> batch);
  SpannerDiff delete_edges(std::initializer_list<Edge> batch) {
    return delete_edges(std::span<const Edge>(batch.begin(), batch.size()));
  }

  /// Cluster center of v (= v itself for cluster centers).
  VertexId cluster(VertexId v) const { return cluster_[v]; }

  /// Total number of cluster reassignments across all batches (Lemma 3.6:
  /// expected <= 2 t log n per vertex over a full deletion sequence).
  uint64_t cluster_changes() const { return cluster_change_count_; }

  /// Depth t of the auxiliary path (= ES depth bound).
  uint32_t t() const { return t_; }

  /// Priority rank of v's fractional part (1..n).
  uint32_t priority(VertexId v) const { return priority_[v]; }

  const ESTree& es() const { return es_; }

  /// Full oracle check: ES invariants, cluster fixpoint, InterCluster
  /// membership, spanner contribution refcounts. Expensive; for tests.
  bool check_invariants() const;

 private:
  uint64_t arc_key(uint32_t arc_id, VertexId center) const {
    return ESTree::key_of(priority_[center], arc_id);
  }

  /// Per-batch dirty-vertex buckets, one per ES level. Arena-backed: the
  /// whole structure is scratch that dies with delete_edges' ArenaScope.
  using Buckets = ArenaVector<ArenaVector<VertexId>>;

  VertexId cluster_from_parent(VertexId v) const;
  void refresh_tree_contrib(VertexId v);
  void add_contrib(EdgeKey e);
  void remove_contrib(EdgeKey e);
  void add_membership(VertexId x, VertexId c, VertexId other);
  void remove_membership(VertexId x, VertexId c, VertexId other);
  void apply_cluster_change(VertexId v, VertexId newc, Buckets& buckets);
  void flag_dirty(VertexId v, Buckets& buckets);

  size_t n_ = 0;
  ClusterSpannerConfig cfg_;
  uint32_t t_ = 1;

  std::vector<uint32_t> du_;        // integer parts of delta
  std::vector<uint32_t> priority_;  // fraction ranks, 1..n

  /// Ascending by key and fixed at construction (deletion only flips
  /// alive_), so an edge's index is a binary search over it.
  std::vector<Edge> edges_;  // arc ids 2i (u->v), 2i+1 (v->u)
  std::vector<uint8_t> alive_;
  size_t alive_count_ = 0;

  ESTree es_;
  std::vector<VertexId> cluster_;
  std::vector<EdgeKey> tree_contrib_;  // per-vertex tree edge, kNoEdge if none

  /// InterCluster[(v, c)]: neighbors of v lying in cluster c; the first is
  /// the designated representative (paper's hash table of hash tables; the
  /// outer level is a flat open-addressing table — DESIGN.md §1). Each
  /// group is the RepBucket of container/next_level_edges.hpp, whose up to
  /// four members sit inline.
  std::vector<FlatHashMap<VertexId, RepBucket<VertexId>>> groups_;

  FlatHashMap<EdgeKey, uint32_t> contrib_;  // spanner refcounts
  DiffAccumulator batch_delta_;             // per-batch diff (DESIGN.md §6.4)

  // Cascade scratch (epoch-stamped to keep per-batch work batch-sized).
  std::vector<uint64_t> dirty_epoch_;
  std::vector<uint64_t> distch_epoch_;
  uint64_t epoch_ = 0;

  uint64_t cluster_change_count_ = 0;
};

}  // namespace parspan
