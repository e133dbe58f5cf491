// ContractionLayer: the batch-dynamic Contract(G, x) procedure of Lemma 4.1
// (paper §4.1, dynamic maintenance §4.3).
//
// A fixed subset D ⊆ V is sampled once (each vertex with probability 1/x;
// D never changes — legitimate under the oblivious adversary). Every entry
// of Adj(v) carries the key (unmark_e, rand_e): unmark_e = [other endpoint
// ∉ D], rand_e a fresh random value drawn when the entry is inserted. Then
//
//   Head(v) = v                      if v ∈ D,
//   Head(v) = min-entry's endpoint   if that entry is marked (∈ D),
//   Head(v) = ⊥                      otherwise,
//
// so Head(v) changes only when the minimum of Adj(v) changes — probability
// 1/(deg±1) per update — which is what makes the expensive O(deg) head-move
// procedure O(1) edges in expectation (the analysis at the end of §4.3).
//
// Nothing else reads the order of Adj(v), so it is a flat unordered arc
// list (the DynamicGraph layout, DESIGN.md §2) plus the slot of its minimum
// arc. An insertion updates the cached minimum in O(1); a removal is a
// swap-pop, and the list is rescanned only when the minimum arc itself
// leaves — probability 1/deg per deletion under the oblivious adversary, so
// O(1) expected (DESIGN.md §7.2).
//
// The layer exposes exactly the objects of the paper:
//   * H            — this layer's spanner contribution: edges with a ⊥
//                    endpoint, plus one edge (v, Head(v)) per clustered v;
//   * NextLevelEdges — buckets keyed by contracted pairs
//                    (Head(u), Head(v)), with Bwd/FwdCorrespondence as the
//                    designated representative per pair (the shared table
//                    of container/next_level_edges.hpp, edge-id members);
//   * next_ins/next_del — the update stream for the next layer.
//
// All dictionaries are flat open-addressing tables (DESIGN.md §1); the
// per-batch UpdateResult lists are key-sorted, so the layer's output is a
// deterministic function of its inputs (DESIGN.md §7.4).
//
// A batch runs in four phases (DESIGN.md §7.2): (1) a serial pass resolves
// the edges against the index and assigns record ids; (2) the arc-list
// edits are grouped by vertex, one task per vertex replaying its edits in
// batch order with pre-drawn keys, and (3) the same task recomputes the
// vertex's head; (4) the table ops and H refcount edits are filled in
// parallel from per-vertex prefix offsets, in the order the serial
// procedure would issue them, and committed by one NextLevelEdges::apply.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

#include "container/flat_map.hpp"
#include "container/next_level_edges.hpp"
#include "core/cluster_spanner.hpp"  // DiffAccumulator
#include "util/types.hpp"

namespace parspan {

class ContractionLayer {
 public:
  /// n = layer vertex count; x = contraction factor (>= 2).
  ContractionLayer(size_t n, const std::vector<Edge>& edges, double x,
                   uint64_t seed);

  struct UpdateResult {
    std::vector<Edge> next_ins;  // contracted-graph insertions (next ids)
    std::vector<Edge> next_del;  // contracted-graph deletions (next ids)
    std::vector<Edge> h_ins;     // H contribution diffs (layer-local edges)
    std::vector<Edge> h_del;
    /// Pairs (next-id edges) whose designated representative changed while
    /// the pair survived the batch.
    std::vector<Edge> rep_changed;
  };

  /// Applies a batch of layer-local edge insertions and deletions
  /// (deletions first). Duplicates / no-ops are filtered.
  UpdateResult update(const std::vector<Edge>& ins,
                      const std::vector<Edge>& del);

  size_t num_vertices() const { return n_; }
  size_t next_n() const { return next_n_; }
  size_t alive_edges() const { return alive_count_; }
  /// Edge records held, alive or free for reuse (test-facing: deleted
  /// edges' records are recycled, so this tracks alive_edges()).
  size_t edge_records() const { return edges_.size(); }

  bool is_sampled(VertexId v) const { return next_id_[v] != kNoVertex; }
  VertexId next_id(VertexId v) const { return next_id_[v]; }

  /// Head(v) as a layer-local vertex, kNoVertex for ⊥.
  VertexId head(VertexId v) const { return head_[v]; }

  /// Current contracted edges (next-id space).
  std::vector<Edge> next_edges() const;

  /// Current representative (layer-local edge) of a contracted pair;
  /// pair must exist.
  Edge rep(Edge pair) const;

  /// Current H contribution set (layer-local edges).
  std::vector<Edge> h_edges() const;
  size_t h_size() const { return h_contrib_.size(); }

  bool check_invariants() const;

 private:
  /// One entry of Adj(v): the (unmark, rand) key, the other endpoint and
  /// the edge record.
  struct Arc {
    uint64_t key;
    VertexId other;
    uint32_t edge_id;
  };
  struct ArcList {
    std::vector<Arc> arcs;  // unordered
    uint32_t min = 0;       // slot of the minimum-key arc (if non-empty)
  };
  struct EdgeRec {
    Edge e;
    uint32_t slot_u = 0;  // arc slot in Adj(e.u)
    uint32_t slot_v = 0;  // arc slot in Adj(e.v)
    bool alive = false;
  };
  using Table = NextLevelEdges<uint32_t>;
  /// An H refcount edit (edge key, +1 or -1).
  struct HEdit {
    EdgeKey e;
    bool add;
  };

  /// Adj(x)'s key for the entry toward `other`, from the entry counter's
  /// value `count` (counter-based, so a batch pre-draws its keys).
  uint64_t entry_key(VertexId other, uint64_t count) const;
  /// Appends arc a to Adj(x), updating the cached minimum; returns its slot.
  uint32_t push_arc(VertexId x, const Arc& a);
  /// Swap-pops slot i of Adj(x), fixing the moved arc's stored slot and
  /// the cached minimum (rescanned only if the minimum itself left).
  void remove_arc(VertexId x, uint32_t i);
  /// Head(v) implied by Adj(v)'s cached minimum.
  VertexId compute_head(VertexId v) const;

  /// Contracted pair key of an edge whose endpoints head to hu and hv, or
  /// kNoEdge if it is intra-cluster / touches ⊥.
  EdgeKey pair_of(VertexId hu, VertexId hv) const {
    if (hu == kNoVertex || hv == kNoVertex || hu == hv) return kNoEdge;
    return edge_key(next_id_[hu], next_id_[hv]);
  }
  /// pair_of under the committed heads.
  EdgeKey pair_key_of(uint32_t eid) const {
    const EdgeRec& r = edges_[eid];
    return pair_of(head_[r.e.u], head_[r.e.v]);
  }

  void h_add(EdgeKey ek);
  void h_remove(EdgeKey ek);
  bool edge_in_bot(uint32_t eid) const;  // has a ⊥ endpoint

  size_t n_ = 0;
  size_t next_n_ = 0;
  double x_ = 2;
  uint64_t seed_ = 0;
  uint64_t entry_counter_ = 0;

  std::vector<VertexId> next_id_;  // kNoVertex if unsampled
  std::vector<VertexId> head_;
  std::vector<ArcList> adj_;

  std::vector<EdgeRec> edges_;
  FlatHashMap<EdgeKey, uint32_t> edge_index_;  // alive edges only
  // Dead records' ids, reused LIFO from the next batch on: an id freed in
  // a batch is never reused within it, since the table's snapshots name
  // the old representative by id.
  std::vector<uint32_t> free_ids_;
  size_t alive_count_ = 0;

  Table buckets_;                             // pair -> edge ids
  FlatHashMap<EdgeKey, uint32_t> h_contrib_;  // H refcounts
  std::vector<EdgeKey> head_edge_;  // per-vertex (v, Head(v)) contribution
  // Heads staged by the batch in progress; equal to head_ between batches.
  std::vector<VertexId> new_head_;

  // Batch-scoped diff accumulation (drained key-sorted — DESIGN.md §6.4).
  DiffAccumulator h_delta_;
};

}  // namespace parspan
