// ESTree: parallel batch-dynamic decremental single-source shortest-path
// tree of bounded depth L on a directed graph — Theorem 1.2 of the paper,
// implementing Algorithm 1 verbatim.
//
// Every vertex v with 1 <= Dist(v) <= L maintains a pointer Scan(v) into its
// in-arc list In(v), which is ordered by decreasing priority key (Lemma
// 3.1's priority list). Each In(v) is one slice of a single CSR over all
// arcs, kept strictly descending by key: arcs are never added after init
// and a priority update keeps the count, so a slice never outgrows its
// initial in-degree (DESIGN.md §1).
//
//   Invariant A1: Scan(v) points to the first (highest-key) in-arc whose
//                 source has distance Dist(v) - 1; that arc is v's parent.
//
// The batch deletion procedure runs phases i = 0..L maintaining the paper's
// invariants A2-A4; the per-phase sets U are deduplicated with epoch stamps.
//
// Scan(v) is represented by the *priority key* of the parent arc rather than
// a rank, so that priority updates (used by the clustering layer of Lemma
// 3.3) never invalidate it: the "skipped prefix" is exactly the arcs with
// key > scan_key(v). While Dist(v) is unchanged, priorities of valid parent
// candidates only decrease (paper §3.3), so arcs only ever *leave* the
// skipped prefix; when Dist(v) changes the pointer resets to the head.
//
// Work/depth: O(L log n) amortized work per deleted arc for the scans and
// O(L) phases per batch (each phase is a parallel loop over U), matching
// Theorem 1.2 with phases as the depth proxy. Erasing from or moving within
// a flat slice shifts entries, so one list edit costs O(|In(v)|) in the
// worst case, against O(log |In(v)|) for Lemma 3.1's tree. Batch arc
// removal is parallel: doomed arcs are grouped by destination (distinct
// destinations own disjoint slices) and each slice is compacted once per
// batch, with the orphan list compiled serially in (dst, arc) order so every
// downstream queue fill is thread-count independent (DESIGN.md §6.3).
//
// Thread safety: calls into one ESTree must be serialized; the structure
// parallelizes internally. Work counters are accumulated with atomic adds
// where they sit inside parallel loops, so their totals are deterministic.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <limits>
#include <span>
#include <vector>

#include "util/types.hpp"

namespace parspan {

/// Operation counters for validating the amortized work bounds empirically.
struct ESWorkCounters {
  uint64_t scan_steps = 0;    // in-list entries examined by NextWith
  uint64_t list_ops = 0;      // entries placed, erased or moved in In(v)
  uint64_t queue_pushes = 0;  // insertions into the phase sets U
  uint64_t phases = 0;        // total non-empty phases across all batches

  void reset() { *this = ESWorkCounters{}; }
};

class ESTree {
 public:
  /// Key value representing "pointer at the head of In(v)" (before any arc).
  static constexpr uint64_t kHeadKey = std::numeric_limits<uint64_t>::max();
  static constexpr int32_t kNoArc = -1;

  struct Arc {
    VertexId src = kNoVertex;
    VertexId dst = kNoVertex;
    uint64_t key = 0;    // current priority key in In(dst); distinct per dst
    bool valid = false;  // false once deleted
  };

  ESTree() = default;

  /// Builds the tree on `n` vertices with the given arcs and priority keys
  /// (keys[i] is the key of arcs[i]; keys must be distinct within each
  /// destination's in-list and < kHeadKey). Runs a bounded BFS from `source`
  /// and selects each parent as the highest-key in-arc from the previous
  /// level (Invariant A1).
  void init(size_t n, const std::vector<std::pair<VertexId, VertexId>>& arcs,
            const std::vector<uint64_t>& keys, VertexId source, uint32_t L);

  /// Result of a batch deletion.
  struct DeletionReport {
    /// Vertices whose parent arc at batch end differs from batch start
    /// (including vertices that lost their parent), with the old arc id.
    std::vector<std::pair<VertexId, int32_t>> parent_changed;
    /// Vertices whose distance label increased during the batch.
    std::vector<VertexId> dist_changed;
    /// Number of phases executed (depth proxy).
    uint32_t phases = 0;
  };

  /// Deletes a batch of arcs by id (ids into the init-time arc array).
  /// Already-deleted ids are ignored. Runs Algorithm 1. Takes a span so
  /// callers can pass arena-backed batch scratch (DESIGN.md §12.5) as well
  /// as plain vectors.
  DeletionReport delete_arcs(std::span<const uint32_t> arc_ids);
  DeletionReport delete_arcs(std::initializer_list<uint32_t> arc_ids) {
    return delete_arcs(std::span<const uint32_t>(arc_ids.begin(),
                                                 arc_ids.size()));
  }

  /// Distance label of v (L+1 if unreachable within L).
  uint32_t dist(VertexId v) const { return dist_[v]; }

  /// Parent arc id of v, or kNoArc.
  int32_t parent_arc(VertexId v) const { return parent_arc_[v]; }

  /// Parent vertex of v, or kNoVertex.
  VertexId parent(VertexId v) const {
    return parent_arc_[v] == kNoArc ? kNoVertex
                                    : arcs_[parent_arc_[v]].src;
  }

  const Arc& arc(uint32_t a) const { return arcs_[a]; }
  size_t num_arcs() const { return arcs_.size(); }
  size_t num_vertices() const { return dist_.size(); }
  VertexId source() const { return source_; }

  /// Changes the priority key of arc `a` (new key must be distinct within
  /// In(dst) and < kHeadKey). If the arc is its destination's parent, the
  /// caller must follow up with rescan(dst) — flagged by the return value.
  /// Priorities of *valid parent candidates* must only decrease while the
  /// destination's distance is unchanged (asserted in debug builds).
  bool update_arc_priority(uint32_t a, uint64_t new_key);

  /// Re-selects the parent of v by scanning In(v) from the current pointer
  /// (NextWith with f = "source at distance Dist(v)-1"). Returns true if the
  /// parent arc changed. Requires 1 <= Dist(v) <= L; the caller guarantees a
  /// valid candidate still exists (true during the cluster cascade, where
  /// only priorities — not distances — changed).
  bool rescan(VertexId v);

  /// Like rescan but restarts the pointer from the head of In(v). Used by
  /// the clustering layer for vertices whose distance changed during the
  /// batch: their phase-time parent selection used pre-cascade priorities,
  /// so the argmax must be re-evaluated over the whole list.
  bool rescan_from_head(VertexId v);

  /// Iterates over the valid out-arcs of v: fn(arc_id, const Arc&).
  /// Out-arcs live in a flat CSR slice (arcs are never added after init,
  /// only invalidated), so traversal is one contiguous scan.
  template <typename Fn>
  void for_each_out_arc(VertexId v, Fn&& fn) const {
    for (uint32_t j = out_offsets_[v]; j < out_offsets_[v + 1]; ++j) {
      uint32_t a = out_arcs_[j];
      if (arcs_[a].valid) fn(a, arcs_[a]);
    }
  }

  /// Children of v in the current tree (destinations whose parent arc
  /// originates at v).
  template <typename Fn>
  void for_each_child(VertexId v, Fn&& fn) const {
    for (uint32_t j = out_offsets_[v]; j < out_offsets_[v + 1]; ++j) {
      uint32_t a = out_arcs_[j];
      if (arcs_[a].valid && parent_arc_[arcs_[a].dst] == int32_t(a))
        fn(arcs_[a].dst, a);
    }
  }

  ESWorkCounters& counters() { return counters_; }
  const ESWorkCounters& counters() const { return counters_; }

  /// Debug invariant check: every In(v) slice is strictly descending and
  /// holds exactly v's valid in-arcs under their current keys, distances
  /// match a BFS recompute, and A1 holds. Expensive; used by tests.
  bool check_invariants() const;

 private:
  /// NextWith: finds the highest-key valid parent candidate with key <=
  /// `from_key`; returns arc id or kNoArc. Updates counters.
  int32_t next_with(VertexId v, uint64_t from_key);

  /// Records v's original parent the first time it changes in this batch.
  void note_parent_change(VertexId v);

  /// Index within In(v)'s slice of the first entry with key <= `key`
  /// (the slice length if there is none).
  uint32_t slot_at_or_below(VertexId v, uint64_t key) const;

  std::vector<Arc> arcs_;
  // In-lists: In(v) is in_key_/in_arc_[in_off_[v] .. in_off_[v]+in_len_[v]),
  // strictly descending by key; the slice's tail up to in_off_[v+1] is slack
  // left behind by erased arcs.
  std::vector<uint32_t> in_off_;
  std::vector<uint32_t> in_len_;
  std::vector<uint64_t> in_key_;
  std::vector<uint32_t> in_arc_;
  std::vector<uint32_t> out_offsets_;       // CSR offsets into out_arcs_
  std::vector<uint32_t> out_arcs_;          // arc ids grouped by source
  std::vector<uint32_t> dist_;
  std::vector<uint64_t> scan_key_;
  std::vector<int32_t> parent_arc_;
  VertexId source_ = kNoVertex;
  uint32_t L_ = 0;

  // Batch-scoped bookkeeping (members so that per-batch work stays
  // proportional to the batch, not to n).
  uint64_t batch_epoch_ = 0;
  uint64_t unew_epoch_ = 0;
  std::vector<uint64_t> changed_epoch_;      // parent-change dedup stamps
  std::vector<int32_t> old_parent_;          // original parent per batch
  std::vector<VertexId> changed_list_;       // vertices noted this batch
  std::vector<uint64_t> in_unew_;            // U_new dedup stamps
  std::vector<uint64_t> dist_bumped_epoch_;  // dist-change dedup stamps

  ESWorkCounters counters_;
};

}  // namespace parspan
