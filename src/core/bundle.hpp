// SpannerBundle: the parallel batch-dynamic decremental t-bundle spanner of
// Theorem 1.5.
//
// A t-bundle is B = H_1 ∪ ... ∪ H_t where H_i is an O(log n)-spanner of
// G \ (H_1 ∪ ... ∪ H_{i-1}). Each level i is the union of
//   * a MonotoneSpanner instance D_i (Lemma 6.4) over the level's graph, and
//   * a retained set J_i of edges that left D_i's spanner while still alive
//     (the monotonicity trick of [ADK+16]): once an edge is in H_i, it stays
//     there until it is globally deleted, so every edge enters and leaves
//     the bundle at most once — amortized recourse O(1) per deleted edge.
//
// A deletion batch flows down the chain: edges newly *entering* H_i
// (δH_ins of D_i) are deletions for level i+1; edges leaving D_i's spanner
// while alive move into J_i and generate no downstream work. The chain is
// inherently serial in i, but each level's MonotoneSpanner fans its own
// instances out in parallel (DESIGN.md §7.1), and the per-batch diff is
// compiled through the flat touched-key accumulator, key-sorted on drain
// (DESIGN.md §7.4).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "container/flat_map.hpp"
#include "core/mpx_spanner.hpp"
#include "util/types.hpp"

namespace parspan {

struct BundleConfig {
  /// Number of bundle levels t.
  uint32_t t = 2;
  uint64_t seed = 1;
  /// Per-level MonotoneSpanner parameters.
  double beta = 0.4;
  uint32_t instances = 0;  // 0 = default of MonotoneSpanner
};

class SpannerBundle {
 public:
  SpannerBundle(size_t n, const std::vector<Edge>& edges,
                const BundleConfig& cfg);

  size_t num_vertices() const { return n_; }
  size_t bundle_size() const { return contrib_.size(); }
  std::vector<Edge> bundle_edges() const;
  uint32_t levels() const { return uint32_t(levels_.size()); }

  /// Edges of G not claimed by any level (the residue G \ B). The spectral
  /// sparsifier samples its next stage from this set. Sorted by key.
  std::vector<Edge> residual_edges() const;

  /// Deletes a batch of (graph) edges; returns the net bundle diff (both
  /// sides sorted by canonical key).
  SpannerDiff delete_edges(const std::vector<Edge>& batch);

  /// Cumulative |δ| emitted (Theorem 1.5: O(1) amortized per deletion).
  uint64_t cumulative_recourse() const { return cumulative_recourse_; }

  /// H_i = spanner(D_i) ∪ J_i for level i (0-indexed).
  std::vector<Edge> level_edges(size_t i) const;

  /// Stretch witness of level i's spanner (from its MonotoneSpanner).
  uint32_t level_stretch_bound(size_t i) const {
    return levels_[i].spanner->stretch_bound();
  }

  size_t alive_edges() const { return alive_.size(); }

  bool check_invariants() const;

 private:
  struct Level {
    std::unique_ptr<MonotoneSpanner> spanner;  // D_i
    FlatHashSet<EdgeKey> retained;             // J_i
  };

  size_t n_ = 0;
  BundleConfig cfg_;
  std::vector<Level> levels_;
  FlatHashSet<EdgeKey> alive_;               // alive graph edges
  FlatHashMap<EdgeKey, uint32_t> contrib_;   // owning level per bundle edge
  DiffAccumulator delta_;                    // per-batch net diff
  uint64_t cumulative_recourse_ = 0;
};

}  // namespace parspan
