// SparseSpanner: the fully-dynamic O(log n · poly(log log n))-spanner with
// O(n) edges of Theorem 1.3, via nested contractions (paper §4.2-§4.3).
//
// Layers 0..L-1 run the batch-dynamic Contract(G_i, x_i) of Lemma 4.1;
// layer L runs the fully-dynamic (2k-1)-spanner of Theorem 1.1 with
// k = Θ(log n_L) on the contracted graph. The contraction schedule follows
// Lemma 4.2/4.3: x_0 = 100, x_i = 100^{1.5^i - 1.5^{i-1}}, truncated so
// that ∏ x_i = Θ(log n) — for practical n this is a single layer with
// x_0 = Θ(log n), and the deeper schedules are exercised via explicit
// configuration.
//
// The spanner at layer i is S_i = H_i ∪ Bwd_i(S_{i+1}) (Algorithm 4's
// "add the corresponding edges"): updates flow upward through the layers,
// and spanner diffs flow back down through one SpannerComposition step per
// layer (core/composition.hpp), replacing each contracted pair by its
// current representative edge. S_L is the top spanner; S_0 is the answer.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/composition.hpp"
#include "core/contraction.hpp"
#include "core/fully_dynamic_spanner.hpp"
#include "util/types.hpp"

namespace parspan {

/// The Lemma 4.3 contraction schedule: factors x_0.. with product Θ(target).
/// target defaults to log2(n) at the call site.
std::vector<double> contraction_schedule(double target);

struct SparseSpannerConfig {
  uint64_t seed = 1;
  /// Contraction factors; empty = contraction_schedule(max(4, log2 n)).
  std::vector<double> xs;
  /// Stretch parameter of the top-level Theorem 1.1 spanner;
  /// 0 = ceil(log2(n_top + 2)).
  uint32_t top_k = 0;
};

class SparseSpanner {
 public:
  SparseSpanner(size_t n, const std::vector<Edge>& edges,
                const SparseSpannerConfig& cfg);

  size_t num_vertices() const { return n_; }
  size_t num_edges() const { return num_edges_; }
  size_t spanner_size() const { return compose_[0].size(); }
  std::vector<Edge> spanner_edges() const { return compose_[0].edges(); }
  bool in_spanner(Edge e) const { return compose_[0].contains(e.key()); }

  /// Applies one batch (deletions then insertions); returns the net diff,
  /// both sides sorted by canonical key (DESIGN.md §7.4).
  SpannerDiff update(const std::vector<Edge>& insertions,
                     const std::vector<Edge>& deletions);
  SpannerDiff insert_edges(const std::vector<Edge>& ins) {
    return update(ins, {});
  }
  SpannerDiff delete_edges(const std::vector<Edge>& del) {
    return update({}, del);
  }

  size_t num_layers() const { return layers_.size(); }

  /// Composed stretch bound: layer recurrence stretch_i = 3*stretch_{i+1}+2
  /// over the top spanner's (2k-1) (Lemma 4.1's "3L+2").
  uint32_t stretch_bound() const { return stretch_bound_; }

  bool check_invariants() const;

 private:
  size_t n_ = 0;
  size_t num_edges_ = 0;
  std::vector<std::unique_ptr<ContractionLayer>> layers_;
  std::unique_ptr<FullyDynamicSpanner> top_;
  uint32_t stretch_bound_ = 0;

  /// compose_[i] holds S_i (layer-i local edge keys), i in [0, L).
  std::vector<SpannerComposition> compose_;

  /// S_{i+1}, key-sorted: the top spanner for i = L-1.
  std::vector<Edge> next_spanner(size_t i) const;
  /// Layer i's representative lookup for contracted pairs.
  SpannerComposition::RepOf rep_of(size_t i) const;
};

}  // namespace parspan
