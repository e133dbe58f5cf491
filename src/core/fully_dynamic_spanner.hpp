// FullyDynamicSpanner: the fully-dynamic (2k-1)-spanner of Theorem 1.1:
// the decremental structure of Lemma 3.3 under the Bentley-Saxe reduction
// (paper §3.4, core/bentley_saxe.hpp) with
//
//   Invariant B1:  |E_i| <= 2^{i + l0},   2^{l0} >= n^{1+1/k}.
//
// E_0's capacity matches the target spanner size, so all of its edges are
// in the spanner; every other E_i runs its own DecrementalClusterSpanner.
// By Observation 3.7 (spanners are decomposable) the union of the
// per-partition spanners is a (2k-1)-spanner of G.
//
// Batch semantics: update() applies deletions first, then insertions;
// duplicates and no-ops are filtered. The returned SpannerDiff is the NET
// spanner change of the whole batch, both sides sorted by canonical edge
// key, and is a deterministic function of (n, initial edges, config, batch
// history) — independent of the worker-thread count (DESIGN.md §6).
//
// Thread safety: update() parallelizes internally; external calls must be
// serialized (one batch at a time, no concurrent reads during a batch).
// Distinct FullyDynamicSpanner instances are fully independent.
#pragma once

#include <cstdint>
#include <vector>

#include "core/bentley_saxe.hpp"
#include "core/cluster_spanner.hpp"
#include "util/types.hpp"

namespace parspan {

struct FullyDynamicSpannerConfig {
  /// Stretch parameter: the spanner has stretch 2k-1.
  uint32_t k = 4;
  /// Base seed; each rebuilt decremental instance derives a fresh stream.
  uint64_t seed = 1;
};

class FullyDynamicSpanner {
 public:
  FullyDynamicSpanner(size_t n, const std::vector<Edge>& initial,
                      const FullyDynamicSpannerConfig& cfg);

  size_t num_vertices() const { return n_; }
  size_t num_edges() const { return core_.num_edges(); }
  size_t spanner_size() const;
  std::vector<Edge> spanner_edges() const;
  bool has_edge(Edge e) const { return core_.contains(e.key()); }

  /// Applies one batch of updates (deletions first, then insertions;
  /// duplicates and no-ops are filtered). Returns the net spanner diff,
  /// sorted by canonical edge key on both sides.
  SpannerDiff update(const std::vector<Edge>& insertions,
                     const std::vector<Edge>& deletions);

  /// Convenience wrappers.
  SpannerDiff insert_edges(const std::vector<Edge>& ins) {
    return update(ins, {});
  }
  SpannerDiff delete_edges(const std::vector<Edge>& del) {
    return update({}, del);
  }

  /// Number of partitions currently allocated.
  size_t num_partitions() const { return core_.num_partitions(); }

  /// Number of decremental-instance rebuilds so far (amortization witness).
  uint64_t rebuilds() const { return core_.rebuilds(); }

  /// Oracle: Invariant B1, Index consistency, sub-structure invariants,
  /// and spanner-union consistency. Expensive; for tests.
  bool check_invariants() const;

 private:
  size_t n_ = 0;
  FullyDynamicSpannerConfig cfg_;
  DiffAccumulator delta_;  // per-batch diff (DESIGN.md §6.4)
  BentleySaxe<DecrementalClusterSpanner> core_;
};

}  // namespace parspan
