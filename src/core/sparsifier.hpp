// Spectral/cut sparsifiers (Lemma 6.6 and Theorem 1.6).
//
// DecrementalSparsifier implements the chain of Algorithm 10
// (Spectral-Sparsify of [ADK+16]) under batch deletions:
//
//   G_0 = G;  for stage j: B_j = t-bundle spanner of G_j (Theorem 1.5),
//   G_{j+1} = each edge of G_j \ B_j kept independently with prob. 1/4.
//
// The sparsifier is H = ∪_j B_j (weight 4^j) ∪ G_K (weight 4^K): since the
// input is unweighted, all edges of stage j carry weight 4^j, assigned at
// readout (paper §6.4). Sampling coins are a fixed hash of (edge, stage) —
// legitimate under the oblivious adversary, and exactly the "filter only
// the edges that are sampled in G_{i+1}" propagation of Lemma 6.6.
//
// A deletion batch runs in two rounds (DESIGN.md §7.3): the coin-filtered
// global deletions are independent per stage and fan out under
// parallel_for; the absorption fallout (edges newly entering B_j leave
// stage j+1 and beyond) then cascades serially — at most one extra batch
// per stage. Diff events are netted by one parallel sort over packed
// (key, weight-bits) tuples, so the returned WeightedDiff is (key, weight)-
// sorted and independent of the stage schedule.
//
// FullyDynamicSparsifier applies the Bentley-Saxe reduction of Theorem 1.6
// (Invariant B2, Lemma 6.7: unions of (1±ε)-sparsifiers sparsify unions)
// through the same BentleySaxe core as Theorem 1.1 (core/bentley_saxe.hpp);
// its events are packed as (key, weight) tuples and netted per batch.
//
// The bundle depth t controls quality: the theorem's
// t = O(ε^{-2} log^2 m log^3 n) constants are far beyond practical sizes,
// so t is an explicit knob and EXPERIMENTS.md reports measured ε vs t.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "container/flat_map.hpp"
#include "core/bentley_saxe.hpp"
#include "core/bundle.hpp"
#include "verify/laplacian.hpp"

namespace parspan {

/// Net weighted-edge change of the sparsifier after one batch. Both sides
/// are sorted by (canonical edge key, weight bits) — the weighted analogue
/// of the SpannerDiff determinism contract (DESIGN.md §7.4).
struct WeightedDiff {
  std::vector<WeightedEdge> inserted;
  std::vector<WeightedEdge> removed;
};

struct SparsifierConfig {
  /// Bundle depth per stage (quality knob; see header comment).
  uint32_t t = 3;
  /// Per-stage keep probability for the residual sampling.
  double sample_rate = 0.25;
  /// Stop chaining when a stage has at most this many edges (the paper's
  /// "less than O(log n) edges" break).
  size_t min_stage_edges = 8;
  uint64_t seed = 1;
  /// MonotoneSpanner parameters inside the bundles.
  double beta = 0.4;
  uint32_t instances = 0;
};

class DecrementalSparsifier {
 public:
  DecrementalSparsifier(size_t n, const std::vector<Edge>& edges,
                        const SparsifierConfig& cfg);

  size_t num_vertices() const { return n_; }
  size_t size() const;
  std::vector<WeightedEdge> sparsifier_edges() const;
  size_t num_stages() const { return stages_.size(); }
  size_t alive_edges() const;

  /// Deletes a batch of edges; returns the net weighted diff. Takes a span
  /// so the Bentley-Saxe core can pass its arena-backed routed deletions.
  WeightedDiff delete_edges(std::span<const Edge> batch);

  bool check_invariants() const;

 private:
  bool coin(EdgeKey ek, uint32_t stage) const;
  double stage_weight(uint32_t stage) const;

  size_t n_ = 0;
  SparsifierConfig cfg_;
  std::vector<std::unique_ptr<SpannerBundle>> stages_;
  FlatHashSet<EdgeKey> final_;  // G_K
  uint64_t coin_seed_ = 0;
};

struct FullyDynamicSparsifierConfig {
  SparsifierConfig stage;  // per-instance parameters
  uint64_t seed = 1;
};

class FullyDynamicSparsifier {
 public:
  FullyDynamicSparsifier(size_t n, const std::vector<Edge>& initial,
                         const FullyDynamicSparsifierConfig& cfg);

  size_t num_vertices() const { return n_; }
  size_t num_edges() const { return core_.num_edges(); }
  size_t size() const;
  std::vector<WeightedEdge> sparsifier_edges() const;

  /// Applies a batch (deletions then insertions); returns the net diff.
  WeightedDiff update(const std::vector<Edge>& insertions,
                      const std::vector<Edge>& deletions);

  size_t num_partitions() const { return core_.num_partitions(); }
  bool check_invariants() const { return core_.check_invariants(); }

 private:
  size_t n_ = 0;
  FullyDynamicSparsifierConfig cfg_;
  BentleySaxe<DecrementalSparsifier> core_;
};

}  // namespace parspan
