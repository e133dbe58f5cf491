// SpannerComposition: one step S = H ∪ rep(S_next) of the contraction
// framework (Algorithm 4's "add the corresponding edges"). A contraction
// level contributes its own edge set H and maps the next level's spanner
// S_next back to its own edges by replacing each contracted pair with the
// pair's current representative (the NextLevelEdges table,
// container/next_level_edges.hpp). SparseSpanner runs one step per
// contraction layer of Theorem 1.3; UltraSparseSpanner runs one step over
// ContractUltra's H = H1 ∪ forest(H2) (Theorem 1.4).
//
// H and the representatives stay disjoint at batch boundaries, but an edge
// may switch roles within one batch (H member <-> pair representative), so
// a batch applies every removal before any addition and S stays a true set
// throughout. The step records which representative it used per pair: a
// surviving pair whose representative changed is re-pointed, and the
// returned net diff is key-sorted (DESIGN.md §7.4).
#pragma once

#include <functional>
#include <vector>

#include "container/flat_map.hpp"
#include "core/cluster_spanner.hpp"  // SpannerDiff, DiffAccumulator
#include "util/types.hpp"

namespace parspan {

class SpannerComposition {
 public:
  /// The level edge currently representing a next-level pair.
  using RepOf = std::function<EdgeKey(Edge pair)>;

  /// Applies one batch: this level's H diff, the S_next diff, and the
  /// surviving pairs whose representative changed (pairs not in S_next
  /// are ignored). Returns S's net diff, both sides key-sorted.
  /// Construction is one all-insert batch on the empty step.
  SpannerDiff apply(const std::vector<Edge>& h_ins,
                    const std::vector<Edge>& h_del, const SpannerDiff& next,
                    const std::vector<Edge>& rep_changed,
                    const RepOf& rep_of);

  size_t size() const { return s_.size(); }
  bool contains(EdgeKey ek) const { return s_.contains(ek); }
  /// S, ascending by key.
  std::vector<Edge> edges() const;

  /// Oracle: S equals h ∪ rep(s_next) with all parts disjoint, and the
  /// recorded representative of every pair of s_next is the current one.
  bool check_invariants(const std::vector<Edge>& h,
                        const std::vector<Edge>& s_next,
                        const RepOf& rep_of) const;

 private:
  FlatHashSet<EdgeKey> s_;
  /// Next-level pair key -> the level edge key standing in for it in S.
  FlatHashMap<EdgeKey, EdgeKey> used_rep_;
  DiffAccumulator delta_;  // drained by every apply()
};

}  // namespace parspan
