#include "core/fully_dynamic_spanner.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "parallel/csr.hpp"

namespace parspan {

namespace {

/// Invariant B1: the smallest l0 with 2^{l0} >= n^{1+1/k}.
uint32_t b1_l0(size_t n, uint32_t k) {
  double target =
      std::pow(double(std::max<size_t>(n, 2)), 1.0 + 1.0 / double(k));
  uint32_t l0 = 0;
  while (std::pow(2.0, double(l0)) < target) ++l0;
  return l0;
}

/// Theorem 1.1's side of the reduction: E_0 keys and instance spanner
/// edges go straight into the batch's DiffAccumulator.
struct SpannerSink {
  size_t n;
  uint32_t k;
  DiffAccumulator& delta;

  std::unique_ptr<DecrementalClusterSpanner> build(std::vector<EdgeKey> keys,
                                                   uint64_t seed) const {
    return std::make_unique<DecrementalClusterSpanner>(
        n, DecrementalClusterSpanner::FromSortedKeys{}, std::move(keys),
        ClusterSpannerConfig{.k = k, .seed = seed});
  }
  void e0(EdgeKey ek, int32_t dir) { delta.bump(ek, dir); }
  void output(const DecrementalClusterSpanner& s, int32_t dir) {
    for (const Edge& e : s.spanner_edges()) delta.bump(e.key(), dir);
  }
  void deleted(SpannerDiff&& d) {
    for (const Edge& e : d.inserted) delta.add(e.key());
    for (const Edge& e : d.removed) delta.remove(e.key());
  }
};

}  // namespace

FullyDynamicSpanner::FullyDynamicSpanner(
    size_t n, const std::vector<Edge>& initial,
    const FullyDynamicSpannerConfig& cfg)
    : n_(n),
      cfg_(cfg),
      core_(n, b1_l0(n, cfg.k), cfg.seed, canonical_edge_keys(n, initial),
            SpannerSink{n, cfg.k, delta_}) {}

size_t FullyDynamicSpanner::spanner_size() const {
  size_t s = 0;
  for (const auto& p : core_.partitions())
    s += p.inst ? p.inst->spanner_size() : p.edges.size();
  return s;
}

std::vector<Edge> FullyDynamicSpanner::spanner_edges() const {
  std::vector<Edge> out;
  for (const auto& p : core_.partitions()) {
    if (p.inst) {
      auto h = p.inst->spanner_edges();
      out.insert(out.end(), h.begin(), h.end());
    } else {
      // E_0: everything is in the spanner.
      p.edges.for_each([&](EdgeKey ek) { out.push_back(edge_from_key(ek)); });
    }
  }
  return out;
}

SpannerDiff FullyDynamicSpanner::update(const std::vector<Edge>& insertions,
                                        const std::vector<Edge>& deletions) {
  assert(delta_.empty() && "previous batch drained its delta");
  SpannerSink sink{n_, cfg_.k, delta_};
  core_.update(insertions, deletions, sink);
  return delta_.drain();
}

bool FullyDynamicSpanner::check_invariants() const {
  if (!core_.check_invariants()) return false;
  // Every instance's spanner lies inside its own partition.
  for (const auto& p : core_.partitions()) {
    if (!p.inst) continue;
    for (const Edge& e : p.inst->spanner_edges())
      if (!p.edges.contains(e.key())) return false;
  }
  return true;
}

}  // namespace parspan
