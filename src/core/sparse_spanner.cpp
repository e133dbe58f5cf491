#include "core/sparse_spanner.hpp"

#include <algorithm>
#include <cmath>

#include "parallel/csr.hpp"
#include "util/rng.hpp"

namespace parspan {

std::vector<double> contraction_schedule(double target) {
  std::vector<double> xs;
  double prod = 1.0;
  double prev_exp = 0.0;
  for (int i = 0; prod < target && i < 8; ++i) {
    // Lemma 4.2: exponents 1.5^i - 1.5^{i-1} over base 100 (x_0 = 100).
    double expo = std::pow(1.5, double(i));
    double xi = std::pow(100.0, expo - prev_exp);
    prev_exp = expo;
    // Lemma 4.3: scale the last factor down so the product hits the target.
    if (prod * xi >= target) xi = std::max(2.0, target / prod);
    xs.push_back(xi);
    prod *= xi;
  }
  if (xs.empty()) xs.push_back(2.0);
  return xs;
}

SparseSpanner::SparseSpanner(size_t n, const std::vector<Edge>& edges,
                             const SparseSpannerConfig& cfg)
    : n_(n) {
  std::vector<double> xs = cfg.xs;
  if (xs.empty())
    xs = contraction_schedule(
        std::max(4.0, std::log2(double(std::max<size_t>(n, 2)))));

  // Deduplicate input edges (canonical key order).
  std::vector<Edge> cur = edges_from_keys(canonical_edge_keys(n, edges));
  num_edges_ = cur.size();

  // Build contraction layers bottom-up.
  size_t layer_n = n;
  for (size_t i = 0; i < xs.size(); ++i) {
    layers_.push_back(std::make_unique<ContractionLayer>(
        layer_n, cur, xs[i], hash_combine(cfg.seed, 0xc0 + i)));
    cur = layers_.back()->next_edges();
    layer_n = layers_.back()->next_n();
    if (layer_n <= 2) break;
  }
  // Top spanner (Theorem 1.1) on the contracted graph, with stretch
  // parameter k = ceil(log2(n_top + 2)).
  const uint32_t k = uint32_t(
      std::ceil(std::log2(double(std::max<size_t>(layer_n, 2)) + 2.0)));
  FullyDynamicSpannerConfig tc;
  tc.k = k;
  tc.seed = hash_combine(cfg.seed, 0x707);
  top_ = std::make_unique<FullyDynamicSpanner>(layer_n, cur, tc);

  // Compose the initial spanner downward: S_L = top spanner,
  // S_i = H_i ∪ rep(S_{i+1}), with H_i already held: each layer marks
  // S_{i+1}'s pairs in one all-insert batch whose diff is discarded.
  stretch_bound_ = 2 * k - 1;
  for (size_t i = layers_.size(); i-- > 0;) {
    layers_[i]->compose({}, {next_spanner(i), {}});
    stretch_bound_ = 3 * stretch_bound_ + 2;
  }
}

std::vector<Edge> SparseSpanner::next_spanner(size_t i) const {
  return i + 1 == layers_.size() ? top_->spanner_edges()
                                 : layers_[i + 1]->spanner_edges();
}

SpannerDiff SparseSpanner::update(const std::vector<Edge>& insertions,
                                  const std::vector<Edge>& deletions) {
  size_t L = layers_.size();
  // Upward pass: push updates through the contraction layers (each layer
  // filters duplicates and no-ops itself).
  std::vector<ContractionLayer::UpdateResult> results(L);
  std::vector<Edge> ins = insertions, del = deletions;
  for (size_t i = 0; i < L; ++i) {
    results[i] = layers_[i]->update(ins, del);
    ins = results[i].next_ins;
    del = results[i].next_del;
  }
  num_edges_ = layers_[0]->alive_edges();

  // Downward pass: `down` is the S_{i+1} diff in layer-(i+1) edge keys.
  SpannerDiff down = top_->update(ins, del);
  for (size_t i = L; i-- > 0;)
    down = layers_[i]->compose(results[i], down);
  return down;
}

bool SparseSpanner::check_invariants() const {
  for (const auto& layer : layers_)
    if (!layer->check_invariants()) return false;
  if (!top_->check_invariants()) return false;
  for (size_t i = 0; i < layers_.size(); ++i)
    if (!layers_[i]->check_composed(next_spanner(i))) return false;
  return true;
}

}  // namespace parspan
