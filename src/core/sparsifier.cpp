#include "core/sparsifier.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>

#include "parallel/csr.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/primitives.hpp"
#include "util/rng.hpp"

namespace parspan {

namespace {

/// One signed weighted-diff event, weight packed as raw bits so events sort
/// and net as plain integers.
struct WEvent {
  EdgeKey key;
  uint64_t wbits;
  int32_t sgn;
};

/// Packs an event, normalizing the weight first: -0.0 is folded into +0.0
/// (they compare equal but differ in bit pattern, so keying raw bits would
/// split one weight class into two and a cancel-out could emit both an
/// insert and a remove for the same edge), and NaN weights are rejected —
/// NaN != NaN would make the weight class unmatchable forever.
WEvent wevent(Edge e, double w, int32_t sgn) {
  assert(!std::isnan(w) && "sparsifier weights must be numbers");
  if (w == 0.0) w = 0.0;  // +0.0 and -0.0 share a class
  uint64_t wbits;
  std::memcpy(&wbits, &w, sizeof(wbits));
  return WEvent{e.key(), wbits, sgn};
}

/// Nets raw weighted-diff events by (edge, weight) class: one parallel sort
/// over the packed tuples, then a run scan (DESIGN.md §7.3). Output sides
/// are (key, weight-bits)-sorted; all stage weights are positive, so bit
/// order is numeric order.
WeightedDiff net_weighted(std::vector<WEvent>& events) {
  parallel_sort(events, [](const WEvent& a, const WEvent& b) {
    return a.key != b.key ? a.key < b.key : a.wbits < b.wbits;
  });
  WeightedDiff out;
  for (size_t i = 0; i < events.size();) {
    size_t j = i;
    int32_t c = 0;
    while (j < events.size() && events[j].key == events[i].key &&
           events[j].wbits == events[i].wbits)
      c += events[j++].sgn;
    if (c != 0) {
      assert(c == 1 || c == -1);
      double w;
      std::memcpy(&w, &events[i].wbits, sizeof(w));
      WeightedEdge we{edge_from_key(events[i].key), w};
      if (c > 0) out.inserted.push_back(we);
      else out.removed.push_back(we);
    }
    i = j;
  }
  return out;
}

void emit(std::vector<WEvent>& events, const SpannerDiff& d, double w) {
  for (const Edge& e : d.removed) events.push_back(wevent(e, w, -1));
  for (const Edge& e : d.inserted) events.push_back(wevent(e, w, +1));
}

}  // namespace

// ---------------------------------------------------------------------------
// DecrementalSparsifier
// ---------------------------------------------------------------------------

DecrementalSparsifier::DecrementalSparsifier(size_t n,
                                             const std::vector<Edge>& edges,
                                             const SparsifierConfig& cfg)
    : n_(n), cfg_(cfg) {
  coin_seed_ = hash_combine(cfg.seed, 0xc01);
  const size_t m = std::max<size_t>(edges.size(), 2);
  const uint32_t max_stages = uint32_t(std::ceil(std::log2(double(m)))) + 1;
  std::vector<Edge> cur = edges_from_keys(canonical_edge_keys(n, edges));
  // The chain is serial by definition (stage j+1 samples stage j's
  // residual); each stage's bundle parallelizes internally.
  for (uint32_t j = 0; j < max_stages; ++j) {
    if (cur.size() <= cfg.min_stage_edges) break;
    BundleConfig bc;
    bc.t = cfg.t;
    bc.seed = hash_combine(cfg.seed, 0xb000 + j);
    bc.instances = cfg.instances;
    stages_.push_back(std::make_unique<SpannerBundle>(n, cur, bc));
    std::vector<Edge> next;
    for (const Edge& e : stages_.back()->residual_edges())
      if (coin(e.key(), j)) next.push_back(e);
    cur = std::move(next);
  }
  final_.reserve(cur.size());
  for (const Edge& e : cur) final_.insert(e.key());
}

bool DecrementalSparsifier::coin(EdgeKey ek, uint32_t stage) const {
  uint64_t h = hash_combine(coin_seed_, ek * 64 + stage);
  return double(h >> 11) * 0x1.0p-53 < cfg_.sample_rate;
}

double DecrementalSparsifier::stage_weight(uint32_t stage) const {
  // Edges of stage j carry weight (1/rate)^j; the final residue carries
  // (1/rate)^{#stages}. With rate = 1/4 this is the paper's 4^j.
  return std::pow(1.0 / cfg_.sample_rate, double(stage));
}

size_t DecrementalSparsifier::size() const {
  size_t s = final_.size();
  for (const auto& b : stages_) s += b->bundle_size();
  return s;
}

size_t DecrementalSparsifier::alive_edges() const {
  return stages_.empty() ? final_.size() : stages_[0]->alive_edges();
}

std::vector<WeightedEdge> DecrementalSparsifier::sparsifier_edges() const {
  std::vector<WeightedEdge> out;
  out.reserve(size());
  for (uint32_t j = 0; j < stages_.size(); ++j) {
    double w = stage_weight(j);
    for (const Edge& e : stages_[j]->bundle_edges()) out.push_back({e, w});
  }
  double wf = stage_weight(uint32_t(stages_.size()));
  for (EdgeKey ek : final_.sorted_keys())
    out.push_back({edge_from_key(ek), wf});
  return out;
}

WeightedDiff DecrementalSparsifier::delete_edges(
    std::span<const Edge> batch) {
  size_t K = stages_.size();
  std::vector<WEvent> events;

  // The two-round scheme below runs at every worker count, including one.
  // It is NOT interchangeable with the classic one-call-per-stage serial
  // chain: a bundle's J-retention makes its state depend on batch
  // *boundaries*, not just on the accumulated deletion set — an edge
  // transiently absorbed into B_j between the rounds is retained in J_j
  // forever, where the single-call chain would never have absorbed it.
  // Both evolutions satisfy every bundle/stage invariant, but they differ,
  // so the determinism contract (output independent of worker count)
  // requires one fixed decomposition; the rounds themselves are
  // schedule-independent because the stages are disjoint structures and
  // the cascade is serial.

  // glob[j]: batch edges surviving coins 0..j-1 — stage j's share of the
  // *global* deletions, computable up front.
  std::vector<std::vector<Edge>> glob(K + 1);
  glob[0].assign(batch.begin(), batch.end());
  for (size_t j = 0; j < K; ++j) {
    glob[j + 1].reserve(glob[j].size() / 3);
    for (const Edge& e : glob[j])
      if (coin(e.key(), uint32_t(j))) glob[j + 1].push_back(e);
  }

  // Round 1 (parallel): the stages are independent structures, and their
  // global-deletion slices are known up front, so the expensive bundle
  // deletes fan out across stages (DESIGN.md §7.3).
  std::vector<SpannerDiff> d1(K);
  parallel_for(
      0, K, [&](size_t j) { d1[j] = stages_[j]->delete_edges(glob[j]); }, 1);

  // Round 2 (serial cascade): edges newly absorbed into B_j leave stage
  // j+1 and beyond. Each stage sees at most one cascade batch: the edges
  // absorbed at *any* earlier stage that survive the coin chain down to
  // it — the carry itself must keep propagating through each stage's coin
  // exactly like the serial `del` list, not just the freshly absorbed
  // edges (an edge absorbed at stage i and merely *deleted* at stage i+1
  // still has to leave stage i+2 if it passes coin i+1).
  std::vector<Edge> carry;  // absorbed upstream, coin-filtered to stage j
  for (size_t j = 0; j < K; ++j) {
    double w = stage_weight(uint32_t(j));
    emit(events, d1[j], w);
    SpannerDiff d2;
    if (!carry.empty()) {
      d2 = stages_[j]->delete_edges(carry);
      emit(events, d2, w);
    }
    std::vector<Edge> next;
    for (const Edge& e : carry)
      if (coin(e.key(), uint32_t(j))) next.push_back(e);
    for (const Edge& e : d1[j].inserted)
      if (coin(e.key(), uint32_t(j))) next.push_back(e);
    for (const Edge& e : d2.inserted)
      if (coin(e.key(), uint32_t(j))) next.push_back(e);
    carry = std::move(next);
  }

  // Final residue G_K: global deletions surviving every coin, plus the
  // last stage's absorption fallout.
  double wf = stage_weight(uint32_t(K));
  for (const Edge& e : glob[K])
    if (final_.erase(e.key())) events.push_back(wevent(e, wf, -1));
  for (const Edge& e : carry)
    if (final_.erase(e.key())) events.push_back(wevent(e, wf, -1));
  return net_weighted(events);
}

bool DecrementalSparsifier::check_invariants() const {
  for (const auto& b : stages_)
    if (!b->check_invariants()) return false;
  // Stage universes nest: stage j+1 alive ⊆ stage j residual ∩ coin_j.
  for (size_t j = 0; j + 1 < stages_.size(); ++j) {
    FlatHashSet<EdgeKey> resid;
    for (const Edge& e : stages_[j]->residual_edges())
      resid.insert(e.key());
    std::vector<EdgeKey> deeper;
    for (const Edge& e : stages_[j + 1]->bundle_edges())
      deeper.push_back(e.key());
    for (const Edge& e : stages_[j + 1]->residual_edges())
      deeper.push_back(e.key());
    for (EdgeKey ek : deeper) {
      if (!resid.contains(ek)) return false;
      if (!coin(ek, uint32_t(j))) return false;
    }
  }
  if (!stages_.empty()) {
    size_t last = stages_.size() - 1;
    FlatHashSet<EdgeKey> resid;
    for (const Edge& e : stages_[last]->residual_edges())
      resid.insert(e.key());
    bool ok = true;
    final_.for_each([&](EdgeKey ek) {
      if (!resid.contains(ek)) ok = false;
      if (!coin(ek, uint32_t(last))) ok = false;
    });
    if (!ok) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// FullyDynamicSparsifier (Theorem 1.6)
// ---------------------------------------------------------------------------

namespace {

/// Invariant B2: the smallest l0 with 2^{l0} >= n.
uint32_t b2_l0(size_t n) {
  uint32_t l0 = 0;
  while ((size_t{1} << l0) < std::max<size_t>(n, 2)) ++l0;
  return l0;
}

/// Theorem 1.6's side of the reduction: every output change becomes a
/// packed (key, weight) event (E_0 edges carry weight 1), netted once per
/// batch by net_weighted.
struct SparsifierSink {
  size_t n;
  const SparsifierConfig& stage;
  std::vector<WEvent>* events;  // null while constructing: build only

  std::unique_ptr<DecrementalSparsifier> build(std::vector<EdgeKey> keys,
                                               uint64_t seed) const {
    SparsifierConfig sc = stage;
    sc.seed = seed;
    return std::make_unique<DecrementalSparsifier>(n, edges_from_keys(keys),
                                                   sc);
  }
  void e0(EdgeKey ek, int32_t dir) {
    events->push_back(wevent(edge_from_key(ek), 1.0, dir));
  }
  void push(const std::vector<WeightedEdge>& es, int32_t dir) {
    for (const WeightedEdge& we : es)
      events->push_back(wevent(we.e, we.w, dir));
  }
  void output(const DecrementalSparsifier& s, int32_t dir) {
    push(s.sparsifier_edges(), dir);
  }
  void deleted(WeightedDiff&& d) {
    push(d.inserted, +1);
    push(d.removed, -1);
  }
};

}  // namespace

FullyDynamicSparsifier::FullyDynamicSparsifier(
    size_t n, const std::vector<Edge>& initial,
    const FullyDynamicSparsifierConfig& cfg)
    : n_(n),
      cfg_(cfg),
      core_(n, b2_l0(n), cfg.seed, canonical_edge_keys(n, initial),
            SparsifierSink{n, cfg.stage, nullptr}) {}

size_t FullyDynamicSparsifier::size() const {
  size_t s = 0;
  for (const auto& p : core_.partitions())
    s += p.inst ? p.inst->size() : p.edges.size();
  return s;
}

std::vector<WeightedEdge> FullyDynamicSparsifier::sparsifier_edges() const {
  std::vector<WeightedEdge> out;
  for (const auto& p : core_.partitions()) {
    if (p.inst) {
      auto h = p.inst->sparsifier_edges();
      out.insert(out.end(), h.begin(), h.end());
    } else {
      for (EdgeKey ek : p.edges.sorted_keys())
        out.push_back({edge_from_key(ek), 1.0});
    }
  }
  return out;
}

WeightedDiff FullyDynamicSparsifier::update(
    const std::vector<Edge>& insertions, const std::vector<Edge>& deletions) {
  std::vector<WEvent> events;
  SparsifierSink sink{n_, cfg_.stage, &events};
  core_.update(insertions, deletions, sink);
  return net_weighted(events);
}

}  // namespace parspan
