#include "core/bundle.hpp"

#include <cassert>

#include "parallel/csr.hpp"
#include "util/rng.hpp"

namespace parspan {

SpannerBundle::SpannerBundle(size_t n, const std::vector<Edge>& edges,
                             const BundleConfig& cfg)
    : n_(n), cfg_(cfg) {
  // Canonicalize once; the level-0 universe is the deduplicated edge set.
  std::vector<EdgeKey> keys = canonical_edge_keys(n, edges);
  alive_.reserve(keys.size());
  for (EdgeKey ek : keys) alive_.insert(ek);

  // Build levels: D_i over G minus the previous levels' H sets. The chain
  // is serial in i (level i+1's graph is level i's residual); each level's
  // MonotoneSpanner parallelizes over its own instances.
  std::vector<Edge> remaining = edges_from_keys(keys);
  levels_.reserve(cfg.t);
  for (uint32_t i = 0; i < cfg.t; ++i) {
    Level lvl;
    MonotoneSpannerConfig mc;
    mc.seed = hash_combine(cfg.seed, 0x10000 + i);
    mc.instances = cfg.instances;
    lvl.spanner = std::make_unique<MonotoneSpanner>(n, remaining, mc);
    FlatHashSet<EdgeKey> in_h;
    for (const Edge& e : lvl.spanner->spanner_edges()) {
      in_h.insert(e.key());
      assert(!contrib_.contains(e.key()));
      contrib_[e.key()] = i;
    }
    std::vector<Edge> next;
    next.reserve(remaining.size() - in_h.size());
    for (const Edge& e : remaining)
      if (!in_h.contains(e.key())) next.push_back(e);
    levels_.push_back(std::move(lvl));
    remaining = std::move(next);
    if (remaining.empty()) break;
  }
}

std::vector<Edge> SpannerBundle::bundle_edges() const {
  return edges_from_keys(contrib_.sorted_keys());
}

std::vector<Edge> SpannerBundle::level_edges(size_t i) const {
  std::vector<Edge> out = levels_[i].spanner->spanner_edges();
  for (EdgeKey ek : levels_[i].retained.sorted_keys())
    out.push_back(edge_from_key(ek));
  return out;
}

std::vector<Edge> SpannerBundle::residual_edges() const {
  std::vector<Edge> out;
  for (EdgeKey ek : alive_.sorted_keys())
    if (!contrib_.contains(ek)) out.push_back(edge_from_key(ek));
  return out;
}

SpannerDiff SpannerBundle::delete_edges(const std::vector<Edge>& batch) {
  // Deduplicate & filter to alive edges.
  std::vector<Edge> global;
  FlatHashSet<EdgeKey> global_set;
  for (const Edge& e : batch) {
    if (!alive_.contains(e.key()) || global_set.contains(e.key())) continue;
    global_set.insert(e.key());
    global.push_back(e);
    alive_.erase(e.key());
  }

  assert(delta_.empty());
  std::vector<Edge> down = global;  // deletions to apply at this level
  FlatHashSet<EdgeKey> down_set;
  for (const Edge& e : global) down_set.insert(e.key());
  for (size_t i = 0; i < levels_.size(); ++i) {
    Level& lvl = levels_[i];
    SpannerDiff d = lvl.spanner->delete_edges(down);
    // Edges absorbed into H_i this round; they must leave *every* deeper
    // level, so they are appended to the accumulating `down` list.
    std::vector<Edge> absorbed;
    for (const Edge& e : d.removed) {
      if (global_set.contains(e.key())) {
        // Globally deleted: leaves H_i for good.
        assert(contrib_.contains(e.key()));
        contrib_.erase(e.key());
        delta_.remove(e.key());
      } else if (down_set.contains(e.key())) {
        // Removed because an earlier level absorbed it this batch; its
        // contrib entry already points to that level. Not retained here.
        assert(contrib_.contains(e.key()) &&
               *contrib_.find(e.key()) < uint32_t(i));
      } else {
        // Still alive: retained in J_i, stays in the bundle.
        lvl.retained.insert(e.key());
      }
    }
    for (const Edge& e : d.inserted) {
      if (lvl.retained.erase(e.key())) {
        // Re-entered D_i's spanner from J_i: bundle membership unchanged,
        // and it is already absent downstream.
        continue;
      }
      uint32_t* it = contrib_.find(e.key());
      if (it != nullptr) {
        // Currently held by a *deeper* level (it was alive in D_i all
        // along): move it up to level i and evict it downstream.
        assert(*it > uint32_t(i));
        *it = uint32_t(i);
      } else {
        contrib_[e.key()] = uint32_t(i);
        delta_.add(e.key());
      }
      absorbed.push_back(e);  // must leave G_{i+1}, ..., and deeper H's
    }
    // J_i cleanup: edges deleted at this level leave J_i. Globally deleted
    // ones leave the bundle; upstream-absorbed ones were remapped already.
    for (const Edge& e : down) {
      if (lvl.retained.erase(e.key())) {
        if (global_set.contains(e.key())) {
          assert(contrib_.contains(e.key()));
          contrib_.erase(e.key());
          delta_.remove(e.key());
        } else {
          assert(contrib_.contains(e.key()) &&
                 *contrib_.find(e.key()) < uint32_t(i));
        }
      }
    }
    for (const Edge& e : absorbed) {
      down.push_back(e);
      down_set.insert(e.key());
    }
  }

  SpannerDiff diff = delta_.drain();
  cumulative_recourse_ += diff.inserted.size() + diff.removed.size();
  return diff;
}

bool SpannerBundle::check_invariants() const {
  // Per-level invariants and bundle refcount consistency.
  FlatHashMap<EdgeKey, uint32_t> expect;
  for (size_t i = 0; i < levels_.size(); ++i) {
    const Level& lvl = levels_[i];
    if (!lvl.spanner->check_invariants()) return false;
    for (const Edge& e : lvl.spanner->spanner_edges()) {
      if (lvl.retained.contains(e.key())) return false;  // J ∩ spanner = ∅
      if (expect.contains(e.key())) return false;  // levels must be disjoint
      expect[e.key()] = uint32_t(i);
    }
    bool ok = true;
    lvl.retained.for_each([&](EdgeKey ek) {
      if (!alive_.contains(ek)) ok = false;  // J contains only alive edges
      if (expect.contains(ek)) ok = false;
      expect[ek] = uint32_t(i);
    });
    if (!ok) return false;
  }
  if (expect.size() != contrib_.size()) return false;
  bool ok = true;
  expect.for_each([&](EdgeKey ek, uint32_t lvl) {
    const uint32_t* it = contrib_.find(ek);
    if (it == nullptr || *it != lvl) ok = false;
    if (!alive_.contains(ek)) ok = false;  // bundle ⊆ alive
  });
  return ok;
}

}  // namespace parspan
