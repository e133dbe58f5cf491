#include "core/contraction.hpp"

#include <algorithm>
#include <cassert>

#include "parallel/primitives.hpp"
#include "util/rng.hpp"

namespace parspan {

ContractionLayer::ContractionLayer(size_t n, const std::vector<Edge>& edges,
                                   double x, uint64_t seed)
    : n_(n), x_(std::max(2.0, x)), seed_(seed) {
  // Fixed sample D: each vertex with probability 1/x; at least one vertex
  // is forced into D so the contracted graph is never empty (the paper's
  // "V' is not empty w.h.p."; the forcing only matters for tiny n).
  next_id_.assign(n, kNoVertex);
  Rng rng(hash_combine(seed, 0xd));
  for (VertexId v = 0; v < n; ++v) {
    if (rng.next_bool(1.0 / x_)) {
      next_id_[v] = VertexId(prev_id_.size());
      prev_id_.push_back(v);
    }
  }
  if (prev_id_.empty() && n > 0) {
    VertexId v = VertexId(rng.next_below(n));
    next_id_[v] = 0;
    prev_id_.push_back(v);
  }
  next_n_ = prev_id_.size();

  adj_.assign(n, {});
  head_.assign(n, kNoVertex);
  head_edge_.assign(n, kNoEdge);

  // Insert edges, then compute heads, then attach contributions: init is
  // just an update() on an empty structure, but done in bulk.
  edge_index_.reserve(edges.size());
  for (const Edge& e : edges) {
    if (e.u == e.v || e.u >= n || e.v >= n) continue;
    if (edge_index_.contains(e.key())) continue;
    uint32_t eid = uint32_t(edges_.size());
    edge_index_[e.key()] = eid;
    edges_.push_back(EdgeRec{e});
    add_arcs(eid);
  }
  for (VertexId v = 0; v < n; ++v) head_[v] = compute_head(v);
  for (uint32_t eid = 0; eid < edges_.size(); ++eid) attach(eid);
  // head-edge contributions.
  for (VertexId v = 0; v < n; ++v) {
    if (is_sampled(v) || head_[v] == kNoVertex) continue;
    head_edge_[v] = edge_key(v, head_[v]);
    h_add(head_edge_[v]);
  }
  h_delta_.reset();
  touched_pairs_.clear();
}

uint64_t ContractionLayer::fresh_entry_key(VertexId other) {
  // Composite (unmark, rand) key: unmarked (other ∉ D) entries sort after
  // all marked ones; the low bits keep keys distinct.
  uint64_t unmark = is_sampled(other) ? 0 : 1;
  uint64_t rnd = hash_combine(seed_, ++entry_counter_) >> 2;
  return (unmark << 62) | rnd;
}

void ContractionLayer::add_arcs(uint32_t eid) {
  EdgeRec& r = edges_[eid];
  r.alive = true;
  ++alive_count_;
  auto push = [&](VertexId x, Arc a) {
    ArcList& l = adj_[x];
    uint32_t i = uint32_t(l.arcs.size());
    if (i == 0 || a.key < l.arcs[l.min].key) l.min = i;
    l.arcs.push_back(a);
    return i;
  };
  // Adj(u)'s key is drawn first: the draw order fixes every key.
  uint64_t key_u = fresh_entry_key(r.e.v);
  uint64_t key_v = fresh_entry_key(r.e.u);
  r.slot_u = push(r.e.u, {key_u, r.e.v, eid});
  r.slot_v = push(r.e.v, {key_v, r.e.u, eid});
}

void ContractionLayer::remove_arc(VertexId x, uint32_t i) {
  ArcList& l = adj_[x];
  uint32_t last = uint32_t(l.arcs.size() - 1);
  if (i != last) {
    l.arcs[i] = l.arcs[last];
    EdgeRec& moved = edges_[l.arcs[i].edge_id];
    (moved.e.u == x ? moved.slot_u : moved.slot_v) = i;
  }
  l.arcs.pop_back();
  if (l.min == i) {
    // The minimum left (probability 1/deg under the oblivious adversary):
    // rescan for the new one.
    l.min = 0;
    for (uint32_t j = 1; j < l.arcs.size(); ++j)
      if (l.arcs[j].key < l.arcs[l.min].key) l.min = j;
  } else if (l.min == last) {
    l.min = i;
  }
}

VertexId ContractionLayer::compute_head(VertexId v) const {
  if (is_sampled(v)) return v;
  const ArcList& l = adj_[v];
  if (l.arcs.empty()) return kNoVertex;
  const Arc& m = l.arcs[l.min];
  return m.key >> 62 ? kNoVertex : m.other;  // unmarked min: no D neighbor
}

EdgeKey ContractionLayer::pair_key_of(uint32_t eid) const {
  const EdgeRec& r = edges_[eid];
  VertexId hu = head_[r.e.u], hv = head_[r.e.v];
  if (hu == kNoVertex || hv == kNoVertex || hu == hv) return kNoEdge;
  return edge_key(next_id_[hu], next_id_[hv]);
}

void ContractionLayer::note_pair_touched(EdgeKey pk) {
  if (touched_pairs_.contains(pk)) return;
  Bucket* b = buckets_.find(pk);
  touched_pairs_[pk] =
      PairSnapshot{b != nullptr, b != nullptr ? b->rep : uint32_t(0)};
}

void ContractionLayer::bucket_add(uint32_t eid) {
  EdgeKey pk = pair_key_of(eid);
  if (pk == kNoEdge) return;
  note_pair_touched(pk);
  Bucket& b = buckets_[pk];
  if (b.members.empty()) b.rep = eid;
  b.members.push_back(eid);
}

void ContractionLayer::bucket_remove(uint32_t eid, EdgeKey pk) {
  if (pk == kNoEdge) return;
  note_pair_touched(pk);
  Bucket* b = buckets_.find(pk);
  assert(b != nullptr);
  if (b->erase_member(eid))
    buckets_.erase(pk);
  else if (b->rep == eid)
    b->rep = b->members[0];
}

void ContractionLayer::h_add(EdgeKey ek) {
  if (++h_contrib_[ek] == 1) h_delta_.add(ek);
}

void ContractionLayer::h_remove(EdgeKey ek) {
  uint32_t* it = h_contrib_.find(ek);
  assert(it != nullptr);
  if (--*it == 0) {
    h_contrib_.erase(ek);
    h_delta_.remove(ek);
  }
}

bool ContractionLayer::edge_in_bot(uint32_t eid) const {
  const EdgeRec& r = edges_[eid];
  return head_[r.e.u] == kNoVertex || head_[r.e.v] == kNoVertex;
}

void ContractionLayer::attach(uint32_t eid) {
  if (edge_in_bot(eid)) h_add(edges_[eid].e.key());
  bucket_add(eid);
}

void ContractionLayer::detach(uint32_t eid) {
  if (edge_in_bot(eid)) h_remove(edges_[eid].e.key());
  bucket_remove(eid, pair_key_of(eid));
}

void ContractionLayer::recheck_head(VertexId v) {
  if (is_sampled(v)) return;
  VertexId h = compute_head(v);
  if (h == head_[v]) {
    // Head unchanged, but the head-edge contribution may have been dropped
    // if the head edge was deleted and re-inserted within this batch.
    EdgeKey want = h == kNoVertex ? kNoEdge : edge_key(v, h);
    if (head_edge_[v] != want) {
      if (head_edge_[v] != kNoEdge) h_remove(head_edge_[v]);
      head_edge_[v] = want;
      if (want != kNoEdge) h_add(want);
    }
    return;
  }
  // Move every incident edge: bot membership and bucket key both depend on
  // Head(v). Remove under the old head, flip, re-add under the new head.
  // Adjacency is stable during a move, so Adj(v) is walked twice in place.
  const std::vector<Arc>& arcs = adj_[v].arcs;
  for (const Arc& a : arcs) detach(a.edge_id);
  if (head_edge_[v] != kNoEdge) {
    h_remove(head_edge_[v]);
    head_edge_[v] = kNoEdge;
  }
  head_[v] = h;
  for (const Arc& a : arcs) attach(a.edge_id);
  if (h != kNoVertex) {
    head_edge_[v] = edge_key(v, h);
    h_add(head_edge_[v]);
  }
}

ContractionLayer::UpdateResult ContractionLayer::update(
    const std::vector<Edge>& ins, const std::vector<Edge>& del) {
  assert(h_delta_.empty());
  touched_pairs_.clear();
  std::vector<VertexId> recheck;
  recheck.reserve(2 * (ins.size() + del.size()));

  // --- Deletions. ---
  for (const Edge& e : del) {
    const uint32_t* it = edge_index_.find(e.key());
    if (it == nullptr) continue;
    uint32_t eid = *it;
    edge_index_.erase(e.key());
    EdgeRec& r = edges_[eid];
    detach(eid);
    remove_arc(r.e.u, r.slot_u);
    remove_arc(r.e.v, r.slot_v);
    r.alive = false;
    --alive_count_;
    pending_free_.push_back(eid);
    // The deleted edge may carry a head-edge contribution of an endpoint;
    // that endpoint's head necessarily changes (its min entry vanished), so
    // recheck_head will refresh it — but remove the stale contribution
    // first in case the new head edge coincides.
    for (VertexId w : {r.e.u, r.e.v}) {
      if (head_edge_[w] == r.e.key()) {
        h_remove(head_edge_[w]);
        head_edge_[w] = kNoEdge;
      }
      recheck.push_back(w);
    }
  }
  // --- Insertions. ---
  for (const Edge& e : ins) {
    if (e.u == e.v || e.u >= n_ || e.v >= n_) continue;
    if (edge_index_.contains(e.key())) continue;  // already present
    uint32_t eid;
    if (!free_ids_.empty()) {
      eid = free_ids_.back();
      free_ids_.pop_back();
      edges_[eid] = EdgeRec{e};
    } else {
      eid = uint32_t(edges_.size());
      edges_.push_back(EdgeRec{e});
    }
    edge_index_[e.key()] = eid;
    add_arcs(eid);
    attach(eid);
    recheck.push_back(e.u);
    recheck.push_back(e.v);
  }
  // --- Head rechecks (the D4/I4/I5 procedures), in ascending vertex order
  // so every bucket-representative election is deterministic. ---
  sort_unique(recheck);
  for (VertexId v : recheck) recheck_head(v);

  // --- Compile diffs, key-sorted (DESIGN.md §7.4). ---
  UpdateResult res;
  SpannerDiff hd = h_delta_.drain();
  res.h_ins = std::move(hd.inserted);
  res.h_del = std::move(hd.removed);
  for (EdgeKey pk : touched_pairs_.sorted_keys()) {
    const PairSnapshot& snap = *touched_pairs_.find(pk);
    Bucket* b = buckets_.find(pk);
    bool exists = b != nullptr;
    if (snap.existed && !exists) res.next_del.push_back(edge_from_key(pk));
    if (!snap.existed && exists) res.next_ins.push_back(edge_from_key(pk));
    if (snap.existed && exists && snap.old_rep != b->rep)
      res.rep_changed.push_back(edge_from_key(pk));
  }
  // The snapshots are read: this batch's dead ids may be reused from now on.
  free_ids_.insert(free_ids_.end(), pending_free_.begin(),
                   pending_free_.end());
  pending_free_.clear();
  return res;
}

std::vector<Edge> ContractionLayer::next_edges() const {
  std::vector<Edge> out;
  out.reserve(buckets_.size());
  for (EdgeKey pk : buckets_.sorted_keys()) out.push_back(edge_from_key(pk));
  return out;
}

Edge ContractionLayer::rep(Edge pair) const {
  const Bucket* b = buckets_.find(pair.key());
  assert(b != nullptr);
  return edges_[b->rep].e;
}

std::vector<Edge> ContractionLayer::h_edges() const {
  std::vector<Edge> out;
  out.reserve(h_contrib_.size());
  for (EdgeKey ek : h_contrib_.sorted_keys()) out.push_back(edge_from_key(ek));
  return out;
}

bool ContractionLayer::check_invariants() const {
  // Rescan every arc list: each arc's key mark, other endpoint and stored
  // slot, the cached minimum, and the head it implies.
  size_t arcs = 0;
  for (VertexId v = 0; v < n_; ++v) {
    const ArcList& l = adj_[v];
    if (!l.arcs.empty() && l.min >= l.arcs.size()) return false;
    for (uint32_t i = 0; i < l.arcs.size(); ++i) {
      const Arc& a = l.arcs[i];
      if (a.edge_id >= edges_.size()) return false;
      const EdgeRec& r = edges_[a.edge_id];
      if (!r.alive || (r.e.u != v && r.e.v != v)) return false;
      bool at_u = r.e.u == v;
      if ((at_u ? r.slot_u : r.slot_v) != i) return false;
      if (a.other != (at_u ? r.e.v : r.e.u)) return false;
      if ((a.key >> 62) != (is_sampled(a.other) ? 0u : 1u)) return false;
      if (a.key < l.arcs[l.min].key) return false;
    }
    arcs += l.arcs.size();
    if (compute_head(v) != head_[v]) return false;
  }
  if (arcs != 2 * alive_count_) return false;
  // The index holds exactly the alive records; every dead one is free.
  if (edge_index_.size() != alive_count_) return false;
  size_t dead = 0;
  for (uint32_t eid = 0; eid < edges_.size(); ++eid) {
    if (!edges_[eid].alive) {
      ++dead;
      continue;
    }
    const uint32_t* it = edge_index_.find(edges_[eid].e.key());
    if (it == nullptr || *it != eid) return false;
  }
  if (dead != free_ids_.size() + pending_free_.size()) return false;
  // Recompute buckets and H from scratch.
  FlatHashMap<EdgeKey, std::vector<uint32_t>> ref_buckets;
  FlatHashMap<EdgeKey, uint32_t> ref_h;
  for (uint32_t eid = 0; eid < edges_.size(); ++eid) {
    if (!edges_[eid].alive) continue;
    EdgeKey pk = pair_key_of(eid);
    if (pk != kNoEdge) ref_buckets[pk].push_back(eid);
    if (edge_in_bot(eid)) ++ref_h[edges_[eid].e.key()];
  }
  for (VertexId v = 0; v < n_; ++v) {
    if (is_sampled(v) || head_[v] == kNoVertex) {
      if (head_edge_[v] != kNoEdge) return false;
      continue;
    }
    if (head_edge_[v] != edge_key(v, head_[v])) return false;
    ++ref_h[head_edge_[v]];
  }
  if (ref_buckets.size() != buckets_.size()) return false;
  bool ok = true;
  ref_buckets.for_each([&](EdgeKey pk, std::vector<uint32_t>& members) {
    const Bucket* b = buckets_.find(pk);
    if (b == nullptr) {
      ok = false;
      return;
    }
    std::vector<uint32_t> have = b->members;
    std::sort(members.begin(), members.end());
    std::sort(have.begin(), have.end());
    if (have != members) ok = false;
    if (std::find(have.begin(), have.end(), b->rep) == have.end())
      ok = false;
  });
  if (!ok) return false;
  if (ref_h.size() != h_contrib_.size()) return false;
  ref_h.for_each([&](EdgeKey ek, uint32_t c) {
    const uint32_t* it = h_contrib_.find(ek);
    if (it == nullptr || *it != c) ok = false;
  });
  return ok;
}

}  // namespace parspan
