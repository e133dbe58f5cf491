#include "core/contraction.hpp"

#include <algorithm>
#include <cassert>

#include "parallel/csr.hpp"
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
  for (VertexId v = 0; v < n; ++v)
    if (rng.next_bool(1.0 / x_)) next_id_[v] = VertexId(next_n_++);
  if (next_n_ == 0 && n > 0) {
    next_id_[rng.next_below(n)] = 0;
    next_n_ = 1;
  }

  adj_.assign(n, {});
  head_edge_.assign(n, kNoEdge);
  buckets_ = Table(next_n_);

  // Insert edges, then compute heads, then attach contributions: init is
  // just an update() on an empty structure, but done in bulk.
  edge_index_.reserve(edges.size());
  for (const Edge& e : edges) {
    if (e.u == e.v || e.u >= n || e.v >= n) continue;
    if (edge_index_.contains(e.key())) continue;
    uint32_t eid = uint32_t(edges_.size());
    edge_index_[e.key()] = eid;
    edges_.push_back(EdgeRec{e});
    EdgeRec& r = edges_.back();
    r.alive = true;
    // Adj(u)'s key is drawn first: the draw order fixes every key.
    r.slot_u = push_arc(e.u, {entry_key(e.v, ++entry_counter_), e.v, eid});
    r.slot_v = push_arc(e.v, {entry_key(e.u, ++entry_counter_), e.u, eid});
  }
  alive_count_ = edges_.size();
  head_.resize(n);
  for (VertexId v = 0; v < n; ++v) head_[v] = compute_head(v);
  new_head_ = head_;
  std::vector<Table::Op> ops;
  for (uint32_t eid = 0; eid < edges_.size(); ++eid) {
    if (edge_in_bot(eid)) h_add(edges_[eid].e.key());
    EdgeKey pk = pair_key_of(eid);
    if (pk != kNoEdge) ops.push_back({pk, eid, true});
  }
  buckets_.apply(ops);
  // head-edge contributions.
  for (VertexId v = 0; v < n; ++v) {
    if (is_sampled(v) || head_[v] == kNoVertex) continue;
    head_edge_[v] = edge_key(v, head_[v]);
    h_add(head_edge_[v]);
  }
  h_delta_.reset();
}

uint64_t ContractionLayer::entry_key(VertexId other, uint64_t count) const {
  // Composite (unmark, rand) key: unmarked (other ∉ D) entries sort after
  // all marked ones; the low bits keep keys distinct.
  uint64_t unmark = is_sampled(other) ? 0 : 1;
  uint64_t rnd = hash_combine(seed_, count) >> 2;
  return (unmark << 62) | rnd;
}

uint32_t ContractionLayer::push_arc(VertexId x, const Arc& a) {
  ArcList& l = adj_[x];
  uint32_t i = uint32_t(l.arcs.size());
  if (i == 0 || a.key < l.arcs[l.min].key) l.min = i;
  l.arcs.push_back(a);
  return i;
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

ContractionLayer::UpdateResult ContractionLayer::update(
    const std::vector<Edge>& ins, const std::vector<Edge>& del) {
  assert(h_delta_.empty());

  // --- 1. Resolve the batch against the edge index (serial: the free-list
  // order fixes every record id). Deletions first. ---
  std::vector<uint32_t> dead, born;
  for (const Edge& e : del) {
    const uint32_t* it = edge_index_.find(e.key());
    if (it == nullptr) continue;
    dead.push_back(*it);
    edges_[*it].alive = false;
    edge_index_.erase(e.key());
  }
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
    edges_[eid].alive = true;
    edge_index_[e.key()] = eid;
    born.push_back(eid);
  }
  free_ids_.insert(free_ids_.end(), dead.begin(), dead.end());
  alive_count_ = alive_count_ + born.size() - dead.size();
  const size_t D = dead.size(), edited = D + born.size();
  auto rec_of = [&](size_t i) { return i < D ? dead[i] : born[i - D]; };
  // The serial procedure drew born[j]'s keys as counter values
  // first + 2j + 1 (Adj(u)) and first + 2j + 2 (Adj(v)).
  const uint64_t first = entry_counter_;
  entry_counter_ += 2 * born.size();

  // --- 2 + 3. Arc-list edits grouped by vertex: one task per vertex
  // replays its edits in batch order (edit 2i+s is endpoint s of record
  // rec_of(i)), then recomputes the vertex's head into new_head_. ---
  std::vector<uint32_t> at(2 * edited);
  parallel_for(0, edited, [&](size_t i) {
    const Edge& e = edges_[rec_of(i)].e;
    at[2 * i] = e.u;
    at[2 * i + 1] = e.v;
  });
  const GroupRuns g = group_runs(n_, at);
  std::vector<VertexId> touched(g.num_runs());  // ascending
  parallel_for(
      0, g.num_runs(),
      [&](size_t r) {
        const VertexId x = at[g.items[g.starts[r]]];
        touched[r] = x;
        for (size_t j = g.starts[r]; j < g.starts[r + 1]; ++j) {
          const uint32_t t = g.items[j], i = t / 2;
          const bool at_u = (t & 1) == 0;
          EdgeRec& rec = edges_[rec_of(i)];
          uint32_t& slot = at_u ? rec.slot_u : rec.slot_v;
          if (i < D) {
            remove_arc(x, slot);
          } else {
            const VertexId other = at_u ? rec.e.v : rec.e.u;
            const uint64_t count = first + 2 * (i - D) + (at_u ? 1 : 2);
            slot = push_arc(x, {entry_key(other, count), other, rec_of(i)});
          }
        }
        new_head_[x] = compute_head(x);
      },
      grain_for(g.num_runs(), at.size()));
  const std::vector<VertexId> moved = filter(
      touched, [&](VertexId v) { return new_head_[v] != head_[v]; });

  // --- 4. Table ops and H refcount edits, filled in parallel into
  // fixed-width runs at prefix offsets (unused slots hold kNoEdge, which
  // the consumers skip). The ops follow the serial procedure: deletions
  // and insertions under the committed heads, then each moved vertex v in
  // ascending order detaches and re-attaches its edges, seeing a neighbor
  // w's new head only if w < v (w moved before it). The H edits are nets,
  // which land the same in any order: ⊥ membership of the edited edges and
  // of each edge at a moved endpoint (counted from its smaller moved
  // endpoint), and every touched vertex's head edge. ---
  const RunOffsets deg = run_offsets(
      moved.size(), [&](size_t m) { return adj_[moved[m]].arcs.size(); });
  std::vector<Table::Op> ops(edited + 2 * deg.total(),
                            Table::Op{kNoEdge, 0, false});
  std::vector<HEdit> hedits(edited + deg.total() + 2 * touched.size(),
                            HEdit{kNoEdge, false});
  parallel_for(0, edited, [&](size_t i) {
    const uint32_t eid = rec_of(i);
    const EdgeKey pk = pair_key_of(eid);
    if (pk != kNoEdge) ops[i] = {pk, eid, i >= D};
    if (edge_in_bot(eid)) hedits[i] = {edges_[eid].e.key(), i >= D};
  });
  parallel_for(
      0, moved.size(),
      [&](size_t m) {
        const VertexId v = moved[m];
        const std::vector<Arc>& arcs = adj_[v].arcs;
        Table::Op* out = ops.data() + edited + 2 * deg.at[m];
        HEdit* hout = hedits.data() + edited + deg.at[m];
        for (size_t j = 0; j < arcs.size(); ++j) {
          const VertexId w = arcs[j].other;
          const VertexId hw = w < v ? new_head_[w] : head_[w];
          EdgeKey pk = pair_of(head_[v], hw);
          if (pk != kNoEdge) out[j] = {pk, arcs[j].edge_id, false};
          pk = pair_of(new_head_[v], hw);
          if (pk != kNoEdge) out[arcs.size() + j] = {pk, arcs[j].edge_id, true};
          if (w < v && new_head_[w] != head_[w]) continue;
          bool before = head_[v] == kNoVertex || head_[w] == kNoVertex;
          bool after = new_head_[v] == kNoVertex || new_head_[w] == kNoVertex;
          if (before != after) hout[j] = {edge_key(v, w), after};
        }
      },
      deg.grain());
  // Commit the heads (nothing reads the old ones past this point).
  HEdit* head_edits = hedits.data() + edited + deg.total();
  parallel_for(0, touched.size(), [&](size_t r) {
    const VertexId v = touched[r], h = new_head_[v];
    const EdgeKey want =
        is_sampled(v) || h == kNoVertex ? kNoEdge : edge_key(v, h);
    if (head_edge_[v] != want) {
      head_edits[2 * r] = {head_edge_[v], false};
      head_edits[2 * r + 1] = {want, true};
      head_edge_[v] = want;
    }
    head_[v] = h;
  });
  // Adds first, so no refcount dips below zero on the way.
  for (const HEdit& h : hedits)
    if (h.add && h.e != kNoEdge) h_add(h.e);
  for (const HEdit& h : hedits)
    if (!h.add && h.e != kNoEdge) h_remove(h.e);

  UpdateResult res;
  static_cast<Table::Diff&>(res) = buckets_.apply(ops);
  SpannerDiff hd = h_delta_.drain();
  res.h_ins = std::move(hd.inserted);
  res.h_del = std::move(hd.removed);
  return res;
}

SpannerDiff ContractionLayer::compose(const UpdateResult& r,
                                      const SpannerDiff& next) {
  return buckets_.compose(r.h_ins, r.h_del, next, r, member_key());
}

std::vector<Edge> ContractionLayer::spanner_edges() const {
  return buckets_.composed(h_edges(), member_key());
}

bool ContractionLayer::in_spanner(Edge e) const {
  if (h_contrib_.contains(e.key())) return true;
  const uint32_t* id = edge_index_.find(e.key());
  return id != nullptr && buckets_.holds(pair_key_of(*id), *id);
}

bool ContractionLayer::check_composed(const std::vector<Edge>& s_next) const {
  return buckets_.check_composed(h_edges(), s_next, member_key());
}

std::vector<Edge> ContractionLayer::next_edges() const {
  return buckets_.pairs();
}

Edge ContractionLayer::rep(Edge pair) const {
  return edges_[buckets_.rep(pair.key())].e;
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
  if (dead != free_ids_.size()) return false;
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
  if (!buckets_.matches(ref_buckets)) return false;
  if (ref_h.size() != h_contrib_.size()) return false;
  bool ok = true;
  ref_h.for_each([&](EdgeKey ek, uint32_t c) {
    const uint32_t* it = h_contrib_.find(ek);
    if (it == nullptr || *it != c) ok = false;
  });
  return ok;
}

}  // namespace parspan
