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
  buckets_ = NextLevelEdges(next_n_);

  // Insert edges, then compute heads, then attach contributions: init is
  // just an update() on an empty structure, but done in bulk.
  std::vector<Edge> kept;
  index_.reserve(edges.size());
  for (const Edge& e : edges) {
    if (e.u == e.v || e.u >= n || e.v >= n) continue;
    if (index_.contains(e.key())) continue;
    kept.push_back(e);
    // Adj(u)'s key is drawn first: the draw order fixes every key.
    const uint32_t su = push_arc(e.u, {entry_key(e.v, ++entry_counter_), e.v});
    const uint32_t sv = push_arc(e.v, {entry_key(e.u, ++entry_counter_), e.u});
    index_[e.key()] = e.u < e.v ? Slots{su, sv} : Slots{sv, su};
  }
  head_.resize(n);
  for (VertexId v = 0; v < n; ++v) head_[v] = compute_head(v);
  new_head_ = head_;
  std::vector<NextLevelEdges::Op> ops;
  for (const Edge& e : kept) {
    if (edge_in_bot(e)) h_.insert(e.key());
    EdgeKey pk = pair_key_of(e);
    if (pk != kNoEdge) ops.push_back({pk, e.key(), true});
  }
  buckets_.apply(ops);
  // head-edge contributions.
  for (VertexId v = 0; v < n; ++v) {
    if (is_sampled(v) || head_[v] == kNoVertex) continue;
    head_edge_[v] = edge_key(v, head_[v]);
    h_.insert(head_edge_[v]);
  }
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
    slot(x, l.arcs[i].other) = i;
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

ContractionLayer::UpdateResult ContractionLayer::update(
    const std::vector<Edge>& ins, const std::vector<Edge>& del) {
  assert(h_delta_.empty());

  // --- 1. Resolve the batch against the index (serial). Deletions first:
  // a deleted edge stays indexed, marked dying, until phase 2 has removed
  // its arcs, and a re-insert within the batch clears the mark. ---
  std::vector<Edge> edits;  // the dead edges, then the born ones
  for (const Edge& e : del) {
    Slots* s = index_.find(e.key());
    if (s == nullptr || s->dying) continue;
    s->dying = true;
    edits.push_back(e);
  }
  const size_t D = edits.size();
  for (const Edge& e : ins) {
    if (e.u == e.v || e.u >= n_ || e.v >= n_) continue;
    Slots* s = index_.find(e.key());
    if (s != nullptr && !s->dying) continue;  // already present
    if (s == nullptr) s = &index_[e.key()];
    s->dying = false;
    edits.push_back(e);
  }
  const size_t edited = edits.size();
  // The serial procedure drew born edge j's keys as counter values
  // first + 2j + 1 (Adj(u)) and first + 2j + 2 (Adj(v)).
  const uint64_t first = entry_counter_;
  entry_counter_ += 2 * (edited - D);

  // --- 2 + 3. Arc-list edits grouped by vertex: one task per vertex
  // replays its edits in batch order (edit 2i+s is endpoint s of
  // edits[i]), then recomputes the vertex's head into new_head_. ---
  std::vector<uint32_t> at(2 * edited);
  parallel_for(0, edited, [&](size_t i) {
    at[2 * i] = edits[i].u;
    at[2 * i + 1] = edits[i].v;
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
          const VertexId other = at_u ? edits[i].v : edits[i].u;
          if (i < D) {
            remove_arc(x, slot(x, other));
          } else {
            const uint64_t count = first + 2 * (i - D) + (at_u ? 1 : 2);
            slot(x, other) = push_arc(x, {entry_key(other, count), other});
          }
        }
        new_head_[x] = compute_head(x);
      },
      grain_for(g.num_runs(), at.size()));
  const std::vector<VertexId> moved = filter(
      touched, [&](VertexId v) { return new_head_[v] != head_[v]; });
  // The dead edges' arcs are gone: drop the entries not re-inserted.
  for (size_t i = 0; i < D; ++i)
    if (index_.find(edits[i].key())->dying) index_.erase(edits[i].key());

  // --- 4. Table ops and H edits, filled in parallel into fixed-width runs
  // at prefix offsets (unused slots hold kNoEdge, which the consumers
  // skip). The ops follow the serial procedure: deletions and insertions
  // under the committed heads, then each moved vertex v in ascending order
  // detaches and re-attaches its edges, seeing a neighbor w's new head
  // only if w < v (w moved before it). The H edits are nets, which land
  // the same in any order: ⊥ membership of the edited edges and of each
  // edge at a moved endpoint (counted from its smaller moved endpoint),
  // and every touched vertex's head edge. ---
  const RunOffsets deg = run_offsets(
      moved.size(), [&](size_t m) { return adj_[moved[m]].arcs.size(); });
  std::vector<NextLevelEdges::Op> ops(edited + 2 * deg.total(),
                                     {kNoEdge, 0, false});
  std::vector<HEdit> hedits(edited + deg.total() + 2 * touched.size(),
                            HEdit{kNoEdge, false});
  parallel_for(0, edited, [&](size_t i) {
    const EdgeKey pk = pair_key_of(edits[i]);
    if (pk != kNoEdge) ops[i] = {pk, edits[i].key(), i >= D};
    if (edge_in_bot(edits[i])) hedits[i] = {edits[i].key(), i >= D};
  });
  parallel_for(
      0, moved.size(),
      [&](size_t m) {
        const VertexId v = moved[m];
        const std::vector<Arc>& arcs = adj_[v].arcs;
        NextLevelEdges::Op* out = ops.data() + edited + 2 * deg.at[m];
        HEdit* hout = hedits.data() + edited + deg.at[m];
        for (size_t j = 0; j < arcs.size(); ++j) {
          const VertexId w = arcs[j].other;
          const VertexId hw = w < v ? new_head_[w] : head_[w];
          const EdgeKey ek = edge_key(v, w);
          EdgeKey pk = pair_of(head_[v], hw);
          if (pk != kNoEdge) out[j] = {pk, ek, false};
          pk = pair_of(new_head_[v], hw);
          if (pk != kNoEdge) out[arcs.size() + j] = {pk, ek, true};
          if (w < v && new_head_[w] != head_[w]) continue;
          bool before = head_[v] == kNoVertex || head_[w] == kNoVertex;
          bool after = new_head_[v] == kNoVertex || new_head_[w] == kNoVertex;
          if (before != after) hout[j] = {ek, after};
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
  for (const HEdit& h : hedits)
    if (h.e != kNoEdge) h_delta_.bump(h.e, h.add ? 1 : -1);

  UpdateResult res;
  static_cast<NextLevelEdges::Diff&>(res) = buckets_.apply(ops);
  SpannerDiff hd = h_delta_.drain();
  for (const Edge& e : hd.removed) h_.erase(e.key());
  for (const Edge& e : hd.inserted) h_.insert(e.key());
  res.h_ins = std::move(hd.inserted);
  res.h_del = std::move(hd.removed);
  return res;
}

SpannerDiff ContractionLayer::compose(const UpdateResult& r,
                                      const SpannerDiff& next) {
  return buckets_.compose(r.h_ins, r.h_del, next, r);
}

std::vector<Edge> ContractionLayer::spanner_edges() const {
  return buckets_.composed(h_edges());
}

bool ContractionLayer::in_spanner(Edge e) const {
  if (h_.contains(e.key())) return true;
  return index_.contains(e.key()) && buckets_.holds(pair_key_of(e), e.key());
}

bool ContractionLayer::check_composed(const std::vector<Edge>& s_next) const {
  return buckets_.check_composed(h_edges(), s_next);
}

std::vector<Edge> ContractionLayer::next_edges() const {
  return buckets_.pairs();
}

Edge ContractionLayer::rep(Edge pair) const {
  return edge_from_key(buckets_.rep(pair.key()));
}

std::vector<Edge> ContractionLayer::h_edges() const {
  return edges_from_keys(h_.sorted_keys());
}

bool ContractionLayer::check_invariants() const {
  // Rescan every arc list: each arc's key mark, other endpoint and indexed
  // slot, the cached minimum, and the head it implies.
  size_t arcs = 0;
  for (VertexId v = 0; v < n_; ++v) {
    const ArcList& l = adj_[v];
    if (!l.arcs.empty() && l.min >= l.arcs.size()) return false;
    for (uint32_t i = 0; i < l.arcs.size(); ++i) {
      const Arc& a = l.arcs[i];
      if (a.other >= n_ || a.other == v) return false;
      const Slots* s = index_.find(edge_key(v, a.other));
      if (s == nullptr || s->dying) return false;
      if ((v < a.other ? s->lo : s->hi) != i) return false;
      if ((a.key >> 62) != (is_sampled(a.other) ? 0u : 1u)) return false;
      if (a.key < l.arcs[l.min].key) return false;
    }
    arcs += l.arcs.size();
    if (compute_head(v) != head_[v]) return false;
  }
  // The arcs name distinct slots, so each indexed edge has both of its arcs.
  if (arcs != 2 * index_.size()) return false;
  // Recompute buckets and H from scratch; H's two parts are disjoint.
  FlatHashMap<EdgeKey, std::vector<EdgeKey>> ref_buckets;
  FlatHashSet<EdgeKey> ref_h;
  index_.for_each([&](EdgeKey ek, const Slots&) {
    EdgeKey pk = pair_key_of(edge_from_key(ek));
    if (pk != kNoEdge) ref_buckets[pk].push_back(ek);
    if (edge_in_bot(edge_from_key(ek))) ref_h.insert(ek);
  });
  for (VertexId v = 0; v < n_; ++v) {
    if (is_sampled(v) || head_[v] == kNoVertex) {
      if (head_edge_[v] != kNoEdge) return false;
      continue;
    }
    if (head_edge_[v] != edge_key(v, head_[v])) return false;
    if (!ref_h.insert(head_edge_[v])) return false;
  }
  return buckets_.matches(ref_buckets) &&
         ref_h.sorted_keys() == h_.sorted_keys();
}

}  // namespace parspan
