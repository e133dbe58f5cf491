#include "core/ultra.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "parallel/arena.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/primitives.hpp"
#include "util/rng.hpp"

namespace parspan {

namespace {

/// Per-executor scratch slot for the calling thread. The pool must be sized
/// to executor_slots() (serially) before any parallel compute phase starts:
/// work stealing lets ANY scheduler thread run a loop body regardless of the
/// active loop parallelism, so sizing by num_workers() alone would alias
/// slots across threads.
template <typename T>
T& slot_for_thread(std::vector<T>& pool) {
  return pool[size_t(worker_slot()) % pool.size()];
}

}  // namespace

UltraSparseSpanner::UltraSparseSpanner(size_t n,
                                       const std::vector<Edge>& edges,
                                       const UltraConfig& cfg)
    : n_(n), cfg_(cfg), graph_(n), buckets_(n), h2_(n) {
  uint32_t x = std::max(2u, cfg.x);
  T_ = uint32_t(
      std::ceil(10.0 * double(x) * std::max(1.0, std::log2(double(x)))));
  Rng rng(hash_combine(cfg.seed, 0x17a));
  sampled_.assign(n, 0);
  rand_.assign(n, 0);
  bool any = false;
  for (VertexId v = 0; v < n; ++v) {
    sampled_[v] = rng.next_bool(1.0 / double(x)) ? 1 : 0;
    any |= sampled_[v];
    rand_[v] = hash_combine(cfg.seed, 0x9a0 + v);
  }
  if (!any && n > 0) sampled_[rng.next_below(n)] = 1;

  std::vector<Edge> applied = graph_.insert_edges(edges);

  // Heads, two phases (DESIGN.md §7.2): heavy/sampled heads are computed
  // and written first (they read adjacency only), then the light
  // Algorithm-5 balls run against them under parallel_for with per-thread
  // scratch. Writes are per-vertex disjoint, so both phases commit in the
  // parallel loop itself.
  head_.assign(n, kBot);
  par_edge_.assign(n, kNoEdge);
  scratch_.resize(size_t(std::max(1, executor_slots())));
  ArenaScope head_scratch;  // res is construction-scoped (DESIGN.md §12.5)
  ArenaVector<HeadResult> res(n);
  parallel_for(0, n, [&](size_t v) {
    if (sampled_[v] || heavy(VertexId(v))) {
      res[v] = compute_head(VertexId(v), slot_for_thread(scratch_));
      head_[v] = res[v].head;
    }
  });
  parallel_for(0, n, [&](size_t v) {
    if (!sampled_[v] && !heavy(VertexId(v))) {
      res[v] = compute_head(VertexId(v), slot_for_thread(scratch_));
      head_[v] = res[v].head;
    }
  });

  // Buckets (canonical edge order) and H1 parent edges, then the H2 forest
  // seeded at every ⊥ vertex in ascending order.
  new_head_ = head_;
  {
    std::vector<Table::Op> ops;
    emit_edge_ops(ops, applied, true);
    buckets_.apply(ops);
  }
  std::vector<VertexId> bots;
  for (VertexId v = 0; v < n; ++v) {
    const HeadResult& hr = res[v];
    assert(hr.head == head_[v]);
    if (hr.head == kBot) bots.push_back(v);
    par_edge_[v] = par_edge_of(v, hr);
  }
  h2_.rebuild(bots, h2_nbrs(), h_net_);
  h_net_.reset();  // the bulk compose_.apply below reads the forest itself

  // Next-level structure over the contracted graph (vertex set = V).
  SparseSpannerConfig nc = cfg.next;
  nc.seed = hash_combine(cfg.seed, 0x4e7);
  next_ = std::make_unique<SparseSpanner>(n, buckets_.pairs(), nc);

  compose_.apply(h_edges(), {}, SpannerDiff{next_->spanner_edges(), {}}, {},
                 rep_of());
}

std::vector<Edge> UltraSparseSpanner::h_edges() const {
  std::vector<Edge> h = h2_.forest_edges();
  for (VertexId v = 0; v < n_; ++v)
    if (par_edge_[v] != kNoEdge) h.push_back(edge_from_key(par_edge_[v]));
  return h;
}

SpannerComposition::RepOf UltraSparseSpanner::rep_of() const {
  return [this](Edge pair) { return buckets_.rep(pair.key()); };
}

uint32_t UltraSparseSpanner::stretch_bound() const {
  // Lemma 5.1: 21 x log x (L+1); we use the implemented radius T_ directly:
  // 2T (H2 / intra-cluster detours) per hop of the next-level spanner.
  return (2 * T_ + 1) * (next_->stretch_bound() + 1) +
         next_->stretch_bound();
}

UltraSparseSpanner::HeadResult UltraSparseSpanner::compute_head(
    VertexId v, HeadScratch& hs) const {
  HeadResult hr;
  if (sampled_[v]) {
    hr.head = v;
    return hr;
  }
  if (heavy(v)) {
    // Sampled neighbor with minimum rand; else self (v joins D').
    VertexId best = kNoVertex;
    for (VertexId w : graph_.neighbors(v))
      if (sampled_[w] && (best == kNoVertex || rand_[w] < rand_[best]))
        best = w;
    hr.head = best == kNoVertex ? v : best;
    hr.par = best;
    return hr;
  }
  // Algorithm 5: bounded BFS of radius T_, no branching through heavy
  // vertices; early exit once deeper levels cannot beat the best candidate.
  // Ball state lives in the epoch-stamped scratch: O(ball) words touched,
  // no hashing, no per-call allocation after warm-up.
  hs.ensure(n_);
  ++hs.epoch;
  hs.frontier.clear();
  hs.frontier.push_back(v);
  hs.stamp[v] = hs.epoch;
  hs.dist[v] = 0;
  hs.par[v] = kNoVertex;
  size_t ball = 1;  // visited vertices
  // Candidate = (distance, rand, center, realizing vertex).
  uint32_t bd = UINT32_MAX;
  uint64_t br = 0;
  VertexId bc = kNoVertex, bw = kNoVertex;
  auto offer = [&](uint32_t d, VertexId center, VertexId via) {
    if (d > T_) return;
    if (d < bd || (d == bd && rand_[center] < br)) {
      bd = d;
      br = rand_[center];
      bc = center;
      bw = via;
    }
  };
  for (uint32_t level = 0; !hs.frontier.empty(); ++level) {
    // Examine this level's vertices for candidates.
    for (VertexId w : hs.frontier) {
      if (!heavy(w)) {
        if (sampled_[w]) offer(level, w, w);
      } else {
        VertexId hw = head_[w];
        assert(hw != kBot);
        if (hs.stamp[hw] == hs.epoch)
          offer(hs.dist[hw], hw, w);  // head visited: exact distance
        else
          offer(level + 1, hw, w);  // assume Dist(w) + 1
      }
    }
    if (level >= T_ || level >= bd) break;  // deeper cannot win
    hs.next.clear();
    for (VertexId w : hs.frontier) {
      if (heavy(w)) continue;  // no branching through heavy vertices
      for (VertexId z : graph_.neighbors(w)) {
        if (hs.stamp[z] == hs.epoch) continue;
        hs.stamp[z] = hs.epoch;
        hs.dist[z] = level + 1;
        hs.par[z] = w;
        hs.next.push_back(z);
        ++ball;
      }
    }
    std::swap(hs.frontier, hs.next);
  }
  if (bc != kNoVertex) {
    hr.head = bc;
    // Parent: first hop from v toward the realizing vertex bw (== the head
    // itself when adjacent). bw != v: v is light and unsampled, so it never
    // offers at level 0.
    VertexId walk = bw;
    while (hs.par[walk] != v) walk = hs.par[walk];
    hr.par = walk;
    return hr;
  }
  // No candidate: every visited vertex is light and unsampled, so the BFS
  // explored the component freely. The paper's rule: ⊥ iff the component
  // has at most 10 x log x vertices (a radius-truncated BFS has visited
  // more than T_ of them), else v stays its own unclustered vertex.
  hr.head = ball <= size_t(T_) ? kBot : v;
  return hr;
}

std::vector<VertexId> UltraSparseSpanner::light_need_recompute(
    const std::vector<VertexId>& seeds) {
  // Algorithm 6: BFS of radius T_ from the seeds, branching through light
  // vertices and through (heavy) seeds. Epoch-stamped marks keep the sweep
  // allocation-free; the result is sorted so the downstream recompute and
  // commit order is canonical.
  if (seed_mark_.size() < n_) {
    seed_mark_.resize(n_, 0);
    visit_mark_.resize(n_, 0);
  }
  ++mark_epoch_;
  std::vector<VertexId> visited = seeds;
  std::vector<VertexId> frontier = seeds;
  for (VertexId s : seeds) {
    seed_mark_[s] = mark_epoch_;
    visit_mark_[s] = mark_epoch_;
  }
  for (uint32_t level = 1; level <= T_ && !frontier.empty(); ++level) {
    std::vector<VertexId> next;
    for (VertexId w : frontier) {
      if (heavy(w) && seed_mark_[w] != mark_epoch_) continue;
      for (VertexId z : graph_.neighbors(w)) {
        if (visit_mark_[z] == mark_epoch_) continue;
        visit_mark_[z] = mark_epoch_;
        next.push_back(z);
        visited.push_back(z);
      }
    }
    frontier = std::move(next);
  }
  std::vector<VertexId> out;
  for (VertexId w : visited)
    if (!heavy(w) && !sampled_[w]) out.push_back(w);
  std::sort(out.begin(), out.end());
  return out;
}

void UltraSparseSpanner::emit_edge_ops(std::vector<Table::Op>& ops,
                                       const std::vector<Edge>& edges,
                                       bool add) const {
  const size_t base = ops.size();
  ops.resize(base + edges.size(), Table::Op{kNoEdge, 0, false});
  parallel_for(0, edges.size(), [&](size_t i) {
    const EdgeKey pk = pair_key_of(edges[i]);
    if (pk != kNoEdge) ops[base + i] = {pk, edges[i].key(), add};
  });
}

void UltraSparseSpanner::commit_heads(std::vector<Table::Op>& ops,
                                      const std::vector<VertexId>& vs,
                                      const std::vector<HeadResult>& hrs) {
  parallel_for(0, vs.size(),
               [&](size_t i) { new_head_[vs[i]] = hrs[i].head; });
  // Each v detaches its edges under its old head and re-attaches them under
  // its new one, seeing a neighbor w's new head only if w < v (w committed
  // before it): fixed-width runs of ops at prefix offsets of the degrees
  // (unused slots skip). H2 membership churn goes in as per-edge nets, each
  // edge once from its smaller endpoint whose head moved. Adjacency is
  // stable during a commit phase.
  const RunOffsets deg =
      run_offsets(vs.size(), [&](size_t i) { return graph_.degree(vs[i]); });
  const size_t base = ops.size();
  ops.resize(base + 2 * deg.total(), Table::Op{kNoEdge, 0, false});
  struct Net {
    EdgeKey e;
    bool add;
  };
  std::vector<Net> h2(deg.total(), Net{kNoEdge, false});
  parallel_for(
      0, vs.size(),
      [&](size_t i) {
        const VertexId v = vs[i];
        auto nbrs = graph_.neighbors(v);
        Table::Op* out = ops.data() + base + 2 * deg.at[i];
        Net* hout = h2.data() + deg.at[i];
        const bool moved = new_head_[v] != head_[v];
        for (size_t j = 0; j < nbrs.size(); ++j) {
          const VertexId w = nbrs[j];
          const EdgeKey e = edge_key(v, w);
          const VertexId hw = w < v ? new_head_[w] : head_[w];
          EdgeKey pk = pair_of(head_[v], hw);
          if (pk != kNoEdge) out[j] = {pk, e, false};
          pk = pair_of(new_head_[v], hw);
          if (pk != kNoEdge) out[nbrs.size() + j] = {pk, e, true};
          if (!moved || (w < v && new_head_[w] != head_[w])) continue;
          bool before = head_[v] == kBot && head_[w] == kBot;
          bool after = new_head_[v] == kBot && new_head_[w] == kBot;
          if (before != after) hout[j] = {e, after};
        }
      },
      deg.grain());
  for (const Net& x : h2)
    if (x.e != kNoEdge) x.add ? h2_net_.add(x.e) : h2_net_.remove(x.e);
  // H1 parent edges.
  for (size_t i = 0; i < vs.size(); ++i) {
    const VertexId v = vs[i];
    const EdgeKey want = par_edge_of(v, hrs[i]);
    if (par_edge_[v] != want) {
      if (par_edge_[v] != kNoEdge) h_net_.remove(par_edge_[v]);
      par_edge_[v] = want;
      if (want != kNoEdge) h_net_.add(want);
    }
  }
  parallel_for(0, vs.size(),
               [&](size_t i) { head_[vs[i]] = new_head_[vs[i]]; });
}

SpannerDiff UltraSparseSpanner::update(const std::vector<Edge>& insertions,
                                       const std::vector<Edge>& deletions) {
  assert(h_net_.empty() && h2_net_.empty());

  // --- Apply the batch to the flat graph; bookkeep per applied edge. The
  // applied lists come back canonical and key-sorted, which pins down every
  // bucket-representative election below. ---
  std::vector<Table::Op> ops;  // the batch's table edits, in serial order
  std::vector<Edge> removed = graph_.erase_edges(deletions);
  emit_edge_ops(ops, removed, false);
  std::vector<VertexId> touched;
  touched.reserve(2 * (removed.size() + insertions.size()));
  for (const Edge& e : removed) {
    if (edge_in_h2(e)) h2_net_.remove(e.key());
    // A dying parent edge leaves H1 immediately; the endpoint's head is
    // recomputed below.
    for (VertexId w : {e.u, e.v}) {
      if (par_edge_[w] == e.key()) {
        h_net_.remove(par_edge_[w]);
        par_edge_[w] = kNoEdge;
      }
      touched.push_back(w);
    }
  }
  std::vector<Edge> added = graph_.insert_edges(insertions);
  emit_edge_ops(ops, added, true);
  for (const Edge& e : added) {
    if (edge_in_h2(e)) h2_net_.add(e.key());
    touched.push_back(e.u);
    touched.push_back(e.v);
  }
  sort_unique(touched);

  // --- Recomputation (paper §5.2): heavy seeds first, then Algorithm 6's
  // light set against the committed heavy heads. Each phase computes heads
  // in parallel (reads committed state only) and commits the vertices whose
  // head or parent edge changed (DESIGN.md §7.2). ---
  if (scratch_.size() < size_t(std::max(1, executor_slots())))
    scratch_.resize(size_t(std::max(1, executor_slots())));
  // Head-result arrays are the batch's big scratch: arena-backed, reclaimed
  // when this scope closes at the end of the recomputation (§12.5).
  ArenaScope recompute_scratch;
  auto commit_changed = [&](const std::vector<VertexId>& vs,
                            const ArenaVector<HeadResult>& res, auto&& skip) {
    std::vector<VertexId> cv;
    std::vector<HeadResult> chr;
    for (size_t i = 0; i < vs.size(); ++i) {
      const VertexId v = vs[i];
      if (skip(v)) continue;
      const HeadResult& hr = res[i];
      if (hr.head != head_[v] || par_edge_[v] != par_edge_of(v, hr)) {
        cv.push_back(v);
        chr.push_back(hr);
      }
    }
    commit_heads(ops, cv, chr);
  };
  // Most touched vertices are light and skip at once: adaptive grain.
  ArenaVector<HeadResult> hres(touched.size());
  parallel_for(0, touched.size(), [&](size_t i) {
    VertexId v = touched[i];
    if (sampled_[v] || heavy(v))
      hres[i] = compute_head(v, slot_for_thread(scratch_));
  });
  commit_changed(touched, hres,
                 [&](VertexId v) { return !sampled_[v] && !heavy(v); });
  std::vector<VertexId> lights = light_need_recompute(touched);
  ArenaVector<HeadResult> lres(lights.size());
  parallel_for(
      0, lights.size(),
      [&](size_t i) {
        lres[i] = compute_head(lights[i], slot_for_thread(scratch_));
      },
      /*grain=*/1);
  commit_changed(lights, lres, [](VertexId) { return false; });

  // --- H2 forest rebuild around the endpoints of the netted membership
  // churn (drained key-sorted); its tree churn lands in h_net_. ---
  {
    SpannerDiff net = h2_net_.drain();
    std::vector<VertexId> seeds;
    for (const auto* side : {&net.removed, &net.inserted})
      for (const Edge& e : *side) {
        seeds.push_back(e.u);
        seeds.push_back(e.v);
      }
    h2_.rebuild(seeds, h2_nbrs(), h_net_);
  }

  // --- Next-level update, then S = H ∪ rep(S_next) over the touched pairs
  // in canonical key order. ---
  Table::Diff pd = buckets_.apply(ops);
  SpannerDiff nd = next_->update(pd.next_ins, pd.next_del);
  SpannerDiff hd = h_net_.drain();
  return compose_.apply(hd.inserted, hd.removed, nd, pd.rep_changed,
                        rep_of());
}

bool UltraSparseSpanner::check_invariants() const {
  // Reference heads: heavy/sampled from adjacency, then light against the
  // committed heavy heads.
  HeadScratch hs;
  for (VertexId v = 0; v < n_; ++v)
    if (sampled_[v] || heavy(v))
      if (compute_head(v, hs).head != head_[v]) return false;
  for (VertexId v = 0; v < n_; ++v) {
    if (sampled_[v] || heavy(v)) continue;
    if (compute_head(v, hs).head != head_[v]) return false;
  }
  // H1 parent contributions: for clustered v the stored edge must connect v
  // to a live neighbor sharing v's head.
  for (VertexId v = 0; v < n_; ++v) {
    if (head_[v] == kBot || head_[v] == v) {
      if (par_edge_[v] != kNoEdge) return false;
      continue;
    }
    if (par_edge_[v] == kNoEdge) return false;
    Edge pe = edge_from_key(par_edge_[v]);
    VertexId p = pe.other(v);
    if (!graph_.has_edge(v, p)) return false;
    if (head_[p] != head_[v]) return false;  // Lemma 5.3 in-cluster parent
  }
  // Buckets from scratch.
  FlatHashMap<EdgeKey, std::vector<EdgeKey>> ref_buckets;
  graph_.for_each_edge([&](Edge e) {
    EdgeKey pk = pair_key_of(e);
    if (pk != kNoEdge) ref_buckets[pk].push_back(e.key());
  });
  if (!buckets_.matches(ref_buckets)) return false;
  if (!h2_.check_invariants(h2_nbrs())) return false;
  if (!next_->check_invariants()) return false;
  // Next structure's graph must equal the bucket pairs.
  if (next_->num_edges() != buckets_.size()) return false;
  return compose_.check_invariants(h_edges(), next_->spanner_edges(),
                                   rep_of());
}

}  // namespace parspan
