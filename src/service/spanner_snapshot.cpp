#include "service/spanner_snapshot.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>

#include "container/flat_map.hpp"
#include "parallel/csr.hpp"
#include "util/rng.hpp"

namespace parspan {

namespace {

// The multiset hash's per-key term. splitmix64 is a bijection, so distinct
// keys never share a term.
uint64_t key_term(EdgeKey k) { return splitmix64(k); }

// Folds the header fields and the key count into the multiset sum. The
// count makes a truncated set differ even if the dropped terms summed to
// zero.
uint64_t seal_checksum(uint64_t n, uint32_t stretch, uint64_t version,
                       uint64_t num_keys, uint64_t key_sum) {
  uint64_t h = hash_combine(n << 32 | stretch, version);
  return splitmix64(hash_combine(h, num_keys) ^ key_sum);
}

uint64_t key_sum_of(std::span<const EdgeKey> keys) {
  uint64_t sum = 0;
  for (EdgeKey k : keys) sum += key_term(k);
  return sum;
}

// Arc (src -> dst) packed as src << 32 | dst: ascending arc order is
// (src, dst) order, and a canonical key is its own lo -> hi arc.
VertexId arc_src(uint64_t a) { return VertexId(a >> 32); }
VertexId arc_dst(uint64_t a) { return VertexId(a); }

// The 2·|keys| arcs of one diff side, ascending; false unless the side is
// strictly ascending, in range and loop-free. `sum` moves by each key's
// term with the sign of the side.
bool side_arcs(std::span<const EdgeKey> keys, uint64_t n, bool adding,
               uint64_t* sum, std::vector<uint64_t>* arcs) {
  arcs->resize(2 * keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    if (i > 0 && keys[i] <= keys[i - 1]) return false;
    if (!valid_edge_key(keys[i], n)) return false;
    auto [lo, hi] = edge_endpoints(keys[i]);
    *sum += adding ? key_term(keys[i]) : -key_term(keys[i]);
    (*arcs)[2 * i] = keys[i];
    (*arcs)[2 * i + 1] = uint64_t(hi) << 32 | lo;
  }
  std::sort(arcs->begin(), arcs->end());
  return true;
}

// Room for a flat rewrite's writes before a rejection (`slack` past the
// live arcs), and for the patches after it up to twice the live arcs —
// span offsets are 32-bit.
size_t arena_capacity(size_t live, size_t slack) {
  return std::max(live + slack, std::min<size_t>(2 * live, UINT32_MAX));
}

}  // namespace

// Versions only read the arena prefix they reference. apply() claims the
// region past its predecessor's prefix by moving `end` from that prefix, so
// a second diff applied to the same predecessor finds the region taken and
// rewrites flat instead of overwriting lists another version reads.
struct SpannerSnapshot::Arena {
  explicit Arena(size_t capacity)
      : arcs(std::make_unique_for_overwrite<VertexId[]>(capacity)),
        capacity(capacity) {}
  std::unique_ptr<VertexId[]> arcs;
  const size_t capacity;
  std::atomic<size_t> end{0};  // first arc no version references
};

uint64_t snapshot_content_checksum(uint64_t n, uint32_t stretch,
                                   uint64_t version,
                                   std::span<const EdgeKey> keys) {
  return seal_checksum(n, stretch, version, keys.size(), key_sum_of(keys));
}

void SpannerSnapshot::seal(uint64_t key_sum) {
  key_sum_ = key_sum;
  checksum_ = seal_checksum(n_, stretch_, version_, num_edges(), key_sum);
}

SpannerSnapshot::Ptr SpannerSnapshot::restore(size_t n, uint32_t stretch,
                                              uint64_t version,
                                              std::span<const EdgeKey> keys) {
  auto snap = std::shared_ptr<SpannerSnapshot>(new SpannerSnapshot());
  snap->version_ = version;
  snap->stretch_ = stretch;
  snap->n_ = n;
  CsrGraph csr = csr_build_from_keys(n, keys);
  const size_t live = csr.nbr.size();
  snap->arena_ = std::make_shared<Arena>(arena_capacity(live, 0));
  snap->arena_->end = live;
  snap->arcs_ = snap->arena_->arcs.get();
  std::copy(csr.nbr.begin(), csr.nbr.end(), snap->arena_->arcs.get());
  snap->spans_.resize(n);
  for (VertexId v = 0; v < n; ++v)
    snap->spans_[v] = {csr.offsets[v], csr.degree(v)};
  snap->live_arcs_ = snap->held_arcs_ = live;
  snap->seal(key_sum_of(keys));
  return snap;
}

SpannerSnapshot::Ptr SpannerSnapshot::initial(
    size_t n, const std::vector<Edge>& spanner_edges, uint32_t stretch) {
  return restore(n, stretch, 0, canonical_edge_keys(n, spanner_edges));
}

SpannerSnapshot::Ptr SpannerSnapshot::apply(const SpannerSnapshot& prev,
                                            const SpannerDiff& diff) {
  return apply(prev, diff_side_keys(diff.inserted),
               diff_side_keys(diff.removed));
}

SpannerSnapshot::Ptr SpannerSnapshot::apply(const SpannerSnapshot& prev,
                                            std::span<const EdgeKey> add,
                                            std::span<const EdgeKey> rem) {
  const size_t n = prev.n_;
  uint64_t sum = prev.key_sum_;
  std::vector<uint64_t> adds, rems;
  if (!side_arcs(add, n, true, &sum, &adds) ||
      !side_arcs(rem, n, false, &sum, &rems))
    return nullptr;

  // The next touched vertex: the smallest source among the pending arcs.
  auto touched = [&](size_t ia, size_t ir) {
    return std::min(ia < adds.size() ? arc_src(adds[ia]) : kNoVertex,
                    ir < rems.size() ? arc_src(rems[ir]) : kNoVertex);
  };
  // What the merge may write: every touched vertex's old list plus its
  // insertions. A valid diff writes exactly that minus the removals.
  size_t bound = adds.size();
  for (size_t ia = 0, ir = 0; ia < adds.size() || ir < rems.size();) {
    const VertexId v = touched(ia, ir);
    bound += prev.spans_[v].size;
    while (ia < adds.size() && arc_src(adds[ia]) == v) ++ia;
    while (ir < rems.size() && arc_src(rems[ir]) == v) ++ir;
  }
  if (bound < rems.size()) return nullptr;  // more removals than arcs
  const size_t room = bound - rems.size();
  const size_t live = prev.live_arcs_ + adds.size() - rems.size();
  // Flat rewrite when the arena would hold more than twice the live arcs,
  // or when the touched lists are half of them anyway (copying the rest
  // then costs no more than the merge): memory stays <= 2 x live, and the
  // rewrite's O(live) copy amortizes over the patches that filled it. A
  // patch reserves the merge's worst case before a rejection, `bound`
  // arcs past prev's prefix, so nothing it writes can land on a list some
  // version reads.
  Arena& shared = *prev.arena_;
  const size_t start = prev.held_arcs_;
  bool flat = start + room > 2 * live || 2 * room >= live ||
              start + bound > shared.capacity;
  size_t expected = start;
  if (!flat && !shared.end.compare_exchange_strong(expected, start + bound))
    flat = true;  // a diff applied to prev earlier owns the region

  auto snap = std::shared_ptr<SpannerSnapshot>(new SpannerSnapshot());
  snap->version_ = prev.version_ + 1;
  snap->stretch_ = prev.stretch_;
  snap->n_ = n;
  snap->flat_ = flat;
  snap->arena_ = flat ? std::make_shared<Arena>(
                             arena_capacity(live, rems.size()))
                       : prev.arena_;
  snap->spans_ = flat ? std::vector<Span>(n) : prev.spans_;
  // Written in place, never zero-filled first: every arc is written once.
  VertexId* const out = snap->arena_->arcs.get();
  size_t at = flat ? 0 : start;  // next arc to write
  const VertexId* old = prev.arcs_;
  const Span* old_spans = prev.spans_.data();
  Span* spans = snap->spans_.data();
  VertexId next = 0;  // first vertex not yet written
  auto reject = [&]() -> Ptr {
    if (!flat) shared.end.store(start);  // hand the region back
    return nullptr;
  };

  // Untouched vertices [next, end): shared with prev on a patch; on a flat
  // rewrite, copied with one copy per run of lists adjacent in prev.
  auto copy_run = [&](VertexId end) {
    if (!flat) return;
    for (VertexId u = next; u < end;) {
      const uint32_t from = old_spans[u].begin;
      const size_t run_at = at;
      for (; u < end && old_spans[u].begin == from + (at - run_at); ++u) {
        spans[u] = {uint32_t(at), old_spans[u].size};
        at += old_spans[u].size;
      }
      std::copy(old + from, old + from + (at - run_at), out + run_at);
    }
  };

  size_t ia = 0, ir = 0;
  while (ia < adds.size() || ir < rems.size()) {
    const VertexId v = touched(ia, ir);
    copy_run(v);
    const size_t list_at = at;
    // Three-pointer merge of v's old list with its removals and
    // insertions. Every pending arc has src >= v, so a pending arc below
    // (v, x) belongs to v.
    const Span was = old_spans[v];
    for (VertexId x : std::span(old + was.begin, was.size)) {
      const uint64_t here = uint64_t(v) << 32 | x;
      if (ir < rems.size() && rems[ir] == here) {
        ++ir;
        continue;
      }
      if (ir < rems.size() && rems[ir] < here) return reject();  // absent
      while (ia < adds.size() && adds[ia] < here)
        out[at++] = arc_dst(adds[ia++]);
      if (ia < adds.size() && adds[ia] == here) return reject();  // present
      out[at++] = x;
    }
    while (ia < adds.size() && arc_src(adds[ia]) == v)
      out[at++] = arc_dst(adds[ia++]);
    if (ir < rems.size() && arc_src(rems[ir]) == v) return reject();  // absent
    spans[v] = {uint32_t(list_at), uint32_t(at - list_at)};
    next = v + 1;
  }
  copy_run(VertexId(n));

  snap->arena_->end.store(at);
  snap->arcs_ = out;
  snap->live_arcs_ = live;
  snap->held_arcs_ = at;
  snap->seal(sum);
  return snap;
}

bool SpannerSnapshot::has_edge(VertexId u, VertexId v) const {
  if (u == v || u >= n_ || v >= n_) return false;
  // Both spans are loaded before the shorter list is chosen: on random
  // queries that choice mispredicts often, and it must not delay the loads.
  const Span su = spans_[u], sv = spans_[v];
  const bool flip = su.size > sv.size;
  const Span s = flip ? sv : su;
  const VertexId* first = arcs_ + s.begin;
  return std::binary_search(first, first + s.size, flip ? u : v);
}

std::vector<EdgeKey> SpannerSnapshot::edge_keys() const {
  // For each v ascending, its neighbors above v: (v, w) keys come out in
  // key order because the lists are ascending.
  std::vector<EdgeKey> keys;
  keys.reserve(num_edges());
  for (VertexId v = 0; v < n_; ++v) {
    auto nbrs = neighbors(v);
    for (auto it = std::upper_bound(nbrs.begin(), nbrs.end(), v);
         it != nbrs.end(); ++it)
      keys.push_back(edge_key(v, *it));
  }
  return keys;
}

std::vector<Edge> SpannerSnapshot::edges() const {
  return edges_from_keys(edge_keys());
}

uint32_t SpannerSnapshot::distance(VertexId u, VertexId v,
                                   uint32_t limit) const {
  if (u >= n_ || v >= n_) return kSnapshotUnreached;
  if (u == v) return 0;
  // Ball-proportional BFS: the visited set is a small flat table, so a
  // bounded query on a sparse spanner never touches O(n) scratch and needs
  // no per-thread state — every reader's query is self-contained.
  FlatHashSet<VertexId> visited;
  std::vector<VertexId> frontier{u}, next;
  visited.insert(u);
  for (uint32_t d = 1; d <= limit; ++d) {
    next.clear();
    for (VertexId x : frontier) {
      for (VertexId y : neighbors(x)) {
        if (!visited.insert(y)) continue;
        if (y == v) return d;
        next.push_back(y);
      }
    }
    if (next.empty()) break;
    frontier.swap(next);
  }
  return kSnapshotUnreached;
}

bool SpannerSnapshot::consistent() const {
  if (spans_.size() != n_ || arena_ == nullptr ||
      arcs_ != arena_->arcs.get() || held_arcs_ > arena_->capacity ||
      held_arcs_ > 2 * live_arcs_ || live_arcs_ % 2 != 0)
    return false;
  // Every list lies inside the arena prefix this version references.
  size_t live = 0;
  for (const Span& s : spans_) {
    if (uint64_t(s.begin) + s.size > held_arcs_) return false;
    live += s.size;
  }
  if (live != live_arcs_) return false;
  for (VertexId v = 0; v < n_; ++v) {
    auto nbrs = neighbors(v);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      const VertexId w = nbrs[i];
      if (w >= n_ || w == v || (i > 0 && w <= nbrs[i - 1])) return false;
      auto back = neighbors(w);
      if (!std::binary_search(back.begin(), back.end(), v)) return false;
    }
  }
  const std::vector<EdgeKey> keys = edge_keys();
  return 2 * keys.size() == live_arcs_ &&
         key_sum_ == key_sum_of(keys) &&
         checksum_ == snapshot_content_checksum(n_, stretch_, version_, keys);
}

}  // namespace parspan
