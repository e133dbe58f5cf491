#include "service/spanner_snapshot.hpp"

#include <algorithm>

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

}  // namespace

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
  snap->offsets_ = std::move(csr.offsets);
  snap->nbr_ = std::move(csr.nbr);
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

  auto snap = std::shared_ptr<SpannerSnapshot>(new SpannerSnapshot());
  snap->version_ = prev.version_ + 1;
  snap->stretch_ = prev.stretch_;
  snap->n_ = n;
  snap->offsets_.resize(n + 1);
  // Appended to, never zero-filled first: every arc is written once. The
  // capacity covers every insertion before any removal, so nothing below
  // reallocates.
  std::vector<VertexId>& out = snap->nbr_;
  out.reserve(prev.nbr_.size() + adds.size());
  const uint32_t* off = prev.offsets_.data();
  const VertexId* old = prev.nbr_.data();
  uint32_t* noff = snap->offsets_.data();
  VertexId next = 0;  // first vertex not yet written

  // Untouched vertices [next, end): one memcpy of their lists, offsets
  // shifted by the net arc change so far (modular: the result fits).
  auto copy_run = [&](VertexId end) {
    const uint32_t shift = uint32_t(out.size()) - off[next];
    for (VertexId u = next; u < end; ++u) noff[u] = off[u] + shift;
    out.insert(out.end(), old + off[next], old + off[end]);
  };

  size_t ia = 0, ir = 0;
  while (ia < adds.size() || ir < rems.size()) {
    const VertexId v = std::min(
        ia < adds.size() ? arc_src(adds[ia]) : kNoVertex,
        ir < rems.size() ? arc_src(rems[ir]) : kNoVertex);
    copy_run(v);
    noff[v] = uint32_t(out.size());
    // Three-pointer merge of v's old list with its removals and
    // insertions. Every pending arc has src >= v, so a pending arc below
    // (v, x) belongs to v.
    for (uint32_t i = off[v]; i < off[v + 1]; ++i) {
      const uint64_t here = uint64_t(v) << 32 | old[i];
      if (ir < rems.size() && rems[ir] == here) {
        ++ir;
        continue;
      }
      if (ir < rems.size() && rems[ir] < here) return nullptr;  // absent
      while (ia < adds.size() && adds[ia] < here)
        out.push_back(arc_dst(adds[ia++]));
      if (ia < adds.size() && adds[ia] == here) return nullptr;  // present
      out.push_back(old[i]);
    }
    while (ia < adds.size() && arc_src(adds[ia]) == v)
      out.push_back(arc_dst(adds[ia++]));
    if (ir < rems.size() && arc_src(rems[ir]) == v) return nullptr;  // absent
    next = v + 1;
  }
  copy_run(VertexId(n));
  noff[n] = uint32_t(out.size());
  snap->seal(sum);
  return snap;
}

bool SpannerSnapshot::has_edge(VertexId u, VertexId v) const {
  if (u == v || u >= n_ || v >= n_) return false;
  if (degree(u) > degree(v)) std::swap(u, v);
  auto nbrs = neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
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
  std::vector<Edge> out;
  out.reserve(num_edges());
  for (EdgeKey k : edge_keys()) out.push_back(edge_from_key(k));
  return out;
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
  if (offsets_.size() != n_ + 1 || offsets_[0] != 0 ||
      offsets_[n_] != nbr_.size() || nbr_.size() % 2 != 0)
    return false;
  for (VertexId v = 0; v < n_; ++v)
    if (offsets_[v] > offsets_[v + 1]) return false;
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
  return 2 * keys.size() == nbr_.size() &&
         key_sum_ == key_sum_of(keys) &&
         checksum_ == snapshot_content_checksum(n_, stretch_, version_, keys);
}

}  // namespace parspan
