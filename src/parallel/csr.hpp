// Flat CSR (compressed sparse row) adjacency built by a stable counting
// sort: histogram -> exclusive scan -> scatter (DESIGN.md §2).
//
// This is the standard work-efficient vehicle for "for each neighbor of v in
// parallel" loops (cf. the scan vocabulary of Blelloch and the batch-dynamic
// connectivity literature): one contiguous offsets array plus one contiguous
// adjacency array, instead of a vector-of-vectors whose per-vertex
// allocations and scattered headers dominate construction time and defeat
// the prefetcher during traversal.
//
// group_by_key is the reusable primitive: a *stable* serial counting sort of
// element indices by an integer key in [0, nbuckets), so layouts are
// deterministic regardless of thread count. group_runs reports only the
// groups present, and sorts instead when a few keys span a large range.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "parallel/parallel_for.hpp"
#include "parallel/primitives.hpp"
#include "util/types.hpp"

namespace parspan {

/// Result of group_by_key: `items` holds the element indices [0, n) grouped
/// by key; group k occupies items[offsets[k] .. offsets[k+1]).
struct GroupedIndices {
  std::vector<uint32_t> offsets;  // nbuckets + 1
  std::vector<uint32_t> items;    // element indices in stable key order

  std::span<const uint32_t> group(size_t k) const {
    return {items.data() + offsets[k], items.data() + offsets[k + 1]};
  }
};

/// Stable counting sort of the indices [0, keys.size()) by keys[i] in
/// [0, nbuckets), O(n + nbuckets). Serial: at every measured caller size a
/// per-block parallel pass cost more than it saved (DESIGN.md §2).
inline GroupedIndices group_by_key(size_t nbuckets,
                                   const std::vector<uint32_t>& keys) {
  size_t n = keys.size();
  GroupedIndices out;
  out.offsets.assign(nbuckets + 1, 0);
  out.items.resize(n);
  for (size_t i = 0; i < n; ++i) {
    assert(keys[i] < nbuckets);
    ++out.offsets[keys[i] + 1];
  }
  for (size_t k = 0; k < nbuckets; ++k) out.offsets[k + 1] += out.offsets[k];
  std::vector<uint32_t> cursor(out.offsets.begin(), out.offsets.end() - 1);
  for (size_t i = 0; i < n; ++i)
    out.items[cursor[keys[i]]++] = static_cast<uint32_t>(i);
  return out;
}

/// The non-empty groups of a stable grouping: `items` holds the indices
/// [0, keys.size()) in stable key order, and the r-th non-empty group (the
/// r-th smallest key present) occupies items[starts[r] .. starts[r+1]).
struct GroupRuns {
  std::vector<uint32_t> items;
  std::vector<uint32_t> starts;  // num_runs() + 1 entries

  size_t num_runs() const { return starts.size() - 1; }
};

/// Stable grouping of [0, keys.size()) by keys[i] in [0, nbuckets) that
/// reports only the groups present. Dense keys take group_by_key; a few
/// keys over a large range take a sort of (key, index) pairs instead, so a
/// small batch never pays O(nbuckets). Both give the same permutation.
inline GroupRuns group_runs(size_t nbuckets,
                            const std::vector<uint32_t>& keys) {
  const size_t k = keys.size();
  GroupRuns out;
  if (nbuckets <= 8 * k) {
    GroupedIndices g = group_by_key(nbuckets, keys);
    out.items = std::move(g.items);
    for (size_t b = 0; b < nbuckets; ++b)
      if (g.offsets[b + 1] > g.offsets[b]) out.starts.push_back(g.offsets[b]);
  } else {
    std::vector<uint64_t> tagged(k);
    parallel_for(0, k, [&](size_t i) {
      assert(keys[i] < nbuckets);
      tagged[i] = (uint64_t(keys[i]) << 32) | i;
    });
    parallel_sort(tagged);
    out.items.resize(k);
    for (size_t j = 0; j < k; ++j) {
      out.items[j] = uint32_t(tagged[j]);
      if (j == 0 || (tagged[j] >> 32) != (tagged[j - 1] >> 32))
        out.starts.push_back(uint32_t(j));
    }
  }
  out.starts.push_back(uint32_t(k));
  return out;
}

/// Canonical, deduplicated keys of an undirected edge list: self-loops and
/// out-of-range endpoints dropped, result sorted ascending by key. The
/// shared front half of every batch-ingestion path (spanner construction,
/// DynamicGraph batches): invalid entries map to the kNoEdge sentinel,
/// which sorts last and survives dedup at most once.
inline std::vector<EdgeKey> canonical_edge_keys(
    size_t n, const std::vector<Edge>& edges) {
  std::vector<EdgeKey> keys(edges.size());
  parallel_for(0, edges.size(), [&](size_t i) {
    const Edge& e = edges[i];
    keys[i] = (e.u == e.v || e.u >= n || e.v >= n) ? kNoEdge : e.key();
  });
  sort_unique(keys);
  if (!keys.empty() && keys.back() == kNoEdge) keys.pop_back();
  return keys;
}

/// Applies a key-sorted SpannerDiff-style delta to a sorted, unique key
/// list: one three-pointer merge, O(|base| + |diff|). The reference merge
/// of a diff onto a key list; snapshots patch their adjacency directly
/// (SpannerSnapshot::apply, DESIGN.md §8.2). `add` keys must be absent
/// from `base`, `rem` keys present (both are guaranteed by the
/// SpannerDiff net-change contract and checked by assertion).
inline std::vector<EdgeKey> apply_sorted_diff(std::span<const EdgeKey> base,
                                              std::span<const EdgeKey> add,
                                              std::span<const EdgeKey> rem) {
  assert(std::is_sorted(base.begin(), base.end()));
  assert(std::is_sorted(add.begin(), add.end()));
  assert(std::is_sorted(rem.begin(), rem.end()));
  std::vector<EdgeKey> out;
  out.reserve(base.size() + add.size() - rem.size());
  size_t a = 0, r = 0;
  for (EdgeKey k : base) {
    if (r < rem.size() && rem[r] == k) {
      ++r;
      continue;
    }
    while (a < add.size() && add[a] < k) out.push_back(add[a++]);
    assert(a >= add.size() || add[a] != k);
    out.push_back(k);
  }
  while (a < add.size()) out.push_back(add[a++]);
  assert(r == rem.size());
  return out;
}

/// The canonical keys of a diff side (already key-sorted by the §6 diff
/// contract).
inline std::vector<EdgeKey> diff_side_keys(const std::vector<Edge>& side) {
  std::vector<EdgeKey> keys(side.size());
  parallel_for(0, side.size(), [&](size_t i) { keys[i] = side[i].key(); });
  return keys;
}

/// Immutable CSR adjacency with an arc-id payload per entry. Entry j of
/// vertex v is the arc (v -> nbr[j]) with identifier arc[j].
struct CsrGraph {
  std::vector<uint32_t> offsets;  // n + 1
  std::vector<VertexId> nbr;      // flattened neighbor array
  std::vector<uint32_t> arc;      // arc id per entry

  size_t num_vertices() const {
    return offsets.empty() ? 0 : offsets.size() - 1;
  }
  size_t num_arcs() const { return nbr.size(); }
  uint32_t degree(VertexId v) const { return offsets[v + 1] - offsets[v]; }
  std::span<const VertexId> neighbors(VertexId v) const {
    return {nbr.data() + offsets[v], nbr.data() + offsets[v + 1]};
  }
  std::span<const uint32_t> arcs(VertexId v) const {
    return {arc.data() + offsets[v], arc.data() + offsets[v + 1]};
  }
};

/// Builds the symmetric CSR adjacency of canonical edge keys (sorted or
/// not; must be valid, i.e. not kNoEdge, with endpoints < n): key i
/// contributes arcs 2i (lo -> hi) and 2i + 1 (hi -> lo), the arc-id
/// convention of the cluster spanner and ES tree layers. When the keys are
/// ascending the per-vertex neighbor lists come out ascending too
/// (group_by_key is stable), which the snapshot layer relies on for its
/// binary-searched has_edge.
inline CsrGraph csr_build_from_keys(size_t n, std::span<const EdgeKey> keys) {
  size_t m = keys.size();
  std::vector<uint32_t> srcs(2 * m);
  parallel_for(0, m, [&](size_t i) {
    auto [u, v] = edge_endpoints(keys[i]);
    assert(keys[i] != kNoEdge && u < n && v < n);
    srcs[2 * i] = u;
    srcs[2 * i + 1] = v;
  });
  GroupedIndices g = group_by_key(n, srcs);
  CsrGraph csr;
  csr.offsets = std::move(g.offsets);
  csr.nbr.resize(2 * m);
  csr.arc = std::move(g.items);  // arc id == element index by construction
  parallel_for(0, 2 * m, [&](size_t j) {
    uint32_t a = csr.arc[j];
    auto [u, v] = edge_endpoints(keys[a >> 1]);
    csr.nbr[j] = (a & 1) ? u : v;  // arc 2i: lo->hi, arc 2i+1: hi->lo
  });
  return csr;
}

}  // namespace parspan
