// Flat CSR (compressed sparse row) adjacency built by parallel counting
// sort: histogram -> exclusive scan -> scatter (DESIGN.md §2).
//
// This is the standard work-efficient vehicle for "for each neighbor of v in
// parallel" loops (cf. the scan vocabulary of Blelloch and the batch-dynamic
// connectivity literature): one contiguous offsets array plus one contiguous
// adjacency array, instead of a vector-of-vectors whose per-vertex
// allocations and scattered headers dominate construction time and defeat
// the prefetcher during traversal.
//
// group_by_key is the reusable primitive: a *stable* counting sort of element
// indices by an integer key in [0, nbuckets). The parallel path uses
// per-block histograms so the output permutation is identical to the serial
// one — layouts are deterministic regardless of thread count.
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

/// Serial stable counting sort of the indices [0, keys.size()) by keys[i]
/// in [0, nbuckets).
inline GroupedIndices group_by_key_serial(size_t nbuckets,
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

/// Stable parallel counting sort of the indices [0, keys.size()) by
/// keys[i] in [0, nbuckets).
inline GroupedIndices group_by_key(size_t nbuckets,
                                   const std::vector<uint32_t>& keys) {
  size_t n = keys.size();
  int p = num_workers();
  // The parallel path keeps one histogram per block; cap the block count so
  // that scratch stays O(n) even when nbuckets is large relative to n
  // (sparse graphs), falling back to the serial sort when one block is all
  // the budget allows. Both paths emit the identical stable permutation.
  size_t nblocks = std::min<size_t>(
      static_cast<size_t>(p) * 4,
      std::max<size_t>(1, (8 * n) / std::max<size_t>(1, nbuckets)));
  if (n < kParGrain || p <= 1 || nblocks <= 1)
    return group_by_key_serial(nbuckets, keys);
  GroupedIndices out;
  out.offsets.assign(nbuckets + 1, 0);
  out.items.resize(n);
  // Per-block histograms keep the scatter stable: block b writes the
  // elements of its input range in input order at offsets disjoint from
  // every other block's.
  size_t bsz = (n + nblocks - 1) / nblocks;
  std::vector<uint32_t> counts(nblocks * nbuckets, 0);
  parallel_for(
      0, nblocks,
      [&](size_t b) {
        uint32_t* local = counts.data() + b * nbuckets;
        size_t lo = b * bsz, hi = std::min(n, lo + bsz);
        for (size_t i = lo; i < hi; ++i) {
          assert(keys[i] < nbuckets);
          ++local[keys[i]];
        }
      },
      /*grain=*/1);
  // Column-wise exclusive scan: cursor for (block b, bucket k) becomes
  // bucket_start(k) + sum of counts of k over blocks < b.
  parallel_for(0, nbuckets, [&](size_t k) {
    uint32_t total = 0;
    for (size_t b = 0; b < nblocks; ++b) {
      uint32_t c = counts[b * nbuckets + k];
      counts[b * nbuckets + k] = total;
      total += c;
    }
    out.offsets[k] = total;
  });
  exclusive_scan_inplace(out.offsets);  // offsets[k] = start of bucket k
  parallel_for(
      0, nblocks,
      [&](size_t b) {
        uint32_t* local = counts.data() + b * nbuckets;
        size_t lo = b * bsz, hi = std::min(n, lo + bsz);
        for (size_t i = lo; i < hi; ++i)
          out.items[out.offsets[keys[i]] + local[keys[i]]++] =
              static_cast<uint32_t>(i);
      },
      /*grain=*/1);
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
/// reports only the groups present. Dense keys take the serial counting
/// sort (at batch sizes, group_by_key's parallel passes cost more than
/// they save); a few keys over a large range take a sort of (key, index)
/// pairs instead, so a small batch never pays O(nbuckets). Both give the
/// same permutation.
inline GroupRuns group_runs(size_t nbuckets,
                            const std::vector<uint32_t>& keys) {
  const size_t k = keys.size();
  GroupRuns out;
  if (nbuckets <= 8 * k) {
    GroupedIndices g = group_by_key_serial(nbuckets, keys);
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

/// Builds the symmetric CSR adjacency of an undirected edge list: edge i
/// contributes arc 2i (u -> v) and arc 2i + 1 (v -> u), matching the arc-id
/// convention of the cluster spanner and ES tree layers. Endpoints must lie
/// in [0, n).
inline CsrGraph csr_build(size_t n, const std::vector<Edge>& edges) {
  size_t m = edges.size();
  std::vector<uint32_t> srcs(2 * m);
  parallel_for(0, m, [&](size_t i) {
    assert(edges[i].u < n && edges[i].v < n);
    srcs[2 * i] = edges[i].u;
    srcs[2 * i + 1] = edges[i].v;
  });
  GroupedIndices g = group_by_key(n, srcs);
  CsrGraph csr;
  csr.offsets = std::move(g.offsets);
  csr.nbr.resize(2 * m);
  csr.arc = std::move(g.items);  // arc id == element index by construction
  parallel_for(0, 2 * m, [&](size_t j) {
    uint32_t a = csr.arc[j];
    const Edge& e = edges[a >> 1];
    csr.nbr[j] = (a & 1) ? e.u : e.v;  // arc 2i: u->v, arc 2i+1: v->u
  });
  return csr;
}

/// Builds the symmetric CSR adjacency of canonical edge keys (sorted or
/// not; must be valid, i.e. not kNoEdge, with endpoints < n). Same arc-id
/// convention as csr_build: key i contributes arcs 2i (lo -> hi) and
/// 2i + 1 (hi -> lo). When the keys are ascending the per-vertex neighbor
/// lists come out ascending too (group_by_key is stable), which the
/// snapshot layer relies on for its binary-searched has_edge.
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
  csr.arc = std::move(g.items);
  parallel_for(0, 2 * m, [&](size_t j) {
    uint32_t a = csr.arc[j];
    auto [u, v] = edge_endpoints(keys[a >> 1]);
    csr.nbr[j] = (a & 1) ? u : v;  // arc 2i: lo->hi, arc 2i+1: hi->lo
  });
  return csr;
}

/// Builds the CSR adjacency of an explicit directed arc list: arc i is
/// srcs[i] -> dsts[i] and keeps its index as the payload id.
inline CsrGraph csr_build_directed(size_t n,
                                   const std::vector<VertexId>& srcs,
                                   const std::vector<VertexId>& dsts) {
  assert(srcs.size() == dsts.size());
  GroupedIndices g = group_by_key(n, srcs);
  CsrGraph csr;
  csr.offsets = std::move(g.offsets);
  csr.nbr.resize(dsts.size());
  csr.arc = std::move(g.items);
  parallel_for(0, csr.arc.size(),
               [&](size_t j) { csr.nbr[j] = dsts[csr.arc[j]]; });
  return csr;
}

}  // namespace parspan
