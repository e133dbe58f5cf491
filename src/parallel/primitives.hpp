// Parallel sequence primitives: exclusive scan, pack/filter, remove-duplicates
// and sorting. These are the standard building blocks of work-depth algorithms
// (cf. Blelloch's scan vocabulary) used throughout the batch-dynamic
// structures to turn "per-element in parallel" pseudo-code into real loops.
//
// The blocked kernels (scan, sort) express their per-block phases as
// parallel_for(..., /*grain=*/1) over block indices: each block is one heavy
// task on the work-stealing scheduler, and lazy splitting keeps the fan-out
// proportional to the actual parallel slack. Block decomposition is chosen
// for load balance only — every kernel's output is independent of nblocks
// (scan re-bases each block on an exact prefix; the merge rounds are a
// fixed shape given nblocks).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <vector>

#include "parallel/parallel_for.hpp"

namespace parspan {

/// Exclusive prefix sum of `xs` in place; returns the total.
template <typename T>
T exclusive_scan_inplace(std::vector<T>& xs) {
  size_t n = xs.size();
  if (n == 0) return T{};
  int p = num_workers();
  if (n < kParGrain || p <= 1) {
    T acc{};
    for (size_t i = 0; i < n; ++i) {
      T x = xs[i];
      xs[i] = acc;
      acc += x;
    }
    return acc;
  }
  // Two-pass blocked scan.
  size_t nblocks = static_cast<size_t>(p) * 4;
  size_t bsz = (n + nblocks - 1) / nblocks;
  std::vector<T> block_sum(nblocks, T{});
  parallel_for(
      0, nblocks,
      [&](size_t b) {
        size_t lo = b * bsz, hi = std::min(n, lo + bsz);
        T acc{};
        for (size_t i = lo; i < hi; ++i) acc += xs[i];
        block_sum[b] = acc;
      },
      /*grain=*/1);
  T total{};
  for (size_t b = 0; b < nblocks; ++b) {
    T x = block_sum[b];
    block_sum[b] = total;
    total += x;
  }
  parallel_for(
      0, nblocks,
      [&](size_t b) {
        size_t lo = b * bsz, hi = std::min(n, lo + bsz);
        T acc = block_sum[b];
        for (size_t i = lo; i < hi; ++i) {
          T x = xs[i];
          xs[i] = acc;
          acc += x;
        }
      },
      /*grain=*/1);
  return total;
}

/// pack: returns the elements xs[i] with pred(i) true, preserving order.
template <typename T, typename Pred>
std::vector<T> pack(const std::vector<T>& xs, Pred&& pred) {
  size_t n = xs.size();
  std::vector<uint64_t> flags(n);
  parallel_for(0, n, [&](size_t i) { flags[i] = pred(i) ? 1 : 0; });
  std::vector<uint64_t> offsets = flags;
  uint64_t total = exclusive_scan_inplace(offsets);
  std::vector<T> out(total);
  parallel_for(0, n, [&](size_t i) {
    if (flags[i]) out[offsets[i]] = xs[i];
  });
  return out;
}

/// parallel_for grain for n items that carry `total` units of work between
/// them: chunks of ~256 units, or one inline chunk when the whole loop is
/// too small to be worth sharing.
inline size_t grain_for(size_t n, size_t total) {
  if (total < kParForCutoff) return std::max<size_t>(n, 1);
  return std::max<size_t>(1, 256 * n / total);
}

/// Run layout for filling per-item output runs in parallel: item i owns
/// slots [at[i], at[i+1]) of width(i) slots (at.back() is the total), so
/// items fill their runs concurrently and the concatenation is the serial
/// loop's. Producers mark unused slots with a skip value.
struct RunOffsets {
  std::vector<size_t> at;  // n + 1 entries

  size_t total() const { return at.back(); }
  size_t grain() const { return grain_for(at.size() - 1, total()); }
};

template <typename Width>
RunOffsets run_offsets(size_t n, Width&& width) {
  RunOffsets r;
  r.at.resize(n + 1);
  for (size_t i = 0; i < n; ++i) r.at[i] = width(i);
  r.at[n] = 0;
  exclusive_scan_inplace(r.at);
  return r;
}

/// filter: pack with a predicate on values rather than indices.
template <typename T, typename Pred>
std::vector<T> filter(const std::vector<T>& xs, Pred&& pred) {
  return pack(xs, [&](size_t i) { return pred(xs[i]); });
}

/// Parallel comparison sort (merge-sort over blocks). Stable within the
/// std::sort blocks is not guaranteed; use for keys where ties are benign.
template <typename T, typename Cmp = std::less<T>>
void parallel_sort(std::vector<T>& xs, Cmp cmp = Cmp{}) {
  size_t n = xs.size();
  int p = num_workers();
  if (n < kParGrain || p <= 1) {
    std::sort(xs.begin(), xs.end(), cmp);
    return;
  }
  size_t nblocks = 1;
  while (nblocks < static_cast<size_t>(p)) nblocks <<= 1;
  size_t bsz = (n + nblocks - 1) / nblocks;
  parallel_for(
      0, nblocks,
      [&](size_t b) {
        size_t lo = b * bsz, hi = std::min(n, lo + bsz);
        if (lo < hi) std::sort(xs.begin() + lo, xs.begin() + hi, cmp);
      },
      /*grain=*/1);
  // Pairwise merges, halving block count each round (log depth).
  std::vector<T> tmp(n);
  for (size_t width = bsz; width < n; width *= 2) {
    size_t stride = 2 * width;
    size_t npairs = (n + stride - 1) / stride;
    parallel_for(
        0, npairs,
        [&](size_t pair) {
          size_t lo = pair * stride;
          size_t mid = std::min(n, lo + width);
          size_t hi = std::min(n, lo + stride);
          std::merge(xs.begin() + lo, xs.begin() + mid, xs.begin() + mid,
                     xs.begin() + hi, tmp.begin() + lo, cmp);
        },
        /*grain=*/1);
    std::swap(xs, tmp);
  }
}

/// Sorts and removes duplicates.
template <typename T>
void sort_unique(std::vector<T>& xs) {
  parallel_sort(xs);
  xs.erase(std::unique(xs.begin(), xs.end()), xs.end());
}

}  // namespace parspan
