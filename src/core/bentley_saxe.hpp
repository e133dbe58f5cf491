// BentleySaxe<Instance>: the decremental-to-fully-dynamic reduction of
// [BS80, BS08] (paper §3.4), shared by Theorem 1.1 (FullyDynamicSpanner,
// Invariant B1: 2^{l0} >= n^{1+1/k}) and Theorem 1.6
// (FullyDynamicSparsifier, Invariant B2: 2^{l0} >= n). The wrapper picks
// l0 from its invariant; the core keeps |E_i| <= 2^{i+l0}.
//
// E_0's edges are output as they are; every other non-empty E_i runs its
// own decremental Instance, and the answer is the union of the outputs.
// Insertions U are chunked by the binary representation of |U| (highest
// chunk first); each chunk U_i merges with E_i..E_{j-1} into the first
// empty slot j >= i by one parallel sort (DESIGN.md §6.2). Rebuilds are
// prepared serially, built concurrently, and installed serially in
// prepare order; a chunk that absorbs a slot whose instance is still
// pending cancels that job (§6.1). Deletions are routed through the index;
// the instance partitions they hit run as one fork-join, and their diffs
// are absorbed in partition order after the join.
//
// What an output change means is the wrapper's business, supplied as a
// compile-time Sink (no virtual call on the batch path):
//
//   std::unique_ptr<Instance> build(std::vector<EdgeKey> sorted_keys,
//                                   uint64_t seed) const;  // concurrent
//   void e0(EdgeKey, int32_t dir);             // an E_0 key enters/leaves
//   void output(const Instance&, int32_t dir); // installed (+1)/absorbed (-1)
//   void deleted(Diff&&);                      // one partition's deletions
//
// An Instance provides delete_edges(std::span<const Edge>) -> Diff,
// alive_edges() and check_invariants(). Seeds are drawn in prepare order,
// so the sink sees the same events for every worker count (DESIGN.md §6).
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "container/flat_map.hpp"
#include "parallel/arena.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/primitives.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace parspan {

template <typename Instance>
class BentleySaxe {
 public:
  struct Partition {
    FlatHashSet<EdgeKey> edges;      // alive edges assigned here
    std::unique_ptr<Instance> inst;  // null for E_0 and empty slots
  };

  /// Installs `keys` (canonical, sorted, unique) in the smallest slot j
  /// with |keys| <= 2^{j+l0}; the sink only builds, nothing is emitted.
  template <typename Sink>
  BentleySaxe(size_t n, uint32_t l0, uint64_t seed, std::vector<EdgeKey> keys,
              const Sink& sink)
      : n_(n), l0_(l0), seed_(seed) {
    size_t j = 0;
    while (capacity(j) < keys.size()) ++j;
    ensure_parts(j);
    index_.reserve(keys.size());
    assign(j, keys);
    if (j > 0) parts_[j].inst = sink.build(std::move(keys), next_seed());
  }

  size_t num_edges() const { return index_.size(); }
  bool contains(EdgeKey ek) const { return index_.contains(ek); }
  size_t num_partitions() const { return parts_.size(); }
  const std::vector<Partition>& partitions() const { return parts_; }
  /// Rebuilds prepared so far, cancelled ones included (amortization
  /// witness).
  uint64_t rebuilds() const { return rebuilds_; }

  /// Capacity 2^{i+l0} of partition i.
  size_t capacity(size_t i) const { return size_t{1} << (i + l0_); }

  /// Applies one batch (deletions first, then insertions; duplicates and
  /// no-ops filtered), reporting every output change to `sink`.
  template <typename Sink>
  void update(const std::vector<Edge>& insertions,
              const std::vector<Edge>& deletions, Sink& sink) {
    // Batch-scoped scratch (the routed deletion lists, the per-partition
    // diffs, the insertion key buffer) lives on the calling thread's bump
    // arena (DESIGN.md §12.5). Job payloads that outlive the batch
    // (job.merged moves into the new instance) stay on the heap.
    ArenaScope batch_scratch;

    // --- Deletions: route through the index; E_0's are key-set erasures,
    // the instance partitions' run as one fork-join (disjoint structures).
    ArenaVector<ArenaVector<Edge>> per_part(parts_.size());
    for (const Edge& e : deletions) {
      uint32_t* slot = index_.find(e.key());
      if (slot == nullptr) continue;
      if (*slot == 0) {
        parts_[0].edges.erase(e.key());
        sink.e0(e.key(), -1);
      } else {
        per_part[*slot].push_back(e);
      }
      index_.erase(e.key());
    }
    ArenaVector<uint32_t> hit;
    for (size_t i = 1; i < per_part.size(); ++i)
      if (!per_part[i].empty()) hit.push_back(uint32_t(i));
    ArenaVector<Diff> diffs(hit.size());
    parallel_for(
        0, hit.size(),
        [&](size_t h) {
          Partition& p = parts_[hit[h]];
          const ArenaVector<Edge>& del = per_part[hit[h]];
          for (const Edge& e : del) p.edges.erase(e.key());
          diffs[h] = p.inst->delete_edges(std::span<const Edge>(del));
        },
        /*grain=*/1);
    for (Diff& d : diffs) sink.deleted(std::move(d));

    // --- Insertions: split U into U_r ∪ U_0 ∪ ... and merge upward. ---
    ArenaVector<EdgeKey> u;
    for (const Edge& e : insertions) {
      if (e.u == e.v || e.u >= n_ || e.v >= n_) continue;
      EdgeKey ek = e.key();
      if (index_.contains(ek)) continue;  // already alive (or seen this batch)
      index_[ek] = kUnassigned;           // reserved; set by prepare_rebuild
      u.push_back(ek);
    }
    std::vector<RebuildJob> jobs;
    if (!u.empty()) {
      // Chunk sizes by the binary representation of |U|: highest first.
      size_t remaining = u.size();
      size_t pos = 0;
      size_t bmax = 0;
      while (capacity(bmax + 1) <= remaining) ++bmax;
      for (size_t i = bmax + 1; i-- > 0;) {
        size_t chunk = capacity(i);
        if (remaining < chunk) continue;
        std::vector<EdgeKey> ui(u.begin() + pos, u.begin() + pos + chunk);
        pos += chunk;
        remaining -= chunk;
        prepare_rebuild(first_empty(i), i, std::move(ui), jobs, sink);
      }
      // Remainder U_r (< 2^{l0}): appended to E_0 if it fits.
      if (remaining > 0) {
        std::vector<EdgeKey> ur(u.begin() + pos, u.end());
        if (parts_[0].edges.size() + ur.size() <= capacity(0)) {
          for (EdgeKey ek : ur) {
            parts_[0].edges.insert(ek);
            index_[ek] = 0;
            sink.e0(ek, +1);
          }
        } else {
          prepare_rebuild(first_empty(0), 0, std::move(ur), jobs, sink);
        }
      }
    }

    // --- Build the rebuilt instances concurrently. ---
    // Jobs target disjoint slots and share no state; each construction is
    // itself parallel, and nested parallel_for calls steal from the same
    // scheduler instead of oversubscribing. grain 1 so every job is its
    // own task (few, heavy iterations).
    parallel_for(
        0, jobs.size(),
        [&](size_t idx) {
          RebuildJob& job = jobs[idx];
          if (job.cancelled) return;
          job.built = sink.build(std::move(job.merged), job.seed);
        },
        /*grain=*/1);
    // Install serially in job order: the events stay deterministic no
    // matter how the build phase was scheduled.
    for (RebuildJob& job : jobs) {
      if (job.cancelled) continue;
      parts_[job.j].inst = std::move(job.built);
      sink.output(*parts_[job.j].inst, +1);
    }
  }

  /// Oracle: the capacity invariant, index consistency, and each
  /// instance's own invariants over exactly its partition's edges.
  bool check_invariants() const {
    size_t total = 0;
    for (size_t i = 0; i < parts_.size(); ++i) {
      const Partition& p = parts_[i];
      if (p.edges.size() > capacity(i)) return false;  // Invariant B1/B2
      total += p.edges.size();
      bool ok = true;
      p.edges.for_each([&](EdgeKey ek) {
        const uint32_t* slot = index_.find(ek);
        if (slot == nullptr || *slot != i) ok = false;
      });
      if (!ok) return false;
      if (p.inst) {
        if (i == 0 || !p.inst->check_invariants()) return false;
        if (p.inst->alive_edges() != p.edges.size()) return false;
      } else if (i >= 1 && !p.edges.empty()) {
        return false;
      }
    }
    return total == index_.size();
  }

 private:
  using Diff = decltype(std::declval<Instance&>().delete_edges(
      std::span<const Edge>()));

  /// One pending partition rebuild: slot, derived seed, and the merged
  /// (sorted, unique) edge keys. `built` is filled by the parallel build
  /// phase and installed serially in job order; a `cancelled` job was
  /// absorbed by a later chunk before it was built.
  struct RebuildJob {
    uint32_t j = 0;
    uint64_t seed = 0;
    bool cancelled = false;
    std::vector<EdgeKey> merged;
    std::unique_ptr<Instance> built;
  };

  /// Index value marking an edge accepted this batch but not yet assigned
  /// to a partition (set by prepare_rebuild / the E_0 append path).
  static constexpr uint32_t kUnassigned = static_cast<uint32_t>(-1);

  void ensure_parts(size_t j) {
    while (parts_.size() <= j) parts_.emplace_back();
  }

  void assign(size_t j, const std::vector<EdgeKey>& keys) {
    parts_[j].edges.reserve(keys.size());
    for (EdgeKey ek : keys) {
      parts_[j].edges.insert(ek);
      index_[ek] = uint32_t(j);
    }
  }

  /// The first empty slot at or above i (possibly one past the end).
  size_t first_empty(size_t i) const {
    while (i < parts_.size() && !parts_[i].edges.empty()) ++i;
    return i;
  }

  uint64_t next_seed() { return hash_combine(seed_, ++instance_counter_); }

  /// Phase 1 of a rebuild into slot j: empties partitions lo..j-1 (their
  /// outputs leave), merges their edges with `fresh` via one parallel
  /// sort, assigns the index — and queues the instance construction as a
  /// RebuildJob instead of running it inline.
  template <typename Sink>
  void prepare_rebuild(size_t j, size_t lo, std::vector<EdgeKey> fresh,
                       std::vector<RebuildJob>& jobs, Sink& sink) {
    ensure_parts(j);
    assert(parts_[j].edges.empty());
    ++rebuilds_;
    std::vector<EdgeKey> merged = std::move(fresh);
    size_t total = merged.size();
    for (size_t i = lo; i < j; ++i) total += parts_[i].edges.size();
    merged.reserve(total);
    for (size_t i = lo; i < j; ++i) {
      Partition& p = parts_[i];
      if (p.edges.empty()) {
        p.inst.reset();
        continue;
      }
      // A slot filled earlier in this batch whose instance is still
      // pending: cancel the job and take its edges. It never emitted
      // output (that happens at install), so nothing leaves here.
      RebuildJob* pending = nullptr;
      for (RebuildJob& job : jobs)
        if (!job.cancelled && job.j == uint32_t(i)) pending = &job;
      if (pending != nullptr) {
        assert(!p.inst);
        pending->cancelled = true;
        merged.insert(merged.end(), pending->merged.begin(),
                      pending->merged.end());
      } else if (!p.inst) {
        p.edges.for_each([&](EdgeKey ek) {
          sink.e0(ek, -1);
          merged.push_back(ek);
        });
      } else {
        sink.output(*p.inst, -1);
        p.edges.for_each([&](EdgeKey ek) { merged.push_back(ek); });
      }
      p.edges = FlatHashSet<EdgeKey>{};  // release the absorbed slot array
      p.inst.reset();
    }
    // U_i ∪ E_lo..E_{j-1} as one parallel sort (partitions are disjoint
    // and fresh keys are new, so the union is already duplicate-free).
    parallel_sort(merged);
    assert(std::adjacent_find(merged.begin(), merged.end()) == merged.end());
    assert(merged.size() <= capacity(j));
    assign(j, merged);
    if (j == 0) {
      // E_0 keeps everything in the output; no instance to build.
      for (EdgeKey ek : merged) sink.e0(ek, +1);
      return;
    }
    jobs.push_back({uint32_t(j), next_seed(), false, std::move(merged), {}});
  }

  size_t n_ = 0;
  uint32_t l0_ = 0;
  uint64_t seed_ = 0;
  std::vector<Partition> parts_;
  FlatHashMap<EdgeKey, uint32_t> index_;  // alive edge -> partition
  uint64_t rebuilds_ = 0;
  uint64_t instance_counter_ = 0;  // fresh seeds for rebuilt instances
};

}  // namespace parspan
