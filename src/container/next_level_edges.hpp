// NextLevelEdges: the contracted-pair table of Lemma 4.1 / Lemma 5.1 — one
// RepBucket per pair (Head(u), Head(v)) of the next level, holding the
// level's edges between the two clusters and the designated representative
// that stands in for the pair (the paper's Bwd/FwdCorrespondence).
//
// RepBucket is a tiny member list with a designated representative: a small
// unordered vector with swap-pop erase. Bucket sizes are degree-bounded and
// average a couple of entries, where a linear scan beats any hash structure
// and teardown is one vector free (the InterCluster trade-off of DESIGN.md
// §6.4; DecrementalClusterSpanner's InterCluster groups are RepBuckets too).
//
// Election: the first member of an empty bucket becomes the representative;
// when the representative leaves, `members[0]` is re-elected. Elections
// depend only on the order of the edits to one pair.
//
// The table's one mutation entry point is apply(ops): a batch's edits as
// (pair, member, ±) records in the serial order of its producer. Buckets
// live in per-low-endpoint tables, so apply groups the ops by low endpoint
// (a stable grouping) and replays each endpoint's ops in order inside one
// task: every election is the serial one, whatever the worker count
// (DESIGN.md §7.2). It returns the next level's update stream for the
// batch, key-sorted (DESIGN.md §7.4): pairs that appeared, pairs that
// vanished, and surviving pairs whose representative changed, each pair
// compared against its state before its first op. A pair deleted and
// re-created within one batch appears in neither of the first two lists.
#pragma once

#include <algorithm>
#include <cassert>
#include <vector>

#include "container/flat_map.hpp"
#include "parallel/csr.hpp"
#include "util/types.hpp"

namespace parspan {

template <typename Id>
struct RepBucket {
  std::vector<Id> members;
  Id rep{};

  bool contains(Id m) const {
    return std::find(members.begin(), members.end(), m) != members.end();
  }
  /// Removes m (must be present); returns true if the bucket emptied.
  bool erase_member(Id m) {
    auto it = std::find(members.begin(), members.end(), m);
    assert(it != members.end());
    *it = members.back();
    members.pop_back();
    return members.empty();
  }
};

/// Pair key -> RepBucket of member ids (edge ids or edge keys), over pairs
/// of vertices in [0, n).
template <typename Id>
class NextLevelEdges {
 public:
  using Bucket = RepBucket<Id>;

  /// One edit: `member` joins (add) or leaves (!add, must be present) the
  /// bucket of `pair`. An op whose pair is kNoEdge is skipped: producers
  /// fill fixed-width runs of ops in parallel and leave unused slots so.
  struct Op {
    EdgeKey pair;
    Id member;
    bool add;
  };

  /// The next level's update stream for one batch, each list sorted by
  /// pair key.
  struct Diff {
    std::vector<Edge> next_ins;
    std::vector<Edge> next_del;
    /// Pairs that survived the batch under a different representative.
    std::vector<Edge> rep_changed;
  };

  explicit NextLevelEdges(size_t n = 0) : tables_(n) {}

  /// Applies one batch of edits in order (see the file comment) and returns
  /// its pair diff.
  Diff apply(const std::vector<Op>& ops) {
    const size_t k = ops.size(), n = tables_.size();
    std::vector<uint32_t> lo(k);
    parallel_for(0, k, [&](size_t i) {
      lo[i] = ops[i].pair == kNoEdge ? uint32_t(n)
                                     : edge_endpoints(ops[i].pair).first;
      assert(lo[i] <= n);
    });
    const GroupRuns g = group_runs(n + 1, lo);
    size_t runs = g.num_runs();
    if (runs > 0 && lo[g.items[g.starts[runs - 1]]] == n) --runs;  // skips
    // Per run: its touched pairs, snapshotted at first touch in the run's
    // slots [start, start + touched), then sorted by high endpoint (which
    // is key order within a low endpoint).
    std::vector<uint64_t> first(k);  // high endpoint << 32 | snapshot slot
    std::vector<Id> old_rep(k);
    std::vector<uint8_t> existed(k), outcome(k);
    std::vector<size_t> touched(runs), n_ins(runs), n_del(runs), n_rep(runs);
    const size_t grain = grain_for(runs, k);
    parallel_for(
        0, runs,
        [&](size_t r) {
          const size_t s = g.starts[r], e = g.starts[r + 1];
          FlatHashMap<VertexId, Entry>& table = tables_[lo[g.items[s]]];
          size_t t = s;
          for (size_t j = s; j < e; ++j) {
            const Op& op = ops[g.items[j]];
            const VertexId hi = edge_endpoints(op.pair).second;
            Entry* en = table.find(hi);
            if (en == nullptr || !en->touched) {
              existed[t] = en != nullptr;
              if (en == nullptr) en = &table[hi];
              old_rep[t] = en->bucket.rep;
              first[t] = (uint64_t(hi) << 32) | t;
              ++t;
              en->touched = true;
            }
            Bucket& b = en->bucket;
            if (op.add) {
              assert(!b.contains(op.member));
              if (b.members.empty()) b.rep = op.member;
              b.members.push_back(op.member);
            } else if (!b.erase_member(op.member) && b.rep == op.member) {
              b.rep = b.members[0];
            }
          }
          std::sort(first.begin() + s, first.begin() + t);
          size_t ins = 0, del = 0, rep = 0;
          for (size_t j = s; j < t; ++j) {
            const VertexId hi = VertexId(first[j] >> 32);
            const size_t slot = uint32_t(first[j]);
            Entry& en = *table.find(hi);
            en.touched = false;
            const bool now = !en.bucket.members.empty();
            uint8_t o = kSame;
            if (existed[slot] && !now) {
              o = kDel;
              ++del;
            } else if (!existed[slot] && now) {
              o = kIns;
              ++ins;
            } else if (now && old_rep[slot] != en.bucket.rep) {
              o = kRep;
              ++rep;
            }
            outcome[j] = o;
            if (!now) table.erase(hi);
          }
          table.shrink();
          touched[r] = t - s;
          n_ins[r] = ins;
          n_del[r] = del;
          n_rep[r] = rep;
        },
        grain);
    Diff d;
    d.next_ins.resize(exclusive_scan_inplace(n_ins));
    d.next_del.resize(exclusive_scan_inplace(n_del));
    d.rep_changed.resize(exclusive_scan_inplace(n_rep));
    parallel_for(
        0, runs,
        [&](size_t r) {
          const size_t s = g.starts[r];
          const VertexId u = lo[g.items[s]];
          for (size_t j = s; j < s + touched[r]; ++j) {
            const Edge pair(u, VertexId(first[j] >> 32));
            if (outcome[j] == kIns) d.next_ins[n_ins[r]++] = pair;
            if (outcome[j] == kDel) d.next_del[n_del[r]++] = pair;
            if (outcome[j] == kRep) d.rep_changed[n_rep[r]++] = pair;
          }
        },
        grain);
    size_ = size_ + d.next_ins.size() - d.next_del.size();
    return d;
  }

  /// Representative of pair pk, which must exist.
  Id rep(EdgeKey pk) const {
    auto [lo, hi] = edge_endpoints(pk);
    const Entry* en = tables_[lo].find(hi);
    assert(en != nullptr);
    return en->bucket.rep;
  }

  size_t size() const { return size_; }

  /// Current pairs, ascending by key.
  std::vector<Edge> pairs() const {
    std::vector<Edge> out;
    out.reserve(size_);
    for (VertexId u = 0; u < tables_.size(); ++u)
      for (VertexId hi : tables_[u].sorted_keys()) out.emplace_back(u, hi);
    return out;
  }

  /// Oracle: true iff the table holds exactly the buckets of `ref` (pair ->
  /// members in any order; sorted in place) and each representative is a
  /// member.
  bool matches(FlatHashMap<EdgeKey, std::vector<Id>>& ref) const {
    size_t held = 0;
    for (const auto& table : tables_) held += table.size();
    if (ref.size() != size_ || held != size_) return false;
    bool ok = true;
    ref.for_each([&](EdgeKey pk, std::vector<Id>& members) {
      auto [lo, hi] = edge_endpoints(pk);
      const Entry* en = lo < tables_.size() ? tables_[lo].find(hi) : nullptr;
      if (en == nullptr || en->touched) {
        ok = false;
        return;
      }
      std::vector<Id> have = en->bucket.members;
      std::sort(members.begin(), members.end());
      std::sort(have.begin(), have.end());
      if (have != members || !en->bucket.contains(en->bucket.rep)) ok = false;
    });
    return ok;
  }

 private:
  enum : uint8_t { kSame = 0, kIns = 1, kDel = 2, kRep = 3 };

  struct Entry {
    Bucket bucket;
    bool touched = false;  // inside the apply() in progress
  };

  std::vector<FlatHashMap<VertexId, Entry>> tables_;  // by low endpoint
  size_t size_ = 0;
};

}  // namespace parspan
