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
// when the representative leaves, `members[0]` is re-elected. All table
// operations run in serial deterministic phases (DESIGN.md §7), so every
// election is reproducible.
//
// Per batch, the table snapshots each pair the first time the batch touches
// it (did it exist, and under which representative), and compile() turns
// the snapshots into the next level's update stream, key-sorted
// (DESIGN.md §7.4): pairs that appeared, pairs that vanished, and surviving
// pairs whose representative changed. A pair deleted and re-created within
// one batch appears in neither list.
#pragma once

#include <algorithm>
#include <cassert>
#include <vector>

#include "container/flat_map.hpp"
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

/// Pair key -> RepBucket of member ids (edge ids or edge keys).
template <typename Id>
class NextLevelEdges {
 public:
  using Bucket = RepBucket<Id>;

  /// The next level's update stream for one batch, each list sorted by
  /// pair key.
  struct Diff {
    std::vector<Edge> next_ins;
    std::vector<Edge> next_del;
    /// Pairs that survived the batch under a different representative.
    std::vector<Edge> rep_changed;
  };

  /// Adds m to pair pk's bucket; m becomes the representative of an empty
  /// bucket.
  void add(EdgeKey pk, Id m) {
    note_pair_touched(pk);
    Bucket& b = buckets_[pk];
    if (b.members.empty()) b.rep = m;
    assert(!b.contains(m));
    b.members.push_back(m);
  }

  /// Removes m (must be present) from pair pk's bucket, re-electing
  /// `members[0]` if m was the representative.
  void remove(EdgeKey pk, Id m) {
    note_pair_touched(pk);
    Bucket* b = buckets_.find(pk);
    assert(b != nullptr);
    if (b->erase_member(m))
      buckets_.erase(pk);
    else if (b->rep == m)
      b->rep = b->members[0];
  }

  /// Representative of pair pk, which must exist.
  Id rep(EdgeKey pk) const {
    const Bucket* b = buckets_.find(pk);
    assert(b != nullptr);
    return b->rep;
  }

  size_t size() const { return buckets_.size(); }

  /// Current pairs, ascending by key.
  std::vector<Edge> pairs() const {
    std::vector<Edge> out;
    out.reserve(buckets_.size());
    for (EdgeKey pk : buckets_.sorted_keys()) out.push_back(edge_from_key(pk));
    return out;
  }

  /// Compiles the pairs touched since the last compile() or
  /// forget_touched() against their snapshots, then forgets them.
  Diff compile() {
    Diff d;
    for (EdgeKey pk : touched_pairs_.sorted_keys()) {
      const PairSnapshot& snap = *touched_pairs_.find(pk);
      const Bucket* b = buckets_.find(pk);
      if (snap.existed && b == nullptr)
        d.next_del.push_back(edge_from_key(pk));
      else if (!snap.existed && b != nullptr)
        d.next_ins.push_back(edge_from_key(pk));
      else if (b != nullptr && snap.old_rep != b->rep)
        d.rep_changed.push_back(edge_from_key(pk));
    }
    touched_pairs_.clear();
    return d;
  }

  /// Drops the snapshots without compiling (bulk construction is not a
  /// batch).
  void forget_touched() { touched_pairs_.clear(); }

  /// Oracle: true iff the table holds exactly the buckets of `ref` (pair ->
  /// members in any order; sorted in place) and each representative is a
  /// member.
  bool matches(FlatHashMap<EdgeKey, std::vector<Id>>& ref) const {
    if (ref.size() != buckets_.size()) return false;
    bool ok = true;
    ref.for_each([&](EdgeKey pk, std::vector<Id>& members) {
      const Bucket* b = buckets_.find(pk);
      if (b == nullptr) {
        ok = false;
        return;
      }
      std::vector<Id> have = b->members;
      std::sort(members.begin(), members.end());
      std::sort(have.begin(), have.end());
      if (have != members || !b->contains(b->rep)) ok = false;
    });
    return ok;
  }

 private:
  struct PairSnapshot {
    bool existed = false;
    Id old_rep{};
  };

  void note_pair_touched(EdgeKey pk) {
    if (touched_pairs_.contains(pk)) return;
    const Bucket* b = buckets_.find(pk);
    touched_pairs_[pk] =
        PairSnapshot{b != nullptr, b != nullptr ? b->rep : Id{}};
  }

  FlatHashMap<EdgeKey, Bucket> buckets_;
  FlatHashMap<EdgeKey, PairSnapshot> touched_pairs_;
};

}  // namespace parspan
