// NextLevelEdges: the contracted-pair table of Lemma 4.1 / Lemma 5.1 — one
// RepBucket per pair (Head(u), Head(v)) of the next level, holding the
// level's edges between the two clusters and the designated representative
// that stands in for the pair (the paper's Bwd/FwdCorrespondence). Both
// owners (ContractionLayer, UltraSparseSpanner) name an edge by its key, so
// members and representatives are level edge keys.
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
// The buckets' one mutation entry point is apply(ops): a batch's edits as
// (pair, member, ±) records in the serial order of its producer. Buckets
// live in per-low-endpoint tables, so apply groups the ops by low endpoint
// (a stable grouping) and, inside one task per endpoint, replays each
// pair's ops contiguously in batch order: every election is the serial
// one, whatever the worker count (DESIGN.md §7.2). It returns the next
// level's update stream for the batch, key-sorted (DESIGN.md §7.4): pairs
// that appeared, pairs that vanished, and surviving pairs whose
// representative changed, each pair compared against its state before the
// batch, with the vanished and changed pairs' old representatives. A pair
// deleted and re-created within one batch appears in neither of the first
// two lists, and an edge deleted and re-inserted within one batch is the
// same member.
//
// The table also owns the composition S = H ∪ rep(S_next) of its level
// (compose()): each pair carries one bit, "in S_next", and S is H plus the
// representatives of the marked pairs, so no copy of S is kept.
#pragma once

#include <algorithm>
#include <cassert>
#include <utility>
#include <vector>

#include "container/flat_map.hpp"
#include "parallel/csr.hpp"
#include "parallel/primitives.hpp"
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

/// Pair key -> RepBucket of member edge keys, over pairs of vertices in
/// [0, n).
class NextLevelEdges {
 public:
  using Bucket = RepBucket<EdgeKey>;

  /// One edit: `member` joins (add) or leaves (!add, must be present) the
  /// bucket of `pair`. An op whose pair is kNoEdge is skipped: producers
  /// fill fixed-width runs of ops in parallel and leave unused slots so.
  struct Op {
    EdgeKey pair;
    EdgeKey member;
    bool add;
  };

  /// The next level's update stream for one batch, each list sorted by
  /// pair key.
  struct Diff {
    std::vector<Edge> next_ins;
    std::vector<Edge> next_del;
    /// Pairs that survived the batch under a different representative.
    std::vector<Edge> rep_changed;
    /// Pre-batch representatives of next_del's and rep_changed's pairs.
    std::vector<EdgeKey> del_rep, old_rep;
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
    // Per run: its ops sorted by (high endpoint, position), so each pair's
    // ops replay contiguously in batch order; the run's pairs then take its
    // slots [start, start + touched) in key order.
    std::vector<uint64_t> order(k);
    std::vector<EdgeKey> before(k);  // a pair's representative before the batch
    std::vector<uint8_t> outcome(k);
    std::vector<size_t> touched(runs), n_ins(runs), n_del(runs), n_rep(runs);
    const size_t grain = grain_for(runs, k);
    parallel_for(
        0, runs,
        [&](size_t r) {
          const size_t s = g.starts[r], e = g.starts[r + 1];
          FlatHashMap<VertexId, Entry>& table = tables_[lo[g.items[s]]];
          for (size_t j = s; j < e; ++j) {
            const VertexId hi = edge_endpoints(ops[g.items[j]].pair).second;
            order[j] = uint64_t(hi) << 32 | j;
          }
          std::sort(order.begin() + s, order.begin() + e);
          size_t t = s, ins = 0, del = 0, rep = 0;
          for (size_t j = s; j < e; ++t) {
            const VertexId hi = VertexId(order[j] >> 32);
            Entry* en = table.find(hi);
            const bool existed = en != nullptr;
            if (!existed) en = &table[hi];
            Bucket& b = en->bucket;
            before[t] = b.rep;
            for (; j < e && VertexId(order[j] >> 32) == hi; ++j) {
              const Op& op = ops[g.items[uint32_t(order[j])]];
              if (op.add) {
                assert(!b.contains(op.member));
                if (b.members.empty()) b.rep = op.member;
                b.members.push_back(op.member);
              } else if (!b.erase_member(op.member) && b.rep == op.member) {
                b.rep = b.members[0];
              }
            }
            const bool now = !b.members.empty();
            uint8_t o = kSame;
            if (existed && !now) {
              o = kDel;
              ++del;
            } else if (!existed && now) {
              o = kIns;
              ++ins;
            } else if (now && before[t] != b.rep) {
              o = kRep;
              ++rep;
            }
            if (!now) table.erase(hi);
            outcome[t] = o;
            order[t] = hi;  // slot t < this pair's first op: already read
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
    d.del_rep.resize(d.next_del.size());
    d.rep_changed.resize(exclusive_scan_inplace(n_rep));
    d.old_rep.resize(d.rep_changed.size());
    parallel_for(
        0, runs,
        [&](size_t r) {
          const size_t s = g.starts[r];
          const VertexId u = lo[g.items[s]];
          for (size_t j = s; j < s + touched[r]; ++j) {
            const Edge pair(u, VertexId(order[j]));
            if (outcome[j] == kIns) d.next_ins[n_ins[r]++] = pair;
            if (outcome[j] == kDel) {
              d.del_rep[n_del[r]] = before[j];
              d.next_del[n_del[r]++] = pair;
            }
            if (outcome[j] == kRep) {
              d.old_rep[n_rep[r]] = before[j];
              d.rep_changed[n_rep[r]++] = pair;
            }
          }
        },
        grain);
    size_ = size_ + d.next_ins.size() - d.next_del.size();
    return d;
  }

  /// One composition step S = H ∪ rep(S_next) (Algorithm 4's "add the
  /// corresponding edges"), after the apply() that returned `pd`: this
  /// level's H diff and the next level's S_next diff in, all key-sorted,
  /// and S's net diff out, key-sorted. H and the marked representatives are
  /// disjoint at batch boundaries, but an edge may switch roles within one
  /// batch, so S's removals and additions are each merged and netted.
  SpannerDiff compose(const std::vector<Edge>& h_ins,
                      const std::vector<Edge>& h_del, const SpannerDiff& next,
                      const Diff& pd) {
    std::vector<EdgeKey> out, in;  // S's removals and additions
    for (const Edge& e : h_del) out.push_back(e.key());
    for (const Edge& e : h_ins) in.push_back(e.key());
    // A pair leaving S_next leaves the representative it held, which is its
    // pre-batch one: a merge walk finds the pair among the vanished and the
    // re-pointed pairs (all three lists are key-sorted).
    const std::vector<Edge>& gone = pd.next_del;
    const std::vector<Edge>& moved = pd.rep_changed;
    size_t a = 0, c = 0;
    for (const Edge& p : next.removed) {
      while (a < gone.size() && gone[a] < p) ++a;
      while (c < moved.size() && moved[c] < p) ++c;
      Entry* en = entry(p.key());
      if (en != nullptr) en->in_next = false;
      out.push_back(a < gone.size() && gone[a] == p    ? pd.del_rep[a]
                    : c < moved.size() && moved[c] == p ? pd.old_rep[c]
                                                        : en->bucket.rep);
    }
    // A pair still held under a new representative swaps the two.
    for (size_t i = 0; i < moved.size(); ++i) {
      const Entry* en = entry(moved[i].key());
      if (!en->in_next) continue;
      out.push_back(pd.old_rep[i]);
      in.push_back(en->bucket.rep);
    }
    for (const Edge& p : next.inserted) {
      Entry* en = entry(p.key());
      en->in_next = true;
      in.push_back(en->bucket.rep);
    }
    held_ = held_ + next.inserted.size() - next.removed.size();
    merge_tail(out, h_del.size());
    merge_tail(in, h_ins.size());
    SpannerDiff d;
    for (size_t i = 0, j = 0; i < out.size() || j < in.size();) {
      if (j == in.size() || (i < out.size() && out[i] < in[j]))
        d.removed.push_back(edge_from_key(out[i++]));
      else if (i == out.size() || in[j] < out[i])
        d.inserted.push_back(edge_from_key(in[j++]));
      else
        ++i, ++j;  // the edge switched roles: no net change
    }
    return d;
  }

  /// Representative of pair pk, which must exist.
  EdgeKey rep(EdgeKey pk) const {
    const Entry* en = entry(pk);
    assert(en != nullptr);
    return en->bucket.rep;
  }

  size_t size() const { return size_; }
  /// Pairs marked in S_next by compose().
  size_t held() const { return held_; }

  /// The composed S = H ∪ rep(S_next), ascending by key.
  std::vector<Edge> composed(const std::vector<Edge>& h) const {
    std::vector<Edge> out = h;
    out.reserve(h.size() + held_);
    for (const auto& table : tables_)
      table.for_each([&](VertexId, const Entry& en) {
        if (en.in_next) out.push_back(edge_from_key(en.bucket.rep));
      });
    parallel_sort(out);
    return out;
  }

  /// True iff pair pk (kNoEdge: none) is marked in S_next and `member`
  /// represents it.
  bool holds(EdgeKey pk, EdgeKey member) const {
    const Entry* en = entry(pk);
    return en != nullptr && en->in_next && en->bucket.rep == member;
  }

  /// Oracle for compose(): the S_next marks sit exactly on `s_next`, and no
  /// marked representative is in `h` (which holds no duplicates), so S is
  /// the disjoint union H ∪ rep(S_next).
  bool check_composed(const std::vector<Edge>& h,
                      const std::vector<Edge>& s_next) const {
    FlatHashSet<EdgeKey> hs;
    for (const Edge& e : h)
      if (!hs.insert(e.key())) return false;
    if (s_next.size() != held_) return false;
    for (const Edge& p : s_next) {
      const Entry* en = entry(p.key());
      if (en == nullptr || !en->in_next || hs.contains(en->bucket.rep))
        return false;
    }
    return true;
  }

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
  bool matches(FlatHashMap<EdgeKey, std::vector<EdgeKey>>& ref) const {
    size_t held = 0;
    for (const auto& table : tables_) held += table.size();
    if (ref.size() != size_ || held != size_) return false;
    bool ok = true;
    ref.for_each([&](EdgeKey pk, std::vector<EdgeKey>& members) {
      const Entry* en = entry(pk);
      if (en == nullptr) {
        ok = false;
        return;
      }
      std::vector<EdgeKey> have = en->bucket.members;
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
    bool in_next = false;  // the pair is in S_next (compose())
  };

  /// Sorts v[from, end) and merges it into the key-sorted prefix.
  static void merge_tail(std::vector<EdgeKey>& v, size_t from) {
    std::sort(v.begin() + from, v.end());
    std::inplace_merge(v.begin(), v.begin() + from, v.end());
  }

  const Entry* entry(EdgeKey pk) const {
    auto [lo, hi] = edge_endpoints(pk);
    return lo < tables_.size() ? tables_[lo].find(hi) : nullptr;
  }
  Entry* entry(EdgeKey pk) {
    return const_cast<Entry*>(std::as_const(*this).entry(pk));
  }

  std::vector<FlatHashMap<VertexId, Entry>> tables_;  // by low endpoint
  size_t size_ = 0;
  size_t held_ = 0;
};

}  // namespace parspan
