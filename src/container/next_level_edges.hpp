// NextLevelEdges: the contracted-pair table of Lemma 4.1 / Lemma 5.1 — one
// RepBucket per pair (Head(u), Head(v)) of the next level, holding the
// level's edges between the two clusters; the bucket's first member is the
// designated representative that stands in for the pair (the paper's
// Bwd/FwdCorrespondence). Both owners (ContractionLayer, UltraSparseSpanner)
// name an edge by its key, so members and representatives are level edge
// keys.
//
// RepBucket is a tiny member list whose first member is the representative:
// swap-pop erase, with up to 16 bytes of members (two edge keys, four vertex
// ids) stored inline in the bucket, so the common bucket owns no heap block.
// Bucket sizes are degree-bounded and average a couple of entries, where a
// linear scan beats any hash structure (the InterCluster trade-off of
// DESIGN.md §6.4; DecrementalClusterSpanner's InterCluster groups are
// RepBuckets too).
//
// Election: the first member of an empty bucket becomes the representative;
// when the representative leaves, swap-pop moves the last member into the
// first slot, and it is re-elected. Elections depend only on the order of
// the edits to one pair.
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
// (compose()): each pair's bucket mark is its "in S_next" bit, and S is H
// plus the representatives of the marked pairs, so no copy of S is kept.
#pragma once

#include <algorithm>
#include <cassert>
#include <type_traits>
#include <utility>
#include <vector>

#include "container/flat_map.hpp"
#include "parallel/csr.hpp"
#include "parallel/primitives.hpp"
#include "util/types.hpp"

namespace parspan {

/// Unordered member list whose first member is the representative. Members
/// sit inline while they fit in 16 bytes and in one heap array of 2^k slots
/// beyond that; a bucket that shrinks back to the inline size returns its
/// array. The header carries one spare mark bit for the owner.
template <typename Id>
class RepBucket {
  static_assert(std::is_trivially_copyable_v<Id> && sizeof(Id) <= 8);
  static constexpr uint32_t kInline = 16 / sizeof(Id);

 public:
  RepBucket() = default;
  RepBucket(const RepBucket& o)
      : size_(o.size_), cap_log_(o.cap_log_), mark_(o.mark_), s_(o.s_) {
    if (on_heap()) {
      s_.heap = new Id[capacity()];
      std::copy_n(o.s_.heap, size_, s_.heap);
    }
  }
  RepBucket(RepBucket&& o) noexcept
      : size_(o.size_), cap_log_(o.cap_log_), mark_(o.mark_), s_(o.s_) {
    o.size_ = 0;
    o.cap_log_ = 0;
  }
  RepBucket& operator=(RepBucket o) noexcept {  // copy or move, then swap
    std::swap(size_, o.size_);
    std::swap(cap_log_, o.cap_log_);
    std::swap(mark_, o.mark_);
    std::swap(s_, o.s_);
    return *this;
  }
  ~RepBucket() {
    if (on_heap()) delete[] s_.heap;
  }

  uint32_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const Id* begin() const { return data(); }
  const Id* end() const { return data() + size_; }

  /// The representative: the first member. Requires !empty().
  Id rep() const {
    assert(size_ > 0);
    return data()[0];
  }

  bool contains(Id m) const { return std::find(begin(), end(), m) != end(); }

  /// Appends m, which must not be a member; the first member of an empty
  /// bucket becomes the representative.
  void add(Id m) {
    if (size_ == capacity()) grow(capacity() * 2);
    data()[size_++] = m;
  }

  /// Removes m (must be present) by swap-pop: the last member takes its
  /// slot, so removing the representative elects the last member. Returns
  /// true if the bucket emptied.
  bool erase_member(Id m) {
    Id* d = data();
    Id* it = std::find(d, d + size_, m);
    assert(it != d + size_);
    *it = d[--size_];
    if (on_heap() && size_ <= kInline) {
      std::copy_n(d, size_, s_.in);
      delete[] d;
      cap_log_ = 0;
    }
    return size_ == 0;
  }

  /// Makes room for n members with at most one allocation.
  void reserve(uint32_t n) {
    if (n > capacity()) grow(n);
  }

  bool mark() const { return mark_ != 0; }
  void set_mark(bool on) { mark_ = on; }

  /// Bytes of the heap array (0 while the members sit inline).
  size_t heap_bytes() const { return on_heap() ? capacity() * sizeof(Id) : 0; }

 private:
  bool on_heap() const { return cap_log_ != 0; }
  uint32_t capacity() const { return on_heap() ? 1u << cap_log_ : kInline; }
  Id* data() { return on_heap() ? s_.heap : s_.in; }
  const Id* data() const { return on_heap() ? s_.heap : s_.in; }

  /// Moves the members to a heap array of the least 2^k >= n slots.
  void grow(uint32_t n) {
    uint8_t lg = 1;
    while ((1u << lg) < n) ++lg;
    Id* p = new Id[size_t(1) << lg];
    std::copy_n(data(), size_, p);
    if (on_heap()) delete[] s_.heap;
    s_.heap = p;
    cap_log_ = lg;
  }

  uint32_t size_ = 0;
  uint8_t cap_log_ = 0;  // 0: members inline; else 2^cap_log_ heap slots
  uint8_t mark_ = 0;
  union Storage {
    Id in[kInline];
    Id* heap;
  } s_{};
};

static_assert(sizeof(RepBucket<EdgeKey>) == 24 &&
              sizeof(RepBucket<VertexId>) == 24);

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
          FlatHashMap<VertexId, Bucket>& table = tables_[lo[g.items[s]]];
          for (size_t j = s; j < e; ++j) {
            const VertexId hi = edge_endpoints(ops[g.items[j]].pair).second;
            order[j] = uint64_t(hi) << 32 | j;
          }
          std::sort(order.begin() + s, order.begin() + e);
          size_t t = s, ins = 0, del = 0, rep = 0;
          for (size_t j = s; j < e; ++t) {
            const VertexId hi = VertexId(order[j] >> 32);
            Bucket* found = table.find(hi);
            const bool existed = found != nullptr;
            Bucket& b = existed ? *found : table[hi];
            before[t] = existed ? b.rep() : kNoEdge;
            for (; j < e && VertexId(order[j] >> 32) == hi; ++j) {
              const Op& op = ops[g.items[uint32_t(order[j])]];
              if (op.add) {
                assert(!b.contains(op.member));
                b.add(op.member);
              } else {
                b.erase_member(op.member);
              }
            }
            const bool now = !b.empty();
            uint8_t o = kSame;
            if (existed && !now) {
              o = kDel;
              ++del;
            } else if (!existed && now) {
              o = kIns;
              ++ins;
            } else if (now && before[t] != b.rep()) {
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
      Bucket* b = bucket(p.key());
      if (b != nullptr) b->set_mark(false);
      out.push_back(a < gone.size() && gone[a] == p    ? pd.del_rep[a]
                    : c < moved.size() && moved[c] == p ? pd.old_rep[c]
                                                        : b->rep());
    }
    // A pair still held under a new representative swaps the two.
    for (size_t i = 0; i < moved.size(); ++i) {
      const Bucket* b = bucket(moved[i].key());
      if (!b->mark()) continue;
      out.push_back(pd.old_rep[i]);
      in.push_back(b->rep());
    }
    for (const Edge& p : next.inserted) {
      Bucket* b = bucket(p.key());
      b->set_mark(true);
      in.push_back(b->rep());
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
    const Bucket* b = bucket(pk);
    assert(b != nullptr);
    return b->rep();
  }

  size_t size() const { return size_; }
  /// Pairs marked in S_next by compose().
  size_t held() const { return held_; }

  /// Resident bytes: the tables' slot arrays plus the buckets' heap arrays.
  size_t bytes() const {
    size_t total = tables_.capacity() * sizeof(tables_[0]);
    for (const auto& table : tables_) {
      total += table.capacity() * table.slot_bytes();
      table.for_each(
          [&](VertexId, const Bucket& b) { total += b.heap_bytes(); });
    }
    return total;
  }

  /// The composed S = H ∪ rep(S_next), ascending by key.
  std::vector<Edge> composed(const std::vector<Edge>& h) const {
    std::vector<Edge> out = h;
    out.reserve(h.size() + held_);
    for (const auto& table : tables_)
      table.for_each([&](VertexId, const Bucket& b) {
        if (b.mark()) out.push_back(edge_from_key(b.rep()));
      });
    parallel_sort(out);
    return out;
  }

  /// True iff pair pk (kNoEdge: none) is marked in S_next and `member`
  /// represents it.
  bool holds(EdgeKey pk, EdgeKey member) const {
    const Bucket* b = bucket(pk);
    return b != nullptr && b->mark() && b->rep() == member;
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
      const Bucket* b = bucket(p.key());
      if (b == nullptr || !b->mark() || hs.contains(b->rep())) return false;
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
  /// members in any order; sorted in place).
  bool matches(FlatHashMap<EdgeKey, std::vector<EdgeKey>>& ref) const {
    size_t held = 0;
    for (const auto& table : tables_) held += table.size();
    if (ref.size() != size_ || held != size_) return false;
    bool ok = true;
    ref.for_each([&](EdgeKey pk, std::vector<EdgeKey>& members) {
      const Bucket* b = bucket(pk);
      if (b == nullptr) {
        ok = false;
        return;
      }
      std::vector<EdgeKey> have(b->begin(), b->end());
      std::sort(members.begin(), members.end());
      std::sort(have.begin(), have.end());
      if (have != members) ok = false;
    });
    return ok;
  }

 private:
  enum : uint8_t { kSame = 0, kIns = 1, kDel = 2, kRep = 3 };

  /// Sorts v[from, end) and merges it into the key-sorted prefix.
  static void merge_tail(std::vector<EdgeKey>& v, size_t from) {
    std::sort(v.begin() + from, v.end());
    std::inplace_merge(v.begin(), v.begin() + from, v.end());
  }

  const Bucket* bucket(EdgeKey pk) const {
    auto [lo, hi] = edge_endpoints(pk);
    return lo < tables_.size() ? tables_[lo].find(hi) : nullptr;
  }
  Bucket* bucket(EdgeKey pk) {
    return const_cast<Bucket*>(std::as_const(*this).bucket(pk));
  }

  // A bucket's mark is its pair's S_next bit (compose()).
  std::vector<FlatHashMap<VertexId, Bucket>> tables_;  // by low endpoint
  size_t size_ = 0;
  size_t held_ = 0;
};

static_assert(FlatHashMap<VertexId, NextLevelEdges::Bucket>::slot_bytes() ==
              32);

}  // namespace parspan
