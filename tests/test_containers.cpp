// Unit + randomized oracle tests for the flat open-addressing containers
// (FlatHashMap, FlatHashSet), RepBucket and the NextLevelEdges pair table.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "container/flat_map.hpp"
#include "container/next_level_edges.hpp"
#include "parallel/scheduler.hpp"
#include "util/rng.hpp"

namespace parspan {
namespace {

TEST(FlatHashMap, BasicOps) {
  FlatHashMap<uint64_t, uint32_t> m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.find(5), nullptr);
  EXPECT_FALSE(m.erase(5));
  m[5] = 50;
  m[9] = 90;
  EXPECT_EQ(m.size(), 2u);
  ASSERT_NE(m.find(5), nullptr);
  EXPECT_EQ(*m.find(5), 50u);
  EXPECT_TRUE(m.contains(9));
  EXPECT_FALSE(m.contains(7));
  EXPECT_TRUE(m.erase(5));
  EXPECT_FALSE(m.erase(5));
  EXPECT_EQ(m.size(), 1u);
  m.clear();
  EXPECT_TRUE(m.empty());
  EXPECT_FALSE(m.contains(9));
}

TEST(FlatHashMap, RandomizedAgainstStdMap) {
  Rng rng(123);
  FlatHashMap<uint64_t, uint64_t> m;
  std::map<uint64_t, uint64_t> ref;
  // Small key universe maximizes collision chains and backward-shift moves.
  for (int step = 0; step < 50000; ++step) {
    uint64_t key = rng.next_below(300);
    int op = int(rng.next_below(3));
    if (op == 0) {
      uint64_t v = rng.next();
      m[key] = v;
      ref[key] = v;
    } else if (op == 1) {
      EXPECT_EQ(m.erase(key), ref.erase(key) > 0);
    } else {
      auto* v = m.find(key);
      auto it = ref.find(key);
      if (it == ref.end()) {
        EXPECT_EQ(v, nullptr);
      } else {
        ASSERT_NE(v, nullptr);
        EXPECT_EQ(*v, it->second);
      }
    }
    ASSERT_EQ(m.size(), ref.size());
  }
  size_t visited = 0;
  m.for_each([&](uint64_t k, uint64_t& v) {
    ++visited;
    auto it = ref.find(k);
    ASSERT_NE(it, ref.end());
    EXPECT_EQ(v, it->second);
  });
  EXPECT_EQ(visited, ref.size());
}

TEST(FlatHashMap, SentinelKeyLookupsAreAbsent) {
  // The all-ones key is the empty-slot sentinel; querying it must answer
  // "absent" (not match an empty slot) even in release builds.
  FlatHashMap<uint64_t, uint32_t> m;
  constexpr uint64_t sentinel = FlatHashMap<uint64_t, uint32_t>::kEmptyKey;
  m[1] = 10;
  EXPECT_EQ(m.find(sentinel), nullptr);
  EXPECT_FALSE(m.contains(sentinel));
  EXPECT_FALSE(m.erase(sentinel));
  EXPECT_EQ(m.size(), 1u);
}

TEST(FlatHashMap, ReserveAvoidsGrowthAndKeepsEntries) {
  FlatHashMap<uint32_t, uint32_t> m;
  m.reserve(1000);
  for (uint32_t i = 0; i < 1000; ++i) m[i] = i * 2;
  EXPECT_EQ(m.size(), 1000u);
  for (uint32_t i = 0; i < 1000; ++i) EXPECT_EQ(*m.find(i), i * 2);
}

TEST(FlatHashSet, InsertEraseAnyMember) {
  FlatHashSet<uint32_t> s;
  EXPECT_TRUE(s.insert(3));
  EXPECT_FALSE(s.insert(3));
  EXPECT_TRUE(s.insert(8));
  EXPECT_EQ(s.size(), 2u);
  uint32_t a = s.any();
  EXPECT_TRUE(a == 3 || a == 8);
  EXPECT_TRUE(s.erase(a));
  EXPECT_EQ(s.any(), a == 3 ? 8u : 3u);
  std::set<uint32_t> seen;
  s.for_each([&](uint32_t k) { seen.insert(k); });
  EXPECT_EQ(seen.size(), 1u);
}

// --- RepBucket: members inline or on the heap, first member the rep. ------
// The model is a plain bucket: a vector with swap-pop erase and an explicit
// representative, re-elected as members[0] when it leaves. The reference
// pair table below uses it too, so every election is checked against code
// that shares none of RepBucket's.
template <typename Id>
struct PlainBucket {
  std::vector<Id> members;
  Id rep{};

  void add(Id m) {
    if (members.empty()) rep = m;
    members.push_back(m);
  }
  /// Removes m (present); returns true if the bucket emptied.
  bool erase_member(Id m) {
    auto it = std::find(members.begin(), members.end(), m);
    *it = members.back();
    members.pop_back();
    if (members.empty()) return true;
    if (rep == m) rep = members[0];
    return false;
  }
};

template <typename Id>
void expect_same(const RepBucket<Id>& b, const PlainBucket<Id>& ref) {
  ASSERT_EQ(b.size(), ref.members.size());
  ASSERT_EQ(b.empty(), ref.members.empty());
  ASSERT_EQ(std::multiset<Id>(b.begin(), b.end()),
            std::multiset<Id>(ref.members.begin(), ref.members.end()));
  if (!b.empty()) {
    ASSERT_EQ(b.rep(), ref.rep);
  }
}

template <typename Id>
class RepBucketTest : public ::testing::Test {};
using BucketIds = ::testing::Types<EdgeKey, VertexId>;
TYPED_TEST_SUITE(RepBucketTest, BucketIds);

// Seeded add/erase walks whose sizes drift between 0 and ~40, crossing the
// inline/heap boundary both ways; after every op the bucket, its copy, its
// move-constructed and move-assigned copies, a reserved copy and its mark
// match the model, and members sit inline exactly while they fit in 16 B.
TYPED_TEST(RepBucketTest, RandomEditsMatchExplicitRepModel) {
  using Id = TypeParam;
  Rng rng(101 + sizeof(Id));
  size_t to_heap = 0, to_inline = 0, rep_left = 0, largest = 0;
  for (int walk = 0; walk < 40; ++walk) {
    RepBucket<Id> b;
    PlainBucket<Id> ref;
    bool mark = false;
    const size_t target = rng.next_below(41);
    for (int step = 0; step < 400; ++step) {
      const bool was_heap = b.heap_bytes() != 0;
      const size_t sz = ref.members.size();
      const bool grow = sz == 0 || rng.next_below(8) < (sz < target ? 6u : 2u);
      if (grow) {
        Id m = Id(rng.next_below(1000));
        if (std::find(ref.members.begin(), ref.members.end(), m) !=
            ref.members.end())
          continue;
        b.add(m);
        ref.add(m);
      } else {
        Id m = ref.members[rng.next_below(sz)];
        if (m == b.rep()) ++rep_left;
        ASSERT_EQ(b.erase_member(m), ref.erase_member(m));
      }
      if (rng.next_below(4) == 0) b.set_mark(mark = !mark);
      to_heap += !was_heap && b.heap_bytes() != 0;
      to_inline += was_heap && b.heap_bytes() == 0;
      largest = std::max<size_t>(largest, b.size());
      expect_same(b, ref);
      ASSERT_EQ(b.mark(), mark);
      ASSERT_EQ(b.heap_bytes() == 0, b.size() * sizeof(Id) <= 16);

      RepBucket<Id> reserved(b);
      const uint32_t want = uint32_t(rng.next_below(48));
      reserved.reserve(want);
      expect_same(reserved, ref);
      ASSERT_GE(std::max<size_t>(reserved.heap_bytes(), 16),
                want * sizeof(Id));

      RepBucket<Id> copy(b);
      expect_same(copy, ref);
      ASSERT_EQ(copy.mark(), mark);
      RepBucket<Id> moved(std::move(copy));
      expect_same(moved, ref);
      ASSERT_EQ(moved.mark(), mark);
      ASSERT_TRUE(copy.empty());
      RepBucket<Id> assigned;  // holds members of its own first
      for (Id m = 0; m < Id(step % 7); ++m) assigned.add(Id(5000) + m);
      assigned = std::move(moved);
      expect_same(assigned, ref);
      ASSERT_EQ(assigned.mark(), mark);
      RepBucket<Id> copied;
      for (Id m = 0; m < Id(step % 9); ++m) copied.add(Id(6000) + m);
      copied = assigned;
      expect_same(copied, ref);
      ASSERT_EQ(copied.mark(), mark);
    }
  }
  EXPECT_GT(to_heap, 0u);
  EXPECT_GT(to_inline, 0u);
  EXPECT_GT(rep_left, 0u);
  EXPECT_GE(largest, 35u);
}

// Table moves keep each bucket's members, representative and mark: inserts
// rehash the table repeatedly, erasures backward-shift later entries into
// freed slots, and shrink() rehashes into a smaller array.
TYPED_TEST(RepBucketTest, MarksSurviveTableRehashShiftAndShrink) {
  using Id = TypeParam;
  Rng rng(7 + sizeof(Id));
  FlatHashMap<uint32_t, RepBucket<Id>> t;
  std::map<uint32_t, std::pair<PlainBucket<Id>, bool>> ref;
  auto check = [&] {
    ASSERT_EQ(t.size(), ref.size());
    for (const auto& [k, want] : ref) {
      const RepBucket<Id>* b = t.find(k);
      ASSERT_NE(b, nullptr);
      expect_same(*b, want.first);
      ASSERT_EQ(b->mark(), want.second);
    }
  };
  for (uint32_t k = 0; k < 600; ++k) {
    RepBucket<Id>& b = t[k];
    auto& [pb, mark] = ref[k];
    const size_t sz = rng.next_below(12);
    for (size_t i = 0; i < sz; ++i) {
      b.add(Id(16 * k + i));
      pb.add(Id(16 * k + i));
    }
    if (sz > 1) {  // a re-election, so the rep is not the first added
      b.erase_member(Id(16 * k));
      pb.erase_member(Id(16 * k));
    }
    mark = rng.next_below(2) == 1;
    b.set_mark(mark);
  }
  check();
  std::vector<uint32_t> keys;
  for (const auto& [k, want] : ref) keys.push_back(k);
  for (size_t i = 0; i < 520; ++i) {
    size_t at = i + rng.next_below(keys.size() - i);
    std::swap(keys[i], keys[at]);
    ASSERT_TRUE(t.erase(keys[i]));
    ref.erase(keys[i]);
  }
  check();
  const size_t cap = t.capacity();
  t.shrink();
  EXPECT_LT(t.capacity(), cap);
  check();
}

// --- NextLevelEdges: elections and the per-batch pair diff. ---------------
// Members are edge keys; small numbers stand in for them here.
NextLevelEdges::Op add(EdgeKey pk, EdgeKey m) { return {pk, m, true}; }
NextLevelEdges::Op del(EdgeKey pk, EdgeKey m) { return {pk, m, false}; }

TEST(NextLevelEdges, FirstMemberIsRepAndMembers0IsReElected) {
  NextLevelEdges t(4);
  const EdgeKey p = edge_key(1, 2);
  t.apply({add(p, 7), add(p, 3), add(p, 9)});
  EXPECT_EQ(t.rep(p), 7u);
  t.apply({del(p, 3)});  // not the rep: no election
  EXPECT_EQ(t.rep(p), 7u);
  auto d = t.apply({del(p, 7)});  // swap-pop leaves {9}
  EXPECT_EQ(t.rep(p), 9u);
  EXPECT_TRUE(d.next_ins.empty());
  EXPECT_TRUE(d.next_del.empty());
  EXPECT_EQ(d.rep_changed, std::vector<Edge>{Edge(1, 2)});
}

TEST(NextLevelEdges, BatchDiffAgainstSnapshots) {
  NextLevelEdges t(8);
  const EdgeKey re_elected = edge_key(0, 5), recreated = edge_key(2, 3),
                vanished = edge_key(1, 4), fresh = edge_key(0, 1),
                untouched = edge_key(6, 7);
  std::vector<NextLevelEdges::Op> bulk;
  for (EdgeKey p : {re_elected, recreated, vanished, untouched}) {
    bulk.push_back(add(p, 10));
    bulk.push_back(add(p, 11));
  }
  auto d = t.apply(bulk);
  EXPECT_EQ(d.next_ins.size(), 4u);

  // One batch. The rep of `re_elected` leaves and comes back as a plain
  // member: the pair survives under members[0] = 11. `recreated` empties
  // and is rebuilt with its old rep first.
  d = t.apply({del(re_elected, 10), add(re_elected, 10),
               del(recreated, 10), del(recreated, 11),
               add(recreated, 10), del(vanished, 11),
               del(vanished, 10), add(fresh, 12)});
  EXPECT_EQ(d.next_ins, std::vector<Edge>{edge_from_key(fresh)});
  EXPECT_EQ(d.next_del, std::vector<Edge>{edge_from_key(vanished)});
  EXPECT_EQ(d.rep_changed, std::vector<Edge>{edge_from_key(re_elected)});
  EXPECT_EQ(t.rep(re_elected), 11u);
  EXPECT_EQ(t.rep(recreated), 10u);
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.pairs(),
            (std::vector<Edge>{edge_from_key(fresh), edge_from_key(re_elected),
                               edge_from_key(recreated),
                               edge_from_key(untouched)}));

  // A pair deleted and re-created under a new rep within one batch is a
  // rep change, never a deletion plus an insertion.
  d = t.apply({del(recreated, 10), add(recreated, 13)});
  EXPECT_TRUE(d.next_ins.empty());
  EXPECT_TRUE(d.next_del.empty());
  EXPECT_EQ(d.rep_changed, std::vector<Edge>{edge_from_key(recreated)});

  // Members that left a pair in an earlier batch join again: 11 left
  // `vanished` above and now founds a new pair; `re_elected`'s old rep 10
  // rejoins elsewhere.
  d = t.apply({add(vanished, 11), del(re_elected, 11),
               add(recreated, 11)});
  EXPECT_EQ(d.next_ins, std::vector<Edge>{edge_from_key(vanished)});
  EXPECT_EQ(d.rep_changed, std::vector<Edge>{edge_from_key(re_elected)});
  EXPECT_EQ(t.rep(re_elected), 10u);
  EXPECT_EQ(t.rep(vanished), 11u);

  // An empty batch reports nothing.
  d = t.apply({});
  EXPECT_TRUE(d.next_ins.empty() && d.next_del.empty() &&
              d.rep_changed.empty());
}

TEST(NextLevelEdges, MatchesOracle) {
  NextLevelEdges t(4);
  t.apply({add(edge_key(0, 1), 4), add(edge_key(0, 1), 2),
           add(edge_key(2, 3), 5)});
  FlatHashMap<EdgeKey, std::vector<EdgeKey>> ref;
  ref[edge_key(0, 1)] = {2, 4};
  ref[edge_key(2, 3)] = {5};
  EXPECT_TRUE(t.matches(ref));
  ref[edge_key(2, 3)] = {6};
  EXPECT_FALSE(t.matches(ref));
  ref.erase(edge_key(2, 3));
  EXPECT_FALSE(t.matches(ref));
}

// The one-op-at-a-time reference: snapshot each pair at its first op, edit
// an ordered map of buckets, diff the snapshots in key order.
struct ReferenceTable {
  using Op = NextLevelEdges::Op;
  std::map<EdgeKey, PlainBucket<EdgeKey>> buckets;
  // Scenario counters, so the random logs provably reach each case.
  size_t recreated = 0, rep_left = 0;

  NextLevelEdges::Diff apply(const std::vector<Op>& ops) {
    std::map<EdgeKey, std::pair<bool, EdgeKey>> snap;
    std::set<EdgeKey> emptied;
    for (const Op& op : ops) {
      auto it = buckets.find(op.pair);
      if (!snap.count(op.pair))
        snap[op.pair] = {it != buckets.end(),
                         it != buckets.end() ? it->second.rep : 0};
      if (op.add) {
        if (emptied.count(op.pair)) ++recreated;
        buckets[op.pair].add(op.member);
      } else {
        PlainBucket<EdgeKey>& b = it->second;
        if (b.rep == op.member) ++rep_left;
        if (b.erase_member(op.member)) {
          buckets.erase(it);
          emptied.insert(op.pair);
        }
      }
    }
    NextLevelEdges::Diff d;
    for (const auto& [pk, s] : snap) {
      auto it = buckets.find(pk);
      bool now = it != buckets.end();
      if (s.first && !now) d.next_del.push_back(edge_from_key(pk));
      if (!s.first && now) d.next_ins.push_back(edge_from_key(pk));
      if (s.first && now && s.second != it->second.rep)
        d.rep_changed.push_back(edge_from_key(pk));
    }
    return d;
  }
};

// Seeded random op logs against the reference, at 1 and 4 workers: members
// hop between few pairs (elections, pairs emptied and re-created within a
// batch), and members that left in one batch rejoin in later ones. Batches of
// thousands of ops take the parallel path at 4 workers; a wide vertex range
// with short batches takes the sorted grouping.
TEST(NextLevelEdges, ApplyMatchesOneOpAtATimeReference) {
  using Op = NextLevelEdges::Op;
  const int saved = num_workers();
  struct Shape {
    size_t n;        // table vertex count
    size_t span;     // pairs draw endpoints from [0, span) + offset
    size_t members;  // id pool
    size_t batch;    // ops per batch
  };
  for (const Shape& sh : {Shape{24, 24, 400, 3000}, Shape{4096, 90, 3000, 6000},
                          Shape{200000, 40, 60, 50}}) {
    for (int workers : {1, 4}) {
      set_num_workers(workers);
      Rng rng(hash_combine(sh.n, sh.batch));
      NextLevelEdges t(sh.n);
      ReferenceTable ref;
      const VertexId offset = VertexId(sh.n - sh.span);
      std::vector<EdgeKey> where(sh.members, kNoEdge);  // member -> pair
      std::vector<EdgeKey> placed;  // members currently in some pair
      for (int b = 0; b < 12; ++b) {
        std::vector<Op> ops;
        while (ops.size() < sh.batch) {
          if (!placed.empty() && rng.next_below(2) == 0) {
            size_t at = rng.next_below(placed.size());
            EdgeKey m = placed[at];
            ops.push_back({where[size_t(m)], m, false});
            where[size_t(m)] = kNoEdge;
            placed[at] = placed.back();
            placed.pop_back();
          } else {
            EdgeKey m = rng.next_below(sh.members);
            if (where[size_t(m)] != kNoEdge) continue;
            VertexId a = offset + VertexId(rng.next_below(sh.span));
            VertexId c = offset + VertexId(rng.next_below(sh.span));
            if (a == c) continue;
            where[size_t(m)] = edge_key(a, c);
            placed.push_back(m);
            ops.push_back({edge_key(a, c), m, true});
          }
        }
        auto got = t.apply(ops);
        auto want = ref.apply(ops);
        ASSERT_EQ(got.next_ins, want.next_ins) << "n=" << sh.n << " b=" << b;
        ASSERT_EQ(got.next_del, want.next_del) << "n=" << sh.n << " b=" << b;
        ASSERT_EQ(got.rep_changed, want.rep_changed)
            << "n=" << sh.n << " b=" << b;
        ASSERT_EQ(t.size(), ref.buckets.size());
        FlatHashMap<EdgeKey, std::vector<EdgeKey>> oracle;
        for (const auto& [pk, bucket] : ref.buckets) {
          oracle[pk] = bucket.members;
          ASSERT_EQ(t.rep(pk), bucket.rep) << "n=" << sh.n << " b=" << b;
        }
        ASSERT_TRUE(t.matches(oracle));
      }
      EXPECT_GT(ref.recreated, 0u) << "n=" << sh.n;
      EXPECT_GT(ref.rep_left, 0u) << "n=" << sh.n;
    }
  }
  set_num_workers(saved);
}

// --- The composition S = H ∪ rep(S_next) over the pair table. -----------
// The test plays both neighbours of the table: H is any set of member keys
// outside every bucket, and the next level's spanner S_next any subset of
// the table's pairs. Each batch's composed diff must equal the difference
// of S = H ∪ rep(S_next) computed from scratch before and after it.

/// The level edge that member number m stands for.
EdgeKey member_key(uint32_t m) { return edge_key(m, m + 1000000); }


std::vector<Edge> keys_to_edges(const std::set<EdgeKey>& ks) {
  std::vector<Edge> out;
  for (EdgeKey k : ks) out.push_back(edge_from_key(k));
  return out;
}

/// a \ b, key-sorted.
std::vector<Edge> minus(const std::set<EdgeKey>& a,
                        const std::set<EdgeKey>& b) {
  std::vector<Edge> out;
  for (EdgeKey k : a)
    if (!b.count(k)) out.push_back(edge_from_key(k));
  return out;
}

// Seeded random batches at 1 and 4 workers, over few pairs so elections,
// emptied pairs and re-created pairs are common. Counters show that the
// batches reach each composition edge case:
//  * a pair leaves S_next in the batch its representative changes (the
//    removal must name the representative S held, not the new one);
//  * a held pair vanishes from the table;
//  * a held pair is deleted and re-created within one batch and stays in
//    S_next (the pair reports no deletion, only its representative);
//  * an edge switches between H and a representative within one batch.
TEST(PairTableComposition, MatchesFromScratchReference) {
  const int saved = num_workers();
  const uint32_t members = 3000, batch = 4000;
  const VertexId span = 40;
  for (int workers : {1, 4}) {
    set_num_workers(workers);
    Rng rng(0xc0ffee);
    NextLevelEdges t(span);
    std::vector<EdgeKey> where(members, kNoEdge);  // member -> pair
    std::vector<uint8_t> in_h(members, 0);
    std::set<EdgeKey> held;  // S_next
    std::set<EdgeKey> s_ref;  // S before the batch
    size_t left_on_rep_change = 0, held_vanished = 0, held_recreated = 0,
           switched = 0;
    for (int b = 0; b < 16; ++b) {
      const std::set<EdgeKey> h_before = [&] {
        std::set<EdgeKey> h;
        for (uint32_t m = 0; m < members; ++m)
          if (in_h[m]) h.insert(member_key(m));
        return h;
      }();
      const std::set<EdgeKey> s_before = s_ref;
      std::map<EdgeKey, int> count;  // bucket sizes through the batch
      for (uint32_t m = 0; m < members; ++m)
        if (where[m] != kNoEdge) ++count[where[m]];
      std::set<EdgeKey> emptied, recreated;
      std::vector<NextLevelEdges::Op> ops;
      while (ops.size() < batch) {
        const uint32_t m = uint32_t(rng.next_below(members));
        if (where[m] != kNoEdge) {  // leave the pair, maybe into H
          ops.push_back({where[m], member_key(m), false});
          if (--count[where[m]] == 0) emptied.insert(where[m]);
          where[m] = kNoEdge;
          in_h[m] = rng.next_below(3) == 0;
        } else if (rng.next_below(4) == 0) {  // H churn
          in_h[m] ^= 1;
        } else {  // join a pair, leaving H if there
          VertexId a = VertexId(rng.next_below(span));
          VertexId c = VertexId(rng.next_below(span));
          if (a == c) continue;
          const EdgeKey pk = edge_key(a, c);
          in_h[m] = 0;
          where[m] = pk;
          if (count[pk]++ == 0 && emptied.count(pk)) recreated.insert(pk);
          ops.push_back({pk, member_key(m), true});
        }
      }
      const auto pd = t.apply(ops);

      // The next level's answer: vanished pairs leave S_next; so do some
      // pairs whose representative changed, and a few others; some current
      // pairs join.
      std::set<EdgeKey> removed, inserted;
      const std::set<EdgeKey> gone = [&] {
        std::set<EdgeKey> g;
        for (const Edge& p : pd.next_del) g.insert(p.key());
        return g;
      }();
      std::set<EdgeKey> changed;
      for (const Edge& p : pd.rep_changed) changed.insert(p.key());
      for (EdgeKey p : held) {
        if (gone.count(p)) {
          removed.insert(p);
          ++held_vanished;
        } else if (changed.count(p) && rng.next_below(3) == 0) {
          removed.insert(p);
          ++left_on_rep_change;
        } else if (rng.next_below(10) == 0) {
          removed.insert(p);
        } else if (recreated.count(p)) {
          ++held_recreated;
        }
      }
      for (const Edge& p : t.pairs())
        if (!held.count(p.key()) && rng.next_below(2) == 0)
          inserted.insert(p.key());
      for (EdgeKey p : removed) held.erase(p);
      for (EdgeKey p : inserted) held.insert(p);

      std::set<EdgeKey> h_after;
      for (uint32_t m = 0; m < members; ++m)
        if (in_h[m]) h_after.insert(member_key(m));
      s_ref = h_after;
      for (EdgeKey p : held) {
        ASSERT_TRUE(s_ref.insert(t.rep(p)).second)
            << "H and the representatives must stay disjoint";
      }
      for (EdgeKey k : h_after)
        if (s_before.count(k) && !h_before.count(k)) ++switched;
      for (EdgeKey k : h_before)
        if (s_ref.count(k) && !h_after.count(k)) ++switched;

      const SpannerDiff got =
          t.compose(minus(h_after, h_before), minus(h_before, h_after),
                    {keys_to_edges(inserted), keys_to_edges(removed)}, pd);
      ASSERT_EQ(got.inserted, minus(s_ref, s_before))
          << "workers=" << workers << " b=" << b;
      ASSERT_EQ(got.removed, minus(s_before, s_ref))
          << "workers=" << workers << " b=" << b;
      ASSERT_EQ(t.composed(keys_to_edges(h_after)), keys_to_edges(s_ref));
      ASSERT_TRUE(
          t.check_composed(keys_to_edges(h_after), keys_to_edges(held)));
    }
    EXPECT_GT(left_on_rep_change, 0u) << "workers=" << workers;
    EXPECT_GT(held_vanished, 0u) << "workers=" << workers;
    EXPECT_GT(held_recreated, 0u) << "workers=" << workers;
    EXPECT_GT(switched, 0u) << "workers=" << workers;
  }
  set_num_workers(saved);
}

}  // namespace
}  // namespace parspan
