// Unit + randomized oracle tests for the flat open-addressing containers
// (FlatHashMap, FlatHashSet) and the NextLevelEdges pair table.
#include <gtest/gtest.h>

#include <map>
#include <set>
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

// --- NextLevelEdges: elections and the per-batch pair diff. ---------------
// Both member types in use: edge ids (ContractionLayer) and edge keys
// (UltraSparseSpanner).
template <typename Id>
class NextLevelEdgesTest : public ::testing::Test {};
using MemberIds = ::testing::Types<uint32_t, EdgeKey>;
TYPED_TEST_SUITE(NextLevelEdgesTest, MemberIds);

template <typename Id>
typename NextLevelEdges<Id>::Op add(EdgeKey pk, Id m) {
  return {pk, m, true};
}
template <typename Id>
typename NextLevelEdges<Id>::Op del(EdgeKey pk, Id m) {
  return {pk, m, false};
}

TYPED_TEST(NextLevelEdgesTest, FirstMemberIsRepAndMembers0IsReElected) {
  using Id = TypeParam;
  NextLevelEdges<Id> t(4);
  const EdgeKey p = edge_key(1, 2);
  t.apply({add<Id>(p, 7), add<Id>(p, 3), add<Id>(p, 9)});
  EXPECT_EQ(t.rep(p), 7u);
  t.apply({del<Id>(p, 3)});  // not the rep: no election
  EXPECT_EQ(t.rep(p), 7u);
  auto d = t.apply({del<Id>(p, 7)});  // swap-pop leaves {9}
  EXPECT_EQ(t.rep(p), 9u);
  EXPECT_TRUE(d.next_ins.empty());
  EXPECT_TRUE(d.next_del.empty());
  EXPECT_EQ(d.rep_changed, std::vector<Edge>{Edge(1, 2)});
}

TYPED_TEST(NextLevelEdgesTest, BatchDiffAgainstSnapshots) {
  using Id = TypeParam;
  NextLevelEdges<Id> t(8);
  const EdgeKey re_elected = edge_key(0, 5), recreated = edge_key(2, 3),
                vanished = edge_key(1, 4), fresh = edge_key(0, 1),
                untouched = edge_key(6, 7);
  std::vector<typename NextLevelEdges<Id>::Op> bulk;
  for (EdgeKey p : {re_elected, recreated, vanished, untouched}) {
    bulk.push_back(add<Id>(p, 10));
    bulk.push_back(add<Id>(p, 11));
  }
  auto d = t.apply(bulk);
  EXPECT_EQ(d.next_ins.size(), 4u);

  // One batch. The rep of `re_elected` leaves and comes back as a plain
  // member: the pair survives under members[0] = 11. `recreated` empties
  // and is rebuilt with its old rep first.
  d = t.apply({del<Id>(re_elected, 10), add<Id>(re_elected, 10),
               del<Id>(recreated, 10), del<Id>(recreated, 11),
               add<Id>(recreated, 10), del<Id>(vanished, 11),
               del<Id>(vanished, 10), add<Id>(fresh, 12)});
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
  d = t.apply({del<Id>(recreated, 10), add<Id>(recreated, 13)});
  EXPECT_TRUE(d.next_ins.empty());
  EXPECT_TRUE(d.next_del.empty());
  EXPECT_EQ(d.rep_changed, std::vector<Edge>{edge_from_key(recreated)});

  // Ids freed by an earlier batch are reused: 11 left `vanished` above and
  // now founds a new pair; `re_elected`'s old rep 10 rejoins elsewhere.
  d = t.apply({add<Id>(vanished, 11), del<Id>(re_elected, 11),
               add<Id>(recreated, 11)});
  EXPECT_EQ(d.next_ins, std::vector<Edge>{edge_from_key(vanished)});
  EXPECT_EQ(d.rep_changed, std::vector<Edge>{edge_from_key(re_elected)});
  EXPECT_EQ(t.rep(re_elected), 10u);
  EXPECT_EQ(t.rep(vanished), 11u);

  // An empty batch reports nothing.
  d = t.apply({});
  EXPECT_TRUE(d.next_ins.empty() && d.next_del.empty() &&
              d.rep_changed.empty());
}

TYPED_TEST(NextLevelEdgesTest, MatchesOracle) {
  using Id = TypeParam;
  NextLevelEdges<Id> t(4);
  t.apply({add<Id>(edge_key(0, 1), 4), add<Id>(edge_key(0, 1), 2),
           add<Id>(edge_key(2, 3), 5)});
  FlatHashMap<EdgeKey, std::vector<Id>> ref;
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
template <typename Id>
struct ReferenceTable {
  using Op = typename NextLevelEdges<Id>::Op;
  std::map<EdgeKey, RepBucket<Id>> buckets;
  // Scenario counters, so the random logs provably reach each case.
  size_t recreated = 0, rep_left = 0;

  typename NextLevelEdges<Id>::Diff apply(const std::vector<Op>& ops) {
    std::map<EdgeKey, std::pair<bool, Id>> snap;
    std::set<EdgeKey> emptied;
    for (const Op& op : ops) {
      auto it = buckets.find(op.pair);
      if (!snap.count(op.pair))
        snap[op.pair] = {it != buckets.end(),
                         it != buckets.end() ? it->second.rep : Id{}};
      if (op.add) {
        RepBucket<Id>& b = buckets[op.pair];
        if (b.members.empty()) b.rep = op.member;
        if (emptied.count(op.pair)) ++recreated;
        b.members.push_back(op.member);
      } else {
        RepBucket<Id>& b = it->second;
        if (b.rep == op.member) ++rep_left;
        if (b.erase_member(op.member)) {
          buckets.erase(it);
          emptied.insert(op.pair);
        } else if (b.rep == op.member) {
          b.rep = b.members[0];
        }
      }
    }
    typename NextLevelEdges<Id>::Diff d;
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
// batch), and ids freed in one batch are reused in later ones. Batches of
// thousands of ops take the parallel path at 4 workers; a wide vertex range
// with short batches takes the sorted grouping.
TYPED_TEST(NextLevelEdgesTest, ApplyMatchesOneOpAtATimeReference) {
  using Id = TypeParam;
  using Op = typename NextLevelEdges<Id>::Op;
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
      NextLevelEdges<Id> t(sh.n);
      ReferenceTable<Id> ref;
      const VertexId offset = VertexId(sh.n - sh.span);
      std::vector<EdgeKey> where(sh.members, kNoEdge);  // member -> pair
      std::vector<Id> placed;  // members currently in some pair
      for (int b = 0; b < 12; ++b) {
        std::vector<Op> ops;
        while (ops.size() < sh.batch) {
          if (!placed.empty() && rng.next_below(2) == 0) {
            size_t at = rng.next_below(placed.size());
            Id m = placed[at];
            ops.push_back({where[size_t(m)], m, false});
            where[size_t(m)] = kNoEdge;
            placed[at] = placed.back();
            placed.pop_back();
          } else {
            Id m = Id(rng.next_below(sh.members));
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
        FlatHashMap<EdgeKey, std::vector<Id>> oracle;
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

}  // namespace
}  // namespace parspan
