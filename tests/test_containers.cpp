// Unit + randomized oracle tests for the flat open-addressing containers
// (FlatHashMap, FlatHashSet) and the NextLevelEdges pair table.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "container/flat_map.hpp"
#include "container/next_level_edges.hpp"
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

TYPED_TEST(NextLevelEdgesTest, FirstMemberIsRepAndMembers0IsReElected) {
  NextLevelEdges<TypeParam> t;
  const EdgeKey p = edge_key(1, 2);
  t.add(p, 7);
  t.add(p, 3);
  t.add(p, 9);
  EXPECT_EQ(t.rep(p), 7u);
  t.remove(p, 3);  // not the rep: no election
  EXPECT_EQ(t.rep(p), 7u);
  t.remove(p, 7);  // swap-pop leaves {9}
  EXPECT_EQ(t.rep(p), 9u);
  auto d = t.compile();
  EXPECT_EQ(d.next_ins, std::vector<Edge>{Edge(1, 2)});
  EXPECT_TRUE(d.next_del.empty());
  EXPECT_TRUE(d.rep_changed.empty());
}

TYPED_TEST(NextLevelEdgesTest, BatchDiffAgainstSnapshots) {
  NextLevelEdges<TypeParam> t;
  const EdgeKey re_elected = edge_key(0, 5), recreated = edge_key(2, 3),
                vanished = edge_key(1, 4), fresh = edge_key(0, 1),
                untouched = edge_key(6, 7);
  for (EdgeKey p : {re_elected, recreated, vanished, untouched}) {
    t.add(p, 10);
    t.add(p, 11);
  }
  t.forget_touched();  // bulk construction is not a batch

  // One batch. The rep of `re_elected` leaves and comes back as a plain
  // member: the pair survives under members[0] = 11.
  t.remove(re_elected, 10);
  t.add(re_elected, 10);
  // `recreated` empties and is rebuilt with its old rep first.
  t.remove(recreated, 10);
  t.remove(recreated, 11);
  t.add(recreated, 10);
  t.remove(vanished, 11);
  t.remove(vanished, 10);
  t.add(fresh, 12);
  auto d = t.compile();
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
  t.remove(recreated, 10);
  t.add(recreated, 13);
  d = t.compile();
  EXPECT_TRUE(d.next_ins.empty());
  EXPECT_TRUE(d.next_del.empty());
  EXPECT_EQ(d.rep_changed, std::vector<Edge>{edge_from_key(recreated)});

  // compile() forgot the snapshots: an empty batch reports nothing.
  d = t.compile();
  EXPECT_TRUE(d.next_ins.empty() && d.next_del.empty() &&
              d.rep_changed.empty());
}

TYPED_TEST(NextLevelEdgesTest, MatchesOracle) {
  NextLevelEdges<TypeParam> t;
  t.add(edge_key(0, 1), 4);
  t.add(edge_key(0, 1), 2);
  t.add(edge_key(2, 3), 5);
  FlatHashMap<EdgeKey, std::vector<TypeParam>> ref;
  ref[edge_key(0, 1)] = {2, 4};
  ref[edge_key(2, 3)] = {5};
  EXPECT_TRUE(t.matches(ref));
  ref[edge_key(2, 3)] = {6};
  EXPECT_FALSE(t.matches(ref));
  ref.erase(edge_key(2, 3));
  EXPECT_FALSE(t.matches(ref));
}

}  // namespace
}  // namespace parspan
