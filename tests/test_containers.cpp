// Unit + randomized oracle tests for the flat open-addressing containers
// (FlatHashMap, FlatHashSet).
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "container/flat_map.hpp"
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

}  // namespace
}  // namespace parspan
