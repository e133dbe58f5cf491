// Unit + randomized oracle tests for CountedTreap (the Lemma 3.1 in-lists of
// the ES tree), ShardedMap and ConcurrentFixedMap.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "container/concurrent_map.hpp"
#include "container/counted_treap.hpp"
#include "container/flat_map.hpp"
#include "parallel/parallel_for.hpp"
#include "util/rng.hpp"

namespace parspan {
namespace {

TEST(CountedTreap, BasicInsertFindErase) {
  CountedTreap<int> t;
  EXPECT_TRUE(t.empty());
  t.insert(10, 100);
  t.insert(5, 50);
  t.insert(20, 200);
  EXPECT_EQ(t.size(), 3u);
  ASSERT_NE(t.find(10), nullptr);
  EXPECT_EQ(*t.find(10), 100);
  EXPECT_EQ(t.find(11), nullptr);
  EXPECT_TRUE(t.erase(10));
  EXPECT_FALSE(t.erase(10));
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.find(10), nullptr);
}

TEST(CountedTreap, SelectDescOrderStatistics) {
  CountedTreap<int> t;
  for (uint64_t k : {3u, 1u, 4u, 1u + 4, 9u, 2u, 6u}) t.insert(k, int(k));
  // keys: 1,2,3,4,5,6,9 -> descending: 9,6,5,4,3,2,1
  std::vector<uint64_t> expect = {9, 6, 5, 4, 3, 2, 1};
  for (size_t k = 1; k <= expect.size(); ++k)
    EXPECT_EQ(t.select_desc(k).first, expect[k - 1]) << "k=" << k;
}

TEST(CountedTreap, RankDesc) {
  CountedTreap<int> t;
  for (uint64_t k : {10u, 20u, 30u}) t.insert(k, 0);
  EXPECT_EQ(t.rank_desc(30), 1u);
  EXPECT_EQ(t.rank_desc(20), 2u);
  EXPECT_EQ(t.rank_desc(10), 3u);
  EXPECT_EQ(t.rank_desc(25), 1u);  // only 30 >= 25
  EXPECT_EQ(t.rank_desc(5), 3u);
  EXPECT_EQ(t.rank_desc(31), 0u);
}

TEST(CountedTreap, ForEachDescFrom) {
  CountedTreap<int> t;
  for (uint64_t k = 1; k <= 100; ++k) t.insert(k * 2, int(k));
  std::vector<uint64_t> seen;
  t.for_each_desc_from(51, [&](uint64_t key, int&) {
    seen.push_back(key);
    return key > 40;  // stop at 40
  });
  // keys <= 51 descending: 50,48,...; stop after emitting 40.
  ASSERT_GE(seen.size(), 2u);
  EXPECT_EQ(seen.front(), 50u);
  EXPECT_EQ(seen.back(), 40u);
  for (size_t i = 1; i < seen.size(); ++i) EXPECT_LT(seen[i], seen[i - 1]);
}

// The ES tree's NextWith (Lemma 3.1): walk descending from a key to the
// first entry whose value satisfies a predicate.
TEST(CountedTreap, NextWithWalkFindsFirstSatisfying) {
  CountedTreap<int> t;
  for (int i = 0; i < 100; ++i) t.insert(uint64_t(1000 - i), i);
  auto next_with = [&](uint64_t from, auto&& f) {
    int found = -1;
    t.for_each_desc_from(from, [&](uint64_t, int& v) {
      if (!f(v)) return true;
      found = v;
      return false;
    });
    return found;
  };
  // From value 9 on (key 991), the first value divisible by 7 is 14.
  EXPECT_EQ(next_with(991, [](int v) { return v % 7 == 0; }), 14);
  // A start key above every entry begins at the largest.
  EXPECT_EQ(next_with(5000, [](int v) { return v >= 0; }), 0);
  // Nothing satisfies: the walk reaches the end.
  EXPECT_EQ(next_with(1000, [](int) { return false; }), -1);
  // The start entry itself satisfies.
  EXPECT_EQ(next_with(958, [](int) { return true; }), 42);
}

TEST(CountedTreap, RandomizedAgainstStdMap) {
  Rng rng(99);
  CountedTreap<uint64_t> t;
  std::map<uint64_t, uint64_t> ref;
  for (int step = 0; step < 20000; ++step) {
    uint64_t key = rng.next_below(500);
    int op = int(rng.next_below(3));
    if (op == 0) {
      if (!ref.count(key)) {
        uint64_t v = rng.next();
        t.insert(key, v);
        ref[key] = v;
      }
    } else if (op == 1) {
      EXPECT_EQ(t.erase(key), ref.erase(key) > 0);
    } else {
      auto* v = t.find(key);
      auto it = ref.find(key);
      if (it == ref.end()) {
        EXPECT_EQ(v, nullptr);
      } else {
        ASSERT_NE(v, nullptr);
        EXPECT_EQ(*v, it->second);
      }
    }
    EXPECT_EQ(t.size(), ref.size());
  }
  // Full order-statistics sweep at the end.
  std::vector<uint64_t> keys;
  for (auto& [k, v] : ref) keys.push_back(k);
  for (size_t k = 1; k <= keys.size(); ++k)
    EXPECT_EQ(t.select_desc(k).first, keys[keys.size() - k]);
}

TEST(CountedTreap, BuildSortedMatchesIncrementalInserts) {
  Rng rng(41);
  std::set<uint64_t> keyset;
  while (keyset.size() < 3000) keyset.insert(rng.next_below(1u << 20));
  std::vector<std::pair<uint64_t, uint64_t>> xs;
  for (uint64_t k : keyset) xs.push_back({k, k * 3});
  CountedTreap<uint64_t> bulk, incr;
  bulk.build_sorted(xs.data(), xs.size());
  for (auto& [k, v] : xs) incr.insert(k, v);
  ASSERT_EQ(bulk.size(), xs.size());
  // Same order statistics, ranks and lookups as the insert-built tree.
  for (size_t k = 1; k <= xs.size(); k += 37)
    EXPECT_EQ(bulk.select_desc(k).first, incr.select_desc(k).first);
  for (auto& [k, v] : xs) {
    ASSERT_NE(bulk.find(k), nullptr);
    EXPECT_EQ(*bulk.find(k), v);
    EXPECT_EQ(bulk.rank_desc(k), incr.rank_desc(k));
  }
  // Bulk-built trees accept further dynamic updates.
  EXPECT_TRUE(bulk.erase(xs[10].first));
  bulk.insert(xs[10].first, 7);
  EXPECT_EQ(*bulk.find(xs[10].first), 7u);
  EXPECT_EQ(bulk.size(), xs.size());
}

TEST(CountedTreap, BuildSortedEmptyAndSingle) {
  CountedTreap<int> t;
  t.build_sorted(nullptr, 0);
  EXPECT_TRUE(t.empty());
  std::pair<uint64_t, int> one{42, 7};
  t.build_sorted(&one, 1);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(*t.find(42), 7);
}

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

TEST(ShardedMap, BasicOps) {
  ShardedMap<uint64_t, int> m;
  m.insert_or_assign(1, 10);
  m.insert_or_assign(2, 20);
  EXPECT_EQ(m.get(1), std::optional<int>(10));
  EXPECT_FALSE(m.get(3).has_value());
  m.upsert(3, [](int& v) { v += 5; });
  EXPECT_EQ(m.get(3), std::optional<int>(5));
  EXPECT_TRUE(m.erase(2));
  EXPECT_FALSE(m.erase(2));
  EXPECT_EQ(m.size(), 2u);
}

TEST(ShardedMap, ParallelInsertsAllLand) {
  ShardedMap<uint64_t, uint64_t> m(64);
  const size_t n = 100000;
  parallel_for(0, n, [&](size_t i) { m.insert_or_assign(i, i * 3); }, 1);
  EXPECT_EQ(m.size(), n);
  for (size_t i = 0; i < n; i += 997) EXPECT_EQ(m.get(i), i * 3);
}

TEST(ShardedMap, UpdateOrErase) {
  ShardedMap<int, int> m;
  m.insert_or_assign(1, 5);
  EXPECT_TRUE(m.update_or_erase(1, [](int& v) {
    --v;
    return v > 0;
  }));
  EXPECT_EQ(m.get(1), std::optional<int>(4));
  for (int i = 0; i < 4; ++i)
    m.update_or_erase(1, [](int& v) {
      --v;
      return v > 0;
    });
  EXPECT_FALSE(m.contains(1));
  EXPECT_FALSE(m.update_or_erase(1, [](int&) { return true; }));
}

TEST(ConcurrentFixedMap, InsertFind) {
  ConcurrentFixedMap m(1000);
  EXPECT_TRUE(m.insert(42, 7));
  EXPECT_FALSE(m.insert(42, 9));  // first value wins
  EXPECT_EQ(m.find(42), std::optional<uint64_t>(7));
  EXPECT_FALSE(m.find(43).has_value());
}

TEST(ConcurrentFixedMap, ParallelInsertUnique) {
  const size_t n = 50000;
  ConcurrentFixedMap m(n);
  std::atomic<size_t> inserted{0};
  parallel_for(0, n, [&](size_t i) {
    if (m.insert(i + 1, i)) inserted.fetch_add(1);
  }, 1);
  EXPECT_EQ(inserted.load(), n);
  EXPECT_EQ(m.size(), n);
  for (size_t i = 0; i < n; i += 503) EXPECT_EQ(m.find(i + 1), i);
}

TEST(ConcurrentFixedMap, ParallelDuplicateKeysInsertOnce) {
  ConcurrentFixedMap m(100);
  std::atomic<size_t> wins{0};
  parallel_for(0, 10000, [&](size_t) {
    if (m.insert(5, 1)) wins.fetch_add(1);
  }, 1);
  EXPECT_EQ(wins.load(), 1u);
  EXPECT_EQ(m.size(), 1u);
}

}  // namespace
}  // namespace parspan
