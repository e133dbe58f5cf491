// Tests for the flat CSR primitives (group_by_key, group_runs,
// csr_build_from_keys): layout correctness, stability, and agreement with a
// stable sort at any worker count.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "graph/generators.hpp"
#include "parallel/csr.hpp"
#include "util/rng.hpp"

namespace parspan {
namespace {

TEST(GroupByKey, EmptyInput) {
  auto g = group_by_key(5, {});
  ASSERT_EQ(g.offsets.size(), 6u);
  for (uint32_t o : g.offsets) EXPECT_EQ(o, 0u);
  EXPECT_TRUE(g.items.empty());
}

TEST(GroupByKey, GroupsAreStable) {
  // Elements with the same key must appear in input order.
  std::vector<uint32_t> keys = {2, 0, 2, 1, 0, 2, 1};
  auto g = group_by_key(3, keys);
  ASSERT_EQ(g.items.size(), keys.size());
  EXPECT_EQ(std::vector<uint32_t>(g.group(0).begin(), g.group(0).end()),
            (std::vector<uint32_t>{1, 4}));
  EXPECT_EQ(std::vector<uint32_t>(g.group(1).begin(), g.group(1).end()),
            (std::vector<uint32_t>{3, 6}));
  EXPECT_EQ(std::vector<uint32_t>(g.group(2).begin(), g.group(2).end()),
            (std::vector<uint32_t>{0, 2, 5}));
}

// group_by_key and group_runs against std::stable_sort of (key, index), at
// 1 and 4 workers, over random keys, skewed keys (one bucket holds half)
// and sparse keys (k << nbuckets / 8). group_runs counts when
// nbuckets <= 8k and sorts otherwise; the sparse set takes the sort.
TEST(GroupByKey, SerialAndParallelAgree) {
  struct KeySet {
    size_t nbuckets;
    std::vector<uint32_t> keys;
  };
  Rng rng(19);
  std::vector<KeySet> sets(3);
  sets[0].nbuckets = 700;
  sets[0].keys.resize(100000);
  for (auto& k : sets[0].keys) k = uint32_t(rng.next_below(700));
  sets[1].nbuckets = 700;
  sets[1].keys.resize(100000);
  for (auto& k : sets[1].keys)
    k = rng.next_below(2) ? 3u : uint32_t(rng.next_below(700));
  sets[2].nbuckets = size_t(1) << 20;
  sets[2].keys.resize(300);
  for (auto& k : sets[2].keys) k = uint32_t(rng.next_below(1u << 20));

  int saved = num_workers();
  size_t counted = 0, sorted = 0;
  for (const KeySet& ks : sets) {
    const size_t n = ks.keys.size();
    std::vector<std::pair<uint32_t, uint32_t>> ref(n);
    for (size_t i = 0; i < n; ++i) ref[i] = {ks.keys[i], uint32_t(i)};
    std::stable_sort(ref.begin(), ref.end(),
                     [](auto& a, auto& b) { return a.first < b.first; });
    std::vector<uint32_t> items(n), starts, offsets(ks.nbuckets + 1);
    for (size_t j = 0; j < n; ++j) {
      items[j] = ref[j].second;
      if (j == 0 || ref[j].first != ref[j - 1].first)
        starts.push_back(uint32_t(j));
    }
    starts.push_back(uint32_t(n));
    for (size_t b = 0; b <= ks.nbuckets; ++b)
      offsets[b] = uint32_t(
          std::lower_bound(ref.begin(), ref.end(), b,
                           [](auto& e, size_t key) { return e.first < key; }) -
          ref.begin());
    (ks.nbuckets <= 8 * n ? counted : sorted) += 1;

    for (int workers : {1, 4}) {
      set_num_workers(workers);
      GroupedIndices g = group_by_key(ks.nbuckets, ks.keys);
      EXPECT_EQ(g.offsets, offsets) << "workers " << workers;
      EXPECT_EQ(g.items, items) << "workers " << workers;
      GroupRuns r = group_runs(ks.nbuckets, ks.keys);
      EXPECT_EQ(r.starts, starts) << "workers " << workers;
      EXPECT_EQ(r.items, items) << "workers " << workers;
    }
  }
  set_num_workers(saved);
  EXPECT_EQ(counted, 2u);
  EXPECT_EQ(sorted, 1u);
}

TEST(CsrBuild, EmptyGraph) {
  auto csr = csr_build_from_keys(4, canonical_edge_keys(4, {}));
  EXPECT_EQ(csr.num_vertices(), 4u);
  EXPECT_EQ(csr.num_arcs(), 0u);
  for (VertexId v = 0; v < 4; ++v) EXPECT_EQ(csr.degree(v), 0u);
}

TEST(CsrBuild, IsolatedVerticesGetEmptySlices) {
  auto csr = csr_build_from_keys(6, canonical_edge_keys(6, {{4, 1}}));
  EXPECT_EQ(csr.num_arcs(), 2u);
  EXPECT_EQ(csr.degree(0), 0u);
  EXPECT_EQ(csr.degree(1), 1u);
  EXPECT_EQ(csr.degree(5), 0u);
  EXPECT_EQ(csr.neighbors(1)[0], 4u);
  EXPECT_EQ(csr.neighbors(4)[0], 1u);
  EXPECT_EQ(csr.arcs(1)[0], 0u);  // arc 2i = lo -> hi
  EXPECT_EQ(csr.arcs(4)[0], 1u);  // arc 2i+1 = hi -> lo
}

TEST(CsrBuild, MatchesAdjacencyOracle) {
  const size_t n = 300;
  auto keys = canonical_edge_keys(n, gen_erdos_renyi(n, 1200, 23));
  auto edges = edges_from_keys(keys);  // edge i = key i, lo -> hi
  auto csr = csr_build_from_keys(n, keys);
  ASSERT_EQ(csr.num_arcs(), 2 * edges.size());
  std::vector<std::vector<VertexId>> ref(n);
  for (const Edge& e : edges) {
    ref[e.u].push_back(e.v);
    ref[e.v].push_back(e.u);
  }
  size_t total = 0;
  for (VertexId v = 0; v < n; ++v) {
    auto nbrs = csr.neighbors(v);
    std::vector<VertexId> got(nbrs.begin(), nbrs.end());
    std::sort(got.begin(), got.end());
    std::sort(ref[v].begin(), ref[v].end());
    EXPECT_EQ(got, ref[v]) << "vertex " << v;
    // Arc ids must point back at an edge incident to v.
    for (size_t j = 0; j < nbrs.size(); ++j) {
      uint32_t a = csr.arcs(v)[j];
      const Edge& e = edges[a >> 1];
      VertexId src = (a & 1) ? e.v : e.u;
      VertexId dst = (a & 1) ? e.u : e.v;
      EXPECT_EQ(src, v);
      EXPECT_EQ(dst, csr.neighbors(v)[j]);
    }
    total += nbrs.size();
  }
  EXPECT_EQ(total, 2 * edges.size());
}

}  // namespace
}  // namespace parspan
