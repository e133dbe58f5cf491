// Tests for the flat CSR primitives (group_by_key / csr_build): layout
// correctness, stability, and serial/parallel agreement.
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

TEST(GroupByKey, SerialAndParallelAgree) {
  Rng rng(19);
  const size_t n = 100000, nbuckets = 700;
  std::vector<uint32_t> keys(n);
  for (auto& k : keys) k = uint32_t(rng.next_below(nbuckets));
  int saved = num_workers();
  set_num_workers(1);
  auto serial = group_by_key(nbuckets, keys);
  set_num_workers(4);  // forces the blocked-histogram path
  auto parallel = group_by_key(nbuckets, keys);
  set_num_workers(saved);
  EXPECT_EQ(serial.offsets, parallel.offsets);
  EXPECT_EQ(serial.items, parallel.items);
}

TEST(CsrBuild, EmptyGraph) {
  auto csr = csr_build(4, {});
  EXPECT_EQ(csr.num_vertices(), 4u);
  EXPECT_EQ(csr.num_arcs(), 0u);
  for (VertexId v = 0; v < 4; ++v) EXPECT_EQ(csr.degree(v), 0u);
}

TEST(CsrBuild, IsolatedVerticesGetEmptySlices) {
  auto csr = csr_build(6, {{1, 4}});
  EXPECT_EQ(csr.num_arcs(), 2u);
  EXPECT_EQ(csr.degree(0), 0u);
  EXPECT_EQ(csr.degree(1), 1u);
  EXPECT_EQ(csr.degree(5), 0u);
  EXPECT_EQ(csr.neighbors(1)[0], 4u);
  EXPECT_EQ(csr.neighbors(4)[0], 1u);
  EXPECT_EQ(csr.arcs(1)[0], 0u);  // arc 2i = u -> v
  EXPECT_EQ(csr.arcs(4)[0], 1u);  // arc 2i+1 = v -> u
}

TEST(CsrBuild, MatchesAdjacencyOracle) {
  const size_t n = 300;
  auto edges = gen_erdos_renyi(n, 1200, 23);
  auto csr = csr_build(n, edges);
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
