// Tests for the parallel batch-update pipeline (DESIGN.md §6): Invariants
// B1 and B2 under adversarial insert/delete interleavings, pending-slot
// absorption, thread-count determinism of the net diffs, and the
// (2k-1)-stretch guarantee over a long mixed update stream. Both wrappers
// of the Bentley-Saxe core (FullyDynamicSpanner, FullyDynamicSparsifier)
// run the paths they share: fork-join deletions and concurrent rebuilds
// with cancellation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/cluster_spanner.hpp"
#include "core/fully_dynamic_spanner.hpp"
#include "core/sparsifier.hpp"
#include "graph/generators.hpp"
#include "parallel/parallel_for.hpp"
#include "util/rng.hpp"
#include "verify/spanner_check.hpp"

namespace parspan {
namespace {

std::vector<Edge> keyed(std::vector<Edge> es) {
  std::sort(es.begin(), es.end());
  return es;
}

using WKey = std::pair<EdgeKey, uint64_t>;  // (edge key, weight bits)

WKey wkey(const WeightedEdge& we) {
  uint64_t bits;
  std::memcpy(&bits, &we.w, sizeof(bits));
  return {we.e.key(), bits};
}

std::vector<WKey> wkeys(const std::vector<WeightedEdge>& es) {
  std::vector<WKey> out;
  for (const WeightedEdge& we : es) out.push_back(wkey(we));
  return out;
}

/// Byte-identical weighted diff streams (keys and weight bits, in order).
void expect_same_stream(const std::vector<WeightedDiff>& a,
                        const std::vector<WeightedDiff>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(wkeys(a[i].inserted), wkeys(b[i].inserted)) << "batch " << i;
    ASSERT_EQ(wkeys(a[i].removed), wkeys(b[i].removed)) << "batch " << i;
  }
}

/// Runs `run()` (which builds its own structure) at 1 and at 4 workers.
template <typename Run>
auto at_1_and_4_workers(Run run) {
  int saved = num_workers();
  set_num_workers(1);
  auto one = run();
  set_num_workers(4);
  auto four = run();
  set_num_workers(saved);
  return std::pair{std::move(one), std::move(four)};
}

// --- Invariants B1/B2 under adversarial interleavings. -------------------
// The stream is crafted against the Bentley-Saxe chunking: insertion bursts
// sized exactly at partition capacities (so chunks land on slot
// boundaries), deletions aimed at freshly rebuilt partitions (draining
// them below capacity), and immediate re-insertion of just-deleted edges.
// `after(live)` runs after every batch; returns the diff stream.
template <typename S, typename After>
auto adversarial_interleavings(S& sp, size_t n, After after) {
  std::vector<decltype(sp.update({}, {}))> diffs;
  // All edges of K_n, shuffled deterministically.
  std::vector<Edge> universe;
  for (VertexId u = 0; u < n; ++u)
    for (VertexId v = u + 1; v < n; ++v) universe.emplace_back(u, v);
  Rng rng(7);
  for (size_t i = universe.size(); i > 1; --i)
    std::swap(universe[i - 1], universe[rng.next_below(i)]);

  // Phase 1: insert in bursts matched to capacities 2^{l0}, 2^{l0+1}, ...
  // plus off-by-one sizes to stress the remainder path.
  std::vector<size_t> bursts = {1, 128, 127, 129, 256, 255, 64, 63, 65};
  size_t pos = 0;
  std::vector<Edge> live;
  for (size_t b : bursts) {
    std::vector<Edge> ins;
    for (size_t i = 0; i < b && pos < universe.size(); ++i)
      ins.push_back(universe[pos++]);
    live.insert(live.end(), ins.begin(), ins.end());
    diffs.push_back(sp.update(ins, {}));
    after(live);
  }

  // Phase 2: alternate deleting a prefix of the live set and re-inserting
  // half of it in the same batch, repeatedly hitting the same partitions.
  for (int round = 0; round < 10; ++round) {
    size_t del_count = std::min<size_t>(live.size(), 96 + size_t(round));
    std::vector<Edge> del(live.begin(), live.begin() + del_count);
    std::vector<Edge> reins(del.begin(), del.begin() + del_count / 2);
    diffs.push_back(sp.update(reins, del));
    live.erase(live.begin() + del_count / 2, live.begin() + del_count);
    after(live);
    // Rotate so later rounds target different edges.
    std::rotate(live.begin(), live.begin() + live.size() / 3, live.end());
  }
  return diffs;
}

TEST(ParallelPipeline, InvariantB1AdversarialInterleavings) {
  const size_t n = 48;
  const uint32_t k = 2;
  FullyDynamicSpannerConfig cfg;
  cfg.k = k;
  cfg.seed = 99;
  FullyDynamicSpanner sp(n, {}, cfg);
  ASSERT_TRUE(sp.check_invariants());
  adversarial_interleavings(sp, n, [&](const std::vector<Edge>& live) {
    ASSERT_TRUE(sp.check_invariants()) << "live " << live.size();
    ASSERT_EQ(sp.num_edges(), live.size());
    ASSERT_TRUE(is_spanner(n, live, sp.spanner_edges(), 2 * k - 1));
  });

  // Invariant B2 (2^{l0} >= n = 48: capacities 64, 128, 256 — the bursts
  // land on its slot boundaries too), at 1 and at 4 workers.
  auto [one, four] = at_1_and_4_workers([&] {
    FullyDynamicSparsifierConfig scfg;
    scfg.seed = 99;
    FullyDynamicSparsifier ssp(n, {}, scfg);
    return adversarial_interleavings(ssp, n, [&](const auto& live) {
      ASSERT_TRUE(ssp.check_invariants()) << "live " << live.size();
      ASSERT_EQ(ssp.num_edges(), live.size());
    });
  });
  expect_same_stream(one, four);
}

// --- Pending-slot absorption within one batch. ----------------------------
// A batch whose chunk decomposition fills a slot and then, for a smaller
// chunk, scans past it to a higher slot absorbs a partition whose rebuild
// job is still pending (filled edges, no installed instance yet). The job
// must be cancelled and its edges merged without phantom diff removals.
// Regression test: the pipeline's phased rebuild once took the E_0-style
// branch here and emitted thousands of "removed" entries for edges that
// were never in the spanner.
TEST(ParallelPipeline, PendingSlotAbsorbedByLargerMerge) {
  const size_t n = 1024;
  FullyDynamicSpannerConfig cfg;
  cfg.k = 8;  // l0 = 12: capacity(0) = 4096, capacity(1) = 8192, ...
  cfg.seed = 13;
  auto initial = gen_erdos_renyi(n, 5000, 1);  // lands in slot 1
  FullyDynamicSpanner sp(n, initial, cfg);
  ASSERT_TRUE(sp.check_invariants());

  std::unordered_set<EdgeKey> have;
  for (const Edge& e : initial) have.insert(e.key());
  std::unordered_set<EdgeKey> mat;
  for (const Edge& e : sp.spanner_edges()) mat.insert(e.key());

  // capacity(2) + capacity(1) fresh edges: chunk i=2 fills slot 2 (job
  // pending), chunk i=1 scans past slots 1 and 2 into slot 3, absorbing
  // the pending slot 2.
  std::vector<Edge> fresh;
  Rng rng(4242);
  while (fresh.size() < 16384 + 8192) {
    VertexId u = VertexId(rng.next_below(n));
    VertexId v = VertexId(rng.next_below(n));
    if (u == v || have.count(edge_key(u, v))) continue;
    fresh.emplace_back(u, v);
    have.insert(edge_key(u, v));
  }
  SpannerDiff diff = sp.insert_edges(fresh);
  EXPECT_TRUE(sp.check_invariants());
  EXPECT_EQ(sp.num_edges(), have.size());
  // The diff must transform the old spanner set into the new one exactly.
  for (const Edge& e : diff.removed) {
    ASSERT_TRUE(mat.count(e.key())) << "phantom removal";
    mat.erase(e.key());
  }
  for (const Edge& e : diff.inserted) {
    ASSERT_TRUE(!mat.count(e.key()));
    mat.insert(e.key());
  }
  std::unordered_set<EdgeKey> now;
  for (const Edge& e : sp.spanner_edges()) now.insert(e.key());
  EXPECT_EQ(mat, now);

  // The same shape under Invariant B2 (n = 128: capacities 128, 256, 512,
  // 1024): 150 initial edges land in slot 1; 512 + 256 fresh edges fill
  // slot 2 (job pending), then chunk 1 scans past slots 1 and 2 into slot
  // 3, absorbing the pending slot. At 1 and at 4 workers.
  const size_t sn = 128;
  std::vector<Edge> sfresh;
  std::unordered_set<EdgeKey> shave;
  while (sfresh.size() < 150 + 512 + 256) {
    VertexId u = VertexId(rng.next_below(sn));
    VertexId v = VertexId(rng.next_below(sn));
    if (u == v || !shave.insert(edge_key(u, v)).second) continue;
    sfresh.emplace_back(u, v);
  }
  std::vector<Edge> sinitial(sfresh.begin(), sfresh.begin() + 150);
  sfresh.erase(sfresh.begin(), sfresh.begin() + 150);
  auto [one, four] = at_1_and_4_workers([&] {
    FullyDynamicSparsifierConfig scfg;
    scfg.seed = 13;
    FullyDynamicSparsifier ssp(sn, sinitial, scfg);
    EXPECT_EQ(ssp.num_partitions(), 2u);
    auto before = wkeys(ssp.sparsifier_edges());
    std::set<WKey> smat(before.begin(), before.end());
    WeightedDiff sd = ssp.update(sfresh, {});
    EXPECT_TRUE(ssp.check_invariants());
    EXPECT_EQ(ssp.num_partitions(), 4u);
    EXPECT_EQ(ssp.num_edges(), shave.size());
    for (const WeightedEdge& we : sd.removed)
      EXPECT_EQ(smat.erase(wkey(we)), 1u) << "phantom removal";
    for (const WeightedEdge& we : sd.inserted)
      EXPECT_TRUE(smat.insert(wkey(we)).second);
    auto after = wkeys(ssp.sparsifier_edges());
    EXPECT_EQ(smat, std::set<WKey>(after.begin(), after.end()));
    return std::vector<WeightedDiff>{sd};
  });
  expect_same_stream(one, four);
}

// --- SpannerDiff determinism across thread counts. ------------------------
// The same construction + update stream must produce byte-identical diffs
// whether the pipeline runs on 1 worker or 4 (DESIGN.md §6's contract) —
// for the spanner (B1) and for the sparsifier (B2) alike.
TEST(ParallelPipeline, SpannerDiffDeterministicAcrossThreadCounts) {
  const size_t n = 300;
  const uint32_t k = 3;
  auto [initial, batches] = gen_mixed_stream(n, 6000, 200, 25, 17);
  // Insertion bursts big enough to force partition rebuilds (and their
  // parallel merge sorts) mid-stream.
  auto extra = gen_erdos_renyi(n, 3000, 23);
  batches.push_back(UpdateBatch{extra, {}});
  batches.push_back(UpdateBatch{{}, extra});

  int saved = num_workers();
  std::vector<SpannerDiff> base;
  std::vector<std::vector<Edge>> base_spanner;
  {
    set_num_workers(1);
    FullyDynamicSpannerConfig cfg;
    cfg.k = k;
    cfg.seed = 5;
    FullyDynamicSpanner sp(n, initial, cfg);
    for (auto& b : batches) {
      base.push_back(sp.update(b.insertions, b.deletions));
      base_spanner.push_back(keyed(sp.spanner_edges()));
    }
  }
  {
    set_num_workers(4);
    FullyDynamicSpannerConfig cfg;
    cfg.k = k;
    cfg.seed = 5;
    FullyDynamicSpanner sp(n, initial, cfg);
    for (size_t i = 0; i < batches.size(); ++i) {
      SpannerDiff d = sp.update(batches[i].insertions, batches[i].deletions);
      ASSERT_EQ(d.inserted.size(), base[i].inserted.size()) << "batch " << i;
      ASSERT_EQ(d.removed.size(), base[i].removed.size()) << "batch " << i;
      for (size_t j = 0; j < d.inserted.size(); ++j)
        ASSERT_EQ(d.inserted[j].key(), base[i].inserted[j].key())
            << "batch " << i << " entry " << j;
      for (size_t j = 0; j < d.removed.size(); ++j)
        ASSERT_EQ(d.removed[j].key(), base[i].removed[j].key())
            << "batch " << i << " entry " << j;
      ASSERT_EQ(keyed(sp.spanner_edges()), base_spanner[i]) << "batch " << i;
    }
  }
  set_num_workers(saved);

  auto [one, four] = at_1_and_4_workers([&] {
    FullyDynamicSparsifierConfig scfg;
    scfg.seed = 5;
    FullyDynamicSparsifier ssp(n, initial, scfg);
    std::vector<WeightedDiff> out;
    for (auto& b : batches)
      out.push_back(ssp.update(b.insertions, b.deletions));
    EXPECT_TRUE(ssp.check_invariants());
    return out;
  });
  expect_same_stream(one, four);
}

// --- Construction pin. -----------------------------------------------------
// One Lemma 3.3 instance at a dense shape (n=512, m=3·n^{4/3}, k=3), where
// InterCluster groups spill past their inline members and in-lists are
// long. The hash covers the sorted spanner after construction and then the
// diffs of 20 deletion batches, which depend on every group's member order
// and representative and on every In(v) order. It is the same at 1 and 4
// workers, and a rewrite of the construction must leave it unchanged.
TEST(ParallelPipeline, DenseConstructionMatchesPinnedHash) {
  const size_t n = 512;
  const size_t m = 3 * 4096;  // 3·n^{4/3}
  auto edges = gen_erdos_renyi(n, m, 19);
  auto stream = gen_decremental_stream(edges, 256, 21);
  stream.resize(20);
  auto hash_edges = [](uint64_t h, const std::vector<Edge>& es) {
    h = hash_combine(h, es.size());
    for (const Edge& e : es) h = hash_combine(h, e.key());
    return h;
  };
  auto [one, four] = at_1_and_4_workers([&] {
    ClusterSpannerConfig cfg;
    cfg.k = 3;
    cfg.seed = 13;
    DecrementalClusterSpanner sp(n, edges, cfg);
    uint64_t h = hash_edges(0, keyed(sp.spanner_edges()));
    for (const UpdateBatch& b : stream) {
      SpannerDiff d = sp.delete_edges(b.deletions);
      h = hash_edges(hash_edges(h, d.inserted), d.removed);
    }
    EXPECT_TRUE(sp.check_invariants());
    return h;
  });
  EXPECT_EQ(one, 1290269966705666066ull);
  EXPECT_EQ(four, 1290269966705666066ull);
}

// --- Diff output is sorted by canonical key. ------------------------------
TEST(ParallelPipeline, DiffSidesSortedByKey) {
  const size_t n = 120;
  FullyDynamicSpannerConfig cfg;
  cfg.k = 3;
  cfg.seed = 2;
  auto edges = gen_erdos_renyi(n, 1500, 3);
  FullyDynamicSpanner sp(n, edges, cfg);
  auto stream = gen_decremental_stream(edges, 200, 9);
  for (auto& b : stream) {
    SpannerDiff d = sp.update(b.insertions, b.deletions);
    ASSERT_TRUE(std::is_sorted(d.inserted.begin(), d.inserted.end()));
    ASSERT_TRUE(std::is_sorted(d.removed.begin(), d.removed.end()));
  }
  EXPECT_EQ(sp.num_edges(), 0u);
}

// --- Stretch after 100 mixed batches. -------------------------------------
// End-to-end: the maintained edge set stays a (2k-1)-spanner of the live
// graph through a long adversary-independent mixed stream.
TEST(ParallelPipeline, StretchHoldsAfter100MixedBatches) {
  const size_t n = 200;
  const uint32_t k = 3;
  auto [initial, batches] = gen_mixed_stream(n, 2400, 40, 100, 31);
  ASSERT_EQ(batches.size(), 100u);
  FullyDynamicSpannerConfig cfg;
  cfg.k = k;
  cfg.seed = 77;
  FullyDynamicSpanner sp(n, initial, cfg);

  std::unordered_set<EdgeKey> live;
  for (const Edge& e : initial) live.insert(e.key());
  for (size_t i = 0; i < batches.size(); ++i) {
    sp.update(batches[i].insertions, batches[i].deletions);
    for (const Edge& e : batches[i].deletions) live.erase(e.key());
    for (const Edge& e : batches[i].insertions) live.insert(e.key());
    if (i % 10 == 9 || i + 1 == batches.size()) {
      std::vector<Edge> alive;
      for (EdgeKey ek : live) alive.push_back(edge_from_key(ek));
      ASSERT_TRUE(is_spanner(n, alive, sp.spanner_edges(), 2 * k - 1))
          << "batch " << i;
      ASSERT_TRUE(sp.check_invariants()) << "batch " << i;
    }
  }
  ASSERT_EQ(live.size(), sp.num_edges());
}

}  // namespace
}  // namespace parspan
