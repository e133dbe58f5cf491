// Tests for the extensions-layer parallel pipeline (DESIGN.md §7):
// thread-count determinism of the MonotoneSpanner / UltraSparseSpanner /
// DecrementalSparsifier batch diffs (1 vs 4 workers, byte-identical over a
// 50-batch deletion sequence, mirroring test_parallel_pipeline.cpp), the
// key-sorted diff contract, identically-seeded run reproducibility,
// cumulative_recourse monotonicity over a long stream, and pinned hashes of
// the UltraSparseSpanner / SparseSpanner / FullyDynamicSpanner /
// FullyDynamicSparsifier diff streams.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <vector>

#include "core/bundle.hpp"
#include "core/fully_dynamic_spanner.hpp"
#include "core/mpx_spanner.hpp"
#include "core/sparse_spanner.hpp"
#include "core/sparsifier.hpp"
#include "core/ultra.hpp"
#include "graph/dynamic_graph.hpp"
#include "graph/generators.hpp"
#include "parallel/parallel_for.hpp"
#include "util/rng.hpp"

namespace parspan {
namespace {

bool sorted_by_key(const std::vector<Edge>& es) {
  return std::is_sorted(es.begin(), es.end());
}

bool sorted_by_key_weight(const std::vector<WeightedEdge>& es) {
  return std::is_sorted(es.begin(), es.end(),
                        [](const WeightedEdge& a, const WeightedEdge& b) {
                          return a.e.key() != b.e.key()
                                     ? a.e.key() < b.e.key()
                                     : a.w < b.w;
                        });
}

void expect_equal(const SpannerDiff& a, const SpannerDiff& b, size_t batch) {
  ASSERT_EQ(a.inserted.size(), b.inserted.size()) << "batch " << batch;
  ASSERT_EQ(a.removed.size(), b.removed.size()) << "batch " << batch;
  for (size_t j = 0; j < a.inserted.size(); ++j)
    ASSERT_EQ(a.inserted[j].key(), b.inserted[j].key())
        << "batch " << batch << " entry " << j;
  for (size_t j = 0; j < a.removed.size(); ++j)
    ASSERT_EQ(a.removed[j].key(), b.removed[j].key())
        << "batch " << batch << " entry " << j;
}

void expect_equal(const WeightedDiff& a, const WeightedDiff& b,
                  size_t batch) {
  ASSERT_EQ(a.inserted.size(), b.inserted.size()) << "batch " << batch;
  ASSERT_EQ(a.removed.size(), b.removed.size()) << "batch " << batch;
  for (size_t j = 0; j < a.inserted.size(); ++j) {
    ASSERT_EQ(a.inserted[j].e.key(), b.inserted[j].e.key())
        << "batch " << batch << " entry " << j;
    ASSERT_EQ(a.inserted[j].w, b.inserted[j].w)
        << "batch " << batch << " entry " << j;
  }
  for (size_t j = 0; j < a.removed.size(); ++j) {
    ASSERT_EQ(a.removed[j].e.key(), b.removed[j].e.key())
        << "batch " << batch << " entry " << j;
    ASSERT_EQ(a.removed[j].w, b.removed[j].w)
        << "batch " << batch << " entry " << j;
  }
}

// --- MonotoneSpanner: 1 vs 4 workers over a 50-batch deletion stream. -----
TEST(ExtensionsPipeline, MonotoneDiffDeterministicAcrossThreadCounts) {
  const size_t n = 80;
  auto edges = gen_erdos_renyi(n, 1000, 3);
  auto stream = gen_decremental_stream(edges, 20, 11);
  ASSERT_EQ(stream.size(), 50u);

  int saved = num_workers();
  std::vector<SpannerDiff> base;
  {
    set_num_workers(1);
    MonotoneSpannerConfig cfg;
    cfg.seed = 5;
    MonotoneSpanner sp(n, edges, cfg);
    for (auto& b : stream) base.push_back(sp.delete_edges(b.deletions));
  }
  {
    set_num_workers(4);
    MonotoneSpannerConfig cfg;
    cfg.seed = 5;
    MonotoneSpanner sp(n, edges, cfg);
    for (size_t i = 0; i < stream.size(); ++i) {
      SpannerDiff d = sp.delete_edges(stream[i].deletions);
      ASSERT_TRUE(sorted_by_key(d.inserted)) << "batch " << i;
      ASSERT_TRUE(sorted_by_key(d.removed)) << "batch " << i;
      expect_equal(d, base[i], i);
    }
    EXPECT_EQ(sp.spanner_size(), 0u);
  }
  set_num_workers(saved);
}

// --- UltraSparseSpanner: 1 vs 4 workers over a mixed stream. --------------
TEST(ExtensionsPipeline, UltraDiffDeterministicAcrossThreadCounts) {
  // The sparse stream keeps ⊥ components alive, so the H2 forest is
  // rebuilt along the way: some live edge must have both endpoints ⊥, and
  // the invariants (forest included) are checked after every batch.
  struct Input {
    size_t n, m, batch_size, num_batches;
    uint64_t stream_seed;
    uint32_t x;
    bool sparse;
  };
  for (const Input& in : {Input{60, 700, 24, 25, 9, 2, false},
                          Input{400, 200, 24, 40, 5, 4, true}}) {
    const size_t n = in.n;
    auto [initial, batches] = gen_mixed_stream(n, in.m, in.batch_size,
                                               in.num_batches, in.stream_seed);

    int saved = num_workers();
    std::vector<SpannerDiff> base;
    std::vector<std::vector<Edge>> base_spanner;
    {
      set_num_workers(1);
      UltraConfig cfg;
      cfg.x = in.x;
      cfg.seed = 7;
      UltraSparseSpanner sp(n, initial, cfg);
      for (auto& b : batches) {
        base.push_back(sp.update(b.insertions, b.deletions));
        base_spanner.push_back(sp.spanner_edges());
      }
    }
    {
      set_num_workers(4);
      UltraConfig cfg;
      cfg.x = in.x;
      cfg.seed = 7;
      UltraSparseSpanner sp(n, initial, cfg);
      DynamicGraph live(n);
      live.insert_edges(initial);
      bool saw_h2_edge = false;
      for (size_t i = 0; i < batches.size(); ++i) {
        SpannerDiff d =
            sp.update(batches[i].insertions, batches[i].deletions);
        ASSERT_TRUE(sorted_by_key(d.inserted)) << "batch " << i;
        ASSERT_TRUE(sorted_by_key(d.removed)) << "batch " << i;
        expect_equal(d, base[i], i);
        // spanner_edges is key-sorted, so element-wise equality is exact.
        ASSERT_EQ(sp.spanner_edges(), base_spanner[i]) << "batch " << i;
        if (!in.sparse) continue;
        live.erase_edges(batches[i].deletions);
        live.insert_edges(batches[i].insertions);
        live.for_each_edge([&](Edge e) {
          saw_h2_edge |= sp.head(e.u) == kNoVertex && sp.head(e.v) == kNoVertex;
        });
        ASSERT_TRUE(sp.check_invariants()) << "batch " << i;
      }
      EXPECT_TRUE(saw_h2_edge || !in.sparse) << "n=" << n;
    }
    set_num_workers(saved);
  }
}

// --- DecrementalSparsifier: 1 vs 4 workers, 50-batch deletion stream. -----
TEST(ExtensionsPipeline, SparsifierDiffDeterministicAcrossThreadCounts) {
  const size_t n = 40;
  auto edges = gen_erdos_renyi(n, 400, 5);
  auto stream = gen_decremental_stream(edges, 8, 13);
  ASSERT_EQ(stream.size(), 50u);

  int saved = num_workers();
  std::vector<WeightedDiff> base;
  {
    set_num_workers(1);
    SparsifierConfig cfg;
    cfg.t = 2;
    cfg.seed = 17;
    DecrementalSparsifier sp(n, edges, cfg);
    for (auto& b : stream) base.push_back(sp.delete_edges(b.deletions));
  }
  {
    set_num_workers(4);
    SparsifierConfig cfg;
    cfg.t = 2;
    cfg.seed = 17;
    DecrementalSparsifier sp(n, edges, cfg);
    for (size_t i = 0; i < stream.size(); ++i) {
      WeightedDiff d = sp.delete_edges(stream[i].deletions);
      ASSERT_TRUE(sorted_by_key_weight(d.inserted)) << "batch " << i;
      ASSERT_TRUE(sorted_by_key_weight(d.removed)) << "batch " << i;
      expect_equal(d, base[i], i);
    }
    EXPECT_EQ(sp.size(), 0u);
  }
  set_num_workers(saved);
}

// --- Parallel cascade must keep propagating the carry. --------------------
// Regression test: the two-round parallel deletion path once forwarded only
// freshly absorbed edges to the next stage, dropping carry edges that were
// deleted (without re-absorption) at stage j+1 but still alive at stage
// j+2 — breaking the stage-nesting invariant and diverging from the
// 1-worker serial chain. Needs small bundles (t=1, one instance) with a
// generous sample_rate so the deeper stages keep real residuals.
TEST(ExtensionsPipeline, SparsifierCascadePropagatesCarryAcrossStages) {
  const size_t n = 120;
  auto edges = gen_erdos_renyi(n, 3000, 8);
  auto stream = gen_decremental_stream(edges, 100, 19);

  int saved = num_workers();
  auto run = [&](int workers) {
    set_num_workers(workers);
    SparsifierConfig cfg;
    cfg.t = 1;
    cfg.instances = 1;
    cfg.sample_rate = 0.5;
    cfg.seed = 23;
    DecrementalSparsifier sp(n, edges, cfg);
    EXPECT_GE(sp.num_stages(), 3u) << "config must produce a real chain";
    std::vector<WeightedDiff> out;
    for (auto& b : stream) {
      out.push_back(sp.delete_edges(b.deletions));
      EXPECT_TRUE(sp.check_invariants())
          << "workers=" << workers << " batch " << out.size() - 1;
    }
    EXPECT_EQ(sp.size(), 0u);
    return out;
  };
  auto serial = run(1);
  auto parallel = run(4);
  set_num_workers(saved);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i)
    expect_equal(serial[i], parallel[i], i);
}

// --- Identically-seeded runs emit identical, key-sorted diffs. ------------
// Regression test for the DESIGN.md §6 contract violation: the extensions
// used to emit diffs in hash-iteration order, so two identical runs could
// disagree element-wise even with equal diff *sets*.
TEST(ExtensionsPipeline, IdenticallySeededRunsEmitIdenticalDiffs) {
  const size_t n = 50;
  auto edges = gen_erdos_renyi(n, 500, 21);
  auto stream = gen_decremental_stream(edges, 25, 31);
  auto run = [&]() {
    std::vector<SpannerDiff> out;
    MonotoneSpannerConfig cfg;
    cfg.seed = 77;
    MonotoneSpanner sp(n, edges, cfg);
    for (auto& b : stream) out.push_back(sp.delete_edges(b.deletions));
    return out;
  };
  auto a = run();
  auto b = run();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(sorted_by_key(a[i].inserted));
    ASSERT_TRUE(sorted_by_key(a[i].removed));
    expect_equal(a[i], b[i], i);
  }
}

// --- cumulative_recourse is monotone and equals the emitted diff volume. --
TEST(ExtensionsPipeline, CumulativeRecourseMonotoneOverStream) {
  const size_t n = 60;
  auto edges = gen_erdos_renyi(n, 800, 2);
  MonotoneSpannerConfig mcfg;
  mcfg.seed = 3;
  MonotoneSpanner msp(n, edges, mcfg);
  BundleConfig bcfg;
  bcfg.t = 2;
  bcfg.seed = 4;
  SpannerBundle bsp(n, edges, bcfg);

  auto stream = gen_decremental_stream(edges, 16, 23);
  ASSERT_EQ(stream.size(), 50u);
  uint64_t prev_m = msp.cumulative_recourse();
  uint64_t prev_b = bsp.cumulative_recourse();
  uint64_t bundle_volume = 0;
  for (auto& b : stream) {
    msp.delete_edges(b.deletions);
    SpannerDiff d = bsp.delete_edges(b.deletions);
    bundle_volume += d.inserted.size() + d.removed.size();
    ASSERT_GE(msp.cumulative_recourse(), prev_m);
    ASSERT_GE(bsp.cumulative_recourse(), prev_b);
    prev_m = msp.cumulative_recourse();
    prev_b = bsp.cumulative_recourse();
  }
  // The bundle's counter is exactly the diff volume it emitted; the
  // monotone property keeps it at most 2m + |B_0| over the full stream.
  EXPECT_EQ(bsp.cumulative_recourse(), bundle_volume);
  EXPECT_EQ(msp.spanner_size(), 0u);
  EXPECT_EQ(bsp.bundle_size(), 0u);
}

// --- Pinned diff streams. ---------------------------------------------------
// An order-sensitive hash of every diff of one seeded 50-batch mixed stream.
// Seeds, key draws and representative elections fix every diff, so a
// refactor of the NextLevelEdges table, the S = H ∪ rep(S_next) step or
// the Bentley-Saxe partition reduction must leave these constants
// unchanged.
uint64_t hash_diff(uint64_t h, const SpannerDiff& d) {
  h = hash_combine(h, d.inserted.size());
  for (const Edge& e : d.inserted) h = hash_combine(h, e.key());
  h = hash_combine(h, d.removed.size());
  for (const Edge& e : d.removed) h = hash_combine(h, e.key());
  return h;
}

uint64_t weight_bits(double w) {
  uint64_t b;
  std::memcpy(&b, &w, sizeof(b));
  return b;
}

uint64_t hash_diff(uint64_t h, const WeightedDiff& d) {
  h = hash_combine(h, d.inserted.size());
  for (const WeightedEdge& we : d.inserted)
    h = hash_combine(hash_combine(h, we.e.key()), weight_bits(we.w));
  h = hash_combine(h, d.removed.size());
  for (const WeightedEdge& we : d.removed)
    h = hash_combine(hash_combine(h, we.e.key()), weight_bits(we.w));
  return h;
}

template <typename Spanner>
uint64_t diff_stream_hash(Spanner& sp,
                          const std::vector<UpdateBatch>& batches) {
  uint64_t h = 0;
  for (const UpdateBatch& b : batches)
    h = hash_diff(h, sp.update(b.insertions, b.deletions));
  return h;
}

TEST(ExtensionsPipeline, UltraDiffStreamMatchesPinnedHash) {
  const size_t n = 200;
  auto [initial, batches] = gen_mixed_stream(n, 1200, 40, 50, 17);
  using Pin = std::pair<uint32_t, uint64_t>;
  for (auto [x, want] :
       {Pin{2, 6831662857694335ull}, Pin{3, 4989122427396759623ull}}) {
    UltraConfig cfg;
    cfg.x = x;
    cfg.seed = 23;
    UltraSparseSpanner sp(n, initial, cfg);
    EXPECT_EQ(diff_stream_hash(sp, batches), want) << "x=" << x;
    EXPECT_TRUE(sp.check_invariants()) << "x=" << x;
  }
  // A sparse stream whose ⊥ subgraph holds cycles at this seed, so the
  // hash also pins which spanning forest H2 picks.
  auto [sparse_initial, sparse_batches] = gen_mixed_stream(400, 200, 24, 40, 5);
  UltraConfig cfg;
  cfg.x = 4;
  cfg.seed = 7;
  UltraSparseSpanner sp(400, sparse_initial, cfg);
  EXPECT_EQ(diff_stream_hash(sp, sparse_batches), 3325478412911506619ull);
  EXPECT_TRUE(sp.check_invariants());
}

// The perfbench tenants shape (n=4096, m=8n, 1024-update batches, the
// first tenant's stream and seed). Its batches are large enough for the
// parallel commit paths — the table apply, the contraction layer's
// per-vertex phases — which the small pins above never reach. The update
// is rooted on a scheduler worker, as a service drain runs it.
TEST(ExtensionsPipeline, TenantsShapedUltraStreamMatchesPinnedHash) {
  const size_t n = 4096;
  auto [initial, batches] =
      gen_mixed_stream(n, 8 * n, 1024, 10, 7 * 1000003ULL);
  const int saved = num_workers();
  for (int workers : {1, 4}) {
    set_num_workers(workers);
    UltraConfig cfg;
    cfg.seed = 1;
    UltraSparseSpanner sp(n, initial, cfg);
    uint64_t h = 0;
    std::atomic<size_t> pending{1};
    Scheduler::instance().submit([&] {
      h = diff_stream_hash(sp, batches);
      pending.store(0, std::memory_order_release);
      pending.notify_all();
    });
    Scheduler::instance().join(pending);
    EXPECT_EQ(h, 16259572075217938493ull) << "workers=" << workers;
    EXPECT_TRUE(sp.check_invariants()) << "workers=" << workers;
  }
  set_num_workers(saved);
}

TEST(ExtensionsPipeline, SparseDiffStreamMatchesPinnedHash) {
  const size_t n = 200;
  auto [initial, batches] = gen_mixed_stream(n, 1200, 40, 50, 17);
  SparseSpannerConfig def;  // default contraction schedule
  def.seed = 29;
  SparseSpannerConfig two = def;
  two.xs = {3.0, 2.0};
  for (auto [cfg, want] : {std::pair{def, uint64_t{16746961656669647010ull}},
                           std::pair{two, uint64_t{3898851150182121697ull}}}) {
    SparseSpanner sp(n, initial, cfg);
    EXPECT_EQ(diff_stream_hash(sp, batches), want)
        << "layers=" << sp.num_layers();
    EXPECT_TRUE(sp.check_invariants()) << "layers=" << sp.num_layers();
  }
}

// A stream shaped against the Bentley-Saxe chunking for E_0 capacity c
// (n's edge universe, shuffled). E_0 starts 3/5 full; batch 0 inserts 4c
// fresh edges (rebuilt into slot 2); batch 1 deletes a few edges and
// inserts 2c + c fresh ones: chunk 1 fills the empty slot 1, then chunk 0
// scans past the occupied slots 0..2 into slot 3, absorbing slot 1 while
// its rebuild is still pending. Twenty mixed rounds follow, each deleting
// c live edges spread across every partition and inserting a rotating
// amount (recycled deletions first, then unused edges).
std::pair<std::vector<Edge>, std::vector<UpdateBatch>> bentley_saxe_stream(
    size_t n, size_t c, uint64_t seed) {
  std::vector<Edge> pool;
  for (VertexId u = 0; u < n; ++u)
    for (VertexId v = u + 1; v < n; ++v) pool.emplace_back(u, v);
  Rng rng(seed);
  for (size_t i = pool.size(); i > 1; --i)
    std::swap(pool[i - 1], pool[rng.next_below(i)]);
  std::vector<Edge> live;
  auto take = [&](size_t count) {
    std::vector<Edge> out(pool.end() - ptrdiff_t(count), pool.end());
    pool.resize(pool.size() - count);
    live.insert(live.end(), out.begin(), out.end());
    return out;
  };
  auto drop = [&](size_t count) {
    std::vector<Edge> out;
    for (size_t i = 0; i < count; ++i) {
      size_t at = rng.next_below(live.size());
      out.push_back(live[at]);
      live[at] = live.back();
      live.pop_back();
    }
    return out;
  };
  std::vector<Edge> initial = take(c * 3 / 5);
  std::vector<UpdateBatch> batches;
  batches.push_back({take(4 * c), {}});
  std::vector<Edge> del = drop(c / 16);
  batches.push_back({take(3 * c), del});
  pool.insert(pool.end(), del.begin(), del.end());
  const size_t sizes[] = {c / 3, c + c / 8, 2 * c + 5, c / 2};
  for (size_t round = 0; round < 20; ++round) {
    del = drop(c);
    std::vector<Edge> ins = take(sizes[round % 4]);
    pool.insert(pool.begin(), del.begin(), del.end());
    batches.push_back({ins, del});
  }
  return {initial, batches};
}

TEST(ExtensionsPipeline, FullyDynamicSpannerDiffStreamMatchesPinnedHash) {
  const size_t n = 128;
  FullyDynamicSpannerConfig cfg;
  cfg.k = 4;  // 2^{l0} >= 128^{5/4}: l0 = 9, E_0 capacity 512
  cfg.seed = 31;
  auto [initial, batches] = bentley_saxe_stream(n, 512, 41);
  FullyDynamicSpanner sp(n, initial, cfg);
  uint64_t h = 0;
  for (size_t i = 0; i < batches.size(); ++i) {
    const uint64_t rebuilds = sp.rebuilds();
    h = hash_diff(h, sp.update(batches[i].insertions, batches[i].deletions));
    ASSERT_TRUE(sp.check_invariants()) << "batch " << i;
    if (i == 0) {
      EXPECT_EQ(sp.num_partitions(), 3u);
      EXPECT_EQ(sp.rebuilds(), rebuilds + 1);
    } else if (i == 1) {
      // Two rebuilds into four slots: slot 1's was absorbed, pending.
      EXPECT_EQ(sp.num_partitions(), 4u);
      EXPECT_EQ(sp.rebuilds(), rebuilds + 2);
      EXPECT_EQ(sp.num_edges(), 512u * 3 / 5 + 7 * 512 - 512 / 16);
    }
  }
  EXPECT_EQ(h, 7657203086024354479ull);
}

TEST(ExtensionsPipeline, FullyDynamicSparsifierDiffStreamMatchesPinnedHash) {
  const size_t n = 128;
  FullyDynamicSparsifierConfig cfg;  // Invariant B2: E_0 capacity 128
  cfg.seed = 37;
  auto [initial, batches] = bentley_saxe_stream(n, 128, 43);
  FullyDynamicSparsifier sp(n, initial, cfg);
  uint64_t h = 0;
  for (size_t i = 0; i < batches.size(); ++i) {
    h = hash_diff(h, sp.update(batches[i].insertions, batches[i].deletions));
    ASSERT_TRUE(sp.check_invariants()) << "batch " << i;
    if (i == 0) {
      EXPECT_EQ(sp.num_partitions(), 3u);
    } else if (i == 1) {
      EXPECT_EQ(sp.num_partitions(), 4u);
      EXPECT_EQ(sp.num_edges(), 128u * 3 / 5 + 7 * 128 - 128 / 16);
    }
  }
  EXPECT_EQ(h, 6123833433877724543ull);
}

}  // namespace
}  // namespace parspan
