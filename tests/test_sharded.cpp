// Sharded-service tests (DESIGN.md §9): queue coalescing semantics, the
// determinism contract through the async ingestion path (per-shard diffs
// and checksums byte-identical across writer counts), flush()
// read-your-writes under concurrent readers, cross-shard BFS against the
// unsharded union-graph reference, tenant isolation, and tiny-shard pins.
//
// The isolated-pair trick: tests that need to observe GRAPH membership
// through the spanner reserve vertices with no other incident edges — an
// edge between two isolated vertices is its endpoints' only connection, so
// it is in the spanner iff it is in the graph, and distance()==1 /
// kSnapshotUnreached witness presence/absence without depending on which
// edges the spanner algorithm happened to keep.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "durability/checkpoint.hpp"
#include "durability/fault_fs.hpp"
#include "graph/bfs.hpp"
#include "graph/dynamic_graph.hpp"
#include "graph/generators.hpp"
#include "parallel/worker_pool.hpp"
#include "service/batch_queue.hpp"
#include "service/sharded_service.hpp"
#include "util/rng.hpp"

namespace parspan {
namespace {

std::vector<EdgeKey> diff_keys(const std::vector<Edge>& side) {
  std::vector<EdgeKey> out;
  out.reserve(side.size());
  for (const Edge& e : side) out.push_back(e.key());
  return out;
}

// --- BatchQueue unit semantics. --------------------------------------------

TEST(BatchQueue, CoalescingStateMachine) {
  BatchQueue q(64);
  const Edge e(3, 7), f(1, 2);

  // insert+delete cancels: only the (no-op-if-absent) delete survives, so
  // the backend batch nets to nothing for a fresh edge.
  q.submit({e}, {});
  q.submit({}, {e});
  auto d = q.drain();
  EXPECT_TRUE(d.insertions.empty());
  ASSERT_EQ(d.deletions.size(), 1u);
  EXPECT_EQ(d.deletions[0].key(), e.key());
  EXPECT_EQ(d.ticket, 2u);
  EXPECT_TRUE(q.empty());

  // delete-then-insert: the re-insert survives, drained as delete+insert
  // of the same key (the backend's deletions-first order refreshes it).
  q.submit({}, {e});
  q.submit({e}, {});
  d = q.drain();
  ASSERT_EQ(d.deletions.size(), 1u);
  ASSERT_EQ(d.insertions.size(), 1u);
  EXPECT_EQ(d.deletions[0].key(), e.key());
  EXPECT_EQ(d.insertions[0].key(), e.key());

  // delete-insert-delete collapses back to one delete.
  q.submit({}, {e});
  q.submit({e}, {});
  q.submit({}, {e});
  d = q.drain();
  ASSERT_EQ(d.deletions.size(), 1u);
  EXPECT_TRUE(d.insertions.empty());

  // Duplicate inserts coalesce; drained sides come out key-sorted.
  q.submit({e, e, f}, {});
  q.submit({e}, {});
  d = q.drain();
  ASSERT_EQ(d.insertions.size(), 2u);
  EXPECT_EQ(d.insertions[0].key(), f.key());  // (1,2) < (3,7)
  EXPECT_EQ(d.insertions[1].key(), e.key());
  EXPECT_TRUE(d.deletions.empty());

  // An empty queue drains to a zero ticket exactly once per quiescence.
  d = q.drain();
  EXPECT_TRUE(d.empty());
  EXPECT_EQ(d.ticket, 0u);

  // Empty submits still take tickets (flush-after-noop stays defined).
  uint64_t t = q.submit({}, {});
  d = q.drain();
  EXPECT_TRUE(d.empty());
  EXPECT_EQ(d.ticket, t);
}

TEST(BatchQueue, BackpressureBlocksAndDrainsReleases) {
  BatchQueue q(4);
  q.submit({Edge(0, 1), Edge(0, 2), Edge(0, 3), Edge(0, 4)}, {});
  ASSERT_EQ(q.pending_keys(), 4u);

  std::atomic<bool> submitted{false};
  std::thread t([&] {
    q.submit({Edge(0, 5)}, {});  // blocks: queue is at capacity
    submitted.store(true, std::memory_order_release);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(submitted.load(std::memory_order_acquire));

  auto d = q.drain();
  EXPECT_EQ(d.insertions.size(), 4u);
  t.join();
  EXPECT_TRUE(submitted.load(std::memory_order_acquire));
  EXPECT_EQ(q.pending_keys(), 1u);
  q.drain();
}

TEST(BatchQueue, PausedGateAdmitsOnlyDemandedDrains) {
  BatchQueue q(16, /*start_paused=*/true);
  const Edge e(1, 2);
  uint64_t t1 = q.submit({e}, {});

  // Paused, no demand: a drain (e.g. a straggler writer) takes nothing.
  auto d = q.drain();
  EXPECT_TRUE(d.empty());
  EXPECT_EQ(d.ticket, 0u);
  EXPECT_EQ(q.pending_keys(), 1u);

  // A flush demand authorizes exactly the pending round.
  q.demand(t1);
  d = q.drain();
  ASSERT_EQ(d.insertions.size(), 1u);
  EXPECT_EQ(d.ticket, t1);

  // Demand satisfied: the next round stays parked again...
  q.submit({}, {e});
  EXPECT_TRUE(q.drain().empty());
  EXPECT_EQ(q.pending_keys(), 1u);

  // ...until unpaused, when drains flow freely.
  q.set_paused(false);
  d = q.drain();
  ASSERT_EQ(d.deletions.size(), 1u);
}

// --- WorkerPool unit semantics. --------------------------------------------

TEST(WorkerPool, SlotExclusivityAndNoLostWakeups) {
  const size_t slots = 5;
  std::vector<std::atomic<int>> pending(slots);
  std::vector<std::atomic<int>> running(slots);
  std::atomic<uint64_t> drained{0};
  for (auto& p : pending) p.store(0);
  for (auto& r : running) r.store(0);

  WorkerPool pool(
      4, slots,
      [&](size_t s) {
        // Per-slot exclusivity: never two drains of one slot at once.
        EXPECT_EQ(running[s].fetch_add(1), 0);
        int took = pending[s].exchange(0);
        drained.fetch_add(uint64_t(took));
        running[s].fetch_sub(1);
      },
      [&](size_t s) { return pending[s].load() > 0; });

  const int per_thread = 200;
  std::vector<std::thread> producers;
  std::atomic<uint64_t> produced{0};
  for (int t = 0; t < 3; ++t) {
    producers.emplace_back([&, t] {
      uint64_t x = uint64_t(t) + 99;
      for (int i = 0; i < per_thread; ++i) {
        x = splitmix64(x);
        size_t s = size_t(x % slots);
        pending[s].fetch_add(1);
        produced.fetch_add(1);
        pool.notify(s);
      }
    });
  }
  for (auto& p : producers) p.join();
  // Every notify lands at least one subsequent drain: the pool must reach
  // quiescence with nothing left pending.
  for (int spin = 0; spin < 2000 && drained.load() < produced.load(); ++spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(drained.load(), produced.load());
  pool.stop();
}

// The double-scheduling hazard of the unified scheduler (DESIGN.md §12.3):
// a drain is itself a scheduler task, and a drain body that calls
// parallel_for forks MORE tasks into the same pool. stop() must not wait on
// a drain whose nested tasks can no longer run, and a notify landing while
// the pool is stopping must neither launch nor leak. With every pool
// thread occupied by a drain, the drains' own join loops must execute the
// nested tasks (help-first), or this test deadlocks into the ctest TIMEOUT.
TEST(WorkerPool, StopDuringNestedParallelForDrains) {
  int prev_workers = num_workers();
  set_num_workers(4);
  for (int round = 0; round < 20; ++round) {
    const size_t slots = 4;
    std::vector<std::atomic<int>> running(slots);
    for (auto& r : running) r.store(0);
    std::atomic<uint64_t> work_done{0};
    WorkerPool pool(
        4, slots,
        [&](size_t s) {
          EXPECT_EQ(running[s].fetch_add(1), 0);
          // Nested fork-join inside the drain: grain=1 forces real task
          // spawns.
          parallel_for(
              0, 64,
              [&](size_t) {
                work_done.fetch_add(1, std::memory_order_relaxed);
              },
              /*grain=*/1);
          running[s].fetch_sub(1);
        },
        [](size_t) { return false; });  // each notify asks for one drain
    std::atomic<bool> stop{false};
    std::thread producer([&] {
      uint64_t x = uint64_t(round) + 1;
      while (!stop.load(std::memory_order_relaxed)) {
        x = splitmix64(x);
        pool.notify(size_t(x % slots));
      }
    });
    // Vary the teardown instant: sometimes drains are mid-parallel_for,
    // sometimes queued-but-unstarted, sometimes the pool is idle.
    std::this_thread::sleep_for(std::chrono::microseconds(100 * (round % 5)));
    pool.stop();  // must return: no drain may strand its nested tasks
    stop.store(true, std::memory_order_relaxed);
    producer.join();
    uint64_t after_stop = work_done.load();
    pool.notify(0);  // no-op after stop
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_EQ(work_done.load(), after_stop);
  }
  set_num_workers(prev_workers);
}

// --- Determinism: per-shard diffs/checksums across writer counts. ----------
// Paused rounds bound every drain at a flush() barrier, so batch contents
// are a pure function of the submit stream — 1-writer and 4-writer runs
// must publish byte-identical per-shard diff sequences and checksums
// (DESIGN.md §9.4).
TEST(Sharded, DiffsAndChecksumsDeterministicAcrossWriterCounts) {
  const size_t n = 300;
  const uint32_t shards = 4;
  auto [initial, batches] = gen_mixed_stream(n, 3000, 90, 24, 7);
  FullyDynamicSpannerConfig cfg;
  cfg.k = 3;
  cfg.seed = 11;

  auto run = [&](int writers) {
    ShardedConfig sc;
    sc.num_writers = writers;
    sc.record_publishes = true;
    sc.start_paused = true;
    auto svc =
        ShardedSpannerService::single_graph(n, initial, shards, cfg, sc);
    // Three submits per round: the drained batch is their coalesced union.
    for (size_t i = 0; i + 3 <= batches.size(); i += 3) {
      for (size_t j = i; j < i + 3; ++j)
        svc->submit(batches[j].insertions, batches[j].deletions);
      svc->flush();
    }
    std::vector<std::vector<PublishRecord>> logs;
    for (size_t s = 0; s < shards; ++s) logs.push_back(svc->publish_log(s));
    return logs;
  };

  auto base = run(1);
  auto wide = run(4);
  ASSERT_EQ(base.size(), wide.size());
  for (size_t s = 0; s < shards; ++s) {
    ASSERT_EQ(base[s].size(), wide[s].size()) << "shard " << s;
    EXPECT_FALSE(base[s].empty()) << "shard " << s << " saw no publishes";
    for (size_t i = 0; i < base[s].size(); ++i) {
      EXPECT_EQ(base[s][i].version, wide[s][i].version) << s << "/" << i;
      EXPECT_EQ(base[s][i].checksum, wide[s][i].checksum) << s << "/" << i;
      EXPECT_EQ(diff_keys(base[s][i].diff.inserted),
                diff_keys(wide[s][i].diff.inserted))
          << s << "/" << i;
      EXPECT_EQ(diff_keys(base[s][i].diff.removed),
                diff_keys(wide[s][i].diff.removed))
          << s << "/" << i;
    }
  }
}

// --- Coalescing end to end, via isolated pairs. ----------------------------
TEST(Sharded, QueueCoalescingThroughTheBackend) {
  // 48 vertices across 4 range shards (stride 12). Vertices 5 (shard 0)
  // and 40 (shard 3) are made isolated by filtering their edges out of the
  // initial graph, so the probe edge between them is (a) its endpoints'
  // only connection and (b) genuinely cross-shard: owned by shard 0,
  // stitched into shard 3's side of the BFS.
  const size_t n = 48;
  const Edge probe(VertexId(5), VertexId(40));
  auto initial = gen_erdos_renyi(n, 140, 3);
  initial.erase(std::remove_if(initial.begin(), initial.end(),
                               [&](const Edge& e) {
                                 return e.u == probe.u || e.v == probe.u ||
                                        e.u == probe.v || e.v == probe.v;
                               }),
                initial.end());
  FullyDynamicSpannerConfig cfg;
  cfg.k = 2;
  cfg.seed = 5;
  ShardedConfig sc;
  sc.num_writers = 2;
  sc.record_publishes = true;
  sc.start_paused = true;
  auto svc = ShardedSpannerService::single_graph(n, initial, 4, cfg, sc);
  ASSERT_NE(svc->router().shard_of_vertex(probe.u),
            svc->router().shard_of_vertex(probe.v));

  // insert+delete in one round cancels: the probe pair stays disconnected
  // and the round's published diffs are empty on every shard.
  auto before = svc->versions();
  svc->submit({probe}, {});
  svc->submit({}, {probe});
  svc->flush();
  auto v1 = svc->view();
  EXPECT_FALSE(v1.has_edge(probe.u, probe.v));
  EXPECT_EQ(v1.distance(probe.u, probe.v, 10), kSnapshotUnreached);
  for (size_t s = 0; s < svc->num_shards(); ++s)
    for (const PublishRecord& r : svc->publish_log(s)) {
      EXPECT_TRUE(r.diff.inserted.empty());
      EXPECT_TRUE(r.diff.removed.empty());
    }
  (void)before;

  // Plain insert: the only edge between two isolated vertices must be in
  // the composed spanner.
  svc->submit({probe}, {});
  svc->flush();
  auto v2 = svc->view();
  EXPECT_TRUE(v2.has_edge(probe.u, probe.v));
  EXPECT_EQ(v2.distance(probe.u, probe.v, 10), 1u);

  // delete-then-insert in one round: the re-insert survives.
  svc->submit({}, {probe});
  svc->submit({probe}, {});
  svc->flush();
  auto v3 = svc->view();
  EXPECT_TRUE(v3.has_edge(probe.u, probe.v));
  EXPECT_EQ(v3.distance(probe.u, probe.v, 10), 1u);

  // insert (of the now-live edge) + delete: pure cancellation would be
  // wrong here — the delete must win.
  svc->submit({probe}, {});
  svc->submit({}, {probe});
  svc->flush();
  auto v4 = svc->view();
  EXPECT_FALSE(v4.has_edge(probe.u, probe.v));
  EXPECT_EQ(v4.distance(probe.u, probe.v, 10), kSnapshotUnreached);

  // The pinned earlier view was immutable throughout.
  EXPECT_TRUE(v2.has_edge(probe.u, probe.v));
}

// --- flush() read-your-writes under concurrent readers. --------------------
TEST(Sharded, FlushReadYourWritesUnderConcurrentReaders) {
  // 240 vertices, 4 range shards (stride 60). The churn stream lives on
  // 200 vertices remapped to the first 50 ids of each shard's range, so
  // ids 50..59, 110..119, 170..179, 230..239 stay isolated in EVERY
  // shard — probe edges between reserved ids of shard 0 and shard 3 are
  // cross-shard and immune to the churn.
  const size_t n = 240;
  const size_t probes = 10;
  auto remap = [](VertexId v) { return VertexId((v / 50) * 60 + v % 50); };
  auto remap_edges = [&](std::vector<Edge> es) {
    for (Edge& e : es) e = Edge(remap(e.u), remap(e.v));
    return es;
  };
  auto initial = remap_edges(gen_erdos_renyi(200, 1600, 13));
  FullyDynamicSpannerConfig cfg;
  cfg.k = 3;
  cfg.seed = 17;
  ShardedConfig sc;
  sc.num_writers = 4;
  auto svc = ShardedSpannerService::single_graph(n, initial, 4, cfg, sc);

  std::atomic<bool> done{false};
  const int R = 3;
  std::vector<uint64_t> acquired(R, 0);
  std::vector<std::thread> readers;
  for (int t = 0; t < R; ++t) {
    readers.emplace_back([&, t] {
      std::vector<uint64_t> last(svc->num_shards(), 0);
      uint64_t count = 0;
      while (!done.load(std::memory_order_acquire) || count == 0) {
        ShardedView view = svc->view();
        ++count;
        for (size_t s = 0; s < view.num_shards(); ++s) {
          // Per-shard: versions never run backwards, views never tear.
          ASSERT_GE(view.shard(s).version(), last[s]);
          last[s] = view.shard(s).version();
          ASSERT_TRUE(view.shard(s).consistent());
        }
        VertexId v = VertexId((t * 37 + count * 11) % n);
        for (VertexId w : view.neighbors(v)) ASSERT_TRUE(view.has_edge(v, w));
      }
      acquired[size_t(t)] = count;
    });
  }

  // Writer side: background churn (never flushed mid-round) plus one
  // isolated-pair probe per round — after flush(), the probe MUST be
  // visible in the very next view, across all shards (read-your-writes).
  auto [ini2, churn] = gen_mixed_stream(200, 1600, 48, probes, 29);
  (void)ini2;
  for (size_t i = 0; i < probes; ++i) {
    // Reserved shard-0 id x reserved shard-3 id: cross-shard by design.
    Edge probe(VertexId(50 + i), VertexId(230 + i));
    ASSERT_NE(svc->router().shard_of_vertex(probe.u),
              svc->router().shard_of_vertex(probe.v));
    svc->submit(remap_edges(churn[i].insertions),
                remap_edges(churn[i].deletions));
    svc->submit({probe}, {});
    VersionVector vv = svc->flush();
    ShardedView view = svc->view();
    ASSERT_TRUE(view.versions().dominates(vv)) << "round " << i;
    ASSERT_TRUE(view.has_edge(probe.u, probe.v)) << "round " << i;
    ASSERT_EQ(view.distance(probe.u, probe.v, 3), 1u) << "round " << i;
  }
  done.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();
  for (int t = 0; t < R; ++t) EXPECT_GT(acquired[size_t(t)], 0u);
}

// --- Cross-shard BFS == single-graph BFS on the union reference. -----------
TEST(Sharded, CrossShardBfsMatchesUnshardedReference) {
  const size_t n = 500;
  auto [initial, batches] = gen_mixed_stream(n, 3000, 120, 10, 41);
  FullyDynamicSpannerConfig cfg;
  cfg.k = 3;
  cfg.seed = 23;
  ShardedConfig sc;
  sc.num_writers = 2;
  auto svc = ShardedSpannerService::single_graph(n, initial, 4, cfg, sc);
  for (auto& b : batches) svc->submit(b.insertions, b.deletions);
  svc->flush();

  ShardedView view = svc->view();
  // The unsharded reference: one DynamicGraph over the composed edge set.
  std::vector<Edge> edges = view.edges();
  EXPECT_EQ(edges.size(), view.num_edges());
  DynamicGraph ref(n);
  ref.insert_edges(edges);

  // neighbors(): the stitched union equals the reference adjacency.
  for (VertexId v = 0; v < n; v += 7) {
    auto got = view.neighbors(v);
    auto span = ref.neighbors(v);
    std::vector<VertexId> want(span.begin(), span.end());
    std::sort(want.begin(), want.end());
    ASSERT_EQ(got, want) << "vertex " << v;
    for (VertexId w : got) ASSERT_TRUE(view.has_edge(v, w));
  }

  // distance(): stitched bounded BFS equals bounded_bfs on the reference,
  // including the unreached-past-limit boundary.
  const uint32_t L = 4;
  for (VertexId u = 1; u < n; u += 97) {
    std::vector<uint32_t> dist = bounded_bfs(ref, {u}, L);
    for (VertexId v = 0; v < n; v += 13) {
      uint32_t want = (dist[v] <= L) ? dist[v] : kSnapshotUnreached;
      ASSERT_EQ(view.distance(u, v, L), want) << u << "->" << v;
    }
  }
}

// --- Multi-tenant: isolation + per-shard backend selection. ----------------
TEST(Sharded, MultiTenantIsolationAndMixedBackends) {
  std::vector<ShardSpec> specs(2);
  specs[0].kind = ShardSpec::Kind::kFullyDynamic;
  specs[0].n = 120;
  specs[0].initial = gen_erdos_renyi(120, 700, 3);
  specs[0].fd.k = 2;
  specs[0].fd.seed = 5;
  specs[1].kind = ShardSpec::Kind::kUltraSparse;
  specs[1].n = 200;
  specs[1].initial = gen_random_regular(200, 6, 9);
  specs[1].ultra.x = 2;
  specs[1].ultra.seed = 7;

  ShardedConfig sc;
  sc.num_writers = 2;
  ShardedSpannerService svc(std::move(specs),
                            std::make_unique<GraphIdRouter>(2), sc);

  // Tenant 0 churns; tenant 1 must not publish a single version.
  auto [ini, batches] = gen_mixed_stream(120, 700, 40, 6, 15);
  (void)ini;
  for (auto& b : batches) svc.submit(0, b.insertions, b.deletions);
  VersionVector vv = svc.flush();
  ASSERT_EQ(vv.v.size(), 2u);
  EXPECT_GT(vv.v[0], 0u);
  EXPECT_EQ(vv.v[1], 0u);

  // Tenant 1 (ultra-sparse backend) ingests through the same path.
  svc.submit(1, {Edge(0, 1), Edge(1, 2)}, {});
  VersionVector vv2 = svc.flush();
  EXPECT_GT(vv2.v[1], 0u);
  EXPECT_TRUE(vv2.dominates(vv));

  ShardedView view = svc.view();
  EXPECT_TRUE(view.graph(0).consistent());
  EXPECT_TRUE(view.graph(1).consistent());
  EXPECT_EQ(view.graph(1).version(), vv2.v[1]);

  // An unknown tenant id is rejected observably — never applied anywhere,
  // never out-of-bounds (client ids are data, not invariants).
  const uint64_t ingested = svc.edges_ingested();
  svc.submit(7, {Edge(0, 1)}, {Edge(1, 2)});
  VersionVector vv3 = svc.flush();
  EXPECT_EQ(svc.edges_rejected(), 2u);
  EXPECT_EQ(svc.edges_ingested(), ingested);
  EXPECT_EQ(vv3.v, vv2.v);  // no shard published for the rejected batch
}

// --- Tiny shards: n = 0 / n = 1 per shard, more shards than vertices. ------
TEST(Sharded, TinyShardEdgeCases) {
  // Multi-tenant with empty and single-vertex graphs.
  {
    std::vector<ShardSpec> specs(3);
    specs[0].n = 0;
    specs[1].n = 1;
    specs[2].n = 5;
    specs[2].initial = {Edge(0, 1), Edge(1, 2)};
    for (auto& s : specs) s.fd.k = 2;
    ShardedSpannerService svc(std::move(specs),
                              std::make_unique<GraphIdRouter>(3),
                              ShardedConfig{});
    svc.submit(2, {Edge(2, 3)}, {});
    svc.submit(0, {}, {});  // empty batch to the empty graph
    svc.submit(1, {}, {});
    VersionVector vv = svc.flush();
    ShardedView view = svc.view();
    EXPECT_TRUE(view.versions().dominates(vv));
    EXPECT_EQ(view.graph(0).num_edges(), 0u);
    EXPECT_EQ(view.graph(1).num_edges(), 0u);
    EXPECT_FALSE(view.graph(1).has_edge(0, 0));
    EXPECT_TRUE(view.graph(2).has_edge(2, 3));
  }
  // Single-graph: n = 3 under 4 shards (one shard owns no vertex range),
  // i.e. at most one vertex per shard.
  {
    FullyDynamicSpannerConfig cfg;
    cfg.k = 2;
    auto svc = ShardedSpannerService::single_graph(3, {Edge(0, 1)}, 4, cfg,
                                                   ShardedConfig{});
    svc->submit({Edge(1, 2)}, {});
    svc->flush();
    ShardedView view = svc->view();
    EXPECT_TRUE(view.has_edge(0, 1));
    EXPECT_TRUE(view.has_edge(1, 2));
    EXPECT_EQ(view.distance(0, 2, 4), 2u);
    EXPECT_EQ(view.neighbors(1), (std::vector<VertexId>{0, 2}));
    svc->submit({}, {Edge(0, 1)});
    svc->flush();
    EXPECT_FALSE(svc->view().has_edge(0, 1));
  }
  // Degenerate single shard still composes.
  {
    FullyDynamicSpannerConfig cfg;
    cfg.k = 2;
    auto svc = ShardedSpannerService::single_graph(
        10, gen_cycle(10), 1, cfg, ShardedConfig{});
    svc->flush();
    EXPECT_EQ(svc->view().distance(0, 5, 10), 5u);
  }
}

// --- pause() after free-running bounds the next round exactly. -------------
TEST(Sharded, PauseAfterFreeRunningParksSubmits) {
  FullyDynamicSpannerConfig cfg;
  cfg.k = 2;
  ShardedConfig sc;
  sc.num_writers = 2;
  auto svc = ShardedSpannerService::single_graph(
      20, gen_erdos_renyi(16, 40, 3), 2, cfg, sc);
  // Free-running warm-up: slots cycle through notify/drain.
  svc->submit({Edge(0, 9)}, {});
  svc->flush();
  VersionVector before = svc->versions();

  // pause() then submit: the queue-level gate guarantees no drain —
  // straggler or otherwise — takes this round before flush() demands it.
  svc->pause();
  const Edge probe(VertexId(17), VertexId(18));
  svc->submit({probe}, {});
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(svc->versions().v, before.v);
  EXPECT_FALSE(svc->view().has_edge(probe.u, probe.v));

  VersionVector after = svc->flush();  // drains exactly the parked round
  EXPECT_TRUE(after.dominates(before));
  EXPECT_TRUE(svc->view().has_edge(probe.u, probe.v));
}

// --- resume() alone must drain work queued while paused. -------------------
TEST(Sharded, ResumeDrainsPendingWithoutFlush) {
  FullyDynamicSpannerConfig cfg;
  cfg.k = 2;
  ShardedConfig sc;
  sc.start_paused = true;
  auto svc = ShardedSpannerService::single_graph(
      20, gen_erdos_renyi(16, 40, 3), 2, cfg, sc);
  const Edge probe(VertexId(17), VertexId(18));  // isolated pair
  svc->submit({probe}, {});
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(svc->versions().v, (std::vector<uint64_t>{0, 0}));  // still paused

  svc->resume();  // no flush: resume's own notify must drain the queue
  for (int spin = 0; spin < 2000 && !svc->view().has_edge(probe.u, probe.v);
       ++spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_TRUE(svc->view().has_edge(probe.u, probe.v));
}

// --- Ingest-to-visible latency instrumentation sanity. ---------------------
// --- pause()/flush() round boundaries while drains fork nested work. -------
// Each flush() while paused drains exactly one round; the shard backends'
// update() calls run nested parallel loops on the same scheduler that runs
// the drain tasks themselves. Cycling pause → submit → flush → resume under
// a concurrent submitter checks that round boundaries stay exact (versions
// advance only at flush) and that a pausing pool never deadlocks a drain
// whose nested parallel_for tasks still need pool threads.
TEST(Sharded, PauseFlushRoundBoundariesUnderNestedParallelism) {
  int prev_workers = num_workers();
  set_num_workers(4);
  FullyDynamicSpannerConfig cfg;
  cfg.k = 2;
  ShardedConfig sc;
  sc.num_writers = 3;
  auto svc = ShardedSpannerService::single_graph(
      200, gen_erdos_renyi(160, 600, 5), 4, cfg, sc);
  svc->flush();

  std::atomic<bool> stop{false};
  std::thread submitter([&] {
    uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      VertexId u = VertexId(i % 160), v = VertexId((i * 31 + 7) % 160);
      if (u != v) svc->submit({Edge(u, v)}, {});
      ++i;
    }
  });

  for (int round = 0; round < 10; ++round) {
    svc->pause();
    // Isolated-pair probe for this round (vertices 160.. have no other
    // incident edges): parked until the flush barrier, visible after.
    const Edge probe(VertexId(160 + 2 * round), VertexId(161 + 2 * round));
    VersionVector before = svc->versions();
    svc->submit({probe}, {});
    EXPECT_FALSE(svc->view().has_edge(probe.u, probe.v));
    VersionVector after = svc->flush();
    EXPECT_TRUE(after.dominates(before));
    EXPECT_TRUE(svc->view().has_edge(probe.u, probe.v));
    svc->resume();
  }
  stop.store(true, std::memory_order_relaxed);
  submitter.join();
  svc->flush();
  // Every probe from every paused round survived the free-running churn.
  for (int round = 0; round < 10; ++round)
    EXPECT_TRUE(svc->view().has_edge(VertexId(160 + 2 * round),
                                     VertexId(161 + 2 * round)));
  svc.reset();
  set_num_workers(prev_workers);
}

TEST(BatchQueue, SubmitForTimesOutOnFullQueueAndAdmitsAfterDrain) {
  BatchQueue q(2);  // admission bound: 2 distinct pending keys
  ASSERT_TRUE(q.submit_for({Edge(0, 1), Edge(1, 2)}, {},
                           std::chrono::milliseconds(50))
                  .has_value());
  // Full: a deadline submit must give up without queueing anything.
  auto t = q.submit_for({Edge(2, 3)}, {}, std::chrono::milliseconds(5));
  EXPECT_FALSE(t.has_value());
  EXPECT_EQ(q.pending_keys(), 2u);  // the timed-out batch left no trace
  // A drain frees capacity; the same batch is then admitted whole.
  BatchQueue::Drained d = q.drain();
  EXPECT_EQ(d.insertions.size(), 2u);
  auto t2 = q.submit_for({Edge(2, 3)}, {}, std::chrono::milliseconds(50));
  ASSERT_TRUE(t2.has_value());
  EXPECT_GT(*t2, d.ticket);
  EXPECT_EQ(q.pending_keys(), 1u);
}

TEST(Sharded, SubmitForBackpressureIsObservable) {
  FullyDynamicSpannerConfig cfg;
  cfg.k = 2;
  ShardedConfig sc;
  sc.queue_capacity = 4;
  sc.start_paused = true;  // nothing drains: the queue can only fill up
  auto svc = ShardedSpannerService::single_graph(
      64, gen_erdos_renyi(64, 120, 9), 1, cfg, sc);

  std::vector<Edge> fill;
  for (VertexId v = 0; v < 8; ++v) fill.push_back(Edge(v, VertexId(v + 32)));
  // One admitted batch may overshoot the bound; it must be admitted whole.
  EXPECT_EQ(svc->submit_for(fill, {}, std::chrono::milliseconds(50)),
            ShardedSpannerService::SubmitStatus::kOk);
  EXPECT_EQ(svc->edges_ingested(), fill.size());

  // Queue is now over capacity and paused: the deadline must fire.
  EXPECT_EQ(svc->submit_for({Edge(20, 21)}, {}, std::chrono::milliseconds(5)),
            ShardedSpannerService::SubmitStatus::kTimeout);
  EXPECT_EQ(svc->edges_timed_out(), 1u);
  EXPECT_EQ(svc->edges_ingested(), fill.size());  // not double-counted

  // flush() drains the backlog even while paused; capacity returns and the
  // retried submit is admitted (resubmission is idempotent set semantics).
  svc->flush();
  EXPECT_EQ(svc->submit_for({Edge(20, 21)}, {}, std::chrono::milliseconds(250)),
            ShardedSpannerService::SubmitStatus::kOk);
  svc->flush();
  EXPECT_TRUE(svc->view().has_edge(20, 21));
}

// --- Destruction racing in-flight drain/publish/WAL-append ----------------
// The destructor's contract is "stop the pool, drop unflushed work": these
// hammer teardown at the most hostile instants — submits still landing,
// writers mid-drain, WAL appends mid-frame — and only require no
// crash/hang/race (TSan is the judge) plus intact durable state.

TEST(Sharded, DestructionRacesInFlightDrains) {
  FullyDynamicSpannerConfig cfg;
  cfg.k = 2;
  for (int round = 0; round < 12; ++round) {
    ShardedConfig sc;
    sc.num_writers = 3;
    auto svc = ShardedSpannerService::single_graph(
        80, gen_erdos_renyi(80, 200, round), 4, cfg, sc);
    std::atomic<bool> stop{false};
    std::thread submitter([&] {
      uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        VertexId u = VertexId(i % 80), v = VertexId((i * 7 + 13) % 80);
        if (u != v) svc->submit({Edge(u, v)}, {});
        ++i;
      }
    });
    std::thread reader([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto view = svc->view();
        (void)view.num_edges();
      }
    });
    // Let the race build up, then tear down while both threads hammer.
    for (int spin = 0; spin < 50 * (round + 1); ++spin) svc->versions();
    stop.store(true, std::memory_order_relaxed);
    submitter.join();
    reader.join();
    svc.reset();  // pool stop + shard teardown with queues non-empty
  }
}

TEST(Sharded, DestructionWithDurabilityLeavesRecoverableState) {
  FullyDynamicSpannerConfig cfg;
  cfg.k = 2;
  cfg.seed = 31;
  const size_t n = 80;
  auto initial = gen_erdos_renyi(n, 250, 8);
  for (int round = 0; round < 6; ++round) {
    auto fs = std::make_shared<MemFs>();
    ShardedConfig sc;
    sc.num_writers = 2;
    sc.durability.enabled = true;
    sc.durability.fs = fs;
    sc.durability.dir = "root";
    auto svc = ShardedSpannerService::single_graph(n, initial, 2, cfg, sc);
    std::thread submitter([&] {
      for (uint64_t i = 0; i < 400; ++i) {
        VertexId u = VertexId(i % n), v = VertexId((i * 11 + 5) % n);
        if (u != v) svc->submit({Edge(u, v)}, {});
      }
    });
    // Destroy mid-ingest: whatever was logged must recover, exactly.
    for (int spin = 0; spin < 40 * (round + 1); ++spin) svc->versions();
    submitter.join();  // join first: submit() into a dead service is UB
    svc.reset();
    auto back = ShardedSpannerService::recover(
        [&] {
          std::vector<ShardSpec> specs(2);
          for (uint32_t s = 0; s < 2; ++s) {
            specs[s].kind = ShardSpec::Kind::kFullyDynamic;
            specs[s].n = n;
            specs[s].fd = cfg;
            specs[s].fd.seed = hash_combine(cfg.seed, s);
          }
          return specs;
        }(),
        std::make_unique<VertexRangeRouter>(n, 2), sc);
    ASSERT_NE(back, nullptr);
    for (uint32_t s = 0; s < 2; ++s)
      EXPECT_TRUE(back->shard_service(s).snapshot()->consistent());
  }
}

// Admission is per shard: when one shard's queue is wedged past the
// deadline, only ITS sub-batch is dropped (counted in edges_timed_out);
// responsive shards admit theirs. A retry after capacity returns is a
// clean kOk and the full batch lands (set-semantics idempotence).
TEST(Sharded, SubmitForPartialAdmissionAcrossShards) {
  FullyDynamicSpannerConfig cfg;
  cfg.k = 2;
  ShardedConfig sc;
  sc.queue_capacity = 4;
  sc.start_paused = true;  // nothing drains: queues only fill
  const size_t n = 64;     // VertexRangeRouter: shard 0 owns 0..31
  auto svc = ShardedSpannerService::single_graph(
      n, gen_erdos_renyi(n, 120, 11), 2, cfg, sc);

  // Wedge shard 0 alone: lower endpoints < 32, so every edge routes there.
  std::vector<Edge> fill;
  for (VertexId v = 0; v < 6; ++v) fill.push_back(Edge(v, VertexId(v + 20)));
  ASSERT_EQ(svc->submit_for(fill, {}, std::chrono::milliseconds(50)),
            ShardedSpannerService::SubmitStatus::kOk);

  // A mixed batch: shard 0's half times out, shard 1's half is admitted.
  const std::vector<Edge> mixed = {Edge(10, 11), Edge(40, 41)};
  EXPECT_EQ(svc->submit_for(mixed, {}, std::chrono::milliseconds(5)),
            ShardedSpannerService::SubmitStatus::kTimeout);
  EXPECT_EQ(svc->edges_timed_out(), 1u);                   // Edge(10, 11)
  EXPECT_EQ(svc->edges_ingested(), fill.size() + 1);       // Edge(40, 41)

  // Capacity returns on flush; the idempotent retry admits everything.
  svc->flush();
  EXPECT_EQ(svc->submit_for(mixed, {}, std::chrono::milliseconds(250)),
            ShardedSpannerService::SubmitStatus::kOk);
  svc->flush();
  EXPECT_TRUE(svc->view().has_edge(10, 11));
  EXPECT_TRUE(svc->view().has_edge(40, 41));
  EXPECT_EQ(svc->edges_timed_out(), 1u);  // the retry timed nothing out
}

// Regression: empty batches on a paused queue once counted against the
// admission bound, so `capacity` heartbeat/noop submits wedged every later
// REAL submit until a flush demand happened to drain — a wedge with no
// producer-visible cause. Empty batches are exempt from the bound.
TEST(BatchQueue, EmptySubmitsExemptFromAdmissionBound) {
  constexpr size_t kCap = 4;
  BatchQueue q(kCap, /*start_paused=*/true);
  // Paused: nothing drains. Exactly kCap noops, which would fill the
  // admission bound if they counted against it.
  uint64_t last = 0;
  for (size_t i = 0; i < kCap; ++i) last = q.submit({}, {});
  EXPECT_EQ(last, kCap);  // noops still take tickets (flush-after-noop)
  EXPECT_EQ(q.pending_keys(), 0u);

  // The real submit must be admitted immediately — the deadline is only a
  // test harness so a regression fails instead of hanging.
  auto t = q.submit_for({Edge(1, 2)}, {}, std::chrono::milliseconds(100));
  ASSERT_TRUE(t.has_value()) << "empty submits consumed admission capacity";
  EXPECT_EQ(*t, kCap + 1);

  // The drain covers every noop ticket and the real submit.
  q.demand(*t);
  BatchQueue::Drained d = q.drain();
  EXPECT_EQ(d.ticket, *t);
  EXPECT_EQ(d.insertions.size(), 1u);
}

// Regression (PR 9): submit_for granted each owning shard the FULL
// timeout sequentially, so a cross-shard batch against S wedged shards
// blocked up to S x timeout. One deadline is now shared: later shards get
// only the remaining budget (zero past the deadline — still a
// non-blocking admission try).
TEST(Sharded, SubmitForSharesOneDeadlineAcrossShards) {
  FullyDynamicSpannerConfig cfg;
  cfg.k = 2;
  ShardedConfig sc;
  sc.queue_capacity = 1;   // one pending key per shard = full
  sc.start_paused = true;  // nothing drains: every queue stays wedged
  const size_t n = 64;     // 4 shards x stride 16
  auto svc = ShardedSpannerService::single_graph(n, {}, 4, cfg, sc);

  // Wedge all four shard queues.
  ASSERT_EQ(svc->submit_for({Edge(0, 1), Edge(16, 17), Edge(32, 33),
                             Edge(48, 49)},
                            {}, std::chrono::milliseconds(50)),
            ShardedSpannerService::SubmitStatus::kOk);

  const auto timeout = std::chrono::milliseconds(200);
  const std::vector<Edge> cross = {Edge(2, 3), Edge(18, 19), Edge(34, 35),
                                   Edge(50, 51)};
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(svc->submit_for(cross, {}, timeout),
            ShardedSpannerService::SubmitStatus::kTimeout);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(svc->edges_timed_out(), cross.size());
  // Broken code waits ~4x timeout (800ms). The shared deadline bounds the
  // whole call by ~timeout; 2.5x leaves slack for scheduler noise.
  EXPECT_LT(elapsed, timeout * 5 / 2)
      << "cross-shard submit_for stacked per-shard timeouts";
}

// flush_async: the callback fires exactly once, after every pre-call
// submit is published; its VersionVector is pin-able via
// try_view_at_least, and a vv the service has not reached yet is refused
// without blocking.
TEST(Sharded, FlushAsyncBarrierAndPinByVersionVector) {
  FullyDynamicSpannerConfig cfg;
  cfg.k = 2;
  auto svc = ShardedSpannerService::single_graph(64, {}, 2, cfg, {});

  // Inline fire: nothing pending, the barrier is already satisfied.
  int inline_calls = 0;
  svc->flush_async([&](VersionVector vv) {
    ++inline_calls;
    EXPECT_EQ(vv.v.size(), 2u);
  });
  EXPECT_EQ(inline_calls, 1);

  svc->submit({Edge(1, 2), Edge(40, 41)}, {});
  std::atomic<int> calls{0};
  std::atomic<bool> pinned_ok{false};
  svc->flush_async([&](VersionVector vv) {
    // Pin-by-vv from the completion itself: read-your-writes with no
    // second barrier (the net server's post-flush pin path).
    auto view = svc->try_view_at_least(vv);
    if (view.has_value() && view->has_edge(1, 2) && view->has_edge(40, 41) &&
        view->versions().dominates(vv))
      pinned_ok.store(true);
    calls.fetch_add(1);
  });
  svc->flush();  // dominating barrier: the async one must have fired too
  EXPECT_EQ(calls.load(), 1);
  EXPECT_TRUE(pinned_ok.load());

  // A future the service has not published is refused, never waited for.
  VersionVector ahead = svc->versions();
  ahead.v[0] += 1;
  EXPECT_FALSE(svc->try_view_at_least(ahead).has_value());
  VersionVector wrong_shape;
  wrong_shape.v = {0};
  EXPECT_FALSE(svc->try_view_at_least(wrong_shape).has_value());
}

// Barriers fire in order: a flush() that is satisfied at once must not
// return while an earlier flush_async callback, already handed to a drain,
// is still running. The first callback parks inside the drain long enough
// for the main thread's flush() to find its targets published.
TEST(Sharded, FlushWaitsForEarlierBarrierCallbacks) {
  FullyDynamicSpannerConfig cfg;
  cfg.k = 2;
  ShardedConfig sc;
  sc.start_paused = true;
  auto svc = ShardedSpannerService::single_graph(64, {}, 2, cfg, sc);
  svc->submit({Edge(1, 2)}, {});
  std::promise<void> entered;
  std::atomic<int> calls{0};
  svc->flush_async([&](VersionVector) {
    entered.set_value();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    calls.fetch_add(1);
  });
  entered.get_future().wait();
  svc->flush();
  EXPECT_EQ(calls.load(), 1);
}

// flush_async never waits for another thread's callback. Satisfied at once
// while an earlier callback still runs, it queues its own callback and
// returns; the thread running the earlier callback runs it next.
TEST(Sharded, FlushAsyncQueuesBehindARunningCallback) {
  FullyDynamicSpannerConfig cfg;
  cfg.k = 2;
  ShardedConfig sc;
  sc.start_paused = true;
  auto svc = ShardedSpannerService::single_graph(64, {}, 2, cfg, sc);
  svc->submit({Edge(1, 2)}, {});
  std::promise<void> entered, release, second_ran;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<int> order{0};
  int first = -1, second = -1;
  svc->flush_async([&, released](VersionVector) {
    entered.set_value();
    released.wait_for(std::chrono::seconds(5));  // bounded: fails, not hangs
    first = order.fetch_add(1);
  });
  entered.get_future().wait();
  svc->flush_async([&](VersionVector) {  // satisfied at once
    second = order.fetch_add(1);
    second_ran.set_value();
  });
  EXPECT_EQ(order.load(), 0) << "flush_async waited for an earlier callback";
  release.set_value();
  second_ran.get_future().wait();
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
}

// A callback may issue barriers itself, from a drain or inline: a barrier
// satisfied while its issuing callback runs fires at once (that callback
// may be waiting for it), whether inline or from another shard's drain, so
// neither path deadlocks. The drained flush() targets the other shard, on
// a second writer: a callback blocking on a drain that needs the thread
// running it would wait forever.
TEST(Sharded, BarrierCallbacksMayIssueBarriers) {
  FullyDynamicSpannerConfig cfg;
  cfg.k = 2;
  ShardedConfig sc;
  sc.start_paused = true;
  sc.num_writers = 2;
  auto svc = ShardedSpannerService::single_graph(64, {}, 2, cfg, sc);
  svc->submit({Edge(1, 2)}, {});  // shard 0
  std::atomic<int> nested{0};
  std::promise<void> outer_done;
  svc->flush_async([&](VersionVector) {  // fired by shard 0's drain
    svc->submit({Edge(40, 41)}, {});     // shard 1
    svc->flush();                        // fired by shard 1's drain
    svc->flush_async([&](VersionVector) { nested.fetch_add(1); });  // inline
    nested.fetch_add(1);
    outer_done.set_value();
  });
  outer_done.get_future().wait();
  EXPECT_EQ(nested.load(), 2);
  EXPECT_TRUE(svc->view().has_edge(40, 41));

  // Satisfied at once: inline here, or after the outer callback on its
  // drain if that has not returned yet. Either way the inner barriers are
  // satisfied while it runs and fire at once.
  std::atomic<int> inline_calls{0};
  std::promise<void> inline_done;
  svc->flush_async([&](VersionVector) {
    svc->flush();
    svc->flush_async([&](VersionVector) { inline_calls.fetch_add(1); });
    inline_calls.fetch_add(1);
    inline_done.set_value();
  });
  inline_done.get_future().wait();
  EXPECT_EQ(inline_calls.load(), 2);
}

// A callback's inner barrier must not wait behind a barrier queued after
// that callback. The outer callback runs on shard 0's drain. Another
// thread's flush() on shard 1 is satisfied while it runs, so its callback
// queues behind the outer one; the drain that satisfied it must stay free,
// because the inner barrier needs shard 1's next drain. The inner wait is
// bounded, so a drain parked on the queue fails the test instead of
// hanging it.
TEST(Sharded, InnerBarrierOvertakesQueuedCallback) {
  FullyDynamicSpannerConfig cfg;
  cfg.k = 2;
  ShardedConfig sc;
  sc.start_paused = true;
  sc.num_writers = 2;
  auto svc = ShardedSpannerService::single_graph(64, {}, 2, cfg, sc);
  const uint64_t base = svc->versions().v[1];
  svc->submit({Edge(1, 2)}, {});  // shard 0
  std::promise<void> entered, outer_done;
  std::atomic<bool> inner_fired{false}, outer_returned{false};
  svc->flush_async([&](VersionVector) {  // fired by shard 0's drain
    entered.set_value();
    // The other thread's batch is published: its barrier is satisfied, or
    // about to be, while this callback runs.
    while (svc->versions().v[1] == base)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    svc->submit({Edge(42, 43)}, {});  // shard 1 again
    auto inner = std::make_shared<std::promise<void>>();
    std::future<void> fired = inner->get_future();
    svc->flush_async([inner](VersionVector) { inner->set_value(); });
    inner_fired = fired.wait_for(std::chrono::seconds(5)) ==
                  std::future_status::ready;
    outer_returned = true;
    outer_done.set_value();
  });
  entered.get_future().wait();
  bool outer_first = false;
  std::thread other([&] {
    svc->submit({Edge(40, 41)}, {});  // shard 1
    svc->flush();
    outer_first = outer_returned.load();
  });
  other.join();
  outer_done.get_future().wait();
  EXPECT_TRUE(inner_fired.load()) << "the inner barrier waited behind a "
                                     "callback queued after its own";
  EXPECT_TRUE(outer_first) << "flush() returned before an earlier callback";
  svc->flush();
  EXPECT_TRUE(svc->view().has_edge(42, 43));
}

// A closed submit-then-flush loop schedules one drain per round. flush()
// wakes only queues that still hold batches (a drained queue's ticket is
// in a running drain, which fires the barrier), and a notify that lands
// before a submitted drain starts is covered by that drain — neither may
// queue a second, empty drain behind the first. One residual race stays:
// a flush that checks the queue in the instant between a drain task's
// start and its snapshot still wakes it; that costs a few rounds in a
// thousand, so the bound allows a handful out of 100. Before the fix,
// almost every round scheduled two drains.
TEST(Sharded, SubmitFlushLoopSchedulesOneDrainPerRound) {
  const int saved = num_workers();
  set_num_workers(1);  // the backend's loops run inline: drains are the
                       // only tasks
  FullyDynamicSpannerConfig cfg;
  cfg.k = 2;
  auto svc = ShardedSpannerService::single_graph(256, {}, 1, cfg, {});
  Scheduler& sched = Scheduler::instance();
  constexpr uint32_t kRounds = 100;
  const uint64_t before = sched.tasks_spawned();
  for (uint32_t r = 0; r < kRounds; ++r) {
    svc->submit({Edge(2 * r, 2 * r + 1)}, {});
    svc->flush();
  }
  const uint64_t drains = sched.tasks_spawned() - before;
  EXPECT_GE(drains, kRounds) << "drains=" << drains << " kRounds=" << kRounds;
  EXPECT_LE(drains, kRounds + kRounds / 10)
      << "drains=" << drains << " kRounds=" << kRounds;
  EXPECT_EQ(svc->versions().v[0], kRounds);
  set_num_workers(saved);
}

// durability_failed() is the replication/ops health probe: false without
// durability, false while the WAL is healthy, and sticky-true after a
// shard's WAL append fails — while the service itself keeps serving reads
// and accepting writes (the §10 contract: serve on, minus the claim).
TEST(Sharded, DurabilityFailedSurfacesStickyWalFailure) {
  FullyDynamicSpannerConfig cfg;
  cfg.k = 2;
  cfg.seed = 19;
  const size_t n = 64;
  auto initial = gen_erdos_renyi(n, 150, 5);

  ShardedConfig plain;
  auto no_dur = ShardedSpannerService::single_graph(n, initial, 2, cfg, plain);
  EXPECT_FALSE(no_dur->durability_failed());  // no claim, no failure

  auto fs = std::make_shared<MemFs>();
  ShardedConfig sc;
  sc.durability.enabled = true;
  sc.durability.fs = fs;
  sc.durability.dir = "root";
  auto svc = ShardedSpannerService::single_graph(n, initial, 2, cfg, sc);
  EXPECT_FALSE(svc->durability_failed());

  svc->submit({Edge(1, 40)}, {});
  svc->flush();
  EXPECT_FALSE(svc->durability_failed());  // healthy WAL appends

  // One transient I/O error (short write) on the next mutating op: the
  // owning shard's WAL must go sticky-failed even though the fs recovers.
  fs->fail_at_op(1);
  svc->submit({Edge(2, 41)}, {});
  svc->flush();
  EXPECT_TRUE(svc->durability_failed());

  // Sticky, and the service still serves: reads see the new edges and
  // later writes are applied and published.
  svc->submit({Edge(3, 42)}, {});
  svc->flush();
  EXPECT_TRUE(svc->durability_failed());
  auto view = svc->view();
  EXPECT_TRUE(view.has_edge(2, 41));
  EXPECT_TRUE(view.has_edge(3, 42));
}

bool has_checkpoint(MemFs& fs, const std::string& dir, uint64_t v) {
  const std::vector<std::string> names = fs.list(dir);
  return std::find(names.begin(), names.end(), checkpoint_file_name(v)) !=
         names.end();
}

// A drain fires its flush barriers at the publish and only then cuts the
// checkpoint the batch made due: flush() returns without waiting for it.
// The callback, run on the drain thread, must find no checkpoint for the
// version it was handed; teardown waits for the drain, so afterwards the
// checkpoint exists and recovery restores that version from it alone.
TEST(Sharded, FlushBarrierFiresBeforeTheDueCheckpoint) {
  FullyDynamicSpannerConfig cfg;
  cfg.k = 2;
  cfg.seed = 29;
  const size_t n = 64;
  auto initial = gen_erdos_renyi(n, 150, 7);
  auto fs = std::make_shared<MemFs>();
  ShardedConfig sc;
  // Paused: the batch drains only on flush_async's demand, after the
  // waiter is registered — so the callback runs in that drain.
  sc.start_paused = true;
  sc.durability.enabled = true;
  sc.durability.fs = fs;
  sc.durability.dir = "root";
  sc.durability.opts.checkpoint_every = 1;
  auto svc = ShardedSpannerService::single_graph(n, initial, 1, cfg, sc);

  struct Seen {
    uint64_t version;
    bool on_drain_thread;
    bool checkpoint_present;
  };
  std::promise<Seen> seen;
  const std::thread::id caller = std::this_thread::get_id();
  svc->submit({Edge(1, 40)}, {});
  svc->flush_async([&](VersionVector vv) {
    seen.set_value({vv.v[0], std::this_thread::get_id() != caller,
                    has_checkpoint(*fs, "root/shard-0", vv.v[0])});
  });
  const Seen at_barrier = seen.get_future().get();
  EXPECT_EQ(at_barrier.version, 1u);
  EXPECT_TRUE(at_barrier.on_drain_thread);
  EXPECT_FALSE(at_barrier.checkpoint_present);
  const uint64_t checksum = svc->shard_service(0).snapshot()->checksum();

  svc.reset();  // the pool stop waits for the checkpoint
  EXPECT_TRUE(has_checkpoint(*fs, "root/shard-0", 1));
  std::vector<ShardSpec> specs(1);
  specs[0].kind = ShardSpec::Kind::kFullyDynamic;
  specs[0].n = n;
  specs[0].fd = cfg;
  specs[0].fd.seed = hash_combine(cfg.seed, 0);
  std::vector<SpannerService::RecoveryReport> reps;
  auto back = ShardedSpannerService::recover(
      std::move(specs), std::make_unique<VertexRangeRouter>(n, 1), sc, &reps);
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(reps[0].restored_version, 1u);
  EXPECT_EQ(reps[0].restored_checksum, checksum);
  EXPECT_EQ(reps[0].replayed_records, 0u);
}

// A checkpoint that fails after flush() returned still goes sticky: the
// next round's drain runs only after it, so that round's flush() observes
// the failure. The shard keeps serving reads and writes, minus the claim.
TEST(Sharded, CheckpointFailureAfterFlushIsSticky) {
  FullyDynamicSpannerConfig cfg;
  cfg.k = 2;
  cfg.seed = 23;
  const size_t n = 64;
  // Initial edges among 0..31 only: each new edge between two vertices
  // above that is their only connection, so it is in the spanner.
  auto initial = gen_erdos_renyi(32, 80, 6);
  DurabilityOptions opts;
  opts.checkpoint_every = 1;

  // The mutating fs ops of one batch's WAL append, counted on a direct
  // service that never checkpoints: the op after them is the first of the
  // batch's checkpoint.
  uint64_t wal_ops = 0;
  {
    auto probe_fs = std::make_shared<MemFs>();
    DurabilityOptions no_ckpt = opts;
    no_ckpt.checkpoint_every = 0;
    SpannerService probe(
        std::make_unique<FullyDynamicSpanner>(n, initial, cfg), 2 * cfg.k - 1);
    ASSERT_TRUE(probe.enable_durability(probe_fs, "probe", no_ckpt, initial));
    probe_fs->fail_at_op(0);  // resets the op count
    probe.apply({Edge(40, 41)}, {});
    wal_ops = probe_fs->ops();
  }
  ASSERT_GT(wal_ops, 0u);

  auto fs = std::make_shared<MemFs>();
  ShardedConfig sc;
  sc.durability.enabled = true;
  sc.durability.fs = fs;
  sc.durability.dir = "root";
  sc.durability.opts = opts;
  auto svc = ShardedSpannerService::single_graph(n, initial, 1, cfg, sc);
  ASSERT_FALSE(svc->durability_failed());

  fs->fail_at_op(wal_ops + 1);  // round 1's checkpoint, after its barrier
  svc->submit({Edge(40, 41)}, {});
  svc->flush();
  svc->submit({Edge(42, 43)}, {});
  svc->flush();
  EXPECT_TRUE(svc->durability_failed());
  EXPECT_FALSE(has_checkpoint(*fs, "root/shard-0", 1));
  // Round 1's record synced before its publish; nothing later is claimed.
  EXPECT_EQ(svc->shard_service(0).durability()->durable_version(), 1u);

  svc->submit({Edge(44, 45)}, {});
  EXPECT_EQ(svc->flush().v[0], 3u);
  EXPECT_TRUE(svc->durability_failed());
  auto view = svc->view();
  EXPECT_TRUE(view.has_edge(40, 41));
  EXPECT_TRUE(view.has_edge(42, 43));
  EXPECT_TRUE(view.has_edge(44, 45));
}

// --- Concurrent shard construction and recovery. --------------------------
// Shards build and recover as one fork-join over shard indices, so nothing
// a shard writes may depend on the worker count or on which shard ran
// first: 1-worker and 4-worker runs must match byte for byte.

/// Restores the loop parallelism on scope exit, failed assertions included.
struct WorkersGuard {
  int saved = num_workers();
  ~WorkersGuard() { set_num_workers(saved); }
};

/// Two ultra-sparse and two fully-dynamic tenants, interleaved.
std::vector<ShardSpec> mixed_tenant_specs() {
  std::vector<ShardSpec> specs(4);
  for (uint32_t s = 0; s < 4; ++s) {
    ShardSpec& spec = specs[s];
    spec.n = 160 + 40 * s;
    if (s % 2 == 0) {
      spec.kind = ShardSpec::Kind::kUltraSparse;
      spec.initial = gen_random_regular(spec.n, 6, 30 + s);
      spec.ultra.seed = 40 + s;
    } else {
      spec.kind = ShardSpec::Kind::kFullyDynamic;
      spec.initial = gen_erdos_renyi(spec.n, 5 * spec.n, 30 + s);
      spec.fd.k = 2;
      spec.fd.seed = 40 + s;
    }
  }
  return specs;
}

ShardedConfig durable_tenants_config(std::shared_ptr<MemFs> fs) {
  ShardedConfig sc;
  sc.num_writers = 2;
  sc.durability.enabled = true;
  sc.durability.fs = std::move(fs);
  sc.durability.dir = "root";
  sc.durability.opts.checkpoint_every = 3;
  return sc;
}

/// Rounds of random inserts plus deletions of initial edges on every
/// tenant, each round flushed: per-shard batches are a pure function of
/// `specs`.
void churn_tenants(ShardedSpannerService& svc,
                   const std::vector<ShardSpec>& specs) {
  Rng rng(77);
  for (size_t round = 0; round < 7; ++round) {
    for (uint32_t g = 0; g < specs.size(); ++g) {
      const ShardSpec& spec = specs[g];
      std::vector<Edge> ins, del;
      for (int i = 0; i < 8; ++i) {
        VertexId u = VertexId(rng.next_below(spec.n));
        VertexId v = VertexId(rng.next_below(spec.n));
        if (u != v) ins.push_back(Edge(u, v));
      }
      for (size_t i = 0; i < 4; ++i)
        del.push_back(spec.initial[(round * 4 + i) % spec.initial.size()]);
      svc.submit(g, ins, del);
    }
    svc.flush();
  }
}

TEST(Sharded, ConcurrentBuildAndRecoverMatchSerial) {
  WorkersGuard guard;
  struct Run {
    std::shared_ptr<MemFs> fs;
    std::vector<uint64_t> versions, checksums;
    std::vector<std::vector<std::vector<uint8_t>>> genesis;  // [shard][file]
  };
  auto build = [&](int workers) {
    set_num_workers(workers);
    Run run;
    run.fs = std::make_shared<MemFs>();
    auto svc = std::make_unique<ShardedSpannerService>(
        mixed_tenant_specs(), std::make_unique<GraphIdRouter>(4),
        durable_tenants_config(run.fs));
    EXPECT_FALSE(svc->durability_failed());
    for (size_t s = 0; s < 4; ++s) {
      run.versions.push_back(svc->shard_service(s).version());
      run.checksums.push_back(svc->shard_service(s).snapshot()->checksum());
      const std::string dir = "root/shard-" + std::to_string(s);
      std::vector<std::vector<uint8_t>> files;
      for (const std::string& name : run.fs->list(dir)) {
        files.emplace_back();
        EXPECT_TRUE(run.fs->read_file(dir + "/" + name, &files.back()));
      }
      EXPECT_FALSE(files.empty()) << "shard " << s << " wrote no genesis";
      run.genesis.push_back(std::move(files));
    }
    churn_tenants(*svc, mixed_tenant_specs());
    svc.reset();  // crash: drop the service, keep only what hit the fs
    Rng tail_rng(5);
    run.fs->crash_and_restart(CrashTail::kKeepPrefix, tail_rng);
    return run;
  };
  const Run serial = build(1);
  const Run wide = build(4);
  EXPECT_EQ(serial.versions, wide.versions);
  EXPECT_EQ(serial.checksums, wide.checksums);
  EXPECT_EQ(serial.genesis, wide.genesis);

  auto recover = [&](const Run& run, int workers,
                     std::vector<SpannerService::RecoveryReport>* reps) {
    set_num_workers(workers);
    auto back = ShardedSpannerService::recover(
        mixed_tenant_specs(), std::make_unique<GraphIdRouter>(4),
        durable_tenants_config(run.fs), reps);
    std::vector<uint64_t> checksums;
    if (back == nullptr) return checksums;
    for (size_t s = 0; s < 4; ++s) {
      SpannerSnapshot::Ptr snap = back->shard_service(s).snapshot();
      EXPECT_TRUE(snap->consistent()) << "shard " << s;
      checksums.push_back(snap->checksum());
    }
    return checksums;
  };
  std::vector<SpannerService::RecoveryReport> serial_reps, wide_reps;
  const std::vector<uint64_t> serial_sums = recover(serial, 1, &serial_reps);
  const std::vector<uint64_t> wide_sums = recover(wide, 4, &wide_reps);
  ASSERT_EQ(serial_sums.size(), 4u);
  EXPECT_EQ(serial_sums, wide_sums);
  ASSERT_EQ(serial_reps.size(), 4u);
  ASSERT_EQ(wide_reps.size(), 4u);
  for (size_t s = 0; s < 4; ++s) {
    const auto& a = serial_reps[s];
    const auto& b = wide_reps[s];
    EXPECT_GT(a.restored_version, 0u) << "shard " << s;
    EXPECT_EQ(a.restored_version, b.restored_version) << "shard " << s;
    EXPECT_EQ(a.restored_checksum, b.restored_checksum) << "shard " << s;
    EXPECT_EQ(a.replayed_records, b.replayed_records) << "shard " << s;
    EXPECT_EQ(a.tail_truncated, b.tail_truncated) << "shard " << s;
    EXPECT_EQ(a.published_version, b.published_version) << "shard " << s;
  }
}

// Recovery stays all-or-nothing when the shards recover concurrently: one
// shard without a checkpoint fails the whole call, every time. The other
// shards have each attempted their rebase by then (the one behaviour the
// fan-out changes), and each still recovers on its own to a consistent
// snapshot no older than what it had made durable before the crash.
TEST(Sharded, RecoverFanOutStaysAllOrNothing) {
  WorkersGuard guard;
  set_num_workers(4);
  auto fs = std::make_shared<MemFs>();
  const ShardedConfig sc = durable_tenants_config(fs);
  std::vector<uint64_t> durable(4);
  {
    ShardedSpannerService svc(mixed_tenant_specs(),
                              std::make_unique<GraphIdRouter>(4), sc);
    churn_tenants(svc, mixed_tenant_specs());
    for (size_t s = 0; s < 4; ++s)
      durable[s] = svc.shard_service(s).durability()->durable_version();
  }
  const size_t lost = 2;
  const std::string lost_dir = "root/shard-" + std::to_string(lost);
  for (const std::string& name : fs->list(lost_dir))
    if (parse_checkpoint_file_name(name))
      ASSERT_TRUE(fs->remove(lost_dir + "/" + name));

  for (int attempt = 0; attempt < 2; ++attempt)
    EXPECT_EQ(ShardedSpannerService::recover(
                  mixed_tenant_specs(), std::make_unique<GraphIdRouter>(4), sc),
              nullptr)
        << "attempt " << attempt;

  const std::vector<ShardSpec> specs = mixed_tenant_specs();
  for (size_t s = 0; s < 4; ++s) {
    if (s == lost) continue;
    const ShardSpec& spec = specs[s];
    auto make_fd = [&spec](uint64_t n, const std::vector<Edge>& edges,
                           uint32_t) {
      return std::make_unique<FullyDynamicSpanner>(size_t(n), edges, spec.fd);
    };
    auto make_ultra = [&spec](uint64_t n, const std::vector<Edge>& edges,
                              uint32_t) {
      return std::make_unique<UltraSparseSpanner>(size_t(n), edges,
                                                  spec.ultra);
    };
    const std::string dir = "root/shard-" + std::to_string(s);
    std::unique_ptr<SpannerService> svc =
        spec.kind == ShardSpec::Kind::kUltraSparse
            ? SpannerService::recover(fs, dir, sc.durability.opts, make_ultra)
            : SpannerService::recover(fs, dir, sc.durability.opts, make_fd);
    ASSERT_NE(svc, nullptr) << "shard " << s;
    EXPECT_TRUE(svc->snapshot()->consistent()) << "shard " << s;
    EXPECT_GE(svc->version(), durable[s]) << "shard " << s;
  }
}

}  // namespace
}  // namespace parspan
