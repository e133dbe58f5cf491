// Sharded ingestion: async writes across shards, stitched reads, and the
// flush() read-your-writes barrier (DESIGN.md §9).
//
// Build:  cmake -B build -G Ninja && cmake --build build
// Run:    ./build/example_sharded_ingest
//
// One producer thread streams mixed batches into a ShardedSpannerService —
// a single 3000-vertex graph partitioned across 4 vertex-range shards,
// each its own FullyDynamicSpanner behind a coalescing BatchQueue, drained
// by a pool of writer threads that publish per-shard snapshot versions
// independently. submit() returns as soon as the batch is queued; readers
// pin cross-shard ShardedViews (one immutable snapshot per shard) and run
// bounded BFS that stitches cut edges at shard boundaries. A final flush()
// proves read-your-writes: a probe edge submitted just before the barrier
// is visible in the very next view.
#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "graph/generators.hpp"
#include "service/sharded_service.hpp"

using namespace parspan;

int main() {
  const size_t n = 3000;
  const uint32_t shards = 4;
  const uint32_t k = 3;  // per-shard stretch 2k-1 = 5
  const size_t num_batches = 60;

  auto [initial, batches] = gen_mixed_stream(n, 12 * n, 256, num_batches, 7);

  FullyDynamicSpannerConfig cfg;
  cfg.k = k;
  cfg.seed = 42;
  ShardedConfig sc;
  sc.num_writers = 4;
  auto svc = ShardedSpannerService::single_graph(n, initial, shards, cfg, sc);

  ShardedView v0 = svc->view();
  std::printf("serving %u shards: %zu vertices, %zu composed spanner edges\n",
              shards, n, v0.num_edges());
  for (size_t s = 0; s < shards; ++s)
    std::printf("  shard %zu: version %zu, %zu edges\n", s,
                size_t(v0.shard(s).version()), v0.shard(s).num_edges());

  // Readers: pin a cross-shard view, answer stitched queries, refresh.
  std::atomic<bool> done{false};
  const int R = 2;
  std::vector<uint64_t> reads(R, 0);
  std::vector<std::thread> readers;
  for (int t = 0; t < R; ++t) {
    readers.emplace_back([&, t] {
      uint64_t ops = 0, sink = 0;
      uint64_t x = uint64_t(t) + 0x9e3779b97f4a7c15ULL;
      while (!done.load(std::memory_order_acquire)) {
        ShardedView view = svc->view();
        for (int q = 0; q < 256; ++q) {
          x = splitmix64(x);
          VertexId u = VertexId(x % n);
          auto nb = view.neighbors(u);
          sink += nb.size();
          if (!nb.empty()) sink += view.has_edge(u, nb[0]);
          if ((q & 63) == 0)
            sink += view.distance(u, VertexId((u + n / 2) % n), 4);
          ++ops;
        }
      }
      reads[size_t(t)] = ops + (sink == 0xdead ? 1 : 0);
    });
  }

  // Producer: fire-and-forget submits — the router splits each batch
  // across the owning shards' queues; writer threads drain concurrently.
  for (const auto& b : batches) svc->submit(b.insertions, b.deletions);

  // Read-your-writes: submit a probe edge, then flush. The barrier
  // returns the published VersionVector; every later view dominates it
  // and must contain the probe's effect.
  const Edge probe(VertexId(1), VertexId(n - 1));  // spans shard 0 -> 3
  svc->submit({probe}, {});
  VersionVector vv = svc->flush();
  ShardedView after = svc->view();
  done.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();

  std::printf("flushed: per-shard versions [");
  for (size_t s = 0; s < vv.v.size(); ++s)
    std::printf("%s%zu", s ? ", " : "", size_t(vv.v[s]));
  std::printf("], view dominates barrier: %s\n",
              after.versions().dominates(vv) ? "YES" : "NO");
  std::printf("probe edge (%u, %u) visible after flush: %s (distance %u)\n",
              probe.u, probe.v, after.has_edge(probe.u, probe.v) ? "YES" : "NO",
              after.distance(probe.u, probe.v, 2 * k - 1));

  uint64_t total_reads = 0;
  for (int t = 0; t < R; ++t) {
    std::printf("reader %d: %zu stitched query blocks\n", t,
                size_t(reads[size_t(t)]));
    total_reads += reads[size_t(t)];
  }
  std::printf("ingested %zu edge updates across %u shards; "
              "total concurrent reads: %zu\n",
              size_t(svc->edges_ingested()), shards, size_t(total_reads));
  return 0;
}
