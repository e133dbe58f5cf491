// Service-layer benchmarks (DESIGN.md §8): mixed read/write throughput of
// the concurrent serving stack, and the incremental snapshot publish
// against a full re-export.
//
// BM_ServiceMixedReadWrite: one writer thread applies batches at a fixed
// pace (publishing one snapshot version per batch) while `readers` threads
// hammer the store — acquire a snapshot, answer a block of has_edge /
// neighbors / bounded-BFS distance queries against it, re-acquire. The
// reported `agg_reads_per_sec` is the aggregate query rate across readers;
// scaling it with the reader count at a fixed write rate is the layer's
// acceptance criterion (read-side work shares nothing but the immutable
// snapshot, so on a multi-core host it scales with cores).
//
// BM_SnapshotPublish / BM_SnapshotReexport: the cost of producing the next
// version incrementally (the checked patch of SpannerSnapshot::apply) vs
// re-exporting spanner_edges() and rebuilding from scratch — the trade the
// incremental path exists for. BM_SnapshotPublishUltra replays 1024-update
// UltraSparseSpanner diffs instead, which touch most vertices and so take
// apply's flat-rewrite path on every publish.
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include "core/fully_dynamic_spanner.hpp"
#include "core/ultra.hpp"
#include "graph/generators.hpp"
#include "service/spanner_service.hpp"

namespace parspan {
namespace {

// PARSPAN_BENCH_TINY=1: smoke-test sizes for the CI bench-smoke job (the
// fixture costs dominate a --benchmark_min_time=0.01s run at full size).
const bool kTiny = [] {
  const char* e = std::getenv("PARSPAN_BENCH_TINY");
  return e != nullptr && *e != '\0' && *e != '0';
}();

const size_t kN = kTiny ? 512 : 4096;
constexpr uint32_t kK = 3;
const size_t kBatch = kTiny ? 32 : 64;
const size_t kNumBatches = kTiny ? 4 : 24;

std::unique_ptr<SpannerService> make_service(
    std::vector<Edge> const& initial) {
  FullyDynamicSpannerConfig cfg;
  cfg.k = kK;
  cfg.seed = 3;
  return std::make_unique<SpannerService>(
      std::make_unique<FullyDynamicSpanner>(kN, initial, cfg), 2 * kK - 1);
}

void BM_ServiceMixedReadWrite(benchmark::State& state) {
  const int readers = int(state.range(0));
  const size_t m = size_t(3.0 * std::pow(double(kN), 1.0 + 1.0 / kK));
  auto [initial, batches] =
      gen_mixed_stream(kN, m, kBatch, kNumBatches, 17);

  double total_reads = 0, total_secs = 0, batches_applied = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto svc = make_service(initial);
    std::atomic<bool> done{false};
    std::vector<uint64_t> reads(size_t(readers), 0);
    state.ResumeTiming();

    auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> pool;
    pool.reserve(size_t(readers));
    for (int t = 0; t < readers; ++t) {
      pool.emplace_back([&, t] {
        uint64_t ops = 0, sink = 0;
        uint64_t x = uint64_t(t) * 0x9e3779b97f4a7c15ULL + 1;
        while (!done.load(std::memory_order_acquire)) {
          SpannerSnapshot::Ptr s = svc->snapshot();
          // One pinned snapshot serves a block of queries — the
          // per-request pattern of a serving frontend.
          for (int q = 0; q < 64; ++q) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;  // xorshift64
            VertexId u = VertexId(x % kN);
            auto nb = s->neighbors(u);
            sink += nb.size();
            VertexId v = nb.empty() ? VertexId((u + 1) % kN)
                                    : nb[size_t(x >> 32) % nb.size()];
            sink += s->has_edge(u, v);
            if ((q & 15) == 0) sink += s->distance(u, v, 3);
            ++ops;
          }
        }
        benchmark::DoNotOptimize(sink);
        reads[size_t(t)] = ops;
      });
    }

    // Fixed write rate: one batch every 10 ms, regardless of reader count.
    // The period is chosen well above a solo apply() (~2.5 ms at this size)
    // so the pace genuinely holds when cores are available; the
    // writes_per_sec counter reports the achieved rate — if it sags below
    // ~100/s the host is oversubscribed (e.g. a 1-core container
    // time-slicing readers against the writer) and the read-scaling
    // numbers should be read accordingly.
    for (auto& b : batches) {
      auto next = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(10);
      svc->apply(b.insertions, b.deletions);
      std::this_thread::sleep_until(next);
    }
    done.store(true, std::memory_order_release);
    for (auto& th : pool) th.join();
    auto t1 = std::chrono::steady_clock::now();

    double secs = std::chrono::duration<double>(t1 - t0).count();
    for (uint64_t r : reads) total_reads += double(r);
    total_secs += secs;
    batches_applied += double(kNumBatches);
  }
  state.counters["agg_reads_per_sec"] = total_reads / total_secs;
  state.counters["reads_per_sec_per_reader"] =
      total_reads / total_secs / double(readers);
  state.counters["writes_per_sec"] = batches_applied / total_secs;
  state.counters["readers"] = double(readers);
  state.SetItemsProcessed(int64_t(total_reads));
}

BENCHMARK(BM_ServiceMixedReadWrite)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Iterations(3);

// --- Incremental publish vs full re-export. -------------------------------

void BM_SnapshotPublish(benchmark::State& state) {
  const size_t m = size_t(3.0 * std::pow(double(kN), 1.0 + 1.0 / kK));
  auto [initial, batches] = gen_mixed_stream(kN, m, kBatch, kNumBatches, 17);
  FullyDynamicSpannerConfig cfg;
  cfg.k = kK;
  cfg.seed = 3;
  FullyDynamicSpanner sp(kN, initial, cfg);
  auto snap = SpannerSnapshot::initial(kN, sp.spanner_edges(), 2 * kK - 1);
  // Pre-run the updates; replay the recorded diffs through the snapshot
  // layer alone, so the timing isolates the publish path.
  std::vector<SpannerDiff> diffs;
  for (auto& b : batches) diffs.push_back(sp.update(b.insertions, b.deletions));
  size_t published = 0;
  for (auto _ : state) {
    auto cur = snap;
    for (auto& d : diffs) {
      cur = SpannerSnapshot::apply(*cur, d);
      benchmark::DoNotOptimize(cur->checksum());
      ++published;
    }
  }
  state.SetItemsProcessed(int64_t(published));
}

BENCHMARK(BM_SnapshotPublish)->Unit(benchmark::kMillisecond);

void BM_SnapshotPublishUltra(benchmark::State& state) {
  // The perfbench tenants fixture, one tenant: m = 8n, 1024-update batches.
  const size_t batch = kTiny ? 128 : 1024;
  auto [initial, batches] =
      gen_mixed_stream(kN, 8 * kN, batch, kNumBatches, 19);
  UltraConfig cfg;
  cfg.seed = 3;
  UltraSparseSpanner sp(kN, initial, cfg);
  auto snap =
      SpannerSnapshot::initial(kN, sp.spanner_edges(), sp.stretch_bound());
  std::vector<SpannerDiff> diffs;
  for (auto& b : batches) diffs.push_back(sp.update(b.insertions, b.deletions));
  size_t published = 0, flat = 0;
  for (auto _ : state) {
    auto cur = snap;
    for (auto& d : diffs) {
      cur = SpannerSnapshot::apply(*cur, d);
      benchmark::DoNotOptimize(cur->checksum());
      flat += cur->flat();
      ++published;
    }
  }
  state.SetItemsProcessed(int64_t(published));
  state.counters["flat_share"] = double(flat) / double(published);
}

BENCHMARK(BM_SnapshotPublishUltra)->Unit(benchmark::kMillisecond);

void BM_SnapshotReexport(benchmark::State& state) {
  // The alternative the incremental path replaces: export the full spanner
  // from the dynamic structure and rebuild a snapshot per batch.
  const size_t m = size_t(3.0 * std::pow(double(kN), 1.0 + 1.0 / kK));
  auto initial = gen_erdos_renyi(kN, m, 17);
  FullyDynamicSpannerConfig cfg;
  cfg.k = kK;
  cfg.seed = 3;
  FullyDynamicSpanner sp(kN, initial, cfg);
  size_t published = 0;
  for (auto _ : state) {
    for (size_t i = 0; i < kNumBatches; ++i) {
      auto cur = SpannerSnapshot::initial(kN, sp.spanner_edges(), 2 * kK - 1);
      benchmark::DoNotOptimize(cur->checksum());
      ++published;
    }
  }
  state.SetItemsProcessed(int64_t(published));
}

BENCHMARK(BM_SnapshotReexport)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace parspan

BENCHMARK_MAIN();
