// Replication benchmarks (DESIGN.md §11): what WAL shipping costs on top
// of ingest, how fast a lagging follower closes a gap, and what a failover
// promotion costs end to end.
//
// All three run over MemFs + ChannelTransport: the subject is the
// replication protocol (frame encode/verify, checked replay, the
// follower's own WAL/checkpoint chain), not disk or network latency —
// bench_wal.cpp already prices the disk.
//
// BM_ShipApplyThroughput: steady-state leader apply -> ship -> follower
// verified-apply, one pump round per batch (the replication thread's loop
// body), reported as edges/sec through BOTH sides.
//
// BM_FollowerCatchup: the follower sits out L batches, then one pump
// round ships and applies the whole (cursor, durable] gap — the record
// path only (a snapshot resync mid-measurement is a skip error), reported
// as records/sec. This is the curve that says how much lag a pump cadence
// can carry before snapshot resync becomes the cheaper bootstrap.
//
// BM_FailoverPromote: SpannerService::recover over a converged follower's
// own chain — exactly promote_follower's work: checksum-verified replay,
// backend rebuild, rebase publish, forced checkpoint. Reported per
// promotion; this is the wall-clock cost of losing a leader.
//
// BM_Tcp*: the same three questions over REAL loopback sockets —
// ReplicationListener + SocketTransport, the exact path replicad runs —
// so the JSON trajectory prices frame framing, CRC-on-the-wire, and
// kernel socket hops on top of the protocol-only numbers above.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "core/fully_dynamic_spanner.hpp"
#include "durability/fault_fs.hpp"
#include "graph/generators.hpp"
#include "replication/follower.hpp"
#include "replication/log_shipper.hpp"
#include "replication/socket_transport.hpp"
#include "service/spanner_service.hpp"

namespace parspan {
namespace {

constexpr size_t kN = 2048;
constexpr uint32_t kK = 3;
constexpr size_t kBatch = 128;
constexpr size_t kPoolBatches = 256;

std::unique_ptr<SpannerService> make_service(const std::vector<Edge>& initial,
                                             uint64_t seed) {
  FullyDynamicSpannerConfig cfg;
  cfg.k = kK;
  cfg.seed = seed;
  return std::make_unique<SpannerService>(
      std::make_unique<FullyDynamicSpanner>(kN, initial, cfg), 2 * kK - 1);
}

// One long-lived leader + 1-follower pair, reused across benchmark calls
// (steady state must survive the estimation runs).
struct ReplRig {
  std::shared_ptr<MemFs> leader_fs;
  std::shared_ptr<MemFs> follower_fs;
  std::unique_ptr<SpannerService> svc;
  std::unique_ptr<LogShipper> shipper;
  std::unique_ptr<FollowerReplica> follower;
  std::vector<UpdateBatch> pool;
  size_t next = 0;
  bool ok = false;

  uint64_t durable() const { return svc->durability()->durable_version(); }
  // One replication round: ship up to the durable watermark, then apply.
  void pump() {
    shipper->pump(durable());
    follower->pump();
  }
  bool converged() const {
    return follower->epoch() == shipper->epoch() &&
           follower->applied_version() == durable();
  }
};

ReplRig& repl_rig() {
  static ReplRig rig;
  if (rig.svc != nullptr) return rig;
  auto [initial, batches] =
      gen_mixed_stream(kN, 6 * kN, kBatch, kPoolBatches, 17);
  rig.pool = std::move(batches);
  rig.leader_fs = std::make_shared<MemFs>();
  rig.follower_fs = std::make_shared<MemFs>();
  rig.svc = make_service(initial, 3);
  DurabilityOptions opts;
  opts.checkpoint_every = 256;
  opts.keep_checkpoints = 4;  // retain enough WAL for any lagging cursor
  rig.ok = rig.svc->enable_durability(rig.leader_fs, "leader", opts, initial);
  if (!rig.ok) return rig;
  auto transport = std::make_shared<ChannelTransport>();
  rig.shipper = std::make_unique<LogShipper>(rig.leader_fs, "leader",
                                             /*epoch=*/1, transport);
  rig.follower = std::make_unique<FollowerReplica>(rig.follower_fs, "f0",
                                                   opts, transport);
  // Warm until the follower has adopted its seed snapshot and tracks the
  // leader incrementally — measured iterations are record-path only.
  for (int i = 0; i < 4; ++i) rig.pump();
  for (size_t i = 0; i < 8; ++i) {
    const UpdateBatch& b = rig.pool[rig.next++ % rig.pool.size()];
    rig.svc->apply(b.insertions, b.deletions);
    rig.pump();
  }
  rig.ok = rig.converged();
  return rig;
}

void BM_ShipApplyThroughput(benchmark::State& state) {
  ReplRig& rig = repl_rig();
  if (!rig.ok) {
    state.SkipWithError("replication rig failed to converge");
    return;
  }
  size_t edges = 0;
  for (auto _ : state) {
    const UpdateBatch& b = rig.pool[rig.next++ % rig.pool.size()];
    rig.svc->apply(b.insertions, b.deletions);
    rig.pump();
    edges += b.insertions.size() + b.deletions.size();
  }
  if (!rig.converged() || rig.follower->rejects() != 0) {
    state.SkipWithError("follower diverged mid-bench");
    return;
  }
  state.counters["edges_per_sec"] =
      benchmark::Counter(double(edges), benchmark::Counter::kIsRate);
  state.counters["batch_edges"] = double(kBatch);
}
BENCHMARK(BM_ShipApplyThroughput)->Unit(benchmark::kMicrosecond);

// range(0): how many records behind the follower starts.
void BM_FollowerCatchup(benchmark::State& state) {
  ReplRig& rig = repl_rig();
  if (!rig.ok) {
    state.SkipWithError("replication rig failed to converge");
    return;
  }
  const size_t lag = size_t(state.range(0));
  double total_records = 0;
  for (auto _ : state) {
    state.PauseTiming();
    const uint64_t resyncs = rig.follower->snapshot_resyncs();
    for (size_t i = 0; i < lag; ++i) {
      const UpdateBatch& b = rig.pool[rig.next++ % rig.pool.size()];
      rig.svc->apply(b.insertions, b.deletions);
    }
    state.ResumeTiming();
    for (int round = 0; round < 4 && !rig.converged(); ++round) rig.pump();
    if (!rig.converged()) state.SkipWithError("catch-up did not converge");
    if (rig.follower->snapshot_resyncs() != resyncs)
      state.SkipWithError("snapshot resync during record catch-up");
    total_records += double(lag);
  }
  state.counters["records_per_sec"] =
      benchmark::Counter(total_records, benchmark::Counter::kIsRate);
  state.counters["lag_records"] = double(lag);
}
BENCHMARK(BM_FollowerCatchup)
    ->Arg(16)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond);

// Promotion cost: recover a full leader from a converged follower's own
// chain. Each iteration replays the chain, rebuilds the backend, publishes
// the rebase, and cuts the forced checkpoint — then tears the new leader
// down so the next iteration gets the chain back (each cycle appends one
// rebase record, so the chain stays ~constant size).
void BM_FailoverPromote(benchmark::State& state) {
  auto [initial, batches] =
      gen_mixed_stream(kN, 6 * kN, kBatch, 64, 29);
  auto leader_fs = std::make_shared<MemFs>();
  auto follower_fs = std::make_shared<MemFs>();
  DurabilityOptions opts;
  opts.checkpoint_every = 256;
  FullyDynamicSpannerConfig cfg;
  cfg.k = kK;
  cfg.seed = 5;
  {
    auto svc = make_service(initial, 5);
    if (!svc->enable_durability(leader_fs, "leader", opts, initial)) {
      state.SkipWithError("enable_durability failed");
      return;
    }
    auto transport = std::make_shared<ChannelTransport>();
    LogShipper shipper(leader_fs, "leader", /*epoch=*/1, transport);
    FollowerReplica follower(follower_fs, "f0", opts, transport);
    const auto pump = [&] {
      shipper.pump(svc->durability()->durable_version());
      follower.pump();
    };
    for (const auto& b : batches) {
      svc->apply(b.insertions, b.deletions);
      pump();
    }
    pump();
    if (follower.applied_version() != svc->durability()->durable_version()) {
      state.SkipWithError("setup follower did not converge");
      return;
    }
  }  // follower torn down: its WAL is closed, the chain is promotable

  const auto make_backend = [cfg](uint64_t n, const std::vector<Edge>& edges,
                                  uint32_t) {
    return std::make_unique<FullyDynamicSpanner>(static_cast<size_t>(n),
                                                 edges, cfg);
  };
  for (auto _ : state) {
    auto promoted =
        SpannerService::recover(follower_fs, "f0", opts, make_backend);
    if (promoted == nullptr) state.SkipWithError("promotion failed");
    benchmark::DoNotOptimize(promoted);
  }
  state.counters["chain_records"] = double(batches.size());
}
BENCHMARK(BM_FailoverPromote)->Unit(benchmark::kMillisecond);

// --- TCP rows: the replicad wire path ---------------------------------------

// One long-lived leader + TCP follower over loopback: ReplicationListener
// accept, SocketTransport both ends, FollowerReplica/LogShipper pumping
// through real kernel sockets. Chain state is MemFs on both sides so the
// delta against the Channel rows above is exactly the wire.
struct TcpRig {
  std::shared_ptr<MemFs> leader_fs = std::make_shared<MemFs>();
  std::shared_ptr<MemFs> follower_fs = std::make_shared<MemFs>();
  std::unique_ptr<SpannerService> svc;
  ReplicationListener listener;
  std::shared_ptr<SocketTransport> dialed;    // follower end
  std::shared_ptr<SocketTransport> accepted;  // leader end
  std::unique_ptr<FollowerReplica> follower;
  std::unique_ptr<LogShipper> shipper;
  std::vector<UpdateBatch> pool;
  size_t next = 0;
  bool ok = false;

  // Drives both pump loops until the follower has verified-applied the
  // leader's durable watermark. False on wire death or timeout.
  bool pump_to(uint64_t durable) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (follower->applied_version() < durable) {
      follower->pump();
      accepted->poll();
      shipper->pump(durable);
      if (dialed->peer_gone() || accepted->peer_gone() ||
          std::chrono::steady_clock::now() > deadline)
        return false;
    }
    return true;
  }
};

TcpRig& tcp_rig() {
  static TcpRig rig;
  if (rig.svc != nullptr) return rig;
  auto [initial, batches] =
      gen_mixed_stream(kN, 6 * kN, kBatch, kPoolBatches, 23);
  rig.pool = std::move(batches);
  rig.svc = make_service(initial, 7);
  DurabilityOptions opts;
  opts.checkpoint_every = 256;
  opts.keep_checkpoints = 4;
  if (!rig.svc->enable_durability(rig.leader_fs, "leader", opts, initial))
    return rig;
  if (!rig.listener.start("127.0.0.1", 0)) return rig;
  rig.dialed = SocketTransport::connect("127.0.0.1", rig.listener.port(),
                                        /*follower_id=*/1);
  if (rig.dialed == nullptr) return rig;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (rig.accepted == nullptr &&
         std::chrono::steady_clock::now() < deadline) {
    rig.listener.poll();
    auto got = rig.listener.take_accepted();
    if (!got.empty()) rig.accepted = std::move(got[0].transport);
  }
  if (rig.accepted == nullptr) return rig;
  rig.follower = std::make_unique<FollowerReplica>(rig.follower_fs, "f0",
                                                   opts, rig.dialed);
  rig.shipper = std::make_unique<LogShipper>(rig.leader_fs, "leader",
                                             /*epoch=*/1, rig.accepted);
  // Warm through the snapshot seeding; measured iterations are
  // record-path only, same contract as the Channel rig.
  for (size_t i = 0; i < 8; ++i) {
    const UpdateBatch& b = rig.pool[rig.next++ % rig.pool.size()];
    rig.svc->apply(b.insertions, b.deletions);
    if (!rig.pump_to(rig.svc->durability()->durable_version())) return rig;
  }
  rig.ok = rig.follower->rejects() == 0;
  return rig;
}

void BM_TcpShipApplyThroughput(benchmark::State& state) {
  TcpRig& rig = tcp_rig();
  if (!rig.ok) {
    state.SkipWithError("tcp rig failed to converge");
    return;
  }
  size_t edges = 0;
  for (auto _ : state) {
    const UpdateBatch& b = rig.pool[rig.next++ % rig.pool.size()];
    rig.svc->apply(b.insertions, b.deletions);
    if (!rig.pump_to(rig.svc->durability()->durable_version())) {
      state.SkipWithError("wire died mid-bench");
      return;
    }
    edges += b.insertions.size() + b.deletions.size();
  }
  if (rig.follower->rejects() != 0) {
    state.SkipWithError("follower rejected frames over TCP");
    return;
  }
  state.counters["edges_per_sec"] =
      benchmark::Counter(double(edges), benchmark::Counter::kIsRate);
  state.counters["batch_edges"] = double(kBatch);
}
BENCHMARK(BM_TcpShipApplyThroughput)->Unit(benchmark::kMicrosecond);

// range(0): records of lag the wire has to close in one catch-up burst.
void BM_TcpFollowerCatchup(benchmark::State& state) {
  TcpRig& rig = tcp_rig();
  if (!rig.ok) {
    state.SkipWithError("tcp rig failed to converge");
    return;
  }
  const size_t lag = size_t(state.range(0));
  double total_records = 0;
  for (auto _ : state) {
    state.PauseTiming();
    const uint64_t resyncs = rig.follower->snapshot_resyncs();
    for (size_t i = 0; i < lag; ++i) {
      const UpdateBatch& b = rig.pool[rig.next++ % rig.pool.size()];
      rig.svc->apply(b.insertions, b.deletions);
    }
    state.ResumeTiming();
    if (!rig.pump_to(rig.svc->durability()->durable_version()))
      state.SkipWithError("tcp catch-up did not converge");
    if (rig.follower->snapshot_resyncs() != resyncs)
      state.SkipWithError("snapshot resync during record catch-up");
    total_records += double(lag);
  }
  state.counters["records_per_sec"] =
      benchmark::Counter(total_records, benchmark::Counter::kIsRate);
  state.counters["lag_records"] = double(lag);
}
BENCHMARK(BM_TcpFollowerCatchup)
    ->Arg(16)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond);

// Failover to first serving read, over a chain the TCP path populated:
// per iteration, recover a full service from the converged follower's own
// chain and take the first snapshot read off it. Lease EXPIRY time is a
// config constant (lease_ms), not work — what failover actually costs in
// machine time is this recovery, and that is the row worth trending.
void BM_TcpFailoverToFirstServingRead(benchmark::State& state) {
  auto [initial, batches] =
      gen_mixed_stream(kN, 6 * kN, kBatch, 64, 31);
  DurabilityOptions opts;
  opts.checkpoint_every = 256;
  FullyDynamicSpannerConfig cfg;
  cfg.k = kK;
  cfg.seed = 11;
  auto leader_fs = std::make_shared<MemFs>();
  auto follower_fs = std::make_shared<MemFs>();
  {
    auto svc = make_service(initial, 11);
    if (!svc->enable_durability(leader_fs, "leader", opts, initial)) {
      state.SkipWithError("enable_durability failed");
      return;
    }
    ReplicationListener listener;
    if (!listener.start("127.0.0.1", 0)) {
      state.SkipWithError("listener failed to bind");
      return;
    }
    auto dialed =
        SocketTransport::connect("127.0.0.1", listener.port(), /*id=*/1);
    std::shared_ptr<SocketTransport> accepted;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (accepted == nullptr &&
           std::chrono::steady_clock::now() < deadline) {
      listener.poll();
      auto got = listener.take_accepted();
      if (!got.empty()) accepted = std::move(got[0].transport);
    }
    if (dialed == nullptr || accepted == nullptr) {
      state.SkipWithError("tcp accept failed");
      return;
    }
    FollowerReplica follower(follower_fs, "f0", opts, dialed);
    LogShipper shipper(leader_fs, "leader", /*epoch=*/1, accepted);
    for (const auto& b : batches) {
      svc->apply(b.insertions, b.deletions);
      const uint64_t durable = svc->durability()->durable_version();
      const auto d2 =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (follower.applied_version() < durable &&
             std::chrono::steady_clock::now() < d2) {
        follower.pump();
        accepted->poll();
        shipper.pump(durable);
      }
    }
    if (follower.rejects() != 0) {
      state.SkipWithError("tcp setup follower rejected frames");
      return;
    }
  }  // follower torn down: WAL closed, chain promotable

  const auto make_backend = [cfg](uint64_t n, const std::vector<Edge>& edges,
                                  uint32_t) {
    return std::make_unique<FullyDynamicSpanner>(static_cast<size_t>(n),
                                                 edges, cfg);
  };
  for (auto _ : state) {
    auto promoted =
        SpannerService::recover(follower_fs, "f0", opts, make_backend);
    if (promoted == nullptr) {
      state.SkipWithError("promotion failed");
      return;
    }
    auto snap = promoted->snapshot();  // the first read the node can serve
    benchmark::DoNotOptimize(snap->checksum());
  }
  state.counters["chain_records"] = double(batches.size());
}
BENCHMARK(BM_TcpFailoverToFirstServingRead)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace parspan

BENCHMARK_MAIN();
