// Differential chaos suite for WAL-shipping replication (DESIGN.md §11.6).
//
// The oracle is the leader's own publish history: apply() is deterministic
// in (backend construction, batch history), so checksum-by-version of the
// crash-free leader run says exactly what every follower state must hash
// to. The invariant checked EVERYWHERE — after every pump round, under
// every transport fault schedule, across follower crashes — is:
//
//   a follower's (applied_version, applied_checksum) is always a point of
//   the leader's durable history, and the follower eventually converges to
//   the leader's durable watermark (possibly via an explicit, counted
//   reject + snapshot resync). Silent divergence == any follower state
//   whose checksum is not the oracle's at that version == instant failure.
//
// Transport faults mirror the MemFs crash harness: drop, duplicate,
// reorder, truncate, bit-flip, cursor loss, partition — all driven by a
// seeded Rng so any failing schedule replays exactly.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/fully_dynamic_spanner.hpp"
#include "durability/fault_fs.hpp"
#include "graph/generators.hpp"
#include "replication/failover.hpp"
#include "replication/replica_set.hpp"
#include "service/sharded_service.hpp"
#include "util/rng.hpp"

namespace parspan {
namespace {

bool tiny_sweep() {
  const char* env = std::getenv("PARSPAN_SWEEP_TINY");
  return env != nullptr && env[0] == '1';
}

struct Workload {
  size_t n = 120;
  std::vector<Edge> initial;
  std::vector<UpdateBatch> batches;
  FullyDynamicSpannerConfig cfg;
};

Workload make_workload(uint64_t seed) {
  Workload w;
  auto [initial, batches] = gen_mixed_stream(w.n, 700, 40, 12, seed);
  w.initial = std::move(initial);
  w.batches = std::move(batches);
  w.cfg.k = 3;
  w.cfg.seed = seed * 7 + 1;
  return w;
}

std::unique_ptr<SpannerService> make_service(const Workload& w) {
  return std::make_unique<SpannerService>(
      std::make_unique<FullyDynamicSpanner>(w.n, w.initial, w.cfg),
      2 * w.cfg.k - 1);
}

// A fully ingested leader over MemFs plus its checksum-by-version oracle —
// shared across the property sweep (the leader's WAL history is a pure
// function of the workload, independent of any transport).
struct LeaderFixture {
  std::shared_ptr<MemFs> fs;
  std::unique_ptr<SpannerService> svc;
  std::vector<uint64_t> oracle;  // checksum by version
};

LeaderFixture make_ingested_leader(const Workload& w,
                                   const DurabilityOptions& opts) {
  LeaderFixture lf;
  lf.fs = std::make_shared<MemFs>();
  lf.svc = make_service(w);
  EXPECT_TRUE(lf.svc->enable_durability(lf.fs, "leader", opts, w.initial));
  lf.oracle.push_back(lf.svc->snapshot()->checksum());
  for (const auto& b : w.batches) {
    auto r = lf.svc->apply(b.insertions, b.deletions);
    lf.oracle.push_back(r.snapshot->checksum());
  }
  EXPECT_FALSE(lf.svc->durability()->failed());
  return lf;
}

// THE divergence check: any follower state must be a point of the oracle.
void assert_on_oracle(const FollowerReplica& f,
                      const std::vector<uint64_t>& oracle) {
  if (!f.has_state()) return;
  ASSERT_LT(f.applied_version(), oracle.size());
  ASSERT_EQ(f.applied_checksum(), oracle[f.applied_version()])
      << "SILENT DIVERGENCE at version " << f.applied_version();
}

// --- Healthy-channel convergence + read-your-writes spreading --------------

TEST(Replication, ConvergesAndSpreadsReadsOverChannelTransport) {
  const Workload w = make_workload(3);
  DurabilityOptions opts;
  opts.checkpoint_every = 8;

  auto fs = std::make_shared<MemFs>();
  auto svc = make_service(w);
  ASSERT_TRUE(svc->enable_durability(fs, "leader", opts, w.initial));
  ReplicationGroup group(svc.get(), /*epoch=*/1);
  auto ffs = std::make_shared<MemFs>();
  DurabilityOptions fopts;
  fopts.checkpoint_every = 8;
  for (int i = 0; i < 2; ++i)
    group.add_follower(std::make_shared<ChannelTransport>(), ffs,
                       "f" + std::to_string(i), fopts);

  std::vector<uint64_t> oracle{svc->snapshot()->checksum()};
  for (const auto& b : w.batches) {
    auto r = svc->apply(b.insertions, b.deletions);
    oracle.push_back(r.snapshot->checksum());
    group.pump();
    for (size_t i = 0; i < group.num_followers(); ++i)
      assert_on_oracle(group.follower(i), oracle);
  }
  // One extra round for the final acks (frames land on the pump after the
  // cursor that requested them).
  group.pump();
  ASSERT_TRUE(group.converged());
  const uint64_t durable = group.leader_durable();
  EXPECT_EQ(durable, w.batches.size());  // kEveryRecord: all published
  for (size_t i = 0; i < group.num_followers(); ++i) {
    EXPECT_EQ(group.follower(i).applied_version(), durable);
    EXPECT_EQ(group.follower(i).applied_checksum(), oracle[durable]);
    EXPECT_EQ(group.follower(i).rejects(), 0u);
    // Exactly one seeding snapshot, everything else incremental.
    EXPECT_EQ(group.follower(i).snapshot_resyncs(), 1u);
    EXPECT_GT(group.follower(i).records_applied(), 0u);
  }

  // Read-your-writes spreading: every read honors the watermark, and with
  // converged followers the leader is never needed.
  int by_follower[2] = {0, 0};
  for (int q = 0; q < 10; ++q) {
    auto r = group.read_at_least(durable);
    ASSERT_NE(r.snap, nullptr);
    EXPECT_GE(r.snap->version(), durable);
    EXPECT_EQ(r.snap->checksum(), oracle[r.snap->version()]);
    ASSERT_GE(r.source, 0);  // served by a follower, not the leader
    ++by_follower[r.source];
  }
  EXPECT_GT(by_follower[0], 0);  // round-robin actually spreads
  EXPECT_GT(by_follower[1], 0);

  // A watermark nobody replicated yet (leader applied, followers not
  // pumped): the leader must serve it.
  auto r2 = svc->apply(w.batches[0].insertions, w.batches[0].deletions);
  auto read = group.read_at_least(r2.snapshot->version());
  EXPECT_EQ(read.source, -1);
  EXPECT_GE(read.snap->version(), r2.snapshot->version());
}

// --- Satellite 1: lossy-transport property sweep ---------------------------

TEST(Replication, LossyTransportNeverSilentlyDiverges) {
  const int schedules = tiny_sweep() ? 6 : 48;
  const Workload w = make_workload(11);
  DurabilityOptions opts;
  opts.checkpoint_every = 200;  // retain the whole log: faults, not GC,
                                // are under test here
  LeaderFixture lf = make_ingested_leader(w, opts);
  const uint64_t durable = lf.svc->durability()->durable_version();
  ASSERT_EQ(durable, w.batches.size());

  Rng rng(0x57AB1E);
  uint64_t total_rejects = 0, total_dups = 0, total_resyncs = 0,
           total_mangled = 0;
  for (int it = 0; it < schedules; ++it) {
    SCOPED_TRACE("schedule=" + std::to_string(it));
    // Random fault schedule. Kept below certainty so eventual delivery
    // holds; the first two schedules pin the pure-corruption corners.
    FaultPlan plan;
    if (it == 0) {
      plan.bit_flip_p = 1.0;  // every frame mangled — nothing may apply
    } else if (it == 1) {
      plan.truncate_p = 1.0;
    } else {
      plan.drop_p = rng.next_double() * 0.4;
      plan.dup_p = rng.next_double() * 0.4;
      plan.reorder_p = rng.next_double() * 0.5;
      plan.truncate_p = rng.next_double() * 0.3;
      plan.bit_flip_p = rng.next_double() * 0.3;
      plan.cursor_drop_p = rng.next_double() * 0.4;
    }
    auto transport = std::make_shared<FaultyTransport>(plan, rng.next());
    auto ffs = std::make_shared<MemFs>();
    DurabilityOptions fopts;
    fopts.checkpoint_every = 16;
    FollowerReplica follower(ffs, "f", fopts, transport);
    LogShipper shipper(lf.fs, "leader", /*epoch=*/1, transport);

    const int max_rounds = 400;
    int round = 0;
    for (; round < max_rounds; ++round) {
      follower.pump();  // first pump advertises the subscription cursor
      shipper.pump(durable);
      assert_on_oracle(follower, lf.oracle);
      if (follower.applied_version() == durable) break;
    }
    if (it == 0 || it == 1) {
      // Total corruption: every frame must have been explicitly rejected,
      // and the follower must never have accepted ANY state.
      EXPECT_FALSE(follower.has_state());
      EXPECT_GT(follower.rejects(), 0u);
      EXPECT_EQ(follower.records_applied(), 0u);
      continue;
    }
    ASSERT_LT(round, max_rounds) << "no convergence under a sub-certain "
                                    "fault schedule";
    EXPECT_EQ(follower.applied_version(), durable);
    EXPECT_EQ(follower.applied_checksum(), lf.oracle[durable]);
    EXPECT_EQ(follower.epoch(), 1u);
    auto st = transport->stats();
    total_rejects += follower.rejects();
    total_dups += follower.duplicates_dropped();
    total_resyncs += follower.snapshot_resyncs();
    total_mangled += st.frames_truncated + st.frames_bit_flipped;
  }
  // The sweep must actually have injected and survived faults, not
  // vacuously passed over a clean channel.
  EXPECT_GT(total_mangled, 0u);
  EXPECT_GT(total_rejects, 0u);
  EXPECT_GT(total_dups, 0u);
  EXPECT_GE(total_resyncs, uint64_t(schedules - 2));
  RecordProperty("rejects", static_cast<int>(total_rejects));
  RecordProperty("resyncs", static_cast<int>(total_resyncs));
}

// --- Follower crash + local recovery ---------------------------------------

TEST(Replication, FollowerCrashRecoversOwnChainAndCatchesUp) {
  const int points = tiny_sweep() ? 3 : 12;
  const Workload w = make_workload(17);
  Rng rng(0xF0110);

  for (int p = 0; p < points; ++p) {
    SCOPED_TRACE("point=" + std::to_string(p));
    DurabilityOptions opts;
    opts.checkpoint_every = 8;
    auto fs = std::make_shared<MemFs>();
    auto svc = make_service(w);
    ASSERT_TRUE(svc->enable_durability(fs, "leader", opts, w.initial));
    ReplicationGroup group(svc.get(), 1);
    auto ffs = std::make_shared<MemFs>();
    DurabilityOptions fopts;
    fopts.checkpoint_every = 4;
    auto transport = std::make_shared<ChannelTransport>();
    group.add_follower(transport, ffs, "f", fopts);

    std::vector<uint64_t> oracle{svc->snapshot()->checksum()};
    // Crash the follower's disk mid-stream: its durability goes sticky-
    // failed while replication keeps applying in memory.
    const size_t crash_batch = 1 + rng.next_below(w.batches.size() - 2);
    uint64_t crash_op = 0;
    for (size_t b = 0; b < w.batches.size(); ++b) {
      auto r = svc->apply(w.batches[b].insertions, w.batches[b].deletions);
      oracle.push_back(r.snapshot->checksum());
      group.pump();
      assert_on_oracle(group.follower(0), oracle);
      if (b == crash_batch)
        crash_op = 1 + rng.next_below(20);  // soon, inside the next applies
      if (crash_op != 0 && b == crash_batch) ffs->crash_at_op(crash_op);
    }
    group.pump();

    // "Kill" the follower process and reboot its disk.
    const uint64_t follower_watermark = group.follower(0).durable_version();
    std::unique_ptr<FollowerReplica> dead = group.detach(0);
    dead.reset();
    ffs->crash_and_restart(static_cast<CrashTail>(rng.next_below(3)), rng,
                           0.2);

    auto revived = FollowerReplica::recover(ffs, "f", fopts, transport);
    ASSERT_TRUE(revived->has_state());
    // Local recovery restores a checksum-exact point of the leader's
    // history, at or above the follower's own durable watermark.
    EXPECT_GE(revived->applied_version(), follower_watermark);
    assert_on_oracle(*revived, oracle);
    EXPECT_EQ(revived->epoch(), 1u);

    // Rejoin and catch up to the leader — incrementally (no resync needed:
    // the leader's log still covers the gap).
    FollowerReplica& back = group.attach(std::move(revived), transport);
    for (int r = 0; r < 6 && !group.converged(); ++r) group.pump();
    ASSERT_TRUE(group.converged());
    EXPECT_EQ(back.applied_checksum(), oracle[back.applied_version()]);
    EXPECT_EQ(back.snapshot_resyncs(), 0u);  // recovered, not re-seeded
  }
}

// --- GC'd history forces an explicit snapshot resync ------------------------

// Regression: a reorder holdback pending when the schedule stops pumping
// used to vanish silently — neither delivered nor counted as dropped, so a
// schedule's delivered-frame accounting could not close. drain() (and the
// destructor) must release holdbacks into the channel and count them
// distinctly.
TEST(Replication, FaultyTransportDrainReleasesEndOfScheduleHoldbacks) {
  FaultPlan plan;
  plan.reorder_p = 1.0;  // every frame is held behind later traffic
  FaultyTransport t(plan, /*seed=*/11);

  ShipFrame a;
  a.bytes = {0x01, 0x02, 0x03};
  t.send_frame(a);
  // The natural dry-channel flush releases the first holdback...
  auto released = t.recv_frame();
  ASSERT_TRUE(released.has_value());
  EXPECT_EQ(released->bytes, a.bytes);
  EXPECT_EQ(t.stats().frames_drained_late, 0u);

  // ...but a frame held when the harness stops pumping needs drain().
  ShipFrame b;
  b.bytes = {0x04, 0x05};
  t.send_frame(b);
  t.drain();
  EXPECT_EQ(t.stats().frames_drained_late, 1u);
  auto late = t.recv_frame();
  ASSERT_TRUE(late.has_value()) << "drained holdback lost";
  EXPECT_EQ(late->bytes, b.bytes);
  EXPECT_FALSE(t.recv_frame().has_value());
  EXPECT_EQ(t.stats().frames_dropped, 0u)
      << "late delivery must not be booked as loss";
}

TEST(Replication, PartitionPastGcHorizonResyncsViaSnapshot) {
  const Workload w = make_workload(23);
  DurabilityOptions opts;
  opts.checkpoint_every = 3;  // aggressive rotation
  opts.keep_checkpoints = 1;  // and aggressive GC
  auto fs = std::make_shared<MemFs>();
  auto svc = make_service(w);
  ASSERT_TRUE(svc->enable_durability(fs, "leader", opts, w.initial));
  ReplicationGroup group(svc.get(), 1);
  FaultPlan clean;  // partition is a switch, not a probability
  auto transport = std::make_shared<FaultyTransport>(clean, 7);
  auto ffs = std::make_shared<MemFs>();
  group.add_follower(transport, ffs, "f", opts);

  std::vector<uint64_t> oracle{svc->snapshot()->checksum()};
  // Seed the follower, then partition and ingest far past the GC horizon.
  auto r0 = svc->apply(w.batches[0].insertions, w.batches[0].deletions);
  oracle.push_back(r0.snapshot->checksum());
  group.pump();
  group.pump();
  ASSERT_TRUE(group.converged());
  const uint64_t resyncs_before = group.follower(0).snapshot_resyncs();

  transport->set_partitioned(true);
  for (size_t b = 1; b < w.batches.size(); ++b) {
    auto r = svc->apply(w.batches[b].insertions, w.batches[b].deletions);
    oracle.push_back(r.snapshot->checksum());
    group.pump();  // ships into the void
  }
  // The follower's ack (version 1) must now be below every retained
  // segment: incremental shipping is impossible.
  transport->set_partitioned(false);
  for (int r = 0; r < 8 && !group.converged(); ++r) group.pump();
  ASSERT_TRUE(group.converged());
  EXPECT_GT(group.follower(0).snapshot_resyncs(), resyncs_before);
  assert_on_oracle(group.follower(0), oracle);
  EXPECT_EQ(group.follower(0).applied_version(), group.leader_durable());
}

// --- Sharded integration: replicated read-your-writes views ----------------

TEST(Replication, ShardedViewsComposeFromFollowers) {
  const size_t n = 160;
  const uint32_t S = 2;
  auto [initial, batches] = gen_mixed_stream(n, 900, 60, 8, 91);
  FullyDynamicSpannerConfig fd;
  fd.k = 3;
  fd.seed = 77;

  auto fs = std::make_shared<MemFs>();
  ShardedConfig cfg;
  cfg.num_writers = 2;
  cfg.durability.enabled = true;
  cfg.durability.fs = fs;
  cfg.durability.dir = "root";
  cfg.durability.opts.checkpoint_every = 8;
  auto svc = ShardedSpannerService::single_graph(n, initial, S, fd, cfg);

  // One replication group per shard, one follower each.
  std::vector<std::unique_ptr<ReplicationGroup>> groups;
  auto ffs = std::make_shared<MemFs>();
  for (uint32_t s = 0; s < S; ++s) {
    groups.push_back(
        std::make_unique<ReplicationGroup>(&svc->shard_service(s), 1));
    groups[s]->add_follower(std::make_shared<ChannelTransport>(), ffs,
                            "f" + std::to_string(s),
                            cfg.durability.opts);
  }
  ReplicatedShardedReader reader(svc.get());
  for (uint32_t s = 0; s < S; ++s)
    reader.add_follower(s, &groups[s]->follower(0));

  for (const auto& b : batches) svc->submit(b.insertions, b.deletions);
  VersionVector vv = svc->flush();
  for (uint32_t s = 0; s < S; ++s) {
    for (int r = 0; r < 4 && !groups[s]->converged(); ++r) groups[s]->pump();
    ASSERT_TRUE(groups[s]->converged()) << "shard " << s;
  }

  // The composed view must dominate the flush vector (read-your-writes)
  // and equal the leader's own composed view edge-for-edge.
  std::vector<int> sources;
  ShardedView view = reader.view_at_least(vv, &sources);
  EXPECT_TRUE(view.versions().dominates(vv));
  for (uint32_t s = 0; s < S; ++s)
    EXPECT_EQ(sources[s], 0) << "caught-up follower must serve shard " << s;
  EXPECT_EQ(reader.follower_reads(), uint64_t(S));
  ShardedView leader_view = svc->view();
  ASSERT_EQ(view.num_edges(), leader_view.num_edges());
  auto ve = view.edges();
  auto le = leader_view.edges();
  ASSERT_EQ(ve.size(), le.size());
  for (size_t i = 0; i < ve.size(); ++i) {
    EXPECT_EQ(ve[i].u, le[i].u);
    EXPECT_EQ(ve[i].v, le[i].v);
  }
  // Composed reads answer through follower snapshots.
  EXPECT_EQ(view.has_edge(ve[0].u, ve[0].v), true);

  // With followers lagging (new writes unreplicated), the router falls
  // back to the leader rather than violating read-your-writes.
  for (const auto& b : batches) svc->submit(b.insertions, b.deletions);
  VersionVector vv2 = svc->flush();
  std::vector<int> sources2;
  ShardedView view2 = reader.view_at_least(vv2, &sources2);
  EXPECT_TRUE(view2.versions().dominates(vv2));
  for (uint32_t s = 0; s < S; ++s) EXPECT_EQ(sources2[s], -1);
  EXPECT_FALSE(svc->durability_failed());
}

// --- Frozen wire format -----------------------------------------------------

// Replication frames are a persistence-grade format: a leader and follower
// from different builds must agree on every byte. These goldens pin the
// frame encoding the way PR 6's goldens pin the WAL/checkpoint formats —
// if one of these values changes, the wire format changed, and mixed-
// version replication just broke.
TEST(Replication, FrameFormatGoldens) {
  WalRecord rec;
  rec.type = WalRecord::kBatch;
  rec.version = 7;
  rec.checksum = 0x0123456789abcdefULL;
  rec.input_deleted = {edge_key(1, 2)};
  rec.input_inserted = {edge_key(2, 3), edge_key(3, 9)};
  rec.diff_removed = {edge_key(1, 2)};
  rec.diff_inserted = {edge_key(2, 3), edge_key(3, 9)};
  ShipFrame rf = make_record_frame(/*epoch=*/5, rec);
  EXPECT_EQ(crc32c(rf.bytes.data(), rf.bytes.size()), 0xc6be0cf9u);

  DurableState st;
  st.n = 16;
  st.stretch = 5;
  st.version = 42;
  st.snap_keys = {edge_key(0, 1), edge_key(2, 5), edge_key(3, 15)};
  st.graph_keys = {edge_key(0, 1), edge_key(1, 4), edge_key(2, 5),
                   edge_key(3, 15)};
  // A fixed field value: this golden pins the frame encoding, and the
  // checksum formula has goldens of its own (test_durability).
  st.checksum = 0x1bc7b6e79f0daa08ULL;
  ShipFrame sf = make_snapshot_frame(/*epoch=*/5, st);
  EXPECT_EQ(crc32c(sf.bytes.data(), sf.bytes.size()), 0x936bf51fu);

  // Round-trip: both frames parse back to themselves.
  auto pr = parse_frame(rf);
  ASSERT_TRUE(pr.has_value());
  EXPECT_EQ(pr->type, FrameType::kRecord);
  EXPECT_EQ(pr->epoch, 5u);
  EXPECT_EQ(pr->rec.version, 7u);
  EXPECT_EQ(pr->rec.checksum, rec.checksum);
  EXPECT_EQ(pr->rec.diff_inserted, rec.diff_inserted);
  auto ps = parse_frame(sf);
  ASSERT_TRUE(ps.has_value());
  EXPECT_EQ(ps->type, FrameType::kSnapshot);
  EXPECT_EQ(ps->state.n, st.n);
  EXPECT_EQ(ps->state.version, st.version);
  EXPECT_EQ(ps->state.snap_keys, st.snap_keys);
  EXPECT_EQ(ps->state.graph_keys, st.graph_keys);

  // Single-bit flips can never pass: CRC32C is linear, so flipping any one
  // bit flips a fixed nonzero syndrome. Walk a few positions explicitly.
  for (size_t at : {size_t(0), size_t(9), rf.bytes.size() - 1}) {
    ShipFrame bad = rf;
    bad.bytes[at] ^= 0x10;
    EXPECT_FALSE(parse_frame(bad).has_value()) << "bit flip at " << at;
  }
  // Truncation at every boundary short of full length must fail too.
  for (size_t len : {size_t(0), size_t(16), size_t(17), rf.bytes.size() - 1}) {
    ShipFrame bad = rf;
    bad.bytes.resize(len);
    EXPECT_FALSE(parse_frame(bad).has_value()) << "truncated to " << len;
  }
}

// --- Watermark rule ---------------------------------------------------------

// Unsynced WAL bytes are readable through the page cache, but must never
// ship: the shipper's ceiling is the durable watermark the caller passes.
// The snapshot checksum is order-independent, so the frame decoder is
// where a shipped key list's strict ascent is proven: a descending pair
// (a delta wrapping past 2^64) or a duplicated one (a zero delta) must not
// parse. Frames are built by hand with a valid CRC around the bad list.
ShipFrame raw_snapshot_frame(const std::vector<EdgeKey>& snap,
                             const std::vector<EdgeKey>& graph) {
  auto put_list = [](std::vector<uint8_t>& out,
                     const std::vector<EdgeKey>& keys) {
    uint8_t buf[kMaxUvarintLen];
    for (size_t i = 0; i < keys.size(); ++i) {
      const size_t len =
          put_uvarint(buf, i == 0 ? keys[i] : keys[i] - keys[i - 1]);
      out.insert(out.end(), buf, buf + len);
    }
  };
  std::vector<uint8_t> payload;
  put_le64(payload, 16);  // n
  put_le32(payload, 5);   // stretch
  put_le64(payload, 42);  // version
  put_le64(payload, snapshot_content_checksum(16, 5, 42, snap));
  put_le32(payload, uint32_t(snap.size()));
  put_le32(payload, uint32_t(graph.size()));
  put_list(payload, snap);
  put_list(payload, graph);
  ShipFrame f;
  f.bytes.push_back(uint8_t(FrameType::kSnapshot));
  put_le64(f.bytes, 5);  // epoch
  put_le32(f.bytes, uint32_t(payload.size()));
  put_le32(f.bytes, crc32c(payload.data(), payload.size(),
                           crc32c(f.bytes.data(), 9)));
  f.bytes.insert(f.bytes.end(), payload.begin(), payload.end());
  return f;
}

TEST(Replication, SnapshotFrameRejectsDescendingOrDuplicatedLists) {
  const std::vector<EdgeKey> ascending = {edge_key(0, 1), edge_key(2, 5)};
  const std::vector<EdgeKey> descending = {edge_key(2, 5), edge_key(0, 1)};
  const std::vector<EdgeKey> duplicated = {edge_key(0, 1), edge_key(0, 1)};
  auto ok = parse_frame(raw_snapshot_frame(ascending, ascending));
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->state.snap_keys, ascending);
  for (const auto* bad : {&descending, &duplicated}) {
    EXPECT_FALSE(parse_frame(raw_snapshot_frame(*bad, ascending)).has_value());
    EXPECT_FALSE(parse_frame(raw_snapshot_frame(ascending, *bad)).has_value());
  }
}

TEST(Replication, ShipperNeverShipsPastDurableWatermark) {
  const Workload w = make_workload(31);
  DurabilityOptions opts;
  opts.fsync_policy = FsyncPolicy::kEveryN;
  opts.fsync_every_n = 1000;      // nothing syncs on its own
  opts.checkpoint_every = 0;      // and nothing checkpoints
  auto fs = std::make_shared<MemFs>();
  auto svc = make_service(w);
  ASSERT_TRUE(svc->enable_durability(fs, "leader", opts, w.initial));
  ReplicationGroup group(svc.get(), 1);
  auto ffs = std::make_shared<MemFs>();
  group.add_follower(std::make_shared<ChannelTransport>(), ffs, "f", opts);

  for (const auto& b : w.batches) svc->apply(b.insertions, b.deletions);
  // Everything applied is published — but nothing beyond genesis is
  // durable, so nothing beyond genesis may reach the follower.
  ASSERT_EQ(svc->version(), w.batches.size());
  ASSERT_EQ(group.leader_durable(), 0u);
  for (int r = 0; r < 4; ++r) group.pump();
  EXPECT_EQ(group.follower(0).applied_version(), 0u);
  EXPECT_TRUE(group.converged());  // converged AT the watermark
}

}  // namespace
}  // namespace parspan
