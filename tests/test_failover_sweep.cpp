// Failover sweep (DESIGN.md §11.4/§11.6): leader + 3 followers replicating
// at staggered cadences (so their durable logs genuinely differ), leader
// killed at every point of the ingest stream. At each kill point:
//
//   * election must pick exactly the longest durably-verified log (computed
//     independently here, ties to the lowest index);
//   * promotion must restore precisely the winner's durable watermark — the
//     restored checksum is a point of the dead leader's publish history
//     (the oracle), and the rebase publishes restored + 1;
//   * survivors must converge onto the new leader through an explicit
//     epoch-bump snapshot resync, never a silent divergence, and ingest
//     must then continue on the new leader with followers tracking it;
//   * a deposed leader's late frames must die on the followers' epoch
//     check, and a winner whose chain rots mid-failover must fail
//     promotion HONESTLY (nullptr), with the runner-up promotable instead.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/fully_dynamic_spanner.hpp"
#include "durability/checkpoint.hpp"
#include "durability/fault_fs.hpp"
#include "graph/generators.hpp"
#include "replication/failover.hpp"
#include "replication/follower.hpp"
#include "replication/log_shipper.hpp"
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

// recover()'s backend factory for promotions.
auto backend_factory(const Workload& w) {
  return [cfg = w.cfg](uint64_t n, const std::vector<Edge>& edges, uint32_t) {
    return std::make_unique<FullyDynamicSpanner>(static_cast<size_t>(n), edges,
                                                 cfg);
  };
}

// One leader + 3 followers on healthy channels, followers pumping at
// staggered cadences {1,2,3} batches — rotated by `rot` so the winning
// INDEX varies across kill points and lowest-index tie-breaks actually
// fire. Returns after `t` ingested batches.
struct Cluster {
  std::shared_ptr<MemFs> leader_fs;
  std::unique_ptr<SpannerService> leader;
  std::vector<std::shared_ptr<ReplicationTransport>> transports;
  std::vector<std::unique_ptr<LogShipper>> shippers;
  std::vector<std::unique_ptr<FollowerReplica>> followers;
  std::vector<uint64_t> oracle;  // leader checksum by version
};

Cluster ingest_until(const Workload& w, size_t t, size_t rot) {
  Cluster c;
  DurabilityOptions opts;
  opts.checkpoint_every = 4;
  c.leader_fs = std::make_shared<MemFs>();
  c.leader = make_service(w);
  EXPECT_TRUE(c.leader->enable_durability(c.leader_fs, "leader", opts,
                                          w.initial));
  DurabilityOptions fopts;
  fopts.checkpoint_every = 4;
  for (size_t i = 0; i < 3; ++i) {
    c.transports.push_back(std::make_shared<ChannelTransport>());
    c.shippers.push_back(std::make_unique<LogShipper>(
        c.leader_fs, "leader", /*epoch=*/1, c.transports[i]));
    c.followers.push_back(std::make_unique<FollowerReplica>(
        std::make_shared<MemFs>(), "f" + std::to_string(i), fopts,
        c.transports[i]));
  }
  c.oracle.push_back(c.leader->snapshot()->checksum());
  for (size_t b = 0; b < t; ++b) {
    auto r = c.leader->apply(w.batches[b].insertions, w.batches[b].deletions);
    c.oracle.push_back(r.snapshot->checksum());
    for (size_t i = 0; i < 3; ++i) {
      const size_t cadence = (i + rot) % 3 + 1;
      if ((b + 1) % cadence != 0) continue;
      c.shippers[i]->pump(c.leader->durability()->durable_version());
      c.followers[i]->pump();
    }
  }
  return c;
}

// The leader dies: its shippers go with it, the followers survive.
std::vector<std::unique_ptr<FollowerReplica>> kill_leader(Cluster& c) {
  c.shippers.clear();
  c.leader.reset();
  return std::move(c.followers);
}

// The survivors of a failover, each re-subscribed to the promoted leader
// at epoch 2 over its old transport.
struct Survivors {
  const SpannerService* leader = nullptr;
  std::vector<std::unique_ptr<LogShipper>> shippers;
  std::vector<std::unique_ptr<FollowerReplica>> followers;

  void add(std::unique_ptr<FollowerReplica> f,
           std::shared_ptr<ReplicationTransport> transport) {
    shippers.push_back(std::make_unique<LogShipper>(
        leader->durability()->fs(), leader->durability()->dir(),
        /*epoch=*/2, std::move(transport)));
    followers.push_back(std::move(f));
  }
  uint64_t durable() const { return leader->durability()->durable_version(); }
  void pump() {
    for (size_t i = 0; i < followers.size(); ++i) {
      shippers[i]->pump(durable());
      followers[i]->pump();
    }
  }
  bool converged() const {
    for (const auto& f : followers)
      if (f->epoch() != 2 || f->applied_version() != durable()) return false;
    return true;
  }
};

TEST(FailoverSweep, LongestDurableLogWinsAtEveryKillPoint) {
  const Workload w = make_workload(17);
  const size_t nb = w.batches.size();
  std::vector<size_t> kill_points;
  if (tiny_sweep())
    kill_points = {2, 7, nb};
  else
    for (size_t t = 1; t <= nb; ++t) kill_points.push_back(t);

  const auto make_backend = backend_factory(w);
  bool saw_distinct_logs = false;
  bool saw_tie = false;
  for (size_t t : kill_points) {
    SCOPED_TRACE("kill after batch " + std::to_string(t));
    Cluster c = ingest_until(w, t, /*rot=*/t);

    // Independent election oracle: manual argmax over durable logs, first
    // index wins ties, stateless candidates never run.
    std::vector<const FollowerReplica*> cands;
    for (size_t i = 0; i < 3; ++i) cands.push_back(c.followers[i].get());
    size_t exp_winner = cands.size();
    uint64_t exp_dv = 0;
    std::set<uint64_t> distinct;
    for (size_t i = 0; i < cands.size(); ++i) {
      if (!cands[i]->has_state()) continue;
      const uint64_t dv = cands[i]->durable_version();
      distinct.insert(dv);
      if (exp_winner == cands.size() || dv > exp_dv) {
        exp_winner = i;
        exp_dv = dv;
      } else if (dv == exp_dv) {
        saw_tie = true;
      }
    }
    saw_distinct_logs |= distinct.size() >= 2;

    const auto elect = elect_longest_log(cands);
    if (exp_winner == cands.size()) {
      // Nobody has state yet (earliest kill points): honest admission.
      EXPECT_FALSE(elect.has_value());
      continue;
    }
    ASSERT_TRUE(elect.has_value());
    EXPECT_EQ(elect->winner, exp_winner);
    EXPECT_EQ(elect->durable_version, exp_dv);

    std::vector<std::unique_ptr<FollowerReplica>> fols = kill_leader(c);

    // Promotion restores exactly the elected watermark — the restored
    // checksum must be the dead leader's publish history at that version.
    SpannerService::RecoveryReport rep;
    auto leader2 =
        promote_follower(std::move(fols[elect->winner]), make_backend, &rep);
    ASSERT_NE(leader2, nullptr);
    EXPECT_EQ(rep.restored_version, elect->durable_version);
    ASSERT_LT(rep.restored_version, c.oracle.size());
    EXPECT_EQ(rep.restored_checksum, c.oracle[rep.restored_version]);
    EXPECT_EQ(rep.published_version, rep.restored_version + 1);

    // Survivors re-subscribe under epoch 2 and converge via an explicit
    // epoch-bump snapshot resync.
    Survivors s2{leader2.get()};
    std::vector<uint64_t> resyncs_before;
    for (size_t i = 0; i < 3; ++i) {
      if (i == elect->winner) continue;
      resyncs_before.push_back(fols[i]->snapshot_resyncs());
      s2.add(std::move(fols[i]), c.transports[i]);
    }
    for (int round = 0; round < 12 && !s2.converged(); ++round) s2.pump();
    ASSERT_TRUE(s2.converged());
    EXPECT_EQ(s2.durable(), rep.published_version);
    const uint64_t rebase_ck = leader2->snapshot()->checksum();
    for (size_t i = 0; i < s2.followers.size(); ++i) {
      const FollowerReplica& f = *s2.followers[i];
      EXPECT_EQ(f.epoch(), 2u);
      EXPECT_EQ(f.applied_version(), rep.published_version);
      EXPECT_EQ(f.applied_checksum(), rebase_ck);
      EXPECT_EQ(f.rejects(), 0u);
      EXPECT_GT(f.snapshot_resyncs(), resyncs_before[i]);
    }

    // Life goes on: the remaining stream ingests on the new leader and the
    // survivors track its (new) history.
    std::vector<uint64_t> oracle2{rebase_ck};
    for (size_t b = t; b < nb; ++b) {
      auto r =
          leader2->apply(w.batches[b].insertions, w.batches[b].deletions);
      oracle2.push_back(r.snapshot->checksum());
      s2.pump();
    }
    s2.pump();
    ASSERT_TRUE(s2.converged());
    const uint64_t final_v = rep.published_version + (nb - t);
    EXPECT_EQ(s2.durable(), final_v);
    for (const auto& f : s2.followers) {
      EXPECT_EQ(f->applied_version(), final_v);
      EXPECT_EQ(f->applied_checksum(), oracle2.back());
      EXPECT_EQ(f->rejects(), 0u);
    }
  }
  // The sweep only means something if the cadences actually produced
  // different log lengths — and at least one tie-break fired.
  EXPECT_TRUE(saw_distinct_logs);
  if (!tiny_sweep()) EXPECT_TRUE(saw_tie);
}

// A deposed leader that keeps shipping after failover must be ignored:
// its epoch-1 frames die on the follower's epoch check, counted, with the
// follower's state untouched.
TEST(FailoverSweep, DeposedLeaderLateFramesAreDropped) {
  const Workload w = make_workload(23);
  Cluster c = ingest_until(w, 6, /*rot=*/0);
  const uint64_t old_durable = c.leader->durability()->durable_version();
  std::vector<std::unique_ptr<FollowerReplica>> fols = kill_leader(c);

  const auto elect = elect_longest_log(
      {fols[0].get(), fols[1].get(), fols[2].get()});
  ASSERT_TRUE(elect.has_value());
  auto leader2 = promote_follower(std::move(fols[elect->winner]),
                                  backend_factory(w), nullptr);
  ASSERT_NE(leader2, nullptr);
  const size_t survivor = elect->winner == 0 ? 1 : 0;
  Survivors s2{leader2.get()};
  s2.add(std::move(fols[survivor]), c.transports[survivor]);
  FollowerReplica& f = *s2.followers[0];
  for (int round = 0; round < 12 && !s2.converged(); ++round) s2.pump();
  ASSERT_TRUE(s2.converged());

  // The old leader's directory still exists (it died, its disk did not);
  // a zombie shipper at the old epoch picks up the survivor's cursor and
  // ships an epoch-1 snapshot. The survivor must drop it cold.
  const uint64_t v_before = f.applied_version();
  const uint64_t ck_before = f.applied_checksum();
  const uint64_t drops_before = f.stale_epoch_drops();
  f.pump();  // enqueue a fresh cursor for the zombie to find
  LogShipper zombie(c.leader_fs, "leader", /*epoch=*/1,
                    c.transports[survivor]);
  zombie.pump(old_durable);
  EXPECT_GT(zombie.snapshots_shipped(), 0u);
  f.pump();
  EXPECT_GT(f.stale_epoch_drops(), drops_before);
  EXPECT_EQ(f.applied_version(), v_before);
  EXPECT_EQ(f.applied_checksum(), ck_before);
  EXPECT_EQ(f.rejects(), 0u);  // an epoch drop is a drop, not a reject
}

// Media death mid-failover: the elected winner's chain loses its
// checkpoints between election and promotion. Promotion must fail
// HONESTLY (nullptr, never a fabricated leader), and the runner-up must
// then promote cleanly.
TEST(FailoverSweep, MediaDeathMidFailoverFallsBackToRunnerUp) {
  const Workload w = make_workload(29);
  Cluster c = ingest_until(w, 8, /*rot=*/0);
  std::vector<std::unique_ptr<FollowerReplica>> fols = kill_leader(c);

  std::vector<const FollowerReplica*> cands = {fols[0].get(), fols[1].get(),
                                               fols[2].get()};
  const auto elect = elect_longest_log(cands);
  ASSERT_TRUE(elect.has_value());

  // Rot the winner's chain: every checkpoint file vanishes.
  const size_t dead = elect->winner;
  std::shared_ptr<Fs> dead_fs = fols[dead]->fs();
  const std::string dead_dir = fols[dead]->dir();
  for (const std::string& name : dead_fs->list(dead_dir))
    if (parse_checkpoint_file_name(name))
      ASSERT_TRUE(dead_fs->remove(dead_dir + "/" + name));

  const auto make_backend = backend_factory(w);
  EXPECT_EQ(promote_follower(std::move(fols[dead]), make_backend, nullptr),
            nullptr);

  // Re-run the election without the dead candidate; the runner-up promotes.
  cands[dead] = nullptr;
  const auto elect2 = elect_longest_log(cands);
  ASSERT_TRUE(elect2.has_value());
  EXPECT_NE(elect2->winner, dead);
  EXPECT_LE(elect2->durable_version, elect->durable_version);
  SpannerService::RecoveryReport rep;
  auto leader2 =
      promote_follower(std::move(fols[elect2->winner]), make_backend, &rep);
  ASSERT_NE(leader2, nullptr);
  EXPECT_EQ(rep.restored_version, elect2->durable_version);
  ASSERT_LT(rep.restored_version, c.oracle.size());
  EXPECT_EQ(rep.restored_checksum, c.oracle[rep.restored_version]);
}

// Election edge cases: null and stateless candidates never run; ties break
// to the lowest index; an all-dead slate is an honest nullopt.
TEST(FailoverSweep, ElectionEdgeCases) {
  const Workload w = make_workload(41);
  // rot=2 gives followers 0 and 1 cadences {3, 1}; after 6 batches both
  // cadence-1 and cadence-3 followers sit at durable 6 — a real tie.
  Cluster c = ingest_until(w, 6, /*rot=*/2);
  ASSERT_EQ(c.followers[0]->durable_version(),
            c.followers[1]->durable_version());

  auto stateless = std::make_unique<FollowerReplica>(
      std::make_shared<MemFs>(), "empty", DurabilityOptions{},
      std::make_shared<ChannelTransport>());
  ASSERT_FALSE(stateless->has_state());

  const auto elect = elect_longest_log(std::vector<const FollowerReplica*>{
      nullptr, stateless.get(), c.followers[0].get(), c.followers[1].get()});
  ASSERT_TRUE(elect.has_value());
  EXPECT_EQ(elect->winner, 2u);  // lowest index among the tied pair
  EXPECT_EQ(elect->durable_version, c.followers[0]->durable_version());

  EXPECT_FALSE(elect_longest_log(std::vector<const FollowerReplica*>{})
                   .has_value());
  EXPECT_FALSE(elect_longest_log(std::vector<const FollowerReplica*>{
                                     nullptr, stateless.get()})
                   .has_value());
}

}  // namespace
}  // namespace parspan
