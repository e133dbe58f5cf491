// Replicated reads: WAL shipping to follower replicas, read-your-writes
// reads served from them, and a failover (DESIGN.md §11).
//
// Build:  cmake -B build -G Ninja && cmake --build build
// Run:    ./build/example_replicated_reads
//
// One durable leader ships its committed WAL to two followers over
// in-process transports — one healthy channel, one deliberately lossy
// (drops, duplicates, reorders, bit flips). Each follower is a
// (LogShipper, FollowerReplica) pair pumped by hand. Every applied record
// is checksum-verified on the follower, so the lossy link can delay
// convergence but never corrupt it. Reads are then served from follower
// snapshots under a read-your-writes watermark, and at the end the leader
// "dies" and the longest durable log is promoted in its place. Swap MemFs
// for PosixFs and ChannelTransport for a SocketTransport and the same
// protocol runs across machines (tools/replicad). The example checks
// itself: it exits non-zero if the followers do not converge or a
// follower serves a snapshot whose checksum is not the leader's.
#include <cstdio>
#include <memory>
#include <vector>

#include "core/fully_dynamic_spanner.hpp"
#include "durability/fault_fs.hpp"
#include "graph/generators.hpp"
#include "replication/failover.hpp"
#include "replication/follower.hpp"
#include "replication/log_shipper.hpp"

using namespace parspan;

int main() {
  const size_t n = 600;
  const uint32_t k = 3;  // stretch 2k-1 = 5

  auto [initial, batches] = gen_mixed_stream(n, 10 * n, 128, 24, /*seed=*/7);
  FullyDynamicSpannerConfig cfg;
  cfg.k = k;
  cfg.seed = 42;

  // --- A durable leader and two followers. ---------------------------------
  // The shippers tail the leader's WAL directory read-only and never ship
  // past ShardDurability::durable_version() — a follower can only ever
  // hold state the leader could itself recover.
  auto leader_fs = std::make_shared<MemFs>();
  DurabilityOptions opts;
  opts.checkpoint_every = 8;
  auto leader = std::make_unique<SpannerService>(
      std::make_unique<FullyDynamicSpanner>(n, initial, cfg), 2 * k - 1);
  if (!leader->enable_durability(leader_fs, "leader", opts, initial)) {
    std::printf("enable_durability failed\n");
    return 1;
  }
  // The leader's checksum by version: what every follower read must match.
  std::vector<uint64_t> oracle{leader->snapshot()->checksum()};

  // Follower 0: healthy channel. Follower 1: a hostile link — drops,
  // duplicates, reorders, and flips bits. Frame CRCs + per-record content
  // checksums turn every mangled delivery into a counted reject/retry.
  FaultPlan plan;
  plan.drop_p = 0.10;
  plan.dup_p = 0.10;
  plan.reorder_p = 0.15;
  plan.bit_flip_p = 0.05;
  auto lossy = std::make_shared<FaultyTransport>(plan, /*seed=*/99);
  std::vector<std::shared_ptr<ReplicationTransport>> links{
      std::make_shared<ChannelTransport>(), lossy};
  std::vector<std::unique_ptr<LogShipper>> shippers;
  std::vector<std::unique_ptr<FollowerReplica>> followers;
  for (const auto& link : links) {
    shippers.push_back(
        std::make_unique<LogShipper>(leader_fs, "leader", /*epoch=*/1, link));
    followers.push_back(std::make_unique<FollowerReplica>(
        std::make_shared<MemFs>(), "replica", opts, link));
  }
  // One replication round: each shipper ships up to the durable watermark,
  // each follower applies and acks.
  auto pump = [&] {
    const uint64_t durable = leader->durability()->durable_version();
    for (size_t i = 0; i < followers.size(); ++i) {
      shippers[i]->pump(durable);
      followers[i]->pump();
    }
  };
  auto converged = [&] {
    for (const auto& f : followers)
      if (f->applied_version() != leader->durability()->durable_version())
        return false;
    return true;
  };

  // --- Ingest + replicate: one pump round per batch. -----------------------
  for (const auto& b : batches) {
    auto res = leader->apply(b.insertions, b.deletions);
    oracle.push_back(res.snapshot->checksum());
    pump();
  }
  // The lossy link may still owe a few frames; pump until converged.
  int extra = 0;
  while (!converged() && extra < 200) {
    pump();
    ++extra;
  }
  if (!converged()) {
    std::printf("followers did not converge within 200 extra pump rounds\n");
    return 1;
  }
  std::printf("converged after %d extra pump rounds\n", extra);
  for (size_t i = 0; i < followers.size(); ++i) {
    const FollowerReplica& f = *followers[i];
    std::printf(
        "  follower %zu: version %llu, %llu records applied, %llu rejects, "
        "%llu dup drops, %llu resyncs\n",
        i, (unsigned long long)f.applied_version(),
        (unsigned long long)f.records_applied(),
        (unsigned long long)f.rejects(),
        (unsigned long long)f.duplicates_dropped(),
        (unsigned long long)f.snapshot_resyncs());
  }
  auto st = lossy->stats();
  std::printf(
      "  lossy link injected: %llu drops, %llu dups, %llu reorders, "
      "%llu bit flips\n",
      (unsigned long long)st.frames_dropped,
      (unsigned long long)st.frames_duplicated,
      (unsigned long long)st.frames_reordered,
      (unsigned long long)st.frames_bit_flipped);

  // --- Read-your-writes reads. ---------------------------------------------
  // A client that observed version v needs a snapshot at >= v: a follower
  // whose snapshot() has reached v serves it, the leader otherwise. The
  // routing is the caller's; here it is round-robin over the followers.
  size_t next_follower = 0;
  int served_by_follower = 0;
  auto read_at_least = [&](uint64_t watermark) {
    SpannerSnapshot::Ptr snap = followers[next_follower++ % 2]->snapshot();
    const bool from_follower = snap != nullptr && snap->version() >= watermark;
    if (!from_follower) snap = leader->snapshot();
    served_by_follower += from_follower;
    std::printf("  read at >= %llu served by %s (version %llu)\n",
                (unsigned long long)watermark,
                from_follower ? "follower" : "leader",
                (unsigned long long)snap->version());
    return snap->checksum() == oracle[snap->version()];
  };
  bool reads_ok = true;
  for (int r = 0; r < 6; ++r)
    reads_ok &= read_at_least(leader->durability()->durable_version());
  // A write the followers have not been pumped to yet: only the leader
  // can honor its watermark.
  const auto& b0 = batches.front();
  auto fresh = leader->apply(b0.insertions, b0.deletions).snapshot;
  oracle.push_back(fresh->checksum());
  reads_ok &= read_at_least(fresh->version());
  if (!reads_ok) {
    std::printf("a read's checksum differs from the leader's\n");
    return 1;
  }
  std::printf("%d of 7 reads served by followers, every checksum verified\n",
              served_by_follower);

  // --- Failover: the leader dies; the longest durable log wins. ------------
  shippers.clear();
  leader.reset();  // gone

  auto elect = elect_longest_log(std::vector<const FollowerReplica*>{
      followers[0].get(), followers[1].get()});
  if (!elect) {
    std::printf("no recoverable replica\n");
    return 1;
  }
  std::printf("elected follower %zu at durable version %llu\n", elect->winner,
              (unsigned long long)elect->durable_version);

  SpannerService::RecoveryReport rep;
  auto promoted = promote_follower(
      std::move(followers[elect->winner]),
      [cfg](uint64_t nn, const std::vector<Edge>& edges, uint32_t) {
        return std::make_unique<FullyDynamicSpanner>(static_cast<size_t>(nn),
                                                     edges, cfg);
      },
      &rep);
  if (promoted == nullptr) {
    std::printf("promotion failed\n");
    return 1;
  }
  std::printf(
      "promoted: restored version %llu (checksum %016llx), rebase published "
      "as %llu\n",
      (unsigned long long)rep.restored_version,
      (unsigned long long)rep.restored_checksum,
      (unsigned long long)rep.published_version);

  // The new leader serves immediately, and keeps ingesting under epoch 2.
  promoted->apply({Edge(0, VertexId(n / 2))}, {});
  std::printf("new leader serving at version %llu\n",
              (unsigned long long)promoted->snapshot()->version());
  return 0;
}
