// FollowerReplica: the receiving half of WAL shipping (DESIGN.md §11.3).
//
// A follower is backend-less on purpose: it never runs the spanner
// algorithm. It replays the leader's verified record stream — exactly the
// recovery replay loop, fed by the network instead of a local disk — and
// serves the resulting SpannerSnapshot sequence through its own
// SnapshotStore. Every record must (a) be the NEXT version in the
// follower's chain, (b) pass SpannerSnapshot::apply's §6 preconditions
// against the follower's current snapshot, and (c) reproduce the leader's
// logged content checksum byte-exactly. The patched snapshot is then
// published as is — the check and the publish are one pass. Anything else is dropped (duplicate /
// gap: the shipper re-ships) or rejected (verification failure: the
// follower flags need_snapshot and is re-seeded wholesale). Silent
// divergence is structurally impossible: state only ever changes through a
// checksum-verified transition or a checksum-verified snapshot adoption.
//
// Durability: each applied record is appended to the follower's OWN
// WAL/checkpoint chain (same ShardDurability driver as the leader), so a
// crashed follower recovers its durable prefix locally and resumes from
// its cursor instead of re-shipping the world. That chain is also what
// failover election measures (durable_version()) and what promotion
// rebuilds a full SpannerService from.
//
// Epochs: frames carry the leader's rebase epoch. A follower adopts a
// higher epoch only via a verified snapshot (the new leader's rebase
// changed history), drops lower-epoch frames (a deposed leader's last
// breaths), and persists the adopted epoch next to its chain so a
// crash+recover rejoins the right leader.
//
// Threading: pump() is single-threaded (one replication thread per
// follower); snapshot() is safe from any thread, like every store.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "durability/durable_shard.hpp"
#include "replication/transport.hpp"
#include "service/snapshot_store.hpp"

namespace parspan {

/// The epoch sidecar next to a replica's chain (`<dir>/epoch`): the epoch
/// as u64 LE plus its crc32c. A missing or torn file reads back as epoch
/// 0, which is always safe — the replica just resyncs into the current
/// epoch.
uint64_t read_epoch_sidecar(Fs& fs, const std::string& dir);
/// Best-effort durable write: a lost file downgrades a later recovery to
/// epoch 0 (a forced resync), never to wrong state.
void write_epoch_sidecar(Fs& fs, const std::string& dir, uint64_t epoch);

class FollowerReplica {
 public:
  /// A fresh, stateless follower: first pump advertises need_snapshot and
  /// the shipper seeds it. `dir` is wiped on adoption (a fresh genesis).
  FollowerReplica(std::shared_ptr<Fs> fs, std::string dir,
                  const DurabilityOptions& opts,
                  std::shared_ptr<ReplicationTransport> transport);

  /// Rebuilds a follower from its own chain after a crash: newest valid
  /// checkpoint + verified WAL replay (the durable prefix — in-flight
  /// frames past the follower's own watermark are re-shipped by the
  /// leader, keyed off the recovered cursor). Never fails: with no valid
  /// checkpoint it degrades to a fresh follower that resyncs.
  static std::unique_ptr<FollowerReplica> recover(
      std::shared_ptr<Fs> fs, std::string dir, const DurabilityOptions& opts,
      std::shared_ptr<ReplicationTransport> transport);

  /// One apply round: drain frames, verify + apply each, advertise the
  /// resulting cursor. Call repeatedly (replication thread).
  void pump();

  bool has_state() const { return have_state_; }
  uint64_t applied_version() const { return version_; }
  uint64_t applied_checksum() const { return checksum_; }
  uint64_t epoch() const { return epoch_; }
  bool needs_resync() const { return need_snapshot_; }

  /// Highest version this follower can itself recover — the election
  /// metric of failover ("longest durably-verified log"). 0 while
  /// stateless or when its own chain failed at genesis.
  uint64_t durable_version() const {
    return dur_ != nullptr ? dur_->durable_version() : 0;
  }

  /// Currently served snapshot (null while stateless). Any thread.
  SpannerSnapshot::Ptr snapshot() const { return store_->acquire(); }

  // --- Apply accounting (test oracle + observability) ----------------------
  uint64_t records_applied() const { return records_applied_; }
  uint64_t duplicates_dropped() const { return duplicates_; }
  /// Frames that failed parse/CRC or checksum/precondition verification —
  /// every one is an explicit, counted rejection, never a silent skip.
  uint64_t rejects() const { return rejects_; }
  uint64_t snapshot_resyncs() const { return resyncs_; }
  uint64_t stale_epoch_drops() const { return stale_drops_; }

  // --- Promotion handoff (failover.hpp) ------------------------------------
  const std::shared_ptr<Fs>& fs() const { return fs_; }
  const std::string& dir() const { return dir_; }
  const DurabilityOptions& options() const { return opts_; }

 private:
  void adopt_snapshot(uint64_t frame_epoch, DurableState state);
  void apply_record(uint64_t frame_epoch, const WalRecord& rec);

  std::shared_ptr<Fs> fs_;
  std::string dir_;
  DurabilityOptions opts_;
  std::shared_ptr<ReplicationTransport> transport_;

  bool have_state_ = false;
  bool need_snapshot_ = false;
  uint64_t epoch_ = 0;
  uint64_t n_ = 0;
  uint32_t stretch_ = 0;
  uint64_t version_ = 0;
  uint64_t checksum_ = 0;

  std::unique_ptr<ShardDurability> dur_;  // the follower's own chain
  // unique_ptr so a cross-epoch adoption can swap in a fresh store: a
  // rebase reuses version numbers with different content, which must not
  // mix in one monotone publish chain (pinned readers keep old snapshots
  // alive regardless).
  std::unique_ptr<SnapshotStore> store_;

  uint64_t records_applied_ = 0;
  uint64_t duplicates_ = 0;
  uint64_t rejects_ = 0;
  uint64_t resyncs_ = 0;
  uint64_t stale_drops_ = 0;
};

}  // namespace parspan
