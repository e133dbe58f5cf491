// LogShipper: the leader-side half of WAL shipping (DESIGN.md §11.2).
//
// One shipper serves one follower over one transport. It owns no leader
// state: it tails the shard's durability directory read-only through the
// Fs seam (wal_tail.hpp) and is driven by two inputs per pump —
//
//   * the follower's last ReplicaCursor (epoch, applied version,
//     need_snapshot), drained from the transport's control plane;
//   * the leader's durable watermark, passed by the caller
//     (ShardDurability::durable_version()) — the hard ceiling on what may
//     ship. Unsynced WAL bytes are readable through the page cache but
//     never cross this seam.
//
// Per pump, the shipper ships the whole gap (cursor.version, watermark]
// as record frames, or a full snapshot frame when incremental shipping
// cannot work: no cursor yet says what the follower has, the cursor's
// epoch is not ours (the follower belongs to a previous leader), the
// follower asked (need_snapshot after a verified reject or its own fresh
// start), the follower is AHEAD of our durable state (it outlived a
// watermark we lost in failover), or the WAL range was GC'd past the ack
// point. Everything is resent until acked — idempotence on the follower
// side is what makes that correct under any fault schedule.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "durability/fs.hpp"
#include "replication/transport.hpp"

namespace parspan {

class LogShipper {
 public:
  /// `dir` is the leader shard's durability directory (tail it read-only);
  /// `epoch` is the leader's rebase epoch — followers reject frames from
  /// other epochs, which is how a deposed leader's late frames die.
  LogShipper(std::shared_ptr<Fs> fs, std::string dir, uint64_t epoch,
             std::shared_ptr<ReplicationTransport> transport);

  /// One shipping round against the current durable watermark. Cheap when
  /// the follower is caught up (drains cursors, ships nothing).
  void pump(uint64_t durable_version);

  uint64_t epoch() const { return epoch_; }
  /// Epoch of the follower's last cursor (0 before any). A cursor from a
  /// HIGHER epoch than ours is how a deposed leader learns it was
  /// replaced while it was away (DESIGN.md §14.3).
  uint64_t acked_epoch() const { return have_cursor_ ? cursor_.epoch : 0; }
  bool subscribed() const { return have_cursor_; }

  uint64_t records_shipped() const { return records_shipped_; }
  uint64_t snapshots_shipped() const { return snapshots_shipped_; }

 private:
  void ship_snapshot(uint64_t durable_version);

  std::shared_ptr<Fs> fs_;
  std::string dir_;
  uint64_t epoch_;
  std::shared_ptr<ReplicationTransport> transport_;
  ReplicaCursor cursor_{};
  bool have_cursor_ = false;
  uint64_t records_shipped_ = 0;
  uint64_t snapshots_shipped_ = 0;
};

}  // namespace parspan
