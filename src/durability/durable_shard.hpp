// ShardDurability: one shard's write-ahead log + checkpoint lifecycle
// (DESIGN.md §10).
//
// Owns a directory of WAL segments and checkpoints and drives the
// protocol: every published version appends one record (WAL-before-publish
// — the caller appends, then publishes), a checkpoint every
// `checkpoint_every` records rotates the log to a fresh segment and
// garbage-collects everything older than the last `keep_checkpoints`
// checkpoints, and recover() rebuilds the exact pre-crash serving state —
// newest valid checkpoint, replay the log tail diff-by-diff with the
// content checksum re-verified per record, up to the end of the verified
// chain — plus the graph shadow a fresh backend is rebuilt from.
//
// The graph shadow: the durability layer folds every record's *input*
// batch (deletions then insertions, set semantics — exactly the backend's
// documented batch semantics) into a running edge-key set, so a checkpoint
// can serialize the graph without reaching into backend internals, and
// recovery can hand back the edge set the rebuilt backend must start from
// (DESIGN.md §10.4). The set is kept as the last checkpoint's sorted list
// plus the changes since, so neither a checkpoint nor a recovery ever
// hashes or sorts the whole graph.
//
// Failure is sticky: after any WAL or checkpoint I/O error the shard keeps
// serving from memory but failed() stays true and nothing further is
// logged — recovery then restores the last durable prefix (DESIGN.md
// §10.5). Cleanup failures (GC of old segments) are NOT failures: extra
// files never confuse recovery.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "container/flat_map.hpp"
#include "durability/checkpoint.hpp"
#include "durability/fs.hpp"
#include "durability/wal.hpp"
#include "service/spanner_snapshot.hpp"

namespace parspan {

/// The graph shadow: a sorted base list (the last checkpoint's graph) plus
/// the net changes folded in since. Folding a record is O(batch); reading
/// the set back sorted is one merge of the base with the sorted changes.
class GraphShadow {
 public:
  GraphShadow() = default;
  /// `sorted` must be strictly ascending (a checkpoint's graph list).
  explicit GraphShadow(std::vector<EdgeKey> sorted)
      : base_(std::move(sorted)) {}

  /// Folds one record's input batch: deletions then insertions, set
  /// semantics. Keys that are not edges over n vertices are skipped —
  /// WAL bytes are data, not invariants.
  void fold(const WalRecord& rec, uint64_t n);

  /// The current edge set, ascending.
  std::vector<EdgeKey> keys() const;

 private:
  std::vector<EdgeKey> base_;
  FlatHashMap<EdgeKey, bool> delta_;  // touched key -> present now
};

struct DurabilityOptions {
  FsyncPolicy fsync_policy = FsyncPolicy::kEveryRecord;
  /// Sync once per this many records (kEveryN).
  uint32_t fsync_every_n = 8;
  /// Sync when this much time passed since the last sync (kTimed; checked
  /// on the append path — an idle shard syncs on its next append).
  std::chrono::milliseconds fsync_interval{50};
  /// Checkpoint + truncate the log every this many records (0 = only the
  /// genesis/recovery checkpoints; the log then grows unboundedly).
  uint64_t checkpoint_every = 64;
  /// Older checkpoints kept as fallback against media rot of the newest
  /// (their log segments are retained too).
  uint32_t keep_checkpoints = 2;
};

class ShardDurability {
 public:
  /// Initializes a FRESH shard directory: wipes leftover ckpt/wal files,
  /// writes the genesis checkpoint for `version` (the just-published
  /// snapshot and the matching graph edge set, both ascending key lists),
  /// and opens the first log segment. nullptr on I/O failure.
  static std::unique_ptr<ShardDurability> create(
      std::shared_ptr<Fs> fs, std::string dir, const DurabilityOptions& opts,
      uint64_t n, uint32_t stretch, uint64_t version,
      std::span<const EdgeKey> snap_keys, uint64_t snapshot_checksum,
      std::vector<EdgeKey> graph_keys);

  /// Everything recover() restores about one shard.
  struct Recovered {
    uint64_t n = 0;
    uint32_t stretch = 0;
    uint64_t version = 0;   // restored snapshot version
    uint64_t checksum = 0;  // its content checksum (== last durably logged)
    SpannerSnapshot::Ptr snapshot;    // the restored spanner at `version`
    std::vector<EdgeKey> graph_keys;  // the restored graph, ascending
    uint64_t replayed_records = 0;
    /// True when the log ended in a torn/corrupt frame that was truncated
    /// (vs a clean end).
    bool tail_truncated = false;
    /// Positioned to continue logging at `version` (fresh segment).
    std::unique_ptr<ShardDurability> dur;
  };

  /// The verified chain fold with no cap (fold_verified_chain,
  /// wal_tail.hpp — DESIGN.md §10.4): newest verified checkpoint, then
  /// every record of the segment chain through SpannerSnapshot::apply's
  /// checked patch with its content checksum compared. Deletes the rotten
  /// checkpoints the fold skipped and reopens the writer at the restored
  /// version. nullopt when no valid checkpoint exists at all.
  static std::optional<Recovered> recover(std::shared_ptr<Fs> fs,
                                          std::string dir,
                                          const DurabilityOptions& opts);

  /// Appends one record (input batch + diff + resulting version/checksum),
  /// folds the input into the graph shadow, applies the fsync policy.
  /// False on (sticky) failure — the caller publishes anyway and the shard
  /// keeps serving, minus the durability claim.
  bool log_record(const WalRecord& rec);

  /// Checkpoint + rotate + GC if `checkpoint_every` records have been
  /// logged since the last checkpoint. `snap_keys`/`snapshot_checksum`
  /// must describe the snapshot at `version` (the one just published).
  bool maybe_checkpoint(uint64_t version, uint64_t snapshot_checksum,
                        std::span<const EdgeKey> snap_keys);

  /// maybe_checkpoint() of a just-published snapshot: walks its key list
  /// only when a checkpoint is due, so the per-batch path never pays the
  /// O(|spanner|) walk.
  bool maybe_checkpoint(const SpannerSnapshot& snap);

  /// Unconditional checkpoint (recovery epilogue: compact immediately so
  /// repeated crash/recover cycles never accumulate log). Takes the key
  /// list by value: a freshly walked list moves into the checkpoint.
  bool checkpoint_now(uint64_t version, uint64_t snapshot_checksum,
                      std::vector<EdgeKey> snap_keys);

  /// Sticky I/O failure. Safe to read from any thread: the sharded drain
  /// may cut a failing checkpoint after flush() has already returned.
  bool failed() const { return failed_.load(std::memory_order_acquire); }

  /// Highest version guaranteed durable: covered by a synced WAL frame or
  /// a committed checkpoint. The crash sweep's recovery lower bound. Safe
  /// to read from any thread while the writer logs: it is one atomic the
  /// writer stores after each append, sync, checkpoint and rotation.
  uint64_t durable_version() const {
    return durable_version_.load(std::memory_order_acquire);
  }

  uint64_t records_logged() const { return records_logged_; }

  /// Directory / filesystem / options this shard logs to — the log
  /// shipper tails the same directory read-only (DESIGN.md §11.1), and
  /// failover promotion rebuilds a service on a follower's own chain.
  const std::string& dir() const { return dir_; }
  const std::shared_ptr<Fs>& fs() const { return fs_; }
  const DurabilityOptions& options() const { return opts_; }

 private:
  ShardDurability(std::shared_ptr<Fs> fs, std::string dir,
                  const DurabilityOptions& opts, uint64_t n, uint32_t stretch);

  bool checkpoint_due() const;
  bool open_segment(uint64_t base_version);
  void publish_durable_version();
  void gc_old_files();

  std::shared_ptr<Fs> fs_;
  std::string dir_;
  DurabilityOptions opts_;
  uint64_t n_;
  uint32_t stretch_;
  GraphShadow graph_;  // shadow of the backend's graph edge set
  std::unique_ptr<WalWriter> wal_;
  std::atomic<bool> failed_{false};
  uint64_t last_ckpt_version_ = 0;
  uint64_t records_since_ckpt_ = 0;
  uint64_t records_logged_ = 0;
  std::vector<uint64_t> ckpt_versions_;  // committed, ascending
  std::atomic<uint64_t> durable_version_{0};
};

}  // namespace parspan
