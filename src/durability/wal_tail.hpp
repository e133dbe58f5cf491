// The shard's durable chain, read one way (DESIGN.md §10.3, §10.4, §11.1).
//
// Which checkpoint and WAL segment files form a shard's chain, and where
// it ends, is decided here and nowhere else. Recovery, the shipper's
// snapshot resync and its incremental shipping all read through it:
//
//   * the checkpoint choice: the newest checkpoint at or below a version
//     cap whose content checksum re-derives from its own keys. Newer ones
//     that fail are skipped and reported as rotten.
//   * the segment walk: start at the newest segment whose base is <= the
//     starting version, and go on while the next base is <= the version
//     reached. Versions already held are skipped, versions must be
//     contiguous, and the walk stops at a gap or at the cap. A torn frame
//     ends its own segment only: a recovery that truncated a tear opens
//     its fresh segment exactly at the last good version.
//
// The watermark rule: the shipper caps every read at the shard's
// durable_version(). Bytes past it may be readable (staged frames reach
// the page cache before any fsync) but are not durable, and shipping them
// would let a follower get AHEAD of what the leader can recover, breaking
// failover's longest-durable-log election.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "durability/checkpoint.hpp"
#include "durability/durable_shard.hpp"
#include "durability/fs.hpp"
#include "durability/wal.hpp"
#include "service/spanner_snapshot.hpp"

namespace parspan {

/// The verified fold of one shard's chain up to a version cap.
struct VerifiedChain {
  /// The spanner at the version reached (its version(), checksum(),
  /// num_vertices() and stretch() are the restored state). Null when no
  /// checkpoint at or below the cap verifies.
  SpannerSnapshot::Ptr snapshot;
  GraphShadow graph;  // the graph at that version
  uint64_t replayed_records = 0;
  /// True when the chain ended at a torn frame, a bad segment header or a
  /// rejected record (vs a clean end, a gap or the cap).
  bool tail_truncated = false;
  /// Committed checkpoint versions at or below the chosen one, ascending.
  std::vector<uint64_t> checkpoints;
  /// Newer checkpoints at or below the cap that failed to load or verify.
  std::vector<uint64_t> rotten;
};

/// The checkpoint choice at `cap`, then the segment walk from it with every
/// record put through SpannerSnapshot::apply's checked patch and its
/// content checksum compared; a rejected record ends its segment like a
/// torn frame. Reads one segment at a time. Read-only: deleting the rotten
/// checkpoints is the caller's call.
VerifiedChain fold_verified_chain(Fs& fs, const std::string& dir,
                                  uint64_t cap);

/// The durable state at the highest recoverable version <= `max_version`:
/// fold_verified_chain at that cap, as key lists. Leaves rotten
/// checkpoints in place. nullopt when no checkpoint at or below the cap
/// verifies.
std::optional<DurableState> read_durable_state(Fs& fs, const std::string& dir,
                                               uint64_t max_version);

/// Collects the WAL records with versions in (from, to], in order: the
/// segment walk alone. Frames are CRC-checked and version-contiguous, but
/// diffs are NOT re-folded here — the follower re-verifies every record's
/// content checksum before applying, so verification happens once, on the
/// consuming side. False when the chain cannot produce the full range (the
/// anchor segment was GC'd, or a gap or a tear sits short of `to`): the
/// shipper then falls back to a snapshot resync via read_durable_state().
bool read_wal_range(Fs& fs, const std::string& dir, uint64_t from,
                    uint64_t to, std::vector<WalRecord>* out);

}  // namespace parspan
