// Write-ahead log of published batches (DESIGN.md §10.2).
//
// One WAL segment per checkpoint epoch, named wal-<base-version>.log. A
// segment is a fixed header followed by length-prefixed, CRC32C-framed
// records:
//
//   header := magic u64 | base_version u64 | reserved u64 | crc32c u32
//   frame  := payload_len u32 | crc32c(payload) u32 | payload bytes
//
// Every fixed-width integer is little-endian by explicit byte
// serialization — the on-disk image is identical across platforms, like
// the snapshot checksum it protects (DESIGN.md §10.1). Key lists are
// strictly-ascending and stored delta-compressed: the first key as a
// LEB128 varint, each subsequent key as the varint delta to its
// predecessor (>= 1 by construction — a zero delta marks the frame
// malformed). Sorted edge keys are delta-friendly, so this cuts record and
// checkpoint bytes roughly 3x, which is dirty data the fsync policy would
// otherwise have to push per sync.
//
// One record per published snapshot version, carrying BOTH what the caller
// asked (the drained input batch, deletions and insertions, key-sorted) and
// what the structure answered (the net SpannerDiff, key-sorted) plus the
// resulting snapshot's version and content checksum. Patching the
// checkpoint's snapshot with each diff (SpannerSnapshot::apply, checked)
// reproduces the snapshot sequence exactly (the §6 determinism contract is
// what makes the diff a perfect recovery payload); folding input batches keeps the graph shadow exact for the
// post-recovery rebase (DESIGN.md §10.4).
//
// Torn-tail rule: a reader accepts the longest prefix of structurally
// valid frames with contiguous versions and stops at the first violation —
// short frame, length overrun, CRC mismatch, or version gap. Nothing after
// a bad frame in that segment is ever replayed, even if it looks intact:
// the writer only appends after durable frames, so bytes past a tear are
// by definition garbage from a torn write. A later segment continues the
// chain only when its base is <= the last good version (wal_tail.hpp,
// DESIGN.md §10.3).
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "durability/frame.hpp"
#include "durability/fs.hpp"
#include "util/types.hpp"

namespace parspan {

/// Segment file name for base version `v` ("wal-<v:016x>.log").
std::string wal_file_name(uint64_t base_version);
/// Parses a segment file name; nullopt for other files.
std::optional<uint64_t> parse_wal_file_name(const std::string& name);

// The little-endian scalar codec, LEB128 varints, CRC32C, and the frame
// header codec live in durability/frame.hpp (included above) — shared with
// the checkpoint format, the replication ship frames, and the net wire
// protocol, all of which reuse these exact frozen conventions.

/// One durable record = one published snapshot version.
struct WalRecord {
  enum Type : uint8_t {
    kBatch = 1,   // a drained client batch applied by the backend
    kRebase = 2,  // post-recovery epoch switch: diff to the new backend's
                  // spanner (input sides empty) — DESIGN.md §10.4
  };
  uint8_t type = kBatch;
  uint64_t version = 0;   // snapshot version this record produces
  uint64_t checksum = 0;  // SpannerSnapshot content checksum at `version`
  // Input batch as drained (the §9.2 coalesced set semantics). All four
  // lists MUST be strictly ascending — the delta encoding requires it, and
  // the logger canonicalizes (sorts + dedups) inputs before logging.
  std::vector<EdgeKey> input_deleted;
  std::vector<EdgeKey> input_inserted;
  // Net spanner diff of this version (key-sorted, §6 contract).
  std::vector<EdgeKey> diff_removed;
  std::vector<EdgeKey> diff_inserted;
};

/// Serializes one record payload (no frame header). Key lists must be
/// strictly ascending.
std::vector<uint8_t> encode_wal_record(const WalRecord& rec);
/// The in-place form, for callers that frame into their own buffer (the
/// WAL writer, replication record frames): writes into at least
/// wal_record_payload_bound(rec) bytes, returns one past the last byte.
size_t wal_record_payload_bound(const WalRecord& rec);
uint8_t* encode_wal_record_to(const WalRecord& rec, uint8_t* p);
/// Parses one record payload; false on malformed structure (including a
/// non-ascending key list — the decoder proves the §6 sortedness
/// precondition, recovery never has to trust it).
bool decode_wal_record(const uint8_t* data, size_t len, WalRecord* out);

/// When appended frames are fsync'ed (DESIGN.md §10.2). Looser policies
/// trade the unsynced tail (lost on power failure, recovered up to the
/// last durable frame) for fewer fsyncs on the ingest path.
enum class FsyncPolicy : uint8_t {
  kEveryRecord,  // every append is durable before publish
  kEveryN,       // sync once per N appends
  kTimed,        // sync when `fsync_interval` elapsed since the last sync
};

struct WalWriterOptions {
  FsyncPolicy policy = FsyncPolicy::kEveryRecord;
  uint32_t every_n = 8;
  std::chrono::milliseconds interval{50};
};

/// Appends frames to one segment under a fsync policy. Failure is sticky:
/// after any failed append or sync the writer refuses further work (the
/// file tail is unspecified — DESIGN.md §10.5).
///
/// Frames are staged in a user-space buffer and written out at sync time
/// (or when the buffer passes a size threshold). This is loss-free by
/// construction: records between syncs are not durable under kEveryN /
/// kTimed whether they sit in the page cache or in this buffer — the crash
/// model loses both — and batching the write() keeps per-record syscall
/// and writeback cost off the ingest path. Under kEveryRecord every append
/// still reaches the disk before returning.
class WalWriter {
 public:
  /// Creates segment `path` with `base_version` and syncs the header, so
  /// the segment exists durably before any record does. failed() reports
  /// whether that worked.
  WalWriter(Fs& fs, const std::string& path, uint64_t base_version,
            const WalWriterOptions& opts);

  /// Stages one frame and applies the fsync policy. False (and sticky
  /// failure) on I/O error.
  bool append(const WalRecord& rec);

  /// Writes out staged frames and fsyncs (checkpoint barrier / policy
  /// sync). No-op while failed or with nothing pending.
  bool sync();

  bool failed() const { return failed_; }

  /// Highest record version covered by a successful sync (base_version
  /// when none) — the writer's own durability watermark, which the crash
  /// sweep uses as the recovery lower bound.
  uint64_t synced_version() const { return synced_version_; }

 private:
  /// Writes staged frames to the file without fsync (buffer bound, crash
  /// semantics unchanged: unwritten == unsynced == losable).
  bool flush_buffer();

  std::unique_ptr<FsFile> file_;
  std::vector<uint8_t> buffer_;  // staged frames since the last flush
  bool failed_ = false;
  uint64_t appended_version_;
  uint64_t synced_version_;
  uint32_t unsynced_records_ = 0;
  WalWriterOptions opts_;
  std::chrono::steady_clock::time_point last_sync_;
};

/// One parsed segment: the valid record prefix plus how it ended.
struct WalSegment {
  bool header_ok = false;
  uint64_t base_version = 0;
  std::vector<WalRecord> records;
  /// True when parsing stopped at a bad frame (torn/corrupt tail) rather
  /// than clean end-of-file.
  bool truncated_tail = false;
};

/// Reads and validates segment `path` per the torn-tail rule above.
/// Records come back with contiguous versions starting at base_version+1.
WalSegment read_wal_segment(Fs& fs, const std::string& path);

}  // namespace parspan
