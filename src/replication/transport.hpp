// ReplicationTransport: the wire seam between a leader's LogShipper and a
// FollowerReplica (DESIGN.md §11.2).
//
// Two planes, deliberately asymmetric:
//
//  * Data plane (leader -> follower): ShipFrames — REAL serialized bytes,
//    one durability/frame.hpp frame each: `payload_len u32 | crc32c u32 |
//    kind u8 | epoch u64 | body` — so transport faults operate on the
//    representation that crosses a socket (SocketTransport sends these
//    bytes verbatim). The CRC32C covers kind + epoch + body (the epoch is
//    authenticated: a flipped epoch bit must not forge a frame from a
//    phantom epoch), and the frame must fill its bytes exactly. A
//    truncated or bit-flipped frame is caught exactly as a torn WAL frame
//    is caught by read_wal_segment; CRC32C's linearity means no single-bit
//    flip can ever pass.
//  * Control plane (follower -> leader): ReplicaCursors — small acks
//    passed as structs. Faults may drop or delay cursors (a lost ack just
//    makes the shipper resend; the follower dedups by version), but never
//    corrupt them: corrupting acks tests nothing the data plane doesn't
//    already, while losing them exercises the retry loop.
//
// The shipping protocol is cursor-driven and idempotent: the follower
// advertises (epoch, applied version, need_snapshot) after every pump, the
// shipper ships everything between the last advertised cursor and the
// leader's durable watermark on every pump. Any frame may be lost,
// duplicated, reordered, or mangled — the follower accepts exactly the
// next version in its chain and drops/rejects everything else, so
// re-shipping is always safe and eventual convergence only needs SOME
// pump round to deliver cleanly.
//
// ChannelTransport is the in-process FIFO used by tests and by
// FaultyTransport, which wraps the same queues behind the fault knobs
// mirroring MemFs (drop/duplicate/reorder/truncate/bit-flip/partition).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "durability/checkpoint.hpp"
#include "durability/wal.hpp"
#include "util/rng.hpp"

namespace parspan {

/// One data-plane frame, as the bytes that would cross a socket.
struct ShipFrame {
  std::vector<uint8_t> bytes;
};

/// The `kind u8` that opens every replication frame payload, ship frames
/// and SocketTransport's control messages alike.
enum class WireKind : uint8_t {
  kSnapshot = 1,   // full durable state (bootstrap / resync)
  kRecord = 2,     // one WAL record (incremental ship)
  kCursor = 3,     // follower -> leader ack (SocketTransport only)
  kHeartbeat = 4,  // leader liveness (SocketTransport only)
  kSubscribe = 5,  // a dialed connection's first message (SocketTransport)
};

/// Carried in the subscribe message; the listener closes a subscribe from
/// any other version, so mismatched builds never exchange a ship frame.
/// Bump it whenever any replication payload changes — including the WAL
/// record encoding that record frames embed byte-for-byte.
constexpr uint8_t kReplicationWireVersion = 1;

/// Follower -> leader ack: what the follower has applied and whether it
/// needs a full resync (fresh, wrong epoch, or a verified-reject).
struct ReplicaCursor {
  uint64_t epoch = 0;
  uint64_t version = 0;  // highest applied version
  bool need_snapshot = false;
};

/// Frame encoders. Record frames reuse the WAL record payload encoding
/// byte-for-byte (one serialization to test, one to freeze); snapshot
/// frames carry a DurableState (both key lists delta-compressed like WAL
/// key lists).
ShipFrame make_record_frame(uint64_t epoch, const WalRecord& rec);
ShipFrame make_snapshot_frame(uint64_t epoch, const DurableState& state);

/// A structurally valid, CRC-verified frame. Exactly one of rec/state is
/// meaningful, per `kind`.
struct ParsedFrame {
  WireKind kind = WireKind::kRecord;
  uint64_t epoch = 0;
  WalRecord rec;
  DurableState state;
};

/// Validates and decodes one frame: the frame fills the bytes exactly (no
/// truncation, no padding), CRC, ship kind, body structure (including
/// strictly-ascending key lists). nullopt on any violation — the follower
/// counts it and waits for the re-ship.
std::optional<ParsedFrame> parse_ship_frame(const ShipFrame& frame);

/// The seam. One instance connects one (shipper, follower) pair; both
/// directions are non-blocking (recv returns nullopt when empty).
/// Implementations are thread-safe: shipper and follower may pump from
/// different threads.
class ReplicationTransport {
 public:
  virtual ~ReplicationTransport() = default;
  virtual void send_frame(ShipFrame frame) = 0;
  virtual std::optional<ShipFrame> recv_frame() = 0;
  virtual void send_cursor(const ReplicaCursor& cursor) = 0;
  virtual std::optional<ReplicaCursor> recv_cursor() = 0;
};

/// Faithful in-process FIFO — the "healthy network" baseline.
class ChannelTransport final : public ReplicationTransport {
 public:
  void send_frame(ShipFrame frame) override;
  std::optional<ShipFrame> recv_frame() override;
  void send_cursor(const ReplicaCursor& cursor) override;
  std::optional<ReplicaCursor> recv_cursor() override;

 private:
  std::mutex mu_;
  std::deque<ShipFrame> frames_;
  std::deque<ReplicaCursor> cursors_;
};

/// Per-send fault probabilities, mirroring MemFs's knobs. All faults are
/// decided by one deterministic Rng(seed), so a failing schedule replays
/// exactly.
struct FaultPlan {
  double drop_p = 0.0;       // frame vanishes
  double dup_p = 0.0;        // frame delivered twice
  double reorder_p = 0.0;    // frame held back, released after later traffic
  double truncate_p = 0.0;   // frame cut to a random strict prefix
  double bit_flip_p = 0.0;   // one random bit of the frame flipped
  double cursor_drop_p = 0.0;  // ack vanishes (control plane)
};

/// Fault-injecting wrapper over a private ChannelTransport. Partition is a
/// switch, not a probability: while partitioned, NOTHING crosses in either
/// direction (frames and cursors dropped and counted) — the harness heals
/// it explicitly and asserts catch-up. Eventual delivery holds whenever
/// drop_p/cursor_drop_p < 1 and the partition heals: held-back frames are
/// flushed as soon as a recv finds the channel otherwise empty, so no
/// frame is withheld forever.
class FaultyTransport final : public ReplicationTransport {
 public:
  FaultyTransport(const FaultPlan& plan, uint64_t seed)
      : plan_(plan), rng_(seed) {}

  /// Held-back reorder frames are still pending delivery; flush them so
  /// they count as delivered, not silently vanished.
  ~FaultyTransport() override { drain(); }

  void send_frame(ShipFrame frame) override;
  std::optional<ShipFrame> recv_frame() override;
  void send_cursor(const ReplicaCursor& cursor) override;
  std::optional<ReplicaCursor> recv_cursor() override;

  /// Releases every held-back reorder frame into the channel immediately.
  /// recv_frame already flushes holdbacks once the channel runs dry, but a
  /// harness that stops pumping mid-schedule would otherwise end with held
  /// frames neither delivered nor counted as dropped — understating
  /// delivered-frame counts. Call at end-of-schedule (the destructor also
  /// calls it); frames released here are counted in frames_drained_late.
  void drain();

  void set_partitioned(bool on) {
    std::lock_guard<std::mutex> lk(mu_);
    partitioned_ = on;
  }

  /// Fault accounting, for test assertions ("this schedule actually
  /// injected something") and observability parity with MemFs.
  struct Stats {
    uint64_t frames_sent = 0;  // offered, pre-fault
    uint64_t frames_dropped = 0;
    uint64_t frames_duplicated = 0;
    uint64_t frames_reordered = 0;
    uint64_t frames_truncated = 0;
    uint64_t frames_bit_flipped = 0;
    /// Holdbacks released by an explicit drain() (or destruction) instead
    /// of the natural channel-dry flush — distinct so a schedule's
    /// delivered-count assertions can tell late delivery from loss.
    uint64_t frames_drained_late = 0;
    uint64_t cursors_sent = 0;
    uint64_t cursors_dropped = 0;
  };
  Stats stats() const {
    std::lock_guard<std::mutex> lk(mu_);
    return stats_;
  }

 private:
  // Caller holds mu_. Applies truncate/bit-flip to one frame in place.
  void mangle(ShipFrame& f);

  mutable std::mutex mu_;
  FaultPlan plan_;
  Rng rng_;
  bool partitioned_ = false;
  ChannelTransport inner_;
  std::vector<ShipFrame> held_;  // reorder holdback
  Stats stats_;
};

}  // namespace parspan
