// SocketTransport: ReplicationTransport over a real TCP connection
// (DESIGN.md §14.1), so LogShipper and FollowerReplica pump across
// processes unchanged.
//
// Wire layout — one codec, nothing re-invented: every message is a
// durability/frame.hpp frame (`payload_len u32 | crc32c u32 | payload`)
// whose payload opens with a WireKind byte:
//
//   kSnapshot / kRecord  a ShipFrame, sent verbatim (`kind u8 | epoch u64 |
//              body` — transport.hpp). The reader passes the whole frame
//              through; the follower's parse_ship_frame checks the same
//              CRC again and decodes the body. One CRC per shipped frame.
//   kCursor    body = epoch u64 | version u64 | need_snapshot u8 — the
//              control-plane ack, serialized here because structs can no
//              longer cross by reference.
//   kHeartbeat body = epoch u64. Leader liveness when there is nothing to
//              ship; any received byte feeds the lease, heartbeats just
//              guarantee a minimum byte rate.
//   kSubscribe body = follower_id u32 | wire_version u8. First message on
//              every follower-dialed connection; the listener routes the
//              connection (and applies partitions) by this id before any
//              replication traffic flows, and closes it when the version
//              is not kReplicationWireVersion.
//
// Failure semantics follow the front door's trust boundary: a torn or
// corrupt frame, an unknown kind, a wrong-sized body, or an input/
// output buffer exceeding its cap marks the peer gone and the fd dead —
// no resync scanning (the WAL's torn-tail rule). Peer-gone is not an
// error state the protocol must handle delicately: the cursor protocol is
// idempotent, so the healing move is always "dial a fresh connection and
// advertise the cursor again".
//
// Non-blocking everywhere: send_* stages bytes and opportunistically
// flushes; recv_* drains the socket and parses; nothing ever blocks the
// pumping thread. A SIGSTOPped or wedged peer therefore costs the leader
// at most max_buffered_bytes of staging memory, never a stalled shipping
// loop — the lease, not the socket, decides when the peer is dead.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "net/framed_conn.hpp"
#include "replication/transport.hpp"

namespace parspan {

/// Message encoders, exposed for tests (golden bytes, hostile sweeps) and
/// for the listener's subscribe handshake. Each appends one sealed frame
/// to `out`. (Ship frames need no encoder: a ShipFrame is already one.)
void encode_cursor_msg(std::vector<uint8_t>& out, const ReplicaCursor& cursor);
void encode_heartbeat_msg(std::vector<uint8_t>& out, uint64_t epoch);
void encode_subscribe_msg(std::vector<uint8_t>& out, uint32_t follower_id);

struct SocketTransportConfig {
  /// Staged-output cap: a peer that stops reading (SIGSTOP mid-frame) is
  /// declared gone once this much output backs up, bounding the leader's
  /// memory — shipping to the other followers never stalls either way.
  size_t max_buffered_bytes = 64u << 20;
};

class SocketTransport final : public ReplicationTransport {
 public:
  using Clock = std::chrono::steady_clock;

  /// Takes ownership of a connected NON-BLOCKING fd. `preread` is any
  /// bytes already consumed from the socket past the handshake (the
  /// listener may over-read past the subscribe frame); they are parsed as
  /// if just received.
  explicit SocketTransport(int fd, SocketTransportConfig cfg = {},
                           std::vector<uint8_t> preread = {});
  ~SocketTransport() override;

  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  /// Follower-side dial: blocking connect, then the subscribe message with
  /// this follower's id, then non-blocking forever after. nullptr when the
  /// leader is unreachable — callers retry on their reconnect cadence.
  static std::shared_ptr<SocketTransport> connect(const std::string& host,
                                                  uint16_t port,
                                                  uint32_t follower_id,
                                                  SocketTransportConfig cfg = {});

  // --- ReplicationTransport ----------------------------------------------
  void send_frame(ShipFrame frame) override;
  std::optional<ShipFrame> recv_frame() override;
  void send_cursor(const ReplicaCursor& cursor) override;
  std::optional<ReplicaCursor> recv_cursor() override;

  /// Leader liveness signal for the follower's lease when the log is idle.
  void send_heartbeat(uint64_t epoch);

  /// One I/O round with no message: drain the socket (so last_rx moves and
  /// inbound messages queue) and push staged output. Call on every tick —
  /// recv_*/send_* also pump, poll() just guarantees progress on idle
  /// ticks.
  void poll();

  /// True once the connection is unusable: peer closed, socket error,
  /// corrupt frame, or buffer cap breached. Sticky — the healing path is a
  /// new connection, never this object.
  bool peer_gone() const;

  /// Instant of the most recent received byte (construction time before
  /// any traffic). The lease clock.
  Clock::time_point last_rx() const;

  /// Epoch carried by the most recent heartbeat (0 before any).
  uint64_t last_heartbeat_epoch() const;

 private:
  void parse_locked();
  void pump_locked();
  void flush_locked();
  void fail_locked();

  mutable std::mutex mu_;
  int fd_ = -1;
  SocketTransportConfig cfg_;
  net::ConnBufs bufs_;
  bool peer_gone_ = false;
  Clock::time_point last_rx_;
  uint64_t last_heartbeat_epoch_ = 0;
  std::deque<ShipFrame> frames_in_;
  std::deque<ReplicaCursor> cursors_in_;
};

/// Leader-side acceptor for replication connections, embedded next to
/// NetServer (same loopback process, its own port). Poll-driven from the
/// leader's replication tick — follower counts are small, so there is no
/// epoll machinery here, just non-blocking accepts and handshake reads.
///
/// A connection surfaces through take_accepted() only after its subscribe
/// frame arrives with this build's wire version and its follower id passes
/// the refusal set. Refusal IS
/// the partition mechanism (§14.3): chaosctl partitions a follower by
/// telling the leader to refuse its id — existing connections are for the
/// node layer to drop; this listener guarantees no NEW connection from
/// that id gets through until healed.
class ReplicationListener {
 public:
  using Clock = std::chrono::steady_clock;

  explicit ReplicationListener(SocketTransportConfig cfg = {});
  ~ReplicationListener();

  ReplicationListener(const ReplicationListener&) = delete;
  ReplicationListener& operator=(const ReplicationListener&) = delete;

  /// Binds and listens. 0 = ephemeral (port() reports). False on failure.
  bool start(const std::string& bind_addr, uint16_t port);
  void stop();
  uint16_t port() const { return port_; }

  /// Accepts pending connections and advances handshakes. Call on the
  /// leader's replication tick.
  void poll();

  struct Accepted {
    uint32_t follower_id = 0;
    std::shared_ptr<SocketTransport> transport;
  };
  /// Drains connections whose handshake completed since the last call.
  std::vector<Accepted> take_accepted();

  /// While refused, a follower id's handshakes are closed on sight.
  void set_refused(uint32_t follower_id, bool refused);
  bool is_refused(uint32_t follower_id) const;

 private:
  struct Pending {
    int fd = -1;
    net::ConnBufs bufs;
    Clock::time_point since;
  };

  mutable std::mutex mu_;
  SocketTransportConfig cfg_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::vector<Pending> pending_;
  std::vector<Accepted> accepted_;
  std::vector<uint32_t> refused_;
};

}  // namespace parspan
