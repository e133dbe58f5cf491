// NetServer: the non-blocking network front door over one
// ShardedSpannerService (DESIGN.md §13).
//
// Thread shape: one acceptor thread owns the listening socket and nothing
// else; it accept4()s connections and deals them round-robin to N event
// loops. Each loop is one thread around one edge-triggered epoll set:
// EPOLLIN drains a connection's socket into its input buffer and
// processes every complete frame, EPOLLOUT drains the output buffer back
// into the socket, and a per-loop eventfd wakes the loop for everything
// that happens off-thread (new connections from the acceptor, flush
// completions from drain threads, stop). A connection lives on exactly
// one loop for its whole life — all its state is loop-local and
// lock-free; the only cross-thread traffic is the eventfd-guarded
// mailbox.
//
// The loop never blocks on the service (§13.4):
//   * submit admission is always a zero-timeout try; a full queue answers
//     kRetryAfter with a client backoff hint instead of parking the
//     thread the other 10k connections are sharing.
//   * kSubmitFor parks the REQUEST (not the thread) on the loop's
//     deadline ladder; epoll_wait's timeout doubles as the retry tick,
//     re-trying admission until it wins or the deadline answers
//     kRetryAfter.
//   * kFlush registers a service-side flush_async callback; the publish
//     barrier completes on whichever writer drain satisfies it and posts
//     {conn, seq, vv} to the owning loop's mailbox. Pipelined queries
//     behind the flush answer immediately — seq ordering is what lets
//     the flush response overtake nothing and still match.
//
// Snapshot pinning: kPin resolves a ShardedView (refcounted snapshot per
// shard — SnapshotStore keeps every pinned version alive) and parks it in
// the connection's pin table; queries name a pin id, 0 meaning "current".
// Dropped connections drop their pins with them, so a client crash can
// never leak snapshot retention.
//
// Trust boundary: every byte off the socket is hostile until the frame
// CRC and decode_request prove otherwise. A malformed frame counts one
// protocol error and closes the connection — no resync scanning, exactly
// the WAL's torn-tail rule. Slow readers are bounded by kMaxOutbufBytes:
// a client that stops reading while piling up pipelined queries gets
// disconnected, not buffered without bound.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/protocol.hpp"
#include "service/sharded_service.hpp"

namespace parspan::net {

struct NetServerConfig {
  std::string bind_addr = "127.0.0.1";
  /// 0 = ephemeral: the kernel picks, port() reports.
  uint16_t port = 0;
  /// Event-loop thread count (>= 1). Loops share nothing; scale with
  /// cores that are not busy draining shards.
  int num_loops = 1;
  /// Hint returned with every kRetryAfter.
  uint32_t retry_after_ms = 10;
};

class NetServer {
 public:
  /// The service must outlive the server. Call start() to go live.
  NetServer(ShardedSpannerService& service, NetServerConfig cfg = {});
  /// stop()s if still running.
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Binds, listens, and spawns the acceptor + loop threads. False when
  /// the socket setup fails (port in use, bad address).
  bool start();

  /// Stops accepting, closes every connection, joins all threads.
  /// Idempotent. Deferred work in flight (parked submits, pending flush
  /// callbacks) is dropped — clients see the close.
  void stop();

  /// The bound port (resolved after start() for ephemeral binds).
  uint16_t port() const { return port_; }

  struct Stats {
    uint64_t connections_accepted = 0;
    uint64_t connections_closed = 0;
    uint64_t active_connections = 0;
    uint64_t requests = 0;
    uint64_t responses = 0;
    uint64_t retry_afters = 0;   // backpressure pushes sent
    uint64_t protocol_errors = 0;  // malformed frames/requests (fatal per conn)
  };
  Stats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  uint16_t port_ = 0;
};

}  // namespace parspan::net
