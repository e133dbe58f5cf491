// Reusable non-blocking connection plumbing, shared by every protocol that
// speaks durability/frame.hpp frames over a socket: the NetServer front
// door (DESIGN.md §13) and the replication SocketTransport (§14). Extracted
// from server.cpp so a second wire protocol reuses the exact buffer
// discipline the front door hardened — edge-triggered-safe full drains,
// MSG_NOSIGNAL sends, bounded unparsed input, prefix compaction — instead
// of re-growing its own subtly different copy.
//
// Everything here is policy-free mechanism: callers decide what an
// overflow or a bad frame MEANS (the server kills the connection and
// counts a protocol error; the transport flags the peer gone). The only
// opinions baked in are the ones that are invariants, not policy:
//
//   * reads drain the fd to EAGAIN (required for edge-triggered epoll and
//     harmless for level-triggered/poll users);
//   * writes use MSG_NOSIGNAL, so a resetting peer surfaces as kError on
//     this connection instead of SIGPIPE killing the process;
//   * unparsed input is capped — a peer shovelling bytes that never
//     complete a frame is claiming a payload the cap already rejected.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "durability/frame.hpp"

namespace parspan::net {

/// Read granularity, and the slack allowed past the frame cap before an
/// unparsed input buffer counts as hostile.
constexpr size_t kReadChunk = 64 * 1024;
/// Compact a buffer's consumed prefix once it crosses this, so long-lived
/// connections don't accrete dead bytes.
constexpr size_t kCompactAt = 64 * 1024;

/// One connection's buffered bytes in both directions. `in_off`/`out_off`
/// are the parsed-up-to / sent-up-to offsets into their buffers.
struct ConnBufs {
  std::vector<uint8_t> in;
  size_t in_off = 0;
  std::vector<uint8_t> out;
  size_t out_off = 0;

  size_t in_pending() const { return in.size() - in_off; }
  size_t out_pending() const { return out.size() - out_off; }
};

/// Drops a buffer's consumed prefix: free when fully consumed, an erase
/// once the dead prefix crosses kCompactAt, a no-op otherwise.
void drop_prefix(std::vector<uint8_t>& buf, size_t& off);

enum class IoStatus : uint8_t {
  kOk,        // progress (possibly none) and the fd is still healthy
  kEof,       // orderly peer close; buffered frames still parse first
  kError,     // hard socket error (ECONNRESET, EPIPE, ...)
  kOverflow,  // unparsed input exceeded the cap: the peer is hostile
};

/// Drains a non-blocking fd into b.in until EAGAIN, EOF, or error — the
/// full drain is what makes this safe under edge-triggered epoll, where
/// the next EPOLLIN edge only comes after NEW bytes arrive. kOverflow when
/// more than `max_frame_payload + kFrameHeaderSize + kReadChunk` unparsed
/// bytes accumulate without completing a frame.
IoStatus read_to_buffer(int fd, ConnBufs& b, uint32_t max_frame_payload);

/// Pushes b.out until empty or EAGAIN (the kernel raises the next EPOLLOUT
/// edge when the socket drains — call after every append too, because an
/// idle-writable socket never gets another edge). Compacts the sent
/// prefix. Never reports overflow: output bounding is caller policy
/// (max_outbuf_bytes at the front door, max_buffered_bytes in the
/// replication transport), checked against out_pending() after the flush.
IoStatus flush_writes(int fd, ConnBufs& b);

/// Blocking I/O for the request/response clients (NetClient, the replica
/// control client). Both retry EINTR: on a socket with SO_RCVTIMEO, Linux
/// fails recv/send with EINTR whenever a signal handler runs (SA_RESTART
/// or not) and after SIGSTOP/SIGCONT — none of which means the peer is
/// gone. send_all: false on error or send timeout. read_some: bytes read,
/// or 0 on EOF, error, or receive timeout.
bool send_all(int fd, const uint8_t* p, size_t len);
size_t read_some(int fd, uint8_t* p, size_t len);

/// Parses the next frame from b.in at the parse offset; on kOk the view
/// points into b.in (valid until the next read or compaction) and the
/// caller advances with consume_frame.
inline FrameParse next_frame(const ConnBufs& b, uint32_t max_payload,
                             FrameView* fv) {
  return parse_frame(b.in.data() + b.in_off, b.in_pending(), max_payload, fv);
}
inline void consume_frame(ConnBufs& b, const FrameView& fv) {
  b.in_off += fv.consumed;
}
/// Call after a parse loop ends (kNeedMore) to compact the input buffer.
inline void finish_parse(ConnBufs& b) { drop_prefix(b.in, b.in_off); }

/// Non-blocking IPv4 listener: socket + SO_REUSEADDR + bind + listen.
/// Returns the fd (SOCK_NONBLOCK | SOCK_CLOEXEC) or -1; with port 0 the
/// kernel picks and *bound_port reports the result.
int tcp_listen(const std::string& bind_addr, uint16_t port, int backlog,
               uint16_t* bound_port);

/// Blocking IPv4 connect + TCP_NODELAY (CLOEXEC). When `nonblocking`, the
/// fd is switched to O_NONBLOCK after the connect succeeds — the dial
/// itself stays synchronous, which is what every caller here wants
/// (clients and transports connect once, then go event-driven). -1 on
/// failure.
int tcp_connect(const std::string& host, uint16_t port, bool nonblocking);

}  // namespace parspan::net
