#include "replication/socket_transport.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <utility>

namespace parspan {

namespace {

using net::IoStatus;

constexpr size_t kCursorBodySize = 8 + 8 + 1;   // epoch | version | need
constexpr size_t kHeartbeatBodySize = 8;        // epoch
constexpr size_t kSubscribeBodySize = 4 + 1;    // follower_id | version
// Frame payload cap. Must admit the largest snapshot frame the leader can
// ship (a full-graph key list); 64 MiB of keys is far past any graph the
// benches or chaos harness build.
constexpr uint32_t kMaxShipFramePayload = 64u << 20;
// A half-open dialer gets this long to produce its subscribe frame before
// the listener reclaims the fd — hostile peers must not park fds forever.
constexpr auto kHandshakeTimeout = std::chrono::seconds(5);

// Appends one sealed `kind u8 | body` frame; control bodies are tiny.
void append_msg(std::vector<uint8_t>& out, WireKind kind, const uint8_t* body,
                size_t len) {
  uint8_t payload[1 + kCursorBodySize];
  assert(len <= kCursorBodySize && "the cursor body is the largest");
  payload[0] = static_cast<uint8_t>(kind);
  std::copy(body, body + len, payload + 1);
  append_frame(out, payload, 1 + len);
}

}  // namespace

void encode_cursor_msg(std::vector<uint8_t>& out, const ReplicaCursor& cursor) {
  uint8_t body[kCursorBodySize];
  store_le64(body, cursor.epoch);
  store_le64(body + 8, cursor.version);
  body[16] = cursor.need_snapshot ? 1 : 0;
  append_msg(out, WireKind::kCursor, body, sizeof(body));
}

void encode_heartbeat_msg(std::vector<uint8_t>& out, uint64_t epoch) {
  uint8_t body[kHeartbeatBodySize];
  store_le64(body, epoch);
  append_msg(out, WireKind::kHeartbeat, body, sizeof(body));
}

void encode_subscribe_msg(std::vector<uint8_t>& out, uint32_t follower_id) {
  uint8_t body[kSubscribeBodySize];
  store_le32(body, follower_id);
  body[4] = kReplicationWireVersion;
  append_msg(out, WireKind::kSubscribe, body, sizeof(body));
}

// --- SocketTransport --------------------------------------------------------

SocketTransport::SocketTransport(int fd, SocketTransportConfig cfg,
                                 std::vector<uint8_t> preread)
    : fd_(fd), cfg_(cfg), last_rx_(Clock::now()) {
  bufs_.in = std::move(preread);
  std::lock_guard<std::mutex> lk(mu_);
  // Bytes the listener over-read past the handshake are messages this
  // transport owns; parse them as if just received.
  if (!bufs_.in.empty()) parse_locked();
}

SocketTransport::~SocketTransport() {
  std::lock_guard<std::mutex> lk(mu_);
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

std::shared_ptr<SocketTransport> SocketTransport::connect(
    const std::string& host, uint16_t port, uint32_t follower_id,
    SocketTransportConfig cfg) {
  const int fd = net::tcp_connect(host, port, /*nonblocking=*/true);
  if (fd < 0) return nullptr;
  auto t = std::make_shared<SocketTransport>(fd, cfg);
  // The subscribe frame is tiny and the socket buffer fresh: staging plus
  // one flush delivers it; any unlikely remainder rides the next poll.
  std::lock_guard<std::mutex> lk(t->mu_);
  encode_subscribe_msg(t->bufs_.out, follower_id);
  t->flush_locked();
  return t;
}

void SocketTransport::fail_locked() {
  peer_gone_ = true;
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  // Staged output can never be sent; inbound messages already CRC-verified
  // stay deliverable (they were good before the stream died).
  bufs_.out.clear();
  bufs_.out_off = 0;
}

void SocketTransport::parse_locked() {
  while (!peer_gone_) {
    FrameView fv;
    const FrameParse p = net::next_frame(bufs_, kMaxShipFramePayload, &fv);
    if (p == FrameParse::kNeedMore) break;
    if (p == FrameParse::kBad || fv.len < 1) {
      fail_locked();  // torn-tail rule: no resync scanning
      return;
    }
    const uint8_t* body = fv.payload + 1;
    const size_t len = fv.len - 1;
    switch (static_cast<WireKind>(fv.payload[0])) {
      case WireKind::kSnapshot:
      case WireKind::kRecord: {
        // The whole frame is the ShipFrame; the follower verifies it.
        ShipFrame f;
        f.bytes.assign(fv.payload - kFrameHeaderSize, fv.payload + fv.len);
        frames_in_.push_back(std::move(f));
        break;
      }
      case WireKind::kCursor: {
        if (len != kCursorBodySize) {
          fail_locked();
          return;
        }
        ReplicaCursor c;
        c.epoch = get_le64(body);
        c.version = get_le64(body + 8);
        c.need_snapshot = body[16] != 0;
        cursors_in_.push_back(c);
        break;
      }
      case WireKind::kHeartbeat: {
        if (len != kHeartbeatBodySize) {
          fail_locked();
          return;
        }
        last_heartbeat_epoch_ = get_le64(body);
        break;
      }
      case WireKind::kSubscribe:
        // Subscribes only exist during the listener handshake; one here
        // is a confused or hostile peer.
        fail_locked();
        return;
      default:
        fail_locked();
        return;
    }
    net::consume_frame(bufs_, fv);
  }
  net::finish_parse(bufs_);
}

void SocketTransport::pump_locked() {
  if (peer_gone_ || fd_ < 0) return;
  const size_t before = bufs_.in.size();
  const IoStatus st = net::read_to_buffer(fd_, bufs_, kMaxShipFramePayload);
  if (bufs_.in.size() > before) last_rx_ = Clock::now();
  if (st == IoStatus::kError || st == IoStatus::kOverflow) {
    fail_locked();
    return;
  }
  parse_locked();
  // EOF: everything buffered was parsed above; the stream is over.
  if (st == IoStatus::kEof && !peer_gone_) fail_locked();
}

void SocketTransport::flush_locked() {
  if (peer_gone_ || fd_ < 0) return;
  if (net::flush_writes(fd_, bufs_) == IoStatus::kError) {
    fail_locked();
    return;
  }
  if (bufs_.out_pending() > cfg_.max_buffered_bytes) {
    // The peer stopped reading (SIGSTOP, wedge): bounded memory beats an
    // unbounded backlog — the lease already decided this peer's fate.
    fail_locked();
  }
}

void SocketTransport::send_frame(ShipFrame frame) {
  std::lock_guard<std::mutex> lk(mu_);
  if (peer_gone_) return;
  bufs_.out.insert(bufs_.out.end(), frame.bytes.begin(), frame.bytes.end());
  flush_locked();
}

std::optional<ShipFrame> SocketTransport::recv_frame() {
  std::lock_guard<std::mutex> lk(mu_);
  pump_locked();
  if (frames_in_.empty()) return std::nullopt;
  ShipFrame f = std::move(frames_in_.front());
  frames_in_.pop_front();
  return f;
}

void SocketTransport::send_cursor(const ReplicaCursor& cursor) {
  std::lock_guard<std::mutex> lk(mu_);
  if (peer_gone_) return;
  encode_cursor_msg(bufs_.out, cursor);
  flush_locked();
}

std::optional<ReplicaCursor> SocketTransport::recv_cursor() {
  std::lock_guard<std::mutex> lk(mu_);
  pump_locked();
  if (cursors_in_.empty()) return std::nullopt;
  ReplicaCursor c = cursors_in_.front();
  cursors_in_.pop_front();
  return c;
}

void SocketTransport::send_heartbeat(uint64_t epoch) {
  std::lock_guard<std::mutex> lk(mu_);
  if (peer_gone_) return;
  encode_heartbeat_msg(bufs_.out, epoch);
  flush_locked();
}

void SocketTransport::poll() {
  std::lock_guard<std::mutex> lk(mu_);
  pump_locked();
  flush_locked();
}

bool SocketTransport::peer_gone() const {
  std::lock_guard<std::mutex> lk(mu_);
  return peer_gone_;
}

SocketTransport::Clock::time_point SocketTransport::last_rx() const {
  std::lock_guard<std::mutex> lk(mu_);
  return last_rx_;
}

uint64_t SocketTransport::last_heartbeat_epoch() const {
  std::lock_guard<std::mutex> lk(mu_);
  return last_heartbeat_epoch_;
}

// --- ReplicationListener ----------------------------------------------------

ReplicationListener::ReplicationListener(SocketTransportConfig cfg)
    : cfg_(cfg) {}

ReplicationListener::~ReplicationListener() { stop(); }

bool ReplicationListener::start(const std::string& bind_addr, uint16_t port) {
  std::lock_guard<std::mutex> lk(mu_);
  if (listen_fd_ >= 0) return false;
  listen_fd_ = net::tcp_listen(bind_addr, port, /*backlog=*/64, &port_);
  return listen_fd_ >= 0;
}

void ReplicationListener::stop() {
  std::lock_guard<std::mutex> lk(mu_);
  if (listen_fd_ >= 0) ::close(listen_fd_);
  listen_fd_ = -1;
  for (Pending& p : pending_)
    if (p.fd >= 0) ::close(p.fd);
  pending_.clear();
  accepted_.clear();  // shared_ptr transports close their own fds
}

void ReplicationListener::poll() {
  std::lock_guard<std::mutex> lk(mu_);
  if (listen_fd_ < 0) return;
  const auto now = Clock::now();
  for (;;) {
    const int fd =
        accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) break;  // EAGAIN, fd exhaustion, transient — next poll
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    pending_.push_back(Pending{fd, {}, now});
  }
  for (size_t i = 0; i < pending_.size();) {
    Pending& p = pending_[i];
    const IoStatus st = net::read_to_buffer(p.fd, p.bufs, kMaxShipFramePayload);
    bool done = st == IoStatus::kEof || st == IoStatus::kError ||
                st == IoStatus::kOverflow;
    if (!done) {
      FrameView fv;
      const FrameParse pr = net::next_frame(p.bufs, kMaxShipFramePayload, &fv);
      if (pr == FrameParse::kOk) {
        done = true;  // the fd is either adopted or closed below
        // Anything but a subscribe of exactly this build's version is
        // closed here, before it can become a transport.
        const bool is_subscribe =
            fv.len == 1 + kSubscribeBodySize &&
            fv.payload[0] == static_cast<uint8_t>(WireKind::kSubscribe) &&
            fv.payload[1 + 4] == kReplicationWireVersion;
        if (is_subscribe) {
          const uint32_t id = get_le32(fv.payload + 1);
          net::consume_frame(p.bufs, fv);
          if (!std::count(refused_.begin(), refused_.end(), id)) {
            // Hand any over-read bytes to the transport with the fd.
            std::vector<uint8_t> leftover(p.bufs.in.begin() +
                                              ptrdiff_t(p.bufs.in_off),
                                          p.bufs.in.end());
            accepted_.push_back(Accepted{
                id, std::make_shared<SocketTransport>(p.fd, cfg_,
                                                      std::move(leftover))});
            p.fd = -1;  // ownership moved
          }
        }
        // Non-subscribe first frame: hostile or another build, closed below.
      } else if (pr == FrameParse::kBad) {
        done = true;
      } else {
        done = now - p.since > kHandshakeTimeout;  // half-open squatter
      }
    }
    if (done) {
      if (p.fd >= 0) ::close(p.fd);
      pending_.erase(pending_.begin() + ptrdiff_t(i));
    } else {
      ++i;
    }
  }
}

std::vector<ReplicationListener::Accepted> ReplicationListener::take_accepted() {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<Accepted> out;
  out.swap(accepted_);
  return out;
}

void ReplicationListener::set_refused(uint32_t follower_id, bool refused) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = std::find(refused_.begin(), refused_.end(), follower_id);
  if (refused && it == refused_.end()) refused_.push_back(follower_id);
  if (!refused && it != refused_.end()) refused_.erase(it);
}

bool ReplicationListener::is_refused(uint32_t follower_id) const {
  std::lock_guard<std::mutex> lk(mu_);
  return std::count(refused_.begin(), refused_.end(), follower_id) > 0;
}

}  // namespace parspan
