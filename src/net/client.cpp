#include "net/client.hpp"

#include <unistd.h>

#include <utility>

#include "net/framed_conn.hpp"

namespace parspan::net {

std::optional<NetClient> NetClient::connect(const std::string& host,
                                            uint16_t port) {
  const int fd = tcp_connect(host, port, /*nonblocking=*/false);
  if (fd < 0) return std::nullopt;

  NetClient c;
  c.fd_ = fd;
  std::vector<uint8_t> frame;
  encode_hello(frame);
  c.take_seq();
  auto resp = c.send_bytes(frame) ? c.recv_response() : std::nullopt;
  if (!resp || resp->status != Status::kOk ||
      !parse_hello_body(resp->view(), &c.info_))
    return std::nullopt;  // ~NetClient closes
  return c;
}

NetClient::~NetClient() { close_now(); }

NetClient::NetClient(NetClient&& o) noexcept
    : fd_(std::exchange(o.fd_, -1)),
      info_(o.info_),
      next_seq_(o.next_seq_),
      rbuf_(std::move(o.rbuf_)),
      roff_(o.roff_) {}

NetClient& NetClient::operator=(NetClient&& o) noexcept {
  if (this != &o) {
    close_now();
    fd_ = std::exchange(o.fd_, -1);
    info_ = o.info_;
    next_seq_ = o.next_seq_;
    rbuf_ = std::move(o.rbuf_);
    roff_ = o.roff_;
  }
  return *this;
}

void NetClient::close_now() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

bool NetClient::send_bytes(const std::vector<uint8_t>& bytes) {
  if (fd_ < 0) return false;
  if (send_all(fd_, bytes.data(), bytes.size())) return true;
  close_now();
  return false;
}

std::optional<OwnedResponse> NetClient::recv_response() {
  if (fd_ < 0) return std::nullopt;
  for (;;) {
    FrameView fv;
    const FrameParse p = parse_frame(rbuf_.data() + roff_, rbuf_.size() - roff_,
                                     kMaxFramePayload, &fv);
    if (p == FrameParse::kOk) {
      Response r;
      if (!decode_response(fv.payload, fv.len, &r)) {
        close_now();
        return std::nullopt;
      }
      OwnedResponse out;
      out.seq = r.seq;
      out.status = r.status;
      out.body.assign(r.body, r.body + r.body_len);
      roff_ += fv.consumed;
      if (roff_ == rbuf_.size()) {
        rbuf_.clear();
        roff_ = 0;
      }
      return out;
    }
    if (p == FrameParse::kBad) {
      close_now();
      return std::nullopt;
    }
    const size_t at = rbuf_.size();
    rbuf_.resize(at + 16 * 1024);
    const size_t r = read_some(fd_, rbuf_.data() + at, 16 * 1024);
    rbuf_.resize(at + r);
    if (r == 0) {
      close_now();
      return std::nullopt;
    }
  }
}

std::optional<OwnedResponse> NetClient::roundtrip(
    const std::vector<uint8_t>& frame) {
  const uint32_t seq = take_seq();
  if (!send_bytes(frame)) return std::nullopt;
  auto resp = recv_response();
  if (!resp || resp->seq != seq) {
    // Typed callers have exactly one request outstanding; a mismatched
    // seq means the stream is out of step — unrecoverable.
    close_now();
    return std::nullopt;
  }
  return resp;
}

NetClient::SubmitResult NetClient::submit(uint32_t graph_id,
                                          const std::vector<Edge>& insertions,
                                          const std::vector<Edge>& deletions) {
  std::vector<uint8_t> frame;
  encode_submit(frame, graph_id, sort_unique_keys(insertions),
                sort_unique_keys(deletions));
  SubmitResult out;
  auto resp = roundtrip(frame);
  if (!resp) return out;
  out.status = resp->status;
  if (resp->status == Status::kRetryAfter)
    parse_retry_after_body(resp->view(), &out.retry_after_ms);
  return out;
}

NetClient::SubmitResult NetClient::submit_for(
    uint32_t graph_id, const std::vector<Edge>& insertions,
    const std::vector<Edge>& deletions, uint32_t timeout_ms) {
  std::vector<uint8_t> frame;
  encode_submit_for(frame, graph_id, sort_unique_keys(insertions),
                    sort_unique_keys(deletions), timeout_ms);
  SubmitResult out;
  auto resp = roundtrip(frame);
  if (!resp) return out;
  out.status = resp->status;
  if (resp->status == Status::kRetryAfter)
    parse_retry_after_body(resp->view(), &out.retry_after_ms);
  return out;
}

std::optional<std::vector<uint64_t>> NetClient::flush() {
  std::vector<uint8_t> frame;
  encode_flush(frame);
  auto resp = roundtrip(frame);
  std::vector<uint64_t> vv;
  if (!resp || resp->status != Status::kOk ||
      !parse_vv_body(resp->view(), &vv))
    return std::nullopt;
  return vv;
}

NetClient::PinResult NetClient::pin(const std::vector<uint64_t>& vv) {
  std::vector<uint8_t> frame;
  encode_pin(frame, vv);
  PinResult out;
  auto resp = roundtrip(frame);
  if (!resp) return out;
  out.status = resp->status;
  if (resp->status == Status::kOk &&
      !parse_pin_body(resp->view(), &out.pin.id, &out.pin.versions))
    out.status = Status::kError;
  return out;
}

bool NetClient::unpin(uint64_t pin_id) {
  std::vector<uint8_t> frame;
  encode_unpin(frame, pin_id);
  auto resp = roundtrip(frame);
  return resp && resp->status == Status::kOk;
}

std::optional<bool> NetClient::has_edge(uint64_t pin_id, VertexId u,
                                        VertexId v) {
  std::vector<uint8_t> frame;
  encode_has_edge(frame, pin_id, u, v);
  auto resp = roundtrip(frame);
  bool present = false;
  if (!resp || resp->status != Status::kOk ||
      !parse_has_edge_body(resp->view(), &present))
    return std::nullopt;
  return present;
}

std::optional<std::vector<VertexId>> NetClient::neighbors(uint64_t pin_id,
                                                          VertexId v) {
  std::vector<uint8_t> frame;
  encode_neighbors(frame, pin_id, v);
  auto resp = roundtrip(frame);
  std::vector<VertexId> ids;
  if (!resp || resp->status != Status::kOk ||
      !parse_neighbors_body(resp->view(), &ids))
    return std::nullopt;
  return ids;
}

std::optional<uint32_t> NetClient::bounded_bfs(uint64_t pin_id, VertexId u,
                                               VertexId v, uint32_t limit) {
  std::vector<uint8_t> frame;
  encode_bounded_bfs(frame, pin_id, u, v, limit);
  auto resp = roundtrip(frame);
  uint32_t dist = 0;
  if (!resp || resp->status != Status::kOk ||
      !parse_dist_body(resp->view(), &dist))
    return std::nullopt;
  return dist;
}

std::optional<StatsInfo> NetClient::stats() {
  std::vector<uint8_t> frame;
  encode_stats(frame);
  auto resp = roundtrip(frame);
  StatsInfo s;
  if (!resp || resp->status != Status::kOk || !parse_stats_body(resp->view(), &s))
    return std::nullopt;
  return s;
}

}  // namespace parspan::net
