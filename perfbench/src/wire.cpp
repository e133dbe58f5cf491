#include "wire.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "durability/frame.hpp"

namespace perfbench {

using namespace parspan;

WireConn::~WireConn() {
  if (fd_ >= 0) ::close(fd_);
}

std::unique_ptr<WireConn> WireConn::connect(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return nullptr;
  std::unique_ptr<WireConn> c(new WireConn(fd));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0)
    return nullptr;
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);

  std::vector<uint8_t> hello;
  net::encode_hello(hello);
  if (::send(fd, hello.data(), hello.size(), MSG_NOSIGNAL) !=
      ssize_t(hello.size()))
    return nullptr;
  c->commit();
  for (bool done = false; !done;) {
    uint8_t buf[4096];
    const ssize_t r = ::recv(fd, buf, sizeof buf, 0);
    if (r <= 0) return nullptr;
    c->in_.insert(c->in_.end(), buf, buf + r);
    FrameView fv;
    const FrameParse p = parse_frame(c->in_.data(), c->in_.size(),
                                     net::kDefaultMaxFramePayload, &fv);
    if (p == FrameParse::kBad) return nullptr;
    if (p == FrameParse::kNeedMore) continue;
    net::Response resp;
    net::HelloInfo info;
    if (!net::decode_response(fv.payload, fv.len, &resp) ||
        resp.status != net::Status::kOk || !net::parse_hello_body(resp, &info))
      return nullptr;
    c->in_.erase(c->in_.begin(), c->in_.begin() + ptrdiff_t(fv.consumed));
    done = true;
  }
  if (::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK) != 0)
    return nullptr;
  return c;
}

bool WireConn::write_some() {
  while (out_off_ < out_.size()) {
    const ssize_t w = ::send(fd_, out_.data() + out_off_,
                             out_.size() - out_off_, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (errno == EINTR) continue;
      return false;
    }
    out_off_ += size_t(w);
  }
  out_.clear();
  out_off_ = 0;
  return true;
}

bool WireConn::read_some(std::vector<net::OwnedResponse>& got) {
  for (;;) {
    uint8_t buf[1 << 16];
    const ssize_t r = ::recv(fd_, buf, sizeof buf, 0);
    if (r == 0) return false;
    if (r < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      return false;
    }
    in_.insert(in_.end(), buf, buf + r);
  }
  size_t off = 0;
  for (;;) {
    FrameView fv;
    const FrameParse p = parse_frame(in_.data() + off, in_.size() - off,
                                     net::kDefaultMaxFramePayload, &fv);
    if (p == FrameParse::kBad) return false;
    if (p == FrameParse::kNeedMore) break;
    net::Response resp;
    if (!net::decode_response(fv.payload, fv.len, &resp)) return false;
    net::OwnedResponse o;
    o.seq = resp.seq;
    o.status = resp.status;
    o.body.assign(resp.body, resp.body + resp.body_len);
    got.push_back(std::move(o));
    off += fv.consumed;
  }
  in_.erase(in_.begin(), in_.begin() + ptrdiff_t(off));
  return true;
}

}  // namespace perfbench
