#include "net/framed_conn.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

namespace parspan::net {

void drop_prefix(std::vector<uint8_t>& buf, size_t& off) {
  if (off == buf.size()) {
    buf.clear();
    off = 0;
  } else if (off >= kCompactAt) {
    buf.erase(buf.begin(), buf.begin() + ptrdiff_t(off));
    off = 0;
  }
}

IoStatus read_to_buffer(int fd, ConnBufs& b, uint32_t max_frame_payload) {
  for (;;) {
    const size_t at = b.in.size();
    b.in.resize(at + kReadChunk);
    const ssize_t r = ::read(fd, b.in.data() + at, kReadChunk);
    if (r > 0) {
      b.in.resize(at + size_t(r));
      if (b.in_pending() >
          size_t(max_frame_payload) + kFrameHeaderSize + kReadChunk)
        return IoStatus::kOverflow;
      continue;
    }
    b.in.resize(at);
    if (r == 0) return IoStatus::kEof;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return IoStatus::kOk;
    return IoStatus::kError;
  }
}

IoStatus flush_writes(int fd, ConnBufs& b) {
  while (b.out_off < b.out.size()) {
    const ssize_t w = ::send(fd, b.out.data() + b.out_off,
                             b.out.size() - b.out_off, MSG_NOSIGNAL);
    if (w > 0) {
      b.out_off += size_t(w);
    } else if (errno == EINTR) {
      continue;
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      break;
    } else {
      return IoStatus::kError;  // EPIPE/ECONNRESET: nothing left to drain to
    }
  }
  drop_prefix(b.out, b.out_off);
  return IoStatus::kOk;
}

bool send_all(int fd, const uint8_t* p, size_t len) {
  while (len > 0) {
    // MSG_NOSIGNAL: a closed peer reads as a failed send, not SIGPIPE.
    const ssize_t w = ::send(fd, p, len, MSG_NOSIGNAL);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    p += w;
    len -= size_t(w);
  }
  return true;
}

size_t read_some(int fd, uint8_t* p, size_t len) {
  for (;;) {
    const ssize_t r = ::recv(fd, p, len, 0);
    if (r >= 0) return size_t(r);
    if (errno != EINTR) return 0;
  }
}

int tcp_listen(const std::string& bind_addr, uint16_t port, int backlog,
               uint16_t* bound_port) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, bind_addr.c_str(), &addr.sin_addr) != 1 ||
      bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      listen(fd, backlog) != 0) {
    ::close(fd);
    return -1;
  }
  if (bound_port != nullptr) {
    socklen_t alen = sizeof(addr);
    getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &alen);
    *bound_port = ntohs(addr.sin_port);
  }
  return fd;
}

int tcp_connect(const std::string& host, uint16_t port, bool nonblocking) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (nonblocking) {
    const int flags = fcntl(fd, F_GETFL, 0);
    if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
      ::close(fd);
      return -1;
    }
  }
  return fd;
}

}  // namespace parspan::net
