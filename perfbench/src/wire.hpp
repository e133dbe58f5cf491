// A non-blocking loopback connection to a NetServer, driven by one client
// thread that multiplexes several of them with poll(): the benchmark's
// `serve` workload keeps pipelined reads in flight on three of these and
// paced writes on a fourth. Frames are built with the net/protocol.hpp
// encoders and responses split with durability/frame.hpp's parser, the
// same codec the server speaks.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/client.hpp"
#include "net/protocol.hpp"

namespace perfbench {

class WireConn {
 public:
  /// Connects to 127.0.0.1:port and completes the hello handshake
  /// (blocking), then switches the socket to non-blocking. nullptr on any
  /// failure.
  static std::unique_ptr<WireConn> connect(uint16_t port);
  ~WireConn();
  WireConn(const WireConn&) = delete;
  WireConn& operator=(const WireConn&) = delete;

  int fd() const { return fd_; }

  /// The buffer requests are encoded into. Call commit() once per frame
  /// encoded: it returns that request's seq.
  std::vector<uint8_t>& out() { return out_; }
  uint32_t commit() { return next_seq_++; }
  bool want_write() const { return out_off_ < out_.size(); }

  /// Writes as much buffered output as the socket takes. False on error.
  bool write_some();
  /// Reads what is available and appends every complete response. False
  /// on close, a socket error or a malformed frame.
  bool read_some(std::vector<parspan::net::OwnedResponse>& got);

 private:
  explicit WireConn(int fd) : fd_(fd) {}
  int fd_ = -1;
  uint32_t next_seq_ = 0;
  std::vector<uint8_t> out_;
  size_t out_off_ = 0;
  std::vector<uint8_t> in_;
};

}  // namespace perfbench
