// Net front door tests (DESIGN.md §13): wire-format goldens pinned to the
// byte, hostile-input rejection, and end-to-end protocol semantics over
// real loopback sockets — pipelining with out-of-order completion,
// flush read-your-writes, pinned-snapshot immutability, and queue-full
// RETRY_AFTER backpressure that never blocks an event loop.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <map>
#include <optional>
#include <thread>
#include <vector>

#include "graph/generators.hpp"
#include "net/client.hpp"
#include "net/framed_conn.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "service/sharded_service.hpp"

namespace parspan {
namespace {

using net::NetClient;
using net::NetServer;
using net::NetServerConfig;
using net::Op;
using net::Status;

std::unique_ptr<ShardedSpannerService> make_service(
    size_t n, const std::vector<Edge>& initial, uint32_t shards,
    ShardedConfig sc = {}) {
  FullyDynamicSpannerConfig cfg;
  cfg.k = 2;
  return ShardedSpannerService::single_graph(n, initial, shards, cfg, sc);
}

struct ServerFixture {
  std::unique_ptr<ShardedSpannerService> svc;
  std::unique_ptr<NetServer> server;

  explicit ServerFixture(std::unique_ptr<ShardedSpannerService> s,
                         NetServerConfig cfg = {})
      : svc(std::move(s)) {
    server = std::make_unique<NetServer>(*svc, cfg);
    EXPECT_TRUE(server->start());
  }
  uint16_t port() const { return server->port(); }
};

// --- Wire format goldens --------------------------------------------------
// Pinned byte-for-byte: these sequences are the §13.1 wire contract. A
// codec change that shifts ANY byte is a protocol break and must show up
// here, not in production cross-version traffic.

TEST(NetProtocol, HelloRequestGoldenBytes) {
  std::vector<uint8_t> got;
  net::encode_hello(got);
  // len=13 | crc | op=1 | magic "parspan1" LE | version=1
  const std::vector<uint8_t> want = {
      0x0d, 0x00, 0x00, 0x00, 0xca, 0xfe, 0x6e, 0xb9, 0x01, 0x70, 0x61,
      0x72, 0x73, 0x70, 0x61, 0x6e, 0x31, 0x01, 0x00, 0x00, 0x00};
  EXPECT_EQ(got, want);
}

TEST(NetProtocol, SubmitRequestGoldenBytes) {
  std::vector<uint8_t> got;
  net::encode_submit(got, 0, {Edge(1, 2).key(), Edge(2, 3).key()},
                     {Edge(0, 1).key()});
  // op=2 | graph=0 | icnt=2 | dcnt=1 | ins varint-delta {0x100000002:
  // [82 80 80 80 10], +0x100000001: [81 80 80 80 10]} | del {1: [01]}
  const std::vector<uint8_t> want = {
      0x18, 0x00, 0x00, 0x00, 0x84, 0x55, 0x50, 0xd4, 0x02, 0x00, 0x00,
      0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x82,
      0x80, 0x80, 0x80, 0x10, 0x81, 0x80, 0x80, 0x80, 0x10, 0x01};
  EXPECT_EQ(got, want);
}

TEST(NetProtocol, ResponseGoldenBytes) {
  std::vector<uint8_t> ok;
  net::append_ok(ok, 7, net::build_vv_body({3, 4}));
  // seq=7 | status=0 | cnt=2 | 3 u64 | 4 u64
  const std::vector<uint8_t> want_ok = {
      0x19, 0x00, 0x00, 0x00, 0xb7, 0xc0, 0x5d, 0x8b, 0x07, 0x00, 0x00,
      0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00};
  EXPECT_EQ(ok, want_ok);

  std::vector<uint8_t> retry;
  net::append_retry_after(retry, 9, 10);
  // seq=9 | status=1 | retry_after_ms=10
  const std::vector<uint8_t> want_retry = {0x09, 0x00, 0x00, 0x00, 0xb7, 0x63,
                                           0x9a, 0x86, 0x09, 0x00, 0x00, 0x00,
                                           0x01, 0x0a, 0x00, 0x00, 0x00};
  EXPECT_EQ(retry, want_retry);
}

// An empty kOk body (a bare acknowledgement) round-trips: the encoder
// copies no bytes from the body's possibly-null data pointer, and the
// decoder hands back an empty view. Kept clean under UBSan's null-memcpy
// check.
TEST(NetProtocol, EmptyBodyResponseRoundTrips) {
  std::vector<uint8_t> out;
  net::append_ok(out, 12, {});
  ASSERT_EQ(out.size(), kFrameHeaderSize + 5);
  FrameView fv;
  ASSERT_EQ(parse_frame(out.data(), out.size(), kMaxFramePayload, &fv),
            FrameParse::kOk);
  EXPECT_EQ(fv.consumed, out.size());
  net::Response r;
  ASSERT_TRUE(net::decode_response(fv.payload, fv.len, &r));
  EXPECT_EQ(r.seq, 12u);
  EXPECT_EQ(r.status, Status::kOk);
  EXPECT_EQ(r.body_len, 0u);
}

TEST(NetProtocol, RequestRoundTripsEveryOp) {
  const std::vector<EdgeKey> ins = {Edge(1, 2).key(), Edge(5, 9).key()};
  const std::vector<EdgeKey> del = {Edge(3, 4).key()};
  std::vector<uint8_t> buf;
  net::encode_submit_for(buf, 7, ins, del, 250);
  net::encode_pin(buf, {11, 22});
  net::encode_bounded_bfs(buf, 42, 3, 8, 6);
  net::encode_stats(buf);

  size_t off = 0;
  auto next = [&]() -> net::Request {
    FrameView fv;
    EXPECT_EQ(parse_frame(buf.data() + off, buf.size() - off, kMaxFramePayload,
                          &fv),
              FrameParse::kOk);
    net::Request req;
    EXPECT_TRUE(net::decode_request(fv.payload, fv.len, &req));
    off += fv.consumed;
    return req;
  };

  net::Request r = next();
  EXPECT_EQ(r.op, Op::kSubmitFor);
  EXPECT_EQ(r.graph_id, 7u);
  EXPECT_EQ(r.timeout_ms, 250u);
  EXPECT_EQ(r.insertions, ins);
  EXPECT_EQ(r.deletions, del);
  r = next();
  EXPECT_EQ(r.op, Op::kPin);
  EXPECT_EQ(r.vv, (std::vector<uint64_t>{11, 22}));
  r = next();
  EXPECT_EQ(r.op, Op::kBoundedBfs);
  EXPECT_EQ(r.pin_id, 42u);
  EXPECT_EQ(r.u, 3u);
  EXPECT_EQ(r.v, 8u);
  EXPECT_EQ(r.limit, 6u);
  r = next();
  EXPECT_EQ(r.op, Op::kStats);
  EXPECT_EQ(off, buf.size());
}

// CRC32C catches every single-bit flip: no flipped request frame may ever
// parse — each position must yield kBad (or kNeedMore when the length
// field inflates), never a silently different request.
TEST(NetProtocol, EveryBitFlipIsRejected) {
  std::vector<uint8_t> frame;
  net::encode_submit(frame, 1, {Edge(2, 6).key()}, {});
  for (size_t byte = 0; byte < frame.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> mutated = frame;
      mutated[byte] ^= uint8_t(1u << bit);
      FrameView fv;
      const FrameParse p = parse_frame(mutated.data(), mutated.size(),
                                       kMaxFramePayload, &fv);
      EXPECT_NE(p, FrameParse::kOk)
          << "bit flip at byte " << byte << " bit " << bit << " parsed";
    }
  }
  // Truncations: every proper prefix is kNeedMore (streaming), never kOk.
  for (size_t len = 0; len < frame.size(); ++len) {
    FrameView fv;
    EXPECT_EQ(parse_frame(frame.data(), len, kMaxFramePayload, &fv),
              FrameParse::kNeedMore);
  }
}

// The blocking clients' one-frame reader: a frame split across writes
// parses, and a CRC-corrupted frame fails at once even though the peer
// stays open — reading on after kBad would block until the peer closed.
// SO_RCVTIMEO bounds the test if that ever regresses.
TEST(NetFraming, ReadFrameParsesSplitFrameAndFailsFastOnCorruptOne) {
  int sv[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv), 0);
  timeval tv{};
  tv.tv_sec = 5;
  ASSERT_EQ(setsockopt(sv[0], SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)), 0);
  const uint8_t payload[] = {1, 2, 3, 4, 5};
  std::vector<uint8_t> wire;
  append_frame(wire, payload, sizeof(payload));

  std::thread writer([&] {
    ASSERT_TRUE(net::send_all(sv[1], wire.data(), 3));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_TRUE(net::send_all(sv[1], wire.data() + 3, wire.size() - 3));
  });
  std::vector<uint8_t> in;
  FrameView fv;
  ASSERT_TRUE(net::read_frame(sv[0], in, 0, kMaxFramePayload, &fv));
  writer.join();
  EXPECT_EQ(std::vector<uint8_t>(fv.payload, fv.payload + fv.len),
            std::vector<uint8_t>(payload, payload + sizeof(payload)));
  EXPECT_EQ(fv.consumed, wire.size());

  std::vector<uint8_t> bad = wire;
  bad.back() ^= 0x01;  // payload bit flip: CRC mismatch
  ASSERT_TRUE(net::send_all(sv[1], bad.data(), bad.size()));
  in.clear();
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(net::read_frame(sv[0], in, 0, kMaxFramePayload, &fv));
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(2))
      << "read_frame kept reading past a corrupt frame";
  ::close(sv[0]);
  ::close(sv[1]);
}

TEST(NetProtocol, NonAscendingKeyListRejected) {
  // Hand-build a kSubmit whose two "ascending" keys have a zero delta —
  // the decoder must prove ascent, not trust the count.
  std::vector<uint8_t> payload = {uint8_t(Op::kSubmit)};
  put_le32(payload, 0);  // graph
  put_le32(payload, 2);  // icnt
  put_le32(payload, 0);  // dcnt
  payload.push_back(0x05);  // key 5
  payload.push_back(0x00);  // delta 0 — duplicate key
  net::Request req;
  EXPECT_FALSE(net::decode_request(payload.data(), uint32_t(payload.size()),
                                   &req));
}

// --- End-to-end over loopback sockets -------------------------------------

TEST(NetServer, HelloQueriesAndStatsOverTheWire) {
  // Path 0-1-2-3 plus a spoke 1-5: known composed-query answers.
  ServerFixture fx(make_service(
      64, {Edge(0, 1), Edge(1, 2), Edge(2, 3), Edge(1, 5)}, 2));
  auto client = NetClient::connect("127.0.0.1", fx.port());
  ASSERT_TRUE(client.has_value());
  EXPECT_EQ(client->info().num_shards, 2u);
  EXPECT_TRUE(client->info().single_graph);
  EXPECT_EQ(client->info().vertex_space, 64u);

  EXPECT_EQ(client->has_edge(0, 1, 2), std::optional<bool>(true));
  EXPECT_EQ(client->has_edge(0, 0, 3), std::optional<bool>(false));
  auto nbrs = client->neighbors(0, 1);
  ASSERT_TRUE(nbrs.has_value());
  EXPECT_EQ(*nbrs, (std::vector<VertexId>{0, 2, 5}));
  // k=2 spanner of a tree is the tree: spanner distance == hop distance.
  EXPECT_EQ(client->bounded_bfs(0, 0, 3, 8), std::optional<uint32_t>(3));
  EXPECT_EQ(client->bounded_bfs(0, 0, 3, 2),
            std::optional<uint32_t>(kSnapshotUnreached));

  auto stats = client->stats();
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->hello.num_shards, 2u);
  EXPECT_EQ(stats->edges_ingested, 0u);  // initial edges are construction
  EXPECT_EQ(stats->protocol_errors, 0u);
  EXPECT_EQ(stats->active_connections, 1u);

  // Semantic refusals are responses, not disconnects: the SAME connection
  // keeps serving afterwards.
  EXPECT_EQ(client->has_edge(999, 1, 2), std::nullopt);  // unknown pin
  EXPECT_EQ(client->has_edge(0, 1, 2), std::optional<bool>(true));
}

TEST(NetServer, SubmitFlushReadYourWritesAndPinByVersionVector) {
  ServerFixture fx(make_service(64, {}, 2));
  auto client = NetClient::connect("127.0.0.1", fx.port());
  ASSERT_TRUE(client.has_value());

  auto r = client->submit(0, {Edge(4, 7), Edge(40, 41)}, {});
  EXPECT_EQ(r.status, Status::kOk);
  // A key outside the vertex space is refused, and the connection keeps
  // serving: the flush and pins below run on it.
  EXPECT_EQ(client->submit(0, {Edge(5, 64)}, {}).status, Status::kError);
  auto vv = client->flush();
  ASSERT_TRUE(vv.has_value());
  ASSERT_EQ(vv->size(), 2u);

  // Pin by the flush-returned vector: monotone versions make it
  // immediately pinnable (§13.3) — and the pinned view must already hold
  // the writes the barrier covered.
  auto pin = client->pin(*vv);
  ASSERT_EQ(pin.status, Status::kOk);
  EXPECT_GE(pin.pin.versions.size(), 2u);
  EXPECT_EQ(client->has_edge(pin.pin.id, 4, 7), std::optional<bool>(true));
  EXPECT_EQ(client->has_edge(pin.pin.id, 40, 41), std::optional<bool>(true));

  // A version vector no shard has published yet is protocol backpressure,
  // not a parked thread.
  std::vector<uint64_t> future = *vv;
  future[0] += 100;
  EXPECT_EQ(client->pin(future).status, Status::kRetryAfter);

  // The WRONG shard count can never become pinnable: that is a permanent
  // kError, not kRetryAfter — kRetryAfter's "retry the SAME request"
  // contract would loop a conforming client forever.
  EXPECT_EQ(client->pin({vv->at(0)}).status, Status::kError);
  EXPECT_EQ(client->pin({1, 2, 3}).status, Status::kError);

  EXPECT_TRUE(client->unpin(pin.pin.id));
  EXPECT_FALSE(client->unpin(pin.pin.id));  // double-unpin refused
}

TEST(NetServer, PinnedSnapshotImmutableAcrossLaterPublishes) {
  ServerFixture fx(make_service(64, {Edge(1, 2)}, 2));
  auto client = NetClient::connect("127.0.0.1", fx.port());
  ASSERT_TRUE(client.has_value());

  auto pin = client->pin();
  ASSERT_EQ(pin.status, Status::kOk);

  // Publish more edges AFTER the pin, through a second connection.
  auto writer = NetClient::connect("127.0.0.1", fx.port());
  ASSERT_TRUE(writer.has_value());
  EXPECT_EQ(writer->submit(0, {Edge(2, 9), Edge(33, 34)}, {}).status,
            Status::kOk);
  ASSERT_TRUE(writer->flush().has_value());

  // The pinned view is frozen at pin time; pin 0 sees the new world.
  EXPECT_EQ(client->has_edge(pin.pin.id, 2, 9), std::optional<bool>(false));
  EXPECT_EQ(client->has_edge(pin.pin.id, 1, 2), std::optional<bool>(true));
  EXPECT_EQ(client->has_edge(0, 2, 9), std::optional<bool>(true));
}

// Torn/truncated/bit-flipped frames kill exactly the offending
// connection — the loop survives, counts a protocol error, and keeps
// serving other (and future) connections.
TEST(NetServer, CorruptFramesCloseConnectionWithoutCrashingLoop) {
  ServerFixture fx(make_service(64, {Edge(1, 2)}, 2),
                   [] {
                     NetServerConfig c;
                     c.num_loops = 1;  // everything shares ONE loop
                     return c;
                   }());
  auto survivor = NetClient::connect("127.0.0.1", fx.port());
  ASSERT_TRUE(survivor.has_value());

  std::vector<uint8_t> hello;
  net::encode_hello(hello);
  struct Case {
    const char* name;
    std::vector<uint8_t> bytes;
  };
  std::vector<Case> cases;
  {
    std::vector<uint8_t> flipped = hello;
    flipped[kFrameHeaderSize + 3] ^= 0x40;  // payload bit flip: CRC mismatch
    cases.push_back({"bit-flip", flipped});
  }
  {
    std::vector<uint8_t> bad_len = hello;
    bad_len[3] = 0x7F;  // length claim far above max_frame_payload
    cases.push_back({"hostile-length", bad_len});
  }
  {
    // Valid frame whose payload is not a decodable request.
    std::vector<uint8_t> garbage;
    const uint8_t junk[] = {0xFF, 0x01, 0x02};
    append_frame(garbage, junk, sizeof(junk));
    cases.push_back({"undecodable", garbage});
  }

  const auto before = fx.server->stats().protocol_errors;
  for (const Case& c : cases) {
    const int fd = socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(fx.port());
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0)
        << c.name;
    ASSERT_EQ(::write(fd, c.bytes.data(), c.bytes.size()),
              ssize_t(c.bytes.size()));
    // The server must CLOSE this connection: read blocks until EOF/reset.
    uint8_t buf[64];
    const ssize_t r = ::read(fd, buf, sizeof(buf));
    EXPECT_LE(r, 0) << c.name << ": server answered a corrupt frame";
    ::close(fd);
  }
  EXPECT_GE(fx.server->stats().protocol_errors, before + cases.size());

  // The shared loop kept serving: the pre-existing connection still
  // answers, and a brand-new connection still handshakes.
  EXPECT_EQ(survivor->has_edge(0, 1, 2), std::optional<bool>(true));
  auto fresh = NetClient::connect("127.0.0.1", fx.port());
  ASSERT_TRUE(fresh.has_value());
  EXPECT_EQ(fresh->has_edge(0, 1, 2), std::optional<bool>(true));
}

// Pipelining: many requests per connection in one write, responses
// matched by seq; multiple connections interleaved on the same loops.
TEST(NetServer, MultiConnectionPipelining) {
  ServerFixture fx(make_service(64, {Edge(0, 1), Edge(1, 2)}, 2));
  constexpr int kClients = 4;
  constexpr int kBurst = 32;
  std::vector<NetClient> clients;
  for (int i = 0; i < kClients; ++i) {
    auto c = NetClient::connect("127.0.0.1", fx.port());
    ASSERT_TRUE(c.has_value());
    clients.push_back(std::move(*c));
  }
  for (auto& c : clients) {
    std::vector<uint8_t> burst;
    std::vector<uint32_t> want_seqs;
    for (int i = 0; i < kBurst; ++i) {
      want_seqs.push_back(c.take_seq());
      if (i % 3 == 0)
        net::encode_has_edge(burst, 0, 0, 1);
      else if (i % 3 == 1)
        net::encode_neighbors(burst, 0, 1);
      else
        net::encode_bounded_bfs(burst, 0, 0, 2, 4);
    }
    ASSERT_TRUE(c.send_bytes(burst));
    std::map<uint32_t, Status> got;
    for (int i = 0; i < kBurst; ++i) {
      auto resp = c.recv_response();
      ASSERT_TRUE(resp.has_value());
      EXPECT_TRUE(got.emplace(resp->seq, resp->status).second)
          << "duplicate seq " << resp->seq;
    }
    for (uint32_t seq : want_seqs) {
      ASSERT_TRUE(got.count(seq)) << "missing response for seq " << seq;
      EXPECT_EQ(got[seq], Status::kOk);
    }
  }
}

// Queue-full backpressure is a protocol answer, never a blocked loop: a
// wedged shard queue yields kRetryAfter while the SAME loop keeps
// answering queries; a parked kSubmitFor completes out of order once
// capacity frees, and expires to kRetryAfter when it doesn't.
TEST(NetServer, RetryAfterBackpressureAndParkedSubmitFor) {
  ShardedConfig sc;
  sc.queue_capacity = 1;
  sc.start_paused = true;
  ServerFixture fx(make_service(64, {}, 1, sc),
                   [] {
                     NetServerConfig c;
                     c.num_loops = 1;
                     c.retry_after_ms = 7;
                     return c;
                   }());
  auto writer = NetClient::connect("127.0.0.1", fx.port());
  auto reader = NetClient::connect("127.0.0.1", fx.port());
  ASSERT_TRUE(writer.has_value() && reader.has_value());

  // Wedge the single shard queue (capacity 1, paused: nothing drains).
  EXPECT_EQ(writer->submit(0, {Edge(1, 2)}, {}).status, Status::kOk);

  // Immediate pushback with the configured hint — not a blocked loop.
  auto r = writer->submit(0, {Edge(3, 4)}, {});
  EXPECT_EQ(r.status, Status::kRetryAfter);
  EXPECT_EQ(r.retry_after_ms, 7u);

  // A bounded submit_for against the still-wedged queue expires into
  // kRetryAfter after ~timeout (the parked path's deadline).
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(writer->submit_for(0, {Edge(3, 4)}, {}, 50).status,
            Status::kRetryAfter);
  EXPECT_GE(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(45));

  // Park a long submit_for, then PROVE the loop is not blocked: the
  // other connection's queries answer while the submit is parked.
  std::vector<uint8_t> parked;
  const uint32_t parked_seq = writer->take_seq();
  net::encode_submit_for(parked, 0, {Edge(5, 6).key()}, {}, 2000);
  ASSERT_TRUE(writer->send_bytes(parked));
  for (int i = 0; i < 3; ++i)
    EXPECT_EQ(reader->has_edge(0, 1, 2), std::optional<bool>(false));

  // Resume drains the queue; the parked request admits and completes.
  fx.svc->resume();
  auto resp = writer->recv_response();
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->seq, parked_seq);
  EXPECT_EQ(resp->status, Status::kOk);

  ASSERT_TRUE(writer->flush().has_value());
  EXPECT_EQ(reader->has_edge(0, 5, 6), std::optional<bool>(true));
}

// Out-of-order completion under pipelining: a parked submit_for's
// response arrives AFTER responses to queries pipelined behind it, with
// seqs proving which is which.
TEST(NetServer, DeferredResponsesCompleteOutOfOrder) {
  ShardedConfig sc;
  sc.queue_capacity = 1;
  sc.start_paused = true;
  ServerFixture fx(make_service(64, {}, 1, sc));
  auto client = NetClient::connect("127.0.0.1", fx.port());
  ASSERT_TRUE(client.has_value());

  EXPECT_EQ(client->submit(0, {Edge(1, 2)}, {}).status, Status::kOk);

  // One write: [parked submit_for | has_edge | has_edge].
  std::vector<uint8_t> burst;
  const uint32_t submit_seq = client->take_seq();
  net::encode_submit_for(burst, 0, {Edge(7, 8).key()}, {}, 2000);
  const uint32_t q1_seq = client->take_seq();
  net::encode_has_edge(burst, 0, 7, 8);
  const uint32_t q2_seq = client->take_seq();
  net::encode_has_edge(burst, 0, 1, 2);
  ASSERT_TRUE(client->send_bytes(burst));

  // The queries answer first — the parked submit can't (queue wedged).
  auto r1 = client->recv_response();
  auto r2 = client->recv_response();
  ASSERT_TRUE(r1.has_value() && r2.has_value());
  EXPECT_EQ(r1->seq, q1_seq);
  EXPECT_EQ(r2->seq, q2_seq);

  fx.svc->resume();
  auto r3 = client->recv_response();
  ASSERT_TRUE(r3.has_value());
  EXPECT_EQ(r3->seq, submit_seq);
  EXPECT_EQ(r3->status, Status::kOk);
}

// A parked kSubmitFor's retries must count each edge EXACTLY once: the
// RoutedBatch carries per-shard admission state, so a retry tick neither
// re-counts the shards that already admitted (edges_ingested) nor charges
// the still-full shard before the deadline. Pre-fix, every 2ms tick
// re-ran the full submit, inflating both counters ~timeout/tick_ms times.
TEST(NetServer, ParkedRetriesCountEdgesExactlyOnce) {
  ShardedConfig sc;
  sc.queue_capacity = 2;
  sc.start_paused = true;
  ServerFixture fx(make_service(64, {}, 2, sc),
                   [] {
                     NetServerConfig c;
                     c.num_loops = 1;
                     return c;
                   }());
  auto client = NetClient::connect("127.0.0.1", fx.port());
  ASSERT_TRUE(client.has_value());

  // Wedge shard 0 (vertices 0..31): two distinct keys reach its admission
  // bound, and the paused service never drains them.
  EXPECT_EQ(client->submit(0, {Edge(1, 2), Edge(3, 4)}, {}).status,
            Status::kOk);

  // Cross-shard batch: shard 1's two edges admit on the first try; shard
  // 0's edge parks through ~40 retry ticks and then expires.
  EXPECT_EQ(client
                ->submit_for(0, {Edge(5, 6), Edge(40, 41), Edge(42, 43)}, {},
                             80)
                .status,
            Status::kRetryAfter);
  EXPECT_EQ(fx.svc->edges_ingested(), 4u);   // 2 wedge + 2 shard-1, once
  EXPECT_EQ(fx.svc->edges_timed_out(), 1u);  // Edge(5,6), once, at expiry

  // Park again and free capacity mid-park: late admission through the
  // retry path also counts exactly once.
  std::thread unwedge([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    fx.svc->resume();
  });
  EXPECT_EQ(client->submit_for(0, {Edge(7, 8)}, {}, 2000).status,
            Status::kOk);
  unwedge.join();
  EXPECT_EQ(fx.svc->edges_ingested(), 5u);
  EXPECT_EQ(fx.svc->edges_timed_out(), 1u);
}

// A peer that resets its connection while the server still owes it
// responses must surface as a dead connection, never SIGPIPE: before the
// MSG_NOSIGNAL fix, the server's write could raise SIGPIPE (default
// action: terminate), making every remote client a process kill switch.
// Hammer the race window: pipeline work, then RST-close without reading.
TEST(NetServer, PeerResetWhileResponsesPendingDoesNotKillProcess) {
  ServerFixture fx(make_service(64, {Edge(1, 2)}, 2),
                   [] {
                     NetServerConfig c;
                     c.num_loops = 1;
                     return c;
                   }());
  for (int round = 0; round < 32; ++round) {
    const int fd = socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(fx.port());
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    std::vector<uint8_t> burst;
    net::encode_hello(burst);
    for (int i = 0; i < 128; ++i) net::encode_neighbors(burst, 0, 1);
    ASSERT_EQ(::send(fd, burst.data(), burst.size(), MSG_NOSIGNAL),
              ssize_t(burst.size()));
    // Alternate timing to widen race coverage: sometimes the RST lands
    // while the server is still mid-burst, sometimes mid-flush.
    if (round % 2)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    // SO_LINGER(0) turns close() into an immediate RST: everything the
    // server writes from here on hits a reset socket.
    linger lg{1, 0};
    setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
    ::close(fd);
  }
  // The process survived every reset, and the loop still serves.
  auto fresh = NetClient::connect("127.0.0.1", fx.port());
  ASSERT_TRUE(fresh.has_value());
  EXPECT_EQ(fresh->has_edge(0, 1, 2), std::optional<bool>(true));
}

TEST(NetServer, StopClosesConnectionsAndRestartWorks) {
  auto svc = make_service(64, {Edge(1, 2)}, 2);
  auto server = std::make_unique<NetServer>(*svc);
  ASSERT_TRUE(server->start());
  auto client = NetClient::connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.has_value());
  EXPECT_EQ(client->has_edge(0, 1, 2), std::optional<bool>(true));

  server->stop();
  // The client observes the close instead of hanging.
  EXPECT_EQ(client->has_edge(0, 1, 2), std::nullopt);

  // A fresh server over the same service serves again.
  NetServer second(*svc);
  ASSERT_TRUE(second.start());
  auto c2 = NetClient::connect("127.0.0.1", second.port());
  ASSERT_TRUE(c2.has_value());
  EXPECT_EQ(c2->has_edge(0, 1, 2), std::optional<bool>(true));
}

}  // namespace
}  // namespace parspan
