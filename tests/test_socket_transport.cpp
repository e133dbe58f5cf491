// SocketTransport tests (DESIGN.md §14.1): wire goldens pinned to the
// byte, end-to-end WAL shipping over real loopback TCP, hostile-bytes
// sweeps (every-prefix truncation + every-bit-flip over a recorded healthy
// session — the test_net.cpp golden-sweep pattern applied to replication),
// and the half-open-peer guarantee that a non-reading follower can never
// block the leader's shipping loop.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "core/fully_dynamic_spanner.hpp"
#include "durability/fault_fs.hpp"
#include "durability/frame.hpp"
#include "graph/generators.hpp"
#include "replication/follower.hpp"
#include "replication/log_shipper.hpp"
#include "replication/socket_transport.hpp"
#include "service/spanner_service.hpp"

namespace parspan {
namespace {

using namespace std::chrono_literals;
using Clock = std::chrono::steady_clock;

// --- Plumbing ---------------------------------------------------------------

// A connected AF_UNIX stream pair: `transport_end` is non-blocking (the
// transport's contract), `feed_end` stays blocking for the test to write.
struct SockPair {
  int transport_end = -1;
  int feed_end = -1;
  SockPair() {
    int sv[2] = {-1, -1};
    EXPECT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    transport_end = sv[0];
    feed_end = sv[1];
    fcntl(transport_end, F_SETFL, O_NONBLOCK);
  }
  ~SockPair() {
    // transport_end is owned (and closed) by the SocketTransport.
    if (feed_end >= 0) ::close(feed_end);
  }
};

void feed(int fd, const uint8_t* p, size_t len) {
  while (len > 0) {
    const ssize_t w = send(fd, p, len, MSG_NOSIGNAL);
    ASSERT_GT(w, 0);
    p += w;
    len -= static_cast<size_t>(w);
  }
}

WalRecord tiny_record(uint64_t version) {
  WalRecord rec;
  rec.version = version;
  rec.checksum = 0x0123456789abcdefULL;
  rec.input_inserted = {edge_key(0, 1)};
  rec.diff_inserted = {edge_key(0, 1)};
  return rec;
}

// A healthy recorded session: every wire kind at least once, deterministic
// bytes, ship messages exactly as LogShipper makes them.
struct Recording {
  std::vector<uint8_t> stream;
  std::vector<std::vector<uint8_t>> ship_frames;  // in send order
  std::vector<ReplicaCursor> cursors;             // in send order
  std::vector<uint64_t> heartbeat_epochs;         // in send order
};

Recording record_session() {
  Recording r;
  auto add_ship = [&](const ShipFrame& f) {
    r.stream.insert(r.stream.end(), f.bytes.begin(), f.bytes.end());
    r.ship_frames.push_back(f.bytes);
  };
  auto add_cursor = [&](uint64_t epoch, uint64_t version, bool need) {
    ReplicaCursor c;
    c.epoch = epoch;
    c.version = version;
    c.need_snapshot = need;
    encode_cursor_msg(r.stream, c);
    r.cursors.push_back(c);
  };
  auto add_heartbeat = [&](uint64_t epoch) {
    encode_heartbeat_msg(r.stream, epoch);
    r.heartbeat_epochs.push_back(epoch);
  };

  DurableState st;
  st.n = 16;
  st.stretch = 3;
  st.version = 8;
  st.checksum = 0x1bc7b6e79f0daa08ULL;
  st.snap_keys = {edge_key(0, 1), edge_key(2, 5)};
  st.graph_keys = {edge_key(0, 1), edge_key(1, 4), edge_key(2, 5)};

  add_heartbeat(7);
  add_cursor(1, 0, true);
  add_ship(make_snapshot_frame(/*epoch=*/2, st));
  add_cursor(2, 9, false);
  add_ship(make_record_frame(/*epoch=*/2, tiny_record(9)));
  add_heartbeat(9);
  add_ship(make_record_frame(/*epoch=*/2, tiny_record(10)));
  add_cursor(2, 11, false);
  return r;
}

// Drains a transport until EOF/failure or `deadline`, asserting the
// PREFIX PROPERTY: everything delivered byte-equals the recording's
// per-kind send order. Corruption may truncate the delivered sequence —
// it must never alter or reorder it.
void drain_and_check_prefix(SocketTransport& t, const Recording& r) {
  size_t ships = 0;
  size_t cursors = 0;
  const auto deadline = Clock::now() + 2s;
  while (Clock::now() < deadline) {
    t.poll();
    bool progressed = false;
    while (auto f = t.recv_frame()) {
      ASSERT_LT(ships, r.ship_frames.size()) << "phantom ship frame";
      ASSERT_EQ(f->bytes, r.ship_frames[ships]) << "ship frame " << ships
                                                << " altered in flight";
      ++ships;
      progressed = true;
    }
    while (auto c = t.recv_cursor()) {
      ASSERT_LT(cursors, r.cursors.size()) << "phantom cursor";
      const ReplicaCursor& want = r.cursors[cursors];
      ASSERT_EQ(c->epoch, want.epoch);
      ASSERT_EQ(c->version, want.version);
      ASSERT_EQ(c->need_snapshot, want.need_snapshot);
      ++cursors;
      progressed = true;
    }
    if (t.peer_gone()) break;
    if (!progressed) std::this_thread::sleep_for(1ms);
  }
  // Heartbeats fold into "latest epoch": it must be one the session sent
  // (or none yet).
  const uint64_t hb = t.last_heartbeat_epoch();
  bool hb_ok = hb == 0;
  for (uint64_t e : r.heartbeat_epochs) hb_ok = hb_ok || hb == e;
  ASSERT_TRUE(hb_ok) << "phantom heartbeat epoch " << hb;
}

// --- Wire goldens -----------------------------------------------------------
// Pinned byte-for-byte: every message is len u32 | crc32c(payload) u32 |
// payload, payload = kind u8 | body. A codec change that shifts any byte
// is a cross-process protocol break: it must show up here, and it must
// bump kReplicationWireVersion.

std::vector<uint8_t> frame_of(const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> out;
  append_frame(out, payload.data(), payload.size());
  return out;
}

TEST(SocketTransportWire, SubscribeGolden) {
  std::vector<uint8_t> got;
  encode_subscribe_msg(got, 0x01020304u);
  EXPECT_EQ(got, frame_of({0x05, 0x04, 0x03, 0x02, 0x01,  // kind | id
                           0x01}));                       // wire version
  EXPECT_EQ(kReplicationWireVersion, 1u);
}

TEST(SocketTransportWire, CursorGolden) {
  ReplicaCursor c;
  c.epoch = 2;
  c.version = 0x0102030405060708ull;
  c.need_snapshot = true;
  std::vector<uint8_t> got;
  encode_cursor_msg(got, c);
  EXPECT_EQ(got, frame_of({0x03,                                      // kind
                           2, 0, 0, 0, 0, 0, 0, 0,                    // epoch
                           0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02,  //
                           0x01,                                      // version
                           0x01}));                                   // need
}

TEST(SocketTransportWire, HeartbeatGolden) {
  std::vector<uint8_t> got;
  encode_heartbeat_msg(got, 0xabcdull);
  EXPECT_EQ(got, frame_of({0x04, 0xcd, 0xab, 0, 0, 0, 0, 0, 0}));
}

// A record frame as the peer's socket receives it: the ShipFrame bytes
// verbatim — one header, one CRC, 17 framing bytes before the WAL record
// payload.
TEST(SocketTransportWire, RecordFrameOnTheSocketGolden) {
  const ShipFrame rf = make_record_frame(/*epoch=*/5, tiny_record(7));
  SockPair sp;
  {
    SocketTransport t(sp.transport_end);
    t.send_frame(rf);
    ASSERT_FALSE(t.peer_gone());
  }
  std::vector<uint8_t> got(256);
  ssize_t r = 0;
  size_t have = 0;
  while ((r = recv(sp.feed_end, got.data() + have, got.size() - have, 0)) > 0)
    have += size_t(r);
  got.resize(have);
  const std::vector<uint8_t> golden{
      0x2c, 0x00, 0x00, 0x00,                          // payload_len = 44
      0x2a, 0x72, 0xdc, 0x68,                          // crc32c(payload)
      0x02,                                            // kind: record
      0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // epoch
      0x01,                                            // WAL record: kBatch
      0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // version
      0xef, 0xcd, 0xab, 0x89, 0x67, 0x45, 0x23, 0x01,  // checksum
      0x00, 0x00, 0x00, 0x00,                          // |input_deleted|
      0x01, 0x00, 0x00, 0x00,                          // |input_inserted|
      0x00, 0x00, 0x00, 0x00,                          // |diff_removed|
      0x01, 0x00, 0x00, 0x00,                          // |diff_inserted|
      0x01, 0x01};                                     // edge (0,1) twice
  EXPECT_EQ(got, golden);
  EXPECT_EQ(got, rf.bytes);
}

// --- Healthy delivery -------------------------------------------------------

TEST(SocketTransport, DeliversARecordedSessionExactly) {
  const Recording r = record_session();
  SockPair sp;
  SocketTransport t(sp.transport_end);
  feed(sp.feed_end, r.stream.data(), r.stream.size());
  size_t ships = 0;
  size_t cursors = 0;
  uint64_t last_hb = 0;
  const auto deadline = Clock::now() + 2s;
  while ((ships < r.ship_frames.size() || cursors < r.cursors.size()) &&
         Clock::now() < deadline) {
    t.poll();
    while (auto f = t.recv_frame()) {
      ASSERT_LT(ships, r.ship_frames.size());
      EXPECT_EQ(f->bytes, r.ship_frames[ships]);
      ++ships;
    }
    while (auto c = t.recv_cursor()) {
      ASSERT_LT(cursors, r.cursors.size());
      EXPECT_EQ(c->version, r.cursors[cursors].version);
      ++cursors;
    }
    last_hb = t.last_heartbeat_epoch();
  }
  EXPECT_EQ(ships, r.ship_frames.size());
  EXPECT_EQ(cursors, r.cursors.size());
  EXPECT_EQ(last_hb, r.heartbeat_epochs.back());
  EXPECT_FALSE(t.peer_gone());
}

// --- Hostile sweeps ---------------------------------------------------------

TEST(SocketTransport, EveryPrefixTruncationNeverDeliversACorruptMessage) {
  const Recording r = record_session();
  for (size_t cut = 0; cut < r.stream.size(); ++cut) {
    SockPair sp;
    SocketTransport t(sp.transport_end);
    feed(sp.feed_end, r.stream.data(), cut);
    ::shutdown(sp.feed_end, SHUT_WR);  // EOF mid-message
    drain_and_check_prefix(t, r);
    // A true prefix always ends with EOF (possibly mid-frame): gone.
    EXPECT_TRUE(t.peer_gone()) << "cut=" << cut;
  }
}

TEST(SocketTransport, EveryBitFlipNeverDeliversACorruptMessage) {
  const Recording r = record_session();
  for (size_t bit = 0; bit < r.stream.size() * 8; ++bit) {
    std::vector<uint8_t> mutated = r.stream;
    mutated[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    SockPair sp;
    SocketTransport t(sp.transport_end);
    feed(sp.feed_end, mutated.data(), mutated.size());
    ::shutdown(sp.feed_end, SHUT_WR);
    // One subtlety: a flip inside a LENGTH field can masquerade as a
    // longer frame still in flight (kNeedMore forever) — that is a
    // truncation from the receiver's view, and EOF ends it. Either way
    // the delivered sequence must be an unaltered prefix.
    drain_and_check_prefix(t, r);
  }
}

// --- Half-open peer ---------------------------------------------------------
// A SIGSTOPped follower stops reading but keeps the connection alive. The
// leader's shipping loop must (a) never block, (b) stage at most
// max_buffered_bytes before declaring the peer gone.

TEST(SocketTransport, NonReadingPeerNeverBlocksSenderAndTripsTheCap) {
  SocketTransportConfig cfg;
  cfg.max_buffered_bytes = 32u << 10;
  SockPair sp;  // feed_end never reads — the stopped follower
  SocketTransport t(sp.transport_end, cfg);
  WalRecord rec = tiny_record(1);
  for (VertexId v = 2; v < 4096; ++v) rec.input_inserted.push_back(edge_key(0, v));
  const ShipFrame big = make_record_frame(/*epoch=*/1, rec);
  const auto t0 = Clock::now();
  int sends = 0;
  while (!t.peer_gone() && sends < 100000) {
    t.send_frame(big);
    ++sends;
  }
  EXPECT_TRUE(t.peer_gone()) << "cap never tripped after " << sends;
  // Socket buffer + cap bound the sends; anywhere near the loop limit
  // would mean unbounded staging.
  EXPECT_LT(sends, 1000);
  EXPECT_LT(Clock::now() - t0, 10s) << "sender blocked on a dead peer";
}

// --- Subscribe handshake: version refusal ----------------------------------
// A subscribe whose wire version (or body length) is not this build's is
// closed before it becomes a transport: mismatched builds never exchange a
// ship frame.

// Dials the listener and sends one hand-built first frame. Returns the
// follower id the listener adopted the connection under, or nullopt when
// the listener closed it instead.
std::optional<uint32_t> handshake(ReplicationListener& listener,
                                  const std::vector<uint8_t>& payload) {
  const int fd = net::tcp_connect("127.0.0.1", listener.port(),
                                  /*nonblocking=*/true);
  EXPECT_GE(fd, 0);
  const std::vector<uint8_t> wire = frame_of(payload);
  EXPECT_TRUE(net::send_all(fd, wire.data(), wire.size()));
  std::optional<uint32_t> adopted;
  bool closed = false;
  const auto deadline = Clock::now() + 5s;
  while (!adopted && !closed && Clock::now() < deadline) {
    listener.poll();
    for (const auto& a : listener.take_accepted()) adopted = a.follower_id;
    uint8_t b = 0;
    const ssize_t r = recv(fd, &b, 1, 0);
    closed = r == 0 || (r < 0 && errno != EAGAIN && errno != EWOULDBLOCK);
    if (!adopted && !closed) std::this_thread::sleep_for(1ms);
  }
  EXPECT_TRUE(adopted || closed) << "handshake neither adopted nor closed";
  listener.poll();
  EXPECT_TRUE(listener.take_accepted().empty());
  ::close(fd);
  return adopted;
}

std::vector<uint8_t> subscribe_payload(uint32_t id, bool with_version,
                                       uint8_t version) {
  std::vector<uint8_t> p{static_cast<uint8_t>(WireKind::kSubscribe)};
  put_le32(p, id);
  if (with_version) p.push_back(version);
  return p;
}

TEST(SocketTransport, ListenerAdmitsOnlyThisWireVersion) {
  ReplicationListener listener;
  ASSERT_TRUE(listener.start("127.0.0.1", 0));
  const uint8_t other = kReplicationWireVersion + 1;
  EXPECT_EQ(handshake(listener, subscribe_payload(4, true, other)),
            std::nullopt)
      << "another wire version";
  EXPECT_EQ(handshake(listener, subscribe_payload(4, false, 0)), std::nullopt)
      << "the versionless 4-byte body";
  EXPECT_EQ(handshake(listener,
                      subscribe_payload(4, true, kReplicationWireVersion)),
            std::optional<uint32_t>(4));
  listener.stop();
}

// --- End-to-end over real TCP ----------------------------------------------
// The §11 pump pair — LogShipper and FollowerReplica — runs UNCHANGED over
// loopback TCP through listener-accepted and dialed transports, and the
// follower converges onto the leader's checksum oracle.

TEST(SocketTransport, ShipsAndAppliesOverLoopbackTcp) {
  const size_t n = 96;
  auto [initial, batches] = gen_mixed_stream(n, 400, 24, 8, /*seed=*/21);
  FullyDynamicSpannerConfig fd;
  fd.k = 2;
  fd.seed = 99;

  auto lfs = std::make_shared<MemFs>();
  DurabilityOptions opts;
  opts.checkpoint_every = 8;
  SpannerService leader(std::make_unique<FullyDynamicSpanner>(n, initial, fd),
                        2 * fd.k - 1);
  ASSERT_TRUE(leader.enable_durability(lfs, "leader", opts, initial));

  ReplicationListener listener;
  ASSERT_TRUE(listener.start("127.0.0.1", 0));
  auto dialed = SocketTransport::connect("127.0.0.1", listener.port(),
                                         /*follower_id=*/3);
  ASSERT_NE(dialed, nullptr);
  std::shared_ptr<SocketTransport> accepted;
  const auto hs_deadline = Clock::now() + 5s;
  while (accepted == nullptr && Clock::now() < hs_deadline) {
    listener.poll();
    auto got = listener.take_accepted();
    if (!got.empty()) {
      EXPECT_EQ(got[0].follower_id, 3u);
      accepted = std::move(got[0].transport);
    } else {
      std::this_thread::sleep_for(1ms);
    }
  }
  ASSERT_NE(accepted, nullptr);

  auto ffs = std::make_shared<MemFs>();
  FollowerReplica follower(ffs, "f", opts, dialed);
  LogShipper shipper(lfs, "leader", /*epoch=*/1, accepted);

  std::vector<uint64_t> oracle{leader.snapshot()->checksum()};
  for (const auto& b : batches) {
    auto res = leader.apply(b.insertions, b.deletions);
    oracle.push_back(res.snapshot->checksum());
    const uint64_t durable = leader.durability()->durable_version();
    const auto deadline = Clock::now() + 5s;
    while (follower.applied_version() < durable && Clock::now() < deadline) {
      follower.pump();  // drains frames, advertises the cursor
      accepted->poll();
      shipper.pump(durable);
      std::this_thread::sleep_for(1ms);
    }
    ASSERT_EQ(follower.applied_version(), durable);
    ASSERT_LT(follower.applied_version(), oracle.size());
    ASSERT_EQ(follower.applied_checksum(), oracle[follower.applied_version()])
        << "SILENT DIVERGENCE over TCP at " << follower.applied_version();
  }
  EXPECT_EQ(follower.rejects(), 0u);
  EXPECT_EQ(follower.snapshot_resyncs(), 1u);  // one seeding, rest records
  EXPECT_GT(follower.records_applied(), 0u);
  EXPECT_FALSE(dialed->peer_gone());
  EXPECT_FALSE(accepted->peer_gone());
  listener.stop();
}

// Refusal IS the partition primitive: a refused id's handshake is closed
// on sight; the follower sees peer-gone and keeps retrying (no deadlock,
// no half-subscribed limbo), and healing readmits the same id.

TEST(SocketTransport, ListenerRefusalPartitionsAndHeals) {
  ReplicationListener listener;
  ASSERT_TRUE(listener.start("127.0.0.1", 0));
  listener.set_refused(5, true);

  auto refused = SocketTransport::connect("127.0.0.1", listener.port(), 5);
  ASSERT_NE(refused, nullptr);  // TCP connects; the HANDSHAKE is refused
  const auto deadline = Clock::now() + 5s;
  while (!refused->peer_gone() && Clock::now() < deadline) {
    listener.poll();
    EXPECT_TRUE(listener.take_accepted().empty());
    refused->poll();
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_TRUE(refused->peer_gone());

  listener.set_refused(5, false);  // heal
  auto healed = SocketTransport::connect("127.0.0.1", listener.port(), 5);
  ASSERT_NE(healed, nullptr);
  std::shared_ptr<SocketTransport> accepted;
  const auto heal_deadline = Clock::now() + 5s;
  while (accepted == nullptr && Clock::now() < heal_deadline) {
    listener.poll();
    auto got = listener.take_accepted();
    if (!got.empty())
      accepted = std::move(got[0].transport);
    else
      std::this_thread::sleep_for(1ms);
  }
  ASSERT_NE(accepted, nullptr);
  EXPECT_FALSE(healed->peer_gone());
  listener.stop();
}

}  // namespace
}  // namespace parspan
