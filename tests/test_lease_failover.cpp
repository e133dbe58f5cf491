// Lease/failover state machine tests (DESIGN.md §14.2–14.3): in-process
// ReplicaNode fleets over real loopback sockets and PosixFs temp dirs.
// What chaosctl asserts across processes with signals, this suite asserts
// in-process where every node's status is directly inspectable:
//
//   * a leader + followers bootstrap converges through the socket path;
//   * leader death elects the longest durably-verified log automatically
//     (no operator), with an epoch bump and survivor resync;
//   * a PARTITIONED follower (subscribe refused, control plane reachable)
//     never usurps a live leader, and reconverges after healing;
//   * a crashed follower restarts off its own chain and catches up;
//   * the CandidateStatus election rule itself, pinned.
#include <gtest/gtest.h>

#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "durability/frame.hpp"
#include "net/client.hpp"
#include "net/framed_conn.hpp"
#include "replication/failover.hpp"
#include "replication/node.hpp"

namespace parspan {
namespace {

using namespace std::chrono_literals;
using Clock = std::chrono::steady_clock;

// Distinct port range per test (fleets don't outlive their test, but
// lingering TIME_WAIT sockets must not cross-talk) and per run (parallel
// ctest invocations on one machine).
uint16_t next_base() {
  static std::atomic<int> counter{0};
  const int slot = counter.fetch_add(1);
  return static_cast<uint16_t>(22000 + (getpid() * 97 % 6000) + slot * 32);
}

struct Fleet {
  std::string root;
  std::shared_ptr<PosixFs> fs = std::make_shared<PosixFs>();
  std::vector<PeerAddr> peers;
  std::vector<std::unique_ptr<ReplicaNode>> nodes;

  Fleet(size_t size, const std::string& name) {
    const uint16_t base = next_base();
    root = "/tmp/parspan_lease_" + std::to_string(getpid()) + "/" + name;
    fs->mkdirs(root);
    for (size_t i = 0; i < size; ++i) {
      PeerAddr p;
      p.ctl_port = static_cast<uint16_t>(base + 3 * i);
      p.repl_port = static_cast<uint16_t>(base + 3 * i + 1);
      p.client_port = static_cast<uint16_t>(base + 3 * i + 2);
      peers.push_back(p);
    }
    nodes.resize(size);
  }
  ~Fleet() {
    for (auto& n : nodes)
      if (n) n->stop();
  }

  ReplicaNodeConfig config(uint32_t i) const {
    ReplicaNodeConfig c;
    c.index = i;
    c.peers = peers;
    c.fs = fs;
    c.dir = root + "/node" + std::to_string(i);
    c.n = 64;
    c.spanner.k = 2;
    c.spanner.seed = 5;
    c.tick_ms = 2;
    c.heartbeat_ms = 25;
    c.lease_ms = 200;
    c.peer_timeout_ms = 100;
    return c;
  }

  ReplicaNode& start(uint32_t i, bool as_leader, uint32_t initial_leader) {
    ReplicaNodeConfig c = config(i);
    c.start_as_leader = as_leader;
    c.initial_leader = initial_leader;
    nodes[i] = std::make_unique<ReplicaNode>(std::move(c));
    EXPECT_TRUE(nodes[i]->start()) << "node " << i << " failed to start";
    return *nodes[i];
  }
};

// Blocks until every running node agrees: one leader, every follower
// lease-healthy at the leader's (epoch, version, checksum). Returns the
// leader's index, or -1 on timeout.
int await_convergence(Fleet& f, std::chrono::milliseconds budget = 15s) {
  const auto deadline = Clock::now() + budget;
  while (Clock::now() < deadline) {
    int leader = -1;
    bool ok = true;
    std::vector<NodeStatus> st;
    for (size_t i = 0; i < f.nodes.size(); ++i) {
      if (!f.nodes[i]) continue;
      st.push_back(f.nodes[i]->status());
      if (st.back().role == NodeRole::kLeader) {
        if (leader >= 0) ok = false;  // two leaders: not converged
        leader = static_cast<int>(i);
      }
    }
    if (ok && leader >= 0) {
      NodeStatus ls{};
      for (size_t i = 0, k = 0; i < f.nodes.size(); ++i) {
        if (!f.nodes[i]) continue;
        if (static_cast<int>(i) == leader) ls = st[k];
        ++k;
      }
      for (const NodeStatus& s : st) {
        if (s.role == NodeRole::kLeader) continue;
        ok = ok && s.lease_healthy && s.epoch == ls.epoch &&
             s.applied_version == ls.applied_version &&
             s.applied_checksum == ls.applied_checksum;
      }
      if (ok) return leader;
    }
    std::this_thread::sleep_for(5ms);
  }
  return -1;
}

// A few durable writes through the leader's real front door.
void write_batches(const Fleet& f, int leader, uint64_t salt, int count) {
  auto client = net::NetClient::connect("127.0.0.1",
                                        f.peers[leader].client_port);
  ASSERT_TRUE(client.has_value()) << "front door unreachable";
  for (int b = 0; b < count; ++b) {
    std::vector<Edge> ins;
    for (int e = 0; e < 6; ++e) {
      const uint64_t x = salt * 31 + b * 7 + e;
      ins.emplace_back(static_cast<VertexId>(x % 64),
                       static_cast<VertexId>((x * 13 + 1) % 64));
    }
    auto r = client->submit(0, ins, {});
    ASSERT_EQ(r.status, net::Status::kOk);
  }
  ASSERT_TRUE(client->flush().has_value());
}

// --- Election rule, pinned --------------------------------------------------

TEST(LeaseFailover, ElectionPicksLongestLogTiesToLowestIndex) {
  using C = CandidateStatus;
  auto won = elect_longest_log(std::vector<C>{{true, 5}, {true, 9}, {true, 7}});
  ASSERT_TRUE(won.has_value());
  EXPECT_EQ(won->winner, 1u);
  EXPECT_EQ(won->durable_version, 9u);

  won = elect_longest_log(std::vector<C>{{true, 7}, {false, 99}, {true, 7}});
  ASSERT_TRUE(won.has_value());
  EXPECT_EQ(won->winner, 0u) << "ties break to the lowest index";

  EXPECT_FALSE(elect_longest_log(std::vector<C>{{false, 3}, {false, 8}})
                   .has_value())
      << "stateless candidates cannot run";
  EXPECT_FALSE(elect_longest_log(std::vector<C>{}).has_value());
}

// --- Control-plane client vs. signals ---------------------------------------
// The control client's socket has SO_RCVTIMEO, and on such a socket Linux
// fails recv with EINTR whenever a signal handler runs — even an SA_RESTART
// one — and after SIGSTOP/SIGCONT. A resumed node polling a live leader
// must wait out the reply, not count the leader unreachable.

TEST(LeaseFailover, PollStatusSurvivesASignalMidReply) {
  struct sigaction sa {};
  struct sigaction old {};
  sa.sa_handler = [](int) {};
  sa.sa_flags = SA_RESTART;
  sigemptyset(&sa.sa_mask);
  ASSERT_EQ(sigaction(SIGUSR1, &sa, &old), 0);

  PeerAddr peer;
  const int lfd = net::tcp_listen(peer.host, 0, 4, &peer.ctl_port);
  ASSERT_GE(lfd, 0);
  // A valid 55-byte STATUS body: role | epoch | applied | checksum |
  // durable | lease_healthy | has_state | leader | resyncs | rejects.
  std::vector<uint8_t> body{static_cast<uint8_t>(NodeRole::kLeader)};
  put_le64(body, 3);
  put_le64(body, 42);
  put_le64(body, 0xfeedull);
  put_le64(body, 41);
  body.push_back(1);
  body.push_back(1);
  put_le32(body, 2);
  put_le64(body, 0);
  put_le64(body, 0);
  ASSERT_EQ(body.size(), 55u);

  const auto t0 = Clock::now();
  // The fake control peer: reads the request, answers at t0 + 100 ms.
  std::thread fake([&] {
    int fd = -1;
    while (fd < 0 && Clock::now() < t0 + 2s) {
      fd = accept(lfd, nullptr, nullptr);
      if (fd < 0) std::this_thread::sleep_for(1ms);
    }
    if (fd < 0) return;
    uint8_t req[64];
    (void)net::read_some(fd, req, sizeof(req));
    std::this_thread::sleep_until(t0 + 100ms);
    std::vector<uint8_t> reply;
    append_frame(reply, body.data(), body.size());
    net::send_all(fd, reply.data(), reply.size());
    (void)net::read_some(fd, req, sizeof(req));  // until the client closes
    ::close(fd);
  });
  const pthread_t poller = pthread_self();
  std::thread signaller([&] {
    std::this_thread::sleep_until(t0 + 30ms);
    pthread_kill(poller, SIGUSR1);
  });
  const auto st = ReplicaNode::poll_status(peer, /*timeout_ms=*/1000);
  signaller.join();
  fake.join();
  ::close(lfd);
  sigaction(SIGUSR1, &old, nullptr);

  ASSERT_TRUE(st.has_value()) << "a signal read as an unreachable peer";
  EXPECT_EQ(st->role, NodeRole::kLeader);
  EXPECT_EQ(st->epoch, 3u);
  EXPECT_EQ(st->applied_version, 42u);
  EXPECT_EQ(st->applied_checksum, 0xfeedull);
  EXPECT_EQ(st->durable_version, 41u);
  EXPECT_EQ(st->leader_index, 2u);
}

// --- Bootstrap convergence --------------------------------------------------

TEST(LeaseFailover, FleetBootstrapsAndConvergesOverSockets) {
  Fleet f(3, "bootstrap");
  f.start(0, /*as_leader=*/true, 0);
  f.start(1, false, 0);
  f.start(2, false, 0);
  ASSERT_EQ(await_convergence(f), 0);
  write_batches(f, 0, /*salt=*/1, /*count=*/8);
  ASSERT_EQ(await_convergence(f), 0);
  const NodeStatus ls = f.nodes[0]->status();
  EXPECT_GT(ls.applied_version, 0u);
  for (int i : {1, 2}) {
    const NodeStatus s = f.nodes[i]->status();
    EXPECT_EQ(s.applied_version, ls.applied_version);
    EXPECT_EQ(s.applied_checksum, ls.applied_checksum);
    EXPECT_EQ(s.rejects, 0u) << "healthy run must not reject";
  }
}

// --- Automatic failover -----------------------------------------------------

TEST(LeaseFailover, LeaderDeathElectsLongestLogWithEpochBump) {
  Fleet f(3, "failover");
  f.start(0, true, 0);
  f.start(1, false, 0);
  f.start(2, false, 0);
  ASSERT_EQ(await_convergence(f), 0);
  write_batches(f, 0, 2, 6);
  ASSERT_EQ(await_convergence(f), 0);
  const uint64_t old_epoch = f.nodes[0]->status().epoch;
  const uint64_t converged_version = f.nodes[1]->status().applied_version;

  // Kill the leader. No operator from here on: the followers' leases
  // expire, they poll each other, and the longest log (a tie — index 1
  // wins deterministically) promotes itself.
  f.nodes[0]->stop();
  f.nodes[0].reset();
  const int new_leader = await_convergence(f);
  ASSERT_EQ(new_leader, 1);
  const NodeStatus promoted = f.nodes[1]->status();
  EXPECT_GT(promoted.epoch, old_epoch) << "promotion must fence the epoch";
  EXPECT_GE(promoted.durable_version, converged_version)
      << "failover lost durably-replicated writes";

  // The group is writable again, and the survivor follows the new leader.
  write_batches(f, 1, 3, 6);
  ASSERT_EQ(await_convergence(f), 1);
  const NodeStatus survivor = f.nodes[2]->status();
  EXPECT_EQ(survivor.epoch, promoted.epoch);
  EXPECT_GE(survivor.resyncs, 1u)
      << "the rebase epoch must re-seed survivors explicitly";
}

// --- Partition safety -------------------------------------------------------

TEST(LeaseFailover, PartitionedFollowerDoesNotUsurpAndReconverges) {
  Fleet f(3, "partition");
  f.start(0, true, 0);
  f.start(1, false, 0);
  f.start(2, false, 0);
  ASSERT_EQ(await_convergence(f), 0);
  write_batches(f, 0, 4, 4);
  ASSERT_EQ(await_convergence(f), 0);
  const uint64_t epoch_before = f.nodes[0]->status().epoch;

  // Cut follower 1's replication path. Its control plane — and the
  // leader's — stay reachable: the exact split where a naive detector
  // would usurp.
  ASSERT_TRUE(ReplicaNode::request_partition(f.peers[0], 1, true,
                                             /*timeout_ms=*/1000));
  std::this_thread::sleep_for(1200ms);  // several leases + election rounds
  EXPECT_EQ(f.nodes[0]->role(), NodeRole::kLeader)
      << "a partitioned follower deposed a live leader";
  EXPECT_EQ(f.nodes[1]->role(), NodeRole::kFollower);
  EXPECT_EQ(f.nodes[0]->status().epoch, epoch_before)
      << "partition must not burn an epoch";
  EXPECT_FALSE(f.nodes[1]->status().lease_healthy);

  // Writes continue during the partition; the healthy follower tracks.
  write_batches(f, 0, 5, 4);

  // Heal. The cut follower redials, resubscribes, and converges.
  ASSERT_TRUE(ReplicaNode::request_partition(f.peers[0], 1, false, 1000));
  ASSERT_EQ(await_convergence(f), 0);
  EXPECT_TRUE(f.nodes[1]->status().lease_healthy);
}

// --- Follower crash + local recovery ----------------------------------------

TEST(LeaseFailover, FollowerRestartRecoversLocallyAndCatchesUp) {
  Fleet f(3, "restart");
  f.start(0, true, 0);
  f.start(1, false, 0);
  f.start(2, false, 0);
  ASSERT_EQ(await_convergence(f), 0);
  write_batches(f, 0, 6, 6);
  ASSERT_EQ(await_convergence(f), 0);
  const uint64_t durable_before = f.nodes[2]->status().durable_version;
  EXPECT_GT(durable_before, 0u);

  f.nodes[2]->stop();
  f.nodes[2].reset();
  write_batches(f, 0, 7, 6);  // the fleet moves on without it

  // Restart off the same chain: local recovery must restore the durable
  // prefix BEFORE any byte arrives, then the cursor closes the gap.
  ReplicaNode& back = f.start(2, false, 0);
  EXPECT_GE(back.status().durable_version, durable_before)
      << "restart lost the local durable prefix";
  ASSERT_EQ(await_convergence(f), 0);
  const NodeStatus caught_up = back.status();
  EXPECT_EQ(caught_up.applied_version, f.nodes[0]->status().applied_version);
  EXPECT_EQ(caught_up.applied_checksum, f.nodes[0]->status().applied_checksum);
}

}  // namespace
}  // namespace parspan
