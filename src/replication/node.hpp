// ReplicaNode: one replica process's whole control loop (DESIGN.md §14.2)
// — the library that tools/replicad wraps in a main() and the lease tests
// drive in-process.
//
// A node is always in exactly one role:
//
//   LEADER    owns a 1-shard durability-enabled ShardedSpannerService,
//             serves clients through NetServer, accepts followers on a
//             ReplicationListener, and pumps one LogShipper per subscribed
//             follower against the shard's durable watermark. Heartbeats
//             ride the frame stream whenever it would otherwise go quiet.
//
//   FOLLOWER  runs a FollowerReplica over a SocketTransport dialed at the
//             current leader, with its own WAL/checkpoint chain at
//             <dir>/shard-0 (the exact path a leader-role service of this
//             dir would log to — promotion is a recovery of the same
//             chain, not a data migration).
//
// Failure detection is lease-based (§14.3): a follower whose transport
// delivers no bytes for lease_ms (heartbeats guarantee a minimum byte
// rate from a live leader) declares the lease expired and runs the
// LEADER-LOSS procedure:
//
//   1. poll every peer's control port. If any reachable peer claims the
//      leader role at an epoch >= ours, adopt it and stand down — this is
//      what keeps a PARTITIONED follower (listener refuses its subscribe,
//      control plane still reachable) from usurping a live leader;
//   2. otherwise run elect_longest_log over the reachable followers'
//      claimed (has_state, durable_version) — every node evaluates the
//      same deterministic rule over the same node-indexed candidate
//      vector, so concurrent expiries agree on the winner;
//   3. the winner promotes itself: close the follower chain, rebuild a
//      full service via ShardedSpannerService::recover on that chain,
//      bump the epoch past every epoch seen, then start listener +
//      NetServer. Losers point their reconnect loop at the winner.
//
// Epoch fencing ends the deposed leader: survivors drop its frames
// (stale epoch), and the new leader broadcasts a DEPOSE control message —
// a leader receiving one with a higher epoch steps down into the follower
// role on its own chain (a SIGCONT'd zombie rejoins the group instead of
// shipping into the void).
//
// The control protocol (one tiny frame.hpp-framed request per connection)
// is the only cross-node channel besides replication itself: STATUS
// (role/epoch/versions/checksum — chaosctl's oracle and the election's
// candidate claims), PARTITION (leader-side subscribe refusal — the
// harness's iptables-free network cut), DEPOSE. It is served on its OWN
// thread, and the election's peer polling runs with the node mutex
// RELEASED: two followers whose leases expire together poll each other
// concurrently, and if each served ctl only from its (busy) node loop,
// both polls would time out, each would see a candidate set of one, and
// both would crown themselves. Answering status while polling is what
// makes concurrent expiries converge on one winner.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "net/server.hpp"
#include "replication/follower.hpp"
#include "replication/log_shipper.hpp"
#include "replication/socket_transport.hpp"
#include "service/sharded_service.hpp"

namespace parspan {

/// One node's advertised endpoints. All three ports are fixed up front
/// (node i of a replicad fleet uses base+3i..base+3i+2): any follower may
/// later be promoted, so its listener ports must be known to every peer
/// before it binds them.
struct PeerAddr {
  std::string host = "127.0.0.1";
  uint16_t ctl_port = 0;     // control protocol (always bound)
  uint16_t repl_port = 0;    // replication listener (bound while leader)
  uint16_t client_port = 0;  // NetServer front door (bound while leader)
};

enum class NodeRole : uint8_t { kFollower = 1, kLeader = 2 };

/// The control-plane STATUS reply — chaosctl's convergence oracle and the
/// election's candidate claim, in one struct.
struct NodeStatus {
  NodeRole role = NodeRole::kFollower;
  uint64_t epoch = 0;
  uint64_t applied_version = 0;
  uint64_t applied_checksum = 0;
  uint64_t durable_version = 0;
  bool lease_healthy = false;
  bool has_state = false;
  uint32_t leader_index = 0;  // who this node believes leads
  uint64_t resyncs = 0;
  uint64_t rejects = 0;
};

struct ReplicaNodeConfig {
  uint32_t index = 0;            // this node's slot in `peers`
  std::vector<PeerAddr> peers;   // the full static topology, by node index
  std::shared_ptr<Fs> fs;        // PosixFs in replicad; any Fs in tests
  std::string dir;               // node root; the chain lives at dir/shard-0
  bool start_as_leader = false;
  uint32_t initial_leader = 0;   // who a starting follower dials first

  size_t n = 256;                          // vertex space
  FullyDynamicSpannerConfig spanner;       // backend config (k, seed, ...)
  DurabilityOptions durability;            // kEveryRecord by default

  uint32_t tick_ms = 2;          // control-loop cadence
  uint32_t heartbeat_ms = 50;    // max leader quiet time per follower
  uint32_t lease_ms = 400;       // follower's leader-death threshold
  uint32_t peer_timeout_ms = 250;  // control-plane poll timeout
  SocketTransportConfig transport;
};

class ReplicaNode {
 public:
  explicit ReplicaNode(ReplicaNodeConfig cfg);
  ~ReplicaNode();

  ReplicaNode(const ReplicaNode&) = delete;
  ReplicaNode& operator=(const ReplicaNode&) = delete;

  /// Binds the control listener (plus, for a bootstrap leader, service +
  /// replication listener + front door), recovers any local chain, and
  /// spawns the node thread. False when a port cannot be bound or a
  /// bootstrap-leader chain recovery fails outright.
  bool start();

  /// Stops the node thread and every server/listener. Idempotent. The
  /// durable chain stays on disk — a later start() (or another node's
  /// election) picks it up.
  void stop();

  /// This node's current status, as the control plane would report it.
  NodeStatus status() const;
  uint32_t index() const { return cfg_.index; }
  NodeRole role() const;
  uint64_t epoch() const;

  // --- Control-plane client helpers (blocking, bounded by timeout_ms) ----

  /// STATUS poll. nullopt when unreachable or silent past the timeout — a
  /// SIGSTOPped process accepts the connection (kernel backlog) but never
  /// answers, which is exactly "unreachable" for election purposes.
  static std::optional<NodeStatus> poll_status(const PeerAddr& peer,
                                               uint32_t timeout_ms);
  /// Leader-side partition switch for follower `follower_index`. False if
  /// the peer is unreachable or not the leader.
  static bool request_partition(const PeerAddr& peer, uint32_t follower_index,
                                bool on, uint32_t timeout_ms);
  /// Fire-and-forget DEPOSE (new_epoch, new_leader_index): delivered
  /// best-effort; a stopped process reads it whenever it resumes.
  static void send_depose(const PeerAddr& peer, uint64_t new_epoch,
                          uint32_t new_leader_index);

 private:
  struct CtlConn;   // one in-flight control-plane connection
  struct Member;    // one subscribed follower, leader side

  using Clock = std::chrono::steady_clock;

  void run();       // node thread: role ticks + elections
  void ctl_run();   // ctl thread: serves the control protocol
  void tick_locked(bool* want_election);
  void leader_tick_locked();
  void follower_tick_locked(bool* want_election);
  void serve_ctl();
  void handle_ctl_request(CtlConn& conn, const uint8_t* payload,
                          uint32_t len);
  NodeStatus status_locked() const;

  bool become_bootstrap_leader_locked();
  void become_follower_locked(uint32_t leader_index);
  /// The leader-loss procedure. Takes and releases mu_ itself: the peer
  /// polls in the middle run unlocked so this node's ctl thread can keep
  /// answering the peers that are polling it right back.
  void run_election();
  void promote_locked(uint64_t max_epoch_seen);
  void step_down_locked(uint32_t new_leader_index);
  void reconnect_locked();
  bool start_leader_servers_locked();
  std::string shard_dir() const { return cfg_.dir + "/shard-0"; }

  ReplicaNodeConfig cfg_;

  mutable std::mutex mu_;
  std::thread thread_;
  std::thread ctl_thread_;
  bool running_ = false;

  NodeRole role_ = NodeRole::kFollower;
  uint64_t epoch_ = 0;
  uint32_t leader_index_ = 0;

  // Control plane (always on, own thread).
  int ctl_fd_ = -1;
  std::vector<std::unique_ptr<CtlConn>> ctl_conns_;
  // Ctl-thread requests that need node-thread work, applied next tick.
  struct PendingDepose {
    uint64_t epoch = 0;
    uint32_t leader_index = 0;
  };
  std::optional<PendingDepose> pending_depose_;
  std::vector<std::pair<uint32_t, bool>> pending_partitions_;

  // Leader role.
  std::unique_ptr<ShardedSpannerService> svc_;
  std::unique_ptr<net::NetServer> net_server_;
  std::unique_ptr<ReplicationListener> repl_listener_;
  std::map<uint32_t, Member> members_;
  Clock::time_point last_depose_bcast_{};

  // Follower role.
  std::unique_ptr<FollowerReplica> follower_;
  std::shared_ptr<SocketTransport> transport_;
  // Election pacing vs leader liveness are SEPARATE clocks: lease_anchor_
  // earns grace from connects and election rounds (when the next election
  // may run); last_byte_rx_ moves only on genuinely received bytes (what
  // lease_healthy reports). A partitioned follower retries dials forever —
  // its anchor keeps moving — but its byte clock goes stale and stays so.
  Clock::time_point lease_anchor_{};
  Clock::time_point last_byte_rx_{};
  Clock::time_point conn_born_{};  // transport_->last_rx() at dial time
  Clock::time_point last_connect_attempt_{};
};

}  // namespace parspan
