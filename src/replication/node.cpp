#include "replication/node.hpp"

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

#include "durability/frame.hpp"
#include "net/framed_conn.hpp"
#include "replication/failover.hpp"
#include "service/spanner_snapshot.hpp"

namespace parspan {

namespace {

// Control-protocol ops. One frame.hpp-framed request per connection, one
// framed response; the body layouts are fixed-size and exact (a wrong
// length is a dead connection, the same trust boundary as everywhere).
constexpr uint8_t kCtlStatus = 1;     // body: none
constexpr uint8_t kCtlPartition = 2;  // body: follower u32 | on u8
constexpr uint8_t kCtlDepose = 3;     // body: epoch u64 | leader u32

constexpr size_t kStatusBodySize = 1 + 8 + 8 + 8 + 8 + 1 + 1 + 4 + 8 + 8;
constexpr size_t kCtlMaxPayload = 64;
constexpr auto kCtlConnDeadline = std::chrono::seconds(2);
constexpr uint32_t kDeposeTimeoutMs = 100;

void encode_status(const NodeStatus& s, std::vector<uint8_t>* out) {
  out->push_back(static_cast<uint8_t>(s.role));
  put_le64(*out, s.epoch);
  put_le64(*out, s.applied_version);
  put_le64(*out, s.applied_checksum);
  put_le64(*out, s.durable_version);
  out->push_back(s.lease_healthy ? 1 : 0);
  out->push_back(s.has_state ? 1 : 0);
  put_le32(*out, s.leader_index);
  put_le64(*out, s.resyncs);
  put_le64(*out, s.rejects);
}

bool decode_status(const uint8_t* p, size_t len, NodeStatus* out) {
  if (len != kStatusBodySize) return false;
  if (p[0] != static_cast<uint8_t>(NodeRole::kFollower) &&
      p[0] != static_cast<uint8_t>(NodeRole::kLeader))
    return false;
  out->role = static_cast<NodeRole>(p[0]);
  out->epoch = get_le64(p + 1);
  out->applied_version = get_le64(p + 9);
  out->applied_checksum = get_le64(p + 17);
  out->durable_version = get_le64(p + 25);
  out->lease_healthy = p[33] != 0;
  out->has_state = p[34] != 0;
  out->leader_index = get_le32(p + 35);
  out->resyncs = get_le64(p + 39);
  out->rejects = get_le64(p + 47);
  return true;
}

// Blocking ctl dial with kernel-enforced send/recv timeouts. A SIGSTOPped
// peer ACCEPTS the connection (the kernel backlog does, the process never
// sees it) but never answers — SO_RCVTIMEO is what converts that into
// "unreachable", which is exactly the election's requirement.
int dial_ctl(const PeerAddr& peer, uint32_t timeout_ms) {
  const int fd = net::tcp_connect(peer.host, peer.ctl_port, false);
  if (fd < 0) return -1;
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = static_cast<long>(timeout_ms % 1000) * 1000;
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  return fd;
}

// One framed request, optionally one framed response body.
std::optional<std::vector<uint8_t>> ctl_roundtrip(
    const PeerAddr& peer, const std::vector<uint8_t>& request,
    uint32_t timeout_ms, bool want_reply) {
  const int fd = dial_ctl(peer, timeout_ms);
  if (fd < 0) return std::nullopt;
  std::vector<uint8_t> wire;
  append_frame(wire, request.data(), request.size());
  if (!net::send_all(fd, wire.data(), wire.size())) {
    ::close(fd);
    return std::nullopt;
  }
  if (!want_reply) {
    ::close(fd);
    return std::vector<uint8_t>{};
  }
  std::vector<uint8_t> in;
  FrameView fv;
  std::optional<std::vector<uint8_t>> body;
  if (net::read_frame(fd, in, 0, kCtlMaxPayload, &fv))  // SO_RCVTIMEO
    body.emplace(fv.payload, fv.payload + fv.len);
  ::close(fd);
  return body;
}

// The leader role's 1-shard service, recovered from the node's own chain.
// With `genesis`, a fresh service over the empty graph when nothing is
// durable yet.
std::unique_ptr<ShardedSpannerService> open_leader_service(
    const ReplicaNodeConfig& cfg, bool genesis) {
  ShardedConfig scfg;
  scfg.durability.enabled = true;
  scfg.durability.fs = cfg.fs;
  scfg.durability.dir = cfg.dir;
  scfg.durability.opts = cfg.durability;
  ShardSpec spec;
  spec.kind = ShardSpec::Kind::kFullyDynamic;
  spec.n = cfg.n;
  spec.fd = cfg.spanner;
  std::unique_ptr<ShardedSpannerService> svc = ShardedSpannerService::recover(
      {spec}, std::make_unique<VertexRangeRouter>(cfg.n, 1), scfg);
  if (svc == nullptr && genesis)
    svc = ShardedSpannerService::single_graph(cfg.n, {}, 1, cfg.spanner, scfg);
  return svc;
}

// The next epoch > max_seen that is ≡ index (mod fleet size). Promotion
// epochs are therefore UNIQUE per node: if two nodes ever promote off the
// same max_seen (both sides of a poll timing out under extreme scheduler
// stall), they still mint different epochs, so the higher one's DEPOSE
// broadcast deterministically wins instead of two equal-epoch leaders
// ignoring each other forever.
uint64_t next_epoch(uint64_t max_seen, uint32_t index, size_t fleet) {
  if (fleet == 0) return max_seen + 1;
  const uint64_t base = max_seen + 1;
  const uint64_t rem = base % fleet;
  const uint64_t want = index % fleet;
  return base + (want >= rem ? want - rem : fleet - rem + want);
}

}  // namespace

struct ReplicaNode::CtlConn {
  int fd = -1;
  net::ConnBufs bufs;
  Clock::time_point since{};
  bool responded = false;
  bool dead = false;
  ~CtlConn() {
    if (fd >= 0) ::close(fd);
  }
};

struct ReplicaNode::Member {
  std::shared_ptr<SocketTransport> transport;
  std::unique_ptr<LogShipper> shipper;
  Clock::time_point last_heartbeat{};
};

ReplicaNode::ReplicaNode(ReplicaNodeConfig cfg) : cfg_(std::move(cfg)) {}

ReplicaNode::~ReplicaNode() { stop(); }

bool ReplicaNode::start() {
  std::unique_lock<std::mutex> lk(mu_);
  if (running_) return true;
  if (cfg_.index >= cfg_.peers.size() || cfg_.fs == nullptr) return false;
  const PeerAddr& self = cfg_.peers[cfg_.index];
  uint16_t bound = 0;
  ctl_fd_ = net::tcp_listen(self.host, self.ctl_port, 64, &bound);
  if (ctl_fd_ < 0) return false;
  cfg_.fs->mkdirs(shard_dir());
  if (cfg_.start_as_leader) {
    if (!become_bootstrap_leader_locked()) {
      ::close(ctl_fd_);
      ctl_fd_ = -1;
      return false;
    }
  } else {
    become_follower_locked(cfg_.initial_leader);
  }
  running_ = true;
  thread_ = std::thread(&ReplicaNode::run, this);
  ctl_thread_ = std::thread(&ReplicaNode::ctl_run, this);
  return true;
}

void ReplicaNode::stop() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!running_) return;
    running_ = false;
  }
  if (thread_.joinable()) thread_.join();
  if (ctl_thread_.joinable()) ctl_thread_.join();
  std::lock_guard<std::mutex> lk(mu_);
  if (net_server_ != nullptr) {
    net_server_->stop();
    net_server_.reset();
  }
  if (repl_listener_ != nullptr) {
    repl_listener_->stop();
    repl_listener_.reset();
  }
  members_.clear();
  svc_.reset();
  follower_.reset();
  transport_.reset();
  ctl_conns_.clear();
  if (ctl_fd_ >= 0) {
    ::close(ctl_fd_);
    ctl_fd_ = -1;
  }
}

NodeStatus ReplicaNode::status() const {
  std::lock_guard<std::mutex> lk(mu_);
  return status_locked();
}

NodeRole ReplicaNode::role() const {
  std::lock_guard<std::mutex> lk(mu_);
  return role_;
}

uint64_t ReplicaNode::epoch() const {
  std::lock_guard<std::mutex> lk(mu_);
  return epoch_;
}

// --- Threads ---------------------------------------------------------------

void ReplicaNode::run() {
  for (;;) {
    bool want_election = false;
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (!running_) return;
      tick_locked(&want_election);
    }
    if (want_election) run_election();
    std::this_thread::sleep_for(std::chrono::milliseconds(cfg_.tick_ms));
  }
}

void ReplicaNode::ctl_run() {
  for (;;) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (!running_) return;
    }
    serve_ctl();
    std::this_thread::sleep_for(std::chrono::milliseconds(cfg_.tick_ms));
  }
}

// --- Control plane (ctl thread) --------------------------------------------

void ReplicaNode::serve_ctl() {
  for (;;) {
    const int fd =
        accept4(ctl_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) break;
    auto c = std::make_unique<CtlConn>();
    c->fd = fd;
    c->since = Clock::now();
    ctl_conns_.push_back(std::move(c));
  }
  const auto now = Clock::now();
  for (auto& c : ctl_conns_) {
    if (c->dead) continue;
    if (!c->responded) {
      const net::IoStatus st =
          net::read_to_buffer(c->fd, c->bufs, kCtlMaxPayload);
      if (st == net::IoStatus::kError || st == net::IoStatus::kOverflow) {
        c->dead = true;
        continue;
      }
      FrameView fv;
      const FrameParse pr = parse_frame(c->bufs.in.data() + c->bufs.in_off,
                                        c->bufs.in_pending(), kCtlMaxPayload,
                                        &fv);
      if (pr == FrameParse::kOk) {
        handle_ctl_request(*c, fv.payload, fv.len);
        c->responded = true;
      } else if (pr == FrameParse::kBad || st == net::IoStatus::kEof) {
        c->dead = true;
        continue;
      }
    }
    if (c->dead) continue;
    if (c->bufs.out_pending() > 0 &&
        net::flush_writes(c->fd, c->bufs) == net::IoStatus::kError) {
      c->dead = true;
      continue;
    }
    if (c->responded && c->bufs.out_pending() == 0)
      c->dead = true;  // served, one request per connection
    else if (now - c->since > kCtlConnDeadline)
      c->dead = true;  // stuck peer
  }
  ctl_conns_.erase(
      std::remove_if(ctl_conns_.begin(), ctl_conns_.end(),
                     [](const std::unique_ptr<CtlConn>& c) { return c->dead; }),
      ctl_conns_.end());
}

void ReplicaNode::handle_ctl_request(CtlConn& conn, const uint8_t* payload,
                                     uint32_t len) {
  std::vector<uint8_t> body;
  std::lock_guard<std::mutex> lk(mu_);
  if (len == 1 && payload[0] == kCtlStatus) {
    encode_status(status_locked(), &body);
  } else if (len == 6 && payload[0] == kCtlPartition) {
    const uint32_t follower = get_le32(payload + 1);
    const bool on = payload[5] != 0;
    bool ok = false;
    if (role_ == NodeRole::kLeader && repl_listener_ != nullptr) {
      // The refusal set is thread-safe; dropping the live member (so the
      // cut applies to the EXISTING connection too) is node-thread work.
      repl_listener_->set_refused(follower, on);
      pending_partitions_.emplace_back(follower, on);
      ok = true;
    }
    body.push_back(ok ? 1 : 0);
  } else if (len == 13 && payload[0] == kCtlDepose) {
    const uint64_t e = get_le64(payload + 1);
    const uint32_t leader = get_le32(payload + 9);
    if (e > epoch_ && (!pending_depose_ || e > pending_depose_->epoch))
      pending_depose_ = PendingDepose{e, leader};
    body.push_back(1);
  } else {
    conn.dead = true;  // malformed request: dead connection, no reply
    return;
  }
  append_frame(conn.bufs.out, body.data(), body.size());
}

NodeStatus ReplicaNode::status_locked() const {
  NodeStatus s;
  s.role = role_;
  s.epoch = epoch_;
  if (role_ == NodeRole::kLeader) {
    s.leader_index = cfg_.index;
    s.lease_healthy = true;
    s.has_state = true;
    if (svc_ != nullptr) {
      const SpannerService& shard = svc_->shard_service(0);
      if (const ShardDurability* d = shard.durability())
        s.durable_version = d->durable_version();
      if (SpannerSnapshot::Ptr snap = shard.snapshot()) {
        s.applied_version = snap->version();
        s.applied_checksum = snap->checksum();
      }
    }
  } else {
    s.leader_index = leader_index_;
    if (follower_ != nullptr) {
      s.has_state = follower_->has_state();
      s.applied_version = follower_->applied_version();
      s.applied_checksum = follower_->applied_checksum();
      s.durable_version = follower_->durable_version();
      s.resyncs = follower_->snapshot_resyncs();
      s.rejects = follower_->rejects();
    }
    s.lease_healthy =
        transport_ != nullptr && !transport_->peer_gone() &&
        Clock::now() - last_byte_rx_ <=
            std::chrono::milliseconds(cfg_.lease_ms);
  }
  return s;
}

// --- Node thread: ticks ----------------------------------------------------

void ReplicaNode::tick_locked(bool* want_election) {
  if (pending_depose_) {
    const PendingDepose d = *pending_depose_;
    pending_depose_.reset();
    if (d.epoch > epoch_) {
      if (role_ == NodeRole::kLeader) {
        step_down_locked(d.leader_index < cfg_.peers.size() ? d.leader_index
                                                            : cfg_.index);
      } else if (d.leader_index < cfg_.peers.size() &&
                 d.leader_index != leader_index_) {
        leader_index_ = d.leader_index;
        transport_.reset();  // redial at the announced leader
        lease_anchor_ = Clock::now();
      }
    }
  }
  if (role_ == NodeRole::kLeader) {
    for (const auto& [follower, on] : pending_partitions_)
      if (on) members_.erase(follower);
    pending_partitions_.clear();
    leader_tick_locked();
  } else {
    pending_partitions_.clear();
    follower_tick_locked(want_election);
  }
}

void ReplicaNode::leader_tick_locked() {
  if (repl_listener_ == nullptr || svc_ == nullptr) return;
  repl_listener_->poll();
  for (auto& a : repl_listener_->take_accepted()) {
    Member m;
    m.transport = std::move(a.transport);
    m.shipper = std::make_unique<LogShipper>(cfg_.fs, shard_dir(), epoch_,
                                             m.transport);
    m.last_heartbeat = Clock::now();
    // A reconnect replaces any stale member for the same id.
    members_.insert_or_assign(a.follower_id, std::move(m));
  }
  const ShardDurability* d = svc_->shard_service(0).durability();
  const uint64_t durable = d != nullptr ? d->durable_version() : 0;
  const auto now = Clock::now();
  uint64_t max_acked_epoch = 0;
  for (auto it = members_.begin(); it != members_.end();) {
    Member& m = it->second;
    m.transport->poll();
    m.shipper->pump(durable);
    max_acked_epoch = std::max(max_acked_epoch, m.shipper->acked_epoch());
    if (now - m.last_heartbeat >=
        std::chrono::milliseconds(cfg_.heartbeat_ms)) {
      m.transport->send_heartbeat(epoch_);
      m.last_heartbeat = now;
    }
    if (m.transport->peer_gone() || repl_listener_->is_refused(it->first))
      it = members_.erase(it);
    else
      ++it;
  }
  if (max_acked_epoch > epoch_) {
    // A follower acked a HIGHER epoch than ours: the group moved on while
    // we were away (SIGSTOP zombie). Who leads now is unknown from a
    // cursor — step down and let the discovery poll find out.
    step_down_locked(cfg_.index);
    return;
  }
  // Periodic DEPOSE to unsubscribed, unpartitioned peers: the rejoin hint
  // for crashed-and-restarted nodes and SIGCONT'd old leaders (it only
  // acts on receivers whose epoch is behind ours).
  if (now - last_depose_bcast_ >= std::chrono::milliseconds(cfg_.lease_ms)) {
    last_depose_bcast_ = now;
    for (uint32_t i = 0; i < cfg_.peers.size(); ++i) {
      if (i == cfg_.index || members_.count(i) != 0) continue;
      if (repl_listener_->is_refused(i)) continue;  // partitioned: stay cut
      send_depose(cfg_.peers[i], epoch_, cfg_.index);
    }
  }
}

void ReplicaNode::follower_tick_locked(bool* want_election) {
  const auto now = Clock::now();
  if (transport_ != nullptr && transport_->peer_gone()) transport_.reset();
  if (transport_ != nullptr) {
    transport_->poll();
    if (follower_ != nullptr) {
      follower_->pump();
      epoch_ = std::max(epoch_, follower_->epoch());
    }
    // Only bytes received AFTER the dial count as leader life: a refused
    // or dead-on-arrival connection must not look healthy just for being
    // freshly constructed.
    if (transport_->last_rx() != conn_born_) {
      last_byte_rx_ = transport_->last_rx();
      lease_anchor_ = std::max(lease_anchor_, last_byte_rx_);
    }
  } else if (leader_index_ != cfg_.index &&
             now - last_connect_attempt_ >=
                 std::chrono::milliseconds(8 * cfg_.tick_ms)) {
    last_connect_attempt_ = now;
    reconnect_locked();
  }
  if (now - lease_anchor_ > std::chrono::milliseconds(cfg_.lease_ms))
    *want_election = true;
}

void ReplicaNode::reconnect_locked() {
  const PeerAddr& leader = cfg_.peers[leader_index_];
  std::shared_ptr<SocketTransport> t = SocketTransport::connect(
      leader.host, leader.repl_port, cfg_.index);
  if (t == nullptr || t->peer_gone()) return;
  transport_ = std::move(t);
  // The follower binds its transport at construction: recover off our own
  // chain (newest checkpoint + tail — cheap) with the fresh pipe wired in.
  // The idempotent cursor protocol makes the re-advertise safe.
  follower_.reset();  // single writer per chain: close before recover reopens
  follower_ = FollowerReplica::recover(cfg_.fs, shard_dir(), cfg_.durability,
                                       transport_);
  epoch_ = std::max(epoch_, follower_->epoch());
  conn_born_ = transport_->last_rx();
  lease_anchor_ = Clock::now();  // pacing grace; liveness waits for bytes
}

// --- Role transitions ------------------------------------------------------

void ReplicaNode::become_follower_locked(uint32_t leader_index) {
  role_ = NodeRole::kFollower;
  leader_index_ =
      leader_index < cfg_.peers.size() ? leader_index : cfg_.index;
  transport_.reset();
  // Placeholder transport until the first dial succeeds; the invariant is
  // follower_ != nullptr in the follower role (status/election read it).
  follower_ = FollowerReplica::recover(cfg_.fs, shard_dir(), cfg_.durability,
                                       std::make_shared<ChannelTransport>());
  epoch_ = std::max(epoch_, follower_->epoch());
  lease_anchor_ = Clock::now();
  last_byte_rx_ = Clock::now();  // startup grace before the first dial
  last_connect_attempt_ = Clock::time_point{};
}

bool ReplicaNode::become_bootstrap_leader_locked() {
  const uint64_t sidecar = read_epoch_sidecar(*cfg_.fs, shard_dir());
  svc_ = open_leader_service(cfg_, /*genesis=*/true);
  if (svc_ == nullptr) return false;
  // Restart = rebase (recovery rebuilt the edge set), so mint a fresh
  // epoch past anything this chain ever shipped under: survivors resync.
  epoch_ = next_epoch(sidecar, cfg_.index, cfg_.peers.size());
  write_epoch_sidecar(*cfg_.fs, shard_dir(), epoch_);
  return start_leader_servers_locked();
}

bool ReplicaNode::start_leader_servers_locked() {
  const PeerAddr& self = cfg_.peers[cfg_.index];
  repl_listener_ = std::make_unique<ReplicationListener>();
  if (!repl_listener_->start(self.host, self.repl_port)) {
    repl_listener_.reset();
    return false;
  }
  net::NetServerConfig ncfg;
  ncfg.bind_addr = self.host;
  ncfg.port = self.client_port;
  net_server_ = std::make_unique<net::NetServer>(*svc_, ncfg);
  if (!net_server_->start()) {
    net_server_.reset();
    repl_listener_->stop();
    repl_listener_.reset();
    return false;
  }
  members_.clear();
  role_ = NodeRole::kLeader;
  leader_index_ = cfg_.index;
  follower_.reset();
  transport_.reset();
  last_depose_bcast_ = Clock::now();
  return true;
}

void ReplicaNode::promote_locked(uint64_t max_epoch_seen) {
  follower_.reset();  // close the chain before recover reopens it
  transport_.reset();
  svc_ = open_leader_service(cfg_, /*genesis=*/false);
  if (svc_ == nullptr) {
    // The chain lost its checkpoint between election and promotion (media
    // death mid-failover). Honest admission: stay a follower; the next
    // election sees has_state = false and picks someone who can run.
    become_follower_locked(cfg_.index);
    return;
  }
  epoch_ = next_epoch(std::max(max_epoch_seen, epoch_), cfg_.index,
                      cfg_.peers.size());
  write_epoch_sidecar(*cfg_.fs, shard_dir(), epoch_);
  if (!start_leader_servers_locked()) {
    svc_.reset();
    become_follower_locked(cfg_.index);
    return;
  }
  // Depose the old leader (best-effort — a stopped process reads it from
  // its accept backlog on SIGCONT) and point the losers here.
  for (uint32_t i = 0; i < cfg_.peers.size(); ++i)
    if (i != cfg_.index) send_depose(cfg_.peers[i], epoch_, cfg_.index);
}

void ReplicaNode::step_down_locked(uint32_t new_leader_index) {
  if (net_server_ != nullptr) {
    net_server_->stop();
    net_server_.reset();
  }
  if (repl_listener_ != nullptr) {
    repl_listener_->stop();
    repl_listener_.reset();
  }
  members_.clear();
  svc_.reset();  // unflushed queue drops; the durable prefix is on disk
  become_follower_locked(new_leader_index);
  if (leader_index_ == cfg_.index) {
    // Deposed without being told by whom: expire the lease now so the next
    // tick runs the discovery poll instead of waiting a full lease.
    lease_anchor_ =
        Clock::now() - std::chrono::milliseconds(2 * cfg_.lease_ms);
  }
}

// --- The leader-loss procedure ---------------------------------------------

void ReplicaNode::run_election() {
  uint64_t my_epoch = 0;
  CandidateStatus mine;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!running_ || role_ != NodeRole::kFollower || follower_ == nullptr)
      return;
    my_epoch = epoch_;
    mine.has_state = follower_->has_state();
    mine.durable_version = follower_->durable_version();
    lease_anchor_ = Clock::now();  // one lease of grace per attempt
  }

  // Poll with mu_ RELEASED: our ctl thread must keep answering the peers
  // that are polling us right back (see the class comment).
  const size_t fleet = cfg_.peers.size();
  std::vector<std::optional<NodeStatus>> st(fleet);
  for (size_t i = 0; i < fleet; ++i)
    if (i != cfg_.index) st[i] = poll_status(cfg_.peers[i], cfg_.peer_timeout_ms);

  std::lock_guard<std::mutex> lk(mu_);
  if (!running_ || role_ != NodeRole::kFollower) return;
  if (pending_depose_ && pending_depose_->epoch > my_epoch)
    return;  // a newer leader announced itself mid-poll; the tick handles it

  // Step 1: somebody still leads at our epoch or later — adopt, never
  // usurp. This is the partition safety net: our subscribe may be refused
  // while the leader's control port stays reachable.
  int leader = -1;
  uint64_t leader_epoch = 0;
  for (size_t i = 0; i < fleet; ++i) {
    if (!st[i] || st[i]->role != NodeRole::kLeader) continue;
    if (st[i]->epoch < my_epoch) continue;  // deposed-epoch zombie
    if (leader < 0 || st[i]->epoch > leader_epoch) {
      leader = static_cast<int>(i);
      leader_epoch = st[i]->epoch;
    }
  }
  const auto now = Clock::now();
  if (leader >= 0) {
    leader_index_ = static_cast<uint32_t>(leader);
    transport_.reset();  // our pipe was silent regardless: force a redial
    lease_anchor_ = now;
    return;
  }

  // Step 2: longest durably-verified log over every reachable follower.
  // The candidate vector is node-indexed, so every node that reaches the
  // same peers computes the same winner.
  std::vector<CandidateStatus> candidates(fleet);
  uint64_t max_epoch = my_epoch;
  candidates[cfg_.index] = mine;
  for (size_t i = 0; i < fleet; ++i) {
    if (i == cfg_.index || !st[i]) continue;
    max_epoch = std::max(max_epoch, st[i]->epoch);
    if (st[i]->role == NodeRole::kFollower)
      candidates[i] = CandidateStatus{st[i]->has_state, st[i]->durable_version};
  }
  const std::optional<Election> won = elect_longest_log(candidates);
  lease_anchor_ = now;
  if (!won) return;  // nobody can run; retry next lease
  if (won->winner == cfg_.index) {
    promote_locked(max_epoch);
  } else {
    leader_index_ = static_cast<uint32_t>(won->winner);
    transport_.reset();  // dial the winner as soon as it binds
  }
}

// --- Control-plane clients -------------------------------------------------

std::optional<NodeStatus> ReplicaNode::poll_status(const PeerAddr& peer,
                                                   uint32_t timeout_ms) {
  const std::vector<uint8_t> req{kCtlStatus};
  const auto body = ctl_roundtrip(peer, req, timeout_ms, /*want_reply=*/true);
  if (!body) return std::nullopt;
  NodeStatus s;
  if (!decode_status(body->data(), body->size(), &s)) return std::nullopt;
  return s;
}

bool ReplicaNode::request_partition(const PeerAddr& peer,
                                    uint32_t follower_index, bool on,
                                    uint32_t timeout_ms) {
  std::vector<uint8_t> req{kCtlPartition};
  put_le32(req, follower_index);
  req.push_back(on ? 1 : 0);
  const auto body = ctl_roundtrip(peer, req, timeout_ms, /*want_reply=*/true);
  return body && body->size() == 1 && (*body)[0] == 1;
}

void ReplicaNode::send_depose(const PeerAddr& peer, uint64_t new_epoch,
                              uint32_t new_leader_index) {
  std::vector<uint8_t> req{kCtlDepose};
  put_le64(req, new_epoch);
  put_le32(req, new_leader_index);
  (void)ctl_roundtrip(peer, req, kDeposeTimeoutMs, /*want_reply=*/false);
}

}  // namespace parspan
