#include "net/server.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>

#include "net/framed_conn.hpp"

namespace parspan::net {

namespace {

using Clock = std::chrono::steady_clock;

/// Disconnect a connection whose unsent responses exceed this.
constexpr size_t kMaxOutbufBytes = 8u << 20;
/// Parked submit_for retry granularity (epoll_wait timeout while any
/// request is parked).
constexpr int kTickMs = 2;
/// Pin-table cap per connection (kError above it).
constexpr size_t kMaxPinsPerConn = 64;
/// A gracefully-closing connection (peer EOF with responses pending, or an
/// error reply sent just before close) keeps flushing its output for at
/// most this long before the fd is reaped anyway — best-effort delivery of
/// owed responses, never an unbounded hold.
constexpr std::chrono::milliseconds kDrainLinger{1000};
constexpr int kListenBacklog = 1024;

/// One connection's entire state. Owned by exactly one event loop; never
/// touched from any other thread (deferred completions go through the
/// loop's mailbox and are resolved to a Conn* on the loop thread).
struct Conn {
  int fd = -1;
  uint64_t id = 0;
  ConnBufs bufs;  // the shared framed-stream buffer discipline
  uint32_t next_seq = 0;  // requests are implicitly numbered in arrival order
  bool hello_done = false;
  bool dead = false;   // no more reads/requests; reaped at batch end
  bool drain = false;  // dead, but flush buffered responses first (bounded)
  Clock::time_point drain_deadline{};
  uint64_t next_pin_id = 0;
  std::unordered_map<uint64_t, ShardedView> pins;

  ~Conn() {
    if (fd >= 0) ::close(fd);
  }
};

/// A kFlush whose publish barrier completed on a drain thread: routed to
/// the owning loop by conn id (the conn may be gone — then it fizzles).
struct FlushDone {
  uint64_t conn_id = 0;
  uint32_t seq = 0;
  VersionVector vv;
};

/// A kSubmitFor waiting for queue admission: the REQUEST is parked, the
/// loop thread is not. Retried on every loop tick until admission wins or
/// the deadline expires into kRetryAfter. The RoutedBatch remembers which
/// shards already admitted, so a retry touches only the still-full ones —
/// and the service's edges_ingested/edges_timed_out counters therefore
/// count each edge exactly once, not once per tick.
struct Parked {
  uint64_t conn_id = 0;
  uint32_t seq = 0;
  ShardedSpannerService::RoutedBatch batch;
  Clock::time_point deadline;
};

/// Cross-thread mailbox of one loop. Held by shared_ptr from every
/// in-flight flush_async callback, so a completion that fires after the
/// server stopped (the service outlives it) lands on a closed mailbox
/// instead of freed memory; the eventfd lives and dies with the mailbox
/// for the same reason.
struct Mailbox {
  std::mutex mu;
  std::vector<int> incoming;  // accepted fds awaiting registration
  std::vector<FlushDone> completions;
  bool closed = false;
  int wakefd = -1;

  ~Mailbox() {
    if (wakefd >= 0) ::close(wakefd);
  }

  void wake() {
    uint64_t one = 1;
    [[maybe_unused]] ssize_t r = ::write(wakefd, &one, sizeof(one));
  }

  void post_conn(int fd) {
    {
      std::lock_guard<std::mutex> lk(mu);
      if (closed) {
        ::close(fd);
        return;
      }
      incoming.push_back(fd);
    }
    wake();
  }

  void post_completion(FlushDone d) {
    {
      std::lock_guard<std::mutex> lk(mu);
      if (closed) return;
      completions.push_back(std::move(d));
    }
    wake();
  }
};

struct Loop {
  int epfd = -1;
  std::shared_ptr<Mailbox> mbox;
  std::thread thread;
  std::unordered_map<uint64_t, std::unique_ptr<Conn>> conns;  // by conn id
  std::deque<Parked> parked;
  bool draining = false;  // any conn flushing out its last responses
};

}  // namespace

struct NetServer::Impl {
  ShardedSpannerService& svc;
  NetServerConfig cfg;

  int listen_fd = -1;
  int accept_wakefd = -1;
  std::thread acceptor;
  std::vector<std::unique_ptr<Loop>> loops;
  std::atomic<bool> running{false};
  bool started = false;
  std::atomic<uint64_t> next_conn_id{1};

  std::atomic<uint64_t> accepted{0};
  std::atomic<uint64_t> closed{0};
  std::atomic<uint64_t> requests{0};
  std::atomic<uint64_t> responses{0};
  std::atomic<uint64_t> retry_afters{0};
  std::atomic<uint64_t> protocol_errors{0};

  Impl(ShardedSpannerService& s, NetServerConfig c) : svc(s), cfg(std::move(c)) {}

  // --- Response helpers (bump the counters exactly once per response) ---

  void respond_ok(Conn* c, uint32_t seq, const std::vector<uint8_t>& body) {
    append_ok(c->bufs.out, seq, body);
    responses.fetch_add(1, std::memory_order_relaxed);
  }
  void respond_retry(Conn* c, uint32_t seq) {
    append_retry_after(c->bufs.out, seq, cfg.retry_after_ms);
    responses.fetch_add(1, std::memory_order_relaxed);
    retry_afters.fetch_add(1, std::memory_order_relaxed);
  }
  void respond_error(Conn* c, uint32_t seq, const std::string& msg) {
    append_error(c->bufs.out, seq, msg);
    responses.fetch_add(1, std::memory_order_relaxed);
  }

  // --- Two ways for a connection to die ---------------------------------
  // Hard: reaped at batch end no matter what is still buffered (protocol
  // violations, write errors, slow-reader overflow). Soft: stop reading
  // but keep flushing buffered responses — bounded by kDrainLinger —
  // so a version-mismatch kError or the pipelined responses behind a
  // half-close actually reach the peer before the fd closes.

  static void kill_conn(Conn* c) {
    c->dead = true;
    c->drain = false;
  }

  void close_after_drain(Conn* c) {
    if (c->dead) return;
    c->dead = true;
    c->drain = true;
    c->drain_deadline = Clock::now() + kDrainLinger;
  }

  HelloInfo hello_info() const {
    HelloInfo h;
    h.num_shards = uint32_t(svc.num_shards());
    h.single_graph = svc.router().single_graph();
    h.vertex_space = svc.vertex_space();
    return h;
  }

  // --- Request handling (loop thread) -----------------------------------

  void handle_request(Loop& loop, Conn* c, uint32_t seq,
                      const uint8_t* payload, uint32_t len) {
    Request req;
    if (!decode_request(payload, len, &req)) {
      protocol_errors.fetch_add(1, std::memory_order_relaxed);
      c->dead = true;
      return;
    }
    if (!c->hello_done) {
      // Hello-first is part of the protocol: anything else is a stray
      // client and dies before touching the service.
      if (req.op != Op::kHello || req.magic != kMagic) {
        protocol_errors.fetch_add(1, std::memory_order_relaxed);
        c->dead = true;
        return;
      }
      if (req.version != kProtocolVersion) {
        respond_error(c, seq, "protocol version mismatch");
        close_after_drain(c);  // the error response flushes before close
        return;
      }
      c->hello_done = true;
      respond_ok(c, seq, build_hello_body(hello_info()));
      return;
    }

    switch (req.op) {
      case Op::kHello:
        respond_error(c, seq, "duplicate hello");
        break;
      case Op::kSubmit:
      case Op::kSubmitFor: {
        // Client keys are data: an out-of-range vertex must bounce at the
        // front door — past it, a backend would index out of bounds.
        const uint64_t n = svc.vertex_space();
        if (!valid_edge_keys(req.insertions, n) ||
            !valid_edge_keys(req.deletions, n)) {
          respond_error(c, seq, "edge key out of range");
          break;
        }
        // Admission is ALWAYS a zero-timeout try on the loop thread; a
        // parked kSubmitFor keeps the RoutedBatch and retries only its
        // not-yet-admitted shards on later ticks. On kRetryAfter some
        // shards' sub-batches are already in (the service's documented
        // partial admission) — drop_pending charges the rest to
        // edges_timed_out exactly once, and "retry the whole batch" is
        // the client contract (resubmission is idempotent under the
        // queue's last-op-wins set semantics).
        auto batch =
            svc.route_batch(req.graph_id, edges_from_keys(req.insertions),
                            edges_from_keys(req.deletions));
        auto st = svc.try_admit(batch);
        if (st == ShardedSpannerService::SubmitStatus::kOk) {
          respond_ok(c, seq, {});
        } else if (req.op == Op::kSubmitFor && req.timeout_ms > 0) {
          loop.parked.push_back(
              {c->id, seq, std::move(batch),
               Clock::now() + std::chrono::milliseconds(req.timeout_ms)});
        } else {
          svc.drop_pending(batch);
          respond_retry(c, seq);
        }
        break;
      }
      case Op::kFlush: {
        // The barrier completes on a writer drain, inline right here, or
        // on the thread running earlier callbacks; either way the result
        // goes through the mailbox and is written out by the loop thread.
        // flush_async never waits for another thread (DESIGN.md §13.4).
        auto mbox = loop.mbox;
        const uint64_t conn_id = c->id;
        svc.flush_async([mbox, conn_id, seq](VersionVector vv) {
          mbox->post_completion({conn_id, seq, std::move(vv)});
        });
        break;
      }
      case Op::kPin: {
        if (c->pins.size() >= kMaxPinsPerConn) {
          respond_error(c, seq, "pin table full");
          break;
        }
        std::optional<ShardedView> view;
        if (req.vv.empty()) {
          view = svc.view();
        } else {
          if (req.vv.size() != svc.num_shards()) {
            // A wrong-length vector can never become pinnable, so
            // kRetryAfter's "retry the SAME request" contract would loop
            // forever — this is a client bug (hello said num_shards),
            // answered as the semantic error it is.
            respond_error(c, seq, "version vector shard count mismatch");
            break;
          }
          VersionVector target;
          target.v = req.vv;
          view = svc.try_view_at_least(target);
          if (!view) {
            // Not published that far yet: protocol backpressure, the
            // client's retry loop — never a wait here.
            respond_retry(c, seq);
            break;
          }
        }
        const uint64_t pin_id = ++c->next_pin_id;
        const std::vector<uint64_t> vv = view->versions().v;
        c->pins.emplace(pin_id, std::move(*view));
        respond_ok(c, seq, build_pin_body(pin_id, vv));
        break;
      }
      case Op::kUnpin: {
        if (c->pins.erase(req.pin_id) == 0)
          respond_error(c, seq, "unknown pin id");
        else
          respond_ok(c, seq, {});
        break;
      }
      case Op::kHasEdge:
      case Op::kNeighbors:
      case Op::kBoundedBfs: {
        if (!svc.router().single_graph()) {
          respond_error(c, seq, "composed query on multi-tenant service");
          break;
        }
        const ShardedView* view = nullptr;
        std::optional<ShardedView> unpinned;
        if (req.pin_id == 0) {
          unpinned = svc.view();
          view = &*unpinned;
        } else {
          auto it = c->pins.find(req.pin_id);
          if (it == c->pins.end()) {
            respond_error(c, seq, "unknown pin id");
            break;
          }
          view = &it->second;
        }
        const uint64_t n = svc.vertex_space();
        if (req.u >= n || req.v >= n) {
          respond_error(c, seq, "vertex out of range");
          break;
        }
        if (req.op == Op::kHasEdge) {
          const bool present = req.u != req.v && view->has_edge(req.u, req.v);
          respond_ok(c, seq, build_has_edge_body(present));
        } else if (req.op == Op::kNeighbors) {
          respond_ok(c, seq, build_neighbors_body(view->neighbors(req.v)));
        } else {
          const uint32_t d = req.u == req.v
                                 ? 0
                                 : view->distance(req.u, req.v, req.limit);
          respond_ok(c, seq, build_dist_body(d));
        }
        break;
      }
      case Op::kStats: {
        StatsInfo s;
        s.hello = hello_info();
        s.edges_ingested = svc.edges_ingested();
        s.edges_rejected = svc.edges_rejected();
        s.edges_timed_out = svc.edges_timed_out();
        s.versions = svc.versions().v;
        s.active_connections = uint32_t(
            accepted.load(std::memory_order_relaxed) -
            closed.load(std::memory_order_relaxed));
        s.protocol_errors = protocol_errors.load(std::memory_order_relaxed);
        respond_ok(c, seq, build_stats_body(s));
        break;
      }
      default:
        protocol_errors.fetch_add(1, std::memory_order_relaxed);
        c->dead = true;
        break;
    }
  }

  void process_frames(Loop& loop, Conn* c) {
    while (!c->dead) {
      FrameView fv;
      const FrameParse p = next_frame(c->bufs, kDefaultMaxFramePayload, &fv);
      if (p == FrameParse::kNeedMore) break;
      if (p == FrameParse::kBad) {
        // Torn/corrupt/hostile frame: the stream is unrecoverable (no
        // resync scanning — the WAL's torn-tail rule, DESIGN.md §10.3).
        protocol_errors.fetch_add(1, std::memory_order_relaxed);
        c->dead = true;
        break;
      }
      const uint32_t seq = c->next_seq++;
      requests.fetch_add(1, std::memory_order_relaxed);
      handle_request(loop, c, seq, fv.payload, fv.len);
      consume_frame(c->bufs, fv);
    }
    finish_parse(c->bufs);
  }

  /// Edge-triggered read: read_to_buffer drains the socket completely —
  /// the next EPOLLIN edge only comes after new bytes arrive.
  void handle_readable(Loop& loop, Conn* c) {
    const IoStatus st =
        read_to_buffer(c->fd, c->bufs, kDefaultMaxFramePayload);
    if (st == IoStatus::kOverflow) {
      // A client shovelling bytes that never complete a frame is claiming
      // a payload the cap already rejected.
      protocol_errors.fetch_add(1, std::memory_order_relaxed);
      c->dead = true;
    } else if (st == IoStatus::kError) {
      c->dead = true;
    }
    process_frames(loop, c);
    // Half-closed peers (shutdown(SHUT_WR)) get their pipelined responses
    // drained before the reap; full closes just fail the write.
    if (st == IoStatus::kEof) close_after_drain(c);
    flush_writes(c);
  }

  /// Edge-triggered write via the shared helper (push until done or
  /// EAGAIN; the kernel raises the next EPOLLOUT edge when the socket
  /// drains — called after every append too, because an idle-writable
  /// socket never gets another edge), plus the front door's slow-reader
  /// policy on top.
  void flush_writes(Conn* c) {
    if (net::flush_writes(c->fd, c->bufs) == IoStatus::kError) {
      kill_conn(c);  // EPIPE/ECONNRESET: nothing left to drain to
      return;
    }
    if (c->bufs.out_pending() > kMaxOutbufBytes) {
      // Slow reader with unbounded pipelined responses: disconnect rather
      // than buffer without bound.
      kill_conn(c);
    }
  }

  void close_conn(Loop& loop, uint64_t conn_id) {
    auto it = loop.conns.find(conn_id);
    if (it == loop.conns.end()) return;
    // ~Conn closes the fd (epoll drops it automatically) and releases the
    // pin table — a dead client can never leak snapshot retention.
    loop.conns.erase(it);
    closed.fetch_add(1, std::memory_order_relaxed);
  }

  void register_conn(Loop& loop, int fd) {
    auto c = std::make_unique<Conn>();
    c->fd = fd;
    c->id = next_conn_id.fetch_add(1, std::memory_order_relaxed);
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLOUT | EPOLLET;
    ev.data.ptr = c.get();
    if (epoll_ctl(loop.epfd, EPOLL_CTL_ADD, fd, &ev) != 0) return;  // ~Conn
    accepted.fetch_add(1, std::memory_order_relaxed);
    loop.conns.emplace(c->id, std::move(c));
  }

  void drain_mailbox(Loop& loop) {
    uint64_t tick = 0;
    while (::read(loop.mbox->wakefd, &tick, sizeof(tick)) > 0) {
    }
    std::vector<int> incoming;
    std::vector<FlushDone> completions;
    {
      std::lock_guard<std::mutex> lk(loop.mbox->mu);
      incoming.swap(loop.mbox->incoming);
      completions.swap(loop.mbox->completions);
    }
    for (int fd : incoming) register_conn(loop, fd);
    for (FlushDone& d : completions) {
      auto it = loop.conns.find(d.conn_id);
      if (it == loop.conns.end()) continue;  // conn died while flushing
      Conn* c = it->second.get();
      if (c->dead) continue;
      respond_ok(c, d.seq, build_vv_body(d.vv.v));
      flush_writes(c);
    }
  }

  void retry_parked(Loop& loop) {
    if (loop.parked.empty()) return;
    const auto now = Clock::now();
    for (size_t i = 0; i < loop.parked.size();) {
      Parked& p = loop.parked[i];
      auto it = loop.conns.find(p.conn_id);
      Conn* c = it == loop.conns.end() ? nullptr : it->second.get();
      if (c == nullptr || c->dead) {
        loop.parked.erase(loop.parked.begin() + ptrdiff_t(i));
        continue;
      }
      // Only the not-yet-admitted shards are retried: the batch carries
      // its admission state, so counters move once per edge, not per tick.
      const auto st = svc.try_admit(p.batch);
      if (st == ShardedSpannerService::SubmitStatus::kOk) {
        respond_ok(c, p.seq, {});
      } else if (now >= p.deadline) {
        svc.drop_pending(p.batch);
        respond_retry(c, p.seq);
      } else {
        ++i;
        continue;
      }
      flush_writes(c);
      loop.parked.erase(loop.parked.begin() + ptrdiff_t(i));
    }
  }

  void loop_main(Loop& loop) {
    epoll_event evs[64];
    std::vector<uint64_t> dead;
    while (running.load(std::memory_order_acquire)) {
      // Tick (instead of sleeping forever) while anything needs future
      // work: parked admission retries, or drain deadlines to enforce.
      const int timeout =
          loop.parked.empty() && !loop.draining ? -1 : kTickMs;
      const int n = epoll_wait(loop.epfd, evs, 64, timeout);
      for (int i = 0; i < n; ++i) {
        if (evs[i].data.ptr == nullptr) {
          drain_mailbox(loop);
          continue;
        }
        Conn* c = static_cast<Conn*>(evs[i].data.ptr);
        if (c->dead && !c->drain) continue;  // reaped below
        if (evs[i].events & (EPOLLERR | EPOLLHUP)) kill_conn(c);
        if (!c->dead && (evs[i].events & EPOLLIN)) handle_readable(loop, c);
        // Draining conns still take EPOLLOUT: that edge is what empties
        // their outbuf so the reap below can close them.
        if ((!c->dead || c->drain) && (evs[i].events & EPOLLOUT))
          flush_writes(c);
      }
      retry_parked(loop);
      // Reap AFTER the whole event batch: evs[] may hold more events for
      // a conn marked dead by an earlier one, so freeing mid-batch would
      // dangle. A draining conn survives the reap until its outbuf is
      // empty or its linger deadline passes — best-effort delivery of the
      // responses it was owed, never an unbounded hold.
      dead.clear();
      bool draining = false;
      const auto now = Clock::now();
      for (auto& [id, c] : loop.conns) {
        if (!c->dead) continue;
        if (c->drain && c->bufs.out_pending() > 0 &&
            now < c->drain_deadline) {
          draining = true;
          continue;
        }
        dead.push_back(id);
      }
      loop.draining = draining;
      for (uint64_t id : dead) close_conn(loop, id);
    }
  }

  void acceptor_main() {
    const int epfd = epoll_create1(EPOLL_CLOEXEC);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = listen_fd;
    epoll_ctl(epfd, EPOLL_CTL_ADD, listen_fd, &ev);
    ev.data.fd = accept_wakefd;
    epoll_ctl(epfd, EPOLL_CTL_ADD, accept_wakefd, &ev);
    size_t rr = 0;
    epoll_event evs[8];
    while (running.load(std::memory_order_acquire)) {
      const int n = epoll_wait(epfd, evs, 8, -1);
      for (int i = 0; i < n; ++i) {
        if (evs[i].data.fd == accept_wakefd) {
          uint64_t tick = 0;
          while (::read(accept_wakefd, &tick, sizeof(tick)) > 0) {
          }
          continue;
        }
        for (;;) {
          const int fd = accept4(listen_fd, nullptr, nullptr,
                                 SOCK_NONBLOCK | SOCK_CLOEXEC);
          if (fd < 0) {
            // fd exhaustion leaves the backlog readable, so the level-
            // triggered epoll would re-report it instantly and this loop
            // would spin at 100% CPU for as long as the exhaustion lasts.
            // Back off briefly instead: accepts degrade to slow, not to a
            // burned core.
            if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
                errno == ENOMEM)
              std::this_thread::sleep_for(std::chrono::milliseconds(10));
            break;  // EAGAIN, or transient (ECONNABORTED)
          }
          int one = 1;
          setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
          // Round-robin dealing: a connection's loop is fixed for life,
          // which is what makes all per-conn state lock-free.
          loops[rr++ % loops.size()]->mbox->post_conn(fd);
        }
      }
    }
    ::close(epfd);
  }
};

NetServer::NetServer(ShardedSpannerService& service, NetServerConfig cfg)
    : impl_(std::make_unique<Impl>(service, std::move(cfg))) {}

NetServer::~NetServer() { stop(); }

bool NetServer::start() {
  Impl& im = *impl_;
  if (im.started) return false;
  im.listen_fd =
      tcp_listen(im.cfg.bind_addr, im.cfg.port, kListenBacklog, &port_);
  if (im.listen_fd < 0) return false;

  im.accept_wakefd = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  const int num_loops = im.cfg.num_loops < 1 ? 1 : im.cfg.num_loops;
  im.running.store(true, std::memory_order_release);
  for (int i = 0; i < num_loops; ++i) {
    auto loop = std::make_unique<Loop>();
    loop->epfd = epoll_create1(EPOLL_CLOEXEC);
    loop->mbox = std::make_shared<Mailbox>();
    loop->mbox->wakefd = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = nullptr;  // the mailbox sentinel
    epoll_ctl(loop->epfd, EPOLL_CTL_ADD, loop->mbox->wakefd, &ev);
    im.loops.push_back(std::move(loop));
  }
  for (auto& loop : im.loops) {
    Loop* lp = loop.get();
    lp->thread = std::thread([this, lp] { impl_->loop_main(*lp); });
  }
  im.acceptor = std::thread([this] { impl_->acceptor_main(); });
  im.started = true;
  return true;
}

void NetServer::stop() {
  Impl& im = *impl_;
  if (!im.started) return;
  if (im.running.exchange(false)) {
    uint64_t one = 1;
    [[maybe_unused]] ssize_t r =
        ::write(im.accept_wakefd, &one, sizeof(one));
    for (auto& loop : im.loops) loop->mbox->wake();
  }
  if (im.acceptor.joinable()) im.acceptor.join();
  for (auto& loop : im.loops) {
    if (loop->thread.joinable()) loop->thread.join();
    {
      // Close the mailbox: late flush_async completions (the service
      // outlives the server) fizzle instead of piling up; stray accepted
      // fds are closed by post_conn itself.
      std::lock_guard<std::mutex> lk(loop->mbox->mu);
      loop->mbox->closed = true;
      for (int fd : loop->mbox->incoming) ::close(fd);
      loop->mbox->incoming.clear();
      loop->mbox->completions.clear();
    }
    im.closed.fetch_add(loop->conns.size(), std::memory_order_relaxed);
    loop->conns.clear();  // ~Conn closes fds, drops pins
    loop->parked.clear();
    if (loop->epfd >= 0) ::close(loop->epfd);
    // The mailbox's eventfd closes when the last flush callback lets go.
  }
  im.loops.clear();
  if (im.listen_fd >= 0) ::close(im.listen_fd);
  if (im.accept_wakefd >= 0) ::close(im.accept_wakefd);
  im.listen_fd = im.accept_wakefd = -1;
  im.started = false;
}

NetServer::Stats NetServer::stats() const {
  const Impl& im = *impl_;
  Stats s;
  s.connections_accepted = im.accepted.load(std::memory_order_relaxed);
  s.connections_closed = im.closed.load(std::memory_order_relaxed);
  s.active_connections = s.connections_accepted - s.connections_closed;
  s.requests = im.requests.load(std::memory_order_relaxed);
  s.responses = im.responses.load(std::memory_order_relaxed);
  s.retry_afters = im.retry_afters.load(std::memory_order_relaxed);
  s.protocol_errors = im.protocol_errors.load(std::memory_order_relaxed);
  return s;
}

}  // namespace parspan::net
