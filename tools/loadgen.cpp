// loadgen: drives the net front door (DESIGN.md §13) with thousands of
// concurrent connections and reports latency percentiles + saturated QPS.
//
// Self-contained: spins up an in-process ShardedSpannerService + NetServer
// on an ephemeral loopback port, then hammers it from epoll-based client
// workers — every request goes through the real wire protocol, the real
// frame CRCs, and the real event loops; nothing is mocked.
//
// Two load models:
//   closed (default): each connection keeps `--depth` requests in flight
//     and sends the next the moment a response lands — measures the
//     service-time distribution at a fixed concurrency level, and the
//     aggregate response rate IS the saturated QPS for that level.
//   open: requests are paced at `--rate` per second fleet-wide regardless
//     of outstanding responses — queueing delay shows up in the
//     latencies instead of being hidden by backpressure on the sender.
//
// Workload mix per request (per-connection SplitMix64, seeded by conn id:
// deterministic across runs): 70% has_edge, 10% neighbors, 20% submit of
// 4 random edges. All responses are validated; any kError response,
// decode failure, or unexpected disconnect counts as a protocol error and
// fails the run (the acceptance bar is zero at 1000 connections).
//
//   loadgen [--conns N] [--workers W] [--duration-s S] [--depth D]
//           [--mode closed|open] [--rate R] [--n V] [--shards K]
//           [--loops L] [--smoke] [--full] [--json]
//
// --json writes google-benchmark-shaped JSON to stdout (rows
// net/<mode>/conns:<N>/{p50,p99,p999,ns_per_req}; ns_per_req = 1e9/QPS,
// with the raw qps attached to the row) so bench/run_benches.sh can
// record BENCH_net.json and tools/compare_bench.py can diff it like any
// other bench family. --smoke is the tiny CI configuration; --full runs
// the 1000-connection config AND the smoke config in one process so the
// checked-in baseline carries rows for both.
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <arpa/inet.h>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.hpp"
#include "net/client.hpp"
#include "net/framed_conn.hpp"
#include "net/server.hpp"
#include "service/sharded_service.hpp"

namespace {

using namespace parspan;
using Clock = std::chrono::steady_clock;

struct Options {
  size_t conns = 1000;
  int workers = 4;
  double duration_s = 5.0;
  int depth = 1;
  bool open_loop = false;
  double rate = 20000;  // open-loop fleet-wide req/s
  size_t n = 1 << 14;
  uint32_t shards = 2;
  int loops = 2;
  bool json = false;
  bool smoke = false;
  bool full = false;
};

uint64_t splitmix(uint64_t& s) {
  s += 0x9E3779B97F4A7C15ull;
  uint64_t z = s;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

struct ClientConn {
  int fd = -1;
  uint64_t rng = 0;
  std::vector<uint8_t> out;
  size_t out_off = 0;
  std::vector<uint8_t> in;
  size_t in_off = 0;
  uint32_t next_seq = 1;  // hello took seq 0 during setup
  std::deque<std::pair<uint32_t, Clock::time_point>> inflight;
};

struct WorkerResult {
  std::vector<int64_t> latencies_ns;
  uint64_t responses = 0;
  uint64_t retry_afters = 0;
  uint64_t errors = 0;
};

struct RunResult {
  std::vector<int64_t> latencies_ns;
  double seconds = 0;
  uint64_t responses = 0;
  uint64_t retry_afters = 0;
  uint64_t errors = 0;
};

void raise_nofile(size_t want) {
  rlimit rl{};
  if (getrlimit(RLIMIT_NOFILE, &rl) != 0) return;
  if (rl.rlim_cur < want) {
    rl.rlim_cur = std::min<rlim_t>(want, rl.rlim_max);
    setrlimit(RLIMIT_NOFILE, &rl);
  }
}

// Blocking connect + hello handshake, then switch to non-blocking for the
// workload phase. Exits the process on failure — a loadgen that can't
// even connect has nothing to measure.
int connect_and_hello(uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (fd < 0 || ::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                          sizeof(addr)) != 0) {
    std::fprintf(stderr, "loadgen: connect failed: %s\n", std::strerror(errno));
    std::exit(1);
  }
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  std::vector<uint8_t> frame;
  net::encode_hello(frame);
  if (!net::send_all(fd, frame.data(), frame.size())) {
    std::fprintf(stderr, "loadgen: hello write failed\n");
    std::exit(1);
  }
  std::vector<uint8_t> buf;
  FrameView fv;
  if (!net::read_frame(fd, buf, 0, kMaxFramePayload, &fv)) {
    std::fprintf(stderr, "loadgen: hello read failed\n");
    std::exit(1);
  }
  net::Response r;
  if (!net::decode_response(fv.payload, fv.len, &r) ||
      r.status != net::Status::kOk) {
    std::fprintf(stderr, "loadgen: hello rejected\n");
    std::exit(1);
  }
  fcntl(fd, F_SETFL, fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  return fd;
}

void encode_next_request(const Options& opt, ClientConn& c) {
  const uint64_t roll = splitmix(c.rng) % 100;
  const auto vid = [&] { return VertexId(splitmix(c.rng) % opt.n); };
  if (roll < 70) {
    VertexId u = vid(), v = vid();
    if (u == v) v = (v + 1) % VertexId(opt.n);
    net::encode_has_edge(c.out, 0, u, v);
  } else if (roll < 80) {
    net::encode_neighbors(c.out, 0, vid());
  } else {
    std::vector<Edge> edges;
    for (int i = 0; i < 4; ++i) {
      VertexId u = vid(), v = vid();
      if (u == v) v = (v + 1) % VertexId(opt.n);
      edges.emplace_back(u, v);
    }
    net::encode_submit(c.out, 0, net::sort_unique_keys(edges), {});
  }
  c.inflight.emplace_back(c.next_seq++, Clock::now());
}

bool pump_writes(ClientConn& c) {
  while (c.out_off < c.out.size()) {
    // MSG_NOSIGNAL: a server-side disconnect is a per-connection failure,
    // not a SIGPIPE for the whole loadgen process.
    const ssize_t w = ::send(c.fd, c.out.data() + c.out_off,
                             c.out.size() - c.out_off, MSG_NOSIGNAL);
    if (w > 0) {
      c.out_off += size_t(w);
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return true;  // kernel buffer full; EPOLLOUT resumes us
    } else {
      return false;
    }
  }
  c.out.clear();
  c.out_off = 0;
  return true;
}

/// Reads everything available and consumes complete responses; false on a
/// dead/corrupt connection.
bool pump_reads(ClientConn& c, WorkerResult& res, bool record) {
  for (;;) {
    const size_t at = c.in.size();
    c.in.resize(at + 16 * 1024);
    const ssize_t r = ::read(c.fd, c.in.data() + at, 16 * 1024);
    if (r > 0) {
      c.in.resize(at + size_t(r));
      continue;
    }
    c.in.resize(at);
    if (r == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) return false;
    break;
  }
  for (;;) {
    FrameView fv;
    const FrameParse p = parse_frame(c.in.data() + c.in_off,
                                     c.in.size() - c.in_off, kMaxFramePayload,
                                     &fv);
    if (p == FrameParse::kNeedMore) break;
    if (p == FrameParse::kBad) return false;
    net::Response resp;
    if (!net::decode_response(fv.payload, fv.len, &resp)) return false;
    c.in_off += fv.consumed;
    if (c.inflight.empty() || c.inflight.front().first != resp.seq)
      return false;  // loadgen sends only inline-answered ops: strict FIFO
    const auto sent = c.inflight.front().second;
    c.inflight.pop_front();
    if (resp.status == net::Status::kError) {
      ++res.errors;
    } else {
      if (resp.status == net::Status::kRetryAfter) ++res.retry_afters;
      ++res.responses;
      if (record)
        res.latencies_ns.push_back(
            std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                 sent)
                .count());
    }
  }
  if (c.in_off == c.in.size()) {
    c.in.clear();
    c.in_off = 0;
  }
  return true;
}

WorkerResult worker_main(const Options& opt, std::vector<ClientConn> conns,
                         Clock::time_point start, Clock::time_point stop_send,
                         double worker_rate) {
  WorkerResult res;
  res.latencies_ns.reserve(1 << 18);
  const int epfd = epoll_create1(EPOLL_CLOEXEC);
  for (size_t i = 0; i < conns.size(); ++i) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = i;
    epoll_ctl(epfd, EPOLL_CTL_ADD, conns[i].fd, &ev);
  }
  const auto rearm = [&](size_t i) {
    epoll_event ev{};
    ev.events = conns[i].out.size() > conns[i].out_off ? (EPOLLIN | EPOLLOUT)
                                                       : EPOLLIN;
    ev.data.u64 = i;
    epoll_ctl(epfd, EPOLL_CTL_MOD, conns[i].fd, &ev);
  };
  const auto fail_conn = [&](size_t i) {
    ++res.errors;
    epoll_ctl(epfd, EPOLL_CTL_DEL, conns[i].fd, nullptr);
    ::close(conns[i].fd);
    conns[i].fd = -1;
  };

  // Closed loop: prime `depth` requests per connection. Open loop: the
  // pacer below issues them on schedule instead.
  if (!opt.open_loop) {
    for (size_t i = 0; i < conns.size(); ++i) {
      for (int d = 0; d < opt.depth; ++d) encode_next_request(opt, conns[i]);
      if (!pump_writes(conns[i])) fail_conn(i);
      if (conns[i].fd >= 0) rearm(i);
    }
  }

  const int64_t interval_ns =
      worker_rate > 0 ? int64_t(1e9 / worker_rate) : 0;
  auto next_send = start;
  size_t rr = 0;
  epoll_event evs[64];
  for (;;) {
    const auto now = Clock::now();
    const bool sending = now < stop_send;
    if (!sending) {
      // Drain phase: wait briefly for stragglers, then stop.
      bool outstanding = false;
      for (auto& c : conns)
        if (c.fd >= 0 && !c.inflight.empty()) outstanding = true;
      if (!outstanding ||
          now > stop_send + std::chrono::milliseconds(500))
        break;
    }
    int timeout_ms = 100;
    if (opt.open_loop && sending) {
      const auto wait =
          std::chrono::duration_cast<std::chrono::milliseconds>(next_send - now)
              .count();
      timeout_ms = int(std::clamp<int64_t>(wait, 0, 100));
    }
    const int nev = epoll_wait(epfd, evs, 64, timeout_ms);
    for (int e = 0; e < nev; ++e) {
      const size_t i = size_t(evs[e].data.u64);
      ClientConn& c = conns[i];
      if (c.fd < 0) continue;
      if (evs[e].events & (EPOLLERR | EPOLLHUP)) {
        fail_conn(i);
        continue;
      }
      if (evs[e].events & EPOLLIN) {
        const uint64_t before = res.responses;
        if (!pump_reads(c, res, sending)) {
          fail_conn(i);
          continue;
        }
        if (!opt.open_loop && sending) {
          // Closed loop: every completed response funds the next request.
          const uint64_t completed = res.responses - before;
          for (uint64_t k = 0; k < completed; ++k)
            encode_next_request(opt, c);
        }
      }
      if (c.out.size() > c.out_off && !pump_writes(c)) {
        fail_conn(i);
        continue;
      }
      rearm(i);
    }
    if (opt.open_loop && sending) {
      auto tnow = Clock::now();
      while (tnow >= next_send) {
        // Round-robin pacing over live connections, regardless of
        // outstanding responses — the open-loop property.
        size_t tries = conns.size();
        while (tries-- > 0 && conns[rr % conns.size()].fd < 0) ++rr;
        ClientConn& c = conns[rr++ % conns.size()];
        if (c.fd >= 0) {
          encode_next_request(opt, c);
          const size_t i = size_t(&c - conns.data());
          if (!pump_writes(c))
            fail_conn(i);
          else
            rearm(i);
        }
        next_send += std::chrono::nanoseconds(interval_ns);
        tnow = Clock::now();
      }
    }
  }
  for (auto& c : conns)
    if (c.fd >= 0) ::close(c.fd);
  ::close(epfd);
  return res;
}

RunResult run_config(const Options& opt, uint16_t port) {
  std::vector<std::vector<ClientConn>> per_worker(size_t(opt.workers));
  for (size_t i = 0; i < opt.conns; ++i) {
    ClientConn c;
    c.fd = connect_and_hello(port);
    c.rng = 0x5EED0000 + i;
    per_worker[i % size_t(opt.workers)].push_back(std::move(c));
  }
  const auto start = Clock::now();
  const auto stop_send =
      start + std::chrono::microseconds(int64_t(opt.duration_s * 1e6));
  std::vector<std::thread> threads;
  std::vector<WorkerResult> results(size_t(opt.workers));
  const double worker_rate = opt.rate / opt.workers;
  for (int w = 0; w < opt.workers; ++w)
    threads.emplace_back([&, w] {
      results[size_t(w)] = worker_main(opt, std::move(per_worker[size_t(w)]),
                                       start, stop_send, worker_rate);
    });
  for (auto& t : threads) t.join();
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start).count();

  RunResult out;
  out.seconds = seconds;
  for (auto& r : results) {
    out.responses += r.responses;
    out.retry_afters += r.retry_afters;
    out.errors += r.errors;
    out.latencies_ns.insert(out.latencies_ns.end(), r.latencies_ns.begin(),
                            r.latencies_ns.end());
  }
  std::sort(out.latencies_ns.begin(), out.latencies_ns.end());
  return out;
}

int64_t percentile(const std::vector<int64_t>& sorted, double q) {
  if (sorted.empty()) return 0;
  const size_t idx = size_t(q * double(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

struct Row {
  std::string name;
  double real_time_ns = 0;
  double qps = 0;  // attached to the ns_per_req row
};

void emit_rows(const Options& opt, const RunResult& r, std::vector<Row>& rows) {
  const std::string prefix = std::string("net/") +
                             (opt.open_loop ? "open" : "closed") +
                             "/conns:" + std::to_string(opt.conns) + "/";
  const double qps = r.responses / r.seconds;
  rows.push_back({prefix + "p50", double(percentile(r.latencies_ns, 0.50)), 0});
  rows.push_back({prefix + "p99", double(percentile(r.latencies_ns, 0.99)), 0});
  rows.push_back(
      {prefix + "p999", double(percentile(r.latencies_ns, 0.999)), 0});
  rows.push_back({prefix + "ns_per_req", qps > 0 ? 1e9 / qps : 0, qps});
  std::fprintf(stderr,
               "%s  %llu responses in %.2fs (%.0f qps), p50=%lldus "
               "p99=%lldus p999=%lldus, retry_after=%llu errors=%llu\n",
               prefix.c_str(), (unsigned long long)r.responses, r.seconds, qps,
               (long long)(percentile(r.latencies_ns, 0.50) / 1000),
               (long long)(percentile(r.latencies_ns, 0.99) / 1000),
               (long long)(percentile(r.latencies_ns, 0.999) / 1000),
               (unsigned long long)r.retry_afters,
               (unsigned long long)r.errors);
}

void print_json(const std::vector<Row>& rows) {
  std::printf("{\n  \"context\": {\"executable\": \"loadgen\"},\n");
  std::printf("  \"benchmarks\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    std::printf(
        "    {\"name\": \"%s\", \"run_name\": \"%s\", \"run_type\": "
        "\"iteration\", \"iterations\": 1, \"real_time\": %.1f, "
        "\"cpu_time\": %.1f, \"time_unit\": \"ns\", \"qps\": %.1f}%s\n",
        rows[i].name.c_str(), rows[i].name.c_str(), rows[i].real_time_ns,
        rows[i].real_time_ns, rows[i].qps, i + 1 < rows.size() ? "," : "");
  }
  std::printf("  ]\n}\n");
}

Options smoke_overrides(Options opt) {
  opt.conns = 64;
  opt.workers = 2;
  opt.duration_s = 2.0;
  opt.n = 1 << 12;
  opt.shards = 2;
  opt.loops = 1;
  opt.open_loop = false;
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "loadgen: %s needs a value\n", a.c_str());
        std::exit(1);
      }
      return argv[++i];
    };
    if (a == "--conns") opt.conns = size_t(std::stoul(next()));
    else if (a == "--workers") opt.workers = std::stoi(next());
    else if (a == "--duration-s") opt.duration_s = std::stod(next());
    else if (a == "--depth") opt.depth = std::stoi(next());
    else if (a == "--mode") opt.open_loop = std::string(next()) == "open";
    else if (a == "--rate") opt.rate = std::stod(next());
    else if (a == "--n") opt.n = size_t(std::stoul(next()));
    else if (a == "--shards") opt.shards = uint32_t(std::stoul(next()));
    else if (a == "--loops") opt.loops = std::stoi(next());
    else if (a == "--json") opt.json = true;
    else if (a == "--smoke") opt.smoke = true;
    else if (a == "--full") opt.full = true;
    else {
      std::fprintf(stderr, "loadgen: unknown flag %s\n", a.c_str());
      return 1;
    }
  }
  if (opt.smoke) opt = [&] {  // --smoke keeps --json/--mode etc. if given
    Options s = smoke_overrides(opt);
    s.json = opt.json;
    return s;
  }();

  std::vector<Row> rows;
  uint64_t total_errors = 0;

  auto run_one = [&](const Options& cfg) {
    raise_nofile(2 * cfg.conns + 256);
    FullyDynamicSpannerConfig fd;
    fd.k = 2;
    ShardedConfig sc;
    sc.num_writers = 1;
    auto svc = ShardedSpannerService::single_graph(
        cfg.n, gen_erdos_renyi(cfg.n, 2 * cfg.n, 42), cfg.shards, fd, sc);
    net::NetServerConfig ncfg;
    ncfg.num_loops = cfg.loops;
    net::NetServer server(*svc, ncfg);
    if (!server.start()) {
      std::fprintf(stderr, "loadgen: server failed to start\n");
      std::exit(1);
    }
    RunResult r = run_config(cfg, server.port());
    const auto sstats = server.stats();
    if (sstats.protocol_errors > 0) {
      std::fprintf(stderr, "loadgen: server counted %llu protocol errors\n",
                   (unsigned long long)sstats.protocol_errors);
      total_errors += sstats.protocol_errors;
    }
    total_errors += r.errors;
    emit_rows(cfg, r, rows);
    server.stop();
  };

  run_one(opt);
  if (opt.full && !opt.smoke) run_one(smoke_overrides(opt));

  if (opt.json) print_json(rows);
  if (total_errors > 0) {
    std::fprintf(stderr, "loadgen: FAILED with %llu protocol errors\n",
                 (unsigned long long)total_errors);
    return 1;
  }
  return 0;
}
