#include "workloads.hpp"

#include <poll.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <unordered_map>
#include <unordered_set>

#include "durability/durable_shard.hpp"
#include "durability/fault_fs.hpp"
#include "durability/wal.hpp"
#include "net/server.hpp"
#include "parallel/csr.hpp"
#include "parallel/scheduler.hpp"
#include "replication/follower.hpp"
#include "replication/log_shipper.hpp"
#include "replication/transport.hpp"
#include "service/sharded_service.hpp"
#include "util/rng.hpp"
#include "verify/spanner_check.hpp"
#include "wire.hpp"

namespace perfbench {

using namespace parspan;

namespace {

constexpr auto kSubmitTimeout = std::chrono::seconds(5);
constexpr int kSetupReps = 7;
constexpr size_t kReadConns = 3;   // serve: pipelined read connections
constexpr size_t kReadDepth = 16;  // closed-loop requests in flight on each

double ms_since(int64_t t0) { return double(now_ns() - t0) / 1e6; }

size_t edges_of(const UpdateBatch& b) {
  return b.insertions.size() + b.deletions.size();
}

/// Closed-loop ingest rate from median costs: edges / sum over the kinds of
/// batch that do different work (cutting a checkpoint or not) of count x
/// median latency. A host stall adds time to a few batches and leaves the
/// medians alone, while the checkpoints' share of the time stays in.
double ingest_rate(uint64_t edges,
                   const std::vector<std::vector<double>>& ms_by_kind) {
  double ms = 0;
  for (const auto& kind : ms_by_kind)
    if (!kind.empty()) ms += double(kind.size()) * median(kind);
  return double(edges) / (ms / 1e3);
}

/// The benchmark's own copy of each stream's live edge set, for checking
/// the spanners it gets back against the graph they must span.
class LiveGraph {
 public:
  explicit LiveGraph(const std::vector<Edge>& initial) {
    keys_.reserve(initial.size() * 2);
    for (const Edge& e : initial) keys_.insert(e.key());
  }
  void apply(const UpdateBatch& b) {
    for (const Edge& e : b.deletions) keys_.erase(e.key());
    for (const Edge& e : b.insertions) keys_.insert(e.key());
  }
  bool contains(EdgeKey k) const { return keys_.count(k) != 0; }
  /// Up to `count` edges, evenly spread over the sorted edge set.
  std::vector<Edge> sample(size_t count) const {
    std::vector<EdgeKey> all(keys_.begin(), keys_.end());
    std::sort(all.begin(), all.end());
    std::vector<Edge> out;
    const size_t stride = std::max<size_t>(1, all.size() / count);
    for (size_t i = 0; i < all.size() && out.size() < count; i += stride)
      out.push_back(edge_from_key(all[i]));
    return out;
  }

 private:
  std::unordered_set<EdgeKey> keys_;
};

/// The stretch gate: `spanner` is a subgraph of the live graph and spans a
/// sample of its edges within `stretch` hops (verify/spanner_check).
bool spans(size_t n, const LiveGraph& g, const std::vector<Edge>& spanner,
           uint32_t stretch, size_t sample) {
  for (const Edge& e : spanner)
    if (!g.contains(e.key())) return false;
  return max_edge_stretch(n, g.sample(sample), spanner, stretch) <= stretch;
}

size_t stretch_sample(const Params& p) { return p.ultra ? 1024 : 256; }

std::unique_ptr<ShardRouter> make_router(const Params& p) {
  if (p.tenants) return std::make_unique<GraphIdRouter>(p.shards);
  return std::make_unique<VertexRangeRouter>(p.n, p.shards);
}

/// Initial edges per shard: a tenant's own stream, or the single graph
/// split by owner shard (VertexRangeRouter: the lower endpoint's range).
std::vector<std::vector<Edge>> shard_initial(const Inputs& in) {
  if (in.p.tenants) return in.initial;
  VertexRangeRouter owner(in.p.n, in.p.shards);
  std::vector<std::vector<Edge>> out(in.p.shards);
  for (const Edge& e : in.initial[0]) out[owner.shard_of(0, e.key())].push_back(e);
  return out;
}

/// The first `count` batches per shard, split the same way.
std::vector<std::vector<UpdateBatch>> shard_batches(const Inputs& in,
                                                    size_t count) {
  std::vector<std::vector<UpdateBatch>> out(in.p.shards);
  if (in.p.tenants) {
    for (uint32_t s = 0; s < in.p.shards; ++s)
      out[s].assign(in.batches[s].begin(),
                    in.batches[s].begin() + ptrdiff_t(count));
    return out;
  }
  VertexRangeRouter owner(in.p.n, in.p.shards);
  for (auto& v : out) v.resize(count);
  for (size_t i = 0; i < count; ++i) {
    const UpdateBatch& b = in.batches[0][i];
    for (const Edge& e : b.insertions)
      out[owner.shard_of(0, e.key())][i].insertions.push_back(e);
    for (const Edge& e : b.deletions)
      out[owner.shard_of(0, e.key())][i].deletions.push_back(e);
  }
  return out;
}

std::vector<ShardSpec> make_specs(const Inputs& in, bool with_initial) {
  const Params& p = in.p;
  std::vector<std::vector<Edge>> init;
  if (with_initial) init = shard_initial(in);
  std::vector<ShardSpec> specs(p.shards);
  for (uint32_t s = 0; s < p.shards; ++s) {
    specs[s].kind = p.ultra ? ShardSpec::Kind::kUltraSparse
                            : ShardSpec::Kind::kFullyDynamic;
    specs[s].n = p.n;
    specs[s].fd.k = p.k;
    specs[s].fd.seed = 1 + s;
    specs[s].ultra.seed = 1 + s;
    if (with_initial) specs[s].initial = std::move(init[s]);
  }
  return specs;
}

DurabilityOptions durability_options(const Params& p) {
  DurabilityOptions o;
  o.fsync_policy = FsyncPolicy::kEveryRecord;
  o.checkpoint_every = p.lag;
  o.keep_checkpoints = 2;
  return o;
}

ShardedConfig make_config(const Params& p, std::shared_ptr<MemFs> fs) {
  ShardedConfig c;
  c.num_writers = p.writers;
  if (fs != nullptr) {
    c.durability.enabled = true;
    c.durability.fs = std::move(fs);
    c.durability.dir = "wal";
    c.durability.opts = durability_options(p);
  }
  return c;
}

/// Builds the workload's service kSetupReps times (a fresh MemFs each when
/// durable) and keeps the last; `setup_s` is the median build time.
std::unique_ptr<ShardedSpannerService> set_up(const Inputs& in, Outcome& o,
                                              std::shared_ptr<MemFs>* fs) {
  std::vector<double> times;
  std::unique_ptr<ShardedSpannerService> svc;
  for (int r = 0; r < kSetupReps; ++r) {
    svc.reset();
    std::vector<ShardSpec> specs = make_specs(in, true);
    std::shared_ptr<MemFs> mem;
    if (in.p.durable) mem = std::make_shared<MemFs>();
    const int64_t t0 = now_ns();
    svc = std::make_unique<ShardedSpannerService>(
        std::move(specs), make_router(in.p), make_config(in.p, mem));
    times.push_back(ms_since(t0) / 1e3);
    if (fs != nullptr) *fs = mem;
  }
  o.setup_s = median(times);
  o.check(!svc->durability_failed(), "durability initialised");
  return svc;
}

/// Final-state gates shared by the in-process workloads: every shard's
/// snapshot is consistent() and spans its live graph.
void check_final(const Inputs& in, const ShardedSpannerService& svc,
                 const std::vector<LiveGraph>& live, Outcome& o) {
  ShardedView view = svc.view();
  for (size_t s = 0; s < view.num_shards(); ++s)
    o.check(view.shard(s).consistent(),
            "snapshot consistent() on shard " + std::to_string(s));
  if (in.p.tenants) {
    for (uint32_t g = 0; g < in.p.shards; ++g) {
      const SpannerSnapshot& snap = view.graph(g);
      o.check(spans(in.p.n, live[g], snap.edges(), snap.stretch(),
                    stretch_sample(in.p)),
              "stretch within stretch_bound() on tenant " + std::to_string(g));
    }
  } else {
    o.check(spans(in.p.n, live[0], view.edges(), 2 * in.p.k - 1,
                  stretch_sample(in.p)),
            "stretch within 2k-1");
  }
}

// --- small_batch ------------------------------------------------------------

/// Pumps shipper and follower until the follower serves `target`. False
/// when it does not get there within the deadline.
bool catch_up(LogShipper& shipper, FollowerReplica& follower, uint64_t target,
              Tracer* tr, int64_t id) {
  const int64_t deadline = now_ns() + int64_t(30e9);
  while (!follower.has_state() || follower.applied_version() < target) {
    {
      Scoped s(tr, "replication.ship", id);
      shipper.pump(target);
    }
    {
      Scoped s(tr, "replication.apply", id);
      follower.pump();
    }
    if (now_ns() > deadline) return false;
  }
  return true;
}

Outcome run_small_batch(const Inputs& in, Tracer* tr) {
  const Params& p = in.p;
  Outcome o;
  std::vector<LiveGraph> live{LiveGraph(in.initial[0])};
  std::shared_ptr<MemFs> fs;
  auto svc = set_up(in, o, &fs);

  // The follower is seeded (one snapshot ship) before any clock runs.
  const DurabilityOptions opts = durability_options(p);
  auto chan = std::make_shared<ChannelTransport>();
  auto follower_fs = std::make_shared<MemFs>();
  FollowerReplica follower(follower_fs, "follower", opts, chan);
  LogShipper shipper(fs, "wal/shard-0", /*epoch=*/1, chan);
  o.check(catch_up(shipper, follower, 0, nullptr, -1), "follower seeded");

  size_t next = 0;
  auto one_batch = [&](int64_t id, bool timed) {
    const UpdateBatch& b = in.batches[0][next++];
    const int64_t t0 = now_ns();
    ShardedSpannerService::SubmitStatus st;
    {
      Scoped s(timed ? tr : nullptr, "service.submit", id);
      st = svc->submit_for(0, b.insertions, b.deletions, kSubmitTimeout);
    }
    tally(o.ledger, st);
    VersionVector vv;
    {
      Scoped s(timed ? tr : nullptr, "service.flush", id);
      vv = svc->flush();
    }
    o.ledger.ok();
    const double ms = ms_since(t0);
    live[0].apply(b);
    if (timed) {
      o.visible_ms.push_back(ms);
      o.batch_visible_ms[id] = ms;
    }
    return std::make_pair(ms, vv);
  };

  // Batch i publishes version i+1; every lag-th version cuts a checkpoint.
  std::vector<std::vector<double>> ms_by_kind(2);
  double catchup_ms = 0;
  uint64_t edges = 0, shipped = 0;
  for (size_t i = 0; i < p.ingest_batches; ++i) {
    edges += edges_of(in.batches[0][next]);
    auto [ms, vv] = one_batch(int64_t(i), true);
    const bool checkpoint = (i + 1) % p.lag == 0;
    ms_by_kind[checkpoint].push_back(ms);
    if (checkpoint) {
      const uint64_t target = vv.v[0];
      const int64_t t0 = now_ns();
      const bool ok = catch_up(shipper, follower, target, tr, int64_t(i));
      catchup_ms += ms_since(t0);
      o.ledger.ok();
      o.check(ok, "follower caught up");
      shipped += p.lag;
      o.check(follower.applied_version() == target &&
                  follower.applied_checksum() == svc->view().shard(0).checksum(),
              "follower checksum equals leader checksum at the same version");
    }
  }
  o.ingest_edges_per_s = ingest_rate(edges, ms_by_kind);
  o.catchup_records_per_s = double(shipped) / (catchup_ms / 1e3);
  o.edges_rejected = svc->edges_rejected();
  o.edges_timed_out = svc->edges_timed_out();

  // Crash and recover, repeated: each crash follows the same number of
  // logged records, so every repetition replays the same amount.
  for (size_t r = 0; r < p.recover_reps; ++r) {
    for (size_t j = 0; j < p.recover_gap; ++j) one_batch(-1, false);
    const VersionVector vv = svc->flush();
    const uint64_t pre_checksum = svc->view().shard(0).checksum();
    svc.reset();
    Rng rng(in.seed + r);
    fs->crash_and_restart(CrashTail::kLoseAll, rng);
    std::vector<SpannerService::RecoveryReport> reports;
    const int64_t t0 = now_ns();
    {
      Scoped s(tr, "service.recover", int64_t(r));
      svc = ShardedSpannerService::recover(make_specs(in, false),
                                           make_router(p), make_config(p, fs),
                                           &reports);
    }
    o.recover_s.push_back(ms_since(t0) / 1e3);
    o.ledger.ok();
    if (svc == nullptr) {
      o.check(false, "recover returned a service");
      return o;
    }
    o.check(reports.size() == 1 && reports[0].restored_version == vv.v[0] &&
                reports[0].restored_checksum == pre_checksum,
            "recovered checksum equals pre-crash checksum at the same version");
  }
  check_final(in, *svc, live, o);
  return o;
}

// --- tenants ------------------------------------------------------------------

Outcome run_tenants(const Inputs& in, Tracer* tr) {
  const Params& p = in.p;
  Outcome o;
  std::vector<LiveGraph> live;
  for (const auto& init : in.initial) live.emplace_back(init);
  auto svc = set_up(in, o, nullptr);

  std::vector<std::vector<double>> round_ms(1);
  uint64_t edges = 0;
  std::vector<int64_t> t_submit(p.shards);
  for (size_t r = 0; r < p.ingest_batches; ++r) {
    const int64_t t0 = now_ns();
    for (uint32_t g = 0; g < p.shards; ++g) {
      const UpdateBatch& b = in.batches[g][r];
      t_submit[g] = now_ns();
      ShardedSpannerService::SubmitStatus st;
      {
        Scoped s(tr, "service.submit", int64_t(r));
        st = svc->submit_for(g, b.insertions, b.deletions, kSubmitTimeout);
      }
      tally(o.ledger, st);
      edges += edges_of(b);
    }
    {
      Scoped s(tr, "service.flush", int64_t(r));
      svc->flush();
    }
    o.ledger.ok();
    const int64_t t1 = now_ns();
    for (uint32_t g = 0; g < p.shards; ++g)
      o.visible_ms.push_back(double(t1 - t_submit[g]) / 1e6);
    o.batch_visible_ms[int64_t(r)] = double(t1 - t0) / 1e6;
    round_ms[0].push_back(double(t1 - t0) / 1e6);
    for (uint32_t g = 0; g < p.shards; ++g) live[g].apply(in.batches[g][r]);
  }
  o.ingest_edges_per_s = ingest_rate(edges, round_ms);
  o.edges_rejected = svc->edges_rejected();
  o.edges_timed_out = svc->edges_timed_out();
  check_final(in, *svc, live, o);
  return o;
}

// --- serve --------------------------------------------------------------------

enum QueryOp : uint8_t { kHas = 0, kNbrs = 1, kBfs = 2 };

struct Query {
  QueryOp op = kHas;
  VertexId u = 0, v = 0;
};

/// The read mix: has_edge 70% (half on graph edges, half on random pairs),
/// neighbors 20%, bounded_bfs 10% on graph edges with limit 2k-1.
std::vector<Query> make_queries(const Inputs& in, size_t count, uint64_t salt) {
  Rng rng(in.seed * 0x9e3779b97f4a7c15ULL + salt);
  const std::vector<Edge>& g = in.initial[0];
  std::vector<Query> out(count);
  for (Query& q : out) {
    const uint64_t r = rng.next_below(100);
    const Edge e = g[rng.next_below(g.size())];
    if (r < 35) {
      q = {kHas, e.u, e.v};
    } else if (r < 70) {
      q = {kHas, VertexId(rng.next_below(in.p.n)), VertexId(rng.next_below(in.p.n))};
    } else if (r < 90) {
      q = {kNbrs, VertexId(rng.next_below(in.p.n)), 0};
    } else {
      q = {kBfs, e.u, e.v};
    }
  }
  return out;
}

const char* rtt_span(QueryOp op) {
  switch (op) {
    case kHas: return "net.has_edge";
    case kNbrs: return "net.neighbors";
    default: return "net.bfs";
  }
}

struct Sampled {
  Query q;
  std::vector<uint8_t> body;
};

Outcome run_serve(const Inputs& in, Tracer* tr) {
  const Params& p = in.p;
  Outcome o;
  std::vector<LiveGraph> live{LiveGraph(in.initial[0])};
  auto svc = set_up(in, o, nullptr);
  const uint32_t stretch = 2 * p.k - 1;

  const size_t n_writes = size_t(p.write_rate * (p.closed_s + p.open_s));
  const size_t n_open = size_t(p.read_rate * p.open_s);
  const std::vector<Query> pool = make_queries(in, 1 << 16, 1);
  const std::vector<Query> open_q = make_queries(in, n_open, 2);
  std::vector<std::vector<EdgeKey>> w_ins(n_writes), w_del(n_writes);
  for (size_t i = 0; i < n_writes; ++i) {
    w_ins[i] = net::sort_unique_keys(in.batches[0][i].insertions);
    w_del[i] = net::sort_unique_keys(in.batches[0][i].deletions);
  }

  net::NetServerConfig nc;
  nc.num_loops = 1;
  net::NetServer server(*svc, nc);
  if (!server.start()) {
    o.check(false, "net server started");
    return o;
  }
  std::vector<std::unique_ptr<WireConn>> conns;
  for (size_t c = 0; c <= kReadConns; ++c) {
    conns.push_back(WireConn::connect(server.port()));
    if (conns.back() == nullptr) {
      o.check(false, "wire connection established");
      return o;
    }
  }
  WireConn& wc = *conns.back();

  // One pin per read connection, taken before any write: the in-process
  // view at the same VersionVector is what wire answers are checked
  // against.
  std::vector<uint64_t> pin_id(kReadConns);
  for (size_t c = 0; c < kReadConns; ++c) {
    net::encode_pin(conns[c]->out(), {});
    conns[c]->commit();
    std::vector<net::OwnedResponse> got;
    const int64_t deadline = now_ns() + int64_t(10e9);
    bool alive = conns[c]->write_some();
    while (alive && got.empty() && now_ns() < deadline) {
      pollfd pfd{conns[c]->fd(), POLLIN, 0};
      ::poll(&pfd, 1, 100);
      alive = conns[c]->read_some(got);
    }
    std::vector<uint64_t> vv;
    o.ledger.ok();
    if (got.empty() || got[0].status != net::Status::kOk ||
        !net::parse_pin_body(got[0].view(), &pin_id[c], &vv) ||
        vv != svc->view().versions().v) {
      o.check(false, "wire pin matches the in-process VersionVector");
      return o;
    }
  }
  const ShardedView pinned = svc->view();

  struct InFlight {
    uint32_t seq;
    Query q;
    int64_t due, sent;
    bool open, sampled;
  };
  struct WriteOp {
    bool flush;
    size_t batch;
    int64_t due, sent;
  };
  std::vector<std::deque<InFlight>> inflight(kReadConns);
  std::unordered_map<uint32_t, WriteOp> wpending;
  std::vector<Sampled> samples;

  const int64_t t_start = now_ns();
  const int64_t closed_end = t_start + int64_t(p.closed_s * 1e9);
  const int64_t open_end = closed_end + int64_t(p.open_s * 1e9);
  const double w_period = 1e9 / p.write_rate;
  const double r_period = 1e9 / p.read_rate;
  const int64_t hard_deadline = open_end + int64_t(60e9);
  size_t next_write = 0, next_open = 0, next_closed = 0, closed_done = 0;
  int64_t last_closed_recv = t_start, last_flush_recv = t_start;
  uint64_t write_edges = 0;
  size_t query_count = 0;

  auto send_query = [&](size_t c, const Query& q, int64_t due, bool open) {
    WireConn& conn = *conns[c];
    switch (q.op) {
      case kHas: net::encode_has_edge(conn.out(), pin_id[c], q.u, q.v); break;
      case kNbrs: net::encode_neighbors(conn.out(), pin_id[c], q.u); break;
      case kBfs:
        net::encode_bounded_bfs(conn.out(), pin_id[c], q.u, q.v, stretch);
        break;
    }
    const uint32_t seq = conn.commit();
    const bool sampled = (query_count++ % 16) == 0;
    inflight[c].push_back({seq, q, due, now_ns(), open, sampled});
  };

  std::vector<pollfd> pfds(conns.size());
  std::vector<net::OwnedResponse> got;
  bool broken = false;
  for (;;) {
    int64_t now = now_ns();
    while (next_write < n_writes &&
           t_start + int64_t(double(next_write) * w_period) <= now) {
      const int64_t due = t_start + int64_t(double(next_write) * w_period);
      net::encode_submit(wc.out(), 0, w_ins[next_write], w_del[next_write]);
      wpending[wc.commit()] = {false, next_write, due, now};
      net::encode_flush(wc.out());
      wpending[wc.commit()] = {true, next_write, due, now};
      write_edges += edges_of(in.batches[0][next_write]);
      live[0].apply(in.batches[0][next_write]);
      ++next_write;
    }
    if (now < closed_end) {
      for (size_t c = 0; c < kReadConns; ++c)
        while (inflight[c].size() < kReadDepth)
          send_query(c, pool[next_closed++ % pool.size()], now, false);
    } else {
      while (next_open < n_open &&
             closed_end + int64_t(double(next_open) * r_period) <= now) {
        const int64_t due = closed_end + int64_t(double(next_open) * r_period);
        o.late_ms.push_back(double(now - due) / 1e6);
        send_query(next_open % kReadConns, open_q[next_open], due, true);
        ++next_open;
      }
    }
    bool idle = wpending.empty() && next_write == n_writes &&
                next_open == n_open && now >= closed_end;
    for (size_t c = 0; c < kReadConns; ++c) idle = idle && inflight[c].empty();
    if (idle) break;
    if (now > hard_deadline) {
      o.check(false, "serve phases finished before the deadline");
      broken = true;
      break;
    }

    for (size_t c = 0; c < conns.size(); ++c) {
      if (!conns[c]->write_some()) broken = true;
      pfds[c] = {conns[c]->fd(),
                 short(POLLIN | (conns[c]->want_write() ? POLLOUT : 0)), 0};
    }
    if (broken) {
      o.check(false, "wire connections stayed open");
      break;
    }
    int64_t wake = hard_deadline;
    if (next_write < n_writes)
      wake = std::min(wake, t_start + int64_t(double(next_write) * w_period));
    if (now < closed_end) wake = std::min(wake, closed_end);
    else if (next_open < n_open)
      wake = std::min(wake, closed_end + int64_t(double(next_open) * r_period));
    const int64_t wait_ns = std::max<int64_t>(0, wake - now_ns());
    timespec ts{time_t(wait_ns / 1000000000), long(wait_ns % 1000000000)};
    ::ppoll(pfds.data(), pfds.size(), &ts, nullptr);

    for (size_t c = 0; c < conns.size(); ++c) {
      if ((pfds[c].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      got.clear();
      if (!conns[c]->read_some(got)) broken = true;
      const int64_t recv = now_ns();
      for (net::OwnedResponse& r : got) {
        const bool ok = r.status == net::Status::kOk;
        tally(o.ledger, r.status);
        if (c == kReadConns) {  // the write connection
          auto it = wpending.find(r.seq);
          if (it == wpending.end()) {
            broken = true;
            continue;
          }
          const WriteOp w = it->second;
          wpending.erase(it);
          if (tr != nullptr)
            tr->add(w.flush ? "net.flush" : "net.submit", w.sent, recv,
                    int64_t(w.batch));
          if (w.flush && ok) {
            // The end-to-end figure is taken beside the open-loop reads,
            // below saturation; the saturated phase is in the trace.
            const double ms = double(recv - w.due) / 1e6;
            if (w.due >= closed_end) o.visible_ms.push_back(ms);
            o.batch_visible_ms[int64_t(w.batch)] = ms;
            last_flush_recv = recv;
          }
          continue;
        }
        if (inflight[c].empty() || inflight[c].front().seq != r.seq) {
          broken = true;
          continue;
        }
        const InFlight f = inflight[c].front();
        inflight[c].pop_front();
        if (tr != nullptr)
          tr->add(rtt_span(f.q.op), f.sent, recv, int64_t(f.seq));
        if (f.open) {
          o.read_us.push_back(double(recv - f.due) / 1e3);
        } else {
          ++closed_done;
          last_closed_recv = recv;
        }
        if (f.sampled && ok) samples.push_back({f.q, std::move(r.body)});
      }
      if (broken) break;
    }
    if (broken) {
      o.check(false, "wire responses arrived in order on open connections");
      break;
    }
  }

  o.read_per_s = double(closed_done) / (double(last_closed_recv - t_start) / 1e9);
  o.ingest_edges_per_s =
      double(write_edges) / (double(last_flush_recv - t_start) / 1e9);

  // Wire answers against the pinned in-process view at the same
  // VersionVector; bounded BFS on graph edges also checks the stretch.
  size_t mismatches = 0;
  for (const Sampled& s : samples) {
    net::Response r;
    r.status = net::Status::kOk;
    r.body = s.body.data();
    r.body_len = uint32_t(s.body.size());
    if (s.q.op == kHas) {
      bool present = false;
      if (!net::parse_has_edge_body(r, &present) ||
          present != (s.q.u != s.q.v && pinned.has_edge(s.q.u, s.q.v)))
        ++mismatches;
    } else if (s.q.op == kNbrs) {
      std::vector<VertexId> ids;
      if (!net::parse_neighbors_body(r, &ids) || ids != pinned.neighbors(s.q.u))
        ++mismatches;
    } else {
      uint32_t d = 0;
      if (!net::parse_dist_body(r, &d) ||
          d != pinned.distance(s.q.u, s.q.v, stretch) || d > stretch)
        ++mismatches;
    }
  }
  o.check(!samples.empty() && mismatches == 0,
          "wire answers equal the pinned in-process view (" +
              std::to_string(mismatches) + " of " +
              std::to_string(samples.size()) + " differ)");

  const net::NetServer::Stats st = server.stats();
  o.net_requests = st.requests;
  o.net_retry_afters = st.retry_afters;
  o.net_protocol_errors = st.protocol_errors;
  o.ledger.reclassify_failed(st.protocol_errors);
  o.check(st.protocol_errors == 0, "net.protocol_errors is zero");
  conns.clear();
  server.stop();

  svc->flush();
  o.edges_rejected = svc->edges_rejected();
  o.edges_timed_out = svc->edges_timed_out();
  check_final(in, *svc, live, o);
  return o;
}

// --- layer re-drive -------------------------------------------------------------

class Backend {
 public:
  virtual ~Backend() = default;
  virtual SpannerDiff update(const std::vector<Edge>& ins,
                             const std::vector<Edge>& del) = 0;
  virtual std::vector<Edge> spanner_edges() const = 0;
  virtual uint64_t rebuilds() const = 0;
  virtual uint32_t stretch() const = 0;
};

class FullyDynamicBackend final : public Backend {
 public:
  FullyDynamicBackend(const Params& p, const std::vector<Edge>& edges,
                      uint32_t s)
      : impl_(p.n, edges, FullyDynamicSpannerConfig{p.k, 1 + s}),
        stretch_(2 * p.k - 1) {}
  SpannerDiff update(const std::vector<Edge>& ins,
                     const std::vector<Edge>& del) override {
    return impl_.update(ins, del);
  }
  std::vector<Edge> spanner_edges() const override {
    return impl_.spanner_edges();
  }
  uint64_t rebuilds() const override { return impl_.rebuilds(); }
  uint32_t stretch() const override { return stretch_; }

 private:
  FullyDynamicSpanner impl_;
  uint32_t stretch_;
};

class UltraBackend final : public Backend {
 public:
  UltraBackend(const Params& p, const std::vector<Edge>& edges, uint32_t s)
      : impl_(p.n, edges, [&] {
          UltraConfig c;
          c.seed = 1 + s;
          return c;
        }()) {}
  SpannerDiff update(const std::vector<Edge>& ins,
                     const std::vector<Edge>& del) override {
    return impl_.update(ins, del);
  }
  std::vector<Edge> spanner_edges() const override {
    return impl_.spanner_edges();
  }
  uint64_t rebuilds() const override { return 0; }
  uint32_t stretch() const override { return impl_.stretch_bound(); }

 private:
  UltraSparseSpanner impl_;
};

std::unique_ptr<Backend> make_backend(const Params& p,
                                      const std::vector<Edge>& edges,
                                      uint32_t s) {
  if (p.ultra) return std::make_unique<UltraBackend>(p, edges, s);
  return std::make_unique<FullyDynamicBackend>(p, edges, s);
}

std::vector<EdgeKey> sorted_keys(const std::vector<Edge>& edges) {
  std::vector<EdgeKey> k;
  k.reserve(edges.size());
  for (const Edge& e : edges) k.push_back(e.key());
  std::sort(k.begin(), k.end());
  k.erase(std::unique(k.begin(), k.end()), k.end());
  return k;
}

/// The spans of a batch that the service runs in sequence on its drain:
/// the merge / CSR / checksum split re-runs the publish and is not one.
bool is_stage(const std::string& name) {
  return name == "core.update" || name == "service.publish" ||
         name == "durability.log" || name == "durability.checkpoint" ||
         name == "durability.no_checkpoint";
}

}  // namespace

void tally(Ledger& l, ShardedSpannerService::SubmitStatus st) {
  if (st == ShardedSpannerService::SubmitStatus::kOk) l.ok();
  else l.fail();
}

void tally(Ledger& l, net::Status st) {
  if (st == net::Status::kOk) l.ok();
  else l.fail();
}

size_t Params::generated_batches() const {
  if (name == "serve") return size_t(write_rate * (closed_s + open_s)) + 1;
  return ingest_batches + recover_reps * recover_gap;
}

Params params_for(const std::string& workload, int seconds, bool* ok) {
  Params p;
  p.name = workload;
  *ok = true;
  const double s = std::max(1, seconds);
  if (workload == "small_batch") {
    p.initial_m = size_t(3.0 * std::pow(double(p.n), 4.0 / 3.0));
    p.batch = 64;
    p.ingest_batches = p.lag * std::max<size_t>(1, size_t(std::lround(s * 1.6)));
    p.durable = true;
    p.recover_reps = 5;
    p.recover_gap = 32;
    p.workers = 1;
    p.writers = 1;
  } else if (workload == "tenants") {
    p.ultra = true;
    p.shards = 4;
    p.tenants = true;
    p.initial_m = 8 * p.n;
    p.batch = 1024;
    p.ingest_batches = std::max<size_t>(8, size_t(std::lround(s * 12)));
    p.workers = 3;
    p.writers = 3;
  } else if (workload == "serve") {
    p.initial_m = size_t(3.0 * std::pow(double(p.n), 4.0 / 3.0));
    p.shards = 2;
    p.batch = 64;
    p.closed_s = 0.3 * s;
    p.open_s = 0.7 * s;
    p.read_rate = 8000;
    p.write_rate = 60;
    p.workers = 1;
    p.writers = 2;
  } else {
    *ok = false;
  }
  return p;
}

Inputs make_inputs(const Params& p, uint64_t seed) {
  Inputs in;
  in.p = p;
  in.seed = seed;
  const uint32_t streams = p.tenants ? p.shards : 1;
  for (uint32_t g = 0; g < streams; ++g) {
    auto [initial, batches] =
        gen_mixed_stream(p.n, p.initial_m, p.batch, p.generated_batches(),
                         seed * 1000003ULL + g);
    in.initial.push_back(std::move(initial));
    in.batches.push_back(std::move(batches));
  }
  return in;
}

Outcome run_workload(const Inputs& in, Tracer* tracer) {
  set_num_workers(in.p.workers);
  Scheduler& sched = Scheduler::instance();
  const uint64_t spawned = sched.tasks_spawned(), stolen = sched.tasks_stolen(),
                 parks = sched.parks();
  Outcome o;
  if (in.p.name == "small_batch") o = run_small_batch(in, tracer);
  else if (in.p.name == "tenants") o = run_tenants(in, tracer);
  else o = run_serve(in, tracer);
  o.tasks_spawned = sched.tasks_spawned() - spawned;
  o.tasks_stolen = sched.tasks_stolen() - stolen;
  o.parks = sched.parks() - parks;
  return o;
}

LayerOutcome run_layers(const Inputs& in, Tracer& tr) {
  const Params& p = in.p;
  set_num_workers(p.workers);
  LayerOutcome lo;
  auto check = [&](bool ok, const std::string& what) {
    if (!ok) lo.failed_checks.push_back("layers: " + what);
  };
  const size_t rounds = p.ingest_batches;
  const std::vector<std::vector<Edge>> init = shard_initial(in);
  const std::vector<std::vector<UpdateBatch>> batches = shard_batches(in, rounds);
  const DurabilityOptions opts = durability_options(p);

  struct ShardState {
    std::unique_ptr<Backend> backend;
    SpannerSnapshot::Ptr snap;
    std::shared_ptr<MemFs> fs = std::make_shared<MemFs>();
    std::unique_ptr<ShardDurability> dur;
    uint64_t rebuilds0 = 0;
  };
  std::vector<ShardState> shards(p.shards);
  for (uint32_t s = 0; s < p.shards; ++s) {
    ShardState& st = shards[s];
    st.backend = make_backend(p, init[s], s);
    st.rebuilds0 = st.backend->rebuilds();
    st.snap = SpannerSnapshot::initial(p.n, st.backend->spanner_edges(),
                                       st.backend->stretch());
    st.dur = ShardDurability::create(st.fs, "wal", opts, p.n,
                                     st.backend->stretch(), 0,
                                     st.snap->edge_keys(), st.snap->checksum(),
                                     canonical_edge_keys(p.n, init[s]));
    check(st.dur != nullptr, "durability created");
    if (st.dur == nullptr) return lo;
  }
  auto chan = std::make_shared<ChannelTransport>();
  FollowerReplica follower(std::make_shared<MemFs>(), "follower", opts, chan);
  LogShipper shipper(shards[0].fs, "wal", /*epoch=*/1, chan);
  check(catch_up(shipper, follower, 0, nullptr, -1), "follower seeded");
  const uint64_t seed_resyncs = follower.snapshot_resyncs();

  uint64_t diff_keys = 0, applied = 0, wal_bytes = 0, records = 0;
  uint64_t shard0_records = 0;
  for (size_t r = 0; r < rounds; ++r) {
    const int64_t id = int64_t(r);
    double slowest = 0;
    for (uint32_t s = 0; s < p.shards; ++s) {
      const UpdateBatch& b = batches[s][r];
      if (b.insertions.empty() && b.deletions.empty()) continue;
      ShardState& st = shards[s];
      const int32_t root = tr.begin("batch", id);
      SpannerDiff diff;
      {
        Scoped sp(&tr, "core.update", id, root);
        diff = st.backend->update(b.insertions, b.deletions);
      }
      SpannerSnapshot::Ptr next;
      {
        Scoped sp(&tr, "service.publish", id, root);
        next = SpannerSnapshot::apply(*st.snap, diff);
      }
      // The publish again, stage by stage, on the same inputs.
      const std::vector<EdgeKey> add = diff_side_keys(diff.inserted);
      const std::vector<EdgeKey> rem = diff_side_keys(diff.removed);
      std::vector<EdgeKey> merged;
      {
        Scoped sp(&tr, "service.merge", id, root);
        merged = apply_sorted_diff(st.snap->edge_keys(), add, rem);
      }
      {
        Scoped sp(&tr, "service.csr", id, root);
        CsrGraph csr = csr_build_from_keys(p.n, merged);
        check(csr.num_arcs() == 2 * merged.size(), "csr arc count");
      }
      uint64_t checksum = 0;
      {
        Scoped sp(&tr, "service.checksum", id, root);
        checksum = snapshot_content_checksum(p.n, next->stretch(),
                                             next->version(), merged);
      }
      check(checksum == next->checksum(), "stage split reproduces the publish");

      WalRecord rec;
      rec.type = WalRecord::kBatch;
      rec.version = next->version();
      rec.checksum = next->checksum();
      rec.input_deleted = sorted_keys(b.deletions);
      rec.input_inserted = sorted_keys(b.insertions);
      rec.diff_removed = rem;
      rec.diff_inserted = add;
      wal_bytes += encode_wal_record(rec).size() + kFrameHeaderSize;
      {
        Scoped sp(&tr, "durability.log", id, root);
        check(st.dur->log_record(rec), "wal record logged");
      }
      const bool fires = st.dur->records_logged() % p.lag == 0;
      {
        Scoped sp(&tr, fires ? "durability.checkpoint" : "durability.no_checkpoint",
                  id, root);
        st.dur->maybe_checkpoint(next->version(), next->checksum(),
                                 next->edge_keys());
      }
      tr.end(root);
      double stages = 0;
      for (int32_t i = root + 1; i < int32_t(tr.spans().size()); ++i) {
        const Span& sp = tr.spans()[size_t(i)];
        if (is_stage(sp.name)) stages += double(sp.end_ns - sp.start_ns) / 1e6;
      }
      slowest = std::max(slowest, stages);
      diff_keys += add.size() + rem.size();
      ++applied;
      ++records;
      st.snap = next;
      if (s == 0 && ++shard0_records % p.lag == 0) {
        check(catch_up(shipper, follower, st.snap->version(), &tr, id),
              "follower caught up");
        check(follower.applied_checksum() == st.snap->checksum(),
              "follower checksum equals the re-driven checksum");
      }
    }
    lo.stage_ms[id] = slowest;
  }

  auto& m = lo.metrics;
  uint64_t rebuilds = 0, spanner_edges = 0;
  for (const ShardState& st : shards) {
    rebuilds += st.backend->rebuilds() - st.rebuilds0;
    spanner_edges += st.snap->num_edges();
  }
  m["core.diff_keys_per_batch"] = applied ? double(diff_keys) / double(applied) : 0;
  m["core.rebuilds"] = double(rebuilds);
  m["core.spanner_edges"] = double(spanner_edges);
  m["durability.wal_bytes_per_record"] =
      records ? double(wal_bytes) / double(records) : 0;
  m["replication.rejects"] = double(follower.rejects());
  m["replication.resyncs"] = double(follower.snapshot_resyncs() - seed_resyncs);

  // In-process reads: blocks of has_edge queries on one pinned snapshot.
  {
    const SpannerSnapshot& snap = *shards[0].snap;
    Rng rng(in.seed + 77);
    constexpr size_t kBlock = 4096, kBlocks = 64;
    std::vector<std::pair<VertexId, VertexId>> qs(kBlock);
    for (auto& q : qs)
      q = {VertexId(rng.next_below(p.n)), VertexId(rng.next_below(p.n))};
    std::vector<double> ns;
    volatile size_t hits = 0;
    for (size_t b = 0; b < kBlocks; ++b) {
      const int64_t t0 = now_ns();
      size_t h = 0;
      for (const auto& [u, v] : qs) h += snap.has_edge(u, v);
      ns.push_back(double(now_ns() - t0) / double(kBlock));
      hits = hits + h;
    }
    m["service.read_block_ns_per_query"] = median(ns);
  }

  // Replay shard 0's log and rebuild its backend from the recovered graph,
  // three times (the live ShardDurability is released first: recovery owns
  // the chain).
  const uint64_t want_version = shards[0].snap->version();
  const uint64_t want_checksum = shards[0].snap->checksum();
  shards[0].dur.reset();
  for (int rep = 0; rep < 3; ++rep) {
    std::optional<ShardDurability::Recovered> rec;
    {
      Scoped sp(&tr, "durability.replay", rep);
      rec = ShardDurability::recover(shards[0].fs, "wal", opts);
    }
    check(rec && rec->version == want_version && rec->checksum == want_checksum,
          "replayed checksum equals the logged checksum");
    if (!rec) break;
    std::vector<Edge> graph(rec->graph_keys.size());
    for (size_t i = 0; i < graph.size(); ++i)
      graph[i] = edge_from_key(rec->graph_keys[i]);
    std::unique_ptr<Backend> rebuilt;
    {
      Scoped sp(&tr, "core.rebuild", rep);
      rebuilt = make_backend(p, graph, 0);
    }
  }
  return lo;
}

}  // namespace perfbench
