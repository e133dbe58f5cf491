#include "service/sharded_service.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <future>
#include <utility>

#include "container/flat_map.hpp"
#include "parallel/parallel_for.hpp"
#include "util/rng.hpp"

namespace parspan {

// --- ShardedView ------------------------------------------------------------

VersionVector ShardedView::versions() const {
  VersionVector vv;
  vv.v.reserve(snaps_.size());
  for (const auto& s : snaps_) vv.v.push_back(s->version());
  return vv;
}

size_t ShardedView::num_edges() const {
  size_t total = 0;
  for (const auto& s : snaps_) total += s->num_edges();
  return total;
}

void ShardedView::require_single_graph() const {
  if (router_->single_graph()) return;
  // Not an assert: composing per-tenant snapshots would answer queries
  // with other tenants' edges, so this must die in Release builds too.
  std::fprintf(stderr,
               "ShardedView: composed reads (has_edge/neighbors/distance) "
               "require single-graph routing; use graph(g) per tenant\n");
  std::abort();
}

void ShardedView::require_in_range(size_t s) const {
  if (s < snaps_.size()) return;
  std::fprintf(stderr,
               "ShardedView: shard/tenant id %zu out of range (%zu shards)\n",
               s, snaps_.size());
  std::abort();
}

bool ShardedView::has_edge(VertexId u, VertexId v) const {
  require_single_graph();
  if (u >= n_ || v >= n_ || u == v) return false;
  return snaps_[router_->shard_of(0, edge_key(u, v))]->has_edge(u, v);
}

std::vector<VertexId> ShardedView::neighbors(VertexId v) const {
  require_single_graph();
  std::vector<VertexId> out;
  if (v >= n_) return out;
  // Shard neighbor lists are ascending and pairwise disjoint (each edge has
  // exactly one owner); a repeated two-list merge keeps the union ascending.
  for (const auto& s : snaps_) {
    auto nb = s->neighbors(v);
    if (nb.empty()) continue;
    if (out.empty()) {
      out.assign(nb.begin(), nb.end());
    } else {
      std::vector<VertexId> merged;
      merged.reserve(out.size() + nb.size());
      std::merge(out.begin(), out.end(), nb.begin(), nb.end(),
                 std::back_inserter(merged));
      out.swap(merged);
    }
  }
  return out;
}

uint32_t ShardedView::distance(VertexId u, VertexId v, uint32_t limit) const {
  require_single_graph();
  if (u >= n_ || v >= n_) return kSnapshotUnreached;
  if (u == v) return 0;
  // Ball-proportional BFS like SpannerSnapshot::distance, except each
  // frontier vertex expands through EVERY shard's adjacency — that union is
  // the composed spanner, so cut edges are stitched at each hop.
  FlatHashSet<VertexId> visited;
  std::vector<VertexId> frontier{u}, next;
  visited.insert(u);
  for (uint32_t d = 1; d <= limit; ++d) {
    next.clear();
    for (VertexId x : frontier) {
      for (const auto& s : snaps_) {
        for (VertexId y : s->neighbors(x)) {
          if (!visited.insert(y)) continue;
          if (y == v) return d;
          next.push_back(y);
        }
      }
    }
    if (next.empty()) break;
    frontier.swap(next);
  }
  return kSnapshotUnreached;
}

std::vector<Edge> ShardedView::edges() const {
  // K-way merge of the shards' ascending (disjoint) key lists.
  std::vector<EdgeKey> keys;
  keys.reserve(num_edges());
  for (const auto& s : snaps_) {
    auto sk = s->edge_keys();
    keys.insert(keys.end(), sk.begin(), sk.end());
  }
  std::sort(keys.begin(), keys.end());
  return edges_from_keys(keys);
}

// --- ShardedSpannerService --------------------------------------------------

namespace {

std::unique_ptr<SpannerService> make_shard_service(const ShardSpec& spec) {
  if (spec.kind == ShardSpec::Kind::kUltraSparse) {
    auto ultra =
        std::make_unique<UltraSparseSpanner>(spec.n, spec.initial, spec.ultra);
    const uint32_t stretch = ultra->stretch_bound();
    return std::make_unique<SpannerService>(std::move(ultra), stretch);
  }
  return std::make_unique<SpannerService>(
      std::make_unique<FullyDynamicSpanner>(spec.n, spec.initial, spec.fd),
      2 * spec.fd.k - 1);
}

std::string shard_dir(const std::string& root, size_t s) {
  return root + "/shard-" + std::to_string(s);
}

// Shards share no mutable state (DESIGN.md §9), so each shard's build —
// backend, initial snapshot, WAL genesis — is one iteration of a
// fork-join into index-addressed slots. At one worker the loop runs in
// shard order; a single shard takes parallel_for's inline n == 1 path.
std::vector<std::unique_ptr<SpannerService>> build_shard_services(
    const std::vector<ShardSpec>& specs, const ShardedConfig& cfg) {
  std::vector<std::unique_ptr<SpannerService>> services(specs.size());
  parallel_for(
      0, specs.size(),
      [&](size_t s) {
        services[s] = make_shard_service(specs[s]);
        // A failed enable leaves the shard serving without the durability
        // claim (durability()->failed() observable), mirroring the sticky
        // runtime failure mode — construction does not throw on bad disks.
        if (cfg.durability.enabled)
          services[s]->enable_durability(
              cfg.durability.fs, shard_dir(cfg.durability.dir, s),
              cfg.durability.opts, specs[s].initial);
      },
      /*grain=*/1);
  return services;
}

size_t max_spec_n(const std::vector<ShardSpec>& specs) {
  size_t n = 0;
  for (const ShardSpec& spec : specs) n = std::max(n, spec.n);
  return n;
}

// The barrier callbacks running on this thread, innermost last: the
// service and the turn each runs under (one fired at once: its issuer's).
thread_local std::vector<std::pair<const ShardedSpannerService*, uint64_t>>
    t_in_callback;

}  // namespace

ShardedSpannerService::ShardedSpannerService(
    std::vector<std::unique_ptr<SpannerService>> services,
    std::shared_ptr<const ShardRouter> router, ShardedConfig cfg, size_t n)
    : cfg_(std::move(cfg)), router_(std::move(router)), n_(n) {
  assert(router_ != nullptr);
  assert(services.size() == router_->num_shards() &&
         "one shard service per router shard");
  assert(!services.empty());
  paused_.store(cfg_.start_paused, std::memory_order_relaxed);
  shards_.reserve(services.size());
  for (auto& svc : services)
    shards_.push_back(std::make_unique<Shard>(std::move(svc),
                                              cfg_.queue_capacity,
                                              cfg_.start_paused));
  pool_ = std::make_unique<WorkerPool>(
      cfg_.num_writers, shards_.size(),
      [this](size_t s) { drain_shard(s); },
      [this](size_t s) { return shards_[s]->queue.drainable(); });
}

ShardedSpannerService::ShardedSpannerService(std::vector<ShardSpec> specs,
                                             std::unique_ptr<ShardRouter> router,
                                             ShardedConfig cfg)
    : ShardedSpannerService(
          build_shard_services(specs, cfg),
          std::shared_ptr<const ShardRouter>(std::move(router)), cfg,
          max_spec_n(specs)) {}

std::unique_ptr<ShardedSpannerService> ShardedSpannerService::recover(
    std::vector<ShardSpec> specs, std::unique_ptr<ShardRouter> router,
    ShardedConfig cfg, std::vector<SpannerService::RecoveryReport>* reports) {
  assert(cfg.durability.enabled && cfg.durability.fs != nullptr &&
         "recover: needs the crashed service's durability fs/dir");
  // Every shard recovers in its own fork-join slot (verified fold, rebase
  // rebuild, forced checkpoint). The all-or-nothing verdict comes after
  // the join: by then every shard has attempted its rebase, even when
  // another shard fails (DESIGN.md §10.4).
  std::vector<std::unique_ptr<SpannerService>> services(specs.size());
  std::vector<SpannerService::RecoveryReport> reps(specs.size());
  parallel_for(
      0, specs.size(),
      [&](size_t s) {
        const ShardSpec& spec = specs[s];
        auto recover_with = [&](auto make_backend) {
          services[s] = SpannerService::recover(
              cfg.durability.fs, shard_dir(cfg.durability.dir, s),
              cfg.durability.opts, make_backend, &reps[s]);
        };
        if (spec.kind == ShardSpec::Kind::kUltraSparse)
          recover_with([&spec](uint64_t n, const std::vector<Edge>& edges,
                               uint32_t) {
            return std::make_unique<UltraSparseSpanner>(size_t(n), edges,
                                                        spec.ultra);
          });
        else
          recover_with([&spec](uint64_t n, const std::vector<Edge>& edges,
                               uint32_t) {
            return std::make_unique<FullyDynamicSpanner>(size_t(n), edges,
                                                         spec.fd);
          });
      },
      /*grain=*/1);
  if (reports != nullptr) *reports = std::move(reps);
  for (const auto& svc : services)
    if (svc == nullptr) return nullptr;  // all-or-nothing across shards
  return std::unique_ptr<ShardedSpannerService>(new ShardedSpannerService(
      std::move(services),
      std::shared_ptr<const ShardRouter>(std::move(router)), std::move(cfg),
      max_spec_n(specs)));
}

std::unique_ptr<ShardedSpannerService> ShardedSpannerService::single_graph(
    size_t n, const std::vector<Edge>& initial, uint32_t num_shards,
    const FullyDynamicSpannerConfig& cfg, ShardedConfig scfg) {
  if (num_shards == 0) num_shards = 1;
  auto router = std::make_unique<VertexRangeRouter>(n, num_shards);
  std::vector<ShardSpec> specs(num_shards);
  for (uint32_t s = 0; s < num_shards; ++s) {
    specs[s].kind = ShardSpec::Kind::kFullyDynamic;
    specs[s].n = n;  // full vertex-id space; only the owned edges live here
    specs[s].fd = cfg;
    // Independent per-shard seed stream: shard coins must not correlate,
    // and must not depend on the shard count of OTHER shards' streams.
    specs[s].fd.seed = hash_combine(cfg.seed, s);
  }
  for (const Edge& e : initial)
    specs[router->shard_of(0, e.key())].initial.push_back(e);
  return std::make_unique<ShardedSpannerService>(
      std::move(specs), std::move(router), scfg);
}

ShardedSpannerService::~ShardedSpannerService() { pool_->stop(); }

void ShardedSpannerService::submit(uint32_t graph_id,
                                   const std::vector<Edge>& insertions,
                                   const std::vector<Edge>& deletions) {
  RoutedBatch rb = route_batch(graph_id, insertions, deletions);
  while (!rb.done()) admit_shard(rb, 0, std::nullopt);
}

ShardedSpannerService::RoutedBatch ShardedSpannerService::route_batch(
    uint32_t graph_id, const std::vector<Edge>& insertions,
    const std::vector<Edge>& deletions) {
  const size_t S = shards_.size();
  RoutedBatch rb;
  rb.ins_by_.resize(S);
  rb.del_by_.resize(S);
  size_t rejected = 0;
  for (const Edge& e : insertions) {
    uint32_t s = router_->shard_of(graph_id, e.key());
    if (s < S)
      rb.ins_by_[s].push_back(e);
    else
      ++rejected;
  }
  for (const Edge& e : deletions) {
    uint32_t s = router_->shard_of(graph_id, e.key());
    if (s < S)
      rb.del_by_[s].push_back(e);
    else
      ++rejected;
  }
  if (rejected) edges_rejected_.fetch_add(rejected, std::memory_order_relaxed);
  for (uint32_t s = 0; s < S; ++s)
    if (!rb.ins_by_[s].empty() || !rb.del_by_[s].empty())
      rb.pending_.push_back(s);
  return rb;
}

bool ShardedSpannerService::admit_shard(
    RoutedBatch& batch, size_t idx,
    std::optional<std::chrono::nanoseconds> timeout) {
  const uint32_t s = batch.pending_[idx];
  if (!shards_[s]->queue.submit_for(batch.ins_by_[s], batch.del_by_[s],
                                    timeout))
    return false;
  edges_ingested_.fetch_add(batch.ins_by_[s].size() + batch.del_by_[s].size(),
                            std::memory_order_relaxed);
  // paused_ is re-read AFTER the enqueue: if resume() ran concurrently and
  // its queue scan missed this batch (scan before our insert, both under
  // the queue mutex), that same mutex ordering guarantees we observe its
  // paused_=false store here and issue the notify ourselves — the batch
  // can never be stranded between a submit and a resume.
  if (!paused_.load(std::memory_order_relaxed)) pool_->notify(s);
  batch.pending_.erase(batch.pending_.begin() + ptrdiff_t(idx));
  return true;
}

ShardedSpannerService::SubmitStatus ShardedSpannerService::try_admit(
    RoutedBatch& batch) {
  for (size_t i = 0; i < batch.pending_.size();)
    if (!admit_shard(batch, i, std::chrono::nanoseconds::zero())) ++i;
  return batch.pending_.empty() ? SubmitStatus::kOk : SubmitStatus::kTimeout;
}

void ShardedSpannerService::drop_pending(RoutedBatch& batch) {
  for (uint32_t s : batch.pending_)
    edges_timed_out_.fetch_add(
        batch.ins_by_[s].size() + batch.del_by_[s].size(),
        std::memory_order_relaxed);
  batch.pending_.clear();
}

ShardedSpannerService::SubmitStatus ShardedSpannerService::submit_for(
    uint32_t graph_id, const std::vector<Edge>& insertions,
    const std::vector<Edge>& deletions, std::chrono::nanoseconds timeout) {
  RoutedBatch rb = route_batch(graph_id, insertions, deletions);
  // ONE deadline shared by every owning shard: `timeout` bounds the whole
  // call, so each shard gets only the budget its predecessors left. (The
  // old per-shard grant let a cross-shard batch block up to S x timeout —
  // Sharded.SubmitForSharesOneDeadlineAcrossShards regression-tests the
  // fix.) A shard reached past the deadline still gets a zero-timeout
  // admission try: a non-full queue admits instantly either way.
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (size_t i = 0; i < rb.pending_.size();) {
    const auto remaining = std::max(
        std::chrono::nanoseconds::zero(),
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            deadline - std::chrono::steady_clock::now()));
    if (!admit_shard(rb, i, remaining)) ++i;
  }
  if (rb.done()) return SubmitStatus::kOk;
  drop_pending(rb);
  return SubmitStatus::kTimeout;
}

void ShardedSpannerService::drain_shard(size_t s) {
  Shard& sh = *shards_[s];
  BatchQueue::Drained d = sh.queue.drain();
  if (d.ticket == 0) return;  // paused, or nothing left
  if (!d.empty()) {
    // The backend batch: deletions first, then insertions — exactly the
    // coalesced set semantics the queue drained (DESIGN.md §9.2).
    SpannerService::ApplyResult r = sh.service->publish(d.insertions,
                                                        d.deletions);
    if (cfg_.record_publishes) {
      std::lock_guard<std::mutex> lk(sh.log_mu);
      sh.log.push_back(PublishRecord{r.snapshot->version(),
                                     r.snapshot->checksum(),
                                     std::move(r.diff)});
    }
  }
  // Fire every flush_async barrier this publish completed. Callbacks are
  // collected under the lock but invoked outside it: a callback may call
  // back into the service (versions(), view(), even another flush_async).
  std::vector<Callback> at_once;
  {
    std::lock_guard<std::mutex> lk(barrier_mu_);
    if (d.ticket > sh.published_ticket) sh.published_ticket = d.ticket;
    for (size_t i = 0; i < flush_waiters_.size();) {
      bool done = true;
      for (size_t t = 0; t < shards_.size(); ++t)
        if (shards_[t]->published_ticket < flush_waiters_[i].targets[t]) {
          done = false;
          break;
        }
      if (done) {
        satisfied_locked(flush_waiters_[i], at_once);
        flush_waiters_.erase(flush_waiters_.begin() + i);  // FIFO fairness
      } else {
        ++i;
      }
    }
  }
  fire(at_once);
  // Only now the checkpoint this batch made due: it is off the visible
  // path, yet still in this drain task — the pool runs it before the
  // shard's next drain, and the destructor's pool stop waits for it
  // (DESIGN.md §9.3, §10.2).
  sh.service->checkpoint_if_due();
}

void ShardedSpannerService::flush_async(
    std::function<void(VersionVector)> done) {
  const size_t S = shards_.size();
  std::vector<uint64_t> targets(S);
  for (size_t s = 0; s < S; ++s) targets[s] = shards_[s]->queue.last_ticket();
  // Raise the flush demand first: it is what authorizes drains on paused
  // queues (BatchQueue::drain's gate) before the notifies land.
  for (size_t s = 0; s < S; ++s) shards_[s]->queue.demand(targets[s]);
  auto in = std::find_if(t_in_callback.rbegin(), t_in_callback.rend(),
                         [this](const auto& e) { return e.first == this; });
  const uint64_t within = in == t_in_callback.rend() ? kNoTurn : in->second;
  std::vector<size_t> needs;
  std::vector<Callback> at_once;
  {
    std::lock_guard<std::mutex> lk(barrier_mu_);
    for (size_t s = 0; s < S; ++s)
      if (shards_[s]->published_ticket < targets[s]) needs.push_back(s);
    FlushWaiter w{std::move(targets), std::move(done), within};
    if (needs.empty())
      satisfied_locked(w, at_once);
    else
      flush_waiters_.push_back(std::move(w));
  }
  if (needs.empty()) {
    fire(at_once);
    return;
  }
  // Wake only shards whose queue still holds batches. A drained queue means
  // the target ticket is in a running drain, which publishes and fires this
  // waiter under barrier_mu_; notifying it would only schedule an empty
  // drain. Paused queues with demand are drainable, so they are notified.
  for (size_t s : needs)
    if (shards_[s]->queue.drainable()) pool_->notify(s);
}

void ShardedSpannerService::satisfied_locked(FlushWaiter& w,
                                             std::vector<Callback>& at_once) {
  if (w.within != kNoTurn && w.within == running_turn_)
    at_once.push_back({w.within, std::move(w.done)});
  else
    ready_.push_back({next_turn_++, std::move(w.done)});
}

void ShardedSpannerService::fire(std::vector<Callback>& at_once) {
  std::exception_ptr thrown;  // the first; later callbacks still run
  auto run = [&](Callback& c) {
    t_in_callback.emplace_back(this, c.turn);
    try {
      c.done(versions());
    } catch (...) {
      if (!thrown) thrown = std::current_exception();
    }
    t_in_callback.pop_back();
  };
  // First the barriers whose issuing callback still runs: it may be
  // waiting for them, and every queued callback waits for it.
  for (Callback& c : at_once) run(c);
  // Then the queue in turn order, unless another thread is running it:
  // that thread takes what was queued here before it lets go. So no thread
  // waits for another's callback.
  for (bool mine = false;; mine = true) {
    Callback c;
    {
      std::lock_guard<std::mutex> lk(barrier_mu_);
      if (mine) running_turn_ = kNoTurn;
      if (running_turn_ != kNoTurn || ready_.empty()) break;
      c = std::move(ready_.front());
      ready_.pop_front();
      running_turn_ = c.turn;
    }
    run(c);
  }
  if (thrown) std::rethrow_exception(thrown);
}

VersionVector ShardedSpannerService::flush() {
  // The synchronous barrier is the async one plus a wait.
  std::promise<VersionVector> published;
  std::future<VersionVector> result = published.get_future();
  flush_async(
      [&published](VersionVector vv) { published.set_value(std::move(vv)); });
  return result.get();
}

VersionVector ShardedSpannerService::versions() const {
  VersionVector vv;
  vv.v.reserve(shards_.size());
  for (const auto& sh : shards_) vv.v.push_back(sh->service->version());
  return vv;
}

bool ShardedSpannerService::durability_failed() const {
  if (!cfg_.durability.enabled) return false;
  for (const auto& sh : shards_) {
    const ShardDurability* dur = sh->service->durability();
    if (dur == nullptr || dur->failed()) return true;
  }
  return false;
}

ShardedView ShardedSpannerService::view() const {
  std::vector<SpannerSnapshot::Ptr> snaps;
  snaps.reserve(shards_.size());
  for (const auto& sh : shards_) snaps.push_back(sh->service->snapshot());
  return ShardedView(router_, n_, std::move(snaps));
}

std::optional<ShardedView> ShardedSpannerService::try_view_at_least(
    const VersionVector& vv) const {
  if (vv.v.size() != shards_.size()) return std::nullopt;
  std::vector<SpannerSnapshot::Ptr> snaps;
  snaps.reserve(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    SpannerSnapshot::Ptr snap = shards_[s]->service->snapshot();
    if (snap->version() < vv.v[s]) return std::nullopt;
    snaps.push_back(std::move(snap));
  }
  return ShardedView(router_, n_, std::move(snaps));
}

void ShardedSpannerService::pause() {
  // The service-level flag only gates notify fast paths; the authoritative
  // gate is each queue's own (under the queue mutex, atomic with submits),
  // so a drain already notified or in flight cannot take batches submitted
  // after pause() returns — the §9.4 round boundary is exact.
  paused_.store(true, std::memory_order_relaxed);
  for (auto& sh : shards_) sh->queue.set_paused(true);
}

void ShardedSpannerService::resume() {
  for (auto& sh : shards_) sh->queue.set_paused(false);
  paused_.store(false, std::memory_order_relaxed);
  for (size_t s = 0; s < shards_.size(); ++s)
    if (!shards_[s]->queue.empty()) pool_->notify(s);
}

std::vector<PublishRecord> ShardedSpannerService::publish_log(size_t s) const {
  std::lock_guard<std::mutex> lk(shards_[s]->log_mu);
  return shards_[s]->log;
}

}  // namespace parspan
