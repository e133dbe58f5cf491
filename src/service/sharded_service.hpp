// ShardedSpannerService: sharded multi-graph serving with asynchronous
// batch ingestion (DESIGN.md §9).
//
// SpannerService (§8) hosts exactly one graph with one *synchronous*
// writer: callers block on apply() for the whole batch-update + publish.
// This layer multiplies that by N: it hosts N independent shards — each a
// full SpannerService over its own backend (fully-dynamic or ultra-sparse,
// chosen per shard at creation) — and replaces the synchronous writer with
// an asynchronous ingestion path:
//
//   submit() ── ShardRouter ──> per-shard BatchQueue (bounded, coalescing)
//                                        │ drained by
//                               WorkerPool drain tasks on the process-wide
//                               work-stealing Scheduler (DESIGN.md §12)
//                                        │ backend update + publish
//                               per-shard SnapshotStore versions
//
// Batch-dynamic throughput comes from routing independent work onto
// independent structures (cf. the batch-dynamic forests/connectivity
// literature): distinct shards never share mutable state, so up to
// num_writers shards drain genuinely in parallel, each reusing the §8
// single-writer snapshot protocol unchanged (WorkerPool's slot exclusivity
// IS the per-shard single-writer guarantee). Each drain is a scheduler
// task whose affinity hint is the shard index — a shard keeps draining on
// its home worker (warm caches) until imbalance makes another worker steal
// it — and a backend update that calls parallel_for forks into the SAME
// scheduler, so rebuild parallelism and drain parallelism share one set of
// threads instead of oversubscribing each other.
//
// Two routing modes (pluggable via ShardRouter):
//  * multi-tenant (GraphIdRouter, the multi-graph default): shard g hosts
//    tenant graph g, whole batches route by graph id, queries go straight
//    to one shard's snapshot — tenants are perfectly isolated.
//  * single-graph (VertexRangeRouter): one logical graph partitioned by
//    vertex range; every edge is owned by the shard of its LOWER endpoint,
//    so cut edges have exactly one owner and the shard edge sets partition
//    the graph. The union of per-shard spanners is a spanner of the whole
//    graph (spanners are decomposable — paper Observation 3.7, the same
//    fact the Bentley-Saxe partition stands on), and cross-shard reads
//    compose pinned per-shard snapshots: has_edge asks the owner,
//    neighbors/BFS stitch cut edges by consulting every shard's view of
//    the vertex (ShardedView).
//
// Consistency: readers pin a ShardedView — one immutable snapshot per
// shard. Views are per-shard consistent (each shard's snapshot is exactly
// some published version) but only loosely synchronized across shards:
// ingestion is async, so shard A may be versions ahead of shard B inside
// one view. The flush() barrier closes the gap on demand: it returns only
// after every submit that preceded it is drained, applied, and published,
// and hands back the resulting VersionVector — any view acquired afterwards
// dominates it (read-your-writes across all shards). Callers that need a
// snapshot-aligned round structure (bulk loads, determinism replays) use
// pause()/resume(): while paused, submits coalesce in the queues and only
// flush() drains them, making drain boundaries — and therefore every diff
// and checksum — independent of writer count and timing (DESIGN.md §9.4).
#pragma once

#include <atomic>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "core/fully_dynamic_spanner.hpp"
#include "core/ultra.hpp"
#include "parallel/worker_pool.hpp"
#include "service/batch_queue.hpp"
#include "service/spanner_service.hpp"
#include "util/types.hpp"

namespace parspan {

/// One snapshot version per shard, in shard order — the unit of the
/// cross-shard read-your-writes barrier: flush() returns the vector it
/// published, and a view `dominates()` it iff the view reflects at least
/// those versions on every shard.
struct VersionVector {
  std::vector<uint64_t> v;

  /// Pointwise >= (false when shard counts differ).
  bool dominates(const VersionVector& o) const {
    if (v.size() != o.v.size()) return false;
    for (size_t i = 0; i < v.size(); ++i)
      if (v[i] < o.v[i]) return false;
    return true;
  }
  friend bool operator==(const VersionVector&, const VersionVector&) = default;
};

/// Maps updates and queries to their owning shard. Implementations must be
/// pure functions of their constructor arguments (routing is part of the
/// determinism contract: the same submit stream must shard identically in
/// every run) and safe to call from any thread.
class ShardRouter {
 public:
  virtual ~ShardRouter() = default;
  virtual uint32_t num_shards() const = 0;
  /// Owning shard of one edge. `graph_id` is the tenant graph (single-graph
  /// routers ignore it; graph-id routers ignore the key).
  virtual uint32_t shard_of(uint32_t graph_id, EdgeKey e) const = 0;
  /// Owning shard of a vertex (single-graph routers only; used by query
  /// dispatch and the cut-edge stitching of ShardedView).
  virtual uint32_t shard_of_vertex(VertexId v) const = 0;
  /// True when all shards partition ONE logical graph (cross-shard reads
  /// compose); false when each shard is an independent tenant graph.
  virtual bool single_graph() const = 0;
};

/// Multi-tenant default: shard g hosts tenant graph g, one-to-one. An
/// unknown tenant id routes out of range on purpose — the service rejects
/// those updates observably (edges_rejected()) instead of trusting
/// caller-supplied ids.
class GraphIdRouter final : public ShardRouter {
 public:
  explicit GraphIdRouter(uint32_t num_shards) : num_shards_(num_shards) {}
  uint32_t num_shards() const override { return num_shards_; }
  uint32_t shard_of(uint32_t graph_id, EdgeKey) const override {
    return graph_id;
  }
  uint32_t shard_of_vertex(VertexId) const override {
    assert(false && "GraphIdRouter: vertex routing needs a tenant graph id");
    return 0;
  }
  bool single_graph() const override { return false; }

 private:
  uint32_t num_shards_;
};

/// Single-graph default: contiguous vertex ranges of ~n/num_shards; an edge
/// is owned by the shard of its lower endpoint (one owner per cut edge).
class VertexRangeRouter final : public ShardRouter {
 public:
  VertexRangeRouter(size_t n, uint32_t num_shards)
      : num_shards_(num_shards ? num_shards : 1),
        stride_((n + num_shards_ - 1) / num_shards_) {
    if (stride_ == 0) stride_ = 1;  // n < num_shards: low shards, rest empty
  }
  uint32_t num_shards() const override { return num_shards_; }
  uint32_t shard_of_vertex(VertexId v) const override {
    uint32_t s = static_cast<uint32_t>(v / stride_);
    return s < num_shards_ ? s : num_shards_ - 1;
  }
  uint32_t shard_of(uint32_t, EdgeKey e) const override {
    return shard_of_vertex(edge_endpoints(e).first);  // lower endpoint owns
  }
  bool single_graph() const override { return true; }

 private:
  uint32_t num_shards_;
  size_t stride_;
};

/// Per-shard backend selection at creation time.
struct ShardSpec {
  enum class Kind { kFullyDynamic, kUltraSparse };
  Kind kind = Kind::kFullyDynamic;
  size_t n = 0;
  std::vector<Edge> initial;
  FullyDynamicSpannerConfig fd;  // used when kind == kFullyDynamic
  UltraConfig ultra;             // used when kind == kUltraSparse
};

/// Per-service durability wiring (DESIGN.md §10.6). Shard i logs into
/// `dir`/shard-<i>; all shards share one Fs and one policy.
struct ShardedDurabilityConfig {
  bool enabled = false;
  /// Filesystem to log through (PosixFs in production, MemFs in the
  /// fault-injection tests). Required when enabled.
  std::shared_ptr<Fs> fs;
  /// Root directory; created on demand.
  std::string dir;
  DurabilityOptions opts;
};

struct ShardedConfig {
  /// Drain concurrency cap: at most this many shards drain at once on the
  /// process-wide scheduler. Drains are work-conserving — any worker runs
  /// any ready shard's drain (per-shard exclusivity enforced by the pool).
  int num_writers = 1;
  /// Admission bound on distinct pending edge keys per shard queue: a
  /// submit is admitted only while the count is below it (so one admitted
  /// batch can overshoot by its own size), and blocks otherwise
  /// (backpressure).
  size_t queue_capacity = 1 << 16;
  /// Keep a per-shard log of every publish (version, checksum, diff) —
  /// the determinism tests' witness. Off in production: it retains every
  /// diff forever.
  bool record_publishes = false;
  /// Start with draining paused (bulk-load / deterministic-round mode).
  bool start_paused = false;
  /// Per-shard write-ahead logging + checkpoints (DESIGN.md §10).
  ShardedDurabilityConfig durability;
};

/// One published batch, as the determinism tests compare them.
struct PublishRecord {
  uint64_t version = 0;
  uint64_t checksum = 0;
  SpannerDiff diff;
};

/// A pinned, immutable cross-shard view: one snapshot per shard. Cheap to
/// copy (shared_ptr per shard); valid as long as held, across any number of
/// later publishes. The composed queries (has_edge / neighbors / distance)
/// require single-graph routing; multi-tenant callers address one tenant's
/// snapshot directly via graph().
class ShardedView {
 public:
  size_t num_shards() const { return snaps_.size(); }
  /// Shard/tenant ids are client data here just as on the write path
  /// (submit() drops out-of-range updates): an unknown id fails hard and
  /// defined instead of indexing out of bounds.
  const SpannerSnapshot& shard(size_t s) const {
    require_in_range(s);
    return *snaps_[s];
  }
  /// Tenant graph g's pinned snapshot (multi-tenant mode: shard g).
  const SpannerSnapshot& graph(uint32_t g) const { return shard(g); }

  VersionVector versions() const;

  /// Total spanner edges across shards (single-graph: the composed
  /// spanner's size — shard edge sets are disjoint by ownership).
  size_t num_edges() const;

  // --- Single-graph composed reads ----------------------------------------
  // These abort (Release builds included) when the view is multi-tenant:
  // merging per-tenant adjacency would silently leak data across tenants,
  // which is strictly worse than dying. Multi-tenant callers use graph().

  /// Dispatches to the owning shard: edges live only where routed.
  bool has_edge(VertexId u, VertexId v) const;

  /// Ascending union of v's neighbors across shards. v's own shard owns
  /// every edge where v is the lower endpoint, but v can be the HIGHER
  /// endpoint of cut edges owned elsewhere — the merge is what stitches
  /// shard boundaries back together.
  std::vector<VertexId> neighbors(VertexId v) const;

  /// Bounded-BFS hop distance over the composed spanner (cut edges
  /// stitched at every hop), or kSnapshotUnreached past `limit` — the
  /// cross-shard analogue of SpannerSnapshot::distance.
  uint32_t distance(VertexId u, VertexId v, uint32_t limit) const;

  /// The composed edge set, ascending by canonical key (verification).
  std::vector<Edge> edges() const;

 private:
  friend class ShardedSpannerService;
  ShardedView(std::shared_ptr<const ShardRouter> router, size_t n,
              std::vector<SpannerSnapshot::Ptr> snaps)
      : router_(std::move(router)), n_(n), snaps_(std::move(snaps)) {}

  void require_single_graph() const;   // aborts on multi-tenant views
  void require_in_range(size_t s) const;  // aborts on unknown shard ids

  // Shared with the service: the view is self-contained and stays fully
  // valid even past the service's destruction (matching "valid as long as
  // held" — routers are immutable after construction).
  std::shared_ptr<const ShardRouter> router_;
  size_t n_;  // max vertex-space size across shards
  std::vector<SpannerSnapshot::Ptr> snaps_;
};

class ShardedSpannerService {
 public:
  /// Builds one shard per spec (specs.size() must equal
  /// router->num_shards()), the shards concurrently under the loop
  /// parallelism, and starts the writer pool.
  ShardedSpannerService(std::vector<ShardSpec> specs,
                        std::unique_ptr<ShardRouter> router,
                        ShardedConfig cfg = {});

  /// Convenience factory for single-graph mode: vertex-range router,
  /// `initial` partitioned by edge ownership, one fully-dynamic backend per
  /// shard over the full vertex-id space with an independent per-shard seed
  /// stream derived from cfg.seed (deterministic in (n, initial, cfg,
  /// num_shards)).
  static std::unique_ptr<ShardedSpannerService> single_graph(
      size_t n, const std::vector<Edge>& initial, uint32_t num_shards,
      const FullyDynamicSpannerConfig& cfg, ShardedConfig scfg = {});

  /// Rebuilds a sharded service from its durability root after a crash:
  /// every shard recovers independently (checkpoint + WAL-tail replay +
  /// rebase epoch — SpannerService::recover), the shards concurrently
  /// under the loop parallelism, then the writer pool starts. `specs`
  /// must be the same shard layout the crashed service was built with
  /// (kind/n/configs; `initial` is ignored — the recovered graph shadow
  /// replaces it). cfg.durability must be enabled and point at the same
  /// fs/dir. nullptr when ANY shard lacks a valid checkpoint — a sharded
  /// recovery is all-or-nothing, partial shard states would break the
  /// single-graph composition. The verdict comes after every shard has
  /// tried, so the other shards may be left rebased on disk; they recover
  /// again (DESIGN.md §10.4). Per-shard reports land in `reports` (shard
  /// order; zeroed for the shards that failed) when non-null.
  static std::unique_ptr<ShardedSpannerService> recover(
      std::vector<ShardSpec> specs, std::unique_ptr<ShardRouter> router,
      ShardedConfig cfg,
      std::vector<SpannerService::RecoveryReport>* reports = nullptr);

  /// Stops the writer pool. Pending (unflushed) queue contents are
  /// dropped — callers that care flush() first.
  ~ShardedSpannerService();

  ShardedSpannerService(const ShardedSpannerService&) = delete;
  ShardedSpannerService& operator=(const ShardedSpannerService&) = delete;

  /// Asynchronously ingests one batch for `graph_id`: splits it by the
  /// router, coalesces into the owning shards' queues, and returns without
  /// waiting for any backend work (blocking only on a full queue's
  /// backpressure). Updates the router sends out of range (an unknown
  /// tenant id) are dropped and counted in edges_rejected() — client ids
  /// are data, not invariants. Any thread; concurrent submitters are safe,
  /// but determinism of drained batch *contents* is per submit order, so
  /// determinism-sensitive streams use one submitter (DESIGN.md §9.4).
  void submit(uint32_t graph_id, const std::vector<Edge>& insertions,
              const std::vector<Edge>& deletions);

  /// Single-graph convenience (tenant 0).
  void submit(const std::vector<Edge>& insertions,
              const std::vector<Edge>& deletions) {
    submit(0, insertions, deletions);
  }

  enum class SubmitStatus {
    kOk,       // every routed sub-batch admitted
    kTimeout,  // >= 1 shard queue stayed full past the deadline
  };

  /// submit() with a deadline: each owning shard's sub-batch waits at most
  /// `timeout` for queue admission instead of blocking indefinitely —
  /// observable backpressure for callers that must shed load rather than
  /// stall (DESIGN.md §9.5). Admission is per shard: on kTimeout the
  /// sub-batches of responsive shards WERE admitted (each sub-batch itself
  /// is all-or-nothing), only the timed-out shards' edges were dropped —
  /// counted in edges_timed_out(). Multi-shard callers that need
  /// atomicity across shards must treat kTimeout as "retry the whole
  /// batch" (resubmitting is idempotent under the queue's set semantics).
  SubmitStatus submit_for(uint32_t graph_id,
                          const std::vector<Edge>& insertions,
                          const std::vector<Edge>& deletions,
                          std::chrono::nanoseconds timeout);

  /// Single-graph convenience (tenant 0).
  SubmitStatus submit_for(const std::vector<Edge>& insertions,
                          const std::vector<Edge>& deletions,
                          std::chrono::nanoseconds timeout) {
    return submit_for(0, insertions, deletions, timeout);
  }

  /// A batch routed once, admitted incrementally — the retry-safe shape of
  /// submit_for() for callers that poll instead of block (the net server's
  /// parked kSubmitFor, DESIGN.md §13.4). Each try_admit() attempts ONLY
  /// the shards that have not admitted yet, so a request retried across
  /// many ticks still counts every edge exactly once in edges_ingested() /
  /// edges_timed_out(). Opaque to holders; drive it with try_admit() and
  /// drop_pending().
  class RoutedBatch {
   public:
    RoutedBatch() = default;
    /// True once no shard remains pending (all admitted or dropped).
    bool done() const { return pending_.empty(); }

   private:
    friend class ShardedSpannerService;
    std::vector<std::vector<Edge>> ins_by_, del_by_;
    std::vector<uint32_t> pending_;  // shard indices not yet admitted
  };

  /// Splits one batch by the router, counting router-rejected updates in
  /// edges_rejected() exactly once. Admits nothing yet.
  RoutedBatch route_batch(uint32_t graph_id,
                          const std::vector<Edge>& insertions,
                          const std::vector<Edge>& deletions);

  /// One zero-timeout admission pass over the batch's still-pending
  /// shards. An admitted sub-batch is counted (edges_ingested) and its
  /// shard notified exactly once, then never resubmitted. kOk once the
  /// whole batch is in; kTimeout while any shard's queue stays full —
  /// call again later (never blocks).
  SubmitStatus try_admit(RoutedBatch& batch);

  /// Gives up on the still-pending shards: their edges count in
  /// edges_timed_out() (exactly once) and the batch becomes done().
  void drop_pending(RoutedBatch& batch);

  /// Read-your-writes barrier: returns once every submit that happened
  /// before this call is drained, applied, and published on its shard.
  /// The returned VersionVector is dominated by every later view().
  /// Safe from any thread (including while paused — flush drains the
  /// pending rounds itself); concurrent submits may ride along.
  /// Returns at the publish: a checkpoint the batch made due may still be
  /// running in that drain; the shard's next drain and the destructor
  /// wait for it (DESIGN.md §9.3).
  VersionVector flush();

  /// flush() without the wait: invokes `done` exactly once — when every
  /// submit that preceded this call is drained, applied, and published —
  /// passing a VersionVector every later view() dominates. `done` runs
  /// inline when the barrier is already satisfied, otherwise on whichever
  /// writer-pool drain completes it — at the publish, before that drain
  /// cuts any due checkpoint; it must not block (it would stall that
  /// shard's drain slot). This is the net front door's flush path: an
  /// event loop must never park a thread on the barrier (DESIGN.md §13.4).
  /// Callbacks still pending at destruction are dropped with the queues.
  void flush_async(std::function<void(VersionVector)> done);

  /// Currently served per-shard versions (no barrier).
  VersionVector versions() const;

  /// Pins one immutable snapshot per shard (shard order, no cross-shard
  /// barrier — see class comment; flush() first for read-your-writes).
  ShardedView view() const;

  /// Pin-by-VersionVector acquire: a view whose per-shard versions
  /// dominate `vv`, or nullopt when some shard has not yet published that
  /// far (or the shard counts differ). NEVER blocks — per-shard versions
  /// are monotone, so a vv handed back by flush()/flush_async() is
  /// immediately pinnable, and anything else is the caller's retry loop
  /// (protocol-level pushback, not a parked thread — DESIGN.md §13.3).
  std::optional<ShardedView> try_view_at_least(const VersionVector& vv) const;

  /// Suspends draining: submits keep coalescing in the queues (bounded by
  /// queue_capacity) until resume() or flush(). With draining paused,
  /// batch boundaries are defined by flush() barriers alone — the
  /// deterministic-round mode of DESIGN.md §9.4.
  ///
  /// CAUTION: while paused, nothing frees queue capacity, so a single
  /// producer that accumulates more than queue_capacity distinct pending
  /// keys on one shard before calling flush() blocks in submit() with no
  /// one left to unblock it. Keep paused rounds smaller than the capacity
  /// (or size the capacity to the bulk load).
  void pause();
  void resume();

  size_t num_shards() const { return shards_.size(); }
  const ShardRouter& router() const { return *router_; }
  /// Max shard vertex-space size — the bound composed views are built with.
  size_t vertex_space() const { return n_; }
  const SpannerService& shard_service(size_t s) const {
    return *shards_[s]->service;
  }

  /// True when durability was requested but ANY shard can no longer honor
  /// it: its driver went sticky-failed after an I/O error (DESIGN.md
  /// §10.5) or never initialized. The service keeps serving either way —
  /// this is the monitoring signal that says "what you lose on a crash is
  /// now growing"; operators alert on it. False when durability is off.
  bool durability_failed() const;

  /// Copy of shard s's publish log (requires cfg.record_publishes).
  std::vector<PublishRecord> publish_log(size_t s) const;

  /// Total edge updates ACCEPTED by submit() so far (pre-coalescing: keys
  /// the queues later cancel or dedup still count). This is the offered
  /// load the service absorbed — a deterministic function of the submit
  /// stream, which is why the throughput benchmarks rate against it; the
  /// per-batch work actually reaching backends can be smaller.
  uint64_t edges_ingested() const {
    return edges_ingested_.load(std::memory_order_relaxed);
  }

  /// Edge updates dropped because the router sent them out of range
  /// (unknown tenant graph id).
  uint64_t edges_rejected() const {
    return edges_rejected_.load(std::memory_order_relaxed);
  }

  /// Edge updates dropped by submit_for() deadlines (full queues that
  /// stayed full past the timeout).
  uint64_t edges_timed_out() const {
    return edges_timed_out_.load(std::memory_order_relaxed);
  }

 private:
  /// Shared tail of construction and recovery: wraps pre-built per-shard
  /// services in queues and starts the writer pool.
  ShardedSpannerService(std::vector<std::unique_ptr<SpannerService>> services,
                        std::shared_ptr<const ShardRouter> router,
                        ShardedConfig cfg, size_t n);
  struct Shard {
    std::unique_ptr<SpannerService> service;
    BatchQueue queue;
    uint64_t published_ticket = 0;  // guarded by barrier_mu_
    std::vector<PublishRecord> log;  // guarded by log_mu
    mutable std::mutex log_mu;
    Shard(std::unique_ptr<SpannerService> svc, size_t cap, bool paused)
        : service(std::move(svc)), queue(cap, paused) {}
  };

  void drain_shard(size_t s);

  /// Admission of batch.pending_[idx] with the given budget (none: wait
  /// for capacity): on success the sub-batch is counted, its shard
  /// notified, and the index removed.
  bool admit_shard(RoutedBatch& batch, size_t idx,
                   std::optional<std::chrono::nanoseconds> timeout);

  /// One registered flush_async barrier: fire `done` once every shard's
  /// published ticket reaches its target. Guarded by barrier_mu_.
  struct FlushWaiter {
    std::vector<uint64_t> targets;
    std::function<void(VersionVector)> done;
  };

  ShardedConfig cfg_;
  // shared_ptr so views can co-own it (a pinned ShardedView must outlive
  // the service if its holder does).
  std::shared_ptr<const ShardRouter> router_;
  std::vector<std::unique_ptr<Shard>> shards_;
  size_t n_ = 0;  // max shard vertex-space size (view bounds)

  mutable std::mutex barrier_mu_;
  std::vector<FlushWaiter> flush_waiters_;  // guarded by barrier_mu_

  std::atomic<bool> paused_{false};
  std::atomic<uint64_t> edges_ingested_{0};
  std::atomic<uint64_t> edges_rejected_{0};
  std::atomic<uint64_t> edges_timed_out_{0};

  // Declared last: destroyed (joined) first, while shards_ still exist.
  std::unique_ptr<WorkerPool> pool_;
};

}  // namespace parspan
