// Work-depth style parallel loop primitives on the in-repo work-stealing
// scheduler (scheduler.hpp, DESIGN.md §12).
//
// The paper's algorithms are stated in the work-depth (PRAM) model; this
// layer realizes "for v in U in parallel" loops as fork-join range tasks:
//
//  * parallel_for uses lazy binary splitting — a range task splits off its
//    right half only while the worker's deque runs dry (thieves are keeping
//    up), so grain adapts to the actual parallel slack instead of a fixed
//    per-call-site chunk constant. A trip count of 1 calls f inline and
//    spawns zero tasks (pinned by SchedulerTest.TripCountOneSpawnsNothing).
//  * parallel_reduce combines over a reduction tree whose SHAPE depends
//    only on (n, grain) — never on the worker count or on stealing — so
//    non-commutative combiners (float sums) give byte-identical results
//    for every worker count, including 1 (the serial path walks the same
//    tree). `init` is folded exactly once, at the root.
//
// Exceptions thrown by loop bodies are captured (first one wins), remaining
// chunks are abandoned, and the exception rethrows at the call site once
// the loop's tasks have quiesced.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>

#include "parallel/scheduler.hpp"

namespace parspan {

/// Serial cutoff for the blocked primitives (scan/sort) and default reduce
/// grain: below this many iterations, scheduling overhead beats the win.
inline constexpr size_t kParGrain = 2048;

/// Auto-grain serial cutoff for parallel_for: an unhinted loop shorter than
/// this runs inline. Call sites with provably heavy bodies pass grain=1 to
/// force the task path regardless of trip count.
inline constexpr size_t kParForCutoff = 512;

namespace detail {

struct LoopCtx {
  std::atomic<size_t> pending{1};
  std::atomic<bool> failed{false};
  std::mutex err_mu;
  std::exception_ptr eptr;

  void record_exception() {
    {
      std::lock_guard<std::mutex> lk(err_mu);
      if (!eptr) eptr = std::current_exception();
    }
    failed.store(true, std::memory_order_release);
  }
  void finish_one() {
    if (pending.fetch_sub(1, std::memory_order_acq_rel) == 1)
      pending.notify_all();
  }
  [[noreturn]] void rethrow() { std::rethrow_exception(eptr); }
};

template <typename F>
void run_range(LoopCtx& ctx, const F& f, size_t lo, size_t hi, size_t grain);

/// Heap-allocated right half of a split: the spawner does not wait for it,
/// so it owns its storage (freed in invoke).
template <typename F>
struct RangeTask {
  Task task;
  LoopCtx* ctx;
  const F* f;
  size_t lo, hi, grain;

  static void invoke(Task* t) {
    RangeTask* self = reinterpret_cast<RangeTask*>(t);
    LoopCtx& ctx = *self->ctx;
    const F& f = *self->f;
    size_t lo = self->lo, hi = self->hi, grain = self->grain;
    delete self;
    run_range(ctx, f, lo, hi, grain);
    ctx.finish_one();
  }
};

/// Lazy binary splitting: keep splitting the right half off while the
/// owner's deque is nearly empty (meaning thieves — or the owner's own join
/// loop — consume as fast as we produce); otherwise chew a grain-sized
/// chunk and re-check. Every index runs exactly once; only WHO runs a chunk
/// varies with stealing, which the deterministic-diff contract permits
/// (bodies are data-parallel with disjoint writes).
template <typename F>
void run_range(LoopCtx& ctx, const F& f, size_t lo, size_t hi, size_t grain) {
  Scheduler& s = Scheduler::instance();
  while (lo < hi) {
    if (ctx.failed.load(std::memory_order_acquire)) return;
    size_t n = hi - lo;
    if (n > grain && s.want_split()) {
      size_t mid = lo + n / 2;
      ctx.pending.fetch_add(1, std::memory_order_relaxed);
      auto* rt = new RangeTask<F>{
          {&RangeTask<F>::invoke}, &ctx, &f, mid, hi, grain};
      s.spawn(&rt->task);
      hi = mid;
      continue;
    }
    size_t end = std::min(lo + grain, hi);
    try {
      for (size_t i = lo; i < end; ++i) f(i);
    } catch (...) {
      ctx.record_exception();
      return;
    }
    lo = end;
  }
}

inline size_t auto_grain(size_t n, int p) {
  size_t g = n / (size_t(p) * 8);
  return std::clamp<size_t>(g, 1, 4096);
}

}  // namespace detail

/// parallel_for(lo, hi, f): applies f(i) for all i in [lo, hi).
///
/// grain = 0 (default) picks an adaptive grain and runs short loops
/// (< kParForCutoff) inline; an explicit grain both forces the task path
/// for any trip count above it and caps the smallest chunk — pass 1 for
/// few-iteration loops with heavy bodies (partition rebuilds, per-block
/// phases).
template <typename F>
void parallel_for(size_t lo, size_t hi, F&& f, size_t grain = 0) {
  if (hi <= lo) return;
  size_t n = hi - lo;
  if (n == 1) {  // zero tasks, by contract
    f(lo);
    return;
  }
  Scheduler& s = Scheduler::instance();
  int p = s.num_workers();
  size_t g = grain ? grain : detail::auto_grain(n, p);
  if (p <= 1 || n <= g || (grain == 0 && n < kParForCutoff)) {
    for (size_t i = lo; i < hi; ++i) f(i);
    return;
  }
  detail::LoopCtx ctx;
  if (Scheduler::on_worker()) {
    detail::run_range(ctx, f, lo, hi, g);
    ctx.finish_one();
  } else {
    // External threads never execute loop bodies in parallel regions: they
    // root the loop on a worker (so nested helpers can steal) and sleep on
    // the pending counter (futex) until it quiesces.
    s.submit([&ctx, &f, lo, hi, g] {
      detail::run_range(ctx, f, lo, hi, g);
      ctx.finish_one();
    });
  }
  s.join(ctx.pending);
  if (ctx.eptr) ctx.rethrow();
}

namespace detail {

template <typename T, typename F, typename C>
struct ReduceCtx {
  const F* f;
  const C* comb;
  size_t grain;
  std::atomic<bool> failed{false};
  std::mutex err_mu;
  std::exception_ptr eptr;

  void record_exception() {
    {
      std::lock_guard<std::mutex> lk(err_mu);
      if (!eptr) eptr = std::current_exception();
    }
    failed.store(true, std::memory_order_release);
  }
};

template <typename T, typename F, typename C>
T reduce_range(ReduceCtx<T, F, C>& ctx, size_t lo, size_t hi);

/// Stack-allocated right subtree: the parent always joins it before leaving
/// the frame, so no heap traffic on the reduce spine.
template <typename T, typename F, typename C>
struct ReduceChild {
  Task task;
  ReduceCtx<T, F, C>* ctx;
  size_t lo, hi;
  T result;
  std::atomic<size_t> pending;

  static void invoke(Task* t) {
    ReduceChild* self = reinterpret_cast<ReduceChild*>(t);
    self->result = reduce_range(*self->ctx, self->lo, self->hi);
    if (self->pending.fetch_sub(1, std::memory_order_acq_rel) == 1)
      self->pending.notify_all();
  }
};

/// Fixed-shape reduction: split at the midpoint whenever n > grain — a
/// function of (n, grain) only. Whether the right subtree runs on this
/// thread or a thief changes nothing: both orders produce the same operand
/// values for the same combine() nodes.
template <typename T, typename F, typename C>
T reduce_range(ReduceCtx<T, F, C>& ctx, size_t lo, size_t hi) {
  if (ctx.failed.load(std::memory_order_acquire)) return T{};
  size_t n = hi - lo;
  if (n <= ctx.grain) {
    // Leaf folds seed from the first element so `init` is never counted
    // here (it folds exactly once, at the root of the public API).
    try {
      T acc = (*ctx.f)(lo);
      for (size_t i = lo + 1; i < hi; ++i) acc = (*ctx.comb)(acc, (*ctx.f)(i));
      return acc;
    } catch (...) {
      ctx.record_exception();
      return T{};
    }
  }
  size_t mid = lo + n / 2;
  Scheduler& s = Scheduler::instance();
  if (Scheduler::on_worker() && s.num_workers() > 1 && s.want_split()) {
    ReduceChild<T, F, C> child{
        {&ReduceChild<T, F, C>::invoke}, &ctx, mid, hi, T{}, {1}};
    s.spawn(&child.task);
    T left = reduce_range(ctx, lo, mid);
    s.join(child.pending);
    if (ctx.failed.load(std::memory_order_acquire)) return T{};
    return (*ctx.comb)(left, child.result);
  }
  T left = reduce_range(ctx, lo, mid);
  T right = reduce_range(ctx, mid, hi);
  if (ctx.failed.load(std::memory_order_acquire)) return T{};
  return (*ctx.comb)(left, right);
}

}  // namespace detail

/// parallel_reduce over [lo, hi): `f(i)` produces a value, `combine(a, b)`
/// merges, `init` folds exactly once. The reduction tree's shape depends
/// only on (n, grain), so results are byte-identical across worker counts —
/// including for non-commutative float sums (DESIGN.md §12.4).
template <typename T, typename F, typename C>
T parallel_reduce(size_t lo, size_t hi, T init, F&& f, C&& combine,
                  size_t grain = kParGrain) {
  if (hi <= lo) return init;
  size_t n = hi - lo;
  if (grain == 0) grain = 1;
  if (n <= grain) {
    T acc = init;
    for (size_t i = lo; i < hi; ++i) acc = combine(acc, f(i));
    return acc;
  }
  using Fd = std::decay_t<F>;
  using Cd = std::decay_t<C>;
  detail::ReduceCtx<T, Fd, Cd> ctx{&f, &combine, grain, {}, {}, {}};
  Scheduler& s = Scheduler::instance();
  T tree{};
  if (!Scheduler::on_worker() && s.num_workers() > 1) {
    // Root the tree on a worker; this thread sleeps until it finishes.
    std::atomic<size_t> pending{1};
    s.submit([&] {
      tree = detail::reduce_range(ctx, lo, hi);
      if (pending.fetch_sub(1, std::memory_order_acq_rel) == 1)
        pending.notify_all();
    });
    s.join(pending);
  } else {
    tree = detail::reduce_range(ctx, lo, hi);
  }
  if (ctx.eptr) std::rethrow_exception(ctx.eptr);
  return combine(std::move(init), std::move(tree));
}

}  // namespace parspan
