// WorkerPool: slot-addressed drain scheduling with per-slot mutual
// exclusion, executed on the process-wide work-stealing scheduler
// (DESIGN.md §9.3, §12.3).
//
// The pool owns nothing about the work itself — a slot is just an index a
// producer marks ready with notify(slot), and the pool guarantees that the
// user's drain function runs for that slot (i) at least once after every
// notify, and (ii) never on two threads at once for the same slot. That
// pair is exactly what the sharded ingestion layer needs: shard backends
// forbid concurrent update() calls, while distinct shards are fully
// independent and should drain on as many threads as are available.
//
// Since PR 8 the pool no longer spawns dedicated threads: each ready slot
// becomes a root task submitted to the Scheduler with the slot index as its
// affinity hint, so a shard keeps landing on the same worker (warm caches)
// until imbalance makes another worker steal it from the mailbox sweep.
// `num_threads` survives as the drain *concurrency cap* — at most that many
// slots run at once, the rest queue FIFO. A drain that calls parallel_for
// forks tasks into the same scheduler and its join loop helps execute them,
// so nested parallelism steals instead of oversubscribing — and makes
// progress even when every scheduler thread is occupied by a drain.
//
// Lost-wakeup safety is a tiny per-slot state machine (kIdle → kQueued →
// kRunning → kIdle), with one extra state kRunningDirty for "notified while
// running": the drain function may miss work that arrived after it snapped
// the slot's queue, so a notify landing mid-run re-queues the slot when the
// run finishes instead of being dropped. A slot stays kQueued until its
// task actually starts: a notify before then is a no-op, because the drain
// has not looked at its queue yet and will see the new work. The drain
// function's return value ("I left work behind") re-queues the same way,
// so a bounded drain can yield between rounds without stranding its slot.
//
// stop() (also run by the destructor) marks the pool stopped, drops queued
// slots, and waits until every submitted drain task has finished touching
// the pool — a task submitted before stop() but not yet started observes
// stopped_ and exits without draining, so teardown never races a queued
// task's use of pool state. notify() after stop() is a no-op, so producers
// do not need to synchronize with teardown.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <vector>

#include "parallel/scheduler.hpp"

namespace parspan {

class WorkerPool {
 public:
  /// Drains one round of work for `slot`; returns true when the slot still
  /// has work left (it is re-queued immediately). Called with no locks
  /// held; never called concurrently for the same slot.
  using DrainFn = std::function<bool(size_t slot)>;

  WorkerPool(int num_threads, size_t num_slots, DrainFn drain)
      : drain_(std::move(drain)),
        cap_(num_threads < 1 ? 1 : num_threads),
        state_(num_slots, kIdle) {}

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  ~WorkerPool() { stop(); }

  /// Marks `slot` ready. Any thread; cheap no-op when the slot is already
  /// queued. A notify that lands while the slot is mid-drain re-queues it
  /// afterwards, so work enqueued concurrently with a drain is never lost.
  void notify(size_t slot) {
    std::lock_guard<std::mutex> lk(mu_);
    if (stopped_) return;
    uint8_t& s = state_[slot];
    if (s == kIdle) {
      s = kQueued;
      ready_.push_back(slot);
      maybe_launch_locked();
    } else if (s == kRunning) {
      s = kRunningDirty;  // the running task re-queues on completion
    }  // else: already queued (or already dirty)
  }

  /// Drops queued slots, lets in-flight drains finish, and waits until no
  /// submitted task can touch the pool again. Idempotent (the sharded
  /// service flushes before tearing the pool down, so dropping queued
  /// slots loses nothing).
  void stop() {
    std::unique_lock<std::mutex> lk(mu_);
    if (!stopped_) {
      stopped_ = true;
      for (size_t slot : ready_) state_[slot] = kIdle;
      ready_.clear();
    }
    cv_.wait(lk, [this] { return inflight_ == 0; });
  }

  /// The drain concurrency cap (historical name: the pool used to own this
  /// many dedicated threads).
  int num_threads() const { return cap_; }

 private:
  enum : uint8_t { kIdle = 0, kQueued = 1, kRunning = 2, kRunningDirty = 3 };

  // Requires mu_. Counts a task as in-flight from SUBMISSION, not start:
  // stop() must outwait even tasks the scheduler has not run yet.
  void maybe_launch_locked() {
    while (!stopped_ && inflight_ < cap_ && !ready_.empty()) {
      size_t slot = ready_.front();
      ready_.pop_front();
      ++inflight_;
      Scheduler::instance().submit([this, slot] { run_slot(slot); },
                                   /*affinity=*/int(slot));
    }
  }

  void run_slot(size_t slot) {
    bool alive;
    {
      std::lock_guard<std::mutex> lk(mu_);
      alive = !stopped_;
      state_[slot] = kRunning;  // notifies from here on may find work missed
    }
    bool more = alive && drain_(slot);
    std::lock_guard<std::mutex> lk(mu_);
    if (!stopped_ && (more || state_[slot] == kRunningDirty)) {
      state_[slot] = kQueued;
      ready_.push_back(slot);
    } else {
      state_[slot] = kIdle;
    }
    --inflight_;
    maybe_launch_locked();
    if (inflight_ == 0) cv_.notify_all();
    // Nothing after the lock releases: stop() may destroy the pool the
    // moment it observes inflight_ == 0.
  }

  DrainFn drain_;
  const int cap_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<size_t> ready_;
  std::vector<uint8_t> state_;  // per-slot machine, guarded by mu_
  int inflight_ = 0;            // submitted drain tasks not yet finished
  bool stopped_ = false;
};

}  // namespace parspan
