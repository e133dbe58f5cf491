// BatchQueue: the bounded, coalescing ingestion queue in front of one
// shard's writer (DESIGN.md §9.2).
//
// Producers submit() insert/delete batches without waiting for the shard's
// backend; a writer later drain()s everything pending as ONE key-sorted
// backend batch. Pending operations coalesce per edge key with last-op-wins
// set semantics — each key holds at most two pending flags:
//
//   kDelete  "make the edge absent"     drained into the deletion side
//   kInsert  "make the edge present"    drained into the insertion side
//
// transitions (per key):   submit insert:  flags |= kInsert
//                          submit delete:  flags  = kDelete
//
// so insert-then-delete leaves only the delete (the queued insert is
// cancelled — if the edge never existed, the drained delete is a no-op the
// backend filters, and the batch's net diff is empty, which is the exact
// observable meaning of "insert+delete cancels"; if the edge was already
// live, the delete is the operation the caller asked for last, so pure
// cancellation would be wrong), and delete-then-insert keeps BOTH flags:
// drained as a deletion and an insertion of the same key, which the
// backend's documented deletions-first order turns into a refresh — the
// re-insert survives. The queue never consults the backend's edge set
// (that would race with the writer), which is why the delete flag is kept
// instead of truly erasing the pair.
//
// Determinism (DESIGN.md §9.4): a drained batch is a pure function of the
// multiset of submits it covers — flags are per-key state, both drained
// sides come out ascending by canonical key via FlatHashMap::sorted_keys,
// and the submit *interleaving* across keys is irrelevant. What timing
// chooses is only where drain boundaries fall; rounds bounded by
// flush()-barriers (or a paused service) therefore replay byte-identically
// at any writer count.
//
// Bounded: submit() blocks while the queue already holds `capacity` or
// more distinct pending keys — backpressure against a writer that cannot
// keep up. The bound gates *admission*: one admitted batch inserts all its
// keys, so the pending count can overshoot capacity by up to that batch's
// size. Empty batches are exempt: they contribute no pending keys and no
// drainable work, so they admit immediately — a heartbeat stream against a
// paused queue must not eat the admission budget real producers need.
// Tickets: every submit (noops included) gets the next per-queue ticket;
// drain() reports the highest ticket it covers, which is what the
// service's flush() barrier waits on.
//
// Thread safety: any number of producer threads may submit() concurrently
// with one drain()er (drain itself is serialized per shard by WorkerPool's
// slot exclusivity). All state lives behind one mutex; the critical
// sections are O(batch), never O(pending).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

#include "container/flat_map.hpp"
#include "util/types.hpp"

namespace parspan {

class BatchQueue {
 public:
  /// One drained backend batch: everything pending at the time of the
  /// call, both sides ascending by canonical key.
  struct Drained {
    std::vector<Edge> insertions;
    std::vector<Edge> deletions;
    /// Highest submit ticket covered (0 when nothing was pending).
    uint64_t ticket = 0;
    bool empty() const { return insertions.empty() && deletions.empty(); }
  };

  explicit BatchQueue(size_t capacity, bool start_paused = false)
      : capacity_(capacity ? capacity : 1), paused_(start_paused) {}

  /// Queues one batch, coalescing into the pending per-key flags. Blocks
  /// while the queue is full (a drain frees it). Returns this submit's
  /// ticket — flush barriers compare it against drained tickets. Empty
  /// batches still take a ticket (flush-after-noop stays well-defined) but
  /// are exempt from the admission bound: they add no pending keys and no
  /// drainable work, so a heartbeat/noop stream against a paused queue
  /// must never wedge real producers behind a bound only a drain can
  /// release.
  uint64_t submit(const std::vector<Edge>& insertions,
                  const std::vector<Edge>& deletions) {
    return *submit_for(insertions, deletions, std::nullopt);
  }

  /// submit() with an optional deadline: waits at most `timeout` for
  /// admission capacity, then gives up WITHOUT queuing anything (nullopt)
  /// — the observable-backpressure path (DESIGN.md §9.5). No timeout waits
  /// as long as submit() does. A batch is admitted whole or not at all; on
  /// success, the returned ticket means exactly what submit()'s does.
  std::optional<uint64_t> submit_for(
      const std::vector<Edge>& insertions, const std::vector<Edge>& deletions,
      std::optional<std::chrono::nanoseconds> timeout) {
    const bool noop = insertions.empty() && deletions.empty();
    std::unique_lock<std::mutex> lk(mu_);
    if (!noop) {
      auto admissible = [this] { return pending_.size() < capacity_; };
      if (!timeout)
        not_full_.wait(lk, admissible);
      else if (!not_full_.wait_for(lk, *timeout, admissible))
        return std::nullopt;
    }
    for (const Edge& e : deletions) pending_[e.key()] = kDelete;
    for (const Edge& e : insertions) pending_[e.key()] |= kInsert;
    return ++last_ticket_;
  }

  /// Pauses/unpauses draining. The flag lives under the queue's own mutex
  /// so the decision "may this drain take the pending delta?" is atomic
  /// with respect to concurrent submits — a straggler drain that raced a
  /// pause() can never walk off with batches submitted after it
  /// (DESIGN.md §9.4's round boundary).
  void set_paused(bool paused) {
    std::lock_guard<std::mutex> lk(mu_);
    paused_ = paused;
  }

  /// Raises the flush demand: drains are allowed (even while paused) until
  /// everything up to `ticket` has been taken.
  void demand(uint64_t ticket) {
    std::lock_guard<std::mutex> lk(mu_);
    if (ticket > demand_ticket_) demand_ticket_ = ticket;
  }

  /// Takes the whole pending delta as one key-sorted backend batch and
  /// empties the queue — unless the queue is paused and no flush demand is
  /// outstanding, in which case nothing is taken (ticket 0). Writer side
  /// (one drainer at a time).
  Drained drain() {
    Drained out;
    std::vector<EdgeKey> keys;
    FlatHashMap<EdgeKey, uint8_t> taken;
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (!drainable_locked()) return out;
      // O(1) moves only under the mutex: the O(P log P) key sort happens
      // below, after producers have been released.
      taken = std::move(pending_);
      pending_ = FlatHashMap<EdgeKey, uint8_t>();
      out.ticket = last_ticket_;
      last_drained_ticket_ = last_ticket_;
    }
    not_full_.notify_all();
    keys = taken.sorted_keys();
    for (EdgeKey k : keys) {
      uint8_t flags = *taken.find(k);
      if (flags & kDelete) out.deletions.push_back(edge_from_key(k));
      if (flags & kInsert) out.insertions.push_back(edge_from_key(k));
    }
    return out;
  }

  /// Ticket of the most recent submit (0 before the first). The service's
  /// flush() snapshots this as its per-shard barrier target.
  uint64_t last_ticket() const {
    std::lock_guard<std::mutex> lk(mu_);
    return last_ticket_;
  }

  bool empty() const {
    std::lock_guard<std::mutex> lk(mu_);
    return pending_.empty();
  }

  /// True while a drain() would take something: some submitted ticket (an
  /// empty batch's too) is untaken, and the queue is not paused without an
  /// outstanding flush demand.
  bool drainable() const {
    std::lock_guard<std::mutex> lk(mu_);
    return drainable_locked();
  }

  size_t pending_keys() const {
    std::lock_guard<std::mutex> lk(mu_);
    return pending_.size();
  }

 private:
  enum : uint8_t { kDelete = 1, kInsert = 2 };

  // Requires mu_. Every submit takes a ticket, so pending keys imply an
  // untaken ticket.
  bool drainable_locked() const {
    if (paused_ && last_drained_ticket_ >= demand_ticket_) return false;
    return last_ticket_ != last_drained_ticket_;
  }

  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_full_;
  FlatHashMap<EdgeKey, uint8_t> pending_;  // key -> pending flags
  uint64_t last_ticket_ = 0;
  uint64_t last_drained_ticket_ = 0;
  uint64_t demand_ticket_ = 0;  // drains allowed up to here while paused
  bool paused_ = false;
};

}  // namespace parspan
