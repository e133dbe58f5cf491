// SpannerService: the concurrent query-serving layer over any batch-dynamic
// spanner backend (DESIGN.md §8).
//
// Roles:
//  * ONE writer thread calls apply(insertions, deletions). Each call runs
//    the backend's (internally parallel) batch update, patches the
//    previous snapshot with the returned net SpannerDiff
//    (SpannerSnapshot::apply — O(|diff|) merge work plus a memcpy of the
//    untouched lists, no re-export), and publishes the new version
//    through the SnapshotStore.
//  * ANY number of reader threads call snapshot() and answer has_edge /
//    neighbors / distance / edges queries against the pinned, immutable
//    version — fully overlapped with the writer's next batch.
//
// The backend is type-erased behind a small concept (update /
// spanner_edges / num_vertices): FullyDynamicSpanner (Theorem 1.1, pass
// stretch 2k-1), UltraSparseSpanner (Theorem 1.4, pass stretch_bound()),
// or any future structure honoring the §6 diff contract — deletions first,
// duplicates filtered, both diff sides key-sorted and net. That contract
// is what the service inherits: the published snapshot sequence (and every
// diff) is a deterministic function of (backend construction, batch
// history), independent of the worker-thread count.
//
// Thread safety: apply() must be externally serialized (single writer —
// enforced by a debug trap); snapshot(), version(), and all SpannerSnapshot
// queries are safe from any thread at any time, including concurrently
// with apply().
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <iterator>
#include <memory>
#include <utility>
#include <vector>

#include "core/cluster_spanner.hpp"
#include "durability/durable_shard.hpp"
#include "parallel/csr.hpp"
#include "service/snapshot_store.hpp"
#include "service/spanner_snapshot.hpp"
#include "util/types.hpp"

namespace parspan {

class SpannerService {
 public:
  /// Result of one writer batch: the diff the backend reported and the
  /// snapshot version that now serves it.
  struct ApplyResult {
    SpannerDiff diff;
    SpannerSnapshot::Ptr snapshot;
  };

  /// Takes ownership of a constructed backend and publishes version 0 from
  /// its current spanner (the only full spanner_edges() export the service
  /// ever performs). `stretch` is the backend's guarantee, served to
  /// readers via SpannerSnapshot::stretch().
  template <typename Backend>
  SpannerService(std::unique_ptr<Backend> backend, uint32_t stretch)
      : backend_(std::make_unique<Model<Backend>>(std::move(backend))) {
    store_.publish(SpannerSnapshot::initial(
        backend_->num_vertices(), backend_->spanner_edges(), stretch));
  }

  /// Applies one batch (deletions first, then insertions — the backend's
  /// documented semantics) and publishes the next snapshot version.
  /// Writer thread only. With durability enabled, the batch's WAL record
  /// is appended (and fsynced per policy) BEFORE the version becomes
  /// visible to readers — WAL-before-publish, DESIGN.md §10.2.
  ApplyResult apply(const std::vector<Edge>& insertions,
                    const std::vector<Edge>& deletions);

  /// Attaches a write-ahead log + checkpoint directory to this service
  /// (DESIGN.md §10). Must be called before the first apply() — the
  /// genesis checkpoint is cut from version 0. `graph_edges` is the edge
  /// set the backend was constructed with (empty for an empty initial
  /// graph); it seeds the graph shadow a post-crash backend is rebuilt
  /// from. False when the directory could not be initialized (the service
  /// still serves, without the durability claim).
  bool enable_durability(std::shared_ptr<Fs> fs, std::string dir,
                         const DurabilityOptions& opts,
                         const std::vector<Edge>& graph_edges);

  /// What recover() restored and republished.
  struct RecoveryReport {
    uint64_t restored_version = 0;   // version recovered from disk
    uint64_t restored_checksum = 0;  // == last durably logged checksum
    uint64_t replayed_records = 0;   // WAL records folded past the ckpt
    bool tail_truncated = false;     // log ended in a torn/corrupt frame
    uint64_t published_version = 0;  // the rebase epoch (restored + 1)
  };

  /// Rebuilds a service from a durability directory after a crash
  /// (DESIGN.md §10.4): loads the newest valid checkpoint, replays the WAL
  /// tail (each record's content checksum verified before it is applied,
  /// torn tails truncated at the first bad frame), publishes the restored
  /// snapshot at its exact pre-crash version/checksum, then REBASES — a
  /// fresh backend is built from the recovered graph via `make_backend(n,
  /// graph_edges)`, and its (generally different) spanner is published as
  /// restored_version + 1 with the symmetric diff logged as a kRebase
  /// record, followed by a forced checkpoint so repeated crash/recover
  /// cycles never accumulate log. `make_backend` must also return the
  /// stretch guarantee: it is called as make_backend(n, edges, stretch_in)
  /// where stretch_in is the recovered stretch, and returns
  /// std::unique_ptr<Backend>. nullptr when no valid checkpoint exists.
  template <typename MakeBackend>
  static std::unique_ptr<SpannerService> recover(
      std::shared_ptr<Fs> fs, std::string dir, const DurabilityOptions& opts,
      MakeBackend&& make_backend, RecoveryReport* report = nullptr) {
    auto rec = ShardDurability::recover(fs, std::move(dir), opts);
    if (!rec) return nullptr;

    std::vector<Edge> graph_edges(rec->graph_keys.size());
    for (size_t i = 0; i < rec->graph_keys.size(); ++i)
      graph_edges[i] = edge_from_key(rec->graph_keys[i]);

    auto svc = std::unique_ptr<SpannerService>(new SpannerService());
    svc->set_backend(make_backend(rec->n, graph_edges, rec->stretch));

    // Publish the EXACT pre-crash state first: the replay fold's own
    // snapshot, byte-identical content (checksum-verified per record).
    SpannerSnapshot::Ptr restored = std::move(rec->snapshot);
    svc->store_.publish(restored);

    // Rebase epoch: the rebuilt backend's spanner is a valid spanner of
    // the same graph but generally a different edge set. Publish it as the
    // next version with its diff durably logged, so the WAL chain stays
    // contiguous and a second crash recovers the rebased state.
    svc->dur_ = std::move(rec->dur);
    const std::vector<EdgeKey> old_keys = restored->edge_keys();
    std::vector<EdgeKey> new_keys =
        canonical_edge_keys(rec->n, svc->backend_->spanner_edges());
    WalRecord rebase;
    rebase.type = WalRecord::kRebase;
    rebase.version = rec->version + 1;
    std::set_difference(old_keys.begin(), old_keys.end(), new_keys.begin(),
                        new_keys.end(), std::back_inserter(rebase.diff_removed));
    std::set_difference(new_keys.begin(), new_keys.end(), old_keys.begin(),
                        old_keys.end(), std::back_inserter(rebase.diff_inserted));
    SpannerSnapshot::Ptr rebased = SpannerSnapshot::apply(
        *restored, rebase.diff_inserted, rebase.diff_removed);
    assert(rebased != nullptr && "recover: set differences are a net diff");
    rebase.checksum = rebased->checksum();
    svc->dur_->log_record(rebase);
    svc->store_.publish(rebased);
    svc->dur_->checkpoint_now(rebased->version(), rebased->checksum(),
                              std::move(new_keys));

    if (report != nullptr) {
      report->restored_version = rec->version;
      report->restored_checksum = rec->checksum;
      report->replayed_records = rec->replayed_records;
      report->tail_truncated = rec->tail_truncated;
      report->published_version = rebased->version();
    }
    return svc;
  }

  /// The attached durability driver, or nullptr. Exposes failed() and
  /// durable_version() — the crash sweep's recovery lower bound.
  const ShardDurability* durability() const { return dur_.get(); }

  /// Pins the currently served snapshot (one pointer-copy critical
  /// section — DESIGN.md §8.1). Any thread; the returned version stays
  /// fully valid for as long as the caller holds it, across any number of
  /// later publishes.
  SpannerSnapshot::Ptr snapshot() const { return store_.acquire(); }

  /// Version currently being served (= number of batches applied).
  uint64_t version() const { return store_.acquire()->version(); }

  size_t num_vertices() const { return backend_->num_vertices(); }

  /// Re-exports the backend's spanner (bypassing the snapshot path) for
  /// differential checks. Writer-quiescent only — not safe concurrently
  /// with apply().
  std::vector<Edge> export_spanner() const {
    return backend_->spanner_edges();
  }

 private:
  SpannerService() = default;  // recover() builds the parts by hand

  template <typename Backend>
  void set_backend(std::unique_ptr<Backend> b) {
    backend_ = std::make_unique<Model<Backend>>(std::move(b));
  }

  struct Concept {
    virtual ~Concept() = default;
    virtual SpannerDiff update(const std::vector<Edge>& ins,
                               const std::vector<Edge>& del) = 0;
    virtual std::vector<Edge> spanner_edges() const = 0;
    virtual size_t num_vertices() const = 0;
  };

  template <typename B>
  struct Model final : Concept {
    explicit Model(std::unique_ptr<B> b) : impl(std::move(b)) {}
    SpannerDiff update(const std::vector<Edge>& ins,
                       const std::vector<Edge>& del) override {
      return impl->update(ins, del);
    }
    std::vector<Edge> spanner_edges() const override {
      return impl->spanner_edges();
    }
    size_t num_vertices() const override { return impl->num_vertices(); }
    std::unique_ptr<B> impl;
  };

  std::unique_ptr<Concept> backend_;
  SnapshotStore store_;
  std::unique_ptr<ShardDurability> dur_;  // nullptr = durability off
  std::atomic<bool> writer_busy_{false};  // single-writer debug trap
};

}  // namespace parspan
