#include "service/spanner_service.hpp"

#include <cstdio>
#include <cstdlib>

namespace parspan {

SpannerService::ApplyResult SpannerService::apply(
    const std::vector<Edge>& insertions, const std::vector<Edge>& deletions) {
  // Single-writer discipline: concurrent apply() calls are a caller bug
  // (the backend itself forbids them), caught here before they corrupt it.
  bool was_busy = writer_busy_.exchange(true, std::memory_order_acquire);
  assert(!was_busy && "SpannerService::apply: concurrent writers");
  (void)was_busy;

  ApplyResult r;
  r.diff = backend_->update(insertions, deletions);
  std::vector<EdgeKey> add = diff_side_keys(r.diff.inserted);
  std::vector<EdgeKey> rem = diff_side_keys(r.diff.removed);
  // Patch the previous version with the net diff instead of re-exporting
  // the spanner: untouched neighbor lists are memcpy'd, touched ones
  // merged, the checksum moved in O(|diff|) (DESIGN.md §8.2). The store
  // holds the only writer-side reference, so acquire() here is the
  // previous publish.
  SpannerSnapshot::Ptr prev = store_.acquire();
  r.snapshot = SpannerSnapshot::apply(*prev, add, rem);
  if (r.snapshot == nullptr) {
    // Not an assert: a backend that breaks the §6 diff contract would
    // otherwise publish (and log) a spanner it does not hold.
    std::fprintf(stderr,
                 "SpannerService: backend diff violates the net diff "
                 "contract at version %llu\n",
                 static_cast<unsigned long long>(prev->version() + 1));
    std::abort();
  }

  // WAL-before-publish: the record covering this version hits the log (and
  // the disk, per fsync policy) before any reader can observe the version.
  // A sticky log failure downgrades the shard to serve-only — the publish
  // still happens, durable_version() just stops advancing (DESIGN.md
  // §10.2/§10.5).
  if (dur_ != nullptr) {
    WalRecord rec;
    rec.type = WalRecord::kBatch;
    rec.version = r.snapshot->version();
    rec.checksum = r.snapshot->checksum();
    // Canonicalize (sort + dedup) the input lists: queue-drained batches
    // are already key-sorted (§9.2) but direct apply() callers may pass
    // arbitrary order, and the WAL's delta encoding needs strict ascent.
    // Set semantics make this lossless for the graph shadow.
    auto canonical_input = [](const std::vector<Edge>& edges) {
      std::vector<EdgeKey> keys;
      keys.reserve(edges.size());
      for (const Edge& e : edges) keys.push_back(edge_key(e.u, e.v));
      std::sort(keys.begin(), keys.end());
      keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
      return keys;
    };
    rec.input_deleted = canonical_input(deletions);
    rec.input_inserted = canonical_input(insertions);
    rec.diff_removed = std::move(rem);
    rec.diff_inserted = std::move(add);
    dur_->log_record(rec);
  }
  store_.publish(r.snapshot);
  if (dur_ != nullptr) dur_->maybe_checkpoint(*r.snapshot);

  writer_busy_.store(false, std::memory_order_release);
  return r;
}

bool SpannerService::enable_durability(std::shared_ptr<Fs> fs, std::string dir,
                                       const DurabilityOptions& opts,
                                       const std::vector<Edge>& graph_edges) {
  SpannerSnapshot::Ptr snap = store_.acquire();
  assert(snap->version() == 0 &&
         "enable_durability: must precede the first apply()");
  dur_ = ShardDurability::create(
      std::move(fs), std::move(dir), opts, snap->num_vertices(),
      snap->stretch(), snap->version(), snap->edge_keys(), snap->checksum(),
      canonical_edge_keys(snap->num_vertices(), graph_edges));
  return dur_ != nullptr;
}

}  // namespace parspan
