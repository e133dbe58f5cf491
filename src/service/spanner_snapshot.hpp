// SpannerSnapshot: one immutable, versioned view of the maintained spanner
// — the unit the serving layer publishes (DESIGN.md §8).
//
// A snapshot owns its whole representation — one flat symmetric CSR
// adjacency (offsets + ascending neighbor lists) and a content checksum —
// so any number of reader threads may query one concurrently with no
// synchronization, and a reader that pinned version v keeps a fully valid
// view while the writer publishes v+1, v+2, ... — immutability is what
// makes the concurrent serving layer race-free by construction.
//
// Snapshots are built *incrementally*: version v+1 patches version v's
// arrays with the batch's net diff in one checked pass (apply). The pass
// sorts the diff's 2·|diff| arcs, memcpys each run of untouched vertices'
// neighbor lists, merges only the touched vertices, and moves the checksum
// in O(|diff|) — the checksum is an order-independent multiset hash, so it
// never needs a walk over the whole spanner. The deterministic key-sorted
// diff contract of DESIGN.md §6 is what makes this replay well-defined;
// the pass *checks* it (inserted keys absent, removed keys present, both
// sides strictly ascending and in range) because the same function folds
// logged and shipped diffs, which are data, not invariants.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/cluster_spanner.hpp"
#include "util/types.hpp"

namespace parspan {

/// Hop distance exceeding the query limit (see SpannerSnapshot::distance).
inline constexpr uint32_t kSnapshotUnreached = static_cast<uint32_t>(-1);

/// The snapshot content checksum as a stable, serialization-grade function
/// of (n, stretch, version, canonical key set), computed from scratch: a
/// multiset hash Σ splitmix64(key) mod 2^64, with n, stretch, version and
/// the key count folded in (DESIGN.md §10.1). Order-independent by design —
/// the version-to-version patch maintains it in O(|diff|) — so the order
/// and uniqueness of a key list are proven where its bytes are parsed (the
/// WAL, checkpoint and ship-frame decoders), not here. Every input is
/// widened to a fixed-width integer before mixing, so the value is
/// independent of the platform's size_t width and byte order. The formula
/// is FROZEN — checked-in logs and the golden-value test break if it
/// changes.
uint64_t snapshot_content_checksum(uint64_t n, uint32_t stretch,
                                   uint64_t version,
                                   std::span<const EdgeKey> keys);

class SpannerSnapshot {
 public:
  using Ptr = std::shared_ptr<const SpannerSnapshot>;

  /// Version 0 snapshot from a freshly constructed structure's exported
  /// spanner edge set (the only full export the service ever does).
  static Ptr initial(size_t n, const std::vector<Edge>& spanner_edges,
                     uint32_t stretch);

  /// Version prev.version()+1: prev patched with `rem` removed, then `add`
  /// inserted, in one checked pass of O(n + |spanner|) memcpy plus
  /// O(|diff| log |diff|) merge work (DESIGN.md §8.2). nullptr when the
  /// diff violates the §6 contract: a side not strictly ascending, a key
  /// out of range or a self-loop, a removed key absent from prev, or an
  /// inserted key present after the removals. This is the one publish
  /// path — the writer, the follower and both recovery replays fold
  /// every diff through it.
  static Ptr apply(const SpannerSnapshot& prev, std::span<const EdgeKey> add,
                   std::span<const EdgeKey> rem);

  /// apply() on a backend's SpannerDiff (its sides' canonical keys).
  static Ptr apply(const SpannerSnapshot& prev, const SpannerDiff& diff);

  /// Rebuilds a snapshot from recovered state: sorted-unique canonical
  /// `keys` at an arbitrary `version` (the durability layer's recovery
  /// path, DESIGN.md §10.4). Precondition: keys ascending, unique, in
  /// range — the decoders prove it before anyone calls this.
  static Ptr restore(size_t n, uint32_t stretch, uint64_t version,
                     std::span<const EdgeKey> keys);

  uint64_t version() const { return version_; }
  uint32_t stretch() const { return stretch_; }
  size_t num_vertices() const { return n_; }
  size_t num_edges() const { return nbr_.size() / 2; }

  /// True iff {u, v} is a spanner edge: binary search in the ascending
  /// neighbor list of the smaller-degree endpoint, O(log deg).
  bool has_edge(VertexId u, VertexId v) const;

  /// Neighbors of v in the spanner, ascending; empty for out-of-range v
  /// (like every other query here, tolerant of malformed client ids).
  /// Valid as long as the snapshot is alive (readers hold it via
  /// shared_ptr).
  std::span<const VertexId> neighbors(VertexId v) const {
    if (v >= n_) return {};
    return {nbr_.data() + offsets_[v], nbr_.data() + offsets_[v + 1]};
  }
  size_t degree(VertexId v) const {
    return v < n_ ? offsets_[v + 1] - offsets_[v] : 0;
  }

  /// Sorted canonical keys of the spanner edge set, derived by one O(n +
  /// |spanner|) walk of the adjacency (checkpoints, recovery rebase and
  /// export — never the per-batch path). Bind the result before taking
  /// iterators: every call builds a fresh vector.
  std::vector<EdgeKey> edge_keys() const;

  /// Materializes the edge set (ascending by canonical key).
  std::vector<Edge> edges() const;

  /// Bounded-BFS hop distance from u to v in the spanner, or
  /// kSnapshotUnreached if it exceeds `limit` hops. Allocation-light
  /// (scratch is proportional to the explored ball) and const — safe to
  /// call from many reader threads at once.
  uint32_t distance(VertexId u, VertexId v, uint32_t limit) const;

  /// distance() bounded by the structure's stretch guarantee: for any
  /// *graph* edge (u, v) the spanner promises hops <= stretch, so a
  /// kSnapshotUnreached here witnesses a stretch violation (or that (u, v)
  /// is not a graph edge).
  uint32_t stretch_of(VertexId u, VertexId v) const {
    return distance(u, v, stretch_);
  }

  /// Content checksum fixed at construction (snapshot_content_checksum of
  /// this version's key set, maintained incrementally). Readers re-derive
  /// it with consistent() to prove the view they see is the one the writer
  /// built (the torn-publish oracle of the concurrency tests).
  uint64_t checksum() const { return checksum_; }

  /// Full structural audit, O(spanner log deg): offsets monotone over n
  /// vertices; every neighbor list strictly ascending, in range, free of
  /// self-loops and symmetric; the arc count twice num_edges(); and the
  /// checksum recomputed from scratch. For tests and debug readers.
  bool consistent() const;

 private:
  SpannerSnapshot() = default;

  /// Seals a snapshot whose adjacency is built: records the multiset sum
  /// and derives the checksum from it.
  void seal(uint64_t key_sum);

  uint64_t version_ = 0;
  uint32_t stretch_ = 0;
  size_t n_ = 0;
  std::vector<uint32_t> offsets_;  // n + 1
  std::vector<VertexId> nbr_;      // symmetric, ascending per vertex
  uint64_t key_sum_ = 0;           // Σ splitmix64(key) mod 2^64
  uint64_t checksum_ = 0;
};

}  // namespace parspan
