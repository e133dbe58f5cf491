#include "durability/wal_tail.hpp"

#include <algorithm>

namespace parspan {

namespace {

// The segment walk from `from` up to `cap` (see the header): hands each
// next version to `accept` and returns the version reached. `accept`
// returning false rejects the record, which ends its segment like a torn
// frame. *torn says whether the chain ended at such a cut.
template <typename Accept>
uint64_t walk_segments(Fs& fs, const std::string& dir, uint64_t from,
                       uint64_t cap, Accept&& accept, bool* torn) {
  std::vector<uint64_t> bases;
  for (const std::string& name : fs.list(dir))
    if (auto b = parse_wal_file_name(name)) bases.push_back(*b);
  std::sort(bases.begin(), bases.end());
  // Segment base b holds versions (b, next base]: anchor at the newest
  // base <= from. Without one (history GC'd) the loop never starts.
  auto it = std::upper_bound(bases.begin(), bases.end(), from);
  if (it != bases.begin()) --it;
  uint64_t cur = from;
  *torn = false;
  for (; it != bases.end() && *it <= cur && cur < cap; ++it) {
    WalSegment seg = read_wal_segment(fs, dir + "/" + wal_file_name(*it));
    *torn = !seg.header_ok || seg.truncated_tail;
    for (WalRecord& rec : seg.records) {
      if (rec.version <= cur) continue;
      if (rec.version != cur + 1 || !accept(rec)) {
        *torn = true;
        break;
      }
      if (++cur == cap) break;
    }
  }
  *torn = *torn && cur < cap;
  return cur;
}

}  // namespace

VerifiedChain fold_verified_chain(Fs& fs, const std::string& dir,
                                  uint64_t cap) {
  // The checkpoint choice. One above the cap is unusable even if valid:
  // state cannot be rolled backward, only replayed forward.
  VerifiedChain out;
  for (const std::string& name : fs.list(dir))
    if (auto v = parse_checkpoint_file_name(name); v && *v <= cap)
      out.checkpoints.push_back(*v);
  std::sort(out.checkpoints.begin(), out.checkpoints.end());
  std::optional<DurableState> c;
  for (; !out.checkpoints.empty(); out.checkpoints.pop_back()) {
    c = load_checkpoint(fs, dir, out.checkpoints.back());
    if (c && snapshot_content_checksum(c->n, c->stretch, c->version,
                                       c->snap_keys) == c->checksum)
      break;
    c.reset();
    out.rotten.push_back(out.checkpoints.back());
  }
  if (!c) return out;
  SpannerSnapshot::Ptr snap =
      SpannerSnapshot::restore(c->n, c->stretch, c->version, c->snap_keys);
  out.graph = GraphShadow(std::move(c->graph_keys));
  // Every record passes the checked patch (§6 preconditions) and must
  // reproduce its logged content checksum before its version is accepted.
  walk_segments(
      fs, dir, c->version, cap,
      [&](const WalRecord& rec) {
        SpannerSnapshot::Ptr next =
            SpannerSnapshot::apply(*snap, rec.diff_inserted, rec.diff_removed);
        if (next == nullptr || next->checksum() != rec.checksum) return false;
        snap = std::move(next);
        out.graph.fold(rec, c->n);
        ++out.replayed_records;
        return true;
      },
      &out.tail_truncated);
  out.snapshot = std::move(snap);
  return out;
}

std::optional<DurableState> read_durable_state(Fs& fs, const std::string& dir,
                                               uint64_t max_version) {
  VerifiedChain chain = fold_verified_chain(fs, dir, max_version);
  if (chain.snapshot == nullptr) return std::nullopt;
  const SpannerSnapshot& s = *chain.snapshot;
  DurableState out;
  out.n = s.num_vertices();
  out.stretch = s.stretch();
  out.version = s.version();
  out.checksum = s.checksum();
  out.snap_keys = s.edge_keys();
  out.graph_keys = chain.graph.keys();
  return out;
}

bool read_wal_range(Fs& fs, const std::string& dir, uint64_t from, uint64_t to,
                    std::vector<WalRecord>* out) {
  out->clear();
  if (from >= to) return from == to;
  bool torn = false;
  return walk_segments(fs, dir, from, to,
                       [&](WalRecord& rec) {
                         out->push_back(std::move(rec));
                         return true;
                       },
                       &torn) == to;
}

}  // namespace parspan
