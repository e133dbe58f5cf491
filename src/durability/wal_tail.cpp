#include "durability/wal_tail.hpp"

#include <algorithm>

#include "durability/checkpoint.hpp"
#include "durability/durable_shard.hpp"

namespace parspan {

std::optional<DurableState> read_durable_state(Fs& fs, const std::string& dir,
                                               uint64_t max_version) {
  // Newest verified checkpoint at/below the cap. A checkpoint above the
  // cap is unusable even if valid: state cannot be rolled backward, only
  // replayed forward.
  std::vector<uint64_t> ckpts;
  for (const std::string& name : fs.list(dir))
    if (auto v = parse_checkpoint_file_name(name); v && *v <= max_version)
      ckpts.push_back(*v);
  std::sort(ckpts.begin(), ckpts.end());
  std::optional<Checkpoint> chosen;
  while (!ckpts.empty()) {
    auto c = load_checkpoint(fs, dir, ckpts.back());
    if (c && snapshot_content_checksum(c->n, c->stretch, c->version,
                                       c->snap_keys) == c->snapshot_checksum) {
      chosen = std::move(c);
      break;
    }
    ckpts.pop_back();  // rotten — skip, but leave the file alone
  }
  if (!chosen) return std::nullopt;

  DurableState out;
  out.n = chosen->n;
  out.stretch = chosen->stretch;
  out.version = chosen->version;
  out.checksum = chosen->snapshot_checksum;
  SpannerSnapshot::Ptr snap = SpannerSnapshot::restore(
      out.n, out.stretch, out.version, chosen->snap_keys);

  GraphShadow graph(std::move(chosen->graph_keys));

  // Same replay walk as ShardDurability::recover, clamped at the cap.
  std::vector<uint64_t> bases;
  for (const std::string& name : fs.list(dir))
    if (auto b = parse_wal_file_name(name); b && *b >= out.version)
      bases.push_back(*b);
  std::sort(bases.begin(), bases.end());
  bool stop = false;
  for (uint64_t base : bases) {
    if (stop || out.version >= max_version) break;
    WalSegment seg = read_wal_segment(fs, dir + "/" + wal_file_name(base));
    if (!seg.header_ok) break;
    if (seg.base_version > out.version) break;  // gap: later epochs unusable
    for (WalRecord& rec : seg.records) {
      if (rec.version <= out.version) continue;
      if (rec.version > max_version) {
        stop = true;
        break;
      }
      if (rec.version != out.version + 1) {
        stop = true;
        break;
      }
      SpannerSnapshot::Ptr next =
          SpannerSnapshot::apply(*snap, rec.diff_inserted, rec.diff_removed);
      if (next == nullptr || next->checksum() != rec.checksum) {
        stop = true;
        break;
      }
      snap = std::move(next);
      graph.fold(rec, out.n);
      out.version = rec.version;
      out.checksum = rec.checksum;
    }
    if (seg.truncated_tail) break;
  }
  out.snap_keys = snap->edge_keys();
  out.graph_keys = graph.keys();
  return out;
}

bool read_wal_range(Fs& fs, const std::string& dir, uint64_t from, uint64_t to,
                    std::vector<WalRecord>* out) {
  out->clear();
  if (from >= to) return from == to;
  // Anchor at the newest segment whose base covers `from`: segment base b
  // holds versions (b, next-base]. A missing anchor means the history
  // below `from` was GC'd past the ack point.
  std::vector<uint64_t> bases;
  for (const std::string& name : fs.list(dir))
    if (auto b = parse_wal_file_name(name)) bases.push_back(*b);
  std::sort(bases.begin(), bases.end());
  auto it = std::upper_bound(bases.begin(), bases.end(), from);
  if (it == bases.begin()) return false;
  --it;

  uint64_t cur = from;
  for (; it != bases.end() && cur < to; ++it) {
    WalSegment seg = read_wal_segment(fs, dir + "/" + wal_file_name(*it));
    if (!seg.header_ok || seg.base_version > cur) return false;
    for (WalRecord& rec : seg.records) {
      if (rec.version <= cur) continue;
      if (rec.version != cur + 1) return false;
      cur = rec.version;
      out->push_back(std::move(rec));
      if (cur == to) return true;
    }
    // A torn tail mid-chain cannot be bridged by a later segment: its
    // missing records are gone (`cur < to` here since we didn't return).
    if (seg.truncated_tail) return false;
  }
  return cur == to;
}

}  // namespace parspan
