#include "durability/durable_shard.hpp"

#include <algorithm>
#include <cstdio>

#include "durability/wal_tail.hpp"

namespace parspan {

void GraphShadow::fold(const WalRecord& rec, uint64_t n) {
  for (EdgeKey k : rec.input_deleted)
    if (valid_edge_key(k, n)) delta_[k] = false;
  for (EdgeKey k : rec.input_inserted)
    if (valid_edge_key(k, n)) delta_[k] = true;
}

namespace {

// First position in the ascending [first, last) not less than k, found by
// galloping out from `first`: O(log distance), so a merge that advances
// through a long list in short hops stays linear in the hops.
const EdgeKey* gallop_lower_bound(const EdgeKey* first, const EdgeKey* last,
                                  EdgeKey k) {
  const size_t len = size_t(last - first);
  size_t bound = 1;
  while (bound < len && first[bound] < k) bound *= 2;
  return std::lower_bound(first + bound / 2, first + std::min(bound, len), k);
}

}  // namespace

std::vector<EdgeKey> GraphShadow::keys() const {
  std::vector<EdgeKey> ins, del;
  delta_.for_each([&](EdgeKey k, bool present) {
    (present ? ins : del).push_back(k);
  });
  std::sort(ins.begin(), ins.end());
  std::sort(del.begin(), del.end());
  // The changes are few next to the base: visit them in key order, copy
  // the base's run up to each one whole, and gallop to the next position.
  std::vector<EdgeKey> out;
  out.reserve(base_.size() + ins.size());
  const EdgeKey* it = base_.data();
  const EdgeKey* end = it + base_.size();
  size_t i = 0, j = 0;
  while (i < ins.size() || j < del.size()) {
    const bool insert = j == del.size() || (i < ins.size() && ins[i] < del[j]);
    const EdgeKey k = insert ? ins[i++] : del[j++];
    const EdgeKey* pos = gallop_lower_bound(it, end, k);
    out.insert(out.end(), it, pos);
    it = pos;
    if (it != end && *it == k) ++it;  // superseded by the change
    if (insert) out.push_back(k);
  }
  out.insert(out.end(), it, end);
  return out;
}

ShardDurability::ShardDurability(std::shared_ptr<Fs> fs, std::string dir,
                                 const DurabilityOptions& opts, uint64_t n,
                                 uint32_t stretch)
    : fs_(std::move(fs)), dir_(std::move(dir)), opts_(opts), n_(n),
      stretch_(stretch) {}

bool ShardDurability::open_segment(uint64_t base_version) {
  wal_ = std::make_unique<WalWriter>(*fs_, dir_ + "/" + wal_file_name(base_version),
                                     base_version, opts_);
  publish_durable_version();
  if (wal_->failed()) {
    failed_.store(true, std::memory_order_release);
    return false;
  }
  return true;
}

std::unique_ptr<ShardDurability> ShardDurability::create(
    std::shared_ptr<Fs> fs, std::string dir, const DurabilityOptions& opts,
    uint64_t n, uint32_t stretch, uint64_t version,
    std::span<const EdgeKey> snap_keys, uint64_t snapshot_checksum,
    std::vector<EdgeKey> graph_keys) {
  if (!fs->mkdirs(dir)) return nullptr;
  // A fresh shard must not inherit another incarnation's files: a stale
  // higher-versioned checkpoint would win the next recovery.
  for (const std::string& name : fs->list(dir))
    if (parse_checkpoint_file_name(name) || parse_wal_file_name(name) ||
        name == "ckpt.tmp")
      fs->remove(dir + "/" + name);

  auto d = std::unique_ptr<ShardDurability>(
      new ShardDurability(std::move(fs), std::move(dir), opts, n, stretch));
  d->graph_ = GraphShadow(graph_keys);

  DurableState ckpt;
  ckpt.version = version;
  ckpt.n = n;
  ckpt.stretch = stretch;
  ckpt.checksum = snapshot_checksum;
  ckpt.snap_keys.assign(snap_keys.begin(), snap_keys.end());
  ckpt.graph_keys = std::move(graph_keys);
  if (!write_checkpoint(*d->fs_, d->dir_, ckpt)) return nullptr;
  d->last_ckpt_version_ = version;
  d->ckpt_versions_.push_back(version);
  if (!d->open_segment(version)) return nullptr;
  return d;
}

bool ShardDurability::log_record(const WalRecord& rec) {
  // The graph shadow folds the input even when the append fails: it must
  // track the BACKEND (which applied the batch regardless), so a later
  // recovery-epilogue checkpoint — if durability ever came back — would
  // not lie. With sticky failure it simply stays consistent in memory.
  graph_.fold(rec, n_);
  if (failed()) return false;
  const bool ok = wal_->append(rec);
  publish_durable_version();  // the append may have synced
  if (!ok) {
    failed_.store(true, std::memory_order_release);
    return false;
  }
  ++records_logged_;
  ++records_since_ckpt_;
  return true;
}

bool ShardDurability::checkpoint_due() const {
  return !failed() && opts_.checkpoint_every != 0 &&
         records_since_ckpt_ >= opts_.checkpoint_every;
}

bool ShardDurability::maybe_checkpoint(uint64_t version,
                                       uint64_t snapshot_checksum,
                                       std::span<const EdgeKey> snap_keys) {
  if (!checkpoint_due()) return !failed();
  return checkpoint_now(version, snapshot_checksum,
                        std::vector<EdgeKey>(snap_keys.begin(), snap_keys.end()));
}

bool ShardDurability::maybe_checkpoint(const SpannerSnapshot& snap) {
  if (!checkpoint_due()) return !failed();
  return checkpoint_now(snap.version(), snap.checksum(), snap.edge_keys());
}

bool ShardDurability::checkpoint_now(uint64_t version,
                                     uint64_t snapshot_checksum,
                                     std::vector<EdgeKey> snap_keys) {
  if (failed()) return false;
  // Complete the outgoing segment (write out + sync staged frames) before
  // superseding it: a fallback replay from an OLDER retained checkpoint
  // must be able to walk this segment's full record chain up to `version`.
  if (!wal_->sync()) {
    failed_.store(true, std::memory_order_release);
    return false;
  }
  publish_durable_version();
  DurableState ckpt;
  ckpt.version = version;
  ckpt.n = n_;
  ckpt.stretch = stretch_;
  ckpt.checksum = snapshot_checksum;
  ckpt.snap_keys = std::move(snap_keys);
  ckpt.graph_keys = graph_.keys();
  if (!write_checkpoint(*fs_, dir_, ckpt)) {
    failed_.store(true, std::memory_order_release);
    return false;
  }
  graph_ = GraphShadow(std::move(ckpt.graph_keys));  // the new base
  last_ckpt_version_ = version;
  ckpt_versions_.push_back(version);
  records_since_ckpt_ = 0;
  // Rotate BEFORE GC: the new segment must exist before anything old goes.
  if (!open_segment(version)) return false;
  gc_old_files();
  return true;
}

void ShardDurability::gc_old_files() {
  // Best-effort: a failed remove leaves extra files recovery ignores.
  if (ckpt_versions_.size() <= opts_.keep_checkpoints) return;
  size_t drop = ckpt_versions_.size() - std::max<uint32_t>(1, opts_.keep_checkpoints);
  uint64_t oldest_kept = ckpt_versions_[drop];
  for (size_t i = 0; i < drop; ++i)
    fs_->remove(dir_ + "/" + checkpoint_file_name(ckpt_versions_[i]));
  ckpt_versions_.erase(ckpt_versions_.begin(), ckpt_versions_.begin() + drop);
  for (const std::string& name : fs_->list(dir_))
    if (auto base = parse_wal_file_name(name); base && *base < oldest_kept)
      fs_->remove(dir_ + "/" + name);
}

void ShardDurability::publish_durable_version() {
  uint64_t v = last_ckpt_version_;
  if (wal_ != nullptr) v = std::max(v, wal_->synced_version());
  durable_version_.store(v, std::memory_order_release);
}

std::optional<ShardDurability::Recovered> ShardDurability::recover(
    std::shared_ptr<Fs> fs, std::string dir, const DurabilityOptions& opts) {
  VerifiedChain chain = fold_verified_chain(*fs, dir, UINT64_MAX);
  // A rotten checkpoint must not shadow the good one next time.
  for (uint64_t v : chain.rotten)
    fs->remove(dir + "/" + checkpoint_file_name(v));
  if (chain.snapshot == nullptr) return std::nullopt;

  Recovered out;
  out.n = chain.snapshot->num_vertices();
  out.stretch = chain.snapshot->stretch();
  out.version = chain.snapshot->version();
  out.checksum = chain.snapshot->checksum();
  out.snapshot = std::move(chain.snapshot);
  out.graph_keys = chain.graph.keys();
  out.replayed_records = chain.replayed_records;
  out.tail_truncated = chain.tail_truncated;

  auto d = std::unique_ptr<ShardDurability>(new ShardDurability(
      std::move(fs), std::move(dir), opts, out.n, out.stretch));
  d->graph_ = std::move(chain.graph);
  d->last_ckpt_version_ = chain.checkpoints.back();
  d->ckpt_versions_ = std::move(chain.checkpoints);
  d->records_since_ckpt_ = out.version - d->last_ckpt_version_;
  d->open_segment(out.version);  // failure leaves d sticky-failed; state is
                                 // still good — the caller decides.
  out.dur = std::move(d);
  return out;
}

}  // namespace parspan
