#include "replication/follower.hpp"

#include "service/spanner_snapshot.hpp"

namespace parspan {

uint64_t read_epoch_sidecar(Fs& fs, const std::string& dir) {
  std::vector<uint8_t> b;
  if (!fs.read_file(dir + "/epoch", &b) || b.size() != 12) return 0;
  if (crc32c(b.data(), 8) != get_le32(b.data() + 8)) return 0;
  return get_le64(b.data());
}

void write_epoch_sidecar(Fs& fs, const std::string& dir, uint64_t epoch) {
  std::vector<uint8_t> b;
  put_le64(b, epoch);
  put_le32(b, crc32c(b.data(), 8));
  std::unique_ptr<FsFile> f = fs.create(dir + "/epoch");
  if (f != nullptr && f->append(b.data(), b.size())) f->sync();
}

FollowerReplica::FollowerReplica(std::shared_ptr<Fs> fs, std::string dir,
                                 const DurabilityOptions& opts,
                                 std::shared_ptr<ReplicationTransport> transport)
    : fs_(std::move(fs)), dir_(std::move(dir)), opts_(opts),
      transport_(std::move(transport)),
      store_(std::make_unique<SnapshotStore>()) {}

std::unique_ptr<FollowerReplica> FollowerReplica::recover(
    std::shared_ptr<Fs> fs, std::string dir, const DurabilityOptions& opts,
    std::shared_ptr<ReplicationTransport> transport) {
  auto f = std::make_unique<FollowerReplica>(fs, dir, opts,
                                             std::move(transport));
  auto rec = ShardDurability::recover(std::move(fs), std::move(dir), opts);
  if (!rec) return f;  // nothing durable — a fresh follower that resyncs

  f->have_state_ = true;
  f->n_ = rec->n;
  f->stretch_ = rec->stretch;
  f->version_ = rec->version;
  f->checksum_ = rec->checksum;
  f->dur_ = std::move(rec->dur);
  f->epoch_ = read_epoch_sidecar(*f->fs_, f->dir_);
  // Compact immediately (the recovery epilogue discipline of §10.4): a
  // follower that crash-loops must not accumulate log.
  if (f->dur_ != nullptr)
    f->dur_->checkpoint_now(f->version_, f->checksum_,
                            rec->snapshot->edge_keys());
  f->store_->publish(std::move(rec->snapshot));
  return f;
}

void FollowerReplica::adopt_snapshot(uint64_t frame_epoch, DurableState state) {
  const bool epoch_changed = frame_epoch != epoch_;
  n_ = state.n;
  stretch_ = state.stretch;
  version_ = state.version;
  checksum_ = state.checksum;
  epoch_ = frame_epoch;
  have_state_ = true;
  need_snapshot_ = false;
  // A fresh genesis for the follower's own chain: create() wipes the old
  // ckpt/wal files, so nothing from a previous epoch (or a previous
  // incarnation's divergent tail) can win a later recovery.
  dur_ = ShardDurability::create(fs_, dir_, opts_, n_, stretch_, version_,
                                 state.snap_keys, checksum_,
                                 std::move(state.graph_keys));
  write_epoch_sidecar(*fs_, dir_, epoch_);
  if (epoch_changed || store_->acquire() == nullptr) {
    // Rebase epochs reuse version numbers with different content — start a
    // fresh publish chain rather than mixing them (see header).
    store_ = std::make_unique<SnapshotStore>();
  }
  store_->publish(
      SpannerSnapshot::restore(n_, stretch_, version_, state.snap_keys));
  ++resyncs_;
}

void FollowerReplica::apply_record(uint64_t frame_epoch, const WalRecord& rec) {
  if (frame_epoch != epoch_ || !have_state_) {
    // A record from the future epoch is unusable without its rebase
    // snapshot; ask for one. (Past epochs were already dropped in pump().)
    need_snapshot_ = true;
    return;
  }
  if (rec.version <= version_) {
    ++duplicates_;  // re-ship overlap or transport duplicate — idempotent
    return;
  }
  // A record reordered ahead of its predecessor waits: the re-ship closes
  // the gap.
  if (rec.version != version_ + 1) return;
  // The check and the publish are one pass: the patched snapshot is what
  // gets served, with no second build from a key list.
  SpannerSnapshot::Ptr next = SpannerSnapshot::apply(
      *store_->acquire(), rec.diff_inserted, rec.diff_removed);
  if (next == nullptr || next->checksum() != rec.checksum) {
    // CRC-valid but semantically wrong (or checksum mismatch): the
    // follower's chain cannot extend this way. Explicit reject + resync —
    // the §11 "never silent divergence" guarantee.
    ++rejects_;
    need_snapshot_ = true;
    return;
  }
  version_ = rec.version;
  checksum_ = rec.checksum;
  if (dur_ != nullptr) {
    dur_->log_record(rec);
    dur_->maybe_checkpoint(*next);
  }
  store_->publish(std::move(next));
  ++records_applied_;
}

void FollowerReplica::pump() {
  while (auto frame = transport_->recv_frame()) {
    auto parsed = parse_ship_frame(*frame);
    if (!parsed) {
      ++rejects_;  // mangled on the wire; the unchanged cursor re-ships it
      continue;
    }
    if (parsed->epoch < epoch_) {
      ++stale_drops_;  // a deposed leader's frame — dead on arrival
      continue;
    }
    if (parsed->kind == WireKind::kSnapshot) {
      if (parsed->epoch == epoch_ && have_state_ &&
          parsed->state.version <= version_) {
        ++duplicates_;  // never adopt backwards within an epoch
        continue;
      }
      // Trust nothing: the checksum must re-derive from the shipped keys
      // (which the frame decoder proved ascending and in range) before
      // anything is built from them or this state becomes ours.
      if (snapshot_content_checksum(parsed->state.n, parsed->state.stretch,
                                    parsed->state.version,
                                    parsed->state.snap_keys) !=
          parsed->state.checksum) {
        ++rejects_;
        continue;
      }
      adopt_snapshot(parsed->epoch, std::move(parsed->state));
    } else {
      apply_record(parsed->epoch, parsed->rec);
    }
  }
  ReplicaCursor c;
  c.epoch = epoch_;
  c.version = version_;
  c.need_snapshot = !have_state_ || need_snapshot_;
  transport_->send_cursor(c);
}

}  // namespace parspan
