#include "replication/transport.hpp"

#include <span>

#include "util/types.hpp"

namespace parspan {

namespace {

// Ship-frame payload prefix: kind u8 | epoch u64; the body follows.
constexpr size_t kShipPrefixSize = 1 + 8;
constexpr size_t kShipBodyAt = kFrameHeaderSize + kShipPrefixSize;
// Snapshot body prefix: n u64 | stretch u32 | version u64 | checksum u64 |
// snap_cnt u32 | graph_cnt u32.
constexpr size_t kSnapshotFixedSize = 8 + 4 + 8 + 8 + 4 + 4;

// Sizes the frame for a body of at most `body_bound` bytes, writes kind +
// epoch, and returns where the body goes. The body is encoded in place,
// then seal_ship() trims and seals: the CRC covers kind + epoch + body.
uint8_t* begin_ship(ShipFrame& f, WireKind kind, uint64_t epoch,
                    size_t body_bound) {
  f.bytes.resize(kShipBodyAt + body_bound);
  f.bytes[kFrameHeaderSize] = static_cast<uint8_t>(kind);
  store_le64(f.bytes.data() + kFrameHeaderSize + 1, epoch);
  return f.bytes.data() + kShipBodyAt;
}

void seal_ship(ShipFrame& f, const uint8_t* body_end) {
  f.bytes.resize(size_t(body_end - f.bytes.data()));
  seal_frame(f.bytes.data(), f.bytes.size() - kFrameHeaderSize);
}

}  // namespace

ShipFrame make_record_frame(uint64_t epoch, const WalRecord& rec) {
  ShipFrame f;
  uint8_t* body = begin_ship(f, WireKind::kRecord, epoch,
                             wal_record_payload_bound(rec));
  seal_ship(f, encode_wal_record_to(rec, body));
  return f;
}

ShipFrame make_snapshot_frame(uint64_t epoch, const DurableState& state) {
  ShipFrame f;
  uint8_t* p = begin_ship(
      f, WireKind::kSnapshot, epoch,
      kSnapshotFixedSize + ascending_list_bound(state.snap_keys.size() +
                                                state.graph_keys.size()));
  store_le64(p, state.n);
  store_le32(p + 8, state.stretch);
  store_le64(p + 12, state.version);
  store_le64(p + 20, state.checksum);
  store_le32(p + 28, static_cast<uint32_t>(state.snap_keys.size()));
  store_le32(p + 32, static_cast<uint32_t>(state.graph_keys.size()));
  p += kSnapshotFixedSize;
  p = encode_ascending_list(state.snap_keys.data(), state.snap_keys.size(), p);
  p = encode_ascending_list(state.graph_keys.data(), state.graph_keys.size(),
                            p);
  seal_ship(f, p);
  return f;
}

std::optional<ParsedFrame> parse_ship_frame(const ShipFrame& frame) {
  const std::vector<uint8_t>& b = frame.bytes;
  FrameView fv;
  // Exact length: a truncated OR padded frame is malformed, full stop.
  if (parse_frame(b.data(), b.size(), kMaxFramePayload, &fv) !=
          FrameParse::kOk ||
      fv.consumed != b.size() || fv.len < kShipPrefixSize)
    return std::nullopt;
  ParsedFrame out;
  if (fv.payload[0] != static_cast<uint8_t>(WireKind::kSnapshot) &&
      fv.payload[0] != static_cast<uint8_t>(WireKind::kRecord))
    return std::nullopt;
  out.kind = static_cast<WireKind>(fv.payload[0]);
  out.epoch = get_le64(fv.payload + 1);
  const uint8_t* body = fv.payload + kShipPrefixSize;
  const size_t len = fv.len - kShipPrefixSize;

  if (out.kind == WireKind::kRecord) {
    if (!decode_wal_record(body, len, &out.rec)) return std::nullopt;
    return out;
  }

  if (len < kSnapshotFixedSize) return std::nullopt;
  DurableState& s = out.state;
  s.n = get_le64(body);
  s.stretch = get_le32(body + 8);
  s.version = get_le64(body + 12);
  s.checksum = get_le64(body + 20);
  const uint64_t snap_cnt = get_le32(body + 28);
  const uint64_t graph_cnt = get_le32(body + 32);
  const uint8_t* p = body + kSnapshotFixedSize;
  const uint8_t* end = body + len;
  if (!decode_ascending_list(&p, end, snap_cnt, &s.snap_keys) ||
      !decode_ascending_list(&p, end, graph_cnt, &s.graph_keys) || p != end)
    return std::nullopt;
  // Canonical, in-range edge keys only: a snapshot frame's key lists define
  // a graph over n vertices, and adopting out-of-range keys would poison
  // the follower's own checkpoint chain.
  if (!valid_edge_keys(s.snap_keys, s.n) ||
      !valid_edge_keys(s.graph_keys, s.n))
    return std::nullopt;
  return out;
}

void ChannelTransport::send_frame(ShipFrame frame) {
  std::lock_guard<std::mutex> lk(mu_);
  frames_.push_back(std::move(frame));
}

std::optional<ShipFrame> ChannelTransport::recv_frame() {
  std::lock_guard<std::mutex> lk(mu_);
  if (frames_.empty()) return std::nullopt;
  ShipFrame f = std::move(frames_.front());
  frames_.pop_front();
  return f;
}

void ChannelTransport::send_cursor(const ReplicaCursor& cursor) {
  std::lock_guard<std::mutex> lk(mu_);
  cursors_.push_back(cursor);
}

std::optional<ReplicaCursor> ChannelTransport::recv_cursor() {
  std::lock_guard<std::mutex> lk(mu_);
  if (cursors_.empty()) return std::nullopt;
  ReplicaCursor c = cursors_.front();
  cursors_.pop_front();
  return c;
}

void FaultyTransport::mangle(ShipFrame& f) {
  if (!f.bytes.empty() && rng_.next_bool(plan_.truncate_p)) {
    f.bytes.resize(static_cast<size_t>(rng_.next_below(f.bytes.size())));
    ++stats_.frames_truncated;
  }
  if (!f.bytes.empty() && rng_.next_bool(plan_.bit_flip_p)) {
    size_t at = static_cast<size_t>(rng_.next_below(f.bytes.size()));
    f.bytes[at] ^= static_cast<uint8_t>(1u << rng_.next_below(8));
    ++stats_.frames_bit_flipped;
  }
}

void FaultyTransport::send_frame(ShipFrame frame) {
  std::lock_guard<std::mutex> lk(mu_);
  ++stats_.frames_sent;
  if (partitioned_ || rng_.next_bool(plan_.drop_p)) {
    ++stats_.frames_dropped;
    return;
  }
  mangle(frame);
  const bool dup = rng_.next_bool(plan_.dup_p);
  if (rng_.next_bool(plan_.reorder_p)) {
    // Held frames jump behind later traffic; recv_frame releases them when
    // the channel runs dry, so nothing is withheld forever.
    ++stats_.frames_reordered;
    if (dup) {
      ++stats_.frames_duplicated;
      held_.push_back(frame);
    }
    held_.push_back(std::move(frame));
    return;
  }
  if (dup) {
    ++stats_.frames_duplicated;
    inner_.send_frame(frame);
  }
  inner_.send_frame(std::move(frame));
}

void FaultyTransport::drain() {
  std::lock_guard<std::mutex> lk(mu_);
  stats_.frames_drained_late += held_.size();
  for (ShipFrame& h : held_) inner_.send_frame(std::move(h));
  held_.clear();
}

std::optional<ShipFrame> FaultyTransport::recv_frame() {
  std::lock_guard<std::mutex> lk(mu_);
  auto f = inner_.recv_frame();
  if (!f && !held_.empty()) {
    for (ShipFrame& h : held_) inner_.send_frame(std::move(h));
    held_.clear();
    f = inner_.recv_frame();
  }
  return f;
}

void FaultyTransport::send_cursor(const ReplicaCursor& cursor) {
  std::lock_guard<std::mutex> lk(mu_);
  ++stats_.cursors_sent;
  if (partitioned_ || rng_.next_bool(plan_.cursor_drop_p)) {
    ++stats_.cursors_dropped;
    return;
  }
  inner_.send_cursor(cursor);
}

std::optional<ReplicaCursor> FaultyTransport::recv_cursor() {
  std::lock_guard<std::mutex> lk(mu_);
  return inner_.recv_cursor();
}

}  // namespace parspan
