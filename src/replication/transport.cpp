#include "replication/transport.hpp"

#include <cassert>

#include "util/types.hpp"

namespace parspan {

namespace {

// Ship-frame header: type u8 | epoch u64 | payload_len u32 | crc32c u32.
constexpr size_t kShipHeaderSize = 1 + 8 + 4 + 4;
// Snapshot payload prefix: n u64 | stretch u32 | version u64 | checksum
// u64 | snap_cnt u32 | graph_cnt u32.
constexpr size_t kSnapshotFixedSize = 8 + 4 + 8 + 8 + 4 + 4;

// Thin adapters over the shared durability/frame.hpp ascending-list codec
// (the ship format predates the extraction but used the identical layout).
void encode_key_list(std::span<const EdgeKey> keys, std::vector<uint8_t>* out) {
  const size_t at = out->size();
  out->resize(at + ascending_list_bound(keys.size()));
  uint8_t* end = encode_ascending_list(keys.data(), keys.size(),
                                       out->data() + at);
  out->resize(size_t(end - out->data()));
}

bool decode_key_list(const uint8_t** p, const uint8_t* end, uint64_t cnt,
                     std::vector<EdgeKey>* out) {
  return decode_ascending_list(p, end, cnt, out);
}

// Canonical, in-range edge keys only: a snapshot frame's key lists define
// a graph over n vertices, and adopting out-of-range keys would poison the
// follower's own checkpoint chain.
bool keys_in_range(std::span<const EdgeKey> keys, uint64_t n) {
  for (EdgeKey k : keys)
    if (!valid_edge_key(k, n)) return false;
  return true;
}

ShipFrame finish_frame(FrameType type, uint64_t epoch,
                       std::vector<uint8_t> payload) {
  ShipFrame f;
  f.bytes.reserve(kShipHeaderSize + payload.size());
  f.bytes.push_back(static_cast<uint8_t>(type));
  put_le64(f.bytes, epoch);
  put_le32(f.bytes, static_cast<uint32_t>(payload.size()));
  // The CRC covers type + epoch + payload (seeded by the 9 header bytes):
  // an unauthenticated epoch would let one flipped bit forge a frame from
  // a phantom future epoch and wedge the follower there. The length field
  // needs no coverage — parse_frame cross-checks it against the actual
  // byte count.
  uint32_t seed = crc32c(f.bytes.data(), 9);
  put_le32(f.bytes, crc32c(payload.data(), payload.size(), seed));
  f.bytes.insert(f.bytes.end(), payload.begin(), payload.end());
  return f;
}

}  // namespace

ShipFrame make_record_frame(uint64_t epoch, const WalRecord& rec) {
  return finish_frame(FrameType::kRecord, epoch, encode_wal_record(rec));
}

ShipFrame make_snapshot_frame(uint64_t epoch, const DurableState& state) {
  std::vector<uint8_t> payload;
  payload.reserve(kSnapshotFixedSize +
                  2 * (state.snap_keys.size() + state.graph_keys.size()));
  put_le64(payload, state.n);
  put_le32(payload, state.stretch);
  put_le64(payload, state.version);
  put_le64(payload, state.checksum);
  put_le32(payload, static_cast<uint32_t>(state.snap_keys.size()));
  put_le32(payload, static_cast<uint32_t>(state.graph_keys.size()));
  encode_key_list(state.snap_keys, &payload);
  encode_key_list(state.graph_keys, &payload);
  return finish_frame(FrameType::kSnapshot, epoch, std::move(payload));
}

std::optional<ParsedFrame> parse_frame(const ShipFrame& frame) {
  const std::vector<uint8_t>& b = frame.bytes;
  if (b.size() < kShipHeaderSize) return std::nullopt;
  ParsedFrame out;
  if (b[0] != static_cast<uint8_t>(FrameType::kSnapshot) &&
      b[0] != static_cast<uint8_t>(FrameType::kRecord))
    return std::nullopt;
  out.type = static_cast<FrameType>(b[0]);
  out.epoch = get_le64(b.data() + 1);
  const uint32_t len = get_le32(b.data() + 9);
  const uint32_t crc = get_le32(b.data() + 13);
  // Exact length: a truncated OR padded frame is malformed, full stop.
  if (b.size() - kShipHeaderSize != len) return std::nullopt;
  const uint8_t* payload = b.data() + kShipHeaderSize;
  if (crc32c(payload, len, crc32c(b.data(), 9)) != crc) return std::nullopt;

  if (out.type == FrameType::kRecord) {
    if (!decode_wal_record(payload, len, &out.rec)) return std::nullopt;
    return out;
  }

  if (len < kSnapshotFixedSize) return std::nullopt;
  DurableState& s = out.state;
  s.n = get_le64(payload);
  s.stretch = get_le32(payload + 8);
  s.version = get_le64(payload + 12);
  s.checksum = get_le64(payload + 20);
  const uint64_t snap_cnt = get_le32(payload + 28);
  const uint64_t graph_cnt = get_le32(payload + 32);
  const uint8_t* p = payload + kSnapshotFixedSize;
  const uint8_t* end = payload + len;
  if (!decode_key_list(&p, end, snap_cnt, &s.snap_keys) ||
      !decode_key_list(&p, end, graph_cnt, &s.graph_keys) || p != end)
    return std::nullopt;
  if (!keys_in_range(s.snap_keys, s.n) || !keys_in_range(s.graph_keys, s.n))
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
