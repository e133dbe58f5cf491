#include "durability/wal.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdio>

namespace parspan {

namespace {

// Reflected CRC32C (Castagnoli, poly 0x82F63B78), slice-by-8. Software
// only on purpose: the value must be identical on every platform the log
// might be replayed on, and slicing reaches multi-GB/s — far above WAL
// bandwidth here — without hardware instructions. Table 0 is the plain
// byte-at-a-time table; table j holds the CRC advanced j further zero
// bytes, so eight lookups fold eight message bytes per step.
std::array<std::array<uint32_t, 256>, 8> make_crc32c_tables() {
  std::array<std::array<uint32_t, 256>, 8> t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1) ? 0x82F63B78u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i)
    for (int j = 1; j < 8; ++j)
      t[j][i] = t[0][t[j - 1][i] & 0xff] ^ (t[j - 1][i] >> 8);
  return t;
}

constexpr uint64_t kWalMagic = 0x32304C4157505350ULL;  // "PSPWAL02" LE
constexpr size_t kWalHeaderSize = 8 + 8 + 8 + 4;

}  // namespace

std::string wal_file_name(uint64_t base_version) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "wal-%016llx.log",
                static_cast<unsigned long long>(base_version));
  return buf;
}

std::optional<uint64_t> parse_wal_file_name(const std::string& name) {
  unsigned long long v = 0;
  char tail = 0;
  if (std::sscanf(name.c_str(), "wal-%16llx.lo%c", &v, &tail) != 2 ||
      tail != 'g' || name.size() != wal_file_name(v).size())
    return std::nullopt;
  return v;
}

uint32_t crc32c(const uint8_t* data, size_t len, uint32_t seed) {
  static const std::array<std::array<uint32_t, 256>, 8> t = make_crc32c_tables();
  uint32_t c = ~seed;
  while (len >= 8) {
    c = t[7][(c ^ data[0]) & 0xff] ^ t[6][((c >> 8) ^ data[1]) & 0xff] ^
        t[5][((c >> 16) ^ data[2]) & 0xff] ^ t[4][((c >> 24) ^ data[3]) & 0xff] ^
        t[3][data[4]] ^ t[2][data[5]] ^ t[1][data[6]] ^ t[0][data[7]];
    data += 8;
    len -= 8;
  }
  for (size_t i = 0; i < len; ++i) c = t[0][(c ^ data[i]) & 0xff] ^ (c >> 8);
  return ~c;
}

// Worst case: every varint takes its 10-byte maximum.
size_t wal_record_payload_bound(const WalRecord& rec) {
  return 1 + 8 + 8 + 16 +
         kMaxUvarintLen *
             (rec.input_deleted.size() + rec.input_inserted.size() +
              rec.diff_removed.size() + rec.diff_inserted.size());
}

uint8_t* encode_wal_record_to(const WalRecord& rec, uint8_t* p) {
  *p++ = rec.type;
  store_le64(p, rec.version);
  store_le64(p + 8, rec.checksum);
  p += 16;
  store_le32(p, uint32_t(rec.input_deleted.size()));
  store_le32(p + 4, uint32_t(rec.input_inserted.size()));
  store_le32(p + 8, uint32_t(rec.diff_removed.size()));
  store_le32(p + 12, uint32_t(rec.diff_inserted.size()));
  p += 16;
  for (const std::vector<EdgeKey>* v :
       {&rec.input_deleted, &rec.input_inserted, &rec.diff_removed,
        &rec.diff_inserted}) {
    assert(std::is_sorted(v->begin(), v->end()) &&
           std::adjacent_find(v->begin(), v->end()) == v->end() &&
           "WAL key lists must be strictly ascending");
    p = encode_ascending_list(v->data(), v->size(), p);
  }
  return p;
}

std::vector<uint8_t> encode_wal_record(const WalRecord& rec) {
  std::vector<uint8_t> out(wal_record_payload_bound(rec));
  uint8_t* end = encode_wal_record_to(rec, out.data());
  out.resize(size_t(end - out.data()));
  return out;
}

bool decode_wal_record(const uint8_t* data, size_t len, WalRecord* out) {
  if (len < 1 + 8 + 8 + 16) return false;
  const uint8_t* p = data;
  const uint8_t* end = data + len;
  out->type = *p++;
  if (out->type != WalRecord::kBatch && out->type != WalRecord::kRebase)
    return false;
  out->version = get_le64(p);
  p += 8;
  out->checksum = get_le64(p);
  p += 8;
  uint64_t counts[4];
  for (auto& c : counts) {
    c = get_le32(p);
    p += 4;
  }
  if (!decode_ascending_list(&p, end, counts[0], &out->input_deleted) ||
      !decode_ascending_list(&p, end, counts[1], &out->input_inserted) ||
      !decode_ascending_list(&p, end, counts[2], &out->diff_removed) ||
      !decode_ascending_list(&p, end, counts[3], &out->diff_inserted))
    return false;
  return p == end;  // trailing garbage is malformed, not ignorable
}

WalWriter::WalWriter(Fs& fs, const std::string& path, uint64_t base_version,
                     const WalWriterOptions& opts)
    : appended_version_(base_version),
      synced_version_(base_version),
      opts_(opts),
      last_sync_(std::chrono::steady_clock::now()) {
  file_ = fs.create(path);
  std::vector<uint8_t> hdr;
  hdr.reserve(kWalHeaderSize);
  put_le64(hdr, kWalMagic);
  put_le64(hdr, base_version);
  put_le64(hdr, 0);  // reserved
  put_le32(hdr, crc32c(hdr.data(), hdr.size()));
  if (file_ == nullptr || !file_->append(hdr.data(), hdr.size()) ||
      !file_->sync())
    failed_ = true;
}

namespace {
// Staged-frame bound before a forced write-out: keeps writer memory flat
// during long sync intervals without changing what a crash can lose.
constexpr size_t kFlushThreshold = 256 * 1024;
}  // namespace

bool WalWriter::append(const WalRecord& rec) {
  if (failed_) return false;
  // Frames are encoded in place at the tail of the staging buffer: no
  // per-record allocation, syscall, or payload copy on the ingest path.
  const size_t at = buffer_.size();
  buffer_.resize(at + kFrameHeaderSize + wal_record_payload_bound(rec));
  uint8_t* frame = buffer_.data() + at;
  uint8_t* end = encode_wal_record_to(rec, frame + kFrameHeaderSize);
  const size_t payload_size = size_t(end - frame) - kFrameHeaderSize;
  buffer_.resize(at + kFrameHeaderSize + payload_size);
  seal_frame(frame, payload_size);
  appended_version_ = rec.version;
  ++unsynced_records_;
  bool want_sync = false;
  switch (opts_.policy) {
    case FsyncPolicy::kEveryRecord:
      want_sync = true;
      break;
    case FsyncPolicy::kEveryN:
      want_sync = unsynced_records_ >= std::max<uint32_t>(1, opts_.every_n);
      break;
    case FsyncPolicy::kTimed:
      want_sync =
          std::chrono::steady_clock::now() - last_sync_ >= opts_.interval;
      break;
  }
  if (want_sync) return sync();
  return buffer_.size() >= kFlushThreshold ? flush_buffer() : true;
}

bool WalWriter::flush_buffer() {
  if (failed_) return false;
  if (buffer_.empty()) return true;
  if (!file_->append(buffer_.data(), buffer_.size())) {
    failed_ = true;
    return false;
  }
  buffer_.clear();
  return true;
}

bool WalWriter::sync() {
  if (failed_) return false;
  if (unsynced_records_ == 0) return true;
  if (!flush_buffer() || !file_->sync()) {
    failed_ = true;
    return false;
  }
  synced_version_ = appended_version_;
  unsynced_records_ = 0;
  last_sync_ = std::chrono::steady_clock::now();
  return true;
}

WalSegment read_wal_segment(Fs& fs, const std::string& path) {
  WalSegment seg;
  std::vector<uint8_t> bytes;
  if (!fs.read_file(path, &bytes)) return seg;
  if (bytes.size() < kWalHeaderSize) return seg;
  if (get_le64(bytes.data()) != kWalMagic) return seg;
  if (get_le32(bytes.data() + 24) != crc32c(bytes.data(), 24)) return seg;
  seg.header_ok = true;
  seg.base_version = get_le64(bytes.data() + 8);
  size_t off = kWalHeaderSize;
  uint64_t expect = seg.base_version + 1;
  while (off < bytes.size()) {
    // At EOF a partial frame is a torn tail (kNeedMore with no more bytes
    // coming), indistinguishable on disk from any other truncation.
    FrameView fv;
    if (parse_frame(bytes.data() + off, bytes.size() - off, kMaxFramePayload,
                    &fv) != FrameParse::kOk) {
      seg.truncated_tail = true;
      break;
    }
    WalRecord rec;
    if (!decode_wal_record(fv.payload, fv.len, &rec) || rec.version != expect) {
      seg.truncated_tail = true;
      break;
    }
    seg.records.push_back(std::move(rec));
    ++expect;
    off += fv.consumed;
  }
  return seg;
}

}  // namespace parspan
