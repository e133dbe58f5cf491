#include "durability/checkpoint.hpp"

#include <cassert>
#include <cstdio>
#include <memory>

#include "durability/wal.hpp"

namespace parspan {

namespace {
constexpr uint64_t kCkptMagic = 0x3230504B43505350ULL;  // "PSPCKP02" LE
}

std::string checkpoint_file_name(uint64_t version) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "ckpt-%016llx.snap",
                static_cast<unsigned long long>(version));
  return buf;
}

std::optional<uint64_t> parse_checkpoint_file_name(const std::string& name) {
  unsigned long long v = 0;
  char tail = 0;
  if (std::sscanf(name.c_str(), "ckpt-%16llx.sna%c", &v, &tail) != 2 ||
      tail != 'p' || name.size() != checkpoint_file_name(v).size())
    return std::nullopt;
  return v;
}

bool write_checkpoint(Fs& fs, const std::string& dir, const DurableState& ckpt) {
  // Pre-sized with raw stores; the key lists (hundreds of KB raw per
  // checkpoint) are strictly ascending and stored varint-delta compressed
  // like WAL key lists — roughly 3x fewer bytes to write, sync and read
  // back on every checkpoint.
  constexpr size_t kFixed = 8 + 8 + 8 + 4 + 8 + 8 + 8;
  // Sized for the worst case but left uninitialized: the encoded lists
  // fill a fraction of it, so each byte the file gets is written once.
  std::unique_ptr<uint8_t[]> body(new uint8_t[
      kFixed +
      kMaxUvarintLen * (ckpt.snap_keys.size() + ckpt.graph_keys.size()) + 4]);
  uint8_t* p = body.get();
  store_le64(p, kCkptMagic);
  store_le64(p + 8, ckpt.version);
  store_le64(p + 16, ckpt.n);
  store_le32(p + 24, ckpt.stretch);
  store_le64(p + 28, ckpt.checksum);
  store_le64(p + 36, ckpt.snap_keys.size());
  store_le64(p + 44, ckpt.graph_keys.size());
  p += kFixed;
  for (const std::vector<EdgeKey>* v : {&ckpt.snap_keys, &ckpt.graph_keys}) {
    uint64_t prev = 0;
    bool first = true;
    for (EdgeKey k : *v) {
      assert((first || k > prev) && "checkpoint key lists must be ascending");
      p += put_uvarint(p, first ? k : k - prev);
      prev = k;
      first = false;
    }
  }
  const size_t len = size_t(p - body.get());
  store_le32(p, crc32c(body.get(), len));

  const std::string tmp = dir + "/ckpt.tmp";
  {
    std::unique_ptr<FsFile> f = fs.create(tmp);
    if (f == nullptr || !f->append(body.get(), len + 4) || !f->sync())
      return false;
  }
  return fs.rename(tmp, dir + "/" + checkpoint_file_name(ckpt.version));
}

std::optional<DurableState> load_checkpoint(Fs& fs, const std::string& dir,
                                            uint64_t version) {
  std::vector<uint8_t> body;
  if (!fs.read_file(dir + "/" + checkpoint_file_name(version), &body))
    return std::nullopt;
  constexpr size_t kFixed = 8 + 8 + 8 + 4 + 8 + 8 + 8;
  if (body.size() < kFixed + 4) return std::nullopt;
  if (crc32c(body.data(), body.size() - 4) !=
      get_le32(body.data() + body.size() - 4))
    return std::nullopt;
  const uint8_t* p = body.data();
  if (get_le64(p) != kCkptMagic) return std::nullopt;
  DurableState c;
  c.version = get_le64(p + 8);
  c.n = get_le64(p + 16);
  c.stretch = get_le32(p + 24);
  c.checksum = get_le64(p + 28);
  uint64_t ns = get_le64(p + 36);
  uint64_t ng = get_le64(p + 44);
  if (c.version != version) return std::nullopt;
  // A garbage count would make the reserve below attempt absurd memory.
  if (ns + ng > (body.size() - kFixed - 4)) return std::nullopt;
  p += kFixed;
  const uint8_t* end = body.data() + body.size() - 4;
  // Delta decoding proves strict ascent (sorted + unique) as a side effect
  // — a zero delta, a wrapping (descending) delta or a truncated varint
  // rejects the checkpoint — and every key must be an edge over n
  // vertices: the order-independent checksum proves neither.
  auto read_list = [&](std::vector<EdgeKey>* out, uint64_t cnt) {
    out->clear();
    out->reserve(cnt);
    uint64_t prev = 0;
    for (uint64_t i = 0; i < cnt; ++i) {
      uint64_t d = 0;
      if (!get_uvarint(&p, end, &d)) return false;
      if (i > 0 && (d == 0 || d > UINT64_MAX - prev)) return false;
      prev = i == 0 ? d : prev + d;
      if (!valid_edge_key(prev, c.n)) return false;
      out->push_back(prev);
    }
    return true;
  };
  if (!read_list(&c.snap_keys, ns) || !read_list(&c.graph_keys, ng))
    return std::nullopt;
  if (p != end) return std::nullopt;  // trailing garbage
  return c;
}

}  // namespace parspan
