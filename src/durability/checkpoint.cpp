#include "durability/checkpoint.hpp"

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
  for (const std::vector<EdgeKey>* v : {&ckpt.snap_keys, &ckpt.graph_keys})
    p = encode_ascending_list(v->data(), v->size(), p);
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
  p += kFixed;
  const uint8_t* end = body.data() + body.size() - 4;
  // Each count is bounded by the bytes left before anything is reserved.
  // Delta decoding proves strict ascent (sorted + unique) as a side effect
  // — a zero delta, a wrapping (descending) delta or a truncated varint
  // rejects the checkpoint — and every key must be an edge over n
  // vertices: the order-independent checksum proves neither.
  if (!decode_ascending_list(&p, end, ns, &c.snap_keys) ||
      !decode_ascending_list(&p, end, ng, &c.graph_keys) ||
      !valid_edge_keys(c.snap_keys, c.n) ||
      !valid_edge_keys(c.graph_keys, c.n))
    return std::nullopt;
  if (p != end) return std::nullopt;  // trailing garbage
  return c;
}

}  // namespace parspan
