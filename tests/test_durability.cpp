// Durability-layer unit tests (DESIGN.md §10): CRC32C known answers, WAL
// frame codec + torn-tail truncation rules, fsync-policy sync semantics,
// checkpoint atomicity under crashes, the frozen content-checksum oracle,
// and single-service crash/recover end-to-end (the randomized sweep lives
// in test_recovery_sweep.cpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/fully_dynamic_spanner.hpp"
#include "durability/checkpoint.hpp"
#include "durability/durable_shard.hpp"
#include "durability/fault_fs.hpp"
#include "durability/fs.hpp"
#include "durability/wal.hpp"
#include "durability/wal_tail.hpp"
#include "graph/generators.hpp"
#include "service/spanner_service.hpp"
#include "util/rng.hpp"

namespace parspan {
namespace {

std::unique_ptr<SpannerService> make_service(size_t n,
                                             const std::vector<Edge>& m0,
                                             uint32_t k, uint64_t seed) {
  FullyDynamicSpannerConfig cfg;
  cfg.k = k;
  cfg.seed = seed;
  return std::make_unique<SpannerService>(
      std::make_unique<FullyDynamicSpanner>(n, m0, cfg), 2 * k - 1);
}

// --- CRC32C ----------------------------------------------------------------

TEST(Crc32c, KnownAnswers) {
  // The canonical CRC-32C check value (RFC 3720 appendix et al.).
  const uint8_t digits[] = "123456789";
  EXPECT_EQ(crc32c(digits, 9), 0xE3069283u);
  EXPECT_EQ(crc32c(nullptr, 0), 0u);
  // 32 zero bytes — known vector, guards the table generator.
  std::vector<uint8_t> zeros(32, 0);
  EXPECT_EQ(crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
}

TEST(Crc32c, DetectsSingleBitFlips) {
  std::vector<uint8_t> data(257);
  Rng rng(7);
  for (auto& b : data) b = uint8_t(rng.next_below(256));
  const uint32_t good = crc32c(data.data(), data.size());
  for (size_t trial = 0; trial < 64; ++trial) {
    size_t at = size_t(rng.next_below(data.size()));
    uint8_t bit = uint8_t(1u << rng.next_below(8));
    data[at] ^= bit;
    EXPECT_NE(crc32c(data.data(), data.size()), good);
    data[at] ^= bit;
  }
}

// --- Frozen content-checksum oracle ---------------------------------------

TEST(ContentChecksum, GoldenValues) {
  // These literals are the persisted-format contract of format 02
  // (PSPWAL02 segments, PSPCKP02 checkpoints): WAL records and checkpoints
  // store this value, so if either golden breaks, recovery of every
  // existing log breaks with it. Never update the literals without bumping
  // both magics.
  std::vector<EdgeKey> keys = {edge_key(0, 1), edge_key(1, 2), edge_key(2, 4),
                               edge_key(3, 4)};
  EXPECT_EQ(snapshot_content_checksum(5, 3, 7, keys), 0x120093b912b1313aULL);
  EXPECT_EQ(snapshot_content_checksum(1, 1, 0, {}), 0xa3aa58b1a0ef95dfULL);
}

TEST(ContentChecksum, FieldAndMembershipSensitivity) {
  std::vector<EdgeKey> keys = {edge_key(0, 1), edge_key(1, 2)};
  const uint64_t base = snapshot_content_checksum(8, 3, 5, keys);
  EXPECT_NE(snapshot_content_checksum(9, 3, 5, keys), base);
  EXPECT_NE(snapshot_content_checksum(8, 5, 5, keys), base);
  EXPECT_NE(snapshot_content_checksum(8, 3, 6, keys), base);
  std::vector<EdgeKey> truncated = {edge_key(0, 1)};
  EXPECT_NE(snapshot_content_checksum(8, 3, 5, truncated), base);
  std::vector<EdgeKey> replaced = {edge_key(0, 1), edge_key(1, 3)};
  EXPECT_NE(snapshot_content_checksum(8, 3, 5, replaced), base);
  // A multiset hash by design: the incremental patch relies on order not
  // mattering. Order is proven by the decoders instead (KeyOrder below).
  std::vector<EdgeKey> swapped = {edge_key(1, 2), edge_key(0, 1)};
  EXPECT_EQ(snapshot_content_checksum(8, 3, 5, swapped), base);
}

TEST(ContentChecksum, MatchesSnapshotChecksum) {
  const size_t n = 200;
  auto [initial, batches] = gen_mixed_stream(n, 1200, 60, 10, 3);
  auto svc = make_service(n, initial, 3, 11);
  for (const auto& b : batches) {
    auto r = svc->apply(b.insertions, b.deletions);
    EXPECT_EQ(r.snapshot->checksum(),
              snapshot_content_checksum(n, r.snapshot->stretch(),
                                        r.snapshot->version(),
                                        r.snapshot->edge_keys()));
  }
}

// --- WAL record codec ------------------------------------------------------

WalRecord sample_record(uint64_t version) {
  WalRecord r;
  r.type = WalRecord::kBatch;
  r.version = version;
  r.checksum = 0xDEADBEEFCAFEF00DULL ^ version;
  r.input_deleted = {edge_key(1, 2)};
  r.input_inserted = {edge_key(0, 1), edge_key(2, 3), edge_key(3, 9)};
  r.diff_removed = {edge_key(1, 2)};
  r.diff_inserted = {edge_key(0, 1), edge_key(2, 3)};
  return r;
}

TEST(WalCodec, RoundTrip) {
  WalRecord in = sample_record(42);
  std::vector<uint8_t> bytes = encode_wal_record(in);
  WalRecord out;
  ASSERT_TRUE(decode_wal_record(bytes.data(), bytes.size(), &out));
  EXPECT_EQ(out.type, in.type);
  EXPECT_EQ(out.version, in.version);
  EXPECT_EQ(out.checksum, in.checksum);
  EXPECT_EQ(out.input_deleted, in.input_deleted);
  EXPECT_EQ(out.input_inserted, in.input_inserted);
  EXPECT_EQ(out.diff_removed, in.diff_removed);
  EXPECT_EQ(out.diff_inserted, in.diff_inserted);
}

TEST(WalCodec, RejectsMalformed) {
  WalRecord in = sample_record(1);
  std::vector<uint8_t> bytes = encode_wal_record(in);
  WalRecord out;
  // Truncations at every boundary.
  for (size_t cut = 0; cut < bytes.size(); ++cut)
    EXPECT_FALSE(decode_wal_record(bytes.data(), cut, &out));
  // Trailing garbage.
  std::vector<uint8_t> longer = bytes;
  longer.push_back(0);
  EXPECT_FALSE(decode_wal_record(longer.data(), longer.size(), &out));
  // A zero key delta (duplicate / non-ascending list) is malformed: craft
  // a record whose only list is {k, k} by patching a valid encoding of
  // {k, k+1} — the second delta varint becomes 0x00.
  {
    WalRecord dup;
    dup.type = WalRecord::kBatch;
    dup.version = 1;
    dup.input_deleted = {edge_key(1, 2), edge_key(1, 3)};  // deltas: k, 1
    std::vector<uint8_t> enc = encode_wal_record(dup);
    ASSERT_EQ(enc.back(), 1u);  // the delta between the two keys
    enc.back() = 0;             // now "same key twice"
    EXPECT_FALSE(decode_wal_record(enc.data(), enc.size(), &out));
  }
  // Unknown record type.
  std::vector<uint8_t> bad_type = bytes;
  bad_type[0] = 99;
  EXPECT_FALSE(decode_wal_record(bad_type.data(), bad_type.size(), &out));
}

// --- Key-list order is proven where the bytes are parsed -----------------
//
// The content checksum cannot see order, so every decoder of a persisted or
// shipped key list must reject one that is not strictly ascending. Lists
// are crafted with modular deltas: a descending pair encodes as a delta
// that wraps past 2^64, a duplicated pair as a zero delta.

const std::vector<EdgeKey> kAscending = {edge_key(0, 1), edge_key(2, 5)};
const std::vector<EdgeKey> kDescending = {edge_key(2, 5), edge_key(0, 1)};
const std::vector<EdgeKey> kDuplicated = {edge_key(0, 1), edge_key(0, 1)};

void put_raw_key_list(std::vector<uint8_t>& out,
                      const std::vector<EdgeKey>& keys) {
  uint8_t buf[kMaxUvarintLen];
  for (size_t i = 0; i < keys.size(); ++i) {
    const size_t len = put_uvarint(buf, i == 0 ? keys[i] : keys[i] - keys[i - 1]);
    out.insert(out.end(), buf, buf + len);
  }
}

// A WAL record payload whose four key lists are `lists`, in field order.
std::vector<uint8_t> raw_wal_record(
    const std::array<std::vector<EdgeKey>, 4>& lists) {
  std::vector<uint8_t> b{WalRecord::kBatch};
  put_le64(b, 1);  // version
  put_le64(b, 0);  // checksum
  for (const auto& l : lists) put_le32(b, uint32_t(l.size()));
  for (const auto& l : lists) put_raw_key_list(b, l);
  return b;
}

TEST(KeyOrder, WalRecordRejectsDescendingOrDuplicatedLists) {
  std::array<std::vector<EdgeKey>, 4> lists;
  lists.fill(kAscending);
  WalRecord out;
  std::vector<uint8_t> ok = raw_wal_record(lists);
  ASSERT_TRUE(decode_wal_record(ok.data(), ok.size(), &out));
  for (size_t field = 0; field < lists.size(); ++field) {
    for (const auto* bad : {&kDescending, &kDuplicated}) {
      auto mangled = lists;
      mangled[field] = *bad;
      std::vector<uint8_t> b = raw_wal_record(mangled);
      EXPECT_FALSE(decode_wal_record(b.data(), b.size(), &out))
          << "list " << field << (bad == &kDescending ? " descending"
                                                      : " duplicated");
    }
  }
}

// A checkpoint file image: `magic` (8 ASCII bytes), n = 16, stretch 3,
// the checksum of `snap`, then the two lists and the trailing CRC.
std::vector<uint8_t> raw_checkpoint(const char* magic, uint64_t version,
                                    const std::vector<EdgeKey>& snap,
                                    const std::vector<EdgeKey>& graph) {
  std::vector<uint8_t> b(magic, magic + 8);
  put_le64(b, version);
  put_le64(b, 16);
  put_le32(b, 3);
  put_le64(b, snapshot_content_checksum(16, 3, version, snap));
  put_le64(b, snap.size());
  put_le64(b, graph.size());
  put_raw_key_list(b, snap);
  put_raw_key_list(b, graph);
  put_le32(b, crc32c(b.data(), b.size()));
  return b;
}

void write_raw(Fs& fs, const std::string& path, const std::vector<uint8_t>& b) {
  auto f = fs.create(path);
  ASSERT_NE(f, nullptr);
  ASSERT_TRUE(f->append(b.data(), b.size()));
  ASSERT_TRUE(f->sync());
}

TEST(KeyOrder, CheckpointRejectsDescendingOrDuplicatedLists) {
  MemFs fs;
  const std::string path = "d/" + checkpoint_file_name(4);
  write_raw(fs, path, raw_checkpoint("PSPCKP02", 4, kAscending, kAscending));
  ASSERT_TRUE(load_checkpoint(fs, "d", 4).has_value());
  for (const auto* bad : {&kDescending, &kDuplicated}) {
    write_raw(fs, path, raw_checkpoint("PSPCKP02", 4, *bad, kAscending));
    EXPECT_FALSE(load_checkpoint(fs, "d", 4).has_value());
    write_raw(fs, path, raw_checkpoint("PSPCKP02", 4, kAscending, *bad));
    EXPECT_FALSE(load_checkpoint(fs, "d", 4).has_value());
  }
  // Keys must also be edges over n: a self-loop or an endpoint >= n.
  for (EdgeKey k : {edge_key(3, 3), edge_key(2, 16)}) {
    write_raw(fs, path, raw_checkpoint("PSPCKP02", 4, {k}, kAscending));
    EXPECT_FALSE(load_checkpoint(fs, "d", 4).has_value());
    write_raw(fs, path, raw_checkpoint("PSPCKP02", 4, kAscending, {k}));
    EXPECT_FALSE(load_checkpoint(fs, "d", 4).has_value());
  }
}

// Counts whose sum wraps past 2^64 (2^64 - 1 snapshot keys plus one graph
// key) in a CRC-valid image: rejected as rotten, never reserved.
TEST(Checkpoint, CountsThatWrapTheirSumAreRejected) {
  MemFs fs;
  const char* magic = "PSPCKP02";
  std::vector<uint8_t> b(magic, magic + 8);
  put_le64(b, 4);   // version
  put_le64(b, 16);  // n
  put_le32(b, 3);   // stretch
  put_le64(b, 0);   // checksum
  put_le64(b, UINT64_MAX);
  put_le64(b, 1);
  put_raw_key_list(b, {edge_key(0, 1)});
  put_le32(b, crc32c(b.data(), b.size()));
  write_raw(fs, "d/" + checkpoint_file_name(4), b);
  EXPECT_FALSE(load_checkpoint(fs, "d", 4).has_value());
}

// --- Format 01 is refused, not replayed ------------------------------------
//
// Format 02 changed what the checksum field means (an order-independent
// multiset hash), so a format-01 file must read as unrecognized: replaying
// it would fail every checksum, or worse, match by accident.

// A WAL segment image: header with `magic`, base version 0, then `recs`.
std::vector<uint8_t> raw_segment(const char* magic,
                                 const std::vector<WalRecord>& recs) {
  std::vector<uint8_t> b(magic, magic + 8);
  put_le64(b, 0);  // base version
  put_le64(b, 0);  // reserved
  put_le32(b, crc32c(b.data(), b.size()));
  for (const WalRecord& r : recs) {
    std::vector<uint8_t> payload = encode_wal_record(r);
    append_frame(b, payload.data(), payload.size());
  }
  return b;
}

TEST(FormatBump, Version01SegmentsAndCheckpointsAreRefused) {
  const std::vector<EdgeKey> base = kAscending;
  std::vector<EdgeKey> grown = base;
  grown.push_back(edge_key(3, 4));
  WalRecord r1;
  r1.type = WalRecord::kBatch;
  r1.version = 1;
  r1.checksum = snapshot_content_checksum(16, 3, 1, grown);
  r1.input_inserted = {edge_key(3, 4)};
  r1.diff_inserted = {edge_key(3, 4)};

  for (const char* wal_magic : {"PSPWAL01", "PSPWAL02"}) {
    SCOPED_TRACE(wal_magic);
    const bool current = std::string(wal_magic) == "PSPWAL02";
    auto fs = std::make_shared<MemFs>();
    write_raw(*fs, "d/" + checkpoint_file_name(0),
              raw_checkpoint("PSPCKP02", 0, base, base));
    write_raw(*fs, "d/" + wal_file_name(0), raw_segment(wal_magic, {r1}));
    WalSegment seg = read_wal_segment(*fs, "d/" + wal_file_name(0));
    EXPECT_EQ(seg.header_ok, current);
    EXPECT_EQ(seg.records.size(), current ? 1u : 0u);
    auto rec = ShardDurability::recover(fs, "d", DurabilityOptions{});
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(rec->version, current ? 1u : 0u);
    EXPECT_EQ(rec->replayed_records, current ? 1u : 0u);
    EXPECT_EQ(rec->tail_truncated, !current);
  }

  for (const char* ckpt_magic : {"PSPCKP01", "PSPCKP02"}) {
    SCOPED_TRACE(ckpt_magic);
    const bool current = std::string(ckpt_magic) == "PSPCKP02";
    auto fs = std::make_shared<MemFs>();
    write_raw(*fs, "d/" + checkpoint_file_name(0),
              raw_checkpoint(ckpt_magic, 0, base, base));
    EXPECT_EQ(load_checkpoint(*fs, "d", 0).has_value(), current);
    EXPECT_EQ(ShardDurability::recover(fs, "d", DurabilityOptions{})
                  .has_value(),
              current);
  }
}

// --- WAL writer + segment reader ------------------------------------------

TEST(Wal, WriteReadRoundTrip) {
  auto fs = std::make_shared<MemFs>();
  DurabilityOptions opts;  // every-record
  WalWriter w(*fs, "wal", 10, opts);
  ASSERT_FALSE(w.failed());
  for (uint64_t v = 11; v <= 15; ++v) ASSERT_TRUE(w.append(sample_record(v)));
  EXPECT_EQ(w.synced_version(), 15u);

  WalSegment seg = read_wal_segment(*fs, "wal");
  ASSERT_TRUE(seg.header_ok);
  EXPECT_EQ(seg.base_version, 10u);
  EXPECT_FALSE(seg.truncated_tail);
  ASSERT_EQ(seg.records.size(), 5u);
  for (size_t i = 0; i < 5; ++i) EXPECT_EQ(seg.records[i].version, 11 + i);
}

TEST(Wal, TornTailTruncatesAtEveryByteBoundary) {
  // Build a 3-record log, then replay reads of every byte-length prefix:
  // the reader must yield exactly the records whose frames fit whole, and
  // flag the tail torn whenever trailing bytes exist.
  auto fs = std::make_shared<MemFs>();
  WalWriter w(*fs, "wal", 0, {});
  std::vector<size_t> ends;  // byte offset after the header and each frame
  {
    std::vector<uint8_t> all;
    ASSERT_TRUE(fs->read_file("wal", &all));
    ends.push_back(all.size());
  }
  for (uint64_t v = 1; v <= 3; ++v) {
    ASSERT_TRUE(w.append(sample_record(v)));
    std::vector<uint8_t> all;
    ASSERT_TRUE(fs->read_file("wal", &all));
    ends.push_back(all.size());
  }
  std::vector<uint8_t> full;
  ASSERT_TRUE(fs->read_file("wal", &full));
  for (size_t cut = ends[0]; cut <= full.size(); ++cut) {
    MemFs partial;
    {
      auto f = partial.create("wal");
      ASSERT_TRUE(f->append(full.data(), cut));
      ASSERT_TRUE(f->sync());
    }
    WalSegment seg = read_wal_segment(partial, "wal");
    ASSERT_TRUE(seg.header_ok);
    size_t expect_records =
        size_t(std::upper_bound(ends.begin(), ends.end(), cut) - ends.begin()) -
        1;
    EXPECT_EQ(seg.records.size(), expect_records) << "cut=" << cut;
    EXPECT_EQ(seg.truncated_tail, cut != ends[expect_records]) << "cut=" << cut;
  }
}

TEST(Wal, CrcCorruptionStopsReplayAtTheBadFrame) {
  auto fs = std::make_shared<MemFs>();
  WalWriter w(*fs, "wal", 0, {});
  for (uint64_t v = 1; v <= 6; ++v) ASSERT_TRUE(w.append(sample_record(v)));
  const size_t total = fs->durable_size("wal");
  Rng rng(99);
  // Flip one durable bit somewhere past the header; the reader must keep a
  // (possibly empty) prefix and never surface a record past the flip.
  for (int trial = 0; trial < 32; ++trial) {
    MemFs copy;
    std::vector<uint8_t> bytes;
    ASSERT_TRUE(fs->read_file("wal", &bytes));
    {
      auto f = copy.create("wal");
      ASSERT_TRUE(f->append(bytes.data(), bytes.size()));
      ASSERT_TRUE(f->sync());
    }
    size_t at = 28 + size_t(rng.next_below(total - 28));
    ASSERT_TRUE(copy.corrupt_durable("wal", at, uint8_t(rng.next_below(8))));
    WalSegment seg = read_wal_segment(copy, "wal");
    ASSERT_TRUE(seg.header_ok);
    EXPECT_TRUE(seg.truncated_tail);
    EXPECT_LT(seg.records.size(), 6u);
    for (size_t i = 0; i < seg.records.size(); ++i) {
      EXPECT_EQ(seg.records[i].version, i + 1);
      // Surviving prefix records decode identically to what was written.
      EXPECT_EQ(seg.records[i].checksum, sample_record(i + 1).checksum);
    }
  }
}

TEST(Wal, HeaderCorruptionRejectsTheSegment) {
  auto fs = std::make_shared<MemFs>();
  WalWriter w(*fs, "wal", 7, {});
  ASSERT_TRUE(w.append(sample_record(8)));
  ASSERT_TRUE(fs->corrupt_durable("wal", 9, 3));  // inside base_version
  WalSegment seg = read_wal_segment(*fs, "wal");
  EXPECT_FALSE(seg.header_ok);
  EXPECT_TRUE(seg.records.empty());
}

// --- Fsync policies --------------------------------------------------------

TEST(FsyncPolicy, EveryRecordMakesEachAppendDurable) {
  auto fs = std::make_shared<MemFs>();
  DurabilityOptions opts;
  opts.fsync_policy = FsyncPolicy::kEveryRecord;
  WalWriter w(*fs, "wal", 0, opts);
  for (uint64_t v = 1; v <= 4; ++v) {
    ASSERT_TRUE(w.append(sample_record(v)));
    EXPECT_EQ(w.synced_version(), v);
    // kLoseAll crash: everything synced must still be there.
    MemFs replica;
    std::vector<uint8_t> durable_only;
    ASSERT_TRUE(fs->read_file("wal", &durable_only));
    durable_only.resize(fs->durable_size("wal"));
    {
      auto f = replica.create("wal");
      ASSERT_TRUE(f->append(durable_only.data(), durable_only.size()));
      ASSERT_TRUE(f->sync());
    }
    WalSegment seg = read_wal_segment(replica, "wal");
    ASSERT_TRUE(seg.header_ok);
    EXPECT_EQ(seg.records.size(), v);
    EXPECT_FALSE(seg.truncated_tail);
  }
}

TEST(FsyncPolicy, EveryNSyncsInSteps) {
  auto fs = std::make_shared<MemFs>();
  DurabilityOptions opts;
  opts.fsync_policy = FsyncPolicy::kEveryN;
  opts.fsync_every_n = 3;
  WalWriter w(*fs, "wal", 0, opts);
  ASSERT_TRUE(w.append(sample_record(1)));
  EXPECT_EQ(w.synced_version(), 0u);
  ASSERT_TRUE(w.append(sample_record(2)));
  EXPECT_EQ(w.synced_version(), 0u);
  ASSERT_TRUE(w.append(sample_record(3)));
  EXPECT_EQ(w.synced_version(), 3u);
  ASSERT_TRUE(w.append(sample_record(4)));
  EXPECT_EQ(w.synced_version(), 3u);
  ASSERT_TRUE(w.sync());  // explicit sync flushes the partial group
  EXPECT_EQ(w.synced_version(), 4u);
  ASSERT_TRUE(w.sync());  // idempotent with nothing pending
  EXPECT_EQ(w.synced_version(), 4u);
}

TEST(FsyncPolicy, TimedSyncsOnExpiry) {
  auto fs = std::make_shared<MemFs>();
  DurabilityOptions opts;
  opts.fsync_policy = FsyncPolicy::kTimed;
  opts.fsync_interval = std::chrono::milliseconds(0);  // every append is "late"
  WalWriter w(*fs, "wal", 0, opts);
  ASSERT_TRUE(w.append(sample_record(1)));
  EXPECT_EQ(w.synced_version(), 1u);
  opts.fsync_interval = std::chrono::hours(1);  // never expires in-test
  WalWriter w2(*fs, "wal2", 0, opts);
  ASSERT_TRUE(w2.append(sample_record(1)));
  EXPECT_EQ(w2.synced_version(), 0u);
  ASSERT_TRUE(w2.sync());
  EXPECT_EQ(w2.synced_version(), 1u);
}

TEST(Wal, StickyFailureAfterIoError) {
  auto fs = std::make_shared<MemFs>();
  WalWriter w(*fs, "wal", 0, {});
  ASSERT_TRUE(w.append(sample_record(1)));
  fs->fail_at_op(1);  // next op fails transiently; the fs itself recovers
  EXPECT_FALSE(w.append(sample_record(2)));
  EXPECT_TRUE(w.failed());
  // Sticky: even though the fs works again, the writer stays dead.
  EXPECT_FALSE(w.append(sample_record(3)));
  EXPECT_EQ(w.synced_version(), 1u);
  // The durable prefix is still a valid log.
  WalSegment seg = read_wal_segment(*fs, "wal");
  ASSERT_TRUE(seg.header_ok);
  ASSERT_GE(seg.records.size(), 1u);
  EXPECT_EQ(seg.records[0].version, 1u);
}

// --- Checkpoints -----------------------------------------------------------

DurableState sample_checkpoint(uint64_t version) {
  DurableState c;
  c.version = version;
  c.n = 32;
  c.stretch = 5;
  c.snap_keys = {edge_key(0, 1), edge_key(3, 7)};
  c.graph_keys = {edge_key(0, 1), edge_key(1, 2), edge_key(3, 7)};
  c.checksum =
      snapshot_content_checksum(c.n, c.stretch, c.version, c.snap_keys);
  return c;
}

TEST(Checkpoint, RoundTrip) {
  auto fs = std::make_shared<MemFs>();
  DurableState in = sample_checkpoint(12);
  ASSERT_TRUE(write_checkpoint(*fs, "d", in));
  auto out = load_checkpoint(*fs, "d", 12);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->version, in.version);
  EXPECT_EQ(out->n, in.n);
  EXPECT_EQ(out->stretch, in.stretch);
  EXPECT_EQ(out->checksum, in.checksum);
  EXPECT_EQ(out->snap_keys, in.snap_keys);
  EXPECT_EQ(out->graph_keys, in.graph_keys);
  EXPECT_EQ(parse_checkpoint_file_name(checkpoint_file_name(12)), 12u);
  EXPECT_FALSE(parse_checkpoint_file_name("wal-0000000000000001.log"));
  EXPECT_FALSE(parse_checkpoint_file_name("ckpt.tmp"));
}

TEST(Checkpoint, CrashMidWriteLeavesThePreviousOneCommitted) {
  // Sweep a crash through every mutating op of write_checkpoint: whatever
  // the crash point, checkpoint 5 must stay loadable and checkpoint 9 must
  // be either fully committed or invisible — never half-visible.
  for (uint64_t crash_op = 1; crash_op <= 4; ++crash_op) {
    auto fs = std::make_shared<MemFs>();
    ASSERT_TRUE(write_checkpoint(*fs, "d", sample_checkpoint(5)));
    fs->crash_at_op(crash_op);
    bool ok = write_checkpoint(*fs, "d", sample_checkpoint(9));
    Rng rng(crash_op);
    fs->crash_and_restart(CrashTail::kKeepPrefix, rng);
    auto old_ckpt = load_checkpoint(*fs, "d", 5);
    ASSERT_TRUE(old_ckpt.has_value()) << "crash_op=" << crash_op;
    auto new_ckpt = load_checkpoint(*fs, "d", 9);
    if (ok) EXPECT_TRUE(new_ckpt.has_value());
    if (new_ckpt) EXPECT_EQ(new_ckpt->snap_keys, sample_checkpoint(9).snap_keys);
  }
}

TEST(Checkpoint, CorruptionIsDetected) {
  auto fs = std::make_shared<MemFs>();
  ASSERT_TRUE(write_checkpoint(*fs, "d", sample_checkpoint(3)));
  const std::string path = "d/" + checkpoint_file_name(3);
  const size_t size = fs->durable_size(path);
  ASSERT_GT(size, 0u);
  Rng rng(5);
  for (int trial = 0; trial < 32; ++trial) {
    size_t at = size_t(rng.next_below(size));
    uint8_t bit = uint8_t(rng.next_below(8));
    ASSERT_TRUE(fs->corrupt_durable(path, at, bit));
    EXPECT_FALSE(load_checkpoint(*fs, "d", 3).has_value());
    ASSERT_TRUE(fs->corrupt_durable(path, at, bit));  // flip back
    ASSERT_TRUE(load_checkpoint(*fs, "d", 3).has_value());
  }
}

// --- Graph shadow ----------------------------------------------------------

TEST(GraphShadow, KeysMatchASetModelAcrossFoldsAndRebases) {
  // Records hit keys below, inside and above the base, delete absent keys,
  // re-insert present ones and carry invalid keys: keys() must always equal
  // the set semantics of the folds, including after each rebase.
  const uint64_t n = 64;
  Rng rng(23);
  auto random_key = [&] {
    VertexId a = VertexId(rng.next_below(n)), b = VertexId(rng.next_below(n));
    return a == b ? edge_key(a, (b + 1) % VertexId(n)) : edge_key(a, b);
  };
  std::set<EdgeKey> model;
  for (int i = 0; i < 300; ++i) model.insert(random_key());
  GraphShadow shadow(std::vector<EdgeKey>(model.begin(), model.end()));
  for (int r = 0; r < 200; ++r) {
    std::set<EdgeKey> del, ins;
    for (uint64_t i = 0, c = rng.next_below(12); i < c; ++i)
      del.insert(rng.next_bool(0.5) && !model.empty()
                     ? *std::next(model.begin(), long(rng.next_below(model.size())))
                     : random_key());
    for (uint64_t i = 0, c = rng.next_below(12); i < c; ++i)
      ins.insert(random_key());
    WalRecord rec;
    rec.input_deleted.assign(del.begin(), del.end());
    rec.input_inserted.assign(ins.begin(), ins.end());
    if (r % 7 == 0) rec.input_inserted.push_back(edge_key(3, VertexId(n)));
    shadow.fold(rec, n);
    for (EdgeKey k : del) model.erase(k);
    for (EdgeKey k : ins) model.insert(k);
    const std::vector<EdgeKey> keys = shadow.keys();
    ASSERT_EQ(keys, std::vector<EdgeKey>(model.begin(), model.end()))
        << "after record " << r;
    if (r % 16 == 15) shadow = GraphShadow(keys);
  }
}

// --- ShardDurability lifecycle --------------------------------------------

TEST(ShardDurability, LogRotationAndGcKeepRecoverableState) {
  auto fs = std::make_shared<MemFs>();
  DurabilityOptions opts;
  opts.checkpoint_every = 4;
  opts.keep_checkpoints = 2;

  const size_t n = 150;
  auto [initial, batches] = gen_mixed_stream(n, 900, 50, 24, 17);
  auto svc = make_service(n, initial, 3, 9);
  ASSERT_TRUE(svc->enable_durability(fs, "dur", opts, initial));
  for (const auto& b : batches) svc->apply(b.insertions, b.deletions);
  ASSERT_FALSE(svc->durability()->failed());
  EXPECT_EQ(svc->durability()->records_logged(), batches.size());
  EXPECT_EQ(svc->durability()->durable_version(), batches.size());

  // GC bounded the file count: at most keep_checkpoints snapshots and
  // their segments (+1 in-flight of each).
  size_t n_ckpt = 0, n_wal = 0;
  for (const std::string& name : fs->list("dur")) {
    n_ckpt += parse_checkpoint_file_name(name).has_value();
    n_wal += name.rfind("wal-", 0) == 0;
  }
  EXPECT_LE(n_ckpt, opts.keep_checkpoints + 1);
  EXPECT_LE(n_wal, opts.keep_checkpoints + 1);

  // Clean-shutdown recovery (no crash): byte-exact state.
  auto expect = svc->snapshot();
  auto rec = ShardDurability::recover(fs, "dur", opts);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->version, expect->version());
  EXPECT_EQ(rec->checksum, expect->checksum());
  EXPECT_FALSE(rec->tail_truncated);
  ASSERT_NE(rec->snapshot, nullptr);
  EXPECT_EQ(rec->snapshot->edge_keys(), expect->edge_keys());
}

TEST(ShardDurability, CreateWipesStaleIncarnation) {
  auto fs = std::make_shared<MemFs>();
  DurabilityOptions opts;
  {
    auto [initial, batches] = gen_mixed_stream(80, 400, 40, 6, 2);
    auto svc = make_service(80, initial, 3, 4);
    ASSERT_TRUE(svc->enable_durability(fs, "dur", opts, initial));
    for (const auto& b : batches) svc->apply(b.insertions, b.deletions);
  }
  // New incarnation from scratch in the same dir: recovery must see ONLY
  // the new service's history, not the stale (higher-versioned) one.
  auto svc2 = make_service(80, {}, 3, 5);
  ASSERT_TRUE(svc2->enable_durability(fs, "dur", opts, {}));
  auto r = svc2->apply({{1, 2}, {2, 3}}, {});
  auto rec = ShardDurability::recover(fs, "dur", opts);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->version, 1u);
  EXPECT_EQ(rec->checksum, r.snapshot->checksum());
}

// --- The verified chain: one fold, three callers -------------------------

// A chain with checkpoints at 0, 4 and 8 (all retained), segments wal-0,
// wal-4 and wal-8, and versions up to 10. Returns the live checksum of
// every version.
std::vector<uint64_t> write_three_checkpoint_chain(std::shared_ptr<MemFs> fs,
                                                   DurabilityOptions* opts) {
  opts->checkpoint_every = 4;
  opts->keep_checkpoints = 3;
  const size_t n = 120;
  auto [initial, batches] = gen_mixed_stream(n, 600, 30, 10, 51);
  auto svc = make_service(n, initial, 3, 13);
  EXPECT_TRUE(svc->enable_durability(fs, "dur", *opts, initial));
  std::vector<uint64_t> live{svc->snapshot()->checksum()};
  for (const auto& b : batches)
    live.push_back(svc->apply(b.insertions, b.deletions).snapshot->checksum());
  EXPECT_EQ(svc->durability()->durable_version(), 10u);
  return live;
}

bool has_file(MemFs& fs, const std::string& name) {
  const std::vector<std::string> names = fs.list("dur");
  return std::find(names.begin(), names.end(), name) != names.end();
}

TEST(VerifiedChain, RottenCheckpointIsSkippedAndOnlyRecoverRemovesIt) {
  auto fs = std::make_shared<MemFs>();
  DurabilityOptions opts;
  const std::vector<uint64_t> live = write_three_checkpoint_chain(fs, &opts);
  const std::string ckpt8 = checkpoint_file_name(8);
  ASSERT_TRUE(fs->corrupt_durable("dur/" + ckpt8, 20, 1));

  // The read-only fold falls back to ckpt-4, replays to the end, and
  // leaves the rotten file where it is.
  auto state = read_durable_state(*fs, "dur", UINT64_MAX);
  ASSERT_TRUE(state.has_value());
  EXPECT_EQ(state->version, 10u);
  EXPECT_EQ(state->checksum, live[10]);
  EXPECT_TRUE(has_file(*fs, ckpt8));

  // recover() is the same fold, then deletes what the fold skipped.
  auto rec = ShardDurability::recover(fs, "dur", opts);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->version, 10u);
  EXPECT_EQ(rec->checksum, live[10]);
  EXPECT_EQ(rec->replayed_records, 6u);
  EXPECT_FALSE(rec->tail_truncated);
  EXPECT_FALSE(has_file(*fs, ckpt8));
  EXPECT_TRUE(has_file(*fs, checkpoint_file_name(4)));
}

TEST(VerifiedChain, CapPicksTheNewestCheckpointBelowItAndStopsThere) {
  auto fs = std::make_shared<MemFs>();
  DurabilityOptions opts;
  const std::vector<uint64_t> live = write_three_checkpoint_chain(fs, &opts);
  for (uint64_t cap : {0u, 3u, 4u, 6u, 7u, 8u, 9u, 10u}) {
    SCOPED_TRACE(cap);
    auto state = read_durable_state(*fs, "dur", cap);
    ASSERT_TRUE(state.has_value());
    EXPECT_EQ(state->version, cap);
    EXPECT_EQ(state->checksum, live[cap]);
    EXPECT_EQ(snapshot_content_checksum(state->n, state->stretch,
                                        state->version, state->snap_keys),
              state->checksum);
  }
  // Below every retained checkpoint nothing can be rebuilt: state never
  // rolls backward.
  fs->remove("dur/" + checkpoint_file_name(0));
  EXPECT_FALSE(read_durable_state(*fs, "dur", 3).has_value());
  EXPECT_EQ(read_durable_state(*fs, "dur", 6)->checksum, live[6]);
}

TEST(VerifiedChain, WalRangeFailsWhenTheChainEndsShortOfTo) {
  auto fs = std::make_shared<MemFs>();
  DurabilityOptions opts;
  write_three_checkpoint_chain(fs, &opts);
  std::vector<WalRecord> out;
  auto versions = [&] {
    std::vector<uint64_t> v;
    for (const WalRecord& r : out) v.push_back(r.version);
    return v;
  };
  ASSERT_TRUE(read_wal_range(*fs, "dur", 2, 10, &out));
  EXPECT_EQ(versions(), (std::vector<uint64_t>{3, 4, 5, 6, 7, 8, 9, 10}));

  // A tear in wal-4's last frame (version 8): the chain stops at 7, and
  // wal-8 (base 8 > 7) cannot bridge it.
  const std::string wal4 = "dur/" + wal_file_name(4);
  const size_t at = fs->durable_size(wal4) - 2;
  ASSERT_TRUE(fs->corrupt_durable(wal4, at, 0));
  EXPECT_FALSE(read_wal_range(*fs, "dur", 4, 10, &out));
  ASSERT_TRUE(read_wal_range(*fs, "dur", 4, 7, &out));
  EXPECT_EQ(versions(), (std::vector<uint64_t>{5, 6, 7}));
  ASSERT_TRUE(fs->corrupt_durable(wal4, at, 0));  // heal it

  // A gap: without wal-4 the walk from wal-0 ends at 4, below wal-8's base.
  ASSERT_TRUE(fs->remove(wal4));
  EXPECT_FALSE(read_wal_range(*fs, "dur", 0, 10, &out));
  ASSERT_TRUE(read_wal_range(*fs, "dur", 1, 4, &out));
  EXPECT_EQ(versions(), (std::vector<uint64_t>{2, 3, 4}));

  // The anchor GC'd: no segment's base is <= from.
  ASSERT_TRUE(fs->remove("dur/" + wal_file_name(0)));
  EXPECT_FALSE(read_wal_range(*fs, "dur", 2, 10, &out));
  ASSERT_TRUE(read_wal_range(*fs, "dur", 8, 10, &out));
  EXPECT_EQ(versions(), (std::vector<uint64_t>{9, 10}));
}

TEST(VerifiedChain, TornSegmentContinuesIntoASegmentAtItsLastGoodVersion) {
  // wal-0 ends in a torn frame after version 5. The first recovery stops
  // there and opens wal-5, and its kRebase record (version 6) is synced
  // before a crash somewhere in the rebase checkpoint. Whatever was
  // durable before that crash must come back: the chain walks past the
  // tear into wal-5.
  DurabilityOptions opts;
  opts.fsync_policy = FsyncPolicy::kEveryRecord;
  opts.checkpoint_every = 0;
  FullyDynamicSpannerConfig cfg;
  cfg.k = 3;
  cfg.seed = 11;
  auto make_backend = [&cfg](uint64_t rn, const std::vector<Edge>& edges,
                             uint32_t) {
    return std::make_unique<FullyDynamicSpanner>(size_t(rn), edges, cfg);
  };
  const size_t n = 120;
  auto [initial, batches] = gen_mixed_stream(n, 600, 30, 6, 41);

  bool rebase_durable_without_checkpoint = false;
  for (uint64_t crash_op = 1;; ++crash_op) {
    SCOPED_TRACE(crash_op);
    auto fs = std::make_shared<MemFs>();
    {
      auto svc = make_service(n, initial, 3, 11);
      ASSERT_TRUE(svc->enable_durability(fs, "dur", opts, initial));
      for (size_t i = 0; i < 5; ++i)
        svc->apply(batches[i].insertions, batches[i].deletions);
      fs->crash_at_op(1);  // the 6th record's frame is torn mid-write
      svc->apply(batches[5].insertions, batches[5].deletions);
    }
    Rng rng(crash_op);
    fs->crash_and_restart(CrashTail::kKeepAll, rng);

    fs->crash_at_op(crash_op);
    SpannerService::RecoveryReport rep;
    auto first = SpannerService::recover(fs, "dur", opts, make_backend, &rep);
    ASSERT_NE(first, nullptr);
    ASSERT_EQ(rep.restored_version, 5u);
    ASSERT_TRUE(rep.tail_truncated);
    const bool crashed = fs->crashed();
    const uint64_t durable = first->durability()->durable_version();
    const uint64_t durable_checksum = first->snapshot()->checksum();
    first.reset();
    fs->crash_and_restart(CrashTail::kLoseAll, rng);
    rebase_durable_without_checkpoint |=
        crashed && durable == 6 && !has_file(*fs, checkpoint_file_name(6));

    auto state = read_durable_state(*fs, "dur", UINT64_MAX);
    ASSERT_TRUE(state.has_value());
    EXPECT_GE(state->version, durable);
    auto rec = ShardDurability::recover(fs, "dur", opts);
    ASSERT_TRUE(rec.has_value());
    EXPECT_GE(rec->version, durable);
    EXPECT_EQ(rec->version, state->version);
    EXPECT_EQ(rec->checksum, state->checksum);
    if (rec->version == 6) EXPECT_EQ(rec->checksum, durable_checksum);
    if (!crashed) break;
  }
  EXPECT_TRUE(rebase_durable_without_checkpoint);
}

// --- Service-level recovery ------------------------------------------------

TEST(ServiceRecovery, RestoresExactStateAndContinues) {
  auto fs = std::make_shared<MemFs>();
  DurabilityOptions opts;
  opts.checkpoint_every = 8;

  const size_t n = 200;
  auto [initial, batches] = gen_mixed_stream(n, 1400, 60, 20, 33);
  FullyDynamicSpannerConfig cfg;
  cfg.k = 3;
  cfg.seed = 21;
  auto svc = std::make_unique<SpannerService>(
      std::make_unique<FullyDynamicSpanner>(n, initial, cfg), 5);
  ASSERT_TRUE(svc->enable_durability(fs, "dur", opts, initial));

  std::vector<uint64_t> live_checksums{svc->snapshot()->checksum()};
  for (const auto& b : batches) {
    auto r = svc->apply(b.insertions, b.deletions);
    live_checksums.push_back(r.snapshot->checksum());
  }
  auto final_view = svc->snapshot();
  std::vector<Edge> final_graph_check = final_view->edges();
  svc.reset();  // "clean crash": nothing unsynced (every-record policy)

  SpannerService::RecoveryReport rep;
  auto recovered = SpannerService::recover(
      fs, "dur", opts,
      [&cfg](uint64_t rn, const std::vector<Edge>& edges, uint32_t) {
        return std::make_unique<FullyDynamicSpanner>(size_t(rn), edges, cfg);
      },
      &rep);
  ASSERT_NE(recovered, nullptr);
  EXPECT_EQ(rep.restored_version, batches.size());
  EXPECT_EQ(rep.restored_checksum, live_checksums.back());
  EXPECT_FALSE(rep.tail_truncated);
  EXPECT_EQ(rep.published_version, batches.size() + 1);

  // The served snapshot is the rebase epoch: next version, a valid spanner
  // of the recovered graph.
  auto snap = recovered->snapshot();
  EXPECT_EQ(snap->version(), rep.published_version);
  EXPECT_TRUE(snap->consistent());

  // Continuation: more batches apply and stay durable; a second recovery
  // lands on the continued history (checksum-exact).
  auto [unused, more] = gen_mixed_stream(n, 1400, 60, 5, 34);
  (void)unused;
  uint64_t last = 0;
  for (const auto& b : more) {
    auto r = recovered->apply(b.insertions, b.deletions);
    last = r.snapshot->checksum();
  }
  ASSERT_FALSE(recovered->durability()->failed());
  SpannerService::RecoveryReport rep2;
  auto recovered2 = SpannerService::recover(
      fs, "dur", opts,
      [&cfg](uint64_t rn, const std::vector<Edge>& edges, uint32_t) {
        return std::make_unique<FullyDynamicSpanner>(size_t(rn), edges, cfg);
      },
      &rep2);
  ASSERT_NE(recovered2, nullptr);
  EXPECT_EQ(rep2.restored_checksum, last);
  EXPECT_EQ(rep2.restored_version, rep.published_version + more.size());
}

TEST(ServiceRecovery, NoValidCheckpointMeansNoService) {
  auto fs = std::make_shared<MemFs>();
  DurabilityOptions opts;
  auto recovered = SpannerService::recover(
      fs, "nowhere", opts,
      [](uint64_t rn, const std::vector<Edge>& edges, uint32_t) {
        return std::make_unique<FullyDynamicSpanner>(
            size_t(rn), edges, FullyDynamicSpannerConfig{});
      });
  EXPECT_EQ(recovered, nullptr);
}

}  // namespace
}  // namespace parspan
