// Snapshot patch-publish tests (DESIGN.md §8.2): every version built by
// SpannerSnapshot::apply's checked patch equals a from-scratch build of
// its own key set, on both backends at 1 and 4 workers; every §6
// violation is rejected — by the patch itself, by a follower (counted
// reject, then resync) and by recovery (replay stops at the record); and
// readers that pin version v keep a valid view while v+1, v+2, ... are
// patched from v's arrays.
//
// Carries the concurrency label: the CI sanitizer jobs run the pinned-
// reader test with real worker threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "core/fully_dynamic_spanner.hpp"
#include "core/ultra.hpp"
#include "durability/durable_shard.hpp"
#include "durability/fault_fs.hpp"
#include "durability/wal_tail.hpp"
#include "graph/generators.hpp"
#include "parallel/csr.hpp"
#include "parallel/parallel_for.hpp"
#include "replication/follower.hpp"
#include "service/spanner_service.hpp"

namespace parspan {
namespace {

enum class Backend { kFullyDynamic, kUltraSparse };

std::unique_ptr<SpannerService> make_service(Backend b, size_t n,
                                             const std::vector<Edge>& m0) {
  if (b == Backend::kUltraSparse) {
    UltraConfig cfg;
    cfg.seed = 5;
    auto ultra = std::make_unique<UltraSparseSpanner>(n, m0, cfg);
    const uint32_t stretch = ultra->stretch_bound();
    return std::make_unique<SpannerService>(std::move(ultra), stretch);
  }
  FullyDynamicSpannerConfig cfg;
  cfg.k = 3;
  cfg.seed = 5;
  return std::make_unique<SpannerService>(
      std::make_unique<FullyDynamicSpanner>(n, m0, cfg), 5);
}

// The patched snapshot against everything derivable from its key set.
void expect_matches_scratch_build(const SpannerSnapshot& s) {
  ASSERT_TRUE(s.consistent());
  const std::vector<EdgeKey> keys = s.edge_keys();
  ASSERT_EQ(keys.size(), s.num_edges());
  EXPECT_EQ(s.checksum(), snapshot_content_checksum(s.num_vertices(),
                                                    s.stretch(), s.version(),
                                                    keys));
  const CsrGraph ref = csr_build_from_keys(s.num_vertices(), keys);
  for (VertexId v = 0; v < s.num_vertices(); ++v) {
    auto got = s.neighbors(v);
    auto want = ref.neighbors(v);
    ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
        << "vertex " << v << " at version " << s.version();
  }
}

class SnapshotPatch
    : public ::testing::TestWithParam<std::tuple<Backend, int>> {};

TEST_P(SnapshotPatch, EveryVersionEqualsItsScratchBuild) {
  const auto [backend, workers] = GetParam();
  const int saved = num_workers();
  set_num_workers(workers);
  const size_t n = 240;
  auto [initial, batches] = gen_mixed_stream(n, 1800, 48, 40, 17);
  // One large batch each way, so some diffs touch most vertices.
  auto extra = gen_erdos_renyi(n, 900, 19);
  batches.push_back(UpdateBatch{extra, {}});
  batches.push_back(UpdateBatch{{}, extra});
  auto svc = make_service(backend, n, initial);
  expect_matches_scratch_build(*svc->snapshot());
  for (size_t i = 0; i < batches.size(); ++i) {
    auto r = svc->apply(batches[i].insertions, batches[i].deletions);
    ASSERT_EQ(r.snapshot->version(), i + 1);
    expect_matches_scratch_build(*r.snapshot);
    EXPECT_EQ(r.snapshot->edge_keys(),
              canonical_edge_keys(n, svc->export_spanner()))
        << "batch " << i;
  }
  set_num_workers(saved);
}

INSTANTIATE_TEST_SUITE_P(
    BackendsAndWorkers, SnapshotPatch,
    ::testing::Combine(::testing::Values(Backend::kFullyDynamic,
                                         Backend::kUltraSparse),
                       ::testing::Values(1, 4)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) == Backend::kFullyDynamic
                             ? "FullyDynamic"
                             : "UltraSparse") +
             "_w" + std::to_string(std::get<1>(info.param));
    });

// --- §6 violations ----------------------------------------------------------

constexpr size_t kN = 16;
const std::vector<EdgeKey> kBase = {edge_key(0, 1), edge_key(1, 2),
                                    edge_key(2, 9), edge_key(3, 4)};

struct Violation {
  const char* what;
  std::vector<EdgeKey> add;
  std::vector<EdgeKey> rem;
};

// Diffs a WAL record or ship frame can carry (both sides strictly
// ascending) that still break the §6 contract against kBase.
std::vector<Violation> encodable_violations() {
  return {
      {"inserted key already present", {edge_key(1, 2)}, {}},
      {"inserted key present among new ones",
       {edge_key(0, 5), edge_key(3, 4), edge_key(7, 8)},
       {}},
      {"removed key absent", {}, {edge_key(1, 3)}},
      {"removed key past every present one", {}, {edge_key(9, 15)}},
      {"removed key on an untouched-looking vertex", {}, {edge_key(5, 6)}},
      {"self-loop", {edge_key(3, 3)}, {}},
      {"endpoint out of range", {edge_key(2, kN)}, {}},
  };
}

TEST(SnapshotChecks, ApplyRejectsEverySection6Violation) {
  auto base = SpannerSnapshot::restore(kN, 3, 7, kBase);
  std::vector<Violation> cases = encodable_violations();
  cases.push_back({"inserted side unsorted",
                   {edge_key(4, 5), edge_key(0, 5)}, {}});
  cases.push_back({"inserted side duplicated",
                   {edge_key(0, 5), edge_key(0, 5)}, {}});
  cases.push_back({"removed side unsorted",
                   {}, {edge_key(2, 9), edge_key(0, 1)}});
  cases.push_back({"removed side duplicated",
                   {}, {edge_key(0, 1), edge_key(0, 1)}});
  for (const Violation& c : cases)
    EXPECT_EQ(SpannerSnapshot::apply(*base, c.add, c.rem), nullptr) << c.what;
  // The rejected attempts left the base untouched.
  expect_matches_scratch_build(*base);
  EXPECT_EQ(base->edge_keys(), kBase);

  // And the contract-abiding neighbours of those diffs pass.
  using Keys = std::vector<EdgeKey>;
  auto next =
      SpannerSnapshot::apply(*base, Keys{edge_key(0, 5), edge_key(3, 9)},
                             Keys{edge_key(1, 2), edge_key(3, 4)});
  ASSERT_NE(next, nullptr);
  EXPECT_EQ(next->version(), 8u);
  expect_matches_scratch_build(*next);
  EXPECT_EQ(next->edge_keys(), (Keys{edge_key(0, 1), edge_key(0, 5),
                                     edge_key(2, 9), edge_key(3, 9)}));
  // Removals apply first: re-inserting a removed key is not a violation.
  auto same =
      SpannerSnapshot::apply(*base, Keys{edge_key(1, 2)}, Keys{edge_key(1, 2)});
  ASSERT_NE(same, nullptr);
  EXPECT_EQ(same->edge_keys(), kBase);
  EXPECT_EQ(same->checksum(), snapshot_content_checksum(kN, 3, 8, kBase));
}

DurableState base_state(uint64_t version) {
  DurableState st;
  st.n = kN;
  st.stretch = 3;
  st.version = version;
  st.snap_keys = kBase;
  st.graph_keys = kBase;
  st.checksum = snapshot_content_checksum(kN, 3, version, kBase);
  return st;
}

// A record at `version` carrying `c`'s diff against `base`. Its checksum
// is that of the set a sloppy set-semantics fold would reach, so only the
// §6 check can tell the record is bad.
WalRecord violating_record(uint64_t version, const Violation& c,
                           std::vector<EdgeKey> base) {
  std::vector<EdgeKey> sloppy = std::move(base);
  for (EdgeKey k : c.rem) std::erase(sloppy, k);
  for (EdgeKey k : c.add)
    if (std::find(sloppy.begin(), sloppy.end(), k) == sloppy.end())
      sloppy.push_back(k);
  std::sort(sloppy.begin(), sloppy.end());
  WalRecord rec;
  rec.type = WalRecord::kBatch;
  rec.version = version;
  rec.checksum = snapshot_content_checksum(kN, 3, version, sloppy);
  rec.diff_inserted = c.add;
  rec.diff_removed = c.rem;
  return rec;
}

// kBase plus an edge no violation case mentions.
std::vector<EdgeKey> grown_base() {
  std::vector<EdgeKey> keys = kBase;
  keys.push_back(edge_key(10, 11));
  return keys;
}

// A valid record moving kBase at version-1 to grown_base() at version.
WalRecord good_record(uint64_t version) {
  WalRecord rec;
  rec.type = WalRecord::kBatch;
  rec.version = version;
  rec.checksum = snapshot_content_checksum(kN, 3, version, grown_base());
  rec.input_inserted = {edge_key(10, 11)};
  rec.diff_inserted = {edge_key(10, 11)};
  return rec;
}

TEST(SnapshotChecks, FollowerCountsARejectThenResyncs) {
  for (const Violation& c : encodable_violations()) {
    SCOPED_TRACE(c.what);
    auto chan = std::make_shared<ChannelTransport>();
    FollowerReplica f(std::make_shared<MemFs>(), "f", DurabilityOptions{},
                      chan);
    chan->send_frame(make_snapshot_frame(1, base_state(1)));
    f.pump();
    ASSERT_EQ(f.snapshot_resyncs(), 1u);
    ASSERT_EQ(f.applied_version(), 1u);

    chan->send_frame(make_record_frame(1, violating_record(2, c, kBase)));
    f.pump();
    EXPECT_EQ(f.rejects(), 1u);
    EXPECT_TRUE(f.needs_resync());
    EXPECT_EQ(f.applied_version(), 1u);
    EXPECT_EQ(f.snapshot()->version(), 1u);
    EXPECT_EQ(f.snapshot()->edge_keys(), kBase);

    // The shipper answers need_snapshot with a snapshot; the chain then
    // extends through the checked patch again.
    chan->send_frame(make_snapshot_frame(1, base_state(2)));
    chan->send_frame(make_record_frame(1, good_record(3)));
    f.pump();
    EXPECT_EQ(f.snapshot_resyncs(), 2u);
    EXPECT_FALSE(f.needs_resync());
    EXPECT_EQ(f.records_applied(), 1u);
    ASSERT_EQ(f.applied_version(), 3u);
    EXPECT_EQ(f.applied_checksum(), good_record(3).checksum);
    expect_matches_scratch_build(*f.snapshot());
  }
}

TEST(SnapshotChecks, RecoveryStopsReplayAtTheViolatingRecord) {
  for (const Violation& c : encodable_violations()) {
    SCOPED_TRACE(c.what);
    auto fs = std::make_shared<MemFs>();
    DurabilityOptions opts;
    const DurableState st = base_state(0);
    {
      auto dur = ShardDurability::create(fs, "d", opts, kN, 3, 0, kBase,
                                         st.checksum, kBase);
      ASSERT_NE(dur, nullptr);
      ASSERT_TRUE(dur->log_record(good_record(1)));
      // Record 2 violates §6; record 3 behind it is never reached.
      ASSERT_TRUE(dur->log_record(violating_record(2, c, grown_base())));
      WalRecord after = good_record(3);
      after.diff_inserted = {edge_key(12, 13)};
      ASSERT_TRUE(dur->log_record(after));
    }
    auto rec = ShardDurability::recover(fs, "d", opts);
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(rec->version, 1u);
    EXPECT_EQ(rec->replayed_records, 1u);
    EXPECT_TRUE(rec->tail_truncated);
    EXPECT_EQ(rec->checksum, good_record(1).checksum);
    ASSERT_NE(rec->snapshot, nullptr);
    EXPECT_EQ(rec->snapshot->checksum(), rec->checksum);
    expect_matches_scratch_build(*rec->snapshot);

    auto state = read_durable_state(*fs, "d", UINT64_MAX);
    ASSERT_TRUE(state.has_value());
    EXPECT_EQ(state->version, 1u);
    EXPECT_EQ(state->checksum, good_record(1).checksum);
    EXPECT_EQ(state->snap_keys, rec->snapshot->edge_keys());
  }
}

// --- Pinned readers while the next version is patched from theirs ----------

TEST(SnapshotConcurrency, PinnedVersionsStayValidWhileLaterOnesArePatched) {
  const int saved = num_workers();
  set_num_workers(4);
  const size_t n = 200;
  auto [initial, batches] = gen_mixed_stream(n, 1500, 40, 150, 23);
  auto svc = make_service(Backend::kFullyDynamic, n, initial);

  std::atomic<bool> done{false};
  std::atomic<uint64_t> checks{0};
  auto reader = [&] {
    // Hold a few versions at once, and audit each again after the writer
    // has moved on: a patch that wrote into its predecessor's arrays would
    // break the held version's from-scratch checksum.
    std::vector<SpannerSnapshot::Ptr> held;
    uint64_t last = 0;
    while (!done.load(std::memory_order_acquire)) {
      SpannerSnapshot::Ptr s = svc->snapshot();
      ASSERT_GE(s->version(), last);
      last = s->version();
      held.push_back(std::move(s));
      if (held.size() > 4) held.erase(held.begin());
      for (const auto& h : held) ASSERT_TRUE(h->consistent());
      checks.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::vector<std::thread> readers;
  for (int i = 0; i < 3; ++i) readers.emplace_back(reader);
  for (const auto& b : batches) svc->apply(b.insertions, b.deletions);
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_GT(checks.load(), 0u);
  EXPECT_EQ(svc->version(), batches.size());
  expect_matches_scratch_build(*svc->snapshot());
  set_num_workers(saved);
}

}  // namespace
}  // namespace parspan
