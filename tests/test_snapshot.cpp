// Snapshot patch-publish tests (DESIGN.md §8.2): every version built by
// SpannerSnapshot::apply's checked patch equals a from-scratch build of
// its own key set, on both backends at 1 and 4 workers; every §6
// violation is rejected — by the patch itself (on fresh, patched and
// freshly rewritten versions), by a follower (counted reject, then resync)
// and by recovery (replay stops at the record); versions that share their
// untouched lists with their predecessors stay valid along a long chain of
// patches and flat rewrites, with the arena holding at most twice the
// live arcs; and readers that pin version v keep a valid view while v+1,
// v+2, ... are patched from v's storage.
//
// Carries the concurrency label: the CI sanitizer jobs run the pinned-
// reader test with real worker threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <set>
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
#include "util/rng.hpp"
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

// --- Shared storage along a chain of patches --------------------------------

// A random strictly ascending diff against `present`: up to `ins` absent
// keys inserted and `del` present keys removed, over vertices [0, n).
struct KeyDiff {
  std::vector<EdgeKey> add, rem;
};

KeyDiff random_diff(const std::set<EdgeKey>& present, size_t n, size_t ins,
                    size_t del, Rng& rng) {
  std::set<EdgeKey> add, rem;
  std::vector<EdgeKey> have(present.begin(), present.end());
  for (size_t i = 0; i < del && !have.empty(); ++i)
    rem.insert(have[rng.next_below(have.size())]);
  for (size_t i = 0; i < ins; ++i) {
    const VertexId u = VertexId(rng.next_below(n));
    const VertexId v = VertexId(rng.next_below(n));
    if (u != v && !present.contains(edge_key(u, v)))
      add.insert(edge_key(u, v));
  }
  return {{add.begin(), add.end()}, {rem.begin(), rem.end()}};
}

// The §6 violations of ApplyRejectsEverySection6Violation, built against
// whatever `prev` holds: each must return nullptr and leave prev as it was.
void expect_rejections_leave_prev_intact(const SpannerSnapshot& prev) {
  const std::vector<EdgeKey> keys = prev.edge_keys();
  ASSERT_GE(keys.size(), 2u);
  const size_t n = prev.num_vertices();
  EdgeKey absent = kNoEdge, absent2 = kNoEdge;
  for (VertexId u = 0; u < n && absent2 == kNoEdge; ++u)
    for (VertexId v = u + 1; v < n && absent2 == kNoEdge; ++v)
      if (!std::binary_search(keys.begin(), keys.end(), edge_key(u, v)))
        (absent == kNoEdge ? absent : absent2) = edge_key(u, v);
  ASSERT_NE(absent2, kNoEdge);
  using Keys = std::vector<EdgeKey>;
  const struct {
    const char* what;
    Keys add, rem;
  } cases[] = {
      {"unsorted side", {absent2, absent}, {}},
      {"out-of-range key", {absent, edge_key(0, VertexId(n))}, {}},
      {"absent removal", {absent2}, {keys[0], absent}},
      {"present insertion", {absent, keys.back()}, {keys[0]}},
  };
  const uint64_t checksum = prev.checksum();
  for (const auto& c : cases)
    EXPECT_EQ(SpannerSnapshot::apply(prev, c.add, c.rem), nullptr)
        << c.what << " at version " << prev.version();
  EXPECT_TRUE(prev.consistent());
  EXPECT_EQ(prev.checksum(), checksum);
  EXPECT_EQ(prev.edge_keys(), keys);
}

TEST(SnapshotSharing, PinnedChainSurvivesPatchesAndFlatRewrites) {
  const size_t n = 64;
  Rng rng(41);
  std::set<EdgeKey> present;
  for (const KeyDiff& d = random_diff({}, n, 400, 0, rng); EdgeKey k : d.add)
    present.insert(k);
  std::vector<SpannerSnapshot::Ptr> chain = {SpannerSnapshot::restore(
      n, 3, 0, std::vector<EdgeKey>(present.begin(), present.end()))};
  std::vector<std::vector<EdgeKey>> want = {chain[0]->edge_keys()};
  std::vector<uint64_t> checksums = {chain[0]->checksum()};
  size_t rewrites = 0, after_rewrite = 0;
  for (size_t i = 0; i < 150; ++i) {
    const SpannerSnapshot& prev = *chain.back();
    // Depth 0, every patched version and every flat rewrite: the checks
    // hold wherever prev's lists live.
    expect_rejections_leave_prev_intact(prev);
    if (i > 0 && chain[i - 1]->flat() && !prev.flat()) ++after_rewrite;
    const KeyDiff d = random_diff(present, n, 3, 3, rng);
    auto next = SpannerSnapshot::apply(prev, d.add, d.rem);
    ASSERT_NE(next, nullptr) << "patch " << i;
    for (EdgeKey k : d.rem) present.erase(k);
    for (EdgeKey k : d.add) present.insert(k);
    EXPECT_LE(next->held_arcs(), 2 * 2 * next->num_edges()) << "patch " << i;
    if (next->flat()) ++rewrites;
    want.emplace_back(present.begin(), present.end());
    checksums.push_back(next->checksum());
    chain.push_back(std::move(next));
  }
  // Deletions only: the bound follows the live arcs down.
  for (size_t i = 0; i < 60; ++i) {
    const KeyDiff d = random_diff(present, n, 0, 4, rng);
    auto next = SpannerSnapshot::apply(*chain.back(), d.add, d.rem);
    ASSERT_NE(next, nullptr) << "deletion " << i;
    for (EdgeKey k : d.rem) present.erase(k);
    EXPECT_LE(next->held_arcs(), 2 * 2 * next->num_edges()) << "deletion " << i;
    want.emplace_back(present.begin(), present.end());
    checksums.push_back(next->checksum());
    chain.push_back(std::move(next));
  }
  EXPECT_GE(rewrites, 2u);
  EXPECT_GE(after_rewrite, 2u);
  // Every version is still pinned: later patches and rewrites left each
  // one's lists and checksum exactly as published.
  for (size_t v = 0; v < chain.size(); ++v) {
    SCOPED_TRACE(v);
    ASSERT_TRUE(chain[v]->consistent());
    EXPECT_EQ(chain[v]->checksum(), checksums[v]);
    EXPECT_EQ(chain[v]->edge_keys(), want[v]);
    expect_matches_scratch_build(*chain[v]);
  }
}

TEST(SnapshotSharing, TwoDiffsOnOnePrevYieldIndependentVersions) {
  const size_t n = 48;
  Rng rng(43);
  std::set<EdgeKey> present;
  for (const KeyDiff& d = random_diff({}, n, 300, 0, rng); EdgeKey k : d.add)
    present.insert(k);
  auto base = SpannerSnapshot::restore(
      n, 3, 0, std::vector<EdgeKey>(present.begin(), present.end()));
  // A few patches first, so both branches share storage with prev.
  for (int i = 0; i < 3; ++i) {
    const KeyDiff d = random_diff(present, n, 2, 2, rng);
    base = SpannerSnapshot::apply(*base, d.add, d.rem);
    ASSERT_NE(base, nullptr);
    for (EdgeKey k : d.rem) present.erase(k);
    for (EdgeKey k : d.add) present.insert(k);
  }
  ASSERT_FALSE(base->flat());
  const std::vector<EdgeKey> base_keys = base->edge_keys();
  std::set<EdgeKey> left = present, right = present;
  SpannerSnapshot::Ptr a = base, b = base;
  for (int i = 0; i < 4; ++i) {
    const KeyDiff da = random_diff(left, n, 3, 3, rng);
    const KeyDiff db = random_diff(right, n, 3, 3, rng);
    a = SpannerSnapshot::apply(*a, da.add, da.rem);
    b = SpannerSnapshot::apply(*b, db.add, db.rem);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    if (i == 0) {
      // The first branch patches into the storage past base; the second
      // finds that region taken and rewrites flat.
      EXPECT_FALSE(a->flat());
      EXPECT_TRUE(b->flat());
    }
    for (EdgeKey k : da.rem) left.erase(k);
    for (EdgeKey k : da.add) left.insert(k);
    for (EdgeKey k : db.rem) right.erase(k);
    for (EdgeKey k : db.add) right.insert(k);
  }
  ASSERT_NE(left, right);
  EXPECT_EQ(a->version(), b->version());
  expect_matches_scratch_build(*a);
  expect_matches_scratch_build(*b);
  EXPECT_EQ(a->edge_keys(), std::vector<EdgeKey>(left.begin(), left.end()));
  EXPECT_EQ(b->edge_keys(), std::vector<EdgeKey>(right.begin(), right.end()));
  EXPECT_NE(a->checksum(), b->checksum());
  expect_matches_scratch_build(*base);
  EXPECT_EQ(base->edge_keys(), base_keys);
}

TEST(SnapshotSharing, DiffTouchingMostVerticesTakesTheFlatPath) {
  const size_t n = 64;
  Rng rng(47);
  std::set<EdgeKey> present;
  for (const KeyDiff& d = random_diff({}, n, 500, 0, rng); EdgeKey k : d.add)
    present.insert(k);
  auto snap = SpannerSnapshot::restore(
      n, 3, 0, std::vector<EdgeKey>(present.begin(), present.end()));
  const KeyDiff small = random_diff(present, n, 2, 2, rng);
  snap = SpannerSnapshot::apply(*snap, small.add, small.rem);
  ASSERT_NE(snap, nullptr);
  ASSERT_FALSE(snap->flat());  // a patch: untouched lists shared
  for (EdgeKey k : small.rem) present.erase(k);
  for (EdgeKey k : small.add) present.insert(k);

  // An insertion at every even vertex.
  std::vector<EdgeKey> add;
  for (VertexId u = 0; u < n; u += 2)
    for (VertexId v = u + 1; v < n; v += 2)
      if (!present.contains(edge_key(u, v))) {
        add.push_back(edge_key(u, v));
        break;
      }
  ASSERT_GE(add.size(), n / 2 - 2);
  std::sort(add.begin(), add.end());
  auto flat = SpannerSnapshot::apply(*snap, add, {});
  ASSERT_NE(flat, nullptr);
  EXPECT_TRUE(flat->flat());
  EXPECT_EQ(flat->held_arcs(), 2 * flat->num_edges());
  expect_matches_scratch_build(*flat);
  expect_matches_scratch_build(*snap);
  // The flat path checks the same contract: a present key at the end of a
  // diff this large still rejects it.
  add.push_back(*present.rbegin());
  std::sort(add.begin(), add.end());
  EXPECT_EQ(SpannerSnapshot::apply(*snap, add, {}), nullptr);
  expect_matches_scratch_build(*snap);

  // Straight after a rewrite the arena has room for a patch as large as
  // the live arcs. A diff whose touched lists hold most of them still goes
  // flat: one removal at each vertex of a matching over ~70% of them.
  std::vector<EdgeKey> rem;
  std::vector<bool> matched(n, false);
  for (EdgeKey k : present) {
    auto [u, v] = edge_endpoints(k);
    if (v < 44 && !matched[u] && !matched[v]) {
      matched[u] = matched[v] = true;
      rem.push_back(k);
    }
  }
  ASSERT_GE(rem.size(), 18u);
  auto fresh = SpannerSnapshot::restore(
      n, 3, 0, std::vector<EdgeKey>(present.begin(), present.end()));
  auto trimmed = SpannerSnapshot::apply(*fresh, {}, rem);
  ASSERT_NE(trimmed, nullptr);
  EXPECT_TRUE(trimmed->flat());
  expect_matches_scratch_build(*trimmed);
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
