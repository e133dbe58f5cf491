// Tests of the benchmark's own helpers: the tail-percentile rule, failure
// accounting, and the deterministic per-layer counts.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <vector>

#include "graph/generators.hpp"
#include "report.hpp"
#include "service/sharded_service.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using parspan::ShardedSpannerService;

TEST(TailPercentile, HighestWithTenSamplesBeyond) {
  EXPECT_EQ(samples_beyond(1000, 99.0), 10u);
  EXPECT_EQ(tail_percentile(1000), 99.0);
  EXPECT_EQ(tail_percentile(999), 90.0);  // p99 would rest on 9 samples
  EXPECT_EQ(tail_percentile(10000), 99.9);
  EXPECT_EQ(tail_percentile(100000), 99.99);
  EXPECT_EQ(tail_percentile(100), 90.0);
  EXPECT_EQ(tail_percentile(99), 50.0);
  EXPECT_EQ(tail_percentile(20), 50.0);
  EXPECT_EQ(tail_percentile(19), 100.0);  // too few: the maximum
}

TEST(TailPercentile, SummaryStatesWhatTheTailRestsOn) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(double(1001 - i));
  const Summary s = summarize(v);
  EXPECT_EQ(s.n, 1000u);
  EXPECT_EQ(s.p50, 500.0);
  EXPECT_EQ(s.tail_pct, 99.0);
  EXPECT_EQ(s.tail, 990.0);
  EXPECT_EQ(s.beyond, 10u);
  EXPECT_EQ(v.front(), 1000.0);  // input untouched
}

TEST(FailedRatio, RefusalsErrorsAndTimeoutsCount) {
  Ledger l;
  tally(l, parspan::net::Status::kOk);
  tally(l, parspan::net::Status::kRetryAfter);
  tally(l, parspan::net::Status::kError);
  tally(l, ShardedSpannerService::SubmitStatus::kOk);
  tally(l, ShardedSpannerService::SubmitStatus::kTimeout);
  EXPECT_EQ(l.attempted(), 5u);
  EXPECT_EQ(l.failed(), 3u);
  l.reclassify_failed(1);  // e.g. a protocol error on an attempted request
  EXPECT_EQ(l.attempted(), 5u);
  EXPECT_DOUBLE_EQ(l.failed_ratio(), 4.0 / 5.0);
  EXPECT_EQ(Ledger().failed_ratio(), 0.0);
}

TEST(FailedRatio, SubmitForTimeoutOnAFullQueueIsAFailure) {
  // A paused service with a tiny queue: the second batch cannot be
  // admitted before its deadline.
  const auto edges = parspan::gen_erdos_renyi(64, 16, 5);
  parspan::ShardedConfig cfg;
  cfg.queue_capacity = 4;
  cfg.start_paused = true;
  auto svc = ShardedSpannerService::single_graph(
      64, {}, 1, parspan::FullyDynamicSpannerConfig{2, 1}, cfg);
  Ledger l;
  const std::vector<parspan::Edge> first(edges.begin(), edges.begin() + 8);
  const std::vector<parspan::Edge> second(edges.begin() + 8, edges.end());
  tally(l, svc->submit_for(first, {}, std::chrono::milliseconds(50)));
  tally(l, svc->submit_for(second, {}, std::chrono::milliseconds(5)));
  EXPECT_EQ(l.attempted(), 2u);
  EXPECT_EQ(l.failed(), 1u);
  EXPECT_EQ(svc->edges_timed_out(), second.size());
  svc->flush();
}

TEST(ResultJson, HasExactlyTheFourKeys) {
  const std::string j =
      result_json(true, 3, 0, {{"setup_s", 0.25, "s"}, {"x", 1.5, "1/s"}});
  EXPECT_EQ(j,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
            "\"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, "
            "\"x\": {\"value\": 1.5, \"unit\": \"1/s\"}}}");
}

std::map<std::string, double> deterministic_counts(const Params& p,
                                                   uint64_t seed) {
  const Inputs in = make_inputs(p, seed);
  Tracer tr;
  const LayerOutcome lo = run_layers(in, tr);
  EXPECT_TRUE(lo.failed_checks.empty());
  std::map<std::string, double> out;
  for (const char* k : {"core.diff_keys_per_batch", "core.rebuilds",
                        "core.spanner_edges", "durability.wal_bytes_per_record"})
    out[k] = lo.metrics.at(k);
  return out;
}

TEST(DeterministicCounts, RepeatExactlyForOneSeed) {
  bool ok = false;
  Params fd = params_for("small_batch", 1, &ok);
  ASSERT_TRUE(ok);
  fd.n = 512;
  fd.initial_m = 6000;
  fd.ingest_batches = 128;
  Params ultra = params_for("tenants", 1, &ok);
  ASSERT_TRUE(ok);
  ultra.n = 512;
  ultra.initial_m = 8 * 512;
  ultra.batch = 128;
  ultra.ingest_batches = 8;
  for (const Params& p : {fd, ultra}) {
    const auto a = deterministic_counts(p, 11);
    const auto b = deterministic_counts(p, 11);
    EXPECT_EQ(a, b) << p.name;
    EXPECT_GT(a.at("core.spanner_edges"), 0.0) << p.name;
    EXPECT_GT(a.at("durability.wal_bytes_per_record"), 0.0) << p.name;
  }
  EXPECT_NE(deterministic_counts(fd, 11), deterministic_counts(fd, 12));
}

}  // namespace
}  // namespace perfbench
