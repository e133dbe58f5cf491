// perfbench: the repository's end-to-end benchmark program.
//
//   perfbench --workload <small_batch|tenants> --seed <n> --seconds <s>
//             --trace <0|1> [--commit <id>] [--trace-out <file>]
//
// --trace 0 runs the workload once, untraced, and reports the end-to-end
// metrics. --trace 1 runs it untraced, then traced, then re-drives the same
// seeded stream through the layer functions, and reports the per-layer
// metrics (with the tracing overhead and the share of the visible latency
// the stage spans account for); the spans go to --trace-out. small_batch's
// traced run also runs the wire scenario ("serve") on the same fixture for
// the net layer's numbers.
//
// Output: a context line (host, build, seed, calibration, the percentile
// and sample count behind every tail), any failed checks, and last the
// result line {"correct", "attempted", "failed", "metrics"}. The exit code
// is non-zero when a correctness check failed.
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "report.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

volatile uint64_t g_sink = 0;

/// A fixed single-threaded loop, timed three times (median, ms): how fast
/// this host runs right now, so drift can be told apart from a change.
double calibration_ms() {
  std::vector<double> t;
  for (int rep = 0; rep < 3; ++rep) {
    uint64_t h = 0;
    const int64_t t0 = now_ns();
    for (uint64_t i = 0; i < 20'000'000; ++i) h = parspan::splitmix64(h ^ i);
    t.push_back(double(now_ns() - t0) / 1e6);
    g_sink = g_sink ^ h;
  }
  return median(t);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;
}

double median_or_zero(const std::vector<double>& v) {
  return v.empty() ? 0.0 : median(v);
}

std::string tail_json(const std::string& name, const Summary& s) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "\"%s\": {\"percentile\": %g, \"samples\": %zu, "
                "\"beyond\": %zu}",
                name.c_str(), s.tail_pct, s.n, s.beyond);
  return buf;
}

std::vector<Metric> end_to_end(const Outcome& o) {
  const Summary vis = summarize(o.visible_ms);
  return {
      {"setup_s", o.setup_s, "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"ingest_edges_per_s", o.ingest_edges_per_s, "1/s"},
      {"visible_p50_ms", vis.p50, "ms"},
      {"visible_tail_ms", vis.tail, "ms"},
  };
}

std::vector<Metric> per_layer(const Params& p, const Outcome& plain,
                              const Outcome& traced, const Tracer& te,
                              const LayerOutcome& lay, const Tracer& tl,
                              const Outcome& serve) {
  auto lm = [&](const char* k) {
    auto it = lay.metrics.find(k);
    return it == lay.metrics.end() ? 0.0 : it->second;
  };
  // service.wait_ms: each batch's visible latency minus its stage sum
  // (same batch id in the traced pass and the re-drive).
  std::vector<double> wait, stage;
  for (const auto& [id, vis] : traced.batch_visible_ms) {
    auto it = lay.stage_ms.find(id);
    if (it == lay.stage_ms.end()) continue;
    wait.push_back(vis - it->second);
    stage.push_back(it->second);
  }
  const double vis_p50 = summarize(plain.visible_ms).p50;
  // Shipping and applying, per 64-record catch-up of the re-drive.
  std::vector<double> ship;
  for (const auto& [id, us] : tl.per_batch_sum({"replication.ship"}, 1e3))
    ship.push_back(us);
  double apply_us = 0;
  for (double us : tl.durations("replication.apply")) apply_us += us;
  const double caught_up = double(ship.size() * p.lag);
  const Summary reads = summarize(serve.read_us);
  const Summary late = summarize(serve.late_ms);
  const Summary serve_vis = summarize(serve.visible_ms);
  const double base = plain.ingest_edges_per_s;
  return {
      {"core.update_us", median_or_zero(tl.durations("core.update")), "us"},
      {"core.diff_keys_per_batch", lm("core.diff_keys_per_batch"), "count"},
      {"core.rebuilds", lm("core.rebuilds"), "count"},
      {"core.spanner_edges", lm("core.spanner_edges"), "count"},
      {"core.rebuild_ms", median_or_zero(tl.durations("core.rebuild", 1e6)), "ms"},
      {"service.publish_us", median_or_zero(tl.durations("service.publish")), "us"},
      {"service.merge_us", median_or_zero(tl.durations("service.merge")), "us"},
      {"service.csr_us", median_or_zero(tl.durations("service.csr")), "us"},
      {"service.checksum_us", median_or_zero(tl.durations("service.checksum")), "us"},
      {"service.submit_us", median_or_zero(te.durations("service.submit")), "us"},
      {"service.wait_ms", median_or_zero(wait), "ms"},
      {"service.read_block_ns_per_query", lm("service.read_block_ns_per_query"), "ns"},
      {"service.edges_rejected", double(traced.edges_rejected), "count"},
      {"service.edges_timed_out", double(traced.edges_timed_out), "count"},
      {"durability.log_us", median_or_zero(tl.durations("durability.log")), "us"},
      {"durability.checkpoint_ms",
       median_or_zero(tl.durations("durability.checkpoint", 1e6)), "ms"},
      {"durability.wal_bytes_per_record", lm("durability.wal_bytes_per_record"), "B"},
      {"durability.replay_ms",
       median_or_zero(tl.durations("durability.replay", 1e6)), "ms"},
      {"replication.ship_us", median_or_zero(ship), "us"},
      {"replication.apply_us_per_record",
       caught_up > 0 ? apply_us / caught_up : 0.0, "us"},
      {"replication.rejects", lm("replication.rejects"), "count"},
      {"replication.resyncs", lm("replication.resyncs"), "count"},
      {"net.rtt_us.has_edge", median_or_zero(te.durations("net.has_edge")), "us"},
      {"net.rtt_us.neighbors", median_or_zero(te.durations("net.neighbors")), "us"},
      {"net.rtt_us.bfs", median_or_zero(te.durations("net.bfs")), "us"},
      {"net.rtt_us.submit", median_or_zero(te.durations("net.submit")), "us"},
      {"net.rtt_us.flush", median_or_zero(te.durations("net.flush")), "us"},
      {"net.requests", double(serve.net_requests), "count"},
      {"net.retry_afters", double(serve.net_retry_afters), "count"},
      {"net.protocol_errors", double(serve.net_protocol_errors), "count"},
      {"load.late_ms", serve.late_ms.empty() ? 0.0 : late.tail, "ms"},
      {"parallel.tasks_spawned", double(traced.tasks_spawned), "count"},
      {"parallel.tasks_stolen", double(traced.tasks_stolen), "count"},
      {"parallel.parks", double(traced.parks), "count"},
      {"read_per_s", serve.read_per_s, "1/s"},
      {"read_p50_us", reads.p50, "us"},
      {"read_tail_us", reads.tail, "us"},
      {"serve.visible_p50_ms", serve_vis.p50, "ms"},
      {"serve.visible_tail_ms", serve_vis.tail, "ms"},
      {"recover_s", median_or_zero(plain.recover_s), "s"},
      {"catchup_records_per_s", plain.catchup_records_per_s, "1/s"},
      {"failed_ratio", plain.ledger.failed_ratio(), "ratio"},
      {"trace.overhead", base / traced.ingest_edges_per_s - 1.0, "ratio"},
      {"trace.coverage", vis_p50 > 0 ? median_or_zero(stage) / vis_p50 : 0.0,
       "ratio"},
  };
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <small_batch|tenants> "
               "--seed <n> --seconds <s> --trace <0|1> [--commit <id>] "
               "[--trace-out <file>]\n");
  return 2;
}

int run(int argc, char** argv) {
  std::string workload, commit = "unknown", trace_out;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage();
    const char* v = argv[++i];
    if (a == "--workload") workload = v;
    else if (a == "--seed") seed = std::strtoull(v, nullptr, 10);
    else if (a == "--seconds") seconds = std::atoi(v);
    else if (a == "--trace") trace = std::strcmp(v, "0") != 0;
    else if (a == "--commit") commit = v;
    else if (a == "--trace-out") trace_out = v;
    else return usage();
  }
  bool known = false;
  const Params p = params_for(workload, seconds, &known);
  if (!known || workload == "serve" || seconds < 1) return usage();

  const double calib = calibration_ms();
  const Inputs in = make_inputs(p, seed);  // before any clock starts

  std::vector<std::string> failed;
  std::vector<Metric> metrics;
  Outcome plain = run_workload(in, nullptr);
  failed = plain.failed_checks;
  std::string tails = tail_json("visible_tail_ms", summarize(plain.visible_ms));
  std::string extra;  // context of the traced run's extra passes
  Ledger ledger = plain.ledger;
  if (!trace) {
    metrics = end_to_end(plain);
  } else {
    Tracer te, tl;
    Outcome traced = run_workload(in, &te);
    LayerOutcome lay = run_layers(in, tl);
    // The wire scenario runs on small_batch's fixture in its traced run.
    Outcome serve;
    if (p.name == "small_batch") {
      bool ok = false;
      const Params sp = params_for("serve", seconds, &ok);
      serve = run_workload(make_inputs(sp, seed), &te);
      extra += ", \"serve\": {\"workers\": " + std::to_string(sp.workers) +
               ", \"writers\": " + std::to_string(sp.writers) +
               ", \"event_loops\": 1, \"client_threads\": 1}";
    }
    for (const auto& f : traced.failed_checks) failed.push_back("traced: " + f);
    for (const auto& f : serve.failed_checks) failed.push_back("serve: " + f);
    for (const auto& f : lay.failed_checks) failed.push_back(f);
    ledger.add(traced.ledger);
    ledger.add(serve.ledger);
    metrics = per_layer(p, plain, traced, te, lay, tl, serve);
    if (!serve.read_us.empty()) {
      tails += ", " + tail_json("read_tail_us", summarize(serve.read_us));
      tails += ", " + tail_json("load.late_ms", summarize(serve.late_ms));
      tails += ", " + tail_json("serve.visible_tail_ms", summarize(serve.visible_ms));
    }
    if (!trace_out.empty()) {
      const bool ok = te.dump(trace_out + ".e2e.jsonl") &&
                      tl.dump(trace_out + ".layers.jsonl");
      if (!ok) failed.push_back("trace spans written");
    }
  }

  std::string ctx = "{\"context\": {";
  ctx += "\"workload\": \"" + json_escape(workload) + "\"";
  ctx += ", \"seed\": " + std::to_string(seed);
  ctx += ", \"seconds\": " + std::to_string(seconds);
  ctx += ", \"trace\": " + std::string(trace ? "1" : "0");
  ctx += ", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  ctx += ", \"workers\": " + std::to_string(p.workers);
  ctx += ", \"writers\": " + std::to_string(p.writers);
  ctx += ", \"build_type\": \"" + json_escape(PERFBENCH_BUILD_TYPE) + "\"";
  ctx += ", \"commit\": \"" + json_escape(commit) + "\"";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3f", calib);
  ctx += ", \"calibration_ms\": " + std::string(buf);
  ctx += extra + ", \"tails\": {" + tails + "}}}";
  std::printf("%s\n", ctx.c_str());
  for (const auto& f : failed) std::printf("FAILED CHECK: %s\n", f.c_str());
  std::printf("%s\n", result_json(failed.empty(), ledger.attempted(),
                                  ledger.failed(), metrics)
                          .c_str());
  std::fflush(stdout);
  return failed.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }
