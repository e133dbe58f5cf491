// The benchmark's workloads. Each one generates its inputs from the seed
// before any clock starts, drives the library only through its public
// functions, and checks the outputs it gets back.
//
//   small_batch  FullyDynamicSpanner n=4096 k=3, 1 shard, WAL + checkpoints
//                on MemFs, closed loop of 64-update batches (submit, flush),
//                a follower catching up over ChannelTransport every 64
//                records, then repeated crash/recover.
//   tenants      four UltraSparseSpanner tenants on GraphIdRouter, rounds
//                of one 1024-update batch per tenant then flush; no WAL.
//   serve        NetServer (one event loop) over a 2-shard single-graph
//                service: pipelined wire reads, closed loop then open loop,
//                beside 64-edge wire writes at a fixed rate.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "net/protocol.hpp"
#include "report.hpp"
#include "service/sharded_service.hpp"
#include "trace.hpp"

namespace perfbench {

/// Every knob of one workload. All counts are fixed per (workload,
/// seconds): a run does the same work whatever the host's speed.
struct Params {
  std::string name;
  size_t n = 4096;
  bool ultra = false;       // UltraSparseSpanner (else FullyDynamicSpanner)
  uint32_t k = 3;           // stretch 2k-1 of the fully-dynamic backend
  uint32_t shards = 1;      // shards (single graph) or tenants
  bool tenants = false;     // GraphIdRouter tenants vs one VertexRange graph
  size_t initial_m = 0;     // initial edges per stream
  size_t batch = 64;        // updates per batch
  size_t ingest_batches = 0;  // closed-loop batches (rounds for tenants)
  bool durable = false;     // WAL + checkpoints on MemFs
  size_t lag = 64;          // follower catch-up every this many records
  size_t recover_reps = 0;  // crash/recover repetitions
  size_t recover_gap = 0;   // batches logged before each crash
  int workers = 1;          // scheduler loop parallelism
  int writers = 1;          // concurrent shard drains
  // serve
  double closed_s = 0;      // closed-loop read phase length
  double open_s = 0;        // open-loop read phase length
  double read_rate = 0;     // open-loop reads per second
  double write_rate = 0;    // wire write batches per second
  size_t generated_batches() const;
};

/// Parameters of a named workload; `ok` false for an unknown name.
Params params_for(const std::string& workload, int seconds, bool* ok);

/// The generated inputs: one stream per tenant, or one for the single
/// graph (the service splits it by owner shard).
struct Inputs {
  Params p;
  uint64_t seed = 0;
  std::vector<std::vector<parspan::Edge>> initial;
  std::vector<std::vector<parspan::UpdateBatch>> batches;
};
Inputs make_inputs(const Params& p, uint64_t seed);

/// What one end-to-end pass measured and checked.
struct Outcome {
  std::vector<std::string> failed_checks;
  Ledger ledger;
  double setup_s = 0;
  double ingest_edges_per_s = 0;
  std::vector<double> visible_ms;        // every write's submit-to-visible
  std::map<int64_t, double> batch_visible_ms;  // per batch / round id
  double read_per_s = 0;
  std::vector<double> read_us;           // open loop, from the due time
  std::vector<double> late_ms;           // open-loop send lateness
  std::vector<double> recover_s;
  double catchup_records_per_s = 0;
  uint64_t edges_rejected = 0, edges_timed_out = 0;
  uint64_t net_requests = 0, net_retry_afters = 0, net_protocol_errors = 0;
  uint64_t tasks_spawned = 0, tasks_stolen = 0, parks = 0;

  void check(bool ok, const std::string& what) {
    if (!ok) failed_checks.push_back(what);
  }
};

/// Failure accounting: a submit_for timeout, a kRetryAfter and a kError
/// are failed operations.
void tally(Ledger& l, parspan::ShardedSpannerService::SubmitStatus st);
void tally(Ledger& l, parspan::net::Status st);

/// One end-to-end pass. With a tracer, spans are recorded around the
/// benchmark's calls into the service and the wire.
Outcome run_workload(const Inputs& in, Tracer* tracer);

/// The traced re-drive: the same seeded stream through the layer functions
/// in the order the service calls them (update, publish split into merge /
/// CSR / checksum, WAL log, checkpoint, ship, follower apply, replay,
/// rebuild, in-process reads).
struct LayerOutcome {
  std::vector<std::string> failed_checks;
  std::map<std::string, double> metrics;
  /// Per batch / round: the slowest shard's update + publish + log +
  /// checkpoint time, ms — the stage sum the visible latency is split by.
  std::map<int64_t, double> stage_ms;
};
LayerOutcome run_layers(const Inputs& in, Tracer& tracer);

}  // namespace perfbench
