#!/usr/bin/env bash
# Runs the perf-gating Google Benchmark binaries and records JSON results at
# the repo root, seeding the perf trajectory tracked across PRs:
#   BENCH_spanner.json     — spanner construction (at 1 and 4 workers)
#                            + update throughput, plus the skewed-degree
#                            deletion streams that price the ES tree's flat
#                            in-lists
#   BENCH_primitives.json  — scan / sort / pack substrate microbenchmarks
#   BENCH_scheduler.json   — work-stealing scheduler: fork-join task
#                            overhead vs the serial floor, steal
#                            throughput, parallel_for/reduce/sort medians
#   BENCH_extensions.json  — Theorems 1.3-1.6 (sparse / ultra / bundle /
#                            sparsifier) size + batch-update throughput
#   BENCH_wal.json         — durability: saturated-ingest overhead of the
#                            WAL fsync policies vs WAL-off, and
#                            recovery-time vs log-length curve
#   BENCH_replication.json — WAL shipping: leader->follower ship+apply
#                            throughput, follower lag catch-up, and
#                            failover promotion cost — each in a protocol-
#                            only (ChannelTransport) row and a loopback-TCP
#                            (SocketTransport) row pricing the real wire
#   BENCH_net.json         — network front door: closed-loop request
#                            latency (p50/p99/p999) + saturated QPS via
#                            tools/loadgen at 1000 connections, plus the
#                            smoke-size config CI re-runs for deltas
#
# Snapshot publish, snapshot reads and sharded ingest-to-visible latency
# are measured by perfbench inside the real pipeline (DESIGN.md §5), not
# here.
#
# Usage: bench/run_benches.sh [build-dir]   (default: ./build)
#
# set -e + pipefail: a crashing bench binary aborts the script instead of
# silently writing a truncated/empty JSON for the next PR to diff against.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-$repo_root/build}"

if [[ ! -x "$build_dir/bench_primitives" ]]; then
  echo "error: bench binaries not found in $build_dir" >&2
  echo "build first: cmake -B build -S . && cmake --build build -j" >&2
  exit 1
fi

# Merge several benchmark runs into one JSON document keyed by binary name.
merge() {
  python3 - "$@" <<'EOF'
import json, sys
out = {}
for path in sys.argv[1:]:
    with open(path) as f:
        doc = json.load(f)
    name = path.rsplit('/', 1)[-1].removesuffix('.tmp.json')
    out[name] = doc
json.dump(out, sys.stdout, indent=1)
EOF
}

tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

echo "== spanner benches =="
# Construction rows at 1 and at 4 workers in the same run, so a speedup
# claim compares like with like (a 1-worker row is never held against a
# 4-worker one).
for w in 1 4; do
  PARSPAN_NUM_WORKERS=$w "$build_dir/bench_cluster_churn" \
    --benchmark_format=json \
    --benchmark_filter='BM_ClusterConstruct' \
    --benchmark_min_time=2 \
    >"$tmpdir/bench_cluster_construct_w$w.tmp.json"
done
"$build_dir/bench_cluster_churn" \
  --benchmark_format=json \
  --benchmark_filter='BM_ClusterDecrementalSkewed' \
  >"$tmpdir/bench_cluster_skewed.tmp.json"
"$build_dir/bench_spanner_updates" \
  --benchmark_format=json \
  >"$tmpdir/bench_spanner_updates.tmp.json"
merge "$tmpdir/bench_cluster_construct_w1.tmp.json" \
      "$tmpdir/bench_cluster_construct_w4.tmp.json" \
      "$tmpdir/bench_cluster_skewed.tmp.json" \
      "$tmpdir/bench_spanner_updates.tmp.json" \
  >"$repo_root/BENCH_spanner.json"
echo "wrote $repo_root/BENCH_spanner.json"

echo "== primitive benches =="
"$build_dir/bench_primitives" \
  --benchmark_format=json \
  >"$tmpdir/bench_primitives.tmp.json"
"$build_dir/bench_containers" \
  --benchmark_format=json \
  >"$tmpdir/bench_containers.tmp.json"
merge "$tmpdir/bench_primitives.tmp.json" \
      "$tmpdir/bench_containers.tmp.json" \
  >"$repo_root/BENCH_primitives.json"
echo "wrote $repo_root/BENCH_primitives.json"

echo "== extension benches (Theorems 1.3-1.6) =="
"$build_dir/bench_sparse_spanner" \
  --benchmark_format=json \
  --benchmark_filter='BM_SparseSpannerUpdates' \
  >"$tmpdir/bench_sparse_spanner.tmp.json"
"$build_dir/bench_ultra_sparse" \
  --benchmark_format=json \
  --benchmark_filter='BM_UltraUpdates' \
  >"$tmpdir/bench_ultra_sparse.tmp.json"
"$build_dir/bench_bundle" \
  --benchmark_format=json \
  --benchmark_filter='BM_MonotoneDecremental' \
  >"$tmpdir/bench_bundle.tmp.json"
"$build_dir/bench_sparsifier" \
  --benchmark_format=json \
  --benchmark_filter='BM_SparsifierUpdates' \
  >"$tmpdir/bench_sparsifier.tmp.json"
merge "$tmpdir/bench_sparse_spanner.tmp.json" \
      "$tmpdir/bench_ultra_sparse.tmp.json" \
      "$tmpdir/bench_bundle.tmp.json" \
      "$tmpdir/bench_sparsifier.tmp.json" \
  >"$repo_root/BENCH_extensions.json"
echo "wrote $repo_root/BENCH_extensions.json"

echo "== scheduler benches (fork-join overhead + steal throughput) =="
"$build_dir/bench_scheduler" \
  --benchmark_format=json \
  >"$tmpdir/bench_scheduler.tmp.json"
merge "$tmpdir/bench_scheduler.tmp.json" \
  >"$repo_root/BENCH_scheduler.json"
echo "wrote $repo_root/BENCH_scheduler.json"

echo "== wal durability benches (fsync-policy overhead + recovery curve) =="
# fdatasync latency on the shared virtio disk has a multi-ms p90 that can
# land on any one policy's run: interleave repetitions and keep only the
# aggregate rows (the *_median entries are what compare_bench.py gates on).
"$build_dir/bench_wal" \
  --benchmark_format=json \
  --benchmark_repetitions=5 \
  --benchmark_report_aggregates_only=true \
  --benchmark_enable_random_interleaving=true \
  >"$tmpdir/bench_wal.tmp.json"
merge "$tmpdir/bench_wal.tmp.json" \
  >"$repo_root/BENCH_wal.json"
echo "wrote $repo_root/BENCH_wal.json"

echo "== replication benches (WAL shipping + follower catch-up + failover) =="
# MemFs-backed: these price the protocol (frame encode/verify, checked
# replay, the follower's own chain), not the disk — keep them off the
# virtio-noise list, plain single runs suffice. The BM_Tcp* rows run the
# same pump loops through ReplicationListener + SocketTransport on
# loopback, so the Channel-vs-Tcp delta is exactly the wire cost.
"$build_dir/bench_replication" \
  --benchmark_format=json \
  >"$tmpdir/bench_replication.tmp.json"
merge "$tmpdir/bench_replication.tmp.json" \
  >"$repo_root/BENCH_replication.json"
echo "wrote $repo_root/BENCH_replication.json"

echo "== net front door (loadgen: 1000-conn full + smoke configs) =="
# loadgen is not a google-benchmark binary but emits the same JSON shape
# (rows net/<mode>/conns:<N>/{p50,p99,p999,ns_per_req}); --full runs the
# 1000-connection config AND the smoke config in one process so CI's
# `loadgen --smoke` rows always have baseline names to diff against.
"$build_dir/loadgen" --full --json \
  >"$tmpdir/loadgen.tmp.json"
merge "$tmpdir/loadgen.tmp.json" \
  >"$repo_root/BENCH_net.json"
echo "wrote $repo_root/BENCH_net.json"
