#!/usr/bin/env python3
"""Compare a fresh bench-smoke run against the checked-in BENCH_*.json medians.

The repo root carries one BENCH_*.json per bench family, written by
bench/run_benches.sh as {binary_name: <google-benchmark json doc>, ...} —
the perf trajectory tracked across PRs. The CI bench-smoke job runs every
bench binary with a tiny --benchmark_min_time and feeds the per-binary JSON
files here; this script prints a per-benchmark delta table (GitHub-flavored
markdown, appended to the job summary) and flags regressions above the
threshold.

Deltas are advisory on shared CI runners (noisy neighbors, tiny sampling
windows): a flagged row is a prompt to rerun bench/run_benches.sh on a quiet
host, not a merge blocker — UNLESS the row is on the --stable-rows
allowlist. Stable rows are benchmarks measured insensitive to runner noise
(big fixed workloads, medians); a stable row slower than the baseline by
more than --fail-over percent fails the job with exit 1. A stable row that
is named but never compared (missing from the baselines or from the smoke
run) exits 2 — a gate that silently stops gating is worse than a loud one.
Benchmarks whose names don't appear in the baselines
(e.g. tiny-size runs that change the workload, or newly added benches) are
counted but not compared; binaries listed via --skip are excluded entirely
(bench_wal runs at PARSPAN_BENCH_TINY sizes in CI, which reuses full-size
benchmark names on a different workload — a delta would be meaningless).

Baselines written with --benchmark_repetitions (BENCH_wal.json) carry only
aggregate rows; their `_median` entries compare against plain smoke rows via
`run_name`, so repetition-aggregated and single-run documents mix freely.

Exit codes: 0 = compared, no stable-row breach (other regressions are
advisory, never fail the job);
1 = a --stable-rows benchmark regressed past --fail-over percent;
2 = missing inputs (no baselines, no/unreadable smoke output, or a
    stable row that never got compared);
3 = malformed baseline (bad JSON or not a run_benches.sh document) — every
failure is a one-line actionable message, never a traceback. Structural
failures (2, 3) take priority over the perf gate (1).

Usage:
  tools/compare_bench.py --baseline-dir . --fresh-dir bench-smoke-out \
      [--threshold 0.25] [--skip bench_wal ...] \
      [--fail-over 40 --stable-rows BM_ShipApplyThroughput ...]
"""

import argparse
import glob
import json
import os
import statistics
import sys

TIME_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load_baselines(baseline_dir):
    """name -> {benchmark_name -> median real_time in ns} per bench binary.

    Exits 3 with a one-line message on any baseline this script can't use:
    a hand-edited or truncated BENCH_*.json must fail loudly, not as a
    traceback (and not silently as an empty comparison).
    """
    out = {}
    for path in sorted(glob.glob(os.path.join(baseline_dir, "BENCH_*.json"))):
        try:
            with open(path) as f:
                doc = json.load(f)
            if not isinstance(doc, dict):
                raise ValueError("top level is not a {binary: doc} object")
            for binary, sub in doc.items():
                out.setdefault(binary, {}).update(extract_medians(sub))
        except (OSError, json.JSONDecodeError, ValueError, TypeError,
                KeyError, AttributeError) as e:
            print(f"error: malformed baseline {path} ({e}) — regenerate it "
                  "with bench/run_benches.sh", file=sys.stderr)
            raise SystemExit(3)
    return out


def extract_medians(doc):
    """benchmark name -> median real_time (ns) from one google-benchmark doc."""
    samples = {}
    for b in doc.get("benchmarks", []):
        # Prefer explicit median aggregates when a run used repetitions.
        if b.get("aggregate_name") not in (None, "median"):
            continue
        name = b.get("run_name", b["name"])
        ns = float(b["real_time"]) * TIME_UNIT_NS.get(b.get("time_unit", "ns"), 1.0)
        samples.setdefault(name, []).append(ns)
    return {name: statistics.median(v) for name, v in samples.items()}


def fmt_ms(ns):
    if ns >= 1e9:
        return f"{ns / 1e9:.2f} s"
    if ns >= 1e6:
        return f"{ns / 1e6:.2f} ms"
    if ns >= 1e3:
        return f"{ns / 1e3:.2f} us"
    return f"{ns:.0f} ns"


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline-dir", default=".")
    ap.add_argument("--fresh-dir", required=True,
                    help="directory of <bench_binary>.json smoke outputs")
    ap.add_argument("--threshold", type=float, default=0.25,
                    help="warn above this relative slowdown (default 0.25)")
    ap.add_argument("--skip", nargs="*", default=[],
                    help="bench binaries to exclude from comparison")
    ap.add_argument("--fail-over", type=float, default=None, metavar="PCT",
                    help="fail (exit 1) when a --stable-rows benchmark is "
                         "slower than baseline by more than PCT percent")
    ap.add_argument("--stable-rows", nargs="*", default=[], metavar="NAME",
                    help="benchmark names gated by --fail-over (exact "
                         "run_name match, e.g. BM_TcpFollowerCatchup/64)")
    args = ap.parse_args()
    if args.stable_rows and args.fail_over is None:
        ap.error("--stable-rows requires --fail-over")

    baselines = load_baselines(args.baseline_dir)
    if not baselines:
        print(f"error: no BENCH_*.json baselines in {args.baseline_dir}",
              file=sys.stderr)
        return 2

    fresh_files = sorted(glob.glob(os.path.join(args.fresh_dir, "*.json")))
    if not fresh_files:
        print(f"error: no fresh smoke JSON in {args.fresh_dir}", file=sys.stderr)
        return 2

    rows = []
    uncompared = 0
    skipped_binaries = []
    for path in fresh_files:
        binary = os.path.splitext(os.path.basename(path))[0]
        if binary in args.skip:
            skipped_binaries.append(binary)
            continue
        try:
            with open(path) as f:
                doc = json.load(f)
            fresh = extract_medians(doc)
        except (OSError, json.JSONDecodeError, ValueError, TypeError,
                KeyError, AttributeError) as e:
            print(f"error: unusable smoke output {path} ({e}) — did the bench "
                  "binary crash mid-write?", file=sys.stderr)
            return 2
        base = baselines.get(binary, {})
        for name, ns in sorted(fresh.items()):
            if name in base:
                rows.append((binary, name, base[name], ns))
            else:
                uncompared += 1

    print("## Bench smoke vs checked-in medians")
    print()
    print(f"Threshold: warn above **{args.threshold:+.0%}** — advisory on "
          "shared runners, never a merge blocker.")
    print()
    print("| binary | benchmark | baseline | smoke | delta | |")
    print("|---|---|---:|---:|---:|---|")
    warned = 0
    stable = set(args.stable_rows)
    stable_seen = set()
    gate_failures = []
    fail_frac = (args.fail_over / 100.0) if args.fail_over is not None else None
    for binary, name, base_ns, fresh_ns in rows:
        delta = (fresh_ns - base_ns) / base_ns
        flag = ""
        if name in stable:
            stable_seen.add(name)
            if fail_frac is not None and delta > fail_frac:
                flag = "❌ stable row regressed"
                gate_failures.append((binary, name, delta))
            elif delta > args.threshold:
                flag = "⚠️ slower (stable row)"
                warned += 1
        elif delta > args.threshold:
            flag = "⚠️ slower"
            warned += 1
        elif delta < -args.threshold:
            flag = "🟢 faster"
        print(f"| {binary} | `{name}` | {fmt_ms(base_ns)} | {fmt_ms(fresh_ns)} "
              f"| {delta:+.1%} | {flag} |")
    print()
    notes = [f"{len(rows)} compared", f"{uncompared} without a baseline match"]
    if skipped_binaries:
        notes.append("skipped (tiny-size workloads): "
                     + ", ".join(skipped_binaries))
    print("_" + "; ".join(notes) + "._")
    if warned:
        print(f"\n**{warned} benchmark(s) regressed past the threshold** — "
              "rerun `bench/run_benches.sh` on a quiet host to confirm.")

    # The --fail-over gate. An allowlisted row that was never compared is a
    # missing input: the gate must not pass vacuously.
    missing_stable = stable - stable_seen
    if missing_stable:
        print("error: stable row(s) never compared: "
              + ", ".join(sorted(missing_stable))
              + " — regenerate the baseline with bench/run_benches.sh or fix "
                "the row name", file=sys.stderr)
        return 2
    if gate_failures:
        print(f"\n**{len(gate_failures)} stable row(s) regressed more than "
              f"{args.fail_over:.0f}% — failing the job:**")
        for binary, name, delta in gate_failures:
            print(f"- {binary} `{name}`: {delta:+.1%}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
