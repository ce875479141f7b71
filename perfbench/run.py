"""tripow benchmark: three seeded closed-loop workloads, one client each.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload dense-1k --seed 1 --seconds 40 --trace 0

Workloads (see workloads.py for why each exists):

    dense-1k    power_matrix at n=1024, three (family, n) keys
    verify-mid  power_verify(tol=1e-8) at n in {128, 256}, s in {64, 4096, -3}
    cli-json    in-process ``tripow power --format json`` at n from 16 to 96

The benchmark drives tripow only through its public functions and imports it
from ``src`` next to this directory.  Each run first starts SETUP_RUNS
processes that only set up (import, generate inputs, warm up), then one
process that also times operations for --seconds; cli-json instead starts one
process per pass over its keys until the seconds are spent.  Every output is
checked by an independent probe (probe.py) outside the timed region.

With --trace 0 the run prints the end-to-end metrics; with --trace 1 it
alternates whole input cycles with and without boundary wrappers (spans.py)
and prints per-layer metrics, writing the spans to perfbench/out/.  Human-readable
lines go first; the last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 only when every
operation succeeded and passed the probe.

Self-tests of the generator, probe and wrappers: python3 perfbench/selftest.py
Recorded results, one point per measured commit: perfbench/trajectory.json
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from machine import BLAS_THREAD_VARS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOAD_NAMES = ("dense-1k", "verify-mid", "cli-json")

# Processes that only set up; with the timing processes they give the
# samples whose median is setup_s.
SETUP_RUNS = 3
# The tail is the highest percentile, up to TAIL_MAX_PERCENTILE, with at
# least TAIL_BEYOND samples beyond it.  Beyond p99 the slowest samples on a
# small shared machine are operations the host preempted, not the program's
# own slowest inputs, and they change from run to run.
TAIL_BEYOND = 10
TAIL_MAX_PERCENTILE = 99.0
# The whole run must end within this many seconds.
RUN_LIMIT_S = 170.0
MAX_PROCESSES = 200


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _parse_args(argv):
    parser = argparse.ArgumentParser(description="tripow benchmark")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _worker_env():
    # One client on one thread.  A second BLAS thread on a small shared
    # machine waits for a core that other processes hold, which puts stalls
    # of several milliseconds into the latency tail of every workload.
    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    return env


def _spawn(args, deadline, extra):
    command = [
        sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
        "--trace", str(args.trace), *extra,
    ]
    spawned_at = time.monotonic()
    timeout = deadline - spawned_at
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [*command, "--spawned-at", repr(spawned_at)],
            cwd=ROOT, env=_worker_env(), capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded {timeout:.0f} s: {' '.join(command)}") from None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {proc.returncode}: {' '.join(command)}")
    return json.loads(lines[-1])


def _ops_per_s(reports, traced=False):
    """Operations per second of op time, over the completed input cycles.

    Every cycle of a workload holds the same mix of inputs, so the partly
    run last cycle is left out.  The ratio of sums is steadier than a median
    of per-cycle rates: a small shared machine switches between a fast and a
    slow speed, often for seconds at a time, and a median over a few dozen
    cycles jumps with the share of slow ones while a sum moves in proportion.
    """
    cycles = [(ops, ns) for report in reports for mode, ops, ns in report["cycles"]
              if mode == traced and ops]
    if not cycles:
        raise BenchError("no input cycle completed; run for more seconds")
    return sum(ops for ops, _ in cycles) / (sum(ns for _, ns in cycles) / 1e9)


def _tail(latencies_ms):
    """The tail percentile, its value and the number of samples beyond it."""
    ordered = sorted(latencies_ms)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise BenchError(f"only {n} timed operations; need more than {TAIL_BEYOND} for a tail")
    beyond = max(TAIL_BEYOND, math.ceil(n * (100.0 - TAIL_MAX_PERCENTILE) / 100.0))
    return 100.0 * (n - beyond) / n, ordered[n - beyond - 1], beyond


def _end_to_end(setups, reports):
    """The end-to-end metrics, and the median latency, which is printed only.

    The median is left out of the metrics because it is not steady on a
    small shared machine.  The machine switches between a fast and a slow
    speed; every input class then takes two typical times, and the median
    falls between them or on one of them depending on the share of slow
    time in the run.  On verify-mid it read either about 31 ms or about
    40 ms while ops_per_s moved by a tenth.  ops_per_s, a ratio of sums,
    moves in proportion to that share instead.
    """
    latencies = [ns / 1e6 for report in reports for ns in report["lat_ns"]]
    percentile, tail, beyond = _tail(latencies)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (_ops_per_s(reports), "1/s"),
        "latency_tail_ms": (tail, "ms"),
        "peak_rss_mb": (max(report["rss_kb"] for report in reports) / 1024.0, "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "latency_tail_ms": f"p{percentile:.2f}, {beyond} of {len(latencies)} samples beyond it",
    }
    printed = {
        "latency_p50_ms": (statistics.median(latencies), "ms", f"{len(latencies)} samples; printed only"),
    }
    return metrics, notes, printed


def _per_layer(reports):
    total = {}
    for report in reports:
        for name, (calls, busy_ns, self_ns) in report["spans"].items():
            entry = total.setdefault(name, [0, 0, 0])
            entry[0] += calls
            entry[1] += busy_ns
            entry[2] += self_ns
    wall_ns = sum(ns for report in reports for ns in report["traced_lat_ns"])
    traced_ops = sum(len(report["traced_lat_ns"]) for report in reports)
    if not traced_ops:
        raise BenchError("no traced operation completed; run for more seconds")
    attempted = sum(report["attempted"] for report in reports)
    metrics = {}
    for name, (calls, busy_ns, self_ns) in total.items():
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.busy_s"] = (busy_ns / 1e9, "s")
        metrics[f"{name}.self_s"] = (self_ns / 1e9, "s")
        metrics[f"{name}.self_share"] = (self_ns / wall_ns, "share")
    ratios = [r for report in reports for r in report["write_floor_ratios"]]
    untraced = _ops_per_s(reports)
    traced = _ops_per_s(reports, traced=True)
    metrics.update({
        "chebyshev.table.calls_per_op": (total["chebyshev.table"][0] / traced_ops, "count"),
        "spectral.transform.calls_per_op": (total["spectral.transform"][0] / traced_ops, "count"),
        "cli.bytes_out_per_op": (sum(r["bytes_out"] for r in reports) / attempted, "B"),
        "workload.distinct_keys": (len({k for report in reports for k in report["keys"]}), "count"),
        "powers.extended_domain_warnings": (sum(r["extended_domain_warnings"] for r in reports), "count"),
        "powers.write_floor_ratio": (statistics.median(ratios) if ratios else 0.0, "ratio"),
        "probe.max_rel_err": (max(r["max_rel_err"] for r in reports), "ratio"),
        "trace.overhead": ((untraced - traced) / untraced, "share"),
        "fail_rate": (sum(r["failed"] for r in reports) / attempted, "share"),
    })
    top = max((name for name in total), key=lambda name: total[name][2])
    notes = {
        "trace.overhead": f"untraced {untraced:.2f} ops/s, traced {traced:.2f} ops/s",
        "powers.write_floor_ratio": f"median over {len(ratios)} ops",
        f"{top}.self_share": "largest self time",
        "workload.distinct_keys": f"{traced_ops} traced ops",
    }
    return metrics, notes


def run(args):
    deadline = time.monotonic() + RUN_LIMIT_S
    setups = [_spawn(args, deadline, ["--setup-only"])["setup_s"] for _ in range(SETUP_RUNS)]
    reports = []
    remaining = args.seconds
    for index in range(MAX_PROCESSES):
        report = _spawn(args, deadline, ["--budget", repr(remaining), "--process-index", str(index)])
        reports.append(report)
        setups.append(report["setup_s"])
        remaining -= report["elapsed_s"]
        if not report["exhausted"] or remaining <= 0:
            break

    attempted = sum(report["attempted"] for report in reports)
    failed = sum(report["failed"] for report in reports)
    print(f"tripow benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("machine " + json.dumps(reports[0]["machine"]))
    for report in reports:
        for error in report["errors"]:
            print(f"  FAILED {error}")
    if args.trace:
        metrics, notes = _per_layer(reports)
        printed = {}
    else:
        metrics, notes, printed = _end_to_end(setups, reports)
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:40s} {value:14.6g} {unit}{note}")
    for name, (value, unit, note) in printed.items():
        print(f"  {name:40s} {value:14.6g} {unit}  ({note})")
    if "fail_rate" not in metrics:
        print(f"  {'fail_rate':40s} {failed / attempted:14.6g} share  ({failed} of {attempted} ops failed)")
    skipped = sorted({site for report in reports for site in report.get("skipped", [])})
    if skipped:
        print("  boundaries skipped, attribute missing: " + ", ".join(skipped))
    for report in reports:
        if "spans_file" in report:
            print(f"  spans written to {report['spans_file']}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def main(argv=None):
    args = _parse_args(argv)
    if not (ROOT / "src" / "tripow" / "__init__.py").is_file():
        print(f"error: no tripow package under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    try:
        return run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
