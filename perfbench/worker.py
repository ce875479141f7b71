"""One benchmark process: set up, then time operations in a closed loop.

run.py starts this script; it is not meant to be run by hand.  The process
imports tripow from the checkout's ``src``, generates its inputs from the
seed, warms up on keys the timed phase never uses, and reports how long that
took from the moment run.py started it.  Unless ``--setup-only`` is given it
then runs one client in a closed loop until its budget is spent or its
workload has no more cycles for this process, checking every output with the
probe outside the timed region.  The last stdout line is a JSON report.

With ``--trace 1`` the loop alternates whole input cycles with and without
the boundary wrappers, so both sides see the same inputs and machine.
"""

import argparse
import json
import resource
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"

sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import tripow  # noqa: E402

import machine  # noqa: E402
from probe import PROBE_TOL, relative_error  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MAX_ERRORS_KEPT = 5


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--process-index", type=int, default=0,
                        help="which of the run's timing processes this is; selects its inputs")
    parser.add_argument("--budget", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() in the parent just before it started this process")
    return parser.parse_args(argv)


class Loop:
    """Counters of one closed-loop client."""

    def __init__(self, workload, probe_rng):
        self.workload = workload
        self.probe_rng = probe_rng
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.max_rel_err = 0.0
        self.bytes_out = 0
        self.keys = set()

    def step(self, op, tracer=None):
        """Run op once; return its wall time in ns, or None when it failed."""
        call_args = self.workload.call_args(op)
        self.attempted += 1
        if tracer is not None:
            tracer.op = self.attempted
        t0 = time.perf_counter_ns()
        try:
            out = self.workload.run(*call_args)
            elapsed = time.perf_counter_ns() - t0
            matrix = self.workload.output_matrix(op, out)
            err = relative_error(op.spec, op.s, matrix, self.probe_rng)
            if not err <= PROBE_TOL:
                raise ArithmeticError(f"probe relative error {err:.3e} > {PROBE_TOL:g}")
        except Exception as exc:  # every failure mode counts toward fail_rate
            self.failed += 1
            if len(self.errors) < MAX_ERRORS_KEPT:
                self.errors.append(f"{op.key} s={op.s}: {type(exc).__name__}: {exc}")
            return None
        self.max_rel_err = max(self.max_rel_err, err)
        self.keys.add(op.key)
        if isinstance(out, tuple):
            self.bytes_out += len(out[1])
        return elapsed


def _write_floor_ns(n, repeats=5):
    """Median time to allocate and write an n-by-n complex128 array."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        buf = np.empty((n, n), dtype=np.complex128)
        buf.fill(1.0 + 1.0j)
        times.append(time.perf_counter_ns() - t0)
        del buf
    return sorted(times)[repeats // 2]


def main(argv=None):
    args = _parse_args(argv)
    if not Path(tripow.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"tripow was imported from {tripow.__file__}, not from {SRC}")
    warning_count = [0]
    show_other = warnings.showwarning

    def count_domain_warning(message, category, *rest, **kwargs):
        if issubclass(category, tripow.ExtendedDomainWarning):
            warning_count[0] += 1
        else:
            show_other(message, category, *rest, **kwargs)

    warnings.showwarning = count_domain_warning
    warnings.simplefilter("always", tripow.ExtendedDomainWarning)

    workload = WORKLOADS[args.workload]
    input_seq, warm_seq, probe_seq = np.random.SeedSequence([args.seed, args.process_index]).spawn(3)
    input_rng = np.random.default_rng(input_seq)
    warm_rng = np.random.default_rng(warm_seq)
    cycles = workload.cycles(input_rng)
    pending = next(cycles)

    warm = Loop(workload, warm_rng)
    for op in workload.warmup(warm_rng):
        warm.step(op)
    if warm.failed:  # the timed phase counts such failures; report and go on
        print(f"warm-up: {warm.failed} of {warm.attempted} ops failed: " + "; ".join(warm.errors),
              file=sys.stderr)
    warning_count[0] = 0
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = Tracer() if args.trace else None
    loop = Loop(workload, np.random.default_rng(probe_seq))
    latencies = {False: [], True: []}
    traced_n = {}  # traced op id -> n
    completed = []  # per completed cycle: [traced, ops, op_ns]
    # Processes of one run start on alternate modes, so a cold first cycle
    # does not always land on the untraced side.
    traced = tracer is not None and args.process_index % 2 == 1
    if traced:
        tracer.install()
    exhausted = False
    start = time.monotonic()
    deadline = start + args.budget
    position = cycle_ops = cycle_ns = 0
    while time.monotonic() < deadline:
        if position == len(pending):
            completed.append([traced, cycle_ops, cycle_ns])
            pending, position, cycle_ops, cycle_ns = next(cycles, None), 0, 0, 0
            if pending is None:
                exhausted = True
                break
            if tracer is not None:
                # Whole cycles alternate, so traced and untraced cycles hold
                # the same input mix.
                traced = not traced
                (tracer.install if traced else tracer.remove)()
        op = pending[position]
        position += 1
        elapsed = loop.step(op, tracer if traced else None)
        if elapsed is None:
            continue
        latencies[traced].append(elapsed)
        cycle_ops += 1
        cycle_ns += elapsed
        if traced:
            traced_n[loop.attempted] = op.spec.n
    elapsed_s = time.monotonic() - start

    report = {
        "setup_s": setup_s,
        "elapsed_s": elapsed_s,
        "exhausted": exhausted,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "errors": loop.errors,
        "max_rel_err": loop.max_rel_err,
        "keys": sorted(loop.keys),
        "bytes_out": loop.bytes_out,
        "extended_domain_warnings": warning_count[0],
        "lat_ns": latencies[False],
        "traced_lat_ns": latencies[True],
        "cycles": completed,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        tracer.remove()
        busy = tracer.op_busy_ns("powers.power_matrix")
        # Measured after the loop, so the floor never sits between two ops.
        floor_ns = {n: _write_floor_ns(n) for n in set(traced_n.values())}
        report["spans"] = tracer.totals()
        report["skipped"] = tracer.skipped
        report["write_floor_ratios"] = [busy[op] / floor_ns[n] for op, n in traced_n.items() if op in busy]
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}-process{args.process_index}.jsonl"
        tracer.write(spans_path)
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    report["machine"] = machine.record()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
