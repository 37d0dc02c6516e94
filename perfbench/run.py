"""liepoisson benchmark: one closed-loop caller, one process, one thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``.  ``--trace 0`` measures the end-to-end metrics for S seconds;
``--trace 1`` runs one untraced and two traced passes over the workload's
inputs and reports the per-layer metrics (a fixed amount of work, so counts
repeat exactly).  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; context lines
(raw seconds, kernel time, p90, failed share) come before it.  See
README.md beside this file for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPS = 9

# Wall time on a shared machine drifts by 30-40% between runs, and the
# machine's speed changes within a single op.  So each timed piece of work is
# divided by the mean time of a fixed stdlib-only kernel (Fraction and dict
# arithmetic like the library's own) sampled right before it, right after it,
# and every PROBE_PERIOD_S during it from a wall-clock timer signal.  Probe
# time inside the work is subtracted from its wall time.  The result is in
# reference units (ru): one ru is one run of the kernel.  Sampling during the
# work matters: on two cores shared with other tenants, the per-op spread of
# the ratio (quartile distance over median) was 0.15-0.24 with before/after
# samples alone and 0.03-0.09 with in-op samples.
KERNEL_ITERS = 100
EDGE_PROBES = 3
PROBE_PERIOD_S = 0.01
# setup_s is reported in reference seconds, ru times this constant (the
# kernel's typical time on the machine the benchmark was defined on), so that
# it moves with the work set-up does and not with the machine's speed.
REFERENCE_KERNEL_S = 0.001


def calibration_kernel():
    acc = {}
    total = Fraction(0)
    for i in range(KERNEL_ITERS):
        f = Fraction(i % 7 + 1, i % 5 + 2)
        k = i % 61
        acc[k] = acc.get(k, 0) + f
        total += f * f
    return total, acc


class Probes:
    """Kernel samples (start, seconds), taken on demand or from SIGALRM."""

    def __init__(self):
        self.samples = []
        self.edge()

    def take(self, *_):
        t0 = time.perf_counter()
        calibration_kernel()
        self.samples.append((t0, time.perf_counter() - t0))

    def edge(self):
        for _ in range(EDGE_PROBES):
            self.take()

    def timed(self, fn):
        """Run ``fn()``: (wall seconds net of probes, mean kernel seconds
        around and during it, its result or the exception it raised)."""
        before = self.samples[-EDGE_PROBES:]
        self.samples = []
        old = signal.signal(signal.SIGALRM, self.take)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        try:
            t0 = time.perf_counter()
            try:
                out = fn()
            except Exception as exc:  # a failed op is counted, not fatal
                out = exc
            dt = time.perf_counter() - t0
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
        inside = sum(d for t, d in self.samples if t0 <= t < t0 + dt)
        self.edge()
        window = before + self.samples
        return dt - inside, sum(d for _, d in window) / len(window), out


def setup(workload: str, seed: int):
    """Import liepoisson from scratch and build the workload's inputs."""
    for name in [n for n in sys.modules if n == "liepoisson" or n.startswith("liepoisson.")]:
        del sys.modules[name]
    importlib.import_module("liepoisson.cli")
    return workloads.WORKLOADS[workload](seed)


class Checker:
    """Failure accounting: exceptions, exact checks and fingerprint repeats."""

    def __init__(self, wl):
        self.wl = wl
        self.first = {}  # input index -> (report, fingerprint, op indices)
        self.failures = []  # (op index, reason)
        self.errors = []  # run-level problems that belong to no single op

    def record(self, op: int, i: int, out):
        if isinstance(out, Exception):
            self.failures.append((op, f"input {i}: {type(out).__name__}: {out}"))
            return
        fp = self.wl.fingerprint(out)
        if i not in self.first:
            self.first[i] = (out, fp, [op])
        elif fp != self.first[i][1]:
            self.failures.append((op, f"input {i}: report differs between reps"))
        else:
            self.first[i][2].append(op)

    def check(self):
        """Exact check of each input's first report; all reps of an input
        whose report fails count as failed (the others equal it)."""
        for i, (out, _, ops) in sorted(self.first.items()):
            reason = self.wl.check(self.wl.inputs[i], out)
            if reason is not None:
                self.failures += [(op, reason) for op in ops]

    @property
    def failed(self) -> int:
        return len({op for op, _ in self.failures})


def end_to_end(args):
    probes = Probes()
    setup_wall, setup_ru = [], []
    for _ in range(SETUP_REPS):
        dt, kernel_s, wl = probes.timed(lambda: setup(args.workload, args.seed))
        if isinstance(wl, Exception):
            raise wl
        setup_wall.append(dt)
        setup_ru.append(dt / kernel_s)

    # closed loop: whole passes over the inputs until the time is up
    checker = Checker(wl)
    op_s, kernel, ru = [], [], []
    start = time.perf_counter()
    while True:
        for i, x in enumerate(wl.inputs):
            dt, kernel_s, out = probes.timed(lambda: wl.op(x))
            checker.record(len(op_s), i, out)
            op_s.append(dt)
            kernel.append(kernel_s)
            ru.append(dt / kernel_s)
        if time.perf_counter() - start >= args.seconds:
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    checker.check()

    n = len(ru)
    context = [
        ("ops", n, "count"),
        ("op_s.p50", statistics.median(op_s), "s"),
        ("kernel_s", statistics.median(kernel), "s"),
        ("setup_wall_s", statistics.median(setup_wall), "s"),
        ("failed_frac", checker.failed / n, "ratio"),
    ]
    if n >= 100:  # p90 only where at least 10 samples lie above it
        p90 = statistics.quantiles(ru, n=10)[-1]
        context.append(("op_ru.p90", p90, "ru"))
        context.append(("op_ru.p90.samples_above", sum(r > p90 for r in ru), "count"))
    for name, value, unit in context:
        print(f"{name} {value} {unit}")
    metrics = {
        "op_ru.p50": {"value": statistics.median(ru), "unit": "ru"},
        "setup_s": {"value": statistics.median(setup_ru) * REFERENCE_KERNEL_S, "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }
    return checker, n, metrics


def run_pass(wl, tr=None):
    """One op per input, untraced or under ``tr``: (seconds, reports)."""
    total_s = 0.0
    outs = []
    for i, x in enumerate(wl.inputs):
        if tr is not None:
            tr.start_op(i)
        t0 = time.perf_counter()
        try:
            outs.append(wl.op(x))
        except Exception as exc:  # a failed op is counted, not fatal
            outs.append(exc)
        total_s += time.perf_counter() - t0
    return total_s, outs


def traced_pass(wl):
    tr = tracer.Tracer()
    tr.install()
    try:
        left = tr.unwrapped_sites()
        if left:
            raise SystemExit(f"tracer missed binding sites: {left}")
        total_s, outs = run_pass(wl, tr)
    finally:
        tr.uninstall()
    return tr, total_s, outs


def traced(wl, args):
    checker = Checker(wl)
    plain_s, plain = run_pass(wl)
    for i, out in enumerate(plain):
        checker.record(i, i, out)
    checker.check()

    # Two traced passes: reports must equal the untraced ones, and every
    # count must repeat exactly between the passes.
    passes = [traced_pass(wl) for _ in range(2)]
    n = len(wl.inputs)
    for k, (_, _, outs) in enumerate(passes):
        for i, out in enumerate(outs):
            checker.record((k + 1) * n + i, i, out)
    tr, traced_s, _ = passes[0]
    if tr.counts() != passes[1][0].counts():
        checker.errors.append("per-layer counts differ between two traced passes")
    metrics = tr.metrics(traced_s / plain_s)
    for name in wl.expect_nonzero:
        if not metrics[name]["value"]:
            checker.errors.append(f"{name} is 0, expected nonzero")
    for name in wl.expect_zero:
        if metrics[name]["value"]:
            checker.errors.append(f"{name} is nonzero, expected 0")
    print(f"trace.overhead {traced_s / plain_s} ratio")
    print(f"trace.spans {len(tr.spans)} count")
    tr.dump(os.path.join(workloads.OUT_DIR, f"trace-{wl.name}-{args.seed}.json"))
    return checker, 3 * n, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    os.makedirs(workloads.OUT_DIR, exist_ok=True)
    if args.trace:
        checker, attempted, metrics = traced(setup(args.workload, args.seed), args)
    else:
        checker, attempted, metrics = end_to_end(args)
    for op, reason in checker.failures:
        print(f"FAILED op {op}: {reason}", file=sys.stderr)
    for reason in checker.errors:
        print(f"FAILED: {reason}", file=sys.stderr)
    result = {
        "correct": not checker.failures and not checker.errors,
        "attempted": attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if not os.path.isdir(os.path.join(SRC, "liepoisson")):
        sys.exit(f"no liepoisson sources under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import tracer
    import workloads

    sys.exit(main())
