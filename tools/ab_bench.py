"""Compare two revisions on the benchmark in alternating pairs of runs.

Usage, from inside the repository::

    python tools/ab_bench.py BASE HEAD --workload weight-search --seed 11 \\
        --out BENCH_name.json

BASE and HEAD are anything ``git archive`` takes: a commit, a branch, or the
tree of the index (``git write-tree`` after ``git add -A``), so a change can
be measured before it is committed.  Each revision is extracted into a fresh
directory, with no ``__pycache__``, and ``perfbench/run.py`` runs there with
``PYTHONDONTWRITEBYTECODE=1``, so both sides start from the same state.  Each
workload gets ten pairs of runs, each run as long as ``BENCHMARK.json``'s
``run_seconds``; the pairs alternate which side runs first.  ``--workload``
may be repeated.

For each end-to-end metric of ``BENCHMARK.json`` the script prints both
medians, the base's interquartile range, the number of pairs the head won
(ties count for neither) and two verdicts, and writes them, with every run's
metrics, to ``--out``.  A gain holds when the head wins at least nine of the
ten pairs, the medians differ by more than the base's interquartile range,
and the head fails no more ops than the base.  A regression is ``yes`` when
the head's median is worse than the base's by more than the metric's bound,
and ``unresolved`` whenever the base's own interquartile range reaches the
bound, unless every head run reads better than every base run.  It uses the
standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 10


def extract(rev: str, dest: str) -> str:
    """A fresh copy of revision ``rev`` of the repository, under ``dest``."""
    data = subprocess.run(
        ["git", "-C", ROOT, "archive", "--format=tar", rev],
        check=True,
        capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest, filter="data")
    return dest


def rev_parse(rev: str) -> str:
    """The object name ``rev`` stands for, so the report outlives a branch."""
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", rev],
                         check=True, capture_output=True, text=True)
    return out.stdout.strip()


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """The result object of one end-to-end run: its last line of stdout."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, env=env, check=True, capture_output=True, text=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarize(base: list[dict], head: list[dict], metrics: list[dict]) -> dict:
    """The failed ops of each side and, per metric of ``metrics``
    (``BENCHMARK.json``'s ``end_to_end`` entries), from run results paired by
    position: both medians, the base's quartiles, the head's wins, whether a
    gain holds and whether the head regressed past the metric's bound."""
    failed = {"base": sum(r["failed"] for r in base), "head": sum(r["failed"] for r in head)}
    out = {}
    for m in metrics:
        name, lower, bound = m["name"], m["better"] == "lower", m["bound"]
        b = [r["metrics"][name]["value"] for r in base]
        h = [r["metrics"][name]["value"] for r in head]
        q1, _, q3 = statistics.quantiles(b, n=4) if len(b) > 1 else (b[0],) * 3
        wins = sum((y < x) if lower else (y > x) for x, y in zip(b, h))
        b_med, h_med = statistics.median(b), statistics.median(h)
        better = (b_med - h_med) if lower else (h_med - b_med)
        if (max(h) < min(b)) if lower else (min(h) > max(b)):
            regression = "no"
        elif q3 - q1 >= bound:
            regression = "unresolved"
        else:
            regression = "yes" if -better > bound else "no"
        out[name] = {
            "base_median": b_med,
            "head_median": h_med,
            "base_q1": q1,
            "base_q3": q3,
            "base_iqr": q3 - q1,
            "wins": wins,
            "pairs": len(b),
            "gain": (len(b) >= PAIRS and wins >= 0.9 * len(b) and better > q3 - q1
                     and failed["head"] <= failed["base"]),
            "regression": regression,
        }
    return {"failed": failed, "metrics": out}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("head")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    report = {"base": rev_parse(args.base), "head": rev_parse(args.head),
              "seed": args.seed, "seconds": seconds, "workloads": {}}
    with tempfile.TemporaryDirectory() as tmp:
        sides = {s: extract(getattr(args, s), os.path.join(tmp, s)) for s in ("base", "head")}
        for workload in args.workload:
            runs = {"base": [], "head": []}
            for k in range(PAIRS):
                for side in ("base", "head") if k % 2 == 0 else ("head", "base"):
                    res = run_once(sides[side], workload, args.seed, seconds)
                    if not res["correct"]:
                        print(f"{side} run {k} of {workload} is not correct", file=sys.stderr)
                    runs[side].append(res)
            summary = summarize(runs["base"], runs["head"], bench["end_to_end"])
            report["workloads"][workload] = {"summary": summary, "runs": runs}
            print(f"{workload} failed ops: base {summary['failed']['base']} "
                  f"head {summary['failed']['head']}", flush=True)
            for name, s in summary["metrics"].items():
                print(f"{workload} {name}: base {s['base_median']:.4g} "
                      f"(iqr {s['base_iqr']:.3g}) head {s['head_median']:.4g} "
                      f"wins {s['wins']}/{s['pairs']} gain {s['gain']} "
                      f"regression {s['regression']}", flush=True)
    with open(args.out, "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
