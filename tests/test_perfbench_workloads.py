"""The benchmark's own checks as a test: every workload of
``perfbench/run.py``, traced once at seed 11, reports ``"correct": true``.

A traced run checks each report against its workload's exact check and its
fingerprint across passes, the README goldens (``cli-readme``), and the
per-layer metrics each workload expects to be nonzero or zero (such as
``invariants.center_up_to_degree.repeat_ratio``).  The four runs take about
3 s together; the test only reads ``perfbench/``.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
RUN = os.path.join(ROOT, "perfbench", "run.py")
WORKLOADS = ["ideal-decompose", "weight-search", "localized-certify", "cli-readme"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_workload_is_correct(workload):
    argv = [sys.executable, RUN, "--workload", workload, "--seed", "11"]
    argv += ["--seconds", "1", "--trace", "1"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["correct"] is True, proc.stdout[-2000:]
    assert report["failed"] == 0
