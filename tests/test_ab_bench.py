"""The summary of ``tools/ab_bench.py``: medians, the base's quartiles, the
win count and the two verdicts over paired runs (no run is started here)."""

import importlib.util
import os

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def _ab_bench():
    path = os.path.join(ROOT, "tools", "ab_bench.py")
    spec = importlib.util.spec_from_file_location("ab_bench", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _runs(values, failed=0):
    return [{"failed": failed, "metrics": {"t": {"value": v}, "m": {"value": -v}}} for v in values]


METRICS = [
    {"name": "t", "better": "lower", "bound": 0.5},
    {"name": "m", "better": "higher", "bound": 0.5},
]
BASE = [10, 11, 12, 10, 11, 12, 10, 11, 12, 11]
TIGHT = [10, 10.1, 10, 10.1, 10, 10.1, 10, 10.1, 10, 10.1]


def test_a_clear_gain_wins_nine_tenths_beyond_the_base_spread():
    head = _runs([7, 8, 7, 8, 7, 8, 7, 8, 7, 13])
    s = _ab_bench().summarize(_runs(BASE), head, METRICS)
    assert s["failed"] == {"base": 0, "head": 0}
    t = s["metrics"]["t"]
    assert (t["base_median"], t["head_median"], t["pairs"], t["wins"]) == (11, 7.5, 10, 9)
    assert (t["base_q1"], t["base_q3"], t["base_iqr"]) == (10, 12, 2)
    assert t["gain"]
    # higher is better: the negated values win the same pairs
    assert s["metrics"]["m"]["wins"] == 9 and s["metrics"]["m"]["gain"]


def test_ties_and_small_gaps_claim_no_gain():
    s = _ab_bench().summarize(_runs(BASE), _runs(BASE), METRICS)["metrics"]
    assert s["t"]["wins"] == 0 and not s["t"]["gain"]
    # every pair won, but the medians differ by less than the base's spread
    head = _runs([v - 1 for v in BASE])
    t = _ab_bench().summarize(_runs(BASE), head, METRICS)["metrics"]["t"]
    assert t["wins"] == 10 and t["base_iqr"] == 2 and not t["gain"]


def test_a_gain_needs_ten_pairs():
    t = _ab_bench().summarize(_runs([5] * 3), _runs([4] * 3), METRICS)["metrics"]["t"]
    assert (t["base_iqr"], t["wins"], t["gain"]) == (0, 3, False)


def test_a_head_that_fails_more_ops_has_no_gain():
    s = _ab_bench().summarize(_runs(BASE), _runs([v - 5 for v in BASE], failed=1), METRICS)
    assert s["failed"] == {"base": 0, "head": 10}
    assert s["metrics"]["t"]["wins"] == 10 and not s["metrics"]["t"]["gain"]


def test_a_head_worse_past_the_bound_regresses():
    ab = _ab_bench()
    s = ab.summarize(_runs(TIGHT), _runs([v + 0.6 for v in TIGHT]), METRICS)["metrics"]
    assert s["t"]["base_iqr"] < 0.5 and s["t"]["regression"] == "yes"
    assert s["m"]["regression"] == "yes"
    # within the bound, or better: no regression
    s = ab.summarize(_runs(TIGHT), _runs([v + 0.4 for v in TIGHT]), METRICS)["metrics"]
    assert s["t"]["regression"] == "no"
    s = ab.summarize(_runs(TIGHT), _runs([v - 1 for v in TIGHT]), METRICS)["metrics"]
    assert s["t"]["regression"] == "no"


def test_a_base_spread_that_reaches_the_bound_is_unresolved():
    ab = _ab_bench()
    s = ab.summarize(_runs(BASE), _runs([v + 3 for v in BASE]), METRICS)["metrics"]
    assert s["t"]["base_iqr"] == 2 and s["t"]["regression"] == "unresolved"
    # unless every head run reads better than every base run
    s = ab.summarize(_runs(BASE), _runs([v - 3 for v in BASE]), METRICS)["metrics"]
    assert s["t"]["regression"] == "no" and s["m"]["regression"] == "no"
    s = ab.summarize(_runs(BASE), _runs([v - 1.5 for v in BASE]), METRICS)["metrics"]
    assert s["t"]["regression"] == "unresolved"
