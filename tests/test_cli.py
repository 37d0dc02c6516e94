"""CLI: schema handling, subcommand reports, exit codes, determinism."""

import io
import json
import os
import sys

import pytest

from liepoisson.cli import run

DATA = os.path.join(os.path.dirname(__file__), "data")
PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def _capture(argv):
    out, err = io.StringIO(), io.StringIO()
    old_out, old_err = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        code = run(argv)
    finally:
        sys.stdout, sys.stderr = old_out, old_err
    return code, out.getvalue(), err.getvalue()


def path(name):
    return os.path.join(DATA, name)


def test_verify_heisenberg():
    code, out, err = _capture(["verify", path("heisenberg.json")])
    assert code == 0
    report = json.loads(out)
    assert report == {"valid": True, "dim": 3, "solvable": True, "nilpotent": True}
    assert "heisenberg" in err


def test_bracket_central_element():
    code, out, _ = _capture(
        ["bracket", path("heisenberg.json"), "-p", "x*y", "-q", "z", "--json"]
    )
    assert code == 0
    assert json.loads(out) == {"bracket": "0"}


def test_bracket_in_quotient():
    code, out, _ = _capture(
        ["bracket", path("heisenberg-z1.json"), "-p", "x", "-q", "y", "--json"]
    )
    assert code == 0
    assert json.loads(out) == {"bracket": "1"}


def test_decompose_report():
    code, out, _ = _capture(["decompose", path("heisenberg-z1.json"), "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["e"] == "1" and report["n"] == 1
    assert len(report["pairs"]) == 1


def test_decompose_trace_written(tmp_path):
    trace_file = tmp_path / "trace.json"
    code, out, _ = _capture(
        ["decompose", path("eng4.json"), "--json", "--trace", str(trace_file)]
    )
    assert code == 0
    trace = json.loads(trace_file.read_text())
    assert trace["e"] == "e4" and trace["n"] == 1


def test_semi_invariants_report():
    code, out, _ = _capture(["semi-invariants", path("aff2.json"), "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["bound"] == 4
    assert {"weight": ["1", "0"], "basis": ["y"]} in report["entries"]


def test_center_and_ghat():
    code, out, _ = _capture(
        ["center", path("eng4.json"), "--max-degree", "2", "--json"]
    )
    assert code == 0
    assert json.loads(out)["basis"] == ["1", "e4", "e4^2", "e2*e4 - 1/2*e3^2"]
    code2, out2, _ = _capture(["ghat", path("aff2.json"), "--json"])
    assert code2 == 0
    assert json.loads(out2)["complement"] == ["x"]


def test_check84():
    code, out, _ = _capture(["check84", path("heisenberg.json"), "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["agree"] and report["central_witness"] == "z"


def test_bvwg_commands_and_exit_codes():
    code, out, _ = _capture(["bvwg-simple", path("bvwg-simple.json"), "--json"])
    assert code == 0 and json.loads(out)["simple"]
    code1, out1, _ = _capture(["bvwg-simple", path("bvwg-nonsimple.json"), "--json"])
    assert code1 == 1 and not json.loads(out1)["simple"]
    code2, out2, _ = _capture(
        ["bvwg-invariants", path("bvwg-symp.json"), "--dmax", "20", "--json"]
    )
    assert code2 == 0
    rep = json.loads(out2)
    assert rep["gk_total"] == 3 and "growth_total" in rep
    code3, out3, _ = _capture(["bvwg-embed", path("bvwg-simple.json"), "--json"])
    assert code3 == 0 and json.loads(out3)["chi"] == {"v": "T1"}
    code4, out4, _ = _capture(["bvwg-realize", path("bvwg-simple.json"), "--json"])
    assert code4 == 0
    assert json.loads(out4)["ideal"] == [{"var": "w", "value": "1"}]


def test_input_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out, _ = _capture(["verify", str(bad)])
    assert code == 2
    both = tmp_path / "both.json"
    both.write_text(
        json.dumps(
            {
                "lie": {"dim": 1, "basis": ["x"], "brackets": []},
                "bvwg": {"v_names": [], "omega": [], "g_names": [], "weights": []},
            }
        )
    )
    code2, _, _ = _capture(["verify", str(both)])
    assert code2 == 2


def test_mathematical_negative_exit_code(tmp_path):
    # invalid Jacobi table: verify reports validity false with exit 1
    bad = tmp_path / "lie.json"
    bad.write_text(
        json.dumps(
            {
                "lie": {
                    "dim": 3,
                    "basis": ["x", "y", "z"],
                    "brackets": [
                        {"i": 0, "j": 1, "coeffs": {"0": "1"}},
                        {"i": 1, "j": 2, "coeffs": {"1": "1"}},
                        {"i": 0, "j": 2, "coeffs": {"2": "-1"}},
                    ],
                }
            }
        )
    )
    code, out, _ = _capture(["verify", str(bad)])
    assert code == 1
    assert not json.loads(out)["valid"]
    # hypothesis failure surfaces as a mathematical negative too
    code2, out2, _ = _capture(["decompose", path("aff2.json"), "--json"])
    assert code2 == 1
    assert json.loads(out2)["error"] == "HypothesisFailed"


def test_reports_byte_identical():
    commands = [
        ["verify", path("heisenberg.json")],
        ["semi-invariants", path("aff2.json")],
        ["center", path("eng4.json"), "--max-degree", "3"],
        ["decompose", path("heisenberg-z1.json")],
        ["check84", path("heisenberg.json")],
        ["bvwg-simple", path("bvwg-simple.json")],
        ["bvwg-invariants", path("bvwg-symp.json"), "--dmax", "12"],
        ["bvwg-embed", path("bvwg-symp.json")],
        ["bvwg-realize", path("bvwg-symp.json")],
    ]
    for argv in commands:
        outputs = {_capture(argv + ["--json"])[1] for _ in range(3)}
        assert len(outputs) == 1, argv


@pytest.mark.parametrize(
    "command", ["semi-invariants", "center", "ghat", "decompose", "check84"]
)
@pytest.mark.parametrize("flag", ["--max-degree=0", "--max-degree=-1"])
def test_degree_bound_below_one_is_input_error(command, flag):
    code, out, _ = _capture([command, path("heisenberg-z1.json"), flag, "--json"])
    assert code == 2
    assert json.loads(out)["error"] == "ValueError"


def test_degree_bound_from_options_and_flag(tmp_path):
    # an explicit flag overrides options.max_degree (aff2 sets 4)
    code, out, _ = _capture(
        ["center", path("aff2.json"), "--max-degree", "1", "--json"]
    )
    assert code == 0 and json.loads(out)["bound"] == 1
    with open(path("heisenberg.json")) as fh:
        data = json.load(fh)
    data["options"]["max_degree"] = 0
    bad = tmp_path / "zero.json"
    bad.write_text(json.dumps(data))
    code2, out2, _ = _capture(["check84", str(bad), "--json"])
    assert code2 == 2 and "at least 1" in json.loads(out2)["detail"]
    code3, out3, _ = _capture(["check84", str(bad), "--max-degree", "2", "--json"])
    assert code3 == 0 and json.loads(out3)["degree_bound"] == 2


@pytest.mark.parametrize("dmax, want", [("-1", 2), ("0", 2), ("1", 2), ("2", 0)])
def test_dmax_must_be_at_least_two(dmax, want):
    code, out, _ = _capture(
        ["bvwg-invariants", path("bvwg-symp.json"), "--dmax", dmax, "--json"]
    )
    assert code == want
    report = json.loads(out)
    if want:
        assert report["error"] == "ValueError"
    else:
        assert report["dmax"] == 2


def test_readme_commands_match_goldens(tmp_path):
    with open(os.path.join(PERFBENCH, "goldens.json")) as fh:
        goldens = json.load(fh)
    assert len(goldens) == 11
    trace = str(tmp_path / "trace.json")
    fixtures = os.path.join(PERFBENCH, "fixtures")
    for golden in goldens:
        argv = [
            trace
            if a == "{trace}"
            else os.path.join(fixtures, a) if a.endswith(".json") else a
            for a in golden["argv"]
        ]
        code, out, _ = _capture(argv)
        assert code == golden["code"], golden["argv"]
        assert out == golden["stdout"], golden["argv"]
        if golden["trace"] is not None:
            with open(trace) as fh:
                assert fh.read() == golden["trace"], golden["argv"]
