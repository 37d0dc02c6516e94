"""CLI: schema handling, subcommand reports, exit codes, determinism."""

import argparse
import io
import json
import os
import re
import shlex
import subprocess
import sys

import pytest

from liepoisson import cli
from liepoisson.cli import COMMANDS, build_parser, run

DATA = os.path.join(os.path.dirname(__file__), "data")
PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
# 67-bit coefficients: the unbounded expansion of BIG^299 took about 43 s
BIG = "12345678901234567890/98765432109876543211*x + 98765432109876543213/12345678901234567891*y"


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


def test_unsupported_chain_exit_code(tmp_path):
    # non-aligned flag plus a nonempty ideal: an input the recursion rejects
    problem = tmp_path / "chain.json"
    problem.write_text(
        json.dumps(
            {
                "lie": {
                    "dim": 3,
                    "basis": ["b1", "b2", "b3"],
                    "brackets": [
                        {"i": 0, "j": 1, "coeffs": {"0": "-1", "2": "1"}},
                        {"i": 1, "j": 2, "coeffs": {"0": "1", "2": "-1"}},
                    ],
                },
                "ideal": [{"var": "b3", "value": "b1 + 1"}],
            }
        )
    )
    code, out, _ = _capture(["decompose", str(problem), "--max-degree", "4"])
    assert code == 2
    report = json.loads(out)
    assert report["error"] == "UnsupportedChain"
    assert "not aligned" in report["detail"]


def test_central_image_beyond_the_flag_prefix_exit_code(tmp_path):
    # [x,y] = z with z = a: the jordan_holder flag z, x, y, a reached the
    # central image a before a itself (exit 2, UnsupportedChain); the flag
    # order now places a before z, and the decomposition succeeds
    problem = tmp_path / "late.json"
    problem.write_text(
        json.dumps(
            {
                "lie": {
                    "dim": 4,
                    "basis": ["x", "y", "z", "a"],
                    "brackets": [{"i": 0, "j": 1, "coeffs": {"2": "1"}}],
                },
                "ideal": [{"var": "z", "value": "a"}],
            }
        )
    )
    code, out, _ = _capture(["decompose", str(problem), "--max-degree", "6", "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["e"] == "a" and report["n"] == 1


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


def _heisenberg_with(tmp_path, var):
    """heisenberg ([x,y] = z) with ``var`` -> 0, written to a problem file."""
    problem = tmp_path / f"heisenberg-{var}0.json"
    with open(path("heisenberg.json")) as fh:
        data = json.load(fh)
    data["ideal"] = [{"var": var, "value": "0"}]
    problem.write_text(json.dumps(data))
    return str(problem)


@pytest.mark.parametrize(
    "argv",
    [
        ["bracket", "-p", "x", "-q", "y"],
        ["semi-invariants"],
        ["center"],
        ["ghat"],
        ["decompose"],
        ["check84"],
    ],
)
def test_unstable_ideal_exit_code(tmp_path, argv):
    # x -> 0 is not bracket-stable: {x, y} = z is not sent to 0
    code, out, _ = _capture([argv[0], _heisenberg_with(tmp_path, "x"), *argv[1:], "--json"])
    assert code == 2
    assert json.loads(out) == {
        "error": "NotStable",
        "detail": "ideal not bracket-stable: {x-image, y} = z != 0",
    }


def test_a_generator_the_ideal_kills_decomposes(tmp_path):
    # [t,x] = x with x -> 0, and heisenberg with z -> 0: each quotient is a
    # polynomial algebra with zero bracket, its own center
    problem = tmp_path / "tx.json"
    lie = {"dim": 2, "basis": ["t", "x"], "brackets": [{"i": 0, "j": 1, "coeffs": {"1": "1"}}]}
    problem.write_text(json.dumps({"lie": lie, "ideal": [{"var": "x", "value": "0"}]}))
    code, out, _ = _capture(["decompose", str(problem), "--max-degree", "2", "--json"])
    assert code == 0
    assert json.loads(out) == {
        "bound": 2,
        "center_basis": ["1", "t", "t^2"],
        "e": "1",
        "n": 0,
        "pairs": [],
    }
    heis = _heisenberg_with(tmp_path, "z")
    code, out, _ = _capture(["decompose", heis, "--max-degree", "2", "--json"])
    assert code == 0
    report = json.loads(out)
    assert (report["e"], report["n"], len(report["center_basis"])) == ("1", 0, 6)
    code, out, _ = _capture(["check84", heis, "--max-degree", "2", "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["agree"] and not report["center_trivial"]
    assert report["weyl_rank"] == 0


FILIFORM5 = {
    "lie": {
        "dim": 5,
        "basis": ["e1", "e2", "e3", "e4", "e5"],
        "brackets": [
            {"i": 0, "j": 1, "coeffs": {"2": "1"}},
            {"i": 0, "j": 2, "coeffs": {"3": "1"}},
            {"i": 0, "j": 3, "coeffs": {"4": "1"}},
        ],
    }
}


@pytest.mark.parametrize("command", ["decompose", "check84"])
def test_search_exhausted_exit_code(tmp_path, command):
    # the filiform algebra needs a degree-2 pair; bound 1 exhausts the search
    problem = tmp_path / "filiform5.json"
    problem.write_text(json.dumps(FILIFORM5))
    code, out, _ = _capture([command, str(problem), "--max-degree", "1"])
    assert code == 3
    assert json.loads(out) == {
        "error": "search-exhausted",
        "detail": "search exhausted at degree bound 1 (pair splitting failed)",
    }
    code2, out2, _ = _capture([command, str(problem), "--max-degree", "2", "--json"])
    assert code2 == 0
    assert "error" not in json.loads(out2)


@pytest.mark.parametrize(
    "command, want",
    [
        ("decompose", {"bound": 6, "center_basis": ["1"], "e": "1", "n": 0, "pairs": []}),
        (
            "check84",
            {
                "agree": True,
                "center_trivial": True,
                "degree_bound": 6,
                "weyl_presentation": True,
                "weyl_rank": 0,
            },
        ),
    ],
)
def test_zero_dimensional_algebra(tmp_path, command, want):
    problem = tmp_path / "zero.json"
    problem.write_text(json.dumps({"lie": {"dim": 0, "basis": [], "brackets": []}}))
    code, out, _ = _capture([command, str(problem), "--json"])
    assert code == 0
    assert out.count("\n") == 1 and json.loads(out) == want


SL2 = {
    "lie": {
        "dim": 3,
        "basis": ["e", "h", "f"],
        "brackets": [
            {"i": 0, "j": 1, "coeffs": {"0": "-2"}},
            {"i": 0, "j": 2, "coeffs": {"1": "1"}},
            {"i": 1, "j": 2, "coeffs": {"2": "-2"}},
        ],
    }
}


@pytest.mark.parametrize("command", ["semi-invariants", "decompose", "ghat"])
def test_non_solvable_algebra_exit_code(tmp_path, command):
    # sl2 has rational eigenvalues but no flag of ideals
    problem = tmp_path / "sl2.json"
    problem.write_text(json.dumps(SL2))
    code, out, _ = _capture([command, str(problem), "--json"])
    assert code == 1
    assert json.loads(out) == {"error": "NotSolvable", "detail": "Lie algebra is not solvable"}


# one input per class in cli.MATH_NEGATIVE: (subcommand, problem file)
_NEGATIVE_INPUTS = {
    "JacobiViolation": (
        "center",
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
        },
    ),
    # [t,x] = y, [t,y] = 2x: ad t has eigenvalues +-sqrt(2)
    "EigenvalueNotRational": (
        "semi-invariants",
        {
            "lie": {
                "dim": 3,
                "basis": ["t", "x", "y"],
                "brackets": [
                    {"i": 0, "j": 1, "coeffs": {"2": "1"}},
                    {"i": 0, "j": 2, "coeffs": {"1": "2"}},
                ],
            }
        },
    ),
    "HypothesisFailed": ("decompose", "aff2.json"),
    # omega = 0 with one weight: the weight's kernel is fixed by everything
    "NotSimple": (
        "bvwg-embed",
        {
            "bvwg": {
                "v_names": ["v1", "v2"],
                "omega": [["0", "0"], ["0", "0"]],
                "g_names": ["g"],
                "weights": [["1", "0"]],
            }
        },
    ),
    "NotNilpotent": ("check84", "aff2.json"),
    "NotSolvable": ("decompose", SL2),
}


def test_every_mathematical_negative_is_reachable(tmp_path):
    assert set(_NEGATIVE_INPUTS) == {cls.__name__ for cls in cli.MATH_NEGATIVE}
    for name, (command, problem) in _NEGATIVE_INPUTS.items():
        if isinstance(problem, dict):
            file = tmp_path / f"{name}.json"
            file.write_text(json.dumps(problem))
            problem = str(file)
        else:
            problem = path(problem)
        code, out, _ = _capture([command, problem, "--json"])
        assert code == 1 and json.loads(out)["error"] == name, (name, out)


def test_misspelt_option_is_an_input_error(tmp_path):
    # a misspelt max_degree would otherwise run at the default bound 6
    with open(path("heisenberg.json")) as fh:
        problem = json.load(fh)
    problem["options"] = {"max_degre": 2}
    file = tmp_path / "misspelt.json"
    file.write_text(json.dumps(problem))
    code, out, _ = _capture(["center", str(file)])
    assert code == 2 and out.count("\n") == 1
    report = json.loads(out)
    assert report["error"] == "ValueError" and "'max_degre'" in report["detail"]
    # the two known keys still load; nilpotency_cap is accepted and unread
    problem["options"] = {"max_degree": 2, "nilpotency_cap": 64}
    file.write_text(json.dumps(problem))
    code, out, _ = _capture(["center", str(file), "--json"])
    assert code == 0 and json.loads(out)["bound"] == 2


def test_decompose_rebases_a_conjugate_without_ideal(tmp_path):
    # [x,y] = z, [t,x] = x, [t,y] = -y conjugated to b1..b4: the flag is not
    # coordinate-aligned, and the file gives no ideal, so decompose
    # re-presents the algebra on the flag basis c1..c4
    brackets = {
        (0, 1): {2: 1, 3: 1},
        (0, 2): {0: 1},
        (0, 3): {0: -1},
        (1, 2): {0: 2, 1: -1, 2: 1, 3: 1},
        (1, 3): {0: -2, 1: 1, 2: -1, 3: -1},
    }
    problem = tmp_path / "conjugate.json"
    problem.write_text(
        json.dumps(
            {
                "lie": {
                    "dim": 4,
                    "basis": ["b1", "b2", "b3", "b4"],
                    "brackets": [
                        {"i": i, "j": j, "coeffs": {str(k): str(c) for k, c in vec.items()}}
                        for (i, j), vec in brackets.items()
                    ],
                }
            }
        )
    )
    code, out, _ = _capture(["decompose", str(problem), "--max-degree", "4", "--json"])
    assert code == 0
    report = json.loads(out)
    assert (report["n"], report["e"]) == (1, "c1")


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


def test_dmax_above_the_cap_is_input_error():
    for dmax, want in [("100000000", 2), (str(cli.DMAX_CAP + 1), 2), (str(cli.DMAX_CAP), 0)]:
        code, out, _ = _capture(
            ["bvwg-invariants", path("bvwg-symp.json"), "--dmax", dmax, "--json"]
        )
        assert code == want, dmax
        if want:
            assert json.loads(out)["error"] == "ValueError"


def test_infeasible_degree_bound_is_input_error(tmp_path):
    code, out, _ = _capture(["center", path("heisenberg.json"), "--max-degree", "200"])
    assert code == 2
    report = json.loads(out)
    assert report["error"] == "ValueError" and "C(200 + 3, 3)" in report["detail"]
    # the same bound from options.max_degree
    data = _heisenberg_data()
    data["options"]["max_degree"] = 200
    big = tmp_path / "big.json"
    big.write_text(json.dumps(data))
    code2, out2, _ = _capture(["semi-invariants", str(big), "--json"])
    assert code2 == 2 and json.loads(out2)["error"] == "ValueError"


def test_slice_budget_is_inclusive(monkeypatch):
    # heisenberg has dim 3: degree 6 spans C(9, 3) = 84 monomials, 7 spans 120
    monkeypatch.setattr(cli, "SLICE_BUDGET", 84)
    code, out, _ = _capture(["center", path("heisenberg.json"), "--max-degree", "6", "--json"])
    assert code == 0 and json.loads(out)["bound"] == 6
    code2, _, _ = _capture(["center", path("heisenberg.json"), "--max-degree", "7", "--json"])
    assert code2 == 2


@pytest.mark.parametrize(
    "expr",
    ["(x+y+z)^200", "*".join(["(x+y+z)^40"] * 4), f"({BIG})^299"],
    ids=["power", "product", "coefficients"],
)
def test_expression_too_large_is_input_error(expr):
    code, out, _ = _capture(["bracket", path("heisenberg.json"), "-p", expr, "-q", "y"])
    assert code == 2
    report = json.loads(out)
    assert report["error"] == "PolyParseError"
    assert report["detail"].startswith("expression too large")


def test_decompose_aff2_stdout_is_pinned():
    # aff2 has the nonzero-weight semi-invariant y of weight (1, 0): the
    # hypothesis check refuses it with exit 1
    code, out, _ = _capture(["decompose", path("aff2.json"), "--json"])
    assert code == 1
    assert out == (
        '{"detail": "nonzero-weight semi-invariant found: weight (\'1\', \'0\'), '
        'element y", "error": "HypothesisFailed"}\n'
    )


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


LIE_COMMANDS = ["semi-invariants", "center", "ghat", "decompose", "check84"]
BVWG_COMMANDS = ["bvwg-simple", "bvwg-invariants", "bvwg-embed", "bvwg-realize"]


@pytest.mark.parametrize(
    "command, fixture",
    [(c, "bvwg-simple.json") for c in LIE_COMMANDS]
    + [(c, "heisenberg.json") for c in BVWG_COMMANDS],
)
def test_subcommand_on_wrong_problem_kind_is_input_error(command, fixture):
    code, out, _ = _capture([command, path(fixture), "--json"])
    assert code == 2
    report = json.loads(out)
    assert report["error"] == "ValueError"
    assert report["detail"].startswith(f"{command} needs a ")


def _heisenberg_data():
    with open(path("heisenberg.json")) as fh:
        return json.load(fh)


def _malformed(mutate, load=_heisenberg_data):
    data = load()
    mutate(data)
    return data


def _malformed_bvwg(mutate):
    def load():
        with open(path("bvwg-simple.json")) as fh:
            return json.load(fh)

    return _malformed(mutate, load)


@pytest.mark.parametrize(
    "data",
    [
        [_heisenberg_data()],  # top-level list
        _malformed(lambda d: d["lie"].update(basis=5)),
        _malformed(lambda d: d["lie"].update(basis=["x", 2, "z"])),
        _malformed(lambda d: d["lie"].update(brackets={"i": 0, "j": 1})),
        _malformed(lambda d: d["lie"]["brackets"][0].update(coeffs=["1"])),
        _malformed(lambda d: d.update(options=[])),
        _malformed(lambda d: d["lie"]["brackets"][0].update(coeffs={"7": "1"})),
        _malformed(lambda d: d["lie"]["brackets"][0].update(coeffs={"-1": "1"})),
        _malformed(lambda d: d["lie"].update(basis=["x", "x", "z"])),
        _malformed(lambda d: d.update(ideal=[{"var": "w", "value": "1"}])),
        _malformed(lambda d: d["lie"]["brackets"][0].update(i=0.9)),
        _malformed(lambda d: d["lie"].update(dim=3.5)),
        _malformed(lambda d: d["options"].update(max_degree=2.5)),
        _malformed(lambda d: d["options"].update(max_degree=True)),
        _malformed(lambda d: d.update(ideal=[{"var": "z", "value": 1}])),
        _malformed_bvwg(lambda d: d["bvwg"].update(omega=[0])),
        _malformed_bvwg(lambda d: d["bvwg"].update(weights=[1])),
        _malformed_bvwg(lambda d: d["bvwg"].update(v_names="v")),
        _malformed_bvwg(lambda d: d["bvwg"].update(g_names="g")),
        _malformed(
            lambda d: d["lie"]["brackets"][0].update(coeffs={"2": 1.00000000000000000001})
        ),
        _malformed_bvwg(lambda d: d["bvwg"].update(omega=[[0.0]])),
        _malformed_bvwg(lambda d: d["bvwg"].update(weights=[[1.00000000000000000001]])),
    ],
    ids=[
        "list",
        "basis-int",
        "basis-name-int",
        "brackets-object",
        "coeffs-list",
        "options-list",
        "index-past-end",
        "index-negative",
        "duplicate-names",
        "unknown-ideal-variable",
        "index-float",
        "dim-float",
        "max-degree-float",
        "max-degree-bool",
        "ideal-value-number",
        "omega-row-number",
        "weights-row-number",
        "v-names-string",
        "g-names-string",
        "coeff-float",
        "omega-entry-float",
        "weights-entry-float",
    ],
)
def test_malformed_problem_is_input_error(tmp_path, data):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    is_bvwg = isinstance(data, dict) and "bvwg" in data
    for command in ("verify", "bvwg-simple" if is_bvwg else "center"):
        code, out, _ = _capture([command, str(bad), "--json"])
        assert code == 2, command
        report = json.loads(out)
        assert set(report) == {"error", "detail"}
        assert report["error"] in ("ValueError", "UnknownVariable")


BAD_RATIONALS = ["1/0", "-3/0", "0/0", "1e4000000", "1.5", "1" + "0" * 200, 2**601]
BAD_RATIONALS.append("1/" + str(2**600))


@pytest.mark.parametrize("value", BAD_RATIONALS, ids=lambda v: repr(v)[:12])
@pytest.mark.parametrize("where", ["coeffs", "omega", "weights"])
def test_bad_rational_is_input_error(tmp_path, where, value):
    # a zero denominator, a form other than "p/q", and a numerator or
    # denominator past the expression parser's 600 bits
    if where == "coeffs":
        data = _malformed(lambda d: d["lie"]["brackets"][0]["coeffs"].update({"2": value}))
        commands = ["center", "decompose", "semi-invariants", "check84", "ghat"]
        field = "coeffs value"
    else:
        data = _malformed_bvwg(lambda d: d["bvwg"][where][0].__setitem__(0, value))
        commands = ["bvwg-invariants", "bvwg-simple"]
        field = f"bvwg.{where} entry"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    for command in ["verify"] + commands:
        code, out, _ = _capture([command, str(bad), "--json"])
        assert code == 2, command
        report = json.loads(out.splitlines()[-1])
        assert report["error"] == "ValueError", command
        assert report["detail"].startswith(field), command


def test_rational_size_is_decided_before_the_integer_is_built():
    assert cli._rational(str(2**600 - 1), "v") == 2**600 - 1
    assert cli._rational(f" -{2**600 - 1} / {2**600 - 1} ", "v") == -1
    for value in (str(2**600), -(2**600), "1/" + str(2**600)):
        with pytest.raises(ValueError, match="larger than 600 bits"):
            cli._rational(value, "v")
    # int() refuses 5,000 digits with its own message; this is refused first
    with pytest.raises(ValueError, match="larger than 600 bits"):
        cli._rational("1" + "0" * 5000, "v")


def test_python_dash_m_entry_point():
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "liepoisson", "verify", "tests/data/heisenberg.json"],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "valid": True,
        "dim": 3,
        "solvable": True,
        "nilpotent": True,
    }


def test_deeply_nested_polynomial_is_input_error(tmp_path):
    deep = "(" * 400 + "x" + ")" * 400
    code, out, _ = _capture(["bracket", path("heisenberg.json"), "-p", deep, "-q", "z"])
    assert code == 2
    assert json.loads(out) == {
        "error": "PolyParseError",
        "detail": "expression nested too deeply (at byte 100)",
    }
    data = _heisenberg_data()
    data["ideal"] = [{"var": "z", "value": "(" * 400 + "1" + ")" * 400}]
    problem = tmp_path / "deep-ideal.json"
    problem.write_text(json.dumps(data))
    code2, out2, _ = _capture(["center", str(problem), "--json"])
    assert code2 == 2
    assert json.loads(out2)["error"] == "PolyParseError"


def test_deeply_nested_problem_file_is_input_error(tmp_path):
    problem = tmp_path / "deep.json"
    problem.write_text("[" * 100_000 + "]" * 100_000)
    code, out, _ = _capture(["verify", str(problem)])
    assert code == 2
    assert json.loads(out) == {
        "error": "ValueError",
        "detail": "problem file nested too deeply",
    }


# The flags each subcommand reads besides the problem file and --json.
OWN_FLAGS = {
    "verify": (),
    "bracket": ("-p", "-q"),
    "semi-invariants": ("--max-degree",),
    "center": ("--max-degree",),
    "ghat": ("--max-degree",),
    "decompose": ("--max-degree", "--trace"),
    "check84": ("--max-degree",),
    "bvwg-simple": (),
    "bvwg-invariants": ("--dmax",),
    "bvwg-embed": (),
    "bvwg-realize": (),
}
FLAG_VALUES = {"-p": "x", "-q": "y", "--max-degree": "0", "--trace": "F", "--dmax": "3"}


def test_own_flags_cover_every_subcommand():
    assert set(OWN_FLAGS) == set(COMMANDS)
    for name, command in COMMANDS.items():
        assert command.flags == OWN_FLAGS[name], name


@pytest.mark.parametrize(
    "command, flag",
    [(c, f) for c in COMMANDS for f in FLAG_VALUES if f not in OWN_FLAGS[c]],
)
def test_undeclared_flag_is_usage_error(tmp_path, monkeypatch, command, flag):
    monkeypatch.chdir(tmp_path)
    fixture = "bvwg-simple.json" if command.startswith("bvwg") else "heisenberg.json"
    argv = [command, path(fixture), "--json"]
    if command == "bracket":
        argv += ["-p", "x", "-q", "y"]
    value = FLAG_VALUES[flag]
    code, out, err = _capture(argv + [flag, value])
    assert code == 2
    assert json.loads(out) == {
        "error": "ValueError",
        "detail": f"unrecognized arguments: {flag} {value}",
    }
    assert err == ""
    assert os.listdir(tmp_path) == []  # in particular, no trace file F


@pytest.mark.parametrize(
    "argv",
    [
        ["bracket", path("heisenberg.json"), "-p", "x"],
        ["frobnicate", path("heisenberg.json")],
        ["center", path("heisenberg.json"), "--frobnicate"],
        ["center", path("heisenberg.json"), "--max-degree", "two"],
        ["bvwg-invariants", path("bvwg-symp.json"), "--dmax", "x"],
        [],
    ],
    ids=[
        "missing-q",
        "unknown-subcommand",
        "unknown-flag",
        "degree-word",
        "dmax-word",
        "empty",
    ],
)
def test_usage_error_is_json_error_not_system_exit(argv):
    code, out, err = _capture(argv)
    assert code == 2
    lines = out.splitlines()
    assert len(lines) == 1
    report = json.loads(lines[0])
    assert set(report) == {"error", "detail"} and report["error"] == "ValueError"
    assert err == ""


def test_help_still_exits_through_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["center", "-h"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert "--max-degree" in text and "--dmax" not in text


def test_run_builds_the_parser_once(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._parser.cache_clear()
    for argv in (["verify", path("heisenberg.json")], ["frobnicate"], []) * 2:
        _capture(argv)
    # one top-level parser and one per subcommand, all from the first call
    assert len(built) == 1 + len(COMMANDS)


def _readme_command_section():
    with open(README) as fh:
        text = fh.read().split("\n## Command line\n", 1)[1]
    return text.split("\n## ", 1)[0]


def test_readme_command_lines_parse():
    block = _readme_command_section().split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line) for line in block.splitlines() if line.strip()]
    parser = build_parser()
    for argv in lines:
        assert argv[0] == "liepoisson"
        parser.parse_args(argv[1:])  # a usage error raises ValueError
    assert {argv[1] for argv in lines} == set(COMMANDS)


def test_readme_flag_table_matches_commands():
    rows = [
        [cell.strip() for cell in line.strip("|").split("|")]
        for line in _readme_command_section().splitlines()
        if line.startswith("| `")
    ]
    listed = {}
    for names, kind, flags in rows:
        own = tuple(re.findall(r"(?<![\w-])-{1,2}[a-z][a-z-]*", flags))
        for name in re.findall(r"`([a-z0-9-]+)`", names):
            listed[name] = (kind, own)
    kinds = {"lie": "`lie`", "bvwg": "`bvwg`", None: "`lie` or `bvwg`"}
    assert listed == {
        name: (kinds[command.kind], command.flags) for name, command in COMMANDS.items()
    }
