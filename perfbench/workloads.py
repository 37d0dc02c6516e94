"""The four benchmark workloads: seeded inputs, one op each, exact checks.

Every workload reaches the library through ``sys.modules["liepoisson.<name>"]``
at call time, never through a reference captured at import, so that the
tracer's wrappers (see ``tracer.py``) are the functions an op actually calls.
The package attribute ``liepoisson.decompose`` is the *function*, not the
module, which is why modules are looked up by their full name.

A workload object has:

  inputs        the distinct inputs of the run, built from the seed;
  op(x)         one timed library or CLI call on one input, returning its report;
  fingerprint   bytes identifying a report (must repeat across reps);
  check(x, r)   exact check of a report, run outside the timed region;
                returns None when it holds, else a one-line reason;
  expect_nonzero, expect_zero
                per-layer metrics a traced run must find nonzero or zero.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "fixtures")
GOLDENS = os.path.join(HERE, "goldens.json")
OUT_DIR = os.path.join(os.path.dirname(HERE), ".perfbench_out")

# The README's commands, in README order.  ``{trace}`` is the trace file the
# decompose command writes; the harness points it inside the output directory.
README_COMMANDS = [
    ["verify", "heisenberg.json"],
    ["bracket", "heisenberg.json", "-p", "x*y", "-q", "z"],
    ["semi-invariants", "aff2.json", "--max-degree", "4"],
    ["center", "eng4.json", "--max-degree", "2"],
    ["ghat", "aff2.json"],
    ["decompose", "heisenberg-z1.json", "--trace", "{trace}"],
    ["check84", "heisenberg.json"],
    ["bvwg-simple", "bvwg-simple.json"],
    ["bvwg-invariants", "bvwg-symp.json", "--dmax", "40"],
    ["bvwg-embed", "bvwg-simple.json"],
    ["bvwg-realize", "bvwg-simple.json"],
]


def mod(name: str):
    return sys.modules[f"liepoisson.{name}"]


def nonzero_rational(rng: random.Random) -> Fraction:
    num = rng.choice([n for n in range(-6, 7) if n])
    return Fraction(num, rng.randint(1, 4))


def digest(obj) -> bytes:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).digest()


def decomposition_summary(res) -> dict:
    alg = res.algebra
    return {
        "e": str(res.e),
        "n": res.n,
        "pairs": [[alg.format(x), alg.format(y)] for x, y in res.pairs],
        "center": [alg.format(c) for c in res.center_basis],
        "trace": res.trace,
    }


class IdealDecompose:
    """decompose(family_n(2) with [x_i, y_i] = c_i z, ideal z = c, d=6)."""

    name = "ideal-decompose"
    degree = 6
    check_degree = 3
    expect_nonzero = (
        "poisson.normal_form.calls",
        "polys.substitute.calls",
        "poisson.bracket.calls",
        "polys.partial.calls",
        "spaces.kernel_of_operators.self_s",
        "invariants.center_up_to_degree.repeat_ratio",
    )
    expect_zero = ("cli.run.calls",)

    def __init__(self, seed: int):
        rng = random.Random(seed)
        c1, c2, c = (nonzero_rational(rng) for _ in range(3))
        g = mod("lie").verify_lie(
            "x1 y1 x2 y2 z", {(0, 1): {4: c1}, (2, 3): {4: c2}}
        )
        ideal = mod("poisson").ideal_from_pairs(g.basis, [("z", str(c))])
        self.inputs = [(g, ideal)]

    def op(self, x):
        g, ideal = x
        return mod("decompose").decompose(g, ideal, self.degree)

    def fingerprint(self, res) -> bytes:
        return digest(decomposition_summary(res))

    def check(self, x, res):
        rep = mod("decompose").verify_decomposition(res, self.check_degree)
        return None if rep["ok"] else f"verify_decomposition: {rep}"


class WeightSearch:
    """semi_invariants on t s x y with [t,x]=a x, [s,y]=b y, [t,y]=c y, d=5."""

    name = "weight-search"
    degree = 5
    expect_nonzero = (
        "poisson.bracket.calls",
        "polys.partial.calls",
        "spaces.kernel_of_operators.self_s",
        "invariants.semi_invariants.weights_tried",
    )
    # no ideal and no denominator: normal-form and division work is zero
    expect_zero = (
        "poisson.normal_form.calls",
        "polys.divide_exact.calls",
        "invariants.center_up_to_degree.calls",
        "cli.run.calls",
    )

    def __init__(self, seed: int):
        rng = random.Random(seed)
        a, b, c = (nonzero_rational(rng) for _ in range(3))
        g = mod("lie").verify_lie(
            "t s x y", {(0, 2): {2: a}, (1, 3): {3: b}, (0, 3): {3: c}}
        )
        self.inputs = [g]

    def op(self, g):
        return mod("invariants").semi_invariants(g, None, self.degree)

    def fingerprint(self, rep) -> bytes:
        return digest(
            [
                [[str(v) for v in w.values], [str(b) for b in basis]]
                for w, basis in rep.entries
            ]
        )

    def check(self, g, rep):
        # x^i y^j (i + j <= d) is a semi-invariant of its own weight, and the
        # two flag weights are independent (b != 0), so every candidate
        # weight has a nonzero weight space.
        want = (self.degree + 1) * (self.degree + 2) // 2
        if len(rep.entries) != want:
            return f"{len(rep.entries)} weight spaces, expected {want}"
        alg = mod("poisson").canonical_from_lie(g)
        gens = [alg.gen(v.name) for v in g.basis]
        for w, basis in rep.entries:
            if not basis:
                return f"empty basis for weight {w.values}"
            for a in basis:
                for lam, x in zip(w.values, gens):
                    if alg.bracket(x, a) != alg.scale(lam, a):
                        return f"{{x, {a}}} != {lam}*({a})"
        return None


class LocalizedCertify:
    """verify_decomposition(decompose(eng4-type, d=6), 3) with
    [e1,e2] = a e3, [e1,e3] = b e4; e4 is inverted."""

    name = "localized-certify"
    degree = 6
    check_degree = 3
    expect_nonzero = (
        "polys.divide_exact.calls",
        "linalg.echelon_add.calls",
        "spaces.solve_in_span.calls",
        "poisson.bracket.calls",
        "spaces.kernel_of_operators.self_s",
        "invariants.center_up_to_degree.repeat_ratio",
        "decompose.denominators",
    )
    expect_zero = ("poisson.normal_form.calls", "cli.run.calls")

    def __init__(self, seed: int):
        rng = random.Random(seed)
        a, b = (nonzero_rational(rng) for _ in range(2))
        g = mod("lie").verify_lie("e1 e2 e3 e4", {(0, 1): {2: a}, (0, 2): {3: b}})
        self.inputs = [g]

    def op(self, g):
        dec = mod("decompose")
        res = dec.decompose(g, None, self.degree)
        return res, dec.verify_decomposition(res, self.check_degree)

    def fingerprint(self, out) -> bytes:
        res, rep = out
        return digest([decomposition_summary(res), rep])

    def check(self, g, out):
        res, rep = out
        if not res.algebra.inverted:
            return "no denominator was inverted"
        return None if rep["ok"] else f"verify_decomposition: {rep}"


class CliReadme:
    """The README's commands run in process through cli.run; the seed shuffles
    their order.  Each report must match its golden byte for byte."""

    name = "cli-readme"
    expect_nonzero = (
        "cli.run.calls",
        "cli.load.self_s",
        "lie.verify_lie.self_s",
        "poisson.algebra_builds",
        "bvwg.calls",
        "bvwg.self_s",
    )
    expect_zero = ()

    def __init__(self, seed: int):
        with open(GOLDENS) as fh:
            goldens = json.load(fh)
        self.trace_path = os.path.join(OUT_DIR, "cli-trace.json")
        order = list(range(len(README_COMMANDS)))
        random.Random(seed).shuffle(order)
        self.inputs = []
        for k in order:
            argv = [
                self.trace_path
                if a == "{trace}"
                else os.path.join(FIXTURES, a) if a.endswith(".json") else a
                for a in README_COMMANDS[k]
            ]
            self.inputs.append((k, argv, goldens[k]))

    def op(self, x):
        _, argv, _ = x
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = mod("cli").run(argv)
        return code, out.getvalue(), self._trace_text(argv)

    def _trace_text(self, argv):
        if "--trace" not in argv:
            return None
        with open(self.trace_path) as fh:
            return fh.read()

    def fingerprint(self, out) -> bytes:
        return digest(list(out))

    def check(self, x, out):
        k, _, golden = x
        code, stdout, trace = out
        if code != golden["code"]:
            return f"command {k}: exit {code}, golden {golden['code']}"
        if stdout != golden["stdout"]:
            return f"command {k}: stdout differs from golden"
        if trace != golden["trace"]:
            return f"command {k}: trace file differs from golden"
        return None


WORKLOADS = {
    w.name: w for w in (IdealDecompose, WeightSearch, LocalizedCertify, CliReadme)
}
