"""The decompose sweep: a golden of ``decompose`` on 266 inputs.

Each line of tests/data/decompose_sweep.jsonl is one input, as sorted-key
JSON: its name and e, n, the formatted pairs and center basis and the trace,
or the type and message of the error ``decompose`` raised.  A changed input
shows as one changed line.  The inputs:

  * ``random_solvable`` seeds 0-149, of dimension 2 + seed mod 4, d = 4;
  * 10 ``random_basis_change`` conjugates each of heisenberg, eng4 and
    family_n(2), d = 4;
  * heisenberg with z = 1, family_n(2) with z = 1 and z = 3/2, family_n(3)
    with z = 1, d = 4;
  * ``x y z a`` ([x,y] = z) listed as ``x y z a``, ``a x y z`` and
    ``z a x y``, with z in {a, a^2, a^2+1, a+1, a^3}, d = 4;
  * ``x y z a t`` ([x,y] = z, [t,x] = x, [t,y] = -y) with the same five
    images, with and without s = <t>, d = 4;
  * eng4 with a central ``a`` listed first and listed last, with e4 in
    {a, a^2, a^2+1, a^3, a^2+a} at d = 4 and 6, and with the rule
    a -> e3^2 - 2 e2 e4 at d = 4;
  * ``x y z a b`` ([x,y] = z) with z in {a*b, a^2+b, b^2}, d = 4;
  * nonlinear rules: ``x y z a t`` with [t,x] = alpha x, [t,y] = -alpha y
    for alpha in {1, 2}, z in {a^2, a^3, a^2+1, a^3+a}, d in {3, 5}, with
    and without s = <t>.

Every ``HypothesisFailed`` is also checked independently: its element is a
nonzero semi-invariant of its nonzero weight.  So is every decomposition:
2n is the largest rank of the quotient's bracket matrix at seeded integer
points.  Regenerate (only when a change of output is intended) with

    PYTHONPATH=src:tests python tests/test_decompose_sweep.py --write
"""

from __future__ import annotations

import json
import os
import random
import sys
from fractions import Fraction
from functools import cache

import pytest

from liepoisson import linalg
from liepoisson.decompose import decompose
from liepoisson.errors import HypothesisFailed, LiePoissonError
from liepoisson.lie import Subspace, verify_lie
from liepoisson.poisson import ideal_from_pairs, reduced_algebra

from conftest import eng4, family_n, heisenberg, random_basis_change, random_solvable

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "decompose_sweep.jsonl")

IMAGES = ["a", "a^2", "a^2 + 1", "a + 1", "a^3"]
NONLINEAR = ["a^2", "a^3", "a^2 + 1", "a^3 + a"]


def _listed(order: str, brackets):
    """The Lie algebra on the names of ``order``, in that order, with
    [p, q] = sum c r for each ((p, q), {r: c}) of ``brackets``."""
    pos = {name: k for k, name in enumerate(order.split())}
    structure = {}
    for (p, q), vec in brackets.items():
        sign = 1 if pos[p] < pos[q] else -1
        key = (min(pos[p], pos[q]), max(pos[p], pos[q]))
        structure[key] = {pos[r]: sign * Fraction(c) for r, c in vec.items()}
    return verify_lie(order, structure)


def _s(g, name):
    """s = <name>."""
    return Subspace(g.dim, [tuple(int(v.name == name) for v in g.basis)])


def _heis_at(alpha):
    """x y z a t with [x,y] = z, [t,x] = alpha x and [t,y] = -alpha y."""
    brackets = {("x", "y"): {"z": 1}, ("t", "x"): {"x": alpha}, ("t", "y"): {"y": -alpha}}
    return _listed("x y z a t", brackets)


def sweep_inputs():
    """(name, g, ideal rules, d, s) of every input, in golden order."""
    for seed in range(150):
        rng = random.Random(seed)
        yield f"random_solvable seed {seed}", random_solvable(rng, 2 + seed % 4), [], 4, None
    bases = [("heisenberg", heisenberg()), ("eng4", eng4()), ("family_n(2)", family_n(2))]
    for name, base in bases:
        for seed in range(10):
            g = random_basis_change(random.Random(seed), base)
            yield f"{name} conjugate {seed}", g, [], 4, None
    yield "heisenberg z=1", heisenberg(), [("z", "1")], 4, None
    yield "family_n(2) z=1", family_n(2), [("z", "1")], 4, None
    yield "family_n(2) z=3/2", family_n(2), [("z", "3/2")], 4, None
    yield "family_n(3) z=1", family_n(3), [("z", "1")], 4, None
    for order in ("x y z a", "a x y z", "z a x y"):
        g = _listed(order, {("x", "y"): {"z": 1}})
        for img in IMAGES:
            yield f"{order}: z={img}", g, [("z", img)], 4, None
    g = _heis_at(1)
    for img in IMAGES:
        yield f"x y z a t: z={img}", g, [("z", img)], 4, None
        yield f"x y z a t: z={img}, s=<t>", g, [("z", img)], 4, _s(g, "t")
    eng4_brackets = {("e1", "e2"): {"e3": 1}, ("e1", "e3"): {"e4": 1}}
    for order in ("a e1 e2 e3 e4", "e1 e2 e3 e4 a"):
        g = _listed(order, eng4_brackets)
        for d in (4, 6):
            for img in ("a", "a^2", "a^2 + 1", "a^3", "a^2 + a"):
                yield f"{order}: e4={img}, d={d}", g, [("e4", img)], d, None
        yield f"{order}: a=e3^2 - 2*e2*e4", g, [("a", "e3^2 - 2*e2*e4")], 4, None
    g = _listed("x y z a b", {("x", "y"): {"z": 1}})
    for img in ("a*b", "a^2 + b", "b^2"):
        yield f"x y z a b: z={img}", g, [("z", img)], 4, None
    for alpha in (1, 2):
        g = _heis_at(alpha)
        for img in NONLINEAR:
            for d in (3, 5):
                for s in (None, _s(g, "t")):
                    tag = ", s=<t>" if s is not None else ""
                    name = f"x y z a t, alpha={alpha}: z={img}, d={d}{tag}"
                    yield name, g, [("z", img)], d, s


def _record(name, g, rules, d, s):
    """The golden line's dict for one input, and the (weight, element) of the
    HypothesisFailed it raised, if it did."""
    ideal = ideal_from_pairs(g.basis, rules) if rules else None
    try:
        res = decompose(g, ideal, d, s)
    except LiePoissonError as err:
        failed = (err.weight, err.element) if isinstance(err, HypothesisFailed) else None
        return {"name": name, "error": type(err).__name__, "detail": str(err)}, failed
    alg = res.algebra
    return {
        "name": name,
        "e": str(res.e),
        "n": res.n,
        "pairs": [[alg.format(x), alg.format(y)] for x, y in res.pairs],
        "center": [alg.format(c) for c in res.center_basis],
        "trace": res.trace,
    }, None


@cache
def sweep():
    """(input, golden line, HypothesisFailed certificate or None) for every
    input, computed once."""
    out = []
    for inp in sweep_inputs():
        rec, failed = _record(*inp)
        out.append((inp, json.dumps(rec, sort_keys=True), failed))
    return out


def test_sweep_matches_golden():
    with open(GOLDEN) as fh:
        want = fh.read().splitlines()
    got = [line for _, line, _ in sweep()]
    assert len(got) == len(want) == 266
    changed = [json.loads(w)["name"] for g, w in zip(got, want) if g != w]
    assert changed == []


def test_every_hypothesis_failure_is_a_nonzero_weight_semi_invariant():
    checked = 0
    for (name, g, rules, _, _), _, failed in sweep():
        if failed is None:
            continue
        weight, element = failed
        alg = reduced_algebra(g, ideal_from_pairs(g.basis, rules) if rules else None)
        a = alg.element(element)
        lam = [Fraction(w) for w in weight]
        assert not a.is_zero(), name
        assert len(lam) == g.dim and any(lam), name
        for v, w in zip(g.basis, lam):
            image = alg.bracket(alg.gen(v.name), a)
            assert alg.sub(image, alg.scale(w, a)).is_zero(), (name, v.name)
        checked += 1
    assert checked >= 54


def test_eigenvalue_not_rational_iff_some_ad_fails_to_split():
    # for solvable g, a flag of ideals with rational weights exists exactly
    # when the characteristic polynomial of every ad x_j splits into linear
    # factors over Q: the eigenvalues of ad x_j are the weights at x_j
    sympy = pytest.importorskip("sympy")
    lam = sympy.Symbol("lam")
    raised = 0
    for (name, g, _, _, _), line, _ in sweep():
        splits = True
        for j in range(g.dim):
            ad = g.ad_matrix([Fraction(int(i == j)) for i in range(g.dim)])
            matrix = sympy.Matrix([[sympy.Rational(str(c)) for c in row] for row in ad])
            _, factors = sympy.factor_list(matrix.charpoly(lam).as_expr(), lam)
            splits = splits and all(sympy.degree(f, lam) == 1 for f, _ in factors)
        irrational = json.loads(line).get("error") == "EigenvalueNotRational"
        assert irrational == (not splits), name
        raised += irrational
    assert raised == 8


def _value(poly, point):
    """The polynomial at the point, one integer per variable of its context."""
    total = 0
    for mono, c in poly.terms.items():
        for x, e in zip(point, mono):
            c *= x**e
        total += c
    return total


def test_every_decomposition_has_the_weyl_rank_of_its_bracket_matrix():
    # the Poisson structure matrix ({x_i, x_j}) of the quotient has generic
    # rank 2n when the localized quotient is center (x) n Weyl pairs; a
    # point's rank never exceeds it, so the largest over a few seeded
    # points is 2n
    rng = random.Random(0)
    checked = 0
    for (name, g, rules, _, _), line, failed in sweep():
        n = json.loads(line).get("n")
        if n is None:
            continue
        alg = reduced_algebra(g, ideal_from_pairs(g.basis, rules) if rules else None)
        gens = [alg.gen(v.name) for v in alg.effective_vars()]
        matrix = [[alg.bracket(a, b).num for b in gens] for a in gens]
        ranks = []
        for _ in range(4):
            point = [rng.randint(-9, 9) for _ in alg.vars]
            rows = [linalg.sparse([_value(p, point) for p in row]) for row in matrix]
            ranks.append(linalg.rank(rows))
        assert max(ranks) == 2 * n, name
        checked += 1
    assert checked == 204


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_decompose_sweep.py --write")
    with open(GOLDEN, "w") as fh:
        fh.write("".join(line + "\n" for _, line, _ in sweep()))
