"""The degree-bounded center is solved once per algebra and degree bound,
kept on the algebra, and shared with its localizations only; the counts of
``decompose`` and its certificate stay within the work that leaves."""

import json
import os
import sys
from fractions import Fraction

from liepoisson.cli import ProblemFile
from liepoisson.decompose import decompose, verify_decomposition
from liepoisson.invariants import center_up_to_degree
from liepoisson.lie import verify_lie
from liepoisson.poisson import (
    Derivation,
    PoissonAlgebra,
    canonical_from_lie,
    ideal_from_pairs,
    localize,
    poisson_algebra,
    quotient,
    reduced_algebra,
    skew_extend,
    tensor,
)
from liepoisson.polys import Poly

from conftest import eng4, heisenberg

DATA = os.path.join(os.path.dirname(__file__), "data")


def _fixture(name):
    with open(os.path.join(DATA, f"{name}.json")) as fh:
        prob = ProblemFile(json.load(fh))
    return reduced_algebra(prob.lie, prob.ideal)


def _count_calls(monkeypatch, module, name):
    """Wrap every binding of ``module.name`` in a loaded liepoisson module
    (the defining one and each ``from .x import name`` copy); returns the
    list the wrapper appends to once per call."""
    calls = []
    original = getattr(sys.modules[f"liepoisson.{module}"], name)

    def counted(*args, **kw):
        calls.append(1)
        return original(*args, **kw)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("liepoisson.") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


def _count_method_calls(monkeypatch, module, cls, name):
    """Wrap the method ``cls.name`` of ``liepoisson.<module>``; returns the
    list the wrapper appends to once per call."""
    calls = []
    owner = getattr(sys.modules[f"liepoisson.{module}"], cls)
    original = getattr(owner, name)

    def counted(*args, **kw):
        calls.append(1)
        return original(*args, **kw)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _count_brackets(monkeypatch):
    calls = []
    original = PoissonAlgebra.bracket

    def counted(self, p, q):
        calls.append(1)
        return original(self, p, q)

    monkeypatch.setattr(PoissonAlgebra, "bracket", counted)
    return calls


def _terms(els):
    return [(sorted(el.num.terms.items()), el.den) for el in els]


# ---------------------------------------------------------------------------
# the memo on one algebra


def test_second_call_makes_no_bracket(monkeypatch):
    A = canonical_from_lie(eng4())
    first = center_up_to_degree(A, 3)
    brackets = _count_brackets(monkeypatch)
    partials = _count_method_calls(monkeypatch, "polys", "Poly", "partial")
    passes = _count_calls(monkeypatch, "spaces", "slice_rows")
    second = center_up_to_degree(A, 3)
    assert not brackets and not passes
    assert second == first and _terms(second) == _terms(first)
    # a new degree bound is a new search: one pass of exponent shifts over
    # its slice, with no bracket and no partial
    center_up_to_degree(A, 2)
    assert len(passes) == 1
    assert not brackets and not partials


def test_callers_cannot_change_the_memo():
    A = canonical_from_lie(heisenberg())
    want = _terms(center_up_to_degree(A, 3))
    got = center_up_to_degree(A, 3)
    got.append(A.gen("x"))
    got[0] = A.gen("y")
    assert _terms(center_up_to_degree(A, 3)) == want
    center_up_to_degree(A, 3).clear()
    assert _terms(center_up_to_degree(A, 3)) == want
    assert center_up_to_degree(A, 3) is not center_up_to_degree(A, 3)


def test_only_localize_shares_the_memo():
    A = canonical_from_lie(heisenberg())
    center_up_to_degree(A, 2)
    z = Poly.var(A.vars, "z")
    assert localize(A, [z]).centers is A.centers
    Q = quotient(A, ideal_from_pairs(A.vars, [("z", "1")]))
    X = skew_extend(A, Derivation({"x": A.gen("x"), "z": A.gen("z")}), "t")
    T = tensor(A, canonical_from_lie(verify_lie("p q", {(0, 1): {1: 1}})))
    for B in (Q, X, T):
        assert B.centers == {} and B.centers is not A.centers
    # each changes brackets, and so its center
    assert [str(c.num) for c in center_up_to_degree(Q, 2)] == ["1"]
    assert [str(c.num) for c in center_up_to_degree(X, 2)] == ["1"]
    assert [str(c.num) for c in center_up_to_degree(T, 2)] == ["1", "z", "z^2"]


# ---------------------------------------------------------------------------
# sharing with localizations


def _localization_cases():
    eng = canonical_from_lie(eng4())
    heis = canonical_from_lie(heisenberg())
    return [
        (_fixture("heisenberg-z1"), "x"),
        (eng, "e4"),
        (_fixture("family-n2"), "x1"),
        (heis, "z"),
    ]


def _fresh(alg):
    """An algebra equal to alg with its own empty memo."""
    return poisson_algebra(alg.vars, alg.table, alg.ideal, alg.inverted)


def _check_shared(monkeypatch, base_first):
    for make, s in _localization_cases():
        for d in range(2, 6):
            base = _fresh(make)
            loc = localize(base, [Poly.var(base.vars, s)])
            first, second = (base, loc) if base_first else (loc, base)
            got_first = center_up_to_degree(first, d)
            brackets = _count_brackets(monkeypatch)
            got_second = center_up_to_degree(second, d)
            monkeypatch.undo()
            assert not brackets, (s, d)
            assert [c.num for c in got_first] == [c.num for c in got_second]
            got_loc = got_second if base_first else got_first
            assert all(c.den == (0,) * len(loc.inverted) for c in got_loc)
            got_base = got_first if base_first else got_second
            assert all(c.den == () for c in got_base)
            unshared = center_up_to_degree(_fresh(loc), d)
            assert _terms(unshared) == _terms(got_loc), (s, d)


def test_localization_reads_the_base_center(monkeypatch):
    _check_shared(monkeypatch, base_first=True)


def test_base_reads_the_localized_center(monkeypatch):
    _check_shared(monkeypatch, base_first=False)


def test_a_localization_of_a_localization_shares_too():
    A = canonical_from_lie(eng4())
    L1 = localize(A, [Poly.var(A.vars, "e4")])
    L2 = localize(L1, [Poly.var(A.vars, "e3") * Poly.var(A.vars, "e4")])
    assert L2.centers is A.centers
    got = center_up_to_degree(L2, 3)
    assert all(c.den == (0, 0) for c in got)
    assert _terms(center_up_to_degree(_fresh(L2), 3)) == _terms(got)


# ---------------------------------------------------------------------------
# count guards (counts repeat exactly; no timing)


def _ideal_decompose_input():
    """The ideal-decompose benchmark input at seed 11:
    [x1, y1] = z/2, [x2, y2] = z, ideal z = -1."""
    g = verify_lie("x1 y1 x2 y2 z", {(0, 1): {4: Fraction(1, 2)}, (2, 3): {4: 1}})
    return g, ideal_from_pairs(g.basis, [("z", "-1")])


def test_decompose_with_an_ideal_solves_each_center_once(monkeypatch):
    g, ideal = _ideal_decompose_input()
    brackets = _count_brackets(monkeypatch)
    kernels = _count_calls(monkeypatch, "spaces", "kernel_of_operators")
    res = decompose(g, ideal, 6)
    assert res.n == 2
    # 2,015 brackets and 9 kernels when each call solved its center afresh
    assert len(brackets) <= 1700
    assert len(kernels) <= 7


def test_certificate_reads_the_center_decompose_solved(monkeypatch):
    g = verify_lie("e1 e2 e3 e4", {(0, 1): {2: Fraction(1, 2)}, (0, 2): {3: 1}})
    kernels = _count_calls(monkeypatch, "spaces", "kernel_of_operators")
    rep = verify_decomposition(decompose(g, None, 6), 3)
    assert rep["ok"]
    # 7 when verify_decomposition solved the final center again
    assert len(kernels) <= 5


def test_no_memo_outlives_a_decompose_call(monkeypatch):
    # constants no other test uses, so that a cache kept between calls
    # would be cold for the first call and warm for the second
    g = verify_lie(
        "x1 y1 x2 y2 z", {(0, 1): {4: Fraction(3, 7)}, (2, 3): {4: Fraction(5, 11)}}
    )
    ideal = ideal_from_pairs(g.basis, [("z", "2/13")])
    brackets = _count_brackets(monkeypatch)
    decompose(g, ideal, 6)
    first = len(brackets)
    decompose(g, ideal, 6)
    assert len(brackets) == 2 * first


def test_localized_certificate_makes_no_redundant_division(monkeypatch):
    # the localized-certify benchmark input at seed 11: [e1,e2] = e3/2,
    # [e1,e3] = e4, e4 inverted.  2,575 divide_exact and 251 quotient-rule
    # partials when localized arithmetic applied the quotient rule one
    # variable at a time and cancelled after every partial, product and sum;
    # 2,268 and 115 when only denominator-free rows took one cancel.  1,545
    # brackets when every flag level bracketed its own slice, 1,230 when the
    # slice table and each center memo miss bracketed theirs, 390 when the
    # central choice bracketed its candidates with every generator: the rows
    # of all three are exponent shifts now, so the brackets left are those
    # of the flag steps and the certificate
    g = verify_lie("e1 e2 e3 e4", {(0, 1): {2: Fraction(1, 2)}, (0, 2): {3: 1}})
    brackets = _count_method_calls(monkeypatch, "poisson", "PoissonAlgebra", "bracket")
    divisions = _count_method_calls(monkeypatch, "polys", "Poly", "divide_exact")
    partials = _count_method_calls(monkeypatch, "poisson", "PoissonAlgebra", "partial")
    res = decompose(g, None, 6)
    rep = verify_decomposition(res, 3)
    assert rep["ok"] and res.algebra.inverted
    assert len(brackets) == 306
    assert len(divisions) <= 2113
    assert partials == []


def test_semisimple_actions_need_no_localization_of_their_own(monkeypatch):
    # [x,y] = z, [t,x] = x, [t,y] = -y with s = <t>: z is inverted once.  The
    # actions of t are derivations of each level algebra, so the run with s
    # localizes exactly as often as the run without (3 times, and 2
    # epsilon_derivation builds, when the actions lived on a second, separately
    # localized full algebra)
    from liepoisson.lie import Subspace

    g = verify_lie("x y z t", {(0, 1): {2: 1}, (0, 3): {0: -1}, (1, 3): {1: 1}})
    builds = _count_calls(monkeypatch, "poisson", "epsilon_derivation")
    localizations = _count_calls(monkeypatch, "poisson", "localize")
    plain = decompose(g, None, 6)
    without_s = len(localizations)
    res = decompose(g, None, 6, s=Subspace(4, [(0, 0, 0, 1)]))
    assert res.n == 1 and str(res.e) == "z" and plain.trace == res.trace
    assert without_s == 2 and len(localizations) == 2 * without_s
    assert builds == []
