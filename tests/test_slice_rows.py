"""The two ways of building rows agree: ``spaces.slice_rows`` (shifts over
the algebra's Hamiltonian rows) gives exactly the rows that
``spaces.operator_rows`` gives by bracketing every generator with every
element of a span, with the same coefficient types, on every algebra whose
rows carry no denominator: on monomial slices, and on the spans of
polynomials with several terms that the central choice of ``decompose``
solves.  A span over a central denominator has the bracketed kernel.  An
algebra whose rows carry a denominator is refused, and so is a span over a
denominator that is not central."""

import importlib

import pytest

from liepoisson.errors import LiePoissonError
from liepoisson.invariants import _generator_actions, centralizer
from liepoisson.lie import verify_lie
from liepoisson.poisson import (
    LocalElement,
    PoissonAlgebra,
    ideal_from_pairs,
    localize,
    poisson_algebra,
    reduced_algebra,
)
from liepoisson.polys import Poly, make_vars, parse_poly
from liepoisson.spaces import kernel_of_operators, operator_rows, slice_basis, slice_rows

from conftest import family_n, heisenberg, lie_fixtures
from test_decompose_goldens import compute_goldens
from test_decompose_sweep import sweep_inputs

dec = importlib.import_module("liepoisson.decompose")


def _typed(tables):
    """The rows with each coefficient paired with its type, so that an int
    and an integral Fraction compare unequal."""
    return [[{m: (type(c), c) for m, c in row.items()} for row in rows] for rows in tables]


def _assert_rows_agree(alg, basis, name):
    shifted = slice_rows(alg, basis)
    bracketed = operator_rows(alg, basis, _generator_actions(alg))
    assert shifted == bracketed, name
    assert _typed(shifted) == _typed(bracketed), name


def _assert_agree(alg, d, name):
    _assert_rows_agree(alg, slice_basis(alg, d), (name, d))


def test_lie_fixtures_agree():
    fixtures = lie_fixtures()
    assert len(fixtures) == 5
    for prob in fixtures:
        alg = reduced_algebra(prob.lie, prob.ideal)
        for d in (1, 3, 4):
            _assert_agree(alg, d, prob.lie.names())


def _record_algebras(monkeypatch):
    """The algebras ``decompose`` builds, as it builds them: the top of the
    slice table, every level it is asked to share, and every localization."""
    built = []

    class Recorded(dec.SliceTable):
        def __init__(self, top, d):
            built.append(top)
            super().__init__(top, d)

        def share(self, level):
            built.append(level)
            return super().share(level)

    def localize(alg, denominators):
        out = original_localize(alg, denominators)
        built.append(out)
        return out

    original_localize = dec.localize
    monkeypatch.setattr(dec, "SliceTable", Recorded)
    monkeypatch.setattr(dec, "localize", localize)
    return built


def test_every_algebra_of_the_decompose_sweep_agrees(monkeypatch):
    # the hypothesis check's algebra, the top and every flag level of each
    # sweep input, nonlinear rules (z = a^3) and localized levels included,
    # at the input's degree bound
    built = _record_algebras(monkeypatch)
    checked = localized = nonlinear = 0
    for name, g, rules, d, s in sweep_inputs():
        ideal = ideal_from_pairs(g.basis, rules) if rules else None
        del built[:]
        try:
            dec.decompose(g, ideal, d, s)
        except LiePoissonError:
            pass
        for alg in [reduced_algebra(g, ideal), *built]:
            _assert_agree(alg, d, name)
            checked += 1
            localized += bool(alg.inverted)
            rules = alg.ideal.rules if alg.ideal else ()
            nonlinear += any(img.degree() > 1 for _, img in rules)
    # 1,534 algebras, 221 of them localized and 512 with a nonlinear rule
    assert checked >= 1500 and localized >= 200 and nonlinear >= 500


def test_every_central_choice_span_agrees(monkeypatch):
    # the images of a center that case (b) lifts into the top, over the sweep
    # and golden inputs: sums of several terms, not monomials.  The choice
    # itself makes no bracket and no partial
    spans, work, inside = [], [], []
    for owner, name in ((PoissonAlgebra, "bracket"), (Poly, "partial")):

        def counted(*args, _original=getattr(owner, name), _name=name):
            if inside:
                work.append(_name)
            return _original(*args)

        monkeypatch.setattr(owner, name, counted)
    original = dec._central_choice

    def checked(alg, candidates, d):
        _assert_rows_agree(alg, candidates, len(spans))
        spans.append(candidates)
        inside.append(True)
        try:
            return original(alg, candidates, d)
        finally:
            inside.pop()

    monkeypatch.setattr(dec, "_central_choice", checked)
    for _, g, rules, d, s in sweep_inputs():
        try:
            dec.decompose(g, ideal_from_pairs(g.basis, rules) if rules else None, d, s)
        except LiePoissonError:
            pass
    compute_goldens()
    assert not work
    # 159 spans, 53 of them with an element of several terms
    multi = sum(any(len(c.num.terms) > 1 for c in cands) for cands in spans)
    assert len(spans) >= 150 and multi >= 50, (len(spans), multi)


def _rows_over_s():
    """a p q s with {p, q} = 1/s and s inverted: the rows of p and q carry
    E = (1,)."""
    ctx = make_vars("a p q s")
    return poisson_algebra(
        ctx, {(1, 2): LocalElement(Poly.const(ctx, 1), (1,))}, inverted=[Poly.var(ctx, "s")]
    )


def test_a_span_with_a_denominator_is_refused():
    # the central choice's kernel cannot shift over rows with a denominator
    alg = _rows_over_s()
    with pytest.raises(ValueError, match="denominators"):
        centralizer(alg, [alg.element("p"), alg.element("a*q + p")])
    # a span with a denominator that is not central: {y, x} = -z
    base = reduced_algebra(heisenberg(), None)
    alg = localize(base, [Poly.var(base.vars, "x")])
    with pytest.raises(ValueError, match="central denominators"):
        slice_rows(alg, [alg.element(LocalElement(Poly.var(alg.vars, "y"), (1,)))])


def test_a_span_over_a_central_denominator_has_the_bracketed_kernel():
    # heisenberg with z inverted: each operator's rows are the bracketed rows
    # times one power of z, so the kernels agree, in the same basis
    base = reduced_algebra(heisenberg(), None)
    alg = localize(base, [Poly.var(base.vars, "z")])
    terms = [("1", 0), ("z", 0), ("1", 1), ("x", 1), ("y", 2), ("x*y", 1), ("1", 2), ("x*z", 3)]
    basis = [alg.element(LocalElement(parse_poly(n, alg.vars), (k,))) for n, k in terms]
    shifted = kernel_of_operators(alg, basis, slice_rows(alg, basis))
    bracketed = operator_rows(alg, basis, _generator_actions(alg))
    assert shifted == kernel_of_operators(alg, basis, bracketed)
    assert [alg.format(el) for _, el in shifted] == ["1", "z", "1/z", "1/z^2"]


def test_scaled_slices_agree():
    g = family_n(4)
    _assert_agree(reduced_algebra(g, ideal_from_pairs(g.basis, [("z", "1")])), 6, "family_n(4)")
    # filiform-6: [e1, e_i] = e_(i+1)
    filiform = verify_lie("e1 e2 e3 e4 e5 e6", {(0, i): {i + 1: 1} for i in range(1, 5)})
    _assert_agree(reduced_algebra(filiform, None), 8, "filiform-6")


def test_rows_with_a_denominator_are_refused():
    alg = _rows_over_s()
    assert [den for _, den in alg.rows] == [(0,), (1,), (1,), (0,)]
    with pytest.raises(ValueError, match="denominators"):
        slice_rows(alg, slice_basis(alg, 2))
