"""The two ways of building rows agree: ``spaces.slice_rows`` (shifts over
the algebra's Hamiltonian rows) gives the rows that ``spaces.operator_rows``
gives by bracketing every generator with every element of a span, each
generator's rows times lambda_i, the lcm of the denominators of its
numerators N_ik, on every algebra whose rows carry no denominator: on
monomial slices, given by their exponent tuples, where the rows are
integers, and on the spans of polynomials with several terms that the
central choice of ``decompose`` solves.  The kernels are the same.  A span
over a central denominator has the bracketed kernel.  An algebra whose rows
carry a denominator is refused, and so is a span over a denominator that is
not central."""

import importlib
from fractions import Fraction
from math import lcm

import pytest

from liepoisson.errors import LiePoissonError
from liepoisson.invariants import _generator_actions, centralizer, commutes_with_generators
from liepoisson.lie import verify_lie
from liepoisson.poisson import (
    LocalElement,
    PoissonAlgebra,
    ideal_from_pairs,
    localize,
    poisson_algebra,
    reduced_algebra,
)
from liepoisson.polys import Poly, _coef, make_vars, parse_poly
from liepoisson.spaces import (
    kernel_of_operators,
    operator_rows,
    slice_basis,
    slice_monomials,
    slice_rows,
)

from conftest import family_n, heisenberg, lie_fixtures
from test_decompose_goldens import compute_goldens
from test_decompose_sweep import sweep_inputs

dec = importlib.import_module("liepoisson.decompose")


def _typed(tables):
    """The rows with each coefficient paired with its type, so that an int
    and an integral Fraction compare unequal."""
    return [[{m: (type(c), c) for m, c in row.items()} for row in rows] for rows in tables]


def _lambdas(alg):
    """Per generator x_i, the lcm of the denominators of the coefficients of
    its numerators N_ik, read from ``alg.rows``."""
    return [
        lcm(*[Fraction(c).denominator for _, image in entries for c in image.terms.values()])
        for entries, _ in alg.rows
    ]


def _assert_rows_agree(alg, basis, name):
    """basis is a monomial slice as exponent tuples, or a list of elements."""
    slice_ = bool(basis) and type(basis[0]) is tuple
    if slice_:
        den = (0,) * len(alg.inverted)
        elements = [LocalElement(Poly.monomial(alg.vars, m), den) for m in basis]
    else:
        elements = basis
    shifted = slice_rows(alg, basis)
    bracketed = operator_rows(alg, elements, _generator_actions(alg))
    scaled = [
        [{m: _coef(lam * c) for m, c in row.items()} for row in rows]
        for lam, rows in zip(_lambdas(alg), bracketed)
    ]
    assert _typed(shifted) == _typed(scaled), name
    if slice_:
        assert all(type(c) is int for rows in shifted for row in rows for c in row.values()), name
    got = kernel_of_operators(alg, basis, shifted)
    assert got == kernel_of_operators(alg, elements, bracketed), name


def _assert_agree(alg, d, name):
    _assert_rows_agree(alg, slice_monomials(alg, d), (name, d))


def test_lie_fixtures_agree():
    fixtures = lie_fixtures()
    assert len(fixtures) == 5
    for prob in fixtures:
        alg = reduced_algebra(prob.lie, prob.ideal)
        for d in (1, 3, 4):
            _assert_agree(alg, d, prob.lie.names())


def _record_algebras(monkeypatch):
    """The level algebras ``decompose`` uses, as it makes them: every level
    built from g (``_level_algebra``, the uncovered ones), every level the
    slice table builds from the top (the top among them), and every
    localization."""
    built = []

    def recorded(original):
        def record(*args):
            out = original(*args)
            if out is not None:
                built.append(out)
            return out

        return record

    monkeypatch.setattr(dec.SliceTable, "level", recorded(dec.SliceTable.level))
    for name in ("_level_algebra", "localize"):
        monkeypatch.setattr(dec, name, recorded(getattr(dec, name)))
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
    # 1,330 algebras, 221 of them localized and 444 with a nonlinear rule.
    # The recorder once counted each top twice, built from g and returned by
    # ``SliceTable.level`` (1,534 and 512); the distinct algebras are the same
    assert checked >= 1300 and localized >= 200 and nonlinear >= 440, (checked, nonlinear)


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
    # the central choice's kernel and the centrality check of a certificate
    # cannot shift over rows with a denominator
    alg = _rows_over_s()
    span = [alg.element("p"), alg.element("a*q + p")]
    with pytest.raises(ValueError, match="denominators"):
        centralizer(alg, span)
    with pytest.raises(ValueError, match="denominators"):
        commutes_with_generators(alg, span)
    # a span with a denominator that is not central: {y, x} = -z
    base = reduced_algebra(heisenberg(), None)
    alg = localize(base, [Poly.var(base.vars, "x")])
    y_over_x = [alg.element(LocalElement(Poly.var(alg.vars, "y"), (1,)))]
    with pytest.raises(ValueError, match="central denominators"):
        slice_rows(alg, y_over_x)
    # the centrality check reports such a span not central
    assert not commutes_with_generators(alg, y_over_x)


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
