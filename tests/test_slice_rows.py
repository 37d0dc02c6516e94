"""The two slice-action paths agree: ``spaces.slice_rows`` (exponent shifts
over the algebra's Hamiltonian rows) gives exactly the rows that
``spaces.operator_rows`` gives by bracketing every generator with every
slice monomial, with the same coefficient types, on every algebra whose
rows carry no denominator.  An algebra whose rows do carry one is refused."""

import importlib

import pytest

from liepoisson.errors import LiePoissonError
from liepoisson.invariants import _generator_actions
from liepoisson.lie import verify_lie
from liepoisson.poisson import (
    LocalElement,
    ideal_from_pairs,
    poisson_algebra,
    reduced_algebra,
)
from liepoisson.polys import Poly, make_vars
from liepoisson.spaces import operator_rows, slice_basis, slice_rows

from conftest import family_n, lie_fixtures
from test_decompose_sweep import sweep_inputs

dec = importlib.import_module("liepoisson.decompose")


def _typed(tables):
    """The rows with each coefficient paired with its type, so that an int
    and an integral Fraction compare unequal."""
    return [[{m: (type(c), c) for m, c in row.items()} for row in rows] for rows in tables]


def _assert_agree(alg, d, name):
    basis = slice_basis(alg, d)
    shifted = slice_rows(alg, basis)
    bracketed = operator_rows(alg, basis, _generator_actions(alg))
    assert shifted == bracketed, (name, d)
    assert _typed(shifted) == _typed(bracketed), (name, d)


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


def test_scaled_slices_agree():
    g = family_n(4)
    _assert_agree(reduced_algebra(g, ideal_from_pairs(g.basis, [("z", "1")])), 6, "family_n(4)")
    # filiform-6: [e1, e_i] = e_(i+1)
    filiform = verify_lie("e1 e2 e3 e4 e5 e6", {(0, i): {i + 1: 1} for i in range(1, 5)})
    _assert_agree(reduced_algebra(filiform, None), 8, "filiform-6")


def test_rows_with_a_denominator_are_refused():
    # {p, q} = 1/s with s inverted: the rows of p and q carry E = (1,)
    ctx = make_vars("a p q s")
    alg = poisson_algebra(
        ctx, {(1, 2): LocalElement(Poly.const(ctx, 1), (1,))}, inverted=[Poly.var(ctx, "s")]
    )
    assert [den for _, den in alg.rows] == [(0,), (1,), (1,), (0,)]
    with pytest.raises(ValueError, match="denominators"):
        slice_rows(alg, slice_basis(alg, 2))
