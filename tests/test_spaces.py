"""The growing span: rank-raising adds and membership over fixed caps."""

import pytest

from liepoisson.poisson import LocalElement, canonical_from_lie, localize
from liepoisson.polys import Poly, parse_poly
from liepoisson.spaces import Span, independent_subset, monomials_up_to

from conftest import heisenberg


def _heisenberg_at_z():
    A = canonical_from_lie(heisenberg())
    return localize(A, [Poly.var(A.vars, "z")])


TERMS = [
    ("x", 1), ("x", 0), ("x*z", 2), ("y", 2), ("x*z^2 + y", 2),
    ("1", 1), ("z", 2), ("y*z", 1), ("x*y", 0), ("z^3", 2), ("x*y*z", 1),
]


def test_span_add_accepts_the_rank_raising_prefix():
    L = _heisenberg_at_z()
    elements = [L.element(LocalElement(parse_poly(n, L.vars), (k,))) for n, k in TERMS]
    want = independent_subset(L, elements)
    # any caps at least the largest denominator accept the same elements
    for caps in ((2,), (3,), (6,)):
        span = Span(L, caps)
        got = [el for el in elements if span.add(el)]
        assert got == want
        assert span.echelon.rank == len(want)
        assert all(span.contains(el) for el in elements)
        assert not span.contains(L.element("x*y*z"))
        assert not span.contains(L.element(LocalElement(parse_poly("y", L.vars), (1,))))


def test_span_rejects_a_denominator_above_the_caps():
    L = _heisenberg_at_z()
    span = Span(L, (1,))
    assert span.add(L.element(LocalElement(parse_poly("x", L.vars), (1,))))
    over = L.element(LocalElement(parse_poly("y", L.vars), (2,)))
    with pytest.raises(ValueError):
        span.add(over)
    with pytest.raises(ValueError):
        span.contains(over)
    assert span.echelon.rank == 1


def test_monomials_up_to_over_no_variables_is_the_empty_monomial():
    for d in range(4):
        assert monomials_up_to(0, d) == [()]
