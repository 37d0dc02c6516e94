"""Polynomial layer: arithmetic, calculus, substitution, parsing."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liepoisson.errors import (
    CyclicSubstitution,
    NegativePowerOfNonUnit,
    NonUnitImageForInvertible,
    PolyParseError,
    UnknownVariable,
)
from liepoisson.polys import Poly, make_vars, parse_poly

from conftest import random_poly

CTX = make_vars("x y")
X = Poly.var(CTX, "x")
Y = Poly.var(CTX, "y")
LCTX = make_vars("x y") + make_vars("g", invertible=True)


def test_difference_of_squares():
    assert (X + Y) * (X - Y) == X * X - Y * Y


def test_laurent_negative_power():
    g = Poly.var(make_vars("g", invertible=True), "g")
    assert str(g**-2) == "g^-2"


def test_exact_rational_sum():
    # oracle: integer gcd arithmetic gives 1/2 + 1/3 = 5/6
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)
    got = X.scale(Fraction(1, 2)) + X.scale(Fraction(1, 3))
    assert got == X.scale(Fraction(5, 6))


def test_negative_power_of_non_unit_raises():
    with pytest.raises(NegativePowerOfNonUnit):
        (X + Y) ** -1
    with pytest.raises(NegativePowerOfNonUnit):
        X**-1  # x is not invertible


def test_partial_power_rule():
    # oracle: term-by-term power rule on X*Y^2
    assert (X * Y**2).partial("y") == X * Y.scale(2)
    assert Poly.const(CTX, 7).partial("x").is_zero()
    g = Poly.var(make_vars("g", invertible=True), "g")
    assert (g**-1).partial("g") == -(g**-2)


def test_partial_unknown_variable():
    with pytest.raises(UnknownVariable):
        X.partial("nope")


def test_substitute_quotient_example():
    ctx = make_vars("x z")
    x, z = Poly.var(ctx, "x"), Poly.var(ctx, "z")
    p = x * z + z * z
    assert p.substitute({"z": Poly.const(ctx, 1)}) == x + Poly.const(ctx, 1)


def test_substitute_identity_and_expansion():
    assert (X * X + Y).substitute({"x": X, "y": Y}) == X * X + Y
    got = (X * X).substitute({"x": Y + Poly.const(CTX, 1)})
    assert got == Y * Y + Y.scale(2) + Poly.const(CTX, 1)


def test_substitute_cyclic_raises():
    with pytest.raises(CyclicSubstitution):
        (X * Y).substitute({"x": Y, "y": X})
    with pytest.raises(CyclicSubstitution):
        X.substitute({"x": X + Poly.const(CTX, 1)})


def test_substitute_invertible_needs_unit():
    ctx = make_vars("x") + make_vars("g h", invertible=True)
    g = Poly.var(ctx, "g")
    h = Poly.var(ctx, "h")
    x = Poly.var(ctx, "x")
    with pytest.raises(NonUnitImageForInvertible):
        (g**-1).substitute({"g": x + Poly.const(ctx, 1)})
    # unit image is fine and respects negative powers
    assert (g**-2).substitute({"g": h.scale(2)}) == (h**-2).scale(Fraction(1, 4))


def test_substitute_without_bound_variable_returns_self_after_validation():
    # no term has a nonzero exponent on x: the polynomial itself comes back
    p = Y * Y + Poly.const(CTX, 3)
    assert p.substitute({"x": Y + Poly.const(CTX, 1)}) is p
    # the bindings are still validated first, even when nothing would change
    with pytest.raises(CyclicSubstitution):
        Poly.const(CTX, 3).substitute({"x": Y, "y": X})
    ctx = make_vars("x") + make_vars("g", invertible=True)
    x = Poly.var(ctx, "x")
    with pytest.raises(NonUnitImageForInvertible):
        x.substitute({"g": x + Poly.const(ctx, 1)})


def test_parse_basic_and_roundtrip():
    p = parse_poly("2/3*x^2*y - x", CTX)
    assert p == (X**2 * Y).scale(Fraction(2, 3)) - X
    assert parse_poly(str(p), CTX) == p


def test_parse_print_idempotent():
    for text in ("x + y", "-x^3 + 1/2", "(x+y)^2", "2/3*x^2*y - x", "0"):
        once = str(parse_poly(text, CTX))
        twice = str(parse_poly(once, CTX))
        assert once == twice


def test_parse_laurent_gate():
    assert str(parse_poly("g^-1*x", LCTX)) == "x*g^-1"
    with pytest.raises(NegativePowerOfNonUnit):
        parse_poly("x^-1", LCTX)


def test_parse_errors_carry_offsets():
    with pytest.raises(PolyParseError) as err:
        parse_poly("x + ", CTX)
    assert err.value.offset == 4
    with pytest.raises(UnknownVariable):
        parse_poly("x * q", CTX)


def test_shift_translation():
    assert (X**2).shift({"x": 1}) == X**2 + X.scale(2) + Poly.const(CTX, 1)
    assert (X * Y).shift({"x": 0}) == X * Y


def test_divide_exact():
    assert (X**2 + X * Y).divide_exact(X) == X + Y
    assert (X**2 + Y).divide_exact(X) is None


# ---------------------------------------------------------------------------
# ring axioms (property-based)

VARS3 = make_vars("x y z")


@st.composite
def polys(draw):
    seed = draw(st.integers(min_value=0, max_value=10**9))
    return random_poly(random.Random(seed), VARS3, max_degree=4, max_terms=4)


@given(polys(), polys(), polys())
@settings(max_examples=80, deadline=None)
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r


@given(polys(), polys())
@settings(max_examples=60, deadline=None)
def test_partial_leibniz(p, q):
    for name in ("x", "y"):
        lhs = (p * q).partial(name)
        rhs = p.partial(name) * q + p * q.partial(name)
        assert lhs == rhs


@given(polys())
@settings(max_examples=60, deadline=None)
def test_mixed_partials_commute(p):
    assert p.partial("x").partial("y") == p.partial("y").partial("x")


@given(polys(), polys())
@settings(max_examples=40, deadline=None)
def test_substitute_is_ring_hom(p, q):
    image = {
        "x": Poly.var(VARS3, "z") + Poly.const(VARS3, 1),
        "y": Poly.var(VARS3, "z").scale(2),
    }
    assert (p * q).substitute(image) == p.substitute(image) * q.substitute(image)
    assert (p + q).substitute(image) == p.substitute(image) + q.substitute(image)
