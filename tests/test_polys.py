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
from liepoisson import polys as polys_module
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


@pytest.mark.parametrize(
    "text, message, offset",
    [
        ("x^", "expected integer", 2),
        ("(x + y", "expected ')'", 6),
        ("x y", "trailing input", 2),
    ],
)
def test_parse_error_message_and_offset(text, message, offset):
    with pytest.raises(PolyParseError) as err:
        parse_poly(text, CTX)
    assert (err.value.message, err.value.offset) == (message, offset)
    assert str(err.value) == f"{message} (at byte {offset})"


def test_polys_of_another_context_are_refused():
    other = make_vars("x y z")
    with pytest.raises(ValueError, match="^polynomials from different variable contexts$"):
        X + Poly.var(other, "x")
    with pytest.raises(UnknownVariable, match="^unknown variable 'q'$"):
        X.substitute({"q": Y})
    with pytest.raises(ValueError, match="^substitution image from a different context$"):
        X.substitute({"x": Poly.var(other, "z")})
    with pytest.raises(UnknownVariable, match="^unknown variable 'q'$"):
        X.shift({"q": 1})


def test_deep_nesting_is_a_parse_error():
    # 100 open parentheses parse; one more is an error, not a RecursionError
    assert parse_poly("(" * 100 + "x" + ")" * 100, CTX) == X
    for depth in (101, 400, 5000):
        with pytest.raises(PolyParseError) as err:
            parse_poly("(" * depth + "x" + ")" * depth, CTX)
        assert err.value.message == "expression nested too deeply"
        assert err.value.offset == 100
    # unary minus is read in a loop, at any depth
    assert parse_poly("-" * 5001 + "x^2", CTX) == -(X**2)
    assert parse_poly("-" * 5000 + "(-x)", CTX) == -X


# two terms with 67-bit coefficients: the power p^k is estimated at 67 * k bits
BIG = "12345678901234567890/98765432109876543211*x + 98765432109876543213/12345678901234567891*y"


def test_parse_bounds_the_expansion():
    ctx = make_vars("x y z")
    assert polys_module._MAX_TERMS == 300
    accepted = ["(x+y)^299", "(x+y+z)^23", "2^300", "(x+y)^14*(x+y)^19", "(x+y+z)^0"]
    # coefficient size, at most 600 bits: summed over a product, times k for p^k
    accepted += ["(1/3*x + 2/3*y)^299", "(7/6*x + 7/5*y)^200", f"({BIG})^8"]
    accepted += [f"({BIG})^4*({BIG})^4", "(3*x)^300", "(2^200)^2"]
    for text in accepted:
        assert len(parse_poly(text, ctx).terms) <= 300, text
    refused = ["(x+y)^300", "(x+y+z)^24", "2^301", "(x+y)^14*(x+y)^20", "(x+y+z)^200"]
    refused += [f"({BIG})^299", f"({BIG})^9", f"({BIG})^8*({BIG})^2"]
    refused += ["(7/6*x + 7/5*y)^201", "2^300*2^300", "(2^200)^3"]
    for text in refused:
        with pytest.raises(PolyParseError) as err:
            parse_poly(text, ctx)
        assert err.value.message == "expression too large", text


def test_shift_translation():
    assert (X**2).shift({"x": 1}) == X**2 + X.scale(2) + Poly.const(CTX, 1)
    assert (X * Y).shift({"x": 0}) == X * Y


def test_divide_exact():
    assert (X**2 + X * Y).divide_exact(X) == X + Y
    assert (X**2 + Y).divide_exact(X) is None
    assert X.divide_exact(Poly.zero(CTX)) is None


def test_a_negative_exponent_needs_a_laurent_variable():
    with pytest.raises(NegativePowerOfNonUnit, match=r"^negative power of non-unit: x\^-1$"):
        Poly(CTX, {(-1, 0): 1})


def test_the_zero_polynomial_has_degree_minus_one():
    assert Poly.zero(CTX).degree() == -1 and Poly.const(CTX, 1).degree() == 0


def test_a_laurent_variable_is_not_shifted():
    message = "^negative power of non-unit: shift of Laurent variable g$"
    with pytest.raises(NegativePowerOfNonUnit, match=message):
        Poly.var(LCTX, "g").shift({"g": 1})


def test_extend_needs_every_variable_of_the_polynomial():
    with pytest.raises(UnknownVariable, match="^unknown variable 'y'$"):
        Y.extend(make_vars("x z"))


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


# ---------------------------------------------------------------------------
# coefficients: an int when integral, a Fraction otherwise, never a float


def _assert_int_or_proper_fraction(p):
    for c in p.terms.values():
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), (p, c)


def test_integral_coefficients_are_stored_as_int():
    p = Poly(CTX, {(1, 0): Fraction(4, 2), (0, 1): Fraction(1, 2), (0, 0): 3})
    assert [type(p.coefficient(m)) for m in ((1, 0), (0, 1), (0, 0))] == [int, Fraction, int]
    half = X.scale(Fraction(1, 2))
    assert type((half + half).coefficient((1, 0))) is int
    # equality, hashing and printing cannot tell 3 from Fraction(3)
    assert Poly.const(CTX, Fraction(3)) == Poly.const(CTX, 3)
    assert hash(Poly.const(CTX, Fraction(3))) == hash(Poly.const(CTX, 3))
    assert str(X.scale(Fraction(6, 2)) - Y.scale(Fraction(1, 2))) == "3*x - 1/2*y"


def test_float_coefficient_raises():
    with pytest.raises(TypeError):
        Poly(CTX, {(1, 0): 0.5})
    with pytest.raises(TypeError):
        Poly.const(CTX, 2.0)
    with pytest.raises(TypeError):
        X.scale(0.5)
    with pytest.raises(TypeError):
        X.shift({"x": 0.5})


def test_divide_exact_by_integer_coefficients_is_exact():
    # int / int would be the float 0.5
    got = X.scale(2).divide_exact(Poly.const(CTX, 4))
    assert got == X.scale(Fraction(1, 2))
    assert type(got.coefficient((1, 0))) is Fraction
    # several terms: long division by the leading coefficient 4
    got = (X.scale(2) + Y).divide_exact(X.scale(4) + Y.scale(2))
    assert got.coefficient((0, 0)) == Fraction(1, 2)
    _assert_int_or_proper_fraction(got)


def test_divide_exact_single_term_divisor():
    p = (X**2 * Y).scale(6) + (X * Y**3).scale(Fraction(3, 2))
    assert p.divide_exact((X * Y).scale(3)) == X.scale(2) + (Y**2).scale(Fraction(1, 2))
    # one term falls short of the divisor's exponent in x
    assert (p + Y**4).divide_exact(X * Y) is None


def test_single_term_division_builds_one_poly(monkeypatch):
    # a quotient is built at once, never term by term
    rng = random.Random(9)
    d = Poly.monomial(CTX, (1, 2), 3)
    for _ in range(10):
        q = _nonzero_poly(rng, CTX, max_degree=4, max_terms=6)
        p, stuck = q * d, q * d + Poly.const(CTX, 1)
        calls = []
        init = Poly.__init__

        def counted(self, *args, **kw):
            calls.append(1)
            init(self, *args, **kw)

        monkeypatch.setattr(Poly, "__init__", counted)
        assert p.divide_exact(d) == q  # == builds nothing
        assert len(calls) == 1
        del calls[:]
        assert stuck.divide_exact(d) is None
        assert calls == []
        monkeypatch.undo()


def test_extend_to_own_context_returns_input():
    p = X * Y + Poly.const(CTX, 1)
    assert p.extend(CTX) is p
    assert p.extend(make_vars("x y")) is p  # an equal context, not the same object
    big = p.extend(make_vars("x y z"))
    assert big.terms == {(1, 1, 0): 1, (0, 0, 0): 1}
    with pytest.raises(ValueError):
        p.extend(make_vars("x") + make_vars("y", invertible=True))


def test_restrict_refuses_a_change_of_invertibility():
    # restrict, like extend, keeps each variable as it is declared
    with pytest.raises(ValueError, match="variable x changes invertibility"):
        X.restrict(make_vars("x", invertible=True))
    with pytest.raises(ValueError, match="variable g changes invertibility"):
        Poly.var(LCTX, "g").restrict(make_vars("g"))
    assert X.restrict(make_vars("x")).terms == {(1,): 1}
    with pytest.raises(UnknownVariable):
        X.restrict(make_vars("y"))


@st.composite
def laurent_polys(draw):
    seed = draw(st.integers(min_value=0, max_value=10**9))
    return random_poly(random.Random(seed), LCTX, max_degree=3, max_terms=4, laurent=True)


@st.composite
def plain_polys(draw):
    seed = draw(st.integers(min_value=0, max_value=10**9))
    return random_poly(random.Random(seed), LCTX, max_degree=3, max_terms=4)


coefficients = st.one_of(
    st.integers(min_value=-4, max_value=4),
    st.fractions(min_value=-4, max_value=4, max_denominator=4),
)


@given(laurent_polys(), laurent_polys(), plain_polys(), plain_polys(), coefficients)
@settings(max_examples=80, deadline=None)
def test_every_operation_stores_int_or_proper_fraction(p, q, a, b, c):
    g = Poly.var(LCTX, "g")
    term = Poly.monomial(LCTX, (1, 0, 0), 4)
    results = [
        p + q,
        p - q,
        -p,
        p * q,
        p.scale(c),
        p.partial("x"),
        p.partial("g"),
        p.substitute({"x": Poly.var(LCTX, "y").scale(c), "g": Poly.const(LCTX, 2)}),
        p.shift({"x": c, "y": Fraction(1, 2)}),
        (a * b).divide_exact(b),
        a.divide_exact(b),
        (a * term).divide_exact(term),
        a.divide_exact(Poly.const(LCTX, 4)),
        p.divide_exact(g),
    ]
    for r in results:
        if r is not None:
            _assert_int_or_proper_fraction(r)
    if not b.is_zero():
        assert (a * b).divide_exact(b) == a
    assert (a * term).divide_exact(term) == a


# ---------------------------------------------------------------------------
# independent oracle: sympy's polynomial arithmetic


def _sympy_expr(sympy, p, gens):
    return sympy.Add(
        *(
            sympy.Rational(c.numerator, c.denominator)
            * sympy.Mul(*(s**e for s, e in zip(gens, m)))
            for m, c in p.terms.items()
        )
    )


def _nonzero_poly(rng, ctx, min_terms=1, **kw):
    while True:
        p = random_poly(rng, ctx, **kw)
        if len(p.terms) >= min_terms:
            return p


def test_poly_core_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20261018)
    gens = sympy.symbols("x y g")

    def expr(p):
        return _sympy_expr(sympy, p, gens)

    def same(p, e):
        return sympy.expand(expr(p) - e) == 0

    g = Poly.var(LCTX, "g")
    for _ in range(40):
        # products and substitutions, Laurent in g
        p, q = (random_poly(rng, LCTX, max_degree=3, laurent=True) for _ in range(2))
        assert same(p * q, expr(p) * expr(q))
        img_x = random_poly(rng, make_vars("y"), max_degree=2).extend(LCTX)
        img_g = Poly.const(LCTX, Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3)))
        want = expr(p).subs({gens[0]: expr(img_x), gens[2]: expr(img_g)}, simultaneous=True)
        assert same(p.substitute({"x": img_x, "g": img_g}), want)
        assert same(p.substitute({"x": img_x}), expr(p).subs(gens[0], expr(img_x)))
        assert same(p.substitute({"g": g}), expr(p))  # identity binding

    outcomes = {(single, exact): 0 for single in (True, False) for exact in (True, False)}
    for trial in range(120):
        single = trial % 2 == 0
        if single:
            mono = tuple(rng.randint(0, 2) for _ in LCTX)
            d = Poly.monomial(LCTX, mono, Fraction(rng.choice([-4, -1, 1, 3]), rng.randint(1, 3)))
        else:
            d = _nonzero_poly(rng, LCTX, min_terms=2, max_degree=2, max_terms=3)
        a = _nonzero_poly(rng, LCTX, max_degree=3)
        kind = trial % 4
        if kind < 2:
            f = a * d  # exact
        elif kind == 2:
            f = a * d + _nonzero_poly(rng, LCTX, max_degree=2)
        else:
            f = a
        quo, rem = sympy.div(expr(f), expr(d), *gens, domain="QQ")
        got = f.divide_exact(d)
        assert (got is None) == (rem != 0)
        if got is not None:
            assert same(got, quo)
        outcomes[(single, got is not None)] += 1
    # every case occurred: single-term and several-term divisors, exact
    # quotients and divisions with a remainder
    assert all(outcomes.values()), outcomes


# ---------------------------------------------------------------------------
# a single term with coefficient 1 multiplies and divides as an exponent shift


def _term_by_term_product(p, mono, c):
    """Reference: p * c x^mono, one Fraction product per term."""
    out = {}
    for m, v in p.terms.items():
        key = tuple(a + b for a, b in zip(m, mono))
        out[key] = out.get(key, 0) + Fraction(v) * Fraction(c)
    return Poly(p.ctx, out)


def _term_by_term_quotient(p, mono, c):
    """Reference: p / (c x^mono) over nonnegative exponents, or None."""
    if any(e < 0 for m in p.terms for e in m):
        return None
    out = {}
    for m, v in p.terms.items():
        key = tuple(a - b for a, b in zip(m, mono))
        if any(e < 0 for e in key):
            return None
        out[key] = Fraction(v) / Fraction(c)
    return Poly(p.ctx, out)


laurent_monos = st.tuples(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=-3, max_value=3),
)
plain_monos = st.tuples(*(st.integers(min_value=0, max_value=2) for _ in LCTX))
# 1 takes the shift; -1, 2 and 1/2 must take the general path
term_coefficients = st.sampled_from([1, -1, 2, Fraction(1, 2)])


@given(laurent_polys(), plain_polys(), laurent_monos, plain_monos, term_coefficients)
@settings(max_examples=120, deadline=None)
def test_single_term_product_and_division_match_term_by_term(p, a, lmono, pmono, c):
    # a coefficient 2 or 1/2 in p meets 1/2 or 2 in the term and becomes an int
    p = p + Poly.monomial(LCTX, (1, 1, 0), Fraction(1, 2)) + Poly.monomial(LCTX, (0, 2, 1), 2)
    term = Poly.monomial(LCTX, lmono, c)
    want = _term_by_term_product(p, lmono, c)
    for got in (p * term, term * p):
        assert got == want
        _assert_int_or_proper_fraction(got)
    if c == 1:
        # the shift keeps every coefficient object as it is
        shifted = p * term
        for m, v in p.terms.items():
            assert shifted.terms[tuple(x + y for x, y in zip(m, lmono))] is v
    divisor = Poly.monomial(LCTX, pmono, c)
    for num in (a, a * divisor, p, p * divisor):
        got = num.divide_exact(divisor)
        assert got == _term_by_term_quotient(num, pmono, c)
        if got is not None:
            _assert_int_or_proper_fraction(got)
    assert (a * divisor).divide_exact(divisor) == a
    # a negative exponent on either side is no exact division (0 divides)
    inverse = Poly.monomial(LCTX, (0, 0, -1 - pmono[2]), c)
    assert a.divide_exact(inverse) is (a if a.is_zero() else None)
    if any(m[2] < 0 for m in p.terms):
        assert p.divide_exact(divisor) is None
    # a context without an invertible variable skips the negative-exponent
    # scan and divides the same way
    plain = a.restrict(make_vars("x y")) if 2 not in a.variable_indices() else None
    if plain is not None:
        d2 = Poly.monomial(CTX, pmono[:2], c)
        assert (plain * d2).divide_exact(d2) == plain
        assert plain.divide_exact(d2) == _term_by_term_quotient(plain, pmono[:2], c)


def test_repr_names_the_context():
    # equal terms over different contexts compare unequal, and print apart;
    # str, which every report uses, shows the terms alone
    a, b = Poly.const(make_vars("x"), 1), Poly.const(make_vars("x y"), 1)
    assert a != b
    assert (repr(a), repr(b)) == ("Poly(1, ctx=['x'])", "Poly(1, ctx=['x', 'y'])")
    assert str(a) == str(b) == "1"
