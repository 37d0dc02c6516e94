"""Poisson engine: brackets, Jacobi, quotients, localization, tensor,
skew extensions, derivations."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from liepoisson.errors import (
    NameClash,
    NotPDerivation,
    NotStable,
    UnknownVariable,
    ZeroDenominator,
)
from liepoisson.poisson import (
    Derivation,
    LocalElement,
    SubstitutionIdeal,
    canonical_from_lie,
    epsilon_derivation,
    ideal_from_pairs,
    inner_derivation,
    is_p_derivation,
    is_stable_ideal,
    localize,
    on_variables,
    poisson_algebra,
    quotient,
    reduced_algebra,
    skew_extend,
    tensor,
)
from liepoisson.lie import verify_lie
from liepoisson.polys import Poly, make_vars, parse_poly

from conftest import eng4, heisenberg, random_poly

F = Fraction


def b1():
    ctx = make_vars("X Y")
    return poisson_algebra(ctx, {(0, 1): Poly.const(ctx, 1)})


def test_heisenberg_canonical_bracket():
    A = canonical_from_lie(heisenberg())
    assert A.format(A.bracket("x", "y")) == "z"
    assert A.bracket("x", "z").is_zero()
    assert A.jacobi_check() is None


def test_bracket_alternating(rng):
    A = canonical_from_lie(heisenberg())
    for _ in range(40):
        p = random_poly(rng, A.vars, max_degree=4)
        assert A.bracket(p, p).is_zero()


def test_bracket_leibniz_jacobi_random(rng):
    A = canonical_from_lie(heisenberg())
    for _ in range(500):
        p = random_poly(rng, A.vars, 4)
        q = random_poly(rng, A.vars, 4)
        r = random_poly(rng, A.vars, 4)
        pe, qe, re = A.element(p), A.element(q), A.element(r)
        left = A.bracket(A.mul(pe, qe), re)
        right = A.add(A.mul(A.bracket(pe, re), qe), A.mul(pe, A.bracket(qe, re)))
        assert A.sub(left, right).is_zero()
        jac = A.add(
            A.bracket(pe, A.bracket(qe, re)),
            A.add(A.bracket(qe, A.bracket(re, pe)), A.bracket(re, A.bracket(pe, qe))),
        )
        assert jac.is_zero()


def test_jacobi_check_detects_violation():
    ctx = make_vars("x y z")
    bad = poisson_algebra(
        ctx,
        {
            (0, 1): parse_poly("y^2", ctx),
            (1, 2): parse_poly("x", ctx),
        },
    )
    violation = bad.jacobi_check()
    assert violation is not None
    i, j, k, res = violation
    assert (i, j, k) == (0, 1, 2) and not res.is_zero()


def test_weyl_table_jacobi():
    assert b1().jacobi_check() is None


def test_stable_ideal_examples():
    A = canonical_from_lie(heisenberg())
    assert is_stable_ideal(A, ideal_from_pairs(A.vars, [("z", "1")]))
    assert not is_stable_ideal(A, ideal_from_pairs(A.vars, [("x", "0")]))
    assert is_stable_ideal(A, ideal_from_pairs(A.vars, []))


def test_ideal_from_pairs_unknown_variable():
    A = canonical_from_lie(heisenberg())
    with pytest.raises(UnknownVariable) as err:
        ideal_from_pairs(A.vars, [("z", "1"), ("w", "1")])
    assert err.value.name == "w"


def test_quotient_heisenberg_is_weyl():
    A = canonical_from_lie(heisenberg())
    B = quotient(A, ideal_from_pairs(A.vars, [("z", "1")]))
    assert B.format(B.bracket("x", "y")) == "1"
    # effective table matches the 1-pair Weyl table positionally
    assert B.table_signature() == b1().table_signature()


def test_quotient_not_stable_raises():
    A = canonical_from_lie(heisenberg())
    ideal = ideal_from_pairs(A.vars, [("x", "0")])
    assert not is_stable_ideal(A, ideal)
    with pytest.raises(NotStable) as info:
        quotient(A, ideal)
    # first witness: the rule x -> 0 against generator y, {x, y} = z
    assert (info.value.rule_var, info.value.generator, info.value.residual) == (
        "x",
        "y",
        "z",
    )


def test_quotient_of_localization_keeps_table():
    # {x, y} = z/x with z central; z = 1 is stable and x stays inverted
    ctx = make_vars("x y z")
    x, z = Poly.var(ctx, "x"), Poly.var(ctx, "z")
    A = poisson_algebra(ctx, {(0, 1): LocalElement(z, (1,))}, inverted=[x])
    assert A.jacobi_check() is None
    Q = quotient(A, ideal_from_pairs(ctx, [("z", "1")]))
    assert Q.inverted == (x,)
    assert Q.table == {(0, 1): LocalElement(Poly.const(ctx, 1), (1,))}
    assert Q.format(Q.bracket("y", Q.invert(Q.gen("x")))) == "1/x^3"
    # a skew extension of the quotient keeps that table and the ideal
    S = skew_extend(Q, inner_derivation(Q, Q.gen("x")), "t")
    one = Poly.const(S.vars, 1)
    assert S.table == {
        (0, 1): LocalElement(one, (1,)),
        (1, 3): LocalElement(one.scale(-1), (1,)),
    }
    assert [v.name for v in S.effective_vars()] == ["x", "y", "t"]
    assert S.jacobi_check() is None


def test_localize_bracket_formula():
    A = b1()
    L = localize(A, [Poly.var(A.vars, "X")])
    x_inv = L.invert(L.gen("X"))
    res = L.bracket(L.gen("Y"), x_inv)
    assert L.format(res) == "1/X^2"
    LY = localize(A, [Poly.var(A.vars, "Y")])
    el = LY.mul(LY.gen("X"), LY.invert(LY.gen("Y")))
    assert LY.format(LY.bracket(el, LY.gen("Y"))) == "1/Y"


def test_localization_formula_against_quotient_rule(rng):
    # the partial-derivative bracket agrees with the four-term localization
    # expansion {p/s, q/t} = ({p,q}st - {p,t}qs - {q,s}pt + {s,t}pq)/(s^2 t^2)
    A = canonical_from_lie(heisenberg())
    s = Poly.var(A.vars, "z")
    t = Poly.var(A.vars, "z") + Poly.const(A.vars, 0)  # same list entry
    L = localize(A, [s])
    inv = L.invert(L.element(s))
    for _ in range(20):
        p = random_poly(rng, A.vars, 3)
        q = random_poly(rng, A.vars, 3)
        lhs = L.bracket(L.mul(L.element(p), inv), L.mul(L.element(q), inv))
        num = (
            A.bracket(p, q).num * s * s
            - A.bracket(p, s).num * q * s
            - A.bracket(q, s).num.scale(-1) * p * s
            + A.bracket(s, s).num * p * q
        )
        rhs = L.mul(L.element(num), L.power(inv, 4))
        assert L.sub(lhs, rhs).is_zero()


def test_localize_zero_denominator():
    A = canonical_from_lie(heisenberg())
    B = quotient(A, ideal_from_pairs(A.vars, [("z", "0")]))
    with pytest.raises(ZeroDenominator):
        localize(B, [Poly.var(B.vars, "z")])


def test_quotient_refuses_a_denominator_the_ideal_kills():
    # x, y commuting, x - y inverted: the rule x -> y sends it to 0
    ctx = make_vars("x y")
    L = localize(poisson_algebra(ctx, {}), [parse_poly("x - y", ctx)])
    with pytest.raises(ZeroDenominator) as exc:
        quotient(L, ideal_from_pairs(ctx, [("x", "y")]))
    assert str(exc.value) == "localization denominator vanishes mod ideal: x - y"


def test_localize_refuses_a_laurent_denominator():
    ctx = make_vars("u", invertible=True) + make_vars("x")
    A = poisson_algebra(ctx, {})
    with pytest.raises(ValueError, match="^denominators must be ordinary polynomials$"):
        localize(A, [parse_poly("u^-1", ctx)])


def test_invert_skips_a_constant_denominator():
    # 2 inverted: dividing by it never ends, so invert treats it as the
    # unit it already is
    ctx = make_vars("x y")
    L = localize(poisson_algebra(ctx, {}), [Poly.const(ctx, 2)])
    half = L.invert(L.element("2"))
    assert half == LocalElement(Poly.const(ctx, Fraction(1, 2)), (0,))
    assert L.format(half) == "1/2"
    assert L.format(L.invert(L.element(LocalElement(parse_poly("3", ctx), (1,))))) == "2/3"


def test_invert_refuses_a_non_unit_without_naming_an_ideal():
    # eng4 localized at e4 has no ideal: e3 is not a unit, and the refusal
    # says so without blaming a quotient
    A = canonical_from_lie(eng4())
    L = localize(A, [Poly.var(A.vars, "e4")])
    assert L.ideal is None
    with pytest.raises(ZeroDenominator) as exc:
        L.invert(L.gen("e3"))
    assert str(exc.value) == "cannot invert a non-unit of the localization: e3"
    assert exc.value.denom == "e3"
    assert L.mul(L.invert(L.gen("e4")), L.gen("e4")) == L.one()


def test_clearing_denominators_consistency(rng):
    A = b1()
    s = Poly.var(A.vars, "X")
    L = localize(A, [s])
    inv = L.invert(L.element(s))
    for _ in range(15):
        p = random_poly(rng, A.vars, 3)
        q = random_poly(rng, A.vars, 3)
        cleared = L.bracket(L.mul(L.mul(L.element(p), inv), L.element(s)), L.element(q))
        plain = L.bracket(L.element(p), L.element(q))
        assert L.sub(cleared, plain).is_zero()


def test_tensor_b1_b1_is_b2():
    ctx2 = make_vars("X2 Y2")
    other = poisson_algebra(ctx2, {(0, 1): Poly.const(ctx2, 1)})
    T = tensor(b1(), other)
    assert T.format(T.bracket("X", "Y")) == "1"
    assert T.format(T.bracket("X2", "Y2")) == "1"
    assert T.bracket("X", "Y2").is_zero()
    assert T.jacobi_check() is None
    with pytest.raises(NameClash):
        tensor(b1(), b1())


def test_tensor_of_localizations_keeps_denominator_slots():
    ctx2 = make_vars("X2 Y2")
    other = poisson_algebra(ctx2, {(0, 1): Poly.const(ctx2, 1)})
    T = tensor(
        localize(b1(), [Poly.var(b1().vars, "X")]),
        localize(other, [Poly.var(ctx2, "X2")]),
    )
    assert [str(s) for s in T.inverted] == ["X", "X2"]
    inv_x, inv_x2 = T.invert(T.gen("X")), T.invert(T.gen("X2"))
    assert T.bracket(T.gen("Y"), inv_x) == LocalElement(Poly.const(T.vars, 1), (2, 0))
    assert T.format(T.bracket(T.gen("Y2"), inv_x2)) == "1/X2^2"
    assert T.bracket(T.gen("Y"), inv_x2).is_zero()
    assert T.bracket(T.gen("Y2"), inv_x).is_zero()
    # table entries that carry a denominator land in their own factor's slot
    ctx = make_vars("X Y")
    A = poisson_algebra(
        ctx,
        {(0, 1): LocalElement(Poly.const(ctx, 1), (1,))},
        inverted=[Poly.var(ctx, "X")],
    )
    B = poisson_algebra(
        ctx2,
        {(0, 1): LocalElement(Poly.const(ctx2, 1), (1,))},
        inverted=[Poly.var(ctx2, "X2")],
    )
    TD = tensor(A, B)
    one = Poly.const(TD.vars, 1)
    assert TD.table == {
        (0, 1): LocalElement(one, (1, 0)),
        (2, 3): LocalElement(one, (0, 1)),
    }
    assert TD.jacobi_check() is None


def test_skew_extend_examples():
    ctx = make_vars("alpha")
    A = poisson_algebra(ctx, {})
    # d/dalpha gives a Weyl pair {X, alpha} = 1
    ext = skew_extend(A, Derivation({"alpha": A.one()}), "X")
    assert ext.format(ext.bracket("X", "alpha")) == "1"
    assert ext.jacobi_check() is None
    # zero derivation gives a central extension
    ext0 = skew_extend(A, Derivation({}), "X")
    assert ext0.bracket("X", "alpha").is_zero()
    # extending B1 by an inner derivation keeps Jacobi
    B = b1()
    dX = inner_derivation(B, Poly.var(B.vars, "X"))
    ext2 = skew_extend(B, dX, "W")
    assert ext2.jacobi_check() is None
    assert ext2.sub(ext2.bracket("W", "Y"), ext2.bracket("X", "Y")).is_zero()


def test_skew_extend_rejects_non_derivation():
    B = b1()
    bad = Derivation({"X": B.gen("Y"), "Y": B.gen("Y")})
    with pytest.raises(NotPDerivation):
        skew_extend(B, bad, "W")


def test_is_p_derivation_cases():
    B = b1()
    # inner derivations always pass
    ok, _ = is_p_derivation(B, inner_derivation(B, parse_poly("X^2*Y", B.vars)))
    assert ok
    # images X -> 1, Y -> 0 is minus the inner derivation by Y
    ok2, _ = is_p_derivation(B, Derivation({"X": B.one()}))
    assert ok2
    # images X -> Y, Y -> Y fails with witness (X, Y)
    ok3, witness = is_p_derivation(B, Derivation({"X": B.gen("Y"), "Y": B.gen("Y")}))
    assert not ok3 and witness[:2] == ("X", "Y")


def test_epsilon_derivation_is_bracket_action():
    A = canonical_from_lie(heisenberg())
    B = quotient(A, ideal_from_pairs(A.vars, [("z", "1")]))
    eps = epsilon_derivation(B, Poly.var(B.vars, "x"))
    p = parse_poly("x*y^2", B.vars)
    assert B.sub(eps.apply(B, p), B.bracket("x", p)).is_zero()


def test_quotient_descends(rng):
    # bracket-then-reduce equals reduce-then-bracket for a stable ideal
    A = canonical_from_lie(heisenberg())
    I = ideal_from_pairs(A.vars, [("z", "1")])
    B = quotient(A, I)
    for _ in range(20):
        p = random_poly(rng, A.vars, 3)
        q = random_poly(rng, A.vars, 3)
        upstairs = I.normal_form(A.bracket(p, q).num)
        downstairs = B.bracket(I.normal_form(p), I.normal_form(q))
        assert B.sub(B.element(upstairs), downstairs).is_zero()


def _normal_form_algebras():
    """Heisenberg with z = 1, and B1 tensor B1 with two inverted
    denominators, each with the units its elements may be divided by."""
    A = canonical_from_lie(heisenberg())
    quo = quotient(A, ideal_from_pairs(A.vars, [("z", "1")]))
    ctx2 = make_vars("X2 Y2")
    B = tensor(b1(), poisson_algebra(ctx2, {(0, 1): Poly.const(ctx2, 1)}))
    loc = localize(B, [Poly.var(B.vars, "X"), parse_poly("X2 + Y", B.vars)])
    return [(quo, []), (loc, [loc.element(s) for s in loc.inverted])]


def test_operations_keep_normal_form(rng):
    # element() is the only place the normal form is applied; every
    # operation on its results must hand back normal elements
    for alg, units in _normal_form_algebras():

        def sample(lo, hi):
            c = F(rng.randint(1, 5), rng.randint(1, 3))
            el = alg.element(Poly.const(alg.vars, c))
            for u in units:
                el = alg.mul(el, alg.power(u, rng.randint(lo, hi)))
            return el

        fractions = 0
        for _ in range(12):
            a = alg.mul(alg.element(random_poly(rng, alg.vars, 3)), sample(-2, 1))
            b = alg.mul(alg.element(random_poly(rng, alg.vars, 3)), sample(-2, 1))
            results = [
                alg.add(a, b),
                alg.add(a, alg.sub(b, a)),  # equals b: needs cancelling
                alg.sub(a, b),
                alg.mul(a, b),
                alg.bracket(a, b),
                alg.invert(sample(-2, 2)),
            ] + [alg.partial(a, v) for v in alg.vars]
            for r in results:
                assert alg.normalize(r) == r
                fractions += not r.is_polynomial()
        assert fractions > 0 if units else fractions == 0


def test_bracket_of_elements_skips_ideal_normal_form(monkeypatch):
    A = canonical_from_lie(heisenberg())
    Q = quotient(A, ideal_from_pairs(A.vars, [("z", "1")]))
    p, q = Q.element("x^2*z + y*z^3"), Q.element("x*y^2 - z")
    want = Q.bracket(p, q)
    calls = []
    normal_form = SubstitutionIdeal.normal_form

    def counted(self, poly):
        calls.append(poly)
        return normal_form(self, poly)

    monkeypatch.setattr(SubstitutionIdeal, "normal_form", counted)
    assert Q.bracket(p, q) == want
    assert Q.format(want) == "4*x^2*y - y^2"  # {x^2 + y, x*y^2 - 1}
    assert calls == []


def test_bracket_takes_partials_only_in_occurring_variables(monkeypatch):
    # {x*z, y^2} on Heisenberg: y^2 only depends on y, so {x*z, y^2} is
    # {x*z, y} d/dy y^2, and {x*z, y} = -(row of y applied to x*z) takes
    # d/dx only ({y, z} = 0); 3 partials when d/dx and d/dz of x*z were
    # both taken
    A = canonical_from_lie(heisenberg())
    a, b = A.element("x*z"), A.element("y^2")
    calls = []
    partial = Poly.partial

    def counted(self, v):
        calls.append(v)
        return partial(self, v)

    monkeypatch.setattr(Poly, "partial", counted)
    assert A.format(A.bracket(a, b)) == "2*y*z^2"
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# cancelling in the Laurent ring: X invertible, Y ordinary, {X, Y} = X


def _laurent_localized(den: str):
    ctx = make_vars("X", invertible=True) + make_vars("Y")
    A = poisson_algebra(ctx, {(0, 1): Poly.var(ctx, "X")})
    return localize(A, [parse_poly(den, ctx)])


def test_cancel_clears_negative_exponents_before_dividing():
    L = _laurent_localized("X + 1")
    s = L.element("X + 1")
    r = L.mul(L.mul(L.element("X^-1"), s), L.invert(s))
    assert L.format(r) == "X^-1"
    assert r == L.element("X^-1")


def test_cancel_divides_by_a_unit_denominator():
    L = _laurent_localized("X")
    el = L.element(LocalElement(parse_poly("X^-1", L.vars), (1,)))
    assert L.format(el) == "X^-2"
    assert el == LocalElement(parse_poly("X^-2", L.vars), (0,))


def test_cancel_takes_out_the_laurent_content_of_the_denominator():
    L = _laurent_localized("X*Y + X")
    el = L.element(LocalElement(parse_poly("Y + 1", L.vars), (1,)))
    assert L.format(el) == "X^-1"
    assert el == L.element("X^-1")
    # Y + 1 = (X*Y + X) X^-1 is a unit, with inverse X/(X*Y + X)
    inv = L.invert(L.element("Y + 1"))
    assert L.format(inv) == "X/(X*Y + X)"
    assert L.mul(inv, L.element("Y + 1")) == L.one()


# ---------------------------------------------------------------------------
# cancelling a single-term denominator in one division


def _greedy_cancel(L, num, den):
    """The one-power-at-a-time cancel, in the order of ``L.inverted``."""
    den = list(den)
    for i in range(len(L.inverted)):
        while den[i] > 0:
            q = L._divide(num, i)
            if q is None:
                break
            num, den[i] = q, den[i] - 1
    return LocalElement(num, tuple(den))


def test_cancel_divides_a_single_term_denominator_once_as_the_loop_would(monkeypatch):
    # 3xy, x and 2y^2 share variables; x + y keeps the loop
    ctx = make_vars("x y z")
    A = poisson_algebra(ctx, {(0, 1): Poly.var(ctx, "z")})
    L = localize(A, [parse_poly(s, ctx) for s in ("3*x*y", "x", "2*y^2", "x + y")])
    divisors = []
    divide_exact = Poly.divide_exact
    monkeypatch.setattr(
        Poly, "divide_exact", lambda p, d: divisors.append(d) or divide_exact(p, d)
    )
    rng = random.Random(11)
    cancelled = 0
    for _ in range(300):
        num = random_poly(rng, ctx, max_degree=3)
        for s in L.inverted:
            num = num * s ** rng.randint(0, 2)
        den = tuple(rng.randint(0, 4) for _ in L.inverted)
        divisors.clear()
        got = L._cancel(num, den)
        single = [d for d in divisors if len(d.terms) == 1]
        want = _greedy_cancel(L, num, den)
        assert (got.num.terms, got.den) == (want.num.terms, want.den)
        assert all(type(c) is type(want.num.terms[m]) for m, c in got.num.terms.items())
        assert len(single) <= 3
        cancelled += got.den != den
    assert cancelled > 150


# ---------------------------------------------------------------------------
# one numerator over many denominators: the cancellation ladder


def _ladder_algebras():
    """Localized algebras for ``cancel_each``: single-term, several-term and
    constant inverted elements; pairs that share a factor; and a Laurent
    context (u invertible), where every inverted element has unit-monomial
    content and takes ``_divide``'s path."""
    ctx = make_vars("x y")
    A = poisson_algebra(ctx, {(0, 1): Poly.var(ctx, "x")})
    lctx = make_vars("u", invertible=True) + make_vars("x y")
    B = poisson_algebra(lctx, {(1, 2): Poly.var(lctx, "u")})
    cases = [
        (A, ["x*y", "x"]),
        (A, ["x + y", "x^2 + x*y"]),
        (A, ["y^2", "x + y", "x*y + y^2"]),
        (A, ["2", "2*x^2"]),
        (B, ["u*x + u", "u^2*y"]),
        (B, ["u*x*y + u*y", "x + 1", "u"]),
    ]
    return [localize(alg, [parse_poly(s, alg.vars) for s in dens]) for alg, dens in cases]


LADDER_ALGEBRAS = _ladder_algebras()


@seed(39)
@settings(max_examples=150, deadline=None)
@given(
    which=st.integers(0, len(LADDER_ALGEBRAS) - 1),
    rng=st.randoms(use_true_random=False),
    ndens=st.integers(1, 12),
)
def test_cancel_each_is_cancel_for_each_denominator(which, rng, ndens):
    L = LADDER_ALGEBRAS[which]
    laurent = any(v.invertible for v in L.vars)
    num = random_poly(rng, L.vars, max_degree=3, laurent=laurent)
    for s in L.inverted:
        num = num * s ** rng.randint(0, 3)
    dens = [tuple(rng.randint(0, 4) for _ in L.inverted) for _ in range(ndens)]
    want = [L._cancel(num, den) for den in dens]
    got = L.cancel_each(num, dens)
    assert [(el.num.terms, el.den) for el in got] == [(el.num.terms, el.den) for el in want]
    zero = Poly.zero(L.vars)
    assert L.cancel_each(zero, dens) == [L._cancel(zero, den) for den in dens]


def test_cancel_each_divides_by_each_power_once(monkeypatch):
    # x^3 y over (x y)^a x^b, a, b <= 4: stage 0 divides x^3 y by x y once
    # (the exponents allow one power), stage 1 divides x^3 y, x^2 y, x y
    # (after a = 0) and x^2, x (after a >= 1) by x: each dividend once
    L = LADDER_ALGEBRAS[0]
    num = parse_poly("x^3*y", L.vars)
    divisions = []
    divide_exact = Poly.divide_exact
    monkeypatch.setattr(
        Poly, "divide_exact", lambda p, d: divisions.append(str(p)) or divide_exact(p, d)
    )
    dens = [(a, b) for a in range(5) for b in range(5)]
    got = L.cancel_each(num, dens)
    assert sorted(divisions) == ["x", "x*y", "x^2", "x^2*y", "x^3*y", "x^3*y"]
    assert [L.format(el) for el in got[:6]] == [
        "x^3*y",
        "x^2*y",
        "x*y",
        "y",
        "y/x",
        "x^2",
    ]


def _rules(alg):
    return [(v.name, str(img)) for v, img in alg.ideal.rules]


def test_quotient_of_a_quotient_merges_the_rules():
    # z -> t^2, then t -> 1: the first rule's image is normal-formed by the
    # second, which is the path chi_context takes on a quotient algebra
    T = tensor(canonical_from_lie(heisenberg()), poisson_algebra(make_vars("t"), {}))
    Q1 = quotient(T, ideal_from_pairs(T.vars, [("z", "t^2")]))
    assert _rules(Q1) == [("z", "t^2")]
    Q2 = quotient(Q1, ideal_from_pairs(Q1.vars, [("t", "1")]))
    assert _rules(Q2) == [("z", "1"), ("t", "1")]
    assert Q2.bracket("x", "y") == Q2.one()
    assert Q2.element("z*t + x") == Q2.element("1 + x")


def test_tensor_keeps_the_right_factors_rules():
    H = canonical_from_lie(heisenberg())
    right = quotient(H, ideal_from_pairs(H.vars, [("z", "1")]))
    T = tensor(poisson_algebra(make_vars("a"), {}), right)
    assert [v.name for v in T.vars] == ["a", "x", "y", "z"]
    assert _rules(T) == [("z", "1")]
    assert T.bracket("x", "y") == T.one()
    assert T.element("a*z") == T.gen("a")


def test_local_element_equality_with_a_poly_and_with_other_objects():
    ctx = make_vars("s x")
    A = poisson_algebra(ctx, {}, inverted=[Poly.var(ctx, "s")])
    x = Poly.var(ctx, "x")
    assert A.gen("x") == x and x == A.gen("x")
    assert A.invert(A.gen("s")) != Poly.const(ctx, 1)  # 1/s is not the polynomial 1
    assert A.gen("x").__eq__("x") is NotImplemented
    assert A.gen("x") != "x" and A.gen("x") != 0


def test_element_refuses_a_denominator_the_algebra_lacks():
    # heisenberg localized at z: an element over a second inverted element
    # is refused; extra exponents of 0 are dropped
    L = localize(canonical_from_lie(heisenberg()), [parse_poly("z", make_vars("x y z"))])
    x = parse_poly("x", L.vars)
    with pytest.raises(ValueError, match="denominators the algebra lacks"):
        L.element(LocalElement(x, (1, 1)))
    assert L.element(LocalElement(x, (1, 0))) == LocalElement(x, (1,))


def _content(alg):
    """vars, table entries and rules, comparable across algebras."""
    table = {ij: (el.num, el.den) for ij, el in alg.table.items()}
    return alg.vars, table, alg.ideal.rules if alg.ideal else ()


def _quotient(names, structure, rules):
    g = verify_lie(names, structure)
    return reduced_algebra(g, ideal_from_pairs(g.basis, rules))


def test_on_variables_is_the_quotient_built_on_those_variables():
    # a permutation: eng4 with e4 = 1 on its variables reversed, where
    # {e1, e2} = e3 becomes {e2, e1} = -e3 at (2, 3) and {e1, e3} = 1
    # becomes -1 at (1, 3)
    A = _quotient("e1 e2 e3 e4", {(0, 1): {2: 1}, (0, 2): {3: 1}}, [("e4", "1")])
    R = on_variables(A, tuple(reversed(A.vars)))
    assert R.format(R.table[(2, 3)]) == "-e3" and R.format(R.table[(1, 3)]) == "-1"
    assert _content(R) == _content(
        _quotient("e4 e3 e2 e1", {(2, 3): {1: -1}, (1, 3): {0: -1}}, [("e4", "1")])
    )
    # a prefix: z x1 y1 of family_n(2)'s flag z x1 y1 x2 y2 keeps z = 1
    top = _quotient("z x1 y1 x2 y2", {(1, 2): {0: 1}, (3, 4): {0: 1}}, [("z", "1")])
    prefix = _quotient("z x1 y1", {(1, 2): {0: 1}}, [("z", "1")])
    assert _content(on_variables(top, top.vars[:3])) == _content(prefix)
    # a rule whose image leaves ctx: heisenberg plus a central a = z keeps
    # its rule on z a and has none on a alone
    B = _quotient("x y z a", {(0, 1): {2: 1}}, [("a", "z")])
    assert [(v.name, str(img)) for v, img in on_variables(B, B.vars[2:]).ideal.rules] == [
        ("a", "z")
    ]
    assert on_variables(B, B.vars[3:]) is None


def test_an_empty_ideal_keeps_each_polynomial():
    p = parse_poly("x*y + 1", make_vars("x y"))
    assert SubstitutionIdeal(()).normal_form(p) is p


def test_poisson_algebra_refuses_a_table_index_out_of_order():
    ctx = make_vars("x y")
    with pytest.raises(ValueError, match=r"^bad table index \(1, 0\)$"):
        poisson_algebra(ctx, {(1, 0): Poly.const(ctx, 1)})


def test_skew_extend_refuses_a_name_the_algebra_has():
    A = canonical_from_lie(heisenberg())
    message = r"^extension variable 'x' is already a variable of the algebra$"
    with pytest.raises(NameClash, match=message):
        skew_extend(A, inner_derivation(A, A.gen("z")), "x")
