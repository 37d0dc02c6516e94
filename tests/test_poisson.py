"""Poisson engine: brackets, Jacobi, quotients, localization, tensor,
skew extensions, derivations."""

from fractions import Fraction

import pytest

from liepoisson.errors import NameClash, NotPDerivation, NotStable, ZeroDenominator
from liepoisson.poisson import (
    Derivation,
    LocalElement,
    canonical_from_lie,
    epsilon_derivation,
    ideal_from_pairs,
    inner_derivation,
    is_p_derivation,
    is_stable_ideal,
    localize,
    poisson_algebra,
    quotient,
    skew_extend,
    tensor,
)
from liepoisson.polys import Poly, make_vars, parse_poly

from conftest import heisenberg, random_poly

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
