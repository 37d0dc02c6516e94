"""Weyl layer: derivative formulas, extraction, integration, splitting,
and the exponential straightening transforms."""

import re
from fractions import Fraction

import pytest

from liepoisson.errors import (
    AlphaNotAVariable,
    LocalNilpotencyCapExceeded,
    NotClosed,
    NotCommuting,
    NotGenerating,
)
from liepoisson.poisson import (
    Derivation,
    LocalElement,
    canonical_from_lie,
    ideal_from_pairs,
    inner_derivation,
    poisson_algebra,
    quotient,
    tensor,
)
from liepoisson.polys import Poly, make_vars, parse_poly
from liepoisson.weyl import (
    WeylPresentation,
    chi_context,
    chi_forward,
    chi_inverse,
    chi_tensor,
    extract_core,
    integrate_potential,
    pair_relation_failure,
    split_derivation,
    tensor_presentation_check,
    weyl_bracket_via_partials,
)

from conftest import heisenberg, random_poly

F = Fraction


def test_partial_formula_examples():
    pres = WeylPresentation(2, center_vars=make_vars("t"))
    ctx = pres.context
    bx, by = weyl_bracket_via_partials(pres, parse_poly("X1*Y1^2", ctx), 1)
    assert str(bx) == "2*X1*Y1" and str(by) == "-Y1^2"
    # central elements and disjoint pairs bracket to zero
    assert weyl_bracket_via_partials(pres, parse_poly("t^3", ctx), 1) == (
        Poly.zero(ctx),
        Poly.zero(ctx),
    )
    assert weyl_bracket_via_partials(pres, parse_poly("Y2", ctx), 1) == (
        Poly.zero(ctx),
        Poly.zero(ctx),
    )


def test_primed_presentation_inverts_x():
    pres = WeylPresentation(1, primed=True)
    alg = pres.algebra()
    x_inv = alg.element(Poly.var(pres.context, "X1") ** -1)
    # {X1^-1, Y1} = -X1^-2 by the quotient rule
    got = alg.bracket(x_inv, "Y1")
    want = alg.scale(-1, alg.element(Poly.var(pres.context, "X1") ** -2))
    assert alg.sub(got, want).is_zero()
    # X1 Y1 pairs multiplicatively against X1: {X1, X1 Y1} = X1
    t = alg.element(parse_poly("X1*Y1", pres.context))
    assert alg.sub(alg.bracket("X1", t), alg.gen("X1")).is_zero()


def test_partials_match_leibniz_bracket(rng):
    pres = WeylPresentation(2, center_vars=make_vars("t"))
    alg = pres.algebra()
    for _ in range(60):
        a = random_poly(rng, pres.context, max_degree=5)
        for i in (1, 2):
            bx, by = weyl_bracket_via_partials(pres, a, i)
            assert alg.element(bx) == alg.bracket(f"X{i}", a)
            assert alg.element(by) == alg.bracket(f"Y{i}", a)


def test_extract_core_examples():
    pres = WeylPresentation(1, center_vars=make_vars("z zp"))
    ctx = pres.context
    assert [str(p) for p in extract_core(pres, [parse_poly("z*X1 + zp", ctx)])] == [
        "z",
        "zp",
    ]
    assert [str(p) for p in extract_core(pres, [Poly.const(ctx, 1)])] == ["1"]
    assert [str(p) for p in extract_core(pres, [parse_poly("X1*Y1*z", ctx)])] == ["z"]


@pytest.mark.parametrize(
    "gen, term", [("X1^-1", "X1^-1"), ("X1^2 + X1^-1*Y1^3", "X1^-1*Y1^3")]
)
def test_extract_core_refuses_a_negative_pair_exponent(gen, term):
    # a negative X exponent at the top once reached math.factorial, and one
    # below the top once survived the derivatives as a non-central residue
    pres = WeylPresentation(1, (), primed=True)
    ctx = pres.context
    with pytest.raises(ValueError, match=f"nonnegative pair exponents: {re.escape(term)} in"):
        extract_core(pres, [parse_poly("X1*Y1", ctx), parse_poly(gen, ctx)])
    # the primed presentation still extracts from nonnegative exponents
    assert [str(p) for p in extract_core(pres, [parse_poly("X1^2*Y1 + 3", ctx)])] == ["1", "3"]


def test_integrate_potential_examples():
    pres = WeylPresentation(1)
    ctx = pres.context
    b = integrate_potential(pres, [parse_poly("Y1", ctx)], [parse_poly("X1", ctx)])
    assert str(b) == "X1*Y1"
    assert integrate_potential(pres, [Poly.zero(ctx)], [Poly.zero(ctx)]).is_zero()
    assert str(integrate_potential(pres, [Poly.const(ctx, 1)], [Poly.zero(ctx)])) == "X1"


def test_integrate_potential_halves_exactly():
    # d/dX1 of X1^2/2 is X1: the antiderivative divides 1 by 2, exactly
    pres = WeylPresentation(1)
    ctx = pres.context
    b = integrate_potential(pres, [parse_poly("X1", ctx)], [Poly.zero(ctx)])
    assert str(b) == "1/2*X1^2"
    assert [type(c) for c in b.terms.values()] == [Fraction]
    assert b.terms == {(2, 0): Fraction(1, 2)}


def test_integrate_potential_inverse_power():
    pres = WeylPresentation(1, primed=True)
    ctx = pres.context
    zero = Poly.zero(ctx)
    # X1^-2 integrates to -X1^-1, but X1^-1 only to a logarithm
    b = integrate_potential(pres, [Poly.monomial(ctx, (-2, 0))], [zero])
    assert b == Poly.monomial(ctx, (-1, 0), -1)
    with pytest.raises(NotClosed):
        integrate_potential(pres, [Poly.monomial(ctx, (-1, 0))], [zero])


def test_integrate_potential_not_closed():
    pres = WeylPresentation(2)
    ctx = pres.context
    with pytest.raises(NotClosed):
        # dp_1/dX_2 != dp_2/dX_1
        integrate_potential(
            pres,
            [parse_poly("X2", ctx), Poly.zero(ctx)],
            [Poly.zero(ctx), Poly.zero(ctx)],
        )


def test_split_derivation_inner():
    pres = WeylPresentation(1)
    alg = pres.algebra()
    delta = inner_derivation(alg, parse_poly("X1*Y1", pres.context))
    b, rest = split_derivation(pres, delta)
    assert str(b) == "X1*Y1" and not rest.images
    b0, rest0 = split_derivation(pres, Derivation({}))
    assert b0.is_zero() and not rest0.images


def test_split_derivation_mixed():
    pres = WeylPresentation(1, center_vars=make_vars("t"))
    alg = pres.algebra()
    delta = Derivation(
        {"t": alg.one(), "X1": alg.gen("X1"), "Y1": alg.scale(-1, alg.gen("Y1"))}
    )
    b, rest = split_derivation(pres, delta)
    # the inner part must reproduce delta on the pair and vanish on t
    db = inner_derivation(alg, b)
    for name in ("X1", "Y1"):
        assert alg.sub(delta.image_of(alg, name), db.image_of(alg, name)).is_zero()
    assert list(rest.images) == ["t"] and alg.element(rest.images["t"]) == alg.one()


def test_split_derivation_random_roundtrip(rng):
    pres = WeylPresentation(2, center_vars=make_vars("t"))
    alg = pres.algebra()
    tpoly = Poly.var(pres.context, "t")
    for _ in range(15):
        secret = random_poly(rng, pres.context, max_degree=4)
        z_image = random_poly(rng, make_vars("t"), max_degree=3).extend(pres.context)
        delta_imgs = {}
        for v in pres.context:
            img = alg.bracket(secret, Poly.var(pres.context, v.name))
            if v.name == "t":
                img = alg.add(img, alg.element(z_image))
            if not img.is_zero():
                delta_imgs[v.name] = img
        b, rest = split_derivation(pres, Derivation(delta_imgs))
        # d_b equals d_secret on the generators
        for v in pres.context:
            lhs = alg.bracket(b, Poly.var(pres.context, v.name))
            rhs = alg.bracket(secret, Poly.var(pres.context, v.name))
            assert alg.sub(lhs, rhs).is_zero()
        rest_t = rest.images.get("t")
        if z_image.is_zero():
            assert rest_t is None
        else:
            assert alg.sub(alg.element(rest_t), alg.element(z_image)).is_zero()


def _chi_ctx():
    pres = WeylPresentation(1, center_vars=make_vars("alpha"))
    alg = pres.algebra()
    return alg, chi_context(alg, Derivation({"alpha": alg.one()}), "alpha")


def test_chi_examples():
    alg, ctx = _chi_ctx()
    # delta-constants map to their degree-0 image
    img = chi_forward(ctx, parse_poly("X1^2", alg.vars))
    assert ctx.target.format(img) == "X1^2"
    # chi(alpha) = Y
    assert ctx.target.format(chi_forward(ctx, parse_poly("alpha", alg.vars))) == "Y"
    # alpha^2 X1 -> X1 Y^2 and back
    p = parse_poly("alpha^2*X1", alg.vars)
    fwd = chi_forward(ctx, p)
    assert ctx.target.format(fwd) == "X1*Y^2"
    assert chi_inverse(ctx, fwd) == alg.element(p)


def test_chi_roundtrips_random(rng):
    alg, ctx = _chi_ctx()
    for _ in range(50):
        p = alg.element(random_poly(rng, alg.vars, max_degree=5))
        assert chi_inverse(ctx, chi_forward(ctx, p)) == p
        q = ctx.target.element(random_poly(rng, ctx.target.vars, max_degree=5))
        assert ctx.target.sub(chi_forward(ctx, chi_inverse(ctx, q)), q).is_zero()


def test_chi_is_bracket_homomorphism(rng):
    alg, ctx = _chi_ctx()
    for _ in range(40):
        p = alg.element(random_poly(rng, alg.vars, max_degree=4))
        q = alg.element(random_poly(rng, alg.vars, max_degree=4))
        lhs = chi_forward(ctx, alg.bracket(p, q))
        rhs = ctx.target.bracket(chi_forward(ctx, p), chi_forward(ctx, q))
        assert ctx.target.sub(lhs, rhs).is_zero()


def test_chi_context_validation():
    pres = WeylPresentation(1, center_vars=make_vars("alpha"))
    alg = pres.algebra()
    with pytest.raises(AlphaNotAVariable):
        chi_context(alg, Derivation({"alpha": alg.one()}), "X1")  # not central
    with pytest.raises(AlphaNotAVariable):
        # delta(alpha) = 2, not 1
        chi_context(alg, Derivation({"alpha": alg.scale(2, alg.one())}), "alpha")
    with pytest.raises(LocalNilpotencyCapExceeded):
        ctx2 = make_vars("u")
        A2 = poisson_algebra(ctx2, {})
        chi_context(A2, Derivation({"u": A2.gen("u")}), "u", cap=8)


def test_one_cap_rule_names_the_variable_or_the_element():
    # delta(u) = 1, delta(w) = u: delta^2(w) = 1 is the last nonzero power,
    # so cap 2 admits w and cap 1 refuses it by name; the series of w^2
    # reaches delta^4(w^2) = 6, past cap 2, and names the element
    A = poisson_algebra(make_vars("u w"), {})
    delta = Derivation({"u": A.one(), "w": A.gen("u")})
    with pytest.raises(LocalNilpotencyCapExceeded) as exc:
        chi_context(A, delta, "u", cap=1)
    assert (exc.value.cap, exc.value.what) == (1, "w")
    ctx = chi_context(A, delta, "u", cap=2)
    with pytest.raises(LocalNilpotencyCapExceeded) as exc:
        chi_forward(ctx, A.element("w^2"))
    assert (exc.value.cap, exc.value.what) == (2, "w^2")
    chi_forward(chi_context(A, delta, "u", cap=4), A.element("w^2"))  # cap 4 admits it


def test_chi_target_keeps_table_denominators():
    # {p, q} = 1/s with s inverted: the target of chi must carry the 1/s
    ctx = make_vars("a p q s")
    A = poisson_algebra(
        ctx,
        {(1, 2): LocalElement(Poly.const(ctx, 1), (1,))},
        inverted=[Poly.var(ctx, "s")],
    )
    C = chi_context(A, Derivation({"a": A.one()}), "a")
    T = C.target
    assert A.format(A.bracket(A.gen("p"), A.gen("q"))) == "1/s"
    assert T.bracket(T.gen("p"), T.gen("q")) == LocalElement(Poly.const(T.vars, 1), (1,))
    assert T.format(T.bracket(T.gen("p"), T.gen("q"))) == "1/s"
    assert [v.name for v in T.vars] == ["a", "p", "q", "s", "Y"]
    assert T.inverted == (Poly.var(T.vars, "s"),)


def _localized_chi_ctx():
    # {p, q} = 1 with s inverted and delta = {a: 1, q: 1/s}: delta^n(p)
    # carries denominators, which chi must keep
    ctx = make_vars("a p q s")
    A = poisson_algebra(
        ctx,
        {(1, 2): LocalElement(Poly.const(ctx, 1), (0,))},
        inverted=[Poly.var(ctx, "s")],
    )
    delta = Derivation({"a": A.one(), "q": A.invert(A.gen("s"))})
    return A, chi_context(A, delta, "a")


def test_chi_keeps_denominators():
    A, C = _localized_chi_ctx()
    fwd = chi_forward(C, A.gen("q"))
    assert C.target.format(fwd) == "(q*s + Y)/s"
    assert chi_inverse(C, fwd) == A.gen("q")
    res = chi_tensor(C)
    assert res.table_matches
    assert res.target.format(res.x_image) == "X1"


def test_chi_localized_roundtrips_random(rng):
    A, C = _localized_chi_ctx()
    for _ in range(30):
        p = A.element(random_poly(rng, A.vars, max_degree=4))
        assert chi_inverse(C, chi_forward(C, p)) == p


def test_chi_localized_roundtrips_from_the_target(rng):
    # delta kills s, so chi accepts denominators in s and inverts chi_inverse
    A, C = _localized_chi_ctx()
    T = C.target
    assert A.format(chi_inverse(C, T.gen("q"))) == "(q*s - a)/s"
    for _ in range(30):
        q = T.element(
            LocalElement(random_poly(rng, T.vars, max_degree=4), (rng.randint(0, 2),))
        )
        assert chi_forward(C, chi_inverse(C, q)) == q


def test_chi_refuses_a_denominator_delta_moves():
    # delta(u) = 1: exp(delta) does not act on 1/u
    ctx = make_vars("alpha u")
    A = poisson_algebra(ctx, {}, inverted=[Poly.var(ctx, "u")])
    C = chi_context(A, Derivation({"alpha": A.one(), "u": A.one()}), "alpha")
    assert C.target.format(chi_forward(C, A.gen("u"))) == "u + Y"
    with pytest.raises(ValueError):
        chi_forward(C, A.invert(A.gen("u")))


def test_chi_localized_is_bracket_homomorphism(rng):
    A, C = _localized_chi_ctx()
    T = C.target
    for _ in range(25):
        p = A.element(random_poly(rng, A.vars, max_degree=3))
        q = A.element(random_poly(rng, A.vars, max_degree=3))
        lhs = chi_forward(C, A.bracket(p, q))
        rhs = T.bracket(chi_forward(C, p), chi_forward(C, q))
        assert T.sub(lhs, rhs).is_zero()


def test_chi_tensor_cases():
    # A = Q[alpha]: the extension is exactly one Weyl pair
    ctx_a = make_vars("alpha")
    A0 = poisson_algebra(ctx_a, {})
    c0 = chi_context(A0, Derivation({"alpha": A0.one()}), "alpha")
    r0 = chi_tensor(c0)
    assert r0.table_matches
    assert r0.target.format(r0.x_image) == "X1"
    # A = Q[alpha] tensor B1: the extension becomes two pairs
    alg, ctx = _chi_ctx()
    res = chi_tensor(ctx)
    assert res.table_matches
    # chi(X) is exactly the fresh pair variable
    assert res.target.format(res.x_image) == "X2"


def test_pair_relation_failures_are_named():
    B = WeylPresentation(2).algebra()
    X1, Y1, X2, Y2 = (B.gen(name) for name in ("X1", "Y1", "X2", "Y2"))
    assert pair_relation_failure(B, [(X1, Y1), (X2, Y2)]) is None
    cases = [
        ([(X1, Y1), (Y2, X2)], (1, 1, "xy"), "{x2, y2}"),
        ([(X1, Y1), (Y1, X1)], (0, 1, "commute"), "{pair 1, pair 2}"),
    ]
    for pairs, failure, where in cases:
        assert pair_relation_failure(B, pairs) == failure
        with pytest.raises(NotCommuting) as err:
            tensor_presentation_check(B, [], pairs, d=2)
        assert str(err.value) == f"subalgebras do not commute: {where} = (pair relation fails)"


def test_tensor_presentation_check_cases():
    p2 = WeylPresentation(2)
    B2 = p2.algebra()
    assert tensor_presentation_check(
        B2, [], [(B2.gen("X1"), B2.gen("Y1")), (B2.gen("X2"), B2.gen("Y2"))], d=3
    )
    with pytest.raises(NotCommuting):
        p1 = WeylPresentation(1)
        B1 = p1.algebra()
        tensor_presentation_check(
            B1, [B1.gen("X1"), B1.gen("Y1")], [(B1.gen("X1"), B1.gen("Y1"))], d=2
        )
    # quotient of Heisenberg tensor Q[t] splits as Q[t] tensor B1 at z = 1
    t_alg = poisson_algebra(make_vars("t"), {})
    T = tensor(canonical_from_lie(heisenberg()), t_alg)
    Tq = quotient(T, ideal_from_pairs(T.vars, [("z", "1")]))
    assert tensor_presentation_check(Tq, [Tq.gen("t")], [(Tq.gen("x"), Tq.gen("y"))], d=4)
    # and a non-generating pair of subalgebras is reported
    with pytest.raises(NotGenerating):
        tensor_presentation_check(Tq, [], [(Tq.gen("x"), Tq.gen("y"))], d=2)


def test_tensor_presentation_check_refuses_a_negative_degree():
    # the empty slice of d = -1 made an empty generating set a certificate
    B1 = WeylPresentation(1).algebra()
    with pytest.raises(ValueError, match=r"^degree bound must be at least 0, got -1$"):
        tensor_presentation_check(B1, [], [], d=-1)
    with pytest.raises(NotGenerating):
        tensor_presentation_check(B1, [], [], d=1)


def _reference_extract_core(pres, generators):
    """extract_core's earlier body: the coefficient of the top X^a Y^b read
    off by the brackets {X_i, .}^b_i {Y_i, .}^a_i in pres.algebra(), which
    leave (-1)^|a| a! b! times it."""
    from math import factorial

    alg = pres.algebra()
    ctx = pres.context
    n = pres.n
    out, seen = [], set()
    for gen in generators:
        rem = alg.element(gen.extend(ctx))
        while not rem.is_zero():
            groups = {}
            for mono, c in rem.num.terms.items():
                groups.setdefault((mono[:n], mono[n : 2 * n]), {})[mono] = c
            xs, ys = max(groups, key=lambda k: (sum(k[0]) + sum(k[1]), k))
            work = rem
            for i in range(n):
                for _ in range(ys[i]):
                    work = alg.bracket(Poly.var(ctx, pres.x_names[i]), work)
            for i in range(n):
                for _ in range(xs[i]):
                    work = alg.bracket(Poly.var(ctx, pres.y_names[i]), work)
            scale = Fraction((-1) ** sum(xs))
            for e in xs + ys:
                scale *= factorial(e)
            coeff = work.num.scale(Fraction(1) / scale)
            mono = xs + ys + (0,) * len(pres.center_vars)
            rem = alg.sub(rem, alg.element(coeff * Poly.monomial(ctx, mono)))
            if str(coeff) not in seen:
                seen.add(str(coeff))
                out.append(coeff)
    return out


@pytest.mark.parametrize("n, center", [(2, "t"), (1, "z zp")])
def test_extract_core_equals_the_bracket_reference(rng, monkeypatch, n, center):
    # the partial-derivative reading gives the bracket reading's list, order
    # included, and neither brackets nor builds an algebra to do it
    import liepoisson.weyl as weyl
    from liepoisson.poisson import PoissonAlgebra

    pres = WeylPresentation(n, center_vars=make_vars(center))
    ctx = pres.context
    cases = [
        [random_poly(rng, ctx, max_degree=5, max_terms=6) for _ in range(rng.randint(1, 3))]
        for _ in range(40)
    ]
    want = [_reference_extract_core(pres, gens) for gens in cases]
    calls = []
    bracket = PoissonAlgebra.bracket
    monkeypatch.setattr(
        PoissonAlgebra, "bracket", lambda *a: calls.append("bracket") or bracket(*a)
    )
    monkeypatch.setattr(weyl, "poisson_algebra", lambda *a: calls.append("poisson_algebra"))
    got = [extract_core(pres, gens) for gens in cases]
    assert calls == []
    assert [[str(p) for p in core] for core in got] == [[str(p) for p in core] for core in want]
    assert got == want
    assert sum(len(core) for core in got) > len(cases)


def _reference_chi_inverse(ctx, q):
    """chi_inverse's earlier body: its own loop over delta's powers, each
    multiplied by alpha^(m + n)."""
    from functools import partial
    from math import factorial

    from liepoisson.spaces import combination
    from liepoisson.weyl import _by_last_power, _delta_powers

    alg = ctx.algebra
    el = ctx.target.element(q) if not isinstance(q, LocalElement) else q
    terms = []
    alpha_poly = Poly.var(alg.vars, ctx.alpha.name)
    for ypow, lifted in _by_last_power(el, alg).items():
        for m, dm in enumerate(_delta_powers(partial(ctx.delta.apply, alg), ctx.cap, lifted)):
            term = alg.mul(dm, alg.element(alpha_poly ** (m + ypow)))
            terms.append((Fraction((-1) ** m, factorial(m)), term))
    return combination(alg, terms)


@pytest.mark.parametrize("make", [_chi_ctx, _localized_chi_ctx])
def test_chi_inverse_equals_its_own_loop_reference(rng, make):
    _, C = make()
    T = C.target
    for _ in range(40):
        den = (rng.randint(0, 2),) * len(T.inverted)
        q = T.element(LocalElement(random_poly(rng, T.vars, max_degree=5, max_terms=6), den))
        got, want = chi_inverse(C, q), _reference_chi_inverse(C, q)
        assert got == want and C.algebra.format(got) == C.algebra.format(want)


def test_chi_inverse_names_the_lifted_coefficient_past_the_cap():
    # the cap error names the coefficient of Y^n, as the earlier loop did
    A = poisson_algebra(make_vars("u w"), {})
    C = chi_context(A, Derivation({"u": A.one(), "w": A.gen("u")}), "u", cap=2)
    q = C.target.element(parse_poly("w^2*Y + w", C.target.vars))
    for inverse in (chi_inverse, _reference_chi_inverse):
        with pytest.raises(LocalNilpotencyCapExceeded) as exc:
            inverse(C, q)
        assert (exc.value.cap, exc.value.what) == (2, "w^2")


@pytest.mark.parametrize("make", [_chi_ctx, _localized_chi_ctx])
def test_chi_tensor_reuses_the_context_quotient(monkeypatch, make):
    import liepoisson.weyl as weyl

    _, C = make()
    calls = []
    monkeypatch.setattr(weyl, "quotient", lambda *a: calls.append(a))
    res = chi_tensor(C)
    assert calls == [] and res.table_matches
    assert res.target.vars[: len(C.quotient.vars)] == C.quotient.vars
    assert res.target.ideal.eliminated_names() == {C.alpha.name}
