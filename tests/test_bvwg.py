"""The skew-form/lattice family: construction, universal maps, simplicity,
centralizer and center, growth, embedding, realization."""

from fractions import Fraction

import pytest

from liepoisson.bvwg import (
    build,
    centralizer_center,
    embed_in_weyl,
    fixed_ring_is_trivial,
    growth_count,
    growth_exponent,
    invariants,
    is_simple,
    make_spec,
    phi_g,
    realize_from_lie,
    stable_monomial_ideal_exists,
    symplectic_basis,
    universal_hom,
)
from liepoisson.errors import ConditionFailed, NotSimple
from liepoisson.lie import is_solvable
from liepoisson.polys import Poly, parse_poly

from conftest import random_bvwg, random_poly

F = Fraction

SPEC_LINE = make_spec(["v"], [["0"]], ["g"], [["1"]])  # n=1, omega=0, weight 1
SPEC_SYMP = make_spec(["v1", "v2"], [["0", "1"], ["-1", "0"]], [], [])
SPEC_MIX = make_spec(["v1", "v2"], [["0", "1"], ["-1", "0"]], ["g"], [["1", "0"]])
SPEC_TORUS = make_spec([], [], ["g1", "g2"], [[], []])


def test_build_tables():
    A = build(SPEC_LINE)
    assert A.format(A.bracket("g", "v")) == "g"
    B = build(SPEC_SYMP)
    assert B.format(B.bracket("v1", "v2")) == "1"
    T = build(SPEC_TORUS)
    assert T.bracket("g1", "g2").is_zero()


def test_build_jacobi_random(rng):
    for _ in range(100):
        spec = random_bvwg(rng, nmax=4, pmax=3)
        assert build(spec).jacobi_check() is None


def test_universal_hom_identity_and_negative():
    A = build(SPEC_LINE)
    hom = universal_hom(
        SPEC_LINE, A, {"v": Poly.var(A.vars, "v")}, {"g": Poly.var(A.vars, "g")}
    )
    p = parse_poly("v^2*g - 2*v", A.vars)
    assert hom.apply(p) == A.element(p)
    with pytest.raises(ConditionFailed) as err:
        universal_hom(
            SPEC_LINE,
            A,
            {"v": Poly.var(A.vars, "v").scale(2)},
            {"g": Poly.var(A.vars, "g")},
        )
    assert err.value.which == "ii"


def test_phi_g_examples():
    A = build(SPEC_LINE)
    v = Poly.var(A.vars, "v")
    assert phi_g(SPEC_LINE, (1,), v) == v + Poly.const(A.vars, 1)
    assert phi_g(SPEC_LINE, (0,), v) == v


def test_phi_g_fixed_iff_bracket_zero(rng):
    # a symmetric-part element is fixed by the lattice automorphism exactly
    # when it brackets to zero with the group monomial (computed in the
    # algebra itself)
    for _ in range(12):
        spec = random_bvwg(rng, nmax=3, pmax=2)
        if spec.p == 0:
            continue
        A = build(spec)
        sym_positions = list(range(spec.n))
        for _ in range(5):
            raw = random_poly(rng, A.vars, max_degree=3)
            r = Poly(
                A.vars,
                {
                    m: c
                    for m, c in raw.terms.items()
                    if all(m[spec.n + a] == 0 for a in range(spec.p))
                },
            )
            gvec = tuple(rng.randint(-2, 2) for _ in range(spec.p))
            g_mono = [0] * len(A.vars)
            for a, e in enumerate(gvec):
                g_mono[spec.n + a] = e
            g_el = A.element(Poly.monomial(A.vars, tuple(g_mono)))
            fixed = phi_g(spec, gvec, r) == r
            assert fixed == A.bracket(g_el, r).is_zero()


def test_is_simple_examples():
    assert is_simple(SPEC_SYMP)[0]  # omega nondegenerate
    assert is_simple(SPEC_LINE)[0]
    bad = make_spec(["v"], [["0"]], [], [])
    ok, cert = is_simple(bad)
    assert not ok and cert.basis == ((F(1),),)


def test_simplicity_cross_oracles(rng):
    # condition (iii) == fixed-ring search (ii) == monomial ideal search (iv)
    for _ in range(50):
        spec = random_bvwg(rng)
        simple = is_simple(spec)[0]
        assert simple == fixed_ring_is_trivial(spec, 6)
        assert simple == (not stable_monomial_ideal_exists(spec, 6))


def test_centralizer_center_examples():
    c, d = centralizer_center(SPEC_MIX)
    assert c.n == 1 and c.p == 1  # V^G = <v2>
    assert d.n == 1  # omega restricted to <v2> is zero
    c2, d2 = centralizer_center(SPEC_LINE)
    assert c2.n == 0 and d2.n == 0
    c3, d3 = centralizer_center(SPEC_TORUS)
    assert c3.n == 0 and c3.p == 2
    with pytest.raises(NotSimple):
        centralizer_center(make_spec(["v"], [["0"]], [], []))


def test_invariants_values():
    inv = invariants(SPEC_MIX)
    assert (inv.gk_total, inv.rank_lattice, inv.gk_centralizer, inv.gk_center) == (
        3,
        1,
        2,
        2,
    )
    inv2 = invariants(SPEC_LINE)
    assert inv2.gk_total == 2 and inv2.gk_centralizer == 1


def test_growth_exponents():
    # n=1, p=1: count (d+1)(2d+1) ~ 2 d^2 so the slope tends to 2
    assert growth_count(SPEC_LINE, 3) == 4 * 7
    slope = growth_exponent(SPEC_LINE, 40)
    assert abs(float(slope) - 2.0) < 0.2
    gslope = growth_exponent(SPEC_LINE, 40, "group")
    assert abs(float(gslope) - 1.0) < 0.2


def test_growth_exponent_adds_floats_left_to_right():
    # tests/data/bvwg-symp.json at dmax 40 (the README's bvwg-invariants
    # command): summed left to right the fit is 335720095/116471831, while
    # the compensated built-in sum of Python 3.12 and later gives
    # 2084598263/723212522
    import json
    import os
    from functools import reduce
    from math import log
    from operator import add

    from liepoisson.bvwg import _left_sum
    from liepoisson.cli import ProblemFile

    assert _left_sum([1e16, 1.0, -1e16]) == reduce(add, [1e16, 1.0, -1e16], 0.0) == 0.0
    with open(os.path.join(os.path.dirname(__file__), "data", "bvwg-symp.json")) as fh:
        spec = ProblemFile(json.load(fh)).bvwg
    ds = range(20, 41)
    xs = [log(d) for d in ds]
    ys = [log(growth_count(spec, d)) for d in ds]
    xbar = reduce(add, xs, 0.0) / len(xs)
    ybar = reduce(add, ys, 0.0) / len(ys)
    num = reduce(add, [(x - xbar) * (y - ybar) for x, y in zip(xs, ys)], 0.0)
    den = reduce(add, [(x - xbar) ** 2 for x in xs], 0.0)
    want = Fraction(num / den).limit_denominator(10**9)
    assert growth_exponent(spec, 40) == want == F(335720095, 116471831)


def test_symplectic_basis_normal_form(rng):
    for _ in range(30):
        spec = random_bvwg(rng, nmax=4, pmax=1)
        pairs, kernel = symplectic_basis(spec)
        from liepoisson.bvwg import _omega_apply

        for i, (u, w) in enumerate(pairs):
            assert _omega_apply(spec, u, w) == 1
            for j, (u2, w2) in enumerate(pairs):
                if i != j:
                    assert _omega_apply(spec, u, u2) == 0
                    assert _omega_apply(spec, u, w2) == 0
        for z in kernel:
            for u, w in pairs:
                assert _omega_apply(spec, z, u) == 0
                assert _omega_apply(spec, z, w) == 0
        assert 2 * len(pairs) + len(kernel) == spec.n


def test_symplectic_basis_scales_exactly():
    # omega(v1, v2) = 2 with integer entries: w = v2 / 2, exactly
    spec = make_spec(["v1", "v2"], [[0, 2], [-2, 0]], ["g1"], [[1, 0]])
    pairs, kernel = symplectic_basis(spec)
    assert pairs == [((1, 0), (0, Fraction(1, 2)))] and kernel == []
    assert all(type(c) is Fraction for u, w in pairs for c in u + w)


def test_embed_in_weyl_examples():
    emb = embed_in_weyl(SPEC_LINE)
    assert emb.sym_rank == 0 and emb.lattice_rank == 1
    assert emb.target.format(emb.hom.chi["v"]) == "T1"
    assert emb.target.format(emb.hom.psi["g"]) == "Z1"
    emb2 = embed_in_weyl(SPEC_MIX)
    assert emb2.sym_rank == 1 and emb2.lattice_rank == 1
    with pytest.raises(NotSimple):
        embed_in_weyl(make_spec(["v"], [["0"]], [], []))


def test_embed_target_is_localized_weyl_form():
    # the multiplicative pair {Z, T} = Z is the image of (X, XY) in the
    # Weyl pair localized at X
    from liepoisson.poisson import localize, poisson_algebra
    from liepoisson.polys import make_vars

    ctx = make_vars("X Y")
    B1 = poisson_algebra(ctx, {(0, 1): Poly.const(ctx, 1)})
    L = localize(B1, [Poly.var(ctx, "X")])
    z = L.gen("X")
    t = L.mul(L.gen("X"), L.gen("Y"))
    assert L.sub(L.bracket(z, t), z).is_zero()


def test_realize_from_lie_examples():
    real = realize_from_lie(SPEC_LINE)
    assert real.lie.dim == 3
    assert is_solvable(real.lie)
    real2 = realize_from_lie(SPEC_MIX)
    assert real2.lie.dim == 4


def test_realize_roundtrip_random(rng):
    count = 0
    while count < 10:
        spec = random_bvwg(rng)
        if not is_simple(spec)[0]:
            continue
        count += 1
        real = realize_from_lie(spec)
        A = build(spec)
        loc = real.localized
        names = list(spec.v_names) + list(spec.g_names)
        images = {**real.hom.chi, **real.hom.psi}
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                src = A.bracket(a, b)
                tgt = loc.bracket(images[a], images[b])
                assert loc.sub(tgt, real.hom.apply(src.num)).is_zero()


@pytest.mark.parametrize("dmax", [1, 0])
def test_growth_exponent_refuses_a_fit_of_one_point(dmax):
    # d = dmax/2 .. dmax holds one degree or none: the slope divided by zero
    with pytest.raises(ValueError, match=rf"^growth fit needs dmax at least 2, got {dmax}$"):
        growth_exponent(SPEC_LINE, dmax)
