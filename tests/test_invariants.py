"""Degree-bounded searches: centers, semi-invariants, weight kernels, and
the presentation over the kernel subalgebra."""

import random
from fractions import Fraction

import pytest

from liepoisson import linalg
from liepoisson.errors import ComplementEliminated, EigenvalueNotRational
from liepoisson.invariants import (
    candidate_weights,
    center_up_to_degree,
    ghat,
    nonzero_candidates,
    present_over_ghat,
    reduced_algebra,
    semi_invariants,
    weight_spaces,
)
from liepoisson.lie import Subspace, Weight, jordan_holder, verify_lie
from liepoisson.poisson import canonical_from_lie, ideal_from_pairs
from liepoisson.polys import parse_poly
from liepoisson.weyl import WeylPresentation

from conftest import (
    abelian,
    aff2,
    eng4,
    heisenberg,
    lie_fixtures,
    perfbench_workloads,
    random_solvable,
)
from test_lie import _workload_algebras

F = Fraction


def test_center_of_weyl_is_constants():
    for n in (1, 2):
        A = WeylPresentation(n).algebra()
        basis = center_up_to_degree(A, 3)
        assert [str(b.num) for b in basis] == ["1"]


def test_center_of_heisenberg():
    A = canonical_from_lie(heisenberg())
    basis = center_up_to_degree(A, 3)
    assert [str(b.num) for b in basis] == ["1", "z", "z^2", "z^3"]


def test_center_of_eng4():
    # oracle: {e1, e3^2 - 2 e2 e4} = 2 e3 e4 - 2 e3 e4 = 0, and the e2
    # bracket vanishes likewise; the degree-2 center is spanned by
    # 1, e4, e4^2, e3^2 - 2 e2 e4
    A = canonical_from_lie(eng4())
    c = parse_poly("e3^2 - 2*e2*e4", A.vars)
    assert A.bracket("e1", c).is_zero() and A.bracket("e2", c).is_zero()
    basis = center_up_to_degree(A, 2)
    assert len(basis) == 4
    from liepoisson.spaces import solve_in_span

    assert solve_in_span(A, basis, A.element(c)) is not None


def test_semi_invariants_aff2():
    rep = semi_invariants(aff2(), None, 3)
    got = {
        tuple(w.values): [str(b.num) for b in basis] for w, basis in rep.entries
    }
    assert got == {
        (F(0), F(0)): ["1"],
        (F(1), F(0)): ["y"],
        (F(2), F(0)): ["y^2"],
        (F(3), F(0)): ["y^3"],
    }


def test_semi_invariants_abelian():
    rep = semi_invariants(abelian(2), None, 2)
    assert len(rep.entries) == 1
    w, basis = rep.entries[0]
    assert w.is_zero() and len(basis) == 6  # all monomials of degree <= 2


def test_semi_invariants_heisenberg():
    rep = semi_invariants(heisenberg(), None, 2)
    assert len(rep.entries) == 1
    w, basis = rep.entries[0]
    assert w.is_zero()
    assert [str(b.num) for b in basis] == ["1", "z", "z^2"]


def test_semi_invariants_verbatim_eigen_property():
    # every reported element satisfies {x, a} = weight(x) a exactly
    for g, ideal_pairs in ((aff2(), None), (heisenberg(), [("z", "1")])):
        alg = reduced_algebra(
            g, ideal_from_pairs(g.basis, ideal_pairs) if ideal_pairs else None
        )
        rep = semi_invariants(
            g, ideal_from_pairs(g.basis, ideal_pairs) if ideal_pairs else None, 3
        )
        for w, basis in rep.entries:
            for a in basis:
                for k, v in enumerate(g.basis):
                    lhs = alg.bracket(v.name, a)
                    rhs = alg.scale(w.values[k], a)
                    assert alg.sub(lhs, rhs).is_zero()


def test_semi_invariant_weights_direct_and_multiplicative():
    rep = semi_invariants(aff2(), None, 4)
    alg = reduced_algebra(aff2(), None)
    from liepoisson.spaces import common_denominator_rows
    from liepoisson import linalg

    # distinct weights have independent spaces: ranks add
    all_elements = [b for _, basis in rep.entries for b in basis]
    rows, _ = common_denominator_rows(alg, all_elements)
    assert linalg.rank(rows) == len(all_elements)
    # products multiply weights additively
    by_weight = {tuple(w.values): basis for w, basis in rep.entries}
    a = by_weight[(F(1), F(0))][0]
    b = by_weight[(F(2), F(0))][0]
    prod = alg.mul(a, b)
    target = by_weight[(F(3), F(0))]
    from liepoisson.spaces import solve_in_span

    assert solve_in_span(alg, list(target), prod) is not None


def test_semi_invariants_monotone_in_degree():
    rep3 = semi_invariants(aff2(), None, 3)
    rep4 = semi_invariants(aff2(), None, 4)
    weights3 = {tuple(w.values) for w, _ in rep3.entries}
    weights4 = {tuple(w.values) for w, _ in rep4.entries}
    assert weights3 <= weights4


def test_ghat_examples():
    gd = ghat(aff2(), None, 3)
    assert gd.subalgebra.basis == ((F(0), F(1)),)
    assert [aff2().basis[i].name for i in gd.complement] == ["x"]
    # nilpotent algebra: everything has weight zero
    gh = ghat(heisenberg(), None, 3)
    assert gh.subalgebra.dim == 3 and gh.complement == ()
    # extra abelian factor joins the kernel
    g3 = verify_lie("x y t", {(0, 1): {1: 1}})
    gd3 = ghat(g3, None, 3)
    assert gd3.subalgebra.dim == 2
    assert gd3.subalgebra.contains((0, 1, 0)) and gd3.subalgebra.contains((0, 0, 1))


def test_present_over_ghat_matches():
    assert present_over_ghat(aff2(), None, 3).matches
    pres = present_over_ghat(heisenberg(), None, 3)
    assert pres.matches and pres.derivation_names == ()
    two = verify_lie("x1 y1 x2 y2", {(0, 1): {1: 1}, (2, 3): {3: 1}})
    res = present_over_ghat(two, None, 3)
    assert res.matches and len(res.derivation_names) == 2


@pytest.mark.parametrize(
    "basis, structure, rules",
    [
        ("x y", {(0, 1): {1: 1}}, []),  # aff2: complement x, kernel y
        ("t x y", {(0, 2): {2: 1}}, [("x", "1")]),
        ("x1 y1 x2 y2", {(0, 1): {1: 1}, (2, 3): {3: 1}}, []),
    ],
)
def test_present_over_ghat_matches_with_a_complement_before_the_kernel(
    basis, structure, rules
):
    g = verify_lie(basis, structure)
    ideal = ideal_from_pairs(g.basis, rules) if rules else None
    res = present_over_ghat(g, ideal, 3)
    kernel = [i for i in range(g.dim) if i not in res.data.complement]
    # the premise: g's basis order is not the kernel-then-complement order
    # of the rebuilt algebra, so the tables only agree once g is re-presented
    assert min(res.data.complement) < max(kernel)
    assert [v.name for v in res.rebuilt.vars] != [v.name for v in g.basis]
    assert res.matches
    assert reduced_algebra(g, ideal).table_signature() != res.rebuilt.table_signature()


def test_present_over_ghat_with_restricted_ideal():
    # the ideal x -> 1 lies inside the kernel subalgebra <x, y>; its rule
    # images must be restricted to that subalgebra's variables
    g = verify_lie("t x y", {(0, 2): {2: 1}})
    res = present_over_ghat(g, ideal_from_pairs(g.basis, [("x", "1")]), 3)
    assert res.matches and res.derivation_names == ("t",)
    [(v, img)] = res.data.restricted_ideal.rules
    assert v.name == "x" and str(img) == "1"
    assert [u.name for u in img.ctx] == ["x", "y"]


def test_present_over_ghat_kernel_not_aligned():
    # [t,y] = y, [s,y] = y: the weight kernel is spanned by t - s
    g = verify_lie("t s y", {(0, 2): {2: 1}, (1, 2): {2: 1}})
    with pytest.raises(ComplementEliminated):
        present_over_ghat(g, None, 3)


def test_present_over_ghat_rebuild_table():
    res = present_over_ghat(aff2(), None, 3)
    rebuilt = res.rebuilt
    assert rebuilt.format(rebuilt.bracket("x", "y")) == "y"
    assert len(res.derivations) == 1
    base = res.base
    assert base.sub(
        res.derivations[0].apply(base, "y"), base.gen("y")
    ).is_zero()


def test_ghat_partial_sums_are_ideals():
    # the kernel plus any prefix of the complement is an ideal
    from liepoisson.lie import Subspace, basis_vec

    two = verify_lie("x1 y1 x2 y2", {(0, 1): {1: 1}, (2, 3): {3: 1}})
    gd = ghat(two, None, 3)
    cur = gd.subalgebra
    for i in gd.complement:
        cur = cur.sum_with(Subspace(two.dim, [basis_vec(i, two.dim)]))
        for k in range(two.dim):
            for v in cur.basis:
                assert cur.contains(two.bracket_vec(basis_vec(k, two.dim), v))


# ---------------------------------------------------------------------------
# semi_invariants against the per-weight reference


def _semi_invariants_per_weight(g, ideal, d):
    """Reference: one closure per generator and weight, re-bracketing the
    whole slice for every candidate weight, each system on its own index."""
    from liepoisson.invariants import candidate_weights
    from liepoisson.lie import jordan_holder
    from liepoisson.spaces import basis_monomials, kernel_of_operators, operator_rows

    flag = jordan_holder(g)
    alg = reduced_algebra(g, ideal)
    basis = [alg.element(m) for m in basis_monomials(alg, d)]
    gens = [alg.gen(v.name) for v in g.basis]
    entries = []
    for lam in candidate_weights(flag, d):
        ops = [
            lambda el, gen=gen, c=c: alg.sub(alg.bracket(gen, el), alg.scale(c, el))
            for gen, c in zip(gens, lam.values)
        ]
        sol = kernel_of_operators(alg, basis, operator_rows(alg, basis, ops))
        if sol:
            entries.append((lam, tuple(el for _, el in sol)))
    return entries


def _two_weight():
    return verify_lie(
        "t s x y", {(0, 2): {2: 2}, (1, 3): {3: F(-3, 2)}, (0, 3): {3: F(5, 4)}}
    )


def _entries_text(entries):
    return [
        ([str(v) for v in w.values], [str(b) for b in basis]) for w, basis in entries
    ]


def test_semi_invariants_match_per_weight_reference():
    h = heisenberg()
    cases = [
        (_two_weight(), None, 4),
        (aff2(), None, 4),
        (h, ideal_from_pairs(h.basis, [("z", "1")]), 4),
        (eng4(), None, 3),
    ]
    for g, ideal, d in cases:
        got = _entries_text(semi_invariants(g, ideal, d).entries)
        want = _entries_text(_semi_invariants_per_weight(g, ideal, d))
        assert got == want, g.names()
        assert got  # the weight-zero entry always holds the constants


def test_semi_invariants_bracket_each_generator_once(monkeypatch):
    from liepoisson.poisson import PoissonAlgebra

    calls = []
    original = PoissonAlgebra.bracket

    def counted(self, a, b):
        calls.append(1)
        return original(self, a, b)

    monkeypatch.setattr(PoissonAlgebra, "bracket", counted)
    rep = semi_invariants(_two_weight(), None, 5)
    # 126 monomials of degree <= 5 in 4 variables; x is bracketed on all of
    # them, y on x's 56-element kernel, and t and s on K0, of dimension 21
    assert len(calls) == 224
    assert rep.weight_zero_basis()


def test_kernel_of_operators_with_denominators():
    from liepoisson.decompose import _central_choice
    from liepoisson.poisson import LocalElement, localize
    from liepoisson.polys import Poly
    from liepoisson.spaces import combination, kernel_of_operators, operator_rows

    # the Heisenberg algebra with z inverted: its center is Q[z, 1/z]
    A = canonical_from_lie(heisenberg())
    L = localize(A, [Poly.var(A.vars, "z")])
    terms = [("1", 0), ("z", 0), ("1", 1), ("x", 1), ("y", 2), ("x*y", 1), ("1", 2)]
    basis = [L.element(LocalElement(parse_poly(n, L.vars), (k,))) for n, k in terms]
    ops = [lambda el, gen=L.gen(v.name): L.bracket(gen, el) for v in L.vars]
    kernel = kernel_of_operators(L, basis, operator_rows(L, basis, ops))
    assert [L.format(k) for _, k in kernel] == ["1", "z", "1/z", "1/z^2"]
    for a, k in kernel:
        assert all(L.bracket(v.name, k).is_zero() for v in L.vars)
        assert list(a) == sorted(a) and all(a.values())
        assert L.sub(combination(L, [(c, basis[i]) for i, c in a.items()]), k).is_zero()
    # the decomposition's central choice solves the same kind of system,
    # for the nonzero coefficients of its element
    coeffs = _central_choice(L, basis[3:], 2)
    assert coeffs == {3: 1}
    assert L.format(combination(L, [(c, basis[3 + i]) for i, c in coeffs.items()])) == "1/z^2"


def test_independent_subset_is_rank_increasing_prefix():
    from liepoisson import linalg
    from liepoisson.poisson import LocalElement, localize
    from liepoisson.polys import Poly
    from liepoisson.spaces import independent_subset

    # the Heisenberg algebra with z inverted; the elements mix denominators
    A = canonical_from_lie(heisenberg())
    L = localize(A, [Poly.var(A.vars, "z")])
    terms = [
        ("x", 1), ("x", 0), ("x*z", 2), ("y", 2), ("x*z^2 + y", 2),
        ("1", 1), ("z", 2), ("y*z", 1), ("x*y", 0), ("z^3", 2), ("x*y*z", 1),
    ]
    elements = [L.element(LocalElement(parse_poly(n, L.vars), (k,))) for n, k in terms]
    z = Poly.var(L.vars, "z")

    def rank(els):
        # reference: every element over the fixed denominator z^3
        return linalg.rank([(el.num * z ** (3 - el.den[0])).terms for el in els])

    want = [
        el for i, el in enumerate(elements)
        if rank(elements[: i + 1]) > rank(elements[:i])
    ]
    got = independent_subset(L, elements)
    assert got == want
    # dropped: x*z/z^2 = x/z, (x*z^2 + y)/z^2, z/z^2 = 1/z, x*y*z/z = x*y
    assert [terms[elements.index(el)] for el in got] == [
        ("x", 1), ("x", 0), ("y", 2), ("1", 1), ("y*z", 1), ("x*y", 0), ("z^3", 2)
    ]
    assert len(independent_subset(L, got)) == len(got)
    assert len(independent_subset(L, elements)) != len(elements)


# ---------------------------------------------------------------------------
# candidate weights against the multiset enumeration


def _candidate_weights_per_multiset(flag, d):
    """Reference: one sum per multiset of at most d flag weights."""
    from itertools import combinations_with_replacement

    from liepoisson.lie import Weight

    m = len(flag.weights)
    zero = Weight(tuple(F(0) for _ in range(m)))
    seen = {zero.values: zero}
    for total in range(1, d + 1):
        for combo in combinations_with_replacement(range(m), total):
            w = zero
            for i in combo:
                w = w + flag.weights[i]
            seen.setdefault(w.values, w)
    return [seen[k] for k in sorted(seen)]


def test_candidate_weights_match_multiset_reference(rng):
    from liepoisson.invariants import candidate_weights
    from liepoisson.lie import JordanHolderData, Weight

    for _ in range(40):
        m = rng.randint(1, 4)
        # a small pool, so that flags repeat weights and contain zero ones
        pool = [Weight(tuple(F(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(m)))
                for _ in range(rng.randint(1, 3))]
        pool.append(Weight(tuple(F(0) for _ in range(m))))
        weights = tuple(rng.choice(pool) for _ in range(m))
        flag = JordanHolderData((), weights, ())
        d = rng.randint(0, 5)
        assert candidate_weights(flag, d) == _candidate_weights_per_multiset(flag, d)
    # all-zero flag: only the zero weight, at every bound
    zero = Weight((F(0), F(0)))
    assert candidate_weights(JordanHolderData((), (zero, zero), ()), 6) == [zero]


# ---------------------------------------------------------------------------
# weight_spaces: each caller lists only the weights it reads


def _lie_fixtures():
    out = [(prob.lie, prob.ideal) for prob in lie_fixtures()]
    assert len(out) == 5
    return out


def _ghat_kernel_reference(g, ideal, d):
    """Reference: the kernel of every nonzero weight that semi_invariants
    reports, as ghat computed it from the whole search."""
    report = semi_invariants(g, ideal, d)
    rows = [linalg.sparse(w.values) for w, _ in report.entries if not w.is_zero()]
    return Subspace(g.dim, linalg.nullspace(rows, g.dim))


def test_ghat_is_the_kernel_of_the_reported_nonzero_weights():
    cases = [(g, ideal, 3) for g, ideal in _lie_fixtures()]
    cases += [(_workload_algebras(seed)[1], None, 4) for seed in (5, 11, 23)]
    for seed in range(12):
        rng = random.Random(seed)
        cases.append((random_solvable(rng, rng.randint(2, 4)), None, 3))
    compared = 0
    for g, ideal, d in cases:
        try:
            want = _ghat_kernel_reference(g, ideal, d)
        except EigenvalueNotRational:  # a flag weight is not rational
            with pytest.raises(EigenvalueNotRational):
                ghat(g, ideal, d)
            continue
        assert ghat(g, ideal, d).subalgebra.basis == want.basis, g.names()
        compared += 1
    assert compared >= 15


def test_weight_spaces_solves_only_the_listed_weights(monkeypatch):
    from liepoisson import invariants

    g = _two_weight()
    alg = reduced_algebra(g, None)
    flag = jordan_holder(g)
    kernels, k0_solves = [], []
    kernel_of_operators = invariants.kernel_of_operators
    kernel_coordinates = invariants.kernel_coordinates

    def counted(*args):
        kernels.append(1)
        return kernel_of_operators(*args)

    def counted_k0(*args):
        k0_solves.append(1)
        return kernel_coordinates(*args)

    monkeypatch.setattr(invariants, "kernel_of_operators", counted)
    monkeypatch.setattr(invariants, "kernel_coordinates", counted_k0)
    assert list(weight_spaces(alg, 3, [])) == [] and kernels == [] and k0_solves == []
    # a caller that stops at the first hit solves up to that weight only;
    # x and y have weight zero on every candidate, so K0 is solved once, one
    # kernel per fixed generator
    nonzero = nonzero_candidates(flag, 3)
    first = next(weight_spaces(alg, 3, nonzero))
    assert first[0] == nonzero[len(kernels) - 1]
    assert len(kernels) < len(nonzero)
    assert len(k0_solves) == 2
    # every candidate, in order: the semi-invariant report
    kernels.clear()
    entries = list(weight_spaces(alg, 3, candidate_weights(flag, 3)))
    assert len(kernels) == len(candidate_weights(flag, 3))
    assert len(k0_solves) == 4
    assert _entries_text(entries) == _entries_text(semi_invariants(g, None, 3).entries)


# ---------------------------------------------------------------------------
# weight_spaces against the whole-slice solve of every weight


def _whole_slice_actions(alg, d):
    """The degree-<= d slice as elements, with the rows of every generator's
    action on all of it and the rows of the identity."""
    from liepoisson.invariants import _generator_actions
    from liepoisson.spaces import basis_monomials, common_denominator_rows, operator_rows

    basis = [alg.element(m) for m in basis_monomials(alg, d)]
    actions = operator_rows(alg, basis, _generator_actions(alg))
    identity, _ = common_denominator_rows(alg, basis)
    return basis, actions, identity


def _weight_spaces_whole_slice(alg, d, weights):
    """Reference: the slice actions computed once, then per weight one
    kernel of the stacked A_j - lam(x_j) I over the whole slice."""
    from liepoisson.spaces import kernel_of_operators

    basis, actions, identity = _whole_slice_actions(alg, d)
    out = []
    for lam in weights:
        shifted = []
        for rows, c in zip(actions, lam.values):
            shifted.append([
                {
                    col: x
                    for col in row.keys() | ident.keys()
                    if (x := row.get(col, 0) - c * ident.get(col, 0))
                }
                for row, ident in zip(rows, identity)
            ])
        sol = kernel_of_operators(alg, basis, shifted)
        if sol:
            out.append((lam, tuple(el for _, el in sol)))
    return out


def _assert_whole_slice_entries(alg, d, weights):
    got = _entries_text(weight_spaces(alg, d, weights))
    assert got == _entries_text(_weight_spaces_whole_slice(alg, d, weights)), alg
    return got


def _assert_semi_invariants_whole_slice(g, ideal, d):
    flag = jordan_holder(g)
    alg = reduced_algebra(g, ideal)
    weights = candidate_weights(flag, d)
    got = _assert_whole_slice_entries(alg, d, weights)
    assert got == _entries_text(semi_invariants(g, ideal, d).entries)
    return weights, got


def _fixed_generators(weights):
    return [j for j in range(len(weights[0].values)) if all(w.values[j] == 0 for w in weights)]


def test_weight_spaces_match_whole_slice_on_random_solvable():
    several = 0
    for seed in range(30):
        rng = random.Random(seed)
        g = random_solvable(rng, rng.randint(2, 5))
        try:
            weights, _ = _assert_semi_invariants_whole_slice(g, None, 3)
        except EigenvalueNotRational:
            continue
        several += len(weights) >= 3
    assert several >= 10


def test_weight_spaces_match_whole_slice_on_the_weight_search_algebra():
    for seed in (5, 11, 23):
        g = _workload_algebras(seed)[1]
        weights, got = _assert_semi_invariants_whole_slice(g, None, 4)
        assert _fixed_generators(weights) == [2, 3]  # x and y
        assert len(got) == len(weights)  # x^i y^j spans every weight space


def test_weight_spaces_match_whole_slice_on_the_lie_fixtures():
    for g, ideal in _lie_fixtures():
        for d in (3, 4, 5):
            try:
                _assert_semi_invariants_whole_slice(g, ideal, d)
            except EigenvalueNotRational:
                break


def test_weight_spaces_with_no_weight_independent_generator():
    # a = t, b = t + x with [t, x] = x: every flag weight is nonzero at a and b
    g = verify_lie("a b", {(0, 1): {0: -1, 1: 1}})
    weights, got = _assert_semi_invariants_whole_slice(g, None, 4)
    assert _fixed_generators(weights) == [] and len(weights) == 5
    # a listed weight nonzero at every generator of the two-weight algebra
    alg = reduced_algebra(_two_weight(), None)
    listed = [Weight((F(2), F(-3, 2), F(1), F(5, 4))), Weight((F(1), F(1), F(1), F(1)))]
    _assert_whole_slice_entries(alg, 3, listed)


def test_weight_spaces_of_nilpotent_algebras_are_k0():
    for g in (heisenberg(), eng4(), abelian(3)):
        weights, got = _assert_semi_invariants_whole_slice(g, None, 4)
        assert [w.is_zero() for w in weights] == [True]
        assert len(got) == 1  # the center up to degree 4
        alg = reduced_algebra(g, None)
        assert got[0][1] == [str(b) for b in center_up_to_degree(alg, 4)]


def test_weight_spaces_with_k0_the_constants():
    # [t, x] = x, [t, y] = y: with t and x fixed, K0 solves (x d_x + y d_y) p = 0
    # and x d_t p = 0, so only the constants; every bracket kills 1, so K0 is
    # never zero
    g = verify_lie("t x y", {(0, 1): {1: 1}, (0, 2): {2: 1}})
    alg = reduced_algebra(g, None)
    listed = [Weight((F(0), F(0), F(0))), Weight((F(0), F(0), F(1)))]
    assert _fixed_generators(listed) == [0, 1]
    assert _assert_whole_slice_entries(alg, 4, listed) == [(["0", "0", "0"], ["1"])]
    # every nonzero weight space of aff2 is zero, with K0 its center
    assert _assert_whole_slice_entries(
        reduced_algebra(aff2(), None), 4, [Weight((F(0), F(0))), Weight((F(0), F(1)))]
    ) == [(["0", "0"], ["1"])]


def _solvable_xyz():
    # t x y z: [x, y] = z, [t, x] = x, [t, y] = -y
    return verify_lie("t x y z", {(1, 2): {3: 1}, (0, 1): {1: 1}, (0, 2): {2: -1}})


def _xyzat():
    # x y z a t: [x, y] = z, [t, x] = x, [t, y] = -y, a central
    return verify_lie("x y z a t", {(0, 1): {2: 1}, (0, 4): {0: -1}, (1, 4): {1: 1}})


def _weights(m):
    # t1..tm, x1..xm: [t_i, x_j] = (i + j - 1) x_j for j = i and j = i + 1 mod m
    names = [f"t{i}" for i in range(1, m + 1)] + [f"x{i}" for i in range(1, m + 1)]
    structure = {}
    for i in range(m):
        for j in (i, (i + 1) % m):
            structure[(i, m + j)] = {m + j: i + j + 1}
    return verify_lie(names, structure)


_RESTRICTED_CASES = [(_solvable_xyz, 5), (_xyzat, 6), (lambda: _weights(3), 4)]


def test_weight_spaces_restrict_step_by_step_like_the_whole_slice(monkeypatch):
    # every fixed generator cuts the kernel the ones before it left; the
    # bases equal the whole-slice solve of every weight
    from liepoisson import invariants

    made = []
    combination = invariants.combination

    def recorded(alg, terms):
        el = combination(alg, terms)
        made.append(el)
        return el

    monkeypatch.setattr(invariants, "combination", recorded)
    for build, d in _RESTRICTED_CASES:
        g = build()
        weights, _ = _assert_semi_invariants_whole_slice(g, None, d)
        assert len(_fixed_generators(weights)) >= 2
    # the intermediate kernels hold elements of several terms, such as
    # t*z + x*y in the kernel of {x, .} on t x y z
    assert any(len(el.num.terms) > 1 for el in made)
    A = reduced_algebra(_solvable_xyz(), None)
    want = parse_poly("t*z + x*y", A.vars)
    assert any(el.num == want for el in made)


def test_weight_spaces_bracket_each_generator_on_the_kernel_left_to_cut(monkeypatch):
    # brackets = sum over fixed j of dim(kernel before j) + #moving * dim K0,
    # with the kernels of the fixed generators solved on the whole slice
    from liepoisson.poisson import PoissonAlgebra
    from liepoisson.spaces import kernel_of_operators

    cases = _RESTRICTED_CASES + [(_two_weight, 5)]
    for build, d in cases:
        g = build()
        alg = reduced_algebra(g, None)
        weights = candidate_weights(jordan_holder(g), d)
        fixed = _fixed_generators(weights)
        basis, actions, _ = _whole_slice_actions(alg, d)
        dims = [len(kernel_of_operators(alg, basis, [actions[j] for j in fixed[:k]]))
                for k in range(len(fixed) + 1)]
        assert dims[0] == len(basis)
        moving = len(actions) - len(fixed)
        calls = []
        original = PoissonAlgebra.bracket

        def counted(self, a, b):
            calls.append(1)
            return original(self, a, b)

        monkeypatch.setattr(PoissonAlgebra, "bracket", counted)
        list(weight_spaces(alg, d, weights))
        monkeypatch.undo()
        assert len(calls) == sum(dims[:-1]) + moving * dims[-1], g.names()
        assert len(calls) < len(actions) * len(basis)


def test_weight_search_feeds_few_rows_to_nullspace(monkeypatch):
    # a count, not a timing: the whole-slice solve of every weight fed 7,430
    # rows; K0 plus the restricted systems feed under 1,000
    rows_in = []
    nullspace = linalg.nullspace

    def counted(rows, ncols):
        rows = list(rows)
        rows_in.append(len(rows))
        return nullspace(rows, ncols)

    g = _workload_algebras(11)[1]
    monkeypatch.setattr(linalg, "nullspace", counted)
    rep = semi_invariants(g, None, 5)
    assert len(rep.entries) == 21
    assert sum(rows_in) <= 1500


@pytest.mark.parametrize(
    "workload, rows_in", [("ideal-decompose", 672), ("weight-search", 869)]
)
def test_nullspace_presolve_leaves_few_rows_to_eliminate(monkeypatch, workload, rows_in):
    # a count, not a timing: of the rows one benchmark op at seed 11 hands
    # to nullspace, the singleton presolve settles all but a few, so they
    # never reach Echelon.add; elimination alone inserted every one
    seen = {"rows": 0, "inserted": 0, "inside": False}
    nullspace, add = linalg.nullspace, linalg.Echelon.add

    def counted(rows, ncols):
        rows = list(rows)
        seen["rows"] += len(rows)
        seen["inside"] = True
        try:
            return nullspace(rows, ncols)
        finally:
            seen["inside"] = False

    def insert(ech, row):
        seen["inserted"] += seen["inside"]
        return add(ech, row)

    w = perfbench_workloads()[workload](11)
    monkeypatch.setattr(linalg, "nullspace", counted)
    monkeypatch.setattr(linalg.Echelon, "add", insert)
    (x,) = w.inputs
    assert w.check(x, w.op(x)) is None
    assert seen["rows"] == rows_in
    assert seen["inserted"] <= 5


@pytest.mark.parametrize("d", [-1, -3])
def test_negative_degree_bound_is_refused(d):
    # the degree-d slice was empty, so the center came out [] (it always
    # holds 1) and the semi-invariant report had no entry; d = 0 is the
    # slice of the constants
    alg = reduced_algebra(heisenberg(), None)
    message = rf"^degree bound must be at least 0, got {d}$"
    with pytest.raises(ValueError, match=message):
        center_up_to_degree(alg, d)
    with pytest.raises(ValueError, match=message):
        semi_invariants(heisenberg(), None, d)
    assert [str(c.num) for c in center_up_to_degree(alg, 0)] == ["1"]
    assert len(semi_invariants(heisenberg(), None, 0).entries) == 1
