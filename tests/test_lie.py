"""Lie layer: table validation, series, nilradical, flags, eigenvectors."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from liepoisson import linalg
from liepoisson.errors import (
    EigenvalueNotRational,
    JacobiViolation,
    NilradicalUndecided,
    NotSolvable,
)
from liepoisson.lie import (
    LieAlgebra,
    Subspace,
    Weight,
    basis_vec,
    common_eigenvector,
    coordinate_subalgebra,
    is_nilpotent,
    is_solvable,
    _joint_eigenspaces,
    jordan_holder,
    nilradical,
    series,
    span_subalgebra,
    unit_index,
    vec_add,
    verify_lie,
)
from liepoisson.polys import make_vars

from conftest import (
    abelian,
    aff2,
    eng4,
    family_n,
    heisenberg,
    lie_fixtures,
    random_basis_change,
    random_solvable,
    random_unimodular,
)

F = Fraction


def test_verify_valid_tables():
    assert heisenberg().dim == 3
    assert abelian(4).dim == 4


def test_verify_jacobi_violation_residual():
    # oracle: direct expansion of the Jacobiator of {x,y}=x, {y,z}=y, {z,x}=z
    # gives [x,[y,z]] + [y,[z,x]] + [z,[x,y]] = [x,y] + [y,z] + [z,x] = x+y+z
    with pytest.raises(JacobiViolation) as err:
        verify_lie("x y z", {(0, 1): {0: 1}, (1, 2): {1: 1}, (0, 2): {2: -1}})
    assert err.value.residual == (F(1), F(1), F(1))


def dense_first_violation(basis, structure):
    """Reference: the first triple whose Jacobiator, summed from dense
    ``bracket_vec(basis_vec(a), [e_b, e_c])`` products, is nonzero, with
    that residual; None when Jacobi holds."""
    g = LieAlgebra(make_vars(basis), structure)
    m = g.dim
    for i in range(m):
        for j in range(i + 1, m):
            for k in range(j + 1, m):
                res = [F(0)] * m
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    vecb = [F(0)] * m
                    for t, v in g.bracket_basis(b, c).items():
                        vecb[t] = v
                    outer = g.bracket_vec(basis_vec(a, m), vecb)
                    res = [x + y for x, y in zip(res, outer)]
                if any(v != 0 for v in res):
                    return (i, j, k), tuple(res)
    return None


def _random_table(rng, dim):
    """Sparse random constants on ordered pairs; most violate Jacobi."""
    structure = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            if rng.random() < 0.4:
                vec = {k: F(rng.randint(-3, 3), rng.randint(1, 2)) for k in range(dim)}
                vec = {k: c for k, c in vec.items() if c and rng.random() < 0.5}
                if vec:
                    structure[(i, j)] = vec
    return structure


def test_verify_lie_matches_the_dense_jacobiator(rng):
    outcomes = Counter()
    for _ in range(60):
        dim = rng.randint(3, 5)
        if rng.random() < 0.3:
            structure = dict(random_solvable(rng, dim).structure)
        else:
            structure = _random_table(rng, dim)
        basis = " ".join(f"e{i}" for i in range(dim))
        want = dense_first_violation(basis, structure)
        outcomes[want is None] += 1
        if want is None:
            assert verify_lie(basis, structure).structure == structure
            continue
        with pytest.raises(JacobiViolation) as err:
            verify_lie(basis, structure)
        assert (err.value.triple, err.value.residual) == want
    assert outcomes[True] > 0 and outcomes[False] > 0


@pytest.mark.parametrize(
    "vec, want",
    [
        ((F(0), F(1), F(0)), 1),
        ((1, 0, 0, 0), 0),
        ((0,), None),
        ((), None),
        ((0, 0, 0), None),
        ((F(1, 2), 0), None),
        ((1, 1), None),
        ((0, -1), None),
        ((0, 2, 0), None),
        ((1, F(1, 3)), None),
    ],
)
def test_unit_index(vec, want):
    assert unit_index(vec) == want
    assert unit_index(list(vec)) == want


@pytest.mark.parametrize(
    "basis, structure",
    [
        ("x y z", {(0, 1): {7: 1}}),  # output index past the basis
        ("x y z", {(0, 1): {3: 1}}),
        ("x y z", {(0, 1): {-1: 1}}),  # would index from the end
        ("x x", {}),  # duplicate basis names
        ("x y x", {(0, 1): {1: 1}}),
    ],
)
def test_verify_rejects_bad_indices_and_names(basis, structure):
    with pytest.raises(ValueError):
        verify_lie(basis, structure)


def test_series_flags():
    assert is_nilpotent(heisenberg()) and is_solvable(heisenberg())
    chain = series(heisenberg(), "lower_central")
    assert [s.dim for s in chain] == [3, 1, 0]
    assert is_solvable(aff2()) and not is_nilpotent(aff2())
    assert [s.dim for s in series(aff2(), "lower_central")][-1] == 1
    ab = abelian(2)
    assert is_solvable(ab) and is_nilpotent(ab)


def test_nilradical_examples():
    # AFF2: ad(ax+by) nilpotent iff a = 0
    n = nilradical(aff2())
    assert n.basis == ((F(0), F(1)),)
    # nilpotent algebra: the whole thing
    assert nilradical(heisenberg()).dim == 3
    # Heisenberg + AFF2 direct sum: <x_H, y_H, z_H, y_A>
    g = verify_lie("xh yh zh xa ya", {(0, 1): {2: 1}, (3, 4): {4: 1}})
    n2 = nilradical(g)
    assert n2.dim == 4
    assert n2.contains((1, 0, 0, 0, 0)) and n2.contains((0, 0, 0, 0, 1))
    assert not n2.contains((0, 0, 0, 1, 0))


def _ad_is_nilpotent(g, v):
    ad = g.ad_matrix(v)
    power = ad
    for _ in range(g.dim - 1):
        power = linalg.mat_mul(ad, power)
    return not any(any(row) for row in power)


def test_nilradical_is_the_common_kernel_of_the_flag_weights():
    # t - s is central, so the nilradical is span(t - s, x); the basis
    # vectors with nilpotent ad and [g, g] span only x
    g = verify_lie("t s x", {(0, 2): {2: 1}, (1, 2): {2: 1}})
    assert nilradical(g) == Subspace(3, [(1, -1, 0), (0, 0, 1)])
    # for solvable g, the ad-nilpotent elements: an ideal of dimension
    # dim g - rank(weights) whose every element has nilpotent ad
    rng = random.Random(5)
    checked = 0
    for _ in range(40):
        base = random_solvable(rng, rng.randint(2, 5))
        for h in (base, random_basis_change(rng, base)):
            try:
                weights = jordan_holder(h).weights
            except EigenvalueNotRational:
                continue
            n = nilradical(h)
            assert n.dim == h.dim - linalg.rank(linalg.sparse(w.values) for w in weights)
            for v in n.basis:
                assert _ad_is_nilpotent(h, v)
                for i in range(h.dim):
                    assert n.contains(h.bracket_vec(basis_vec(i, h.dim), v))
            checked += 1
    assert checked >= 40
    # no rational flag (t rotates x, y): the heuristic, validated
    rotation = verify_lie("t x y", {(0, 1): {2: 1}, (0, 2): {1: -1}})
    with pytest.raises(EigenvalueNotRational):
        jordan_holder(rotation)
    assert nilradical(rotation) == Subspace(3, [(0, 1, 0), (0, 0, 1)])


def test_nilradical_undecided_on_sl2():
    # sl2 is not solvable: the heuristic candidate is not a nilpotent ideal
    sl2 = verify_lie("e f h", {(0, 1): {2: 1}, (0, 2): {0: -2}, (1, 2): {1: 2}})
    with pytest.raises(NilradicalUndecided):
        nilradical(sl2)


def test_jordan_holder_aff2():
    jh = jordan_holder(aff2())
    assert [s.dim for s in jh.chain] == [0, 1, 2]
    assert jh.chain[1].basis == ((F(0), F(1)),)  # <y> first
    assert jh.weights[0].values == (F(1), F(0))
    assert jh.weights[1].values == (F(0), F(0))


def test_jordan_holder_invariant():
    # [x, y_i] - weight_i(x) y_i must fall into the previous chain member
    for g in (heisenberg(), aff2(), eng4()):
        jh = jordan_holder(g)
        for i, (lam, y) in enumerate(zip(jh.weights, jh.generators)):
            for k in range(g.dim):
                x = basis_vec(k, g.dim)
                diff = [
                    a - lam(x) * b for a, b in zip(g.bracket_vec(x, y), y)
                ]
                assert jh.chain[i].contains(diff)


def test_jordan_holder_abelian():
    jh = jordan_holder(abelian(3))
    assert all(w.is_zero() for w in jh.weights)
    assert [s.dim for s in jh.chain] == [0, 1, 2, 3]


def test_jordan_holder_irrational():
    # rotation form [x,y] = z, [x,z] = -y has char poly t^2 + 1 on <y, z>
    rot = verify_lie("x y z", {(0, 1): {2: 1}, (0, 2): {1: -1}})
    assert is_solvable(rot)
    with pytest.raises(EigenvalueNotRational):
        jordan_holder(rot)


def test_jordan_holder_not_solvable():
    # sl2: every eigenvalue of ad h is rational, but no flag of ideals exists
    sl2 = verify_lie("e h f", {(0, 1): {0: -2}, (0, 2): {1: 1}, (1, 2): {2: -2}})
    assert not is_solvable(sl2)
    with pytest.raises(NotSolvable):
        jordan_holder(sl2)


def test_jordan_holder_tests_solvability_only_when_the_flag_fails(monkeypatch):
    from liepoisson import lie

    def unexpected(g):
        raise AssertionError("is_solvable called")

    monkeypatch.setattr(lie, "is_solvable", unexpected)
    for g in (heisenberg(), aff2(), eng4(), family_n(2)):
        jordan_holder(g)
    rot = verify_lie("x y z", {(0, 1): {2: 1}, (0, 2): {1: -1}})
    with pytest.raises(AssertionError):
        jordan_holder(rot)


def test_common_eigenvector_examples():
    lam, vec = common_eigenvector(aff2())
    assert lam.values == (F(1), F(0)) and vec == (F(0), F(1))
    lam0, vec0 = common_eigenvector(abelian(2))
    assert lam0.is_zero()
    heis = heisenberg()
    center = Subspace(3, [(0, 0, 1)])
    lamz, vecz = common_eigenvector(heis, center)
    assert lamz.is_zero() and vecz == (F(0), F(0), F(1))


def test_common_eigenvector_none_vs_irrational():
    rot = verify_lie("x y z", {(0, 1): {2: 1}, (0, 2): {1: -1}})
    with pytest.raises(EigenvalueNotRational):
        common_eigenvector(rot, Subspace(3, [(0, 1, 0), (0, 0, 1)]))
    # a non-invariant search space with no eigenvector reports None
    assert common_eigenvector(aff2(), Subspace(2, [(1, 0)])) is None


def test_derived_series_bounded(rng):
    for _ in range(25):
        g = random_solvable(rng, rng.randint(1, 5))
        chain = series(g, "derived")
        assert chain[-1].dim == 0
        assert len(chain) <= g.dim + 1


def test_random_solvable_valid(rng):
    # the generator only produces tables that pass the Jacobi check
    for _ in range(25):
        g = random_solvable(rng, rng.randint(1, 5))
        assert is_solvable(g)


def test_coordinate_subalgebra():
    # [x, y] = z leaves span{x, y}
    assert coordinate_subalgebra(heisenberg(), [0, 1]) is None
    sub = coordinate_subalgebra(eng4(), [0, 2, 3])
    assert sub.names() == ["e1", "e3", "e4"]
    assert sub.structure == {(0, 1): {2: 1}}


def test_span_subalgebra_on_a_random_basis():
    g = eng4()
    mat = random_unimodular(random.Random(2), g.dim)
    vecs = [tuple(row[j] for row in mat) for j in range(g.dim)]
    # neither in echelon form nor coordinate-aligned
    assert Subspace(g.dim, vecs).basis != tuple(vecs)
    assert any(sum(c != 0 for c in v) > 1 for v in vecs)
    names = [f"c{i+1}" for i in range(g.dim)]
    sub = span_subalgebra(g, vecs, names)
    assert sub.names() == names
    for a in range(g.dim):
        for b in range(a + 1, g.dim):
            combo = [F(0)] * g.dim
            for k, c in sub.bracket_basis(a, b).items():
                combo = [x + c * y for x, y in zip(combo, vecs[k])]
            assert tuple(combo) == g.bracket_vec(vecs[a], vecs[b])
    assert sub.structure  # eng4 is not abelian in any basis
    verify_lie(sub.basis, sub.structure)
    # [x + z, y] = z leaves span{x + z, y}
    assert span_subalgebra(heisenberg(), [(1, 0, 1), (0, 1, 0)], ["a", "b"]) is None


# ---------------------------------------------------------------------------
# the ideal flag against an independent oracle, its cost and its order


def _nonzero_rational(rng):
    num = rng.choice([n for n in range(-6, 7) if n])
    return F(num, rng.randint(1, 4))


def _workload_algebras(seed):
    """The Lie algebras of the ideal-decompose, weight-search and
    localized-certify benchmark workloads, built as the benchmark does."""
    rng = random.Random(seed)
    c1, c2, _ = (_nonzero_rational(rng) for _ in range(3))
    fam = verify_lie("x1 y1 x2 y2 z", {(0, 1): {4: c1}, (2, 3): {4: c2}})
    rng = random.Random(seed)
    a, b, c = (_nonzero_rational(rng) for _ in range(3))
    ws = verify_lie("t s x y", {(0, 2): {2: a}, (1, 3): {3: b}, (0, 3): {3: c}})
    rng = random.Random(seed)
    a, b = (_nonzero_rational(rng) for _ in range(2))
    lc = verify_lie("e1 e2 e3 e4", {(0, 1): {2: a}, (0, 2): {3: b}})
    return [fam, ws, lc]


def _flag_algebras():
    algs = [prob.lie for prob in lie_fixtures()]
    assert len(algs) == 5
    return algs + _workload_algebras(11) + _workload_algebras(23)


def test_jordan_holder_weights_are_the_ad_eigenvalues():
    # oracle: sympy's eigenvalues of each ad x_i, with algebraic
    # multiplicity; a full flag of ideals triangularizes every ad x_i, so
    # the flag weights at x_i are exactly those eigenvalues
    sympy = pytest.importorskip("sympy")
    for g in _flag_algebras():
        jh = jordan_holder(g)
        assert [s.dim for s in jh.chain] == list(range(g.dim + 1))
        for i in range(g.dim):
            ad = g.ad_matrix(basis_vec(i, g.dim))
            ad = sympy.Matrix([[sympy.Rational(str(c)) for c in row] for row in ad])
            got = Counter(sympy.Rational(str(w.values[i])) for w in jh.weights)
            assert got == Counter(ad.eigenvals()), g.names()
        for member in jh.chain:
            for v in member.basis:
                for i in range(g.dim):
                    assert member.contains(g.bracket_vec(basis_vec(i, g.dim), v))
        vectors = [w.values for w in jh.weights] + list(jh.generators)
        vectors += [v for member in jh.chain for v in member.basis]
        assert all(isinstance(c, Fraction) for v in vectors for c in v)


@pytest.mark.parametrize(
    "g, triangular",
    [
        (family_n(2), True),
        (_workload_algebras(11)[1], True),
        (random_basis_change(random.Random(2), family_n(2)), False),
    ],
    ids=["family_n(2)", "weight-search", "basis-change"],
)
def test_jordan_holder_takes_one_charpoly_per_generator(g, triangular, monkeypatch):
    # one eigenvalue list of ad x_i on g serves every flag step (25 charpoly
    # calls on family_n(2) and 27 on the weight-search algebra when each step
    # took its own); a triangular ad x_i gives it off its diagonal, with no
    # characteristic polynomial, and the basis change makes every ad x_i of
    # family_n(2) non-triangular
    calls = []
    charpoly = linalg.charpoly

    def counted(mat):
        calls.append(len(mat))
        return charpoly(mat)

    monkeypatch.setattr(linalg, "charpoly", counted)
    jordan_holder(g)
    if triangular:
        assert calls == []
    else:
        assert len(calls) <= g.dim
        assert set(calls) == {g.dim}


def prime_family(n):
    """t acting on x0..x(n-1) by 1/13, 2/17, 3/19, 5/23, ...: diagonal ad
    matrices whose characteristic polynomials have large denominators."""
    scales = [F(1, 13), F(2, 17), F(3, 19), F(5, 23), F(7, 29), F(11, 31), F(13, 37), F(17, 41)]
    names = "t " + " ".join(f"x{i}" for i in range(n))
    return verify_lie(names, {(0, 1 + i): {1 + i: scales[i]} for i in range(n)})


def test_jordan_holder_reads_the_prime_family_off_the_diagonal(monkeypatch):
    # a count guard, not a time test: through the characteristic polynomial
    # and the rational-root divisor search this flag took seconds at n = 8
    calls = []
    for name in ("charpoly", "_divisors"):

        def counted(*args, _name=name, _f=getattr(linalg, name)):
            calls.append(_name)
            return _f(*args)

        monkeypatch.setattr(linalg, name, counted)
    g = prime_family(8)
    jh = jordan_holder(g)
    assert calls == []
    assert [s.dim for s in jh.chain] == list(range(10))
    for i in range(g.dim):
        ad = g.ad_matrix(basis_vec(i, g.dim))
        assert sorted(w.values[i] for w in jh.weights) == sorted(ad[k][k] for k in range(g.dim))


def _diag(*entries):
    n = len(entries)
    return [[F(entries[i]) if i == j else F(0) for j in range(n)] for i in range(n)]


def joint_eigenspaces(ops, dim, restrict=None):
    """Every joint eigenspace of the matrices ``ops`` on Q^dim (inside
    ``restrict``), as ``_joint_eigenspaces`` lists them."""
    rows = [[linalg.sparse(row) for row in op] for op in ops]
    equations = restrict.equations() if restrict is not None else ()
    roots = lambda level: linalg.rational_roots(linalg.charpoly(ops[level]))
    return list(_joint_eigenspaces(rows, dim, equations, roots))


def test_module_eigenspaces_lists_every_joint_eigenspace_in_order():
    # depth first, each operator's eigenvalues ascending
    ops = [_diag(1, 0, 1, 2, 1), _diag(0, 0, 3, 0, 0)]
    found = joint_eigenspaces(ops, 5)
    assert [vals for vals, _ in found] == [(0, 0), (1, 0), (1, 3), (2, 0)]
    e = [basis_vec(i, 5) for i in range(5)]
    assert [space for _, space in found] == [
        Subspace(5, [e[1]]),
        Subspace(5, [e[0], e[4]]),
        Subspace(5, [e[2]]),
        Subspace(5, [e[3]]),
    ]
    # restricted to <e0 + e2, e4>: only the part of (1, 0) inside it
    sub = Subspace(5, [(1, 0, 1, 0, 0), e[4]])
    assert [(v, s.dim) for v, s in joint_eigenspaces(ops, 5, sub)] == [((1, 0), 1)]
    # the same operators in another basis keep the order of the values
    mat = random_unimodular(random.Random(5), 5)
    inv = linalg.mat_inverse(mat)
    conj = [linalg.mat_mul(linalg.mat_mul(mat, op), inv) for op in ops]
    found_conj = joint_eigenspaces(conj, 5)
    assert [v for v, _ in found_conj] == [v for v, _ in found]
    assert [s.dim for _, s in found_conj] == [1, 2, 1, 1]


def test_common_eigenvector_and_first_flag_step_take_the_first_eigenspace():
    for g in _flag_algebras() + [heisenberg(), aff2(), eng4(), abelian(3)]:
        ops = [g.ad_matrix(basis_vec(i, g.dim)) for i in range(g.dim)]
        vals, space = joint_eigenspaces(ops, g.dim)[0]
        lam, vec = common_eigenvector(g)
        assert lam.values == vals and vec == space.basis[0]
        jh = jordan_holder(g)
        assert jh.weights[0] == lam and jh.generators[0] == vec


@pytest.mark.parametrize(
    "call",
    [
        lambda: Weight((1, 2))((1, 2, 3)),  # which read 5
        lambda: vec_add((1, 2), (1, 2, 3)),  # which read (2, 4)
        lambda: aff2().bracket_vec((1, 0, 5), (0, 1)),  # which dropped the 5
        lambda: aff2().bracket_vec((1, 0), (0,)),
    ],
    ids=["weight", "vec-add", "bracket-vec-long", "bracket-vec-short"],
)
def test_dense_helpers_refuse_a_vector_of_another_length(call):
    with pytest.raises(ValueError):
        call()
