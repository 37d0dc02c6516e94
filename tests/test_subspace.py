"""Dense subspace algebra: ``Subspace.kernel`` and ``Subspace.intersect``
against the stacked solves they replace, kept here as references, and the
rank-raising complements against the greedy loops that rebuilt a subspace
per candidate vector."""

import random
from fractions import Fraction

import pytest

from liepoisson import bvwg, linalg
from liepoisson.errors import EigenvalueNotRational
from liepoisson.invariants import ghat
from liepoisson.lie import Subspace, basis_vec

from conftest import (
    abelian,
    aff2,
    eng4,
    family_n,
    heisenberg,
    random_bvwg,
    random_solvable,
)

F = Fraction


def eigen_kernel_reference(mat, c, cur):
    """Reference: the vectors of ``cur`` that ``mat - c`` maps to zero, by
    one nullspace over the coefficients of cur's basis."""
    dim = cur.ambient_dim
    rows = []
    for v in cur.basis:
        img = linalg.mat_vec(mat, v)
        rows.append(tuple(a - c * b if b else a for a, b in zip(img, v)))
    coeff_rows = [
        {i: rows[i][j] for i in range(len(rows)) if rows[i][j] != 0}
        for j in range(dim)
    ]
    vecs = []
    for combo in linalg.nullspace(coeff_rows, len(rows)):
        w = [F(0)] * dim
        for i, a in combo.items():
            w = [x + a * y if y else x for x, y in zip(w, cur.basis[i])]
        vecs.append(tuple(w))
    return Subspace(dim, vecs)


def intersect_reference(a, b):
    """Reference: the kernel of the stacked coordinate solve
    sum x_i a_i - sum y_j b_j = 0, lifted through the a side."""
    if a.dim == 0 or b.dim == 0:
        return Subspace(a.ambient_dim, [])
    rows = []
    for coord in range(a.ambient_dim):
        row = {}
        for i, v in enumerate(a.basis):
            if v[coord] != 0:
                row[i] = v[coord]
        for j, w in enumerate(b.basis):
            if w[coord] != 0:
                row[a.dim + j] = -w[coord]
        if row:
            rows.append(row)
    vecs = []
    for combo in linalg.nullspace(rows, a.dim + b.dim):
        vec = [F(0)] * a.ambient_dim
        for i, c in combo.items():
            if i < a.dim:
                vec = [x + c * y for x, y in zip(vec, a.basis[i])]
        vecs.append(tuple(vec))
    return Subspace(a.ambient_dim, vecs)


def greedy_extension(n, basis, candidates):
    """Reference: append each candidate that a rebuilt subspace of
    ``basis`` plus it shows to raise the dimension."""
    basis = list(basis)
    taken = []
    for k, v in enumerate(candidates):
        if Subspace(n, basis + [v]).dim > len(basis):
            basis.append(v)
            taken.append(k)
    return basis, taken


def _random_entry(rng):
    return F(rng.choice([-3, -2, -1, 0, 0, 0, 1, 2, 3]), rng.randint(1, 3))


def random_subspace(rng, n):
    """Whole space, zero space, or the span of up to n random vectors
    (often dependent, often sparse)."""
    kind = rng.random()
    if kind < 0.15:
        return Subspace.whole(n)
    if kind < 0.25:
        return Subspace(n)
    k = rng.randint(1, n + 1)
    return Subspace(n, [[_random_entry(rng) for _ in range(n)] for _ in range(k)])


def random_operator(rng, n):
    """A random matrix, or c * I with a few random entries added, so that
    the eigenspaces are often nonzero."""
    mat = [[_random_entry(rng) for _ in range(n)] for _ in range(n)]
    if rng.random() < 0.5:
        c = F(rng.randint(-2, 2))
        mat = [[c if i == j else F(0) for j in range(n)] for i in range(n)]
        for i in range(n):
            if rng.random() < 0.4:
                mat[i][rng.randrange(n)] += _random_entry(rng)
    return mat


def test_subspace_keeps_its_pivots_and_the_whole_space():
    rng = random.Random(7)
    for n in range(1, 7):
        assert Subspace.whole(n).basis == tuple(basis_vec(i, n) for i in range(n))
        for _ in range(20):
            s = random_subspace(rng, n)
            assert s.pivots == tuple(
                next(j for j, c in enumerate(row) if c == 1) for row in s.basis
            )
            assert sorted(s.pivots + tuple(s.free_columns())) == list(range(n))


def test_subspace_takes_sparse_vectors_as_nullspace_gives_them():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(1, 6)
        rows = [
            {j: c for j in range(n) if (c := _random_entry(rng))}
            for _ in range(rng.randint(0, n))
        ]
        kernel = linalg.nullspace(rows, n)
        dense = [tuple(v.get(j, F(0)) for j in range(n)) for v in kernel]
        assert Subspace(n, kernel) == Subspace(n, dense)
        assert Subspace(n, kernel).dim == len(kernel)


@pytest.mark.parametrize(
    "n, vector",
    [
        (2, (1, 2, 3)),  # one coordinate too many, which was dropped
        (3, (0, 0, 1, 5)),  # which was dropped, leaving e3
        (3, (1, 2)),  # one too few
        (3, {3: F(1)}),  # a sparse coordinate past the last
        (3, {-1: F(1), 0: F(2)}),  # and before the first
    ],
)
def test_subspace_refuses_a_vector_outside_its_ambient_space(n, vector):
    with pytest.raises(ValueError):
        Subspace(n, [basis_vec(0, n), vector])


@pytest.mark.parametrize(
    "call",
    [
        lambda e1: e1.reduce((1, 0, 0, 5)),
        lambda e1: e1.contains((1, 0, 0, 5)),  # which read "contains"
        lambda e1: e1.contains((0, 0)),  # and so did this
        lambda e1: Subspace.whole(3).intersect(Subspace(2, [(1, 0)])),  # a basis
        lambda e1: e1.intersect(Subspace(2)),  # the zero space of another Q^n
    ],
    ids=["reduce", "contains-long", "contains-short", "intersect", "intersect-zero"],
)
def test_subspace_methods_refuse_a_vector_of_another_length(call):
    with pytest.raises(ValueError):
        call(Subspace(3, [basis_vec(0, 3)]))


def test_kernel_equals_the_eigen_kernel_reference():
    rng = random.Random(11)
    dims = set()
    for _ in range(300):
        n = rng.randint(1, 6)
        cur = random_subspace(rng, n)
        if cur.dim == 0:
            continue  # the reference needs a nonzero space
        mat = random_operator(rng, n)
        c = F(rng.randint(-2, 2))
        images = [
            [a - c * b for a, b in zip(linalg.mat_vec(mat, v), v)] for v in cur.basis
        ]
        got = cur.kernel(images)
        assert got.basis == eigen_kernel_reference(mat, c, cur).basis
        dims.add((cur.dim == n, got.dim))
    # both whole and proper spaces, zero and nonzero kernels were seen
    assert {(True, 0), (False, 0)} <= dims
    assert any(k > 0 for _, k in dims)


def test_kernel_of_the_zero_space_is_itself_without_a_nullspace(monkeypatch):
    zero = Subspace(4)
    monkeypatch.setattr(linalg, "nullspace", None)
    assert zero.kernel([]) is zero
    assert Subspace.whole(3).intersect(Subspace(3)) == Subspace(3)


def test_intersect_equals_the_stacked_solve_reference():
    rng = random.Random(13)
    seen = set()
    for _ in range(400):
        n = rng.randint(1, 6)
        a, b = random_subspace(rng, n), random_subspace(rng, n)
        got = a.intersect(b)
        assert got.basis == intersect_reference(a, b).basis
        assert got == b.intersect(a)
        seen.add((a.dim, b.dim, got.dim))
    assert any(x == 0 or y == 0 for x, y, _ in seen)
    assert any(k > 0 for _, _, k in seen)


def _ghat_algebras():
    yield from (heisenberg(), aff2(), eng4(), family_n(2), abelian(3))
    rng = random.Random(17)
    for _ in range(12):
        yield random_solvable(rng, rng.randint(2, 4))


def test_ghat_complement_equals_the_greedy_loop():
    sub_dims = set()
    for g in _ghat_algebras():
        try:
            data = ghat(g, None, 2)
        except EigenvalueNotRational:
            continue
        e = [basis_vec(i, g.dim) for i in range(g.dim)]
        _, taken = greedy_extension(g.dim, data.subalgebra.basis, e)
        assert list(data.complement) == taken
        sub_dims.add((data.subalgebra.dim, g.dim))
    assert any(k == n for k, n in sub_dims)  # kernel is everything
    assert any(k < n for k, n in sub_dims)


def test_lattice_adapted_basis_equals_the_greedy_loop():
    rng = random.Random(19)
    for _ in range(200):
        spec = random_bvwg(rng, nmax=6, pmax=3)
        vw, vg = bvwg.omega_kernel(spec), bvwg.lattice_kernel(spec)
        if vw.dim == 0:
            continue
        want, _ = greedy_extension(
            spec.n, intersect_reference(vw, vg).basis, vw.basis
        )
        assert bvwg._lattice_adapted_basis(vw, vg) == want


@pytest.mark.parametrize(
    "spec",
    [
        bvwg.make_spec(["v1", "v2"], [["0", "1"], ["-1", "0"]], ["g"], [["1", "0"]]),
        bvwg.make_spec(
            ["v1", "v2", "v3", "v4"],
            [["0", "1", "0", "0"], ["-1", "0", "0", "0"],
             ["0", "0", "0", "2"], ["0", "0", "-2", "0"]],
            [],
            [],
        ),
    ],
)
def test_is_simple_with_nondegenerate_omega_takes_two_nullspaces(spec, monkeypatch):
    # one for the kernel of omega, one for that of the lattice; the empty
    # kernel of omega ends the intersection before any further solve
    calls = []
    inner = linalg.nullspace
    monkeypatch.setattr(
        linalg, "nullspace", lambda rows, n: calls.append(n) or inner(rows, n)
    )
    simple, cert = bvwg.is_simple(spec)
    assert simple and cert.dim == 0
    assert calls == [spec.n, spec.n]
