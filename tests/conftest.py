"""Shared fixtures: the standard example algebras and seeded random
generators for polynomials, Lie algebras, and lattice specs."""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

import pytest

from liepoisson.bvwg import BVWG
from liepoisson.cli import ProblemFile
from liepoisson.lie import LieAlgebra, verify_lie
from liepoisson.polys import Context, Poly, make_vars


# ---------------------------------------------------------------------------
# named algebras used across the suite


def heisenberg() -> LieAlgebra:
    return verify_lie("x y z", {(0, 1): {2: 1}})


def aff2() -> LieAlgebra:
    return verify_lie("x y", {(0, 1): {1: 1}})


def eng4() -> LieAlgebra:
    return verify_lie("e1 e2 e3 e4", {(0, 1): {2: 1}, (0, 2): {3: 1}})


def abelian(dim: int) -> LieAlgebra:
    return verify_lie(" ".join(f"a{i+1}" for i in range(dim)), {})


def family_n(n: int) -> LieAlgebra:
    """Basis x_1, y_1, ..., x_n, y_n, z with [x_i, y_i] = z."""
    names = []
    for i in range(n):
        names += [f"x{i+1}", f"y{i+1}"]
    names.append("z")
    structure = {(2 * i, 2 * i + 1): {2 * n: 1} for i in range(n)}
    return verify_lie(" ".join(names), structure)


def _matrix_units(units: list[tuple[int, int]]) -> LieAlgebra:
    """The span of the matrix units E_ij, (i, j) in ``units``, under the
    commutator [E_ij, E_pq] = delta_jp E_iq - delta_qi E_pj; E_ii is named
    h{i} and E_ij (i < j) e{i}{j}."""
    index = {u: n for n, u in enumerate(units)}
    structure = {}
    for a, (i, j) in enumerate(units):
        for b in range(a + 1, len(units)):
            p, q = units[b]
            vec = {}
            if j == p:
                vec[index[(i, q)]] = 1
            if q == i:
                vec[index[(p, j)]] = -1
            if vec:
                structure[(a, b)] = vec
    names = [f"h{i}" if i == j else f"e{i}{j}" for i, j in units]
    return verify_lie(" ".join(names), structure)


def _strictly_upper(k: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(1, k + 1) for j in range(i + 1, k + 1)]


def n_k(k: int) -> LieAlgebra:
    """The strictly upper triangular k x k matrices (dimension k(k-1)/2),
    basis e_ij for i < j in lexicographic order."""
    return _matrix_units(_strictly_upper(k))


def b_k(k: int) -> LieAlgebra:
    """The upper triangular k x k matrices, the Borel of n_k: the diagonal
    units h_1..h_k, then the basis of ``n_k``; [h_i, e_jl] is
    (delta_ij - delta_il) e_jl."""
    return _matrix_units([(i, i) for i in range(1, k + 1)] + _strictly_upper(k))


def lie_fixtures() -> list[ProblemFile]:
    """The problem files of tests/data that hold a Lie algebra, in file name
    order (the ``.jsonl`` sweep golden is not a problem file)."""
    data_dir = os.path.join(os.path.dirname(__file__), "data")
    out = []
    for name in sorted(f for f in os.listdir(data_dir) if f.endswith(".json")):
        with open(os.path.join(data_dir, name)) as fh:
            data = json.load(fh)
        if isinstance(data, dict) and "lie" in data:
            out.append(ProblemFile(data))
    return out


def perfbench_workloads() -> dict:
    """The benchmark's workload classes by name, from ``perfbench/workloads.py``
    (it reads the library modules from ``sys.modules``, imported here)."""
    import importlib.util

    import liepoisson.decompose  # noqa: F401  (the workloads' ops need them)
    import liepoisson.invariants  # noqa: F401

    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


# ---------------------------------------------------------------------------
# random generators (seeded by the caller for reproducibility)


def random_poly(
    rng: random.Random,
    ctx: Context,
    max_degree: int = 4,
    max_terms: int = 4,
    laurent: bool = False,
) -> Poly:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = []
        budget = max_degree
        for v in ctx:
            lo = -budget if (laurent and v.invertible) else 0
            e = rng.randint(lo, budget) if budget > 0 else 0
            budget -= abs(e)
            mono.append(e)
        coeff = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        if coeff:
            terms[tuple(mono)] = terms.get(tuple(mono), Fraction(0)) + coeff
    return Poly(ctx, {m: c for m, c in terms.items() if c})


def random_unimodular(rng: random.Random, m: int) -> list[list[Fraction]]:
    """A random m x m integer matrix of determinant 1 (column operations on
    the identity)."""
    mat = [[Fraction(1 if i == j else 0) for j in range(m)] for i in range(m)]
    for _ in range(m):
        i, j = rng.randrange(m), rng.randrange(m)
        if i != j:
            c = Fraction(rng.randint(-2, 2))
            for k in range(m):
                mat[k][j] += c * mat[k][i]
    return mat


def random_basis_change(rng: random.Random, g: LieAlgebra) -> LieAlgebra:
    """Conjugate the structure constants by a random unimodular matrix."""
    from liepoisson import linalg

    m = g.dim
    mat = random_unimodular(rng, m)
    inv = linalg.mat_inverse(mat)
    cols = [[mat[i][j] for i in range(m)] for j in range(m)]
    structure = {}
    for a in range(m):
        for b in range(a + 1, m):
            w = g.bracket_vec(cols[a], cols[b])
            coords = linalg.mat_vec(inv, w)
            entry = {k: c for k, c in enumerate(coords) if c != 0}
            if entry:
                structure[(a, b)] = entry
    names = make_vars([f"b{i+1}" for i in range(m)])
    return verify_lie(names, structure)


def random_solvable(rng: random.Random, dim: int) -> LieAlgebra:
    """A random valid solvable Lie algebra of the requested dimension,
    assembled from known families and semidirect products, then conjugated."""
    kind = rng.choice(["abelian", "sum", "semidirect"])
    if kind == "abelian" or dim == 1:
        g = abelian(dim)
    elif kind == "sum" and dim >= 3:
        g = _direct_sum_fill(rng, dim)
    else:
        # one generator acting on an abelian radical by a random matrix
        k = dim - 1
        structure = {}
        for j in range(k):
            vec = {}
            for i in range(k):
                if rng.random() < 0.5:
                    c = Fraction(rng.randint(-2, 2))
                    if c:
                        vec[1 + i] = c
            if vec:
                structure[(0, 1 + j)] = vec
        g = verify_lie(" ".join(["t"] + [f"n{i+1}" for i in range(k)]), structure)
    return random_basis_change(rng, g)


def _direct_sum_fill(rng: random.Random, dim: int) -> LieAlgebra:
    blocks = []
    left = dim
    while left > 0:
        options = [1]
        if left >= 2:
            options.append(2)
        if left >= 3:
            options.append(3)
        size = rng.choice(options)
        blocks.append(size)
        left -= size
    structure = {}
    names = []
    off = 0
    for size in blocks:
        if size == 1:
            names.append(f"a{off}")
        elif size == 2:
            names += [f"x{off}", f"y{off}"]
            structure[(off, off + 1)] = {off + 1: 1}  # [x, y] = y
        else:
            names += [f"p{off}", f"q{off}", f"r{off}"]
            structure[(off, off + 1)] = {off + 2: 1}  # Heisenberg block
        off += size
    return verify_lie(" ".join(names), structure)


def random_bvwg(rng: random.Random, nmax: int = 3, pmax: int = 2) -> BVWG:
    while True:
        n = rng.randint(0, nmax)
        p = rng.randint(0 if n else 1, pmax)
        omega = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                c = Fraction(rng.randint(-2, 2))
                omega[i][j] = c
                omega[j][i] = -c
        weights = [
            [Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(p)
        ]
        from liepoisson import linalg

        rows = [{j: c for j, c in enumerate(r) if c} for r in weights]
        if linalg.rank(rows) != p:
            continue
        spec = BVWG(
            tuple(f"v{i+1}" for i in range(n)),
            tuple(tuple(r) for r in omega),
            tuple(f"g{i+1}" for i in range(p)),
            tuple(tuple(r) for r in weights),
        )
        return spec


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260808)
