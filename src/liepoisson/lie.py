"""Finite-dimensional Lie algebras over the rationals via structure constants.

The bracket is stored sparsely on ordered index pairs (antisymmetry is built
into the storage), Jacobi is verified when an algebra is built through
``verify_lie``, and all eigenvalue searches are restricted to rational roots:
an input whose flag construction would need an irrational eigenvalue is
rejected with ``EigenvalueNotRational`` rather than approximated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from . import linalg
from .errors import EigenvalueNotRational, JacobiViolation, NilradicalUndecided
from .polys import Context, VarSpec, make_vars

Vec = tuple[Fraction, ...]


def vec_add(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b))


def basis_vec(i: int, dim: int) -> Vec:
    return tuple(Fraction(1 if j == i else 0) for j in range(dim))


@dataclass(frozen=True)
class Weight:
    """Rational linear form given by its values on the ambient basis."""

    values: Vec

    def __call__(self, vec: Sequence[Fraction]) -> Fraction:
        return sum((a * b for a, b in zip(self.values, vec)), Fraction(0))

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values)

    def __add__(self, other: "Weight") -> "Weight":
        return Weight(vec_add(self.values, other.values))


class Subspace:
    """Subspace of Q^n held in reduced row echelon form, so equality of
    subspaces is equality of the stored bases."""

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, vectors: Iterable[Sequence[Fraction]] = ()):
        ech = linalg.Echelon()
        for v in vectors:
            ech.add({j: Fraction(c) for j, c in enumerate(v) if c != 0})
        rows = []
        for p in ech.pivots():
            row = ech.rows[p]
            piv = Fraction(row[p])
            rows.append(
                tuple(Fraction(row.get(j, 0)) / piv for j in range(ambient_dim))
            )
        self.ambient_dim = ambient_dim
        self.basis = tuple(rows)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient_dim})"

    def reduce(self, vec: Sequence[Fraction]) -> Vec:
        """Residual of vec modulo the subspace (pivot coordinates cleared)."""
        v = list(map(Fraction, vec))
        for row in self.basis:
            piv = next(j for j, c in enumerate(row) if c == 1)
            c = v[piv]
            if c != 0:
                v = [a - c * b for a, b in zip(v, row)]
        return tuple(v)

    def contains(self, vec) -> bool:
        return all(c == 0 for c in self.reduce(vec))

    def sum_with(self, other: "Subspace") -> "Subspace":
        return Subspace(self.ambient_dim, list(self.basis) + list(other.basis))

    def free_columns(self) -> list[int]:
        pivots = {next(j for j, c in enumerate(row) if c == 1) for row in self.basis}
        return [j for j in range(self.ambient_dim) if j not in pivots]


@dataclass(frozen=True)
class LieAlgebra:
    """Structure constants on an ordered basis; build via ``verify_lie``."""

    basis: Context
    structure: dict[tuple[int, int], dict[int, Fraction]] = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def bracket_basis(self, i: int, j: int) -> dict[int, Fraction]:
        """[e_i, e_j] as a sparse coordinate vector."""
        if i == j:
            return {}
        if i < j:
            return dict(self.structure.get((i, j), {}))
        return {k: -c for k, c in self.structure.get((j, i), {}).items()}

    def bracket_vec(self, u: Sequence[Fraction], v: Sequence[Fraction]) -> Vec:
        out = [Fraction(0)] * self.dim
        for i, a in enumerate(u):
            if a == 0:
                continue
            for j, b in enumerate(v):
                if b == 0:
                    continue
                for k, c in self.bracket_basis(i, j).items():
                    out[k] += a * b * c
        return tuple(out)

    def ad_matrix(self, x: Sequence[Fraction]) -> list[list[Fraction]]:
        """Matrix of ad x (columns are [x, e_j])."""
        cols = [self.bracket_vec(x, basis_vec(j, self.dim)) for j in range(self.dim)]
        return [[cols[j][i] for j in range(self.dim)] for i in range(self.dim)]

    def names(self) -> list[str]:
        return [v.name for v in self.basis]


def verify_lie(basis: Context | str | Sequence[str], structure) -> LieAlgebra:
    """Validate a structure-constant table and return the algebra.

    ``structure`` maps ordered index pairs (i, j) with i < j to sparse
    rational vectors.  Raises ``JacobiViolation`` naming the first failing
    triple together with the residual vector.
    """
    if not isinstance(basis, tuple) or not all(isinstance(v, VarSpec) for v in basis):
        basis = make_vars(basis)
    norm: dict[tuple[int, int], dict[int, Fraction]] = {}
    for (i, j), vec in structure.items():
        if not (0 <= i < j < len(basis)):
            raise ValueError(f"bad index pair {(i, j)}")
        entry = {int(k): Fraction(c) for k, c in vec.items() if Fraction(c) != 0}
        if entry:
            norm[(i, j)] = entry
    g = LieAlgebra(basis, norm)
    m = g.dim
    for i in range(m):
        for j in range(i + 1, m):
            for k in range(j + 1, m):
                res = [Fraction(0)] * m
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    inner = g.bracket_basis(b, c)
                    vecb = [Fraction(0)] * m
                    for t, v in inner.items():
                        vecb[t] = v
                    outer = g.bracket_vec(basis_vec(a, m), vecb)
                    res = [x + y for x, y in zip(res, outer)]
                if any(v != 0 for v in res):
                    raise JacobiViolation(i, j, k, tuple(res))
    return g


def coordinate_subalgebra(g: LieAlgebra, idx: Sequence[int]) -> LieAlgebra | None:
    """The subalgebra spanned by the basis vectors e_k, k in idx, presented
    on them in that order; None when a bracket leaves their span."""
    pos = {k: a for a, k in enumerate(idx)}
    structure = {}
    for a in range(len(idx)):
        for b in range(a + 1, len(idx)):
            vec = g.bracket_basis(idx[a], idx[b])
            if any(k not in pos for k in vec):
                return None
            if vec:
                structure[(a, b)] = {pos[k]: c for k, c in vec.items()}
    return LieAlgebra(tuple(g.basis[k] for k in idx), structure)


# ---------------------------------------------------------------------------
# series and flags


def _bracket_spaces(g: LieAlgebra, a: Subspace, b: Subspace) -> Subspace:
    vecs = [g.bracket_vec(u, v) for u in a.basis for v in b.basis]
    return Subspace(g.dim, vecs)


def full_space(g: LieAlgebra) -> Subspace:
    return Subspace(g.dim, [basis_vec(i, g.dim) for i in range(g.dim)])


def series(g: LieAlgebra, kind: str) -> list[Subspace]:
    """Derived or lower-central series, from g down to stabilization."""
    if kind not in ("derived", "lower_central"):
        raise ValueError(kind)
    chain = [full_space(g)]
    while True:
        prev = chain[-1]
        nxt = (
            _bracket_spaces(g, prev, prev)
            if kind == "derived"
            else _bracket_spaces(g, chain[0], prev)
        )
        if nxt == prev:
            break
        chain.append(nxt)
        if nxt.dim == 0:
            break
    return chain


def is_solvable(g: LieAlgebra) -> bool:
    return series(g, "derived")[-1].dim == 0


def is_nilpotent(g: LieAlgebra) -> bool:
    return series(g, "lower_central")[-1].dim == 0


def derived_subalgebra(g: LieAlgebra) -> Subspace:
    full = full_space(g)
    return _bracket_spaces(g, full, full)


def _is_nilpotent_matrix(mat) -> bool:
    cp = linalg.charpoly(mat)
    return all(c == 0 for c in cp[:-1])


def _subalgebra_on(g: LieAlgebra, space: Subspace) -> LieAlgebra | None:
    """Lie algebra structure induced on a bracket-closed subspace, expressed
    on the echelon basis; None if the subspace is not closed."""
    vecs = list(space.basis)
    structure = {}
    for a in range(len(vecs)):
        for b in range(a + 1, len(vecs)):
            w = g.bracket_vec(vecs[a], vecs[b])
            coords = _coords_in(space, w)
            if coords is None:
                return None
            entry = {k: c for k, c in enumerate(coords) if c != 0}
            if entry:
                structure[(a, b)] = entry
    sub_basis = make_vars([f"u{i}" for i in range(len(vecs))])
    return LieAlgebra(sub_basis, structure)


def _coords_in(space: Subspace, vec) -> list[Fraction] | None:
    if not space.contains(vec):
        return None
    v = list(map(Fraction, vec))
    coords = []
    for row in space.basis:
        piv = next(j for j, c in enumerate(row) if c == 1)
        c = v[piv]
        coords.append(c)
        if c != 0:
            v = [a - c * b for a, b in zip(v, row)]
    return coords


def nilradical(g: LieAlgebra) -> Subspace:
    """Largest nilpotent ideal, via the ad-nilpotent candidate heuristic.

    Candidates are the basis vectors with nilpotent ad plus a basis of
    [g, g]; the span must validate as a nilpotent ideal containing [g, g],
    otherwise ``NilradicalUndecided`` asks the caller to supply it.
    """
    cands = [
        basis_vec(i, g.dim)
        for i in range(g.dim)
        if _is_nilpotent_matrix(g.ad_matrix(basis_vec(i, g.dim)))
    ]
    n = Subspace(g.dim, cands).sum_with(derived_subalgebra(g))
    # validation: bracket-closed ideal, nilpotent, containing [g, g]
    for i in range(g.dim):
        for v in n.basis:
            if not n.contains(g.bracket_vec(basis_vec(i, g.dim), v)):
                raise NilradicalUndecided("candidate span is not an ideal")
    sub = _subalgebra_on(g, n)
    if sub is None:
        raise NilradicalUndecided("candidate span not closed under bracket")
    if not is_nilpotent(sub):
        raise NilradicalUndecided("candidate ideal is not nilpotent")
    return n


# ---------------------------------------------------------------------------
# common eigenvectors and Jordan-Hoelder flags


def module_eigenspaces(
    ops: Sequence[Sequence[Sequence[Fraction]]], dim: int, restrict: Subspace | None = None
) -> list[tuple[tuple[Fraction, ...], Subspace]]:
    """All joint eigenspaces with rational eigenvalue tuples.

    ``ops`` are square matrices acting on Q^dim.  Candidate eigenvalues for
    each operator are the rational roots of its characteristic polynomial;
    branches with empty intersection are pruned.  Returns (values, space)
    pairs in deterministic order.
    """
    space = restrict if restrict is not None else Subspace(dim, [basis_vec(i, dim) for i in range(dim)])
    results: list[tuple[tuple[Fraction, ...], Subspace]] = []

    def descend(level: int, vals: tuple[Fraction, ...], cur: Subspace):
        if cur.dim == 0:
            return
        if level == len(ops):
            results.append((vals, cur))
            return
        mat = ops[level]
        for c in linalg.rational_roots(linalg.charpoly(mat)):
            rows = []
            for v in cur.basis:
                img = linalg.mat_vec(mat, v)
                rows.append(tuple(a - c * b for a, b in zip(img, v)))
            # solve for combos of cur.basis mapped to zero by (op - c)
            coeff_rows = [
                {i: rows[i][j] for i in range(len(rows)) if rows[i][j] != 0}
                for j in range(dim)
            ]
            kernel = linalg.nullspace(coeff_rows, len(rows))
            vecs = []
            for combo in kernel:
                w = [Fraction(0)] * dim
                for a, v in zip(combo, cur.basis):
                    if a != 0:
                        w = [x + a * y for x, y in zip(w, v)]
                vecs.append(tuple(w))
            sub = Subspace(dim, vecs)
            descend(level + 1, vals + (c,), sub)

    descend(0, (), space)
    return results


def common_eigenvector(
    g: LieAlgebra, restrict_to: Subspace | None = None
) -> tuple[Weight, Vec] | None:
    """A nonzero y in the restriction with [x, y] = weight(x) y for all x,
    when one exists with rational weight.

    Returns None when the search space is not even ad-invariant and nothing
    is found; raises ``EigenvalueNotRational`` when invariance guarantees a
    common eigenvector over the algebraic closure but none is rational.
    """
    space = restrict_to if restrict_to is not None else full_space(g)
    if space.dim == 0:
        return None
    ops = [g.ad_matrix(basis_vec(i, g.dim)) for i in range(g.dim)]
    found = module_eigenspaces(ops, g.dim, space)
    if found:
        vals, sub = found[0]
        return Weight(vals), sub.basis[0]
    invariant = all(
        space.contains(linalg.mat_vec(op, v)) for op in ops for v in space.basis
    )
    if invariant and is_solvable(g):
        raise EigenvalueNotRational("(no rational joint eigenvalue on an invariant subspace)")
    return None


@dataclass(frozen=True)
class JordanHolderData:
    """Full flag of ideals 0 = g_0 < g_1 < ... < g_m = g with the weight of
    each 1-dimensional step; ``generators[i]`` spans g_{i+1} over g_i."""

    chain: tuple[Subspace, ...]
    weights: tuple[Weight, ...]
    generators: tuple[Vec, ...]


def jordan_holder(g: LieAlgebra) -> JordanHolderData:
    """Flag of ideals built by repeated rational common-eigenvector search
    on the quotient of the adjoint module."""
    m = g.dim
    current = Subspace(m, [])
    chain = [current]
    weights: list[Weight] = []
    gens: list[Vec] = []
    ops_full = [g.ad_matrix(basis_vec(i, m)) for i in range(m)]
    while current.dim < m:
        free = current.free_columns()
        # induced operators on the quotient, in free-column coordinates
        qdim = len(free)
        qops = []
        for op in ops_full:
            cols = []
            for f in free:
                img = linalg.mat_vec(op, basis_vec(f, m))
                red = current.reduce(img)
                cols.append([red[j] for j in free])
            qops.append([[cols[j][i] for j in range(qdim)] for i in range(qdim)])
        found = module_eigenspaces(qops, qdim)
        if not found:
            raise EigenvalueNotRational("(while building the ideal flag)")
        vals, sub = found[0]
        coords = sub.basis[0]
        lift = [Fraction(0)] * m
        for c, f in zip(coords, free):
            lift[f] = c
        gens.append(tuple(lift))
        weights.append(Weight(vals))
        current = current.sum_with(Subspace(m, [tuple(lift)]))
        chain.append(current)
    return JordanHolderData(tuple(chain), tuple(weights), tuple(gens))
