"""Finite-dimensional Lie algebras over the rationals via structure constants.

The bracket is stored sparsely on ordered index pairs (antisymmetry is built
into the storage), Jacobi is verified when an algebra is built through
``verify_lie``, and all eigenvalue searches are restricted to rational roots:
an input whose flag construction would need an irrational eigenvalue is
rejected with ``EigenvalueNotRational`` rather than approximated, and a
non-solvable input, which has no flag of ideals, with ``NotSolvable``.

Subspaces of Q^n are held in reduced row echelon form, so a subspace has
exactly one stored basis whatever vectors spanned it.  Kernels and
intersections may therefore be taken from any spanning set and still come
out identical; ``Subspace.kernel`` is the one dense kernel
(``Subspace.intersect`` and the kernels of the skew forms in ``bvwg``).
Joint eigenspaces are solved on sparse integer equations instead, by the
one search ``_joint_eigenspaces``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from typing import Iterable, Sequence

from . import linalg
from .errors import EigenvalueNotRational, JacobiViolation, NilradicalUndecided, NotSolvable
from .polys import Context, VarSpec, make_vars

Vec = tuple[Fraction, ...]


def vec_add(a: Vec, b: Vec) -> Vec:
    if len(a) != len(b):
        raise ValueError(f"vectors of different lengths: {a}, {b}")
    return tuple(x + y for x, y in zip(a, b))


def basis_vec(i: int, dim: int) -> Vec:
    return tuple(Fraction(1 if j == i else 0) for j in range(dim))


def unit_index(vec: Sequence) -> int | None:
    """i when vec is the standard basis vector e_i (one entry 1, the rest
    0), else None."""
    if vec.count(1) != 1 or vec.count(0) != len(vec) - 1:
        return None
    return vec.index(1)


@dataclass(frozen=True)
class Weight:
    """Rational linear form given by its values on the ambient basis."""

    values: Vec

    def __call__(self, vec: Sequence[Fraction]) -> Fraction:
        if len(vec) != len(self.values):
            raise ValueError(f"not a vector of Q^{len(self.values)}: {vec}")
        return sum((a * b for a, b in zip(self.values, vec)), Fraction(0))

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values)

    def __add__(self, other: "Weight") -> "Weight":
        return Weight(vec_add(self.values, other.values))


class Subspace:
    """Subspace of Q^n held in reduced row echelon form, so equality of
    subspaces is equality of the stored bases.  The form is unique, so
    ``kernel`` and ``intersect`` give the same subspace, basis and all,
    from whichever spanning set they are computed."""

    __slots__ = ("ambient_dim", "basis", "pivots")

    def __init__(self, ambient_dim: int, vectors: Iterable[Sequence[Fraction] | dict] = ()):
        """The span of dense vectors and of sparse ones, {coordinate: entry}
        as ``linalg.nullspace`` gives them; ValueError for any other."""
        ech = linalg.Echelon()
        for v in vectors:
            dense = not isinstance(v, dict)
            if len(v) != ambient_dim if dense else v.keys() - range(ambient_dim):
                raise ValueError(f"not a vector of Q^{ambient_dim}: {v}")
            ech.add(linalg.sparse(v) if dense else v)
        rows = []
        zero = Fraction(0)
        self.pivots = tuple(ech.pivots())
        for p in self.pivots:
            row = ech.rows[p]
            rows.append(
                tuple(
                    Fraction(row[j], row[p]) if j in row else zero
                    for j in range(ambient_dim)
                )
            )
        self.ambient_dim = ambient_dim
        self.basis = tuple(rows)

    @classmethod
    def whole(cls, dim: int) -> "Subspace":
        return cls(dim, [basis_vec(i, dim) for i in range(dim)])

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
        if len(vec) != self.ambient_dim:
            raise ValueError(f"not a vector of Q^{self.ambient_dim}: {vec}")
        v = list(map(Fraction, vec))
        for piv, row in zip(self.pivots, self.basis):
            c = v[piv]
            if c != 0:
                v = [a - c * b for a, b in zip(v, row)]
        return tuple(v)

    def contains(self, vec) -> bool:
        return all(c == 0 for c in self.reduce(vec))

    def sum_with(self, other: "Subspace") -> "Subspace":
        return Subspace(self.ambient_dim, list(self.basis) + list(other.basis))

    def free_columns(self) -> list[int]:
        pivots = set(self.pivots)
        return [j for j in range(self.ambient_dim) if j not in pivots]

    def equations(self) -> list[dict[int, Fraction]]:
        """Sparse rows whose common kernel is the subspace: for each free
        column f, x_f = sum over pivots p of x_p * basis[p][f]."""
        out = []
        for f in self.free_columns():
            row = {f: Fraction(1)}
            for p, vec in zip(self.pivots, self.basis):
                if vec[f]:
                    row[p] = -vec[f]
            out.append(row)
        return out

    def kernel(self, images: Sequence[Sequence[Fraction]]) -> "Subspace":
        """The vectors sum a_i basis[i] with sum a_i images[i] = 0, where
        ``images[i]`` is the image of ``basis[i]`` under a linear map (in
        any coordinates)."""
        if self.dim == 0:
            return self
        rows = [linalg.sparse([img[j] for img in images]) for j in range(len(images[0]))]
        vecs = []
        for combo in linalg.nullspace(rows, self.dim):
            w = [Fraction(0)] * self.ambient_dim
            for i, a in combo.items():
                w = [x + a * y if y else x for x, y in zip(w, self.basis[i])]
            vecs.append(w)
        return Subspace(self.ambient_dim, vecs)

    def intersect(self, other: "Subspace") -> "Subspace":
        """The kernel of the map sending each vector to its residual
        modulo ``other``."""
        if other.ambient_dim != self.ambient_dim:
            raise ValueError(f"subspaces of Q^{self.ambient_dim} and Q^{other.ambient_dim}")
        if other.dim == 0:
            return Subspace(self.ambient_dim)
        return self.kernel([other.reduce(v) for v in self.basis])


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
        if len(u) != self.dim or len(v) != self.dim:
            raise ValueError(f"not vectors of Q^{self.dim}: {u}, {v}")
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
        """Matrix of ad x (columns are [x, e_j]), from the sparse constants."""
        out = [[Fraction(0)] * self.dim for _ in range(self.dim)]
        for i, a in enumerate(x):
            if a:
                for j in range(self.dim):
                    for k, c in self.bracket_basis(i, j).items():
                        out[k][j] += a * c
        return out

    def names(self) -> list[str]:
        return [v.name for v in self.basis]


def verify_lie(basis: Context | str | Sequence[str], structure) -> LieAlgebra:
    """Validate a structure-constant table and return the algebra.

    ``structure`` maps ordered index pairs (i, j) with i < j to sparse
    rational vectors.  Raises ``JacobiViolation`` naming the first failing
    triple together with the residual vector, and ``ValueError`` on a
    repeated basis name or an index outside ``0..dim-1``.
    """
    if not isinstance(basis, tuple) or not all(isinstance(v, VarSpec) for v in basis):
        basis = make_vars(basis)
    names = [v.name for v in basis]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate basis names in {names}")
    norm: dict[tuple[int, int], dict[int, Fraction]] = {}
    for (i, j), vec in structure.items():
        if not (0 <= i < j < len(basis)):
            raise ValueError(f"bad index pair {(i, j)}")
        entry = {int(k): Fraction(c) for k, c in vec.items() if Fraction(c) != 0}
        bad = [k for k in entry if not 0 <= k < len(basis)]
        if bad:
            raise ValueError(
                f"bracket {(i, j)} has output index {bad[0]} "
                f"outside 0..{len(basis) - 1}"
            )
        if entry:
            norm[(i, j)] = entry
    g = LieAlgebra(basis, norm)
    m = g.dim
    for i in range(m):
        for j in range(i + 1, m):
            for k in range(j + 1, m):
                # [e_a, [e_b, e_c]] summed cyclically, over the sparse constants
                res = [Fraction(0)] * m
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    for t, v in g.bracket_basis(b, c).items():
                        for s, w in g.bracket_basis(a, t).items():
                            res[s] += v * w
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


def span_subalgebra(
    g: LieAlgebra, vectors: Sequence[Sequence[Fraction]], names: Sequence[str]
) -> LieAlgebra | None:
    """The span of the independent ``vectors``, presented on them in that
    order under ``names``; None when a bracket leaves the span."""
    rows = [linalg.sparse([v[i] for v in vectors]) for i in range(g.dim)]
    structure = {}
    for a in range(len(vectors)):
        for b in range(a + 1, len(vectors)):
            w = g.bracket_vec(vectors[a], vectors[b])
            coords = linalg.solve(rows, w, len(vectors))
            if coords is None:
                return None
            if coords:
                structure[(a, b)] = coords
    return LieAlgebra(make_vars(names), structure)


# ---------------------------------------------------------------------------
# series and flags


def _bracket_spaces(g: LieAlgebra, a: Subspace, b: Subspace) -> Subspace:
    vecs = [g.bracket_vec(u, v) for u in a.basis for v in b.basis]
    return Subspace(g.dim, vecs)


def series(g: LieAlgebra, kind: str) -> list[Subspace]:
    """Derived or lower-central series, from g down to stabilization."""
    if kind not in ("derived", "lower_central"):
        raise ValueError(kind)
    chain = [Subspace.whole(g.dim)]
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
    full = Subspace.whole(g.dim)
    return _bracket_spaces(g, full, full)


def _is_nilpotent_matrix(mat) -> bool:
    return linalg.rational_eigenvalues(mat) == {0: len(mat)}


def nilradical(g: LieAlgebra) -> Subspace:
    """Largest nilpotent ideal.  For solvable g with a rational flag it is
    the common kernel of the flag weights: in the flag's basis each ad x is
    triangular with diagonal lambda_k(x), and the ad-nilpotent elements of a
    solvable g form its nilradical.

    Where ``jordan_holder`` raises, a heuristic: the basis vectors with
    nilpotent ad plus a basis of [g, g], whose span must validate as a
    nilpotent ideal, otherwise ``NilradicalUndecided`` asks the caller to
    supply it.
    """
    try:
        weights = jordan_holder(g).weights
    except (NotSolvable, EigenvalueNotRational):
        pass
    else:
        return Subspace(g.dim, linalg.nullspace([linalg.sparse(w.values) for w in weights], g.dim))
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
    sub = span_subalgebra(g, n.basis, [f"u{i}" for i in range(n.dim)])
    if sub is None:
        raise NilradicalUndecided("candidate span not closed under bracket")
    if not is_nilpotent(sub):
        raise NilradicalUndecided("candidate ideal is not nilpotent")
    return n


# ---------------------------------------------------------------------------
# common eigenvectors and Jordan-Hoelder flags


def _joint_eigenspaces(rows, dim: int, equations, candidates):
    """Lazily, depth first: the (values, space) pairs of the joint
    eigenspaces of the operators on Q^dim inside the solution space of
    ``equations`` (sparse rows; none for all of Q^dim).  ``rows[level]``
    lists the sparse rows of ``ops[level]`` and ``candidates(level)`` the
    rational roots of its characteristic polynomial, ascending.

    Invariant: the branch (c_0..c_l) holds one ``linalg.Echelon`` of the
    stacked equations ``equations`` and (ops[j] - c_j)·a = 0 for j <= l, in
    the coordinates a of Q^dim; a child copies its parent's echelon and adds
    only its own operator's rows.  The branch's space is the echelon's
    nullspace, so it is pruned when the rank reaches dim, and a leaf takes
    one nullspace and builds its one ``Subspace``."""
    root = linalg.echelon_of(equations)

    def descend(level: int, vals: tuple[Fraction, ...], ech: linalg.Echelon):
        if ech.rank == dim:
            return
        if level == len(rows):
            yield vals, Subspace(dim, linalg.nullspace(ech.rows.values(), dim))
            return
        for c in candidates(level):
            child = ech.copy()
            for r, row in enumerate(rows[level]):
                if c:
                    row = dict(row)
                    if d := row.get(r, 0) - c:
                        row[r] = d
                    else:
                        del row[r]
                if row:
                    child.add(row)
                    if child.rank == dim:
                        break
            yield from descend(level + 1, vals + (c,), child)

    return descend(0, (), root)


def common_eigenvector(
    g: LieAlgebra, restrict_to: Subspace | None = None
) -> tuple[Weight, Vec] | None:
    """A nonzero y in the restriction with [x, y] = weight(x) y for all x,
    when one exists with rational weight.

    Returns None when the search space is not even ad-invariant and nothing
    is found; raises ``EigenvalueNotRational`` when invariance guarantees a
    common eigenvector over the algebraic closure but none is rational.
    """
    space = restrict_to if restrict_to is not None else Subspace.whole(g.dim)
    if space.dim == 0:
        return None
    ops = [g.ad_matrix(basis_vec(i, g.dim)) for i in range(g.dim)]
    rows = [[linalg.sparse(row) for row in op] for op in ops]
    roots = cache(lambda level: list(linalg.rational_eigenvalues(ops[level])))
    found = _joint_eigenspaces(rows, g.dim, space.equations(), roots)
    for vals, sub in found:
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
    on the quotient of the adjoint module.

    Each step searches g/g_j in the coordinates of the free columns of g_j's
    reduced rows, through the one stacked-equation search of
    ``_joint_eigenspaces``; the induced operators are read sparsely from the
    structure constants and those rows, skipping zeros.

    Each chain member g_j is an ideal, so the characteristic polynomial of
    ad x on g is that on g_j times that on g/g_j, and the roots on g_j are
    the weights found so far.  The roots on the quotient are therefore the
    roots on g less those weights, counted with multiplicity (a subset of
    the roots on g): one eigenvalue list per generator, read off the
    diagonal when ad x_i is triangular, serves every step.

    When a quotient has no rational common eigenvector, raises NotSolvable
    if g is not solvable (tested only then) and EigenvalueNotRational
    otherwise."""
    m = g.dim
    current = Subspace(m, [])
    chain = [current]
    weights: list[Weight] = []
    gens: list[Vec] = []
    # root -> multiplicity on the current quotient, for each ad x_i
    remaining = cache(
        lambda level: linalg.rational_eigenvalues(g.ad_matrix(basis_vec(level, m)))
    )

    def candidates(level: int) -> list[Fraction]:
        return [r for r, k in remaining(level).items() if k]

    while current.dim < m:
        free = current.free_columns()
        pos = {f: a for a, f in enumerate(free)}
        # e_p for a pivot p is -(row_p - e_p) modulo g_j, all at free columns
        off = {
            p: [(pos[j], -w) for j, w in enumerate(row) if w and j != p]
            for p, row in zip(current.pivots, current.basis)
        }
        # rows of the induced operators on g/g_j: the column of ad x_i at
        # free column f is [x_i, e_f] modulo g_j
        qrows = []
        for i in range(m):
            rows: list[dict[int, Fraction]] = [{} for _ in free]
            for b, f in enumerate(free):
                for k, c in g.bracket_basis(i, f).items():
                    for a, w in off[k] if k in off else ((pos[k], 1),):
                        rows[a][b] = rows[a].get(b, 0) + c * w
            qrows.append([{b: v for b, v in row.items() if v} for row in rows])
        found = next(_joint_eigenspaces(qrows, len(free), (), candidates), None)
        if found is None:
            if not is_solvable(g):
                raise NotSolvable()
            raise EigenvalueNotRational("(while building the ideal flag)")
        vals, sub = found
        for level, c in enumerate(vals):
            remaining(level)[c] -= 1
        coords = sub.basis[0]
        lift = [Fraction(0)] * m
        for c, f in zip(coords, free):
            lift[f] = c
        gens.append(tuple(lift))
        weights.append(Weight(vals))
        current = current.sum_with(Subspace(m, [tuple(lift)]))
        chain.append(current)
    return JordanHolderData(tuple(chain), tuple(weights), tuple(gens))
