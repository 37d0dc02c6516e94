"""Degree-bounded searches for centers, semi-invariants, and the induced
presentation over the common weight kernel.

All searches are semi-decision procedures: they are exact and complete up to
the degree bound they are given, and the CLI report of each search carries
that bound.  Candidate weights are enumerated inside the natural-number span
of the flag weights, which is exactly the lattice bound that makes the
enumeration finite.

``centralizer(alg, basis)`` is the kernel of the generators' action on a
span: the elements of a finite span in normal form that commute with every
generator.  Its rows are exponent shifts (``spaces.slice_rows``): the
algebras it is solved on (reduced algebras, flag levels, localizations of
them) have Hamiltonian rows of numerators N_ik over denominator 1, so
{x_i, c x^e} = sum_k e_k c N_ik x^(e - 1_k) is already in normal form and
needs no bracket.  The degree-bounded center is the centralizer of a
monomial slice, and the central choice of ``decompose`` that of the images
of a center.  The center is solved once per algebra and degree bound:
``center_up_to_degree`` keeps its numerators in ``alg.centers``, and
``localize`` hands that memo to the localized algebra, whose polynomial
center is the same.  Only ``weight_spaces`` brackets (the weight-search
benchmark counts those brackets and partials, its only ones): it brackets
the slice once, solves the generators that every listed weight sends to
zero once, and solves each weight only for the other generators, on that
kernel.

One ``decompose`` solves one slice: a ``SliceTable``, a value local to the
call, shifts the degree-d slice of the flag's top algebra once for every
generator, in its constructor, and solves the top's center from those
rows; ``share`` solves the center of every level the top covers from the
same rows.  Both fill the algebra's center memo, which
``center_up_to_degree`` then reads.  A flag prefix is an ideal, so for
i < l and a monomial m in the first l variables, {x_i, m} is the same
polynomial in level l as in the top, provided the level's normal form is
the top's on its variables.  It is when the level is covered: when no rule
of the top eliminates one of the level's variables by an image in a later
variable (the level keeps the top's other rules on its variables).  Level
l's rows are then the top's rows of its generators, the first l, at its
own slice monomials, in its own basis order; kernels depend only on the
row space, so the rows keep their top monomial keys and the canonical
``nullspace`` basis is unchanged.  A level that is not covered keeps a
variable that the top eliminates, so its slice and its rows differ from
the top's, and ``center_up_to_degree`` shifts its own slice.  The table
serves degree-d centers only: the hypothesis check's ``weight_spaces``
brackets its own slice, and centers of degree above d shift their own.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from . import linalg
from .errors import ComplementEliminated
from .lie import (
    JordanHolderData,
    LieAlgebra,
    Subspace,
    Weight,
    coordinate_subalgebra,
    jordan_holder,
    unit_index,
)
from .poisson import (
    Derivation,
    LocalElement,
    PoissonAlgebra,
    SubstitutionIdeal,
    reduced_algebra,
    skew_extend,
)
from .polys import Poly
from .spaces import (
    combination,
    common_denominator_rows,
    kernel_coordinates,
    kernel_of_operators,
    operator_rows,
    slice_basis,
    slice_rows,
)

DEFAULT_DEGREE_BOUND = 6


def _generator_actions(alg: PoissonAlgebra) -> list:
    """The operators {v, .}, one per generator v of the algebra."""
    return [lambda el, gen=alg.gen(v.name): alg.bracket(gen, el) for v in alg.vars]


def centralizer(alg: PoissonAlgebra, basis: list[LocalElement]) -> list[tuple]:
    """Basis of the elements of span(basis) commuting with every generator,
    each with its coefficients over ``basis`` (``kernel_of_operators``).
    The basis is in alg's normal form, over central denominators if any, and
    alg's rows carry no denominator: the generators' rows are exponent
    shifts (``spaces.slice_rows``, ValueError otherwise), with no bracket."""
    return kernel_of_operators(alg, basis, slice_rows(alg, basis))


def center_up_to_degree(alg: PoissonAlgebra, d: int) -> list[LocalElement]:
    """Basis of {p : deg p <= d, {v, p} = 0 for all generators v}.

    Solved once per degree bound and kept in ``alg.centers``, which
    ``localize`` shares: a localization is injective and adds no bracket
    between polynomials, so the polynomial center of each slice is the same.
    A ``SliceTable`` fills the memo of the flag levels it covers; any other
    algebra solves the ``centralizer`` of its own slice, from rows by
    exponent shift (its rows must carry no denominator), with no bracket.
    Every call returns a new list of elements with denominator 1."""
    nums = alg.centers.get(d)
    if nums is None:
        nums = _numerators(centralizer(alg, slice_basis(alg, d)))
        alg.centers[d] = nums
    den = (0,) * len(alg.inverted)
    return [LocalElement(num, den) for num in nums]


def _numerators(kernel: list[tuple]) -> tuple[Poly, ...]:
    return tuple(el.num for _, el in kernel)


class SliceTable:
    """The actions of every generator of a flag's top algebra on its
    degree-d slice, computed once by the constructor as exponent shifts
    (``spaces.slice_rows``: the top is a reduced algebra, so its rows carry
    no denominator), which also solves the top's degree-d center from them;
    ``share`` solves the center of every flag level the top covers from the
    same rows (see the module docstring).  One per ``decompose``."""

    def __init__(self, top: PoissonAlgebra, d: int):
        self.d = d
        self.width = len(top.vars)
        self.eliminated = top.ideal.eliminated_names() if top.ideal else set()
        basis = slice_basis(top, d)
        # per generator, one row per slice monomial
        self.rows = slice_rows(top, basis)
        self.at = {mono: k for k, b in enumerate(basis) for mono in b.num.terms}
        top.centers[d] = _numerators(kernel_of_operators(top, basis, self.rows))

    def share(self, level: PoissonAlgebra) -> bool:
        """Solve the degree-d center of ``level``, the algebra on the first
        variables of the top with the top's rules on them whose images use
        none of the later variables, from the table when the top covers it:
        when it eliminates every variable of its own that the top
        eliminates.  Its rows are the top's rows of its generators at its
        slice monomials, in its own basis order.  Whether it is covered."""
        names = {v.name for v in level.vars}
        own = level.ideal.eliminated_names() if level.ideal else set()
        if own != self.eliminated & names:
            return False
        if self.d not in level.centers:
            basis = slice_basis(level, self.d)
            pad = (0,) * (self.width - len(level.vars))
            at = [self.at[mono + pad] for b in basis for mono in b.num.terms]
            rows = [[rows[k] for k in at] for rows in self.rows[: len(level.vars)]]
            level.centers[self.d] = _numerators(kernel_of_operators(level, basis, rows))
        return True


@dataclass(frozen=True)
class SemiInvariantReport:
    entries: tuple[tuple[Weight, tuple[LocalElement, ...]], ...]

    def weight_zero_basis(self) -> tuple[LocalElement, ...]:
        for w, basis in self.entries:
            if w.is_zero():
                return basis
        return ()


def candidate_weights(flag: JordanHolderData, d: int) -> list[Weight]:
    """Distinct natural-number combinations of the flag weights with
    coefficient sum <= d, sorted by their value tuples.

    Enumerated level by level: level t holds the sums of t flag weights
    whose values are new; a value reached again later adds nothing, since
    its successors were already reached one level after its first visit."""
    m = len(flag.weights)
    zero = Weight(tuple(Fraction(0) for _ in range(m)))
    seen = {zero.values: zero}
    level = [zero]
    for _ in range(d):
        new = []
        for w in level:
            for f in flag.weights:
                s = w + f
                if s.values not in seen:
                    seen[s.values] = s
                    new.append(s)
        level = new
    return [seen[k] for k in sorted(seen)]


def nonzero_candidates(flag: JordanHolderData, d: int) -> list[Weight]:
    """The candidate weights other than zero (none for nilpotent g)."""
    return [w for w in candidate_weights(flag, d) if not w.is_zero()]


def semi_invariants(
    g: LieAlgebra,
    ideal: SubstitutionIdeal | None = None,
    d: int = DEFAULT_DEGREE_BOUND,
) -> SemiInvariantReport:
    """All weight spaces with a nonzero degree-<= d representative; the
    weight-zero entry is the degree-bounded center."""
    flag = jordan_holder(g)
    alg = reduced_algebra(g, ideal)
    return SemiInvariantReport(tuple(weight_spaces(alg, d, candidate_weights(flag, d))))


def weight_spaces(alg: PoissonAlgebra, d: int, weights: list[Weight]):
    """Yield (lam, basis) for each listed weight lam, in order, whose space of
    degree-<= d elements a with {x_j, a} = lam(x_j) a is nonzero.

    On the first request (never for an empty list) the actions A_j of the
    generators on the slice are computed once.  A generator x_j with
    lam(x_j) = 0 for every listed lam gives the equations A_j a = 0 for every
    weight, so the joint kernel K0 of those A_j is solved once, in its
    canonical ``nullspace`` basis.  The rows of the other A_j, and of I, are
    restricted to K0 by combining the rows already computed and scaled to
    integers once.  Each weight then solves one kernel on K0, of the rows
    q A_j - p I for lam(x_j) = p/q.

    The bases are those of the kernel of every A_j - lam(x_j) I on the whole
    slice: each K0 basis vector has its last nonzero at its own free
    coordinate and is zero at the others, so the canonical kernel in K0
    coordinates is the canonical kernel in slice coordinates.  With no such
    generator K0 is the slice; for nilpotent g every weight is zero and its
    space is K0."""
    if not weights:
        return
    basis = slice_basis(alg, d)
    actions = operator_rows(alg, basis, _generator_actions(alg))
    # alg is a reduced algebra: it inverts nothing, so every row is over denominator 1
    identity, _ = common_denominator_rows(alg, basis)
    fixed = [all(lam.values[j] == 0 for lam in weights) for j in range(len(actions))]
    moving = [j for j, f in enumerate(fixed) if not f]
    if any(fixed):
        k0 = kernel_coordinates([rows for rows, f in zip(actions, fixed) if f], len(basis))
        basis = [combination(alg, v, basis) for v in k0]
        k0 = [linalg.sparse(v) for v in k0]
        actions = [[_combine_rows(v, actions[j]) for v in k0] for j in moving]
        identity = [_combine_rows(v, identity) for v in k0]
    *actions, identity = _to_integers(actions + [identity])
    for lam in weights:
        shifted = [
            _shift_rows(rows, identity, lam.values[j]) for j, rows in zip(moving, actions)
        ]
        sol = kernel_of_operators(alg, basis, shifted)
        if sol:
            yield lam, tuple(el for _, el in sol)


def _combine_rows(coeffs: dict[int, Fraction], rows):
    """The row sum(a_i rows_i) over the nonzero coefficients a_i."""
    out: dict = {}
    for i, a in coeffs.items():
        for col, c in rows[i].items():
            out[col] = out.get(col, 0) + a * c
    return {col: c for col, c in out.items() if c}


def _to_integers(tables):
    """The row tables times the lcm of all their denominators, as integer rows
    (scaling every equation by one constant leaves each kernel unchanged)."""
    den = lcm(*[c.denominator for rows in tables for row in rows for c in row.values()])
    return [
        [{col: c.numerator * (den // c.denominator) for col, c in row.items()} for row in rows]
        for rows in tables
    ]


def _shift_rows(rows, identity, c: Fraction):
    """Integer rows of q A - p I for c = p/q, given the integer rows of A and
    of I: the equations of A - c I, each scaled by q."""
    if c == 0:
        return rows
    p, q = c.numerator, c.denominator
    out = []
    for row, ident in zip(rows, identity):
        shifted = {col: q * v for col, v in row.items()}
        for col, v in ident.items():
            x = shifted.get(col, 0) - p * v
            if x:
                shifted[col] = x
            else:
                shifted.pop(col, None)
        out.append(shifted)
    return out


@dataclass(frozen=True)
class GhatData:
    subalgebra: Subspace
    complement: tuple[int, ...]  # indices of standard basis vectors
    restricted_ideal: SubstitutionIdeal


def ghat(
    g: LieAlgebra,
    ideal: SubstitutionIdeal | None = None,
    d: int = DEFAULT_DEGREE_BOUND,
) -> GhatData:
    """Intersection of the kernels of all reported weights, certified only
    relative to the degree bound (a larger bound can only shrink it)."""
    flag = jordan_holder(g)
    spaces = weight_spaces(reduced_algebra(g, ideal), d, nonzero_candidates(flag, d))
    rows = [linalg.sparse(w.values) for w, _ in spaces]
    sub = Subspace(g.dim, linalg.nullspace(rows, g.dim))
    # the standard basis vectors that raise the rank over sub, in order
    ech = linalg.echelon_of(map(linalg.sparse, sub.basis))
    complement = [i for i in range(g.dim) if ech.add({i: 1})]
    restricted = _restrict_ideal(g, ideal, sub, complement)
    return GhatData(sub, tuple(complement), restricted)


def _restrict_ideal(
    g: LieAlgebra,
    ideal: SubstitutionIdeal | None,
    sub: Subspace,
    complement: list[int],
) -> SubstitutionIdeal:
    if ideal is None or ideal.is_empty():
        return SubstitutionIdeal(())
    comp_names = {g.basis[i].name for i in complement}
    aligned = _aligned_names(g, sub)
    # images live on the kernel subalgebra's variables, in basis order
    sub_ctx = tuple(u for u in g.basis if u.name in (aligned or ()))
    rules = []
    for v, img in ideal.rules:
        if v.name in comp_names:
            raise ComplementEliminated(v.name)
        if aligned is None or v.name not in aligned or img.variables_used() - aligned:
            raise ComplementEliminated(
                f"{v.name} (rule not supported inside the kernel subalgebra)"
            )
        rules.append((v, img.restrict(sub_ctx)))
    return SubstitutionIdeal(tuple(rules))


def _aligned_names(g: LieAlgebra, sub: Subspace) -> set[str] | None:
    """Names of standard basis vectors spanning the subspace, or None when it
    is not coordinate-aligned."""
    idx = [unit_index(row) for row in sub.basis]
    if None in idx:
        return None
    return {g.basis[k].name for k in idx}


@dataclass(frozen=True)
class GhatPresentation:
    """B(Q) as an iterated skew extension over the kernel subalgebra."""

    data: GhatData
    base: PoissonAlgebra
    derivations: tuple[Derivation, ...]
    derivation_names: tuple[str, ...]
    rebuilt: PoissonAlgebra
    matches: bool


def present_over_ghat(
    g: LieAlgebra,
    ideal: SubstitutionIdeal | None = None,
    d: int = DEFAULT_DEGREE_BOUND,
) -> GhatPresentation:
    """Rebuild B(Q) as ((B(Qhat)_{delta_1}{X_1}) ... )_{delta_r}{X_r} and
    check the bracket table against the original, identifying X_i with the
    i-th complement generator.

    Supported when the kernel subalgebra is spanned by standard basis
    vectors (always the case for the fixture families); the complement is
    chosen among standard basis vectors by construction.
    """
    data = ghat(g, ideal, d)
    aligned = _aligned_names(g, data.subalgebra)
    if aligned is None:
        raise ComplementEliminated("(kernel subalgebra is not coordinate-aligned)")
    sub_idx = [i for i, v in enumerate(g.basis) if v.name in aligned]
    sub_lie = coordinate_subalgebra(g, sub_idx)
    if sub_lie is None:
        raise ComplementEliminated("(kernel subalgebra is not closed under the bracket)")
    base = reduced_algebra(sub_lie, data.restricted_ideal if data.restricted_ideal.rules else None)

    # g re-presented with rebuilt's generator order, so that the two tables
    # compare position by position
    full = reduced_algebra(coordinate_subalgebra(g, sub_idx + list(data.complement)), ideal)
    rebuilt = base
    added: list[str] = []
    deltas: list[Derivation] = []
    for i in data.complement:
        name = g.basis[i].name
        images = {}
        for v in rebuilt.vars:
            res = full.bracket(Poly.var(full.vars, name), Poly.var(full.vars, v.name))
            images[v.name] = rebuilt.element(res.num.restrict(rebuilt.vars))
        delta = Derivation(images)
        rebuilt = skew_extend(rebuilt, delta, name)
        added.append(name)
        deltas.append(delta)

    matches = full.table_signature() == rebuilt.table_signature()
    return GhatPresentation(data, base, tuple(deltas), tuple(added), rebuilt, matches)
