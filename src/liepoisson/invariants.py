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
needs no bracket.  Each generator's rows are scaled by lambda_i, the lcm of the
denominators of its N_ik, which leaves the kernel as it is.  The
degree-bounded center is the centralizer of a monomial slice, given by its
exponent tuples (``spaces.slice_monomials``), so its rows are integers and
no polynomial is built per monomial; the central choice of ``decompose`` is
the centralizer of the images of a center; ``commutes_with_generators``
asks only whether a span's rows are all empty, for the centrality and
injectivity checks of ``verify_decomposition``.  The center is solved once per algebra and degree
bound: ``center_up_to_degree`` keeps its numerators in ``alg.centers``, and
``localize`` hands that memo to the localized algebra, whose polynomial
center is the same.  Only ``weight_spaces`` brackets (the weight-search
benchmark counts those brackets and partials, its only ones): it brackets
each generator once per element of the span it still has to cut.  The
generators that every listed weight sends to zero cut the slice one after
another, each on the kernel the ones before it left, down to their joint
kernel K0; the other generators are bracketed on K0 alone, and each weight
is solved only for them, on K0.

One ``decompose`` solves one slice: a ``SliceTable``, a value local to the
call, shifts the top's degree-d slice once and builds each flag level the
top covers (its docstring states the rule) from the top, with the level's
center solved from the same rows; the top is the hypothesis check's algebra
cut the same way (``poisson.on_variables``).  That check's ``weight_spaces``
brackets its own slice, and centers of degree above d shift their own.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import add

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
    on_variables,
    reduced_algebra,
    skew_extend,
)
from .polys import Mono, Poly
from .spaces import (
    combination,
    common_denominator_rows,
    kernel_coordinates,
    kernel_of_operators,
    operator_rows,
    slice_basis,
    slice_monomials,
    slice_rows,
)

DEFAULT_DEGREE_BOUND = 6


def _generator_actions(alg: PoissonAlgebra) -> list:
    """The operators {v, .}, one per generator v of the algebra."""
    return [lambda el, gen=alg.gen(v.name): alg.bracket(gen, el) for v in alg.vars]


def centralizer(alg: PoissonAlgebra, basis: list[Mono] | list[LocalElement]) -> list[tuple]:
    """Basis of the elements of span(basis) commuting with every generator,
    each with its coefficients over ``basis`` (``kernel_of_operators``).
    The basis is a monomial slice as exponent tuples, or elements in alg's
    normal form, over central denominators if any, and alg's rows carry no
    denominator: the generators' rows are exponent shifts
    (``spaces.slice_rows``, ValueError otherwise), with no bracket."""
    return kernel_of_operators(alg, basis, slice_rows(alg, basis))


def commutes_with_generators(alg: PoissonAlgebra, elements: list[LocalElement]) -> bool:
    """Whether every element commutes with every generator: whether every
    row ``spaces.slice_rows`` shifts for them is empty.  The elements are in
    alg's normal form and alg's rows carry no denominator (ValueError
    otherwise).  False when an element's denominator is not central: the
    shift refuses that span."""
    try:
        rows = slice_rows(alg, elements)
    except ValueError:
        if any(any(den) for _, den in alg.rows):
            raise
        return False
    return not any(any(row) for row in rows)


def center_up_to_degree(alg: PoissonAlgebra, d: int) -> list[LocalElement]:
    """Basis of {p : deg p <= d, {v, p} = 0 for all generators v}.

    Solved once per degree bound and kept in ``alg.centers``, which
    ``localize`` shares: a localization is injective and adds no bracket
    between polynomials, so the polynomial center of each slice is the same.
    A ``SliceTable`` fills the memo of the top and of the levels it builds; any other
    algebra solves the ``centralizer`` of its own slice, from rows by
    exponent shift (its rows must carry no denominator), with no bracket.
    Every call returns a new list of elements with denominator 1."""
    nums = alg.centers.get(d)
    if nums is None:
        nums = _numerators(centralizer(alg, slice_monomials(alg, d)))
        alg.centers[d] = nums
    den = (0,) * len(alg.inverted)
    return [LocalElement(num, den) for num in nums]


def _numerators(kernel: list[tuple]) -> tuple[Poly, ...]:
    return tuple(el.num for _, el in kernel)


class SliceTable:
    """A flag's top algebra and the actions of its generators on its
    degree-d slice of exponent tuples (``spaces.slice_monomials``), shifted
    once by the constructor (``spaces.slice_rows``; the top is a reduced
    algebra, so the rows are integers, those of lambda_i {x_i, .}), which
    also solves the top's degree-d center from them.  One per ``decompose``.

    The level on the first l variables is covered when no rule of the top on
    them has its image in a later variable.  A flag prefix is an ideal, so
    for i, j < l the top's {x_i, x_j} uses only those variables, and on a
    covered level the top's normal form is the level's: ``level(l)`` is the
    top on them (``poisson.on_variables``), stable as the top is.  Its slice
    is the top's tuples zero past l, cut to length l, in the same graded-lex
    order, and its rows are the top's rows of its generators at those tuples
    (kernels depend only on the row space, so the rows keep their top keys
    and the canonical ``nullspace`` basis is unchanged).  An uncovered level
    keeps a variable the top eliminates: ``level`` gives None."""

    def __init__(self, top: PoissonAlgebra, d: int):
        self.top = top
        self.d = d
        self.monos = slice_monomials(top, d)
        # per generator, one row per slice monomial
        self.rows = slice_rows(top, self.monos)
        top.centers[d] = _numerators(kernel_of_operators(top, self.monos, self.rows))

    def level(self, l: int) -> PoissonAlgebra | None:
        """The covered flag level on the top's first l variables, with its
        degree-d center memo filled; the top itself for l = m, and None
        when the level is not covered."""
        top = self.top
        if l == len(top.vars):
            return top
        level = on_variables(top, top.vars[:l])
        if level is None:
            return None
        keep = [k for k, mono in enumerate(self.monos) if not any(mono[l:])]
        rows = [[rows[k] for k in keep] for rows in self.rows[:l]]
        monos = [self.monos[k][:l] for k in keep]
        level.centers[self.d] = _numerators(kernel_of_operators(level, monos, rows))
        return level


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

    Enumerated level by level over integer tuples, the distinct nonzero
    flag weights scaled by the lcm of their denominators: level t holds the
    sums of t of them whose values are new; a value reached again later
    adds nothing, since its successors were already reached one level after
    its first visit.  A positive scale keeps the order of the tuples."""
    m = len(flag.weights)
    den = lcm(*[v.denominator for w in flag.weights for v in w.values])
    zero = (0,) * m
    steps = {tuple(v.numerator * (den // v.denominator) for v in w.values) for w in flag.weights}
    steps.discard(zero)
    seen = {zero}
    level = [zero]
    for _ in range(d):
        new = []
        for w in level:
            for f in steps:
                if (s := tuple(map(add, w, f))) not in seen:
                    seen.add(s)
                    new.append(s)
        level = new
    return [Weight(tuple(Fraction(v, den) for v in k)) for k in sorted(seen)]


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

    On the first request (never for an empty list) each generator is
    bracketed once, on the span it still has to cut.  A generator x_j with
    lam(x_j) = 0 for every listed lam gives the equations A_j a = 0 for every
    weight.  These fixed generators are taken in generator order: each one's
    rows are computed only on the kernel left by the fixed generators before
    it, and its kernel there, in its canonical ``nullspace`` basis, replaces
    that basis.  Every bracket kills 1, so the basis never becomes empty, and
    at the end it is the joint kernel K0 of the fixed generators.  The other
    generators are bracketed only on K0, the identity rows are K0's own
    terms, and all of them are scaled to integers once.  Each weight then
    solves one kernel on K0, of the rows q A_j - p I for lam(x_j) = p/q.

    The bases are those of the kernel of every A_j - lam(x_j) I on the whole
    slice: each canonical kernel vector has its last nonzero at its own free
    coordinate and is zero at the others, so a canonical kernel taken in the
    coordinates of a canonical kernel is the canonical kernel of the joint
    equations in slice coordinates, at every step.  The bases therefore do
    not depend on the order of the generators; only the work does.  With no
    fixed generator K0 is the slice; for nilpotent g every weight is zero and
    its space is K0."""
    if not weights:
        return
    basis = slice_basis(alg, d)
    ops = _generator_actions(alg)
    moving = []
    for j, op in enumerate(ops):
        if any(lam.values[j] for lam in weights):
            moving.append(j)
            continue
        k = kernel_coordinates(operator_rows(alg, basis, [op]), len(basis))
        basis = [combination(alg, [(a, basis[i]) for i, a in v.items()]) for v in k]
    actions = operator_rows(alg, basis, [ops[j] for j in moving])
    # alg is a reduced algebra: it inverts nothing, so every row is over denominator 1
    identity, _ = common_denominator_rows(alg, basis)
    *actions, identity = _to_integers(actions + [identity])
    for lam in weights:
        shifted = [
            _shift_rows(rows, identity, lam.values[j]) for j, rows in zip(moving, actions)
        ]
        sol = kernel_of_operators(alg, basis, shifted)
        if sol:
            yield lam, tuple(el for _, el in sol)


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
