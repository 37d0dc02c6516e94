"""Degree-bounded linear algebra over a Poisson algebra.

Everything here reduces questions about finite slices of an algebra to exact
sparse linear algebra: enumerate the monomials of the slice, expand elements
over a common denominator, and hand rows to ``linalg``.

A row is the terms of an element's numerator over the common denominator,
keyed by monomial (``common_denominator_rows``, through
``PoissonAlgebra._lift``, which computes each power s^k once per algebra).
Kernels and solves read the rows as they are: their answers depend only on
the row space, not on how the monomials are numbered.  Only ``Span``
numbers them, because its echelon pivots on integer columns.

``slice_basis`` gives the monomials of a degree slice as elements without
the coercion of ``PoissonAlgebra.element``: they use no eliminated variable
and carry no denominator, so they are in normal form as built.

A slice is checked by one growing ``Span``: rows are written over fixed
denominator caps chosen up front, so a loop that enlarges its spanning set
(the pair-bound escalation of ``verify_decomposition``) adds each new element
once and keeps every earlier row valid.  Rank tests ask whether each added
row raises the rank; membership tests ask ``Span.contains``.

Kernels of operators are solved in two steps: the rows of each operator's
images of a basis, computed once, and ``kernel_of_operators``, which solves
from those rows for each kernel element and its coefficient vector.  The
rows of the generators on any span of polynomials in normal form are
exponent shifts (``slice_rows``): over an algebra whose Hamiltonian rows
carry no denominator, each numerator N_ik is in normal form already, so
{x_i, c x^e} = sum_k e_k c N_ik x^(e - 1_k) is built term by term, with no
bracket, partial, cancel or normal form.  A span over central denominators
is shifted over its common denominator.  Every kernel ``decompose``
solves reads them: the slice table, the degree-bounded center and the
central choice (``invariants.centralizer``).  Only ``operator_rows``
brackets, applying each operator to each basis element, and only
``invariants.weight_spaces`` calls it: the weight-search benchmark counts
its brackets and partials, and has no other source of either.  A search
that solves many related systems on one slice (``weight_spaces``, one
system per listed weight) computes the actions once and solves the
operators shared by every system once, to a kernel K0.  It restricts the
other operators' rows to K0 by combining rows, and solves each system on
K0 from those rows, shifted.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, gt
from typing import Mapping, Sequence

from . import linalg
from .poisson import LocalElement, PoissonAlgebra
from .polys import Coef, Mono, Poly, _coef


def monomials_up_to(nvars: int, d: int) -> list[Mono]:
    """Exponent tuples with nonnegative entries and total degree <= d, in
    ascending graded-lex order."""
    out: list[Mono] = []
    for total in range(d + 1):
        level: list[Mono] = []

        def rec(prefix, left, slots):
            if slots == 1:
                level.append(tuple(prefix + [left]))
                return
            for e in range(left + 1):
                rec(prefix + [e], left - e, slots - 1)

        if nvars == 0:
            if total == 0:
                level.append(())
        else:
            rec([], total, nvars)
        out.extend(sorted(level))
    return out


def basis_monomials(alg: PoissonAlgebra, d: int) -> list[Poly]:
    """Monomials of degree <= d in the effective (non-eliminated) variables;
    requires the effective variables to be ordinary (not Laurent)."""
    eff = alg.effective_vars()
    if any(v.invertible for v in eff):
        raise ValueError("degree slices need ordinary (non-Laurent) generators")
    pos = [i for i, v in enumerate(alg.vars) if v in eff]
    out = []
    for expo in monomials_up_to(len(eff), d):
        mono = [0] * len(alg.vars)
        for e, i in zip(expo, pos):
            mono[i] = e
        out.append(Poly.monomial(alg.vars, tuple(mono)))
    return out


def slice_basis(alg: PoissonAlgebra, d: int) -> list[LocalElement]:
    """``basis_monomials`` as elements of alg, already in normal form."""
    den = (0,) * len(alg.inverted)
    return [LocalElement(m, den) for m in basis_monomials(alg, d)]


def common_denominator_rows(
    alg: PoissonAlgebra,
    elements: Sequence[LocalElement],
    caps: tuple[int, ...] | None = None,
) -> tuple[list[Mapping[Mono, Coef]], tuple[int, ...]]:
    """Rewrite elements over the denominator prod s_i^caps_i (default: the
    largest denominator among them, ``PoissonAlgebra._common_den``) and
    return, in the same order, the terms of their numerators (read-only),
    with the caps.  ValueError when an element's denominator exceeds the
    caps."""
    if caps is None:
        caps = alg._common_den(el.den for el in elements)
    rows = []
    for el in elements:
        if any(map(gt, el.den, caps)):
            raise ValueError(f"denominator {el.den} exceeds the caps {caps}")
        rows.append(alg._lift(el.num, el.den, caps).terms)
    return rows, caps


class Span:
    """A growing row space of elements over fixed denominator caps.

    Every element is written over prod s_i^caps_i, so rows added at
    different times share one denominator.  Multiplying by a denominator is
    injective, so rank and membership do not depend on the caps chosen.
    The echelon needs integer columns: a monomial's column is its rank of
    first appearance, over each row's sorted terms."""

    def __init__(self, alg: PoissonAlgebra, caps: tuple[int, ...]):
        self.alg = alg
        self.caps = tuple(caps)
        self.cols: dict[Mono, int] = {}
        self.echelon = linalg.Echelon()

    def _row(self, el: LocalElement) -> dict[int, Coef]:
        (terms,), _ = common_denominator_rows(self.alg, [el], self.caps)
        cols = self.cols
        return {cols.setdefault(m, len(cols)): c for m, c in sorted(terms.items())}

    def add(self, el: LocalElement) -> bool:
        """Add el; True iff it raised the rank."""
        return self.echelon.add(self._row(el))

    def contains(self, el: LocalElement) -> bool:
        return self.echelon.contains(self._row(el))


def independent_subset(
    alg: PoissonAlgebra, elements: Sequence[LocalElement]
) -> list[LocalElement]:
    """Greedy echelon filter: the elements that raise the rank of those
    accepted before them, in order."""
    span = Span(alg, alg._common_den(el.den for el in elements))
    return [el for el in elements if span.add(el)]


def combination(
    alg: PoissonAlgebra, coeffs: Sequence[Fraction], elements: Sequence[LocalElement]
) -> LocalElement:
    """sum(a_i elements_i), skipping zero coefficients: one
    ``PoissonAlgebra._sum``, whatever the denominators."""
    return alg._sum([(a, el.num, el.den) for a, el in zip(coeffs, elements) if a])


def _columns(rows: Sequence[Mapping]) -> dict:
    """Sparse transpose, one pass: monomial -> {row number: entry}."""
    by_col: dict = {}
    for i, row in enumerate(rows):
        for col, c in row.items():
            by_col.setdefault(col, {})[i] = c
    return by_col


def solve_in_span(
    alg: PoissonAlgebra,
    spanners: Sequence[LocalElement],
    target: LocalElement,
) -> list[Fraction] | None:
    """Coefficients expressing target as a combination of spanners, or None."""
    (*rows, target_row), _ = common_denominator_rows(alg, [*spanners, target])
    # unknowns: coefficients a_i; equations: one per monomial of the
    # spanners or the target
    by_col = _columns(rows)
    monos = {**by_col, **target_row}
    eq_rows = [by_col.get(m, {}) for m in monos]
    rhs = [target_row.get(m, 0) for m in monos]
    sol = linalg.solve(eq_rows, rhs, len(spanners))
    return list(sol) if sol is not None else None


def slice_rows(
    alg: PoissonAlgebra, basis: Sequence[LocalElement]
) -> list[list[dict[Mono, Coef]]]:
    """Per generator x_i of alg, the numerator rows of {x_i, b} over the
    common denominator of the elements b of a span in alg's normal form (a
    slice basis, ``slice_basis``, or any other), by exponent shift.  On a
    span of polynomials they are exactly the rows ``operator_rows`` gives
    for the operators {x_i, .}; otherwise each operator's rows are those
    rows times one power of the denominators, so the kernel is the same.

    Row i of ``alg.rows`` holds the numerators N_ik of {x_i, x_k} (for an
    eliminated x_i, whose generator is its image, the same numerators: the
    ideal is bracket-stable).  When no row carries a denominator,
    {x_i, c x^e} = sum_k e_k c N_ik x^(e - 1_k) is a polynomial with no
    eliminated variable (neither N_ik nor x^e has one), so it is in normal
    form as built: no partial, cancel or normal form.  The shift runs over
    every term of a polynomial, so its sum is {x_i, p}.  An element n / s^k
    over the common denominator s^c is n s^(c - k) / s^c, and
    {x_i, n s^(c - k)} = {x_i, n} s^(c - k) when every s in the
    denominator is central.  ValueError when a row carries a denominator, or when the span
    does and that denominator is not central."""
    if any(any(den) for _, den in alg.rows):
        raise ValueError("slice rows by exponent shift need rows without denominators")
    if not (alg.inverted and any(any(b.den) for b in basis)):
        return _shifts(alg, [b.num.terms for b in basis])
    polys, caps = common_denominator_rows(alg, basis)
    dens = [s.terms for s, cap in zip(alg.inverted, caps) if cap]
    if any(any(rows) for rows in _shifts(alg, dens)):
        raise ValueError("slice rows by exponent shift need central denominators")
    return _shifts(alg, polys)


def _shifts(alg: PoissonAlgebra, polys: Sequence[Mapping[Mono, Coef]]):
    """Per generator x_i, the terms of {x_i, p} for the polynomials p, given
    by their terms (see ``slice_rows``)."""
    out = []
    for entries, _ in alg.rows:
        rows = []
        for terms in polys:
            acc: dict[Mono, Coef] = {}
            for mono, c in terms.items():
                for k, image in entries:
                    e = mono[k]
                    if not e:
                        continue
                    shifted = mono[:k] + (e - 1,) + mono[k + 1 :]
                    ec = e * c
                    for m1, c1 in image.terms.items():
                        m = tuple(map(add, m1, shifted))
                        acc[m] = acc.get(m, 0) + ec * c1
            rows.append({m: _coef(v) for m, v in acc.items() if v})
        out.append(rows)
    return out


def operator_rows(
    alg: PoissonAlgebra, basis: Sequence[LocalElement], operators: Sequence
) -> list[list[Mapping[Mono, Coef]]]:
    """Per operator (each maps a LocalElement to a LocalElement), the
    numerator rows of its images of the basis.

    The images must stay inside a finite monomial space, which they do for
    bracket actions on degree slices.
    """
    return [common_denominator_rows(alg, [op(b) for b in basis])[0] for op in operators]


def kernel_coordinates(
    images: Sequence[Sequence[Mapping]], n: int
) -> list[tuple[Fraction, ...]]:
    """The coefficient vectors (a_1 .. a_n) of the combinations of n basis
    elements killed by every operator, given per operator the rows of its
    images of the basis (see ``operator_rows``): the canonical ``nullspace``
    basis, one vector per free coefficient.

    One equation per operator and monomial, built in one pass over the
    nonzero entries; the basis depends only on the row space, so not on
    the order of the equations.
    """
    eq_rows: list[Mapping] = []
    for rows in images:
        eq_rows.extend(_columns(rows).values())
    return linalg.nullspace(eq_rows, n)


def kernel_of_operators(
    alg: PoissonAlgebra,
    basis: Sequence[LocalElement],
    images: Sequence[Sequence[Mapping]],
) -> list[tuple[tuple[Fraction, ...], LocalElement]]:
    """Elements sum(a_i basis_i) killed by every operator, each with its
    coefficients a, given per operator the rows of its images of the basis
    (see ``operator_rows``); exact sparse nullspace (``kernel_coordinates``)."""
    return [(a, combination(alg, a, basis)) for a in kernel_coordinates(images, len(basis))]
