"""Degree-bounded searches for centers, semi-invariants, and the induced
presentation over the common weight kernel.

All searches are semi-decision procedures: they are exact and complete up to
the stated degree bound, and every report carries that bound.  Candidate
weights are enumerated inside the natural-number span of the flag weights,
which is exactly the lattice bound that makes the enumeration finite.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement

from . import linalg
from .errors import ComplementEliminated
from .lie import (
    JordanHolderData,
    LieAlgebra,
    Subspace,
    Weight,
    basis_vec,
    coordinate_subalgebra,
    jordan_holder,
)
from .poisson import (
    Derivation,
    LocalElement,
    PoissonAlgebra,
    SubstitutionIdeal,
    canonical_from_lie,
    quotient,
    skew_extend,
)
from .polys import Poly
from .spaces import basis_monomials, kernel_of_operators

DEFAULT_DEGREE_BOUND = 6


def reduced_algebra(g: LieAlgebra, ideal: SubstitutionIdeal | None) -> PoissonAlgebra:
    """The quotient of the canonical linear Poisson structure by the ideal."""
    alg = canonical_from_lie(g)
    if ideal is not None and not ideal.is_empty():
        alg = quotient(alg, ideal)
    return alg


def center_up_to_degree(alg: PoissonAlgebra, d: int) -> list[LocalElement]:
    """Basis of {p : deg p <= d, {v, p} = 0 for all generators v}."""
    basis = [alg.element(m) for m in basis_monomials(alg, d)]
    ops = []
    for v in alg.vars:
        gen = alg.gen(v.name)
        ops.append(lambda el, gen=gen: alg.bracket(gen, el))
    return kernel_of_operators(alg, basis, ops)


@dataclass(frozen=True)
class SemiInvariantReport:
    degree_bound: int
    entries: tuple[tuple[Weight, tuple[LocalElement, ...]], ...]
    flag: JordanHolderData

    def weights(self) -> list[Weight]:
        return [w for w, _ in self.entries]

    def weight_zero_basis(self) -> tuple[LocalElement, ...]:
        for w, basis in self.entries:
            if w.is_zero():
                return basis
        return ()


def candidate_weights(flag: JordanHolderData, d: int) -> list[Weight]:
    """Distinct natural-number combinations of the flag weights with
    coefficient sum <= d, sorted by their value tuples."""
    m = len(flag.weights)
    seen = {}
    zero = Weight(tuple(Fraction(0) for _ in range(m)))
    seen[zero.values] = zero
    for total in range(1, d + 1):
        for combo in combinations_with_replacement(range(m), total):
            w = zero
            for i in combo:
                w = w + flag.weights[i]
            seen.setdefault(w.values, w)
    return [seen[k] for k in sorted(seen)]


def semi_invariants(
    g: LieAlgebra,
    ideal: SubstitutionIdeal | None = None,
    d: int = DEFAULT_DEGREE_BOUND,
) -> SemiInvariantReport:
    """All weight spaces with a nonzero degree-<= d representative.

    For each candidate weight lam the exact linear system
    {x_j, a} = lam(x_j) a over the degree slice is solved; the weight-zero
    entry is the degree-bounded center.
    """
    flag = jordan_holder(g)
    alg = reduced_algebra(g, ideal)
    basis = [alg.element(m) for m in basis_monomials(alg, d)]
    gens = [alg.gen(v.name) for v in g.basis]
    entries = []
    for lam in candidate_weights(flag, d):
        ops = []
        for j in range(g.dim):
            c = lam.values[j]
            gen = gens[j]
            ops.append(
                lambda el, gen=gen, c=c: alg.sub(
                    alg.bracket(gen, el), alg.scale(c, el)
                )
            )
        sol = kernel_of_operators(alg, basis, ops)
        if sol:
            entries.append((lam, tuple(sol)))
    return SemiInvariantReport(d, tuple(entries), flag)


@dataclass(frozen=True)
class GhatData:
    subalgebra: Subspace
    complement: tuple[int, ...]  # indices of standard basis vectors
    restricted_ideal: SubstitutionIdeal
    degree_bound: int


def ghat(
    g: LieAlgebra,
    ideal: SubstitutionIdeal | None = None,
    d: int = DEFAULT_DEGREE_BOUND,
) -> GhatData:
    """Intersection of the kernels of all reported weights, certified only
    relative to the degree bound (a larger bound can only shrink it)."""
    report = semi_invariants(g, ideal, d)
    rows = []
    for w in report.weights():
        if not w.is_zero():
            rows.append({j: v for j, v in enumerate(w.values) if v != 0})
    kernel = linalg.nullspace(rows, g.dim)
    sub = Subspace(g.dim, kernel)
    complement = []
    cur = sub
    for i in range(g.dim):
        cand = cur.sum_with(Subspace(g.dim, [basis_vec(i, g.dim)]))
        if cand.dim > cur.dim:
            complement.append(i)
            cur = cand
    restricted = _restrict_ideal(g, ideal, sub, complement)
    return GhatData(sub, tuple(complement), restricted, d)


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
    rules = []
    for v, img in ideal.rules:
        if v.name in comp_names:
            raise ComplementEliminated(v.name)
        if aligned is None or v.name not in aligned or img.variables_used() - aligned:
            raise ComplementEliminated(
                f"{v.name} (rule not supported inside the kernel subalgebra)"
            )
        rules.append((v, img))
    return SubstitutionIdeal(tuple(rules))


def _aligned_names(g: LieAlgebra, sub: Subspace) -> set[str] | None:
    """Names of standard basis vectors spanning the subspace, or None when it
    is not coordinate-aligned."""
    names = set()
    for row in sub.basis:
        nz = [j for j, c in enumerate(row) if c != 0]
        if len(nz) != 1 or row[nz[0]] != 1:
            return None
        names.add(g.basis[nz[0]].name)
    return names


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

    full = reduced_algebra(g, ideal)
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

    matches = _tables_match(full, rebuilt)
    return GhatPresentation(data, base, tuple(deltas), tuple(added), rebuilt, matches)


def _tables_match(a: PoissonAlgebra, b: PoissonAlgebra) -> bool:
    """Compare effective bracket tables under generator-name identification."""
    sig_a = _named_signature(a)
    sig_b = _named_signature(b)
    return sig_a == sig_b


def _named_signature(alg: PoissonAlgebra):
    eff = alg.effective_vars()
    names = sorted(v.name for v in eff)
    pos = {v.name: i for i, v in enumerate(alg.vars)}
    sig = {}
    for a in range(len(names)):
        for b in range(a + 1, len(names)):
            el = alg.normalize(alg.table_entry(pos[names[a]], pos[names[b]]))
            terms = []
            for mono, c in sorted(el.num.terms.items()):
                named = tuple(
                    (alg.vars[k].name, e) for k, e in enumerate(mono) if e != 0
                )
                terms.append((named, c))
            if terms:
                sig[(names[a], names[b])] = tuple(sorted(terms))
    return sig
