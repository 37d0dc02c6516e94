"""The simple Poisson algebras built from a skew form and a weight lattice.

The data is a finite-dimensional space V with an alternating form omega and
a free finite-rank lattice G of linear forms on V; the algebra lives on
S(V) tensor the group algebra of G:

    {v, w} = omega(v, w),   {g, h} = 0,   {g, v} = lambda_g(v) g.

This module builds the algebra, checks the simplicity criterion (the kernel
of omega meets the kernel of the lattice only in 0), computes centralizer
and center presentations, growth invariants, the embedding into a Weyl
algebra tensor a localized Weyl algebra, and the realization as a localized
quotient of a solvable Lie algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, log

from . import linalg
from .errors import ConditionFailed, NotSimple
from .lie import LieAlgebra, Subspace, basis_vec
from .poisson import (
    LocalElement,
    PoissonAlgebra,
    SubstitutionIdeal,
    canonical_from_lie,
    localize,
    poisson_algebra,
    quotient,
)
from .polys import Poly, VarSpec
from .spaces import monomials_up_to

Vec = tuple[Fraction, ...]


@dataclass(frozen=True)
class BVWG:
    """Presentation data: omega on the chosen basis of V, one weight row per
    lattice generator.  ``validate`` holds for primary constructions; the
    centralizer/center presentations reuse the container with zero rows."""

    v_names: tuple[str, ...]
    omega: tuple[Vec, ...]
    g_names: tuple[str, ...]
    weights: tuple[Vec, ...]

    @property
    def n(self) -> int:
        return len(self.v_names)

    @property
    def p(self) -> int:
        return len(self.g_names)

    def weight_form(self, gvec) -> Vec:
        """The linear form of an integer lattice vector."""
        out = [Fraction(0)] * self.n
        for c, row in zip(gvec, self.weights):
            for i, w in enumerate(row):
                out[i] += c * w
        return tuple(out)


def make_spec(v_names, omega, g_names, weights) -> BVWG:
    vn = tuple(v_names)
    gn = tuple(g_names)
    om = tuple(tuple(Fraction(str(c)) for c in row) for row in omega)
    wt = tuple(tuple(Fraction(str(c)) for c in row) for row in weights)
    return BVWG(vn, om, gn, wt)


def validate(spec: BVWG):
    n, p = spec.n, spec.p
    if len(spec.omega) != n or any(len(r) != n for r in spec.omega):
        raise ValueError("omega must be n x n")
    for i in range(n):
        for j in range(n):
            if spec.omega[i][j] != -spec.omega[j][i]:
                raise ValueError("omega must be antisymmetric")
    if len(spec.weights) != p or any(len(r) != n for r in spec.weights):
        raise ValueError("weights must be p x n")
    # the lattice embeds into the dual: rows independent.  The degenerate
    # n = 0 case (a plain Laurent algebra) is allowed as an algebra even
    # though the structure theory needs the faithful pairing.
    if n > 0:
        rows = [{j: c for j, c in enumerate(r) if c != 0} for r in spec.weights]
        if linalg.rank(rows) != p:
            raise ValueError("weight rows must be linearly independent (free lattice)")


def build(spec: BVWG) -> PoissonAlgebra:
    """The Poisson algebra on n ordinary and p invertible generators."""
    validate(spec)
    ctx = tuple(VarSpec(nm) for nm in spec.v_names) + tuple(
        VarSpec(nm, invertible=True) for nm in spec.g_names
    )
    n = spec.n
    entries: dict[tuple[int, int], Poly] = {}
    for i in range(n):
        for j in range(i + 1, n):
            if spec.omega[i][j] != 0:
                entries[(i, j)] = Poly.const(ctx, spec.omega[i][j])
    for a in range(spec.p):
        for i in range(n):
            c = spec.weights[a][i]
            if c != 0:
                # {v_i, g_a} = -lambda_a(v_i) g_a
                g_mono = [0] * len(ctx)
                g_mono[n + a] = 1
                entries[(i, n + a)] = Poly.monomial(ctx, tuple(g_mono), -c)
    alg = poisson_algebra(ctx, entries)
    violation = alg.jacobi_check()
    assert violation is None, f"table Jacobi failure {violation}"
    return alg


# ---------------------------------------------------------------------------
# the universal property


@dataclass(frozen=True)
class UniversalHom:
    spec: BVWG
    target: PoissonAlgebra
    chi: dict[str, LocalElement]
    psi: dict[str, LocalElement]

    def apply(self, p: Poly) -> LocalElement:
        """Monomial-by-monomial image of an element of the source algebra."""
        tgt = self.target
        out = tgt.zero()
        for mono, c in sorted(p.terms.items()):
            term = tgt.element(Poly.const(tgt.vars, c))
            for e, name in zip(mono, self.spec.v_names + self.spec.g_names):
                if e == 0:
                    continue
                base = self.chi.get(name) or self.psi.get(name)
                term = tgt.mul(term, tgt.power(base, e))
            out = tgt.add(out, term)
        return out


def universal_hom(
    spec: BVWG,
    target: PoissonAlgebra,
    chi: dict[str, LocalElement | Poly | str],
    psi: dict[str, LocalElement | Poly | str],
) -> UniversalHom:
    """Check the three defining conditions by exact brackets in the target
    and return the induced homomorphism.

    (i)   {chi v, chi v'} = omega(v, v')
    (ii)  {psi g, chi v} = lambda_g(v) psi g
    (iii) {psi g, psi g'} = 0
    """
    chi_el = {k: target.element(v) for k, v in chi.items()}
    psi_el = {k: target.element(v) for k, v in psi.items()}
    n, p = spec.n, spec.p
    for i in range(n):
        vi = chi_el[spec.v_names[i]]
        for j in range(n):
            vj = chi_el[spec.v_names[j]]
            want = target.scale(spec.omega[i][j], target.one())
            got = target.bracket(vi, vj)
            if not target.sub(got, want).is_zero():
                raise ConditionFailed(
                    "i", f"{{{spec.v_names[i]}, {spec.v_names[j]}}} -> {target.format(got)}"
                )
    for a in range(p):
        ga = psi_el[spec.g_names[a]]
        for i in range(n):
            vi = chi_el[spec.v_names[i]]
            got = target.bracket(ga, vi)
            want = target.scale(spec.weights[a][i], ga)
            if not target.sub(got, want).is_zero():
                raise ConditionFailed(
                    "ii", f"{{{spec.g_names[a]}, {spec.v_names[i]}}} -> {target.format(got)}"
                )
        for b in range(p):
            got = target.bracket(ga, psi_el[spec.g_names[b]])
            if not got.is_zero():
                raise ConditionFailed(
                    "iii", f"{{{spec.g_names[a]}, {spec.g_names[b]}}} -> {target.format(got)}"
                )
    return UniversalHom(spec, target, chi_el, psi_el)


def phi_g(spec: BVWG, gvec, r: Poly) -> Poly:
    """The polynomial automorphism exp of the constant derivation attached
    to a lattice vector: substitutes v -> v + lambda_g(v) on S(V)."""
    lam = spec.weight_form(gvec)
    if any(r.variables_used() & set(spec.g_names)):
        raise ValueError("phi_g acts on the symmetric part only")
    return r.shift({name: lam[i] for i, name in enumerate(spec.v_names)})


# ---------------------------------------------------------------------------
# simplicity and coarse invariants


def omega_kernel(spec: BVWG) -> Subspace:
    rows = [
        {j: spec.omega[i][j] for j in range(spec.n) if spec.omega[i][j] != 0}
        for i in range(spec.n)
    ]
    return Subspace(spec.n, linalg.nullspace(rows, spec.n))


def lattice_kernel(spec: BVWG) -> Subspace:
    rows = [
        {j: c for j, c in enumerate(r) if c != 0} for r in spec.weights
    ]
    return Subspace(spec.n, linalg.nullspace(rows, spec.n))


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """Exact intersection via the kernel of the stacked coordinate solve."""
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
    combos = linalg.nullspace(rows, a.dim + b.dim)
    vecs = []
    for combo in combos:
        vec = [Fraction(0)] * a.ambient_dim
        for c, v in zip(combo[: a.dim], a.basis):
            if c != 0:
                vec = [x + c * y for x, y in zip(vec, v)]
        vecs.append(tuple(vec))
    return Subspace(a.ambient_dim, vecs)


def is_simple(spec: BVWG) -> tuple[bool, Subspace]:
    """Simplicity criterion: the kernels of omega and of the lattice meet
    only in 0.  The second component is the certificate intersection."""
    cert = intersect(omega_kernel(spec), lattice_kernel(spec))
    return cert.dim == 0, cert


def centralizer_center(spec: BVWG) -> tuple[BVWG, BVWG]:
    """Presentations of the centralizer of the lattice part (on the lattice
    kernel) and of its center (on the kernel of omega restricted there).
    Only defined for simple algebras."""
    simple, cert = is_simple(spec)
    if not simple:
        raise NotSimple([tuple(map(str, v)) for v in cert.basis])
    vg = lattice_kernel(spec)
    c_spec = _sub_spec(spec, vg, "c")
    d_spec = _sub_spec(spec, _omega_kernel_in(spec, vg), "d")
    return c_spec, d_spec


def _omega_kernel_in(spec: BVWG, space: Subspace) -> Subspace:
    """Kernel of omega restricted to the subspace, in ambient coordinates."""
    rows = []
    for u in space.basis:
        row = {}
        for j, w in enumerate(space.basis):
            val = _omega_apply(spec, u, w)
            if val != 0:
                row[j] = val
        if row:
            rows.append(row)
    vecs = []
    for combo in linalg.nullspace(rows, space.dim):
        vec = [Fraction(0)] * spec.n
        for c, w in zip(combo, space.basis):
            if c != 0:
                vec = [x + c * y for x, y in zip(vec, w)]
        vecs.append(tuple(vec))
    return Subspace(spec.n, vecs)


def _omega_apply(spec: BVWG, u, w) -> Fraction:
    acc = Fraction(0)
    for i, a in enumerate(u):
        if a == 0:
            continue
        for j, b in enumerate(w):
            if b != 0:
                acc += a * b * spec.omega[i][j]
    return acc


def _sub_spec(spec: BVWG, space: Subspace, prefix: str) -> BVWG:
    names = tuple(f"{prefix}{i+1}" for i in range(space.dim))
    om = tuple(
        tuple(_omega_apply(spec, u, w) for w in space.basis) for u in space.basis
    )
    wt = tuple(
        tuple(
            sum((row[i] * u[i] for i in range(spec.n)), Fraction(0))
            for u in space.basis
        )
        for row in spec.weights
    )
    return BVWG(names, om, spec.g_names, wt)


@dataclass(frozen=True)
class BVWGInvariants:
    gk_total: int
    rank_lattice: int
    gk_centralizer: int
    gk_center: int


def invariants(spec: BVWG) -> BVWGInvariants:
    """Growth invariants by the closed formulas dim V + rk G and friends."""
    vg = lattice_kernel(spec)
    return BVWGInvariants(
        gk_total=spec.n + spec.p,
        rank_lattice=spec.p,
        gk_centralizer=vg.dim + spec.p,
        gk_center=_omega_kernel_in(spec, vg).dim + spec.p,
    )


def growth_count(spec: BVWG, d: int, part: str = "total") -> int:
    """Monomials with total V-degree <= d and lattice exponents in [-d, d];
    the basis of the algebra is exactly these, so the count is closed-form."""
    if part == "group":
        return (2 * d + 1) ** spec.p
    if part != "total":
        raise ValueError(part)
    return comb(d + spec.n, spec.n) * (2 * d + 1) ** spec.p


def growth_exponent(spec: BVWG, dmax: int, part: str = "total") -> Fraction:
    """Least-squares slope of log count vs log d over d = dmax/2 .. dmax
    (the half-range suppresses low-degree transients)."""
    ds = list(range(max(1, dmax // 2), dmax + 1))
    xs = [log(d) for d in ds]
    ys = [log(growth_count(spec, d, part)) for d in ds]
    nm = len(ds)
    xbar = sum(xs) / nm
    ybar = sum(ys) / nm
    slope = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / sum(
        (x - xbar) ** 2 for x in xs
    )
    return Fraction(slope).limit_denominator(10**9)


# ---------------------------------------------------------------------------
# simplicity cross-check oracles (fixed-ring and monomial-ideal searches)


def fixed_ring_is_trivial(spec: BVWG, d: int = 6) -> bool:
    """Degree-bounded search for a nonconstant element of S(kernel of omega)
    fixed by every lattice generator's automorphism; True when none exists.

    Unknowns are the coefficients on the degree-<= d monomials of the kernel
    coordinates; one equation per (generator, output monomial) of
    phi_g(p) - p."""
    vw = omega_kernel(spec)
    if vw.dim == 0:
        return True
    from .polys import make_vars

    monos = monomials_up_to(vw.dim, d)
    wctx = make_vars([f"w{i+1}" for i in range(vw.dim)])
    eq: dict[tuple[int, tuple], dict[int, Fraction]] = {}
    for gi, row in enumerate(spec.weights):
        offsets = {
            f"w{i+1}": sum((row[k] * u[k] for k in range(spec.n)), Fraction(0))
            for i, u in enumerate(vw.basis)
        }
        for k, m in enumerate(monos):
            moved = Poly.monomial(wctx, m).shift(offsets) - Poly.monomial(wctx, m)
            for mono2, c in moved.terms.items():
                eq.setdefault((gi, mono2), {})[k] = c
    sol = linalg.nullspace(list(eq.values()), len(monos))
    # the fixed space always contains the constants; triviality means no more
    return len(sol) == 1


def stable_monomial_ideal_exists(spec: BVWG, d: int = 6) -> bool:
    """Spot search for a proper nonzero ideal of S(kernel of omega) stable
    under every lattice automorphism, seeded by single monomials.

    The coordinate basis of the kernel is adapted to the lattice kernel
    (kernel-intersection vectors first): a monomial seed is complete exactly
    in such a basis, since any lattice-fixed direction becomes a coordinate."""
    vw = omega_kernel(spec)
    if vw.dim == 0:
        return False
    inter = intersect(vw, lattice_kernel(spec))
    basis = list(inter.basis)
    for v in vw.basis:
        cand = Subspace(spec.n, basis + [v])
        if cand.dim > len(basis):
            basis.append(v)
    from .polys import make_vars

    wctx = make_vars([f"w{i+1}" for i in range(len(basis))])
    shifts = []
    for row in spec.weights:
        shifts.append(
            {
                f"w{i+1}": sum(
                    (row[k] * u[k] for k in range(spec.n)), Fraction(0)
                )
                for i, u in enumerate(basis)
            }
        )
    for m in monomials_up_to(len(basis), d):
        if sum(m) == 0:
            continue
        mu = Poly.monomial(wctx, m)
        stable = True
        for offsets in shifts:
            img = mu.shift(offsets)
            if img.divide_exact(mu) is None:
                stable = False
                break
        if stable:
            return True
    return False


# ---------------------------------------------------------------------------
# symplectic normal form, Weyl embedding, Lie realization


def symplectic_basis(spec: BVWG) -> tuple[list[tuple[Vec, Vec]], list[Vec]]:
    """Exact skew normal form: hyperbolic pairs (x_i, y_i) with
    omega(x_i, y_j) = delta_ij plus a basis of the kernel; pivots chosen at
    the smallest indices for determinism."""
    n = spec.n
    working: list[Vec] = [basis_vec(i, n) for i in range(n)]
    pairs: list[tuple[Vec, Vec]] = []
    while True:
        found = None
        for i in range(len(working)):
            for j in range(i + 1, len(working)):
                val = _omega_apply(spec, working[i], working[j])
                if val != 0:
                    found = (i, j, val)
                    break
            if found:
                break
        if not found:
            break
        i, j, val = found
        u = working[i]
        w = tuple(c / val for c in working[j])
        pairs.append((u, w))
        rest = []
        for k, z in enumerate(working):
            if k in (i, j):
                continue
            # z' = z - omega(z,w) u + omega(z,u) w kills both pairings
            a = _omega_apply(spec, z, w)
            b = _omega_apply(spec, z, u)
            z2 = tuple(zc - a * uc + b * wc for zc, uc, wc in zip(z, u, w))
            rest.append(z2)
        working = rest
    kernel = [v for v in working]
    return pairs, kernel


@dataclass(frozen=True)
class WeylEmbedding:
    target: PoissonAlgebra
    hom: UniversalHom
    sym_rank: int  # number of hyperbolic pairs
    lattice_rank: int


def embed_in_weyl(spec: BVWG) -> WeylEmbedding:
    """Embed a simple algebra into (sym_rank Weyl pairs) tensor (lattice_rank
    multiplicative pairs {Z_j, T_j} = Z_j, the localized Weyl form).

    chi sends a hyperbolic-pair vector to its Weyl variable plus the
    weight-matched combination of the T_j; psi sends lattice generators to
    the Z_j.  Injectivity follows from simplicity (the kernel is a bracket
    ideal missing 1)."""
    simple, cert = is_simple(spec)
    if not simple:
        raise NotSimple([tuple(map(str, v)) for v in cert.basis])
    pairs, kernel = symplectic_basis(spec)
    ell, m = len(pairs), spec.p
    ctx = (
        tuple(VarSpec(f"X{i+1}") for i in range(ell))
        + tuple(VarSpec(f"Y{i+1}") for i in range(ell))
        + tuple(VarSpec(f"Z{j+1}", invertible=True) for j in range(m))
        + tuple(VarSpec(f"T{j+1}") for j in range(m))
    )
    entries: dict[tuple[int, int], Poly] = {}
    for i in range(ell):
        entries[(i, ell + i)] = Poly.const(ctx, 1)
    for j in range(m):
        zi = 2 * ell + j
        ti = 2 * ell + m + j
        z_mono = [0] * len(ctx)
        z_mono[zi] = 1
        entries[(zi, ti)] = Poly.monomial(ctx, tuple(z_mono))  # {Z_j, T_j} = Z_j
    target = poisson_algebra(ctx, entries)

    # v maps to its Weyl image in symplectic coordinates plus the
    # weight-matched combination of the T_j; kernel vectors carry only T's
    basis_vectors = [u for u, _ in pairs] + [w for _, w in pairs] + list(kernel)
    images = (
        [Poly.var(ctx, f"X{i+1}") for i in range(ell)]
        + [Poly.var(ctx, f"Y{i+1}") for i in range(ell)]
        + [Poly.zero(ctx) for _ in kernel]
    )
    rows = [
        {
            k: basis_vectors[k][coord]
            for k in range(len(basis_vectors))
            if basis_vectors[k][coord] != 0
        }
        for coord in range(spec.n)
    ]

    def chi_vec(vec: Vec) -> Poly:
        sol = linalg.solve(rows, list(vec), len(basis_vectors))
        assert sol is not None
        acc = Poly.zero(ctx)
        for c, bvec, img in zip(sol, basis_vectors, images):
            if c == 0:
                continue
            lam_t = Poly.zero(ctx)
            for j in range(m):
                lam = sum(
                    (spec.weights[j][i] * bvec[i] for i in range(spec.n)),
                    Fraction(0),
                )
                if lam != 0:
                    lam_t = lam_t + Poly.var(ctx, f"T{j+1}").scale(lam)
            acc = acc + (img + lam_t).scale(c)
        return acc

    chi = {
        name: chi_vec(basis_vec(i, spec.n)) for i, name in enumerate(spec.v_names)
    }
    psi = {name: Poly.var(ctx, f"Z{j+1}") for j, name in enumerate(spec.g_names)}
    hom = universal_hom(spec, target, chi, psi)
    return WeylEmbedding(target, hom, ell, m)


@dataclass(frozen=True)
class LieRealization:
    lie: LieAlgebra
    ideal: SubstitutionIdeal
    eigen_generators: tuple[str, ...]
    localized: PoissonAlgebra
    hom: UniversalHom


def realize_from_lie(spec: BVWG) -> LieRealization:
    """Present a simple algebra as a localized quotient of the canonical
    Poisson structure of a solvable Lie algebra.

    The Lie algebra has basis (w, pair vectors, kernel vectors, lattice
    generators) with [x_i, y_j] = delta_ij w and [g, v] = lambda_g(v) g; the
    quotient sends w to 1 and the localization inverts the lattice images.
    The roundtrip is certified by the universal-map conditions holding for
    the generator images, which pins the whole bracket table."""
    simple, cert = is_simple(spec)
    if not simple:
        raise NotSimple([tuple(map(str, v)) for v in cert.basis])
    pairs, kernel = symplectic_basis(spec)
    ell, t, m = len(pairs), len(kernel), spec.p
    names = (
        ["w"]
        + [f"a{i+1}" for i in range(ell)]
        + [f"b{i+1}" for i in range(ell)]
        + [f"s{i+1}" for i in range(t)]
        + [f"g{i+1}" for i in range(m)]
    )
    sym_vectors = (
        [u for u, _ in pairs] + [w for _, w in pairs] + list(kernel)
    )
    dim = 1 + 2 * ell + t + m
    structure: dict[tuple[int, int], dict[int, Fraction]] = {}
    for i in range(ell):
        structure[(1 + i, 1 + ell + i)] = {0: Fraction(1)}  # [a_i, b_i] = w
    for a in range(m):
        g_idx = 1 + 2 * ell + t + a
        for k, vec in enumerate(sym_vectors):
            lam = sum(
                (spec.weights[a][i] * vec[i] for i in range(spec.n)), Fraction(0)
            )
            if lam != 0:
                v_idx = 1 + k
                # [g_a, v] = lam g_a  stored on ordered pair (v, g)
                structure[(v_idx, g_idx)] = dict(
                    structure.get((v_idx, g_idx), {})
                )
                structure[(v_idx, g_idx)][g_idx] = -lam
    from .lie import verify_lie

    g_lie = verify_lie(" ".join(names), structure)
    alg = canonical_from_lie(g_lie)
    ideal = SubstitutionIdeal(((g_lie.basis[0], Poly.const(alg.vars, 1)),))
    quo = quotient(alg, ideal)
    loc = localize(quo, [Poly.var(quo.vars, f"g{i+1}") for i in range(m)])

    # map original V basis through the symplectic coordinates
    rows = []
    for coord in range(spec.n):
        rows.append(
            {
                k: sym_vectors[k][coord]
                for k in range(len(sym_vectors))
                if sym_vectors[k][coord] != 0
            }
        )
    chi = {}
    for i, name in enumerate(spec.v_names):
        sol = linalg.solve(rows, list(basis_vec(i, spec.n)), len(sym_vectors))
        assert sol is not None
        acc = Poly.zero(loc.vars)
        for c, lname in zip(sol, names[1 : 1 + 2 * ell + t]):
            if c != 0:
                acc = acc + Poly.var(loc.vars, lname).scale(c)
        chi[name] = acc
    psi = {
        name: Poly.var(loc.vars, f"g{j+1}")
        for j, name in enumerate(spec.g_names)
    }
    hom = universal_hom(spec, loc, chi, psi)
    return LieRealization(
        g_lie, ideal, tuple(f"g{i+1}" for i in range(m)), loc, hom
    )
