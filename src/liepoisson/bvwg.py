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
from .lie import LieAlgebra, Subspace, Weight, basis_vec, verify_lie
from .poisson import (
    LocalElement,
    PoissonAlgebra,
    SubstitutionIdeal,
    canonical_from_lie,
    localize,
    poisson_algebra,
    quotient,
)
from .polys import Poly, VarSpec, make_vars
from .spaces import combination, monomials_up_to

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
        if linalg.rank(map(linalg.sparse, spec.weights)) != p:
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
        terms = []
        for mono, c in sorted(p.terms.items()):
            term = tgt.element(Poly.const(tgt.vars, c))
            for e, name in zip(mono, self.spec.v_names + self.spec.g_names):
                if e == 0:
                    continue
                base = self.chi.get(name) or self.psi.get(name)
                term = tgt.mul(term, tgt.power(base, e))
            terms.append((1, term))
        return combination(tgt, terms)


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
    rows = [linalg.sparse(r) for r in spec.omega]
    return Subspace(spec.n, linalg.nullspace(rows, spec.n))


def lattice_kernel(spec: BVWG) -> Subspace:
    rows = [linalg.sparse(r) for r in spec.weights]
    return Subspace(spec.n, linalg.nullspace(rows, spec.n))


def is_simple(spec: BVWG) -> tuple[bool, Subspace]:
    """Simplicity criterion: the kernels of omega and of the lattice meet
    only in 0.  The second component is the certificate intersection."""
    cert = omega_kernel(spec).intersect(lattice_kernel(spec))
    return cert.dim == 0, cert


def _require_simple(spec: BVWG) -> None:
    simple, cert = is_simple(spec)
    if not simple:
        raise NotSimple([tuple(map(str, v)) for v in cert.basis])


def centralizer_center(spec: BVWG) -> tuple[BVWG, BVWG]:
    """Presentations of the centralizer of the lattice part (on the lattice
    kernel) and of its center (on the kernel of omega restricted there).
    Only defined for simple algebras."""
    _require_simple(spec)
    vg = lattice_kernel(spec)
    c_spec = _sub_spec(spec, vg, "c")
    d_spec = _sub_spec(spec, _omega_kernel_in(spec, vg), "d")
    return c_spec, d_spec


def _omega_kernel_in(spec: BVWG, space: Subspace) -> Subspace:
    """Kernel of omega restricted to the subspace, in ambient coordinates."""
    return space.kernel(
        [[_omega_apply(spec, u, w) for u in space.basis] for w in space.basis]
    )


def _omega_apply(spec: BVWG, u, w) -> Fraction:
    """omega(u, w) = u . (omega w)."""
    return Weight(linalg.mat_vec(spec.omega, w))(u)


def _sub_spec(spec: BVWG, space: Subspace, prefix: str) -> BVWG:
    names = tuple(f"{prefix}{i+1}" for i in range(space.dim))
    om = tuple(
        tuple(_omega_apply(spec, u, w) for w in space.basis) for u in space.basis
    )
    wt = tuple(tuple(Weight(row)(u) for u in space.basis) for row in spec.weights)
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


def _left_sum(values) -> float:
    """The floats added left to right.  The built-in ``sum`` compensates the
    rounding of float additions from Python 3.12 on, so its last bits, and
    a fraction read off them, depend on the interpreter."""
    total = 0.0
    for v in values:
        total += v
    return total


def growth_exponent(spec: BVWG, dmax: int, part: str = "total") -> Fraction:
    """Least-squares slope of log count vs log d over d = dmax/2 .. dmax
    (the half-range suppresses low-degree transients), with every float sum
    taken left to right, so the result is the same on every Python.
    ValueError when dmax < 2, where the fit has fewer than two points."""
    if dmax < 2:
        raise ValueError(f"growth fit needs dmax at least 2, got {dmax}")
    ds = list(range(max(1, dmax // 2), dmax + 1))
    xs = [log(d) for d in ds]
    ys = [log(growth_count(spec, d, part)) for d in ds]
    nm = len(ds)
    xbar = _left_sum(xs) / nm
    ybar = _left_sum(ys) / nm
    slope = _left_sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / _left_sum(
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
    monos = monomials_up_to(vw.dim, d)
    wctx = make_vars([f"w{i+1}" for i in range(vw.dim)])
    eq: dict[tuple[int, tuple], dict[int, Fraction]] = {}
    for gi, row in enumerate(spec.weights):
        offsets = {f"w{i+1}": Weight(row)(u) for i, u in enumerate(vw.basis)}
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
    basis = _lattice_adapted_basis(vw, lattice_kernel(spec))
    wctx = make_vars([f"w{i+1}" for i in range(len(basis))])
    shifts = [
        {f"w{i+1}": Weight(row)(u) for i, u in enumerate(basis)}
        for row in spec.weights
    ]
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


def _lattice_adapted_basis(vw: Subspace, vg: Subspace) -> list[Vec]:
    """A basis of vw: that of vw meet vg first, then the vectors of vw's
    own basis that raise the rank."""
    basis = list(vw.intersect(vg).basis)
    ech = linalg.echelon_of(map(linalg.sparse, basis))
    return basis + [v for v in vw.basis if ech.add(linalg.sparse(v))]


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
        w = tuple(Fraction(c, val) for c in working[j])
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


def _symplectic_frame(spec: BVWG):
    """``symplectic_basis`` with its vectors as one frame (the x_i, then the
    y_i, then the kernel) and the coordinates of each e_i of V in it."""
    pairs, kernel = symplectic_basis(spec)
    frame = [u for u, _ in pairs] + [w for _, w in pairs] + list(kernel)
    # the frame is a basis, so the coordinates of e_i are column i of its inverse
    inverse = linalg.mat_inverse([[v[coord] for v in frame] for coord in range(spec.n)])
    return pairs, kernel, frame, list(zip(*inverse))


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
    _require_simple(spec)
    pairs, kernel, frame, coords = _symplectic_frame(spec)
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
    images = (
        [Poly.var(ctx, f"X{i+1}") for i in range(ell)]
        + [Poly.var(ctx, f"Y{i+1}") for i in range(ell)]
        + [Poly.zero(ctx) for _ in kernel]
    )
    chi = {}
    for name, sol in zip(spec.v_names, coords):
        acc = Poly.zero(ctx)
        for c, bvec, img in zip(sol, frame, images):
            if c == 0:
                continue
            lam_t = Poly.zero(ctx)
            for j in range(m):
                lam = Weight(spec.weights[j])(bvec)
                if lam != 0:
                    lam_t = lam_t + Poly.var(ctx, f"T{j+1}").scale(lam)
            acc = acc + (img + lam_t).scale(c)
        chi[name] = acc
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
    _require_simple(spec)
    pairs, kernel, frame, coords = _symplectic_frame(spec)
    ell, t, m = len(pairs), len(kernel), spec.p
    names = (
        ["w"]
        + [f"a{i+1}" for i in range(ell)]
        + [f"b{i+1}" for i in range(ell)]
        + [f"s{i+1}" for i in range(t)]
        + [f"g{i+1}" for i in range(m)]
    )
    structure: dict[tuple[int, int], dict[int, Fraction]] = {}
    for i in range(ell):
        structure[(1 + i, 1 + ell + i)] = {0: Fraction(1)}  # [a_i, b_i] = w
    for a in range(m):
        g_idx = 1 + 2 * ell + t + a
        for k, vec in enumerate(frame):
            lam = Weight(spec.weights[a])(vec)
            if lam != 0:
                v_idx = 1 + k
                # [g_a, v] = lam g_a  stored on ordered pair (v, g)
                structure[(v_idx, g_idx)] = dict(
                    structure.get((v_idx, g_idx), {})
                )
                structure[(v_idx, g_idx)][g_idx] = -lam
    g_lie = verify_lie(" ".join(names), structure)
    alg = canonical_from_lie(g_lie)
    ideal = SubstitutionIdeal(((g_lie.basis[0], Poly.const(alg.vars, 1)),))
    quo = quotient(alg, ideal)
    loc = localize(quo, [Poly.var(quo.vars, f"g{i+1}") for i in range(m)])

    # map original V basis through the symplectic coordinates
    chi = {}
    for name, sol in zip(spec.v_names, coords):
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
