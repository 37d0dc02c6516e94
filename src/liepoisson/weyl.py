"""Weyl-Poisson algebras and the constructive isomorphisms around them.

``WeylPresentation`` builds Z tensor (n symplectic pairs), optionally with
the pair X-variables inverted (the primed form).  On top of it sit:

* the derivative formulas {X_i, a} = da/dY_i, {Y_i, a} = -da/dX_i;
* coefficient extraction by iterated inner derivations (the device that
  shows every bracket ideal is generated by its central part);
* potential integration (finding b from its prescribed partials) and the
  resulting splitting of any P-derivation into an inner part plus a part
  that lives on the center;
* the exponential-series transforms chi / theta that straighten a locally
  nilpotent derivation with a central slice variable into a polynomial
  extension, and their tensor form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .errors import (
    AlphaNotAVariable,
    LocalNilpotencyCapExceeded,
    NotClosed,
    NotCommuting,
    NotGenerating,
    NotPDerivation,
)
from .poisson import (
    Derivation,
    LocalElement,
    PoissonAlgebra,
    SubstitutionIdeal,
    is_p_derivation,
    poisson_algebra,
    quotient,
    tensor,
)
from .polys import Context, Poly, VarSpec
from .spaces import basis_monomials, covers, independent, monomials_up_to

DEFAULT_NILPOTENCY_CAP = 64


@dataclass(frozen=True)
class WeylPresentation:
    """n symplectic pairs over a central polynomial factor Z."""

    n: int
    center_vars: Context = ()
    primed: bool = False
    x_names: tuple[str, ...] = ()
    y_names: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.x_names:
            object.__setattr__(
                self, "x_names", tuple(f"X{i+1}" for i in range(self.n))
            )
        if not self.y_names:
            object.__setattr__(
                self, "y_names", tuple(f"Y{i+1}" for i in range(self.n))
            )

    @property
    def context(self) -> Context:
        xs = tuple(VarSpec(nm, self.primed) for nm in self.x_names)
        ys = tuple(VarSpec(nm) for nm in self.y_names)
        return xs + ys + self.center_vars

    def algebra(self) -> PoissonAlgebra:
        ctx = self.context
        entries = {}
        for i in range(self.n):
            entries[(i, self.n + i)] = Poly.const(ctx, 1)  # {X_i, Y_i} = 1
        return poisson_algebra(ctx, entries)

    def pair_index(self, i: int) -> tuple[int, int]:
        return i, self.n + i

    def is_center_poly(self, p: Poly) -> bool:
        znames = {v.name for v in self.center_vars}
        return p.variables_used() <= znames


def weyl_bracket_via_partials(pres: WeylPresentation, a: Poly, i: int) -> tuple[Poly, Poly]:
    """({X_i, a}, {Y_i, a}) computed purely by partial derivatives."""
    ctx = pres.context
    a = a.extend(ctx)
    return a.partial(pres.y_names[i - 1]), -a.partial(pres.x_names[i - 1])


# ---------------------------------------------------------------------------
# coefficient extraction


def _pair_degree_terms(pres: WeylPresentation, p: Poly):
    """Group terms of p by their (X, Y) exponent pattern."""
    ctx = pres.context
    n = pres.n
    groups: dict[tuple[tuple[int, ...], tuple[int, ...]], dict] = {}
    for mono, c in p.terms.items():
        xs = tuple(mono[:n])
        ys = tuple(mono[n : 2 * n])
        z = (0,) * 2 * n + tuple(mono[2 * n :])
        groups.setdefault((xs, ys), {})[z] = c
    return groups


def extract_core(pres: WeylPresentation, generators: list[Poly]) -> list[Poly]:
    """The central coefficients of the generators, recovered by iterated
    inner derivations from the top pair-degree down.

    For a generator sum lambda_{a,b} X^a Y^b the operator
    (d_X)^a (d_Y)^b kills every term of pair-degree <= |a|+|b| except
    lambda_{a,b} X^b Y^a itself, which it sends to (-1)^|b| a! b! lambda.
    The returned list generates (bracket ideal of the input) intersect Z.
    """
    alg = pres.algebra()
    ctx = pres.context
    n = pres.n
    out: list[Poly] = []
    seen = set()
    for gen in generators:
        rem = alg.element(gen.extend(ctx))
        guard = 0
        while not rem.is_zero():
            guard += 1
            if guard > 10000:  # pragma: no cover
                raise RuntimeError("extraction failed to terminate")
            groups = _pair_degree_terms(pres, rem.num)
            top = max(groups, key=lambda k: (sum(k[0]) + sum(k[1]), k))
            xs, ys = top
            # coefficient of X^xs Y^ys is read off by (d_X)^ys (d_Y)^xs
            work = rem
            for i in range(n):
                for _ in range(ys[i]):
                    work = alg.bracket(Poly.var(ctx, pres.x_names[i]), work)
            for i in range(n):
                for _ in range(xs[i]):
                    work = alg.bracket(Poly.var(ctx, pres.y_names[i]), work)
            scale = Fraction((-1) ** sum(xs))
            for e in xs:
                scale *= factorial(e)
            for e in ys:
                scale *= factorial(e)
            coeff = work.num.scale(Fraction(1) / scale)
            if not pres.is_center_poly(coeff):  # pragma: no cover
                raise RuntimeError("extraction left non-central residue")
            mono = tuple(xs) + tuple(ys) + (0,) * len(pres.center_vars)
            rem = alg.sub(rem, alg.element(coeff * Poly.monomial(ctx, mono)))
            key = str(coeff)
            if key not in seen:
                seen.add(key)
                out.append(coeff)
    return out


# ---------------------------------------------------------------------------
# potential integration and derivation splitting


def integrate_potential(
    pres: WeylPresentation, ps: list[Poly], qs: list[Poly]
) -> Poly:
    """The unique b with db/dX_i = p_i and db/dY_i = q_i and no pure-Z term.

    The mixed-partial closure conditions are checked first and reported
    with the offending index pair.
    """
    ctx = pres.context
    n = pres.n
    ps = [p.extend(ctx) for p in ps]
    qs = [q.extend(ctx) for q in qs]
    for i in range(n):
        for j in range(n):
            if ps[i].partial(pres.x_names[j]) != ps[j].partial(pres.x_names[i]):
                raise NotClosed("dp_i/dX_j = dp_j/dX_i", i + 1, j + 1)
            if qs[i].partial(pres.y_names[j]) != qs[j].partial(pres.y_names[i]):
                raise NotClosed("dq_i/dY_j = dq_j/dY_i", i + 1, j + 1)
            if qs[i].partial(pres.x_names[j]) != ps[j].partial(pres.y_names[i]):
                raise NotClosed("dq_i/dX_j = dp_j/dY_i", i + 1, j + 1)
    b = Poly.zero(ctx)
    order = [(pres.x_names[i], ps[i]) for i in range(n)] + [
        (pres.y_names[i], qs[i]) for i in range(n)
    ]
    for name, target in order:
        rem = target - b.partial(name)
        b = b + _antiderivative(rem, ctx, name)
    for i in range(n):
        if b.partial(pres.x_names[i]) != ps[i] or b.partial(pres.y_names[i]) != qs[i]:
            raise NotClosed("(residual after integration)", i + 1, i + 1)
    return b


def _antiderivative(p: Poly, ctx: Context, name: str) -> Poly:
    idx = next(i for i, v in enumerate(ctx) if v.name == name)
    out = {}
    for mono, c in p.terms.items():
        m2 = list(mono)
        m2[idx] += 1
        out[tuple(m2)] = c / m2[idx]
    return Poly(ctx, out)


def split_derivation(
    pres: WeylPresentation, delta: Derivation
) -> tuple[Poly, Derivation]:
    """Split a P-derivation of Z tensor (pairs) as delta = d_b + delta',
    where delta' kills every pair variable and agrees with delta on Z.

    The closure conditions needed to integrate b hold exactly when delta is
    a P-derivation, so an invalid delta surfaces as NotClosed.
    """
    alg = pres.algebra()
    ok, witness = is_p_derivation(alg, delta)
    if not ok:
        raise NotPDerivation(witness[:2], str(witness[2]))
    ctx = pres.context
    n = pres.n
    qs = []
    ps = []
    for i in range(n):
        qi = delta.image_of(alg, pres.x_names[i])
        pi = delta.image_of(alg, pres.y_names[i])
        if not (qi.is_polynomial() and pi.is_polynomial()):
            raise NotClosed("(derivation image has denominators)", i + 1, i + 1)
        # want d_b = delta on the pairs: {b, X_i} = -db/dY_i forces
        # db/dY_i = -delta(X_i), and {b, Y_i} = db/dX_i forces db/dX_i = delta(Y_i)
        qs.append(-qi.num)
        ps.append(pi.num)
    b = integrate_potential(pres, [p for p in ps], [q for q in qs])
    images = {}
    for v in pres.center_vars:
        img = delta.image_of(alg, v.name)
        if not img.is_zero():
            images[v.name] = img
    return b, Derivation(images)


# ---------------------------------------------------------------------------
# the exponential transforms


@dataclass(frozen=True)
class ChiContext:
    """A locally nilpotent P-derivation delta with a central variable alpha
    such that delta(alpha) = 1: the data straightening A into
    (A / A alpha) {Y}."""

    algebra: PoissonAlgebra
    delta: Derivation
    alpha: VarSpec
    cap: int
    target: PoissonAlgebra
    y_var: VarSpec


def chi_context(
    alg: PoissonAlgebra,
    delta: Derivation,
    alpha: VarSpec | str,
    cap: int = DEFAULT_NILPOTENCY_CAP,
) -> ChiContext:
    """Validate the hypotheses and prepare the quotient target."""
    if isinstance(alpha, str):
        cand = [v for v in alg.vars if v.name == alpha]
        if not cand:
            raise AlphaNotAVariable(alpha)
        alpha = cand[0]
    elif alpha not in alg.vars:
        raise AlphaNotAVariable(alpha.name)
    ok, witness = is_p_derivation(alg, delta)
    if not ok:
        raise NotPDerivation(witness[:2], str(witness[2]))
    for v in alg.vars:
        el = alg.gen(v.name)
        k = 0
        while not el.is_zero():
            if k > cap:
                raise LocalNilpotencyCapExceeded(cap, v.name)
            el = delta.apply(alg, el)
            k += 1
        if not alg.bracket(Poly.var(alg.vars, alpha.name), alg.gen(v.name)).is_zero():
            raise AlphaNotAVariable(f"{alpha.name} (not central)")
    da = delta.apply(alg, alg.gen(alpha.name))
    if da != alg.one():
        raise AlphaNotAVariable(f"{alpha.name} (delta(alpha) != 1)")
    quo = quotient(
        alg, SubstitutionIdeal(((alpha, Poly.zero(alg.vars)),))
    )
    y_name = "Y" if all(v.name != "Y" for v in alg.vars) else f"Y_{alpha.name}"
    y_var = VarSpec(y_name)
    target = _adjoin_central(quo, y_var)
    return ChiContext(alg, delta, alpha, cap, target, y_var)


def _adjoin_central(alg: PoissonAlgebra, var: VarSpec) -> PoissonAlgebra:
    ctx = alg.vars + (var,)
    ideal = (
        SubstitutionIdeal(tuple((v, img.extend(ctx)) for v, img in alg.ideal.rules))
        if alg.ideal
        else None
    )
    entries = {}
    for (i, j), val in alg.table.items():
        entries[(i, j)] = val.num.extend(ctx)
    return poisson_algebra(ctx, entries, ideal, tuple(s.extend(ctx) for s in alg.inverted))


def _delta_powers(ctx: ChiContext, p: LocalElement) -> list[LocalElement]:
    alg = ctx.algebra
    out = [p]
    while not out[-1].is_zero():
        if len(out) > ctx.cap + 1:
            raise LocalNilpotencyCapExceeded(ctx.cap, str(p))
        out.append(ctx.delta.apply(alg, out[-1]))
    return out[:-1]


def chi_forward(ctx: ChiContext, p: Poly | LocalElement) -> LocalElement:
    """chi(p) = sum 1/n! [delta^n(p) mod alpha] Y^n; a P-isomorphism onto
    the quotient extended by the central variable Y."""
    alg = ctx.algebra
    el = alg.element(p) if not isinstance(p, LocalElement) else p
    if not el.is_polynomial():
        raise ValueError("the exponential transform acts on polynomial elements")
    tgt = ctx.target
    acc = tgt.zero()
    for nn, dn in enumerate(_delta_powers(ctx, el)):
        num = dn.num.extend(tgt.vars)
        ypow = Poly.var(tgt.vars, ctx.y_var.name) ** nn
        term = tgt.element(num * ypow)
        acc = tgt.add(acc, tgt.scale(Fraction(1, factorial(nn)), term))
    return acc


def chi_inverse(ctx: ChiContext, q: Poly | LocalElement) -> LocalElement:
    """theta(p-bar Y^n) = sum_m (-1)^m/m! delta^m(p) alpha^(m+n); the exact
    inverse of chi_forward."""
    alg = ctx.algebra
    tgt = ctx.target
    el = tgt.element(q) if not isinstance(q, LocalElement) else q
    y_idx = len(tgt.vars) - 1
    acc = alg.zero()
    alpha_poly = Poly.var(alg.vars, ctx.alpha.name)
    by_y: dict[int, dict] = {}
    for mono, c in el.num.terms.items():
        by_y.setdefault(mono[y_idx], {})[mono[:y_idx]] = c
    for ypow, terms in sorted(by_y.items()):
        # target context minus Y is exactly alg's context (alpha kept, exponent 0)
        coeff = Poly(alg.vars, dict(terms))
        lifted = alg.element(coeff)
        for m, dm in enumerate(_delta_powers(ctx, lifted)):
            term = alg.mul(dm, alg.element(alpha_poly ** (m + ypow)))
            acc = alg.add(acc, alg.scale(Fraction((-1) ** m, factorial(m)), term))
    return acc


@dataclass(frozen=True)
class ChiTensorResult:
    source: PoissonAlgebra  # the skew extension A_delta{X}
    target: PoissonAlgebra  # (A/A alpha) tensor B_1
    x_image: LocalElement
    table_matches: bool


def chi_tensor(ctx: ChiContext, x_name: str = "X") -> ChiTensorResult:
    """Straighten the skew extension A_delta{X} into (A/A alpha) tensor B_1:
    chi(X) = 1 tensor X_1, and on A the same series as chi_forward with Y_1
    in place of Y.  Verified by rebuilding the bracket table on generators."""
    source = skew = _skew(ctx, x_name)
    quo = quotient(
        ctx.algebra, SubstitutionIdeal(((ctx.alpha, Poly.zero(ctx.algebra.vars)),))
    )
    taken = {v.name for v in quo.vars}
    k = 1
    while f"X{k}" in taken or f"Y{k}" in taken:
        k += 1
    xn, yn = f"X{k}", f"Y{k}"
    pair = WeylPresentation(1, x_names=(xn,), y_names=(yn,)).algebra()
    target = tensor(quo, pair)

    def fwd(p: Poly | LocalElement) -> LocalElement:
        el = skew.element(p) if not isinstance(p, LocalElement) else p
        x_idx = len(skew.vars) - 1
        acc = target.zero()
        for mono, c in el.num.terms.items():
            a_mono = mono[:x_idx]
            a_part = ctx.algebra.element(Poly(ctx.algebra.vars, {a_mono: c}))
            img = target.zero()
            for nn, dn in enumerate(_delta_powers(ctx, a_part)):
                term = target.element(
                    dn.num.extend(target.vars)
                    * Poly.var(target.vars, yn) ** nn
                )
                img = target.add(img, target.scale(Fraction(1, factorial(nn)), term))
            img = target.mul(
                img, target.element(Poly.var(target.vars, xn) ** mono[x_idx])
            )
            acc = target.add(acc, img)
        return acc

    # verify the generator bracket table is carried onto the tensor table
    gens = [skew.gen(v.name) for v in skew.vars]
    images = [fwd(g) for g in gens]
    ok = True
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            lhs = fwd(skew.bracket(gens[i], gens[j]))
            rhs = target.bracket(images[i], images[j])
            if not target.sub(lhs, rhs).is_zero():
                ok = False
    x_image = fwd(skew.gen(x_name))
    return ChiTensorResult(source, target, x_image, ok)


def _skew(ctx: ChiContext, x_name: str) -> PoissonAlgebra:
    from .poisson import skew_extend

    return skew_extend(ctx.algebra, ctx.delta, x_name)


# ---------------------------------------------------------------------------
# tensor presentation recognition


def tensor_presentation_check(
    alg: PoissonAlgebra,
    commuting_part: list[LocalElement],
    pairs: list[tuple[LocalElement, LocalElement]],
    d: int = 4,
) -> bool:
    """Certify (on the degree-<= d slice) that the subalgebra generated by
    ``commuting_part`` and the Weyl pairs is all of ``alg`` with tensor-split
    kernel: pairwise brackets vanish, the pairs satisfy the canonical
    relations, the formal monomials are independent, and they span the slice.
    """
    flat_pairs = [el for pr in pairs for el in pr]
    for b in commuting_part:
        for c in flat_pairs:
            res = alg.bracket(b, c)
            if not res.is_zero():
                raise NotCommuting(alg.format(b), alg.format(c), alg.format(res))
    for i, (x1, y1) in enumerate(pairs):
        for j, (x2, y2) in enumerate(pairs):
            if not alg.sub(alg.bracket(x1, y2), alg.one() if i == j else alg.zero()).is_zero():
                raise NotCommuting(f"x{i+1}", f"y{j+1}", "(pair relation fails)")
            if not alg.bracket(x1, x2).is_zero() or not alg.bracket(y1, y2).is_zero():
                raise NotCommuting(f"pair {i+1}", f"pair {j+1}", "(pair relation fails)")
    products = []
    for bexp in monomials_up_to(len(commuting_part), d):
        base = alg.monomial(commuting_part, bexp)
        for pexp in monomials_up_to(2 * len(pairs), d - sum(bexp)):
            products.append(alg.monomial(flat_pairs, pexp, start=base))
    if not independent(alg, products):
        return False
    targets = [alg.element(m) for m in basis_monomials(alg, d)]
    if not covers(alg, products, targets):
        raise NotGenerating(f"(degree-{d} slice not covered)")
    return True
