"""Weyl-Poisson algebras and the constructive isomorphisms around them.

``WeylPresentation`` builds Z tensor (n symplectic pairs), optionally with
the pair X-variables inverted (the primed form).  On top of it sit:

* the derivative formulas {X_i, a} = da/dY_i, {Y_i, a} = -da/dX_i;
* coefficient extraction by iterated inner derivations (the device that
  shows every bracket ideal is generated by its central part), which on
  these algebras are the partial derivatives above, so the coefficient of
  X^a Y^b is read off as (d/dX)^a (d/dY)^b / (a! b!);
* potential integration (finding b from its prescribed partials) and the
  resulting splitting of any P-derivation into an inner part plus a part
  that lives on the center;
* the exponential-series transforms chi / theta that straighten a locally
  nilpotent derivation with a central slice variable into a polynomial
  extension, and their tensor form;
* the expansion of an element over canonical pairs, h = sum c_ab x^a y^b
  with every c_ab commuting with the pairs, by Dixmier's projections onto
  the centralizer of one pair (J. Dixmier, *Enveloping Algebras*, 4.7):
  with D = {x_i, .}, which acts as d/dy_i, pi_y(k) = sum_m (-y_i)^m/m!
  D^m k, and with E = {y_i, .}, pi_x(k) = sum_m x_i^m/m! E^m k.

One series serves chi, theta and both projections:
sum sign^n/n! p_n m^n over the powers p_n = op^n(p) of a locally
nilpotent operator, chi with sign + and m = Y modulo alpha, theta with -
and m = alpha, pi_y with - and m = y_i, pi_x with + and m = x_i.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
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
    skew_extend,
    tensor,
)
from .polys import Context, Poly, VarSpec
from .spaces import Span, combination, monomials_up_to, slice_basis

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


def extract_core(pres: WeylPresentation, generators: list[Poly]) -> list[Poly]:
    """The central coefficients of the generators, recovered by iterated
    inner derivations from the top pair-degree down.

    The inner derivations are partial derivatives, {X_i, .} = d/dY_i and
    {Y_i, .} = -d/dX_i, so for a generator sum lambda_{a,b} X^a Y^b the
    operator (d/dX)^a (d/dY)^b kills every term of pair-degree <= |a|+|b|
    except lambda_{a,b} X^a Y^b itself, which it sends to a! b! lambda.
    The returned list generates (bracket ideal of the input) intersect Z.
    ValueError, before any extraction, when a term of a generator has a
    negative pair exponent (a primed presentation inverts the X_i): no
    derivative isolates its coefficient, since d/dX never ends on X^-1.
    """
    ctx = pres.context
    names = pres.x_names + pres.y_names
    zeros = (0,) * len(pres.center_vars)
    gens = [gen.extend(ctx) for gen in generators]
    for gen in gens:
        for mono, c in gen.terms.items():
            if any(e < 0 for e in mono[: len(names)]):
                term = Poly(ctx, {mono: c})
                raise ValueError(f"extraction needs nonnegative pair exponents: {term} in {gen}")
    out: list[Poly] = []
    seen = set()
    for rem in gens:
        guard = 0
        while not rem.is_zero():
            guard += 1
            if guard > 10000:  # pragma: no cover
                raise RuntimeError("extraction failed to terminate")
            top = max((m[: len(names)] for m in rem.terms), key=lambda k: (sum(k), k))
            coeff, scale = rem, 1
            for name, e in zip(names, top):
                for _ in range(e):
                    coeff = coeff.partial(name)
                scale *= factorial(e)
            coeff = coeff.scale(Fraction(1, scale))
            if not pres.is_center_poly(coeff):  # pragma: no cover
                raise RuntimeError("extraction left non-central residue")
            rem = rem - coeff * Poly.monomial(ctx, top + zeros)
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
    order = [(i, pres.x_names[i], ps[i]) for i in range(n)] + [
        (i, pres.y_names[i], qs[i]) for i in range(n)
    ]
    for i, name, target in order:
        rem = target - b.partial(name)
        b = b + _antiderivative(rem, ctx, name, i + 1)
    for i in range(n):
        if b.partial(pres.x_names[i]) != ps[i] or b.partial(pres.y_names[i]) != qs[i]:
            raise NotClosed("(residual after integration)", i + 1, i + 1)
    return b


def _antiderivative(p: Poly, ctx: Context, name: str, pair: int) -> Poly:
    """A polynomial with d/d(name) equal to p; NotClosed when p has a
    name^-1 term, whose antiderivative is a logarithm."""
    idx = next(i for i, v in enumerate(ctx) if v.name == name)
    out = {}
    for mono, c in p.terms.items():
        m2 = list(mono)
        m2[idx] += 1
        if m2[idx] == 0:
            raise NotClosed(f"(no polynomial antiderivative of {name}^-1)", pair, pair)
        out[tuple(m2)] = Fraction(c, m2[idx])
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
    b = integrate_potential(pres, ps, qs)
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
    quotient: PoissonAlgebra  # A / A alpha, the target's first factor


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
        _delta_powers(partial(delta.apply, alg), cap, alg.gen(v.name), v.name)
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
    target = tensor(quo, poisson_algebra((y_var,), {}))
    return ChiContext(alg, delta, alpha, cap, target, y_var, quo)


def _delta_powers(op, cap: int, p: LocalElement, name: str = "") -> list[LocalElement]:
    """p, op(p), ... to the last nonzero power; LocalNilpotencyCapExceeded,
    naming ``name`` or else p, when op^(cap + 1)(p) is nonzero."""
    out = [p]
    while not out[-1].is_zero():
        if len(out) > cap + 1:
            raise LocalNilpotencyCapExceeded(cap, name or str(p))
        out.append(op(out[-1]))
    return out[:-1]


def _series(
    target: PoissonAlgebra, powers: list[LocalElement], m: LocalElement, sign: int = 1
) -> LocalElement:
    """sum sign^n/n! powers[n] m^n in ``target`` (see the module docstring)."""
    return combination(
        target,
        [
            (Fraction(sign**n, factorial(n)), target.monomial([m], (n,), start=p))
            for n, p in enumerate(powers)
        ],
    )


def _chi_powers(ctx: ChiContext, el: LocalElement, target: PoissonAlgebra) -> list[LocalElement]:
    """delta^n(el) in ``target``: modulo alpha for chi, in A for theta; each
    keeps its denominator."""
    powers = _delta_powers(partial(ctx.delta.apply, ctx.algebra), ctx.cap, el)
    return [target.element(dn) for dn in powers]


def _by_last_power(el: LocalElement, base: PoissonAlgebra) -> dict[int, LocalElement]:
    """Group el by the exponent of its last variable: power -> coefficient
    in ``base``, whose context is el's minus that variable; keeps el.den."""
    groups: dict[int, dict] = {}
    for mono, c in el.num.terms.items():
        groups.setdefault(mono[-1], {})[mono[:-1]] = c
    return {
        k: base.element(LocalElement(Poly(base.vars, terms), el.den))
        for k, terms in sorted(groups.items())
    }


def chi_forward(ctx: ChiContext, p: Poly | LocalElement) -> LocalElement:
    """chi(p) = sum 1/n! [delta^n(p) mod alpha] Y^n; a P-isomorphism onto
    the quotient extended by the central variable Y.

    A denominator s is accepted when delta(s) = 0: then delta^n(p / s^k) =
    delta^n(p) / s^k, so exp(delta) is a ring map of the localization and
    the series stays finite.  ValueError otherwise."""
    alg = ctx.algebra
    el = alg.element(p) if not isinstance(p, LocalElement) else p
    for s, k in zip(alg.inverted, el.den):
        if k and not ctx.delta.apply(alg, alg.element(s)).is_zero():
            raise ValueError(
                f"the exponential transform needs delta({s}) = 0 to act on 1/{s}"
            )
    target = ctx.target
    return _series(target, _chi_powers(ctx, el, target), target.gen(ctx.y_var.name))


def chi_inverse(ctx: ChiContext, q: Poly | LocalElement) -> LocalElement:
    """theta(p-bar Y^n) = alpha^n sum_m (-1)^m/m! delta^m(p) alpha^m, the
    series of -delta; the exact inverse of chi_forward."""
    alg = ctx.algebra
    el = ctx.target.element(q) if not isinstance(q, LocalElement) else q
    a = alg.gen(ctx.alpha.name)
    # target context minus Y is exactly alg's context (alpha kept, exponent 0)
    terms = []
    for ypow, lifted in _by_last_power(el, alg).items():
        series = _series(alg, _chi_powers(ctx, lifted, alg), a, -1)
        terms.append((1, alg.monomial([a], (ypow,), start=series)))
    return combination(alg, terms)


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
    source = skew = skew_extend(ctx.algebra, ctx.delta, x_name)
    taken = {v.name for v in ctx.quotient.vars}
    k = 1
    while f"X{k}" in taken or f"Y{k}" in taken:
        k += 1
    xn, yn = f"X{k}", f"Y{k}"
    pair = WeylPresentation(1, x_names=(xn,), y_names=(yn,)).algebra()
    target = tensor(ctx.quotient, pair)

    def fwd(p: Poly | LocalElement) -> LocalElement:
        el = skew.element(p) if not isinstance(p, LocalElement) else p
        x, y = target.gen(xn), target.gen(yn)
        terms = []
        for power, coeff in _by_last_power(el, ctx.algebra).items():
            series = _series(target, _chi_powers(ctx, coeff, target), y)
            terms.append((1, target.monomial([x], (power,), start=series)))
        return combination(target, terms)

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


# ---------------------------------------------------------------------------
# tensor presentation recognition


def pair_relation_failure(
    alg: PoissonAlgebra, pairs: list[tuple[LocalElement, LocalElement]]
) -> tuple[int, int, str] | None:
    """The first (i, j, kind) at which the pairs break {x_i, y_j} = delta_ij
    (kind "xy") or {x_i, x_j} = {y_i, y_j} = 0 (kind "commute"); None when
    every canonical relation holds."""
    for i, (x1, y1) in enumerate(pairs):
        for j, (x2, y2) in enumerate(pairs):
            want = alg.one() if i == j else alg.zero()
            if not alg.sub(alg.bracket(x1, y2), want).is_zero():
                return i, j, "xy"
            if not alg.bracket(x1, x2).is_zero() or not alg.bracket(y1, y2).is_zero():
                return i, j, "commute"
    return None


def pair_expansion(
    alg: PoissonAlgebra, pairs: list[tuple[LocalElement, LocalElement]], h: LocalElement
) -> dict[tuple[int, ...], LocalElement]:
    """h as sum_e c_e prod_i x_i^a_i y_i^b_i over the canonical ``pairs``:
    {e: c_e} with e = (a_1, b_1, ..., a_n, b_n) and every c_e nonzero.

    Pair after pair, the y_i^b coefficient of each coefficient k so far is
    pi_y(D^b k)/b!, and the x_i^a coefficient of that is (-1)^a
    pi_x(E^a c)/a! (see the module docstring); the powers of D on k, and of
    E on c, are computed once.  Once the series end, the expansion sums
    back to h: the terms of total order n carry (y - y)^n or (x - x)^n.
    For canonical pairs D acts as d/dy_i and E as -d/dx_i, both keep the
    centralizer of the earlier pairs, and so every c_e commutes with every
    pair element.  LocalNilpotencyCapExceeded when a series does not end
    within ``DEFAULT_NILPOTENCY_CAP`` powers (read at each call)."""
    cap = DEFAULT_NILPOTENCY_CAP
    out = {(): h}
    for x, y in pairs:
        d_op, e_op = partial(alg.bracket, x), partial(alg.bracket, y)
        nxt = {}
        for expo, k in out.items():
            d_powers = _delta_powers(d_op, cap, k)
            for b in range(len(d_powers)):
                c = _series(alg, d_powers[b:], y, -1)  # b! times the y^b coefficient
                e_powers = _delta_powers(e_op, cap, c)
                for a in range(len(e_powers)):
                    c_ab = _series(alg, e_powers[a:], x)
                    if not c_ab.is_zero():
                        scale = Fraction((-1) ** a, factorial(a) * factorial(b))
                        nxt[expo + (a, b)] = alg.scale(scale, c_ab)
        out = nxt
    return out


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
    failure = pair_relation_failure(alg, pairs)
    if failure is not None:
        i, j, kind = failure
        a, b = (f"x{i+1}", f"y{j+1}") if kind == "xy" else (f"pair {i+1}", f"pair {j+1}")
        raise NotCommuting(a, b, "(pair relation fails)")
    products = []
    for bexp in monomials_up_to(len(commuting_part), d):
        base = alg.monomial(commuting_part, bexp)
        for pexp in monomials_up_to(2 * len(pairs), d - sum(bexp)):
            products.append(alg.monomial(flat_pairs, pexp, start=base))
    # the targets are polynomial, so the products' caps serve them too
    span = Span(alg, alg._common_den(p.den for p in products))
    if not all(span.add(prod) for prod in products):
        return False
    targets = slice_basis(alg, d)
    if not all(span.contains(t) for t in targets):
        raise NotGenerating(f"(degree-{d} slice not covered)")
    return True
