"""Poisson algebras presented by generators and an antisymmetric bracket table.

An algebra is a variable context, a table {v_i, v_j} for i < j, an optional
triangular substitution ideal (the quotient), and an optional list of
inverted denominators (the localization).  Elements are ``LocalElement``s:
a numerator polynomial together with one denominator exponent per inverted
polynomial.

The bracket of arbitrary elements is computed as the biderivation

    {p, q} = sum_{i<j} {v_i, v_j} (d_i p d_j q - d_j p d_i q),

with quotient-rule partials on denominators; this is the unique Leibniz
extension of the table and agrees with the classical localization formula

    {p s^-1, q t^-1} = {p,q} s^-1 t^-1 - {p,t} q s^-1 t^-2
                       - {q,s} p s^-2 t^-1 + {s,t} p q s^-2 t^-2,

which the test suite checks against it directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import (
    NameClash,
    NotPDerivation,
    NotStable,
    ZeroDenominator,
)
from .lie import LieAlgebra
from .polys import Context, Poly, VarSpec

# ---------------------------------------------------------------------------
# substitution ideals


@dataclass(frozen=True)
class SubstitutionIdeal:
    """Triangular variable-elimination rules (v -> image); the normal form
    substitutes all rules simultaneously and is idempotent because no
    eliminated variable occurs in any image."""

    rules: tuple[tuple[VarSpec, Poly], ...]

    def __post_init__(self):
        eliminated = {v.name for v, _ in self.rules}
        if len(eliminated) != len(self.rules):
            raise ValueError("duplicate elimination rule")
        for v, img in self.rules:
            if img.variables_used() & eliminated:
                raise ValueError(f"rule image for {v.name} uses an eliminated variable")

    def eliminated_names(self) -> set[str]:
        return {v.name for v, _ in self.rules}

    def normal_form(self, p: Poly) -> Poly:
        if not self.rules:
            return p
        return p.substitute({v: img.extend(p.ctx) for v, img in self.rules})

    def is_empty(self) -> bool:
        return not self.rules


def ideal_from_pairs(ctx: Context, pairs: Iterable[tuple[str, Poly | str]]) -> SubstitutionIdeal:
    from .polys import parse_poly

    rules = []
    for name, img in pairs:
        var = next(v for v in ctx if v.name == name)
        poly = parse_poly(img, ctx) if isinstance(img, str) else img.extend(ctx)
        rules.append((var, poly))
    return SubstitutionIdeal(tuple(rules))


# ---------------------------------------------------------------------------
# elements of (possibly localized) algebras


class LocalElement:
    """num * prod(inverted_i ^ -den_i); canonical form cancels exact powers
    of the listed denominators (and nothing else)."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: tuple[int, ...] = ()):
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", tuple(den))

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("LocalElement is immutable")

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return all(e == 0 for e in self.den)

    def __eq__(self, other):
        if isinstance(other, Poly):
            other = LocalElement(other, (0,) * len(self.den))
        if not isinstance(other, LocalElement):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __str__(self):
        return format_local(self, None)

    def __repr__(self):
        return f"LocalElement({self})"


def format_local(el: LocalElement, algebra: "PoissonAlgebra | None") -> str:
    num = str(el.num)
    if all(e == 0 for e in el.den):
        return num
    inv = algebra.inverted if algebra is not None else None
    parts = []
    for i, e in enumerate(el.den):
        if e == 0:
            continue
        base = str(inv[i]) if inv is not None else f"s{i}"
        if len(base) > 1 and not base.isalnum():
            base = f"({base})"
        parts.append(base if e == 1 else f"{base}^{e}")
    den = "*".join(parts)
    if " " in num or num.startswith("-"):
        num = f"({num})"
    return f"{num}/{den}"


# ---------------------------------------------------------------------------
# the algebra


@dataclass(frozen=True, eq=False)
class PoissonAlgebra:
    vars: Context
    table: dict[tuple[int, int], LocalElement] = field(default_factory=dict)
    ideal: SubstitutionIdeal | None = None
    inverted: tuple[Poly, ...] = ()

    # -- element helpers ----------------------------------------------------

    def zero(self) -> LocalElement:
        return LocalElement(Poly.zero(self.vars), (0,) * len(self.inverted))

    def one(self) -> LocalElement:
        return LocalElement(Poly.const(self.vars, 1), (0,) * len(self.inverted))

    def element(self, p: Poly | LocalElement | str) -> LocalElement:
        """Coerce a polynomial (or report-grammar string) into the algebra
        and put it in normal form."""
        from .polys import parse_poly

        if isinstance(p, str):
            p = parse_poly(p, self.vars)
        if isinstance(p, Poly):
            p = LocalElement(p.extend(self.vars), (0,) * len(self.inverted))
        num = p.num.extend(self.vars)
        den = tuple(p.den)
        if len(den) > len(self.inverted):
            if any(e != 0 for e in den[len(self.inverted) :]):
                raise ValueError("element carries denominators the algebra lacks")
            den = den[: len(self.inverted)]
        den = den + (0,) * (len(self.inverted) - len(den))
        return self.normalize(LocalElement(num, den))

    def gen(self, name: str) -> LocalElement:
        return self.element(Poly.var(self.vars, name))

    def normalize(self, el: LocalElement) -> LocalElement:
        num = self.ideal.normal_form(el.num) if self.ideal else el.num
        den = list(el.den)
        if num.is_zero():
            return LocalElement(num, (0,) * len(self.inverted))
        for i, s in enumerate(self.inverted):
            while den[i] > 0:
                q = num.divide_exact(s)
                if q is None:
                    break
                num = q
                den[i] -= 1
        return LocalElement(num, tuple(den))

    def effective_vars(self) -> Context:
        """Generators that survive the quotient (non-eliminated variables)."""
        if not self.ideal:
            return self.vars
        dropped = self.ideal.eliminated_names()
        return tuple(v for v in self.vars if v.name not in dropped)

    # -- arithmetic -----------------------------------------------------------

    def add(self, a: LocalElement, b: LocalElement) -> LocalElement:
        den = tuple(max(x, y) for x, y in zip(a.den, b.den)) or ()
        if not self.inverted:
            return self.normalize(LocalElement(a.num + b.num, ()))
        na = a.num
        nb = b.num
        for i, s in enumerate(self.inverted):
            if den[i] - a.den[i]:
                na = na * s ** (den[i] - a.den[i])
            if den[i] - b.den[i]:
                nb = nb * s ** (den[i] - b.den[i])
        return self.normalize(LocalElement(na + nb, den))

    def sub(self, a: LocalElement, b: LocalElement) -> LocalElement:
        return self.add(a, self.scale(-1, b))

    def mul(self, a: LocalElement, b: LocalElement) -> LocalElement:
        return self.normalize(
            LocalElement(a.num * b.num, tuple(x + y for x, y in zip(a.den, b.den)))
        )

    def scale(self, c, a: LocalElement) -> LocalElement:
        return LocalElement(a.num.scale(c), a.den)

    def invert(self, a: LocalElement) -> LocalElement:
        """Inverse of a unit: a Laurent unit monomial times powers of the
        inverted denominators.  Raises ZeroDenominator otherwise."""
        a = self.normalize(a)
        num = a.num
        extra = [0] * len(self.inverted)
        for i, s in enumerate(self.inverted):
            while True:
                q = num.divide_exact(s)
                if q is None or q.is_zero():
                    break
                num = q
                extra[i] += 1
        if not num.is_unit_monomial():
            raise ZeroDenominator(f"cannot invert non-unit {a}")
        inv_num = num**-1
        new_den = []
        for i in range(len(self.inverted)):
            k = extra[i] - a.den[i]
            if k >= 0:
                new_den.append(k)
            else:
                inv_num = inv_num * self.inverted[i] ** (-k)
                new_den.append(0)
        return self.normalize(LocalElement(inv_num, tuple(new_den)))

    def power(self, a: LocalElement, k: int) -> LocalElement:
        if k < 0:
            return self.power(self.invert(a), -k)
        return self.monomial((a,), (k,))

    def monomial(
        self,
        elements: Sequence[LocalElement],
        expo: Sequence[int],
        start: LocalElement | None = None,
    ) -> LocalElement:
        """start (default 1) times prod elements[i]^expo[i], multiplied one
        factor at a time from the left."""
        out = self.one() if start is None else start
        for e, el in zip(expo, elements):
            for _ in range(e):
                out = self.mul(out, el)
        return out

    def partial(self, a: LocalElement, v: VarSpec) -> LocalElement:
        """Quotient-rule partial derivative d/dv."""
        out = self.normalize(LocalElement(a.num.partial(v), a.den))
        for i, s in enumerate(self.inverted):
            k = a.den[i]
            if k == 0:
                continue
            ds = s.partial(v)
            if ds.is_zero():
                continue
            den = list(a.den)
            den[i] += 1
            out = self.add(
                out, self.normalize(LocalElement(a.num.scale(-k) * ds, tuple(den)))
            )
        return out

    # -- the bracket ------------------------------------------------------------

    def table_entry(self, i: int, j: int) -> LocalElement:
        if i == j:
            return self.zero()
        if i < j:
            e = self.table.get((i, j))
            return e if e is not None else self.zero()
        e = self.table.get((j, i))
        return self.scale(-1, e) if e is not None else self.zero()

    def bracket(self, p: Poly | LocalElement | str, q: Poly | LocalElement | str) -> LocalElement:
        """Leibniz/biderivation extension of the generator table, followed by
        ideal normal form and denominator cancellation."""
        a = self.element(p) if not isinstance(p, LocalElement) else p
        b = self.element(q) if not isinstance(q, LocalElement) else q
        out = self.zero()
        parts_a = {}
        parts_b = {}
        for i, v in enumerate(self.vars):
            da = self.partial(a, v)
            if not da.is_zero():
                parts_a[i] = da
            db = self.partial(b, v)
            if not db.is_zero():
                parts_b[i] = db
        for (i, j), t in self.table.items():
            if t.is_zero():
                continue
            term = self.zero()
            if i in parts_a and j in parts_b:
                term = self.mul(parts_a[i], parts_b[j])
            if j in parts_a and i in parts_b:
                term = self.sub(term, self.mul(parts_a[j], parts_b[i]))
            if not term.is_zero():
                out = self.add(out, self.mul(t, term))
        return out

    def jacobi_check(self):
        """None when the Jacobi identity holds on every generator triple
        (sufficient for the whole algebra, the Jacobiator being a derivation
        in each slot); else the first violation (i, j, k, residual)."""
        n = len(self.vars)
        for i in range(n):
            pi = self.gen(self.vars[i].name)
            for j in range(i + 1, n):
                pj = self.gen(self.vars[j].name)
                for k in range(j + 1, n):
                    pk = self.gen(self.vars[k].name)
                    res = self.add(
                        self.bracket(pi, self.bracket(pj, pk)),
                        self.add(
                            self.bracket(pj, self.bracket(pk, pi)),
                            self.bracket(pk, self.bracket(pi, pj)),
                        ),
                    )
                    if not res.is_zero():
                        return (i, j, k, res)
        return None

    def format(self, el: LocalElement) -> str:
        return format_local(el, self)

    def table_signature(self) -> dict[tuple[int, int], tuple]:
        """Bracket table over the effective generators, positionally
        renumbered; comparable across algebras with matching generators."""
        eff = self.effective_vars()
        pos = {v.name: k for k, v in enumerate(eff)}
        keep = [i for i, v in enumerate(self.vars) if v.name in pos]
        sig = {}
        for a in range(len(keep)):
            for b in range(a + 1, len(keep)):
                i, j = keep[a], keep[b]
                val = self.normalize(self.table_entry(i, j))
                terms = []
                for mono, c in sorted(val.num.terms.items()):
                    proj = tuple(mono[k] for k in keep)
                    terms.append((proj, c))
                if terms:
                    sig[(a, b)] = (tuple(sorted(terms)), val.den)
        return sig


# ---------------------------------------------------------------------------
# constructors


def poisson_algebra(
    vars: Context,
    entries: Mapping[tuple[int, int], Poly | LocalElement],
    ideal: SubstitutionIdeal | None = None,
    inverted: Sequence[Poly] = (),
) -> PoissonAlgebra:
    """Assemble an algebra from raw table data (no Jacobi check here; the
    named constructors below guarantee it structurally or explicitly)."""
    inv = tuple(inverted)
    table = {}
    alg = PoissonAlgebra(vars, table, ideal, inv)
    for (i, j), val in entries.items():
        if not (0 <= i < j < len(vars)):
            raise ValueError(f"bad table index {(i, j)}")
        el = alg.element(val)
        if not el.is_zero():
            table[(i, j)] = el
    return alg


def canonical_from_lie(g: LieAlgebra) -> PoissonAlgebra:
    """The linear Poisson structure on the symmetric algebra of g:
    {x_i, x_j} = sum_k c_ij^k x_k."""
    ctx = g.basis
    entries = {}
    for (i, j), vec in g.structure.items():
        p = Poly(ctx, {tuple(1 if t == k else 0 for t in range(len(ctx))): c for k, c in vec.items()})
        entries[(i, j)] = p
    return poisson_algebra(ctx, entries)


def _unstable_witness(alg: PoissonAlgebra, ideal: SubstitutionIdeal):
    """First (rule variable, generator, residual) whose rule generator
    v - image does not bracket to 0 mod the ideal; None when stable."""
    for v, img in ideal.rules:
        p = Poly.var(alg.vars, v.name) - img.extend(alg.vars)
        for w in alg.vars:
            res = alg.bracket(p, Poly.var(alg.vars, w.name))
            if not ideal.normal_form(res.num).is_zero():
                return v.name, w.name, res.num
    return None


def is_stable_ideal(alg: PoissonAlgebra, ideal: SubstitutionIdeal) -> bool:
    """True iff every rule generator v - image brackets to 0 mod the ideal
    against every algebra generator."""
    return _unstable_witness(alg, ideal) is None


def quotient(alg: PoissonAlgebra, ideal: SubstitutionIdeal) -> PoissonAlgebra:
    """Quotient by a bracket-stable substitution ideal (NotStable otherwise).
    Generators are kept; elements are normal-formed onto the non-eliminated
    variables."""
    witness = _unstable_witness(alg, ideal)
    if witness is not None:
        v, w, res = witness
        raise NotStable(v, w, str(res))
    if alg.ideal and not alg.ideal.is_empty():
        merged = tuple(
            (v, ideal.normal_form(img.extend(alg.vars))) for v, img in alg.ideal.rules
        ) + tuple(ideal.rules)
        ideal = SubstitutionIdeal(merged)
    new_inverted = []
    for s in alg.inverted:
        s2 = ideal.normal_form(s)
        if s2.is_zero():
            raise ZeroDenominator(str(s))
        new_inverted.append(s2)
    return poisson_algebra(alg.vars, alg.table, ideal, new_inverted)


def localize(alg: PoissonAlgebra, denominators: Sequence[Poly]) -> PoissonAlgebra:
    """Invert the listed nonzero polynomials (ZeroDenominator if one dies in
    the quotient).  Elements of the original algebra coerce via
    ``element``."""
    new = list(alg.inverted)
    for s in denominators:
        s = s.extend(alg.vars)
        if alg.ideal:
            s = alg.ideal.normal_form(s)
        if s.is_zero():
            raise ZeroDenominator(str(s))
        if any(e < 0 for m in s.terms for e in m):
            raise ValueError("denominators must be ordinary polynomials")
        new.append(s)
    pad = (0,) * (len(new) - len(alg.inverted))
    entries = {k: LocalElement(val.num, val.den + pad) for k, val in alg.table.items()}
    return poisson_algebra(alg.vars, entries, alg.ideal, new)


def tensor(a: PoissonAlgebra, b: PoissonAlgebra) -> PoissonAlgebra:
    """Tensor product: disjoint generator sets, cross brackets zero."""
    clash = {v.name for v in a.vars} & {v.name for v in b.vars}
    if clash:
        raise NameClash(clash)
    ctx = a.vars + b.vars
    off = len(a.vars)
    rules = []
    if a.ideal:
        rules += [(v, img.extend(ctx)) for v, img in a.ideal.rules]
    if b.ideal:
        rules += [(v, img.extend(ctx)) for v, img in b.ideal.rules]
    ideal = SubstitutionIdeal(tuple(rules)) if rules else None
    inverted = [s.extend(ctx) for s in a.inverted + b.inverted]
    entries = {}
    for (i, j), val in a.table.items():
        entries[(i, j)] = LocalElement(val.num.extend(ctx), val.den + (0,) * len(b.inverted))
    for (i, j), val in b.table.items():
        entries[(i + off, j + off)] = LocalElement(
            val.num.extend(ctx), (0,) * len(a.inverted) + val.den
        )
    return poisson_algebra(ctx, entries, ideal, inverted)


# ---------------------------------------------------------------------------
# derivations


@dataclass(frozen=True)
class Derivation:
    """Derivation given by its images on the generators; extended to any
    element by the chain rule (with the quotient rule on denominators)."""

    images: dict[str, LocalElement]

    def image_of(self, alg: PoissonAlgebra, name: str) -> LocalElement:
        el = self.images.get(name)
        return alg.element(el) if el is not None else alg.zero()

    def apply(self, alg: PoissonAlgebra, p: Poly | LocalElement | str) -> LocalElement:
        el = alg.element(p) if not isinstance(p, LocalElement) else p
        out = alg.zero()
        for v in alg.vars:
            img = self.images.get(v.name)
            if img is None:
                continue
            img = alg.element(img)
            if img.is_zero():
                continue
            d = alg.partial(el, v)
            if not d.is_zero():
                out = alg.add(out, alg.mul(d, img))
        return out


def inner_derivation(alg: PoissonAlgebra, a: Poly | LocalElement) -> Derivation:
    """d_a = {a, .}."""
    a = alg.element(a) if not isinstance(a, LocalElement) else a
    return Derivation({v.name: alg.bracket(a, alg.gen(v.name)) for v in alg.vars})


def is_p_derivation(alg: PoissonAlgebra, delta: Derivation) -> tuple[bool, tuple | None]:
    """Check the bracket Leibniz rule on all generator pairs (sufficient
    because both sides are biderivations).  Returns (ok, witness)."""
    n = len(alg.vars)
    for i in range(n):
        vi = alg.gen(alg.vars[i].name)
        for j in range(i + 1, n):
            vj = alg.gen(alg.vars[j].name)
            lhs = delta.apply(alg, alg.bracket(vi, vj))
            rhs = alg.add(
                alg.bracket(delta.apply(alg, vi), vj),
                alg.bracket(vi, delta.apply(alg, vj)),
            )
            res = alg.sub(lhs, rhs)
            if not res.is_zero():
                return False, (alg.vars[i].name, alg.vars[j].name, res)
    return True, None


def skew_extend(
    alg: PoissonAlgebra, delta: Derivation, name: str, invertible: bool = False
) -> PoissonAlgebra:
    """Adjoin a variable X with {X, p} = delta(p); delta must be a
    P-derivation (checked), which is exactly what makes Jacobi survive."""
    ok, witness = is_p_derivation(alg, delta)
    if not ok:
        raise NotPDerivation(witness[:2], str(witness[2]))
    if any(v.name == name for v in alg.vars):
        raise NameClash({name})
    new_var = VarSpec(name, invertible)
    ctx = alg.vars + (new_var,)
    n = len(alg.vars)
    ideal = (
        SubstitutionIdeal(tuple((v, img.extend(ctx)) for v, img in alg.ideal.rules))
        if alg.ideal
        else None
    )
    inverted = [s.extend(ctx) for s in alg.inverted]
    entries = {k: LocalElement(val.num.extend(ctx), val.den) for k, val in alg.table.items()}
    for i, v in enumerate(alg.vars):
        # {v_i, X} = -delta(v_i)
        img = delta.image_of(alg, v.name)
        entries[(i, n)] = LocalElement(img.num.extend(ctx).scale(-1), img.den)
    return poisson_algebra(ctx, entries, ideal, inverted)


def epsilon_derivation(
    alg_or_lie, x: Sequence[Fraction] | Poly | str, ideal: SubstitutionIdeal | None = None
) -> Derivation:
    """The derivation induced by bracketing with (the image of) x.

    Accepts either the quotient algebra directly, or a Lie algebra plus an
    optional substitution ideal (the quotient is then built here)."""
    if isinstance(alg_or_lie, LieAlgebra):
        alg = canonical_from_lie(alg_or_lie)
        if ideal is not None and not ideal.is_empty():
            alg = quotient(alg, ideal)
    else:
        alg = alg_or_lie
    if isinstance(x, (Poly, str)):
        el = alg.element(x)
    else:
        p = Poly.zero(alg.vars)
        for c, v in zip(x, alg.vars):
            if c != 0:
                p = p + Poly.var(alg.vars, v.name).scale(c)
        el = alg.element(p)
    return inner_derivation(alg, el)
