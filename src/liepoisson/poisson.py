"""Poisson algebras presented by generators and an antisymmetric bracket table.

An algebra is a variable context, a table {v_i, v_j} for i < j, an optional
triangular substitution ideal (the quotient), and an optional list of
inverted denominators (the localization).  Elements are ``LocalElement``s:
a numerator polynomial together with one denominator exponent per inverted
polynomial.

Every element an algebra hands out is in normal form (no eliminated
variable, no cancellable denominator power).  ``element`` is the one
coercion point that applies the ideal; the arithmetic keeps normal form by
cancelling denominators only, so a ``LocalElement`` passed to an operation
must come from that algebra.  Cancelling works in the Laurent ring of the
context: a numerator with negative exponents, or an inverted element with a
Laurent-unit factor, still loses every power the ring can divide out.

Every sum of elements is one sum (``_sum``): each numerator is written over
the largest power of each inverted element among the terms, the numerators
are added into one polynomial, and that polynomial is cancelled once.
``add``, ``combination``, the quotient rule and the bracket all take it.

The bracket is the unique Leibniz extension of the table,

    {a, b} = sum_k {a, x_k} d_k b,    {x_i, b} = sum_k T_ik d_k b.

A derivation D is given by a row: its nonzero images D(x_k) = N_k / prod s^E
as numerators over one common denominator E.  Row i of the Hamiltonian rows
holds T_ik = {x_i, x_k} (built once, when the table is complete); the row of
d/dv is the single image 1.  With D' = sum_k N_k d_k, applied to
polynomials only, the quotient rule on b = n / prod s^k is

    D(b) = [D'(n) / prod s^k  -  sum_i k_i n D'(s_i) / (prod s^k * s_i)] / prod s^E,

one sum, in which s_i occurs only when k_i > 0 and D'(s_i) != 0, and each
partial d_k is taken once per row and only where N_k != 0 and b can depend
on x_k.  When a is a generator x_j, {a, b} is row j applied to b; when b is
x_j, it is -(row j applied to a).  Otherwise {a, x_k} = -(row k applied to
a) for each k that b can depend on, and {a, b} is that row applied to b.
``Derivation.apply`` is the row of its images applied to b.

The cancelled form is canonical when no two inverted elements share a
factor.  The bracket agrees with the classical localization formula

    {p s^-1, q t^-1} = {p,q} s^-1 t^-1 - {p,t} q s^-1 t^-2
                       - {q,s} p s^-2 t^-1 + {s,t} p q s^-2 t^-2,

which the test suite checks against it directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import add
from typing import Iterable, Mapping, Sequence

from .errors import (
    NameClash,
    NotPDerivation,
    NotStable,
    UnknownVariable,
    ZeroDenominator,
)
from .lie import LieAlgebra, unit_index
from .polys import Coef, Context, Mono, Poly, VarSpec

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
        var = next((v for v in ctx if v.name == name), None)
        if var is None:
            raise UnknownVariable(name)
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


# a derivation row: the nonzero images D(x_k) = N_k / prod s^E as
# ((k, N_k), ...), k ascending, and E (see ``PoissonAlgebra._row``)
Row = tuple[tuple[tuple[int, Poly], ...], tuple[int, ...]]


# ---------------------------------------------------------------------------
# the algebra


@dataclass(frozen=True, eq=False)
class PoissonAlgebra:
    """Invariant: every element it returns (table entries included) is in
    normal form, established once by ``element`` and kept by the rest."""

    vars: Context
    table: dict[tuple[int, int], LocalElement] = field(default_factory=dict)
    ideal: SubstitutionIdeal | None = None
    inverted: tuple[Poly, ...] = ()
    # per generator i, the row (see ``_row``) of the nonzero {x_i, x_k}.
    # Set by ``poisson_algebra`` once the table is complete.
    rows: tuple[Row, ...] = field(default=(), init=False, repr=False)
    # per inverted s: (content, core) with s = content * core, content the
    # Laurent-unit monomial factor of s; content is None when the context
    # has no Laurent variable (then core is s).
    cores: tuple[tuple[Mono | None, Poly], ...] = field(
        default=(), init=False, repr=False
    )
    # degree bound -> center numerators (see invariants.center_up_to_degree)
    centers: dict[int, tuple[Poly, ...]] = field(
        default_factory=dict, init=False, repr=False
    )
    # (i, k) -> inverted[i]^k, filled by ``_lift``
    powers: dict[tuple[int, int], Poly] = field(
        default_factory=dict, init=False, repr=False
    )

    def __post_init__(self):
        laurent = any(v.invertible for v in self.vars)
        object.__setattr__(
            self,
            "cores",
            tuple(_split_content(s) if laurent else (None, s) for s in self.inverted),
        )

    # -- element helpers ----------------------------------------------------

    def zero(self) -> LocalElement:
        return LocalElement(Poly.zero(self.vars), (0,) * len(self.inverted))

    def one(self) -> LocalElement:
        return LocalElement(Poly.const(self.vars, 1), (0,) * len(self.inverted))

    def element(self, p: Poly | LocalElement | str) -> LocalElement:
        """Coerce a polynomial, report-grammar string or LocalElement into
        the algebra and put it in normal form."""
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
        """Ideal normal form, then ``_cancel``; only ``element`` calls it."""
        num = self.ideal.normal_form(el.num) if self.ideal else el.num
        return self._cancel(num, el.den)

    def _cancel(self, num: Poly, den: tuple[int, ...]) -> LocalElement:
        """Cancel exact powers of the inverted denominators from num, in the
        order of ``inverted``.  A single-term s = c x^f outside a Laurent
        context divides num exactly k times for k the least floor(e_v / f_v)
        over num's terms and the variables v of f, so s^k leaves in one
        division; any other s is divided out one power at a time."""
        if not any(den):
            return LocalElement(num, den)
        if num.is_zero():
            return LocalElement(num, (0,) * len(self.inverted))
        den = list(den)
        for i, (content, core) in enumerate(self.cores):
            if den[i] and content is None and len(core.terms) == 1:
                ((f, c),) = core.terms.items()
                k = min(
                    [den[i]]
                    + [m[v] // e for m in num.terms for v, e in enumerate(f) if e]
                )
                if k:
                    if k > 1:  # s^k, built as the one monomial it is
                        core = Poly(self.vars, {tuple(k * e for e in f): c**k})
                    num = num.divide_exact(core)
                    den[i] -= k
                continue
            while den[i] > 0:
                q = self._divide(num, i)
                if q is None:
                    break
                num = q
                den[i] -= 1
        return LocalElement(num, tuple(den))

    def cancel_each(self, num: Poly, dens: Sequence[tuple[int, ...]]) -> list[LocalElement]:
        """``_cancel(num, den)`` for each den in ``dens``; num in normal form.

        Stage i of ``_cancel`` divides its dividend q by s = inverted[i] as
        often as den[i] allows and s divides.  Here it reads those quotients
        from a ladder q, q/s, q/s^2, ..., built once per stage and dividend
        (named by the powers taken before it), one ``_cancel`` by s per rung
        and only as far as some den asks.  The stages run in the order of
        ``inverted``: each form is ``_cancel``'s greedy one, canonical only
        when no two inverted elements share a factor."""
        ladders = {}  # (i, powers taken before i) -> q, q/s, ..., then None once s fails
        out = []
        for den in dens:
            q, taken, left = num, (), ()
            for i, k in enumerate(den):
                ladder = ladders.setdefault((i, taken), [q])
                while len(ladder) <= k and ladder[-1] is not None:
                    over_s = (0,) * i + (1,) + (0,) * (len(den) - i - 1)
                    rung = self._cancel(ladder[-1], over_s)
                    ladder.append(None if rung.den[i] else rung.num)
                j = min(k, len(ladder) - 1 - (ladder[-1] is None))
                q, taken, left = ladder[j], taken + (j,), left + (k - j,)
            out.append(LocalElement(q, left))
        return out

    def _divide(self, num: Poly, i: int) -> Poly | None:
        """num / inverted[i] in the Laurent ring of the context, or None.

        With content c and core r (s = c r): clear the negative exponents of
        num with a unit monomial u, divide num u by the polynomial r, and
        shift back by u^-1 c^-1.  r has no Laurent-variable factor, so the
        quotient of num u by r, when it exists, is a polynomial."""
        content, core = self.cores[i]
        if content is None or num.is_zero():
            return num.divide_exact(core)
        low = tuple(min(0, *col) for col in zip(*num.terms))
        if any(low):
            num = num * Poly.monomial(self.vars, [-e for e in low])
        q = num.divide_exact(core)
        if q is None:
            return None
        back = [e - c for e, c in zip(low, content)]
        return q * Poly.monomial(self.vars, back) if any(back) else q

    def effective_vars(self) -> Context:
        """Generators that survive the quotient (non-eliminated variables)."""
        if not self.ideal:
            return self.vars
        dropped = self.ideal.eliminated_names()
        return tuple(v for v in self.vars if v.name not in dropped)

    # -- arithmetic -----------------------------------------------------------

    def _sum(self, terms: Sequence[tuple[Coef, Poly, tuple[int, ...]]]) -> LocalElement:
        """sum c * num / prod s^den over the (c, num, den) terms, c != 0:
        each numerator over the largest power of each s among them, added
        into one polynomial, cancelled once."""
        if not terms:
            return self.zero()
        if len(terms) == 1:
            ((c, num, den),) = terms
            return self._cancel(num if c == 1 else num.scale(c), den)
        den = self._common_den(d for _, _, d in terms)
        acc: dict[Mono, Coef] = {}
        for c, num, d in terms:
            for m, v in self._lift(num, d, den).terms.items():
                acc[m] = acc.get(m, 0) + (v if c == 1 else c * v)
        return self._cancel(Poly(self.vars, acc), den)

    def _common_den(self, dens: Iterable[tuple[int, ...]]) -> tuple[int, ...]:
        return tuple(map(max, zip(*dens, (0,) * len(self.inverted))))

    def _lift(self, num: Poly, den: tuple[int, ...], to: tuple[int, ...]) -> Poly:
        """num / prod s^den rewritten over prod s^to (to >= den): its
        numerator.  Each power s_i^k is computed once per algebra."""
        if den == to or num.is_zero():
            return num
        for i, (k, e) in enumerate(zip(den, to)):
            if e > k:
                p = self.powers.get((i, e - k))
                if p is None:
                    s = self.inverted[i]
                    p = self.powers[(i, e - k)] = s if e - k == 1 else s ** (e - k)
                num = num * p
        return num

    def add(self, a: LocalElement, b: LocalElement) -> LocalElement:
        return self._sum(((1, a.num, a.den), (1, b.num, b.den)))

    def sub(self, a: LocalElement, b: LocalElement) -> LocalElement:
        return self.add(a, self.scale(-1, b))

    def mul(self, a: LocalElement, b: LocalElement) -> LocalElement:
        return self._cancel(a.num * b.num, tuple(x + y for x, y in zip(a.den, b.den)))

    def scale(self, c, a: LocalElement) -> LocalElement:
        return LocalElement(a.num.scale(c), a.den)

    def invert(self, a: LocalElement) -> LocalElement:
        """Inverse of a unit: a Laurent unit monomial times powers of the
        inverted denominators.  Raises ZeroDenominator otherwise."""
        num = a.num
        extra = [0] * len(self.inverted)
        for i, (_, core) in enumerate(self.cores):
            if core.is_constant():
                continue  # a unit already: dividing by it never ends
            while True:
                q = self._divide(num, i)
                if q is None or q.is_zero():
                    break
                num = q
                extra[i] += 1
        if not num.is_unit_monomial():
            raise ZeroDenominator(str(a), "cannot invert a non-unit of the localization")
        inv_num = num**-1
        new_den = []
        for i in range(len(self.inverted)):
            k = extra[i] - a.den[i]
            if k >= 0:
                new_den.append(k)
            else:
                inv_num = inv_num * self.inverted[i] ** (-k)
                new_den.append(0)
        return self._cancel(inv_num, tuple(new_den))

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
        """Quotient-rule partial derivative d/dv: the row of the single
        image 1 at v."""
        row = (((self.vars.index(v), Poly.const(self.vars, 1)),), (0,) * len(self.inverted))
        return self._apply_row(row, a, self._support(a), {})

    # -- the bracket ------------------------------------------------------------

    def table_entry(self, i: int, j: int) -> LocalElement:
        if i == j:
            return self.zero()
        if i < j:
            e = self.table.get((i, j))
            return e if e is not None else self.zero()
        e = self.table.get((j, i))
        return self.scale(-1, e) if e is not None else self.zero()

    def _support(self, a: LocalElement) -> set[int]:
        """Variables a can have a nonzero partial in: those of the
        numerator, and by the quotient rule those of each inverted element
        with a nonzero power in the denominator."""
        used = a.num.variable_indices()
        for s, k in zip(self.inverted, a.den):
            if k:
                used |= s.variable_indices()
        return used

    def bracket(self, p: Poly | LocalElement | str, q: Poly | LocalElement | str) -> LocalElement:
        """{a, b} by rows (see the module docstring); a Poly or string
        argument is coerced through ``element``."""
        a = self.element(p) if not isinstance(p, LocalElement) else p
        b = self.element(q) if not isinstance(q, LocalElement) else q
        j = _generator_index(a)
        if j is not None:
            return self._apply_row(self.rows[j], b, self._support(b), {})
        j = _generator_index(b)
        if j is not None:
            return self.scale(-1, self._apply_row(self.rows[j], a, self._support(a), {}))
        support, a_support = self._support(b), self._support(a)
        if not support or not a_support:
            return self.zero()
        parts: dict = {}
        row = self._row(
            (k, self._apply_row(self.rows[k], a, a_support, parts)) for k in sorted(support)
        )
        return self.scale(-1, self._apply_row(row, b, support, {}))

    def _row(self, images: Iterable[tuple[int, LocalElement]]) -> Row:
        """The row of the derivation with the given images (k, D(x_k))."""
        kept = [(k, t) for k, t in images if not t.is_zero()]
        den = self._common_den(t.den for _, t in kept)
        return tuple((k, self._lift(t.num, t.den, den)) for k, t in kept), den

    def _apply_row(
        self, row: Row, b: LocalElement, support: set[int], parts: dict[tuple[int, int], Poly]
    ) -> LocalElement:
        """D(b) for the derivation D of ``row``, by the quotient rule of the
        module docstring.  ``support`` is ``_support(b)``.  ``parts`` caches,
        for one b, the partial d_k of b.num (i = -1) or of inverted[i]
        under (i, k)."""
        entries, E = row
        out = self._row_sum(entries, b.num, -1, support, parts)
        if not any(b.den):  # b = n: D(b) = D'(n) / prod s^E
            return self._cancel(out, E)
        den = tuple(map(add, b.den, E))
        terms = [(1, out, den)]
        for i, (s, k) in enumerate(zip(self.inverted, b.den)):
            if k:
                ds = self._row_sum(entries, s, i, s.variable_indices(), parts)
                if not ds.is_zero():
                    terms.append((-k, b.num * ds, den[:i] + (den[i] + 1,) + den[i + 1 :]))
        return self._sum(terms)

    def _row_sum(self, entries, p: Poly, i: int, support, parts: dict) -> Poly:
        """D'(p) = sum_k N_k d_k p over the row's numerators, one polynomial."""
        acc: dict[Mono, Coef] = {}
        for k, t in entries:
            if k not in support:
                continue
            for m2, c2 in self._poly_partial(p, i, k, parts).terms.items():
                for m1, c1 in t.terms.items():
                    m = tuple(map(add, m1, m2))
                    acc[m] = acc.get(m, 0) + c1 * c2
        return Poly(self.vars, acc)

    def _poly_partial(self, p: Poly, i: int, k: int, parts: dict) -> Poly:
        d = parts.get((i, k))
        if d is None:
            d = parts[(i, k)] = p.partial(self.vars[k])
        return d

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
                val = self.table_entry(i, j)
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
    n = len(vars)
    rows = tuple(
        alg._row((k, alg.table_entry(i, k)) for k in range(n) if (min(i, k), max(i, k)) in table)
        for i in range(n)
    )
    object.__setattr__(alg, "rows", rows)
    return alg


def _generator_index(a: LocalElement) -> int | None:
    """j when a is the generator x_j (no denominator, one term, coefficient
    1, degree 1), else None."""
    if any(a.den) or len(a.num.terms) != 1:
        return None
    ((mono, c),) = a.num.terms.items()
    return unit_index(mono) if c == 1 else None


def _split_content(s: Poly) -> tuple[Mono, Poly]:
    """(content, core): content is the largest Laurent-unit monomial
    dividing s (lowest exponents over the invertible variables), core is
    s / content."""
    low = tuple(
        min(m[j] for m in s.terms) if v.invertible else 0 for j, v in enumerate(s.ctx)
    )
    return low, s * Poly.monomial(s.ctx, [-e for e in low]) if any(low) else s


def canonical_from_lie(g: LieAlgebra) -> PoissonAlgebra:
    """The linear Poisson structure on the symmetric algebra of g:
    {x_i, x_j} = sum_k c_ij^k x_k."""
    ctx = g.basis
    entries = {}
    for (i, j), vec in g.structure.items():
        p = Poly(ctx, {tuple(1 if t == k else 0 for t in range(len(ctx))): c for k, c in vec.items()})
        entries[(i, j)] = p
    return poisson_algebra(ctx, entries)


def reduced_algebra(g: LieAlgebra, ideal: SubstitutionIdeal | None) -> PoissonAlgebra:
    """The quotient of the canonical linear Poisson structure by the ideal."""
    alg = canonical_from_lie(g)
    if ideal is not None and not ideal.is_empty():
        alg = quotient(alg, ideal)
    return alg


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
    ``element``.  The new algebra shares the center memo ``alg.centers``
    (see ``invariants.center_up_to_degree``)."""
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
    out = poisson_algebra(alg.vars, alg.table, alg.ideal, new)
    object.__setattr__(out, "centers", alg.centers)
    return out


def on_variables(alg: PoissonAlgebra, ctx: Context) -> PoissonAlgebra | None:
    """alg, which inverts nothing, on ctx: some of its variables, in any order,
    whose brackets close among themselves.  Its entries and rules on ctx,
    restricted to ctx (an entry changes sign where ctx reverses its pair), with
    no stability check; None when a rule on ctx has its image outside ctx."""
    pos = {v.name: k for k, v in enumerate(ctx)}
    rules = [(v, img) for v, img in alg.ideal.rules if v.name in pos] if alg.ideal else []
    if any(not img.variables_used() <= pos.keys() for _, img in rules):
        return None
    entries = {}
    for (i, j), el in alg.table.items():
        a, b = pos.get(alg.vars[i].name), pos.get(alg.vars[j].name)
        if a is not None and b is not None:
            entries[min(a, b), max(a, b)] = (el.num if a < b else -el.num).restrict(ctx)
    ideal = SubstitutionIdeal(tuple((v, img.restrict(ctx)) for v, img in rules))
    return poisson_algebra(ctx, entries, ideal if rules else None)


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
    entries = dict(a.table)
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
        """sum_k D(x_k) d_k p, the bracket's row sum over the images."""
        el = alg.element(p) if not isinstance(p, LocalElement) else p
        row = alg._row(
            (k, self.image_of(alg, v.name))
            for k, v in enumerate(alg.vars)
            if v.name in self.images
        )
        return alg._apply_row(row, el, alg._support(el), {})


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


def skew_extend(alg: PoissonAlgebra, delta: Derivation, name: str) -> PoissonAlgebra:
    """Adjoin a variable X with {X, p} = delta(p); delta must be a
    P-derivation (checked), which is exactly what makes Jacobi survive."""
    ok, witness = is_p_derivation(alg, delta)
    if not ok:
        raise NotPDerivation(witness[:2], str(witness[2]))
    if any(v.name == name for v in alg.vars):
        raise NameClash({name})
    ctx = alg.vars + (VarSpec(name),)
    n = len(alg.vars)
    ideal = (
        SubstitutionIdeal(tuple((v, img.extend(ctx)) for v, img in alg.ideal.rules))
        if alg.ideal
        else None
    )
    inverted = [s.extend(ctx) for s in alg.inverted]
    entries = dict(alg.table)
    for i, v in enumerate(alg.vars):
        # {v_i, X} = -delta(v_i)
        entries[(i, n)] = alg.scale(-1, delta.image_of(alg, v.name))
    return poisson_algebra(ctx, entries, ideal, inverted)


def epsilon_derivation(
    alg: PoissonAlgebra, x: Sequence[Fraction] | Poly | str
) -> Derivation:
    """The derivation induced by bracketing with (the image of) x, given as
    an element or as coefficients on the algebra's variables."""
    if not isinstance(x, (Poly, str)):
        n = len(alg.vars)
        units = (tuple(int(j == i) for j in range(n)) for i in range(n))
        x = Poly(alg.vars, dict(zip(units, x)))
    return inner_derivation(alg, alg.element(x))
