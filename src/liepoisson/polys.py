"""Exact sparse Laurent polynomials over the rationals.

A polynomial lives in a fixed *context*: an ordered tuple of variables, each
optionally invertible (Laurent).  Terms are stored as a dictionary mapping
exponent tuples to exact rational coefficients; zero coefficients are never
stored, so equality of dictionaries is equality of polynomials.

  exponents : tuple[int, ...]      one entry per context variable
  terms     : {exponents: int | Fraction}

A coefficient is an ``int`` when it is integral and a ``fractions.Fraction``
with denominator > 1 otherwise.  ``Poly.__init__`` is the one place that
establishes this (a float raises ``TypeError``); since ``Fraction(3) == 3``
and both hash alike, equality, hashing and printing do not see the
difference, but integer sums and products skip ``Fraction`` arithmetic.

Negative exponents are allowed only at invertible positions.  ``__init__``
checks this once, for every polynomial built from outside this module.  The
results of ``+``, ``-``, ``*``, ``scale``, ``partial`` and ``divide_exact``
satisfy it by construction and are built with ``_checked=True``, which skips
that check (never the coefficient normalization).  A few results satisfy the
whole invariant by construction and are built with ``_clean=True``, which
stores the terms as given, without re-normalization:

  * negation: -c of a nonzero int or proper Fraction is one too;
  * ``extend``: the coefficients are kept and every exponent stays at its
    variable, placed in a larger context with the same invertibility;
  * the product by a single term with coefficient 1 (``e4^k``, a pair
    monomial ``e1^a e3^b``), an exponent shift: the coefficients are kept,
    the shift is injective, so no terms merge, and a sum of exponents is
    negative only where one of them is, at an invertible variable;
  * ``divide_exact`` by a single term with coefficient 1, the inverse
    shift, kept only when every shifted exponent is nonnegative.

No caller outside this module passes either flag, and every ``Poly`` is
still built by ``__init__``.  By the exponent rule, ``divide_exact`` looks
for negative exponents only in a context with an invertible variable.
The canonical term order is graded lexicographic on the exponent tuple;
printing lists terms in descending order, which makes string output (and
everything derived from it, e.g. CLI reports) deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from operator import add, sub
from typing import Iterable, Mapping

from .errors import (
    CyclicSubstitution,
    NegativePowerOfNonUnit,
    NonUnitImageForInvertible,
    PolyParseError,
    UnknownVariable,
)

Mono = tuple[int, ...]
Coef = int | Fraction


@dataclass(frozen=True)
class VarSpec:
    """A named indeterminate; ``invertible`` marks a Laurent variable."""

    name: str
    invertible: bool = False


Context = tuple[VarSpec, ...]


def make_vars(names: str | Iterable[str], invertible: bool = False) -> Context:
    """Build a context from whitespace-separated names (all same flag)."""
    if isinstance(names, str):
        names = names.split()
    return tuple(VarSpec(n, invertible) for n in names)


def _index(ctx: Context) -> dict[str, int]:
    return {v.name: i for i, v in enumerate(ctx)}


def _coef(c) -> Coef:
    """c as an int when integral, else as a Fraction; a float is refused."""
    if type(c) is int:
        return c
    if isinstance(c, float):
        raise TypeError(f"inexact coefficient {c!r}")
    if type(c) is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _div(a: Coef, b: Coef) -> Coef:
    """Exact a / b (int / int would be a float)."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return a / b


class Poly:
    """Immutable multivariate Laurent polynomial with exact coefficients.

    Invariant (see the module docstring): every coefficient is a nonzero
    ``int``, or a ``Fraction`` whose denominator is not 1, and a negative
    exponent sits only at an invertible variable.  Every ``Poly`` is built
    by ``__init__``; ``_checked=True`` (passed only inside this module, for
    results that keep the exponent rule by construction) skips the
    exponent check; ``_clean=True`` (for a fresh dict that keeps the whole
    invariant by construction) stores the terms as given."""

    __slots__ = ("ctx", "terms")

    def __init__(
        self,
        ctx: Context,
        terms: Mapping[Mono, Coef],
        *,
        _checked: bool = False,
        _clean: bool = False,
    ):
        if _clean:
            object.__setattr__(self, "ctx", ctx)
            object.__setattr__(self, "terms", terms)
            return
        clean: dict[Mono, Coef] = {}
        for mono, c in terms.items():
            if type(c) is not int:
                c = _coef(c)
            if c:
                clean[mono] = c
        if not _checked:
            for mono in clean:
                for e, v in zip(mono, ctx):
                    if e < 0 and not v.invertible:
                        raise NegativePowerOfNonUnit(f"{v.name}^{e}")
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("Poly is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(ctx: Context) -> "Poly":
        return Poly(ctx, {})

    @staticmethod
    def const(ctx: Context, c) -> "Poly":
        return Poly(ctx, {(0,) * len(ctx): c})

    @staticmethod
    def var(ctx: Context, name: str) -> "Poly":
        idx = _index(ctx)
        if name not in idx:
            raise UnknownVariable(name)
        mono = [0] * len(ctx)
        mono[idx[name]] = 1
        return Poly(ctx, {tuple(mono): 1})

    @staticmethod
    def monomial(ctx: Context, mono: Mono, c=1) -> "Poly":
        return Poly(ctx, {tuple(mono): c})

    # -- basic queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in m) for m in self.terms)

    def degree(self) -> int:
        """Total degree (sum of exponents); -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def variable_indices(self) -> set[int]:
        """Context positions of the variables that occur."""
        return {i for m in self.terms for i, e in enumerate(m) if e}

    def variables_used(self) -> set[str]:
        return {self.ctx[i].name for i in self.variable_indices()}

    def is_unit_monomial(self) -> bool:
        """One term whose variables are all invertible (a Laurent unit)."""
        if len(self.terms) != 1:
            return False
        (mono,) = self.terms
        return all(e == 0 or v.invertible for e, v in zip(mono, self.ctx))

    def coefficient(self, mono: Mono) -> Coef:
        return self.terms.get(tuple(mono), 0)

    # -- ring operations -----------------------------------------------------

    def _check_ctx(self, other: "Poly"):
        if self.ctx != other.ctx:
            raise ValueError("polynomials from different variable contexts")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.ctx == other.ctx and self.terms == other.terms

    def __hash__(self):
        return hash((self.ctx, tuple(sorted(self.terms.items()))))

    def __add__(self, other: "Poly") -> "Poly":
        self._check_ctx(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return Poly(self.ctx, out, _checked=True)

    def __sub__(self, other: "Poly") -> "Poly":
        self._check_ctx(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) - c
        return Poly(self.ctx, out, _checked=True)

    def __neg__(self) -> "Poly":
        return Poly(self.ctx, {m: -c for m, c in self.terms.items()}, _clean=True)

    def __mul__(self, other: "Poly") -> "Poly":
        self._check_ctx(other)
        for p, q in ((self, other), (other, self)):
            if len(q.terms) == 1:
                ((shift, unit),) = q.terms.items()
                if unit == 1:
                    terms = {tuple(map(add, m, shift)): c for m, c in p.terms.items()}
                    return Poly(self.ctx, terms, _clean=True)
        out: dict[Mono, Coef] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(map(add, m1, m2))
                out[m] = out.get(m, 0) + c1 * c2
        return Poly(self.ctx, out, _checked=True)

    def scale(self, c) -> "Poly":
        c = _coef(c)
        return Poly(self.ctx, {m: c * v for m, v in self.terms.items()}, _checked=True)

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            if not self.is_unit_monomial():
                raise NegativePowerOfNonUnit(str(self))
            (mono,), (coef,) = self.terms.keys(), self.terms.values()
            return Poly(
                self.ctx, {tuple(e * k for e in mono): Fraction(1, 1) / coef ** (-k)}
            )
        result = Poly.const(self.ctx, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # -- calculus ------------------------------------------------------------

    def partial(self, v: VarSpec | str) -> "Poly":
        """Formal partial derivative; Laurent rule d(v^-n)/dv = -n v^(-n-1)."""
        name = v if isinstance(v, str) else v.name
        idx = _index(self.ctx)
        if name not in idx:
            raise UnknownVariable(name)
        i = idx[name]
        out: dict[Mono, Coef] = {}
        for m, c in self.terms.items():
            e = m[i]
            if e == 0:
                continue
            m2 = list(m)
            m2[i] = e - 1
            m2 = tuple(m2)
            out[m2] = out.get(m2, 0) + c * e
        return Poly(self.ctx, out, _checked=True)

    def substitute(self, bindings: Mapping[VarSpec | str, "Poly"]) -> "Poly":
        """Simultaneous triangular substitution.

        No bound variable may occur in any replacement image (identity
        bindings are dropped first); an invertible variable may only be
        replaced by a unit monomial, so that negative powers stay defined.
        """
        idx = _index(self.ctx)
        bound: dict[int, Poly] = {}
        for key, img in bindings.items():
            name = key if isinstance(key, str) else key.name
            if name not in idx:
                raise UnknownVariable(name)
            if img.ctx != self.ctx:
                raise ValueError("substitution image from a different context")
            if img == Poly.var(self.ctx, name):
                continue  # identity binding is a no-op
            bound[idx[name]] = img
        if not bound:
            return self
        bound_names = {self.ctx[i].name for i in bound}
        for i, img in bound.items():
            if img.variables_used() & bound_names:
                clash = sorted(img.variables_used() & bound_names)[0]
                raise CyclicSubstitution(clash)
            if self.ctx[i].invertible and not img.is_unit_monomial():
                raise NonUnitImageForInvertible(self.ctx[i].name, str(img))
        if not any(m[i] for m in self.terms for i in bound):
            return self  # no bound variable occurs
        return self._compose(bound)

    def shift(self, offsets: Mapping[VarSpec | str, Coef]) -> "Poly":
        """Affine translation v -> v + c (the exponential of a constant
        derivation); unlike ``substitute`` this allows v in its own image."""
        idx = _index(self.ctx)
        moves = {}
        for key, c in offsets.items():
            name = key if isinstance(key, str) else key.name
            if name not in idx:
                raise UnknownVariable(name)
            c = _coef(c)
            if c != 0:
                if self.ctx[idx[name]].invertible:
                    raise NegativePowerOfNonUnit(f"shift of Laurent variable {name}")
                moves[idx[name]] = Poly.var(self.ctx, name) + Poly.const(self.ctx, c)
        return self._compose(moves) if moves else self

    def _compose(self, images: Mapping[int, "Poly"]) -> "Poly":
        """The polynomial with x_i replaced by images[i] in every term."""
        result = Poly.zero(self.ctx)
        for m, c in self.terms.items():
            residual = list(m)
            factor = Poly.const(self.ctx, c)
            for i, img in images.items():
                e = m[i]
                if e:
                    residual[i] = 0
                    factor = factor * img**e
            term = Poly.monomial(self.ctx, tuple(residual))
            result = result + factor * term
        return result

    # -- context surgery -------------------------------------------------------

    def extend(self, new_ctx: Context) -> "Poly":
        """Re-express in a larger context containing every used variable;
        the polynomial itself when the context is its own."""
        if new_ctx == self.ctx:
            return self
        pos = _index(new_ctx)
        mapping = []
        for v in self.ctx:
            if v.name not in pos:
                raise UnknownVariable(v.name)
            if new_ctx[pos[v.name]] != v:
                raise ValueError(f"variable {v.name} changes invertibility")
            mapping.append(pos[v.name])
        out = {}
        for m, c in self.terms.items():
            m2 = [0] * len(new_ctx)
            for e, j in zip(m, mapping):
                m2[j] = e
            out[tuple(m2)] = c
        return Poly(new_ctx, out, _clean=True)

    def restrict(self, new_ctx: Context) -> "Poly":
        """Re-express in a smaller context; fails if a dropped variable occurs
        or a kept one changes invertibility."""
        keep = {v.name for v in new_ctx}
        for name in self.variables_used():
            if name not in keep:
                raise UnknownVariable(name)
        pos = _index(self.ctx)
        for v in new_ctx:
            if v.name in pos and self.ctx[pos[v.name]] != v:
                raise ValueError(f"variable {v.name} changes invertibility")
        out = {}
        for m, c in self.terms.items():
            out[tuple(m[pos[v.name]] for v in new_ctx)] = c
        return Poly(new_ctx, out)

    # -- division ---------------------------------------------------------------

    def divide_exact(self, divisor: "Poly") -> "Poly | None":
        """Exact quotient self/divisor, or None when division leaves a
        remainder.  Both operands must be denominator-free: a negative
        exponent, possible only in a context with an invertible variable
        and looked for only there, gives None.  Used to cancel localization
        denominators.

        A single-term divisor c*x^m divides in one pass: the quotient exists
        iff every exponent vector is >= m componentwise, and is then the
        shifted terms over c (the shifted terms as they are when c is 1).
        A divisor with several terms goes through long division in
        graded-lex order."""
        self._check_ctx(divisor)
        if divisor.is_zero():
            return None
        if self.is_zero():
            return self
        if any(v.invertible for v in self.ctx) and (
            any(e < 0 for m in self.terms for e in m)
            or any(e < 0 for m in divisor.terms for e in m)
        ):
            return None
        quotient: dict[Mono, Coef] = {}
        if len(divisor.terms) == 1:
            ((lead_d, cd),) = divisor.terms.items()
            for m, c in self.terms.items():
                diff = tuple(map(sub, m, lead_d))
                if any(e < 0 for e in diff):
                    return None
                quotient[diff] = c
            if cd == 1:
                return Poly(self.ctx, quotient, _clean=True)
            quotient = {m: _div(c, cd) for m, c in quotient.items()}
            return Poly(self.ctx, quotient, _checked=True)
        lead_d = max(divisor.terms, key=_order_key)
        cd = divisor.terms[lead_d]
        rem = self
        while not rem.is_zero():
            lead_r = max(rem.terms, key=_order_key)
            diff = tuple(a - b for a, b in zip(lead_r, lead_d))
            if any(e < 0 for e in diff):
                return None
            c = _div(rem.terms[lead_r], cd)
            quotient[diff] = c
            rem = rem - Poly.monomial(self.ctx, diff, c) * divisor
        return Poly(self.ctx, quotient, _checked=True)

    # -- printing ----------------------------------------------------------------

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"Poly({format_poly(self)})"


def _order_key(mono: Mono):
    # graded lexicographic: total degree first, then the exponent vector
    return (sum(mono), mono)


def sorted_terms(p: Poly) -> list[tuple[Mono, Coef]]:
    """Terms in descending graded-lex order (the canonical print order)."""
    return sorted(p.terms.items(), key=lambda kv: _order_key(kv[0]), reverse=True)


def format_poly(p: Poly) -> str:
    if p.is_zero():
        return "0"
    chunks = []
    for mono, c in sorted_terms(p):
        factors = []
        for e, v in zip(mono, p.ctx):
            if e == 0:
                continue
            factors.append(v.name if e == 1 else f"{v.name}^{e}")
        mag = abs(c)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        chunks.append(("-" if c < 0 else "+", body))
    sign, body = chunks[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in chunks[1:]:
        out += f" {sign} {body}"
    return out


# ---------------------------------------------------------------------------
# parser
#
# expr   := term (('+'|'-') term)*
# term   := factor ('*' factor)*
# factor := '-' factor | atom ('^' signed_int)?
# atom   := INT ('/' INT)? | NAME | '(' expr ')'
#
# Unary minus is read in a loop; each open parenthesis costs four stack
# frames, so nesting is capped well below Python's recursion limit.
# Expansion is bounded by _MAX_TERMS terms: len(p) * len(q) for a product,
# C(k + t - 1, t - 1) for p^k with t terms, and k itself; and by _MAX_BITS of
# _bits, summed over a product and times k for p^k (600 still takes 2^300).
# The slowest power accepted, (1/3*x + 2/3*y)^299, takes 0.4-0.8 s (2 cores).

_MAX_NESTING = 100
_MAX_TERMS = 300
_MAX_BITS = 600


def _bits(p: Poly) -> int:
    """Largest numerator or denominator bit length among p's coefficients."""
    sizes = (max(abs(c.numerator), c.denominator) for c in p.terms.values())
    return max(sizes, default=0).bit_length()


class _Tokens:
    def __init__(self, text: str):
        self.text = text.replace("−", "-")  # tolerate unicode minus
        self.pos = 0
        self.depth = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take_int(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise PolyParseError("expected integer", start)
        return int(self.text[start : self.pos])

    def take_name(self) -> str:
        self.skip_ws()
        start = self.pos
        if not (self.text[self.pos].isalpha()):  # parse_poly calls this only on a letter
            raise PolyParseError("expected name", start)
        self.pos += 1
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        return self.text[start : self.pos]

    def expect(self, ch: str):
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            raise PolyParseError(f"expected {ch!r}", self.pos)
        self.pos += 1


def parse_poly(text: str, ctx: Context) -> Poly:
    """Parse the report grammar: rationals a/b, names, ``+ - * ^``, parens."""
    toks = _Tokens(text)
    p = _parse_expr(toks, ctx)
    toks.skip_ws()
    if toks.pos != len(toks.text):
        raise PolyParseError("trailing input", toks.pos)
    return p


def _parse_expr(toks: _Tokens, ctx: Context) -> Poly:
    p = _parse_term(toks, ctx)
    while toks.peek() in ("+", "-"):
        op = toks.peek()
        toks.pos += 1
        q = _parse_term(toks, ctx)
        p = p + q if op == "+" else p - q
    return p


def _parse_term(toks: _Tokens, ctx: Context) -> Poly:
    p = _parse_factor(toks, ctx)
    while toks.peek() == "*":
        toks.pos += 1
        q = _parse_factor(toks, ctx)
        if len(p.terms) * len(q.terms) > _MAX_TERMS or _bits(p) + _bits(q) > _MAX_BITS:
            raise PolyParseError("expression too large", toks.pos)
        p = p * q
    return p


def _parse_factor(toks: _Tokens, ctx: Context) -> Poly:
    negate = False
    while toks.peek() == "-":
        toks.pos += 1
        negate = not negate
    p = _parse_atom(toks, ctx)
    if toks.peek() == "^":
        toks.pos += 1
        neg = False
        if toks.peek() == "-":
            toks.pos += 1
            neg = True
        k = toks.take_int()
        t = len(p.terms)
        too_many = k > _MAX_TERMS or t and comb(k + t - 1, t - 1) > _MAX_TERMS
        if too_many or k * _bits(p) > _MAX_BITS:
            raise PolyParseError("expression too large", toks.pos)
        p = p ** (-k if neg else k)
    return -p if negate else p


def _parse_atom(toks: _Tokens, ctx: Context) -> Poly:
    ch = toks.peek()
    if ch == "(":
        if toks.depth == _MAX_NESTING:
            raise PolyParseError("expression nested too deeply", toks.pos)
        toks.depth += 1
        toks.pos += 1
        p = _parse_expr(toks, ctx)
        toks.expect(")")
        toks.depth -= 1
        return p
    if ch.isdigit():
        num = toks.take_int()
        if toks.peek() == "/":
            toks.pos += 1
            den = toks.take_int()
            if den == 0:
                raise PolyParseError("zero denominator", toks.pos)
            return Poly.const(ctx, Fraction(num, den))
        return Poly.const(ctx, num)
    if ch.isalpha():
        name = toks.take_name()
        return Poly.var(ctx, name)
    raise PolyParseError("expected atom", toks.pos)
