"""Exact sparse Laurent polynomials over the rationals.

A polynomial lives in a fixed *context*: an ordered tuple of variables, each
optionally invertible (Laurent).  Terms are stored as a dictionary mapping
exponent tuples to ``fractions.Fraction`` coefficients; zero coefficients are
never stored, so equality of dictionaries is equality of polynomials.

  exponents : tuple[int, ...]      one entry per context variable
  terms     : {exponents: Fraction}

Negative exponents are allowed only at invertible positions.  The canonical
term order is graded lexicographic on the exponent tuple; printing lists
terms in descending order, which makes string output (and everything derived
from it, e.g. CLI reports) deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import (
    CyclicSubstitution,
    NegativePowerOfNonUnit,
    NonUnitImageForInvertible,
    PolyParseError,
    UnknownVariable,
)

Mono = tuple[int, ...]


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


class Poly:
    """Immutable multivariate Laurent polynomial with exact coefficients."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: Context, terms: Mapping[Mono, Fraction]):
        clean: dict[Mono, Fraction] = {}
        for mono, c in terms.items():
            if c == 0:
                continue
            for e, v in zip(mono, ctx):
                if e < 0 and not v.invertible:
                    raise NegativePowerOfNonUnit(f"{v.name}^{e}")
            clean[mono] = c if isinstance(c, Fraction) else Fraction(c)
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
        return Poly(ctx, {(0,) * len(ctx): Fraction(c)})

    @staticmethod
    def var(ctx: Context, name: str) -> "Poly":
        idx = _index(ctx)
        if name not in idx:
            raise UnknownVariable(name)
        mono = [0] * len(ctx)
        mono[idx[name]] = 1
        return Poly(ctx, {tuple(mono): Fraction(1)})

    @staticmethod
    def monomial(ctx: Context, mono: Mono, c=1) -> "Poly":
        return Poly(ctx, {tuple(mono): Fraction(c)})

    # -- basic queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in m) for m in self.terms)

    def constant_value(self) -> Fraction:
        zero = (0,) * len(self.ctx)
        return self.terms.get(zero, Fraction(0))

    def degree(self) -> int:
        """Total degree (sum of exponents); -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def variables_used(self) -> set[str]:
        used = set()
        for m in self.terms:
            for e, v in zip(m, self.ctx):
                if e != 0:
                    used.add(v.name)
        return used

    def is_unit_monomial(self) -> bool:
        """One term whose variables are all invertible (a Laurent unit)."""
        if len(self.terms) != 1:
            return False
        (mono,) = self.terms
        return all(e == 0 or v.invertible for e, v in zip(mono, self.ctx))

    def coefficient(self, mono: Mono) -> Fraction:
        return self.terms.get(tuple(mono), Fraction(0))

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
            out[m] = out.get(m, Fraction(0)) + c
        return Poly(self.ctx, out)

    def __sub__(self, other: "Poly") -> "Poly":
        self._check_ctx(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) - c
        return Poly(self.ctx, out)

    def __neg__(self) -> "Poly":
        return Poly(self.ctx, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other: "Poly") -> "Poly":
        self._check_ctx(other)
        out: dict[Mono, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                out[m] = out.get(m, Fraction(0)) + c1 * c2
        return Poly(self.ctx, out)

    def scale(self, c) -> "Poly":
        c = Fraction(c)
        return Poly(self.ctx, {m: c * v for m, v in self.terms.items()})

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
        out: dict[Mono, Fraction] = {}
        for m, c in self.terms.items():
            e = m[i]
            if e == 0:
                continue
            m2 = list(m)
            m2[i] = e - 1
            m2 = tuple(m2)
            out[m2] = out.get(m2, Fraction(0)) + c * e
        return Poly(self.ctx, out)

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
        result = Poly.zero(self.ctx)
        for m, c in self.terms.items():
            residual = list(m)
            factor = Poly.const(self.ctx, c)
            for i, img in bound.items():
                e = m[i]
                if e:
                    residual[i] = 0
                    factor = factor * img**e
            term = Poly.monomial(self.ctx, tuple(residual))
            result = result + factor * term
        return result

    def shift(self, offsets: Mapping[VarSpec | str, Fraction]) -> "Poly":
        """Affine translation v -> v + c (the exponential of a constant
        derivation); unlike ``substitute`` this allows v in its own image."""
        idx = _index(self.ctx)
        moves = {}
        for key, c in offsets.items():
            name = key if isinstance(key, str) else key.name
            if name not in idx:
                raise UnknownVariable(name)
            c = Fraction(c)
            if c != 0:
                if self.ctx[idx[name]].invertible:
                    raise NegativePowerOfNonUnit(f"shift of Laurent variable {name}")
                moves[idx[name]] = c
        if not moves:
            return self
        result = Poly.zero(self.ctx)
        for m, c in self.terms.items():
            factor = Poly.const(self.ctx, c)
            residual = list(m)
            for i, off in moves.items():
                e = m[i]
                if e:
                    residual[i] = 0
                    base = Poly(
                        self.ctx,
                        {
                            tuple(1 if j == i else 0 for j in range(len(self.ctx))): Fraction(1),
                            (0,) * len(self.ctx): off,
                        },
                    )
                    factor = factor * base**e
            result = result + factor * Poly.monomial(self.ctx, tuple(residual))
        return result

    # -- context surgery -------------------------------------------------------

    def extend(self, new_ctx: Context) -> "Poly":
        """Re-express in a larger context containing every used variable."""
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
        return Poly(new_ctx, out)

    def restrict(self, new_ctx: Context) -> "Poly":
        """Re-express in a smaller context; fails if a dropped variable occurs."""
        keep = {v.name for v in new_ctx}
        for name in self.variables_used():
            if name not in keep:
                raise UnknownVariable(name)
        pos = _index(self.ctx)
        out = {}
        for m, c in self.terms.items():
            out[tuple(m[pos[v.name]] for v in new_ctx)] = c
        return Poly(new_ctx, out)

    # -- division ---------------------------------------------------------------

    def divide_exact(self, divisor: "Poly") -> "Poly | None":
        """Exact quotient self/divisor, or None when division leaves a
        remainder.  Both operands must be denominator-free (no negative
        exponents); used to cancel localization denominators."""
        self._check_ctx(divisor)
        if divisor.is_zero():
            return None
        if self.is_zero():
            return self
        if any(e < 0 for m in self.terms for e in m) or any(
            e < 0 for m in divisor.terms for e in m
        ):
            return None
        lead_d = max(divisor.terms, key=_order_key)
        cd = divisor.terms[lead_d]
        quotient: dict[Mono, Fraction] = {}
        rem = self
        while not rem.is_zero():
            lead_r = max(rem.terms, key=_order_key)
            diff = tuple(a - b for a, b in zip(lead_r, lead_d))
            if any(e < 0 for e in diff):
                return None
            c = rem.terms[lead_r] / cd
            quotient[diff] = c
            rem = rem - Poly.monomial(self.ctx, diff, c) * divisor
        return Poly(self.ctx, quotient)

    # -- printing ----------------------------------------------------------------

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"Poly({format_poly(self)})"


def _order_key(mono: Mono):
    # graded lexicographic: total degree first, then the exponent vector
    return (sum(mono), mono)


def sorted_terms(p: Poly) -> list[tuple[Mono, Fraction]]:
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


class _Tokens:
    def __init__(self, text: str):
        self.text = text.replace("−", "-")  # tolerate unicode minus
        self.pos = 0

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
        if not (self.text[self.pos].isalpha()):
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
        p = p * _parse_factor(toks, ctx)
    return p


def _parse_factor(toks: _Tokens, ctx: Context) -> Poly:
    if toks.peek() == "-":
        toks.pos += 1
        return -_parse_factor(toks, ctx)
    p = _parse_atom(toks, ctx)
    if toks.peek() == "^":
        toks.pos += 1
        neg = False
        if toks.peek() == "-":
            toks.pos += 1
            neg = True
        k = toks.take_int()
        p = p ** (-k if neg else k)
    return p


def _parse_atom(toks: _Tokens, ctx: Context) -> Poly:
    ch = toks.peek()
    if ch == "(":
        toks.pos += 1
        p = _parse_expr(toks, ctx)
        toks.expect(")")
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
