"""Exact linear algebra over the rationals.

Row reduction is fraction-free: rows are scaled to integers once, then
eliminated with integer cross-multiplication and gcd normalization.  Rows are
stored sparsely (column -> integer), which matters because the constraint
matrices produced by bracket conditions are extremely sparse.  An ``Echelon``
keeps echelon form on insert; its reduced form is computed once, when read.

``nullspace`` eliminates only what it must.  Most equations of a kernel on a
monomial slice have one nonzero entry, "this coefficient is 0"; a presolve
(the singleton step of structured Gaussian elimination) forces those columns
to zero, repeats on the rows that become singletons, and hands only the rows
left, without the forced columns, to an ``Echelon``.  The kernel basis does
not change: a forced column's unit vector lies in the row space, so it is a
pivot of the reduced form, and the other reduced rows are those of the rows
left.

The dense helpers for small operator matrices clear denominators as well:
``charpoly`` scales the matrix to integers once and runs its recursion over
the integers, and ``mat_vec``/``mat_mul`` skip zero entries.  Fractions
appear only at the boundary (inputs, coefficients, and the kernel and
solution vectors, sparse {column: entry} with keys ascending).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Row = dict[int, int]


def _to_int_row(row: dict[int, Fraction] | Row) -> Row:
    # ints and Fractions alike: an int is its own numerator over 1
    den = lcm(*[c.denominator for c in row.values()])
    return {j: v for j, c in row.items() if (v := c.numerator * (den // c.denominator))}


def sparse(vec: Sequence[Fraction]) -> dict[int, Fraction]:
    """The nonzero entries of a dense vector, keyed by position."""
    return {j: c for j, c in enumerate(vec) if c}


def _normalize(row: Row) -> Row:
    g = 0
    for v in row.values():
        g = gcd(g, abs(v))
    if g > 1:
        row = {j: v // g for j, v in row.items()}
    piv = min(row)
    if row[piv] < 0:
        row = {j: -v for j, v in row.items()}
    return row


def _eliminate(r: Row, basis: dict[int, Row]) -> Row:
    """Clear each entry of ``r`` at a pivot column of the echelon ``basis``,
    lowest first; ``r`` itself if there is none, else a new unnormalized row."""
    while r:
        for hit in sorted(r):
            if hit in basis:
                break
        else:
            break
        base = basis[hit]
        a, b = base[hit], r[hit]
        g = gcd(a, abs(b))
        ma, mb = b // g, a // g
        out = {j: v * mb for j, v in r.items()}
        for j, v in base.items():
            out[j] = out.get(j, 0) - v * ma
        r = {j: v for j, v in out.items() if v}
    return r


class Echelon:
    """Incrementally built basis of a row space, pivot column -> normalized row.

    ``add`` reduces the new row against the basis and, if a residual is left,
    stores it under its pivot, returning True; it never touches a stored row,
    so inserts keep echelon form.  ``rows`` is the fully reduced basis,
    computed once, bottom-up, on the first read after an insert.
    """

    def __init__(self):
        self._rows: dict[int, Row] = {}
        self._reduced = True

    @property
    def rows(self) -> dict[int, Row]:
        if not self._reduced:
            done: dict[int, Row] = {}
            for p in sorted(self._rows, reverse=True):
                row = _eliminate(self._rows[p], done)
                done[p] = row if row is self._rows[p] else _normalize(row)
            self._rows, self._reduced = done, True
        return self._rows

    def copy(self) -> "Echelon":
        """An echelon with the same rows; adding to either one leaves the
        other as it was (stored rows are never changed in place)."""
        out = Echelon()
        out._rows, out._reduced = dict(self._rows), self._reduced
        return out

    @property
    def rank(self) -> int:
        return len(self._rows)

    def reduce(self, row: dict[int, Fraction] | Row) -> Row:
        """Residual of ``row`` after full elimination by the current basis
        (no entry of the result sits at a pivot column)."""
        r = _eliminate(_to_int_row(row), self._rows)
        return _normalize(r) if r else r

    def add(self, row: dict[int, Fraction] | Row) -> bool:
        r = self.reduce(row)
        if not r:
            return False
        self._rows[min(r)] = r
        self._reduced = False
        return True

    def contains(self, row) -> bool:
        return not self.reduce(row)

    def pivots(self) -> list[int]:
        return sorted(self._rows)


def echelon_of(rows: Iterable[dict[int, Fraction] | Row]) -> Echelon:
    ech = Echelon()
    for r in rows:
        ech.add(r)
    return ech


def rank(rows: Iterable[dict[int, Fraction] | Row]) -> int:
    return echelon_of(rows).rank


def nullspace(rows: Iterable[dict[int, Fraction] | Row], ncols: int) -> list[dict[int, Fraction]]:
    """Basis of the right kernel, one sparse vector per free column, built in
    one pass over the reduced rows: free columns ascending, keys ascending
    (the pivots whose reduced rows reach the free column, then it, set to 1).

    Singleton presolve first: a row whose only nonzero entry, outside the
    columns forced so far, sits at column j forces x_j = 0; passes repeat
    until one forces nothing.  Only the rows left, with the forced columns
    dropped, are eliminated.  The basis is the one elimination alone gives:
    each forced column has its unit vector in the row space, so the reduced
    basis is those unit rows plus the reduced rows of what is left, and a
    forced column is a pivot whose row has no free entry."""
    forced: set[int] = set()
    pending = rows
    while True:
        before, left = len(forced), []
        for row in pending:
            live = {j: c for j, c in row.items() if c and j not in forced}
            if len(live) == 1:
                forced.update(live)
            elif live:
                left.append(live)
        pending = left
        if len(forced) == before:
            break
    reduced = echelon_of(pending).rows
    at_free: dict[int, dict[int, Fraction]] = {}
    for p, row in sorted(reduced.items()):
        for f, c in row.items():
            if f != p:
                at_free.setdefault(f, {})[p] = Fraction(-c, row[p])
    basis = []
    for f in range(ncols):
        if f not in reduced and f not in forced:
            vec = at_free.setdefault(f, {})
            vec[f] = Fraction(1)
            basis.append(vec)
    return basis


def solve(rows: Sequence[dict[int, Fraction] | Row], rhs: Sequence[Fraction], ncols: int):
    """One solution of the sparse system (rows . x = rhs), or None: its
    nonzero entries, {column: value} with keys ascending.

    Free variables are set to 0 (deterministic particular solution).
    """
    ech = Echelon()
    aug = ncols  # extra column carries the right-hand side
    for row, b in zip(rows, rhs):
        r = dict(row)
        if b:
            r[aug] = b
        ech.add(r)
    if aug in ech.pivots():
        return None  # inconsistent
    # pivot rows may still reference free columns; with free vars at 0 the
    # remaining contribution is exactly the augmented column
    return {p: Fraction(row[aug], row[p]) for p, row in sorted(ech.rows.items()) if aug in row}


# ---------------------------------------------------------------------------
# dense helpers for small matrices (operators on Lie algebras)


def mat_vec(mat: Sequence[Sequence[Fraction]], vec: Sequence[Fraction]) -> tuple[Fraction, ...]:
    nz = [(j, v) for j, v in enumerate(vec) if v]
    return tuple(Fraction(sum(r[j] * v for j, v in nz if r[j])) for r in mat)


def mat_mul(a, b):
    """Dense product; integral inputs give integral entries."""
    m = len(b[0])
    out = []
    for row in a:
        acc = [0] * m
        for t, x in enumerate(row):
            if x:
                for j, y in enumerate(b[t]):
                    if y:
                        acc[j] += x * y
        out.append(acc)
    return out


def identity(n) -> list[list[Fraction]]:
    return [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]


def mat_inverse(mat: Sequence[Sequence[Fraction]]):
    """Inverse of a small dense matrix, or None if singular: the reduced
    rows of [mat | I] carry the inverse when every pivot lies in mat."""
    n = len(mat)
    rows = echelon_of({**sparse(row), n + i: 1} for i, row in enumerate(mat)).rows
    if sorted(rows) != list(range(n)):
        return None
    return [
        [Fraction(rows[i].get(n + j, 0), rows[i][i]) for j in range(n)] for i in range(n)
    ]


def charpoly(mat: Sequence[Sequence[Fraction]]) -> list[Fraction]:
    """Characteristic polynomial det(tI - A), coefficients low degree first,
    monic.  Faddeev-LeVerrier recursion over the integers: with D the lcm of
    the entries' denominators and B = D*A, the coefficient of t^(n-k) is
    c_k(B) / D^k, and the recursion's division by k is exact over Z."""
    n = len(mat)
    if n == 0:
        return [Fraction(1)]
    den = 1
    for row in mat:
        for v in row:
            den = den // gcd(den, v.denominator) * v.denominator
    b = [[v.numerator * (den // v.denominator) for v in row] for row in mat]
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    prod = [row[:] for row in b]
    for k in range(1, n + 1):
        if k > 1:
            prod = mat_mul(b, prod)
        c = -sum(prod[i][i] for i in range(n)) // k
        coeffs[n - k] = Fraction(c, den**k)
        for i in range(n):
            prod[i][i] += c
    return coeffs


def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
    return sorted(out)


def rational_roots(coeffs: Sequence[Fraction]) -> list[Fraction]:
    """All rational roots of the polynomial (coefficients low degree first),
    found by the rational-root theorem after clearing denominators."""
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    if not cs:
        return []  # zero polynomial: roots are everything; callers never hit it
    roots = set()
    shift = 0
    while cs[0] == 0:
        roots.add(Fraction(0))
        cs.pop(0)
        shift += 1
    if len(cs) > 1:
        lcm = 1
        for c in cs:
            lcm = lcm // gcd(lcm, c.denominator) * c.denominator
        ics = [int(c * lcm) for c in cs]
        for p in _divisors(ics[0]):
            for q in _divisors(ics[-1]):
                for cand in (Fraction(p, q), Fraction(-p, q)):
                    if cand in roots:
                        continue
                    acc = Fraction(0)
                    for c in reversed(ics):
                        acc = acc * cand + c
                    if acc == 0:
                        roots.add(cand)
    return sorted(roots)


def _divide_root(cs: list[int], p: int, q: int) -> list[int] | None:
    """The quotient of sum cs[i] t^i by q t - p over the integers,
    coefficients low degree first, or None when it leaves a remainder."""
    quot, carry = [], 0  # carry is p times the last quotient coefficient
    for a in reversed(cs[1:]):
        b, rest = divmod(a + carry, q)
        if rest:
            return None
        quot.append(b)
        carry = p * b
    return quot[::-1] if cs[0] + carry == 0 else None


def rational_root_multiplicities(coeffs: Sequence[Fraction]) -> dict[Fraction, int]:
    """Each rational root of the nonzero polynomial (coefficients low degree
    first) with its multiplicity, in ascending order of the roots.  A root
    p/q in lowest terms is divided out as q t - p from the polynomial with
    cleared denominators: by Gauss's lemma each quotient stays integral, so
    the division is exact integer arithmetic."""
    den = lcm(*[c.denominator for c in coeffs])
    ints = [c.numerator * (den // c.denominator) for c in coeffs]
    out = {}
    for r in rational_roots(coeffs):
        cs, k = ints, 0
        while (cs := _divide_root(cs, r.numerator, r.denominator)) is not None:
            k += 1
        out[r] = k
    return out
