"""Exact linear algebra over the rationals.

Row reduction is fraction-free: rows are scaled to integers once, then
eliminated with integer cross-multiplication and gcd normalization.  Rows are
stored sparsely (column -> integer), which matters because the constraint
matrices produced by bracket conditions are extremely sparse.

Fractions appear only at the boundary (inputs, solution vectors).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

Row = dict[int, int]


def _to_int_row(row: dict[int, Fraction] | Row) -> Row:
    lcm = 1
    for c in row.values():
        d = c.denominator if isinstance(c, Fraction) else 1
        lcm = lcm // gcd(lcm, d) * d
    out = {}
    for j, c in row.items():
        v = int(c * lcm) if isinstance(c, Fraction) else c * lcm
        if v:
            out[j] = v
    return out


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


class Echelon:
    """Incrementally maintained reduced echelon basis of a row space.

    ``add`` reduces the new row against the basis and, if a residual is left,
    inserts it (and back-reduces existing rows), returning True.
    """

    def __init__(self):
        self.rows: dict[int, Row] = {}  # pivot column -> normalized row

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, row: dict[int, Fraction] | Row) -> Row:
        """Residual of ``row`` after full elimination by the current basis
        (no entry of the result sits at a pivot column)."""
        r = _to_int_row(row)
        while r:
            hit = None
            for j in sorted(r):
                if j in self.rows:
                    hit = j
                    break
            if hit is None:
                return _normalize(r)
            base = self.rows[hit]
            a, b = base[hit], r[hit]
            g = gcd(a, abs(b))
            ma, mb = b // g, a // g
            out = {j: v * mb for j, v in r.items()}
            for j, v in base.items():
                out[j] = out.get(j, 0) - v * ma
            r = {j: v for j, v in out.items() if v}
        return r

    def add(self, row: dict[int, Fraction] | Row) -> bool:
        r = self.reduce(row)
        if not r:
            return False
        piv = min(r)
        # back-reduce existing rows so the basis stays fully reduced
        for p, base in list(self.rows.items()):
            if piv in base:
                a, b = r[piv], base[piv]
                g = gcd(a, abs(b))
                ma, mb = b // g, a // g
                out = {j: v * mb for j, v in base.items()}
                for j, v in r.items():
                    out[j] = out.get(j, 0) - v * ma
                self.rows[p] = _normalize({j: v for j, v in out.items() if v})
        self.rows[piv] = r
        return True

    def contains(self, row) -> bool:
        return not self.reduce(row)

    def pivots(self) -> list[int]:
        return sorted(self.rows)


def echelon_of(rows: Iterable[dict[int, Fraction] | Row]) -> Echelon:
    ech = Echelon()
    for r in rows:
        ech.add(r)
    return ech


def rank(rows: Iterable[dict[int, Fraction] | Row]) -> int:
    return echelon_of(rows).rank


def nullspace(rows: Iterable[dict[int, Fraction] | Row], ncols: int) -> list[tuple[Fraction, ...]]:
    """Basis of the right kernel, one vector per free column, deterministic:
    free columns ascending, the free coordinate set to 1."""
    ech = echelon_of(rows)
    piv_cols = ech.pivots()
    piv_set = set(piv_cols)
    basis = []
    for f in range(ncols):
        if f in piv_set:
            continue
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for p in piv_cols:
            row = ech.rows[p]
            if f in row:
                vec[p] = Fraction(-row[f], row[p])
        basis.append(tuple(vec))
    return basis


def solve(rows: Sequence[dict[int, Fraction] | Row], rhs: Sequence[Fraction], ncols: int):
    """One solution of the sparse system (rows . x = rhs), or None.

    Free variables are set to 0 (deterministic particular solution).
    """
    ech = Echelon()
    aug = ncols  # extra column carries the right-hand side
    for row, b in zip(rows, rhs):
        r = dict(row)
        if b:
            r[aug] = b
        ech.add(r)
    piv_cols = ech.pivots()
    if aug in piv_cols:
        return None  # inconsistent
    vec = [Fraction(0)] * ncols
    for p in piv_cols:
        row = ech.rows[p]
        vec[p] = Fraction(row.get(aug, 0), row[p])
    # pivot rows may still reference free columns; with free vars at 0 the
    # remaining contribution is exactly the augmented column handled above
    return tuple(vec)


# ---------------------------------------------------------------------------
# dense helpers for small matrices (operators on Lie algebras)


def mat_vec(mat: Sequence[Sequence[Fraction]], vec: Sequence[Fraction]) -> tuple[Fraction, ...]:
    return tuple(sum((r[j] * vec[j] for j in range(len(vec))), Fraction(0)) for r in mat)


def mat_mul(a, b):
    n, m, k = len(a), len(b[0]), len(b)
    return [
        [sum((a[i][t] * b[t][j] for t in range(k)), Fraction(0)) for j in range(m)]
        for i in range(n)
    ]


def identity(n) -> list[list[Fraction]]:
    return [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]


def mat_inverse(mat: Sequence[Sequence[Fraction]]):
    """Inverse of a small dense matrix, or None if singular."""
    n = len(mat)
    work = [list(map(Fraction, row)) + ident for row, ident in zip(mat, identity(n))]
    for col in range(n):
        piv = next((r for r in range(col, n) if work[r][col] != 0), None)
        if piv is None:
            return None
        work[col], work[piv] = work[piv], work[col]
        p = work[col][col]
        work[col] = [v / p for v in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                f = work[r][col]
                work[r] = [v - f * w for v, w in zip(work[r], work[col])]
    return [row[n:] for row in work]


def charpoly(mat: Sequence[Sequence[Fraction]]) -> list[Fraction]:
    """Characteristic polynomial det(tI - A), coefficients low degree first,
    monic.  Faddeev-LeVerrier recursion; exact over the rationals."""
    n = len(mat)
    if n == 0:
        return [Fraction(1)]
    a = [[Fraction(v) for v in row] for row in mat]
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    m = identity(n)
    prod = a
    for k in range(1, n + 1):
        if k > 1:
            prod = mat_mul(a, m)
        trace = sum((prod[i][i] for i in range(n)), Fraction(0))
        c = -trace / k
        coeffs[n - k] = c
        m = [[prod[i][j] + (c if i == j else 0) for j in range(n)] for i in range(n)]
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
