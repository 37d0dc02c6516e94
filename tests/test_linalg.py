"""Exact linear algebra: echelon, nullspace, solve, charpoly, roots, against
the eagerly back-reducing echelon, the dense nullspace and solve, and the
dense Gauss-Jordan inverse kept here as references, and against sympy."""

import random
from fractions import Fraction
from math import gcd

import pytest

from liepoisson import linalg
from liepoisson.invariants import center_up_to_degree
from liepoisson.poisson import reduced_algebra

from conftest import lie_fixtures, perfbench_workloads, random_unimodular

F = Fraction


def _dense_to_rows(mat):
    return [{j: F(v) for j, v in enumerate(row) if v} for row in mat]


def test_nullspace_annihilates():
    rng = random.Random(7)
    for _ in range(30):
        rows_dense = [
            [rng.randint(-3, 3) for _ in range(5)] for _ in range(rng.randint(1, 4))
        ]
        rows = _dense_to_rows(rows_dense)
        for vec in linalg.nullspace(rows, 5):
            for row in rows_dense:
                assert sum(F(row[j]) * c for j, c in vec.items()) == 0


def test_nullspace_dimension():
    rows = _dense_to_rows([[1, 2, 3], [2, 4, 6]])
    assert len(linalg.nullspace(rows, 3)) == 2
    assert linalg.rank(rows) == 1


def test_solve_consistency():
    rng = random.Random(13)
    for _ in range(30):
        n = rng.randint(1, 4)
        mat = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n + 1)]
        x = [F(rng.randint(-2, 2)) for _ in range(n)]
        rhs = [sum(F(a) * b for a, b in zip(row, x)) for row in mat]
        sol = linalg.solve(_dense_to_rows(mat), rhs, n)
        assert sol is not None
        for row, b in zip(mat, rhs):
            assert sum(F(row[j]) * c for j, c in sol.items()) == b


def test_solve_inconsistent():
    assert linalg.solve([{0: F(1)}, {0: F(1)}], [F(1), F(2)], 1) is None


def test_charpoly_and_roots():
    rot = [[F(0), F(-1)], [F(1), F(0)]]
    assert linalg.charpoly(rot) == [F(1), F(0), F(1)]  # t^2 + 1
    assert linalg.rational_roots(linalg.charpoly(rot)) == []
    diag = [[F(2), F(0)], [F(0), F(-3)]]
    assert linalg.rational_roots(linalg.charpoly(diag)) == [F(-3), F(2)]
    half = [[F(1, 2)]]
    assert linalg.rational_roots(linalg.charpoly(half)) == [F(1, 2)]


def test_charpoly_matches_trace_det():
    rng = random.Random(99)
    for _ in range(20):
        a, b, c, d = (F(rng.randint(-4, 4)) for _ in range(4))
        cp = linalg.charpoly([[a, b], [c, d]])
        assert cp[2] == 1
        assert cp[1] == -(a + d)
        assert cp[0] == a * d - b * c


def test_mat_inverse():
    m = [[F(1), F(2)], [F(3), F(4)]]
    inv = linalg.mat_inverse(m)
    assert linalg.mat_mul(m, inv) == linalg.identity(2)
    assert linalg.mat_inverse([[F(1), F(2)], [F(2), F(4)]]) is None


def test_echelon_membership():
    ech = linalg.Echelon()
    assert ech.add({0: F(1), 2: F(1)})
    assert ech.add({1: F(1)})
    assert not ech.add({0: F(2), 1: F(3), 2: F(2)})
    assert ech.contains({0: F(5), 1: F(-1), 2: F(5)})
    assert not ech.contains({2: F(1)})


def test_adding_to_a_copy_leaves_the_original_unchanged():
    rows = [{1: F(2), 2: F(1)}, {0: F(1), 1: F(1)}]
    for read_first in (False, True):
        ech = linalg.echelon_of(rows)
        if read_first:
            assert ech.rows  # the copy starts from the reduced rows
        copy = ech.copy()
        assert copy.add({1: F(1)}) and copy.add({3: F(5)})
        assert (ech.rank, copy.rank) == (2, 4)
        assert ech.rows == linalg.echelon_of(rows).rows
        assert not ech.contains({2: F(1)}) and copy.contains({2: F(1)})
        # and the other way round
        assert ech.add({4: F(1)}) and not copy.contains({4: F(1)})
        assert copy.rows == linalg.echelon_of(rows + [{2: F(1)}, {3: F(1)}]).rows


def test_echelon_fully_reduced():
    # rows added out of order must still leave a fully reduced basis
    ech = linalg.Echelon()
    ech.add({1: F(1), 2: F(1)})
    ech.add({0: F(1), 1: F(1)})
    for piv, row in ech.rows.items():
        assert min(row) == piv
        for other in ech.rows:
            if other != piv:
                assert other not in row


def _random_sparse_rows(rng, nrows, ncols):
    rows = []
    for _ in range(nrows):
        row = {}
        for j in range(ncols):
            if rng.random() < 0.3:
                c = F(rng.randint(-5, 5), rng.randint(1, 4))
                if c:
                    row[j] = c
        rows.append(row)
    # duplicate a combination of two rows now and then, so rank drops
    if nrows >= 3 and rng.random() < 0.5:
        a, b = rng.sample(range(nrows - 1), 2)
        k = F(rng.randint(-3, 3), rng.randint(1, 3))
        combo = {j: rows[a].get(j, 0) + k * rows[b].get(j, 0) for j in range(ncols)}
        rows[-1] = {j: c for j, c in combo.items() if c}
    return rows


class ReferenceEchelon:
    """Reduced echelon basis kept fully reduced on every insert: each new
    row back-reduces every stored row with an entry at its pivot."""

    def __init__(self):
        self.rows = {}

    @property
    def rank(self):
        return len(self.rows)

    def reduce(self, row):
        r = linalg._to_int_row(row)
        while r:
            hit = None
            for j in sorted(r):
                if j in self.rows:
                    hit = j
                    break
            if hit is None:
                return linalg._normalize(r)
            base = self.rows[hit]
            a, b = base[hit], r[hit]
            g = gcd(a, abs(b))
            ma, mb = b // g, a // g
            out = {j: v * mb for j, v in r.items()}
            for j, v in base.items():
                out[j] = out.get(j, 0) - v * ma
            r = {j: v for j, v in out.items() if v}
        return r

    def add(self, row):
        r = self.reduce(row)
        if not r:
            return False
        piv = min(r)
        for p, base in list(self.rows.items()):
            if piv in base:
                a, b = r[piv], base[piv]
                g = gcd(a, abs(b))
                ma, mb = b // g, a // g
                out = {j: v * mb for j, v in base.items()}
                for j, v in r.items():
                    out[j] = out.get(j, 0) - v * ma
                self.rows[p] = linalg._normalize({j: v for j, v in out.items() if v})
        self.rows[piv] = r
        return True

    def contains(self, row):
        return not self.reduce(row)

    def pivots(self):
        return sorted(self.rows)


def reference_inverse(mat):
    """Dense Gauss-Jordan on [mat | I] in Fractions, or None if singular."""
    n = len(mat)
    work = [list(map(F, row)) + ident for row, ident in zip(mat, linalg.identity(n))]
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


def test_echelon_matches_reference_under_interleaving():
    # add, reduce, contains and reads of rows in seeded order; "eager" reads
    # its rows after every step, "lazy" only at the read steps, so several
    # inserts can wait for one back-substitution
    rng = random.Random(20261020)
    lazy_reads = 0
    for _ in range(150):
        ncols = rng.randint(1, 8)
        pool = _random_sparse_rows(rng, rng.randint(1, 10), ncols)
        ref, eager, lazy = ReferenceEchelon(), linalg.Echelon(), linalg.Echelon()
        pending = 0
        for _ in range(rng.randint(1, 25)):
            op = rng.choice(("add", "add", "reduce", "contains", "rows"))
            if op == "rows":
                lazy_reads += pending > 1
                pending = 0
                assert lazy.rows == ref.rows
                continue
            row = rng.choice(pool + _random_sparse_rows(rng, 1, ncols))
            want = getattr(ref, op)(row)
            assert getattr(eager, op)(row) == getattr(lazy, op)(row) == want
            pending += op == "add" and want
            for ech in (eager, lazy):
                assert ech.pivots() == ref.pivots() and ech.rank == ref.rank
            assert eager.rows == ref.rows
        assert lazy.rows == ref.rows
    assert lazy_reads >= 20


def _entry(rng):
    return F(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < 0.7 else F(0)


def test_mat_inverse_matches_gauss_jordan():
    rng = random.Random(20261021)
    singular = 0
    for trial in range(120):
        n = trial % 5 + 1
        mat = [[_entry(rng) for _ in range(n)] for _ in range(n)]
        if n > 1 and trial % 3 == 0:  # the last row a combination of earlier ones
            a, b = rng.randrange(n - 1), rng.randrange(n - 1)
            k = F(rng.randint(-3, 3), rng.randint(1, 3))
            mat[-1] = [x + k * y for x, y in zip(mat[a], mat[b])]
        want = reference_inverse(mat)
        assert linalg.mat_inverse(mat) == want
        singular += want is None
    assert singular >= 30
    assert linalg.mat_inverse([]) == reference_inverse([]) == []


def test_insert_normalizes_once_per_accepted_row(monkeypatch):
    # an insert stores the reduced new row and touches no stored row; the
    # eager back-reduction would renormalize the rows it changed as well
    calls = []
    normalize = linalg._normalize

    def counted(row):
        calls.append(row)
        return normalize(row)

    monkeypatch.setattr(linalg, "_normalize", counted)
    ech = linalg.Echelon()
    for row in ({0: 1, 1: 1}, {1: 1, 2: 1}, {2: 1}):
        assert ech.add(row)
    assert len(calls) == 3


def test_linear_algebra_matches_sympy():
    # independent oracle: sympy's exact rational matrices
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20261018)

    def matrix(rows, ncols):
        return sympy.Matrix(
            [[sympy.Rational(r.get(j, F(0))) for j in range(ncols)] for r in rows]
        )

    for _ in range(40):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        rows = _random_sparse_rows(rng, nrows, ncols)
        m = matrix(rows, ncols)
        rank = m.rank()
        ech = linalg.echelon_of(rows)
        assert ech.rank == rank == linalg.rank(rows)
        # membership: a random vector, and a combination of the rows
        probe = _random_sparse_rows(rng, 1, ncols)[0]
        inside = {}
        for r in rows:
            k = F(rng.randint(-2, 2))
            for j, c in r.items():
                inside[j] = inside.get(j, 0) + k * c
        inside = {j: c for j, c in inside.items() if c}
        for vec in (probe, inside):
            grown = matrix(rows + [vec], ncols).rank()
            assert ech.contains(vec) == (grown == rank)
        # reduced rows, scaled to pivot 1: sympy's reduced row echelon form
        rref, piv = m.rref()
        assert tuple(ech.pivots()) == piv
        for i, p in enumerate(piv):
            row = ech.rows[p]
            want = [F(int(c.p), int(c.q)) for c in rref.row(i)]
            assert [F(row.get(j, 0), row[p]) for j in range(ncols)] == want
        # nullspace: annihilated by every row, ncols - rank vectors
        kernel = linalg.nullspace(rows, ncols)
        assert len(kernel) == ncols - rank
        for v in kernel:
            for r in rows:
                assert sum((c * v.get(j, 0) for j, c in r.items()), F(0)) == 0
        # solve: a solution exactly when [rows | rhs] has the rank of rows;
        # the second right-hand side is consistent by construction
        x0 = [F(j + 1) for j in range(ncols)]
        for rhs in (
            [F(rng.randint(-3, 3)) for _ in range(nrows)],
            [sum((c * x0[j] for j, c in r.items()), F(0)) for r in rows],
        ):
            aug = m.row_join(sympy.Matrix([sympy.Rational(b) for b in rhs]))
            sol = linalg.solve(rows, rhs, ncols)
            assert (sol is not None) == (aug.rank() == rank)
            if sol is not None:
                for r, b in zip(rows, rhs):
                    assert sum((c * sol.get(j, 0) for j, c in r.items()), F(0)) == b


def test_charpoly_and_rational_roots_match_sympy():
    # independent oracle: sympy's characteristic polynomial and its roots
    # over QQ; every other matrix is a conjugate of a triangular one, so
    # that rational eigenvalues (repeated ones included) occur
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20261019)
    t = sympy.Symbol("t")
    rooted = 0

    def entry():
        return sympy.Rational(rng.randint(-3, 3), rng.randint(1, 3))

    for trial in range(40):
        n = rng.randint(1, 4)
        m = sympy.Matrix(n, n, lambda i, j: entry())
        if trial % 2:
            tri = sympy.Matrix(n, n, lambda i, j: entry() if i <= j else 0)
            tri[0, 0] = tri[n - 1, n - 1]  # a repeated eigenvalue
            p = sympy.Matrix(random_unimodular(rng, n))
            m = p * tri * p.inv()
        mat = [[F(int(c.p), int(c.q)) for c in m.row(i)] for i in range(n)]
        coeffs = linalg.charpoly(mat)
        want = m.charpoly(t)
        assert [sympy.Rational(c) for c in reversed(coeffs)] == want.all_coeffs()
        roots = linalg.rational_roots(coeffs)
        assert [sympy.Rational(r) for r in roots] == sorted(want.ground_roots())
        rooted += bool(roots)
    assert rooted >= 20


def test_charpoly_with_denominators_matches_sympy():
    # charpoly scales A by the lcm D of its denominators and divides the
    # coefficient of t^(n-k) by D^k; oracle: sympy's charpoly over QQ, on
    # matrices with denominators up to 12 as well as integral and zero ones
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20261018)
    t = sympy.Symbol("t")
    kinds = {"fractional": 0, "integral": 0, "zero": 0}
    for trial in range(60):
        n = rng.randint(1, 5)
        kind = ("fractional", "fractional", "integral", "zero")[trial % 4]
        kinds[kind] += 1

        def entry():
            if kind == "zero" or rng.random() < 0.3:
                return F(0)
            den = 1 if kind == "integral" else rng.randint(1, 12)
            return F(rng.randint(-9, 9), den)

        mat = [[entry() for _ in range(n)] for _ in range(n)]
        coeffs = linalg.charpoly(mat)
        m = sympy.Matrix(n, n, lambda i, j: sympy.Rational(str(mat[i][j])))
        want = m.charpoly(t).all_coeffs()
        assert [sympy.Rational(str(c)) for c in reversed(coeffs)] == want
        assert all(isinstance(c, Fraction) for c in coeffs)
        if kind == "zero":
            assert coeffs == [F(0)] * n + [F(1)]
    assert min(kinds.values()) >= 15
    assert linalg.charpoly([]) == [F(1)]


def test_rational_root_multiplicities():
    # (t - 1/2)^2 (t + 3) t^3 (t^2 + 1): the irreducible quadratic adds nothing
    poly = [F(1)]
    for root in (F(1, 2), F(1, 2), F(-3), F(0), F(0), F(0)):
        poly = [F(0)] + poly
        for i in range(len(poly) - 1):
            poly[i] -= root * poly[i + 1]
    poly = [a + b for a, b in zip([F(0), F(0)] + poly, poly + [F(0), F(0)])]
    got = linalg.rational_root_multiplicities(poly)
    assert list(got.items()) == [(F(-3), 1), (F(0), 3), (F(1, 2), 2)]
    assert list(got) == linalg.rational_roots(poly)
    assert linalg.rational_root_multiplicities([F(1), F(0), F(1)]) == {}


def test_rational_root_multiplicities_of_random_products():
    # oracle: the factors the polynomial was built from, times a scalar and,
    # every other time, the irreducible t^2 + 2
    rng = random.Random(20261019)
    for trial in range(100):
        want = {}
        for _ in range(rng.randint(0, 5)):
            r = F(rng.randint(-4, 4), rng.randint(1, 3))
            want[r] = want.get(r, 0) + 1
        poly = [F(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3))]
        factors = [[-r, F(1)] for r, k in want.items() for _ in range(k)]
        if trial % 2:
            factors.append([F(2), F(0), F(1)])
        for f in factors:
            out = [F(0)] * (len(poly) + len(f) - 1)
            for i, a in enumerate(poly):
                for j, b in enumerate(f):
                    out[i + j] += a * b
            poly = out
        got = linalg.rational_root_multiplicities(poly)
        assert list(got.items()) == sorted(want.items())


def test_rational_eigenvalues_match_charpoly_and_sympy(monkeypatch):
    # upper and lower triangular matrices, read off the diagonal, and dense
    # ones (conjugates of triangular ones, so that rational eigenvalues
    # occur, and every fourth one with the irrational pair of t^2 - 2 too),
    # through the characteristic polynomial; each diagonal repeats an entry
    # and every other one holds a zero.  Oracles: the rational roots of the
    # characteristic polynomial and sympy's rational eigenvalues
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20261022)
    calls = []
    charpoly = linalg.charpoly
    monkeypatch.setattr(linalg, "charpoly", lambda mat: calls.append(mat) or charpoly(mat))

    def entry():
        return F(rng.randint(-3, 3), rng.randint(1, 3))

    for trial in range(60):
        kind = ("upper", "lower", "dense")[trial % 3]
        n = rng.randint(2, 4)
        diag = [entry() for _ in range(n)]
        diag[rng.randrange(1, n)] = diag[0]
        if trial % 2:
            diag[rng.randrange(n)] = F(0)
        mat = [[diag[i] if i == j else entry() if i < j else F(0) for j in range(n)]
               for i in range(n)]
        mat[0][n - 1] = mat[0][n - 1] or F(1)  # not scalar: some conjugate is not triangular
        if kind == "lower":
            mat = [list(col) for col in zip(*mat)]
        elif kind == "dense":
            if trial % 4 == 2:
                mat[0][0:2], mat[1][0:2] = [F(0), F(2)], [F(1), F(0)]
            tri = mat
            while not (mat[0][n - 1] and mat[n - 1][0]):  # neither triangle is zero
                p = random_unimodular(rng, n)
                mat = linalg.mat_mul(linalg.mat_mul(p, tri), linalg.mat_inverse(p))
            mat = [[F(v) for v in row] for row in mat]
        calls.clear()
        got = linalg.rational_eigenvalues(mat)
        assert bool(calls) == (kind == "dense"), mat
        assert list(got.items()) == list(
            linalg.rational_root_multiplicities(charpoly(mat)).items()
        )
        assert all(isinstance(r, Fraction) for r in got)
        m = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row]
                          for row in mat])
        want = {F(int(r.p), int(r.q)): k for r, k in m.eigenvals().items() if r.is_rational}
        assert got == want
    assert linalg.rational_eigenvalues([]) == {}


def _reference_nullspace(rows, ncols):
    """Elimination alone: every row goes through the echelon, no presolve."""
    reduced = linalg.echelon_of(rows).rows
    basis = []
    for f in range(ncols):
        if f in reduced:
            continue
        vec = [F(0)] * ncols
        vec[f] = F(1)
        for p, row in reduced.items():
            if f in row:
                vec[p] = F(-row[f], row[p])
        basis.append(tuple(vec))
    return basis


def _reference_solve(rows, rhs, ncols):
    """The dense particular solution: the augmented column of each reduced
    row over its pivot, free variables 0; None when inconsistent."""
    ech = linalg.Echelon()
    for row, b in zip(rows, rhs):
        ech.add({**row, ncols: b} if b else row)
    if ncols in ech.rows:
        return None
    vec = [F(0)] * ncols
    for p, row in ech.rows.items():
        vec[p] = F(row.get(ncols, 0), row[p])
    return tuple(vec)


def _same_vector(got, want):
    # the sparse vector holds exactly the dense one's nonzero entries, keys
    # ascending and in range, each a Fraction like the dense entry
    assert list(got) == sorted(got) and all(0 <= j < len(want) for j in got)
    assert got == {j: c for j, c in enumerate(want) if c}
    assert all(type(c) is Fraction is type(want[j]) for j, c in got.items())


def _same_kernel(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        _same_vector(g, w)


def _same_solution(got, want):
    assert (got is None) == (want is None)
    if want is not None:
        _same_vector(got, want)


def _presolve_system(rng, ncols):
    """Rows over ncols columns, most of them singletons or pairs: a chain of
    pairs that collapses one by one once its end is forced, explicit zero
    entries, empty and duplicate rows, and some denser rows; the last column
    is touched by no row."""
    live = list(range(ncols - 1))
    rows = []
    for _ in range(rng.randint(0, ncols)):
        j = rng.choice(live)
        rows.append({j: F(rng.randint(1, 5), rng.randint(1, 3))})
    chain = rng.sample(live, rng.randint(1, len(live)))
    for a, b in zip(chain, chain[1:]):  # rows {a, b}; {chain[-1]} ends it
        rows.append({a: rng.randint(-4, 4) or 1, b: F(rng.randint(-4, 4) or 1, 2)})
    if rng.random() < 0.7:
        rows.append({chain[-1]: F(rng.randint(1, 3))})
    rows += _random_sparse_rows(rng, rng.randint(0, 3), ncols - 1)
    for row in rng.sample(rows, min(len(rows), 3)):
        row[rng.choice(live)] = rng.choice((0, F(0)))  # explicit zeros
    rows.append({})
    rows.append(dict(rng.choice(rows)))  # a duplicate
    rng.shuffle(rows)
    return rows


def test_nullspace_presolve_matches_elimination():
    # the presolve forces singleton columns; the kernel must be bit for bit
    # the one elimination alone gives, whatever shape the system has
    rng = random.Random(20261030)
    forced = solved = 0
    for trial in range(600):
        ncols = rng.randint(2, 9)
        rows = _presolve_system(rng, ncols) if trial % 3 else _random_sparse_rows(
            rng, rng.randint(0, 8), ncols
        )
        want = _reference_nullspace(rows, ncols)
        _same_kernel(linalg.nullspace(rows, ncols), want)
        _same_kernel(linalg.nullspace((dict(r) for r in rows), ncols), want)
        forced += any(len([c for c in r.values() if c]) == 1 for r in rows)
        # solve on the same system: a consistent and a random right-hand side
        x0 = [F(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(ncols)]
        for rhs in (
            [sum((c * x0[j] for j, c in r.items()), F(0)) for r in rows],
            [F(rng.randint(-2, 2)) for _ in rows],
        ):
            want = _reference_solve(rows, rhs, ncols)
            _same_solution(linalg.solve(rows, rhs, ncols), want)
            solved += want is not None
    assert forced >= 400 and 650 <= solved <= 1000  # both outcomes of solve


def test_nullspace_presolve_edge_systems():
    # a cascade x2 = 0, then x1 = 0 from x1 + x2, then x0 = 0 from x0 - x1
    cascade = [{0: F(1), 1: F(-1)}, {1: F(1), 2: F(3)}, {2: F(2)}]
    # fully determined: every column forced, some only after a cascade
    determined = cascade + [{3: F(1, 2), 0: 0}]
    # x0 and x4 untouched, an empty row, a duplicate, a zero entry that is no entry
    loose = [{}, {0: F(0), 1: 2}, {1: F(4)}, {2: F(1), 3: F(1)}, {2: F(1), 3: F(1)}]
    for rows, ncols in ((cascade, 4), (determined, 4), (loose, 5), ([], 3), ([{}], 2)):
        want = _reference_nullspace(rows, ncols)
        _same_kernel(linalg.nullspace(rows, ncols), want)
        _same_kernel(linalg.nullspace(iter(rows), ncols), want)
        for rhs in ([F(0)] * len(rows), [F(k + 1) for k in range(len(rows))]):
            _same_solution(linalg.solve(rows, rhs, ncols), _reference_solve(rows, rhs, ncols))
    assert linalg.nullspace(determined, 4) == []
    assert linalg.nullspace(loose, 5) == [{0: F(1)}, {2: F(-1), 3: F(1)}, {4: F(1)}]
    assert linalg.solve(determined, [F(0)] * 4, 4) == {}
    assert linalg.solve(loose, [0, 1, 2, 3, 3], 5) == {1: F(1, 2), 2: F(3)}


def test_nullspace_inserts_only_the_rows_the_presolve_leaves(monkeypatch):
    inserted = []
    add = linalg.Echelon.add
    monkeypatch.setattr(linalg.Echelon, "add", lambda ech, r: inserted.append(r) or add(ech, r))
    rows = [{0: F(1), 1: F(-1)}, {1: F(1), 2: F(3)}, {2: F(2)}, {3: 1, 4: 2}, {3: 0, 5: 1}]
    assert len(linalg.nullspace(rows, 6)) == 1
    assert inserted == [{3: 1, 4: 2}]


def _captured_systems(monkeypatch, run):
    """The (rows, ncols, result) of every nullspace call ``run`` makes, and
    the (rows, rhs, ncols, result) of every solve call."""
    kernels, solves = [], []
    nullspace, solve = linalg.nullspace, linalg.solve

    def capture(rows, ncols):
        rows = list(rows)
        out = nullspace(rows, ncols)
        kernels.append((rows, ncols, out))
        return out

    def capture_solve(rows, rhs, ncols):
        out = solve(rows, rhs, ncols)
        solves.append((rows, rhs, ncols, out))
        return out

    monkeypatch.setattr(linalg, "nullspace", capture)
    monkeypatch.setattr(linalg, "solve", capture_solve)
    run()
    monkeypatch.setattr(linalg, "nullspace", nullspace)
    monkeypatch.setattr(linalg, "solve", solve)
    return kernels, solves


def test_nullspace_matches_elimination_on_real_systems(monkeypatch, tmp_path):
    # every system the benchmark ops at seed 11 and the degree-4 centers of
    # the Lie fixtures hand to nullspace, solved again by elimination alone,
    # and every system the benchmark ops hand to solve, solved densely
    def workload_ops():
        for name, workload in perfbench_workloads().items():
            w = workload(11)
            if name == "cli-readme":  # its decompose command writes a trace
                old, w.trace_path = w.trace_path, str(tmp_path / "trace.json")
                w.inputs = [
                    (k, [w.trace_path if a == old else a for a in argv], golden)
                    for k, argv, golden in w.inputs
                ]
            for x in w.inputs:
                assert w.check(x, w.op(x)) is None, name

    def centers():
        for prob in lie_fixtures():
            center_up_to_degree(reduced_algebra(prob.lie, prob.ideal), 4)

    for run, least, least_solves in ((workload_ops, 80, 5), (centers, 5, 0)):
        kernels, solves = _captured_systems(monkeypatch, run)
        assert len(kernels) >= least and len(solves) >= least_solves
        for rows, ncols, got in kernels:
            _same_kernel(got, _reference_nullspace(rows, ncols))
        for rows, rhs, ncols, got in solves:
            _same_solution(got, _reference_solve(rows, rhs, ncols))
