"""The growing span: rank-raising adds and membership over fixed caps; the
slice basis is in normal form as built."""

from fractions import Fraction

import pytest

from liepoisson import spaces
from liepoisson.invariants import _generator_actions, center_up_to_degree
from liepoisson.lie import verify_lie
from liepoisson.poisson import (
    LocalElement,
    PoissonAlgebra,
    canonical_from_lie,
    localize,
    poisson_algebra,
    reduced_algebra,
)
from liepoisson.polys import Poly, make_vars, parse_poly
from liepoisson.spaces import (
    Span,
    basis_monomials,
    combination,
    common_denominator_rows,
    independent_subset,
    kernel_coordinates,
    monomials_up_to,
    operator_rows,
    slice_basis,
    slice_monomials,
    slice_rows,
    solve_in_span,
)

from conftest import heisenberg, lie_fixtures, random_poly
from test_bracket import ALGEBRAS, reference_sum


def _heisenberg_at_z():
    A = canonical_from_lie(heisenberg())
    return localize(A, [Poly.var(A.vars, "z")])


TERMS = [
    ("x", 1), ("x", 0), ("x*z", 2), ("y", 2), ("x*z^2 + y", 2),
    ("1", 1), ("z", 2), ("y*z", 1), ("x*y", 0), ("z^3", 2), ("x*y*z", 1),
]


def test_span_add_accepts_the_rank_raising_prefix():
    L = _heisenberg_at_z()
    elements = [L.element(LocalElement(parse_poly(n, L.vars), (k,))) for n, k in TERMS]
    want = independent_subset(L, elements)
    # any caps at least the largest denominator accept the same elements
    for caps in ((2,), (3,), (6,)):
        span = Span(L, caps)
        got = [el for el in elements if span.add(el)]
        assert got == want
        assert span.echelon.rank == len(want)
        assert all(span.contains(el) for el in elements)
        assert not span.contains(L.element("x*y*z"))
        assert not span.contains(L.element(LocalElement(parse_poly("y", L.vars), (1,))))


def test_slices_refuse_a_laurent_generator():
    ctx = make_vars("u", invertible=True) + make_vars("x")
    A = poisson_algebra(ctx, {})
    with pytest.raises(ValueError) as exc:
        slice_monomials(A, 2)
    assert str(exc.value) == "degree slices need ordinary (non-Laurent) generators"


def test_span_rejects_a_denominator_above_the_caps():
    L = _heisenberg_at_z()
    span = Span(L, (1,))
    assert span.add(L.element(LocalElement(parse_poly("x", L.vars), (1,))))
    over = L.element(LocalElement(parse_poly("y", L.vars), (2,)))
    with pytest.raises(ValueError):
        span.add(over)
    with pytest.raises(ValueError):
        span.contains(over)
    assert span.echelon.rank == 1


def test_rows_compute_each_power_once_per_algebra(monkeypatch):
    L = _heisenberg_at_z()
    elements = [L.element(LocalElement(parse_poly(n, L.vars), (k,))) for n, k in TERMS]
    z = Poly.var(L.vars, "z")
    want = [(el.num * z ** (3 - el.den[0])).terms for el in elements]
    assert L.powers == {}
    exponents = []
    power = Poly.__pow__
    monkeypatch.setattr(Poly, "__pow__", lambda p, k: exponents.append(k) or power(p, k))
    for _ in range(2):
        assert common_denominator_rows(L, elements, (3,)) == (want, (3,))
    assert sorted(exponents) == [2, 3]  # z itself is s^1; z^2 and z^3 once each
    assert localize(L, [Poly.var(L.vars, "x")]).powers == {}


# ---------------------------------------------------------------------------
# rows keyed by monomial: no answer depends on the order of the terms


def _shuffled(rng, terms):
    return dict(rng.sample(list(terms.items()), len(terms)))


def _reordered(rng, el):
    """el with the same terms, inserted in a random order."""
    return LocalElement(Poly(el.num.ctx, _shuffled(rng, el.num.terms)), el.den)


def test_kernel_coordinates_ignore_key_and_equation_order(rng):
    L = _heisenberg_at_z()
    basis = [L.element(LocalElement(m.num, (k,))) for m in slice_basis(L, 2) for k in (0, 2)]
    images = operator_rows(L, basis, _generator_actions(L))
    want = kernel_coordinates(images, len(basis))
    assert 0 < len(want) < len(basis)
    for _ in range(10):
        shuffled = [[_shuffled(rng, row) for row in rows] for rows in images]
        rng.shuffle(shuffled)  # the operators, and so the blocks of equations
        assert kernel_coordinates(shuffled, len(basis)) == want


def test_solve_in_span_ignores_term_order(rng):
    L = _heisenberg_at_z()
    spanners = [L.element(LocalElement(parse_poly(n, L.vars), (k,))) for n, k in TERMS]
    coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in spanners]
    member = combination(L, zip(coeffs, spanners))
    outside = L.element(LocalElement(parse_poly("x*y*z + x", L.vars), (2,)))
    want = solve_in_span(L, spanners, member)
    assert want is not None and solve_in_span(L, spanners, outside) is None
    # free coefficients are zero and left out: the solution is canonical,
    # not the input, and holds its nonzero entries only, ascending
    assert list(want) == sorted(want) and all(want.values())
    assert len(want) < len(coeffs)
    assert combination(L, [(a, spanners[i]) for i, a in want.items()]) == member
    for _ in range(10):
        reordered = [_reordered(rng, el) for el in spanners]
        assert solve_in_span(L, reordered, _reordered(rng, member)) == want
        assert solve_in_span(L, reordered, _reordered(rng, outside)) is None


def test_independent_subset_ignores_term_order(rng):
    L = _heisenberg_at_z()
    # multi-term elements first, so that their terms get the first columns
    terms = [("x^2*z + x*y + y^2 - z", 1), ("x*y^2 - y*z + 3", 0)] + TERMS
    elements = [L.element(LocalElement(parse_poly(n, L.vars), (k,))) for n, k in terms]
    want = independent_subset(L, elements)
    span = Span(L, (2,))
    assert [el for el in elements if span.add(el)] == want
    for _ in range(10):
        reordered = [_reordered(rng, el) for el in elements]
        assert independent_subset(L, reordered) == want
        # the columns follow each row's sorted terms, so the echelon is the same
        again = Span(L, (2,))
        assert [el for el, r in zip(elements, reordered) if again.add(r)] == want
        assert again.cols == span.cols and again.echelon.rows == span.echelon.rows


def test_monomials_up_to_over_no_variables_is_the_empty_monomial():
    for d in range(4):
        assert monomials_up_to(0, d) == [()]


def _recursive_monomials_up_to(nvars, d):
    """monomials_up_to's earlier body: each degree by a recursion over the
    exponent of each variable in turn, sorted."""
    out = []
    for total in range(d + 1):
        level = []

        def rec(prefix, left, slots):
            if slots == 1:
                level.append(tuple(prefix + [left]))
                return
            for e in range(left + 1):
                rec(prefix + [e], left - e, slots - 1)

        if nvars == 0:
            if total == 0:
                level.append(())
        else:
            rec([], total, nvars)
        out.extend(sorted(level))
    return out


def test_monomials_up_to_equals_the_recursive_reference():
    for nvars in range(7):
        for d in range(-1, 7):
            assert monomials_up_to(nvars, d) == _recursive_monomials_up_to(nvars, d)
    assert monomials_up_to(8, 5) == _recursive_monomials_up_to(8, 5)
    assert len(monomials_up_to(13, 3)) == 560  # C(13 + 3, 3)


def _fixture_algebras():
    """Every Lie fixture in tests/data, with and without its ideal, each also
    localized at one element: a nonconstant central one of degree <= 2 where
    there is one, else the first surviving generator."""
    algs = []
    probs = lie_fixtures()
    assert len(probs) == 5
    for prob in probs:
        for ideal in [None, prob.ideal] if prob.ideal else [None]:
            alg = reduced_algebra(prob.lie, ideal)
            central = [c.num for c in center_up_to_degree(alg, 2) if not c.num.is_constant()]
            s = central[0] if central else Poly.var(alg.vars, alg.effective_vars()[0].name)
            algs += [alg, localize(alg, [s])]
    return algs


def test_slice_basis_is_the_normal_form_of_each_monomial():
    algs = _fixture_algebras()
    assert len(algs) == 14 and any(alg.ideal for alg in algs)
    for alg in algs:
        for d in range(5):
            got = slice_basis(alg, d)
            want = [alg.element(m) for m in basis_monomials(alg, d)]
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert a.num.ctx == b.num.ctx
                assert a.num.terms == b.num.terms and a.den == b.den


# ---------------------------------------------------------------------------
# combination: one sum and one cancel over the largest denominator


def sequential_combination(alg, coeffs, elements):
    """Reference: one ``reference_sum`` per nonzero coefficient, in order."""
    acc = alg.zero()
    for a, el in zip(coeffs, elements):
        if a:
            acc = reference_sum(alg, acc, LocalElement(el.num.scale(a), el.den))
    return acc


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_combination_matches_the_sequential_sum(rng, name):
    alg = ALGEBRAS[name]
    nden = len(alg.inverted)
    shared = cancelled = mixed = 0
    for _ in range(40):
        # one denominator tuple for every element, or one each
        one_den = rng.random() < 0.5
        den = tuple(rng.randint(0, 2) for _ in range(nden))
        elements = [
            alg.element(LocalElement(
                random_poly(rng, alg.vars, 3, laurent=True),
                den if one_den else tuple(rng.randint(0, 2) for _ in range(nden)),
            ))
            for _ in range(rng.randint(1, 4))
        ]
        coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in elements]
        if nden and rng.random() < 0.5:
            # an element whose sum with the first leaves a multiple of s_0
            first = elements[0]
            r = random_poly(rng, alg.vars, 2)
            rest = alg.inverted[0] ** first.den[0] * r - first.num
            elements.append(alg.element(LocalElement(rest, first.den)))
            coeffs[0] = Fraction(1)
            coeffs.append(Fraction(1))
        got = combination(alg, zip(coeffs, elements))
        want = sequential_combination(alg, coeffs, elements)
        assert got.num.ctx == want.num.ctx
        assert got.num.terms == want.num.terms and got.den == want.den
        dens = {el.den for a, el in zip(coeffs, elements) if a}
        if len(dens) == 1:
            shared += 1
            cancelled += got.den != next(iter(dens))
        mixed += len(dens) > 1
    assert shared > 0
    assert cancelled > 0 if nden else cancelled == 0
    assert mixed > 0 if nden else mixed == 0


def test_combination_refuses_a_sparse_vector_read_as_dense():
    # a kernel vector {i: a_i} handed over in place of the pairs: its keys
    # are no (coefficient, element) pairs, so the call raises instead of
    # summing the keys as coefficients
    L = _heisenberg_at_z()
    basis = slice_basis(L, 1)
    vec = {0: Fraction(2), 2: Fraction(-1)}
    with pytest.raises(TypeError):
        combination(L, vec, basis)
    with pytest.raises(TypeError):
        combination(L, vec)
    got = combination(L, [(a, basis[i]) for i, a in vec.items()])
    assert L.format(got) == L.format(L.element("2 - y"))


# ---------------------------------------------------------------------------
# kernel elements are summed from the nonzero coefficients only


def test_kernel_of_operators_sums_only_the_vector_entries(monkeypatch):
    # count guard on filiform-5 at degree 4 (126 slice monomials, 12 center
    # elements): the pairs each combination reads and the terms it hands to
    # PoissonAlgebra._sum add up to sum(len(a)), 25, where a dense scan of
    # the coefficient vectors would read 126 entries per element
    g = verify_lie("e1 e2 e3 e4 e5", {(0, j): {j + 1: 1} for j in range(1, 4)})
    alg = reduced_algebra(g, None)
    basis = slice_basis(alg, 4)
    read, summed = [], []
    combine, add = spaces.combination, PoissonAlgebra._sum

    def counted(alg, terms):
        terms = list(terms)
        read.append(len(terms))
        return combine(alg, terms)

    monkeypatch.setattr(spaces, "combination", counted)
    monkeypatch.setattr(PoissonAlgebra, "_sum", lambda a, ts: summed.append(len(ts)) or add(a, ts))
    kernel = spaces.kernel_of_operators(alg, basis, slice_rows(alg, basis))
    entries = [len(a) for a, _ in kernel]
    assert (len(basis), len(kernel), sum(entries)) == (126, 12, 25)
    assert read == summed == entries
