"""The bracket, the partials and the derivations against independent
references: the pairwise biderivation over the table with quotient-rule
partials taken one variable at a time, sympy, and call-count guards on the
localized arithmetic.

The references share no arithmetic with the rows and the one sum of
``PoissonAlgebra`` they check: ``reference_sum`` adds numerators with
``Poly`` arithmetic over their largest denominator, ``reference_partial``
is the quotient rule one term at a time, and both reach normal form only
through ``alg.element``."""

from fractions import Fraction

import pytest

from liepoisson.invariants import semi_invariants
from liepoisson.lie import verify_lie
from liepoisson.poisson import (
    Derivation,
    LocalElement,
    PoissonAlgebra,
    canonical_from_lie,
    ideal_from_pairs,
    inner_derivation,
    localize,
    poisson_algebra,
    quotient,
    skew_extend,
)
from liepoisson.polys import Poly, make_vars, parse_poly
from liepoisson.spaces import basis_monomials, combination, operator_rows
from liepoisson.weyl import chi_context

from conftest import eng4, family_n, heisenberg, random_poly

F = Fraction


def reference_sum(alg, *elements):
    """Reference: the sum of the elements, each numerator written over the
    largest power of each inverted element with ``Poly`` arithmetic, then
    put in normal form by ``alg.element``."""
    den = tuple(max((el.den[i] for el in elements), default=0) for i in range(len(alg.inverted)))
    num = Poly.zero(alg.vars)
    for el in elements:
        lifted = el.num
        for s, k, e in zip(alg.inverted, el.den, den):
            lifted = lifted * s ** (e - k)
        num = num + lifted
    return alg.element(LocalElement(num, den))


def reference_partial(alg, a, v):
    """Reference: the quotient-rule partial d/dv, d(n / prod s^k) =
    d(n) / prod s^k - sum_i k_i n d(s_i) / (prod s^k s_i), one normal form
    per term."""
    out = alg.element(LocalElement(a.num.partial(v), a.den))
    for i, s in enumerate(alg.inverted):
        k = a.den[i]
        if k == 0:
            continue
        ds = s.partial(v)
        if ds.is_zero():
            continue
        den = list(a.den)
        den[i] += 1
        term = alg.element(LocalElement(a.num.scale(-k) * ds, tuple(den)))
        out = reference_sum(alg, out, term)
    return out


def pairwise_bracket(alg, a, b):
    """Reference: sum_{i<j} T_ij (d_i a d_j b - d_j a d_i b), with the
    quotient-rule partial of each argument in every variable."""
    pa = [reference_partial(alg, a, v) for v in alg.vars]
    pb = [reference_partial(alg, b, v) for v in alg.vars]
    terms = []
    for (i, j), t in alg.table.items():
        terms.append(alg.mul(t, alg.mul(pa[i], pb[j])))
        terms.append(alg.scale(-1, alg.mul(t, alg.mul(pa[j], pb[i]))))
    return reference_sum(alg, *terms)


def _family_mod_z():
    A = canonical_from_lie(family_n(2))
    return quotient(A, ideal_from_pairs(A.vars, [("z", "3/2")]))


def _chi_target():
    # {p, q} = 1/s with s inverted: a table entry with a denominator
    ctx = make_vars("a p q s")
    A = poisson_algebra(
        ctx,
        {(1, 2): LocalElement(Poly.const(ctx, 1), (1,))},
        inverted=[Poly.var(ctx, "s")],
    )
    return chi_context(A, Derivation({"a": A.one()}), "a").target


def _skew_extended():
    # {w, p} = {x*y, p} on Heisenberg: quadratic table entries
    A = canonical_from_lie(heisenberg())
    return skew_extend(A, inner_derivation(A, parse_poly("x*y", A.vars)), "w")


def _laurent_localized():
    ctx = make_vars("X", invertible=True) + make_vars("Y")
    A = poisson_algebra(ctx, {(0, 1): Poly.var(ctx, "X")})
    return localize(A, [parse_poly("X*Y + X", ctx)])


def _eng4_at(*denominators):
    A = canonical_from_lie(eng4())
    return localize(A, [parse_poly(s, A.vars) for s in denominators])


ALGEBRAS = {
    "heisenberg": canonical_from_lie(heisenberg()),
    "family_n(2) mod z=3/2": _family_mod_z(),
    "eng4 at e4": _eng4_at("e4"),
    # {e1, e2 + e3} = e3 + e4: the Hamiltonian row of e1 moves e2 + e3 but
    # not the central e4, and moves both e3 and e2 + e3
    "eng4 at e4 and e2 + e3": _eng4_at("e4", "e2 + e3"),
    "eng4 at e3 and e2 + e3": _eng4_at("e3", "e2 + e3"),
    "chi target of a p q s": _chi_target(),
    "skew extension": _skew_extended(),
    "Laurent X at X*Y + X": _laurent_localized(),
}


def _random_element(rng, alg):
    """A random numerator over a random power of each inverted element."""
    el = alg.element(random_poly(rng, alg.vars, 3, laurent=True))
    for s in alg.inverted:
        k = rng.randint(0, 2)
        if k:
            el = alg.mul(el, alg.power(alg.invert(alg.element(s)), k))
    return el


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_bracket_matches_pairwise_biderivation(rng, name):
    alg = ALGEBRAS[name]
    gens = [alg.gen(v.name) for v in alg.effective_vars()]
    denominators = 0
    for _ in range(15):
        a, b = _random_element(rng, alg), _random_element(rng, alg)
        denominators += not (a.is_polynomial() and b.is_polynomial())
        assert alg.bracket(a, b) == pairwise_bracket(alg, a, b)
        for g in gens:
            assert alg.bracket(g, b) == pairwise_bracket(alg, g, b)
            assert alg.bracket(b, g) == pairwise_bracket(alg, b, g)
    assert denominators > 0 if alg.inverted else denominators == 0


def test_hamiltonian_rows_are_the_table():
    # row i: the numerators of the nonzero {x_i, x_k} over one denominator,
    # the largest power of each inverted element among them
    for alg in ALGEBRAS.values():
        n = len(alg.vars)
        for i in range(n):
            entries, den = alg.rows[i]
            want = [(k, alg.table_entry(i, k)) for k in range(n)]
            want = [(k, t) for k, t in want if not t.is_zero()]
            assert [k for k, _ in entries] == [k for k, _ in want]
            for (_, num), (_, t) in zip(entries, want):
                assert alg.element(LocalElement(num, den)) == t
            assert den == tuple(
                max((t.den[s] for _, t in want), default=0) for s in range(len(alg.inverted))
            )


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_partial_matches_the_quotient_rule(rng, name):
    alg = ALGEBRAS[name]
    for _ in range(10):
        a = _random_element(rng, alg)
        for v in alg.vars:
            assert alg.partial(a, v) == reference_partial(alg, a, v)


def per_variable_apply(alg, delta, el):
    """Reference: the chain rule one variable at a time, sum_v d_v el D(v),
    over every generator with a nonzero image."""
    out = alg.zero()
    for v in alg.vars:
        img = delta.images.get(v.name)
        if img is None:
            continue
        img = alg.element(img)
        if img.is_zero():
            continue
        d = reference_partial(alg, el, v)
        if not d.is_zero():
            out = reference_sum(alg, out, alg.mul(d, img))
    return out


def _heisenberg_z1():
    A = canonical_from_lie(heisenberg())
    return quotient(A, ideal_from_pairs(A.vars, [("z", "1")]))


DERIVATION_ALGEBRAS = {
    "heisenberg mod z=1": _heisenberg_z1(),
    "Laurent X at X*Y + X": ALGEBRAS["Laurent X at X*Y + X"],
    "eng4 at e4": ALGEBRAS["eng4 at e4"],
    "eng4 at e4 and e2 + e3": ALGEBRAS["eng4 at e4 and e2 + e3"],
    "eng4 at e3 and e2 + e3": ALGEBRAS["eng4 at e3 and e2 + e3"],
}


@pytest.mark.parametrize("name", sorted(DERIVATION_ALGEBRAS))
def test_derivation_apply_matches_per_variable_sum(rng, name):
    alg = DERIVATION_ALGEBRAS[name]
    images_with_denominators = 0
    for _ in range(8):
        # a random image (or none, or zero) per generator, eliminated ones too
        images = {}
        for v in alg.vars:
            pick = rng.randint(0, 3)
            if pick:
                images[v.name] = alg.zero() if pick == 1 else _random_element(rng, alg)
        images_with_denominators += any(not im.is_polynomial() for im in images.values())
        delta = Derivation(images)
        for _ in range(4):
            el = _random_element(rng, alg)
            assert delta.apply(alg, el) == per_variable_apply(alg, delta, el)
    assert images_with_denominators > 0 if alg.inverted else images_with_denominators == 0


# ---------------------------------------------------------------------------
# sympy oracle on denominator-free brackets


def _to_sympy(sp, p, syms):
    out = sp.Integer(0)
    for mono, c in p.terms.items():
        term = sp.Rational(c.numerator, c.denominator)
        for s, e in zip(syms, mono):
            term *= s**e
        out += term
    return out


def _from_sympy(sp, expr, alg, syms):
    poly = sp.Poly(sp.expand(expr), *syms)
    return Poly(alg.vars, {m: F(int(c.p), int(c.q)) for m, c in poly.terms()})


@pytest.mark.parametrize("name", ["heisenberg", "family_n(2) mod z=3/2", "skew extension"])
def test_bracket_matches_sympy(rng, name):
    sp = pytest.importorskip("sympy")
    alg = ALGEBRAS[name]
    syms = sp.symbols([v.name for v in alg.vars])
    table = {k: _to_sympy(sp, t.num, syms) for k, t in alg.table.items()}
    for _ in range(10):
        a = alg.element(random_poly(rng, alg.vars, 4))
        b = alg.element(random_poly(rng, alg.vars, 4))
        fa, fb = _to_sympy(sp, a.num, syms), _to_sympy(sp, b.num, syms)
        want = sum(
            (
                t * (sp.diff(fa, syms[i]) * sp.diff(fb, syms[j])
                     - sp.diff(fa, syms[j]) * sp.diff(fb, syms[i]))
                for (i, j), t in table.items()
            ),
            sp.Integer(0),
        )
        got = alg.bracket(a, b)
        assert got.is_polynomial()
        assert got.num == _from_sympy(sp, want, alg, syms)


# ---------------------------------------------------------------------------
# call-count guards


def _count_calls(monkeypatch, cls, name):
    calls = []
    original = getattr(cls, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(cls, name, counted)
    return calls


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_slice_actions_make_no_element_arithmetic(monkeypatch, rng, name):
    # generator actions on a slice, brackets of two non-generators, partials,
    # derivations and combinations are one sum each, denominators included
    alg = ALGEBRAS[name]
    laurent = any(v.invertible for v in alg.effective_vars())
    basis = [] if laurent else [alg.element(m) for m in basis_monomials(alg, 3)]
    gens = [alg.gen(v.name) for v in alg.effective_vars()]
    ops = [lambda el, gen=gen: alg.bracket(gen, el) for gen in gens]
    elements = [_random_element(rng, alg) for _ in range(6)]
    delta = Derivation({v.name: _random_element(rng, alg) for v in alg.vars})
    coeffs = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in elements]
    muls = _count_calls(monkeypatch, PoissonAlgebra, "mul")
    adds = _count_calls(monkeypatch, PoissonAlgebra, "add")
    brackets = _count_calls(monkeypatch, PoissonAlgebra, "bracket")
    operator_rows(alg, basis, ops)
    assert len(brackets) == len(gens) * len(basis)
    for a, b in zip(elements, elements[1:]):
        alg.bracket(a, b)
        for v in alg.vars:
            alg.partial(a, v)
        delta.apply(alg, a)
    combination(alg, zip(coeffs, elements))
    assert muls == [] and adds == []


def test_weight_search_slice_makes_224_brackets(monkeypatch):
    # t s x y at degree 5: x and y have weight zero on every candidate, t and
    # s do not.  x is bracketed on the 126 monomials, y on x's kernel (56
    # elements), and t and s on K0, the joint kernel of x and y (21 elements)
    g = verify_lie("t s x y", {(0, 2): {2: 2}, (1, 3): {3: F(-1, 3)}, (0, 3): {3: 5}})
    brackets = _count_calls(monkeypatch, PoissonAlgebra, "bracket")
    report = semi_invariants(g, None, 5)
    assert len(brackets) == 126 + 56 + 2 * 21
    assert len(report.entries) == 21
