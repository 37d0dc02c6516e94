"""The Weyl-factor decomposition: fixtures, invariants, the nilpotent
wrapper, the center/Weyl equivalence, and determinism."""

import json
import random
from fractions import Fraction

import pytest

from liepoisson.decompose import (
    check_84,
    decompose,
    decompose_nilpotent,
    verify_decomposition,
)
from liepoisson.errors import HypothesisFailed, NotNilpotent, SearchExhausted, UnsupportedChain
from liepoisson.invariants import semi_invariants
from liepoisson.lie import Subspace, verify_lie
from liepoisson.poisson import epsilon_derivation, ideal_from_pairs

from conftest import abelian, aff2, eng4, family_n, heisenberg
from test_lie import _workload_algebras

F = Fraction


def _ideal(g, pairs):
    return ideal_from_pairs(g.basis, pairs) if pairs else None


def test_abelian_everything_central():
    res = decompose(abelian(2), None, 4)
    assert res.n == 0 and res.e.is_constant()
    assert len(res.center_basis) == 15  # all monomials of degree <= 4
    assert verify_decomposition(res, 3)["ok"]


def test_zero_dimensional_algebra_is_its_center():
    # no level runs: the reduced algebra of g = 0 is the answer, Q = Q (x) W_0
    g = verify_lie([], {})
    res = decompose(g)
    assert str(res.e) == "1" and res.n == 0 and res.pairs == ()
    assert [res.algebra.format(c) for c in res.center_basis] == ["1"]
    assert verify_decomposition(res, 3)["ok"]
    assert check_84(g)["agree"]


def test_heisenberg_quotient_is_one_pair():
    g = heisenberg()
    res = decompose(g, _ideal(g, [("z", "1")]), 6)
    assert res.e.is_constant() and res.n == 1
    assert [str(c.num) for c in res.center_basis] == ["1"]
    assert verify_decomposition(res, 4)["ok"]


def test_heisenberg_unreduced_localizes_at_z():
    g = heisenberg()
    res = decompose(g, None, 6)
    assert str(res.e) == "z" and res.n == 1
    # {x_1, y_1} = 1 with y_1 carrying the z-denominator
    alg = res.algebra
    x1, y1 = res.pairs[0]
    assert alg.sub(alg.bracket(x1, y1), alg.one()).is_zero()
    assert not y1.is_polynomial()
    formatted = [alg.format(c) for c in res.center_basis]
    assert "z" in formatted and "1/z" in formatted
    assert verify_decomposition(res, 4)["ok"]


def test_eng4_center_and_pair():
    res = decompose(eng4(), None, 6)
    assert str(res.e) == "e4" and res.n == 1
    report = verify_decomposition(res, 4)
    assert report["ok"], report
    # the degree-2 Casimir generates the nontrivial center part
    alg = res.algebra
    casimir = alg.element("e3^2 - 2*e2*e4")
    from liepoisson.spaces import solve_in_span

    assert solve_in_span(alg, list(res.center_basis), casimir) is not None


def test_family_n2_both_ideals():
    g = family_n(2)
    res1 = decompose(g, _ideal(g, [("z", "1")]), 6)
    assert res1.n == 2 and res1.e.is_constant()
    assert verify_decomposition(res1, 4)["ok"]
    res0 = decompose(g, None, 6)
    assert res0.n == 2 and str(res0.e) == "z"
    assert verify_decomposition(res0, 4)["ok"]


@pytest.mark.parametrize(
    "spec, structure, zero, e, n",
    [
        ("t x", {(0, 1): {1: 1}}, "x", "1", 0),
        ("x y z", {(0, 1): {2: 1}}, "z", "1", 0),
        ("x y z a", {(0, 1): {2: 1}}, "a", "z", 1),
        ("e1 e2 e3 e4", {(0, 1): {2: 1}, (0, 2): {3: 1}}, "e4", "e3", 1),
    ],
)
def test_a_generator_the_ideal_kills_adjoins_zero(spec, structure, zero, e, n):
    # the ideal sends a flag generator to 0: its level is case (a) and
    # adjoins 0, as a level whose generator the ideal sends to c adjoins c
    g = verify_lie(spec, structure)
    res = decompose(g, _ideal(g, [(zero, "0")]), 6)
    assert (str(res.e), res.n) == (e, n)
    level = res.trace["chain"].index(zero)
    assert res.trace["levels"][level]["case"] == "a"
    assert res.trace["levels"][level]["adjoined_central"] == "0"
    assert verify_decomposition(res, 3)["ok"]


def test_hypothesis_failure_detected():
    with pytest.raises(HypothesisFailed):
        decompose(aff2(), None, 4)


def test_nilpotent_wrapper():
    g = heisenberg()
    res = decompose_nilpotent(g, _ideal(g, [("z", "1")]), 6)
    assert res.n == 1
    with pytest.raises(NotNilpotent):
        decompose_nilpotent(aff2(), None, 4)


def _assert_t_eigenvectors(res, t="t"):
    # t as a generator name or as coordinates on the algebra's variables
    alg = res.algebra
    ad_t = epsilon_derivation(alg, t)
    for x_el, y_el in res.pairs:
        for el in (x_el, y_el):
            # eigenvector: the image is a rational multiple of the element
            img = ad_t.apply(alg, el)
            lead = max(el.num.terms)
            ratio = Fraction(img.num.terms.get(lead, 0), el.num.terms[lead])
            assert alg.sub(img, alg.scale(ratio, el)).is_zero(), alg.format(el)


def test_semisimple_action_weights():
    # [x,y] = z, [t,x] = x, [t,y] = -y; s = <t> acts semisimply
    g = verify_lie(
        "x y z t", {(0, 1): {2: 1}, (0, 3): {0: -1}, (1, 3): {1: 1}}
    )
    ideal = ideal_from_pairs(g.basis, [("z", "1")])
    s = Subspace(4, [(0, 0, 0, 1)])
    res = decompose(g, ideal, 6, s=s)
    assert res.n == 1 and verify_decomposition(res, 4)["ok"]
    _assert_t_eigenvectors(res)
    # [t,x] = x + y: the flag generator x is no t-eigenvector, so its weight
    # projection runs over both roots of the minimal polynomial and moves
    # the pair away from the one found without s
    g = verify_lie(
        "x y z t", {(0, 1): {2: 1}, (0, 3): {0: -1, 1: -1}, (1, 3): {1: 1}}
    )
    ideal = ideal_from_pairs(g.basis, [("z", "1")])
    pairs = {}
    for key, sub in (("s", s), ("plain", None)):
        res = decompose(g, ideal, 6, s=sub)
        pairs[key] = [[res.algebra.format(el) for el in pair] for pair in res.pairs]
    assert pairs == {"s": [["1/2*y + x", "y"]], "plain": [["x", "y"]]}
    res = decompose(g, ideal, 6, s=s)
    assert verify_decomposition(res, 4)["ok"]
    _assert_t_eigenvectors(res)


def test_check_84_reports():
    g = heisenberg()
    rep = check_84(g, _ideal(g, [("z", "1")]), 6)
    assert rep["center_trivial"] and rep["weyl_presentation"] and rep["agree"]
    rep0 = check_84(g, None, 6)
    assert not rep0["center_trivial"] and not rep0["weyl_presentation"]
    assert rep0["agree"] and rep0["central_witness"] == "z"
    rep1 = check_84(abelian(1), None, 6)
    assert not rep1["center_trivial"] and rep1["agree"]


@pytest.mark.parametrize("d", [0, -1])
def test_degree_bound_below_one_is_refused(d):
    # at d = 0 the slices hold only constants: the hypothesis check is
    # empty and every level takes case (a), so heisenberg would come out
    # as e = 1, n = 0, and check_84 would report a trivial center
    g = heisenberg()
    for run in (decompose, decompose_nilpotent, check_84):
        with pytest.raises(ValueError, match=rf"^degree bound must be at least 1, got {d}$"):
            run(g, None, d)
    res = decompose(g, None, 1)
    assert (str(res.e), res.n) == ("z", 1)


@pytest.mark.parametrize("dim", [3, 7])
def test_s_of_another_dimension_is_refused(dim):
    # x y z a t ([x,y] = z, [t,x] = x, [t,y] = -y): the flag and the weights
    # read s through zip, which cut a longer vector and padded nothing to
    # a shorter one, and a result came out
    g = verify_lie("x y z a t", {(0, 1): {2: 1}, (0, 4): {0: -1}, (1, 4): {1: 1}})
    s = Subspace(dim, [tuple(int(i == min(4, dim - 1)) for i in range(dim))])
    with pytest.raises(ValueError, match=rf"^s lies in dimension {dim}, but g has dimension 5$"):
        decompose(g, None, 4, s)
    assert decompose(g, None, 4, Subspace(5, [(0, 0, 0, 0, 1)])).n == 1


@pytest.mark.parametrize("k", [0, -1])
def test_check_degree_below_one_is_refused(k):
    # the report does not depend on the check degree, but a value below 1
    # is still refused: at 0 the window count gave a vacuous ok, at -1 a
    # silent not ok
    res = decompose(heisenberg(), None, 4)
    with pytest.raises(ValueError, match=rf"^check degree must be at least 1, got {k}$"):
        verify_decomposition(res, k)
    assert verify_decomposition(res, 1)["ok"]


def test_verification_refuses_a_laurent_context():
    # the certificate expands only the generators x_k and the inverses 1/s,
    # so an inverse x^-1 of a Laurent variable would be left out
    import dataclasses

    from liepoisson.poisson import poisson_algebra
    from liepoisson.polys import Poly, make_vars

    res = decompose(heisenberg(), None, 4)
    ctx = make_vars("x y z", invertible=True)
    laurent = poisson_algebra(ctx, {}, None, [Poly.var(ctx, "z")])
    with pytest.raises(ValueError, match="Laurent"):
        verify_decomposition(dataclasses.replace(res, algebra=laurent), 2)


def test_check_84_tests_nilpotency_once(monkeypatch):
    import importlib

    from liepoisson import lie

    dec = importlib.import_module("liepoisson.decompose")
    calls = []

    def counted(g):
        calls.append(g)
        return lie.is_nilpotent(g)

    monkeypatch.setattr(dec, "is_nilpotent", counted)
    assert check_84(heisenberg(), None, 6)["agree"]
    assert len(calls) == 1


def test_central_image_beyond_the_flag_prefix_is_unsupported_chain():
    # [x,y] = z with z = a: the jordan_holder flag z, x, y, a reached the
    # central image a (z in normal form) at level 3, before a itself, and
    # raised UnsupportedChain; the flag order now places a before z
    g = verify_lie("x y z a", {(0, 1): {2: 1}})
    res = decompose(g, ideal_from_pairs(g.basis, [("z", "a")]), 6)
    assert res.trace["chain"] == ["a", "z", "x", "y"]
    assert res.n == 1 and str(res.e) == "a"
    assert verify_decomposition(res, 3)["ok"]
    # with t acting, a comes before x in the flag, and the same ideals work
    g = verify_lie(
        "x y z a t", {(0, 1): {2: 1}, (0, 4): {0: -1}, (1, 4): {1: 1}}
    )
    for rhs in ("a", "a + 1"):
        res = decompose(g, ideal_from_pairs(g.basis, [("z", rhs)]), 6)
        assert res.n == 1 and str(res.e) == rhs
        assert verify_decomposition(res, 3)["ok"]


def test_semisimple_action_reaches_no_variable_past_the_level():
    # [x,y] = z, [t,x] = x, [t,y] = -y with z = a (or a + 1) and s = <t>: the
    # flag is z, y, a, x, t, so the rule z -> a applies from level 3 on;
    # projecting in the full algebra, where it applies, and restricting back
    # to level 1 raised UnknownVariable('a')
    g = verify_lie(
        "x y z a t", {(0, 1): {2: 1}, (0, 4): {0: -1}, (1, 4): {1: 1}}
    )
    s = Subspace(5, [(0, 0, 0, 0, 1)])
    for rhs in ("a", "a + 1"):
        res = decompose(g, ideal_from_pairs(g.basis, [("z", rhs)]), 6, s=s)
        assert res.n == 1 and str(res.e) == rhs
        alg = res.algebra
        den = rhs if rhs == "a" else f"({rhs})"
        assert [[alg.format(el) for el in pair] for pair in res.pairs] == [
            ["x", f"y/{den}"]
        ]
        assert verify_decomposition(res, 3)["ok"]
        _assert_t_eigenvectors(res)


def test_case_b_with_a_potential():
    # a conjugate of family_n(2) whose last step both inverts v = c1 and
    # subtracts the potential c3 of the earlier pair from the generator c5
    from conftest import random_basis_change

    res = decompose(random_basis_change(random.Random(2), family_n(2)), None, 4)
    step = res.trace["levels"][-1]
    assert step["level"] == 5 and step["case"] == "b" and step["v"] == "c1"
    assert step["potential"] == "c3"
    assert step["pair"] == ["-c3 + c5", "(-c2 - c4)/c1"]
    assert verify_decomposition(res, 3)["ok"]


def test_trace_deterministic():
    g = eng4()
    t1 = decompose(g, None, 5).trace
    t2 = decompose(g, None, 5).trace
    assert json.dumps(t1, sort_keys=True) == json.dumps(t2, sort_keys=True)


def test_random_nilpotent_conjugates(rng):
    # basis-changed copies of the nilpotent fixtures still decompose and
    # verify; this exercises the flag re-presentation and the independence
    # filtering of the center basis
    from conftest import random_basis_change
    from liepoisson.lie import is_nilpotent

    bases = [heisenberg(), abelian(3), eng4()]
    for trial in range(6):
        g = random_basis_change(rng, bases[trial % len(bases)])
        assert is_nilpotent(g)
        res = decompose_nilpotent(g, None, 5)
        assert verify_decomposition(res, 3)["ok"]


# Heisenberg in the basis (x, y, x + z): the center is spanned by the
# non-coordinate vector b3 - b1, so the flag forces a re-presentation
_NON_ALIGNED_HEISENBERG = verify_lie(
    "b1 b2 b3", {(0, 1): {0: -1, 2: 1}, (1, 2): {0: 1, 2: -1}}
)


def test_non_aligned_flag_rebased():
    from liepoisson.lie import is_nilpotent

    assert is_nilpotent(_NON_ALIGNED_HEISENBERG)
    # seed 10 of the conjugation of [x,y] = z, [t,x] = x, [t,y] = -y below:
    # a second flag search on the re-presented basis would find c2 - c3 as
    # its second generator, which is no coordinate
    conjugate = verify_lie(
        "b1 b2 b3 b4",
        {
            (0, 1): {2: 1, 3: 1},
            (0, 2): {0: 1},
            (0, 3): {0: -1},
            (1, 2): {0: 2, 1: -1, 2: 1, 3: 1},
            (1, 3): {0: -2, 1: 1, 2: -1, 3: -1},
        },
    )
    for g, d, k in ((_NON_ALIGNED_HEISENBERG, 5, 3), (conjugate, 4, 2)):
        res = decompose(g, None, d)
        assert res.n == 1
        assert "basis_change" in res.trace
        assert verify_decomposition(res, k)["ok"]


def test_non_aligned_flag_with_ideal_unsupported():
    # the same non-aligned Heisenberg cannot be re-presented with an ideal
    g = _NON_ALIGNED_HEISENBERG
    with pytest.raises(UnsupportedChain):
        decompose(g, ideal_from_pairs(g.basis, [("b3", "b1 + 1")]), 4)


def test_flag_computed_once(monkeypatch):
    # decompose builds the flag once and uses it for the hypothesis check
    # and for the recursion
    import importlib

    from liepoisson import invariants
    from liepoisson.lie import jordan_holder

    # the package re-exports the function under the submodule's name
    decompose_module = importlib.import_module("liepoisson.decompose")

    calls = []

    def counted(g):
        calls.append(g)
        return jordan_holder(g)

    monkeypatch.setattr(invariants, "jordan_holder", counted)
    monkeypatch.setattr(decompose_module, "jordan_holder", counted)
    res = decompose(eng4(), None, 6)
    assert res.n == 1
    assert len(calls) == 1
    # a rebase re-presents the algebra on the flag it found, searching none
    del calls[:]
    res = decompose(_NON_ALIGNED_HEISENBERG, None, 5)
    assert res.n == 1 and "basis_change" in res.trace
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# rebased flags: conjugates of [x,y] = z, [t,x] = x, [t,y] = -y


def _xyzt():
    return verify_lie("x y z t", {(0, 1): {2: 1}, (0, 3): {0: -1}, (1, 3): {1: 1}})


def test_random_conjugates_rebase():
    from conftest import random_basis_change

    for seed in range(20):
        g = random_basis_change(random.Random(seed), _xyzt())
        res = decompose(g, None, 3)
        assert res.n == 1 and verify_decomposition(res, 3)["ok"], seed


def test_semisimple_action_on_a_rebased_flag():
    # seed 3 of the conjugation with s = <t>: the flag generators become
    # the basis c1..c4, and every pair element is an eigenvector of ad t
    from conftest import random_basis_change, random_unimodular

    from liepoisson import linalg
    from liepoisson.lie import jordan_holder

    g = random_basis_change(random.Random(3), _xyzt())
    to_b = linalg.mat_inverse(random_unimodular(random.Random(3), 4))
    t_b = [row[3] for row in to_b]
    res = decompose(g, None, 6, s=Subspace(4, [t_b]))
    assert res.n == 1 and "basis_change" in res.trace
    gens = jordan_holder(g).generators
    _assert_t_eigenvectors(
        res, linalg.mat_vec(linalg.mat_inverse([list(r) for r in zip(*gens)]), t_b)
    )
    assert verify_decomposition(res, 3)["ok"]


def _wrong_potentials():
    """Mutations of ``decompose._pair_potential``: zero, and twice the potential."""
    import importlib

    dec = importlib.import_module("liepoisson.decompose")
    right = dec._pair_potential
    return dec, {
        "zero": lambda cur_l, *args: cur_l.zero(),
        "twice": lambda cur_l, *args: cur_l.scale(2, right(cur_l, *args)),
    }


@pytest.mark.parametrize("wrong", ["zero", "twice"])
@pytest.mark.parametrize(
    "g",
    [
        # l5: [e1,e2] = e3, [e1,e3] = e4, [e2,e3] = e5
        verify_lie("e1 e2 e3 e4 e5", {(0, 1): {2: 1}, (0, 2): {3: 1}, (1, 2): {4: 1}}),
        # the eng4-type algebra [e1,e2] = e3/2, [e1,e3] = e4
        verify_lie("e1 e2 e3 e4", {(0, 1): {2: Fraction(1, 2)}, (0, 2): {3: 1}}),
        # filiform-5: [e1, e_j] = e_{j+1}
        verify_lie("e1 e2 e3 e4 e5", {(0, j): {j + 1: 1} for j in (1, 2, 3)}),
    ],
    ids=["l5", "eng4-type", "filiform-5"],
)
def test_a_wrong_pair_potential_is_caught(monkeypatch, wrong, g):
    # each needs a nonzero potential; decompose's own commute check refuses
    # the adjoined element a wrong one leaves
    dec, potentials = _wrong_potentials()
    assert decompose(g, None, 6).n >= 1
    monkeypatch.setattr(dec, "_pair_potential", potentials[wrong])
    with pytest.raises(SearchExhausted) as exc:
        decompose(g, None, 6)
    assert str(exc.value) == (
        "search exhausted at degree bound 6 (adjoined element fails to commute with pairs)"
    )


def _s_inputs():
    """The 21 inputs of the decompose sweep with a semisimple s."""
    from test_decompose_sweep import sweep_inputs

    return [(name, g, _ideal(g, rules), d, s) for name, g, rules, d, s in sweep_inputs() if s]


def _wrong_projections():
    """Mutations of ``decompose._project_s_weight``: zero, and twice the
    projection."""
    import importlib

    dec = importlib.import_module("liepoisson.decompose")
    right = dec._project_s_weight
    return dec, {
        "zero": lambda alg, *args: alg.zero(),
        "twice": lambda alg, *args: alg.scale(2, right(alg, *args)),
    }


@pytest.mark.parametrize(
    "wrong, message",
    [
        ("zero", "flag generator lost its weight component"),
        ("twice", "weight projection broke the preimage"),
        ("potential", "canonical pair relation failed"),
    ],
)
def test_a_wrong_projection_or_potential_is_caught_with_s(monkeypatch, wrong, message):
    # each sweep input with s decomposes; decompose's own exact checks
    # refuse a generator projected to zero, a preimage projected wrongly,
    # and a potential equal to the generator itself (x = z - b is then 0)
    dec, projections = _wrong_projections()
    inputs = _s_inputs()
    assert len(inputs) == 21
    if wrong == "potential":
        monkeypatch.setattr(dec, "_pair_potential", lambda cur_l, prev_l, pairs, z_el, d: z_el)
    else:
        monkeypatch.setattr(dec, "_project_s_weight", projections[wrong])
    for name, g, ideal, d, s in inputs:
        with pytest.raises(SearchExhausted) as exc:
            decompose(g, ideal, d, s)
        assert str(exc.value) == f"search exhausted at degree bound {d} ({message})", name


def _krylov_operator():
    """An algebra on x y w with the derivation x -> x, y -> w, w -> 2y as an
    operator: 1 on x, and minimal polynomial t^2 - 2 on span(y, w)."""
    from liepoisson.poisson import Derivation, reduced_algebra

    alg = reduced_algebra(verify_lie("x y w", {}), None)
    images = {"x": alg.gen("x"), "y": alg.gen("w"), "w": alg.scale(2, alg.gen("y"))}
    delta = Derivation(images)
    return alg, lambda el: delta.apply(alg, el)


def test_krylov_projection_onto_a_missing_eigenvalue_is_zero():
    from liepoisson.decompose import _krylov_projection

    alg, op = _krylov_operator()
    assert _krylov_projection(alg, op, alg.gen("x"), Fraction(2)).is_zero()
    # t^2 - 2 has no rational root, so no theta is one
    assert _krylov_projection(alg, op, alg.gen("y"), Fraction(0)).is_zero()


def test_krylov_projection_refuses_an_irrational_component():
    # x + y has minimal polynomial (t - 1)(t^2 - 2): its 1-component is x,
    # but the rational roots alone do not split off the rest
    from liepoisson.decompose import _krylov_projection
    from liepoisson.errors import EigenvalueNotRational

    alg, op = _krylov_operator()
    assert _krylov_projection(alg, op, alg.gen("x"), Fraction(1)) == alg.gen("x")
    el = alg.add(alg.gen("x"), alg.gen("y"))
    with pytest.raises(EigenvalueNotRational, match="action does not split rationally"):
        _krylov_projection(alg, op, el, Fraction(1))


def test_potential_spanners_are_built_once(monkeypatch):
    # filiform-5 ([e1, e_j] = e_{j+1}) at d = 6: one pair whose potential
    # needs pair degree 2; 459 products when each bracket and each pair
    # degree rebuilt the center x pair-monomial spanners.  Every solve is
    # the potential's: the pair's u comes with its central image.  The
    # potential is summed by Euler's identity, so no partial derivative is
    # taken inside it but the one of a bracket (11 when it was integrated
    # over a formal presentation)
    import importlib

    from test_center_memo import _count_calls

    from liepoisson.poisson import PoissonAlgebra
    from liepoisson.polys import Poly

    dec = importlib.import_module("liepoisson.decompose")
    g = verify_lie("e1 e2 e3 e4 e5", {(0, j): {j + 1: 1} for j in (1, 2, 3)})
    muls, partials, inside = [], [], []
    original_mul, original_partial = PoissonAlgebra.mul, Poly.partial
    original_potential = dec._pair_potential

    def counted_mul(self, a, b):
        muls.append(1)
        return original_mul(self, a, b)

    def counted_partial(self, *args):
        if inside:
            partials.append(1)
        return original_partial(self, *args)

    def potential(*args):
        inside.append(1)
        try:
            return original_potential(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(PoissonAlgebra, "mul", counted_mul)
    monkeypatch.setattr(Poly, "partial", counted_partial)
    monkeypatch.setattr(dec, "_pair_potential", potential)
    solves = _count_calls(monkeypatch, "spaces", "solve_in_span")
    res = decompose(g, None, 6)
    assert res.n == 1
    assert len(muls) <= 251
    assert len(partials) == 1
    assert len(solves) == 4


def test_verify_reports_a_repeated_pair_as_not_injective():
    # the heisenberg z=1 pair listed twice: every product with the second
    # copy repeats one with the first, and {x_1, y_2} = 1, not 0
    import dataclasses

    g = heisenberg()
    res = decompose(g, _ideal(g, [("z", "1")]), 6)
    twice = dataclasses.replace(res, pairs=res.pairs * 2)
    assert verify_decomposition(twice, 3) == {
        "pair_relations": False,
        "centrality": True,
        "mult_map_injective": False,
        "mult_map_surjective": False,
        "ok": False,
    }


# ---------------------------------------------------------------------------
# the hypothesis check against the full semi-invariant search


def _first_nonzero_entry(g, ideal, d):
    """Reference: the check as written over the whole semi-invariant search,
    the weight and element of its first nonzero-weight entry."""
    for w, basis in semi_invariants(g, ideal, d).entries:
        if not w.is_zero():
            return tuple(map(str, w.values)), str(basis[0].num)
    return None


def test_hypothesis_failure_is_the_first_nonzero_semi_invariant():
    # aff2, and the t s x y algebras of the weight-search benchmark, whose
    # candidate weights all carry a semi-invariant
    cases = [(aff2(), d) for d in (2, 3, 4)]
    cases += [(_workload_algebras(seed)[1], 5) for seed in (5, 11, 23)]
    for g, d in cases:
        want = _first_nonzero_entry(g, None, d)
        assert want is not None
        with pytest.raises(HypothesisFailed) as err:
            decompose(g, None, d)
        assert (err.value.weight, err.value.element) == want, (g.names(), d)


def test_nilpotent_decompose_solves_no_weight_space(monkeypatch):
    # every candidate weight of a nilpotent algebra is zero, so the check
    # lists no weight, and every kernel decompose solves is a centralizer
    # or a center the slice table solves from its rows
    import sys

    from liepoisson import invariants

    callers = []
    kernel_of_operators = invariants.kernel_of_operators

    def recorded(*args):
        callers.append(sys._getframe(1).f_code.co_qualname)
        return kernel_of_operators(*args)

    monkeypatch.setattr(invariants, "kernel_of_operators", recorded)
    h, f = heisenberg(), family_n(2)
    cases = [(h, _ideal(h, [("z", "1")])), (f, _ideal(f, [("z", "3/2")])), (eng4(), None)]
    homes = {"centralizer", "SliceTable.__init__", "SliceTable.level"}
    for g, ideal in cases:
        del callers[:]
        decompose(g, ideal, 4)
        assert "centralizer" in callers and set(callers) <= homes, g.names()


# ---------------------------------------------------------------------------
# the central choice when no candidate combination is central


NO_CENTRAL = r"^search exhausted at degree bound 3 \(no central element in the image\)$"


def _choice_failure(spec, structure, candidates, d=3):
    from liepoisson.decompose import _central_choice
    from liepoisson.poisson import reduced_algebra

    alg = reduced_algebra(verify_lie(spec, structure), None)
    return lambda: _central_choice(alg, [alg.element(c) for c in candidates], d)


def test_central_choice_certifies_a_nonzero_weight():
    # [t,x] = x: x is a semi-invariant of weight 1, not central, so the span
    # of x holds no central element
    choose = _choice_failure("t x", {(0, 1): {1: 1}}, ["x"])
    with pytest.raises(SearchExhausted, match=NO_CENTRAL):
        choose()


def test_central_choice_needs_a_module():
    # {x, t} = -x lies outside the span of t, which holds no central element
    choose = _choice_failure("t x", {(0, 1): {1: 1}}, ["t"])
    with pytest.raises(SearchExhausted, match=NO_CENTRAL):
        choose()


def test_central_choice_needs_a_rational_eigenvector():
    # t rotates span(x, y) (its eigenvalues are +-i), which holds no central
    # element
    choose = _choice_failure("t x y", {(0, 1): {2: 1}, (0, 2): {1: -1}}, ["x", "y"])
    with pytest.raises(SearchExhausted, match=NO_CENTRAL):
        choose()
