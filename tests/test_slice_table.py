"""One slice table per ``decompose``: every flag level that the top
covers is the top restricted to its first variables, with its center
solved from the top slice's rows, and a lift between covered levels skips
the normal form.  Each is checked against the work it replaces: a level
algebra built from g, with its own stability check, that solves its own
slice, and the lift through ``element``."""

import gc
import importlib
import random
import weakref

from liepoisson import invariants, poisson
from liepoisson.errors import LiePoissonError
from liepoisson.invariants import SliceTable, _generator_actions, center_up_to_degree
from liepoisson.lie import verify_lie
from liepoisson.poisson import PoissonAlgebra, ideal_from_pairs, poisson_algebra
from liepoisson.polys import Poly
from liepoisson.spaces import kernel_of_operators, operator_rows, slice_basis, slice_monomials

from conftest import eng4, family_n, heisenberg, n_k, random_basis_change, random_solvable
from test_acceptance import DECOMP_FIXTURES
from test_center_memo import _ideal_decompose_input

dec = importlib.import_module("liepoisson.decompose")


def _uncovered_input():
    """[b1,b2] = b2 - b3 with b3 = b2.  b3 spans the only one-dimensional
    ideal on a coordinate line, so every coordinate flag starts at b3:
    level 1 keeps b3, which the top eliminates by b2, an image in a later
    variable."""
    g = random_solvable(random.Random(205), 3)
    return g, ideal_from_pairs(g.basis, [("b3", "b2")])


def _uncovered_inputs():
    """(g, ideal, chain, covered by level) of the inputs with uncovered
    levels: ``_uncovered_input``; [b1,b3] = 2 b3 - 2 b2 with b2 = b3, where
    level 1 keeps b2; and [b1,b2] = b2 - b4 with b4 = b2, where level 2
    keeps b4."""
    yield (*_uncovered_input(), ["b3", "b2", "b1"], [False, True, True])
    g = random_solvable(random.Random(27), 3)
    yield g, ideal_from_pairs(g.basis, [("b2", "b3")]), ["b2", "b3", "b1"], [False, True, True]
    g = random_solvable(random.Random(99), 4)
    chain, covered = ["b3", "b4", "b2", "b1"], [True, False, True, True]
    yield g, ideal_from_pairs(g.basis, [("b4", "b2")]), chain, covered


def _inputs():
    """(name, g, ideal, d): the decomposition fixtures at d = 6, then the
    sweep at d = 4 (150 random solvable algebras, 10 conjugates each of
    heisenberg, eng4 and family_n(2), two family ideals), then the input
    with uncovered levels."""
    for name, g, pairs in DECOMP_FIXTURES:
        yield name, g, ideal_from_pairs(g.basis, pairs) if pairs else None, 6
    for seed in range(150):
        yield f"solvable-{seed}", random_solvable(random.Random(seed), 2 + seed % 4), None, 4
    for name, g in (("heisenberg", heisenberg()), ("eng4", eng4()), ("family_n2", family_n(2))):
        for k in range(10):
            yield f"{name}-conj-{k}", random_basis_change(random.Random(k), g), None, 4
    for k, z in ((2, "3/2"), (3, "1")):
        g = family_n(k)
        yield f"family_n{k}(z={z})", g, ideal_from_pairs(g.basis, [("z", z)]), 4
    yield ("uncovered", *_uncovered_input(), 4)


def _run_all(check):
    """Run decompose on every input; ``check(name)`` is called before each.
    Returns the number of inputs that decomposed."""
    done = 0
    for name, g, ideal, d in _inputs():
        check(name)
        try:
            dec.decompose(g, ideal, d)
        except LiePoissonError:
            continue
        done += 1
    return done


def _fresh(alg: PoissonAlgebra) -> PoissonAlgebra:
    """An algebra equal to alg with an empty center memo."""
    return poisson_algebra(alg.vars, alg.table, alg.ideal, alg.inverted)


def _terms(els):
    return [(sorted(el.num.terms.items()), el.den) for el in els]


def _record_shares(monkeypatch):
    """The levels the slice table builds, appended as ``SliceTable.level``
    returns them (the top included)."""
    shared = []
    original = SliceTable.level

    def recorded(self, l):
        level = original(self, l)
        if level is not None:
            shared.append(level)
        return level

    monkeypatch.setattr(SliceTable, "level", recorded)
    return shared


def test_every_level_center_matches_a_level_without_a_table(monkeypatch):
    original = dec.center_up_to_degree
    shared = _record_shares(monkeypatch)
    seen = {"table": 0, "own": 0}
    current = [None]

    def checked(alg, d):
        got = original(alg, d)
        seen["table" if any(alg.centers is m.centers for m in shared) else "own"] += 1
        assert _terms(got) == _terms(original(_fresh(alg), d)), (current[0], alg.vars, d)
        return got

    monkeypatch.setattr(dec, "center_up_to_degree", checked)
    # the 8 fixtures, 120 of the 182 sweep inputs, and the uncovered input
    assert _run_all(lambda name: current.__setitem__(0, name)) == 129
    # only level 1 of the uncovered input brackets its own slice
    assert seen["table"] > 400 and seen["own"] == 1


def _content(alg: PoissonAlgebra):
    """vars, table entries and rules of an algebra, comparable across
    algebras."""
    table = {ij: (el.num, el.den) for ij, el in alg.table.items()}
    return alg.vars, table, alg.ideal.rules if alg.ideal else ()


def test_a_covered_level_equals_the_level_built_from_g(monkeypatch):
    # the top, cut from the hypothesis check's algebra, and every level the
    # table builds have the vars, table entries and rules of the quotient
    # built from the presented g on the same variables, and a level's slice
    # (the top's tuples zero past l, cut to length l) is its own, order
    # included; decompose builds from g only the levels not covered
    original = dec._level_algebra
    presented, built = [], []
    original_presentation = dec._on_flag_basis

    def recorded_presentation(*args):
        out = original_presentation(*args)
        presented.append(out[0])
        return out

    def recorded_build(g, ideal, l):
        built.append((g, ideal, l))
        return original(g, ideal, l)

    levels = []
    original_level = SliceTable.level

    def recorded_level(self, l):
        level = original_level(self, l)
        levels.append((self, l, level))
        return level

    monkeypatch.setattr(dec, "_on_flag_basis", recorded_presentation)
    monkeypatch.setattr(dec, "_level_algebra", recorded_build)
    monkeypatch.setattr(SliceTable, "level", recorded_level)
    inputs = [(g, ideal, d) for _, g, ideal, d in _inputs()]
    inputs += [(g, ideal, 4) for g, ideal, _, _ in _uncovered_inputs()]
    inputs += [(n_k(4), None, 4), (n_k(5), None, 4)]
    covered = uncovered = tops = 0
    for g, ideal, d in inputs:
        del presented[:], built[:], levels[:]
        try:
            dec.decompose(g, ideal, d)
        except LiePoissonError:
            if not presented:  # the hypothesis check failed
                continue
        (flag_g,) = presented
        assert [l for _, _, l in built] == [l for _, l, lv in levels if lv is None]
        assert all(flag is flag_g and flag_ideal is ideal for flag, flag_ideal, _ in built)
        (table,) = {id(table): table for table, _, _ in levels}.values()
        top = original(flag_g, ideal, flag_g.dim)
        assert _content(table.top) == _content(top), g.names()
        tops += 1
        for table, l, level in levels:
            if level is None:
                uncovered += 1
                continue
            covered += level is not table.top
            assert _content(level) == _content(original(flag_g, ideal, l)), (g.names(), l)
            kept = [mono[:l] for mono in table.monos if not any(mono[l:])]
            assert kept == slice_monomials(level, table.d), (g.names(), l)
    # 134 tops, n_4's and n_5's included; 357 covered levels below them,
    # 14 of them n_4's and n_5's; one uncovered level per uncovered input,
    # and the uncovered input of ``_inputs`` once more
    assert tops >= 130 and covered >= 350 and uncovered == 4, (tops, covered)


def test_one_stability_check_per_covered_level_chain(monkeypatch):
    # the ideal-decompose benchmark input covers every level: the hypothesis
    # check checks the ideal, and the top, cut from its algebra, and the
    # levels check none.  b3 b4 b2 b1 with b4 = b2 and b3 = 1: level 2 drops
    # b4 = b2 but keeps b3 = 1, so it checks its own rule; the covered
    # levels 1 and 3 check none
    sizes = []
    original = poisson._unstable_witness

    def counted(alg, ideal):
        sizes.append(len(alg.vars))
        return original(alg, ideal)

    monkeypatch.setattr(poisson, "_unstable_witness", counted)
    assert dec.decompose(*_ideal_decompose_input(), 6).n == 2
    assert sizes == [5]
    g = random_solvable(random.Random(99), 4)
    ideal = ideal_from_pairs(g.basis, [("b4", "b2"), ("b3", "1")])
    for d in (4, 6):
        del sizes[:]
        res = dec.decompose(g, ideal, d)
        assert res.trace["chain"] == ["b3", "b4", "b2", "b1"]
        assert sizes == [4, 2]


def test_uncovered_levels_bracket_their_own_slice(monkeypatch):
    # an uncovered level solves its own slice: one pass of exponent shifts
    # (``slice_rows``), after the table's pass over the top, and neither the
    # table nor any center memo miss makes a bracket or a partial
    shared = _record_shares(monkeypatch)
    passes = _record_slice_passes(monkeypatch)
    work = _count_work(monkeypatch)
    inside = []
    for owner, name in ((dec, "center_up_to_degree"), (SliceTable, "__init__")):
        monkeypatch.setattr(owner, name, _work_inside(getattr(owner, name), work, inside))
    for g, ideal, chain, covered in _uncovered_inputs():
        levels = range(1, len(chain) + 1)
        for d in (4, 6):
            del shared[:], passes[:], inside[:]
            res = dec.decompose(g, ideal, d)
            assert res.trace["chain"] == chain
            assert (str(res.e), res.n) == ("1", 0)
            assert [step["case"] for step in res.trace["levels"]] == ["a"] * len(chain)
            assert [len(level.vars) for level in shared] == [k for k in levels if covered[k - 1]]
            assert passes == [len(chain)] + [k for k in levels if not covered[k - 1]]
            assert inside and not any(inside)
            assert dec.verify_decomposition(res, 3)["ok"]


def test_a_skipped_lift_equals_the_lift_through_element(monkeypatch):
    original = dec._carry
    lifts = []

    def checked(alg, el):
        got = original(alg, el)
        want = alg.element(el)
        assert (got.num, got.den) == (want.num, want.den), (alg.vars, el)
        lifts.append(1)
        return got

    monkeypatch.setattr(dec, "_carry", checked)
    _run_all(lambda name: None)
    assert len(lifts) > 1000


def test_a_lift_into_the_top_equals_the_lift_through_element(monkeypatch):
    # the images of a covered level, lifted into the top for the central
    # choice of case (b): 917 lifts over the inputs
    original = dec._to_top
    lifts = []

    def checked(top, el):
        got = original(top, el)
        want = top.element(el)
        assert (got.num, got.den) == (want.num, want.den), (top.vars, el)
        lifts.append(1)
        return got

    monkeypatch.setattr(dec, "_to_top", checked)
    _run_all(lambda name: None)
    assert len(lifts) > 900


def _count_brackets(monkeypatch):
    brackets = []
    original = PoissonAlgebra.bracket

    def counted(self, p, q):
        brackets.append(1)
        return original(self, p, q)

    monkeypatch.setattr(PoissonAlgebra, "bracket", counted)
    return brackets


def _count_work(monkeypatch):
    """Brackets and ``Poly.partial`` calls, one entry each, as they run."""
    work = []
    for owner, name in ((PoissonAlgebra, "bracket"), (Poly, "partial")):

        def counted(*args, _original=getattr(owner, name), _name=name):
            work.append(_name)
            return _original(*args)

        monkeypatch.setattr(owner, name, counted)
    return work


def _work_inside(fn, work, inside):
    """fn, appending to ``inside`` the number of ``work`` entries each call
    adds."""

    def recorded(*args):
        before = len(work)
        got = fn(*args)
        inside.append(len(work) - before)
        return got

    return recorded


def _record_slice_passes(monkeypatch):
    """The number of variables of the algebra of each ``slice_rows`` pass."""
    passes = []
    original = invariants.slice_rows

    def recorded(alg, basis):
        passes.append(len(alg.vars))
        return original(alg, basis)

    monkeypatch.setattr(invariants, "slice_rows", recorded)
    return passes


def test_the_table_brackets_only_in_its_constructor(monkeypatch):
    # family_n(2) on its flag basis z, x1, y1, x2, y2 with z = 1: every
    # prefix is an ideal that keeps the rule, so the top covers every level.
    # The constructor shifts the top slice's exponents in one pass, with no
    # bracket and no partial; ``level`` restricts the top and reads its rows
    g = verify_lie("z x1 y1 x2 y2", {(1, 2): {0: 1}, (3, 4): {0: 1}})
    ideal = ideal_from_pairs(g.basis, [("z", "1")])
    built = [dec._level_algebra(g, ideal, level) for level in range(1, 6)]
    top = built[-1]
    work = _count_work(monkeypatch)
    passes = _record_slice_passes(monkeypatch)
    table = SliceTable(top, 3)
    assert passes == [5] and not work
    del passes[:]
    levels = [table.level(level) for level in range(1, 6)]
    assert None not in levels and levels[-1] is top
    got = [_terms(center_up_to_degree(level, 3)) for level in levels]
    assert not passes and not work
    assert got == [_terms(center_up_to_degree(_fresh(level), 3)) for level in built]
    # another degree is a memo miss: one pass over its own slice, and the
    # same center as the kernel of that slice's bracketed rows
    del passes[:], work[:]
    basis = slice_basis(top, 2)
    got = _terms(center_up_to_degree(top, 2))
    assert passes == [5] and not work
    fresh = _fresh(top)
    bracketed = operator_rows(fresh, basis, _generator_actions(fresh))
    assert got == _terms(el for _, el in kernel_of_operators(fresh, basis, bracketed))


def test_one_table_per_decompose_makes_fewer_brackets(monkeypatch):
    # family_n(3) with z = 1 at d = 6: 10,942 brackets when each flag level
    # bracketed its own slice (levels of 1, 7, 28, 84, 210, 462 and 924
    # monomials); the top slice alone is 924 monomials times 7 generators
    g = family_n(3)
    ideal = ideal_from_pairs(g.basis, [("z", "1")])
    brackets = _count_brackets(monkeypatch)
    res = dec.decompose(g, ideal, 6)
    assert res.n == 3
    assert len(brackets) <= 6685


def test_the_result_drops_its_table_and_verifies_as_with_it(monkeypatch):
    # the eng4-type algebra of localized-certify inverts e4; family_n(2)
    # with z = 2 is the ideal-decompose shape
    kept = []

    class Recorded(SliceTable):
        def __init__(self, top, d):
            super().__init__(top, d)
            kept.append(self)

    monkeypatch.setattr(dec, "SliceTable", Recorded)
    lc = verify_lie("e1 e2 e3 e4", {(0, 1): {2: 3}, (0, 2): {3: -2}})
    fam = family_n(2)
    inputs = [(lc, None), (fam, ideal_from_pairs(fam.basis, [("z", "2")]))]
    for g, ideal in inputs:
        res = dec.decompose(g, ideal, 6)
        table = weakref.ref(kept.pop())
        gc.collect()
        assert table() is None
        with_table = dec.decompose(g, ideal, 6)  # its table stays alive in ``kept``
        for k in (2, 3):
            report = dec.verify_decomposition(res, k)
            assert report["ok"]
            assert report == dec.verify_decomposition(with_table, k)


def test_the_table_builds_one_polynomial_per_center_element(monkeypatch):
    # the ideal-decompose benchmark input at seed 11 at d = 6: the top's
    # slice has 210 monomials, and the table once built a polynomial and an
    # element for each of them; it keeps them as exponent tuples
    tops = []

    class Recorded(SliceTable):
        def __init__(self, top, d):
            tops.append(top)
            super().__init__(top, d)

    monkeypatch.setattr(dec, "SliceTable", Recorded)
    dec.decompose(*_ideal_decompose_input(), 6)
    (top,) = tops
    news = []
    original = Poly.__init__

    def counted(self, *args, **kw):
        news.append(1)
        original(self, *args, **kw)

    monkeypatch.setattr(Poly, "__init__", counted)
    table = SliceTable(top, 6)
    assert len(table.monos) == 210
    assert len(news) <= len(top.centers[6]) + 2
