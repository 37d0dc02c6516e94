"""The certificate of ``verify_decomposition``: every generator of the
localized quotient expanded over the canonical pairs
(``weyl.pair_expansion``), with coefficients that commute with every
generator.  It holds in every degree, so it needs no degree window."""

from __future__ import annotations

import dataclasses
import importlib

import pytest

from liepoisson import weyl
from liepoisson.decompose import decompose, verify_decomposition
from liepoisson.errors import LocalNilpotencyCapExceeded
from liepoisson.lie import verify_lie
from liepoisson.weyl import pair_expansion

from test_decompose_goldens import golden_results
from test_decompose_sweep import WINDOW_MISSES, sweep

OK = {
    "pair_relations": True,
    "centrality": True,
    "mult_map_injective": True,
    "mult_map_surjective": True,
    "ok": True,
}


def _filiform(n):
    """[e1, e_j] = e_(j+1) on e1..en."""
    names = " ".join(f"e{k + 1}" for k in range(n))
    return verify_lie(names, {(0, j): {j + 1: 1} for j in range(1, n - 1)})


def test_the_window_misses_certify():
    # the 57 sweep inputs on which the window count reported the map not
    # surjective at check degrees 2 and 3
    certified = [
        name
        for (name, *_), _, _, res in sweep()
        if name in WINDOW_MISSES and verify_decomposition(res, 3) == OK
    ]
    assert len(certified) == len(WINDOW_MISSES) == 57


@pytest.mark.parametrize("n, d", [(5, 6), (6, 8)])
def test_filiform_decompositions_certify(n, d):
    # the window count reported both not surjective at check degree 3
    res = decompose(_filiform(n), None, d)
    assert res.n == 1 and res.algebra.inverted
    assert verify_decomposition(res, 3) == OK


def test_mutated_pairs_fail_on_every_sweep_result(monkeypatch):
    # the last y scaled by 2 breaks {x, y} = 1, and nothing is expanded; the
    # last pair dropped leaves coefficients that do not commute with it
    dec = importlib.import_module("liepoisson.decompose")
    expansions = []
    original = dec.pair_expansion

    def counted(*args):
        expansions.append(1)
        return original(*args)

    monkeypatch.setattr(dec, "pair_expansion", counted)
    mutated = 0
    for (name, *_), _, _, res in sweep():
        if res is None or res.n < 1:
            continue
        x, y = res.pairs[-1]
        scaled = res.pairs[:-1] + ((x, res.algebra.scale(2, y)),)
        before = len(expansions)
        report = verify_decomposition(dataclasses.replace(res, pairs=scaled), 3)
        assert len(expansions) == before, name
        assert not report["pair_relations"], name
        assert not report["mult_map_injective"] and not report["mult_map_surjective"], name
        assert not report["ok"], name
        report = verify_decomposition(dataclasses.replace(res, pairs=res.pairs[:-1]), 3)
        assert report["pair_relations"] and not report["mult_map_injective"], name
        assert not report["ok"], name
        mutated += 1
    assert mutated == 132


def test_a_series_past_the_cap_is_not_surjective(monkeypatch):
    # filiform-5 at d = 6: e2 = sum c_b y^b needs D^3 e2 = e5, so a cap of 2
    # stops its series; the coefficients found so far are still central
    res = decompose(_filiform(5), None, 6)
    alg = res.algebra
    monkeypatch.setattr(weyl, "DEFAULT_NILPOTENCY_CAP", 2)
    with pytest.raises(LocalNilpotencyCapExceeded) as exc:
        pair_expansion(alg, res.pairs, alg.gen("e2"))
    assert exc.value.cap == 2
    assert verify_decomposition(res, 3) == {
        "pair_relations": True,
        "centrality": True,
        "mult_map_injective": True,
        "mult_map_surjective": False,
        "ok": False,
    }
    monkeypatch.setattr(weyl, "DEFAULT_NILPOTENCY_CAP", 3)
    assert verify_decomposition(res, 3) == OK


def test_expansions_match_a_sympy_rebuild():
    # on every golden decomposition, sum c x^a y^b rebuilt in sympy from the
    # formatted coefficients and pair elements, with the ideal's rules
    # applied, cancels against the generator
    sympy = pytest.importorskip("sympy")
    checked = 0
    for name, res, _ in golden_results():
        alg = res.algebra
        syms = {v.name: sympy.Symbol(v.name) for v in alg.vars}

        def parse(text, syms=syms):
            return sympy.sympify(text.replace("^", "**"), locals=syms)

        ideal_rules = alg.ideal.rules if alg.ideal else ()
        rules = {syms[v.name]: parse(str(img)) for v, img in ideal_rules}
        flat = [parse(alg.format(el)) for pair in res.pairs for el in pair]
        for v in alg.effective_vars():
            total = 0
            for expo, c in pair_expansion(alg, res.pairs, alg.gen(v.name)).items():
                term = parse(alg.format(c))
                for base, e in zip(flat, expo):
                    term *= base**e
                total += term
            assert sympy.cancel(total.subs(rules) - syms[v.name].subs(rules)) == 0, (name, v)
            checked += 1
    assert checked == 48  # the generators of the 15 goldens
