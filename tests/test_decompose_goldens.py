"""Byte-for-byte goldens for the center tensor Weyl decomposition.

Each case records e, n, the formatted pairs and center basis, the trace and
the ``verify_decomposition`` report.  Regenerate (only when a change of
output is intended) with

    PYTHONPATH=src:tests python tests/test_decompose_goldens.py --write
"""

from __future__ import annotations

import json
import os
import random
import sys
from fractions import Fraction

from liepoisson.decompose import decompose, decompose_nilpotent, verify_decomposition
from liepoisson.lie import Subspace, verify_lie
from liepoisson.poisson import ideal_from_pairs
from liepoisson.polys import Poly

from conftest import abelian, eng4, heisenberg, random_basis_change
from test_acceptance import DECOMP_FIXTURES

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "decompose_goldens.json")


def _record(res, check_degree):
    alg = res.algebra
    return {
        "e": str(res.e),
        "n": res.n,
        "pairs": [[alg.format(x), alg.format(y)] for x, y in res.pairs],
        "center": [alg.format(c) for c in res.center_basis],
        "trace": res.trace,
        "verify": verify_decomposition(res, check_degree),
    }


def golden_results():
    """(name, decomposition, check degree) of every golden case."""
    for name, g, pairs in DECOMP_FIXTURES:
        ideal = ideal_from_pairs(g.basis, pairs) if pairs else None
        yield name, decompose(g, ideal, 6), 4
    # [x,y] = z, [t,x] = x, [t,y] = -y; s = <t> acts semisimply
    g = verify_lie("x y z t", {(0, 1): {2: 1}, (0, 3): {0: -1}, (1, 3): {1: 1}})
    ideal = ideal_from_pairs(g.basis, [("z", "1")])
    yield "semisimple-s=<t>", decompose(g, ideal, 6, s=Subspace(4, [(0, 0, 0, 1)])), 4
    # Heisenberg on (x, y, x + z): the flag is not coordinate-aligned
    g = verify_lie("b1 b2 b3", {(0, 1): {0: -1, 2: 1}, (1, 2): {0: 1, 2: -1}})
    yield "rebase-b1b2b3", decompose(g, None, 5), 3
    # L5: [e1,e2]=e3, [e1,e3]=e4, [e2,e3]=e5; nonzero pair potential
    g = verify_lie("e1 e2 e3 e4 e5", {(0, 1): {2: 1}, (0, 2): {3: 1}, (1, 2): {4: 1}})
    yield "l5", decompose(g, None, 6), 3
    bases = [("heisenberg", heisenberg()), ("abelian-3", abelian(3)), ("eng4", eng4())]
    for seed in range(4):
        base_name, base = bases[seed % len(bases)]
        g = random_basis_change(random.Random(seed), base)
        yield f"conjugate-{base_name}-seed{seed}", decompose_nilpotent(g, None, 5), 3


def compute_goldens() -> dict:
    return {name: _record(res, k) for name, res, k in golden_results()}


def _dump(data: dict) -> str:
    return json.dumps(data, indent=1, sort_keys=True) + "\n"


def test_decompose_matches_goldens():
    with open(GOLDEN) as fh:
        want = fh.read()
    assert _dump(compute_goldens()) == want


def test_decompositions_store_int_or_proper_fraction(monkeypatch):
    # every polynomial built while decomposing and verifying the fixtures
    # keeps an integral coefficient as an int and any other as a Fraction
    kinds = set()
    init = Poly.__init__

    def checked(self, *args, **kw):
        init(self, *args, **kw)
        for c in self.terms.values():
            assert type(c) is int or (type(c) is Fraction and c.denominator != 1), c
            kinds.add(type(c))

    monkeypatch.setattr(Poly, "__init__", checked)
    compute_goldens()
    assert kinds == {int, Fraction}


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_decompose_goldens.py --write")
    with open(GOLDEN, "w") as fh:
        fh.write(_dump(compute_goldens()))
