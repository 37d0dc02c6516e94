"""n_k, the strictly upper triangular k x k matrices, and its Borel b_k
have closed-form answers.  The Poisson center of S(n_k) is a polynomial
ring in the floor(k/2) corner minors Delta_i = det(e_{r, k-i+c})_{r,c<=i},
with deg Delta_i = i (B. Kostant, "The cascade of orthogonal roots and the
coadjoint structure of the nilradical of a Borel subgroup of a semisimple
Lie group", Moscow Math. J. 12, 2012).  So the degree-<= d center has
dimension #{a : sum i a_i <= d}, and ``decompose`` gives
(k(k-1)/2 - floor(k/2))/2 pairs.  In b_k each Delta_i is a semi-invariant
of nonzero weight, which the hypothesis check refuses."""

import importlib
import json
from itertools import permutations
from math import prod

import pytest

from liepoisson import cli
from liepoisson.errors import HypothesisFailed
from liepoisson.invariants import center_up_to_degree
from liepoisson.poisson import reduced_algebra
from liepoisson.polys import Poly
from liepoisson.spaces import solve_in_span

from conftest import b_k, n_k

dec = importlib.import_module("liepoisson.decompose")


def _closed_form_dim(k, d):
    """#{a in N^floor(k/2) : sum_i i a_i <= d}, by the degree left."""
    counts = [1] + [0] * d  # counts[r]: the exponents so far of degree r
    for i in range(1, k // 2 + 1):
        for r in range(i, d + 1):
            counts[r] += counts[r - i]
    return sum(counts)


def _corner_minor(alg, k, i):
    """Delta_i: the determinant of rows 1..i and columns k-i+1..k."""

    def entry(r, c):
        return Poly.var(alg.vars, f"e{r}{k - i + c}")

    out, one = Poly.zero(alg.vars), Poly.const(alg.vars, 1)
    for perm in permutations(range(1, i + 1)):
        inversions = sum(a > b for n, a in enumerate(perm) for b in perm[n + 1 :])
        term = prod((entry(r, c) for r, c in enumerate(perm, 1)), start=one)
        out = out + term if inversions % 2 == 0 else out - term
    return out


@pytest.mark.parametrize("k, d, dim", [(3, 4, 5), (4, 4, 9), (4, 6, 16), (5, 4, 9), (5, 6, 16)])
def test_the_center_of_n_k_has_the_closed_form_dimension(k, d, dim):
    assert _closed_form_dim(k, d) == dim
    assert len(center_up_to_degree(reduced_algebra(n_k(k), None), d)) == dim


@pytest.mark.parametrize("k", [3, 4, 5])
def test_each_corner_minor_lies_in_the_center(k):
    alg = reduced_algebra(n_k(k), None)
    center = center_up_to_degree(alg, k // 2)
    minors = [_corner_minor(alg, k, i) for i in range(1, k // 2 + 1)]
    assert str(minors[0]) == f"e1{k}"
    for minor in minors:
        assert solve_in_span(alg, center, alg.element(minor)) is not None, minor


@pytest.mark.parametrize("k, n", [(3, 1), (4, 2), (5, 4)])
def test_decompose_n_k_gives_the_closed_form_rank_and_certifies(k, n):
    assert n == (k * (k - 1) // 2 - k // 2) // 2
    res = dec.decompose(n_k(k), None, 6)
    assert res.n == n
    assert dec.verify_decomposition(res)["ok"]


@pytest.mark.parametrize("k", [3, 4])
def test_the_borel_b_k_fails_the_hypothesis_on_the_first_corner(k):
    # weight eps_1 - eps_k on the basis h_1..h_k, e_ij: 1 at h_1, -1 at h_k
    weight = ["0"] * (k * (k + 1) // 2)
    weight[0], weight[k - 1] = "1", "-1"
    with pytest.raises(HypothesisFailed) as info:
        dec.decompose(b_k(k), None, 6)
    assert (info.value.weight, info.value.element) == (tuple(weight), f"e1{k}")


def _problem(g):
    """A problem file holding g."""
    brackets = [
        {"i": i, "j": j, "coeffs": {str(c): str(v) for c, v in vec.items()}}
        for (i, j), vec in sorted(g.structure.items())
    ]
    return {"lie": {"dim": g.dim, "basis": g.names(), "brackets": brackets}}


@pytest.mark.parametrize("g, code", [(n_k(4), 0), (b_k(3), 1)])
def test_decompose_exit_codes_on_n_4_and_b_3(tmp_path, capsys, g, code):
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps(_problem(g)))
    assert cli.run(["decompose", str(problem), "--max-degree", "6", "--json"]) == code
    report = json.loads(capsys.readouterr().out)
    if code:
        assert report["error"] == "HypothesisFailed" and "element e13" in report["detail"]
    else:
        assert (report["e"], report["n"]) == ("e14", 2)
