"""Lie layer: table validation, series, nilradical, flags, eigenvectors."""

from fractions import Fraction

import random

import pytest

from liepoisson.errors import EigenvalueNotRational, JacobiViolation, NilradicalUndecided
from liepoisson.lie import (
    Subspace,
    basis_vec,
    common_eigenvector,
    coordinate_subalgebra,
    is_nilpotent,
    is_solvable,
    jordan_holder,
    nilradical,
    series,
    span_subalgebra,
    verify_lie,
)

from conftest import abelian, aff2, eng4, heisenberg, random_solvable, random_unimodular

F = Fraction


def test_verify_valid_tables():
    assert heisenberg().dim == 3
    assert abelian(4).dim == 4


def test_verify_jacobi_violation_residual():
    # oracle: direct expansion of the Jacobiator of {x,y}=x, {y,z}=y, {z,x}=z
    # gives [x,[y,z]] + [y,[z,x]] + [z,[x,y]] = [x,y] + [y,z] + [z,x] = x+y+z
    with pytest.raises(JacobiViolation) as err:
        verify_lie("x y z", {(0, 1): {0: 1}, (1, 2): {1: 1}, (0, 2): {2: -1}})
    assert err.value.residual == (F(1), F(1), F(1))


@pytest.mark.parametrize(
    "basis, structure",
    [
        ("x y z", {(0, 1): {7: 1}}),  # output index past the basis
        ("x y z", {(0, 1): {3: 1}}),
        ("x y z", {(0, 1): {-1: 1}}),  # would index from the end
        ("x x", {}),  # duplicate basis names
        ("x y x", {(0, 1): {1: 1}}),
    ],
)
def test_verify_rejects_bad_indices_and_names(basis, structure):
    with pytest.raises(ValueError):
        verify_lie(basis, structure)


def test_series_flags():
    assert is_nilpotent(heisenberg()) and is_solvable(heisenberg())
    chain = series(heisenberg(), "lower_central")
    assert [s.dim for s in chain] == [3, 1, 0]
    assert is_solvable(aff2()) and not is_nilpotent(aff2())
    assert [s.dim for s in series(aff2(), "lower_central")][-1] == 1
    ab = abelian(2)
    assert is_solvable(ab) and is_nilpotent(ab)


def test_nilradical_examples():
    # AFF2: ad(ax+by) nilpotent iff a = 0
    n = nilradical(aff2())
    assert n.basis == ((F(0), F(1)),)
    # nilpotent algebra: the whole thing
    assert nilradical(heisenberg()).dim == 3
    # Heisenberg + AFF2 direct sum: <x_H, y_H, z_H, y_A>
    g = verify_lie("xh yh zh xa ya", {(0, 1): {2: 1}, (3, 4): {4: 1}})
    n2 = nilradical(g)
    assert n2.dim == 4
    assert n2.contains((1, 0, 0, 0, 0)) and n2.contains((0, 0, 0, 0, 1))
    assert not n2.contains((0, 0, 0, 1, 0))


def test_nilradical_undecided_on_sl2():
    # sl2 is not solvable: the heuristic candidate is not a nilpotent ideal
    sl2 = verify_lie("e f h", {(0, 1): {2: 1}, (0, 2): {0: -2}, (1, 2): {1: 2}})
    with pytest.raises(NilradicalUndecided):
        nilradical(sl2)


def test_jordan_holder_aff2():
    jh = jordan_holder(aff2())
    assert [s.dim for s in jh.chain] == [0, 1, 2]
    assert jh.chain[1].basis == ((F(0), F(1)),)  # <y> first
    assert jh.weights[0].values == (F(1), F(0))
    assert jh.weights[1].values == (F(0), F(0))


def test_jordan_holder_invariant():
    # [x, y_i] - weight_i(x) y_i must fall into the previous chain member
    for g in (heisenberg(), aff2(), eng4()):
        jh = jordan_holder(g)
        for i, (lam, y) in enumerate(zip(jh.weights, jh.generators)):
            for k in range(g.dim):
                x = basis_vec(k, g.dim)
                diff = [
                    a - lam(x) * b for a, b in zip(g.bracket_vec(x, y), y)
                ]
                assert jh.chain[i].contains(diff)


def test_jordan_holder_abelian():
    jh = jordan_holder(abelian(3))
    assert all(w.is_zero() for w in jh.weights)
    assert [s.dim for s in jh.chain] == [0, 1, 2, 3]


def test_jordan_holder_irrational():
    # rotation form [x,y] = z, [x,z] = -y has char poly t^2 + 1 on <y, z>
    rot = verify_lie("x y z", {(0, 1): {2: 1}, (0, 2): {1: -1}})
    assert is_solvable(rot)
    with pytest.raises(EigenvalueNotRational):
        jordan_holder(rot)


def test_common_eigenvector_examples():
    lam, vec = common_eigenvector(aff2())
    assert lam.values == (F(1), F(0)) and vec == (F(0), F(1))
    lam0, vec0 = common_eigenvector(abelian(2))
    assert lam0.is_zero()
    heis = heisenberg()
    center = Subspace(3, [(0, 0, 1)])
    lamz, vecz = common_eigenvector(heis, center)
    assert lamz.is_zero() and vecz == (F(0), F(0), F(1))


def test_common_eigenvector_none_vs_irrational():
    rot = verify_lie("x y z", {(0, 1): {2: 1}, (0, 2): {1: -1}})
    with pytest.raises(EigenvalueNotRational):
        common_eigenvector(rot, Subspace(3, [(0, 1, 0), (0, 0, 1)]))
    # a non-invariant search space with no eigenvector reports None
    assert common_eigenvector(aff2(), Subspace(2, [(1, 0)])) is None


def test_derived_series_bounded(rng):
    for _ in range(25):
        g = random_solvable(rng, rng.randint(1, 5))
        chain = series(g, "derived")
        assert chain[-1].dim == 0
        assert len(chain) <= g.dim + 1


def test_random_solvable_valid(rng):
    # the generator only produces tables that pass the Jacobi check
    for _ in range(25):
        g = random_solvable(rng, rng.randint(1, 5))
        assert is_solvable(g)


def test_coordinate_subalgebra():
    # [x, y] = z leaves span{x, y}
    assert coordinate_subalgebra(heisenberg(), [0, 1]) is None
    sub = coordinate_subalgebra(eng4(), [0, 2, 3])
    assert sub.names() == ["e1", "e3", "e4"]
    assert sub.structure == {(0, 1): {2: 1}}


def test_span_subalgebra_on_a_random_basis():
    g = eng4()
    mat = random_unimodular(random.Random(2), g.dim)
    vecs = [tuple(row[j] for row in mat) for j in range(g.dim)]
    # neither in echelon form nor coordinate-aligned
    assert Subspace(g.dim, vecs).basis != tuple(vecs)
    assert any(sum(c != 0 for c in v) > 1 for v in vecs)
    names = [f"c{i+1}" for i in range(g.dim)]
    sub = span_subalgebra(g, vecs, names)
    assert sub.names() == names
    for a in range(g.dim):
        for b in range(a + 1, g.dim):
            combo = [F(0)] * g.dim
            for k, c in sub.bracket_basis(a, b).items():
                combo = [x + c * y for x, y in zip(combo, vecs[k])]
            assert tuple(combo) == g.bracket_vec(vecs[a], vecs[b])
    assert sub.structure  # eng4 is not abelian in any basis
    verify_lie(sub.basis, sub.structure)
    # [x + z, y] = z leaves span{x + z, y}
    assert span_subalgebra(heisenberg(), [(1, 0, 1), (0, 1, 0)], ["a", "b"]) is None
