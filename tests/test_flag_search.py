"""The joint-eigenspace search against the descent it replaced.

The reference below is the former search: at every node it maps the
current eigenspace's basis through ``op - c`` densely and takes
``Subspace.kernel`` of the images, and each flag step reduces the columns of
every ad matrix modulo the chain member.  ``jordan_holder``,
``common_eigenvector`` and ``_joint_eigenspaces`` must give exactly its
results, errors included, on every fixture, the benchmark algebras and 600
random solvable algebras."""

import random
from fractions import Fraction

import pytest

from liepoisson import linalg
from liepoisson.errors import EigenvalueNotRational, NotSolvable
from liepoisson.lie import (
    Subspace,
    Weight,
    basis_vec,
    common_eigenvector,
    derived_subalgebra,
    is_solvable,
    jordan_holder,
    verify_lie,
)

from conftest import (
    aff2,
    eng4,
    family_n,
    heisenberg,
    lie_fixtures,
    random_basis_change,
    random_solvable,
)
from test_lie import _workload_algebras, joint_eigenspaces


def _reference_eigenspaces(ops, space, candidates):
    def descend(level, vals, cur):
        if cur.dim == 0:
            return
        if level == len(ops):
            yield vals, cur
            return
        for c in candidates(level):
            images = [
                [a - c * b for a, b in zip(linalg.mat_vec(ops[level], v), v)]
                for v in cur.basis
            ]
            yield from descend(level + 1, vals + (c,), cur.kernel(images))

    return descend(0, (), space)


def _roots(ops):
    return lambda level: linalg.rational_roots(linalg.charpoly(ops[level]))


def _reference_joint_eigenspaces(ops, dim, restrict=None):
    space = restrict if restrict is not None else Subspace.whole(dim)
    return list(_reference_eigenspaces(ops, space, _roots(ops)))


def _reference_common_eigenvector(g, restrict_to=None):
    space = restrict_to if restrict_to is not None else Subspace.whole(g.dim)
    if space.dim == 0:
        return None
    ops = [g.ad_matrix(basis_vec(i, g.dim)) for i in range(g.dim)]
    for vals, sub in _reference_eigenspaces(ops, space, _roots(ops)):
        return Weight(vals), sub.basis[0]
    invariant = all(
        space.contains(linalg.mat_vec(op, v)) for op in ops for v in space.basis
    )
    if invariant and is_solvable(g):
        raise EigenvalueNotRational("(no rational joint eigenvalue on an invariant subspace)")
    return None


def _reference_jordan_holder(g):
    m = g.dim
    current = Subspace(m, [])
    chain, weights, gens = [current], [], []
    ops_full = [g.ad_matrix(basis_vec(i, m)) for i in range(m)]
    remaining = [
        linalg.rational_root_multiplicities(linalg.charpoly(op)) for op in ops_full
    ]
    while current.dim < m:
        free = current.free_columns()
        qops = []
        for op in ops_full:
            cols = [current.reduce([row[f] for row in op]) for f in free]
            qops.append([[col[i] for col in cols] for i in free])

        def candidates(level):
            return [r for r, k in remaining[level].items() if k]

        found = next(
            _reference_eigenspaces(qops, Subspace.whole(len(free)), candidates), None
        )
        if found is None:
            if not is_solvable(g):
                raise NotSolvable()
            raise EigenvalueNotRational("(while building the ideal flag)")
        vals, sub = found
        for level, c in enumerate(vals):
            remaining[level][c] -= 1
        lift = [Fraction(0)] * m
        for c, f in zip(sub.basis[0], free):
            lift[f] = c
        gens.append(tuple(lift))
        weights.append(Weight(vals))
        current = current.sum_with(Subspace(m, [tuple(lift)]))
        chain.append(current)
    return tuple(chain), tuple(weights), tuple(gens)


def _outcome(fn, *args):
    """The result of fn(*args), or the type and message of what it raised."""
    try:
        return fn(*args)
    except (EigenvalueNotRational, NotSolvable) as err:
        return type(err), str(err)


def _flag(g):
    jh = jordan_holder(g)
    return jh.chain, jh.weights, jh.generators


def _random_subspace(rng, dim):
    vecs = [
        tuple(Fraction(rng.randint(-2, 2)) for _ in range(dim))
        for _ in range(rng.randint(1, dim))
    ]
    return Subspace(dim, vecs)


def assert_same_as_reference(g, rng):
    """Compare the three searches on g with the reference; return the flag
    outcome."""
    flag = _outcome(_flag, g)
    assert flag == _outcome(_reference_jordan_holder, g), g.names()
    ops = [g.ad_matrix(basis_vec(i, g.dim)) for i in range(g.dim)]
    restricts = [None, derived_subalgebra(g), _random_subspace(rng, g.dim)]
    for sub in restricts:
        assert _outcome(common_eigenvector, g, sub) == _outcome(
            _reference_common_eigenvector, g, sub
        ), (g.names(), sub)
        assert joint_eigenspaces(ops, g.dim, sub) == _reference_joint_eigenspaces(
            ops, g.dim, sub
        ), (g.names(), sub)
    return flag


def _fixture_algebras():
    algs = [prob.lie for prob in lie_fixtures()]
    assert len(algs) == 5
    return algs


def test_fixtures_and_workload_algebras_match_the_reference():
    algs = _fixture_algebras() + [heisenberg(), aff2(), eng4(), family_n(2)]
    for seed in (5, 11, 23):
        algs += _workload_algebras(seed)
    rng = random.Random(0)
    for g in algs:
        assert_same_as_reference(g, rng)
        assert_same_as_reference(random_basis_change(rng, g), rng)


@pytest.mark.parametrize("start", range(0, 300, 50))
def test_random_solvable_algebras_match_the_reference(start):
    raised = 0
    for seed in range(start, start + 50):
        rng = random.Random(seed)
        g = random_solvable(rng, rng.randint(2, 6))
        for h in (g, random_basis_change(rng, g)):
            raised += isinstance(assert_same_as_reference(h, rng)[0], type)
    # both the flag and its error paths are compared
    assert 0 < raised < 50


def test_the_error_paths_match_the_reference():
    rng = random.Random(1)
    sl2 = verify_lie("e h f", {(0, 1): {0: -2}, (0, 2): {1: 1}, (1, 2): {2: -2}})
    rot = verify_lie("x y z", {(0, 1): {2: 1}, (0, 2): {1: -1}})
    assert _outcome(_flag, sl2)[0] is NotSolvable
    assert _outcome(_flag, rot)[0] is EigenvalueNotRational
    plane = Subspace(3, [(0, 1, 0), (0, 0, 1)])
    assert _outcome(common_eigenvector, rot, plane)[0] is EigenvalueNotRational
    assert common_eigenvector(aff2(), Subspace(2, [(1, 0)])) is None
    for g in (sl2, rot):
        assert_same_as_reference(g, rng)
        assert_same_as_reference(random_basis_change(rng, g), rng)
    for g, sub in ((rot, plane), (aff2(), Subspace(2, [(1, 0)]))):
        assert _outcome(common_eigenvector, g, sub) == _outcome(
            _reference_common_eigenvector, g, sub
        )


def test_jordan_holder_takes_no_dense_kernel(monkeypatch):
    calls = []
    kernel = Subspace.kernel

    def counted(self, images):
        calls.append(self.dim)
        return kernel(self, images)

    monkeypatch.setattr(Subspace, "kernel", counted)
    for g in _fixture_algebras() + _workload_algebras(11) + [eng4(), family_n(2)]:
        jordan_holder(g)
    assert calls == []
