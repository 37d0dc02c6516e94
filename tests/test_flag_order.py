"""The flag order carries the ideal: ``decompose`` reorders a coordinate
flag so that each rule's image is placed before the variable it eliminates,
whenever the prefixes can stay ideals.  The outcome then does not depend on
the order in which the basis is listed."""

import importlib
import random

import pytest

from liepoisson.errors import LiePoissonError
from liepoisson.lie import verify_lie
from liepoisson.poisson import ideal_from_pairs

dec = importlib.import_module("liepoisson.decompose")

HEIS_A = ("x y z a", {(0, 1): {2: 1}})
HEIS_AT = ("x y z a t", {(0, 1): {2: 1}, (0, 4): {0: -1}, (1, 4): {1: 1}})
ENG4_A = ("e1 e2 e3 e4 a", {(0, 1): {2: 1}, (0, 2): {3: 1}})

CASES = [
    (HEIS_A, "z", "a"),
    (HEIS_A, "z", "a^2"),
    (HEIS_A, "z", "a^2 + 1"),
    (HEIS_AT, "z", "a"),
    (HEIS_AT, "z", "a + 1"),
    (HEIS_AT, "z", "a^2"),
    (ENG4_A, "e4", "a"),
    (ENG4_A, "e4", "a^2 + 1"),
]


def _permuted(spec, structure, perm):
    """The Lie algebra of (spec, structure) with its basis listed in the
    order perm (new position k holds old basis vector perm[k])."""
    names = spec.split()
    pos = {old: new for new, old in enumerate(perm)}
    out = {}
    for (a, b), vec in structure.items():
        sign = 1 if pos[a] < pos[b] else -1
        key = (min(pos[a], pos[b]), max(pos[a], pos[b]))
        out[key] = {pos[k]: sign * c for k, c in vec.items()}
    return verify_lie(" ".join(names[k] for k in perm), out)


def _outcome(g, var, image):
    try:
        res = dec.decompose(g, ideal_from_pairs(g.basis, [(var, image)]), 4)
    except LiePoissonError as err:
        return type(err).__name__
    return res.n, str(res.e)


@pytest.mark.parametrize(
    "algebra, var, image", CASES, ids=[f"{a[0]}: {v} = {i}" for a, v, i in CASES]
)
def test_decompose_does_not_depend_on_the_basis_order(algebra, var, image):
    spec, structure = algebra
    rng = random.Random(f"{spec} {var} {image}")
    perms = [list(range(len(spec.split())))]
    for _ in range(39):
        perm = perms[0][:]
        rng.shuffle(perm)
        perms.append(perm)
    outcomes = {_outcome(_permuted(spec, structure, p), var, image) for p in perms}
    assert len(outcomes) == 1, outcomes
    assert not isinstance(outcomes.pop(), str)  # and every one decomposes
