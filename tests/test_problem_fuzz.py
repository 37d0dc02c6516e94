"""Fuzz of the problem file: ``cli.run`` on mutated problem dicts.

Each example takes a valid problem from tests/data, applies up to three
drawn mutations and runs one subcommand on the result.  A mutation sets a
field to a value of another JSON type or deletes it, writes a bracket entry
with out-of-range indices or coefficient keys, replaces the basis by
duplicate or odd names, writes ideal rules, sets an option, or puts a
rational value (a zero denominator, exponent notation, more bits than the
expression parser takes) into a coefficient, an ``omega`` or a ``weights``
entry.  ``options.max_degree`` is drawn from -2..3 first and
``bvwg-invariants`` runs with --dmax 3, so an example starts no large
search.  Whatever the file, ``run`` returns 0, 1, 2 or 3, its last stdout
line is a JSON object, and no exception escapes.
"""

import contextlib
import copy
import io
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liepoisson.cli import COMMANDS, run

DATA = os.path.join(os.path.dirname(__file__), "data")
BASE_NAMES = ["heisenberg", "heisenberg-z1", "eng4", "aff2", "family-n2"]
BASE_NAMES += ["bvwg-simple", "bvwg-nonsimple", "bvwg-symp"]


def _load(name):
    with open(os.path.join(DATA, f"{name}.json")) as fh:
        return json.load(fh)


BASES = {name: _load(name) for name in BASE_NAMES}

DELETE = object()
WRONG = [DELETE, None, True, 0, -1, 2.5, "x", "", [], ["x"], [[]], {"x": 1}]
PATHS = [
    ("name",),
    ("options",),
    ("lie",),
    ("lie", "basis"),
    ("lie", "dim"),
    ("lie", "brackets"),
    ("lie", "brackets", 0),
    ("lie", "brackets", 0, "i"),
    ("lie", "brackets", 0, "coeffs"),
    ("ideal",),
    ("ideal", 0),
    ("ideal", 0, "var"),
    ("ideal", 0, "value"),
    ("bvwg",),
    ("bvwg", "v_names"),
    ("bvwg", "omega"),
    ("bvwg", "omega", 0),
    ("bvwg", "g_names"),
    ("bvwg", "weights"),
]
RATIONALS = ["1/0", "-3/0", "0/0", "1e4000000", "1.5", "2/4", " -3 / 4 ", "0", "x", ""]
RATIONALS += [2, -1, 2**601, "1" + "0" * 200, str(2**600 - 1), "-" + str(2**600)]
NAMES = ["x", "y", "z", "e4", "a", "", " ", "1x", "x y", "x_1", "é"]
POLYS = ["1", "0", "x", "z^2", "x*y", "z - 1", "3/2", "1/0", "x +", "(", "", "q"]
INDICES = [-1, 0, 1, 2, 3, 4, 9, "0", 0.5, True, None]
KEYS = ["-1", "0", "1", "2", "3", "4", "9", "x", "", "01", " 2"]
OPTIONS = ["max_degree", "nilpotency_cap", "max_degre"]
OPTION_VALUES = list(range(-2, 4)) + [64, 2.5, "3", True, None]


def _set(data, path, value):
    """Set (or delete) data at path; nothing when the path does not exist."""
    *head, last = path
    for key in head:
        try:
            data = data[key]
        except (KeyError, IndexError, TypeError):
            return
    if isinstance(data, list) and not (isinstance(last, int) and last < len(data)):
        return
    if isinstance(data, (dict, list)):
        if value is not DELETE:
            data[last] = value
        elif last in data or isinstance(data, list):
            del data[last]


def _wrong_type():
    return st.tuples(st.sampled_from(PATHS), st.sampled_from(WRONG)).map(
        lambda pv: lambda data: _set(data, *pv)
    )


def _bracket():
    entry = st.fixed_dictionaries(
        {
            "i": st.sampled_from(INDICES),
            "j": st.sampled_from(INDICES),
            "coeffs": st.dictionaries(
                st.sampled_from(KEYS), st.sampled_from(RATIONALS), max_size=2
            ),
        }
    )
    return entry.map(lambda e: lambda data: _set(data, ("lie", "brackets", 0), e))


def _basis():
    names = st.lists(st.sampled_from(NAMES), max_size=5)
    return names.map(lambda b: lambda data: _set(data, ("lie", "basis"), b))


def _ideal():
    rule = st.fixed_dictionaries(
        {"var": st.sampled_from(NAMES), "value": st.sampled_from(POLYS)}
    )
    return st.lists(rule, max_size=2).map(lambda r: lambda data: _set(data, ("ideal",), r))


def _option():
    kv = st.tuples(st.sampled_from(OPTIONS), st.sampled_from(OPTION_VALUES))
    return kv.map(lambda kv: lambda data: _set(data, ("options", kv[0]), kv[1]))


def _rational():
    places = st.sampled_from(
        [
            ("lie", "brackets", 0, "coeffs", "2"),
            ("lie", "brackets", 0, "coeffs", "3"),
            ("bvwg", "omega", 0, 0),
            ("bvwg", "weights", 0, 0),
        ]
    )
    return st.tuples(places, st.sampled_from(RATIONALS)).map(
        lambda pv: lambda data: _set(data, *pv)
    )


MUTATION = st.one_of(_wrong_type(), _bracket(), _basis(), _ideal(), _option(), _rational())
FLAGS = {"bracket": ["-p", "x", "-q", "y"], "bvwg-invariants": ["--dmax", "3"]}


@pytest.fixture(scope="module")
def problem_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("problem-fuzz") / "problem.json")


@settings(max_examples=300, deadline=None)
@given(
    base=st.sampled_from(sorted(BASES)),
    degree=st.integers(-2, 3),
    mutations=st.lists(MUTATION, min_size=1, max_size=3),
    command=st.sampled_from(list(COMMANDS)),
)
def test_run_on_a_mutated_problem_ends_in_an_exit_code_and_a_json_object(
    problem_path, base, degree, mutations, command
):
    data = copy.deepcopy(BASES[base])
    data.setdefault("options", {})["max_degree"] = degree
    for mutate in mutations:
        mutate(data)
    with open(problem_path, "w") as fh:
        json.dump(data, fh)
    argv = [command, problem_path, "--json"] + FLAGS.get(command, [])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2, 3), data
    last = out.getvalue().splitlines()[-1]
    assert isinstance(json.loads(last), dict), data
