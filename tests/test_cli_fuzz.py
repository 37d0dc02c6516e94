"""Fuzz of the command line: ``cli.run`` on drawn argv over tests/data.

Subcommands, flags and values come from fixed lists, so no example can start
an unbounded search: integer flags lie in -2..3 (``--dmax`` up to 40),
exponents stay small except in three expressions the parser refuses as too
large, and ``-h``/``--help`` are left out (they exit through argparse by
design).  Whatever the argv, ``run`` returns 0, 1, 2 or 3, its
last stdout line is a JSON object, and no exception escapes.
"""

import contextlib
import io
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liepoisson.cli import COMMANDS, run

DATA = os.path.join(os.path.dirname(__file__), "data")
FILES = sorted(os.path.join(DATA, f) for f in os.listdir(DATA) if f.endswith(".json"))
FILES.append(os.path.join(DATA, "missing.json"))

DEEP = "(" * 300 + "x" + ")" * 300
POLYS = ["x", "z", "x*y", "e4", "x^3", "x^-1", "e4^-2", "1/2*x - y", "1/0", "x +"]
POLYS += ["((x)", "q", "", "2^3", "--x", DEEP]
POLYS += ["(x+y+z)^200", "*".join(["(x+y+z)^40"] * 4)]  # refused: too many terms
POLYS += [  # refused: coefficients too large
    "(12345678901234567890/98765432109876543211*x"
    " + 98765432109876543213/12345678901234567891*y)^299"
]
VALUES = {
    "-p": POLYS,
    "-q": POLYS,
    "--max-degree": [str(k) for k in range(-2, 4)] + ["two", "", "1.5"],
    "--trace": ["{file}", "{dir}"],  # a file, and a directory it cannot write
    "--dmax": [str(k) for k in range(-2, 41)] + ["x", ""],
}
MALFORMED = ["--", "-", "--frobnicate", "--max-degree=", "--dmax=", "--json=1"]
MALFORMED += ["-p", "-q", "--trace", "-x", "x", DEEP]


def _flag(names):
    return st.sampled_from(names).flatmap(
        lambda f: st.tuples(st.just(f), st.sampled_from(VALUES[f]))
    )


def _invocation(command):
    """The subcommand, a problem file and up to four flags: mostly its own,
    else --json, another subcommand's flag or a malformed token."""
    flags = [st.just(["--json"]), _flag(list(VALUES))]
    flags.append(st.tuples(st.sampled_from(MALFORMED)))
    if COMMANDS[command].flags:
        flags += [_flag(list(COMMANDS[command].flags))] * 3
    drawn = st.tuples(st.sampled_from(FILES), st.lists(st.one_of(*flags), max_size=4))
    return drawn.map(lambda t: [command, t[0]] + [tok for flag in t[1] for tok in flag])


INVOCATION = st.sampled_from(list(COMMANDS)).flatmap(_invocation)
# token soup: no subcommand, an unknown one, flags before it, empty argv
SOUP = st.lists(
    st.sampled_from(["frobnicate", "center", FILES[0]] + MALFORMED), max_size=4
)
ARGV = st.one_of(INVOCATION, INVOCATION, INVOCATION, SOUP)


@pytest.fixture(scope="module")
def trace_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz-trace")


@settings(max_examples=200, deadline=None)
@given(argv=ARGV)
def test_run_always_ends_in_an_exit_code_and_a_json_object(trace_dir, argv):
    places = {"{file}": str(trace_dir / "trace.json"), "{dir}": str(trace_dir)}
    argv = [places.get(tok, tok) for tok in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2, 3), argv
    last = out.getvalue().splitlines()[-1]
    assert isinstance(json.loads(last), dict), argv
