"""The rows of the generators' action are built in two ways, both named
only in ``spaces`` and ``invariants``.  ``spaces.slice_rows`` shifts exponents on
any span of polynomials in normal form: it builds the rows of every kernel
``decompose`` solves (the slice table, a center memo miss and the central
choice, through ``invariants.centralizer``) and the centrality check of
``verify_decomposition`` (``invariants.commutes_with_generators``).  ``spaces.operator_rows``
brackets, with the operators of ``invariants._generator_actions``, and only
``weight_spaces`` calls it, because the weight-search benchmark expects
brackets and partials from it, and that workload has no other source of
either.  Every other module reaches a kernel through
``invariants.centralizer``, ``center_up_to_degree`` or ``weight_spaces``, so
``decompose`` cannot grow a bracketed row path, or a per-level shift path
next to the one slice table it shares between flag levels.  The center memo
``PoissonAlgebra.centers`` is named only where it is declared and shared
(``poisson``) and where it is filled (``invariants``), so no other module
can store a center that was not solved there."""

import ast
import os

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "liepoisson")

# function or attribute -> the modules allowed to name it
HOMES = {
    "operator_rows": {"spaces.py", "invariants.py"},
    "slice_rows": {"spaces.py", "invariants.py"},
    "_generator_actions": {"invariants.py"},
    "centers": {"poisson.py", "invariants.py"},
}


def _names(tree):
    """Every identifier the tree refers to: names, attributes, and the
    names it imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.name.rsplit(".", 1)[-1]


def stray_references(sources):
    """The references to the ``HOMES`` functions outside their homes, as
    "module names function" strings; ``sources`` maps module to text."""
    out = []
    for module, source in sorted(sources.items()):
        for name in sorted(set(_names(ast.parse(source)))):
            homes = HOMES.get(name)
            if homes is not None and module not in homes:
                out.append(f"{module} names {name}")
    return out


def test_the_check_finds_a_stray_reference():
    sources = {
        "spaces.py": "def operator_rows(alg, basis, ops):\n    return []\n",
        "invariants.py": "from .spaces import operator_rows\n",
        "decompose.py": "from .spaces import operator_rows as rows\n",
        "weyl.py": (
            "from . import spaces\n\n"
            "def f(a, b):\n    return spaces.operator_rows(a, b, [])\n"
        ),
        "cli.py": "import liepoisson.spaces.operator_rows\n",
        "lie.py": "def f(operator_rows):\n    return operator_rows\n",
        "bvwg.py": "def f(alg):\n    return alg.centers\n",
        "poisson.py": "def localize(alg, out):\n    out.centers = alg.centers\n",
    }
    sources["invariants.py"] += "def f(alg, d):\n    alg.centers[d] = ()\n"
    sources["decompose.py"] += "def g(alg, d):\n    alg.centers.setdefault(d, ())\n"
    assert stray_references(sources) == [
        "bvwg.py names centers",
        "cli.py names operator_rows",
        "decompose.py names centers",
        "decompose.py names operator_rows",
        "lie.py names operator_rows",
        "weyl.py names operator_rows",
    ]


def test_operator_rows_is_named_only_in_its_homes():
    sources = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as fh:
                sources[name] = fh.read()
    assert {"spaces.py", "invariants.py", "decompose.py", "poisson.py"} <= set(sources)
    assert stray_references(sources) == []


def test_only_weight_spaces_brackets_its_rows():
    with open(os.path.join(SRC, "invariants.py")) as fh:
        tree = ast.parse(fh.read())
    callers = {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and {"operator_rows", "_generator_actions"} & set(_names(node))
    }
    assert callers == {"weight_spaces"}
