"""The normal form of a localized element has one home: ``poisson.py``.

``PoissonAlgebra._cancel`` and ``_apply_row`` are used only inside
``poisson.py``; ``_sum`` only there and in ``spaces.combination``, which
every other sum of elements goes through.  The rewrite over a common
denominator, ``_lift``, and the choice of that denominator,
``_common_den``, are used only there and in the functions that write slice
rows or set their caps."""

import ast
import os

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "liepoisson")

# private method -> the (module, function) pairs allowed to use it; None
# allows the whole module
HOMES = {
    "_cancel": {("poisson.py", None)},
    "_apply_row": {("poisson.py", None)},
    "_sum": {("poisson.py", None), ("spaces.py", "combination")},
    "_lift": {("poisson.py", None), ("spaces.py", "common_denominator_rows")},
    "_common_den": {
        ("poisson.py", None),
        ("spaces.py", "common_denominator_rows"),
        ("spaces.py", "independent_subset"),
        ("weyl.py", "tensor_presentation_check"),
    },
}


def _uses(tree):
    """(attribute name, enclosing top-level function or class) for every
    attribute access in the tree."""
    for top in tree.body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute):
                yield node.attr, owner


def stray_uses(sources):
    """The uses of the ``HOMES`` methods outside their homes, as
    "module: owner uses name" strings; ``sources`` maps module to text."""
    out = []
    for module, source in sorted(sources.items()):
        for name, owner in _uses(ast.parse(source)):
            homes = HOMES.get(name)
            if homes is None or (module, None) in homes or (module, owner) in homes:
                continue
            out.append(f"{module}: {owner} uses {name}")
    return out


def test_the_check_finds_a_stray_use():
    sources = {
        "poisson.py": "def f(alg):\n    return alg._cancel(1, ()), alg._apply_row\n",
        "spaces.py": (
            "def combination(alg, terms):\n    return alg._sum(terms)\n"
            "def other(alg, terms):\n    return alg._sum(terms)\n"
            "def common_denominator_rows(alg, n, d, c):\n    return alg._lift(n, d, c)\n"
            "def solve_in_span(alg, n, d, c):\n    return alg._lift(n, d, c)\n"
        ),
        "weyl.py": (
            "class W:\n    def f(self, alg):\n        return alg._cancel(1, ())\n"
            "def tensor_presentation_check(alg, ds):\n    return alg._common_den(ds)\n"
            "def chi_inverse(alg, ds):\n    return alg._common_den(ds)\n"
        ),
        "decompose.py": "def f(alg, ds):\n    return alg._common_den(ds)\n",
    }
    assert stray_uses(sources) == [
        "decompose.py: f uses _common_den",
        "spaces.py: other uses _sum",
        "spaces.py: solve_in_span uses _lift",
        "weyl.py: W uses _cancel",
        "weyl.py: chi_inverse uses _common_den",
    ]


def test_normal_form_is_built_only_in_poisson():
    sources = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as fh:
                sources[name] = fh.read()
    assert "poisson.py" in sources and "spaces.py" in sources
    assert stray_uses(sources) == []
