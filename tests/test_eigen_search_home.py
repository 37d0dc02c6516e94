"""The joint-eigenspace search has one home: ``lie._joint_eigenspaces``.
``jordan_holder`` and ``common_eigenvector`` each reach eigenspaces through
one call to it and solve no kernel of their own, no other function calls
it, and ``lie`` takes a dense ``Subspace.kernel`` only in
``Subspace.intersect``, so no second descent can grow next to the
stacked-equation search."""

import ast
import os

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "liepoisson")

SEARCH = "_joint_eigenspaces"
CALLERS = {"jordan_holder", "common_eigenvector"}
# what a caller would use to solve an eigenspace itself
KERNELS = {"kernel", "intersect", "nullspace", "echelon_of", "Echelon"}


def _functions(tree):
    """(qualified name, node) of each top-level function and method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item


def _calls(fn):
    """(name, is an attribute call) of every call in fn, nested ones too."""
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name):
                yield node.func.id, False
            elif isinstance(node.func, ast.Attribute):
                yield node.func.attr, True


def stray_searches(sources):
    """The breaches of the rules above, as "module function ..." strings;
    ``sources`` maps module to text."""
    out = []
    for module, source in sorted(sources.items()):
        for qual, fn in _functions(ast.parse(source)):
            calls = list(_calls(fn))
            names = [name for name, _ in calls]
            if module == "lie.py" and qual in CALLERS:
                if names.count(SEARCH) != 1:
                    out.append(f"{module} {qual} calls {SEARCH} {names.count(SEARCH)} times")
                out += [f"{module} {qual} calls {k}" for k in sorted(KERNELS & set(names))]
            elif SEARCH in names:
                out.append(f"{module} {qual} calls {SEARCH}")
            if module == "lie.py" and qual != "Subspace.intersect" and ("kernel", True) in calls:
                out.append(f"{module} {qual} calls .kernel(")
    return out


def test_the_check_finds_a_stray_search():
    sources = {
        "lie.py": (
            "class Subspace:\n"
            "    def kernel(self, images):\n        return self\n"
            "    def intersect(self, other):\n        return self.kernel([])\n"
            "    def equations(self):\n        return self.kernel([])\n"
            "def _joint_eigenspaces(rows, dim, eqs, cands):\n    return iter(())\n"
            "def common_eigenvector(g, restrict_to=None):\n"
            "    return restrict_to.kernel([])\n"
            "def jordan_holder(g):\n"
            "    def step():\n        return linalg.nullspace([], 1)\n"
            "    return next(_joint_eigenspaces([], 0, (), None)), step()\n"
        ),
        "decompose.py": (
            "from .lie import _joint_eigenspaces\n\n"
            "def f(ops):\n    return list(_joint_eigenspaces(ops, 2, (), None))\n"
        ),
        "bvwg.py": "def f(space):\n    return space.kernel([])\n",
    }
    assert stray_searches(sources) == [
        "decompose.py f calls _joint_eigenspaces",
        "lie.py Subspace.equations calls .kernel(",
        "lie.py common_eigenvector calls _joint_eigenspaces 0 times",
        "lie.py common_eigenvector calls kernel",
        "lie.py common_eigenvector calls .kernel(",
        "lie.py jordan_holder calls nullspace",
    ]


def test_eigenspaces_are_searched_in_one_place():
    sources = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as fh:
                sources[name] = fh.read()
    assert {"lie.py", "decompose.py", "bvwg.py"} <= set(sources)
    tree = ast.parse(sources["lie.py"])
    assert CALLERS | {SEARCH, "Subspace.intersect"} <= {q for q, _ in _functions(tree)}
    assert stray_searches(sources) == []
