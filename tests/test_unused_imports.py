"""Every name a module of the package imports is used in that module
(``__init__`` is exempt: its imports are the public re-exports), and every
private helper the package defines is used somewhere in it."""

import ast
import os

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "liepoisson")


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for a in args.posonlyargs + args.args + args.kwonlyargs:
                yield a.annotation
            yield args.vararg and args.vararg.annotation
            yield args.kwarg and args.kwarg.annotation
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree):
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # quoted annotations such as "Subspace" name their types in a string
    for ann in filter(None, _annotations(tree)):
        for n in ast.walk(ann):
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                expr = ast.parse(n.value, mode="eval")
                used |= {m.id for m in ast.walk(expr) if isinstance(m, ast.Name)}
    return used


def unused_imports(source, filename="<source>"):
    tree = ast.parse(source, filename)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.append(alias.asname or alias.name.split(".")[0])
    used = _used_names(tree)
    return [name for name in imported if name not in used]


def test_the_check_finds_an_unused_name():
    src = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from fractions import Fraction\n"
        "from .lie import Subspace, basis_vec\n"
        "def f(x: 'Subspace') -> Fraction:\n"
        "    return os.path.sep\n"
    )
    assert unused_imports(src) == ["basis_vec"]


def test_no_module_imports_a_name_it_does_not_use():
    files = sorted(f for f in os.listdir(SRC) if f.endswith(".py"))
    assert "lie.py" in files
    unused = []
    for name in files:
        if name == "__init__.py":
            continue
        path = os.path.join(SRC, name)
        with open(path) as fh:
            unused += [f"{name}: {n}" for n in unused_imports(fh.read(), path)]
    assert unused == []


def _is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def dead_helpers(sources):
    """Private functions and methods (``_name``, not dunder) defined in the
    sources and referenced in none of them, as a name, an attribute or an
    imported name."""
    defined, referenced = [], set()
    for source in sources:
        tree = ast.parse(source)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _is_private(node.name):
                    defined.append(node.name)
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    return sorted(name for name in defined if name not in referenced)


def test_the_check_finds_a_dead_helper():
    module = (
        "def _used(): return 1\n"
        "def _dead(): return _used()\n"
        "class C:\n"
        "    def __init__(self): self._method()\n"
        "    def _method(self): pass\n"
        "    def _orphan(self): pass\n"
    )
    other = "from .m import _imported\ndef _imported(): pass\n"
    assert dead_helpers([module, other]) == ["_dead", "_orphan"]


def test_every_private_helper_is_used():
    sources = []
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as fh:
                sources.append(fh.read())
    assert len(sources) > 10
    assert dead_helpers(sources) == []
