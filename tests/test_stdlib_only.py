"""The runtime imports nothing outside the standard library (README and
``dependencies = []`` in pyproject.toml promise a stdlib-only package)."""

import ast
import os
import sys

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "liepoisson")


def _imports(path):
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield 0, alias.name
        elif isinstance(node, ast.ImportFrom):
            yield node.level, node.module or ""


def test_runtime_imports_are_stdlib_or_relative():
    files = sorted(f for f in os.listdir(SRC) if f.endswith(".py"))
    assert "cli.py" in files
    outside = []
    for name in files:
        for level, module in _imports(os.path.join(SRC, name)):
            top = module.split(".")[0]
            if level or top == "__future__" or top in sys.stdlib_module_names:
                continue
            outside.append(f"{name}: {module}")
    assert outside == []
