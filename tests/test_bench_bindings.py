"""The benchmark's tracer finds every function it wraps.

``perfbench/tracer.py`` binds library functions by module and attribute
path; a rename in the library would otherwise only surface as a KeyError
in a traced benchmark run.
"""

import importlib
import importlib.util
import os
import sys

import pytest

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


def _bindings():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(module, path) for module, path, *_ in tracer.BINDINGS]


@pytest.mark.parametrize("module, path", _bindings())
def test_binding_resolves(module, path):
    importlib.import_module(f"liepoisson.{module}")
    owner = sys.modules[f"liepoisson.{module}"]
    for part in path.split("."):
        assert part in vars(owner), f"liepoisson.{module}: {path} is missing {part}"
        owner = vars(owner)[part]
    assert callable(owner)
