"""Print every statement of ``src/liepoisson`` that the test suite never runs.

Usage, from anywhere (extra arguments go to pytest; the whole suite takes
about five minutes traced)::

    python tools/untested_lines.py
    python tools/untested_lines.py tests/test_weyl.py -k chi

It runs pytest in this process under ``sys.settrace``, records the lines
executed in files under ``src/liepoisson``, and then prints one
``path:line: source`` entry for each statement none of whose lines ran.
The header of a compound statement (``if``, ``for``, ``def`` ...) counts as
run when any line from its first decorator to the line before its body ran;
docstrings, ``try`` headers and statements under a ``pragma: no cover``
comment are not listed.  It uses the standard library only, besides the
pytest it runs, and is not part of the test suite.

The hypothesis tests run with a fixed seed (``--hypothesis-seed=0``), so
two runs on the same code list the same statements.  The sources are read
before pytest starts and the recorded lines are mapped onto that text; when
a file under ``src/liepoisson`` is edited, added or removed during the run,
the tool names it and exits 2 instead of listing shifted lines.

Only this process is traced.  Tests that start the package in a subprocess
(the ``python -m liepoisson`` run in ``tests/test_cli.py`` and the
benchmark runs in ``tests/test_perfbench_workloads.py``) count for nothing,
so a line that only they reach is listed as never run.
"""

from __future__ import annotations

import ast
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "liepoisson")


def _statement_spans(source: str):
    """(first line, lines that count as running it) for each statement
    worth listing, except-clauses included."""
    lines = source.splitlines()
    out = []

    def visit(body):
        for node in body:
            if "pragma: no cover" in lines[node.lineno - 1]:
                continue
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
                continue  # a docstring, or a bare constant: no line event
            blocks = [getattr(node, f, None) for f in ("body", "orelse", "finalbody")]
            blocks = [b for b in blocks if b] + [case.body for case in getattr(node, "cases", ())]
            if not isinstance(node, (ast.Try, ast.Global, ast.Nonlocal)):
                first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
                last = blocks[0][0].lineno - 1 if blocks else node.end_lineno
                out.append((node.lineno, range(first, max(first, last) + 1)))
            for handler in getattr(node, "handlers", ()):
                out.append((handler.lineno, range(handler.lineno, handler.body[0].lineno)))
                visit(handler.body)
            for block in blocks:
                visit(block)

    visit(ast.parse(source).body)
    return out


def snapshot(src: str) -> dict[str, str]:
    """The text of each ``.py`` file in ``src``, by path."""
    out = {}
    for name in sorted(f for f in os.listdir(src) if f.endswith(".py")):
        path = os.path.join(src, name)
        with open(path) as fh:
            out[path] = fh.read()
    return out


def changed_files(before: dict[str, str], src: str) -> list[str]:
    """The paths whose text now differs from the ``snapshot`` ``before``:
    edited, added or removed files."""
    after = snapshot(src)
    return sorted(p for p in before.keys() | after.keys() if before.get(p) != after.get(p))


def main(argv: list[str]) -> int:
    import pytest

    sys.path.insert(0, os.path.join(ROOT, "src"))
    ran: dict[str, set[int]] = {}
    todo: dict[object, set[int]] = {}  # code object -> its lines not yet seen
    prefix = SRC + os.sep

    def on_call(frame, event, arg):
        code = frame.f_code
        left = todo.get(code)
        if left is None:
            left = set()
            if code.co_filename.startswith(prefix):
                left = {line for _, _, line in code.co_lines() if line is not None}
                left.discard(code.co_firstlineno)  # no line event for a def line
            todo[code] = left
        if not left:
            return None
        seen = ran.setdefault(code.co_filename, set())

        def on_line(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
                left.discard(frame.f_lineno)
            return on_line

        return on_line

    sources = snapshot(SRC)
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = int(pytest.main(["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", *argv]))
    finally:
        sys.settrace(None)
        threading.settrace(None)

    changed = changed_files(sources, SRC)
    for path in changed:
        print(f"{os.path.relpath(path, ROOT)}: changed during the run", file=sys.stderr)
    if changed:
        return 2
    missing = 0
    for path, source in sources.items():
        seen = ran.get(path, set())
        lines = source.splitlines()
        for lineno, span in sorted(_statement_spans(source)):
            if seen.isdisjoint(span):
                missing += 1
                rel = os.path.relpath(path, ROOT)
                print(f"{rel}:{lineno}: {lines[lineno - 1].strip()}")
    print(f"{missing} statements never ran (pytest exit code {status})")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
