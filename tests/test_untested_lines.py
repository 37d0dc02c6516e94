"""The source check of ``tools/untested_lines.py``: a file under the
package that changes while the suite runs is named (no pytest run is
started here)."""

import importlib.util
import os

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def _untested_lines():
    path = os.path.join(ROOT, "tools", "untested_lines.py")
    spec = importlib.util.spec_from_file_location("untested_lines", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_source_edited_added_or_removed_during_the_run_is_named(tmp_path):
    tool = _untested_lines()
    (tmp_path / "a.py").write_text("x = 1\n")
    (tmp_path / "b.py").write_text("y = 2\n")
    (tmp_path / "notes.txt").write_text("not a source\n")
    before = tool.snapshot(str(tmp_path))
    assert before == {str(tmp_path / "a.py"): "x = 1\n", str(tmp_path / "b.py"): "y = 2\n"}
    (tmp_path / "notes.txt").write_text("edited\n")
    assert tool.changed_files(before, str(tmp_path)) == []
    (tmp_path / "b.py").write_text("\ny = 2\n")
    assert tool.changed_files(before, str(tmp_path)) == [str(tmp_path / "b.py")]
    (tmp_path / "a.py").unlink()
    (tmp_path / "c.py").write_text("z = 3\n")
    got = tool.changed_files(before, str(tmp_path))
    assert got == [str(tmp_path / name) for name in ("a.py", "b.py", "c.py")]
