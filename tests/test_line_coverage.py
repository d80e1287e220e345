"""The statement finder and the line count of tools/line_coverage.py, on
made-up modules."""

import ast
import importlib.util
from pathlib import Path


def _load_tool():
    path = Path(__file__).resolve().parents[1] / "tools" / "line_coverage.py"
    spec = importlib.util.spec_from_file_location("line_coverage", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_tool = _load_tool()
statements, line_count = _tool.statements, _tool.line_count

SOURCE = '''"""A module docstring."""
import os


@staticmethod
def f(x,
      y):
    """A function docstring."""
    if x:
        return (y +
                1)
    return y
'''


def test_statements_skip_docstrings_and_span_their_headers():
    # a header's lines run from its first decorator to the line before its
    # body; any other statement spans all of its lines
    got = sorted((first, list(lines))
                 for first, lines in statements(ast.parse(SOURCE)))
    assert got == [(2, [2]), (6, [5, 6, 7]), (9, [9]), (10, [10, 11]),
                   (12, [12])]


def test_line_count_reads_each_module_as_wc_does(tmp_path):
    # every newline of every .py file, a last line without one not counted;
    # other files and subfolders are not modules of the package
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\ny = 2")
    (tmp_path / "notes.txt").write_text("\n" * 5)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "c.py").write_text("\n" * 7)
    assert line_count(tmp_path) == SOURCE.count("\n") + 1 == 13
