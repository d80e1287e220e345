"""The statement finder of tools/line_coverage.py, on a made-up module."""

import ast
import importlib.util
from pathlib import Path


def _load_tool():
    path = Path(__file__).resolve().parents[1] / "tools" / "line_coverage.py"
    spec = importlib.util.spec_from_file_location("line_coverage", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


statements = _load_tool().statements

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
