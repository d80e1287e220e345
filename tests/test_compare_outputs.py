"""The field comparison of tools/compare_outputs.py, on made-up outputs."""

import importlib.util
import math
from pathlib import Path


def _load_tool():
    path = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"
    spec = importlib.util.spec_from_file_location("compare_outputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_tool = _load_tool()
json_changes, csv_changes = _tool.json_changes, _tool.csv_changes


def _changes(a, b):
    changes = {}
    json_changes(a, b, "", changes)
    return changes


def test_the_largest_finite_change_of_a_path_is_kept():
    assert _changes([1.0, 2.0, 3.0], [1.5, 2.0, 3.25]) == {"[]": 0.5}
    assert _changes({"x": [1, 2]}, {"x": [1, 2]}) == {}


def test_a_nan_change_is_not_overwritten_by_a_later_finite_one():
    got = _changes([math.nan, 1.0], [1.0, 1.0 + 1e-12])
    assert math.isnan(got["[]"])
    got = _changes([1.0, math.nan, 2.0], [1.0, math.nan, math.inf])
    assert got == {"[]": math.inf}


def test_a_changed_path_stays_changed():
    # a non-numeric change outranks any number found on the path later
    a = [{"v": "x"}, {"v": 1.0}, {"v": math.nan}]
    b = [{"v": "y"}, {"v": 2.0}, {"v": 3.0}]
    assert _changes(a, b) == {"[].v": "changed"}
    assert _changes([1.0, [1]], [2.0, [1, 2]]) == {"[]": "changed"}


def test_int_against_float_and_key_order_are_changes():
    # equal as numbers and as dicts, but not the same bytes
    assert _changes({"index": 0}, {"index": 0.0}) == {"index": "changed"}
    assert _changes([1.0, 2], [1.0, 2.0]) == {"[]": "changed"}
    assert _changes({"a": 1.0, "b": 2.0}, {"b": 2.0, "a": 1.0}) == {
        "": "changed"}
    assert _changes({"x": {"a": 1.0, "b": 2}}, {"x": {"b": 2, "a": 1.5}}) == {
        "x": "changed", "x.a": 0.5}
    # CSV cells read as floats, however they are printed
    assert csv_changes("key,value\nn,1\n", "key,value\nn,1.0\n") == {}
