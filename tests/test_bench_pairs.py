"""The pair summary of tools/bench_pairs.py, on made-up readings."""

import importlib.util
from pathlib import Path


def _load_tool():
    path = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


summarize = _load_tool().summarize

PARENT = [30.0, 31.0, 32.0, 33.0, 34.0, 30.5, 31.5, 32.5, 33.5, 34.5]


def test_nine_wins_in_ten_pairs_hold_and_eight_do_not():
    # every win is 10 refs, far beyond the parent's interquartile range
    nine = [p - 10.0 for p in PARENT[:9]] + [PARENT[9] + 1.0]
    s = summarize(PARENT, nine, "lower", 0.25)
    assert (s["wins"], s["ties"], s["losses"]) == (9, 0, 1)
    assert s["gain"] and not s["worse"]
    eight = nine[:8] + [PARENT[8] + 1.0, PARENT[9] + 1.0]
    s = summarize(PARENT, eight, "lower", 0.25)
    assert (s["wins"], s["losses"]) == (8, 2)
    assert not s["gain"]


def test_a_tie_counts_for_neither_side():
    change = [p - 10.0 for p in PARENT[:9]] + [PARENT[9]]
    s = summarize(PARENT, change, "lower", 0.25)
    assert (s["wins"], s["ties"], s["losses"]) == (9, 1, 0)
    assert s["gain"]
    # higher is better: the same readings are nine losses
    s = summarize(PARENT, change, "higher", 0.25)
    assert (s["wins"], s["ties"], s["losses"]) == (0, 1, 9)
    assert not s["gain"] and s["worse"]


def test_a_median_shift_inside_the_parents_spread_does_not_hold():
    # every pair is a win, but by 0.5 refs against an interquartile range
    # of 2.25 refs
    s = summarize(PARENT, [p - 0.5 for p in PARENT], "lower", 0.25)
    assert s["wins"] == 10
    assert s["parent"][2] - s["parent"][0] == 2.25
    assert s["parent"][1] - s["change"][1] == 0.5
    assert not s["gain"]


def test_a_change_30_percent_worse_on_round_refs_is_flagged():
    s = summarize(PARENT, [1.3 * p for p in PARENT], "lower", 0.25)
    assert s["worse"] and s["losses"] == 10
    assert abs(s["ratio"] - 1.3) <= 1e-12
    # 20 % is inside the bound
    assert not summarize(PARENT, [1.2 * p for p in PARENT], "lower",
                         0.25)["worse"]
