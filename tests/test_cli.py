"""End-to-end checks of the command-line interface via its main() entry."""

import functools
import json
import math
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

import helixkit
from helixkit import cli, helix, hypersurf
from helixkit.cli import _csv_text, _g, _rounded, _rows_json_text, main
from helixkit.curve import ReparametrizedCurve
from helixkit.errors import HelixkitError
from conftest import (CONE_SPEC, CYLINDER_SPEC, KINK_SPEC, SPHERE_SPEC, WAVE,
                      WAVE_TRIMMED, cone_tangent)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")

    def dump(name, payload):
        path = root / name
        path.write_text(json.dumps(payload))
        return str(path)

    wave = dump("wave.json", {
        "dim": 3, "parameter": "s", "components": WAVE,
        "domain": list(WAVE_TRIMMED),
    })
    # the same slant helix at speed 2, so every job reparametrizes it
    wave2 = dump("wave2.json", {
        "dim": 3, "parameter": "s",
        "components": [re.sub(r"\bs\b", "(2*s)", c) for c in WAVE],
        "domain": [x / 2 for x in WAVE_TRIMMED],
    })
    # the same wave padded with zeros: in the hyperplane x_4 = 0 of E^4,
    # and spanning three dimensions of E^5 and E^7
    padded = {f"wave{n}": dump(f"wave{n}.json", {
        "dim": n, "parameter": "s", "components": WAVE + ["0"] * (n - 3),
        "domain": list(WAVE_TRIMMED),
    }) for n in (4, 5, 7)}
    helix34 = dump("helix34.json", {
        "dim": 3, "parameter": "s",
        "components": ["3*cos(s/5)", "3*sin(s/5)", "4*s/5"],
        "domain": [0.0, 20 * math.pi],
    })
    line = dump("line.json", {
        "dim": 3, "parameter": "s", "components": ["0.6*s", "0.8*s", "0"],
        "domain": [0.0, 2.0],
    })
    circle2d = dump("circle2d.json", {
        "dim": 2, "parameter": "s",
        "components": ["2*cos(s/2)", "2*sin(s/2)"], "domain": [0.0, 8.0],
    })
    broken = str(root / "broken.json")
    with open(broken, "w") as fh:
        fh.write('{"dim": 3, "components": [')
    cylinder_scenario = dump("cylinder.json", {
        "surface": CYLINDER_SPEC,
        "geodesics": [
            {"start": [0.0, 0.0],
             "tangent": [0.0, math.cos(a), math.sin(a)],
             "length": 1.2, "steps": 400}
            for a in (0.4, 0.8)
        ],
    })
    sphere_scenario = dump("sphere.json", {
        "surface": SPHERE_SPEC,
        "geodesics": [{"start": [math.pi / 2.0, 0.0],
                       "tangent": [0.0, 1.0, 0.0],
                       "length": 1.2, "steps": 300}],
    })
    return {
        "root": root, "wave": wave, "wave2": wave2, **padded,
        "helix34": helix34,
        "line": line,
        "circle2d": circle2d, "broken": broken,
        "cylinder": cylinder_scenario, "sphere": sphere_scenario,
    }


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -------------------------------------------------------------- analyze

def test_analyze_wave_reports_slant_helix(files, capsys):
    code, out, _ = run(capsys, "analyze", files["wave"])
    assert code == 0
    report = json.loads(out)
    assert report["classification"] == "slant-helix"
    assert abs(report["cos_theta"] - 0.6) <= 1e-4
    assert abs(report["axis"][2]) > 0.999999


def test_analyze_emits_hint_statistics(files, capsys):
    code, out, _ = run(capsys, "analyze", files["wave"],
                       "--axis-hint", "0,0,1")
    assert code == 0
    hint = json.loads(out)["hint"]
    assert abs(hint["v2_mean"] - 0.6) <= 1e-4
    assert hint["v2_std"] <= 1e-4


def test_analyze_csv_layout(files, capsys):
    code, out, _ = run(capsys, "analyze", files["wave"], "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "key,value"
    table = dict(line.split(",", 1) for line in lines[1:])
    assert table["classification"] == "slant-helix"
    assert abs(float(table["cos_theta"]) - 0.6) <= 1e-4


def test_analyze_csv_leaves_missing_values_empty(tmp_path, capsys):
    # every curvature of the circle past the first vanishes, so both
    # recursions are masked and the values they would give print as empty;
    # they read one mask and refuse together when it leaves out more than
    # half the grid, so the slant error alone says why
    spec = {"dim": 3, "parameter": "s",
            "components": ["2*cos(s/2)", "2*sin(s/2)", "0"],
            "domain": [0.0, 4 * math.pi]}
    circle = tmp_path / "circle.json"
    circle.write_text(json.dumps(spec))
    code, out, err = run(capsys, "analyze", str(circle), "--format", "csv")
    assert code == 2
    assert out == ("key,value\nclassification,neither\ncos_theta,\nC,\n"
                   "constancy_residual,\naxis_residual,\nmasked_fraction,1\n"
                   "planar,true\n")
    assert err == ("degenerate or unreliable input: slant recursion: 100% of "
                   "samples masked by near-zero curvatures\n")
    report = helix.classify(helixkit.load_curve(spec), margin=0.02)
    assert report.masked_fraction > 0.5 and report.general.error is not None
    assert err == f"degenerate or unreliable input: {report.slant.error}\n"


def test_analyze_help_names_the_grid_default_and_minimum(capsys):
    with pytest.raises(SystemExit) as info:
        main(["analyze", "--help"])
    assert info.value.code == 0
    assert "(default 512, minimum 16)" in " ".join(
        capsys.readouterr().out.split())


def test_analyze_prints_roundoff_in_the_axis_as_zero(files, capsys):
    # the wave's first axis component is roundoff (3.0e-16 at the default
    # margin); the second (1.8e-13) lies above the 1e-15 cut of
    # helix._plain, so it prints as itself; the CSV cells are the JSON axis,
    # printed by the same rule
    code, out, _ = run(capsys, "analyze", files["wave"])
    assert code == 0
    axis = json.loads(out)["axis"]
    assert axis[0] == 0.0 and math.copysign(1.0, axis[0]) == 1.0
    assert abs(axis[1]) > 1e-15
    code, out, _ = run(capsys, "analyze", files["wave"], "--format", "csv")
    assert code == 0
    table = dict(line.split(",", 1) for line in out.splitlines()[1:])
    assert [table[f"axis_{i}"] for i in (1, 2, 3)] == list(map(_g, axis))
    assert table["axis_1"] == "0"


def test_analyze_to_a_missing_directory_names_the_os_error(
        files, capsys, tmp_path):
    target = tmp_path / "missing" / "wave.json"
    code, out, err = run(capsys, "analyze", files["wave"],
                         "--output", str(target))
    assert code == 1
    assert out == ""
    assert err.startswith("error: [Errno 2] ") and err.count("\n") == 1


def test_a_numpy_scalar_rounds_as_its_float():
    assert _rounded(np.float32(0.1)) == 0.10000000149


def test_analyze_line_is_degenerate(files, capsys):
    code, _, err = run(capsys, "analyze", files["line"])
    assert code == 2
    assert "degenerate" in err


def test_analyze_bad_inputs_exit_1(files, capsys):
    assert run(capsys, "analyze", files["broken"])[0] == 1
    assert run(capsys, "analyze", str(files["root"] / "nope.json"))[0] == 1


def test_any_library_error_exits_2(files, capsys, monkeypatch):
    # every HelixkitError outside the format errors is exit 2, one line
    def fail(args):
        raise HelixkitError("no verdict")

    monkeypatch.setattr(cli, "cmd_analyze", fail)
    assert run(capsys, "analyze", files["wave"]) == (
        2, "", "error: no verdict\n")


def test_dash_reads_stdin(files, capsys, monkeypatch):
    for sub, name in (("plotdata", "wave"), ("geodesic", "cylinder")):
        want = run(capsys, sub, files[name])
        assert want[0] == 0
        with open(files[name]) as fh:
            monkeypatch.setattr(sys, "stdin", fh)
            assert run(capsys, sub, "-") == want


def test_the_module_runs_as_a_script(files, capsys, monkeypatch):
    # python -m helixkit.cli exits with main's code; runpy warns that the
    # module it runs again is already imported
    for path, code in ((files["wave"], 0),
                       (str(files["root"] / "nope.json"), 1)):
        monkeypatch.setattr(sys, "argv", ["helixkit", "analyze", path])
        with pytest.warns(RuntimeWarning, match="found in sys.modules"), \
                pytest.raises(SystemExit) as exc:
            runpy.run_module("helixkit.cli", run_name="__main__")
        assert exc.value.code == code
    capsys.readouterr()


@pytest.mark.parametrize("flag", [["--grid", "16"], ["--margin", "0.4"]])
def test_geodesic_takes_no_grid_or_margin(files, capsys, flag):
    # the geodesic checks fix their own grid and margin
    with pytest.raises(SystemExit) as exc:
        main(["geodesic", files["cylinder"], *flag])
    assert exc.value.code == 1
    assert "unrecognized arguments" in capsys.readouterr().err


def test_grid_minimum_is_enforced(files, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", files["wave"], "--grid", "8"])
    assert exc.value.code == 1
    capsys.readouterr()


@pytest.mark.parametrize("hint", ["0,1", "0,0,1,0", "0,0,0", "nan,0,1",
                                  "0,inf,0"])
def test_analyze_rejects_unusable_axis_hint(files, capsys, hint):
    code, out, err = run(capsys, "analyze", files["wave"], "--axis-hint", hint)
    assert code == 1
    assert out == ""
    assert err.startswith("error: axis hint") and err.count("\n") == 1


@pytest.mark.parametrize("hint, message", [
    ("a,b", "axis hint must be comma-separated numbers"),
    ("1", "axis hint needs at least 2 entries")])
def test_axis_hint_must_be_a_list_of_numbers(files, capsys, hint, message):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", files["wave"], "--axis-hint", hint])
    assert exc.value.code == 1
    assert capsys.readouterr().err.splitlines()[-1].endswith(f": {message}")


def test_margin_must_lie_below_one_half(files, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", files["wave"], "--margin", "0.5"])
    assert exc.value.code == 1
    assert capsys.readouterr().err.splitlines()[-1] == (
        "helixkit: error: --margin must lie in [0, 0.5)")


@pytest.mark.parametrize("flag", ["--tol-axis", "--tol-const"])
@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1e-3"])
def test_tolerances_must_be_positive_and_finite(files, capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", files["wave"], f"{flag}={value}"])
    assert exc.value.code == 1
    assert "positive and finite" in capsys.readouterr().err


# ----------------------------------------------------------- indicatrix

def test_indicatrix_rows_lie_on_unit_sphere(files, capsys):
    code, out, _ = run(capsys, "indicatrix", files["wave"],
                       "--format", "csv", "--grid", "64")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "s_beta,x1,x2,x3"
    rows = np.array([[float(x) for x in line.split(",")]
                     for line in lines[1:]])
    assert rows.shape == (64, 4)
    assert np.all(np.diff(rows[:, 0]) > 0)
    radii = np.linalg.norm(rows[:, 1:], axis=1)
    assert np.abs(radii - 1.0).max() <= 1e-9


def test_indicatrix_circular_helix_has_flat_x3(files, capsys):
    code, out, _ = run(capsys, "indicatrix", files["helix34"], "--grid", "32")
    assert code == 0
    payload = json.loads(out)
    x3 = [row[3] for row in payload["rows"]]
    assert max(abs(v - 0.8) for v in x3) <= 1e-9
    assert payload["same_axis"] is None
    assert "general-helix" in payload["same_axis_error"]


def test_indicatrix_wave_carries_same_axis_report(files, capsys):
    code, out, _ = run(capsys, "indicatrix", files["wave"], "--grid", "64")
    assert code == 0
    payload = json.loads(out)
    assert payload["same_axis_error"] is None
    assert payload["same_axis"]["angle_between"] <= 1e-3


def test_indicatrix_is_built_once(files, capsys, monkeypatch):
    builds = []
    build = helix.tangent_indicatrix

    def counted(*args, **kwargs):
        builds.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(helix, "tangent_indicatrix", counted)
    code, out, _ = run(capsys, "indicatrix", files["wave"], "--grid", "64")
    assert code == 0
    assert json.loads(out)["same_axis_error"] is None
    assert len(builds) == 1


@pytest.mark.parametrize("sub", ["indicatrix", "axis"])
def test_each_job_reparametrizes_the_curve_once(files, capsys, monkeypatch,
                                                sub):
    # one arc-length table for the curve and one for its indicatrix
    builds = []
    build = ReparametrizedCurve.__init__

    def counted(self, source):
        builds.append(source)
        build(self, source)

    monkeypatch.setattr(ReparametrizedCurve, "__init__", counted)
    code, out, _ = run(capsys, sub, files["wave2"], "--grid", "64")
    assert code == 0
    assert len(builds) == 2
    if sub == "indicatrix":
        assert json.loads(out)["same_axis_error"] is None


def test_indicatrix_of_plane_circle_is_unit_circle(files, capsys):
    code, out, _ = run(capsys, "indicatrix", files["circle2d"],
                       "--format", "csv", "--grid", "16")
    assert code == 0
    rows = np.array([[float(x) for x in line.split(",")]
                     for line in out.splitlines()[1:]])
    assert rows.shape == (16, 3)
    assert np.abs(np.hypot(rows[:, 1], rows[:, 2]) - 1.0).max() <= 1e-9
    # traversal rate is the curvature 1/2: total indicatrix length L/2
    assert abs(rows[-1, 0] - 0.5 * 8.0 * 0.96) <= 1e-9


def test_indicatrix_line_is_degenerate(files, capsys):
    code, _, err = run(capsys, "indicatrix", files["line"])
    assert code == 2
    assert "k_1" in err


# ----------------------------------------------------------------- axis

def test_axis_wave_axes_agree(files, capsys):
    code, out, _ = run(capsys, "axis", files["wave"])
    assert code == 0
    payload = json.loads(out)
    assert payload["angle_between"] <= 1e-4
    assert abs(payload["axis_of_curve"][2]) > 0.999999


def test_wave_in_a_hyperplane_of_e4_reads_as_in_e3(files, capsys):
    # it spans three dimensions, so k_3.. vanish and the recursions run on
    # V_1..V_3, k_1 and k_2, which are the E^3 apparatus: C reads
    # 2.77776933374 and the axes 3.80490581238e-07 apart, as for the wave
    # itself; only in E^4 is that span a hyperplane
    outputs = {}
    for name in ("wave", "wave4", "wave5", "wave7"):
        for sub in ("analyze", "axis", "indicatrix"):
            code, out, _ = run(capsys, sub, files[name])
            assert code == 0, (name, sub)
            outputs[name, sub] = json.loads(out)
    for name in ("wave4", "wave5", "wave7"):
        for key in ("classification", "C"):
            assert (outputs[name, "analyze"][key]
                    == outputs["wave", "analyze"][key])
        assert outputs[name, "analyze"]["planar"] == (name == "wave4")
        assert (outputs[name, "axis"]["angle_between"]
                == outputs["wave", "axis"]["angle_between"])
        assert outputs[name, "indicatrix"]["same_axis_error"] is None
        assert (outputs[name, "indicatrix"]["same_axis"]["angle_between"]
                == outputs["wave", "axis"]["angle_between"])


def test_axis_rejects_non_slant_curve(files, capsys):
    code, _, err = run(capsys, "axis", files["helix34"])
    assert code == 2
    assert "general-helix" in err


# ------------------------------------------------------------- geodesic

def test_geodesic_cylinder_scenario_passes(files, capsys):
    code, out, _ = run(capsys, "geodesic", files["cylinder"])
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert all(g["passed"] for g in payload["geodesics"])
    assert payload["pairwise_axis_angle"] <= 2e-3


def test_geodesic_sphere_scenario_fails_gate(files, capsys):
    code, out, _ = run(capsys, "geodesic", files["sphere"])
    assert code == 2
    payload = json.loads(out)
    assert payload["passed"] is False
    assert payload["surface"]["constant"] is False


# one geodesic per surface: spec, start, unit tangent and length
STEP_JOBS = {"cylinder": (CYLINDER_SPEC, [0.0, 0.0], [0.0, 0.6, 0.8], 1.2),
             "cone": (CONE_SPEC, [0.0, 1.5], cone_tangent(25.0), 2.0)}


@functools.lru_cache(maxsize=None)
def _step_check(name, steps):
    spec, start, tangent, length = STEP_JOBS[name]
    h = hypersurf.load_surface(spec)
    path = hypersurf.geodesic(h, start, tangent, length, steps=steps)
    return hypersurf.verify_geodesic_theorems(h, [path]).checks[0]


def _bits(x):
    """An array's bytes, or the repr of anything else (a float's is exact)."""
    return x.tobytes() if isinstance(x, np.ndarray) else repr(x)


@pytest.mark.parametrize("steps", [1, 5])
def test_geodesic_verdict_does_not_depend_on_steps(capsys, tmp_path, steps):
    # verification reads the geodesic's series, which `steps` does not move,
    # and samples the indicatrix from it on a grid of its own: every field
    # of the check but lambda, read at the samples, is the same to the bit
    # at 1, 5, 300 and 1000 steps, and the job passes at any of them
    for name, (spec, start, tangent, length) in STEP_JOBS.items():
        check = vars(_step_check(name, steps))
        for ref in (_step_check(name, 300), _step_check(name, 1000)):
            ref = vars(ref)
            assert check["passed"] and ref["passed"]
            for key in ref.keys() - {"lambda_mean", "lambda_std"}:
                assert _bits(check[key]) == _bits(ref[key]), (name, key)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({
            "surface": spec,
            "geodesics": [{"start": start, "tangent": list(tangent),
                           "length": length, "steps": steps}],
        }))
        code, out, _ = run(capsys, "geodesic", str(path))
        assert code == 0
        assert json.loads(out)["passed"] is True


def test_geodesic_scenario_validation(files, capsys, tmp_path):
    bad1 = tmp_path / "nosurface.json"
    bad1.write_text(json.dumps({"geodesics": []}))
    assert run(capsys, "geodesic", str(bad1))[0] == 1

    bad2 = tmp_path / "nolength.json"
    bad2.write_text(json.dumps({
        "surface": CYLINDER_SPEC,
        "geodesics": [{"start": [0, 0], "tangent": [0, 1, 0]}],
    }))
    code, _, err = run(capsys, "geodesic", str(bad2))
    assert code == 1 and "length" in err

    bad3 = tmp_path / "badtangent.json"
    bad3.write_text(json.dumps({
        "surface": CYLINDER_SPEC,
        "geodesics": [{"start": [0, 0], "tangent": [0, 2, 0],
                       "length": 1.0}],
    }))
    assert _first_check(capsys, bad3)["error"] == (
        "integration failed: tangent must be a unit vector")


def _first_check(capsys, path):
    """The first check of a geodesic job that fails with its full report."""
    code, out, err = run(capsys, "geodesic", str(path))
    assert (code, err) == (2, "")
    payload = json.loads(out)
    assert payload["passed"] is False
    return payload["geodesics"][0]


@pytest.mark.parametrize("surface", [5, [1], None])
def test_a_surface_value_that_is_no_object_exits_1(capsys, tmp_path,
                                                   monkeypatch, surface):
    # only a string names a file: one named after the value is never read
    monkeypatch.chdir(tmp_path)
    (tmp_path / str(surface)).write_text(json.dumps(CYLINDER_SPEC))
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({
        "surface": surface,
        "geodesics": [{"start": [0.0, 0.0], "tangent": [0.0, 0.6, 0.8],
                       "length": 0.5}],
    }))
    assert run(capsys, "geodesic", str(path)) == (
        1, "", "error: surface spec must be a JSON object\n")


@pytest.mark.parametrize("surface, geodesics, message", [
    (dict(CYLINDER_SPEC, dim=1), [], "surface dimension must be at least 2"),
    (CYLINDER_SPEC, [], '"geodesics" must be a non-empty list'),
    (CYLINDER_SPEC, [3], "geodesic 0 must be an object"),
], ids=["dim", "empty", "entry"])
def test_geodesic_scenario_shape_is_checked(capsys, tmp_path, surface,
                                            geodesics, message):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"surface": surface, "geodesics": geodesics}))
    assert run(capsys, "geodesic", str(path)) == (1, "", f"error: {message}\n")


def test_geodesic_with_a_non_finite_series_exits_2(capsys, tmp_path):
    path = tmp_path / "kink.json"
    path.write_text(json.dumps({
        "surface": KINK_SPEC,
        "geodesics": [{"start": [0, 0.5], "tangent": [0, 1, 0],
                       "length": 0.4, "steps": 50}],
    }))
    assert _first_check(capsys, path)["error"] == (
        "integration failed: non-finite geodesic series at s=0")


@pytest.mark.parametrize("field, value", [
    ("steps", "abc"), ("steps", [400]), ("start", ["a", 0]),
    ("start", [[0, 1], [2]]), ("start", [None, 0]), ("tangent", {"x": 1}),
    ("tangent", ["0", "y", 1]), ("tangent", None), ("steps", 1.7),
    ("steps", True), ("steps", 0), ("length", True), ("start", [True, False]),
    ("tangent", [False, True, False])])
def test_geodesic_scenario_rejects_non_numeric_entries(capsys, tmp_path,
                                                       field, value):
    good = {"start": [0.0, 0.0], "tangent": [0.0, 0.6, 0.8],
            "length": 0.5, "steps": 100}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({
        "surface": CYLINDER_SPEC,
        "geodesics": [good, dict(good, **{field: value})],
    }))
    code, out, err = run(capsys, "geodesic", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: geodesic 1 ") and err.count("\n") == 1


def test_geodesic_grid_over_the_cap_exits_2(capsys, tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({
        "surface": CYLINDER_SPEC,
        "geodesics": [{"start": [0.0, 0.0], "tangent": [0.0, 0.6, 0.8],
                       "length": 0.5, "steps": 10**6}],
    }))
    assert _first_check(capsys, path)["error"] == (
        "integration failed: 1000001 geodesic samples exceed the limit of "
        "1000000")


def _cylinder_scenario(tmp_path, name, lengths, tangent):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({
        "surface": CYLINDER_SPEC,
        "geodesics": [{"start": [0.0, 0.0], "tangent": tangent,
                       "length": length} for length in lengths],
    }))
    return str(path)


def test_a_geodesic_that_leaves_the_box_is_a_failed_check(capsys, tmp_path):
    # the third geodesic leaves the box; the report keeps the other two
    tangent = [0.0, math.cos(0.7), math.sin(0.7)]
    code, out, err = run(capsys, "geodesic", _cylinder_scenario(
        tmp_path, "two", [1.6, 1.6], tangent))
    assert (code, err) == (0, "")
    two = json.loads(out)
    code, out, err = run(capsys, "geodesic", _cylinder_scenario(
        tmp_path, "mixed", [1.6, 1.6, 12.0], tangent))
    assert (code, err) == (2, "")
    mixed = json.loads(out)
    assert mixed["passed"] is False
    assert mixed["geodesics"][:2] == two["geodesics"]
    assert mixed["pairwise_axis_angle"] == two["pairwise_axis_angle"]
    failed = mixed["geodesics"][2]
    assert failed["error"] == ("integration failed: geodesic left the "
                               "parameter box near s=9.314")
    assert failed["index"] == 2 and failed["passed"] is False
    assert failed["lambda_mean"] is None and failed["lambda_std"] is None


def test_a_skew_tangent_is_a_failed_check(capsys, tmp_path):
    check = _first_check(capsys, _cylinder_scenario(
        tmp_path, "skew", [1.6], [1.0, 0.0, 0.0]))
    assert check["error"] == ("integration failed: tangent is not "
                              "orthogonal to the surface normal")
    assert check["lambda_mean"] is None and check["passed"] is False


def test_curve_literal_that_overflows_exits_1(capsys, tmp_path):
    path = tmp_path / "curve.json"
    path.write_text(json.dumps({"dim": 3, "domain": [0.0, 2.0],
                                "components": ["0.6*s", "0.8*s", "1e400"]}))
    assert run(capsys, "analyze", str(path)) == (
        1, "", "error: bad analytic curve: number 1e400 out of range "
        "(at offset 0)\n")


@pytest.mark.parametrize("field, value", [
    ("tangent", [0.8, 0.6]), ("tangent", [0.0, 0.6, 0.8, 0.0]),
    ("start", [0.0, 0.0, 0.0]), ("start", 0.0)])
def test_geodesic_scenario_rejects_wrong_lengths(capsys, tmp_path, field,
                                                 value):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({
        "surface": CYLINDER_SPEC,
        "geodesics": [{"start": [0.0, 0.0], "tangent": [0.0, 0.6, 0.8],
                       "length": 0.5, field: value}],
    }))
    code, out, err = run(capsys, "geodesic", str(path))
    assert (code, out) == (1, "")
    assert err.startswith('error: geodesic 0 needs numeric "start" of '
                          'length 2, "tangent" of length 3')


# one number rule for every spec field: a finite int or float, never a bool,
# a numeric string, null or an integer past the largest double
_BIG = 10 ** 400
_GEODESIC = {"start": [0.0, 0.0], "tangent": [0.0, 0.6, 0.8], "length": 0.5}
_GEODESIC_ERROR = ('geodesic 0 needs numeric "start" of length 2, "tangent" '
                   'of length 3 and "length", and a positive integer "steps" '
                   'if any')


def _curve(domain):
    return "analyze", {"dim": 3, "components": WAVE, "domain": domain}


def _sampled(cell):
    rows = [[t, math.cos(t), math.sin(t), t]
            for t in np.linspace(0.0, 2.0, 40).tolist()]
    rows[3][2] = cell
    return "analyze", {"dim": 3, "samples": rows}


def _scenario(surface=(), **geodesic):
    return "geodesic", {"surface": {**CYLINDER_SPEC, **dict(surface)},
                        "geodesics": [{**_GEODESIC, **geodesic}]}


_DOMAIN_ERROR = '"domain" must be [a, b] of finite numbers'
_SAMPLES_ERROR = '"samples" must be rows [t, x1..x3] of finite numbers'
_DIRECTION_ERROR = '"direction" must be a vector of 3 finite numbers'
_BOX_ERROR = '"domain" must list 2 intervals [lo, hi] of finite numbers'


@pytest.mark.parametrize("job, message", [
    (_curve([False, 5]), _DOMAIN_ERROR),
    (_curve(["0", "5"]), _DOMAIN_ERROR),
    (_curve([0, _BIG]), _DOMAIN_ERROR),
    (_curve([0.0, math.nan]), _DOMAIN_ERROR),
    (_curve([0.0, math.inf]), _DOMAIN_ERROR),
    (_sampled("0.3"), _SAMPLES_ERROR),
    (_sampled(_BIG), _SAMPLES_ERROR),
    (_sampled(math.nan), _SAMPLES_ERROR),
    (_scenario({"direction": [False, False, True]}), _DIRECTION_ERROR),
    (_scenario({"direction": ["0", "0", "1"]}), _DIRECTION_ERROR),
    (_scenario({"direction": [0, 0, _BIG]}), _DIRECTION_ERROR),
    (_scenario({"direction": [0.0, 0.0, math.inf]}), _DIRECTION_ERROR),
    (_scenario({"domain": [[False, True], [-6.0, 6.0]]}), _BOX_ERROR),
    (_scenario({"domain": [[-math.inf, 1.0], [-6.0, 6.0]]}), _BOX_ERROR),
    (_scenario(start=["0", "0"]), _GEODESIC_ERROR),
    (_scenario(length="0.5"), _GEODESIC_ERROR),
    (_scenario(start=[math.nan, 0.0]), _GEODESIC_ERROR),
    (_scenario(length=math.inf), _GEODESIC_ERROR),
    (_scenario(steps=math.nan), _GEODESIC_ERROR),
], ids=["domain-bool", "domain-str", "domain-big", "domain-nan",
        "domain-inf", "samples-str", "samples-big", "samples-nan",
        "direction-bool", "direction-str", "direction-big", "direction-inf",
        "surface-domain-bool", "surface-domain-inf", "start-str",
        "length-str", "start-nan", "length-inf", "steps-nan"])
def test_spec_numbers_must_be_json_numbers(capsys, tmp_path, job, message):
    sub, spec = job
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert run(capsys, sub, str(path)) == (1, "", f"error: {message}\n")


def test_spec_integers_and_integral_steps_read_as_numbers(capsys, tmp_path):
    # JSON integers stand for floats; "steps": 100.0 is 100 and null is absent
    def result(job):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(job[1]))
        return run(capsys, job[0], str(path))

    integral = {"domain": [[-12, 13], [-6, 6]], "direction": [0, 0, 1]}
    floats = {"domain": [[-12.0, 13.0], [-6.0, 6.0]]}
    want = result(_scenario(floats, steps=100))
    assert want[0] == 0
    assert result(_scenario(integral, start=[0, 0], tangent=[0, 0.6, 0.8],
                            steps=100)) == want
    assert result(_scenario(floats, steps=100.0)) == want
    assert (result(_scenario(floats, steps=None))
            == result(_scenario(floats)))
    assert result(_curve([1, 2])) == result(_curve([1.0, 2.0]))


def test_non_integral_dim_exits_1(capsys, tmp_path):
    curve = tmp_path / "curve.json"
    curve.write_text(json.dumps({"dim": 3.9, "domain": [0.0, 2.0],
                                 "components": ["0.6*s", "0.8*s", "0"]}))
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({
        "surface": dict(CYLINDER_SPEC, dim=3.5),
        "geodesics": [{"start": [0.0, 0.0], "tangent": [0.0, 0.6, 0.8],
                       "length": 0.5}],
    }))
    assert run(capsys, "analyze", str(curve)) == (
        1, "", 'error: curve spec needs an integer "dim"\n')
    assert run(capsys, "geodesic", str(scenario)) == (
        1, "", 'error: surface spec needs an integer "dim"\n')


def test_geodesic_surface_with_infinite_tangent_is_rejected(capsys, tmp_path):
    # d/dw sqrt(w) is infinite on the edge w = 0 of the box
    path = tmp_path / "sqrt.json"
    path.write_text(json.dumps({
        "surface": {"dim": 3, "parameters": ["u", "w"],
                    "components": ["u", "w", "sqrt(w)"],
                    "domain": [[-1, 1], [0, 7]], "direction": [0, 0, 1]},
        "geodesics": [{"start": [0, 1], "tangent": [1, 0, 0], "length": 0.5}],
    }))
    code, out, err = run(capsys, "geodesic", str(path))
    assert code == 1
    assert out == ""
    assert err == "error: non-finite tangent map at (-1, 0)\n"


def test_geodesic_surface_with_non_finite_tangent_off_the_immersion_grid(
        capsys, tmp_path):
    # d/dw sqrt((w - 1/9)^2) is 0/0 at w = 1/9, a node of the 64-per-axis
    # grid the surface samples at load, so the spec is refused there
    path = tmp_path / "kink.json"
    path.write_text(json.dumps({
        "surface": {"dim": 3, "parameters": ["u", "w"],
                    "components": ["u", "w", "sqrt((w - 7/63)^2)"],
                    "domain": [[-1, 1], [0, 7]], "direction": [0, 0, 1]},
        "geodesics": [{"start": [0, 3], "tangent": [1, 0, 0], "length": 0.5}],
    }))
    code, out, err = run(capsys, "geodesic", str(path))
    assert code == 1
    assert out == ""
    assert err == "error: non-finite tangent map at (-1, 0.111111)\n"


def _pole_curve(tmp_path):
    path = tmp_path / "pole.json"
    path.write_text(json.dumps({"dim": 2, "components": ["s", "1/(s-1)"],
                                "domain": [0, 2]}))
    return str(path)


def test_analyze_names_a_non_finite_speed(capsys, tmp_path):
    code, out, err = run(capsys, "analyze", _pole_curve(tmp_path))
    assert code == 2
    assert out == ""
    assert err == "error: non-finite speed at t=1\n"


def test_analyze_names_a_non_finite_derivative(capsys, tmp_path):
    # sqrt(s - 1) is nan below s = 1: one error line, no numpy warning
    path = tmp_path / "root.json"
    path.write_text(json.dumps({"dim": 3, "components": ["s", "s^2",
                                                         "sqrt(s-1)"],
                                "domain": [0, 2]}))
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 1
    assert out == ""
    assert err == ("error: bad analytic curve: non-finite derivative "
                   "at s=0\n")


# ------------------------------------------------------------- plotdata

def test_plotdata_rejects_a_non_finite_point(capsys, tmp_path):
    # the 17-point grid on [0, 2] hits the pole at s = 1
    code, out, err = run(capsys, "plotdata", _pole_curve(tmp_path),
                         "--grid", "17")
    assert code == 2
    assert out == ""
    assert err == "error: non-finite point at s=1\n"


def test_plotdata_row_counts(files, capsys):
    for grid in (16, 32):
        code, out, _ = run(capsys, "plotdata", files["wave"],
                           "--grid", str(grid))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "s,x1,x2,x3"
        assert len(lines) == grid + 1
        s = [float(line.split(",")[0]) for line in lines[1:]]
        assert all(b > a for a, b in zip(s, s[1:]))


def test_plotdata_both_writes_matching_files(files, capsys, tmp_path):
    out_path = tmp_path / "trace.csv"
    code, _, _ = run(capsys, "plotdata", files["wave"], "--grid", "64",
                     "--both", "--output", str(out_path))
    assert code == 0
    other = tmp_path / "trace_indicatrix.csv"
    a = out_path.read_text().splitlines()
    b = other.read_text().splitlines()
    assert len(a) == len(b) == 65
    assert a[0] == b[0] == "s,x1,x2,x3"


def test_plotdata_both_names_the_second_file_from_the_file_name(
        files, capsys, tmp_path):
    # a dot in a directory name is not the file's suffix
    out_path = tmp_path / "x.d" / "plot"
    out_path.parent.mkdir()
    code, _, _ = run(capsys, "plotdata", files["wave"], "--grid", "16",
                     "--both", "--output", str(out_path))
    assert code == 0
    assert out_path.exists()
    assert (tmp_path / "x.d" / "plot_indicatrix").exists()


def test_plotdata_both_requires_output(files, capsys):
    code, _, err = run(capsys, "plotdata", files["wave"], "--both")
    assert code == 1
    assert "--output" in err


def test_reports_are_byte_identical_across_runs(files, capsys, tmp_path):
    for argv in (["analyze"], ["indicatrix"], ["indicatrix", "--format", "csv"],
                 ["plotdata", "--both"]):
        p1, p2 = tmp_path / "r1.out", tmp_path / "r2.out"
        for p in (p1, p2):
            code = run(capsys, argv[0], files["wave"], *argv[1:],
                       "--output", str(p))[0]
            assert code == 0
        written = [(p1, p2)]
        if "--both" in argv:
            written.append((tmp_path / "r1_indicatrix.out",
                            tmp_path / "r2_indicatrix.out"))
        for a, b in written:
            assert a.read_bytes() == b.read_bytes(), argv
            assert b"\r" not in a.read_bytes()


# cells that round or print specially: NaN, infinities, signed zeros,
# subnormals, values at and past 1e12, and 12th-digit rounding ties
_CELLS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324,
                     -2.5e-310, 1e12, -1e12, 999999999999.5, 1.5e16,
                     0.0812060761725500, 1.0000000000005]))


@given(arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 5)),
              elements=_CELLS))
def test_array_formatting_matches_per_cell_formatting(rows):
    columns = [f"c{i}" for i in range(rows.shape[1])]
    lines = [",".join(columns)] + [",".join(_g(x) for x in row)
                                   for row in rows]
    assert _csv_text(columns, rows) == "\n".join(lines) + "\n"
    payload = {"columns": columns, "rows": rows,
               "same_axis": {"angle_between": 1e-9}, "same_axis_error": None}
    old = json.dumps(_rounded(dict(payload, rows=[list(r) for r in rows])),
                     indent=2) + "\n"
    assert _rows_json_text(payload) == old


def test_cli_import_loads_no_scipy():
    src = str(Path(helixkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, helixkit.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"
