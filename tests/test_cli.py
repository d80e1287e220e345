"""End-to-end checks of the command-line interface via its main() entry."""

import json
import math

import numpy as np
import pytest

from helixkit import helix
from helixkit.cli import main
from conftest import CYLINDER_SPEC, SPHERE_SPEC, WAVE, WAVE_TRIMMED


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
        "root": root, "wave": wave, "helix34": helix34, "line": line,
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


def test_analyze_line_is_degenerate(files, capsys):
    code, _, err = run(capsys, "analyze", files["line"])
    assert code == 2
    assert "degenerate" in err


def test_analyze_bad_inputs_exit_1(files, capsys):
    assert run(capsys, "analyze", files["broken"])[0] == 1
    assert run(capsys, "analyze", str(files["root"] / "nope.json"))[0] == 1


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
    code, _, err = run(capsys, "geodesic", str(bad3))
    assert code == 2 and "unit" in err


@pytest.mark.parametrize("field, value", [
    ("steps", "abc"), ("steps", [400]), ("start", ["a", 0]),
    ("start", [[0, 1], [2]]), ("start", [None, 0]), ("tangent", {"x": 1}),
    ("tangent", ["0", "y", 1]), ("tangent", None)])
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


# ------------------------------------------------------------- plotdata

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


def test_plotdata_both_requires_output(files, capsys):
    code, _, err = run(capsys, "plotdata", files["wave"], "--both")
    assert code == 1
    assert "--output" in err


def test_reports_are_byte_identical_across_runs(files, capsys, tmp_path):
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert run(capsys, "analyze", files["wave"], "--output", str(p1))[0] == 0
    assert run(capsys, "analyze", files["wave"], "--output", str(p2))[0] == 0
    assert p1.read_bytes() == p2.read_bytes()
    assert b"\r" not in p1.read_bytes()
