"""Closed-form checks of every benchmark job's output.

Each check compares what the CLI wrote with a fact known without helixkit:
exit codes and verdicts from the curve's construction, cos(theta) and the
fixed direction from the closed-form axis, traced points from the component
formulas evaluated by numpy, indicatrix points from the unit tangent, and
geodesic normal accelerations from the surface's closed-form curvature.
Tolerances are the ones the repository's own tests hold the same quantities
to.
"""

import json
import math

import numpy as np
from scipy.interpolate import CubicSpline

# (cos_theta, axis angle) tolerances per input
_ANALYZE_TOL = {"wave": (1e-5, 1e-5), "helix_a": (1e-6, 1e-6),
                "helix_b": (1e-6, 1e-6), "e4": (1e-4, 1e-3)}
_AXIS_TOL = {"wave": 1e-4, "e4": 1e-3}
_POINT_TOL = 1e-9        # 12 significant digits on values of order 1
_SAMPLED_POINT_TOL = 1e-8
_SPHERE_TOL = 1e-9
_INDICATRIX_AXIS_TOL = 1e-3
_PAIRWISE_TOL = 2e-3
_LAMBDA_TOL = 1e-6
_SURFACE_VALUE_TOL = 1e-9
_GRID = 512
_MARGIN = 0.02


def axis_angle(a, b):
    """Angle between two directions, ignoring orientation."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    dot = abs(float(a @ b)) / (np.linalg.norm(a) * np.linalg.norm(b))
    return math.acos(min(1.0, dot))


def _components(spec, s):
    """Evaluate closed-form components with numpy, independent of helixkit."""
    env = {"sin": np.sin, "cos": np.cos, "tan": np.tan, "exp": np.exp,
           "log": np.log, "sqrt": np.sqrt, spec.get("parameter", "s"): s}
    cols = []
    for text in spec["components"]:
        value = eval(text.replace("^", "**"), {"__builtins__": {}}, env)  # noqa: S307 - benchmark's own formulas
        cols.append(np.broadcast_to(np.asarray(value, dtype=float), s.shape))
    return np.stack(cols, axis=1)


def _curve_points(spec, s):
    if "samples" in spec:
        rows = np.asarray(spec["samples"])
        return CubicSpline(rows[:, 0], rows[:, 1:])(s)
    return _components(spec, s)


def _csv_rows(text):
    lines = text.splitlines()
    return lines[0].split(","), np.array(
        [[float(x) for x in line.split(",")] for line in lines[1:]])


def _wave_tangent(sb, domain):
    """Unit tangent of the wave at indicatrix arc length sb.

    On the wave k_1 = -4 sin 3s > 0, so the indicatrix arc length from a is
    (4/3)(cos 3s - cos 3a); 3s lies in (pi, 2pi) where cos is increasing.
    """
    a, b = domain
    a = a + _MARGIN * (b - a)
    c = np.clip(math.cos(3 * a) + 0.75 * sb, -1.0, 1.0)
    s = (2 * math.pi - np.arccos(c)) / 3.0
    return np.stack([0.8 * np.cos(2 * s) - 0.2 * np.cos(8 * s),
                     0.8 * np.sin(2 * s) - 0.2 * np.sin(8 * s),
                     0.8 * np.cos(3 * s)], axis=1)


def _tilted_tangent_error(pts):
    """Distance of points from the unit tangent image of (cos t, sin t, t^2/2).

    T(t) = (-sin t, cos t, t)/sqrt(1 + t^2); t is recovered from x3.
    """
    x3 = np.clip(pts[:, 2], -1 + 1e-15, 1 - 1e-15)
    t = x3 / np.sqrt(1.0 - x3 * x3)
    r = np.sqrt(1.0 + t * t)
    want = np.stack([-np.sin(t) / r, np.cos(t) / r, t / r], axis=1)
    return float(np.abs(pts - want).max())


def _indicatrix_problems(name, fact, rows):
    problems = []
    pts = rows[:, 1:]
    if rows.shape != (_GRID, fact["spec"]["dim"] + 1):
        problems.append(f"indicatrix table has shape {rows.shape}")
        return problems
    radius = float(np.abs(np.linalg.norm(pts, axis=1) - 1.0).max())
    if radius > _SPHERE_TOL:
        problems.append(f"indicatrix leaves the unit sphere by {radius:.3g}")
    if not np.all(np.diff(rows[:, 0]) > 0):
        problems.append("indicatrix arc length not increasing")
    if name == "wave":
        err = float(np.abs(pts - _wave_tangent(rows[:, 0],
                                               fact["spec"]["domain"])).max())
        if err > _POINT_TOL * 10:
            problems.append(f"wave indicatrix off its closed form by {err:.3g}")
    elif name == "tilted":
        err = _tilted_tangent_error(pts)
        if err > _POINT_TOL * 10:
            problems.append(f"tilted indicatrix off the unit tangent by {err:.3g}")
    return problems


def _check_axis_pair(name, fact, payload):
    problems = []
    tol = _AXIS_TOL[name]
    for key, limit in (("axis_of_curve", _ANALYZE_TOL[name][1]),
                       ("axis_of_indicatrix", _INDICATRIX_AXIS_TOL)):
        angle = axis_angle(payload[key], fact["axis"])
        if angle > limit:
            problems.append(f"{key} is {angle:.3g} rad off the closed-form axis")
    if payload["angle_between"] > tol:
        problems.append(f"angle_between {payload['angle_between']:.3g} > {tol}")
    return problems


def _check_analyze(job, fact, text):
    name = job["input"]
    if job["ext"] == "csv":
        table = dict(line.split(",", 1) for line in text.splitlines()[1:])
        axis = [float(table[f"axis_{i}"]) for i in range(1, len(table))
                if f"axis_{i}" in table]
        report = {"classification": table["classification"],
                  "cos_theta": float(table["cos_theta"]) if table["cos_theta"]
                  else None,
                  "axis": axis or None,
                  "planar": table["planar"] == "true"}
    else:
        report = json.loads(text)
    problems = []
    if "classification" in fact and \
            report["classification"] != fact["classification"]:
        problems.append(f"classification {report['classification']!r}, "
                        f"expected {fact['classification']!r}")
    if "cos_theta" in fact:
        tol_cos, tol_axis = _ANALYZE_TOL[name]
        if report["cos_theta"] is None or \
                abs(report["cos_theta"] - fact["cos_theta"]) > tol_cos:
            problems.append(f"cos_theta {report['cos_theta']}, expected "
                            f"{fact['cos_theta']:.12g}")
        if report["axis"] is None or \
                axis_angle(report["axis"], fact["axis"]) > tol_axis:
            problems.append(f"axis {report['axis']} is not the fixed direction")
    if "planar_normal" in fact:
        if not report["planar"]:
            problems.append("planar curve not reported planar")
        elif job["ext"] == "json" and axis_angle(
                report.get("planar_normal", [1, 0, 0]),
                fact["planar_normal"]) > 1e-6:
            problems.append("planar normal is not the plane's normal")
    return problems


def _check_plotdata(job, fact, texts):
    problems = []
    cols, rows = _csv_rows(texts[0])
    spec = fact["spec"]
    if rows.shape[0] != _GRID:
        return [f"plotdata wrote {rows.shape[0]} rows"]
    want = _curve_points(spec, rows[:, 0])
    err = float(np.abs(rows[:, 1:] - want).max())
    tol = _SAMPLED_POINT_TOL if "samples" in spec else _POINT_TOL * max(
        1.0, float(np.abs(want).max()))
    if err > tol:
        problems.append(f"curve trace off its closed form by {err:.3g}")
    if "--both" in job["args"]:
        bcols, brows = _csv_rows(texts[1])
        if bcols != cols:
            problems.append("indicatrix trace has other columns")
        problems += _indicatrix_problems(job["input"], fact, brows)
    return problems


def _check_indicatrix(job, fact, text):
    name = job["input"]
    if job["ext"] == "csv":
        return _indicatrix_problems(name, fact, _csv_rows(text)[1])
    payload = json.loads(text)
    rows = np.asarray(payload["rows"], dtype=float)
    problems = _indicatrix_problems(name, fact, rows)
    if name == "tilted":
        error = payload["same_axis_error"] or ""
        if payload["same_axis"] is not None or "neither" not in error:
            problems.append("tilted spiral got a same-axis report")
    elif payload["same_axis"] is None:
        problems.append(f"no same-axis report: {payload['same_axis_error']}")
    else:
        problems += _check_axis_pair(name, fact, payload["same_axis"])
    return problems


def _check_geodesic(job, fact, text):
    report = json.loads(text)
    problems = []
    if report["passed"] is not fact["passed"]:
        problems.append(f"passed={report['passed']}, expected {fact['passed']}")
    surface = report["surface"]
    if surface["constant"] is not fact["constant"]:
        problems.append(f"surface constant={surface['constant']}")
    if fact["value"] is not None and \
            abs(surface["value"] - fact["value"]) > _SURFACE_VALUE_TOL:
        problems.append(f"<d, normal> = {surface['value']}, "
                        f"expected {fact['value']:.12g}")
    checks = report["geodesics"]
    if fact["lambda"] is not None:
        for check, lam in zip(checks, fact["lambda"]):
            if abs(check["lambda_mean"] - lam) > _LAMBDA_TOL or \
                    check["lambda_std"] > _LAMBDA_TOL:
                problems.append(
                    f"geodesic {check['index']}: lambda "
                    f"{check['lambda_mean']}+-{check['lambda_std']}, "
                    f"expected {lam:.12g}")
    if fact["passed"]:
        for check in checks:
            if not check["passed"]:
                problems.append(f"geodesic {check['index']} failed: "
                                f"{check['error']}")
            elif axis_angle(check["indicatrix_axis"], [0, 0, 1]) > \
                    _INDICATRIX_AXIS_TOL:
                problems.append(f"geodesic {check['index']} indicatrix axis "
                                "is not the surface direction")
        pair = report["pairwise_axis_angle"]
        if len(checks) > 1 and (pair is None or pair > _PAIRWISE_TOL):
            problems.append(f"pairwise axis angle {pair}")
    return problems


def output_paths(job):
    """Files a job writes: its --output, plus the indicatrix trace for --both."""
    paths = [job["output"]]
    if "--both" in job["args"]:
        stem, _, suffix = job["output"].rpartition(".")
        paths.append(f"{stem}_indicatrix.{suffix}")
    return paths


def check(job, fact, code, stderr, texts):
    """Problems with one job's outcome; an empty list means it is right.

    texts holds the contents of output_paths(job), None where a file is
    missing.
    """
    expected_exit = fact.get(f"{job['sub']}_exit", 0)
    if code != expected_exit:
        return [f"exit {code}, expected {expected_exit}: {stderr.strip()}"]
    if job["sub"] == "axis" and expected_exit == 2:
        return [] if "neither" in stderr else [f"stderr {stderr.strip()!r}"]
    if job["sub"] == "analyze" and job["input"] == "line":
        return [] if "degenerate" in stderr else [f"stderr {stderr.strip()!r}"]
    if any(t is None for t in texts):
        return ["output file missing"]
    try:
        if job["sub"] == "analyze":
            return _check_analyze(job, fact, texts[0])
        if job["sub"] == "plotdata":
            return _check_plotdata(job, fact, texts)
        if job["sub"] == "indicatrix":
            return _check_indicatrix(job, fact, texts[0])
        if job["sub"] == "axis":
            return _check_axis_pair(job["input"], fact, json.loads(texts[0]))
        if job["sub"] == "geodesic":
            return _check_geodesic(job, fact, texts[0])
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]
    return [f"no oracle for {job['sub']}"]
