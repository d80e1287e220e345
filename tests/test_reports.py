"""How reports leave the library: every `to_dict` gives plain JSON data.

Each report kind is serialized, degenerate ones included, and checked for
strict JSON, for Python types only, for the types of its ints and bools and
for today's key order; the unit vectors it carries print roundoff as 0.0.
"""

import dataclasses
import functools
import json
import math

import numpy as np
import pytest

from conftest import (PLANE_SPEC, SPHERE_SPEC, WAVE, WAVE_TRIMMED,
                      cone_report)
from helixkit import hypersurf
from helixkit.curve import AnalyticCurve
from helixkit.helix import (AxisComparison, HelixReport, HintResult,
                            PathResult, classify, verify_same_axis)
from helixkit.hypersurf import GeodesicCheck, SurfaceGeodesicReport

EZ = np.array([0.0, 0.0, 1.0])

# (keys always present, keys present only when set, keys holding bools)
LAYOUTS = {
    HelixReport: (["classification", "cos_theta", "C", "axis",
                   "constancy_residual", "axis_residual", "masked_fraction",
                   "planar", "slant", "general"],
                  ["planar_normal", "hint"], ["planar"]),
    PathResult: (["passed", "cos_theta", "C", "axis", "constancy_residual",
                  "axis_residual", "error"],
                 ["integration_constant"], ["passed"]),
    HintResult: (["direction", "v1_mean", "v1_std", "v2_mean", "v2_std"],
                 [], []),
    AxisComparison: (["axis_of_curve", "axis_of_indicatrix",
                      "angle_between"], [], []),
    GeodesicCheck: (["index", "lambda_mean", "lambda_std", "normal_dot_mean",
                     "normal_dot_std", "indicatrix_axis", "indicatrix_angle",
                     "sphere_residual", "classification", "error", "passed"],
                    [], ["passed"]),
    SurfaceGeodesicReport: (["surface", "geodesics", "pairwise_axis_angle",
                             "passed"], [], ["passed"]),
}

# every array a report carries is a unit vector in one of these fields
UNIT_VECTOR_FIELDS = {"axis", "planar_normal", "direction", "axis_of_curve",
                      "axis_of_indicatrix", "indicatrix_axis"}


def _geodesic_report(spec, start, tangent):
    h = hypersurf.load_surface(spec)
    path = hypersurf.geodesic(h, start, tangent, 1.5, steps=500)
    return hypersurf.verify_geodesic_theorems(h, [path])


@functools.lru_cache(maxsize=None)
def _report(kind):
    wave = AnalyticCurve(WAVE, WAVE_TRIMMED)
    if kind == "wave with hint":
        return classify(wave, axis_hint=EZ)
    if kind == "circle, masked":
        return classify(AnalyticCurve(["2*cos(s/2)", "2*sin(s/2)", "0"],
                                      (0.0, 4 * math.pi)))
    if kind == "wave in a hyperplane of E^4":
        return classify(AnalyticCurve(WAVE + ["0"], WAVE_TRIMMED),
                        axis_hint=[0.0, 0.0, 1.0, 0.0])
    if kind == "same-axis comparison":
        return verify_same_axis(wave)
    if kind == "cone":
        return cone_report()
    if kind == "sphere, not a helix surface":
        return _geodesic_report(SPHERE_SPEC, [math.pi / 2.0, 0.0],
                                [0.0, 1.0, 0.0])
    if kind == "plane, geodesic check with an error":
        return _geodesic_report(PLANE_SPEC, [0.0, 0.0], [0.6, 0.8, 0.0])
    raise KeyError(kind)


KINDS = ["wave with hint", "circle, masked", "wave in a hyperplane of E^4",
         "same-axis comparison", "cone", "sphere, not a helix surface",
         "plane, geodesic check with an error"]


def _values(d):
    yield d
    children = d.values() if isinstance(d, dict) else (
        d if isinstance(d, list) else ())
    for child in children:
        yield from _values(child)


def _assert_layout(obj, d):
    """d has obj's keys in today's order, bools as bools, nested alike."""
    keys, optional, bools = LAYOUTS[type(obj)]
    assert list(d) == keys + [k for k in optional
                              if getattr(obj, k) is not None]
    for key in bools:
        assert type(d[key]) is bool, key
    if isinstance(obj, HelixReport):
        _assert_layout(obj.slant, d["slant"])
        _assert_layout(obj.general, d["general"])
        if obj.hint is not None:
            _assert_layout(obj.hint, d["hint"])
    if isinstance(obj, SurfaceGeodesicReport):
        assert list(d["surface"]) == ["constant", "value", "residual"]
        assert type(d["surface"]["constant"]) is bool
        for check, entry in zip(obj.checks, d["geodesics"], strict=True):
            _assert_layout(check, entry)
            assert type(entry["index"]) is int


def _arrays(obj, found):
    """Field name -> arrays held by obj's fields, nested reports included."""
    if isinstance(obj, (list, tuple)):
        for x in obj:
            _arrays(x, found)
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            value = getattr(obj, f.name)
            if isinstance(value, np.ndarray):
                found.setdefault(f.name, []).append(value)
            else:
                _arrays(value, found)
    return found


@pytest.mark.parametrize("kind", KINDS)
def test_every_report_kind_gives_plain_json(kind):
    report = _report(kind)
    d = report.to_dict()
    json.dumps(d, allow_nan=False)
    for x in _values(d):
        assert type(x) in (dict, list, str, int, float, bool, type(None)), x
    _assert_layout(report, d)


def test_arrays_in_reports_are_the_unit_vectors():
    found = {}
    for kind in KINDS:
        _arrays(_report(kind), found)
    assert set(found) == UNIT_VECTOR_FIELDS
    for name, arrays in found.items():
        for a in arrays:
            assert abs(np.linalg.norm(a) - 1.0) <= 1e-12, name


@pytest.mark.parametrize("kind", KINDS)
def test_unit_vectors_print_roundoff_as_zero(kind):
    def vectors(d):
        for x in _values(d):
            if isinstance(x, dict):
                for key in UNIT_VECTOR_FIELDS & x.keys():
                    yield x[key] or []

    # the wave's axes carry components of -6.4e-17 and 1.2e-17, roundoff
    for v in vectors(_report(kind).to_dict()):
        for x in v:
            assert x == 0.0 and math.copysign(1.0, x) == 1.0 or abs(x) > 1e-15


def test_non_finite_values_print_as_null():
    check = GeodesicCheck(index=0, lambda_mean=math.nan,
                          lambda_std=np.float64(math.inf),
                          indicatrix_axis=np.array([math.nan, 0.0, 1.0]),
                          passed=np.bool_(False))
    report = SurfaceGeodesicReport(
        {"constant": np.bool_(False), "value": np.float64(math.nan),
         "residual": math.inf}, [check], math.nan, False)
    d = report.to_dict()
    json.dumps(d, allow_nan=False)
    assert d["surface"] == {"constant": False, "value": None, "residual": None}
    assert d["pairwise_axis_angle"] is None
    entry = d["geodesics"][0]
    assert entry["lambda_mean"] is None and entry["lambda_std"] is None
    assert entry["indicatrix_axis"] == [None, 0.0, 1.0]
    assert entry["passed"] is False
