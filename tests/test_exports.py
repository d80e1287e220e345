"""The public names: every exported name resolves, the package exports what
its __init__ imports, the array results carry no per-sample views, and a bad
argument raises a typed error."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import helixkit
from helixkit import curve, frenet, helix, hypersurf
from conftest import cylinder_geodesics

MODULES = ["helixkit"] + [f"helixkit.{m.name}"
                          for m in pkgutil.iter_modules(helixkit.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [x for x in exported if not hasattr(module, x)] == []


def test_package_exports_what_it_imports():
    tree = ast.parse(Path(helixkit.__file__).read_text())
    imported = {alias.asname or alias.name
                for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert set(helixkit.__all__) == {x for x in imported
                                     if not x.startswith("_")}


def test_results_are_read_as_arrays(wave_curve):
    for name in ("DerivativeJet", "GeodesicSample", "jet"):
        assert not hasattr(helixkit, name)
    grid = helixkit.frenet_grid(wave_curve, 16)
    path = cylinder_geodesics()[0]
    for result in (grid, path):
        with pytest.raises(TypeError):
            result[0]
        with pytest.raises(TypeError):
            iter(result)
    assert len(grid) == 16 and len(path) == len(path.s)
    assert wave_curve.jet(1.5, 2).shape == (2, 3)
    for fn in (hypersurf.is_helix_surface, helix.recursion_mask):
        assert len(inspect.signature(fn).parameters) == 1


def test_frames_are_one_record_on_the_curve_domain():
    # frenet_at returns a one-sample FrenetGrid; a curve is analysed on its
    # own domain, so no entry point takes a sampling interval
    assert not hasattr(helixkit, "FrenetApparatus")
    for fn in (helixkit.frenet_grid, helixkit.classify,
               helixkit.tangent_indicatrix, helixkit.verify_same_axis):
        assert "domain" not in inspect.signature(fn).parameters


def test_helix_leaves_the_unit_tangent_to_each_curve_class():
    # tangent_indicatrix asks the curve for its unit tangent, so helix
    # neither builds expression trees nor dispatches on the curve classes
    tree = ast.parse(Path(helix.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported |= {node.module} | {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
    assert not imported & {"expr", "helixkit.expr", "AnalyticCurve",
                           "ReparametrizedCurve", "SampledCurve"}
    body, = [node for node in tree.body if isinstance(node, ast.FunctionDef)
             and node.name == "tangent_indicatrix"]
    assert "isinstance" not in {node.id for node in ast.walk(body)
                                if isinstance(node, ast.Name)}


def test_cross_check_formulas_are_test_oracles():
    # the E^3 formulas and the frame differencing live in tests/conftest.py
    moved = ("slant_invariant_3d", "indicatrix_curvatures_3d",
             "helix_axis_field_3d", "_dds", "fd_curvatures",
             "frenet_ode_residual")
    for module in (helixkit, helix, frenet):
        assert [x for x in moved if hasattr(module, x)] == []
    assert not hasattr(helixkit.FrenetGrid, "fd_curvatures")


@pytest.mark.parametrize("call", [
    lambda: frenet.generalized_cross(np.zeros((2, 3, 3))),
    lambda: frenet.generalized_cross(np.zeros((3, 3))),
    lambda: curve.finite_difference_weights(0.0, [0.0, 1.0], 2),
    lambda: helix.axis_field(helix.HelixFunctions(
        "binormal", np.zeros(16), np.zeros((16, 3)), np.ones(16, bool)), None),
], ids=["cross-count", "cross-shape", "weights", "axis-kind"])
def test_bad_arguments_raise_typed_errors(call):
    with pytest.raises(helixkit.CurveError):
        call()
