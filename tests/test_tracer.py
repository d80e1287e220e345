"""The benchmark's tracer against the live code.

bench/tracer.py rebinds helixkit functions and methods by name; a binding
site that the code no longer uses only shows up as a zero counter in a
traced benchmark run.  This runs one traced geodesic job and one traced
indicatrix job instead.
"""

import importlib.util
import json
import math
from pathlib import Path

import helixkit
from helixkit import cli, curve, expr, frenet, helix, hypersurf
from conftest import CYLINDER_SPEC

MODULES = [helixkit, expr, curve, frenet, helix, hypersurf, cli]


def _load_tracer():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    """Every name bound in the modules and in the classes they define."""
    owners = MODULES + [value for module in MODULES
                        for value in vars(module).values()
                        if isinstance(value, type)
                        and value.__module__.startswith("helixkit")]
    return {(owner, name): value for owner in owners
            for name, value in vars(owner).items()}


def _traced(argv):
    """Run one CLI job under the tracer; (exit code, tracer, rebound keys)."""
    before = _bindings()
    tracer = _load_tracer().Tracer(MODULES)
    tracer.install()
    try:
        rebound = {key for key, value in _bindings().items()
                   if value is not before[key]}
        code = cli.main(argv)
    finally:
        tracer.uninstall()
    after = _bindings()
    assert all(after[key] is value for key, value in before.items())
    return code, tracer, rebound


def test_traced_geodesic_job_reaches_every_surface_counter(tmp_path):
    scenario = tmp_path / "cylinder.json"
    scenario.write_text(json.dumps({
        "surface": CYLINDER_SPEC,
        "geodesics": [{"start": [0.0, 0.0],
                       "tangent": [0.0, math.cos(0.6), math.sin(0.6)],
                       "length": 1.2, "steps": 200}],
    }))
    code, tracer, rebound = _traced(["geodesic", str(scenario), "--output",
                                     str(tmp_path / "report.json")])
    assert code == 0
    totals = tracer.totals()
    assert totals["expr.scalar_evals"] > 0
    assert totals["hypersurf.point_calls"] > 0
    assert {(expr, "compile_scalar"), (expr, "compile_array"),
            (hypersurf.Hypersurface, "point")} <= rebound
    # an override of a patched method, or a binding site the code stops
    # using, reads zero here
    bench = _load_tracer()
    metrics = bench.layer_metrics(tracer.spans, totals)
    for name in bench.EXERCISED["surfaces"]:
        assert metrics[name] > 0, name


def test_traced_indicatrix_job_reaches_the_expression_counters(tmp_path):
    # the tilted spiral is not unit speed: its indicatrix is built from
    # differentiated trees and reparametrized through their compiled speed
    spec = tmp_path / "tilted.json"
    spec.write_text(json.dumps({"dim": 3, "components": ["cos(s)", "sin(s)",
                                                         "s^2/2"],
                                "domain": [0.2, 1.5]}))
    code, tracer, _ = _traced(["indicatrix", str(spec), "--format", "csv",
                               "--output", str(tmp_path / "beta.csv")])
    assert code == 0
    totals = tracer.totals()
    for key in ("expr.differentiate", "expr.compile", "expr.compiled_nodes"):
        assert totals.get(key, 0) > 0, key
    assert any(name == "curve.reparam" and end > start
               for name, start, end, _, _ in tracer.spans)
