"""The benchmark's tracer against the live code.

bench/tracer.py rebinds helixkit functions and methods by name; a binding
site that the code no longer uses only shows up as a zero counter in a
traced benchmark run.  This runs a traced geodesic job, a traced indicatrix
job and a traced run of curve jobs instead, and checks that each reaches
every metric its benchmark workload requires.
"""

import importlib.util
import json
import math
from pathlib import Path

import numpy as np

import helixkit
from helixkit import cli, curve, expr, frenet, helix, hypersurf
from conftest import CYLINDER_SPEC, synthesize_slant4

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


def _traced(*jobs):
    """Run CLI jobs under one tracer; (exit codes, tracer, rebound keys)."""
    before = _bindings()
    tracer = _load_tracer().Tracer(MODULES)
    tracer.install()
    try:
        rebound = {key for key, value in _bindings().items()
                   if value is not before[key]}
        codes = [cli.main(argv) for argv in jobs]
    finally:
        tracer.uninstall()
    after = _bindings()
    assert all(after[key] is value for key, value in before.items())
    return codes, tracer, rebound


def _assert_exercised(workload, tracer, skip=()):
    # an override of a patched method, or a binding site the code stops
    # using, reads zero here
    bench = _load_tracer()
    metrics = bench.layer_metrics(tracer.spans, tracer.totals())
    for name in bench.EXERCISED[workload]:
        if name not in skip:
            assert metrics[name] > 0, name


def test_traced_geodesic_job_reaches_every_surface_counter(tmp_path):
    scenario = tmp_path / "cylinder.json"
    scenario.write_text(json.dumps({
        "surface": CYLINDER_SPEC,
        "geodesics": [{"start": [0.0, 0.0],
                       "tangent": [0.0, math.cos(0.6), math.sin(0.6)],
                       "length": 1.2, "steps": 200}],
    }))
    codes, tracer, rebound = _traced(["geodesic", str(scenario), "--output",
                                      str(tmp_path / "report.json")])
    assert codes == [0]
    totals = tracer.totals()
    assert totals["expr.scalar_evals"] > 0
    assert totals["hypersurf.point_calls"] > 0
    assert {(expr, "compile_scalar"), (expr, "compile_array"),
            (hypersurf.Hypersurface, "point")} <= rebound
    _assert_exercised("surfaces", tracer)


def test_traced_indicatrix_job_reaches_the_expression_counters(tmp_path):
    # the tilted spiral is not unit speed: its indicatrix is built from
    # differentiated trees and reparametrized through their compiled speed
    spec = tmp_path / "tilted.json"
    spec.write_text(json.dumps({"dim": 3, "components": ["cos(s)", "sin(s)",
                                                         "s^2/2"],
                                "domain": [0.2, 1.5]}))
    codes, tracer, _ = _traced(["indicatrix", str(spec), "--format", "csv",
                                "--output", str(tmp_path / "beta.csv")])
    assert codes == [0]
    _assert_exercised("indicatrix", tracer)


def test_traced_curve_jobs_reach_every_curve_metric(tmp_path):
    # the sampled E^4 slant helix takes the Fornberg stencils, the planar
    # circle has degenerate frames, and the tilted spiral is reparametrized
    e4 = synthesize_slant4()[0]
    specs = {
        "e4": {"dim": 4, "samples": np.column_stack([e4.params,
                                                      e4.points]).tolist()},
        "circle": {"dim": 3, "components": ["2*cos(s/2)", "2*sin(s/2)", "0"],
                   "domain": [0.0, 4 * math.pi]},
        "tilted": {"dim": 3, "components": ["cos(s)", "sin(s)", "s^2/2"],
                   "domain": [0.2, 1.5]},
    }
    paths = {}
    for name, spec in specs.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(spec))
    jobs = [["analyze", str(paths[name]), "--output",
             str(tmp_path / f"{name}-report.json")] for name in specs]
    jobs.append(["plotdata", str(paths["tilted"]), "--output",
                 str(tmp_path / "tilted.csv")])
    codes, tracer, _ = _traced(*jobs)
    # the circle's analysis is degenerate (exit 2)
    assert codes == [0, 2, 0, 0]
    # cli.output_bytes is the benchmark driver's count, not the tracer's
    _assert_exercised("curves", tracer, skip={"cli.output_bytes"})
