"""Seeded inputs and job lists for the helixkit benchmark.

Every workload reads curve and scenario files written here and runs a fixed
list of CLI jobs over them.  The seed changes only numeric constants (circular
helix radius and pitch), geodesic pitch angles and cone headings, the
rotation applied to the sampled E^4 points, and job order.  It never changes
the shape of an expression tree: derivative trees grow with the tree shape,
so a seed that rewrote a formula would change the cost of a job and make
runs with different seeds incomparable.

Run on its own to inspect what a seed produces:

    python3 bench/inputs.py --workload curves --seed 3 --out inputs-seed3
"""

import argparse
import json
import math
import os

import numpy as np

WORKLOADS = ("curves", "indicatrix", "surfaces")

# Unit-speed wave in E^3 whose principal normal keeps cos(theta) = 0.6 with
# e3: T_z = (4/5) cos 3s and T_z' = k N_z with k = -4 sin 3s give N_z = 3/5.
WAVE = ["(2/5)*sin(2*s) - (1/40)*sin(8*s)",
        "-(2/5)*cos(2*s) + (1/40)*cos(8*s)",
        "(4/15)*sin(3*s)"]
WAVE_DOMAIN = [math.pi / 3 + 0.05, 2 * math.pi / 3 - 0.05]

# (cos t, sin t, t^2/2): speed sqrt(1 + t^2), so it is analyzed through an
# arc-length reparametrization; tau/kappa = t (1+t^2)^1.5 / (2+t^2)^1.5 is
# not constant and neither is the slant invariant, so it is no helix.
TILTED = ["cos(s)", "sin(s)", "s^2/2"]
TILTED_DOMAIN = [0.2, 1.5]

CIRCLE = ["2*cos(s/2)", "2*sin(s/2)", "0"]
CIRCLE_DOMAIN = [0.0, 4 * math.pi]

LINE = ["0.6*s", "0.8*s", "0"]
LINE_DOMAIN = [0.0, 2.0]

# E^4 curve with curvatures k1 = -sqrt(3) sin s, k2 = -(3/2) cos s,
# k3 = 1/2.  Its slant recursion closes with G = (sqrt(3) cos s, 1,
# 2 sin s, cos s), so sum G^2 = 5 (cos theta = 1/sqrt(5)) and the axis
# B = sum G_i V_i is constant; with V(s0) = I it equals G(s0)/sqrt(5).
E4_DOMAIN = (math.pi + 0.3, 1.5 * math.pi - 0.3)
E4_STEP = 1e-3

EZ = [0.0, 0.0, 1.0]

CYLINDER = {
    "dim": 3, "parameters": ["u", "w"],
    "components": ["cos(u)", "sin(u)", "w"],
    "domain": [[-12.6, 12.6], [-6.0, 6.0]], "direction": EZ,
}
CONE = {
    "dim": 3, "parameters": ["u", "w"],
    "components": ["w*cos(u)", "w*sin(u)", "w"],
    "domain": [[-6.3, 6.3], [0.3, 4.0]], "direction": EZ,
}
SPHERE = {
    "dim": 3, "parameters": ["u", "w"],
    "components": ["sin(u)*cos(w)", "sin(u)*sin(w)", "cos(u)"],
    "domain": [[0.4, 2.7], [0.0, 6.3]], "direction": EZ,
}

# A cylinder geodesic through (1, 0, 0) at pitch angle a stays within
# |u| <= 1.6 and |w| <= 1.6 for length 1.6, far inside the box; a is kept
# off 0 (a closed circle) and pi/2 (a straight ruling).
CYLINDER_PITCH_RANGES = [(0.25 + 0.15 * i, 0.35 + 0.15 * i) for i in range(5)]
# A cone geodesic from w0 = 1.5 at heading psi (from the circular
# direction) unrolls to a straight line: its distance to the apex stays
# above 1.5*sqrt(2)*|cos psi| and below 1.5*sqrt(2) + 2, so w stays in
# [1.4, 3.0] and u within about +-1.5 for |cos psi| >= 0.9.
CONE_HEADING_RANGES_DEG = [(5.0, 15.0), (20.0, 25.0), (195.0, 205.0)]
CONE_START_W = 1.5


def circular_helix(radius, pitch):
    """Unit-speed (R cos(s/a), R sin(s/a), p s/a), two turns; a = |(R, p)|."""
    a = math.sqrt(radius * radius + pitch * pitch)
    spec = {"dim": 3, "parameter": "s",
            "components": [f"{radius!r}*cos(s/{a!r})",
                           f"{radius!r}*sin(s/{a!r})",
                           f"{pitch!r}*s/{a!r}"],
            "domain": [0.0, 4 * math.pi * a]}
    return spec, {"cos_theta": pitch / a, "axis": EZ}


def _e4_rhs(s, y):
    k1 = -math.sqrt(3.0) * math.sin(s)
    k2 = -1.5 * math.cos(s)
    k3 = 0.5
    K = np.array([[0.0, k1, 0.0, 0.0],
                  [-k1, 0.0, k2, 0.0],
                  [0.0, -k2, 0.0, k3],
                  [0.0, 0.0, -k3, 0.0]])
    V = y[4:].reshape(4, 4)
    return np.concatenate([V[0], (K @ V).ravel()])


def e4_slant_samples():
    """Fixed-step RK4 of the E^4 frame ODE, one sample per step.

    The steps land on the sample points: dense output of an adaptive
    integrator would leave small kinks at its step joints, which the
    order-4 difference stencils of sampled curves amplify.
    """
    s0, s1 = E4_DOMAIN
    svals = np.linspace(s0, s1, int(round((s1 - s0) / E4_STEP)) + 1)
    y = np.concatenate([np.zeros(4), np.eye(4).ravel()])
    points = np.empty((len(svals), 4))
    points[0] = y[:4]
    for i in range(len(svals) - 1):
        s, h = svals[i], svals[i + 1] - svals[i]
        c1 = _e4_rhs(s, y)
        c2 = _e4_rhs(s + 0.5 * h, y + 0.5 * h * c1)
        c3 = _e4_rhs(s + 0.5 * h, y + 0.5 * h * c2)
        c4 = _e4_rhs(s + h, y + h * c3)
        y = y + (h / 6.0) * (c1 + 2.0 * c2 + 2.0 * c3 + c4)
        points[i + 1] = y[:4]
    s0 = svals[0]
    axis = np.array([math.sqrt(3.0) * math.cos(s0), 1.0,
                     2.0 * math.sin(s0), math.cos(s0)]) / math.sqrt(5.0)
    return svals, points, axis


def random_rotation(rng, n):
    """Uniform rotation of E^n (QR of a Gaussian matrix, det fixed to +1)."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def e4_curve(rng):
    svals, points, axis = e4_slant_samples()
    rot = random_rotation(rng, 4)
    rows = np.column_stack([svals, points @ rot.T])
    spec = {"dim": 4, "samples": rows.tolist()}
    return spec, {"cos_theta": 1.0 / math.sqrt(5.0),
                  "axis": (rot @ axis).tolist()}


def _analytic(components, domain):
    return {"dim": len(components), "parameter": "s",
            "components": list(components), "domain": list(domain)}


def cone_tangent(degrees):
    """Unit tangent at (u=0, w0) at the given heading from e_u toward e_w."""
    psi = math.radians(degrees)
    e_u = np.array([0.0, 1.0, 0.0])
    e_w = np.array([1.0, 0.0, 1.0]) / math.sqrt(2.0)
    return (math.cos(psi) * e_u + math.sin(psi) * e_w).tolist()


def scenarios(rng):
    pitches = [float(rng.uniform(lo, hi)) for lo, hi in CYLINDER_PITCH_RANGES]
    headings = [float(rng.uniform(lo, hi))
                for lo, hi in CONE_HEADING_RANGES_DEG]
    cylinder = {"surface": CYLINDER, "geodesics": [
        {"start": [0.0, 0.0], "tangent": [0.0, math.cos(a), math.sin(a)],
         "length": 1.6, "steps": 800} for a in pitches]}
    cone = {"surface": CONE, "geodesics": [
        {"start": [0.0, CONE_START_W], "tangent": cone_tangent(d),
         "length": 2.0, "steps": 1000} for d in headings]}
    sphere = {"surface": SPHERE, "geodesics": [
        {"start": [math.pi / 2.0, 0.0], "tangent": [0.0, 1.0, 0.0],
         "length": 1.2, "steps": 300}]}
    # a geodesic on the unit cylinder at pitch a is a circular helix of
    # curvature cos^2 a bending toward the axis, against the outward normal;
    # a great circle on the unit sphere has lambda = -1
    return {
        "cylinder": (cylinder, {"passed": True, "constant": True,
                                "lambda": [-math.cos(a) ** 2 for a in pitches],
                                "value": 0.0}),
        "cone": (cone, {"passed": True, "constant": True, "lambda": None,
                        "value": -1.0 / math.sqrt(2.0)}),
        "sphere": (sphere, {"passed": False, "constant": False,
                            "geodesic_exit": 2, "lambda": [-1.0],
                            "value": None}),
    }


def curve_inputs(rng):
    """Curve specs plus the closed-form facts the oracle checks them by."""
    r1, p1 = float(rng.uniform(1.0, 4.0)), float(rng.uniform(1.0, 4.0))
    r2, p2 = float(rng.uniform(1.0, 4.0)), float(rng.uniform(1.0, 4.0))
    helix_a, fact_a = circular_helix(r1, p1)
    helix_b, fact_b = circular_helix(r2, p2)
    e4, fact_e4 = e4_curve(rng)
    return {
        "wave": (_analytic(WAVE, WAVE_DOMAIN),
                 {"classification": "slant-helix", "cos_theta": 0.6,
                  "axis": EZ}),
        "helix_a": (helix_a, dict(fact_a, classification="general-helix")),
        "helix_b": (helix_b, dict(fact_b, classification="general-helix")),
        "circle": (_analytic(CIRCLE, CIRCLE_DOMAIN),
                   {"analyze_exit": 2, "planar_normal": EZ}),
        "tilted": (_analytic(TILTED, TILTED_DOMAIN),
                   {"classification": "neither", "axis_exit": 2}),
        "e4": (e4, dict(fact_e4, classification="slant-helix")),
        "line": (_analytic(LINE, LINE_DOMAIN), {"analyze_exit": 2}),
    }


def _job(name, sub, input_name, extra=(), ext="json"):
    return {"id": name, "sub": sub, "input": input_name,
            "args": list(extra), "ext": ext}


def job_list(workload):
    """The fixed job list of a workload, in canonical order."""
    jobs = []
    if workload == "curves":
        for name in ("wave", "helix_a", "helix_b", "circle", "tilted", "e4",
                     "line"):
            jobs.append(_job(f"analyze-json-{name}", "analyze", name))
            jobs.append(_job(f"analyze-csv-{name}", "analyze", name,
                             ["--format", "csv"], "csv"))
            jobs.append(_job(f"plotdata-{name}", "plotdata", name, ext="csv"))
    elif workload == "indicatrix":
        for name in ("wave", "e4"):
            jobs.append(_job(f"indicatrix-json-{name}", "indicatrix", name))
            jobs.append(_job(f"indicatrix-csv-{name}", "indicatrix", name,
                             ["--format", "csv"], "csv"))
            jobs.append(_job(f"axis-{name}", "axis", name))
            jobs.append(_job(f"plotdata-both-{name}", "plotdata", name,
                             ["--both"], "csv"))
        jobs.append(_job("indicatrix-json-tilted", "indicatrix", "tilted"))
        jobs.append(_job("axis-tilted", "axis", "tilted"))
    elif workload == "surfaces":
        for name in ("cylinder", "cone", "sphere"):
            jobs.append(_job(f"geodesic-{name}", "geodesic", name))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return jobs


def generate(workload, seed, out_dir):
    """Write the workload's input files and job list under out_dir.

    Returns (jobs, facts): jobs in seeded order with their argv filled in,
    facts mapping each input name to its closed-form expectations.
    """
    rng = np.random.default_rng(seed)
    curves = curve_inputs(rng)
    surfaces = scenarios(rng)
    jobs = job_list(workload)
    used = {job["input"] for job in jobs}
    inputs = {name: value for name, value in {**curves, **surfaces}.items()
              if name in used}
    os.makedirs(os.path.join(out_dir, "out"), exist_ok=True)
    paths = {}
    for name, (spec, _) in inputs.items():
        paths[name] = os.path.join(out_dir, f"{name}.json")
        with open(paths[name], "w") as fh:
            json.dump(spec, fh)
    facts = {name: dict(fact, spec=spec)
             for name, (spec, fact) in inputs.items()}

    order = rng.permutation(len(jobs))
    jobs = [jobs[i] for i in order]
    for job in jobs:
        out = os.path.join(out_dir, "out", f"{job['id']}.{job['ext']}")
        job["output"] = out
        job["argv"] = ([job["sub"], paths[job["input"]]] + job["args"]
                       + ["--output", out])
    with open(os.path.join(out_dir, "jobs.json"), "w") as fh:
        json.dump(jobs, fh, indent=1)
    return jobs, facts


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory to write")
    args = parser.parse_args()
    jobs, _ = generate(args.workload, args.seed, args.out)
    for job in jobs:
        print(" ".join(job["argv"]))


if __name__ == "__main__":
    main()
