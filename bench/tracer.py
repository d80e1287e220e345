"""Spans and counters around the calls into each helixkit layer.

The tracer wraps public functions and methods from outside the package: a
module-level function is replaced at every binding site (the defining module
and every module that imported it by name), a method on its defining class.
Nothing in helixkit is edited; uninstall() puts every original back, so
untraced rounds run the unmodified code.

A span records name, start, end, parent span and job id.  A call made while
a span of the same name is open (recursion, or a jet_grid delegating to its
source curve) is part of that span and records nothing, so counts are
top-level calls.  Hot helpers (finite-difference weights, surface point,
Jacobian and normal evaluations, generalized cross products, and the scalar
callables compile_scalar returns) are only counted.
"""

import json
import statistics
import time

import numpy as np

# counts that must repeat exactly between traced runs with the same seed
EXACT_COUNTS = ("expr.compiled_nodes", "curve.fd_weight_calls",
                "hypersurf.normal_calls", "helix.indicatrix_builds")

# metric -> how it is measured; "incl" is the summed duration of the named
# spans, "self" the same minus the time covered by their child spans
_TIMES = {
    "expr.differentiate_ms": ("incl", "expr.differentiate"),
    "expr.compile_ms": ("incl", "expr.compile"),
    "curve.construct_ms": ("incl", "curve.construct"),
    "curve.reparam_ms": ("incl", "curve.reparam"),
    "curve.jet_grid_ms": ("incl", "curve.jet_grid"),
    "frenet.grid_ms": ("self", "frenet.grid"),
    "helix.classify_ms": ("self", "helix.classify"),
    "helix.slant_fit_ms": ("incl", "helix.slant_fit"),
    "helix.general_ms": ("incl", "helix.general"),
    "helix.axis_field_ms": ("incl", "helix.axis_field"),
    "helix.indicatrix_ms": ("incl", "helix.indicatrix"),
    "hypersurf.geodesic_ms": ("self", "hypersurf.geodesic"),
    "hypersurf.surface_gate_ms": ("incl", "hypersurf.surface_gate"),
    "hypersurf.verify_ms": ("incl", "hypersurf.verify"),
    "cli.self_ms": ("self", "cli.main"),
}

_COUNTS = {
    "expr.differentiate_calls": "expr.differentiate",
    "expr.compile_calls": "expr.compile",
    "expr.compiled_nodes": "expr.compiled_nodes",
    "expr.scalar_evals": "expr.scalar_evals",
    "curve.jet_grid_rows": "curve.jet_grid_rows",
    "curve.fd_weight_calls": "curve.fd_weight_calls",
    "frenet.samples": "frenet.samples",
    "frenet.degenerate_samples": "frenet.degenerate_samples",
    "frenet.cross_calls": "frenet.cross_calls",
    "helix.indicatrix_builds": "helix.indicatrix",
    "hypersurf.geodesic_steps": "hypersurf.geodesic_steps",
    "hypersurf.normal_calls": "hypersurf.normal_calls",
    "hypersurf.jacobian_calls": "hypersurf.jacobian_calls",
}

# which workload must show each metric as nonzero
EXERCISED = {
    "curves": ("curve.construct_ms", "curve.reparam_ms", "curve.jet_grid_ms",
               "curve.jet_grid_rows", "curve.fd_weight_calls",
               "frenet.grid_ms", "frenet.samples",
               "frenet.degenerate_samples", "frenet.cross_calls",
               "helix.classify_ms", "helix.slant_fit_ms", "helix.general_ms",
               "helix.axis_field_ms", "cli.self_ms", "cli.output_bytes"),
    "indicatrix": ("expr.differentiate_calls", "expr.differentiate_ms",
                   "expr.compile_calls", "expr.compile_ms",
                   "expr.compiled_nodes", "curve.reparam_ms",
                   "helix.indicatrix_ms", "helix.indicatrix_builds"),
    "surfaces": ("expr.scalar_evals", "curve.jet_grid_ms",
                 "curve.fd_weight_calls", "frenet.cross_calls",
                 "hypersurf.geodesic_ms", "hypersurf.geodesic_steps",
                 "hypersurf.step_us", "hypersurf.normal_calls",
                 "hypersurf.jacobian_calls", "hypersurf.point_calls_per_step",
                 "hypersurf.surface_gate_ms", "hypersurf.verify_ms"),
}


def tree_nodes(e):
    """Node count of an expression tree, shared subtrees counted each time."""
    n = 0
    stack = [e]
    while stack:
        node = stack.pop()
        n += 1
        for name in ("arg", "left", "right", "base"):
            child = getattr(node, name, None)
            if child is not None and not isinstance(child, (str, float)):
                stack.append(child)
    return n


class Tracer:
    """Spans and counters for one traced round, kept in memory."""

    def __init__(self, helixkit_modules):
        self.modules = helixkit_modules
        self.spans = []       # [name, start, end, parent index, job id]
        self.counts = {}
        self.job = None
        self._stack = []
        self._open = {}
        self._undo = []
        self._cells = {}      # hot-path counters, one list cell per key

    # ----------------------------------------------------------- recording

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def _spanned(self, name, fn, after=None):
        """Wrap fn in a span; after(result, args) adds counts on return."""
        spans, stack, is_open = self.spans, self._stack, self._open

        def wrapper(*args, **kwargs):
            if is_open.get(name):
                return fn(*args, **kwargs)
            self.count(name)
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else None, self.job]
            spans.append(record)
            stack.append(index)
            is_open[name] = True
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                is_open[name] = False
                stack.pop()
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def _counted(self, key, fn):
        cell = self._cells.setdefault(key, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def totals(self):
        """Every count, including the hot-path ones."""
        return dict(self.counts, **{k: c[0] for k, c in self._cells.items()})

    # ------------------------------------------------------------ patching

    def _rebind(self, original, replacement):
        """Replace a function at every helixkit module that binds it."""
        for module in self.modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, replacement)

    def _patch_method(self, cls, attr, replacement):
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def install(self):
        from helixkit import cli, curve, expr, frenet, helix, hypersurf

        self._rebind(expr.differentiate,
                     self._spanned("expr.differentiate", expr.differentiate))

        def compiled(result, args):
            nodes = tree_nodes(args[0])
            self.count("expr.compiled_nodes", nodes)
            self.counts["expr.largest_tree"] = max(
                nodes, self.counts.get("expr.largest_tree", 0))

        scalar = self._spanned("expr.compile", expr.compile_scalar, compiled)

        def compile_scalar(*args, **kwargs):
            return self._counted("expr.scalar_evals", scalar(*args, **kwargs))

        self._rebind(expr.compile_scalar, compile_scalar)
        self._rebind(expr.compile_array,
                     self._spanned("expr.compile", expr.compile_array,
                                   compiled))

        for cls in (curve.AnalyticCurve, curve.SampledCurve):
            self._patch_method(cls, "__init__", self._spanned(
                "curve.construct", cls.__dict__["__init__"]))

        def rows(result, args):
            self.count("curve.jet_grid_rows", int(np.size(args[1])))

        for cls in (curve.Curve, curve.AnalyticCurve,
                    curve.ReparametrizedCurve):
            self._patch_method(cls, "jet_grid", self._spanned(
                "curve.jet_grid", cls.__dict__["jet_grid"], rows))
            self._patch_method(cls, "point_grid", self._spanned(
                "curve.point_grid", cls.__dict__["point_grid"]))
        self._rebind(curve.arclength_reparametrize, self._spanned(
            "curve.reparam", curve.arclength_reparametrize))
        self._rebind(curve.finite_difference_weights, self._counted(
            "curve.fd_weight_calls", curve.finite_difference_weights))

        def grid(result, args):
            self.count("frenet.samples", len(result))
            self.count("frenet.degenerate_samples",
                       int(np.count_nonzero(result.degenerate_ranks)))

        self._rebind(frenet.frenet_grid,
                     self._spanned("frenet.grid", frenet.frenet_grid, grid))
        self._rebind(frenet.generalized_cross, self._counted(
            "frenet.cross_calls", frenet.generalized_cross))

        for fn, name in ((helix.classify, "helix.classify"),
                         (helix.slant_functions, "helix.slant_fit"),
                         (helix.general_functions, "helix.general"),
                         (helix.axis_field, "helix.axis_field"),
                         (helix.tangent_indicatrix, "helix.indicatrix")):
            self._rebind(fn, self._spanned(name, fn))

        def steps(result, args):
            self.count("hypersurf.geodesic_steps", len(result) - 1)

        self._rebind(hypersurf.geodesic, self._spanned(
            "hypersurf.geodesic", hypersurf.geodesic, steps))
        self._rebind(hypersurf.is_helix_surface, self._spanned(
            "hypersurf.surface_gate", hypersurf.is_helix_surface))
        self._rebind(hypersurf.verify_geodesic_theorems, self._spanned(
            "hypersurf.verify", hypersurf.verify_geodesic_theorems))
        surface = hypersurf.Hypersurface
        self._patch_method(surface, "__init__", self._spanned(
            "hypersurf.construct", surface.__dict__["__init__"]))
        for attr in ("normal", "jacobian", "point"):
            self._patch_method(surface, attr, self._counted(
                f"hypersurf.{attr}_calls", surface.__dict__[attr]))

        self._rebind(cli.main, self._spanned("cli.main", cli.main))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------- results

    def write(self, fh, round_name):
        """Write every span as a JSON line; parent is an index in the round."""
        for name, start, end, parent, job in self.spans:
            fh.write(json.dumps({"round": round_name, "name": name,
                                 "start": start, "end": end,
                                 "parent": parent, "job": job}) + "\n")


def layer_metrics(spans, counts):
    """Per-layer metrics of one traced round from its spans and counts."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    incl, own = {}, {}
    for i, (name, start, end, _, _) in enumerate(spans):
        incl[name] = incl.get(name, 0.0) + (end - start)
        own[name] = own.get(name, 0.0) + (end - start - child[i])
    out = {}
    for metric, (kind, name) in _TIMES.items():
        out[metric] = 1e3 * (incl if kind == "incl" else own).get(name, 0.0)
    for metric, key in _COUNTS.items():
        out[metric] = counts.get(key, 0)
    steps = counts.get("hypersurf.geodesic_steps", 0)
    out["hypersurf.step_us"] = (1e6 * incl.get("hypersurf.geodesic", 0.0)
                                / steps if steps else 0.0)
    out["hypersurf.point_calls_per_step"] = (
        counts.get("hypersurf.point_calls", 0) / steps if steps else 0.0)
    return out


def baseline_metrics(spans, jobs):
    """Baseline timings of single pipeline stages, from single jobs' spans.

    jobs maps a job id to its job dict.  Each reading is the median over
    the matching spans; a stage the workload does not run reads 0.
    """
    def median_ms(name, sub=None, input_name=None, parent=None):
        found = []
        for span_name, start, end, parent_index, job in spans:
            if span_name != name or job is None:
                continue
            info = jobs[job]
            if sub is not None and info["sub"] != sub:
                continue
            if input_name is not None and info["input"] != input_name:
                continue
            if parent is not None and (parent_index is None
                                       or spans[parent_index][0] != parent):
                continue
            found.append(1e3 * (end - start))
        return statistics.median(found) if found else 0.0

    return {
        "baseline.indicatrix_tilted_ms": median_ms(
            "helix.indicatrix", "indicatrix", "tilted"),
        "baseline.reparam_tilted_ms": median_ms(
            "curve.reparam", "analyze", "tilted", "helix.classify"),
        "baseline.classify_e4_ms": median_ms(
            "helix.classify", "analyze", "e4"),
        "baseline.geodesic_cylinder_ms": median_ms(
            "hypersurf.geodesic", "geodesic", "cylinder"),
        "baseline.surface_gate_ms": median_ms("hypersurf.surface_gate"),
    }

