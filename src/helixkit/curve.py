"""Curves in E^n and their derivative jets.

Two representations: analytic (one closed-form expression per coordinate,
whose jets come from truncated Taylor arithmetic, `expr.taylor`) and sampled
(ordered points with strictly increasing parameter values, differentiated by
finite-difference stencils on the sample nodes).  The primitive is
`jet_grid`, derivatives 1..order on an array of parameter values as one
(m, order, dim) array, which feeds the frame computation; the `jet` and
`point` methods are one row of the grids.  A jet grid raises `CurveError`
for an order below 1 and at the first parameter where a derivative comes
out inf or nan.  Each representation also builds its own unit tangent over
a sub-interval of its parameter (`_unit_tangent`), the curve that
`helix.tangent_indicatrix` reparametrizes into the tangent indicatrix.

Analytic and sampled curves carry a measured `unit_speed` flag, never taken
from input metadata: an analytic curve's is established on a 1000-point
verification grid at construction (to roundoff), a sampled curve's at its
own samples (to 1e-4).  `arclength_reparametrize` converts any regular
curve to unit speed, flagged so by construction, and is a no-op on curves
that already are; only `frenet_grid` and `frenet_at` require one.
"""

import json
import math
import os
import sys

import numpy as np

from . import expr
from .errors import (
    CurveError, CurveFormatError, DegenerateCurveError, NonRegularCurveError,
)

__all__ = [
    "Curve", "AnalyticCurve", "SampledCurve", "ReparametrizedCurve",
    "arclength_reparametrize", "load_curve", "finite_difference_weights",
]

# a roundoff bound: a speed error above it would reach every curvature
UNIT_SPEED_TOL_ANALYTIC = 1e-14
UNIT_SPEED_TOL_SAMPLED = 1e-4
EPS_REGULAR = 1e-10

_VERIFY_GRID = 1000

# arc-length table panels: the cubic Hermite inverse needs this many for 2e-15
_PANELS = 4096


def finite_difference_weights(x0, nodes, maxorder):
    """Weights for derivatives 0..maxorder at x0 from values on `nodes`.

    Fornberg's recursive construction on arbitrary (distinct) nodes, more
    of them than maxorder (CurveError otherwise); row k dotted with the
    function values gives the k-th derivative at x0, and it is the same to
    the bit for any maxorder >= k.  It broadcasts over leading axes: x0
    (...) and nodes (..., w) give C-contiguous weights (..., maxorder+1, w),
    bit for bit those of one point at a time.
    """
    x = np.asarray(nodes, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    n = x.shape[-1]
    if maxorder >= n:
        raise CurveError("need more nodes than derivative order")
    lead = np.broadcast_shapes(x0.shape, x.shape[:-1])
    # the recurrence runs on (order, node, *points): the points, on the last
    # axis, are contiguous in every update
    x = np.moveaxis(np.broadcast_to(x, lead + (n,)), -1, 0)
    w = np.zeros((maxorder + 1, n) + lead)
    w[0, 0] = 1.0
    c1 = np.ones(lead)
    c4 = x[0] - x0
    for i in range(1, n):
        mn = min(i, maxorder)
        k = np.arange(1.0, mn + 1.0).reshape((mn,) + (1,) * len(lead))
        c3 = x[i] - x[:i]
        c2 = np.ones(lead)
        for j in range(i):
            c2 = c2 * c3[j]
        c5 = c4
        c4 = x[i] - x0
        # column i comes from column i-1 before that column is updated
        prev = w[:, i - 1]
        w[1:mn + 1, i] = c1 * (k * prev[:mn] - c5 * prev[1:mn + 1]) / c2
        w[0, i] = -c1 * c5 * prev[0] / c2
        w[1:mn + 1, :i] = (c4 * w[1:mn + 1, :i] - k[:, None] * w[:mn, :i]) / c3
        w[0, :i] = c4 * w[0, :i] / c3
        c1 = c2
    # a moved-axes view would change how matmul sums the rows
    return np.ascontiguousarray(np.moveaxis(w, (0, 1), (-2, -1)))


class Curve:
    """Common interface; a subclass overrides the grids or `_derivatives`."""

    dim: int
    domain: tuple
    unit_speed: bool
    unit_speed_error: float
    exact_jets = False      # jets exact to roundoff, not stencils on samples

    def point(self, s):
        """The point at s: a one-row slice of `point_grid`."""
        return self.point_grid([s])[0]

    def jet(self, s, order):
        """Derivatives 1..order at s, (order, dim): one row of `jet_grid`."""
        return self.jet_grid([s], order)[0]

    def jet_grid(self, svals, order):
        """Derivatives 1..order at each of svals; shape (m, order, dim)."""
        _check_order(order)
        svals = self._grid(svals)
        # an inf or nan stencil is reported below, not warned about
        with np.errstate(all="ignore"):
            rows = self._derivatives(svals, range(1, order + 1))
        return _finite(np.stack(rows, axis=1), svals, "s", "derivative")

    def point_grid(self, svals):
        """Points at each of svals; shape (m, dim)."""
        return self._derivatives(self._grid(svals), [0])[0]

    def _derivatives(self, svals, orders):
        """The k-th derivative (k = 0: the point) at each of svals, (m, dim),
        for each k of orders."""
        raise NotImplementedError

    def length(self):
        """The domain's length, for a unit-speed curve; others override."""
        if not self.unit_speed:
            raise CurveError(f"no length for {type(self).__name__}")
        return self.domain[1] - self.domain[0]

    def _unit_tangent(self, a, b):
        """The unit tangent over [a, b] of the parameter, as a curve; each
        representation builds its own."""
        raise DegenerateCurveError(
            f"cannot build an indicatrix for {type(self).__name__}")

    def _grid(self, svals):
        """svals as a float array; raises unless every value is in the domain."""
        svals = np.asarray(svals, dtype=float)
        a, b = self.domain
        tol = 1e-9 * max(1.0, abs(a), abs(b))
        bad = svals[~((svals >= a - tol) & (svals <= b + tol))]  # NaN too
        if bad.size:
            raise CurveError(f"parameter {bad[0]} outside domain [{a}, {b}]")
        return svals

    def _measure_unit_speed(self, d1, tol):
        """Set the flag from velocities d1 (m, dim): max |speed - 1| <= tol."""
        err = float(np.max(np.abs(np.linalg.norm(d1, axis=1) - 1.0)))
        self.unit_speed_error = err
        self.unit_speed = err <= tol


class AnalyticCurve(Curve):
    """Curve given by closed-form coordinate expressions in one parameter.

    `velocity` holds the expressions of the first derivative and `speed`
    evaluates |alpha'(t)| over an array of parameter values.
    """

    exact_jets = True

    def __init__(self, components, domain, parameter="s"):
        comps = []
        for c in components:
            comps.append(c if isinstance(c, expr.Expression)
                         else expr.parse(c, variables=(parameter,)))
        if len(comps) < 2:
            raise CurveError("need at least 2 components")
        a, b = float(domain[0]), float(domain[1])
        if not (math.isfinite(a) and math.isfinite(b) and a < b):
            raise CurveError(f"bad domain [{a}, {b}]")
        self.components = tuple(comps)
        self._numbering = expr.ValueNumbering(comps)
        self.dim = len(comps)
        self.domain = (a, b)
        self.parameter = parameter
        self.velocity = tuple(expr.differentiate(e, parameter) for e in comps)
        self.speed = expr.compile_array(self.speed_expression(), (parameter,))
        grid = np.linspace(a, b, _VERIFY_GRID)
        self._measure_unit_speed(self.jet_grid(grid, 1)[:, 0],
                                 UNIT_SPEED_TOL_ANALYTIC)

    def _coefficients(self, series, order):
        """Taylor coefficients 0..order of the coordinates, (order+1, m, dim).

        `series` holds the normalized Taylor coefficients of the parameter
        along the path of evaluation, as `expr.taylor` takes them; one pass
        serves every coordinate.  Unchecked: inf or nan, and no warning.
        """
        return self._numbering.taylor({self.parameter: series}, order)

    def jet_grid(self, svals, order):
        _check_order(order)
        svals = self._grid(svals)
        return _jets(self._coefficients([svals, 1.0], order), svals,
                     self.parameter)

    def point_grid(self, svals):
        svals = self._grid(svals)
        return _finite(self._coefficients([svals], 0)[0], svals,
                       self.parameter, "point")

    def speed_expression(self):
        total = None
        for e in self.velocity:
            p = expr.Pow(e, 2.0)
            total = p if total is None else expr.Add(total, p)
        return expr.Call("sqrt", total)

    def _unit_tangent(self, a, b):
        """The velocity over [a, b], divided by the speed unless unit speed."""
        velocity = self.velocity
        if not self.unit_speed:
            v = self.speed_expression()
            velocity = tuple(expr.Div(e, v) for e in velocity)
        return AnalyticCurve(velocity, (a, b), self.parameter)

    def length(self):
        """Total of the arc-length table; raises as the reparametrization."""
        return float(_arc_length_table(self)[2][-1])


def _check_order(order):
    """CurveError unless a jet of this order has a derivative to hold."""
    if order < 1:
        raise CurveError("jet order must be >= 1")


def _jets(coeffs, svals, name):
    """Derivatives 1..order at svals, (m, order, dim), from Taylor coefficients."""
    order = coeffs.shape[0] - 1
    factorials = np.cumprod(np.arange(1.0, order + 1.0))
    out = np.moveaxis(coeffs[1:] * factorials[:, None, None], 0, 1)
    return _finite(out, svals, name, "derivative")


def _finite(rows, svals, name, what, error=CurveError):
    """rows; an error naming the parameter `name` at the first bad row."""
    finite = np.isfinite(rows).all(axis=tuple(range(1, rows.ndim)))
    if not finite.all():
        s = svals[int(np.argmin(finite))]
        raise error(f"non-finite {what} at {name}={s:.6g}")
    return rows


def _regular(v, t):
    """NonRegularCurveError at the first t where speed v is not finite or low."""
    _finite(v, t, "t", "speed", NonRegularCurveError)
    if np.min(v) < EPS_REGULAR:
        i = int(np.argmin(v))
        raise NonRegularCurveError(
            f"speed {v[i]:.3e} at t={t[i]:.6g} below {EPS_REGULAR}")


def _arc_length_table(source):
    """[v, 1/v] numbered once for the speed v of an analytic curve; from one
    order-2 Taylor pass of it, the table nodes t, the arc length at each and
    1/v there.  Each panel of width h gets the two-point Hermite rule, exact
    to degree 5 in the normalized coefficients c (Davis & Rabinowitz, 2.9):
    h/2 (v0 + v1) + h^2/10 (c1_0 - c1_1) + h^3/60 (c2_0 + c2_1).
    """
    v = source.speed_expression()
    numbering = expr.ValueNumbering([v, expr.Div(expr.Const(1.0), v)])
    t = np.linspace(*source.domain, _PANELS + 1)
    coeffs = numbering.taylor({source.parameter: [t, 1.0]}, 2)
    c = coeffs[..., 0]
    _regular(c[0], t)
    _finite(c[1:].T, t, "t", "speed derivative", NonRegularCurveError)
    h = np.diff(t)
    panels = h * ((c[0, :-1] + c[0, 1:]) / 2 + h * ((c[1, :-1] - c[1, 1:]) / 10
                  + h * (c[2, :-1] + c[2, 1:]) / 60))
    # sums within blocks of 64, then over block totals: error ~ 64, not 4096
    blocks = panels.reshape(-1, 64)
    S = np.cumsum(blocks, axis=1)
    S[1:] += np.cumsum(blocks.sum(axis=1))[:-1, None]
    return numbering, t, np.concatenate([[0.0], S.ravel()]), coeffs[0, :, 1]


# windows for sampled-curve stencils: 5 nodes covers d1/d2, 7 covers d3/d4
_WINDOW = {0: 5, 1: 5, 2: 5, 3: 7, 4: 7}


class SampledCurve(Curve):
    """Curve given by sample points at strictly increasing parameter values.

    Derivatives come from polynomial stencils on nearby samples.  The stencil
    stride widens with derivative order: the k-th derivative divides by h^k,
    so reading adjacent samples at fine spacing amplifies roundoff; spacing
    the stencil nodes ~eps^(1/(k+4)) apart balances truncation against noise.
    Orders above 4 are not supported; use an analytic curve for n >= 5.

    `velocities` (read-only, one row per sample) holds the first derivative
    at every sample, taken once at construction; the unit-speed flag, the
    length and the arc-length and indicatrix constructions read it.
    """

    def __init__(self, params, points):
        params = np.asarray(params, dtype=float)
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or params.ndim != 1 or len(params) != len(points):
            raise CurveError("need parallel arrays of parameters and points")
        n = points.shape[1]
        if n < 2:
            raise CurveError("need at least 2 coordinates")
        if len(params) < 2 * (n + 2):
            raise CurveError(
                f"need at least {2 * (n + 2)} samples for dimension {n}")
        if not np.all(np.diff(params) > 0):
            raise CurveError("parameter values must be strictly increasing")
        if not (np.all(np.isfinite(params)) and np.all(np.isfinite(points))):
            raise CurveError("non-finite sample data")
        self.params = params
        self.points = points
        self.dim = n
        self.domain = (float(params[0]), float(params[-1]))
        self._h_med = float(np.median(np.diff(params)))
        self.velocities = self.jet_grid(params, 1)[:, 0]
        self.velocities.flags.writeable = False
        self._measure_unit_speed(self.velocities, UNIT_SPEED_TOL_SAMPLED)

    def _derivatives(self, svals, orders):
        # one Fornberg pass per distinct stencil, at its largest order
        groups = {}
        for k in orders:
            groups.setdefault(self._stencil(k), []).append(k)
        m = len(self.params)
        out = {}
        for (w, stride), ks in groups.items():
            # every point's stencil at once, shifted inwards at the ends
            span = (w - 1) * stride
            first = (np.searchsorted(self.params, svals, side="left")
                     - (w // 2) * stride)
            first = np.maximum(np.minimum(first, m - 1 - span), 0)
            idx = first[..., None] + stride * np.arange(w)
            weights = finite_difference_weights(svals, self.params[idx],
                                                max(ks))
            points = self.points[idx]
            # matmul adds up each row as a one-point dot does; einsum does not
            for k in ks:
                out[k] = np.matmul(weights[..., k, None, :], points)[..., 0, :]
        return [out[k] for k in orders]

    def _stencil(self, k):
        """Window and node stride of the k-th derivative's stencils."""
        if k not in _WINDOW:
            raise CurveError(
                "sampled curves support derivatives up to order 4; "
                "use an analytic curve for higher order")
        stride = 1
        if k:
            h_target = np.finfo(float).eps ** (1.0 / (k + 4))
            stride = max(1, min(int(round(h_target / self._h_med)),
                                (len(self.params) - 1) // (_WINDOW[k] - 1)))
        return _WINDOW[k], stride

    def _unit_tangent(self, a, b):
        """The normalized velocities at the samples in [a, b]."""
        keep = (self.params >= a) & (self.params <= b)
        rows = self.velocities[keep]
        return SampledCurve(self.params[keep],
                            rows / np.linalg.norm(rows, axis=1, keepdims=True))

    def length(self):
        speeds = np.linalg.norm(self.velocities, axis=1)
        return float(np.trapezoid(speeds, self.params))


class ReparametrizedCurve(Curve):
    """Arc-length reparametrization of an analytic curve.

    Keeps the source curve, one numbering of its speed v and 1/v, and the
    arc lengths S_i at nodes t_i from one Taylor pass of it.  The inverse
    t(s) is the cubic Hermite interpolant of that table with the exact
    slopes t'(S_i) = 1/v(t_i); jets evaluate the source along the Taylor
    series of t(s), built order by order from t' = 1/v(t): exact to roundoff.
    """

    exact_jets = True

    def __init__(self, source: AnalyticCurve):
        self.source = source
        self.dim = source.dim
        self.parameter = source.parameter
        (self._speed, self._t_nodes, self._s_nodes,
         self._slopes) = _arc_length_table(source)
        self.total_length = float(self._s_nodes[-1])
        self.domain = (0.0, self.total_length)
        # every jet takes t'(s) = 1/v(t) from the same [v, 1/v] numbering,
        # so |d1| = |c1|/v is 1 up to rounding: there is nothing to measure
        self.unit_speed = True

    def parameter_of_arclength(self, s):
        """Source parameter t at arc length s, clipped to the source domain.

        On the table panel [S_i, S_{i+1}] holding s, the cubic Hermite
        interpolant of t_i, t_{i+1} with slopes 1/v_i, 1/v_{i+1}.
        """
        s = np.asarray(s, dtype=float)
        S, tn, slope = self._s_nodes, self._t_nodes, self._slopes
        i = np.clip(np.searchsorted(S, s) - 1, 0, len(S) - 2)
        h = S[i + 1] - S[i]
        u = (s - S[i]) / h
        t = ((1 - u) ** 2 * ((1 + 2 * u) * tn[i] + u * h * slope[i])
             + u ** 2 * ((3 - 2 * u) * tn[i + 1] + (u - 1) * h * slope[i + 1]))
        a, b = self.source.domain
        return np.clip(t, a, b)

    def jet_grid(self, svals, order):
        _check_order(order)
        svals = self._grid(svals)
        t = [self.parameter_of_arclength(svals)]
        series = expr.TaylorSeries(self._speed, {self.parameter: []})
        for k in range(1, order + 1):
            # the k-th coefficient of t(s) needs only t_0..t_{k-1}
            series.extend([t[k - 1]])
            t.append(series.coefficients[1][k - 1] / k)
        return _jets(self.source._coefficients(t, order), svals, "s")

    def point_grid(self, svals):
        t = self.parameter_of_arclength(self._grid(svals))
        return self.source.point_grid(t)

    def _unit_tangent(self, a, b):
        """The source's unit tangent over the source parameters of arc
        lengths a and b.  The source of `arclength_reparametrize` is never
        unit speed; over a unit-speed source the velocity stays undivided."""
        t0, t1 = self.parameter_of_arclength([a, b])
        return self.source._unit_tangent(float(t0), float(t1))


def arclength_reparametrize(c: Curve) -> Curve:
    """Return a unit-speed version of the curve (the curve itself if already).

    Analytic curves get a Hermite-rule arc-length table with a Hermite
    inverse, sampled curves cumulative arc length.  NonRegularCurveError
    where the speed is below 1e-10 or (v', v'' too if analytic) not finite.
    """
    if c.unit_speed:
        return c
    if isinstance(c, AnalyticCurve):
        return ReparametrizedCurve(c)
    if isinstance(c, SampledCurve):
        speeds = np.linalg.norm(c.velocities, axis=1)
        _regular(speeds, c.params)
        s = np.concatenate([[0.0],
                            np.cumsum(np.diff(c.params)
                                      * 0.5 * (speeds[1:] + speeds[:-1]))])
        out = SampledCurve(s, c.points)
        out.unit_speed = True   # the trapezoid's O(h^2) error may pass 1e-4
        return out
    raise CurveError(f"cannot reparametrize {type(c).__name__}")


def load_curve(source) -> Curve:
    """Build a curve from a spec dict, a JSON string, or a file path.

    Analytic: {"dim": n, "parameter": "s", "components": [...], "domain": [a, b]}
    Sampled:  {"dim": n, "samples": [[t, x1, .., xn], ...]}

    Every number is read by `_numbers`; a bad field raises CurveFormatError.
    """
    data = _load_json(source)
    if not isinstance(data, dict):
        raise CurveFormatError("curve spec must be a JSON object")
    dim = _spec_dim(data, "curve")

    if "components" in data:
        comps = _strings(data["components"],
                         f'"components" must list {dim} expressions', dim)
        domain = _numbers(data.get("domain"),
                          '"domain" must be [a, b] of finite numbers', (2,))
        parameter = data.get("parameter", "s")
        if not isinstance(parameter, str):
            raise CurveFormatError('"parameter" must be a string')
        try:
            return AnalyticCurve(comps, domain, parameter)
        except (CurveError, expr.ExprParseError) as exc:
            raise CurveFormatError(f"bad analytic curve: {exc}") from exc

    if "samples" in data:
        arr = _numbers(data["samples"], f'"samples" must be rows '
                       f'[t, x1..x{dim}] of finite numbers', (None, dim + 1))
        try:
            return SampledCurve(arr[:, 0], arr[:, 1:])
        except CurveError as exc:
            raise CurveFormatError(f"bad sampled curve: {exc}") from exc

    raise CurveFormatError(
        'curve spec needs either "components"/"domain" or "samples"')


def _spec_dim(data, kind):
    """A spec's "dim"; int() alone would take 3.9 for 3 and true for 1."""
    message = f'{kind} spec needs an integer "dim"'
    dim = _numbers(data.get("dim"), message, ())
    if dim % 1:
        raise CurveFormatError(message)
    return int(dim)


def _numbers(values, message, shape):
    """values as a float array of `shape` (None: any length on that axis);
    CurveFormatError(message) unless every entry is a finite JSON number, an
    int or a float (numpy's too), never a bool, a string, None or an integer
    that overflows a double.  Types are checked once per distinct type.
    """
    cells = np.array(values, dtype=object)
    if (cells.ndim != len(shape)
            or any(n not in (None, m) for n, m in zip(shape, cells.shape))
            or not all(issubclass(t, (int, float, np.integer, np.floating))
                       and t is not bool for t in set(map(type, cells.flat)))):
        raise CurveFormatError(message)
    try:
        out = cells.astype(float)
    except OverflowError:
        raise CurveFormatError(message) from None
    if not np.isfinite(out).all():
        raise CurveFormatError(message)
    return out


def _strings(values, message, n):
    """values, a list of n strings; CurveFormatError(message) otherwise."""
    if (not isinstance(values, list) or len(values) != n
            or not all(isinstance(v, str) for v in values)):
        raise CurveFormatError(message)
    return values


def _load_json(source):
    if not isinstance(source, (str, os.PathLike)):
        return source           # not JSON text, "-" or a path: the spec
    text = str(source)
    if text.lstrip().startswith("{"):
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise CurveFormatError(f"invalid JSON: {exc}") from exc
    try:
        if text == "-":
            return json.load(sys.stdin)
        with open(text) as fh:
            return json.load(fh)
    except OSError as exc:
        raise CurveFormatError(f"cannot read {text}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CurveFormatError(f"invalid JSON in {text}: {exc}") from exc
