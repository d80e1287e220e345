"""Parametric hypersurfaces, the constant-normal-angle test, and geodesics.

A hypersurface in E^n carries a candidate fixed direction d.  The surface
keeps a constant angle when <d, xi> is constant over the parameter box, xi
being the unit normal from the generalized cross product of the coordinate
tangents in index order, whose length relative to theirs is the one rank test
of a tangent map.  Tangent maps, geodesic series and normal curvatures are
Taylor passes of one numbering of the first partials.  A geodesic solves the
geodesic equations in the parameters by Taylor series with dense output: its
points and jets are read off the series of X, which is its only copy.

Along a geodesic of such a surface the normal coincides with the curve's
principal normal up to sign, so the geodesic is a slant helix for d and its
tangent indicatrix is a spherical general helix about the same direction;
verify_geodesic_theorems checks all of that numerically, including that the
indicatrix axes of different geodesics agree pairwise.
"""

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.polynomial.polynomial import polyder, polyval

from . import expr
from .curve import Curve, SampledCurve, _load_json, _numbers, _spec_dim, _strings
from .errors import CurveFormatError, HelixkitError, SurfaceError
from .frenet import generalized_cross
from .helix import _plain, classify, tangent_indicatrix

__all__ = [
    "Hypersurface", "GeodesicPath", "GeodesicCheck",
    "SurfaceGeodesicReport",
    "load_surface", "is_helix_surface", "geodesic",
    "verify_geodesic_theorems", "GEODESIC_STEP", "GEODESIC_MAX_SAMPLES",
]

GEODESIC_STEP = 1e-3
# the most samples one geodesic may be reported at
GEODESIC_MAX_SAMPLES = 10**6
# Jorba-Zou order for a local error of _TAYLOR_TOL: ceil(-ln(tol) / 2 + 1)
_TAYLOR_TOL = 1e-16
_TAYLOR_ORDER = 20

HELIX_SURFACE_TOL = 1e-6
# points of the uniform parameter grid whose normals a surface keeps
_NORMAL_SAMPLES = 4096
# arc lengths at which a geodesic's series gives its unit tangent, as many as
# classify reads by default
_INDICATRIX_SAMPLES = 512


def _fmt(u):
    return "(" + ", ".join(f"{float(x):g}" for x in u) + ")"


class Hypersurface:
    """Immersed parametric hypersurface with a candidate fixed direction.

    components map n-1 parameters to a point of E^n; domain is one (lo, hi)
    interval per parameter; direction is the unit vector whose angle against
    the surface normal is under investigation.  Construction samples the
    tangent maps once, on a uniform grid of round(_NORMAL_SAMPLES^(1/(n-1)))
    points per parameter in index order, box corners included: each must
    have full rank, and the unit normals there are kept for the gate.
    """

    def __init__(self, components, parameters, domain, direction):
        self.parameters = tuple(str(p) for p in parameters)
        if len(set(self.parameters)) != len(self.parameters):
            raise SurfaceError("parameter names must be distinct")
        n = len(self.parameters) + 1
        if len(components) != n:
            raise SurfaceError(
                f"{len(self.parameters)} parameters need {n} components, "
                f"got {len(components)}")
        self.components = tuple(
            c if isinstance(c, expr.Expression) else expr.parse(c, self.parameters)
            for c in components)
        self.dim = n

        box = []
        for pair in domain:
            lo, hi = float(pair[0]), float(pair[1])
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise SurfaceError(f"bad parameter interval ({lo}, {hi})")
            box.append((lo, hi))
        if len(box) != n - 1:
            raise SurfaceError("need one parameter interval per parameter")
        self.domain = tuple(box)

        d = np.asarray(direction, dtype=float)
        if d.shape != (n,) or not np.all(np.isfinite(d)):
            raise SurfaceError(f"direction must be a finite vector of length {n}")
        if abs(np.linalg.norm(d) - 1.0) > 1e-12:
            raise SurfaceError("direction must be a unit vector")
        self.direction = d

        self._point_fns = [expr.compile_scalar(c, self.parameters)
                           for c in self.components]
        # first partials, component-major: entry i*(n-1) + j is dX_i/du_j
        self._partials = expr.ValueNumbering(
            [expr.differentiate(c, p)
             for c in self.components for p in self.parameters])
        size = round(_NORMAL_SAMPLES ** (1 / (n - 1)))
        axes = [np.linspace(lo, hi, size) for lo, hi in self.domain]
        points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        points = points.reshape(-1, n - 1)
        try:
            self._normals = self._unit_normal(self.jacobian(points), points)
        except SurfaceError as exc:
            if str(exc).startswith("rank-deficient"):
                raise SurfaceError(f"{exc}; shrink the parameter box away "
                                   "from the singular set") from None
            raise

    def point(self, u):
        """X at a parameter point, or at each of a (..., n-1) stack; singular
        points give inf or nan, unwarned."""
        u = np.moveaxis(np.asarray(u, dtype=float), -1, 0)
        return np.stack([f(*u) for f in self._point_fns], axis=-1)

    def jacobian(self, u):
        """Coordinate tangents dX_i/du_j, (..., n, n-1), at a point or a stack."""
        u = np.asarray(u, dtype=float)
        env = {name: [u[..., k]] for k, name in enumerate(self.parameters)}
        entries = self._partials.taylor(env, 0)[0]
        return entries.reshape(*entries.shape[:-1], self.dim, -1)

    def normal(self, u):
        u = np.asarray(u, dtype=float)[np.newaxis]
        return self._unit_normal(self.jacobian(u), u)[0]

    def _unit_normal(self, jacs, points):
        """Unit normals of m tangent maps stacked (m, n, n-1) at m points;
        the error names the first point with a non-finite or rank-deficient
        map."""
        finite = np.isfinite(jacs).all(axis=(1, 2))
        if not finite.all():
            u = points[int(np.argmin(finite))]
            raise SurfaceError(f"non-finite tangent map at {_fmt(u)}")
        w = generalized_cross(np.swapaxes(jacs, 1, 2))
        scale = np.linalg.norm(jacs, axis=1).clip(1e-300).prod(axis=1)
        norm = np.linalg.norm(w, axis=1)
        flat = norm <= 1e-10 * np.maximum(scale, 1e-30)
        if flat.any():
            u = points[int(np.argmax(flat))]
            raise SurfaceError(f"rank-deficient tangent map at {_fmt(u)}")
        return w / norm[:, np.newaxis]

    def contains_parameters(self, u):
        """Whether a parameter point, or each of a stack, lies in the box."""
        lo, hi = np.array(self.domain).T
        tol = 1e-9 * (hi - lo)
        return ((lo - tol <= u) & (u <= hi + tol)).all(axis=-1)


def load_surface(source) -> Hypersurface:
    """Build a hypersurface from a spec dict, a JSON string, or a file path.

    Schema: {"dim": n, "parameters": ["u", "v"], "components": [n exprs],
    "domain": [[u0, u1], [v0, v1]], "direction": [d1..dn]}, every number a
    finite int or float as `curve._numbers` reads it.
    """
    data = _load_json(source)
    if not isinstance(data, dict):
        raise CurveFormatError("surface spec must be a JSON object")
    dim = _spec_dim(data, "surface")
    if dim < 2:
        raise CurveFormatError("surface dimension must be at least 2")

    params = _strings(data.get("parameters"),
                      f'"parameters" must list {dim - 1} names', dim - 1)
    comps = _strings(data.get("components"),
                     f'"components" must list {dim} expressions', dim)
    box = _numbers(data.get("domain"), f'"domain" must list {dim - 1} '
                   'intervals [lo, hi] of finite numbers', (dim - 1, 2))
    direction = _numbers(data.get("direction"), '"direction" must be a '
                         f'vector of {dim} finite numbers', (dim,))

    try:
        return Hypersurface(comps, params, box, direction)
    except expr.ExprParseError as exc:
        raise CurveFormatError(f"bad component expression: {exc}") from exc
    except SurfaceError as exc:
        raise CurveFormatError(str(exc)) from exc


def is_helix_surface(h: Hypersurface) -> dict:
    """Test whether <direction, normal> is constant over the parameter box.

    Returns mean value, absolute standard deviation, and the verdict at
    tolerance 1e-6, over the normals the surface sampled at construction.
    """
    dots = h._normals @ h.direction
    value = float(dots.mean())
    residual = float(dots.std())
    return {"constant": residual <= HELIX_SURFACE_TOL,
            "value": value, "residual": residual}


@dataclass(frozen=True, eq=False)
class GeodesicPath(Curve):
    """One geodesic: the unit-speed curve its series trace, and its samples.

    From starts[i] on, X = sum_j coefficients[i, j] (s - starts[i])^j, and
    points and jets at any s are read off that expansion (point_grid,
    jet_grid).  s (m,), normal_accel (m,) and parameters (m, n-1) hold one
    row per sample; len() is m.  The acceleration at sample i is
    normal_accel[i] times the surface normal there; its sign is meaningful
    (negative when the surface curves away from the normal).  Paths compare
    by identity.
    """
    s: np.ndarray
    normal_accel: np.ndarray
    parameters: np.ndarray
    starts: np.ndarray
    coefficients: np.ndarray

    unit_speed = True   # |J p'| = 1 at each expansion point, and it is kept
    exact_jets = True
    dim = property(lambda self: self.coefficients.shape[2])
    domain = property(lambda self: (float(self.s[0]), float(self.s[-1])))

    def __len__(self):
        return len(self.s)

    def _derivatives(self, svals, orders):
        # d^k/ds^k of sum_j A_j tau^j is sum_{j >= k} j!/(j-k)! A_j tau^(j-k)
        i = np.searchsorted(self.starts[1:], svals, "right")
        powers = np.power.outer(svals - self.starts[i], range(_TAYLOR_ORDER + 1))
        return [np.einsum("mj,mjn->mn", powers[:, :_TAYLOR_ORDER + 1 - k] * [
            math.perm(j, k) for j in range(k, _TAYLOR_ORDER + 1)],
            self.coefficients[i, k:]) for k in orders]

    def _unit_tangent(self, a, b):
        """The series' velocity at _INDICATRIX_SAMPLES arc lengths in [a, b]."""
        svals = np.linspace(a, b, _INDICATRIX_SAMPLES)
        return SampledCurve(svals, self.jet_grid(svals, 1)[:, 0])


def _geodesic_series(h: Hypersurface, p, pdot):
    """Series p_0..p_K of the unit-speed geodesic from p along pdot, A_1..A_K of X.

    With J_j the series of the first partials along p, (X o p)' = J p' gives
    X o p's coefficients A_m, and order m - 2 of J^T (X o p)'' = 0 gives
    J_0^T J_0 p_m = -J_0^T A~_m - sum_{j=1}^{m-2} (m-j)(m-j-1)/(m(m-1))
    J_j^T A_{m-j}, where A~_m = A_m - J_0 p_m needs only p below m.
    """
    n, order = h.dim, _TAYLOR_ORDER
    series = expr.TaylorSeries(h._partials, {x: [] for x in h.parameters})
    jacs, accs = np.empty((order, n, n - 1)), np.empty((order + 1, n))
    ps = np.vstack([p, np.empty((order, n - 1))])
    for m in range(1, order + 1):
        series.extend(ps[m - 1])
        jacs[m - 1].flat = [c[-1] for c in series.coefficients]
        i = np.arange(1, m)
        free = np.einsum("i,ikl,il->k", (m - i) / m, jacs[1:m], ps[m - 1:0:-1])
        if m == 1:
            ps[1] = pdot / np.linalg.norm(jacs[0] @ pdot)
            gram_inv = np.linalg.inv(jacs[0].T @ jacs[0])
        else:
            j = i[:-1]
            ps[m] = -gram_inv @ (jacs[0].T @ free + np.einsum(
                "j,jkl,jk->l", (m - j) * (m - j - 1) / (m * (m - 1)),
                jacs[1:m - 1], accs[m - 1:1:-1]))
        accs[m] = free + jacs[0] @ ps[m]
    return ps, accs


def geodesic(h: Hypersurface, start, tangent, length: float,
             steps: Optional[int] = None):
    """Integrate a unit-speed geodesic; returns its GeodesicPath.

    start is a parameter point, tangent a unit ambient vector orthogonal to
    the normal there.  The Taylor method (Jorba & Zou, *Experimental Math.*
    14, 2005) solves the geodesic equations in the parameters: each series,
    expanded inside the box, runs while the last two terms of p and X o p
    stay below _TAYLOR_TOL and gives the samples s_i = i * length / steps, so
    `steps` (default: spacing <= GEODESIC_STEP) does not move expansions.
    X is evaluated only at the expansion points, the order-0 term of each
    series.  Raises if a sample or an expansion point leaves the parameter
    box, if a series term is not finite, if length is not a positive number
    or steps not a positive integer (a bool is neither), or if steps + 1
    samples would be more than GEODESIC_MAX_SAMPLES.
    """
    p = np.asarray(start, dtype=float)
    if p.shape != (h.dim - 1,):
        raise SurfaceError(f"start must be a parameter point of length {h.dim - 1}")
    if not h.contains_parameters(p):
        raise SurfaceError("start lies outside the parameter box")
    v = np.asarray(tangent, dtype=float)
    if v.shape != (h.dim,):
        raise SurfaceError(f"tangent must be an ambient vector of length {h.dim}")
    if abs(np.linalg.norm(v) - 1.0) > 1e-8:
        raise SurfaceError("tangent must be a unit vector")
    if abs(float(v @ h.normal(p))) > 1e-10:
        raise SurfaceError("tangent is not orthogonal to the surface normal")
    if isinstance(length, (bool, np.bool_)) or not (
            length > 0.0 and math.isfinite(length)):
        raise SurfaceError("length must be a positive number")
    if steps is None:
        steps = max(1, int(math.ceil(length / GEODESIC_STEP)))
    elif not np.issubdtype(type(steps), np.integer) or steps < 1:
        raise SurfaceError("steps must be a positive integer")
    if steps + 1 > GEODESIC_MAX_SAMPLES:
        raise SurfaceError(f"{steps + 1} geodesic samples exceed the limit "
                           f"of {GEODESIC_MAX_SAMPLES}")
    svals = np.append(np.arange(steps) * (length / steps), length)

    # least-squares pullback of the ambient tangent to parameter space
    jac = h.jacobian(p)
    pd = np.linalg.solve(jac.T @ jac, jac.T @ v)
    params, pdots = np.empty((2, steps + 1, h.dim - 1))
    s0, i = 0.0, 0
    expansions = []
    while i <= steps:
        ps, accs = _geodesic_series(h, p, pd)
        if not (np.isfinite(ps).all() and np.isfinite(accs[1:]).all()):
            raise SurfaceError(f"non-finite geodesic series at s={s0:.6g}")
        expansions.append((s0, p, accs))
        with np.errstate(divide="ignore"):
            end = s0 + min((_TAYLOR_TOL / np.abs(np.append(ps[k], accs[k])).max())
                           ** (1.0 / k) for k in (_TAYLOR_ORDER - 1, _TAYLOR_ORDER))
        # last terms that vanish give an infinite step, cut at length
        end = end if s0 < end < length else length
        j = int(np.searchsorted(svals, end, "right"))
        # the samples in reach and, last, the next expansion point
        tau = np.append(svals[i:j], end) - s0
        vals, ders = polyval(tau, ps).T, polyval(tau, polyder(ps)).T
        params[i:j], pdots[i:j], p, pd = vals[:-1], ders[:-1], vals[-1], ders[-1]
        # an expansion point outside the box stands for the sample after it
        outside = ~h.contains_parameters(vals)
        if outside.any():
            s = svals[i + int(np.argmax(outside))]
            raise SurfaceError(f"geodesic left the parameter box near s={s:.6g}")
        s0, i = end, j

    # one pass gives J and J' = dJ . pdot; lambda = <alpha'', xi> =
    # <J' pdot, xi> / |J pdot|^2, as the tangential part J pdd drops out
    env = {name: [params[:, k], pdots[:, k]] for k, name in enumerate(h.parameters)}
    jets = h._partials.taylor(env, 1).reshape(2, -1, h.dim, h.dim - 1)
    vels, accs = (jets @ pdots[..., np.newaxis])[..., 0]
    lam = (np.einsum("mk,mk->m", accs, h._unit_normal(jets[0], params))
           / np.linalg.norm(vels, axis=1) ** 2)
    # A_0 = X(p) at each expansion point
    starts, points, coeffs = map(np.array, zip(*expansions))
    coeffs[:, 0] = h.point(points)
    return GeodesicPath(svals, lam, params, starts, coeffs)


@dataclass
class GeodesicCheck:
    """Verification detail for one geodesic."""
    index: int
    lambda_mean: float
    lambda_std: float
    normal_dot_mean: Optional[float] = None
    normal_dot_std: Optional[float] = None
    indicatrix_axis: Optional[np.ndarray] = None
    indicatrix_angle: Optional[float] = None
    sphere_residual: Optional[float] = None
    classification: Optional[str] = None
    error: Optional[str] = None
    passed: bool = False

    def to_dict(self):
        return _plain(vars(self))


@dataclass
class SurfaceGeodesicReport:
    """Joint verdict for a surface and a family of its geodesics."""
    surface: dict
    checks: list
    pairwise_axis_angle: Optional[float]
    passed: bool

    def to_dict(self):
        return _plain({"surface": self.surface,
                       "geodesics": [c.to_dict() for c in self.checks],
                       "pairwise_axis_angle": self.pairwise_axis_angle,
                       "passed": self.passed})


def _axis_angle(a, b):
    # axes are directions without orientation; fold the angle accordingly
    dot = abs(float(np.dot(a, b)))
    return math.acos(min(1.0, dot))


NORMAL_DOT_TOL = 1e-5
INDICATRIX_AXIS_TOL = 1e-3
PAIRWISE_AXIS_TOL = 2e-3
_STRAIGHT = "degenerate: principal normal undefined (straight segment)"


def verify_geodesic_theorems(h: Hypersurface, geodesics) -> SurfaceGeodesicReport:
    """Check the three geodesic consequences of a constant-angle surface.

    For each geodesic (a GeodesicPath, classified on its own series): (a)
    the principal normal keeps a constant inner product with the direction;
    (b) the tangent indicatrix lies on the unit sphere and is a general helix
    whose axis matches the direction within 1e-3; (c) indicatrix axes of
    different geodesics agree pairwise within 2e-3.  Both curves are
    classified with the direction as hint, so in a hyperplane of E^n that
    holds it they read on its frame (see helix.classify).  Straight segments
    are reported as degenerate and excluded; any other check error fails the
    verdict, which also requires the surface to pass the constant-angle test.
    """
    surface = is_helix_surface(h)
    checks = []
    axes = []
    for i, path in enumerate(geodesics):
        check = GeodesicCheck(index=i,
                              lambda_mean=float(path.normal_accel.mean()),
                              lambda_std=float(path.normal_accel.std()))
        checks.append(check)
        try:
            rep = classify(path, axis_hint=h.direction, margin=0.02)
        except HelixkitError as exc:
            check.error = f"classification failed: {exc}"
            continue
        check.classification = rep.classification
        hint = rep.hint
        if hint is None or hint.v2_std is None:
            check.error = _STRAIGHT
            continue
        check.normal_dot_mean = hint.v2_mean
        check.normal_dot_std = hint.v2_std

        try:
            beta = tangent_indicatrix(path, margin=0.02)
            rep_b = classify(beta, axis_hint=h.direction, margin=0.02)
        except HelixkitError as exc:
            check.error = f"indicatrix failed: {exc}"
            continue
        grid = np.linspace(beta.domain[0], beta.domain[1], 64)
        radii = np.linalg.norm(beta.point_grid(grid), axis=1)
        check.sphere_residual = float(np.abs(radii - 1.0).max())

        if rep_b.general.passed:
            axis = np.asarray(rep_b.general.axis)
        elif rep_b.planar:
            # a planar indicatrix is the cos(theta)=0 case: the tangent keeps
            # a right angle to the plane normal, which is then the axis
            axis = np.asarray(rep_b.planar_normal)
        else:
            check.error = ("indicatrix did not classify as a general helix: "
                           f"{rep_b.general.error or rep_b.classification}")
            continue
        check.indicatrix_axis = axis
        check.indicatrix_angle = _axis_angle(axis, h.direction)
        axes.append(axis)

        check.passed = (check.normal_dot_std <= NORMAL_DOT_TOL
                        and check.indicatrix_angle <= INDICATRIX_AXIS_TOL)

    pairwise = None
    if len(axes) >= 2:
        pairwise = max(_axis_angle(a, b)
                       for a, b in itertools.combinations(axes, 2))
    passed = (surface["constant"]
              and all(c.passed or c.error == _STRAIGHT for c in checks)
              and (pairwise is None or pairwise <= PAIRWISE_AXIS_TOL))
    return SurfaceGeodesicReport(surface=surface, checks=checks,
                                 pairwise_axis_angle=pairwise, passed=passed)
