"""Helix characterizations: recursion functions, axes, indicatrix.

Two families of curves are detected.  A general helix keeps a constant angle
between its tangent V_1 and a fixed direction; a slant helix keeps a constant
angle between its principal normal V_2 and a fixed direction.  Both admit a
characterization through recursively defined functions of the curvatures:

  slant:    G_1 = integral of k_1 plus a constant, G_2 = 1,
            G_3 = (k_1/k_2) G_1,
            G_i = (k_{i-2} G_{i-2} + G'_{i-1}) / k_{i-1}          (i >= 4)
  general:  G*_1 = 1, G*_2 = 0,
            G*_i = (k_{i-2} G*_{i-2} + (G*_{i-1})') / k_{i-1}     (i >= 3)
  harmonic: H_0 = 0, H_1 = k_1/k_2,
            H_i = (H'_{i-1} + H_{i-2} k_i) / k_{i+1}              (i >= 2)

The curve is a slant helix exactly when sum G_i^2 is a (non-zero) constant
C = sec^2(theta), and then B = sum G_i V_i is the fixed direction; the
general-helix test works the same way with the starred functions, whose
axis field is A = sum G*_i V_i = V_1 + H_1 V_3 + ... + H_{n-2} V_n.

Detection inverts the axis formulas: a classification is positive when the
unit axis field is constant to tol_axis and the tested scalar is constant to
tol_const.  Constant-angle tests against a caller-supplied hint direction
cover the degenerate cos(theta) = 0 cases the recursions cannot see.
"""

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import curve as curvemod
from .curve import Curve
from .errors import (
    AxisHintError, ClassificationError, CurveError, DegenerateCurveError,
    NonRegularCurveError, UnreliableResultError,
)
from .frenet import FrenetGrid, _trimmed_domain, frenet_grid

__all__ = [
    "HelixFunctions", "HelixReport", "PathResult", "HintResult",
    "AxisComparison", "recursion_mask", "slant_functions",
    "general_functions", "harmonic_curvatures", "axis_field", "classify",
    "tangent_indicatrix", "verify_same_axis",
    "EPS_MASK", "TOL_AXIS", "TOL_CONST",
]

EPS_MASK = 1e-6          # |k_i| below this excludes a sample from statistics
TOL_AXIS = 1e-3          # default max angular deviation of the unit axis field
TOL_CONST = 1e-4         # default relative std of the tested constant
TOL_PLANAR = 1e-4        # max angular wobble of V_n on a hyperplane curve


@dataclass
class HelixFunctions:
    """Values of one recursion family on a frame grid.

    kind is "slant" (columns G_1..G_n), "general" (G*_1..G*_n) or
    "harmonic" (H_0..H_{n-2}).  mask marks the samples where every division
    performed by the recursion was safe; values at masked-out samples are
    still stored but meaningless.
    """
    kind: str
    svals: np.ndarray
    values: np.ndarray
    mask: np.ndarray
    integration_constant: Optional[float] = None

    @property
    def masked_fraction(self):
        return 1.0 - float(np.mean(self.mask))


def recursion_mask(grid: FrenetGrid):
    """Samples on which the curvature recursions are numerically safe.

    The recursions divide by k_2..k_{n-1}; a sample is masked out when any
    of those magnitudes falls below EPS_MASK, or when the frame itself is
    degenerate there.
    """
    mask = grid.valid.copy()
    if grid.dim >= 3:
        mask &= np.all(np.abs(grid.curvatures[:, 1:]) >= EPS_MASK, axis=1)
    return mask


def _reliable_mask(grid, what):
    """recursion_mask, raising when it leaves out more than half the grid."""
    mask = recursion_mask(grid)
    frac = 1.0 - float(np.mean(mask))
    if frac > 0.5:
        raise UnreliableResultError(
            f"{what}: {frac:.0%} of samples masked by near-zero curvatures",
            masked_fraction=frac)
    return mask


def _recursion(grid: FrenetGrid, g1, g2):
    """G_1..G_n of G_{i+1} = (k_{i-1} G_{i-1} + G'_i) / k_i from (G_1, G_2).

    g1 and g2 have shape (m,), or (p, m) to run p recursions at once; the
    result appends an axis of length n.  Where k_i vanishes the division
    gives 0; recursion_mask excludes those samples.
    """
    s = grid.svals
    k = grid.curvatures
    with np.errstate(divide="ignore", over="ignore"):
        inv = 1.0 / k
    inv[~np.isfinite(inv)] = 0.0
    G = [g1, g2]
    for i in range(1, grid.dim - 1):
        G.append(inv[:, i] * (k[:, i - 1] * G[i - 1]
                              + np.gradient(G[i], s, axis=-1, edge_order=2)))
    return np.stack(G, axis=-1)


def slant_functions(grid: FrenetGrid) -> HelixFunctions:
    """Slant-helix recursion functions with the fitted integration constant.

    G_1 = I + c with I the zero-mean cumulative trapezoid of k_1, each panel
    corrected by h^2/12 (k_1'(s_i) - k_1'(s_{i+1})) where the grid carries
    k1_prime (Euler-Maclaurin; Davis & Rabinowitz, *Methods of Numerical
    Integration*, 2.9).  So every G_i = P_i + c Q_i, P running the recursion
    from (I, 1) and Q from (1, 0).  Per sample sum G_i^2 = a + 2bc + qc^2
    with a = sum P_i^2, b = sum P_i Q_i, q = sum Q_i^2, and its variance
    over the unmasked samples is the quartic u S u^T in u = (1, c, c^2), S
    the covariance of (a, 2b, q).  c is the root of the cubic derivative
    with the least variance (the real part of each root is tried, so a
    double root split by rounding still counts); c = 0 when the derivative
    vanishes identically.
    """
    mask = _reliable_mask(grid, "slant recursion")
    s = grid.svals
    k1 = grid.curvatures[:, 0]
    panels = 0.5 * (k1[1:] + k1[:-1]) * np.diff(s)
    if grid.k1_prime is not None:
        panels -= np.diff(s) ** 2 / 12.0 * np.diff(grid.k1_prime)
    I = np.concatenate([[0.0], np.cumsum(panels)])
    I -= np.mean(I[mask])
    ones = np.ones_like(I)
    P, Q = _recursion(grid, np.stack([I, ones]), np.stack([ones, 0.0 * ones]))
    Pm, Qm = P[mask], Q[mask]
    x = np.stack([np.sum(Pm * Pm, axis=1), 2.0 * np.sum(Pm * Qm, axis=1),
                  np.sum(Qm * Qm, axis=1)])
    S = np.cov(x, bias=True)
    roots = np.roots([4.0 * S[2, 2], 6.0 * S[1, 2],
                      2.0 * S[1, 1] + 4.0 * S[0, 2], 2.0 * S[0, 1]]).real
    c_star = 0.0
    if roots.size:
        u = roots[:, None]
        c_star = float(roots[np.argmin(np.var(x[0] + u * x[1] + u * u * x[2],
                                              axis=1))])
    return HelixFunctions("slant", s, P + c_star * Q, mask,
                          integration_constant=c_star)


def general_functions(grid: FrenetGrid) -> HelixFunctions:
    """General-helix recursion functions: the recursion from (1, 0)."""
    mask = _reliable_mask(grid, "general recursion")
    ones = np.ones(len(grid.svals))
    return HelixFunctions("general", grid.svals,
                          _recursion(grid, ones, 0.0 * ones), mask)


def harmonic_curvatures(grid: FrenetGrid) -> HelixFunctions:
    """Harmonic curvature functions H_0..H_{n-2}, which are G*_2..G*_n."""
    if grid.dim < 3:
        raise DegenerateCurveError("harmonic curvatures need dimension >= 3")
    general = general_functions(grid)
    return HelixFunctions("harmonic", grid.svals, general.values[:, 1:],
                          general.mask)


def axis_field(funcs: HelixFunctions, grid: FrenetGrid):
    """Ambient axis field of a recursion family; shape (m, n).

    slant:    B = sum G_i V_i
    general:  A = sum G*_i V_i
    harmonic: X = V_1 + sum_{i>=1} H_i V_{i+2}

    Any other kind raises CurveError.
    """
    if funcs.kind in ("slant", "general"):
        return np.einsum("mi,mij->mj", funcs.values, grid.frames)
    if funcs.kind == "harmonic":
        out = grid.frames[:, 0, :].copy()
        for i in range(1, grid.dim - 1):
            out += funcs.values[:, i, None] * grid.frames[:, i + 1, :]
        return out
    raise CurveError(f"no axis field for functions of kind {funcs.kind!r}")


def _axis_statistics(field_rows, mask):
    """Mean unit direction and max angular deviation over unmasked samples."""
    rows = field_rows[mask]
    norms = np.linalg.norm(rows, axis=1)
    good = norms > 1e-12
    if not np.any(good):
        return None, float("inf")
    units = rows[good] / norms[good, None]
    mean = units.mean(axis=0)
    nm = np.linalg.norm(mean)
    if nm < 1e-12:
        return None, float("inf")
    mean /= nm
    dots = np.clip(units @ mean, -1.0, 1.0)
    return mean, float(np.max(np.arccos(dots)))


# ---------------------------------------------------------- classification

@dataclass
class PathResult:
    """Outcome of one detection path (slant or general)."""
    passed: bool
    cos_theta: Optional[float] = None
    C: Optional[float] = None
    axis: Optional[np.ndarray] = None
    constancy_residual: float = float("inf")
    axis_residual: float = float("inf")
    error: Optional[str] = None
    integration_constant: Optional[float] = None

    def to_dict(self):
        d = _plain(vars(self))
        if self.integration_constant is None:
            del d["integration_constant"]
        return d


@dataclass
class HintResult:
    """Constancy of the frame angles against a supplied direction."""
    direction: np.ndarray
    v1_mean: float
    v1_std: float
    v2_mean: Optional[float]
    v2_std: Optional[float]

    def to_dict(self):
        return _plain(vars(self))


def _plain(x):
    """JSON data for a report value, the one rule by which numbers leave:
    None, strings and ints (bools among them) stay, a numpy bool becomes a
    bool, a dict, list, tuple or array converts element by element, and any
    other number becomes a float, or None where it is not finite.  A report
    carries an array only as a unit vector (an axis, a planar normal or a
    hint direction), whose components within 1e-15 of 0 are roundoff: they
    read 0.0, never -0.0."""
    if x is None or isinstance(x, (str, int)):
        return x
    if isinstance(x, np.bool_):
        return bool(x)
    if isinstance(x, dict):
        return {key: _plain(value) for key, value in x.items()}
    if isinstance(x, np.ndarray):
        x = np.where(np.abs(x) <= 1e-15, 0.0, x)
    if isinstance(x, (list, tuple, np.ndarray)):
        return [_plain(value) for value in x]
    x = float(x)
    return x if math.isfinite(x) else None


@dataclass
class HelixReport:
    """Joint result of both detection paths on one curve."""
    classification: str
    slant: PathResult
    general: PathResult
    masked_fraction: float
    planar_normal: Optional[np.ndarray] = None
    hint: Optional[HintResult] = None
    planar = property(lambda self: self.planar_normal is not None)

    @property
    def _primary(self):
        if self.classification == "general-helix":
            return self.general
        return self.slant

    @property
    def cos_theta(self):
        return self._primary.cos_theta

    @property
    def C(self):
        return self._primary.C

    @property
    def axis(self):
        return self._primary.axis

    @property
    def constancy_residual(self):
        return self._primary.constancy_residual

    @property
    def axis_residual(self):
        return self._primary.axis_residual

    def to_dict(self):
        d = {key: getattr(self, key) for key in (
            "classification", "cos_theta", "C", "axis", "constancy_residual",
            "axis_residual", "masked_fraction", "planar")}
        d.update(slant=self.slant.to_dict(), general=self.general.to_dict())
        if self.planar_normal is not None:
            d["planar_normal"] = self.planar_normal
        if self.hint is not None:
            d["hint"] = self.hint.to_dict()
        return _plain(d)


def _constancy(x):
    mean = float(np.mean(x))
    std = float(np.std(x))
    return std / max(abs(mean), 1e-300), mean


def _run_path(family, grid, tol_axis, tol_const):
    try:
        funcs = family(grid)
    except UnreliableResultError as exc:
        return PathResult(False, error=str(exc))
    totals = np.sum(funcs.values ** 2, axis=1)
    residual, C = _constancy(totals[funcs.mask])
    rows = axis_field(funcs, grid)
    axis, axis_resid = _axis_statistics(rows, funcs.mask)
    passed = (residual <= tol_const and axis_resid <= tol_axis
              and axis is not None)
    cos_theta = 1.0 / math.sqrt(C) if C >= 1.0 else None
    return PathResult(passed, cos_theta, C, axis, residual, axis_resid,
                      integration_constant=funcs.integration_constant)


def _span(grid):
    """(r, normal): the dimension r <= n of the subspace the curve spans.

    r < n - 1 is the dominant nonzero degenerate rank where it holds at more
    than 90 % of the samples.  r = n - 1 needs the sign-aligned V_n constant
    to TOL_PLANAR (_axis_statistics) where the rank is 0 or n - 1, over
    90 %: its mean direction is the normal, returned for r = n - 1 only.
    At rank n - 1 V_n is the generalized cross product of V_1..V_{n-1};
    sampling hides that rank drop, but not a constant V_n.
    """
    n, ranks = grid.dim, grid.degenerate_ranks
    counts = np.bincount(ranks, minlength=n)
    r = int(np.argmax(counts[1:])) + 1
    if r < n - 1 and counts[r] > 0.9 * len(ranks):
        return r, None
    usable = (ranks == 0) | (ranks == n - 1)
    if np.mean(usable) > 0.9:
        rows = grid.frames[:, n - 1, :]
        rows = rows * np.where(rows @ rows[np.argmax(usable)] < 0.0,
                               -1.0, 1.0)[:, None]
        normal, wobble = _axis_statistics(rows, usable)
        if wobble <= TOL_PLANAR:
            return n - 1, normal
    return n, None


def classify(c: Curve, axis_hint=None, grid_size: int = 512,
             margin: float = 0.0, tol_axis: float = TOL_AXIS,
             tol_const: float = TOL_CONST) -> HelixReport:
    """Run both helix detection paths on a curve.

    The curve is reparametrized by arc length first if needed and sampled
    on its own domain, as frenet_grid samples it with `margin`.  When an
    axis_hint direction is given, the report additionally carries the
    constancy statistics of the frame angles against that direction, which
    is the only way to see the cos(theta) = 0 degenerate helices; a hint
    that is not a finite non-zero vector of the curve's dimension raises
    AxisHintError.  Heavy masking or degeneracy is reported in the result,
    not raised.  A curve that spans r dimensions of E^n, 3 <= r < n (_span),
    has k_r = 0, so the recursions run on V_1..V_r and k_1..k_{r-1}, its
    apparatus there in ambient coordinates, unless the hint's component in
    span(V_1..V_r) is below sin(tol_axis) at every sample of rank 0 or r
    (the cos(theta) = 0 case).  planar and planar_normal report r = n - 1;
    they and hint describe the curve in E^n.
    """
    if axis_hint is not None:
        d = np.asarray(axis_hint, dtype=float)
        if d.shape != (c.dim,) or not np.all(np.isfinite(d)) or not np.any(d):
            raise AxisHintError(f"axis hint must be a finite non-zero "
                                f"vector of length {c.dim}")
        d = d / np.abs(d).max()         # keeps the norm from over/underflowing
        d = d / np.linalg.norm(d)
    uc = curvemod.arclength_reparametrize(c)
    grid = frenet_grid(uc, grid_size, margin=margin)
    r, planar_normal = _span(grid)
    ranks = grid.degenerate_ranks
    if r < 3 or (axis_hint is not None and np.linalg.norm(
            grid.frames[(ranks == 0) | (ranks == r), :r] @ d,
            axis=1).max() < math.sin(tol_axis)):
        r = grid.dim
    rgrid = FrenetGrid(grid.svals, grid.frames[:, :r],
                       grid.curvatures[:, :r - 1],
                       np.where(ranks == r, 0, ranks), grid.k1_prime)
    masked_fraction = 1.0 - float(np.mean(recursion_mask(rgrid)))

    slant = _run_path(slant_functions, rgrid, tol_axis, tol_const)
    general = _run_path(general_functions, rgrid, tol_axis, tol_const)
    classification = {
        (True, True): "both", (True, False): "slant-helix",
        (False, True): "general-helix", (False, False): "neither",
    }[slant.passed, general.passed]

    hint = None
    if axis_hint is not None:
        v1 = grid.frames[:, 0, :] @ d       # V_1 defined at every sample
        ok2 = (ranks == 0) | (ranks >= 2)   # V_2 needs rank at least 2
        v2 = grid.frames[ok2, 1, :] @ d if np.any(ok2) else None
        hint = HintResult(
            d, float(np.mean(v1)), float(np.std(v1)),
            None if v2 is None else float(np.mean(v2)),
            None if v2 is None else float(np.std(v2)),
        )

    return HelixReport(classification, slant, general, masked_fraction,
                       planar_normal, hint)


# ------------------------------------------------------------- indicatrix

def tangent_indicatrix(c: Curve, margin: float = 0.0) -> Curve:
    """Unit tangent image of the curve, reparametrized by its own arc length.

    The indicatrix consumes arc length at rate k_1, so the construction
    needs k_1 > 0 on the domain, trimmed by `margin` as in frenet_grid; a
    vanishing first curvature is reported as degeneracy.  The curve's own
    representation builds its unit tangent: the velocity expressions over
    the speed for an analytic curve, the normalized velocities for a sampled
    one; any other raises DegenerateCurveError.  Every returned point lies
    on the unit sphere.
    """
    uc = curvemod.arclength_reparametrize(c)
    try:
        return curvemod.arclength_reparametrize(
            uc._unit_tangent(*_trimmed_domain(uc, margin)))
    except NonRegularCurveError as exc:
        raise DegenerateCurveError(
            f"tangent indicatrix needs k_1 > 0 on the domain: {exc}") from exc


@dataclass
class AxisComparison:
    """Axes recovered from a curve and from its tangent indicatrix."""
    axis_of_curve: np.ndarray
    axis_of_indicatrix: np.ndarray
    angle_between: float
    curve_report: HelixReport = field(repr=False, default=None)
    indicatrix_report: HelixReport = field(repr=False, default=None)

    def to_dict(self):
        return _plain({key: getattr(self, key) for key in (
            "axis_of_curve", "axis_of_indicatrix", "angle_between")})


def verify_same_axis(c: Curve, grid_size: int = 512, margin: float = 0.0,
                     tol_axis: float = TOL_AXIS, tol_const: float = TOL_CONST,
                     indicatrix: Optional[Curve] = None) -> AxisComparison:
    """Compare the slant axis of a curve with its indicatrix's general axis.

    The curve must classify as a slant helix; its tangent indicatrix is then
    classified as a general helix and the two ambient directions are
    compared.  A failed precondition raises with the offending report
    attached.  `indicatrix` passes in the tangent indicatrix on the same
    margin when the caller has built it already.
    """
    c = curvemod.arclength_reparametrize(c)
    report = classify(c, grid_size=grid_size, margin=margin,
                      tol_axis=tol_axis, tol_const=tol_const)
    if report.classification not in ("slant-helix", "both"):
        raise ClassificationError(
            f"curve classifies as {report.classification}, not slant-helix",
            report=report)

    beta = indicatrix
    if beta is None:
        beta = tangent_indicatrix(c, margin=margin)
    beta_report = classify(beta, grid_size=grid_size, margin=0.02,
                           tol_axis=tol_axis, tol_const=tol_const)
    if beta_report.general.axis is None:
        raise ClassificationError(
            "indicatrix did not yield a general-helix axis",
            report=beta_report)

    a1 = report.slant.axis
    a2 = beta_report.general.axis
    angle = float(np.arccos(np.clip(a1 @ a2, -1.0, 1.0)))
    return AxisComparison(a1, a2, angle, report, beta_report)
