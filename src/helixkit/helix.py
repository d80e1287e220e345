"""Helix characterizations: recursion functions, invariants, axes, indicatrix.

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
from .curve import AnalyticCurve, Curve, ReparametrizedCurve, SampledCurve
from .errors import (
    AxisHintError, ClassificationError, DegenerateCurveError,
    NonRegularCurveError, UnreliableResultError,
)
from .frenet import EPS_CURV, FrenetGrid, frenet_grid
from . import expr

__all__ = [
    "HelixFunctions", "HelixReport", "PathResult", "HintResult",
    "AxisComparison", "recursion_mask", "slant_functions",
    "general_functions", "harmonic_curvatures", "axis_field",
    "slant_invariant_3d", "indicatrix_curvatures_3d", "helix_axis_field_3d",
    "classify", "tangent_indicatrix", "verify_same_axis",
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


def recursion_mask(grid: FrenetGrid, eps: float = EPS_MASK):
    """Samples on which the curvature recursions are numerically safe.

    The recursions divide by k_2..k_{n-1}; a sample is masked out when any
    of those magnitudes falls below eps, or when the frame itself is
    degenerate there.
    """
    mask = grid.valid.copy()
    if grid.dim >= 3:
        mask &= np.all(np.abs(grid.curvatures[:, 1:]) >= eps, axis=1)
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

    G_1 = I + c with I the zero-mean cumulative trapezoid of k_1, so every
    G_i = P_i + c Q_i, P running the recursion from (I, 1) and Q from
    (1, 0).  Per sample sum G_i^2 = a + 2bc + qc^2 with a = sum P_i^2,
    b = sum P_i Q_i, q = sum Q_i^2, and its variance over the unmasked
    samples is the quartic u S u^T in u = (1, c, c^2), S the covariance of
    (a, 2b, q).  c is the root of the cubic derivative with the least
    variance (the real part of each root is tried, so a double root split
    by rounding still counts); c = 0 when the derivative vanishes
    identically.
    """
    mask = _reliable_mask(grid, "slant recursion")
    s = grid.svals
    k1 = grid.curvatures[:, 0]
    I = np.concatenate([[0.0],
                        np.cumsum(0.5 * (k1[1:] + k1[:-1]) * np.diff(s))])
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
    mask = _reliable_mask(grid, "harmonic recursion")
    ones = np.ones(len(grid.svals))
    return HelixFunctions("harmonic", grid.svals,
                          _recursion(grid, ones, 0.0 * ones)[:, 1:], mask)


def axis_field(funcs: HelixFunctions, grid: FrenetGrid):
    """Ambient axis field of a recursion family; shape (m, n).

    slant:    B = sum G_i V_i
    general:  A = sum G*_i V_i
    harmonic: X = V_1 + sum_{i>=1} H_i V_{i+2}
    """
    if funcs.kind in ("slant", "general"):
        return np.einsum("mi,mij->mj", funcs.values, grid.frames)
    if funcs.kind == "harmonic":
        out = grid.frames[:, 0, :].copy()
        for i in range(1, grid.dim - 1):
            out += funcs.values[:, i, None] * grid.frames[:, i + 1, :]
        return out
    raise ValueError(f"unknown kind {funcs.kind!r}")


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


def _dds(values, s):
    """First derivative of a sampled function, five-point stencils."""
    m = len(s)
    if m < 5:
        return np.gradient(values, s, edge_order=2 if m >= 3 else 1)
    # the five nodes nearest each sample, shifted inwards at the ends
    idx = np.clip(np.arange(m) - 2, 0, m - 5)[:, None] + np.arange(5)
    w = curvemod.finite_difference_weights(s, s[idx], 1)[:, 1]
    return np.matmul(w[:, None, :], values[idx][:, :, None])[:, 0, 0]


def slant_invariant_3d(grid: FrenetGrid):
    """The scalar invariant whose constancy characterizes 3D slant helices.

    Computed in the expanded form (k t' - k' t) / (k^2 + t^2)^(3/2) with the
    curvature derivatives taken by five-point differences; algebraically this
    equals k^2/(k^2+t^2)^(3/2) * (t/k)', but the expanded form stays accurate
    where t/k blows up.  Samples with k_1 below eps_curv come back as nan.
    """
    if grid.dim != 3:
        raise DegenerateCurveError("the scalar invariant is defined in E^3")
    s = grid.svals
    kappa = grid.curvatures[:, 0]
    tau = grid.curvatures[:, 1]
    dk = _dds(kappa, s)
    dt = _dds(tau, s)
    denom = (kappa ** 2 + tau ** 2) ** 1.5
    with np.errstate(divide="ignore", invalid="ignore"):
        sigma = (kappa * dt - dk * tau) / denom
    sigma[kappa < EPS_CURV] = np.nan
    return sigma


def indicatrix_curvatures_3d(grid: FrenetGrid):
    """Curvature and torsion of the tangent indicatrix, from the curve's own.

    kappa_b = sqrt(k^2 + t^2)/k and t_b = (k t' - k' t)/(k (k^2 + t^2)),
    with derivatives by five-point differences.  Valid where k_1 > 0.
    """
    if grid.dim != 3:
        raise DegenerateCurveError("indicatrix formulas are for E^3")
    s = grid.svals
    kappa = grid.curvatures[:, 0]
    tau = grid.curvatures[:, 1]
    dk = _dds(kappa, s)
    dt = _dds(tau, s)
    with np.errstate(divide="ignore", invalid="ignore"):
        kb = np.sqrt(kappa ** 2 + tau ** 2) / kappa
        tb = (kappa * dt - dk * tau) / (kappa * (kappa ** 2 + tau ** 2))
    return kb, tb


def helix_axis_field_3d(grid: FrenetGrid):
    """Direct axis field (t V_1 + k V_3)/sqrt(k^2+t^2) for 3D general helices."""
    if grid.dim != 3:
        raise DegenerateCurveError("direct axis formula is for E^3")
    kappa = grid.curvatures[:, 0]
    tau = grid.curvatures[:, 1]
    denom = np.sqrt(kappa ** 2 + tau ** 2)
    denom = np.maximum(denom, 1e-300)
    return (tau[:, None] * grid.frames[:, 0, :]
            + kappa[:, None] * grid.frames[:, 2, :]) / denom[:, None]


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
    integration_constant: Optional[float] = None
    error: Optional[str] = None

    def to_dict(self):
        d = {
            "passed": bool(self.passed),
            "cos_theta": _num(self.cos_theta),
            "C": _num(self.C),
            "axis": None if self.axis is None else list(map(float, self.axis)),
            "constancy_residual": _num(self.constancy_residual),
            "axis_residual": _num(self.axis_residual),
            "error": self.error,
        }
        if self.integration_constant is not None:
            d["integration_constant"] = float(self.integration_constant)
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
        return {
            "direction": list(map(float, self.direction)),
            "v1_mean": _num(self.v1_mean), "v1_std": _num(self.v1_std),
            "v2_mean": _num(self.v2_mean), "v2_std": _num(self.v2_std),
        }


def _num(x):
    if x is None:
        return None
    x = float(x)
    return x if math.isfinite(x) else None


@dataclass
class HelixReport:
    """Joint result of both detection paths on one curve."""
    classification: str
    slant: PathResult
    general: PathResult
    masked_fraction: float
    planar: bool = False
    planar_normal: Optional[np.ndarray] = None
    hint: Optional[HintResult] = None
    grid: Optional[FrenetGrid] = field(default=None, repr=False)

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
        d = {
            "classification": self.classification,
            "cos_theta": _num(self.cos_theta),
            "C": _num(self.C),
            "axis": None if self.axis is None
                    else list(map(float, self.axis)),
            "constancy_residual": _num(self.constancy_residual),
            "axis_residual": _num(self.axis_residual),
            "masked_fraction": _num(self.masked_fraction),
            "planar": bool(self.planar),
            "slant": self.slant.to_dict(),
            "general": self.general.to_dict(),
        }
        if self.planar_normal is not None:
            d["planar_normal"] = list(map(float, self.planar_normal))
        if self.hint is not None:
            d["hint"] = self.hint.to_dict()
        return d


def _constancy(x):
    mean = float(np.mean(x))
    std = float(np.std(x))
    return std / max(abs(mean), 1e-300), mean


def _run_path(kind, grid, tol_axis, tol_const):
    try:
        funcs = (slant_functions if kind == "slant"
                 else general_functions)(grid)
    except UnreliableResultError as exc:
        return PathResult(False, error=str(exc))
    totals = np.sum(funcs.values ** 2, axis=1)
    residual, C = _constancy(totals[funcs.mask])
    rows = axis_field(funcs, grid)
    axis, axis_resid = _axis_statistics(rows, funcs.mask)
    passed = (residual <= tol_const and axis_resid <= tol_axis
              and axis is not None)
    cos_theta = 1.0 / math.sqrt(C) if C >= 1.0 else None
    r = PathResult(passed, cos_theta, C, axis, residual, axis_resid)
    if kind == "slant":
        r.integration_constant = funcs.integration_constant
    return r


def _detect_hyperplane(grid):
    """Decide whether the curve stays in a hyperplane; return (flag, normal).

    The direct signal is the jet rank dropping to n-1 (last curvature under
    EPS_CURV).  Sampled curves can hide that drop in derivative noise, so a
    constant last frame vector V_n also counts: it needs one derivative less
    than the last curvature and is the hyperplane normal in both cases.
    """
    n = grid.dim
    ranks = grid.degenerate_ranks
    flat = ranks == n - 1
    usable = (ranks == 0) | flat
    if not np.any(usable):
        return False, None
    rows = grid.frames[usable, n - 1, :]
    rows = rows * np.where(rows @ rows[0] < 0.0, -1.0, 1.0)[:, None]
    mean = rows.mean(axis=0)
    nm = np.linalg.norm(mean)
    if nm <= 1e-12:
        return False, None
    normal = mean / nm
    if np.mean(flat) > 0.9:
        return True, normal
    if np.mean(usable) > 0.9:
        dots = np.clip(np.abs(rows @ normal), -1.0, 1.0)
        if float(np.arccos(dots).max()) <= TOL_PLANAR:
            return True, normal
    return False, None


def classify(c: Curve, axis_hint=None, grid_size: int = 512, domain=None,
             margin: float = 0.0, tol_axis: float = TOL_AXIS,
             tol_const: float = TOL_CONST) -> HelixReport:
    """Run both helix detection paths on a curve.

    The curve is reparametrized by arc length first if needed.  When an
    axis_hint direction is given, the report additionally carries the
    constancy statistics of the frame angles against that direction, which
    is the only way to see the cos(theta) = 0 degenerate helices; a hint
    that is not a finite non-zero vector of the curve's dimension raises
    AxisHintError.  Heavy masking or degeneracy is reported in the result,
    not raised.
    """
    if axis_hint is not None:
        d = np.asarray(axis_hint, dtype=float)
        if d.shape != (c.dim,) or not np.all(np.isfinite(d)) or not np.any(d):
            raise AxisHintError(f"axis hint must be a finite non-zero "
                                f"vector of length {c.dim}")
        d = d / np.abs(d).max()         # keeps the norm from over/underflowing
        d = d / np.linalg.norm(d)
    uc = curvemod.arclength_reparametrize(c)
    grid = frenet_grid(uc, grid_size, domain=domain, margin=margin)

    mask = recursion_mask(grid)
    masked_fraction = 1.0 - float(np.mean(mask))

    slant = _run_path("slant", grid, tol_axis, tol_const)
    general = _run_path("general", grid, tol_axis, tol_const)

    if slant.passed and general.passed:
        classification = "both"
    elif slant.passed:
        classification = "slant-helix"
    elif general.passed:
        classification = "general-helix"
    else:
        classification = "neither"

    planar, planar_normal = _detect_hyperplane(grid)

    hint = None
    if axis_hint is not None:
        ranks = grid.degenerate_ranks
        v1 = grid.frames[:, 0, :] @ d       # V_1 defined at every sample
        ok2 = (ranks == 0) | (ranks >= 2)   # V_2 needs rank at least 2
        v2 = grid.frames[ok2, 1, :] @ d if np.any(ok2) else None
        hint = HintResult(
            d, float(np.mean(v1)), float(np.std(v1)),
            None if v2 is None else float(np.mean(v2)),
            None if v2 is None else float(np.std(v2)),
        )

    return HelixReport(classification, slant, general, masked_fraction,
                       planar, planar_normal, hint, grid)


# ------------------------------------------------------------- indicatrix

def _restrict_domain(c, domain, margin):
    a, b = c.domain
    if domain is not None:
        a, b = float(domain[0]), float(domain[1])
    trim = margin * (b - a)
    return a + trim, b - trim


def tangent_indicatrix(c: Curve, domain=None, margin: float = 0.0) -> Curve:
    """Unit tangent image of the curve, reparametrized by its own arc length.

    The indicatrix consumes arc length at rate k_1, so the construction
    needs k_1 > 0 on the (optionally restricted) domain; a vanishing first
    curvature is reported as degeneracy.  Every returned point lies on the
    unit sphere.
    """
    uc = curvemod.arclength_reparametrize(c)
    a, b = _restrict_domain(uc, domain, margin)

    try:
        if isinstance(uc, AnalyticCurve):
            beta = AnalyticCurve(uc.velocity, (a, b), uc.parameter)
            return curvemod.arclength_reparametrize(beta)
        if isinstance(uc, ReparametrizedCurve):
            src = uc.source
            v = src.speed_expression()
            comps = tuple(expr.Div(e, v) for e in src.velocity)
            t0 = float(uc.parameter_of_arclength(a))
            t1 = float(uc.parameter_of_arclength(b))
            beta = AnalyticCurve(comps, (t0, t1), src.parameter)
            return curvemod.arclength_reparametrize(beta)
        if isinstance(uc, SampledCurve):
            keep = (uc.params >= a) & (uc.params <= b)
            params = uc.params[keep]
            rows = uc.jet_grid(params, 1)[:, 0, :]
            rows /= np.linalg.norm(rows, axis=1, keepdims=True)
            beta = SampledCurve(params, rows)
            return curvemod.arclength_reparametrize(beta)
    except NonRegularCurveError as exc:
        raise DegenerateCurveError(
            f"tangent indicatrix needs k_1 > 0 on the domain: {exc}") from exc
    raise DegenerateCurveError(
        f"cannot build an indicatrix for {type(uc).__name__}")


@dataclass
class AxisComparison:
    """Axes recovered from a curve and from its tangent indicatrix."""
    axis_of_curve: np.ndarray
    axis_of_indicatrix: np.ndarray
    angle_between: float
    curve_report: HelixReport = field(repr=False, default=None)
    indicatrix_report: HelixReport = field(repr=False, default=None)

    def to_dict(self):
        return {
            "axis_of_curve": list(map(float, self.axis_of_curve)),
            "axis_of_indicatrix": list(map(float, self.axis_of_indicatrix)),
            "angle_between": float(self.angle_between),
        }


def verify_same_axis(c: Curve, grid_size: int = 512, domain=None,
                     margin: float = 0.0, tol_axis: float = TOL_AXIS,
                     tol_const: float = TOL_CONST,
                     indicatrix: Optional[Curve] = None) -> AxisComparison:
    """Compare the slant axis of a curve with its indicatrix's general axis.

    The curve must classify as a slant helix; its tangent indicatrix is then
    classified as a general helix and the two ambient directions are
    compared.  A failed precondition raises with the offending report
    attached.  `indicatrix` passes in the tangent indicatrix on the same
    domain and margin when the caller has built it already.
    """
    report = classify(c, grid_size=grid_size, domain=domain, margin=margin,
                      tol_axis=tol_axis, tol_const=tol_const)
    if report.classification not in ("slant-helix", "both"):
        raise ClassificationError(
            f"curve classifies as {report.classification}, not slant-helix",
            report=report)

    beta = indicatrix
    if beta is None:
        beta = tangent_indicatrix(c, domain=domain, margin=margin)
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
