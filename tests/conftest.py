import functools
import math

import numpy as np
import pytest
from hypothesis import settings, strategies as st

from helixkit import curve as curvemod, hypersurf
from helixkit.curve import AnalyticCurve, SampledCurve, arclength_reparametrize
from helixkit.frenet import EPS_CURV

# Property tests draw the same examples on every run and have no per-example
# deadline, which a loaded machine would miss.
settings.register_profile("helixkit", derandomize=True, deadline=None)
settings.load_profile("helixkit")


@st.composite
def orthogonal_matrices(draw, n):
    """Rotations of E^n: the Q factor of a Gaussian matrix, det fixed to +1."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def count_stencil_passes(monkeypatch):
    """A list that grows by one entry per `finite_difference_weights` call."""
    calls = []
    weights = curvemod.finite_difference_weights

    def counted(*args):
        calls.append(None)
        return weights(*args)

    monkeypatch.setattr(curvemod, "finite_difference_weights", counted)
    return calls


# ------------------------------------------------------------ frame oracles
#
# Cross-checks that helixkit itself does not run: the frame ODE, curvatures
# read back from differenced frames, and the classical E^3 formulas.  Every
# derivative along the grid is a five-point stencil.

def grid_derivative(values, s):
    """d/ds of values sampled on the grid s along their first axis.

    Each sample takes the stencil on its five nearest nodes, shifted
    inwards at the ends.
    """
    m = len(s)
    idx = np.clip(np.arange(m) - 2, 0, m - 5)[:, None] + np.arange(5)
    w = curvemod.finite_difference_weights(s, s[idx], 1)[:, 1]
    rows = values[idx].reshape(m, 5, -1)
    return np.matmul(w[:, None, :], rows)[:, 0].reshape(values.shape)


def frame_ode_residual(grid):
    """Largest entry of dV_i/ds - (-k_{i-1} V_{i-1} + k_i V_{i+1})."""
    i = np.arange(grid.dim - 1)
    cartan = np.zeros((len(grid), grid.dim, grid.dim))
    cartan[:, i, i + 1] = grid.curvatures
    cartan[:, i + 1, i] = -grid.curvatures
    dv = grid_derivative(grid.frames, grid.svals)
    return float(np.abs(dv - cartan @ grid.frames).max())


def fd_curvatures(grid):
    """Curvatures read back as <dV_i/ds, V_{i+1}> from differenced frames."""
    dv = grid_derivative(grid.frames, grid.svals)
    return np.diagonal(dv @ np.swapaxes(grid.frames, 1, 2), offset=1,
                       axis1=1, axis2=2)


def _e3_terms(grid):
    """k, t and k t' - k' t, the term both E^3 formulas share."""
    kappa, tau = grid.curvatures.T
    return kappa, tau, (kappa * grid_derivative(tau, grid.svals)
                        - grid_derivative(kappa, grid.svals) * tau)


def slant_invariant_3d(grid):
    """(k t' - k' t) / (k^2 + t^2)^(3/2), constant on E^3 slant helices.

    This is k^2/(k^2+t^2)^(3/2) * (t/k)' in a form that stays accurate
    where t/k blows up.  Samples with k below EPS_CURV come back as nan.
    """
    kappa, tau, w = _e3_terms(grid)
    with np.errstate(divide="ignore", invalid="ignore"):
        sigma = w / (kappa ** 2 + tau ** 2) ** 1.5
    sigma[kappa < EPS_CURV] = np.nan
    return sigma


def indicatrix_curvatures_3d(grid):
    """Curvature sqrt(k^2 + t^2)/k and torsion (k t' - k' t)/(k (k^2 + t^2))
    of the tangent indicatrix, predicted from the E^3 curve's own."""
    kappa, tau, w = _e3_terms(grid)
    with np.errstate(divide="ignore", invalid="ignore"):
        return (np.sqrt(kappa ** 2 + tau ** 2) / kappa,
                w / (kappa * (kappa ** 2 + tau ** 2)))


def helix_axis_field_3d(grid):
    """Classical axis field (t V_1 + k V_3)/sqrt(k^2 + t^2) in E^3."""
    kappa, tau = grid.curvatures.T
    rows = tau[:, None] * grid.frames[:, 0] + kappa[:, None] * grid.frames[:, 2]
    return rows / np.maximum(np.hypot(kappa, tau), 1e-300)[:, None]


# Unit-speed curve in E^3 whose principal normal keeps a constant angle with
# a fixed direction; curvature -4 sin 3s, torsion 4 cos 3s on (pi/3, 2pi/3).
WAVE = ["(2/5)*sin(2*s) - (1/40)*sin(8*s)",
        "-(2/5)*cos(2*s) + (1/40)*cos(8*s)",
        "(4/15)*sin(3*s)"]
WAVE_DOMAIN = (math.pi / 3, 2 * math.pi / 3)
WAVE_TRIMMED = (math.pi / 3 + 0.05, 2 * math.pi / 3 - 0.05)

# Unit-speed W-curve in E^5: constant curvatures, so a general helix with
# cos(theta) = sqrt(0.39) against e_5.
W_CURVE = ["0.6*sin(s)", "-0.6*cos(s)", "(0.5/2.3)*sin(2.3*s)",
           "-(0.5/2.3)*cos(2.3*s)", "sqrt(0.39)*s"]


def trig_curve(n, rng):
    """A random trigonometric polynomial curve in E^n, two terms a component."""
    terms = []
    for _ in range(n):
        a, b, f = rng.uniform(-1, 1, (3, 2))
        f = 1.5 + f
        terms.append(" + ".join(f"{a[m]:.6f}*cos({f[m]:.6f}*s) + "
                                f"{b[m]:.6f}*sin({f[m]:.6f}*s)"
                                for m in range(2)))
    return terms


@pytest.fixture(scope="session")
def wave_curve():
    return AnalyticCurve(WAVE, WAVE_DOMAIN)


@pytest.fixture(scope="session")
def wave_trimmed():
    return AnalyticCurve(WAVE, WAVE_TRIMMED)


def unit_speed_circular_helix(radius, pitch):
    """(R cos(t/a), R sin(t/a), p t/a) with a = sqrt(R^2 + p^2)."""
    a = math.sqrt(radius * radius + pitch * pitch)
    return AnalyticCurve(
        [f"{radius}*cos(s/{a})", f"{radius}*sin(s/{a})", f"{pitch}*s/{a}"],
        (0.0, 4 * a * math.pi))


# Frame ODE used to synthesize a dimension-4 test curve with prescribed
# curvatures k1 = -sqrt(3) sin s, k2 = -(3/2) cos s, k3 = 1/2, all positive
# on the chosen window.  Integrated with a fixed-step classical Runge-Kutta
# scheme whose steps land exactly on the sample points: adaptive integrators
# hand back dense-output polynomials whose piecewise joints put tiny kinks
# in the samples, and high-order finite differences amplify those kinks.
SLANT4_DOMAIN = (math.pi + 0.3, 1.5 * math.pi - 0.3)


def _slant4_curvatures(s):
    return (-math.sqrt(3.0) * np.sin(s), -1.5 * np.cos(s),
            0.5 * np.ones_like(s))


def _slant4_rhs(s, y):
    v = y[4:].reshape(4, 4)
    k1 = -math.sqrt(3.0) * math.sin(s)
    k2 = -1.5 * math.cos(s)
    k3 = 0.5
    dv = np.empty_like(v)
    dv[0] = k1 * v[1]
    dv[1] = -k1 * v[0] + k2 * v[2]
    dv[2] = -k2 * v[1] + k3 * v[3]
    dv[3] = -k3 * v[2]
    return np.concatenate([v[0], dv.ravel()])


def _rk4(f, svals, y0):
    ys = np.empty((len(svals), len(y0)))
    ys[0] = y0
    y = np.asarray(y0, dtype=float)
    for i in range(len(svals) - 1):
        s = svals[i]
        h = svals[i + 1] - s
        c1 = f(s, y)
        c2 = f(s + 0.5 * h, y + 0.5 * h * c1)
        c3 = f(s + 0.5 * h, y + 0.5 * h * c2)
        c4 = f(s + h, y + h * c3)
        y = y + (h / 6.0) * (c1 + 2.0 * c2 + 2.0 * c3 + c4)
        ys[i + 1] = y
    return ys


@functools.lru_cache(maxsize=None)
def synthesize_slant4(step=1e-3):
    """Sampled E^4 slant helix plus its oracle frames and expected constants.

    The recursion functions for the prescribed curvatures close exactly:
    G = (sqrt(3) cos s, 1, 2 sin s, cos s), so sum G^2 = 5 and the axis
    B = sum G_i V_i is constant.  Everything returned here is derived from
    the integrated frames, not from the package under test.
    """
    s0, s1 = SLANT4_DOMAIN
    svals = np.linspace(s0, s1, int(round((s1 - s0) / step)) + 1)
    y0 = np.concatenate([np.zeros(4), np.eye(4).ravel()])
    ys = _rk4(_slant4_rhs, svals, y0)
    points = ys[:, :4]
    frames = ys[:, 4:].reshape(-1, 4, 4)

    G = np.stack([math.sqrt(3.0) * np.cos(svals),
                  np.ones_like(svals),
                  2.0 * np.sin(svals),
                  np.cos(svals)], axis=1)
    B = np.einsum("mi,mij->mj", G, frames)
    axis = B.mean(axis=0)
    axis /= np.linalg.norm(axis)

    curve = SampledCurve(svals, points)
    info = {
        "svals": svals,
        "frames": frames,
        "G": G,
        "C": 5.0,
        "cos_theta": 1.0 / math.sqrt(5.0),
        "axis": axis,
        "curvatures": np.stack(_slant4_curvatures(svals), axis=1),
    }
    return curve, info


@pytest.fixture(scope="session")
def slant4():
    return synthesize_slant4()


def equivalence_corpus():
    """Curves for the slant-iff-indicatrix-general check, with expectations.

    Covers: a genuine slant helix, circular helices (general but not slant),
    a planar circle (degenerate), a generic non-helix, and the sampled
    dimension-4 slant helix.  Each entry: (name, curve factory, expected
    slant flag, classify kwargs).
    """
    def wave():
        return AnalyticCurve(WAVE, WAVE_TRIMMED)

    def helix34():
        return unit_speed_circular_helix(3.0, 4.0)

    def helix12():
        return unit_speed_circular_helix(1.0, 2.0)

    def circle():
        return AnalyticCurve(["2*cos(s/2)", "2*sin(s/2)", "0"],
                             (0.0, 4 * math.pi))

    def nonhelix():
        c = AnalyticCurve(["cos(s)", "sin(s)", "s^2/2"], (0.2, 1.5))
        return arclength_reparametrize(c)

    def slanted4():
        return synthesize_slant4()[0]

    return [
        ("slant wave", wave, True, {}),
        ("circular helix 3-4", helix34, False, {}),
        ("circular helix 1-2", helix12, False, {}),
        ("planar circle", circle, False, {}),
        ("tilted spiral", nonhelix, False, {}),
        ("sampled 4d slant", slanted4, True, {"margin": 0.02}),
    ]


# ------------------------------------------------------- surface scenarios
#
# Three closed-form constant-angle surfaces (cylinder, cone, plane) plus a
# sphere as the negative case.  Geodesic families are cached because the
# fixed-step integration dominates suite runtime.

CYLINDER_SPEC = {
    "dim": 3,
    "parameters": ["u", "w"],
    "components": ["cos(u)", "sin(u)", "w"],
    "domain": [[-12.6, 12.6], [-6.0, 6.0]],
    "direction": [0.0, 0.0, 1.0],
}

CONE_SPEC = {
    "dim": 3,
    "parameters": ["u", "w"],
    "components": ["w*cos(u)", "w*sin(u)", "w"],
    "domain": [[-6.3, 6.3], [0.3, 4.0]],
    "direction": [0.0, 0.0, 1.0],
}

PLANE_SPEC = {
    "dim": 3,
    "parameters": ["u", "w"],
    "components": ["u", "w", "0"],
    "domain": [[-5.0, 5.0], [-5.0, 5.0]],
    "direction": [0.0, 0.0, 1.0],
}

SPHERE_SPEC = {
    "dim": 3,
    "parameters": ["u", "w"],
    "components": ["sin(u)*cos(w)", "sin(u)*sin(w)", "cos(u)"],
    "domain": [[0.4, 2.7], [0.0, 6.3]],
    "direction": [0.0, 0.0, 1.0],
}

# z = |u|^2.5 has no third partial at u = 0: the series of (u^2)^0.25 in
# its u-partial is nan there from order 1, so no geodesic series through
# u = 0 is finite
KINK_SPEC = {
    "dim": 3,
    "parameters": ["u", "w"],
    "components": ["u", "w", "(u^2)^1.25"],
    "domain": [[-1, 1], [-1, 1]],
    "direction": [0, 0, 1],
}

CYLINDER_PITCH_ANGLES = (0.3, 0.45, 0.6, 0.75, 0.9)
CONE_HEADING_DEGREES = (10.0, 25.0, 200.0)


@functools.lru_cache(maxsize=None)
def cylinder_surface():
    return hypersurf.load_surface(CYLINDER_SPEC)


@functools.lru_cache(maxsize=None)
def cone_surface():
    return hypersurf.load_surface(CONE_SPEC)


@functools.lru_cache(maxsize=None)
def cylinder_geodesics():
    """Five geodesics through (1, 0, 0) at different pitch angles."""
    cyl = cylinder_surface()
    return [hypersurf.geodesic(cyl, [0.0, 0.0],
                               [0.0, math.cos(a), math.sin(a)],
                               1.6, steps=800)
            for a in CYLINDER_PITCH_ANGLES]


def cone_tangent(degrees, w0=1.5):
    """Unit tangent at (u=0, w0), measured from the circular direction."""
    cone = cone_surface()
    jac = cone.jacobian([0.0, w0])
    e_u = jac[:, 0] / np.linalg.norm(jac[:, 0])
    e_w = jac[:, 1] / np.linalg.norm(jac[:, 1])
    psi = math.radians(degrees)
    return math.cos(psi) * e_u + math.sin(psi) * e_w


@functools.lru_cache(maxsize=None)
def cone_geodesics():
    cone = cone_surface()
    return [hypersurf.geodesic(cone, [0.0, 1.5], cone_tangent(deg),
                               2.0, steps=1000)
            for deg in CONE_HEADING_DEGREES]


@functools.lru_cache(maxsize=None)
def cylinder_report():
    return hypersurf.verify_geodesic_theorems(cylinder_surface(),
                                              cylinder_geodesics())


@functools.lru_cache(maxsize=None)
def cone_report():
    return hypersurf.verify_geodesic_theorems(cone_surface(),
                                              cone_geodesics())
