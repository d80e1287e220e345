import math

import mpmath
import numpy as np
import pytest
import sympy as sp

from conftest import W_CURVE, fd_curvatures, frame_ode_residual, trig_curve
from helixkit.curve import AnalyticCurve, SampledCurve, arclength_reparametrize
from helixkit.errors import CurveError, NotUnitSpeedError
from helixkit.frenet import (EPS_CURV, _frames_from_jets, frenet_at,
                             frenet_grid, generalized_cross)
from helixkit.helix import classify, verify_same_axis

WAVE = ["(2/5)*sin(2*s) - (1/40)*sin(8*s)",
        "-(2/5)*cos(2*s) + (1/40)*cos(8*s)",
        "(4/15)*sin(3*s)"]
WAVE_DOMAIN = (math.pi / 3, 2 * math.pi / 3)


def _assert_orthonormal_oriented(frames):
    """Every frame of (m, n, n) orthonormal within 1e-8, det 1 within 1e-6."""
    gram = frames @ np.swapaxes(frames, 1, 2)
    assert np.abs(gram - np.eye(frames.shape[1])).max() <= 1e-8
    assert np.abs(np.linalg.det(frames) - 1.0).max() <= 1e-6


@pytest.fixture(scope="module")
def wave():
    return AnalyticCurve(WAVE, WAVE_DOMAIN)


@pytest.fixture(scope="module")
def wave_grid(wave_trimmed):
    return frenet_grid(wave_trimmed, 512)


def test_wave_curvatures_at_point(wave):
    f = frenet_at(wave, 5 * math.pi / 12)
    root8 = 2 * math.sqrt(2)
    assert f.curvatures[0, 0] == pytest.approx(root8, abs=1e-9)
    assert f.curvatures[0, 1] == pytest.approx(-root8, abs=1e-9)
    assert f.degenerate_ranks[0] == 0


def test_wave_curvatures_on_grid(wave_grid):
    s = wave_grid.svals
    want_k1 = -4 * np.sin(3 * s)
    want_k2 = 4 * np.cos(3 * s)
    assert np.allclose(wave_grid.curvatures[:, 0], want_k1, rtol=1e-9)
    assert np.allclose(wave_grid.curvatures[:, 1], want_k2,
                       rtol=1e-7, atol=1e-9)


def test_k1_prime_comes_from_exact_jets_in_e3_and_up(wave_grid):
    # k_1 = -4 sin 3s on the wave, so k_1' = -12 cos 3s: it reads 9.8e-15
    err = np.abs(wave_grid.k1_prime + 12 * np.cos(3 * wave_grid.svals))
    assert err.max() <= 1e-13
    # V_2 of a line is not determined, nor is k_1' there
    line = frenet_grid(AnalyticCurve(["s", "0", "0"], (0.0, 5.0)), 16)
    assert np.array_equal(line.k1_prime, np.zeros(16))
    # a plane curve's jet stops at d2, and stencils on samples are no jets
    circle = AnalyticCurve(["cos(s)", "sin(s)"], (0.0, 5.0))
    assert frenet_grid(circle, 16).k1_prime is None
    t = np.linspace(0.0, 2 * math.pi, 2001)
    pts = np.stack([3 * np.cos(t), 3 * np.sin(t), 4 * t], axis=1)
    sampled = arclength_reparametrize(SampledCurve(t, pts))
    assert frenet_grid(sampled, 64).k1_prime is None


@pytest.mark.parametrize("name", ["wave", "tilted"])
def test_frenet_at_reads_as_the_grid_row(wave, name):
    c = wave if name == "wave" else arclength_reparametrize(
        AnalyticCurve(["cos(s)", "sin(s)", "s^2/2"], (0.2, 1.5)))
    grid = frenet_grid(c, 64, margin=0.02)
    for i, s in enumerate(grid.svals):
        f = frenet_at(c, s)
        for key in ("svals", "frames", "curvatures", "degenerate_ranks",
                    "k1_prime"):
            assert getattr(f, key)[0].tobytes() == \
                getattr(grid, key)[i].tobytes(), (name, i, key)
    t = np.linspace(0.0, 2 * math.pi, 2001)
    pts = np.stack([3 * np.cos(t), 3 * np.sin(t), 4 * t], axis=1)
    assert frenet_at(arclength_reparametrize(SampledCurve(t, pts)),
                     5.0).k1_prime is None


def test_wave_frames_orthonormal_oriented(wave_grid):
    _assert_orthonormal_oriented(wave_grid.frames)


def test_wave_ode_residual(wave_grid):
    kmax = float(np.abs(wave_grid.curvatures).max())
    assert frame_ode_residual(wave_grid) <= 1e-4 * max(1.0, kmax)


def test_wave_fd_cross_check(wave_grid):
    fd = fd_curvatures(wave_grid)
    diff = np.abs(fd[1:-1] - wave_grid.curvatures[1:-1])
    assert float(diff.max()) < 1e-3


def test_circular_helix_curvatures():
    c = AnalyticCurve(["3*cos(s/5)", "3*sin(s/5)", "4*s/5"],
                      (0.0, 10 * math.pi))
    g = frenet_grid(c, 64)
    assert np.allclose(g.curvatures[:, 0], 3 / 25, atol=1e-10)
    assert np.allclose(g.curvatures[:, 1], 4 / 25, atol=1e-10)
    f = frenet_at(c, 7.0)
    assert f.curvatures[0, 0] == pytest.approx(3 / 25, abs=1e-12)
    assert f.curvatures[0, 1] == pytest.approx(4 / 25, abs=1e-12)


def test_planar_circle_is_rank_two():
    c = AnalyticCurve(["2*cos(s/2)", "2*sin(s/2)", "0"], (0.0, 4 * math.pi))
    g = frenet_grid(c, 32)
    assert np.all(g.degenerate_ranks == 2)
    assert np.allclose(g.curvatures[:, 0], 0.5, atol=1e-12)
    assert np.allclose(g.curvatures[:, 1], 0.0, atol=1e-12)
    _assert_orthonormal_oriented(g.frames)
    # the binormal of a planar curve is the plane normal
    assert np.allclose(np.abs(g.frames[:, 2]), [0, 0, 1], atol=1e-9)


def test_straight_line_is_rank_one():
    c = AnalyticCurve(["s", "0", "0"], (0.0, 5.0))
    g = frenet_grid(c, 16)
    assert np.all(g.degenerate_ranks == 1)
    _assert_orthonormal_oriented(g.frames)


def test_degenerate_rank_is_the_first_curvature_below_eps():
    # jets in E^5 whose (r+1)-th derivative lies in the span of the first r
    # read rank r; the reference is the per-curvature loop, k_1..k_{n-2}
    # being norm ratios and k_{n-1} signed
    rng = np.random.default_rng(3)
    n, m = 5, 400
    jets = rng.standard_normal((m, n, n))
    want = rng.integers(0, n, m)
    for i, r in enumerate(want):
        if r:
            jets[i, r] = rng.standard_normal(r) @ jets[i, :r]
    _, curv, ranks = _frames_from_jets(jets)
    loop = np.zeros(m, dtype=int)
    for i in range(n - 2):
        loop[(loop == 0) & (curv[:, i] < EPS_CURV)] = i + 1
    loop[(loop == 0) & (np.abs(curv[:, n - 2]) < EPS_CURV)] = n - 1
    assert np.array_equal(ranks, loop)
    assert np.array_equal(ranks, want)


def test_frames_need_a_full_order_n_jet():
    with pytest.raises(ValueError, match="^need a full order-n jet"):
        _frames_from_jets(np.ones((4, 2, 3)))


def test_planar_curve_in_dim4_gets_completed_frame():
    r = 1 / math.sqrt(2)
    c = AnalyticCurve([f"{r}*cos(s)", f"{r}*sin(s)",
                       f"{r}*cos(s)", f"{r}*sin(s)"], (0.0, 6.0))
    g = frenet_grid(c, 16)
    assert np.all(g.degenerate_ranks == 2)
    _assert_orthonormal_oriented(g.frames)


def test_dim4_curve_frames_and_residual():
    a, b = math.sqrt(0.4), math.sqrt(0.15)
    c = AnalyticCurve([f"{a}*cos(s)", f"{a}*sin(s)",
                       f"{b}*cos(2*s)", f"{b}*sin(2*s)"], (0.0, 1.5))
    assert c.unit_speed
    # grid fine enough that the residual check sees frame error, not the
    # h^4 truncation of the five-point stencil itself
    g = frenet_grid(c, 512)
    assert np.all(g.valid)
    assert np.all(g.curvatures[:, 0] > 0)
    assert np.all(g.curvatures[:, 1] > 0)
    assert np.allclose(g.curvatures[:, 0],
                       math.sqrt(a * a + 16 * b * b), atol=1e-9)
    _assert_orthonormal_oriented(g.frames[[0, 255, 511]])
    kmax = float(np.abs(g.curvatures).max())
    assert frame_ode_residual(g) <= 1e-4 * max(1.0, kmax)
    fd = fd_curvatures(g)
    assert float(np.abs(fd[2:-2] - g.curvatures[2:-2]).max()) < 1e-3


def test_sampled_unit_speed_curve():
    t = np.linspace(0.0, 2 * math.pi, 2001)
    pts = np.stack([3 * np.cos(t), 3 * np.sin(t), 4 * t], axis=1)
    uc = arclength_reparametrize(SampledCurve(t, pts))
    g = frenet_grid(uc, 64, margin=0.05)
    assert np.allclose(g.curvatures[:, 0], 3 / 25, atol=1e-6)
    assert np.allclose(g.curvatures[:, 1], 4 / 25, atol=1e-6)


def test_non_unit_speed_rejected():
    c = AnalyticCurve(["3*cos(s)", "3*sin(s)", "4*s"], (0.0, 2 * math.pi))
    with pytest.raises(NotUnitSpeedError):
        frenet_at(c, 1.0)
    with pytest.raises(NotUnitSpeedError):
        frenet_grid(c, 32)


def test_grid_size_and_margin():
    c = AnalyticCurve(["3*cos(s/5)", "3*sin(s/5)", "4*s/5"], (0.0, 10.0))
    for call in (lambda: frenet_grid(c, 8), lambda: classify(c, grid_size=8),
                 lambda: verify_same_axis(c, grid_size=8)):
        with pytest.raises(CurveError, match="at least 16 grid samples"):
            call()
    g = frenet_grid(c, 16, margin=0.1)
    assert g.svals[0] == pytest.approx(1.0)
    assert g.svals[-1] == pytest.approx(9.0)


@pytest.mark.parametrize("call", [
    lambda c, m: frenet_grid(c, m),
    lambda c, m: classify(c, grid_size=m),
    lambda c, m: verify_same_axis(c, grid_size=m),
], ids=["frenet_grid", "classify", "verify_same_axis"])
def test_grid_size_must_be_an_integer(call):
    # a float or a bool is no grid size, even an integral one; a numpy
    # integer is
    c = AnalyticCurve(["3*cos(s/5)", "3*sin(s/5)", "4*s/5"], (0.0, 10.0))
    for m in (64.0, 16.5, True, np.float64(32.0)):
        with pytest.raises(CurveError, match="at least 16 grid samples"):
            call(c, m)
    assert len(frenet_grid(c, np.int64(16))) == 16


def test_generalized_cross_matches_cross_in_3d():
    rng = np.random.default_rng(11)
    u = rng.normal(size=(40, 2, 3))
    got = generalized_cross(u)
    want = np.cross(u[:, 0, :], u[:, 1, :])
    assert np.allclose(got, want, atol=1e-12)

    # and against the signed 2x2 minors it stands for, on random,
    # near-parallel and exactly parallel pairs of rows
    a = rng.normal(size=(300, 3))
    b = np.concatenate([rng.normal(size=(100, 3)),
                        a[100:200] * (1 + 1e-9 * rng.normal(size=(100, 3))),
                        2.0 * a[200:]])
    u = np.stack([a, b], axis=1)
    want = np.empty_like(a)
    for k in range(3):
        cols = [c for c in range(3) if c != k]
        want[:, k] = (-1.0) ** k * np.linalg.det(u[:, :, cols])
    got = generalized_cross(u)
    scale = np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)
    assert np.all(np.abs(got - want).max(axis=1) <= 1e-15 * scale)
    assert np.all(got[200:] == 0.0)


def test_generalized_cross_orthogonal_in_4d():
    rng = np.random.default_rng(12)
    out = []
    for _ in range(20):
        q, _r = np.linalg.qr(rng.normal(size=(4, 4)))
        v = q.T[:3]
        n = generalized_cross(v[None])[0]
        assert np.linalg.norm(n) == pytest.approx(1.0, abs=1e-10)
        assert np.allclose(v @ n, 0.0, atol=1e-10)
        out.append(n)


# ------------------------------------------- E^5-E^7 against Gram determinants

def _gram_curvatures(components):
    """k_1..k_{n-1} at a parameter value, without helixkit's QR.

    k_i = sqrt(D_{i-1} D_{i+1}) / (D_i |alpha'|), with D_i the Gram
    determinant of alpha', ..., alpha^(i) and D_0 = 1, and k_{n-1} takes the
    sign of det[alpha', ..., alpha^(n)] (Gluck, Amer. Math. Monthly 73, 1966);
    sympy differentiates, mpmath evaluates at 50 digits.
    """
    s = sp.Symbol("s")
    rows = [sp.sympify(c.replace("^", "**"), locals={"s": s})
            for c in components]
    derivatives = []
    for _ in components:
        rows = [sp.diff(r, s) for r in rows]
        derivatives.append(rows)
    f = sp.lambdify(s, derivatives, "mpmath")
    n = len(components)

    def at(t):
        with mpmath.workdps(50):
            a = mpmath.matrix(f(mpmath.mpf(t)))
            gram = a * a.T
            d = [1] + [mpmath.det(gram[:i, :i]) for i in range(1, n + 1)]
            k = [mpmath.sqrt(d[i - 1] * d[i + 1]) / (d[i] * mpmath.sqrt(d[1]))
                 for i in range(1, n)]
            k[-1] *= mpmath.sign(mpmath.det(a))
            return np.array([float(x) for x in k])

    return at


def _trig_curve(n):
    return trig_curve(n, np.random.default_rng(n))


# the largest error relative to max(1, |k_i|) over a curve's four points
# reads 1.2e-15 on the W-curve, and 7.7e-15, 3.1e-12 and 4.0e-12 on these
# random curves in E^5, E^6 and E^7; over 20 other random curves per
# dimension it reached 4.6e-13, 6.7e-11 and 1.7e-10, as a small k_i costs
# the later ones digits.  Each bound covers its reading by 25x or more.
@pytest.mark.parametrize("components,domain,bound", [
    (W_CURVE, (0.0, 3.0), 1e-14),
    (_trig_curve(5), (0.0, 2.0), 1e-12),
    (_trig_curve(6), (0.0, 2.0), 1e-10),
    (_trig_curve(7), (0.0, 2.0), 1e-10),
], ids=["w-curve-e5", "e5", "e6", "e7"])
def test_curvatures_match_gram_determinants(components, domain, bound):
    c = AnalyticCurve(components, domain)
    uc = arclength_reparametrize(c)
    oracle = _gram_curvatures(components)
    rng = np.random.default_rng(len(components))
    err = 0.0
    for s in rng.uniform(*uc.domain, 4):
        t = s if uc is c else float(uc.parameter_of_arclength(s))
        want = oracle(t)
        got = frenet_at(uc, s).curvatures[0]
        err = max(err, float(np.max(np.abs(got - want)
                                    / np.maximum(1.0, np.abs(want)))))
    assert err <= bound
