import json
import math
from bisect import bisect_left

import numpy as np
import pytest
from hypothesis import given, strategies as st

from helixkit.curve import (
    AnalyticCurve, Curve, ReparametrizedCurve, SampledCurve, arclength_reparametrize,
    finite_difference_weights, load_curve,
)
from helixkit.errors import CurveError, CurveFormatError, NonRegularCurveError

WAVE = ["(2/5)*sin(2*s) - (1/40)*sin(8*s)",
        "-(2/5)*cos(2*s) + (1/40)*cos(8*s)",
        "(4/15)*sin(3*s)"]
WAVE_DOMAIN = (math.pi / 3, 2 * math.pi / 3)


# ------------------------------------------------------------ fd weights

def test_weights_match_classic_stencils():
    h = 0.1
    nodes = h * np.arange(-2, 3)
    w = finite_difference_weights(0.0, nodes, 2)
    assert np.allclose(w[1] * 12 * h, [1, -8, 0, 8, -1], atol=1e-12)
    assert np.allclose(w[2] * 12 * h * h, [-1, 16, -30, 16, -1], atol=1e-11)

    w = finite_difference_weights(0.0, h * np.arange(3), 1)
    assert np.allclose(w[1] * 2 * h, [-3, 4, -1], atol=1e-12)


def test_weights_exact_on_polynomials():
    rng = np.random.default_rng(7)
    for _ in range(20):
        nodes = np.sort(rng.uniform(-1, 1, size=7))
        x0 = rng.uniform(nodes[0], nodes[-1])
        w = finite_difference_weights(x0, nodes, 4)
        coef = rng.uniform(-2, 2, size=7)        # degree-6 polynomial
        p = np.polynomial.Polynomial(coef)
        for k in range(5):
            want = p.deriv(k)(x0) if k else p(x0)
            got = w[k] @ p(nodes)
            assert got == pytest.approx(want, rel=1e-7, abs=1e-7)

    # batched: every point's rows are those of a call for that point alone
    nodes = np.sort(rng.uniform(-1, 1, size=(4, 3, 7)), axis=-1)
    x0 = rng.uniform(-1, 1, size=(4, 3))
    w = finite_difference_weights(x0, nodes, 4)
    assert w.shape == (4, 3, 5, 7)
    for i in range(4):
        for j in range(3):
            one = finite_difference_weights(float(x0[i, j]), nodes[i, j], 4)
            assert np.array_equal(w[i, j], one)


@given(st.integers(0, 4), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([(), (3,), (2, 5)]), st.integers(0, 3))
def test_weight_rows_do_not_depend_on_maxorder(maxorder, seed, lead, extra):
    rng = np.random.default_rng(seed)
    nodes = np.sort(rng.uniform(-1, 1, size=lead + (maxorder + 1 + extra,)),
                    axis=-1)
    x0 = rng.uniform(-1, 1, size=lead)
    w = finite_difference_weights(x0, nodes, maxorder)
    assert w.flags.c_contiguous
    assert w.shape == lead + (maxorder + 1, nodes.shape[-1])
    for k in range(maxorder + 1):
        alone = finite_difference_weights(x0, nodes, k)
        assert np.array_equal(w[..., k, :], alone[..., k, :])


# ------------------------------------------------------- analytic curves

def test_analytic_jet_values():
    c = AnalyticCurve(WAVE, WAVE_DOMAIN)
    j = c.jet(math.pi / 2, 1)
    assert np.allclose(j[0], [-1.0, 0.0, 0.0], atol=1e-12)

    line = AnalyticCurve(["s", "0", "0"], (0.0, 2.0))
    j = line.jet(1.3, 2)
    assert np.allclose(j[0], [1, 0, 0])
    assert np.allclose(j[1], [0, 0, 0])


def test_analytic_unit_speed_is_measured():
    c = AnalyticCurve(WAVE, WAVE_DOMAIN)
    assert c.unit_speed
    assert c.unit_speed_error < 1e-12

    helix = AnalyticCurve(["3*cos(s)", "3*sin(s)", "4*s"], (0.0, 2 * math.pi))
    assert not helix.unit_speed      # speed is 5 throughout


def test_analytic_jet_grid_matches_pointwise():
    c = AnalyticCurve(WAVE, WAVE_DOMAIN)
    grid = np.linspace(*WAVE_DOMAIN, 23)[1:-1]
    g = c.jet_grid(grid, 3)
    for i, s in enumerate(grid):
        assert np.allclose(g[i], c.jet(float(s), 3), rtol=1e-13)


def test_analytic_domain_enforced():
    c = AnalyticCurve(WAVE, WAVE_DOMAIN)
    with pytest.raises(CurveError):
        c.jet(0.0, 1)
    with pytest.raises(CurveError):
        c.point(10.0)


def test_analytic_curve_needs_two_components():
    with pytest.raises(CurveError, match="^need at least 2 components$"):
        AnalyticCurve(["s"], (0.0, 1.0))


# -------------------------------------------------------- sampled curves

def _sampled_helix(m=2001):
    t = np.linspace(0.0, 2 * math.pi, m)
    pts = np.stack([3 * np.cos(t), 3 * np.sin(t), 4 * t], axis=1)
    return SampledCurve(t, pts)


def test_sampled_jet_order1():
    c = _sampled_helix()
    j = c.jet(math.pi, 1)
    assert np.allclose(j[0], [0.0, -3.0, 4.0], atol=1e-6)


def test_sampled_jets_match_closed_form():
    # (cos t, sin t, t): all derivative orders known exactly
    t = np.linspace(0.0, 3.0, 2001)
    c = SampledCurve(t, np.stack([np.cos(t), np.sin(t), t], axis=1))

    def exact(tt, k):
        quarter = [(np.cos, np.sin), (lambda x: -np.sin(x), np.cos),
                   (lambda x: -np.cos(x), lambda x: -np.sin(x)),
                   (np.sin, lambda x: -np.cos(x))]
        fx, fy = quarter[k % 4]
        z = 1.0 if k == 1 else 0.0
        return np.array([fx(tt), fy(tt), z])

    for tt in [0.7, 1.5, 2.2]:
        d = c.jet(tt, 4)
        for k in range(1, 5):
            assert np.allclose(d[k - 1], exact(tt, k), atol=1e-6), (tt, k)
    # shifted stencils near the ends lose symmetry; d4 is the worst case
    for tt in [0.005, 2.995]:
        d = c.jet(tt, 4)
        for k in range(1, 5):
            assert np.allclose(d[k - 1], exact(tt, k), atol=1e-4), (tt, k)


def test_sampled_velocities_are_taken_once_at_the_samples():
    c = _sampled_helix(801)
    assert np.array_equal(c.velocities, c.jet_grid(c.params, 1)[:, 0])
    assert not c.velocities.flags.writeable
    with pytest.raises(ValueError):
        c.velocities[0, 0] = 0.0
    speeds = np.linalg.norm(c.velocities, axis=1)
    assert c.unit_speed_error == np.max(np.abs(speeds - 1.0))
    assert not c.unit_speed                 # speed is 5 throughout
    assert c.length() == np.trapezoid(speeds, c.params)
    t = np.linspace(0.0, 2.0, 401)
    circle = SampledCurve(t, np.stack([np.cos(t), np.sin(t), 0 * t], axis=1))
    assert circle.unit_speed and circle.unit_speed_error < 1e-8


def test_sampled_point_interpolates():
    c = _sampled_helix()
    p = c.point(1.234567)
    assert np.allclose(p, [3 * math.cos(1.234567), 3 * math.sin(1.234567),
                           4 * 1.234567], atol=1e-9)


def test_sampled_validation():
    t = np.linspace(0, 1, 20)
    pts = np.zeros((20, 3))
    with pytest.raises(CurveError):
        SampledCurve(t[:5], pts[:5])             # too few for n=3
    bad = t.copy()
    bad[10] = bad[9]
    with pytest.raises(CurveError):
        SampledCurve(bad, pts)
    with pytest.raises(CurveError):
        c = _sampled_helix()
        c.jet(1.0, 5)


def test_sampled_curve_names_unusable_arrays():
    t = np.linspace(0.0, 1.0, 20)
    pts = np.stack([np.cos(t), np.sin(t), t], axis=1)
    holed = pts.copy()
    holed[10, 1] = np.nan
    for points, message in [
            (pts[:19], "need parallel arrays of parameters and points"),
            (pts[:, :1], "need at least 2 coordinates"),
            (holed, "non-finite sample data")]:
        with pytest.raises(CurveError, match=f"^{message}$"):
            SampledCurve(t, points)


# ------------------------------------------------------ reparametrization

def test_reparametrize_circular_helix():
    helix = AnalyticCurve(["3*cos(s)", "3*sin(s)", "4*s"], (0.0, 2 * math.pi))
    uc = arclength_reparametrize(helix)
    assert uc.unit_speed
    assert uc.length() == pytest.approx(10 * math.pi, rel=1e-8)

    # exact unit-speed form is (3cos(s/5), 3sin(s/5), 4s/5)
    for s in [0.0, 3.1, 12.0, 10 * math.pi]:
        d = uc.jet(s, 4)
        want1 = np.array([-0.6 * math.sin(s / 5), 0.6 * math.cos(s / 5), 0.8])
        want2 = np.array([-3 / 25 * math.cos(s / 5),
                          -3 / 25 * math.sin(s / 5), 0.0])
        want3 = np.array([3 / 125 * math.sin(s / 5),
                          -3 / 125 * math.cos(s / 5), 0.0])
        want4 = np.array([3 / 625 * math.cos(s / 5),
                          3 / 625 * math.sin(s / 5), 0.0])
        assert np.allclose(d[0], want1, atol=1e-9)
        assert np.allclose(d[1], want2, atol=1e-9)
        assert np.allclose(d[2], want3, atol=1e-9)
        assert np.allclose(d[3], want4, atol=1e-9)


def test_reparametrized_d1_is_original_over_speed():
    helix = AnalyticCurve(["3*cos(s)", "3*sin(s)", "4*s"], (0.0, 2 * math.pi))
    uc = arclength_reparametrize(helix)
    for s in np.linspace(0.0, uc.total_length, 9):
        t = float(uc.parameter_of_arclength(s))
        orig = helix.jet(t, 1)[0]
        got = uc.jet(float(s), 1)[0]
        assert np.allclose(got, orig / np.linalg.norm(orig), atol=1e-6)


def test_reparametrize_jets_consistent_with_differences():
    # variable-speed curve: chain-rule jets vs differences of lower orders
    c = AnalyticCurve(["s", "s^2/2"], (0.0, 1.0))
    uc = arclength_reparametrize(c)
    a, b = uc.domain
    h = 1e-3
    svals = np.linspace(a + 5 * h, b - 5 * h, 11)
    for k in range(2, 5):
        lower = k - 1
        for s in svals:
            stencil = s + h * np.arange(-2, 3)
            vals = uc.jet_grid(stencil, lower)[:, lower - 1, :]
            fd = (vals[0] - 8 * vals[1] + 8 * vals[3] - vals[4]) / (12 * h)
            got = uc.jet(float(s), k)[k - 1]
            assert np.allclose(got, fd, atol=1e-7), (k, s)


def test_reparametrized_curves_are_unit_speed_by_construction():
    # t'(s) = 1/v(t) comes from the same numbering as v, so |d1| is 1 to
    # rounding on any grid, and the flag is set without a measurement
    from helixkit.helix import tangent_indicatrix
    tilted = arclength_reparametrize(
        AnalyticCurve(["cos(s)", "sin(s)", "s^2/2"], (0.2, 1.5)))
    wave = AnalyticCurve(WAVE, WAVE_DOMAIN)
    curves = [tilted, tangent_indicatrix(tilted),
              tangent_indicatrix(wave, margin=0.02)]
    for c in curves:
        assert isinstance(c, ReparametrizedCurve) and c.unit_speed
        grid = np.linspace(*c.domain, 20001)
        speed = np.linalg.norm(c.jet_grid(grid, 1)[:, 0, :], axis=1)
        assert np.max(np.abs(speed - 1.0)) <= 1e-14


def test_reparametrize_unit_speed_input_unchanged():
    c = AnalyticCurve(WAVE, WAVE_DOMAIN)
    assert arclength_reparametrize(c) is c


@pytest.mark.parametrize("order", [0, -1])
def test_every_jet_grid_rejects_an_order_below_one(order):
    t = np.linspace(0.0, 1.0, 40)
    curves = [AnalyticCurve(WAVE, WAVE_DOMAIN),
              arclength_reparametrize(
                  AnalyticCurve(["cos(s)", "sin(s)", "s^2/2"], (0.2, 1.5))),
              SampledCurve(t, np.stack([np.cos(t), np.sin(t), t], axis=1))]
    for c in curves:
        s = float(np.mean(c.domain))
        for call in (lambda: c.jet_grid([s], order), lambda: c.jet(s, order)):
            with pytest.raises(CurveError, match="jet order must be >= 1"):
                call()


def test_length_of_a_unit_speed_curve_is_its_domain():
    uc = arclength_reparametrize(
        AnalyticCurve(["3*cos(s)", "3*sin(s)", "4*s"], (0.0, 2 * math.pi)))
    assert uc.length() == uc.total_length

    class Bare(Curve):          # a curve with no length of its own
        dim, domain, unit_speed = 2, (0.0, 1.0), False

    with pytest.raises(CurveError, match="no length for Bare"):
        Bare().length()


def test_a_bare_curve_has_no_points():
    class Bare(Curve):          # overrides neither grid nor `_derivatives`
        dim, domain, unit_speed = 2, (0.0, 1.0), False

    with pytest.raises(NotImplementedError):
        Bare().point_grid([0.5])


def test_reparametrize_names_a_curve_it_cannot_take():
    class Bare(Curve):          # neither analytic, sampled nor unit speed
        dim, domain, unit_speed = 2, (0.0, 1.0), False

    with pytest.raises(CurveError, match="^cannot reparametrize Bare$"):
        arclength_reparametrize(Bare())


def test_reparametrize_rejects_nonregular():
    cusp = AnalyticCurve(["s^3", "0"], (-1.0, 1.0), parameter="s")
    with pytest.raises(NonRegularCurveError):
        arclength_reparametrize(cusp)


def test_reparametrize_names_a_non_finite_speed_derivative():
    # v = sqrt(1 + 6.25 |s|^3) is 1 at the table node s = 0, but the series
    # of (s^2)^0.25 in its tree has no finite derivative there
    c = AnalyticCurve(["s", "(s^2)^1.25"], (-1.0, 1.0))
    with pytest.raises(NonRegularCurveError,
                       match="non-finite speed derivative at t=0$"):
        arclength_reparametrize(c)


def test_reparametrize_sampled():
    c = _sampled_helix()
    uc = arclength_reparametrize(c)
    assert uc.unit_speed
    assert uc.domain[1] == pytest.approx(10 * math.pi, rel=1e-4)
    s = 0.37 * uc.domain[1]
    d1 = uc.jet(s, 1)[0]
    assert np.linalg.norm(d1) == pytest.approx(1.0, abs=1e-4)


# -------------------------------------------------------------- loading

def test_load_analytic_roundtrip(tmp_path):
    spec = {"dim": 3, "parameter": "s", "components": WAVE,
            "domain": [WAVE_DOMAIN[0], WAVE_DOMAIN[1]]}
    c = load_curve(spec)
    assert isinstance(c, AnalyticCurve)
    assert c.dim == 3 and c.unit_speed

    path = tmp_path / "curve.json"
    path.write_text(json.dumps(spec))
    c2 = load_curve(str(path))
    assert np.allclose(c2.point(1.5), c.point(1.5))

    c3 = load_curve(json.dumps(spec))
    assert c3.dim == 3


def test_load_sampled():
    t = np.linspace(0, 1, 16)
    rows = [[float(tt), math.cos(tt), math.sin(tt)] for tt in t]
    c = load_curve({"dim": 2, "samples": rows})
    assert isinstance(c, SampledCurve)
    assert c.dim == 2
    assert load_curve({"dim": 2.0, "samples": rows}).dim == 2


@pytest.mark.parametrize("spec", [
    [],
    {"parameter": "s"},
    {"dim": 3, "components": ["s", "s"], "domain": [0, 1]},
    {"dim": 2, "components": ["s", "s"], "domain": [1, 1]},
    {"dim": 2, "components": ["s", "s"]},
    {"dim": 2, "components": ["s", "nope(s)"], "domain": [0, 1]},
    {"dim": 2, "components": ["s", "s"], "domain": ["a", 1]},
    {"dim": 2, "components": ["s", "s"], "domain": [None, 1]},
    {"dim": 2, "components": [1, "s^2"], "domain": [0, 1]},
    {"dim": 2, "samples": [[0, 1], [1, 2]]},
    {"dim": 2, "samples": "text"},
    {"dim": 2, "samples": [[t, t, 2 * t] for t in range(8)]
     + [[3, 9, 9]]},
    {"dim": 2},
    # int() would truncate 3.9 to 3 and read the string
    {"dim": 3.9, "components": ["s", "s", "s"], "domain": [0, 1]},
    {"dim": "2", "components": ["s", "s"], "domain": [0, 1]},
])
def test_load_rejects_bad_specs(spec):
    with pytest.raises(CurveFormatError):
        load_curve(spec)


def test_load_rejects_bad_file(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(CurveFormatError):
        load_curve(str(p))
    with pytest.raises(CurveFormatError):
        load_curve(str(tmp_path / "missing.json"))


def test_load_reads_only_text_and_paths_as_sources(tmp_path):
    # any other value is taken for the spec itself, which must be an object
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    for source in (str(path), [1, 2]):
        with pytest.raises(CurveFormatError,
                           match="^curve spec must be a JSON object$"):
            load_curve(source)
    path.write_text(json.dumps({"dim": 3, "components": WAVE,
                                "domain": list(WAVE_DOMAIN)}))
    assert isinstance(load_curve(path), AnalyticCurve)


def test_load_names_a_bad_parameter_and_bad_json_text():
    spec = {"dim": 3, "components": WAVE, "domain": list(WAVE_DOMAIN)}
    with pytest.raises(CurveFormatError,
                       match='^"parameter" must be a string$'):
        load_curve(dict(spec, parameter=3))
    with pytest.raises(CurveFormatError, match="^invalid JSON: "):
        load_curve('{"dim": 3,')


# ------------------------------------------------------- grid domain checks

def _grid_curves():
    analytic = AnalyticCurve(["s", "s^2", "s^3"], (0.0, 3.0))
    return {
        "analytic": analytic,
        "sampled": _sampled_helix(201),
        "reparametrized": arclength_reparametrize(
            AnalyticCurve(["3*cos(s)", "3*sin(s)", "4*s"], (0.0, 1.0))),
    }


@pytest.mark.parametrize("kind", ["analytic", "sampled", "reparametrized"])
def test_grids_reject_nonfinite_and_out_of_domain(kind):
    c = _grid_curves()[kind]
    a, b = c.domain
    inside = np.linspace(a, b, 9)
    for bad in (b + 1e3, a - 1.0, np.nan, np.inf):
        svals = np.append(inside, bad)
        with pytest.raises(CurveError):
            c.jet_grid(svals, 2)
        with pytest.raises(CurveError):
            c.point_grid(svals)
    with pytest.raises(CurveError):
        c.point(np.nan)
    with pytest.raises(CurveError):
        c.jet(np.nan, 1)
    if kind == "analytic":
        # a parameter in the domain at a pole of a component
        pole = AnalyticCurve(["s", "1/(s-1)", "s"], (0.0, 2.0))
        with pytest.raises(CurveError, match=r"non-finite point at s=1$"):
            pole.point(1.0)
        with pytest.raises(CurveError, match=r"non-finite point at s=1$"):
            pole.point_grid(np.linspace(0.0, 2.0, 9))
    # the domain tolerance still admits roundoff at the ends
    tol = 1e-10 * max(1.0, abs(a), abs(b))
    assert c.jet_grid([a - tol, b + tol], 1).shape == (2, 1, 3)
    assert c.jet_grid([], 2).shape == (0, 2, 3)
    assert c.point_grid(np.array([])).shape == (0, 3)


# ------------------------------------------- batched stencils, per point

def _reference_derivative(c, s, k):
    """The per-point stencil: nearest nodes by bisection, 1-D weights."""
    m = len(c.params)
    w = 5 if k <= 2 else 7
    stride = 1
    if k:
        stride = int(round(np.finfo(float).eps ** (1.0 / (k + 4)) / c._h_med))
        stride = max(1, min(stride, (m - 1) // (w - 1)))
    span = (w - 1) * stride
    first = bisect_left(c.params, s) - (w // 2) * stride
    first = max(0, min(first, m - 1 - span))
    idx = np.arange(first, first + span + 1, stride)
    return finite_difference_weights(s, c.params[idx], k)[k] @ c.points[idx]


@st.composite
def _sampled_curves(draw):
    dim = draw(st.sampled_from([3, 4]))
    m = draw(st.integers(2 * (dim + 2), 400))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    steps = rng.uniform(0.1, 1.0, m) * draw(st.sampled_from([1e-3, 1e-2]))
    t = draw(st.floats(-5.0, 5.0)) + np.cumsum(steps)
    pts = (np.cumsum(rng.normal(scale=0.01, size=(m, dim)), axis=0)
           + np.sin(t)[:, None])
    svals = np.concatenate([t[::17], rng.uniform(t[0], t[-1], 10),
                            t[[0, -1]]])
    return SampledCurve(t, pts), svals


@given(_sampled_curves())
def test_sampled_grids_equal_per_point_stencils(case):
    c, svals = case
    jets = c.jet_grid(svals, 4)
    points = c.point_grid(svals)
    for i, s in enumerate(svals):
        s = float(s)
        assert np.array_equal(points[i], _reference_derivative(c, s, 0))
        for k in range(1, 5):
            assert np.array_equal(jets[i, k - 1],
                                  _reference_derivative(c, s, k))
    for order in range(1, 4):
        assert np.array_equal(c.jet_grid(svals, order), jets[:, :order])


def test_sampled_jet_grid_rejects_nonfinite_without_warning():
    # at spacing 1e-78 the order-4 stencils overflow to inf and nan; the grid
    # raises at the first such row, as the analytic grids do, and numpy's
    # warnings (errors under this suite's settings) stay silent
    h = 1e-78
    t = h * np.arange(40)
    c = SampledCurve(t, np.stack([np.cos(t / h / 10), np.sin(t / h / 10),
                                  t / h / 10], axis=1))
    with pytest.raises(CurveError, match=r"non-finite derivative at s=5e-78$"):
        c.jet_grid(c.params[5:8], 4)
    with pytest.raises(CurveError, match=r"non-finite derivative at s=6e-78$"):
        c.jet(c.params[6], 4)
    assert np.isfinite(c.jet_grid(c.params[5:8], 1)).all()
