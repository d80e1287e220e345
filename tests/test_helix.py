import functools
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (W_CURVE, WAVE, WAVE_TRIMMED, count_stencil_passes,
                      equivalence_corpus, helix_axis_field_3d,
                      indicatrix_curvatures_3d, orthogonal_matrices,
                      slant_invariant_3d, trig_curve,
                      unit_speed_circular_helix)
from helixkit.curve import (AnalyticCurve, Curve, SampledCurve,
                            arclength_reparametrize)
from helixkit.errors import (ClassificationError, CurveError,
                             DegenerateCurveError, UnreliableResultError)
from helixkit.frenet import FrenetGrid, frenet_grid
from helixkit.helix import (_axis_statistics, axis_field, classify,
                            general_functions, harmonic_curvatures,
                            slant_functions, tangent_indicatrix,
                            verify_same_axis)

EZ = np.array([0.0, 0.0, 1.0])


def angle_to(u, v):
    return math.acos(min(1.0, abs(float(np.dot(u, v)))))


@pytest.fixture(scope="module")
def wave_grid(wave_trimmed):
    return frenet_grid(wave_trimmed, 512)


@pytest.fixture(scope="module")
def wave_report(wave_trimmed):
    return classify(wave_trimmed)


@pytest.fixture(scope="module")
def helix34():
    return unit_speed_circular_helix(3.0, 4.0)


@pytest.fixture(scope="module")
def helix34_grid(helix34):
    return frenet_grid(helix34, 256)


@pytest.fixture(scope="module")
def planar_circle():
    return AnalyticCurve(["2*cos(s/2)", "2*sin(s/2)", "0"], (0.0, 4 * math.pi))


@pytest.fixture(scope="module")
def slant4_grid(slant4):
    curve, _ = slant4
    return frenet_grid(curve, 512, margin=0.02)


# --- slant recursion ---

def test_slant_recursion_wave_closed_forms(wave_grid):
    # on the wave curve the recursion closes: G = ((4/3)cos 3s, 1, -(4/3)sin 3s)
    sf = slant_functions(wave_grid)
    s = wave_grid.svals
    assert np.abs(sf.values[:, 0] - (4.0 / 3.0) * np.cos(3 * s)).max() <= 1e-5
    assert np.all(sf.values[:, 1] == 1.0)
    assert np.abs(sf.values[:, 2] + (4.0 / 3.0) * np.sin(3 * s)).max() <= 1e-5
    assert abs(sf.integration_constant) <= 1e-4


def test_slant_sum_of_squares_constant(wave_grid):
    sf = slant_functions(wave_grid)
    total = (sf.values[sf.mask] ** 2).sum(axis=1)
    assert np.abs(total - 25.0 / 9.0).max() / (25.0 / 9.0) <= 1e-4


def test_slant_mask_excludes_vanishing_torsion(wave_trimmed):
    # an odd-size grid on the symmetric window lands a sample where the
    # torsion crosses zero; that sample must be masked, the rest kept
    grid = frenet_grid(wave_trimmed, 513)
    sf = slant_functions(grid)
    tau = grid.curvatures[:, 1]
    assert np.array_equal(sf.mask, np.abs(tau) >= 1e-6)
    assert (~sf.mask).sum() == 1
    assert 0.0 < sf.masked_fraction < 0.05


# --- classification ---

def test_classify_wave_is_slant_helix(wave_report):
    rep = wave_report
    assert rep.classification == "slant-helix"
    assert rep.slant.passed and not rep.general.passed
    assert abs(rep.cos_theta - 0.6) <= 1e-5
    assert abs(rep.C - 25.0 / 9.0) / (25.0 / 9.0) <= 1e-4
    assert rep.slant.axis_residual <= 1e-4
    assert abs(rep.slant.integration_constant) <= 1e-4
    assert angle_to(rep.axis, EZ) <= 1e-5
    assert not rep.planar
    assert rep.masked_fraction < 0.05


def test_classify_circular_helix_is_general_helix(helix34):
    rep = classify(helix34)
    assert rep.classification == "general-helix"
    assert rep.general.passed and not rep.slant.passed
    assert abs(rep.cos_theta - 0.8) <= 1e-6
    assert abs(rep.C - 25.0 / 16.0) / (25.0 / 16.0) <= 1e-6
    assert angle_to(rep.axis, EZ) <= 1e-6


def test_report_serialization_fields(wave_report):
    d = wave_report.to_dict()
    for key in ("classification", "cos_theta", "C", "axis",
                "constancy_residual", "axis_residual", "masked_fraction"):
        assert key in d
    assert isinstance(d["axis"], list) and len(d["axis"]) == 3
    json.dumps(d)


# --- general recursion and harmonic functions ---

def test_axis_statistics_of_rows_without_a_direction():
    mask = np.ones(4, dtype=bool)
    assert _axis_statistics(np.zeros((4, 3)), mask) == (None, math.inf)
    cancel = np.array([[1.0, 2.0, 0.0], [-2.0, -4.0, 0.0]])
    assert _axis_statistics(cancel, mask[:2]) == (None, math.inf)


def test_general_recursion_circular_helix(helix34_grid):
    gf = general_functions(helix34_grid)
    assert np.all(gf.values[:, 0] == 1.0)
    assert np.all(gf.values[:, 1] == 0.0)
    # third function is curvature over torsion = (3/25)/(4/25)
    assert np.abs(gf.values[:, 2] - 0.75).max() <= 1e-8


def test_harmonic_circular_helix(helix34_grid):
    hf = harmonic_curvatures(helix34_grid)
    assert np.all(hf.values[:, 0] == 0.0)
    assert np.abs(hf.values[:, 1] - 0.75).max() <= 1e-8


def test_harmonic_curvatures_need_dimension_3():
    circle = AnalyticCurve(["2*cos(s/2)", "2*sin(s/2)"], (0.0, 8.0))
    with pytest.raises(DegenerateCurveError, match="dimension >= 3$"):
        harmonic_curvatures(frenet_grid(circle, 64))


def paper_harmonic_curvatures(grid):
    """H_0 = 0, H_1 = k_1/k_2, H_i = (H'_{i-1} + H_{i-2} k_i)/k_{i+1}."""
    s, k = grid.svals, grid.curvatures
    H = [np.zeros(len(s)), k[:, 0] / k[:, 1]]
    for i in range(2, grid.dim - 1):
        H.append((np.gradient(H[i - 1], s, edge_order=2)
                  + H[i - 2] * k[:, i - 1]) / k[:, i])
    return np.stack(H, axis=1)


def test_general_functions_extend_harmonic_ones(helix34_grid, slant4_grid):
    # the starred functions reproduce the harmonic ones shifted by two:
    # G*_{i+2} = H_i, starting from G*_2 = H_0 = 0
    for grid in (helix34_grid, slant4_grid):
        want = paper_harmonic_curvatures(grid)
        gf = general_functions(grid)
        hf = harmonic_curvatures(grid)
        assert np.abs(gf.values[gf.mask, 1:] - want[gf.mask]).max() <= 1e-12
        assert np.abs(hf.values[hf.mask] - want[hf.mask]).max() <= 1e-12


def test_w_curve_in_e5_is_a_general_helix():
    # the recursions run to G*_5 and H_3 here; readings 1.2e-15 (cos),
    # 2.2e-15 (axis off e_5) and a largest G* spread of 9.7e-12, the
    # second-order np.gradient noise on constants; bounds 1e-13 and 1e-9
    c = AnalyticCurve(W_CURVE, (0.0, 6.0))
    rep = classify(c)
    assert rep.classification == "general-helix"
    assert abs(rep.cos_theta - math.sqrt(0.39)) <= 1e-13
    assert np.abs(rep.axis[:4]).max() <= 1e-13 and rep.axis[4] > 0.0
    grid = frenet_grid(c, 512)
    for funcs in (general_functions(grid), harmonic_curvatures(grid)):
        assert np.all(funcs.mask)
        assert np.ptp(funcs.values, axis=0).max() <= 1e-9


@st.composite
def curvature_grids(draw):
    """FrenetGrids of smooth curvature profiles; k_1 may be tiny or cross 0.

    Frames are the identity: the slant fit reads only the curvatures.
    """
    n = draw(st.integers(3, 5))
    m = draw(st.integers(32, 160))
    s = np.linspace(0.0, draw(st.floats(0.5, 6.0)), m)

    def wave(lo, hi):
        mean = draw(st.floats(lo, hi))
        amp = draw(st.floats(0.0, 1.0))
        return mean + amp * np.sin(draw(st.floats(0.2, 3.0)) * s
                                   + draw(st.floats(0.0, 6.3)))

    scale = draw(st.sampled_from([1e-6, 1e-3, 0.1, 1.0, 5.0]))
    k = [scale * wave(-1.0, 1.0)]
    k += [draw(st.sampled_from([-1.0, 1.0])) * wave(1.2, 4.0)
          for _ in range(n - 2)]
    frames = np.broadcast_to(np.eye(n), (m, n, n))
    return FrenetGrid(s, frames, np.stack(k, axis=1), np.zeros(m, dtype=int))


@settings(max_examples=60)
@given(curvature_grids())
def test_slant_constant_minimizes_variance(grid):
    # G(c) = G(c*) + (c - c*) G*, so the variance of sum G_i^2 is scanned
    # directly over a window far wider than the fitted constant
    sf = slant_functions(grid)
    G = sf.values[sf.mask]
    Q = general_functions(grid).values[sf.mask]
    c_star = sf.integration_constant
    width = 100.0 * (1.0 + abs(c_star) + np.abs(G[:, 0]).max())
    d = np.linspace(-width, width, 4001)[:, None]
    totals = (np.sum(G * G, axis=1) + 2.0 * d * np.sum(G * Q, axis=1)
              + d * d * np.sum(Q * Q, axis=1))
    best = np.var(totals, axis=1).min()
    at_star = np.var(np.sum(G * G, axis=1))
    assert at_star <= best + 1e-12 * np.mean(np.sum(G * G, axis=1)) ** 2


def test_planar_curve_recursions_raise(planar_circle):
    grid = frenet_grid(planar_circle, 128)
    with pytest.raises(UnreliableResultError) as info:
        slant_functions(grid)
    assert info.value.masked_fraction == 1.0
    with pytest.raises(UnreliableResultError):
        harmonic_curvatures(grid)


def test_classify_planar_circle(planar_circle):
    rep = classify(planar_circle)
    assert rep.classification == "neither"
    assert rep.planar
    assert abs(abs(rep.planar_normal[2]) - 1.0) <= 1e-8
    assert rep.masked_fraction == 1.0
    assert "masked" in rep.slant.error
    assert "masked" in rep.general.error


# --- scalar invariant ---

def test_invariant_constant_on_slant_wave(wave_grid):
    sigma = slant_invariant_3d(wave_grid)
    finite = np.isfinite(sigma)
    assert finite.all()
    assert np.abs(sigma - 0.75).max() <= 1e-5
    # mean value equals cot(theta) for the detected angle
    cot = 0.6 / 0.8
    assert abs(sigma.mean() - cot) / cot <= 1e-3


def test_invariant_zero_for_circular_helix(helix34_grid):
    sigma = slant_invariant_3d(helix34_grid)
    assert np.abs(sigma).max() <= 1e-12


def test_invariant_zero_for_planar_curve(planar_circle):
    grid = frenet_grid(planar_circle, 128)
    sigma = slant_invariant_3d(grid)
    assert np.abs(sigma).max() <= 1e-12


# --- margins ---

@pytest.mark.parametrize("margin", [0.6, -0.1, 0.5, float("nan")])
def test_margin_outside_zero_to_half_is_refused(wave_trimmed, margin):
    # one check serves all four, where 0.6 used to classify a reversed grid
    for call in (lambda: frenet_grid(wave_trimmed, 16, margin=margin),
                 lambda: classify(wave_trimmed, margin=margin),
                 lambda: tangent_indicatrix(wave_trimmed, margin=margin),
                 lambda: verify_same_axis(wave_trimmed, margin=margin)):
        with pytest.raises(CurveError, match=f"margin {margin} "):
            call()


# --- tangent indicatrix ---

def test_indicatrix_wave_matches_closed_form(wave_trimmed):
    beta = tangent_indicatrix(wave_trimmed)
    a = WAVE_TRIMMED[0]
    s = np.linspace(WAVE_TRIMMED[0], WAVE_TRIMMED[1], 201)[1:-1]
    # indicatrix arc length grows as the integral of the curvature
    sb = (4.0 / 3.0) * (np.cos(3 * s) - np.cos(3 * a))
    pts = beta.point_grid(sb)
    want = np.stack([0.8 * np.cos(2 * s) - 0.2 * np.cos(8 * s),
                     0.8 * np.sin(2 * s) - 0.2 * np.sin(8 * s),
                     0.8 * np.cos(3 * s)], axis=1)
    assert np.abs(pts - want).max() <= 1e-9
    assert np.abs(np.linalg.norm(pts, axis=1) - 1.0).max() <= 1e-9


def test_indicatrix_length_is_curvature_integral(wave_trimmed):
    beta = tangent_indicatrix(wave_trimmed)
    a, b = WAVE_TRIMMED
    want = (4.0 / 3.0) * (np.cos(3 * b) - np.cos(3 * a))
    assert abs(beta.domain[1] - want) <= 1e-9


def test_indicatrix_builds_stay_small_in_memory(wave_trimmed):
    # each series is dropped after its last use; tracemalloc peaks measured
    # 1.77 MiB (wave) and 1.69 MiB (tilted spiral), 2.62 and 2.98 MiB when
    # every repeated subtree was evaluated again, 5.79 and 5.51 MiB if
    # nothing is released
    tilted = AnalyticCurve(["cos(s)", "sin(s)", "s^2/2"], (0.2, 1.5))
    for curve in (wave_trimmed, tilted):
        tangent_indicatrix(curve)
        tracemalloc.start()
        try:
            tangent_indicatrix(curve)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 2 ** 20, peak / 2 ** 20


def test_indicatrix_circular_helix_is_latitude_circle(helix34):
    beta = tangent_indicatrix(helix34)
    pts = beta.point_grid(np.linspace(*beta.domain, 100))
    assert np.abs(pts[:, 2] - 0.8).max() <= 1e-12
    assert np.abs(pts[:, 0] ** 2 + pts[:, 1] ** 2 - 0.36).max() <= 1e-12


def test_indicatrix_of_a_curve_without_a_unit_tangent_is_refused():
    class Bare(Curve):
        dim, domain, unit_speed = 3, (0.0, 1.0), True

    with pytest.raises(DegenerateCurveError,
                       match="cannot build an indicatrix for Bare"):
        tangent_indicatrix(Bare())


def test_indicatrix_of_line_degenerate():
    line = AnalyticCurve(["0.6*s", "0.8*s", "0"], (0.0, 2.0))
    with pytest.raises(DegenerateCurveError):
        tangent_indicatrix(line)


def test_indicatrix_curvature_formulas(wave_trimmed, wave_grid):
    # formulas from the source curve and direct frames of the built
    # indicatrix must both land on the closed forms, hence on each other
    kb, tb = indicatrix_curvatures_3d(wave_grid)
    s = wave_grid.svals
    assert np.abs(kb + 1.0 / np.sin(3 * s)).max() <= 1e-8
    assert np.abs(tb + 3.0 / (4.0 * np.sin(3 * s))).max() <= 1e-8

    beta = tangent_indicatrix(wave_trimmed)
    gb = frenet_grid(beta, 512, margin=0.02)
    c3 = np.clip(np.cos(3 * WAVE_TRIMMED[0]) + 0.75 * gb.svals, -1.0, 1.0)
    s_of = (2 * math.pi - np.arccos(c3)) / 3.0
    assert np.abs(gb.curvatures[:, 0] + 1.0 / np.sin(3 * s_of)).max() <= 1e-8
    assert np.abs(gb.curvatures[:, 1] + 3.0 / (4.0 * np.sin(3 * s_of))).max() <= 1e-8


def test_classify_wave_indicatrix_general(wave_trimmed):
    beta = tangent_indicatrix(wave_trimmed)
    rep = classify(beta, margin=0.02)
    assert rep.general.passed
    assert abs(rep.general.cos_theta - 0.6) <= 1e-6
    assert angle_to(rep.general.axis, EZ) <= 1e-4


# --- axis constructions ---

def test_axis_field_three_constructions_agree(wave_trimmed, helix34_grid):
    beta = tangent_indicatrix(wave_trimmed)
    grids = (frenet_grid(beta, 512, margin=0.02), helix34_grid)
    for grid in grids:
        gf = general_functions(grid)
        hf = harmonic_curvatures(grid)
        fields = (axis_field(gf, grid), axis_field(hf, grid),
                  helix_axis_field_3d(grid))
        m = gf.mask & hf.mask
        means = []
        for rows in fields:
            units = rows[m] / np.linalg.norm(rows[m], axis=1, keepdims=True)
            mean = units.mean(axis=0)
            means.append(mean / np.linalg.norm(mean))
        assert angle_to(means[0], means[1]) <= 1e-4
        assert angle_to(means[0], means[2]) <= 1e-4
        assert angle_to(means[1], means[2]) <= 1e-4


def test_axis_normal_angle_constant(wave_grid, wave_report):
    # the principal normal keeps cos(theta) against the detected axis
    dots = wave_grid.frames[:, 1, :] @ wave_report.axis
    assert abs(dots.mean() - 0.6) <= 1e-4
    assert dots.std() / abs(dots.mean()) <= 1e-4


def test_axis_hint_statistics(helix34):
    rep = classify(helix34, axis_hint=(0.0, 0.0, 1.0))
    hint = rep.hint
    assert hint is not None
    assert abs(hint.v1_mean - 0.8) <= 1e-8
    assert hint.v1_std <= 1e-8
    assert abs(hint.v2_mean) <= 1e-8
    assert hint.v2_std <= 1e-8


def test_axis_hint_of_extreme_magnitude_is_normalized(helix34):
    for scale in (1e200, 1e-300):
        hint = classify(helix34, axis_hint=(0.0, 0.0, scale)).hint
        assert np.array_equal(hint.direction, EZ)
        assert abs(hint.v1_mean - 0.8) <= 1e-8


# --- indicatrix axis agreement ---

def test_verify_same_axis_wave(wave_trimmed):
    comp = verify_same_axis(wave_trimmed)
    assert comp.angle_between <= 1e-4
    assert angle_to(comp.axis_of_curve, EZ) <= 1e-4
    assert angle_to(comp.axis_of_indicatrix, EZ) <= 1e-4
    assert comp.curve_report.slant.passed
    assert comp.indicatrix_report.general.passed
    d = comp.to_dict()
    assert set(d) == {"axis_of_curve", "axis_of_indicatrix", "angle_between"}


def test_verify_same_axis_rejects_non_slant(helix34):
    with pytest.raises(ClassificationError) as info:
        verify_same_axis(helix34)
    assert info.value.report is not None
    assert info.value.report.classification == "general-helix"


# --- synthesized dimension-4 curve ---

def test_classify_dim4_slant(slant4):
    curve, info = slant4
    rep = classify(curve, margin=0.02)
    assert rep.classification == "slant-helix"
    assert abs(rep.C - info["C"]) / info["C"] <= 1e-3
    assert abs(rep.cos_theta - info["cos_theta"]) <= 1e-4
    assert angle_to(rep.axis, info["axis"]) <= 1e-4


def test_dim4_recursion_columns(slant4, slant4_grid):
    _, info = slant4
    sf = slant_functions(slant4_grid)
    s = slant4_grid.svals
    want = np.stack([math.sqrt(3.0) * np.cos(s), np.ones_like(s),
                     2.0 * np.sin(s), np.cos(s)], axis=1)
    err = np.abs(sf.values - want).max(axis=0)
    assert err[0] <= 1e-5
    assert err[1] == 0.0
    assert err[2] <= 1e-5
    assert err[3] <= 1e-4


def test_classify_dim4_slant_on_short_window(slant4):
    # on a tenth of the domain the integral I of k_1 spans little, and the
    # fitted constant is about 27 max|I|; C reads 1.3e-4 on the samples
    # inside the window, whose stencils shift inwards at its ends
    curve, info = slant4
    a, b = curve.domain
    t = curve.params
    keep = (t >= a + 0.3 * (b - a)) & (t <= a + 0.4 * (b - a))
    rep = classify(SampledCurve(t[keep], curve.points[keep]))
    assert rep.classification == "slant-helix"
    assert not rep.planar
    assert abs(rep.C - info["C"]) / info["C"] <= 1e-3


def test_verify_same_axis_dim4(slant4):
    curve, _ = slant4
    comp = verify_same_axis(curve, margin=0.02)
    assert comp.angle_between <= 1e-3
    assert comp.indicatrix_report.general.passed


def test_sampled_curve_classifies_after_its_own_reparametrization():
    # the trapezoid arc length of 100 samples leaves a speed error of 8.9e-4
    # on the stencils, past the sampled tolerance; the result is unit speed
    # by construction, so frenet_grid must take it
    t = np.linspace(0.0, 6.0, 100)
    curve = SampledCurve(t, np.column_stack([2 * np.cos(t), np.sin(t),
                                             t / 2]))
    unit = arclength_reparametrize(curve)
    assert unit.unit_speed and unit.unit_speed_error > 5e-4
    want = classify(AnalyticCurve(["2*cos(s)", "sin(s)", "s/2"], (0.0, 6.0)))
    assert classify(curve).classification == want.classification
    assert tangent_indicatrix(curve).unit_speed


def test_sampled_indicatrix_reads_the_curve_velocities(slant4, monkeypatch):
    # one stencil pass for each of the two curves built, the unit tangents
    # and their arc-length reparametrization; none to differentiate again
    calls = count_stencil_passes(monkeypatch)
    beta = tangent_indicatrix(slant4[0])
    assert beta.unit_speed
    assert len(calls) == 2


# --- isometries: rigid motions of E^3 and embeddings into E^4..E^7 ---

# (components, domain) of the analytic corpus curves; the tilted spiral
# (cos t, sin t, t^2/2) is not unit speed and is no helix
ISOMETRY_CURVES = {
    "wave": (WAVE, WAVE_TRIMMED),
    "circular helix": (["3*cos(s/5)", "3*sin(s/5)", "4*s/5"],
                       (0.0, 20 * math.pi)),
    "tilted spiral": (["cos(s)", "sin(s)", "s^2/2"], (0.2, 1.5)),
}
WAVE_SAMPLES = np.linspace(*WAVE_TRIMMED, 951)


def _isometric_image(name, rot, shift):
    """The corpus curve `name` under x -> rot x + shift, rot of shape (n, 3).

    An analytic image keeps its components analytic, as linear combinations
    of the E^3 ones; the sampled wave maps its points.
    """
    if name == "sampled wave":
        pts = AnalyticCurve(WAVE, WAVE_TRIMMED).point_grid(WAVE_SAMPLES)
        return SampledCurve(WAVE_SAMPLES, pts @ rot.T + shift)
    comps, domain = ISOMETRY_CURVES[name]
    return AnalyticCurve(
        [" + ".join([f"({float(q)!r})*({c})" for q, c in zip(row, comps)]
                    + [repr(float(t))]) for row, t in zip(rot, shift)],
        domain)


@functools.lru_cache(maxsize=None)
def _e3_report(name):
    return classify(_isometric_image(name, np.eye(3), np.zeros(3)))


@functools.lru_cache(maxsize=None)
def _e3_curvatures(name):
    image = _isometric_image(name, np.eye(3), np.zeros(3))
    return frenet_grid(arclength_reparametrize(image), 512).curvatures


@pytest.mark.parametrize("target,name", [
    (target, name) for target in ("E^4", "E^3")
    for name in (*ISOMETRY_CURVES, "sampled wave")
] + [("E^5..7", name) for name in ISOMETRY_CURVES])
@settings(max_examples=20)
@given(q4=orthogonal_matrices(4), q3=orthogonal_matrices(3),
       qn=st.integers(5, 7).flatmap(orthogonal_matrices),
       shift=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3))
def test_classification_follows_isometries(name, target, q4, q3, qn, shift):
    # E^4: x -> Q(x, 0) puts the curve in the hyperplane normal to Q e_4,
    # where the recursions run on V_1..V_3 and k_1, k_2.  E^5..7: the same
    # with Q drawn in E^5, E^6 or E^7, where the curve spans three
    # dimensions and no hyperplane.  E^3: x -> Rx + t.  Worst of 150 draws
    # of each, over both paths' C and axes and the hyperplane normal:
    # analytic C 1.7e-13 relative, axes 6.8e-14, normal 9.9e-15; the
    # sampled wave C 2.3e-7, axes 7.0e-10, normal 4.2e-11, derivative noise
    # on the mapped points (C and axes worst under E^3 with its shift).
    # The 512-point frenet_grid curvatures, against max |k_i| of the E^3
    # curve: analytic 3.8e-15, sampled 7.3e-8; k_3 under E^4 analytic
    # 4.6e-11 (the wave, whose torsion crosses 0), sampled 3.4e-6.  In E^4
    # k_2 is a ratio of norms, so it reads |k_2| of E^3.  Worst of 165 draws
    # in each of E^5, E^6 and E^7: C 1.6e-13 relative, axes 7.4e-14; their
    # curvatures read as in E^4 (k_1, k_2 3.6e-15, k_3.. 5.2e-11) and are
    # not recomputed here, which would double the time of these cases
    if target == "E^3":
        rot, offset = q3, np.array(shift)
    else:
        q = q4 if target == "E^4" else qn
        rot, offset = q[:, :3], np.zeros(len(q))
    want = _e3_report(name)
    image = _isometric_image(name, rot, offset)
    rep = classify(image)
    sampled = name == "sampled wave"
    c_tol, axis_tol = (2e-6, 1e-8) if sampled else (1e-12, 1e-12)
    k_tol, k3_tol = (1e-6, 1e-4) if sampled else (1e-13, 1e-9)
    if target != "E^5..7":
        k = frenet_grid(arclength_reparametrize(image), 512).curvatures
        ref = _e3_curvatures(name)
        scale = np.abs(ref).max()
        if target == "E^4":
            assert np.abs(k[:, :2] - np.abs(ref)).max() <= k_tol * scale
            assert np.abs(k[:, 2]).max() <= k3_tol * scale
        else:
            assert np.abs(k - ref).max() <= k_tol * scale
    assert rep.classification == want.classification
    if not sampled:
        assert rep.masked_fraction == want.masked_fraction
    assert rep.planar == (target == "E^4")
    if rep.planar:
        normal = rep.planar_normal * np.sign(rep.planar_normal @ q4[:, 3])
        assert np.linalg.norm(normal - q4[:, 3]) <= axis_tol
    for path, ref in ((rep.slant, want.slant), (rep.general, want.general)):
        assert abs(path.C - ref.C) <= c_tol * abs(ref.C)
        assert np.linalg.norm(path.axis - rot @ ref.axis) <= axis_tol


@settings(max_examples=20)
@given(lam=st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e))
@example(lam=1.0 + 2.3e-10)
def test_scaling_divides_curvatures_and_keeps_c_and_axis(wave_grid,
                                                         wave_report, lam):
    # x -> lam x on the same parameter domain: arc length and every 1/k_i
    # scale by lam, C and the slant axis stay.  Worst of 300 log-uniform
    # draws of lam in [1e-3, 1e3] and 400 of these: curvatures 6.2e-15 of
    # max |k_i|, C 1.5e-14 relative, axis 5.3e-15
    scaled = AnalyticCurve([f"({lam!r})*({c})" for c in WAVE], WAVE_TRIMMED)
    grid = frenet_grid(arclength_reparametrize(scaled), 512)
    k = wave_grid.curvatures
    assert np.abs(lam * grid.curvatures - k).max() <= 5e-14 * np.abs(k).max()
    rep = classify(scaled)
    assert rep.classification == wave_report.classification
    assert abs(rep.slant.C - wave_report.slant.C) <= 5e-14 * wave_report.C
    assert np.linalg.norm(rep.slant.axis - wave_report.slant.axis) <= 5e-14


@pytest.mark.parametrize("n", [4, 5, 7])
def test_hint_orthogonal_to_the_span_keeps_the_full_frame(n):
    # the wave padded into E^n spans E^3: a hint along e_n is the
    # cos(theta) = 0 case and keeps the E^n frame, on which k_3 = 0 masks
    # every sample; a hint inside the span reads on the span's frame
    wave = AnalyticCurve(WAVE + ["0"] * (n - 3), WAVE_TRIMMED)
    rep = classify(wave, axis_hint=np.eye(n)[n - 1])
    assert rep.classification == "neither"
    assert rep.masked_fraction == 1.0
    assert rep.hint.v2_std == 0.0
    rep = classify(wave, axis_hint=np.eye(n)[2])
    assert rep.classification == "slant-helix"
    assert rep.masked_fraction == 0.0
    assert rep.planar == (n == 4)


def _reparametrized(components, domain, a):
    """Components of alpha(s + a sin(pi (s - s0) / (s1 - s0))) on [s0, s1]."""
    s0, s1 = domain
    phi = f"(s + ({a!r})*sin({math.pi / (s1 - s0)!r}*(s - {s0!r})))"
    return [re.sub(r"\bs\b", phi, c) for c in components]


@pytest.mark.parametrize("name", ISOMETRY_CURVES)
@settings(max_examples=10)
@given(frac=st.floats(-0.95, 0.95))
def test_reparametrization_keeps_verdict_c_and_axis(name, frac):
    # s -> s + a sin(pi (s - s0) / (s1 - s0)) with |a| pi < s1 - s0 fixes
    # both ends and increases: the same curve on the same domain.  Worst of
    # 155 draws per curve, over both paths: C 1.2e-12 relative (the wave),
    # axes 6.4e-14 (the tilted spiral); masked fractions equal
    components, domain = ISOMETRY_CURVES[name]
    a = frac * (domain[1] - domain[0]) / math.pi
    rep = classify(AnalyticCurve(_reparametrized(components, domain, a),
                                 domain))
    want = _e3_report(name)
    assert rep.classification == want.classification
    assert rep.masked_fraction == want.masked_fraction
    for path, ref in ((rep.slant, want.slant), (rep.general, want.general)):
        assert abs(path.C - ref.C) <= 5e-12 * abs(ref.C)
        assert np.linalg.norm(path.axis - ref.axis) <= 5e-13


# --- orientation reversal ---

def _reversed(components, domain):
    """Components of the reversal s -> alpha(a + b - s) on [a, b]."""
    return [re.sub(r"\bs\b", f"({sum(domain)!r} - s)", c)
            for c in components]


def _reversal_grids(components, domain):
    """512-point grids of a curve and of its reversal, both by arc length.

    The reversal's grid comes back read backwards, so that sample i of each
    is the same point of the curve.
    """
    alpha, beta = (frenet_grid(arclength_reparametrize(
        AnalyticCurve(c, domain)), 512)
        for c in (components, _reversed(components, domain)))
    return alpha, FrenetGrid(beta.svals, beta.frames[::-1],
                             beta.curvatures[::-1],
                             beta.degenerate_ranks[::-1])


def _assert_reversal_flips_frames(alpha, beta, bound):
    # the reversal's k-th derivative is (-1)^k alpha's, so Gram-Schmidt
    # gives V_i -> (-1)^i V_i for i < n, their generalized cross product
    # V_n -> (-1)^(n(n-1)/2) V_n, the norm ratios k_1..k_{n-2} stay, and
    # k_{n-1} = <d^n, V_n> / |...| -> (-1)^(n(n+1)/2) k_{n-1}
    n = alpha.dim
    v_sign = (-1.0) ** np.arange(1, n + 1)
    v_sign[-1] = (-1.0) ** (n * (n - 1) // 2)
    k_sign = np.ones(n - 1)
    k_sign[-1] = (-1.0) ** (n * (n + 1) // 2)
    assert np.array_equal(beta.degenerate_ranks, alpha.degenerate_ranks)
    ok = alpha.valid
    assert np.abs(beta.frames[ok] * v_sign[:, None]
                  - alpha.frames[ok]).max() <= bound
    k = alpha.curvatures
    assert np.abs(beta.curvatures * k_sign - k).max() <= bound * np.abs(k).max()


REVERSAL_BOUNDS = {3: 1e-12, 4: 1e-11, 5: 1e-10, 6: 1e-7, 7: 1e-7}


@settings(max_examples=5)
@given(n=st.integers(3, 7), seed=st.integers(0, 2 ** 32 - 1))
def test_reversal_flips_frames_as_the_frenet_equations_predict(n, seed):
    # random trigonometric curves on [0, 2], read by arc length.  Worst of
    # 450 draws per n, frames / curvatures against max |k_i|: E^3
    # 1.3e-13 / 3.0e-13, E^4 1.4e-12 / 2.7e-12, E^5 1.5e-11 / 1.7e-11, E^6
    # 1.3e-9 / 2.6e-8, E^7 5.0e-10 / 4.1e-9.  A small k_i costs the later
    # frame vectors and curvatures digits, so the spread grows with n; a
    # wrong sign is O(1)
    alpha, beta = _reversal_grids(trig_curve(n, np.random.default_rng(seed)),
                                  (0.0, 2.0))
    _assert_reversal_flips_frames(alpha, beta, REVERSAL_BOUNDS[n])


@pytest.mark.parametrize("components,domain", [
    (WAVE, WAVE_TRIMMED), ISOMETRY_CURVES["circular helix"],
    (W_CURVE, (0.0, 3.0)),
], ids=["wave", "circular helix", "w-curve-e5"])
def test_reversal_keeps_verdict_c_and_axis(components, domain):
    # readings: frames 2.0e-15, curvatures 3.0e-15 of max |k_i|; C 1.1e-13
    # relative and the axes 5.8e-14 apart up to sign on the W-curve, 1.6e-16
    # and 1.4e-16 or less on the other two
    _assert_reversal_flips_frames(*_reversal_grids(components, domain), 1e-13)
    want, got = (classify(AnalyticCurve(c, domain))
                 for c in (components, _reversed(components, domain)))
    assert got.classification == want.classification
    assert abs(got.C - want.C) <= 1e-12 * want.C
    assert min(np.linalg.norm(got.axis - want.axis),
               np.linalg.norm(got.axis + want.axis)) <= 1e-12


# --- the equivalence across the corpus ---

def test_slant_iff_indicatrix_general_over_corpus():
    for name, factory, expected, kwargs in equivalence_corpus():
        curve = factory()
        rep = classify(curve, **kwargs)
        assert rep.slant.passed == expected, name
        beta = tangent_indicatrix(curve, margin=kwargs.get("margin", 0.0))
        rep_b = classify(beta, margin=0.02)
        assert rep_b.general.passed == expected, name
