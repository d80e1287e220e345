import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (WAVE_TRIMMED, equivalence_corpus,
                      unit_speed_circular_helix)
from helixkit.curve import AnalyticCurve
from helixkit.errors import (ClassificationError, DegenerateCurveError,
                             UnreliableResultError)
from helixkit.frenet import FrenetGrid, frenet_grid
from helixkit.helix import (axis_field, classify, general_functions,
                            harmonic_curvatures, helix_axis_field_3d,
                            indicatrix_curvatures_3d, slant_functions,
                            slant_invariant_3d, tangent_indicatrix,
                            verify_same_axis)

EZ = np.array([0.0, 0.0, 1.0])


def angle_to(u, v):
    return math.acos(min(1.0, abs(float(np.dot(u, v)))))


@pytest.fixture(scope="module")
def wave_grid(wave_curve):
    return frenet_grid(wave_curve, 512, domain=WAVE_TRIMMED)


@pytest.fixture(scope="module")
def wave_report(wave_curve):
    return classify(wave_curve, domain=WAVE_TRIMMED)


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


def test_slant_mask_excludes_vanishing_torsion(wave_curve):
    # an odd-size grid on the symmetric window lands a sample where the
    # torsion crosses zero; that sample must be masked, the rest kept
    grid = frenet_grid(wave_curve, 513, domain=WAVE_TRIMMED)
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


# --- tangent indicatrix ---

def test_indicatrix_wave_matches_closed_form(wave_curve):
    beta = tangent_indicatrix(wave_curve, domain=WAVE_TRIMMED)
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


def test_indicatrix_length_is_curvature_integral(wave_curve):
    beta = tangent_indicatrix(wave_curve, domain=WAVE_TRIMMED)
    a, b = WAVE_TRIMMED
    want = (4.0 / 3.0) * (np.cos(3 * b) - np.cos(3 * a))
    assert abs(beta.domain[1] - want) <= 1e-9


def test_indicatrix_circular_helix_is_latitude_circle(helix34):
    beta = tangent_indicatrix(helix34)
    pts = beta.point_grid(np.linspace(*beta.domain, 100))
    assert np.abs(pts[:, 2] - 0.8).max() <= 1e-12
    assert np.abs(pts[:, 0] ** 2 + pts[:, 1] ** 2 - 0.36).max() <= 1e-12


def test_indicatrix_of_line_degenerate():
    line = AnalyticCurve(["0.6*s", "0.8*s", "0"], (0.0, 2.0))
    with pytest.raises(DegenerateCurveError):
        tangent_indicatrix(line)


def test_indicatrix_curvature_formulas(wave_curve, wave_grid):
    # formulas from the source curve and direct frames of the built
    # indicatrix must both land on the closed forms, hence on each other
    kb, tb = indicatrix_curvatures_3d(wave_grid)
    s = wave_grid.svals
    assert np.abs(kb + 1.0 / np.sin(3 * s)).max() <= 1e-8
    assert np.abs(tb + 3.0 / (4.0 * np.sin(3 * s))).max() <= 1e-8

    beta = tangent_indicatrix(wave_curve, domain=WAVE_TRIMMED)
    gb = frenet_grid(beta, 512, margin=0.02)
    c3 = np.clip(np.cos(3 * WAVE_TRIMMED[0]) + 0.75 * gb.svals, -1.0, 1.0)
    s_of = (2 * math.pi - np.arccos(c3)) / 3.0
    assert np.abs(gb.curvatures[:, 0] + 1.0 / np.sin(3 * s_of)).max() <= 1e-8
    assert np.abs(gb.curvatures[:, 1] + 3.0 / (4.0 * np.sin(3 * s_of))).max() <= 1e-8


def test_classify_wave_indicatrix_general(wave_curve):
    beta = tangent_indicatrix(wave_curve, domain=WAVE_TRIMMED)
    rep = classify(beta, margin=0.02)
    assert rep.general.passed
    assert abs(rep.general.cos_theta - 0.6) <= 1e-6
    assert angle_to(rep.general.axis, EZ) <= 1e-4


# --- axis constructions ---

def test_axis_field_three_constructions_agree(wave_curve, helix34_grid):
    beta = tangent_indicatrix(wave_curve, domain=WAVE_TRIMMED)
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

def test_verify_same_axis_wave(wave_curve):
    comp = verify_same_axis(wave_curve, domain=WAVE_TRIMMED)
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
    # fitted constant is about 27 max|I|
    curve, info = slant4
    a, b = curve.domain
    rep = classify(curve, domain=(a + 0.3 * (b - a), a + 0.4 * (b - a)))
    assert rep.classification == "slant-helix"
    assert abs(rep.C - info["C"]) / info["C"] <= 1e-3


def test_verify_same_axis_dim4(slant4):
    curve, _ = slant4
    comp = verify_same_axis(curve, margin=0.02)
    assert comp.angle_between <= 1e-3
    assert comp.indicatrix_report.general.passed


# --- the equivalence across the corpus ---

def test_slant_iff_indicatrix_general_over_corpus():
    for name, factory, expected, kwargs in equivalence_corpus():
        curve = factory()
        rep = classify(curve, **kwargs)
        assert rep.slant.passed == expected, name
        beta = tangent_indicatrix(curve, domain=kwargs.get("domain"),
                                  margin=kwargs.get("margin", 0.0))
        rep_b = classify(beta, margin=0.02)
        assert rep_b.general.passed == expected, name
