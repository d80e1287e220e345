"""End-to-end acceptance checks against closed-form ground truth.

One test per headline guarantee.  Each prints a single PASS/FAIL line
with the measured number and the tolerance it is held to, then asserts,
so a verbose run doubles as a numerical report.  Ground truth comes from
the wave slant helix, circular helices, and the rotational surfaces
whose geodesics are known circular helices and unrolled lines.
"""
import itertools
import math

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson
from scipy.interpolate import CubicSpline

from conftest import (CONE_HEADING_DEGREES, CYLINDER_PITCH_ANGLES,
                      WAVE_TRIMMED, cone_geodesics, cone_report,
                      cylinder_geodesics, cylinder_report, equivalence_corpus,
                      frame_ode_residual, indicatrix_curvatures_3d,
                      slant_invariant_3d, unit_speed_circular_helix)
from helixkit.frenet import frenet_grid
from helixkit.helix import (axis_field, classify, harmonic_curvatures,
                            slant_functions, tangent_indicatrix)

EZ = np.array([0.0, 0.0, 1.0])


def angle_to(u, v):
    return math.acos(min(1.0, abs(float(np.dot(u, v)))))


def verdict(num, label, ok, detail):
    print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def wave_grid(wave_trimmed):
    return frenet_grid(wave_trimmed, 512)


@pytest.fixture(scope="module")
def wave_report(wave_trimmed):
    return classify(wave_trimmed)


@pytest.fixture(scope="module")
def wave_beta(wave_trimmed):
    return tangent_indicatrix(wave_trimmed)


def test_criterion_1_wave_curvatures_match_closed_forms(wave_grid):
    # kappa = -4 sin 3s (positive on the window), tau = 4 cos 3s
    s = wave_grid.svals
    exact_k = -4.0 * np.sin(3 * s)
    exact_t = 4.0 * np.cos(3 * s)
    rel_k = np.abs(wave_grid.curvatures[:, 0] - exact_k) / np.abs(exact_k)
    rel_t = np.abs(wave_grid.curvatures[:, 1] - exact_t) / np.abs(exact_t)
    worst = max(float(rel_k.max()), float(rel_t.max()))
    verdict(1, "wave curvature closed forms", worst <= 1e-6,
            f"max rel err {worst:.3g}, tol 1e-06")


def test_criterion_2_slant_recursion_closed_forms(wave_grid, wave_report):
    sf = slant_functions(wave_grid)
    s = wave_grid.svals
    err_c = abs(wave_report.C - 25.0 / 9.0) / (25.0 / 9.0)
    err_cos = abs(wave_report.cos_theta - 0.6)
    err_g1 = float(np.abs(sf.values[:, 0]
                          - (4.0 / 3.0) * np.cos(3 * s))[sf.mask].max())
    err_g3 = float(np.abs(sf.values[:, 2]
                          + (4.0 / 3.0) * np.sin(3 * s))[sf.mask].max())
    shift = abs(sf.integration_constant)
    # C rel, G1 and G3 read 1.7e-12, 1.75e-12 and 1.79e-12 with the
    # Euler-Maclaurin slant integral (3.3e-6 to 3.44e-6 without)
    ok = (err_c <= 1e-10 and err_cos <= 1e-5
          and err_g1 <= 1e-10 and err_g3 <= 1e-10 and shift <= 1e-4)
    verdict(2, "slant recursion constants", ok,
            f"C rel {err_c:.3g}/1e-10, cos {err_cos:.3g}/1e-05, "
            f"G1 {err_g1:.3g} G3 {err_g3:.3g}/1e-10, shift {shift:.3g}/1e-04")


def test_criterion_3_axis_constructions_agree(wave_report, wave_beta):
    # the slant axis field, the indicatrix recursion axis, and the
    # indicatrix harmonic-curvature axis must all point the same way
    resid = wave_report.slant.axis_residual
    axis = np.asarray(wave_report.axis)
    rep_b = classify(wave_beta, margin=0.02)
    ang_rec = angle_to(np.asarray(rep_b.general.axis), axis)
    gb = frenet_grid(wave_beta, 512, margin=0.02)
    hf = harmonic_curvatures(gb)
    rows = axis_field(hf, gb)[hf.mask]
    mean = rows.mean(axis=0)
    ang_harm = angle_to(mean / np.linalg.norm(mean), axis)
    # the field deviation reads 0 with the Euler-Maclaurin slant integral
    # (1.52e-6 without)
    ok = resid <= 1e-10 and ang_rec <= 1e-4 and ang_harm <= 1e-4
    verdict(3, "axis construction agreement", ok,
            f"field dev {resid:.3g}/1e-10, recursion {ang_rec:.3g}, "
            f"harmonic {ang_harm:.3g}, tol 1e-04")


def test_criterion_4_indicatrix_matches_closed_form(wave_beta):
    a = WAVE_TRIMMED[0]
    s = np.linspace(WAVE_TRIMMED[0], WAVE_TRIMMED[1], 201)[1:-1]
    sb = (4.0 / 3.0) * (np.cos(3 * s) - np.cos(3 * a))
    pts = wave_beta.point_grid(sb)
    want = np.stack([0.8 * np.cos(2 * s) - 0.2 * np.cos(8 * s),
                     0.8 * np.sin(2 * s) - 0.2 * np.sin(8 * s),
                     0.8 * np.cos(3 * s)], axis=1)
    comp = float(np.abs(pts - want).max())
    sphere = float(np.abs(np.linalg.norm(pts, axis=1) - 1.0).max())
    ok = comp <= 1e-9 and sphere <= 1e-9
    verdict(4, "indicatrix closed form", ok,
            f"component err {comp:.3g}, sphere err {sphere:.3g}, tol 1e-09")


def test_criterion_5_slant_invariant_recovers_cotangent(wave_grid):
    sigma = slant_invariant_3d(wave_grid)
    vals = sigma[np.isfinite(sigma)]
    spread = float(np.abs(vals - vals.mean()).max())
    rel = abs(float(vals.mean()) - 0.75) / 0.75
    ok = spread <= 1e-5 and rel <= 1e-3
    verdict(5, "spherical-image invariant", ok,
            f"spread {spread:.3g}/1e-05, cot err {rel:.3g}/1e-03")


def test_criterion_6_slant_iff_indicatrix_general():
    mismatches = []
    for name, factory, expected, kwargs in equivalence_corpus():
        curve = factory()
        rep = classify(curve, **kwargs)
        beta = tangent_indicatrix(curve, margin=kwargs.get("margin", 0.0))
        rep_b = classify(beta, margin=0.02)
        if not (rep.slant.passed == expected == rep_b.general.passed):
            mismatches.append(
                f"{name}: slant={rep.slant.passed} "
                f"indicatrix={rep_b.general.passed} expected={expected}")
    verdict(6, "slant iff indicatrix general", not mismatches,
            f"6 curves, mismatches: {mismatches or 'none'}")


def test_criterion_7_circular_helix_reference_values():
    helix = unit_speed_circular_helix(3.0, 4.0)
    grid = frenet_grid(helix, 256)
    err_k = float(np.abs(grid.curvatures[:, 0] - 0.12).max())
    err_t = float(np.abs(grid.curvatures[:, 1] - 0.16).max())
    rep = classify(helix)
    err_cos = abs(rep.cos_theta - 0.8)
    ang = angle_to(np.asarray(rep.axis), EZ)
    ok = (err_k <= 1e-8 and err_t <= 1e-8
          and err_cos <= 1e-6 and ang <= 1e-6)
    verdict(7, "circular helix reference", ok,
            f"kappa {err_k:.3g} tau {err_t:.3g}/1e-08, "
            f"cos {err_cos:.3g} axis {ang:.3g}/1e-06")


def test_criterion_8_surface_geodesic_theorems():
    crep = cylinder_report()
    krep = cone_report()
    surf_val = abs(crep.surface["value"])
    surf_std = crep.surface["residual"]
    v2 = max(max(abs(ch.normal_dot_mean), ch.normal_dot_std)
             for ch in crep.checks)
    ind = max(ch.indicatrix_angle
              for ch in crep.checks + krep.checks)
    pair = max(crep.pairwise_axis_angle, krep.pairwise_axis_angle)

    # integrated geodesics against their closed forms
    pos_err = 0.0
    for pitch, path in zip(CYLINDER_PITCH_ANGLES, cylinder_geodesics()):
        svals, pts = path.s, path.point_grid(path.s)
        exact = np.stack([np.cos(math.cos(pitch) * svals),
                          np.sin(math.cos(pitch) * svals),
                          math.sin(pitch) * svals], axis=1)
        pos_err = max(pos_err, float(np.abs(pts - exact).max()))
    for degrees, path in zip(CONE_HEADING_DEGREES, cone_geodesics()):
        psi = math.radians(degrees)
        svals, pts = path.s, path.point_grid(path.s)
        radial = 1.5 * math.sqrt(2.0) + svals * math.sin(psi)
        tangential = svals * math.cos(psi)
        ell = np.hypot(radial, tangential)
        u = math.sqrt(2.0) * np.arctan2(tangential, radial)
        w = ell / math.sqrt(2.0)
        exact = np.stack([w * np.cos(u), w * np.sin(u), w], axis=1)
        pos_err = max(pos_err, float(np.abs(pts - exact).max()))

    ok = (crep.passed and krep.passed
          and surf_val <= 1e-12 and surf_std <= 1e-9
          and v2 <= 1e-6 and ind <= 1e-3 and pair <= 2e-3
          and pos_err <= 1e-5)
    verdict(8, "surface geodesic theorems", ok,
            f"surface {surf_val:.3g}/{surf_std:.3g}, v2 {v2:.3g}/1e-06, "
            f"indicatrix axis {ind:.3g}/1e-03, pairwise {pair:.3g}/2e-03, "
            f"integrator {pos_err:.3g}/1e-05")


def test_criterion_9_internal_consistency_cross_checks():
    orth = ode = formula = 0.0
    for name, factory, _, kwargs in equivalence_corpus():
        curve = factory()
        margin = kwargs.get("margin", 0.0)
        grid = frenet_grid(curve, 512, margin=margin)
        eye = np.eye(grid.dim)
        orth = max(orth, max(float(np.abs(f @ f.T - eye).max())
                             for f in grid.frames))
        ode = max(ode, frame_ode_residual(grid))
        if grid.dim != 3:
            continue
        # curvatures of the indicatrix predicted from the source curve
        # must match direct finite differences on the built indicatrix
        kb, tb = indicatrix_curvatures_3d(grid)
        sb = cumulative_simpson(grid.curvatures[:, 0], x=grid.svals,
                                initial=0.0)
        beta = tangent_indicatrix(curve, margin=margin)
        bgrid = frenet_grid(beta, 512)
        keep = np.isfinite(kb) & np.isfinite(tb)
        inside = ((bgrid.svals >= sb[keep][0])
                  & (bgrid.svals <= sb[keep][-1]))
        for formula_vals, fd_vals in ((kb, bgrid.curvatures[:, 0]),
                                      (tb, bgrid.curvatures[:, 1])):
            interp = CubicSpline(sb[keep], formula_vals[keep])(bgrid.svals)
            formula = max(formula, float(
                np.abs(interp[inside] - fd_vals[inside]).max()))

    speed = 0.0
    for path in itertools.chain(cylinder_geodesics(), cone_geodesics()):
        speed = max(speed, float(
            np.abs(np.linalg.norm(path.jet_grid(path.s, 1)[:, 0], axis=1)
                   - 1.0).max()))

    ok = (orth <= 1e-8 and ode <= 1e-4
          and formula <= 1e-6 and speed <= 1e-8)
    verdict(9, "internal consistency", ok,
            f"orthonormality {orth:.3g}/1e-08, frame ODE {ode:.3g}/1e-04, "
            f"indicatrix curvature {formula:.3g}/1e-06, "
            f"geodesic speed {speed:.3g}/1e-08")
