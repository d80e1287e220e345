"""Surface normals, the constant-angle test, geodesic integration, and the
joint geodesic verification report."""

import dataclasses
import functools
import itertools
import json
import math
import re

import mpmath
import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from conftest import (
    CYLINDER_SPEC, CONE_SPEC, KINK_SPEC, PLANE_SPEC, SPHERE_SPEC,
    CYLINDER_PITCH_ANGLES, CONE_HEADING_DEGREES,
    cylinder_surface, cone_surface, cone_tangent,
    cylinder_geodesics, cone_geodesics, cylinder_report, cone_report,
    count_stencil_passes, orthogonal_matrices,
)
from helixkit import cli, expr, hypersurf
from helixkit.curve import SampledCurve
from helixkit.errors import (
    CurveFormatError, DegenerateCurveError, SurfaceError,
)
from helixkit.frenet import frenet_grid
from helixkit.helix import classify

EZ = np.array([0.0, 0.0, 1.0])


@pytest.fixture(scope="module")
def plane():
    return hypersurf.load_surface(PLANE_SPEC)


@pytest.fixture(scope="module")
def sphere():
    return hypersurf.load_surface(SPHERE_SPEC)


# ------------------------------------------------------------------ normals

def test_cylinder_normal_points_radially():
    cyl = cylinder_surface()
    for u, w in [(0.0, 0.0), (1.2, -3.0), (-2.5, 4.4)]:
        xi = cyl.normal([u, w])
        expect = np.array([math.cos(u), math.sin(u), 0.0])
        assert np.abs(xi - expect).max() <= 1e-12


def test_cone_normal_keeps_constant_tilt():
    cone = cone_surface()
    for u, w in [(0.7, 1.3), (-1.1, 0.5), (2.0, 3.2)]:
        xi = cone.normal([u, w])
        expect = np.array([math.cos(u), math.sin(u), -1.0]) / math.sqrt(2.0)
        assert np.abs(xi - expect).max() <= 1e-12
        assert abs(float(xi @ EZ) + 1.0 / math.sqrt(2.0)) <= 1e-12


def test_plane_normal_is_vertical(plane):
    assert np.abs(plane.normal([0.3, -0.7]) - EZ).max() <= 1e-15


def test_surface_maps_take_stacks_of_points(sphere):
    # stacks give what the same points give one at a time
    grid = np.array([[[0.5, 0.1], [1.0, 2.0]], [[1.5, 3.0], [2.6, 6.2]]])
    jacs, pts = sphere.jacobian(grid), sphere.point(grid)
    assert jacs.shape == (2, 2, 3, 2) and pts.shape == (2, 2, 3)
    for index in np.ndindex(2, 2):
        assert np.array_equal(jacs[index], sphere.jacobian(grid[index]))
        assert np.array_equal(pts[index], sphere.point(grid[index]))
        u, w = grid[index]
        expect = [[math.cos(u) * math.cos(w), -math.sin(u) * math.sin(w)],
                  [math.cos(u) * math.sin(w), math.sin(u) * math.cos(w)],
                  [-math.sin(u), 0.0]]
        assert np.abs(jacs[index] - expect).max() <= 1e-15
    inside = sphere.contains_parameters([[0.4, 0.0], [2.7, 6.3], [0.39, 1.0]])
    assert inside.tolist() == [True, True, False]


def test_constant_angle_verdicts(plane, sphere):
    cyl = hypersurf.is_helix_surface(cylinder_surface())
    assert cyl["constant"] and abs(cyl["value"]) <= 1e-12
    assert cyl["residual"] <= 1e-9

    cone = hypersurf.is_helix_surface(cone_surface())
    assert cone["constant"]
    assert abs(cone["value"] + 1.0 / math.sqrt(2.0)) <= 1e-12

    assert hypersurf.is_helix_surface(plane)["constant"]

    sph = hypersurf.is_helix_surface(sphere)
    assert not sph["constant"] and sph["residual"] > 0.1


# ---------------------------------------------------------------- geodesics

def test_cylinder_geodesic_matches_circular_helix(sphere):
    # start (1, 0, 0) with tangent (0, 4/5, 3/5): on the cylinder the 3-4-5
    # helix with lambda = -16/25, on the sphere a great circle with
    # lambda = -1; lambda is exact, so only roundoff separates it from these
    tangent = np.array([0.0, 0.8, 0.6])
    cases = [
        (cylinder_surface(), [0.0, 0.0], -16.0 / 25.0,
         lambda s: np.stack([np.cos(0.8 * s), np.sin(0.8 * s), 0.6 * s],
                            axis=1)),
        (sphere, [math.pi / 2.0, 0.0], -1.0,
         lambda s: (np.cos(s)[:, None] * np.array([1.0, 0.0, 0.0])
                    + np.sin(s)[:, None] * tangent)),
    ]
    for surface, start, lam_exact, exact in cases:
        path = hypersurf.geodesic(surface, start, tangent, 2.0, steps=1000)
        assert len(path) == 1001
        assert np.abs(path.point_grid(path.s) - exact(path.s)).max() <= 1e-6
        assert np.abs(path.normal_accel - lam_exact).max() <= 1e-13
        assert path.parameters.shape == (1001, 2)


def test_cylinder_geodesic_is_exact_at_any_step_count():
    # in (u, w) the cylinder geodesic is a straight line, which the series
    # follow exactly however few the samples
    pitch = 0.6
    tangent = [0.0, math.cos(pitch), math.sin(pitch)]
    for steps in (1, 4, 16):
        path = hypersurf.geodesic(cylinder_surface(), [0.0, 0.0], tangent,
                                  1.6, steps=steps)
        assert len(path) == steps + 1
        exact = np.stack([np.cos(math.cos(pitch) * path.s),
                          np.sin(math.cos(pitch) * path.s),
                          math.sin(pitch) * path.s], axis=1)
        assert np.abs(path.point_grid(path.s) - exact).max() <= 1e-14
        assert np.abs(path.normal_accel + math.cos(pitch) ** 2).max() <= 1e-15


def test_cone_geodesic_matches_unrolled_line():
    # unrolling the cone is an isometry onto a plane sector; geodesics of
    # the cone map to straight lines P0 + s e in polar coordinates
    # (ell, phi) = (w sqrt(2), u / sqrt(2))
    for degrees, path in zip(CONE_HEADING_DEGREES, cone_geodesics()):
        svals = path.s
        psi = math.radians(degrees)
        radial = 1.5 * math.sqrt(2.0) + svals * math.sin(psi)
        tangential = svals * math.cos(psi)
        ell = np.hypot(radial, tangential)
        phi = np.arctan2(tangential, radial)
        u = math.sqrt(2.0) * phi
        w = ell / math.sqrt(2.0)
        exact = np.stack([w * np.cos(u), w * np.sin(u), w], axis=1)
        assert np.abs(path.point_grid(svals) - exact).max() <= 1e-12


def test_geodesic_length_is_its_own():
    # a geodesic is unit speed, so its length is its domain's
    path = hypersurf.geodesic(cylinder_surface(), [0.0, 0.0],
                              [0.0, math.cos(0.6), math.sin(0.6)], 1.6)
    assert path.length() == 1.6


def test_geodesic_jets_match_the_closed_form():
    # from (0, 0) along (0, cos a, sin a) the cylinder geodesic is
    # X(s) = (cos(s cos a), sin(s cos a), s sin a).  Its points and jets are
    # read off the series of X, three expansions here: at the samples, at
    # each expansion start, and one ulp before it, at the far end of the
    # series before.  Worst readings: points 6.7e-16, derivatives 1..4 7.9e-16,
    # 7.8e-16, 1.1e-15 and 1.2e-14
    a = 0.6
    path = hypersurf.geodesic(cylinder_surface(), [0.0, 0.0],
                              [0.0, math.cos(a), math.sin(a)], 4.0, steps=200)
    assert len(path.starts) == 3
    s = np.concatenate([path.s, path.starts, np.nextafter(path.starts[1:], 0)])
    c = math.cos(a)
    want = np.zeros((len(s), 5, 3))
    for k in range(5):
        turn = c * s + k * math.pi / 2
        want[:, k, :2] = c ** k * np.stack([np.cos(turn), np.sin(turn)], axis=1)
    want[:, 0, 2], want[:, 1, 2] = s * math.sin(a), math.sin(a)
    got = np.concatenate([path.point_grid(s)[:, None], path.jet_grid(s, 4)],
                         axis=1)
    err = np.abs(got - want).max(axis=(0, 2))
    assert (err <= [2e-15, 2e-15, 2e-15, 5e-15, 5e-14]).all(), err


def test_geodesic_paths_compare_by_identity():
    # a path holds arrays, which compare elementwise: paths compare and
    # hash by identity, as every curve and frame grid does
    p, q = cylinder_geodesics()[:2]
    assert [p, q].index(q) == 1
    assert p == p and p != q
    assert len({p, q, p}) == 2 and hash(p) == hash(p)


def test_dense_output_does_not_depend_on_step_count():
    # `steps` only sets where the series are read, not where they are
    # expanded, so samples at the same s agree to roundoff
    cone = cone_surface()
    coarse, fine = (hypersurf.geodesic(cone, [0.0, 1.5], cone_tangent(25.0),
                                       2.0, steps=steps) for steps in (8, 1000))
    k = np.argmin(np.abs(fine.s - coarse.s[:, None]), axis=1)
    assert np.abs(fine.s[k] - coarse.s).max() <= 1e-15
    assert np.abs(fine.parameters[k] - coarse.parameters).max() <= 1e-13
    assert np.abs(fine.point_grid(fine.s[k])
                  - coarse.point_grid(coarse.s)).max() <= 1e-13


def test_great_circle_off_the_equator_matches_closed_form(sphere, monkeypatch):
    # from u = 1.2 at 60 degrees to the parallel the great circle is a curved
    # path in (u, w), so it takes several series expansions
    start = [1.2, 0.5]
    jac = sphere.jacobian(start)
    e_u, e_w = (jac[:, j] / np.linalg.norm(jac[:, j]) for j in range(2))
    tangent = 0.5 * e_u + math.sqrt(0.75) * e_w
    expansions = []
    series = hypersurf._geodesic_series
    monkeypatch.setattr(hypersurf, "_geodesic_series",
                        lambda *args: expansions.append(args) or series(*args))
    path = hypersurf.geodesic(sphere, start, tangent, 2.0, steps=500)
    assert len(expansions) >= 3
    exact = (np.cos(path.s)[:, None] * sphere.point(start)
             + np.sin(path.s)[:, None] * tangent)
    assert np.abs(path.point_grid(path.s) - exact).max() <= 1e-12
    assert np.abs(path.normal_accel + 1.0).max() <= 1e-13


def test_geodesics_stay_unit_speed_and_on_surface():
    for path in [cylinder_geodesics()[0], cone_geodesics()[1]]:
        speeds = np.linalg.norm(path.jet_grid(path.s, 1)[:, 0], axis=1)
        assert np.abs(speeds - 1.0).max() <= 1e-8
    cyl = cylinder_geodesics()[0]
    cyl_pts = cyl.point_grid(cyl.s)
    assert np.abs(np.hypot(cyl_pts[:, 0], cyl_pts[:, 1]) - 1.0).max() <= 1e-8
    cone = cone_geodesics()[1]
    cone_pts = cone.point_grid(cone.s)
    assert np.abs(np.hypot(cone_pts[:, 0], cone_pts[:, 1])
                  - cone_pts[:, 2]).max() <= 1e-8


# Surfaces for the normal-curvature oracle: components, parameter box, and
# the box the geodesic starts are drawn from; a geodesic of length 0.5 moves
# each parameter by at most 0.5 / min |X_j|, so it stays in the box.
LAMBDA_SURFACES = {
    "sphere": (SPHERE_SPEC["components"], SPHERE_SPEC["domain"],
               [(1.0, 2.1), (1.5, 4.8)]),
    "saddle": (["u", "w", "u^2/2 - w^2/3 + u*w/5"], [[-2, 2], [-2, 2]],
               [(-1.0, 1.0), (-1.0, 1.0)]),
    "torus": (["(2 + cos(w))*cos(u)", "(2 + cos(w))*sin(u)", "sin(w)"],
              [[-4, 4], [-4, 4]], [(-2.0, 2.0), (-2.0, 2.0)]),
}
# |lambda - II(p', p')| reads at most 4.4e-16 over these examples, with
# lambda from J' p' or from the order-2 coefficient of X(p + eps p') alike,
# and at most 6.7e-16 over 120 further random examples per surface
LAMBDA_ORACLE_TOL = 1.5e-15


@functools.lru_cache(maxsize=None)
def _lambda_oracle(name):
    """sympy's II(p', p') = <X_jk p'_j p'_k, xi> at a sample, evaluated by
    mpmath at 30 digits, with p' pulled back from the ambient velocity."""
    comps, box, _ = LAMBDA_SURFACES[name]
    u, w = sp.symbols("u w")
    X = sp.Matrix([sp.sympify(c.replace("^", "**"), locals={"u": u, "w": w})
                   for c in comps])
    J = X.jacobian([u, w])
    hessian = [[X.diff(a, b) for b in (u, w)] for a in (u, w)]
    parts = sp.lambdify((u, w), (J, hessian, J[:, 0].cross(J[:, 1])), "mpmath")

    def second_form(params, velocity):
        with mpmath.workdps(30):
            jac, hess, cross = parts(*map(mpmath.mpf, params))
            jac = mpmath.matrix(jac)
            pdot = mpmath.lu_solve(jac.T * jac,
                                   jac.T * mpmath.matrix(list(velocity)))
            xi = mpmath.matrix(cross) / mpmath.norm(mpmath.matrix(cross))
            return float(sum(pdot[j] * pdot[k]
                             * (mpmath.matrix(hess[j][k]).T * xi)[0]
                             for j in range(2) for k in range(2)))

    surface = hypersurf.Hypersurface(comps, ["u", "w"], box, EZ)
    return surface, J, second_form


@pytest.mark.parametrize("name", sorted(LAMBDA_SURFACES))
@settings(max_examples=15)
@given(a=st.floats(0.0, 1.0), b=st.floats(0.0, 1.0),
       heading=st.floats(0.0, 2.0 * math.pi))
def test_normal_accel_matches_the_second_fundamental_form(name, a, b, heading):
    surface, J, second_form = _lambda_oracle(name)
    (u0, u1), (w0, w1) = LAMBDA_SURFACES[name][2]
    start = [u0 + a * (u1 - u0), w0 + b * (w1 - w0)]
    # orthonormal tangent basis from sympy's tangent map at the start
    e1, e2 = np.linalg.qr(np.array(J.subs(dict(zip(sp.symbols("u w"), start))),
                                   dtype=float))[0].T
    tangent = math.cos(heading) * e1 + math.sin(heading) * e2
    path = hypersurf.geodesic(surface, start, tangent, 0.5, steps=50)
    velocity = path.jet_grid(path.s, 1)[:, 0]
    for i in range(0, len(path), 5):
        want = second_form(path.parameters[i], velocity[i])
        assert abs(path.normal_accel[i] - want) <= LAMBDA_ORACLE_TOL, (i, want)


def test_an_indicatrix_that_is_no_general_helix_fails_the_report():
    # a torus geodesic is no slant helix, so its tangent indicatrix is no
    # general helix: the check names the classification and the report fails
    surface, J, _ = _lambda_oracle("torus")
    start = [0.3, 0.4]
    e1, e2 = np.linalg.qr(np.array(J.subs(dict(zip(sp.symbols("u w"), start))),
                                   dtype=float))[0].T
    tangent = math.cos(0.7) * e1 + math.sin(0.7) * e2
    path = hypersurf.geodesic(surface, start, tangent, 1.0, steps=400)
    rep = hypersurf.verify_geodesic_theorems(surface, [path])
    check = rep.checks[0]
    assert check.classification == "neither"
    assert check.error == ("indicatrix did not classify as a general helix: "
                           "neither")
    assert not check.passed and not rep.passed


def test_plane_geodesics_are_straight_lines(plane):
    path = hypersurf.geodesic(plane, [0.0, 0.0], [0.6, 0.8, 0.0],
                              1.5, steps=500)
    line = np.stack([0.6 * path.s, 0.8 * path.s, 0.0 * path.s], axis=1)
    assert np.abs(path.point_grid(path.s) - line).max() <= 1e-8
    assert np.abs(path.normal_accel).max() <= 1e-12


def test_surface_normal_matches_principal_normal_up_to_sign():
    path = cone_geodesics()[0]
    cone = cone_surface()
    grid = frenet_grid(path, 128, margin=0.02)
    worst = 0.0
    for s, frame in zip(grid.svals, grid.frames):
        u = np.array([np.interp(s, path.s, path.parameters[:, j])
                      for j in range(2)])
        xi = cone.normal(u)
        dot = abs(float(frame[1] @ xi))
        worst = max(worst, math.acos(min(1.0, dot)))
    assert worst <= 1e-4


def test_unit_tangent_thins_to_sampled_curve():
    path = cylinder_geodesics()[0]
    assert path.dim == 3 and path.unit_speed
    assert path.domain == (path.s[0], path.s[-1])
    tangent = path._unit_tangent(*path.domain)
    assert isinstance(tangent, SampledCurve) and tangent.dim == 3
    assert len(tangent.params) < len(path)
    assert tangent.domain == path.domain
    assert np.abs(np.linalg.norm(tangent.points, axis=1) - 1.0).max() <= 1e-15


@pytest.mark.parametrize("family", ["cylinder", "cone"])
def test_geodesic_path_reads_as_its_samples(family):
    # the series is the path's only copy of the curve: len() counts the
    # rows of the per-sample fields, and the unit tangent over [a, b] is the
    # series' velocity at 512 uniform arc lengths, whatever the samples
    path = (cylinder_geodesics() if family == "cylinder"
            else cone_geodesics())[0]
    assert [f.name for f in dataclasses.fields(path)] == [
        "s", "normal_accel", "parameters", "starts", "coefficients"]
    for field in ("s", "normal_accel", "parameters"):
        assert len(getattr(path, field)) == len(path)
    for a, b in (path.domain, (0.3, path.s[-1] - 0.3)):
        tangent = path._unit_tangent(a, b)
        svals = np.linspace(a, b, 512)
        assert np.array_equal(tangent.params, svals)
        assert np.array_equal(tangent.points, path.jet_grid(svals, 1)[:, 0])


@pytest.mark.parametrize("name", ["cylinder", "cone", "sphere"])
def test_jacobian_equals_per_partial_evaluation(name, sphere):
    h = {"cylinder": cylinder_surface(), "cone": cone_surface(),
         "sphere": sphere}[name]
    axes = [np.linspace(lo, hi, 64) for lo, hi in h.domain]
    points = np.array(list(itertools.product(*axes)))
    jacs = h.jacobian(points)
    # the reference evaluates each first partial on its own
    want = np.stack([expr.compile_array(expr.differentiate(c, p),
                                        h.parameters)(*points.T)
                     for c in h.components for p in h.parameters], axis=-1)
    assert np.array_equal(jacs, want.reshape(-1, h.dim, h.dim - 1))
    grid = points.reshape(64, 64, 2)
    assert np.array_equal(h.jacobian(grid), jacs.reshape(64, 64, 3, 2))
    # the normals kept at construction are those of this grid, to the bit
    assert np.array_equal(h._normals, h._unit_normal(jacs, points))


# ------------------------------------------------------------- verification

def test_cylinder_family_verifies_with_vertical_axes():
    rep = cylinder_report()
    assert rep.passed
    assert rep.surface["constant"] and rep.surface["residual"] <= 1e-9
    assert len(rep.checks) == len(CYLINDER_PITCH_ANGLES)
    for check in rep.checks:
        assert check.passed and check.error is None
        assert check.classification == "general-helix"
        assert abs(check.normal_dot_mean) <= 1e-6
        assert check.normal_dot_std <= 1e-6
        assert check.indicatrix_angle <= 1e-3
        assert check.sphere_residual <= 1e-9
        assert check.lambda_std <= 1e-8
        pitch = CYLINDER_PITCH_ANGLES[check.index]
        assert abs(check.lambda_mean + math.cos(pitch) ** 2) <= 1e-8
    assert rep.pairwise_axis_angle <= 2e-3


def test_verification_takes_each_sampled_velocity_once(monkeypatch):
    # the geodesic serves its own jets, so only its indicatrix takes
    # stencils: one pass per SampledCurve construction (the unit tangents,
    # those in arc length), two for the indicatrix's frame grid (orders 1
    # and 2 share a stencil) and one for the points of the sphere check
    calls = count_stencil_passes(monkeypatch)
    hypersurf.verify_geodesic_theorems(cylinder_surface(),
                                       cylinder_geodesics()[:1])
    assert len(calls) == 5


def test_cone_family_verifies_with_common_axis():
    rep = cone_report()
    assert rep.passed
    assert rep.surface["constant"]
    for check in rep.checks:
        assert check.passed and check.error is None
        assert check.classification == "slant-helix"
        assert abs(abs(check.normal_dot_mean) - 1.0 / math.sqrt(2.0)) <= 1e-6
        assert check.normal_dot_std <= 1e-6
        assert check.indicatrix_angle <= 1e-3
    assert rep.pairwise_axis_angle <= 2e-3


FAMILIES = {"cylinder": (CYLINDER_SPEC, cylinder_geodesics, cylinder_report),
            "cone": (CONE_SPEC, cone_geodesics, cone_report)}


def _moved_family(name, components, rot, scale=1.0):
    """Family `name` again, on the surface `components` along rot d.

    The surface is the image of the family's own under a map whose linear
    part is scale times rot.  Each geodesic starts at the same parameters
    along rot times its unit tangent, `scale` times as long, in as many
    steps.
    """
    spec, family, _ = FAMILIES[name]
    h = hypersurf.load_surface(dict(spec, components=components,
                                    direction=list(rot @ spec["direction"])))
    paths = [hypersurf.geodesic(h, p.parameters[0], rot @ p.jet(0.0, 1)[0],
                                scale * (p.s[-1] - p.s[0]), steps=len(p) - 1)
             for p in family()]
    return hypersurf.verify_geodesic_theorems(h, paths), paths


def _assert_same_readings(rep, want, scale, bounds):
    """rep reads as want with curvatures over scale, within bounds."""
    assert rep.passed == want.passed
    for got, ref in zip(rep.checks, want.checks, strict=True):
        assert (got.classification, got.passed) == (ref.classification,
                                                     ref.passed)
        assert (abs(scale * got.lambda_mean - ref.lambda_mean)
                <= bounds["lambda_mean"] * abs(ref.lambda_mean))
        assert (abs(scale * got.lambda_std - ref.lambda_std)
                <= bounds["lambda_std"])
        assert (abs(got.normal_dot_mean - ref.normal_dot_mean)
                <= bounds["normal_dot"])
        assert (abs(got.indicatrix_angle - ref.indicatrix_angle)
                <= bounds["angle"])
    assert (abs(rep.pairwise_axis_angle - want.pairwise_axis_angle)
            <= bounds["angle"])


@pytest.mark.parametrize("name", FAMILIES)
@settings(max_examples=10)
@given(rot=orthogonal_matrices(3),
       shift=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3))
def test_geodesics_follow_a_rigid_motion_of_the_surface(name, rot, shift):
    # X -> R X + t, with the direction and the tangents rotated by R.  Worst
    # of 200 draws on each surface: lambda_mean 1.2e-15 relative, lambda_std
    # 3.7e-16, normal_dot_mean 4.4e-16, indicatrix angle 3.0e-8 and pairwise
    # angle 1.5e-8 (acos of a dot product within roundoff of 1), indicatrix
    # axis 3.3e-10 from R times the axis
    spec, _, report = FAMILIES[name]
    components = [" + ".join([f"({float(q)!r})*({c})" for q, c in
                              zip(row, spec["components"])] + [repr(t)])
                  for row, t in zip(rot, shift)]
    rep, _ = _moved_family(name, components, rot)
    want = report()
    _assert_same_readings(rep, want, 1.0, {
        "lambda_mean": 4e-15, "lambda_std": 1e-15, "normal_dot": 1e-15,
        "angle": 1e-7})
    for got, ref in zip(rep.checks, want.checks):
        axis = rot @ ref.indicatrix_axis
        assert min(np.linalg.norm(got.indicatrix_axis - axis),
                   np.linalg.norm(got.indicatrix_axis + axis)) <= 1e-9


@pytest.mark.parametrize("name", FAMILIES)
@settings(max_examples=10)
@given(lam=st.floats(0.25, 4.0))
def test_scaling_the_surface_divides_geodesic_curvatures(name, lam):
    # X -> lam X, geodesics of length lam L in as many steps: the normal
    # curvature lambda scales by 1/lam, angles and C stay.  Worst of 200
    # draws on each surface: lambda_mean 8.5e-16 relative, lambda_std
    # 2.6e-16, normal_dot_mean 2.2e-16, C 3.2e-12 relative; the indicatrix
    # angle 8.4e-10, its axis 5.4e-10 and the pairwise angle 8.5e-10, on the
    # cone (the cylinder's read 0, 7.8e-12 and 0), as the indicatrix is
    # sampled from the series at the same fraction of the length at any lam
    spec, family, report = FAMILIES[name]
    components = [f"({lam!r})*({c})" for c in spec["components"]]
    rep, paths = _moved_family(name, components, np.eye(3), lam)
    want = report()
    _assert_same_readings(rep, want, lam, {
        "lambda_mean": 4e-15, "lambda_std": 1e-15, "normal_dot": 1e-15,
        "angle": 2e-9})
    for got, ref in zip(rep.checks, want.checks):
        assert np.linalg.norm(got.indicatrix_axis
                              - ref.indicatrix_axis) <= 1e-9
    for path, ref in zip(paths, family(), strict=True):
        c, c_ref = classify(path).C, classify(ref).C
        assert abs(c - c_ref) <= 1e-11 * c_ref


@pytest.mark.parametrize("lam", [0.01, 0.05, 40.0])
@pytest.mark.parametrize("name", FAMILIES)
def test_verification_does_not_depend_on_scale(name, lam):
    # each indicatrix is sampled from its geodesic's series at the same
    # fractions of the length at any scale, so far outside [0.25, 4] every
    # check keeps its label and verdict (thinned to a fixed spacing in arc
    # length, both families had too few samples at 0.01, the cone read
    # `neither` at 0.05)
    spec, _, report = FAMILIES[name]
    components = [f"({lam!r})*({c})" for c in spec["components"]]
    rep, _ = _moved_family(name, components, np.eye(3), lam)
    want = report()
    assert rep.passed and want.passed
    for got, ref in zip(rep.checks, want.checks, strict=True):
        assert ((got.classification, got.error, got.passed)
                == (ref.classification, ref.error, ref.passed))


CONE_E4_SPEC = {
    "dim": 4, "parameters": ["u", "v", "w"],
    "components": ["w*sin(u)*cos(v)", "w*sin(u)*sin(v)", "w*cos(u)", "w"],
    "domain": [[0.5, 2.6], [-3.0, 3.0], [0.5, 3.0]],
    "direction": [0.0, 0.0, 0.0, 1.0],
}


@functools.lru_cache(maxsize=None)
def cone_e4_geodesics():
    """Three geodesics of the E^4 cone over S^2 from one point."""
    h = hypersurf.load_surface(CONE_E4_SPEC)
    p = np.array([1.5, 0.0, 1.5])
    jac = h.jacobian(p)
    paths = []
    for d in ([1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [1.0, -1.0, 2.0]):
        t = jac @ np.array(d)
        paths.append(hypersurf.geodesic(h, p, t / np.linalg.norm(t), 1.0,
                                        steps=1000))
    return h, paths


@functools.lru_cache(maxsize=None)
def cone_e4_report():
    return hypersurf.verify_geodesic_theorems(*cone_e4_geodesics())


def test_cone_over_the_sphere_in_e4_verifies_with_axis_e4():
    # each geodesic lies in a hyperplane of E^4 that holds e_4, so it and
    # its indicatrix are planar with a normal orthogonal to the axis; read
    # as the E^3 cos(theta) = 0 case, every angle was pi/2, and with the
    # recursions run in E^4 the vanishing k_3 masked the geodesics
    e4 = np.array([0.0, 0.0, 0.0, 1.0])
    _, paths = cone_e4_geodesics()
    rep = cone_e4_report()
    assert rep.surface["constant"] and rep.surface["residual"] <= 1e-15
    assert rep.passed
    for check in rep.checks:
        assert check.passed and check.error is None
        assert check.normal_dot_std <= 1e-8
        # reads 5.3e-11 at most (the third geodesic, 1.0e-5 rad)
        assert abs(check.indicatrix_axis[3]) >= 1.0 - 1e-9
        assert check.indicatrix_angle <= hypersurf.INDICATRIX_AXIS_TOL
        assert check.classification == "slant-helix"
    assert rep.pairwise_axis_angle <= hypersurf.PAIRWISE_AXIS_TOL
    for path in paths:
        # C = sec^2(pi/4) = 2; the worst reads |C - 2| = 4.1e-12 (the third
        # geodesic; 7.7e-7 with a plain trapezoid slant integral), and every
        # axis reads 0 rad from e_4
        geo = classify(path, axis_hint=e4, margin=0.02)
        assert geo.classification == "slant-helix"
        assert geo.masked_fraction == 0.0
        assert abs(geo.C - 2.0) <= 1e-10
        assert hypersurf._axis_angle(geo.axis, e4) <= 5e-6


# x_n = 0.8 dist(x, S) over E^(n-1), with S the circle of radius 2 in the
# (x_1, x_2) plane of E^3 (n = 4) or the sphere of radius 2 in E^3 x {0} of
# E^4 (n = 5): the gradient has norm 0.8, so the normal keeps the angle
# arccos(1/sqrt(1.64)) with e_n and every geodesic is a slant helix with
# C = 1 + 0.8^2 = 1.64 exactly
EIKONAL = {
    4: {"parameters": ["u", "v", "w"],
        "components": ["u", "v", "w", "0.8*sqrt((sqrt(u^2+v^2)-2)^2 + w^2)"],
        "domain": [[0.5, 3.5], [-2, 2], [0.3, 1.5]],
        "start": [2, 0, 0.8],
        "directions": [[0, 1, 0], [0.3, 1, 0.2], [1, 0.5, -0.3]]},
    5: {"parameters": ["u", "v", "x", "w"],
        "components": ["u", "v", "x", "w",
                       "0.8*sqrt((sqrt(u^2+v^2+x^2)-2)^2 + w^2)"],
        "domain": [[0.5, 3.5], [-2, 2], [-1, 1], [0.3, 1.5]],
        "start": [2, 0, 0.3, 0.8],
        "directions": [[0, 1, 0, 0], [0.3, 1, 0.2, 0.1],
                       [1, 0.5, -0.3, 0.2]]},
}
EIKONAL_COS = 1.0 / math.sqrt(1.64)


def eikonal_graph(n, components=None):
    spec = EIKONAL[n]
    return hypersurf.Hypersurface(components or spec["components"],
                                  spec["parameters"], spec["domain"],
                                  np.eye(n)[n - 1])


@functools.lru_cache(maxsize=None)
def eikonal_geodesics(n):
    """The eikonal graph in E^n and its three geodesics of length 1."""
    h = eikonal_graph(n)
    p = np.array(EIKONAL[n]["start"], dtype=float)
    jac = h.jacobian(p)
    paths = []
    for d in EIKONAL[n]["directions"]:
        t = jac @ np.array(d, dtype=float)
        paths.append(hypersurf.geodesic(h, p, t / np.linalg.norm(t), 1.0,
                                        steps=1000))
    return h, paths


@pytest.mark.parametrize("n", [4, 5])
def test_eikonal_graph_keeps_a_constant_angle(n):
    # value -0.78086880944303 in E^4 and +0.78086880944303 in E^5, which
    # orient their normals oppositely; residual 2.24e-16 in both
    gate = hypersurf.is_helix_surface(eikonal_geodesics(n)[0])
    assert gate["constant"] and gate["residual"] <= 1e-15
    assert abs(abs(gate["value"]) - EIKONAL_COS) <= 1e-14


def test_eikonal_graph_off_the_distance_fails_the_gate():
    # 1.1 w^2 under the root: the gradient's norm varies; residual 4.4e-3
    comps = EIKONAL[4]["components"][:3] + [
        "0.8*sqrt((sqrt(u^2+v^2)-2)^2 + 1.1*w^2)"]
    gate = hypersurf.is_helix_surface(eikonal_graph(4, comps))
    assert not gate["constant"] and gate["residual"] >= 1e-3


# |C - 1.64| per geodesic reads 2.1e-6, 4.4e-6 and 8.8e-6 in E^4 and 2.2e-6,
# 4.5e-6 and 4.6e-5 in E^5; the recursions' second-order derivatives of G_i
# set that error, not the slant integral
EIKONAL_C_BOUNDS = {4: (5e-6, 1e-5, 2e-5), 5: (5e-6, 1e-5, 1e-4)}


@pytest.mark.parametrize("n", [4, 5])
def test_eikonal_graph_geodesics_are_slant_helices(n):
    h, paths = eikonal_geodesics(n)
    for path, bound in zip(paths, EIKONAL_C_BOUNDS[n], strict=True):
        geo = classify(path, axis_hint=h.direction, margin=0.02)
        assert geo.classification == "slant-helix"
        assert geo.masked_fraction == 0.0
        # normal_dot_mean reads 0.780868809443, normal_dot_std 4.6e-15 at most
        assert abs(geo.hint.v2_mean - EIKONAL_COS) <= 1e-14
        assert geo.hint.v2_std <= 1e-14
        assert abs(geo.C - 1.64) <= bound


@functools.lru_cache(maxsize=None)
def eikonal_readings():
    """The E^4 graph's gate and its geodesics' reports, hinted with e_4."""
    h, paths = eikonal_geodesics(4)
    return hypersurf.is_helix_surface(h), [
        classify(p, axis_hint=h.direction, margin=0.02) for p in paths]


def _moved_eikonal(rot, shift, scale):
    """The E^4 graph under X -> scale R X + shift, along R e_4: its gate, and
    the reports of its geodesics, each from the same parameters along R
    times the unit tangent, scale times as long, in 10 steps."""
    spec = EIKONAL[4]
    components = [" + ".join([f"({scale * float(q)!r})*({c})" for q, c in
                              zip(row, spec["components"])]
                             + [repr(float(t))])
                  for row, t in zip(rot, shift)]
    h = hypersurf.Hypersurface(components, spec["parameters"], spec["domain"],
                               rot[:, 3])
    paths = [hypersurf.geodesic(h, p.parameters[0], rot @ p.jet(0.0, 1)[0],
                                scale * p.length(), steps=10)
             for p in eikonal_geodesics(4)[1]]
    return hypersurf.is_helix_surface(h), [
        classify(p, axis_hint=h.direction, margin=0.02) for p in paths]


def _assert_eikonal_readings(gate, reports, bounds):
    """gate and reports read as the E^4 graph's own, within bounds."""
    want_gate, want = eikonal_readings()
    assert gate["constant"] and gate["residual"] <= bounds["residual"]
    assert abs(gate["value"] - want_gate["value"]) <= bounds["value"]
    for got, ref, c_bound in zip(reports, want, EIKONAL_C_BOUNDS[4],
                                 strict=True):
        assert got.classification == "slant-helix"
        assert got.masked_fraction == 0.0
        assert abs(got.C - 1.64) <= c_bound
        assert abs(got.C - ref.C) <= bounds["C"]
        assert abs(got.hint.v2_mean - ref.hint.v2_mean) <= bounds["v2_mean"]
        assert got.hint.v2_std <= bounds["v2_std"]


@settings(max_examples=4)
@given(rot=orthogonal_matrices(4),
       shift=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4))
def test_eikonal_graph_follows_a_rigid_motion_of_e4(rot, shift):
    # X -> R X + t, with the direction and the tangents rotated by R.  Worst
    # of 200 draws: gate residual 2.8e-16 and its value 5.6e-16 from the
    # graph's own, C 2.6e-9 from the geodesic's own (|C - 1.64| as
    # unmoved), normal_dot_mean 3.3e-16 from its own, normal_dot_std 4.7e-15
    _assert_eikonal_readings(*_moved_eikonal(rot, shift, 1.0), {
        "residual": 1e-15, "value": 1e-15, "C": 1e-8, "v2_mean": 1e-15,
        "v2_std": 1e-14})


@settings(max_examples=4)
@given(lam=st.floats(0.25, 4.0))
def test_scaling_the_eikonal_graph_keeps_its_readings(lam):
    # X -> lam X, geodesics lam times as long: the angle, C and the normal's
    # constant stay.  Worst of 200 draws: gate residual 3.0e-16 and its value
    # 2.2e-16 from the graph's own, C 6.2e-8 from the geodesic's own (|C -
    # 1.64| as unscaled), normal_dot_mean 4.4e-16 from its own,
    # normal_dot_std 4.6e-15
    _assert_eikonal_readings(*_moved_eikonal(np.eye(4), [0.0] * 4, lam), {
        "residual": 1e-15, "value": 1e-15, "C": 2e-7, "v2_mean": 1e-15,
        "v2_std": 1e-14})


def test_eikonal_graph_in_e5_cannot_check_its_indicatrix(capsys, tmp_path):
    # the E^5 geodesics classify from their series, but each indicatrix is a
    # sampled curve, whose stencils stop at order 4: the job reports that
    # limit for every geodesic and fails the verdict
    h, paths = eikonal_geodesics(5)
    scenario = tmp_path / "eikonal5.json"
    scenario.write_text(json.dumps({
        "surface": {"dim": 5, "parameters": EIKONAL[5]["parameters"],
                    "components": EIKONAL[5]["components"],
                    "domain": EIKONAL[5]["domain"],
                    "direction": h.direction.tolist()},
        "geodesics": [{"start": EIKONAL[5]["start"],
                       "tangent": p.jet(0.0, 1)[0].tolist(), "length": 1.0,
                       "steps": 10} for p in paths],
    }))
    assert cli.main(["geodesic", str(scenario)]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["surface"]["constant"] and not payload["passed"]
    for check in payload["geodesics"]:
        assert check["classification"] == "slant-helix"
        assert check["error"] == (
            "indicatrix failed: sampled curves support derivatives up to "
            "order 4; use an analytic curve for higher order")


def test_geodesic_frames_read_to_roundoff():
    # each geodesic's frames come from its own series, not from stencils on
    # its samples: the worst normal_dot_std over the cylinder, cone and E^4
    # families reads 1.9e-15 (6e-10 to 2.1e-9 from stencils)
    reports = (cylinder_report(), cone_report(), cone_e4_report())
    assert max(c.normal_dot_std for r in reports for c in r.checks) <= 1e-14


def test_plane_geodesics_report_degenerate(plane):
    samples = hypersurf.geodesic(plane, [0.0, 0.0], [0.6, 0.8, 0.0],
                                 1.5, steps=500)
    rep = hypersurf.verify_geodesic_theorems(plane, [samples])
    check = rep.checks[0]
    assert "degenerate" in check.error
    assert check.indicatrix_axis is None
    assert rep.passed          # excluded, not failed


def test_sphere_fails_the_surface_gate(sphere):
    # equator great circle: perfectly fine geodesic, but the surface is not
    # a constant-angle surface, so the joint verdict must fail
    samples = hypersurf.geodesic(sphere, [math.pi / 2.0, 0.0],
                                 [0.0, 1.0, 0.0], 1.5, steps=500)
    rep = hypersurf.verify_geodesic_theorems(sphere, [samples])
    assert not rep.surface["constant"]
    assert not rep.passed


def test_verification_records_only_helixkit_errors(monkeypatch):
    samples = cylinder_geodesics()[0]

    def degenerate(*args, **kwargs):
        raise DegenerateCurveError("straight segment")

    monkeypatch.setattr(hypersurf, "classify", degenerate)
    rep = hypersurf.verify_geodesic_theorems(cylinder_surface(), [samples])
    assert rep.checks[0].error == "classification failed: straight segment"

    def broken(*args, **kwargs):
        raise TypeError("a bug, not a degenerate curve")

    monkeypatch.setattr(hypersurf, "classify", broken)
    with pytest.raises(TypeError):
        hypersurf.verify_geodesic_theorems(cylinder_surface(), [samples])


def test_report_serializes_to_json():
    rep = cone_report()
    payload = rep.to_dict()
    text = json.dumps(payload)
    assert '"passed": true' in text
    assert set(payload) == {"surface", "geodesics", "pairwise_axis_angle",
                            "passed"}
    entry = payload["geodesics"][0]
    assert entry["indicatrix_axis"] is not None
    assert isinstance(entry["lambda_mean"], float)


# ------------------------------------------------------------- input checks

def test_load_surface_rejects_bad_specs():
    cases = [
        ({**CYLINDER_SPEC, "direction": [0.0, 0.0, 2.0]}, "unit"),
        ({**CYLINDER_SPEC, "components": ["cos(u)", "sin(u)"]}, "components"),
        ({**CYLINDER_SPEC, "parameters": ["u"]}, "parameters"),
        ({**CYLINDER_SPEC, "domain": [[3.0, -3.0], [-1.0, 1.0]]}, "interval"),
        ({k: v for k, v in CYLINDER_SPEC.items() if k != "dim"}, "dim"),
        ({**CYLINDER_SPEC, "components": ["cos(u", "sin(u)", "w"]},
         "expression"),
        ({**CYLINDER_SPEC, "components": ["u", "2*u", "3*u"]}, "rank"),
        ({**CYLINDER_SPEC, "direction": ["a", 0.0, 1.0]}, "direction"),
        ({**CYLINDER_SPEC, "domain": [["a", 3.0], [-1.0, 1.0]]}, "domain"),
        ({**CYLINDER_SPEC, "dim": 3.5}, "integer"),
        ({**CYLINDER_SPEC, "dim": "3"}, "integer"),
        ({**CYLINDER_SPEC, "dim": True}, "integer"),
    ]
    for spec, needle in cases:
        with pytest.raises(CurveFormatError) as exc:
            hypersurf.load_surface(spec)
        assert needle in str(exc.value)


def test_rank_deficient_point_is_named():
    # the cone's apex w = 0 is a node of the 64-per-axis grid the surface
    # samples at construction, on [-1, 6] as on [-1, 62]
    cone = ["w*cos(u)", "w*sin(u)", "w"]
    for box in ([-1, 6], [-1, 62]):
        with pytest.raises(SurfaceError, match=r"map at \(-1, 0\); shrink"):
            hypersurf.Hypersurface(cone, ["u", "w"], [[-1, 6], box], EZ)
    # on [-1, 62.5] the apex falls between nodes, so the surface loads and
    # the normal refused there carries the same advice
    h = hypersurf.Hypersurface(cone, ["u", "w"], [[-1, 6], [-1, 62.5]], EZ)
    with pytest.raises(SurfaceError, match=(
            r"^rank-deficient tangent map at \(0, 0\); shrink the parameter "
            "box away from the singular set$")):
        h.normal([0, 0])


def test_thin_cylinder_passes_construction_and_the_gate():
    # |X_u| = 1e-11 against |X_w| = 1: the cross product measured against
    # the product of the column norms is scale-free, so the tangent map has
    # full rank at every point, for construction as for the gate
    thin = hypersurf.Hypersurface(["1e-11*cos(u)", "1e-11*sin(u)", "w"],
                                  ["u", "w"], [[-3, 3], [-1, 1]], EZ)
    gate = hypersurf.is_helix_surface(thin)
    assert gate["constant"] and abs(gate["value"]) <= 1e-15


def test_load_surface_accepts_path_and_string(tmp_path):
    path = tmp_path / "cyl.json"
    path.write_text(json.dumps(CYLINDER_SPEC))
    assert hypersurf.load_surface(str(path)).dim == 3
    assert hypersurf.load_surface(json.dumps(CYLINDER_SPEC)).dim == 3


def test_load_surface_reads_only_text_and_paths_as_sources():
    # any other value is taken for the spec itself, which must be an object
    for source in (5, [1], None):
        with pytest.raises(CurveFormatError,
                           match="^surface spec must be a JSON object$"):
            hypersurf.load_surface(source)


_BOX = [[-1.0, 1.0], [-1.0, 1.0]]


@pytest.mark.parametrize("components, parameters, domain, direction, message", [
    (["cos(u)", "sin(u)", "u"], ["u", "u"], _BOX, EZ,
     "parameter names must be distinct"),
    (["u", "w"], ["u", "w"], _BOX, EZ, "2 parameters need 3 components, got 2"),
    (["cos(u)", "sin(u)", "w"], ["u", "w"], _BOX[:1], EZ,
     "need one parameter interval per parameter"),
    (["cos(u)", "sin(u)", "w"], ["u", "w"], _BOX, [0.0, 1.0],
     "direction must be a finite vector of length 3"),
], ids=["parameters", "components", "domain", "direction"])
def test_hypersurface_rejects_inconsistent_arguments(components, parameters,
                                                     domain, direction,
                                                     message):
    with pytest.raises(SurfaceError, match=f"^{re.escape(message)}$"):
        hypersurf.Hypersurface(components, parameters, domain, direction)


def test_geodesic_checks_the_lengths_of_start_and_tangent():
    cyl = cylinder_surface()
    with pytest.raises(SurfaceError,
                       match="^start must be a parameter point of length 2$"):
        hypersurf.geodesic(cyl, [0.0, 0.0, 0.0], [0.0, 0.8, 0.6], 1.0)
    with pytest.raises(SurfaceError,
                       match="^tangent must be an ambient vector of length 3$"):
        hypersurf.geodesic(cyl, [0.0, 0.0], [0.8, 0.6], 1.0)


def test_geodesic_names_a_non_finite_series():
    # reported as such, not as a step that left the box
    kink = hypersurf.load_surface(KINK_SPEC)
    with pytest.raises(SurfaceError,
                       match="^non-finite geodesic series at s=0$"):
        hypersurf.geodesic(kink, [0.0, 0.5], [0.0, 1.0, 0.0], 0.4, steps=50)


def test_geodesic_input_validation():
    cyl = cylinder_surface()
    with pytest.raises(SurfaceError, match="unit"):
        hypersurf.geodesic(cyl, [0.0, 0.0], [0.0, 0.8, 0.7], 1.0)
    with pytest.raises(SurfaceError, match="orthogonal"):
        hypersurf.geodesic(cyl, [0.0, 0.0], [1.0, 0.0, 0.0], 1.0)
    with pytest.raises(SurfaceError, match="outside"):
        hypersurf.geodesic(cyl, [0.0, 9.0], [0.0, 0.8, 0.6], 1.0)
    with pytest.raises(SurfaceError, match="length"):
        hypersurf.geodesic(cyl, [0.0, 0.0], [0.0, 0.8, 0.6], -1.0)


def test_geodesic_steps_must_be_an_integer():
    # a float or a bool is no step count, even an integral one; a numpy
    # integer is
    cyl, start, tangent = cylinder_surface(), [0.0, 0.0], [0.0, 0.8, 0.6]
    for steps in (2.5, 100.0, True, np.float64(4.0)):
        with pytest.raises(SurfaceError,
                           match="^steps must be a positive integer$"):
            hypersurf.geodesic(cyl, start, tangent, 1.0, steps=steps)
    assert len(hypersurf.geodesic(cyl, start, tangent, 1.0,
                                  steps=np.int64(4))) == 5


def test_geodesic_refuses_a_bool_for_length_or_steps():
    # True is an int to Python, but neither a length nor a step count
    cyl, start, tangent = cylinder_surface(), [0.0, 0.0], [0.0, 0.8, 0.6]
    for length in (True, np.True_):
        with pytest.raises(SurfaceError,
                           match="^length must be a positive number$"):
            hypersurf.geodesic(cyl, start, tangent, length)
    with pytest.raises(SurfaceError, match="^steps must be a positive integer$"):
        hypersurf.geodesic(cyl, start, tangent, 1.0, steps=True)
    assert hypersurf.geodesic(cyl, start, tangent, 1, steps=4).length() == 1.0


def test_geodesic_reports_leaving_the_box():
    cyl = cylinder_surface()
    with pytest.raises(SurfaceError, match=r"parameter box near s=1\.005$"):
        hypersurf.geodesic(cyl, [0.0, 5.0], [0.0, 0.0, 1.0], 2.0, steps=400)


def test_geodesic_output_grid_is_capped(monkeypatch):
    # refused before any sample is allocated: steps + 1 samples, one over
    cyl, start, tangent = cylinder_surface(), [0.0, 0.0], [0.0, 0.8, 0.6]
    cap = hypersurf.GEODESIC_MAX_SAMPLES
    assert cap == 10**6
    with pytest.raises(SurfaceError, match=rf"^{cap + 1} geodesic samples "
                       rf"exceed the limit of {cap}$"):
        hypersurf.geodesic(cyl, start, tangent, 1.0, steps=cap)
    # at a small cap, the default steps are held to it too
    monkeypatch.setattr(hypersurf, "GEODESIC_MAX_SAMPLES", 100)
    assert len(hypersurf.geodesic(cyl, start, tangent, 1.0, steps=99)) == 100
    with pytest.raises(SurfaceError, match="^101 geodesic samples"):
        hypersurf.geodesic(cyl, start, tangent, 0.1)
