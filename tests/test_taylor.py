"""Taylor-series jets checked against independent oracles.

sympy differentiates the same expressions symbolically and mpmath integrates
arc length to 40 digits; neither shares code with helixkit, so these tests
pin `expr.taylor` and everything routed through it (analytic and
reparametrized curve jets, arc-length tables) to outside references.
"""

import math

import mpmath
import numpy as np
import pytest
import sympy as sp

from helixkit import expr
from helixkit.curve import AnalyticCurve, arclength_reparametrize

ORDER = 6

# one case per node type; sources use the helixkit grammar, sympy reads the
# same text with ** for ^.  Each case names an interval where it is smooth.
CASES = [
    ("3", (-2.0, 2.0)),                                  # Const
    ("s", (-2.0, 2.0)),                                  # Var
    ("-s^2", (-2.0, 2.0)),                               # Neg, integer Pow
    ("s + cos(s)", (-2.0, 2.0)),                         # Add, cos
    ("exp(s/2) - s^3", (-2.0, 2.0)),                     # Sub, exp
    ("s*sin(3*s)", (-2.0, 2.0)),                         # Mul, sin
    ("sin(s)/(2 + s^2)", (-2.0, 2.0)),                   # Div
    ("(1 + s^2)^-2", (-2.0, 2.0)),                       # negative Pow
    ("s^-1", (0.5, 2.0)),
    ("(2 + sin(s))^1.5", (-2.0, 2.0)),                   # fractional Pow
    ("tan(s/2)", (-2.0, 2.0)),                           # tan
    ("log(2 + cos(s))", (-2.0, 2.0)),                    # log
    ("sqrt(1 + s^2)", (-2.0, 2.0)),                      # sqrt
    ("log(s)*sqrt(s)*exp(-s^2)", (0.3, 2.0)),
    # one argument under sin, cos and tan, and repeated subtrees, which
    # are evaluated once: a shared sin/cos pair, sqrt as the power 1/2,
    # and a log beside the reciprocal of its argument
    ("sin(s/2)*cos(s/2) - tan(s/2)/cos(s/2)", (-2.0, 2.0)),
    ("(1 + s^2)*exp(1 + s^2) + sqrt(1 + s^2)/(1 + s^2)^0.5", (-1.0, 1.0)),
    ("log(2 + s^2) + 1/(2 + s^2) - (sin(s) + s)^3*(sin(s) + s)",
     (-2.0, 2.0)),
]


def _sympy(source, names=("s",)):
    symbols = {n: sp.Symbol(n) for n in names}
    return sp.sympify(source.replace("^", "**"), locals=symbols), symbols


def _close(got, want, what):
    # order-6 recurrences accumulate roundoff; the worst case seen is 1.5e-14
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), what


@pytest.mark.parametrize("source, interval", CASES)
def test_taylor_matches_sympy_derivatives(source, interval):
    e = expr.parse(source)
    f, symbols = _sympy(source)
    s = symbols["s"]
    derivs = [f]
    for _ in range(ORDER):
        derivs.append(sp.diff(derivs[-1], s))
    rng = np.random.default_rng(7)
    points = np.sort(rng.uniform(*interval, size=5))
    coeffs = expr.taylor(e, {"s": [points, 1.0]}, ORDER)
    assert coeffs.shape == (ORDER + 1, points.size)
    for k in range(ORDER + 1):
        for i, x in enumerate(points):
            want = float(derivs[k].subs(s, float(x)))
            _close(coeffs[k, i] * math.factorial(k), want, (source, k, x))


def test_taylor_along_a_direction_matches_sympy():
    # X(p + eps d) in two variables: the form the geodesic lambda uses
    source = "u*w + sin(u*w) - w^2/u"
    e = expr.parse(source, variables=("u", "w"))
    f, symbols = _sympy(source, ("u", "w"))
    eps = sp.Symbol("eps")
    rng = np.random.default_rng(11)
    for _ in range(4):
        p = rng.uniform(0.5, 2.0, size=2)
        d = rng.uniform(-1.0, 1.0, size=2)
        path = f.subs({symbols["u"]: p[0] + d[0] * eps,
                       symbols["w"]: p[1] + d[1] * eps})
        coeffs = expr.taylor(e, {"u": [p[0], d[0]], "w": [p[1], d[1]]},
                             ORDER)
        for k in range(ORDER + 1):
            want = float(sp.diff(path, eps, k).subs(eps, 0))
            _close(coeffs[k] * math.factorial(k), want, k)


def test_integer_powers_are_exact_products():
    # finite where the base vanishes, unlike the power recurrence
    coeffs = expr.taylor(expr.parse("s^3 - 2*s^2"), {"s": [0.0, 1.0]}, ORDER)
    assert list(coeffs) == [0.0, 0.0, -2.0, 1.0, 0.0, 0.0, 0.0]
    # square-and-multiply: a huge exponent costs ~50 products, not 1e15
    coeffs = expr.taylor(expr.parse("s^1e15"), {"s": [1.0, 1.0]}, 1)
    assert list(coeffs) == [1.0, 1e15]


LOG_CASES = {
    "log(s)": mpmath.log,
    "log(2 + cos(s))": lambda t: mpmath.log(2 + mpmath.cos(t)),
    "log(1 + s^2)": lambda t: mpmath.log(1 + t ** 2),
    "log(exp(s) + s^2)": lambda t: mpmath.log(mpmath.exp(t) + t ** 2),
}


@pytest.mark.parametrize("source", LOG_CASES)
def test_log_matches_mpmath_to_order_12(source):
    # log's own recurrence, u_0 w_k = u_k - sum (j/k) w_j u_(k-j): the worst
    # relative error of a coefficient over these cases reads 8.2e-14 (the
    # reciprocal series it replaced read 1.3e-13)
    points = np.linspace(0.3, 2.5, 12)
    got = expr.taylor(expr.parse(source), {"s": [points, 1.0]}, 12)
    with mpmath.workdps(40):
        for i, x in enumerate(points):
            want = mpmath.taylor(LOG_CASES[source], mpmath.mpf(float(x)), 12)
            for k, w in enumerate(map(float, want)):
                assert abs(got[k, i] - w) <= 2e-13 * abs(w), (x, k)


@pytest.mark.parametrize("source, order", [
    ("(s^2)^1.25", 3), ("(s^2 + s^4)^2.5", 5), ("(s^2)^1.5", 3),
    ("(s^4)^1.5", 8)])
def test_power_of_a_vanishing_base_matches_one_sided_limits(source, order):
    # u^c at a zero of u: where the one-sided limits of a derivative agree,
    # the coefficient is that limit over k!, where they differ it is nan.
    # (s^4)^1.5 is s^6 and has every order; (s^2)^1.5 = |s|^3 has no third
    f, symbols = _sympy(source)
    s = symbols["s"]
    e = expr.parse(source)
    coeffs = expr.taylor(e, {"s": [0.0, 1.0]}, order)
    for k in range(order + 1):
        d = sp.diff(f, s, k)
        left, right = sp.limit(d, s, 0, "-"), sp.limit(d, s, 0, "+")
        if left == right:
            assert coeffs[k] == float(left) / math.factorial(k), k
        else:
            assert not np.isfinite(coeffs[k]), k
    # a grid that mixes zero and nonzero bases keeps the others' bits
    points = np.array([-0.5, 0.0, 0.25])
    mixed = expr.taylor(e, {"s": [points, 1.0]}, order)
    alone = expr.taylor(e, {"s": [points[[0, 2]], 1.0]}, order)
    assert np.array_equal(mixed[:, [0, 2]], alone)
    assert np.array_equal(mixed[:, 1], coeffs, equal_nan=True)


def test_power_of_a_smooth_vanishing_base_reads_its_binomial_series():
    # (s^4 + s^6)^1.5 = s^6 (1 + s^2)^1.5, so orders 6.. are the binomial
    # series 1, 0, 3/2, 0, 3/8; raised order by order it reads the same
    e = expr.parse("(s^4 + s^6)^1.5")
    want = [0.0] * 6 + [1.0, 0.0, 1.5, 0.0, 0.375]
    assert expr.taylor(e, {"s": [0.0, 1.0]}, 10).tolist() == want
    series = expr.TaylorSeries([e], {"s": []})
    for c in [0.0, 1.0] + [0.0] * 9:
        series.extend([c])
    assert [float(x) for x in series.coefficients[0]] == want


def test_extend_through_a_vanishing_power_base_is_unwarned():
    # every warning fails this suite; the series sets its own floating-point
    # policy, so its caller needs no np.errstate
    series = expr.TaylorSeries([expr.parse("(s^4)^1.5")], {"s": []})
    series.extend([0.0])
    series.extend([1.0])
    assert series.coefficients == [[0.0, 0.0]]


def test_curve_through_a_vanishing_power_base_has_jets():
    c = AnalyticCurve(["s", "(s^2)^1.25"], (-1.0, 1.0))
    assert c.jet_grid([0.0], 2).tolist() == [[[1.0, 0.0], [0.0, 0.0]]]


def test_curve_through_a_smooth_vanishing_power_has_every_jet():
    c = AnalyticCurve(["s", "(s^4)^1.5"], (-1.0, 1.0))
    assert c.jet_grid([0.0], 6).tolist() == [
        [[1.0, 0.0]] + [[0.0, 0.0]] * 4 + [[0.0, 720.0]]]


@pytest.mark.parametrize("source, interval", CASES)
def test_series_raised_order_by_order_matches_taylor(source, interval):
    # extend() sees each path coefficient only when its order is reached,
    # as the geodesic series does, and must give taylor's numbers exactly
    e = expr.parse(source)
    x = 0.5 * sum(interval)
    path = [x, 0.7, -0.2, 0.05, 0.0, 0.01, 0.0]
    trees = [e, expr.parse("s*" + source)]
    series = expr.TaylorSeries(trees, {"s": []})
    for c in path:
        series.extend([c])
    for tree, got in zip(trees, series.coefficients):
        assert len(got) == ORDER + 1
        assert np.array_equal(got, expr.taylor(tree, {"s": path}, ORDER))


def test_series_without_variables_extends():
    # extend counts its own orders, so no path is needed to raise one
    series = expr.TaylorSeries([expr.Add(expr.Const(2.0), expr.Const(3.0))],
                               {})
    series.extend([])
    series.extend([])
    assert series.coefficients == [[5.0, 0.0]]


def test_each_distinct_subexpression_is_one_step():
    trees = [expr.parse("sin(s^2 + 1)*cos(s^2 + 1) + tan(s^2 + 1)"),
             expr.parse("(s^2 + 1)^0.5 + sqrt(s^2 + 1) + sin(s^2 + 1)")]
    numbering = expr.ValueNumbering(trees)
    ops = [op for op, _, _ in numbering.steps]
    assert ops.count("sincos") == 1
    assert ops.count("pow") == 1
    assert len(set(numbering.steps)) == len(numbering.steps)


def test_signed_zero_constants_stay_apart():
    # 0.0 == -0.0, so a key without the sign would give every root here the
    # series of 0.0; a product's sum starts from its first term, so a
    # product keeps -0.0 as a quotient does
    sources = ["0.0*s", "-0.0*s", "0.0/s", "-0.0/s", "1/(-0.0/s)", "-0.0"]
    trees = [expr.parse(source) for source in sources]
    series = expr.TaylorSeries(trees, {"s": [1.0, 1.0, 0.0]}, 3)
    got = [np.array(c) for c in series.coefficients]
    want = [expr.taylor(tree, {"s": [1.0, 1.0]}, 2) for tree in trees]
    assert [bool(np.signbit(c[0])) for c in got] == [
        False, True, False, True, True, True]
    assert got[4][0] == -np.inf
    for g, w in zip(got, want):
        assert np.array_equal(np.signbit(g), np.signbit(w))


def test_compile_array_is_order_zero_taylor():
    e = expr.parse("sqrt(s^2 + 4) / (1 + exp(-s))")
    grid = np.linspace(-1.2, 1.2, 9)
    assert np.array_equal(expr.compile_array(e)(grid),
                          expr.taylor(e, {"s": [grid]}, 0)[0])


def test_reparametrized_jets_match_sympy_to_order_6():
    # tilted spiral, speed sqrt(1 + t^2): d/ds = (1/v) d/dt
    comps = ["cos(s)", "sin(s)", "s^2/2"]
    curve = AnalyticCurve(comps, (0.2, 1.5))
    uc = arclength_reparametrize(curve)
    t = sp.Symbol("s")
    alpha = [sp.sympify(c.replace("^", "**"), locals={"s": t}) for c in comps]
    v = sp.sqrt(sum(sp.diff(a, t) ** 2 for a in alpha))
    svals = np.linspace(uc.domain[0], uc.domain[1], 7)
    tvals = uc.parameter_of_arclength(svals)
    jets = uc.jet_grid(svals, ORDER)
    assert jets.shape == (svals.size, ORDER, 3)
    rows = alpha
    for k in range(1, ORDER + 1):
        rows = [sp.diff(r, t) / v for r in rows]
        fns = [sp.lambdify(t, r, "math") for r in rows]
        for i, tt in enumerate(tvals):
            want = [fn(float(tt)) for fn in fns]
            for j in range(3):
                _close(jets[i, k - 1, j], want[j], (k, float(tt), j))


@pytest.mark.parametrize("comps, domain, speed", [
    (["cos(s)", "sin(s)", "s^2/2"], (0.2, 1.5),
     lambda t: mpmath.sqrt(1 + t ** 2)),
    (["cos(9*s)", "sin(9*s)", "exp(s)"], (0.0, 2.0),
     lambda t: mpmath.sqrt(81 + mpmath.exp(2 * t))),
])
def test_arc_length_matches_mpmath(comps, domain, speed):
    with mpmath.workdps(40):
        exact = float(mpmath.quad(speed, list(domain)))
    curve = AnalyticCurve(comps, domain)
    assert abs(curve.length() - exact) <= 2e-15 * exact
    uc = arclength_reparametrize(curve)
    assert abs(uc.total_length - exact) <= 2e-15 * exact
    # blockwise sums of the Hermite-rule panels: 0 on both curves
    assert abs(uc.total_length - exact) <= 5e-16 * exact
    # the inverse t(s) at interior arc lengths against mpmath's root of s(t)
    a, b = domain
    for j in range(1, 10):
        target = exact * j / 10
        with mpmath.workdps(40):
            want = mpmath.findroot(
                lambda t: mpmath.quad(speed, [a, t]) - target,
                a + (b - a) * j / 10)
        got = uc.parameter_of_arclength(target)
        assert abs(got - float(want)) <= 2e-14, (j, got, float(want))


def test_arc_length_where_the_speed_nearly_vanishes():
    # alpha = (t^2/2, t^3/3) has speed t sqrt(1 + t^2), 1e-3 at t = a, and
    # s(t) = ((1 + t^2)^(3/2) - (1 + a^2)^(3/2)) / 3 inverts in closed form
    a = 1e-3
    curve = AnalyticCurve(["s^2/2", "s^3/3"], (a, 1.0))
    uc = arclength_reparametrize(curve)
    with mpmath.workdps(40):
        a0 = (1 + mpmath.mpf(a) ** 2) ** 1.5
        exact = float((2 * mpmath.sqrt(2) - a0) / 3)
        svals = np.linspace(0.0, uc.total_length, 2001)
        want = np.array([float(mpmath.sqrt(
            (3 * mpmath.mpf(s) + a0) ** (mpmath.mpf(2) / 3) - 1))
            for s in svals])
    assert abs(curve.length() - exact) <= 2e-15 * exact
    assert abs(uc.total_length - exact) <= 2e-15 * exact
    # reads 3.6e-12: the cubic inverse on the fixed panels, not the lengths
    err = np.max(np.abs(uc.parameter_of_arclength(svals) - want))
    assert err <= 5e-12, err
