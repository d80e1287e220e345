import math
import random

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helixkit import hypersurf
from helixkit.curve import AnalyticCurve, arclength_reparametrize
from helixkit.errors import ExprDomainError, ExprParseError
from helixkit.expr import (
    Add, Call, Const, Div, Expression, Mul, Neg, Pow, Sub, Var,
    FUNCTIONS, ValueNumbering, compile_array, compile_scalar, differentiate,
    parse, taylor, to_source,
)
from helixkit.helix import tangent_indicatrix
from conftest import CONE_SPEC, CYLINDER_SPEC, SPHERE_SPEC, WAVE, WAVE_DOMAIN


def _value(e, at):
    """Order-0 `taylor` value as a float, or a list of them where `at` is an
    array; `at` binds s, or maps variable names."""
    env = at if isinstance(at, dict) else {"s": at}
    return taylor(e, {name: [x] for name, x in env.items()}, 0)[0].tolist()


def test_precedence_and_associativity():
    assert _value(parse("2+3*4"), 0.0) == 14.0
    assert _value(parse("2*3+4"), 0.0) == 10.0
    assert _value(parse("2-3-4"), 0.0) == -5.0
    assert _value(parse("12/3/2"), 0.0) == 2.0
    # ^ is right-associative and binds tighter than unary minus
    assert _value(parse("2^3^2"), 0.0) == 512.0
    assert _value(parse("-2^2"), 0.0) == -4.0
    assert _value(parse("(-2)^2"), 0.0) == 4.0
    assert _value(parse("2^-3"), 0.0) == 0.125
    assert _value(parse("2*s^2"), 3.0) == 18.0


def test_whitespace_and_floats():
    assert _value(parse("  1.5e2 +  .25 "), 0.0) == 150.25
    assert _value(parse("2e-2"), 0.0) == 0.02


def test_constant_folding_is_light():
    assert parse("2*3") == Const(6.0)
    assert parse("2^3") == Const(8.0)
    assert parse("-(2+1)") == Const(-3.0)
    assert parse("sin(0)") == Const(0.0)
    # mixed subtrees are left alone
    assert parse("2*s") == Mul(Const(2.0), Var("s"))
    assert parse("s + 1 + 1") == Add(Add(Var("s"), Const(1.0)), Const(1.0))


@pytest.mark.parametrize("src,offset", [
    ("2 +", 3),
    ("(1+2", 4),
    ("foo(2)", 0),
    ("2 $ 3", 2),
    ("2^s", 1),
    ("2^(s+1)", 1),
    ("sin 3", 4),
    ("1 2", 2),
])
def test_parse_errors_carry_offsets(src, offset):
    with pytest.raises(ExprParseError) as info:
        parse(src)
    assert info.value.offset == offset


def test_parse_names_an_unexpected_token():
    with pytest.raises(ExprParseError,
                       match=r"^unexpected token '\*' \(at offset 0\)$"):
        parse("*2")


def test_unknown_variable_rejected():
    with pytest.raises(ExprParseError):
        parse("u + 1")
    assert _value(parse("u + 1", variables=("u",)), {"u": 2.0}) == 3.0


def test_derivatives_match_calculus():
    pts = [-1.3, -0.2, 0.45, 1.0, 2.2]
    cases = [
        ("sin(2*s)", lambda s: 2 * math.cos(2 * s)),
        ("cos(s^2)", lambda s: -2 * s * math.sin(s * s)),
        ("tan(s/2)", lambda s: 0.5 / math.cos(s / 2) ** 2),
        ("exp(3*s)", lambda s: 3 * math.exp(3 * s)),
        ("log(s^2+1)", lambda s: 2 * s / (s * s + 1)),
        ("sqrt(s^2+4)", lambda s: s / math.sqrt(s * s + 4)),
        ("s^3 - 2*s + 5", lambda s: 3 * s * s - 2),
        ("(2/5)*sin(2*s) - (1/40)*sin(8*s)",
         lambda s: 0.8 * math.cos(2 * s) - 0.2 * math.cos(8 * s)),
    ]
    for src, want in cases:
        d = differentiate(parse(src))
        for s in pts:
            assert _value(d, s) == pytest.approx(want(s), rel=1e-12, abs=1e-12)


def test_powers_of_exponent_0_and_1_differentiate_to_0_and_the_base():
    assert differentiate(parse("s^0")) == Const(0.0)
    assert differentiate(parse("(s^2)^1")) == Mul(Const(2.0), Var("s"))


def test_an_expression_prints_as_its_source():
    assert str(parse("2*s")) == "2 * s"


@pytest.mark.parametrize("call", [
    lambda: differentiate(object()),
    lambda: differentiate(Call("foo", Var("s"))),
    lambda: to_source(object()),
    lambda: ValueNumbering([Call("foo", Var("s"))]),
])
def test_a_foreign_node_is_refused_by_name(call):
    with pytest.raises(TypeError, match="^not an expression node: "):
        call()


def test_eighth_derivative_of_sine():
    # d^8/ds^8 sin(2s) = 2^8 sin(2s); exercises repeated symbolic passes
    e = parse("sin(2*s)")
    for _ in range(8):
        e = differentiate(e)
    for s in np.linspace(-2.0, 2.0, 17):
        assert _value(e, float(s)) == pytest.approx(
            256.0 * math.sin(2 * s), rel=1e-13, abs=1e-13)


def test_partial_derivatives():
    e = parse("u*v + sin(u*v)", variables=("u", "v"))
    du = differentiate(e, "u")
    dv = differentiate(e, "v")
    u, v = 0.3, 1.7
    env = {"u": u, "v": v}
    assert _value(e, env) == pytest.approx(u * v + math.sin(u * v), rel=1e-14)
    assert _value(du, env) == pytest.approx(v + math.cos(u * v) * v, rel=1e-14)
    assert _value(dv, env) == pytest.approx(u + math.cos(u * v) * u, rel=1e-14)


def test_singular_points_give_inf_or_nan():
    # unwarned: any warning fails the suite
    assert _value(parse("1/(s-1)"), 1.0) == math.inf
    assert _value(parse("s^-1"), -0.0) == -math.inf
    assert math.isnan(_value(parse("log(s)"), -1.0))
    assert math.isnan(_value(parse("sqrt(s)"), -2.0))


def test_unbound_variable_is_a_domain_error():
    with pytest.raises(ExprDomainError, match="unbound variable 's'") as info:
        taylor(parse("s + u", variables=("s", "u")), {"u": [1.0]}, 0)
    assert info.value.node == Var("s")
    with pytest.raises(ExprDomainError):
        compile_array(parse("u", variables=("u",)))(1.0)


@pytest.mark.parametrize("src,offset", [
    ("1e400", 0), ("1e400 - 1e400", 0), ("log(s - 1e400)", 8),
    ("2 * 1e999", 4),
])
def test_literals_that_overflow_are_refused(src, offset):
    with pytest.raises(ExprParseError, match="out of range") as info:
        parse(src)
    assert info.value.offset == offset


@pytest.mark.parametrize("src,tree", [
    ("1e308*10", Mul(Const(1e308), Const(10.0))),
    ("1e308 + 1e308", Add(Const(1e308), Const(1e308))),
    ("1/1e-320", Div(Const(1.0), Const(1e-320))),
    ("0/0", Div(Const(0.0), Const(0.0))),
])
def test_folding_leaves_non_finite_results_unfolded(src, tree):
    # every constant a parse makes is finite, so every tree prints
    assert parse(src) == tree
    assert parse(to_source(tree)) == tree


def _constant_node(rng):
    base = rng.choice([0.0, -0.0, round(rng.uniform(-3, 3), 3),
                       rng.uniform(-40, 40), 10 ** rng.uniform(-8, 8)])
    if rng.random() < 0.5:
        return Call(rng.choice(FUNCTIONS), Const(base))
    return Pow(Const(base), rng.choice([2.0, 3.0, 4.0, 7.0, 12.0, -1.0, -3.0,
                                        0.5, 1.5, -0.5, 1 / 3, 0.0, -0.0]))


_EDGE_CONSTANTS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
                   1e-200, 0.1, 1.5, -2.75, 3.0, 1e200, 1e308, -1e308,
                   1.7976931348623157e308]


def test_folding_never_changes_a_value():
    # a constant operation parses to the Const of the node's own order-0
    # value, bit for bit with the sign of a zero, where that value is finite;
    # math.pow(1.1, 3) is 1.331, while the square-and-multiply products give
    # 1.3310000000000004.  A node that overflows, or divides by a zero of
    # either sign, stays as it is.
    assert _value(parse("1.1^3"), 0.0) == _value(Pow(Const(1.1), 3.0), 0.0)
    rng = random.Random(20261019)
    nodes = [_constant_node(rng) for _ in range(6000)]
    nodes += [Neg(Const(x)) for x in _EDGE_CONSTANTS]
    nodes += [op(Const(x), Const(y)) for op in (Add, Sub, Mul, Div)
              for x in _EDGE_CONSTANTS for y in _EDGE_CONSTANTS]
    folded = 0
    for node in nodes:
        want = _value(node, 0.0)
        got = parse(to_source(node))
        if math.isfinite(want):
            assert isinstance(got, Const) and _identical(got.value, want), node
            folded += 1
        else:
            assert got == node and to_source(got) == to_source(node), node
    assert folded > 5800 and len(nodes) - folded > 950
    # a product's order 0 keeps the sign of a zero
    assert _identical(_value(parse("-0.0*s"), 1.0), -0.0)
    # differentiate folds by the same rule
    assert differentiate(parse("s/2")) == Const(0.5)
    assert _identical(differentiate(parse("-(0*s)")).value, -0.0)


def test_printing_keeps_the_sign_of_a_zero():
    cases = [(Mul(Const(-0.0), Var("s")), "-0 * s", -1.0, 0.0),
             (Pow(Const(-0.0), 3.0), "(-0)^3", 0.0, -0.0),
             (Pow(Const(-0.0), 2.0), "(-0)^2", 0.0, 0.0),
             (Sub(Var("s"), Const(-0.0)), "s - -0", -0.0, 0.0)]
    for tree, src, s, want in cases:
        assert to_source(tree) == src
        for e in (tree, parse(src)):
            assert _identical(_value(e, s), want), (src, e)


def _identical(a, b):
    """Equal to the bit, the sign of a zero included; nan matches nan."""
    if isinstance(a, float) and isinstance(b, float):
        return (a != a and b != b) or (
            a == b and math.copysign(1.0, a) == math.copysign(1.0, b))
    return a == b


def _random_tree(rng, depth, variables):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            if rng.random() < 0.1:
                return Const(rng.choice([0.0, -0.0]))
            return Const(round(rng.uniform(-3, 3), 3))
        return Var(rng.choice(variables))
    kind = rng.choice(["add", "sub", "mul", "div", "neg", "pow", "sin",
                       "cos", "exp"])
    a = _random_tree(rng, depth - 1, variables)
    if kind == "neg":
        return Neg(a)
    if kind == "pow":
        return Pow(a, rng.choice([2.0, 3.0, -1.0, 0.5]))
    if kind in ("sin", "cos", "exp"):
        return Call(kind, a)
    b = _random_tree(rng, depth - 1, variables)
    return {"add": Add, "sub": Sub, "mul": Mul, "div": Div}[kind](a, b)


_ROUND_TRIP_POINTS = [-1.7, -0.6, -0.0, 0.0, 0.1, 0.9, 1.8]


def test_print_parse_round_trip():
    # to_source must reparse to the same operations in the same order, or to
    # constants folded to the same values, so to the same values bit for bit
    # (nan matching nan, the sign of a zero kept); a right operand of equal
    # precedence keeps its parentheses
    assert to_source(Mul(Var("a"), Div(Var("b"), Var("c")))) == "a * (b / c)"
    assert to_source(Add(Var("a"), Add(Var("b"), Var("c")))) == "a + (b + c)"
    assert to_source(Add(Add(Var("a"), Var("b")), Var("c"))) == "a + b + c"
    rng = random.Random(20240817)
    checked = 0
    for _ in range(2000):
        tree = _random_tree(rng, 4, ("s",))
        src = to_source(tree)
        back = parse(src, variables=("s",))
        points = np.array(_ROUND_TRIP_POINTS)
        for s, got, want in zip(points, _value(back, points),
                                _value(tree, points)):
            assert _identical(got, want), (src, s)
            checked += math.isfinite(want)
    assert checked > 12600


_TREES = st.recursive(
    st.builds(Const, st.floats(-3.0, 3.0) | st.sampled_from([0.0, -0.0]))
    | st.just(Var("s")),
    lambda sub: (st.builds(Neg, sub)
                 | st.builds(lambda op, a, b: op(a, b),
                             st.sampled_from([Add, Sub, Mul, Div]), sub, sub)
                 | st.builds(Pow, sub,
                             st.sampled_from([2.0, 3.0, -1.0, 0.5, -0.0]))
                 | st.builds(Call, st.sampled_from(FUNCTIONS), sub)),
    max_leaves=12)


@settings(max_examples=300)
@given(tree=_TREES, s=st.sampled_from(_ROUND_TRIP_POINTS))
def test_print_parse_round_trip_property(tree, s):
    # constants that can be -0.0 and no tolerance: to the bit
    back = parse(to_source(tree))
    assert _identical(_value(back, s), _value(tree, s))


def test_compiled_forms_agree():
    mp = mpmath
    cases = [
        ("(2/5)*sin(2*s) - (1/40)*sin(8*s)",
         lambda s: mp.mpf(2) / 5 * mp.sin(2 * s) - mp.mpf(1) / 40 * mp.sin(8 * s)),
        ("sqrt(s^2+4) / (1 + exp(-s))",
         lambda s: mp.sqrt(s ** 2 + 4) / (1 + mp.exp(-s))),
        ("-s^3 + tan(s/4)", lambda s: -s ** 3 + mp.tan(s / 4)),
    ]
    grid = np.linspace(-1.2, 1.2, 41)
    for src, exact in cases:
        e = parse(src)
        f = compile_scalar(e)
        g = compile_array(e)
        vals = g(grid)
        assert vals.shape == grid.shape
        # one evaluator: the scalar form takes the grid and agrees to the bit
        assert np.array_equal(f(grid), vals)
        for i, s in enumerate(grid):
            with mp.workdps(30):
                want = float(exact(mp.mpf(float(s))))
            # reads 6.5e-16 relative at most; a zero is exact on both sides
            assert f(float(s)) == pytest.approx(want, rel=1e-14)
            assert vals[i] == pytest.approx(want, rel=1e-14)


def test_compiled_constant_broadcasts():
    g = compile_array(parse("3"))
    out = g(np.linspace(0, 1, 7))
    assert out.shape == (7,)
    assert np.all(out == 3.0)


def test_compiled_multivariable():
    e = parse("u^2 - v/2", variables=("u", "v"))
    f = compile_scalar(e, ("u", "v"))
    assert f(3.0, 4.0) == 7.0
    g = compile_array(e, ("u", "v"))
    u = np.array([1.0, 2.0])
    v = np.array([2.0, 2.0])
    assert np.allclose(g(u, v), [0.0, 3.0])


# ------------------------------------------------- lean derivative trees

TILTED = ["cos(s)", "sin(s)", "s^2/2"]
TILTED_DOMAIN = (0.2, 1.5)


def _structural_zeros(e):
    """Nodes of e that multiply by a constant 1, or that add, subtract,
    multiply or divide a constant 0 (a whole tree 0 has none)."""
    found, stack = [], [e]
    while stack:
        node = stack.pop()
        stack.extend(x for x in vars(node).values()
                     if isinstance(x, Expression))
        if isinstance(node, (Add, Sub, Mul, Div)):
            consts = [x.value for x in (node.left, node.right)
                      if isinstance(x, Const)]
            if 0.0 in consts or (isinstance(node, Mul) and 1.0 in consts):
                found.append(node)
    return found


@pytest.mark.parametrize("spec,steps", [
    (CYLINDER_SPEC, 7), (CONE_SPEC, 10), (SPHERE_SPEC, 15)])
def test_surface_partials_have_no_structural_zeros(spec, steps):
    h = hypersurf.load_surface(spec)
    for c in h.components:
        for p in h.parameters:
            d = differentiate(c, p)
            assert not _structural_zeros(d), to_source(d)
    # the unfolded partials took 12, 25 and 34 steps
    assert len(h._partials.steps) <= steps


@pytest.mark.parametrize("components,domain", [
    (WAVE, WAVE_DOMAIN), (TILTED, TILTED_DOMAIN)])
def test_curve_derivatives_have_no_structural_zeros(components, domain):
    c = AnalyticCurve(components, domain)
    for e in c.components:
        for _ in range(3):
            e = differentiate(e)
            assert not _structural_zeros(e), to_source(e)
    beta = tangent_indicatrix(arclength_reparametrize(c), margin=0.02)
    trees = [c.speed_expression(), beta.source.speed_expression(),
             *beta.source.velocity]
    for e in trees:
        assert not _structural_zeros(e), to_source(e)


# first partials as the product, quotient and chain rules give them before
# any structural zero is dropped, component-major, parenthesized so that
# each parses to the tree the rules built
UNFOLDED_PARTIALS = {
    "cone": ["0 * cos(u) + w * -(sin(u) * 1)",
             "1 * cos(u) + w * -(sin(u) * 0)",
             "0 * sin(u) + w * (cos(u) * 1)",
             "1 * sin(u) + w * (cos(u) * 0)", "0", "1"],
    "sphere": ["cos(u) * 1 * cos(w) + sin(u) * -(sin(w) * 0)",
               "cos(u) * 0 * cos(w) + sin(u) * -(sin(w) * 1)",
               "cos(u) * 1 * sin(w) + sin(u) * (cos(w) * 0)",
               "cos(u) * 0 * sin(w) + sin(u) * (cos(w) * 1)",
               "-(sin(u) * 1)", "-(sin(u) * 0)"],
}


@pytest.mark.parametrize("name,spec", [("cone", CONE_SPEC),
                                       ("sphere", SPHERE_SPEC)])
def test_lean_partials_are_bit_identical_to_unfolded(name, spec):
    h = hypersurf.load_surface(spec)
    unfolded = ValueNumbering([parse(src, variables=("u", "w"))
                               for src in UNFOLDED_PARTIALS[name]])
    assert len(h._partials.steps) < len(unfolded.steps)
    # a random series path through the parameter box, raised to order 20
    rng = np.random.default_rng(3)
    env = {}
    for p, (lo, hi) in zip(h.parameters, spec["domain"]):
        env[p] = [rng.uniform(lo, hi, 64), *rng.uniform(-1, 1, (20, 64))]
    assert np.array_equal(h._partials.taylor(env, 20),
                          unfolded.taylor(env, 20))


# speeds sqrt(|velocity|^2) with the velocity unfolded, parenthesized alike
UNFOLDED_SPEEDS = {
    "wave": "sqrt((0 * sin(2 * s) + 0.4 * (cos(2 * s) * (0 * s + 2))"
            " - (0 * sin(8 * s) + 0.025 * (cos(8 * s) * (0 * s + 8))))^2"
            " + (0 * cos(2 * s) + -0.4 * -(sin(2 * s) * (0 * s + 2))"
            " + (0 * cos(8 * s) + 0.025 * -(sin(8 * s) * (0 * s + 8))))^2"
            " + (0 * sin(3 * s) + 0.26666666666666666 * (cos(3 * s)"
            " * (0 * s + 3)))^2)",
    "tilted": "sqrt((-(sin(s) * 1))^2 + (cos(s) * 1)^2"
              " + ((2 * s * 1 * 2 - s^2 * 0) / 4)^2)",
}


@pytest.mark.parametrize("name,components,domain", [
    ("wave", WAVE, WAVE_DOMAIN), ("tilted", TILTED, TILTED_DOMAIN)])
def test_lean_speed_table_is_bit_identical_to_unfolded(name, components,
                                                       domain):
    def table(v):
        # the numbering of the arc-length table
        return ValueNumbering([v, Div(Const(1.0), v)])

    lean = table(AnalyticCurve(components, domain).speed_expression())
    unfolded = table(parse(UNFOLDED_SPEEDS[name]))
    assert len(lean.steps) < len(unfolded.steps)
    env = {"s": [np.linspace(*domain, 4097), 1.0]}
    assert np.array_equal(lean.taylor(env, 2), unfolded.taylor(env, 2))


def test_structurally_zero_terms_do_not_turn_into_nan():
    # d/dw log(u) was 0 / u, which is nan at u = 0
    d = differentiate(parse("log(u) + w", variables=("u", "w")), "w")
    assert d == Const(1.0)
    assert differentiate(parse("2 - s")) == Const(-1.0)
    assert differentiate(parse("3 * sin(2)")) == Const(0.0)
    # parse keeps its light folding: 0 * log(s) is still nan at s = 0
    assert np.isnan(compile_array(parse("0 * log(s)"))(0.0))
