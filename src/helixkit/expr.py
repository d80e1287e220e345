"""Closed-form expressions in one or more named variables.

The expression language covers what a curve or surface component needs:
constants, the parameter(s), the four arithmetic operators, powers with a
constant exponent, unary negation, and sin/cos/tan/exp/log/sqrt.  Expressions
are immutable trees.  `taylor` evaluates all derivatives of a tree up to a
given order in one pass of truncated Taylor arithmetic over its distinct
subexpressions (`ValueNumbering`), each evaluated once and dropped after its
last use; `differentiate` builds the exact first derivative as a new tree.
`taylor` is the only evaluator: `compile_scalar` and `compile_array` are
both order-0 `taylor` callables over floats or arrays, and a singular point
gives inf or nan, unwarned.

Operator precedence is ``^`` over unary minus over ``*``/``/`` over ``+``/``-``,
everything left-associative except ``^`` which is right-associative, so
``2^3^2`` is ``2^512``-free and equals 512, and ``-2^2`` is ``-4``.  Exponents
must be constant (no parameter inside), which keeps differentiation of powers
in the plain ``c * u^(c-1) * u'`` form.

Constant folding is deliberately light, and one rule folds every node that
`parse` and `differentiate` build: an operation whose operands are all
constants becomes the order-0 `taylor` value of the node it replaces, where
that value is finite, so folding never changes a value, the sign of a zero
included.  Nothing else is rewritten, and a literal that overflows is
refused, so every constant is finite.  `differentiate` also leaves out the
0 terms and 1 factors of its rules.
"""

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import ExprDomainError, ExprParseError

__all__ = [
    "Expression", "Const", "Var", "Neg", "Add", "Sub", "Mul", "Div", "Pow",
    "Call", "parse", "differentiate", "to_source",
    "compile_scalar", "compile_array", "taylor", "TaylorSeries",
    "ValueNumbering", "FUNCTIONS",
]

FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt")


@dataclass(frozen=True)
class Expression:
    def __str__(self):
        return to_source(self)


@dataclass(frozen=True)
class Const(Expression):
    value: float


@dataclass(frozen=True)
class Var(Expression):
    name: str = "s"


@dataclass(frozen=True)
class Neg(Expression):
    arg: Expression


@dataclass(frozen=True)
class Add(Expression):
    left: Expression
    right: Expression


@dataclass(frozen=True)
class Sub(Expression):
    left: Expression
    right: Expression


@dataclass(frozen=True)
class Mul(Expression):
    left: Expression
    right: Expression


@dataclass(frozen=True)
class Div(Expression):
    left: Expression
    right: Expression


@dataclass(frozen=True)
class Pow(Expression):
    base: Expression
    exponent: float


@dataclass(frozen=True)
class Call(Expression):
    fn: str
    arg: Expression


# ------------------------------------------------------------------ folding

def _fold(node):
    # an operator whose operands are all constants folds to its own order-0
    # value where that is finite, so folding never changes a value
    if all(isinstance(x, Const) for x in vars(node).values()
           if isinstance(x, Expression)):
        value = float(ValueNumbering([node]).taylor({}, 0)[0, 0])
        if math.isfinite(value):
            return Const(value)
    return node


# ------------------------------------------------------------------- parser

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(source):
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None or m.end() == pos:
            # skip over leading whitespace before reporting
            at = pos + len(source[pos:]) - len(source[pos:].lstrip())
            if at >= len(source):
                break
            raise ExprParseError(f"unexpected character {source[at]!r}", at)
        if m.group("num") is not None:
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.group("ident") is not None:
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, source, variables):
        self.source = source
        self.tokens = _tokenize(source)
        self.pos = 0
        self.variables = tuple(variables)

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, text, offset = self.peek()
        if kind != "op" or text != op:
            raise ExprParseError(f"expected {op!r}", offset)
        return self.advance()

    def parse(self):
        e = self.expr()
        kind, text, offset = self.peek()
        if kind != "end":
            raise ExprParseError(f"unexpected trailing input {text!r}", offset)
        return e

    def expr(self):
        e = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                rhs = self.term()
                e = _fold((Add if text == "+" else Sub)(e, rhs))
            else:
                return e

    def term(self):
        e = self.unary()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                rhs = self.unary()
                e = _fold((Mul if text == "*" else Div)(e, rhs))
            else:
                return e

    def unary(self):
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return _fold(Neg(self.unary()))
        return self.power()

    def power(self):
        base = self.atom()
        kind, text, offset = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            # folding has already reduced any valid constant exponent
            exponent = self.unary()
            if not isinstance(exponent, Const):
                raise ExprParseError("non-constant exponent", offset)
            return _fold(Pow(base, exponent.value))
        return base

    def atom(self):
        kind, text, offset = self.advance()
        if kind == "num":
            value = float(text)
            if not math.isfinite(value):
                raise ExprParseError(f"number {text} out of range", offset)
            return Const(value)
        if kind == "ident":
            if text in self.variables:
                return Var(text)
            if text in FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return _fold(Call(text, arg))
            raise ExprParseError(f"unknown identifier {text!r}", offset)
        if kind == "op" and text == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        if kind == "end":
            raise ExprParseError("unexpected end of input", offset)
        raise ExprParseError(f"unexpected token {text!r}", offset)


def parse(source: str, variables=("s",)) -> Expression:
    """Parse an expression in the given variable names.

    Parameters
    ----------
    source : str
        Expression text, e.g. ``"(2/5)*sin(2*s) - (1/40)*sin(8*s)"``.
    variables : tuple of str
        Identifiers accepted as variables.  Curves use the default ``("s",)``;
        surfaces pass their parameter names.

    Raises
    ------
    ExprParseError
        On any syntax error, unknown identifier, or non-constant exponent.
        The error carries the byte offset of the problem.
    """
    return _Parser(source, variables).parse()


# ------------------------------------------------------------ differentiate

def _is(e, c):
    return isinstance(e, Const) and e.value == c


def _dadd(a, b):
    return b if _is(a, 0.0) else a if _is(b, 0.0) else _fold(Add(a, b))


def _dsub(a, b):
    return (a if _is(b, 0.0) else _fold(Neg(b)) if _is(a, 0.0)
            else _fold(Sub(a, b)))


def _dmul(a, b):
    if _is(a, 0.0) or _is(b, 0.0):
        return Const(0.0)
    return b if _is(a, 1.0) else a if _is(b, 1.0) else _fold(Mul(a, b))


def differentiate(e: Expression, var: str = "s") -> Expression:
    """Exact derivative of `e` with respect to the named variable.

    0 terms and 1 factors are left out, 0 - b is -b: `taylor` gives the same
    bits as with them, up to a zero's sign, but no nan from 0 * inf or 0 / 0.
    """
    if isinstance(e, Const):
        return Const(0.0)
    if isinstance(e, Var):
        return Const(1.0 if e.name == var else 0.0)
    if isinstance(e, Neg):
        return _fold(Neg(differentiate(e.arg, var)))
    if isinstance(e, Add):
        return _dadd(differentiate(e.left, var), differentiate(e.right, var))
    if isinstance(e, Sub):
        return _dsub(differentiate(e.left, var), differentiate(e.right, var))
    if isinstance(e, Mul):
        return _dadd(_dmul(differentiate(e.left, var), e.right),
                     _dmul(e.left, differentiate(e.right, var)))
    if isinstance(e, Div):
        num = _dsub(_dmul(differentiate(e.left, var), e.right),
                    _dmul(e.left, differentiate(e.right, var)))
        return (num if _is(num, 0.0)
                else _fold(Div(num, _fold(Pow(e.right, 2.0)))))
    if not isinstance(e, (Pow, Call)):
        raise TypeError(f"not an expression node: {e!r}")
    u = e.base if isinstance(e, Pow) else e.arg
    du = differentiate(u, var)
    if _is(du, 0.0):
        return Const(0.0)
    if isinstance(e, Pow):
        c = e.exponent
        if c == 0.0:
            return Const(0.0)
        if c == 1.0:
            return du
        # keep u^1 and u^0 out of the result: repeated differentiation would
        # otherwise breed 0 * u^-1 terms that evaluate to nan at zeros of u
        lowered = u if c - 1.0 == 1.0 else _fold(Pow(u, c - 1.0))
        return _dmul(_fold(Mul(Const(c), lowered)), du)
    if e.fn == "sin":
        return _dmul(_fold(Call("cos", u)), du)
    if e.fn == "cos":
        return _fold(Neg(_dmul(_fold(Call("sin", u)), du)))
    if e.fn == "tan":
        return _fold(Div(du, _fold(Pow(_fold(Call("cos", u)), 2.0))))
    if e.fn == "exp":
        return _dmul(_fold(Call("exp", u)), du)
    if e.fn == "log":
        return _fold(Div(du, u))
    if e.fn == "sqrt":
        return _fold(Div(du, _fold(Mul(Const(2.0), _fold(Call("sqrt", u))))))
    raise TypeError(f"not an expression node: {e!r}")


# ------------------------------------------------------------ pretty print

_PREC = {Add: 1, Sub: 1, Mul: 2, Div: 2, Neg: 3, Pow: 4,
         Const: 5, Var: 5, Call: 5}


def _fmt_const(v):
    if v == 0.0 and math.copysign(1.0, v) < 0:
        return "-0"                     # int() would drop the sign
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def to_source(e: Expression) -> str:
    """Render as source; reparsing gives the same operations in the same order,
    or a folded constant with the same value, so the same values to the bit."""
    p = _PREC.get(type(e))          # None for a non-node, refused below
    if isinstance(e, Const):
        return _fmt_const(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        arg = to_source(e.arg)
        if _PREC[type(e.arg)] < p:
            arg = f"({arg})"
        return f"-{arg}"
    if isinstance(e, (Add, Sub, Mul, Div)):
        op = {Add: "+", Sub: "-", Mul: "*", Div: "/"}[type(e)]
        left = to_source(e.left)
        if _PREC[type(e.left)] < p:
            left = f"({left})"
        right = to_source(e.right)
        # operators group to the left: a right operand of equal precedence
        # keeps its parentheses, so a*(b/c) does not reparse as (a*b)/c
        if _PREC[type(e.right)] <= p:
            right = f"({right})"
        return f"{left} {op} {right}"
    if isinstance(e, Pow):
        base = to_source(e.base)
        if not isinstance(e.base, (Const, Var, Call)) or (
                isinstance(e.base, Const)
                and math.copysign(1.0, e.base.value) < 0):
            base = f"({base})"
        exp = _fmt_const(e.exponent)
        if e.exponent < 0:
            exp = f"({exp})"
        return f"{base}^{exp}"
    if isinstance(e, Call):
        return f"{e.fn}({to_source(e.arg)})"
    raise TypeError(f"not an expression node: {e!r}")


# ------------------------------------------------------------------ taylor

def taylor(e: Expression, env, order: int) -> np.ndarray:
    """Normalized Taylor coefficients c_0..c_order of `e`, c_k = f^(k)/k!.

    `env` binds each variable to the normalized Taylor coefficients of the
    path it follows, e.g. ``{"s": [svals, 1.0]}`` for s itself; missing
    trailing coefficients are zero, and coefficients are floats or arrays.
    The result has shape (order + 1, *broadcast shape).  Unchecked:
    singular points give inf or nan.  An unbound variable raises
    ExprDomainError.
    """
    return ValueNumbering([e]).taylor(env, order)[..., 0]


_ZERO = np.float64(0.0)
_ONE = ("const", (), (np.float64(1.0), 1.0))


class ValueNumbering:
    """The distinct subexpressions of some trees, numbered bottom-up.

    `steps` lists (operation, operand numbers, parameter), operands first,
    one per key: a constant keeps the sign of a zero, so a repeated subtree
    gets one number.  Integer powers become products, sqrt the power 1/2,
    log takes 1/u as an operand, and sin, cos and tan of one argument share
    a sin/cos pair.  `release[i]` lists operands last used by step i.
    """

    def __init__(self, exprs):
        self._numbers, self._seen = {}, {}
        self.roots = [self._number(e) for e in exprs]
        self.steps = list(self._numbers)
        last = {a: i for i, (_, args, _) in enumerate(self.steps) for a in args}
        last.update((r, None) for r in self.roots)
        self.release = [[a for a in args if last[a] == i]
                        for i, (_, args, _) in enumerate(self.steps)]
        del self._numbers, self._seen

    def taylor(self, env, order):
        """`taylor` of every tree at once, (order + 1, *shape, trees), unwarned."""
        n = order + 1
        paths = {}
        for name, coeffs in env.items():
            c = [np.asarray(x, dtype=float) for x in list(coeffs)[:n]]
            paths[name] = c + [_ZERO] * (n - len(c))
        shape = np.broadcast_shapes(*(x.shape for c in paths.values() for x in c))
        out = np.empty((n, *shape, len(self.roots)))
        for i, w in enumerate(TaylorSeries(self, paths, n).coefficients):
            for k, x in enumerate(w):
                out[k, ..., i] = x
        return out

    def _step(self, op, args=(), param=None):
        return self._numbers.setdefault((op, args, param), len(self._numbers))

    def _number(self, e):
        # trees share subtree objects; each object is keyed once
        if id(e) in self._seen:
            return self._seen[id(e)]
        step, number = self._step, self._number
        if isinstance(e, Const):
            c = np.float64(e.value)
            n = step("const", (), (c, math.copysign(1.0, c)))
        elif isinstance(e, Var):
            n = step("var", (), e.name)
        elif isinstance(e, (Neg, Add, Sub, Mul, Div)):
            # operands in field order: arg, or left and right
            n = step(type(e).__name__.lower(), tuple(map(number, vars(e).values())))
        elif isinstance(e, Pow) and (e.exponent < 0.0
                                     or not float(e.exponent).is_integer()):
            n = step("pow", (number(e.base),), e.exponent)
        elif isinstance(e, Pow):
            # square-and-multiply products stay finite where the base
            # vanishes; the power recurrence divides by the base
            u, n = number(e.base), step(*_ONE)
            for bit in bin(int(e.exponent))[2:]:
                n = step("mul", (n, n))
                n = step("mul", (n, u)) if bit == "1" else n
        elif isinstance(e, Call) and e.fn in ("sin", "cos", "tan"):
            pair = (step("sincos", (number(e.arg),)),)
            n = (step(e.fn, pair) if e.fn != "tan"
                 else step("div", (step("sin", pair), step("cos", pair))))
        elif isinstance(e, Call) and e.fn == "exp":
            n = step("exp", (number(e.arg),))
        elif isinstance(e, Call) and e.fn == "sqrt":
            n = step("pow", (number(e.arg),), 0.5)
        elif isinstance(e, Call) and e.fn == "log":
            u = number(e.arg)
            n = step("log", (u, step("div", (step(*_ONE), u))))
        else:
            raise TypeError(f"not an expression node: {e!r}")
        self._seen[id(e)] = n
        return n


class TaylorSeries:
    """Taylor series of expression trees along the paths of their variables.

    `paths` maps each variable to its path's normalized coefficients so far;
    `coefficients[i]` lists those of exprs[i], by truncated Taylor arithmetic
    (Griewank & Walther, *Evaluating Derivatives*, ch. 13): one record
    (series, rule, operands, parameter) per step of their `ValueNumbering`
    (which `exprs` may be).  Without `order`, `extend` raises every record;
    with it, each series is filled as built and dropped after its last user.
    """

    def __init__(self, exprs, paths, order=None):
        plan = exprs if isinstance(exprs, ValueNumbering) else ValueNumbering(exprs)
        self._paths, self._order, self._records = paths, 0, []
        values = [None] * len(plan.steps)
        with np.errstate(all="ignore"):
            for i, (op, args, param) in enumerate(plan.steps):
                if op == "var" and param not in paths:
                    raise ExprDomainError(f"unbound variable {param!r}", Var(param))
                u, v = (paths[param], None) if op == "var" else (  # its path
                    *(values[a] for a in args), None, None)[:2]
                record = ([], _RULES[op], u, v, param)
                for k in range(order or 0):
                    _raise(record, k)
                if order is None:   # kept for extend, operands before users
                    self._records.append(record)
                values[i] = record[0]
                for a in plan.release[i]:
                    values[a] = None
        self.coefficients = [values[r] for r in plan.roots]

    def extend(self, values):
        """Append one order; values are the variables' next coefficients."""
        for path, x in zip(self._paths.values(), values):
            path.append(x)
        with np.errstate(all="ignore"):
            for record in self._records:
                _raise(record, self._order)
        self._order += 1


def _raise(record, k):
    w, rule, u, v, c = record       # order k, from the orders below it
    w.append(rule(u, v, c, k, w))


def _pow(u, v, c, k, w):
    # w = u^c satisfies u w' = c u' w, which divides by u_0
    if k == 0:
        return np.power(u[0], c)
    wk = sum((c * j - (k - j)) * u[j] * w[k - j]
             for j in range(1, k + 1)) / (k * u[0])
    if c < 1.0 or np.all(np.not_equal(u[0], 0.0)):
        return wk
    # where u vanishes to order m (its first nonzero u_j, m = k + 1 if none
    # up to k), u^c with c >= 1 vanishes to order c m
    m = k + 1
    for j in range(k, 0, -1):
        m = np.where(np.equal(u[j], 0.0), m, j)
    wk = np.where(np.equal(u[0], 0.0) & (k < c * m), 0.0, wk)
    # if m is even, u_m > 0 and c m = p is an even integer, u^c is smooth:
    # tau^p q^c with q = u / tau^m, so order k >= p is order k - p of q^c
    for n in range(2, k + 1, 2):
        p = c * n
        if p <= k and p % 2 == 0:
            at = np.equal(u[0], 0.0) & np.equal(m, n) & (u[n] > 0)
            wk = np.where(at, _pow(u[n:], v, c, k - int(p), w[int(p):]), wk)
    return wk


# order k of an operation's series w from its operands' series u and v, its
# constant or exponent c, and the orders of w below k
_RULES = {
    "const": lambda u, v, c, k, w: c[0] if k == 0 else _ZERO,
    "var": lambda u, v, c, k, w: u[k],          # u is the variable's path
    "neg": lambda u, v, c, k, w: -u[k],
    "add": lambda u, v, c, k, w: u[k] + v[k],
    "sub": lambda u, v, c, k, w: u[k] - v[k],
    # started from the first product: 0 + -0.0 would give +0.0
    "mul": lambda u, v, c, k, w: sum(
        (u[j] * v[k - j] for j in range(1, k + 1)), u[0] * v[k]),
    "div": lambda u, v, c, k, w: (
        u[k] - sum(v[j] * w[k - j] for j in range(1, k + 1))) / v[0],
    "pow": _pow,
    # the pair (sin u, cos u), each order from the other's orders below it
    "sincos": lambda u, v, c, k, w: (
        (np.sin(u[0]), np.cos(u[0])) if k == 0 else
        (_chain(u, [p[1] for p in w], k), -_chain(u, [p[0] for p in w], k))),
    "sin": lambda u, v, c, k, w: u[k][0],       # u is the sin/cos pair
    "cos": lambda u, v, c, k, w: u[k][1],
    "exp": lambda u, v, c, k, w: np.exp(u[0]) if k == 0 else _chain(u, w, k),
    # v is 1/u
    "log": lambda u, v, c, k, w: np.log(u[0]) if k == 0 else _chain(u, v, k),
}


def _chain(u, g, k):
    # order k of w with w' = g u', from orders of g below k
    return sum(j * u[j] * g[k - j] for j in range(1, k + 1)) / k


# ----------------------------------------------------------------- compile

def compile_scalar(e: Expression, variables=("s",)):
    """Callable over floats or numpy arrays (unchecked): `compile_array`."""
    return compile_array(e, variables)


def compile_array(e: Expression, variables=("s",)):
    """Callable over floats or numpy arrays (unchecked): order-0 `taylor`.

    Arguments bind to `variables` in order and broadcast against each
    other; singular points give inf or nan, unwarned.  The callable keeps
    the tree's numbering, so calls do not number it again.
    """
    numbering = ValueNumbering([e])
    return lambda *args: numbering.taylor(
        {name: [a] for name, a in zip(variables, args)}, 0)[..., 0][0]
