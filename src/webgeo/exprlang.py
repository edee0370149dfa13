"""Formula language for web functions, surface heights, and metric components.

The grammar (recursive descent, standard precedence):

    expr   := term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := "-" factor | power
    power  := atom ("^" number)?
    atom   := number | "x" | "y" | name "(" expr ")" | "(" expr ")"
    name   := "sqrt" | "exp" | "ln" | "sin" | "cos" | "tan"
    number := digits ("." digits)? (("e"|"E") ("+"|"-")? digits)?

Whitespace between tokens is ignored.  Exponents must be numeric literals,
which keeps jet composition closed-form; a non-constant exponent is a parse
error, not an evaluation error.  Identifiers are case-sensitive and only the
two variables and the six function names are legal.

Parsed expressions are immutable trees that evaluate both over plain floats
(:func:`evaluate`) and over :class:`~webgeo.taylor.TaylorJet` values
(:func:`evaluate_jet`), with identical constant terms: the float path and
the jet constant-term path share the same arithmetic, so
``evaluate(e, p) == partial_derivative(evaluate_jet(e, p, k), 0, 0)``
holds exactly.  One walker does both, on the coefficient tables of
:mod:`webgeo.taylor`, at one point or at a :class:`Block` of points;
:func:`evaluate_jet` hands the table it builds to the jet it returns.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .taylor import (
    MAX_ORDER,
    JetDomainError,
    JetError,
    TaylorJet,
    check_derivative_index,
    check_table,
    constant_table,
    derivative_jet,
    jet_add,
    jet_div,
    jet_mul,
    jet_sub,
    partial_derivative,
    per_lane,
    table_arith,
    table_derivative,
    table_elementary,
    table_partial,
    variable_table,
    _check_order,
    _integer_power,
    _jet,
    _power_or_inf,
)

FUNCTION_NAMES = ("sqrt", "exp", "ln", "sin", "cos", "tan")


class ParseError(ValueError):
    """Syntax error, carrying the byte offset of the offending token."""

    def __init__(self, position: int, message: str):
        self.position = position
        self.message = message
        super().__init__(f"parse error at offset {position}: {message}")


class EvaluationError(ValueError):
    """Domain error during evaluation, naming the offending subexpression."""

    def __init__(self, message: str, subexpression: str | None = None):
        self.subexpression = subexpression
        if subexpression is not None:
            message = f"{message} in '{subexpression}'"
        super().__init__(message)


class _Node:
    """Mixin giving AST nodes arithmetic operators for programmatic builds."""

    __slots__ = ()

    @staticmethod
    def _coerce(other):
        if isinstance(other, _Node):
            return other
        if isinstance(other, (int, float)):
            return Constant(float(other))
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is NotImplemented else Binary("+", self, other)

    def __radd__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is NotImplemented else Binary("+", other, self)

    def __sub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is NotImplemented else Binary("-", self, other)

    def __rsub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is NotImplemented else Binary("-", other, self)

    def __mul__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is NotImplemented else Binary("*", self, other)

    def __rmul__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is NotImplemented else Binary("*", other, self)

    def __truediv__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is NotImplemented else Binary("/", self, other)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is NotImplemented else Binary("/", other, self)

    def __pow__(self, exponent):
        if not isinstance(exponent, (int, float)):
            raise TypeError("exponents must be numeric constants")
        return Binary("^", self, Constant(float(exponent)))

    def __neg__(self):
        return Unary("neg", self)

    def __str__(self):
        return to_source(self)


@dataclass(frozen=True)
class Constant(_Node):
    value: float


@dataclass(frozen=True)
class Variable(_Node):
    name: str  # "x" or "y"


@dataclass(frozen=True)
class Unary(_Node):
    op: str  # only "neg"
    child: "Expression"


@dataclass(frozen=True)
class Binary(_Node):
    op: str  # one of + - * / ^
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class Call(_Node):
    func: str  # one of FUNCTION_NAMES
    arg: "Expression"


@dataclass(frozen=True)
class PartialDerivative(_Node):
    """Numeric partial derivative of a wrapped expression.

    Not produced by the parser and not printable back into the grammar; it
    exists so derived geometric fields (Christoffel components of generated
    connections) remain ordinary evaluable expressions.  Evaluation extracts
    the derivative from a jet of the target, so the total derivative order
    plus any requested jet order must stay within the jet engine's capacity.
    """

    target: "Expression"
    dx: int
    dy: int


Expression = Constant | Variable | Unary | Binary | Call | PartialDerivative

X = Variable("x")
Y = Variable("y")

_NUMBER_RE = re.compile(r"\d+(?:\.\d+)?(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_OPS = "+-*/^"


def _tokenize(text: str):
    tokens = []
    i = 0
    length = len(text)
    while i < length:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch.isdigit():
            m = _NUMBER_RE.match(text, i)
            value = float(m.group())
            if not math.isfinite(value):
                raise ParseError(i, f"number {m.group()!r} is out of range")
            tokens.append(("num", value, i))
            i = m.end()
            continue
        if ch.isalpha() or ch == "_":
            m = _IDENT_RE.match(text, i)
            tokens.append(("ident", m.group(), i))
            i = m.end()
            continue
        if ch in _OPS:
            tokens.append(("op", ch, i))
            i += 1
            continue
        if ch == "(":
            tokens.append(("(", ch, i))
            i += 1
            continue
        if ch == ")":
            tokens.append((")", ch, i))
            i += 1
            continue
        raise ParseError(i, f"unexpected character {ch!r}")
    tokens.append(("end", None, length))
    return tokens


#: Deepest nesting of parentheses, function calls and unary minus signs the
#: parser accepts; deeper input is a ParseError rather than a RecursionError.
MAX_NESTING = 100

#: Deepest expression tree the parser builds, counting nodes from the root
#: to a leaf.  The tree walkers recurse once per level, so a long flat chain
#: such as ``x+x+...+x`` is a ParseError past this depth rather than a
#: RecursionError in every later walk.
MAX_DEPTH = 200


class _Parser:
    """Recursive descent; each rule returns (node, depth of its tree)."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def nest(self, tok):
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(tok[2], f"nesting deeper than {MAX_NESTING} levels")

    @staticmethod
    def deeper(tok, *depths) -> int:
        """Depth of a node over subtrees of `depths`, built at token `tok`."""
        depth = 1 + max(depths)
        if depth > MAX_DEPTH:
            raise ParseError(tok[2], f"expression tree deeper than {MAX_DEPTH} levels")
        return depth

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind, what):
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(tok[2], f"expected {what}")
        return self.advance()

    def expr(self):
        node, depth = self.term()
        while self.peek()[0] == "op" and self.peek()[1] in "+-":
            tok = self.advance()
            right, right_depth = self.term()
            node, depth = Binary(tok[1], node, right), self.deeper(tok, depth, right_depth)
        return node, depth

    def term(self):
        node, depth = self.factor()
        while self.peek()[0] == "op" and self.peek()[1] in "*/":
            tok = self.advance()
            right, right_depth = self.factor()
            node, depth = Binary(tok[1], node, right), self.deeper(tok, depth, right_depth)
        return node, depth

    def factor(self):
        tok = self.peek()
        if tok[0] == "op" and tok[1] == "-":
            self.advance()
            self.nest(tok)
            child, depth = self.factor()
            self.depth -= 1
            return Unary("neg", child), self.deeper(tok, depth)
        return self.power()

    def power(self):
        node, depth = self.atom()
        if self.peek()[0] == "op" and self.peek()[1] == "^":
            self.advance()
            tok = self.peek()
            if tok[0] != "num":
                raise ParseError(tok[2], "exponent must be a numeric constant")
            self.advance()
            return Binary("^", node, Constant(tok[1])), self.deeper(tok, depth)
        return node, depth

    def atom(self):
        tok = self.peek()
        kind, value, pos = tok
        if kind == "num":
            self.advance()
            return Constant(value), 1
        if kind == "ident":
            self.advance()
            if value in ("x", "y"):
                return Variable(value), 1
            if value in FUNCTION_NAMES:
                self.nest(self.expect("(", f"'(' after function name '{value}'"))
                inner, depth = self.expr()
                self.expect(")", "closing ')'")
                self.depth -= 1
                return Call(value, inner), self.deeper(tok, depth)
            raise ParseError(pos, f"unknown identifier '{value}'")
        if kind == "(":
            self.nest(self.advance())
            inner = self.expr()
            self.expect(")", "closing ')'")
            self.depth -= 1
            return inner
        raise ParseError(pos, "expected a number, variable, function call, or '('")


def parse(text: str) -> Expression:
    """Parse a formula string into an expression tree.

    Raises :class:`ParseError` (with the byte offset) for every
    non-grammatical input; no input string crashes the parser.  Numbers
    must be finite, and trees deeper than MAX_DEPTH levels are rejected.
    """
    if not isinstance(text, str):
        raise ParseError(0, "input must be a string")
    parser = _Parser(_tokenize(text))
    node, _ = parser.expr()
    tok = parser.peek()
    if tok[0] != "end":
        raise ParseError(tok[2], f"unexpected trailing input {tok[1]!r}")
    return node


def as_expression(value) -> Expression:
    """Coerce a string or expression to an expression tree."""
    if isinstance(value, str):
        return parse(value)
    if isinstance(value, _Node):
        return value
    raise TypeError(f"expected formula string or Expression, got {type(value).__name__}")


def _format_number(v: float) -> str:
    return repr(float(v))


def to_source(e: Expression) -> str:
    """Render an expression back to formula text.

    For parser-produced trees the output re-parses to a structurally
    identical tree (the printer parenthesizes fully, and the parser never
    creates negative constants).  :class:`PartialDerivative` nodes use a
    `D[i,j](...)` notation that is intentionally outside the grammar.
    """
    if isinstance(e, Constant):
        return _format_number(e.value)
    if isinstance(e, Variable):
        return e.name
    if isinstance(e, Unary):
        return f"(-{to_source(e.child)})"
    if isinstance(e, Binary):
        if e.op == "^":
            exponent = e.right.value if isinstance(e.right, Constant) else e.right
            return f"({to_source(e.left)})^{_format_number(exponent)}"
        return f"({to_source(e.left)} {e.op} {to_source(e.right)})"
    if isinstance(e, Call):
        return f"{e.func}({to_source(e.arg)})"
    if isinstance(e, PartialDerivative):
        return f"D[{e.dx},{e.dy}]({to_source(e.target)})"
    raise TypeError(f"not an expression node: {e!r}")


_MATH_FUNCTIONS = {
    "sqrt": math.sqrt,
    "exp": math.exp,
    "ln": math.log,
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
}


def evaluate(e: Expression, point) -> float:
    """IEEE double evaluation of the formula at (x, y).

    Domain violations (square roots of negative numbers, logs of
    non-positive numbers, division by zero, non-finite results) raise
    :class:`EvaluationError` naming the offending subexpression.
    """
    return _Walker(float(point[0]), float(point[1])).value(e, None)


def evaluate_gradient(e: Expression, point) -> tuple[float, float, float]:
    """(value, df/dx, df/dy) at a point, by scalar forward propagation.

    Equivalent to an order-1 jet but allocation free; inner loop of the
    level-curve tracer.
    """
    x, y = float(point[0]), float(point[1])
    v, gx, gy = _eval_grad(e, x, y)
    if not (math.isfinite(gx) and math.isfinite(gy)):
        raise EvaluationError("non-finite gradient", to_source(e))
    return v, gx, gy


def _eval_grad(node, x, y):
    if isinstance(node, Constant):
        return node.value, 0.0, 0.0
    if isinstance(node, Variable):
        if node.name == "x":
            return x, 1.0, 0.0
        return y, 0.0, 1.0
    if isinstance(node, Unary):
        v, gx, gy = _eval_grad(node.child, x, y)
        return -v, -gx, -gy
    if isinstance(node, Binary):
        lv, lx, ly = _eval_grad(node.left, x, y)
        if node.op == "^":
            if not isinstance(node.right, Constant):
                raise EvaluationError("exponent must be constant", to_source(node))
            p = node.right.value
            v = _Walker(x, y).value(node, None)
            if lv == 0.0:
                # derivative p * lv^(p-1): defined at zero base only for
                # integer exponents with p = 0 or p >= 1
                if p.is_integer() and p >= 0.0:
                    scale = 1.0 if p == 1.0 else 0.0
                else:
                    raise EvaluationError(
                        "gradient of power undefined at zero base", to_source(node)
                    )
            else:
                scale = p * v / lv
            return v, scale * lx, scale * ly
        rv, rx, ry = _eval_grad(node.right, x, y)
        if node.op == "+":
            return lv + rv, lx + rx, ly + ry
        if node.op == "-":
            return lv - rv, lx - rx, ly - ry
        if node.op == "*":
            return lv * rv, lx * rv + lv * rx, ly * rv + lv * ry
        if node.op == "/":
            if rv == 0.0:
                raise EvaluationError("division by zero", to_source(node))
            v = lv / rv
            return v, (lx - v * rx) / rv, (ly - v * ry) / rv
        raise EvaluationError(f"unknown operator {node.op!r}", to_source(node))
    if isinstance(node, Call):
        u, ux, uy = _eval_grad(node.arg, x, y)
        if node.func == "sqrt":
            if u <= 0.0:
                raise EvaluationError(f"sqrt of non-positive value {u!r}", to_source(node))
            v = math.sqrt(u)
            scale = 0.5 / v
        elif node.func == "exp":
            try:
                v = math.exp(u)
            except OverflowError:
                raise EvaluationError("exp overflow", to_source(node)) from None
            scale = v
        elif node.func == "ln":
            if u <= 0.0:
                raise EvaluationError(f"ln of non-positive value {u!r}", to_source(node))
            v = math.log(u)
            scale = 1.0 / u
        elif node.func == "sin":
            v = math.sin(u)
            scale = math.cos(u)
        elif node.func == "cos":
            v = math.cos(u)
            scale = -math.sin(u)
        else:
            v = math.tan(u)
            scale = 1.0 + v * v
        return v, scale * ux, scale * uy
    if isinstance(node, PartialDerivative):
        needed = node.dx + node.dy + 1
        if needed > MAX_ORDER:
            raise EvaluationError(
                f"gradient of a derivative of order {node.dx + node.dy} needs "
                f"order {needed}, beyond the engine maximum {MAX_ORDER}",
                to_source(node),
            )
        base = evaluate_jet(node.target, (x, y), needed)
        for _ in range(node.dx):
            base = derivative_jet(base, "x")
        for _ in range(node.dy):
            base = derivative_jet(base, "y")
        return (
            base.value,
            partial_derivative(base, 1, 0),
            partial_derivative(base, 0, 1),
        )
    raise TypeError(f"not an expression node: {node!r}")


def evaluate_jet(e: Expression, point, order: int) -> TaylorJet:
    """Jet of the formula at `point`, truncated at `order` (1..4)."""
    _check_order(order)
    x, y = float(point[0]), float(point[1])
    if not (math.isfinite(x) and math.isfinite(y)):
        raise JetDomainError("non-finite coefficient produced by coordinate seed")
    return _jet(_Walker(x, y).jet(e, order, None), order, (x, y))


def evaluate_jet_with(e: Expression, bindings: dict) -> TaylorJet:
    """Evaluate with the variables bound to caller-supplied jets.

    All bound jets must share a base point and order; constants are seeded
    at that base point.  Derivative nodes are not supported under general
    substitution (they need coordinate bindings).
    """
    if not bindings:
        raise EvaluationError("no variable bindings supplied")
    jets = list(bindings.values())
    base = jets[0].base_point
    order = jets[0].order
    for j in jets[1:]:
        if j.base_point != base or j.order != order:
            raise EvaluationError("bound jets disagree on base point or order")
    tables = {name: bindings[name].table for name in ("x", "y") if name in bindings}
    return _jet(_Walker(None, None, tables).jet(e, order, None), order, base)


#: The jet function of each arithmetic operator.  The walker does not
#: dispatch through it; perfbench's tracing tests look it up.
_JET_OPS = {"+": jet_add, "-": jet_sub, "*": jet_mul, "/": jet_div}

_CONTEXT = {"+": "add", "-": "sub", "*": "mul", "/": "div", "^": "pow_const"}


def _math_lanes(fn, u):
    """fn at u lane by lane; NaN where `math` raises (the caller's
    non-finite check then fails that lane, as the float path raises)."""
    try:
        return per_lane(fn, u)
    except (ValueError, OverflowError):
        pass

    def guarded(v):
        try:
            return fn(v)
        except (ValueError, OverflowError):
            return math.nan

    return per_lane(guarded, u)


class _Walker:
    """The evaluator: one walk of an expression tree, at one point or at a
    block of points.

    The coordinates `x`, `y` are floats (one point) or lane vectors (a
    block).  `value` gives the IEEE double value, `jet` the coefficient
    table of the jet of a given order (see :mod:`webgeo.taylor`).  A domain
    violation that holds at every point raises :class:`EvaluationError`
    naming the subexpression; one that holds at some lanes of a block
    clears them in the boolean mask `ok` (None at a single point) and the
    walk goes on.  `bindings`, when given, maps variable names to the
    tables they stand for (substitution), in place of coordinates.
    """

    def __init__(self, x, y, bindings=None):
        self.x = x
        self.y = y
        self.bindings = bindings

    def target(self, e: Expression, order: int, ok):
        """Jet table of a derivative node's target."""
        return self.jet(e, order, ok)

    @staticmethod
    def fail(bad, ok, node, message, *value):
        """Clear the lanes where `bad`; raise when it holds at every point."""
        if isinstance(bad, np.ndarray):
            ok &= ~bad
        elif bad:
            raise EvaluationError(" ".join([message, *map(repr, value)]), to_source(node))

    def value(self, node, ok):
        if isinstance(node, Constant):
            return node.value
        if isinstance(node, Variable):
            return self.x if node.name == "x" else self.y
        if isinstance(node, Unary):
            return -self.value(node.child, ok)
        if isinstance(node, Binary):
            left = self.value(node.left, ok)
            if node.op == "^":
                if not isinstance(node.right, Constant):
                    raise EvaluationError("exponent must be constant", to_source(node))
                p = node.right.value
                if p.is_integer():
                    n = int(p)
                    if n < 0:
                        self.fail(left == 0.0, ok, node, "zero raised to a negative power")
                    value = _integer_power(left, n, 1.0)
                else:
                    self.fail(left < 0.0, ok, node, "fractional power of negative base", left)
                    if p < 0.0:
                        self.fail(left == 0.0, ok, node, "zero raised to a negative power")
                    if isinstance(left, np.ndarray):
                        left = np.where(ok, left, 1.0)
                    value = per_lane(lambda v: _power_or_inf(v, p), left)
            else:
                right = self.value(node.right, ok)
                if node.op == "+":
                    value = left + right
                elif node.op == "-":
                    value = left - right
                elif node.op == "*":
                    value = left * right
                elif node.op == "/":
                    self.fail(right == 0.0, ok, node, "division by zero")
                    value = left / right
                else:
                    raise EvaluationError(f"unknown operator {node.op!r}", to_source(node))
            if isinstance(value, np.ndarray):
                ok &= np.isfinite(value)
            elif not math.isfinite(value):
                raise EvaluationError("non-finite result", to_source(node))
            return value
        if isinstance(node, Call):
            u = self.value(node.arg, ok)
            if node.func == "sqrt":
                self.fail(u < 0.0, ok, node, "sqrt of negative value", u)
            if node.func == "ln":
                self.fail(u <= 0.0, ok, node, "ln of non-positive value", u)
            fn = _MATH_FUNCTIONS[node.func]
            if isinstance(u, np.ndarray):
                value = _math_lanes(fn, np.where(ok, u, 1.0))
            else:
                try:
                    value = fn(u)
                except (ValueError, OverflowError) as exc:
                    raise EvaluationError(str(exc), to_source(node)) from None
            if isinstance(value, np.ndarray):
                ok &= np.isfinite(value)
            elif not math.isfinite(value):
                raise EvaluationError("non-finite result", to_source(node))
            return value
        if isinstance(node, PartialDerivative):
            total = node.dx + node.dy
            if total == 0:
                return self.value(node.target, ok)
            order = min(MAX_ORDER, max(1, total))
            table = self.target(node.target, order, ok)
            check_derivative_index(node.dx, node.dy, order)
            return table_partial(table, node.dx, node.dy)
        raise TypeError(f"not an expression node: {node!r}")

    def jet(self, node, order: int, ok):
        try:
            # Seeds need no check: coordinates and bound jets are finite.
            if isinstance(node, Constant):
                if not math.isfinite(node.value):
                    raise JetDomainError("non-finite coefficient produced by constant seed")
                return constant_table(node.value, order)
            if isinstance(node, Variable):
                if self.bindings is None:
                    lanes = self.x if node.name == "x" else self.y
                    return variable_table(lanes, node.name, order)
                table = self.bindings.get(node.name)
                if table is None:
                    raise EvaluationError(f"variable '{node.name}' is not bound")
                return table
            if isinstance(node, Unary):
                child = self.jet(node.child, order, ok)
                table, context = [[0.0 - v for v in row] for row in child], "sub"
            elif isinstance(node, Binary):
                left = self.jet(node.left, order, ok)
                context = _CONTEXT.get(node.op, node.op)
                if node.op == "^":
                    if not isinstance(node.right, Constant):
                        raise EvaluationError("exponent must be constant", to_source(node))
                    table = table_elementary("pow_const", left, order, ok, node.right.value)
                else:
                    right = self.jet(node.right, order, ok)
                    table = table_arith(node.op, left, right, order, ok)
            elif isinstance(node, Call):
                arg = self.jet(node.arg, order, ok)
                table, context = table_elementary(node.func, arg, order, ok), node.func
            elif isinstance(node, PartialDerivative):
                if self.bindings is not None:
                    raise EvaluationError(
                        "derivative nodes require coordinate bindings", to_source(node)
                    )
                total = node.dx + node.dy
                needed = order + total
                if needed > MAX_ORDER:
                    raise EvaluationError(
                        f"jet of order {order} of a derivative of order {total} "
                        f"needs order {needed}, beyond the engine maximum {MAX_ORDER}",
                        to_source(node),
                    )
                table, context = self.target(node.target, needed, ok), "derivative_jet"
                for _ in range(node.dx):
                    table = table_derivative(table, "x", needed)
                    needed -= 1
                for _ in range(node.dy):
                    table = table_derivative(table, "y", needed)
                    needed -= 1
            else:
                raise TypeError(f"not an expression node: {node!r}")
            check_table(table, ok, context)
            return table
        except (JetDomainError, JetError) as exc:
            raise EvaluationError(str(exc), to_source(node)) from None


class Block(_Walker):
    """A block of points at which expressions are evaluated together.

    ``evaluate(e, order)`` returns ``(result, ok)``: at order 0 the value
    :func:`evaluate` gives at each point, at orders 1..4 the coefficient
    table of the jet :func:`evaluate_jet` gives, entry by entry a float
    (the same at every point) or a lane vector, bitwise equal to the
    single-point results.  ``ok`` is a boolean lane vector, False where the
    single-point function raises :class:`EvaluationError`; the result is
    None when no point is valid.  Results are cached per block, so a field
    used by several formulas (a surface height under its derivative nodes)
    is evaluated once.
    """

    def __init__(self, xs, ys):
        super().__init__(np.asarray(xs, dtype=float), np.asarray(ys, dtype=float))
        if not (np.isfinite(self.x).all() and np.isfinite(self.y).all()):
            raise ValueError("block coordinates must be finite")
        self._cache = {}

    def evaluate(self, e: Expression, order: int):
        key = (id(e), order)
        hit = self._cache.get(key)
        if hit is None:
            ok = np.ones(len(self.x), dtype=bool)
            result = None
            with np.errstate(all="ignore"):
                try:
                    if order == 0:
                        result = self.value(e, ok)
                    else:
                        _check_order(order)
                        result = self.jet(e, order, ok)
                except EvaluationError:
                    ok[:] = False
            if not ok.any():
                result = None
            hit = self._cache[key] = (e, result, ok)
        return hit[1], hit[2]

    def target(self, e: Expression, order: int, ok):
        table, target_ok = self.evaluate(e, order)
        if table is None:
            raise EvaluationError("undefined at every point", to_source(e))
        ok &= target_ok
        return table


def variables_of(e: Expression) -> set[str]:
    """Set of variable names referenced by the expression."""
    if isinstance(e, Variable):
        return {e.name}
    if isinstance(e, Constant):
        return set()
    if isinstance(e, Unary):
        return variables_of(e.child)
    if isinstance(e, Binary):
        return variables_of(e.left) | variables_of(e.right)
    if isinstance(e, Call):
        return variables_of(e.arg)
    if isinstance(e, PartialDerivative):
        return variables_of(e.target)
    raise TypeError(f"not an expression node: {e!r}")
