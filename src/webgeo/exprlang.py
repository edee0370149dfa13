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

Each node checks its fields when it is built, by the parser or in Python
(the operators, ``Binary(...)``, ``PartialDerivative(...)``) alike, and a
bad field raises ValueError naming it (TypeError for a child that is not a
node); the tree is at most :data:`MAX_DEPTH` levels deep.  So every walk
below reads a valid tree and handles no other.

Expressions are immutable trees that evaluate over plain floats
(:func:`evaluate`, :func:`evaluate_gradient`) and over
:class:`~webgeo.taylor.TaylorJet` values (:func:`evaluate_jet`), with
identical constant terms: the float path and the jet constant-term path
share the same arithmetic, so
``evaluate(e, p) == partial_derivative(evaluate_jet(e, p, k), 0, 0)``
holds exactly.

Values and gradients at a point run straight-line Python code that
:class:`_Compiler` makes from the tree on first use and caches on the node,
so a formula traced or scanned at thousands of points is turned into code
once.  The level-curve tracer and the probes of the linear-web generator
call those compiled functions directly, with the point's floats.  Jets,
at one point or at a :class:`Block` of points, and values at a block come
from one tree walker, :class:`_Walker`, on the coefficient tables of
:mod:`webgeo.taylor`; :func:`evaluate_jet` hands the table it builds to
the jet it returns.  The walker also gives the value at one point with
every check of :func:`evaluate`, without compiling: the tracer takes each
leaf's level from it, so a traced formula compiles only its gradient.
Every computation at a block, here and in the sweeps, runs through
:meth:`Block.run`, and fails points through :func:`webgeo.taylor.fail`.
The residual kernels read formulas through one accessor,
:func:`table_at`, at a point or at a block alike.
"""

from __future__ import annotations

import math
import re
import sys
import weakref
from dataclasses import dataclass

from .taylor import (
    MAX_ORDER,
    JetDomainError,
    JetError,
    TaylorJet,
    check_table,
    constant_table,
    fail,
    np,
    partial_derivative,
    per_lane_or_nan,
    table_arith,
    table_derivative,
    table_elementary,
    table_partial,
    variable_table,
    _CONTEXT,
    _check_order,
    _integer_power,
    _jet,
    _non_finite,
    _power_or_inf,
)

FUNCTION_NAMES = ("sqrt", "exp", "ln", "sin", "cos", "tan")
_BINARY_OPS = ("+", "-", "*", "/", "^")


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


#: Node attributes that cache compiled point functions (see _compile).
_CODE_CACHES = ("_value_code", "_gradient_code")


def _operator(op: str, reflected: bool = False):
    """The `_Node` method of the operator `op`: ``Binary(op, self, other)``,
    with the operands swapped when `reflected`; a number is a Constant."""

    def method(self, other):
        if isinstance(other, (int, float)):
            other = Constant(other)
        elif not isinstance(other, _Node):
            return NotImplemented
        return Binary(op, other, self) if reflected else Binary(op, self, other)

    return method


class _Node:
    """Mixin giving AST nodes arithmetic operators for programmatic builds.
    The node classes define a valid tree: each checks its fields when built."""

    __slots__ = ()

    __add__, __radd__ = _operator("+"), _operator("+", True)
    __sub__, __rsub__ = _operator("-"), _operator("-", True)
    __mul__, __rmul__ = _operator("*"), _operator("*", True)
    __truediv__, __rtruediv__ = _operator("/"), _operator("/", True)
    __pow__ = _operator("^")

    def __neg__(self):
        return Unary("neg", self)

    def __str__(self):
        return to_source(self)

    _value_code = None
    _gradient_code = None
    # A leaf; each inner node writes its own to __dict__ when it is built, as
    # the constructors write every field they set (the classes are frozen).
    _depth = 1

    def __getstate__(self):
        """State for copy and pickle: the fields, without compiled code."""
        return {k: v for k, v in self.__dict__.items() if k not in _CODE_CACHES}


#: Deepest expression tree, counting nodes from the root to a leaf; each
#: node checks it when it is built.  The walkers recurse once per level, so
#: a long flat chain ``x+x+...+x`` is a ValueError (a ParseError when parsed)
#: rather than a RecursionError in every later walk.
MAX_DEPTH = 200
_TOO_DEEP = f"expression tree deeper than {MAX_DEPTH} levels"
_ONE_OF_FUNCTIONS = "one of " + " ".join(FUNCTION_NAMES)


_FLOAT_MAX = sys.float_info.max

# Each node class is a frozen dataclass (its fields give eq, hash and repr)
# with its own __init__, which checks the arguments and then writes the
# fields, and an inner node's depth after them.  A leaf sets its one field
# through object.__setattr__, which keeps the instance without a __dict__
# object until one is asked for (64 bytes less per leaf); an inner node
# writes its fields and depth into __dict__, faster than a call for each.
_set_field = object.__setattr__


def _invalid(node, field: str, got, requirement: str):
    """Raise the ValueError that names `node`'s `field`, given `got`."""
    raise ValueError(f"{type(node).__name__}.{field} must be {requirement}, got {got!r}")


def _depth_under(node, field: str, child) -> int:
    """The depth of `child`, for `node`'s `field`, which must be a node
    less than MAX_DEPTH deep."""
    if not isinstance(child, _Node):
        got = type(child).__name__
        raise TypeError(f"{type(node).__name__}.{field} must be a node, got {got}")
    depth = child._depth
    if depth >= MAX_DEPTH:
        raise ValueError(f"{_TOO_DEEP} at {type(node).__name__}.{field}")
    return depth


@dataclass(frozen=True, init=False)
class Constant(_Node):
    value: float  # finite; stored as a float

    def __init__(self, value):
        real = isinstance(value, (int, float)) and not isinstance(value, bool)
        if not (real and abs(value) <= _FLOAT_MAX):
            _invalid(self, "value", value, "a finite real number")
        _set_field(self, "value", float(value))


@dataclass(frozen=True, init=False)
class Variable(_Node):
    name: str

    def __init__(self, name):
        if name not in ("x", "y"):
            _invalid(self, "name", name, "'x' or 'y'")
        _set_field(self, "name", name)


@dataclass(frozen=True, init=False)
class Unary(_Node):
    op: str
    child: "Expression"

    def __init__(self, op, child):
        if op != "neg":
            _invalid(self, "op", op, "'neg'")
        depth = _depth_under(self, "child", child)
        fields = self.__dict__
        fields["op"], fields["child"], fields["_depth"] = op, child, 1 + depth


@dataclass(frozen=True, init=False)
class Binary(_Node):
    op: str
    left: "Expression"
    right: "Expression"

    def __init__(self, op, left, right):
        if op not in _BINARY_OPS:
            _invalid(self, "op", op, "one of + - * / ^")
        depth = _depth_under(self, "left", left)
        right_depth = _depth_under(self, "right", right)
        if op == "^" and not isinstance(right, Constant):
            _invalid(self, "right", right, "a Constant exponent")
        if right_depth > depth:
            depth = right_depth
        fields = self.__dict__
        fields["op"], fields["left"], fields["right"] = op, left, right
        fields["_depth"] = 1 + depth


@dataclass(frozen=True, init=False)
class Call(_Node):
    func: str
    arg: "Expression"

    def __init__(self, func, arg):
        if func not in FUNCTION_NAMES:
            _invalid(self, "func", func, _ONE_OF_FUNCTIONS)
        depth = _depth_under(self, "arg", arg)
        fields = self.__dict__
        fields["func"], fields["arg"], fields["_depth"] = func, arg, 1 + depth


@dataclass(frozen=True, init=False)
class PartialDerivative(_Node):
    """Numeric partial derivative of a wrapped expression.

    Not produced by the parser and not printable back into the grammar; it
    exists so derived geometric fields (Christoffel components of generated
    connections) remain ordinary evaluable expressions.  Evaluation extracts
    the derivative from a jet of the target, so the total derivative order
    (at most MAX_ORDER) plus any requested jet order must stay within the
    jet engine's capacity.
    """

    target: "Expression"
    dx: int
    dy: int

    def __init__(self, target, dx, dy):
        for field, index in (("dx", dx), ("dy", dy)):
            if not (type(index) is int and index >= 0):
                _invalid(self, field, index, "an int >= 0")
        if dx + dy > MAX_ORDER:
            _invalid(self, "dy", dy, f"at most MAX_ORDER - dx = {MAX_ORDER - dx}")
        depth = _depth_under(self, "target", target)
        fields = self.__dict__
        fields["target"], fields["dx"], fields["dy"] = target, dx, dy
        fields["_depth"] = 1 + depth


Expression = Constant | Variable | Unary | Binary | Call | PartialDerivative

X = Variable("x")
Y = Variable("y")

_NUMBER_RE = re.compile(r"[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


def _tokenize(text: str):
    tokens = []
    i = 0
    length = len(text)
    while i < length:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if "0" <= ch <= "9":
            m = _NUMBER_RE.match(text, i)
            value = float(m.group())
            if not math.isfinite(value):
                raise ParseError(i, f"number {m.group()!r} is out of range")
            tokens.append(("num", value, i))
            i = m.end()
            continue
        if ch.isascii() and (ch.isalpha() or ch == "_"):
            m = _IDENT_RE.match(text, i)
            tokens.append(("ident", m.group(), i))
            i = m.end()
            continue
        if ch in _BINARY_OPS:
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


class _Parser:
    """Recursive descent; each rule returns the node it builds."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def nest(self, tok):
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(tok[2], f"nesting deeper than {MAX_NESTING} levels")

    @staticmethod
    def build(tok, kind, *fields):
        """The node ``kind(*fields)`` read at token `tok`; the one way it
        can be invalid, a tree past MAX_DEPTH, is a ParseError there."""
        try:
            return kind(*fields)
        except ValueError:
            raise ParseError(tok[2], _TOO_DEEP) from None

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
        node = self.term()
        while self.peek()[0] == "op" and self.peek()[1] in "+-":
            tok = self.advance()
            node = self.build(tok, Binary, tok[1], node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.peek()[0] == "op" and self.peek()[1] in "*/":
            tok = self.advance()
            node = self.build(tok, Binary, tok[1], node, self.factor())
        return node

    def factor(self):
        tok = self.peek()
        if tok[0] == "op" and tok[1] == "-":
            self.advance()
            self.nest(tok)
            child = self.factor()
            self.depth -= 1
            return self.build(tok, Unary, "neg", child)
        return self.power()

    def power(self):
        node = self.atom()
        if self.peek()[0] == "op" and self.peek()[1] == "^":
            self.advance()
            tok = self.peek()
            if tok[0] != "num":
                raise ParseError(tok[2], "exponent must be a numeric constant")
            self.advance()
            return self.build(tok, Binary, "^", node, Constant(tok[1]))
        return node

    def atom(self):
        tok = self.peek()
        kind, value, pos = tok
        if kind == "num":
            self.advance()
            return Constant(value)
        if kind == "ident":
            self.advance()
            if value in ("x", "y"):
                return Variable(value)
            if value in FUNCTION_NAMES:
                self.nest(self.expect("(", f"'(' after function name '{value}'"))
                inner = self.expr()
                self.expect(")", "closing ')'")
                self.depth -= 1
                return self.build(tok, Call, value, inner)
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
    node = parser.expr()
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
    identical tree (the parser never creates negative constants).  The
    printer parenthesizes every operator node, unless that text would nest
    deeper than the MAX_NESTING levels the parser reads: then it writes
    only the parentheses the grammar needs, which nest no deeper than the
    text the tree was parsed from.  :class:`PartialDerivative` nodes use a
    `D[i,j](...)` notation that is intentionally outside the grammar.
    """
    text = _full_source(e)
    # Each level of nesting opens at a parenthesis or a minus sign.
    if text.count("(") + text.count("-") > MAX_NESTING and _full_nesting(e) > MAX_NESTING:
        return _least_source(e, _EXPR)
    return text


def _full_source(e) -> str:
    """The fully parenthesized text of `e`."""
    if isinstance(e, Constant):
        return _format_number(e.value)
    if isinstance(e, Variable):
        return e.name
    if isinstance(e, Unary):
        return f"(-{_full_source(e.child)})"
    if isinstance(e, Binary):
        if e.op == "^":
            return f"({_full_source(e.left)})^{_format_number(e.right.value)}"
        return f"({_full_source(e.left)} {e.op} {_full_source(e.right)})"
    if isinstance(e, Call):
        return f"{e.func}({_full_source(e.arg)})"
    return f"D[{e.dx},{e.dy}]({_full_source(e.target)})"


def _full_nesting(e) -> int:
    """The nesting the parser meets in ``_full_source(e)``: a level for
    each parenthesis and call, and two for a unary minus."""
    if isinstance(e, Unary):
        return 2 + _full_nesting(e.child)
    if isinstance(e, Binary):
        right = 0 if e.op == "^" else _full_nesting(e.right)
        return 1 + max(_full_nesting(e.left), right)
    if isinstance(e, Call):
        return 1 + _full_nesting(e.arg)
    if isinstance(e, PartialDerivative):
        return 1 + _full_nesting(e.target)
    return 0


# The grammar rules a node's text can stand for, loosest first: expr, term,
# factor (a unary minus or a power) and atom.
_EXPR, _TERM, _FACTOR, _ATOM = range(4)

#: The rule of a binary node's text, and the rules of its left and right
#: operands (operators associate to the left).
_BINARY_RULES = {
    "+": (_EXPR, _EXPR, _TERM),
    "-": (_EXPR, _EXPR, _TERM),
    "*": (_TERM, _TERM, _FACTOR),
    "/": (_TERM, _TERM, _FACTOR),
}


def _least_source(e, rule: int) -> str:
    """Text of `e` that the parser reads as `rule`, with only the
    parentheses the grammar needs."""
    if isinstance(e, Unary):
        own, text = _FACTOR, f"-{_least_source(e.child, _FACTOR)}"
    elif isinstance(e, Binary) and e.op == "^":
        own, text = _FACTOR, f"{_least_source(e.left, _ATOM)}^{_format_number(e.right.value)}"
    elif isinstance(e, Binary):
        own, left, right = _BINARY_RULES[e.op]
        text = f"{_least_source(e.left, left)} {e.op} {_least_source(e.right, right)}"
    elif isinstance(e, Call):
        own, text = _ATOM, f"{e.func}({_least_source(e.arg, _EXPR)})"
    elif isinstance(e, PartialDerivative):
        own, text = _ATOM, f"D[{e.dx},{e.dy}]({_least_source(e.target, _EXPR)})"
    else:
        return _full_source(e)  # a constant or a variable
    return text if own >= rule else f"({text})"


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

    Runs the compiled value function of `e` (see :class:`_Compiler`), made
    on first use.  The checks run in post-order, and the first to fail
    raises :class:`EvaluationError` naming its subexpression: "division by
    zero", "sqrt of negative value", "ln of non-positive value", a power
    outside its domain, an error of `math` with its own message, or
    "non-finite result" of an operator or function.
    """
    return _value_function(e)(float(point[0]), float(point[1]))


def evaluate_gradient(e: Expression, point) -> tuple[float, float, float]:
    """(value, df/dx, df/dy) at a point, by scalar forward propagation.

    Equivalent to an order-1 jet but allocation free.  Runs the compiled
    gradient function of `e`, made on first use; the level-curve tracer
    calls that function directly.  The checks run in post-order, and the
    first to fail raises :class:`EvaluationError` naming its subexpression:
    "division by zero", "sqrt of non-positive value", "ln of non-positive
    value", "exp overflow", an error of `math` with its own message; at a
    power, first every check :func:`evaluate` makes on the power's subtree
    (so "non-finite result" of an intermediate value), then "gradient of
    power undefined at zero base"; and last "non-finite gradient" of the
    whole formula.  Values and derivatives outside powers are not checked
    for finiteness.
    """
    return _gradient_function(e)(float(point[0]), float(point[1]))


def _value_function(e):
    """The compiled value function of `e`, a function of the floats (x, y)
    that :func:`evaluate` calls."""
    return e._value_code or _compile(e, False)


def _gradient_function(e):
    """The compiled gradient function of `e`, a function of the floats
    (x, y) that :func:`evaluate_gradient` calls."""
    return e._gradient_code or _compile(e, True)


def _compile(e, gradient: bool):
    """The value or gradient function of `e`, compiled and cached on the
    node, so that it lives exactly as long as the expression."""
    function = _Compiler(gradient).function(e)
    object.__setattr__(e, "_gradient_code" if gradient else "_value_code", function)
    return function


def _source_of(ref) -> str:
    """Formula text of a node held by weak reference (for error messages)."""
    return to_source(ref())


def _partial_value(ref, x: float, y: float):
    return _Walker(x, y).partial(ref(), None)


def _partial_gradient(ref, x: float, y: float):
    """(value, d/dx, d/dy) of a derivative node, from a jet of its target."""
    node = ref()
    needed = node.dx + node.dy + 1
    if needed > MAX_ORDER:
        raise EvaluationError(
            f"gradient of a derivative of order {node.dx + node.dy} needs "
            f"order {needed}, beyond the engine maximum {MAX_ORDER}",
            to_source(node),
        )
    base = evaluate_jet(node.target, (x, y), needed)
    for _ in range(node.dx):
        base = base.derivative("x")
    for _ in range(node.dy):
        base = base.derivative("y")
    return base.value, partial_derivative(base, 1, 0), partial_derivative(base, 0, 1)


#: The names a compiled function's source uses besides the coordinates
#: `x`, `y` and the names the compiler makes.
_HELPERS = {
    "_E": EvaluationError,
    "_src": _source_of,
    "_finite": math.isfinite,
    "_ipow": _integer_power,
    "_fpow": _power_or_inf,
    "_pdv": _partial_value,
    "_pdg": _partial_gradient,
    **{"_" + name: fn for name, fn in _MATH_FUNCTIONS.items()},
}
#: The source text of each function and operator: the compiler looks the
#: tree's names up here and writes its own strings, never the tree's.
_CALLS = {name: "_" + name for name in _MATH_FUNCTIONS}
_ARITHMETIC = {"+": "+", "-": "-", "*": "*", "/": "/"}
#: Integer exponents below this in magnitude are compiled to inline
#: multiplications (at most 10 of them); the rest call _integer_power.
_INLINE_POWER_LIMIT = 64


class _Compiler:
    """Straight-line Python code for an expression at one point: forward
    mode by source transformation (Griewank & Walther, *Evaluating
    Derivatives*, 2nd ed., ch. 6).

    ``function(e)`` compiles the function of (x, y) that returns the value
    of `e` (value mode) or its (value, d/dx, d/dy) (gradient mode).  The
    code makes the float operations and the checks of a tree walk in the
    walk's order; a node object met twice is computed once.  `value` and
    `gradient` emit a node's code and return the Python expressions (local
    names or float literals) that hold its results.

    No formula text enters the source.  Constants, functions, and weak
    references to the nodes that errors name go in through the function's
    namespace; a strong reference would keep the expression alive through
    the function cached on it.  Formula text is made only when an error is
    raised.
    """

    def __init__(self, gradient: bool):
        self.gradient_mode = gradient
        self.lines = []
        self.namespace = dict(_HELPERS)
        self.count = 0
        self.refs = {}
        self.values = {}
        self.gradients = {}
        self.reusable = {}

    def function(self, e):
        if self.gradient_mode:
            v, gx, gy = self.gradient(e)
            self.check(f"not (_finite({gx}) and _finite({gy}))", e, "'non-finite gradient'")
            self.lines.append(f"return {v}, {gx}, {gy}")
        else:
            self.lines.append(f"return {self.value(e)}")
        source = "def point(x, y):\n" + "".join(f"    {line}\n" for line in self.lines)
        exec(compile(source, "<exprlang point function>", "exec"), self.namespace)
        return self.namespace.pop("point")

    # ------------------------------------------------------------ emission

    def local(self) -> str:
        self.count += 1
        return f"v{self.count}"

    def bind(self, obj) -> str:
        """A new namespace name for `obj`."""
        self.count += 1
        name = f"k{self.count}"
        self.namespace[name] = obj
        return name

    def ref(self, node) -> str:
        """The namespace name of a weak reference to `node`."""
        name = self.refs.get(id(node))
        if name is None:
            name = self.refs[id(node)] = self.bind(weakref.ref(node))
        return name

    def check(self, test: str, node, message: str):
        """Raise EvaluationError(message) naming `node` where `test` holds."""
        self.lines.append(f"if {test}: raise _E({message}, _src({self.ref(node)}))")

    def call(self, node, assignments: str, message: str = "str(exc)"):
        """`assignments` (calls of `math`), their errors as EvaluationError."""
        self.lines.append(f"try: {assignments}")
        self.lines.append(
            "except (ValueError, OverflowError) as exc: "
            f"raise _E({message}, _src({self.ref(node)})) from None"
        )

    def finite(self, v: str, node):
        self.check(f"not _finite({v})", node, "'non-finite result'")

    # --------------------------------------------------------------- value

    def value(self, node) -> str:
        """The value of `node` as :func:`evaluate` computes it.

        In gradient mode, a node whose gradient code already ran (inside a
        power's base) has its value computed; of the walk's checks, only the
        finiteness of its operators and functions is still to be made.
        """
        key = id(node)
        v = self.values.get(key)
        if v is None:
            gradient = self.gradients.get(key)
            if gradient is not None and self.reuses(node):
                for child in _operands(node):
                    self.value(child)
                v = gradient[0]
                if isinstance(node, (Binary, Call)):
                    self.finite(v, node)
            else:
                v = self.walk_value(node)
            self.values[key] = v
        return v

    def reuses(self, node) -> bool:
        """Whether the gradient code computes the value of every node under
        `node` as the value walk does, with the walk's checks implied: no
        derivative node (the two take jets of different orders)."""
        key = id(node)
        result = self.reusable.get(key)
        if result is None:
            if isinstance(node, PartialDerivative):
                result = False
            else:
                result = all(self.reuses(child) for child in _operands(node))
            self.reusable[key] = result
        return result

    def walk_value(self, node) -> str:
        if isinstance(node, Constant):
            return self.bind(node.value)
        if isinstance(node, Variable):
            return "x" if node.name == "x" else "y"
        if isinstance(node, Unary):
            child = self.value(node.child)
            v = self.local()
            self.lines.append(f"{v} = -{child}")
            return v
        if isinstance(node, Binary):
            left = self.value(node.left)
            if node.op == "^":
                return self.power(node, left)
            right = self.value(node.right)
            op = _ARITHMETIC[node.op]
            if op == "/":
                self.check(f"{right} == 0.0", node, "'division by zero'")
            v = self.local()
            self.lines.append(f"{v} = {left} {op} {right}")
            self.finite(v, node)
            return v
        if isinstance(node, Call):
            u = self.value(node.arg)
            if node.func == "sqrt":
                self.check(f"{u} < 0.0", node, f"'sqrt of negative value ' + repr({u})")
            if node.func == "ln":
                self.check(f"{u} <= 0.0", node, f"'ln of non-positive value ' + repr({u})")
            v = self.local()
            self.call(node, f"{v} = {_CALLS[node.func]}({u})")
            self.finite(v, node)
            return v
        # a derivative node
        if node.dx + node.dy == 0:
            return self.value(node.target)
        v = self.local()
        self.lines.append(f"{v} = _pdv({self.ref(node)}, x, y)")
        return v

    def power(self, node, left: str) -> str:
        """The value walk's power node, its base valued `left`.

        An integer exponent n with 0 < |n| < _INLINE_POWER_LIMIT is written
        out as the multiplications :func:`~webgeo.taylor._integer_power`
        makes, in its order: the bits of |n| most significant first, a
        square for each, then a product with the base for a one bit; for
        n < 0 the base is 1.0 / `left`.  n = 0 and larger exponents call
        it.  Never ``**``, whose bits differ (``1.1**63``).
        """
        p = node.right.value
        v = self.local()
        if p.is_integer():
            n = int(p)
            if n < 0:
                self.check(f"{left} == 0.0", node, "'zero raised to a negative power'")
            if 0 < abs(n) < _INLINE_POWER_LIMIT:
                base = left
                if n < 0:
                    base = self.local()
                    self.lines.append(f"{base} = 1.0 / {left}")
                steps = [f"{v} = {base}"]
                for bit in bin(abs(n))[3:]:
                    steps.append(f"{v} = {v} * {v}")
                    if bit == "1":
                        steps.append(f"{v} = {v} * {base}")
                self.lines.append("; ".join(steps))
            else:
                self.lines.append(f"{v} = _ipow({left}, {self.bind(n)}, 1.0)")
        else:
            self.check(
                f"{left} < 0.0", node, f"'fractional power of negative base ' + repr({left})"
            )
            if p < 0.0:
                self.check(f"{left} == 0.0", node, "'zero raised to a negative power'")
            self.lines.append(f"{v} = _fpow({left}, {self.bind(p)})")
        self.finite(v, node)
        return v

    # ------------------------------------------------------------ gradient

    def gradient(self, node) -> tuple[str, str, str]:
        """(value, d/dx, d/dy) of `node` as forward propagation gives them."""
        key = id(node)
        names = self.gradients.get(key)
        if names is None:
            names = self.gradients[key] = self.propagate(node)
        return names

    def propagate(self, node) -> tuple[str, str, str]:
        if isinstance(node, Constant):
            return self.bind(node.value), "0.0", "0.0"
        if isinstance(node, Variable):
            return ("x", "1.0", "0.0") if node.name == "x" else ("y", "0.0", "1.0")
        v, gx, gy = self.local(), self.local(), self.local()
        emit = self.lines.append
        if isinstance(node, Unary):
            c, cx, cy = self.gradient(node.child)
            emit(f"{v} = -{c}; {gx} = -{cx}; {gy} = -{cy}")
        elif isinstance(node, Binary):
            a, ax, ay = self.gradient(node.left)
            if node.op == "^":
                # The value is the value walk's, which makes its checks on
                # the whole base again.
                v = self.values[id(node)] = self.power(node, self.value(node.left))
                p, s = node.right.value, self.local()
                if p.is_integer() and p >= 0.0:
                    # d(a^p) = p a^(p-1) da is defined at a = 0 only here
                    at_zero = "1.0" if p == 1.0 else "0.0"
                    emit(f"{s} = {at_zero} if {a} == 0.0 else {self.bind(p)} * {v} / {a}")
                else:
                    self.check(f"{a} == 0.0", node, "'gradient of power undefined at zero base'")
                    emit(f"{s} = {self.bind(p)} * {v} / {a}")
                emit(f"{gx} = {s} * {ax}; {gy} = {s} * {ay}")
                return v, gx, gy
            b, bx, by = self.gradient(node.right)
            op = _ARITHMETIC[node.op]
            if op in ("+", "-"):
                emit(f"{v} = {a} {op} {b}; {gx} = {ax} {op} {bx}; {gy} = {ay} {op} {by}")
            elif op == "*":
                emit(f"{v} = {a} * {b}")
                emit(f"{gx} = {ax} * {b} + {a} * {bx}; {gy} = {ay} * {b} + {a} * {by}")
            else:
                self.check(f"{b} == 0.0", node, "'division by zero'")
                emit(f"{v} = {a} / {b}")
                emit(f"{gx} = ({ax} - {v} * {bx}) / {b}; {gy} = ({ay} - {v} * {by}) / {b}")
        elif isinstance(node, Call):
            u, ux, uy = self.gradient(node.arg)
            s = self.local()
            if node.func == "sqrt":
                self.check(f"{u} <= 0.0", node, f"'sqrt of non-positive value ' + repr({u})")
                self.call(node, f"{v} = _sqrt({u}); {s} = 0.5 / {v}")
            elif node.func == "exp":
                self.call(node, f"{v} = _exp({u}); {s} = {v}", "'exp overflow'")
            elif node.func == "ln":
                self.check(f"{u} <= 0.0", node, f"'ln of non-positive value ' + repr({u})")
                self.call(node, f"{v} = _ln({u}); {s} = 1.0 / {u}")
            elif node.func == "sin":
                self.call(node, f"{v} = _sin({u}); {s} = _cos({u})")
            elif node.func == "cos":
                self.call(node, f"{v} = _cos({u}); {s} = -_sin({u})")
            else:
                self.call(node, f"{v} = _tan({u}); {s} = 1.0 + {v} * {v}")
            emit(f"{gx} = {s} * {ux}; {gy} = {s} * {uy}")
        else:  # a derivative node
            emit(f"{v}, {gx}, {gy} = _pdg({self.ref(node)}, x, y)")
        return v, gx, gy


def _operands(node) -> tuple:
    """The children whose values the value walk computes."""
    if isinstance(node, Unary):
        return (node.child,)
    if isinstance(node, Binary):
        return (node.left,) if node.op == "^" else (node.left, node.right)
    if isinstance(node, Call):
        return (node.arg,)
    return ()


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


class _Walker:
    """The tree walk: jets at one point or at a block of points, and values
    at a block or at one point.

    The coordinates `x`, `y` are floats (one point) or lane vectors (a
    block).  `jet` gives the coefficient table of the jet of a given order
    (see :mod:`webgeo.taylor`), `value` the IEEE double value at a block,
    or at one point the value or the error text :func:`evaluate` gives,
    after the same checks in the same order.  The level-curve tracer reads
    that value at each seed, so a traced formula compiles no value
    function; other values and gradients at one point run compiled code
    (see :class:`_Compiler`).
    A walk at one point loads no numpy.  Checks go through
    :func:`~webgeo.taylor.fail`: at one point (`ok` None) a domain
    violation raises :class:`EvaluationError` naming the subexpression; in
    a block it clears the lanes where it holds in the boolean mask `ok` and
    the walk goes on.  `bindings`, when given, maps variable names to the
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
    def fail(bad, ok, node, message, value=None):
        """:func:`~webgeo.taylor.fail` with an error naming `node`, its
        message followed by ``repr(value)`` when a value is given, as
        :class:`_Compiler` words it (the error is made at one point only)."""

        def error():
            text = message if value is None else f"{message} {value!r}"
            return EvaluationError(text, to_source(node))

        fail(bad, ok, error)

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
                    if not isinstance(left, float):
                        left = np.where(ok, left, 1.0)
                    value = _power_or_inf(left, p)
            else:
                right = self.value(node.right, ok)
                if node.op == "+":
                    value = left + right
                elif node.op == "-":
                    value = left - right
                elif node.op == "*":
                    value = left * right
                else:
                    self.fail(right == 0.0, ok, node, "division by zero")
                    value = left / right
            self.fail(_non_finite(value), ok, node, "non-finite result")
            return value
        if isinstance(node, Call):
            u = self.value(node.arg, ok)
            if node.func == "sqrt":
                self.fail(u < 0.0, ok, node, "sqrt of negative value", u)
            if node.func == "ln":
                self.fail(u <= 0.0, ok, node, "ln of non-positive value", u)
            if isinstance(u, float):
                try:
                    value = _MATH_FUNCTIONS[node.func](u)
                except (ValueError, OverflowError) as exc:  # math's text, as evaluate's
                    raise EvaluationError(str(exc), to_source(node)) from None
            elif node.func == "sqrt":  # correctly rounded, as math.sqrt is
                value = np.sqrt(np.where(ok, u, 1.0))
            else:
                value = per_lane_or_nan(_MATH_FUNCTIONS[node.func], np.where(ok, u, 1.0))
            self.fail(_non_finite(value), ok, node, "non-finite result")
            return value
        # a derivative node
        if node.dx + node.dy == 0:
            return self.value(node.target, ok)
        return self.partial(node, ok)

    def partial(self, node: PartialDerivative, ok):
        """Value of a derivative node of positive order, from a jet of its
        target."""
        table = self.target(node.target, node.dx + node.dy, ok)
        return table_partial(table, node.dx, node.dy)

    def jet(self, node, order: int, ok):
        try:
            # Seeds need no check: constants, coordinates and bound jets are finite.
            if isinstance(node, Constant):
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
                if node.op == "^":  # checked by table_elementary
                    return table_elementary("pow_const", left, order, ok, node.right.value)
                right = self.jet(node.right, order, ok)
                table, context = table_arith(node.op, left, right, order, ok), _CONTEXT[node.op]
            elif isinstance(node, Call):
                return table_elementary(node.func, self.jet(node.arg, order, ok), order, ok)
            else:  # a derivative node
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
            check_table(table, ok, context)
            return table
        except (JetDomainError, JetError) as exc:
            raise EvaluationError(str(exc), to_source(node)) from None


class Block(_Walker):
    """A block of points at which expressions are evaluated together.

    ``run(kernel)`` runs a computation that takes the lane mask, for
    ``evaluate`` and for every sweep.

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

    def run(self, kernel):
        """(result, ok): ``kernel(ok)`` on a fresh mask `ok` with every lane
        valid, with numpy's floating-point warnings off.  An
        :class:`EvaluationError` or :class:`~webgeo.taylor.JetDomainError`
        clears every lane; `result` is None when no lane is valid.  Any
        other exception passes through."""
        ok = np.ones(len(self.x), dtype=bool)
        result = None
        with np.errstate(all="ignore"):
            try:
                result = kernel(ok)
            except (EvaluationError, JetDomainError):
                ok[:] = False
        return (result if ok.any() else None), ok

    def evaluate(self, e: Expression, order: int):
        key = (id(e), order)
        hit = self._cache.get(key)
        if hit is None:
            if order == 0:
                result, ok = self.run(lambda ok: self.value(e, ok))
            else:
                _check_order(order)
                result, ok = self.run(lambda ok: self.jet(e, order, ok))
            hit = self._cache[key] = (e, result, ok)
        return hit[1], hit[2]

    def target(self, e: Expression, order: int, ok):
        table, target_ok = self.evaluate(e, order)
        if table is None:
            raise EvaluationError("undefined at every point", to_source(e))
        ok &= target_ok
        return table

    def __iter__(self):
        """The coordinates x, y as lane vectors, as a point unpacks to its
        two coordinates."""
        return iter((self.x, self.y))


def table_at(e: Expression, at, order: int, ok):
    """The value (order 0) or jet table (orders 1..4) of `e` at `at`: at a
    point (`ok` None) by :func:`evaluate` or :func:`evaluate_jet`, at a
    :class:`Block` by :meth:`Block.target`, which clears lanes of `ok`."""
    if ok is not None:
        return at.target(e, order, ok)
    if order == 0:
        return evaluate(e, at)
    return evaluate_jet(e, at, order).table


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
    return variables_of(e.target)
