"""Parser grammar, evaluation, jet evaluation, printer round-trips, and the
compiled point functions against the tree walks they replaced."""

from __future__ import annotations

import copy
import gc
import math
import pickle
import string
import struct
import weakref

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from webgeo import (
    Binary,
    Call,
    Constant,
    EvaluationError,
    ParseError,
    PartialDerivative,
    Unary,
    Variable,
    evaluate,
    evaluate_gradient,
    evaluate_jet,
    evaluate_jet_with,
    jet_variable,
    parse,
    partial_derivative,
    to_source,
)
from webgeo.cli import run
from webgeo.exprlang import FUNCTION_NAMES, MAX_DEPTH, MAX_NESTING, X, Y, _Compiler, _Walker
from webgeo.taylor import MAX_ORDER, _integer_power, _power_or_inf
from conftest import CORPUS, fd_partial, sample_point


def test_grammar_example():
    tree = parse("x + sqrt(x^2 - y)")
    assert tree == Binary(
        "+",
        Variable("x"),
        Call("sqrt", Binary("-", Binary("^", Variable("x"), Constant(2.0)), Variable("y"))),
    )


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse("x +* y")
    assert err.value.position == 3


def test_non_ascii_characters_are_parse_errors(capsys):
    """The grammar's digits and letters are ASCII: a Unicode digit or letter
    is an unexpected character, not a crash and not a number."""
    cases = {"x²": 1, "π*x": 0, "é": 0, "ℯ": 0, "٣*x": 0, "2*𝟙": 2, "x\u00a0+ y": 1}
    for text, offset in cases.items():
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.position == offset, text
        assert err.value.message == f"unexpected character {text[offset]!r}"
    assert run(["flex", "--f", "x²", "--grid", "0:1:0:1:2:2"]) == 2
    assert "--f: parse error at offset 1: unexpected character '²'" in capsys.readouterr().err


def test_pencil_function_parses():
    tree = parse("(y+1)/(1-x)")
    assert tree == Binary(
        "/",
        Binary("+", Variable("y"), Constant(1.0)),
        Binary("-", Constant(1.0), Variable("x")),
    )


def test_precedence():
    assert parse("2*x^2") == Binary(
        "*", Constant(2.0), Binary("^", Variable("x"), Constant(2.0))
    )
    assert parse("-x^2") == Unary("neg", Binary("^", Variable("x"), Constant(2.0)))
    # left associativity of subtraction
    assert evaluate(parse("1 - 2 - 3"), (0, 0)) == -4.0


def test_non_constant_exponent_is_parse_error():
    with pytest.raises(ParseError):
        parse("x^y")
    with pytest.raises(ParseError):
        parse("x^(2)")
    with pytest.raises(ParseError):
        parse("2^x")


def test_unknown_identifiers_and_malformed_calls():
    with pytest.raises(ParseError):
        parse("z + 1")
    with pytest.raises(ParseError):
        parse("X")
    with pytest.raises(ParseError):
        parse("sin x")
    with pytest.raises(ParseError):
        parse("sinh(x)")
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError):
        parse("2e")
    with pytest.raises(ParseError):
        parse("1 + (2")


def test_number_literals():
    assert parse("1.5e-3") == Constant(1.5e-3)
    assert parse("2E+4") == Constant(2e4)
    with pytest.raises(ParseError):
        parse(".5")
    with pytest.raises(ParseError):
        parse("5.")


def test_evaluate_examples():
    assert evaluate(parse("x + sqrt(x^2 - y)"), (2, 3)) == 3.0
    assert evaluate(parse("y/x"), (1, 2)) == 2.0
    with pytest.raises(EvaluationError):
        evaluate(parse("sqrt(x)"), (-1, 0))
    with pytest.raises(EvaluationError):
        evaluate(parse("y/x"), (0, 1))
    with pytest.raises(EvaluationError):
        evaluate(parse("ln(x)"), (0, 1))


def test_evaluate_jet_quotient():
    j = evaluate_jet(parse("y/x"), (1, 2), 1)
    assert j.c(0, 0) == 2.0
    assert j.c(1, 0) == -2.0
    assert j.c(0, 1) == 1.0


def test_evaluate_jet_product():
    j = evaluate_jet(parse("x*y"), (2, 1), 2)
    assert j.c(1, 0) == 1.0
    assert j.c(0, 1) == 2.0
    assert j.c(1, 1) == 1.0
    assert j.c(2, 0) == 0.0 and j.c(0, 2) == 0.0


def test_jet_order_contract():
    with pytest.raises(Exception):
        evaluate_jet(parse("x"), (0, 0), 5)


def test_value_equals_jet_constant_term_exactly(rng):
    for source, box in CORPUS:
        tree = parse(source)
        for _ in range(3):
            p = sample_point(rng, box)
            for order in (1, 2, 3, 4):
                jet = evaluate_jet(tree, p, order)
                assert evaluate(tree, p) == partial_derivative(jet, 0, 0)


def test_jet_partials_match_finite_differences(rng):
    tree = parse("exp(0.3*x - 0.2*y) + x^2*y")

    def fn(x, y):
        return evaluate(tree, (x, y))

    p = (0.4, -0.3)
    jet = evaluate_jet(tree, p, 4)
    for i in range(5):
        for j in range(5 - i):
            if i + j == 0:
                continue
            fd = fd_partial(fn, p[0], p[1], i, j)
            got = partial_derivative(jet, i, j)
            assert abs(got - fd) <= 1e-6 * max(1.0, abs(fd))


def test_round_trip_structural_identity():
    tricky = [
        "-x^2",
        "x - -y",
        "2*(x + y)^3 - sin(x*y)/ln(2 + x)",
        "--x",
        "1.5e-3*x^0.5",
        "tan(cos(sin(x)))",
    ]
    for source in [s for s, _ in CORPUS] + tricky:
        tree = parse(source)
        assert parse(to_source(tree)) == tree


_SOURCE_LEAVES = st.one_of(
    st.sampled_from([X, Y]),
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False).map(
        lambda v: Constant(abs(v))
    ),
)
_EXPONENTS = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False).map(abs)


def _source_node(children):
    """One parser-shaped node over `children`."""
    return st.one_of(
        children.map(lambda c: Unary("neg", c)),
        st.tuples(st.sampled_from("+-*/"), children, children).map(lambda t: Binary(*t)),
        st.tuples(children, _EXPONENTS).map(lambda t: Binary("^", t[0], Constant(t[1]))),
        st.tuples(st.sampled_from(FUNCTION_NAMES), children).map(lambda t: Call(*t)),
    )


_SMALL_SOURCE_TREES = st.recursive(_SOURCE_LEAVES, _source_node, max_leaves=6)


def _tree_depth(e) -> int:
    """Nodes from the root to the deepest leaf, as the parser counts."""
    children = [getattr(e, name) for name in ("child", "left", "right", "arg") if hasattr(e, name)]
    return 1 + max(map(_tree_depth, children), default=0)


def _printed_nesting(e) -> int:
    """The nesting the parser meets in the fully parenthesized text of e:
    one level for each parenthesis and function call, and one for each
    unary minus."""
    if isinstance(e, Unary):
        return 2 + _printed_nesting(e.child)
    if isinstance(e, Call):
        return 1 + _printed_nesting(e.arg)
    if isinstance(e, Binary):
        return 1 + max(_printed_nesting(e.left), _printed_nesting(e.right))
    return 0


def _fully_parenthesized(e) -> str:
    """The text to_source printed for every tree before it learned to drop
    parentheses, which reports echo."""
    if isinstance(e, Unary):
        return f"(-{_fully_parenthesized(e.child)})"
    if isinstance(e, Call):
        return f"{e.func}({_fully_parenthesized(e.arg)})"
    if isinstance(e, Binary) and e.op == "^":
        return f"({_fully_parenthesized(e.left)})^{e.right.value!r}"
    if isinstance(e, Binary):
        return f"({_fully_parenthesized(e.left)} {e.op} {_fully_parenthesized(e.right)})"
    return repr(e.value) if isinstance(e, Constant) else e.name


# The grammar's rules, loosest first, and the rule each node's own text
# stands for without parentheses.
_EXPR_RULE, _TERM_RULE, _FACTOR_RULE, _ATOM_RULE = range(4)


def _least_nesting(e, rule=_EXPR_RULE) -> int:
    """The least nesting of any text the parser reads as e, where the
    grammar wants `rule`: the parser builds e exactly when this is at most
    MAX_NESTING (and e is at most MAX_DEPTH deep)."""
    if isinstance(e, Unary):
        own, inner = _FACTOR_RULE, 1 + _least_nesting(e.child, _FACTOR_RULE)
    elif isinstance(e, Call):
        own, inner = _ATOM_RULE, 1 + _least_nesting(e.arg)
    elif isinstance(e, Binary) and e.op == "^":
        own, inner = _FACTOR_RULE, _least_nesting(e.left, _ATOM_RULE)
    elif isinstance(e, Binary):
        own = _EXPR_RULE if e.op in "+-" else _TERM_RULE
        inner = max(_least_nesting(e.left, own), _least_nesting(e.right, own + 1))
    else:
        own, inner = _ATOM_RULE, 0
    return inner + (own < rule)


@st.composite
def source_trees(draw):
    """Trees the parser builds, up to MAX_DEPTH levels and MAX_NESTING
    levels of nesting: a small random tree under a spine of wrappings, each
    repeated up to MAX_DEPTH times."""
    tree = draw(_SMALL_SOURCE_TREES)
    depth = _tree_depth(tree)
    spine = st.tuples(
        st.one_of(
            st.just(("neg",)),
            st.tuples(st.just("call"), st.sampled_from(FUNCTION_NAMES)),
            st.tuples(st.just("pow"), _EXPONENTS),
            st.tuples(st.just("binary"), st.sampled_from("+-*/"), _SMALL_SOURCE_TREES, st.booleans()),
        ),
        st.integers(1, MAX_DEPTH),
    )
    for (kind, *args), repeats in draw(st.lists(spine, max_size=4)):
        for _ in range(repeats):
            if kind == "neg":
                wrapped = Unary("neg", tree)
            elif kind == "call":
                wrapped = Call(args[0], tree)
            elif kind == "pow":
                wrapped = Binary("^", tree, Constant(args[0]))
            else:
                op, side, on_left = args
                wrapped = Binary(op, tree, side) if on_left else Binary(op, side, tree)
            if _least_nesting(wrapped) > MAX_NESTING:
                return tree
            tree = wrapped
            if kind == "binary":
                depth = max(depth, _tree_depth(side))
            depth += 1
            if depth == MAX_DEPTH:
                return tree
    return tree


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(source_trees())
def test_round_trip_on_generated_trees(tree):
    assert _tree_depth(tree) <= MAX_DEPTH
    assert _least_nesting(tree) <= MAX_NESTING
    source = to_source(tree)
    assert parse(source) == tree
    if _printed_nesting(tree) <= MAX_NESTING:
        assert source == _fully_parenthesized(tree)


@pytest.mark.parametrize(
    "source",
    ["-" * 51 + "x", "+".join(["x"] * 102), "-" * MAX_NESTING + "x"],
    ids=["51-minus-signs", "102-term-chain", "deepest-minus-chain"],
)
def test_round_trip_past_full_parenthesization(source):
    """Trees whose fully parenthesized text would nest past MAX_NESTING."""
    tree = parse(source)
    assert _printed_nesting(tree) > MAX_NESTING
    assert parse(to_source(tree)) == tree


def test_parser_totality_fuzz(rng):
    alphabet = string.ascii_letters + string.digits + "+-*/^(). eE_\t" + "²٣πéℯ\u00a0𝟙"
    for _ in range(400):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 24)))
        try:
            parse(text)
        except ParseError:
            pass  # the only acceptable failure mode


_NUMBER_TOKENS = st.builds(
    "{}{}{}".format,
    st.integers(0, 10**6),
    st.sampled_from(["", ".5", ".25", ".0125"]),
    st.sampled_from(["", "", "e3", "E-2", "e+1", "e-400", "e400"]),
)
_ANY_TOKEN = st.one_of(
    _NUMBER_TOKENS,
    st.sampled_from(["x", "y", *FUNCTION_NAMES, "foo", *"+-*/^()", " ", "\t"]),
)


def _grammatical(inner):
    return st.one_of(
        st.tuples(inner, st.sampled_from("+-*/"), inner).map(lambda t: [*t[0], t[1], *t[2]]),
        st.tuples(inner, _NUMBER_TOKENS).map(lambda t: [*t[0], "^", t[1]]),
        st.tuples(st.sampled_from(["", *FUNCTION_NAMES]), inner).map(
            lambda t: [t[0], "(", *t[1], ")"]
        ),
        inner.map(lambda t: ["-", *t]),
    )


@st.composite
def token_streams(draw):
    """The tokens of a formula, built by the grammar's rules from numbers
    with and without fractions and exponents, x and y; then, in three
    streams of four, one token deleted, replaced or inserted by any token
    (a function name, an unknown identifier, an operator, a parenthesis or
    whitespace too); joined into one input with or without whitespace."""
    atoms = st.one_of(_NUMBER_TOKENS, st.sampled_from(["x", "y"])).map(lambda t: [t])
    tokens = draw(st.recursive(atoms, _grammatical, max_leaves=8))
    edit = draw(st.sampled_from(["none", "delete", "replace", "insert"]))
    if edit != "none":
        i = draw(st.integers(0, len(tokens) - (edit != "insert")))
        tokens[i : i + (edit != "insert")] = [] if edit == "delete" else [draw(_ANY_TOKEN)]
    return draw(st.sampled_from(["", " ", "\t"])).join(tokens)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(token_streams())
def test_parser_totality_on_token_streams(text):
    """A stream of the grammar's tokens either parses to a tree that
    round-trips through the printer or is a ParseError."""
    try:
        tree = parse(text)
    except ParseError:
        return
    assert parse(to_source(tree)) == tree


def test_deep_parentheses_are_a_parse_error():
    depth = 3000
    with pytest.raises(ParseError) as err:
        parse("(" * depth + "x" + ")" * depth)
    assert err.value.position == MAX_NESTING
    nested = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
    assert parse(nested) == Variable("x")


def test_deep_unary_minus_is_a_parse_error():
    with pytest.raises(ParseError) as err:
        parse("-" * 3000 + "x")
    assert err.value.position == MAX_NESTING
    assert evaluate(parse("-" * MAX_NESTING + "x"), (2.0, 0.0)) == 2.0


_CHAIN = "+".join(["x"] * MAX_DEPTH)


@pytest.mark.parametrize(
    "source, position",
    [
        ("+".join(["x"] * (MAX_DEPTH + 1)), 399),
        ("*".join(["x"] * (MAX_DEPTH + 1)), 399),
        ("-(" + _CHAIN + ")", 0),
        ("(" + _CHAIN + ")^2", 402),
        ("sin(" + _CHAIN + ")", 0),
    ],
    ids=["sum-chain", "product-chain", "minus", "power", "call"],
)
def test_too_deep_trees_are_a_parse_error_at_the_node_token(source, position):
    """A tree one level past MAX_DEPTH fails at the token of the node that
    would make it too deep: the operator, the minus sign, the exponent or
    the function name."""
    with pytest.raises(ParseError) as err:
        parse(source)
    assert err.value.position == position
    assert err.value.message == f"expression tree deeper than {MAX_DEPTH} levels"


def _operator_chain(terms: int):
    tree = X
    for _ in range(terms):
        tree = tree + X
    return tree


def _deepest_chain():
    """A sum of MAX_DEPTH levels, the deepest tree there is."""
    return _operator_chain(MAX_DEPTH - 1)


#: Trees that are not formulas, each built by a function, with the error
#: its construction raises and the field the message names.
MALFORMED = {
    "variable-z": (lambda: Variable("z"), ValueError, "Variable.name"),
    "call-abs": (lambda: Call("abs", X), ValueError, "Call.func"),
    "unary-pos": (lambda: Unary("pos", X), ValueError, "Unary.op"),
    "binary-percent": (lambda: Binary("%", X, Y), ValueError, "Binary.op"),
    "string-constant": (lambda: Constant("2"), ValueError, "Constant.value"),
    "nan-constant": (lambda: Constant(math.nan), ValueError, "Constant.value"),
    "infinite-constant": (lambda: Constant(-math.inf), ValueError, "Constant.value"),
    "bool-constant": (lambda: Constant(True), ValueError, "Constant.value"),
    "huge-int-constant": (lambda: Constant(10**400), ValueError, "Constant.value"),
    "variable-exponent": (lambda: Binary("^", X, Y), ValueError, "Binary.right"),
    "operator-variable-exponent": (lambda: X**Y, ValueError, "Binary.right"),
    "bool-index": (lambda: PartialDerivative(X * X, True, 0), ValueError, "PartialDerivative.dx"),
    "float-index": (lambda: PartialDerivative(X, 0, 1.0), ValueError, "PartialDerivative.dy"),
    "negative-index": (lambda: PartialDerivative(X, -1, 2), ValueError, "PartialDerivative.dx"),
    "order-past-max": (
        lambda: PartialDerivative(X, 2, MAX_ORDER - 1), ValueError, "PartialDerivative.dy"
    ),
    "string-child": (lambda: Unary("neg", "x"), TypeError, "Unary.child"),
    "float-operand": (lambda: Binary("+", X, 1.0), TypeError, "Binary.right"),
    "missing-argument": (lambda: Call("sin", None), TypeError, "Call.arg"),
    "string-target": (
        lambda: PartialDerivative("x*y", 1, 0), TypeError, "PartialDerivative.target"
    ),
    "operator-chain-3000": (lambda: _operator_chain(3000), ValueError, "Binary.left"),
    "deep-right-operand": (lambda: Binary("*", Y, _deepest_chain()), ValueError, "Binary.right"),
    "deep-minus": (lambda: -_deepest_chain(), ValueError, "Unary.child"),
    "deep-call": (lambda: Call("exp", _deepest_chain()), ValueError, "Call.arg"),
    "deep-derivative": (
        lambda: PartialDerivative(_deepest_chain(), 1, 0), ValueError, "PartialDerivative.target"
    ),
}


@pytest.mark.parametrize("build, error, field", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_trees_are_rejected_when_built(build, error, field):
    """Each node checks its fields and the depth of its tree when it is
    built, so no walk, printer or compiled function ever meets a malformed
    tree: the error is raised at construction and names the field."""
    with pytest.raises(error) as err:
        build()
    assert type(err.value) is error
    assert str(err.value).startswith(field) or str(err.value).endswith(f"at {field}")
    if "deep" in str(err.value):
        assert str(err.value) == f"expression tree deeper than {MAX_DEPTH} levels at {field}"


def test_hand_built_trees_are_checked_like_parsed_ones():
    """An int constant is stored as a float, so a hand-built power evaluates
    as its parsed twin; the deepest tree builds and every walk reads it."""
    power = Binary("^", X, Constant(2))
    assert power == parse("x^2") and type(power.right.value) is float
    assert evaluate(power, (3, 1)) == 9.0
    assert evaluate_gradient(power, (3, 1)) == (9.0, 6.0, 0.0)
    deepest = _deepest_chain()
    assert deepest == parse("+".join(["x"] * MAX_DEPTH))
    assert evaluate(deepest, (1, 0)) == MAX_DEPTH
    assert evaluate_jet(deepest, (1, 0), 2).c(1, 0) == MAX_DEPTH
    assert parse(to_source(deepest)) == deepest


def test_operator_overloading_builds_same_trees():
    x = Variable("x")
    y = Variable("y")
    assert x + y == parse("x + y")
    assert x * y - 2.0 == parse("x*y - 2.0")
    assert -(x**2) == parse("-x^2")
    assert 1.0 / (1.0 + x) == parse("1.0/(1.0 + x)")


def test_partial_derivative_node():
    z = parse("x^2*y")
    zx = PartialDerivative(z, 1, 0)
    assert evaluate(zx, (3, 2)) == pytest.approx(12.0, rel=1e-14)
    jet = evaluate_jet(zx, (3, 2), 2)
    assert partial_derivative(jet, 1, 0) == pytest.approx(4.0, rel=1e-14)  # zxx = 2y
    assert partial_derivative(jet, 0, 1) == pytest.approx(6.0, rel=1e-14)  # zxy = 2x
    # order capacity: an order-4 jet of a second derivative needs order 6
    with pytest.raises(EvaluationError):
        evaluate_jet(PartialDerivative(z, 2, 0), (0, 0), 4)


def test_evaluate_jet_with_substitution():
    # compose w0(y) = y^2 with the jet of x + y as its argument
    w0 = parse("y^2 + 1")
    arg = evaluate_jet(parse("x + y"), (1, 2), 2)
    result = evaluate_jet_with(w0, {"y": arg})
    direct = evaluate_jet(parse("(x + y)^2 + 1"), (1, 2), 2)
    assert result.c(0, 0) == direct.c(0, 0)
    assert result.c(1, 0) == direct.c(1, 0)
    assert result.c(1, 1) == direct.c(1, 1)


def test_evaluate_jet_with_missing_binding():
    w0 = parse("x + y")
    arg = jet_variable((0, 0), "y", 2)
    with pytest.raises(EvaluationError):
        evaluate_jet_with(w0, {"y": arg})


def test_domain_error_names_subexpression():
    with pytest.raises(EvaluationError) as err:
        evaluate(parse("1 + sqrt(x - 10)"), (0, 0))
    assert "sqrt" in str(err.value)


# ------------------------------------------------- compiled point functions
#
# `evaluate` and `evaluate_gradient` run straight-line code compiled once
# per expression.  The references below are the tree walks they replaced,
# kept here as the oracle: the compiled code must give the same value and
# gradient bits, and the same exception type and text, on every input.  One
# difference is intended: the old gradient walk let `math` errors escape
# bare (`sin` of an overflowed argument raised ValueError), where the
# reference and the compiled code raise EvaluationError as the value walk
# does.

_MATH = {"sqrt": math.sqrt, "exp": math.exp, "ln": math.log,
         "sin": math.sin, "cos": math.cos, "tan": math.tan}


def reference_value(node, x, y):
    """The value walk: post-order, every operator and function checked."""
    if isinstance(node, Constant):
        return node.value
    if isinstance(node, Variable):
        return x if node.name == "x" else y
    if isinstance(node, Unary):
        return -reference_value(node.child, x, y)
    if isinstance(node, Binary):
        left = reference_value(node.left, x, y)
        if node.op == "^":
            if not isinstance(node.right, Constant):
                raise EvaluationError("exponent must be constant", to_source(node))
            p = node.right.value
            if p.is_integer():
                if p < 0 and left == 0.0:
                    raise EvaluationError("zero raised to a negative power", to_source(node))
                value = _integer_power(left, int(p), 1.0)
            else:
                if left < 0.0:
                    raise EvaluationError(
                        f"fractional power of negative base {left!r}", to_source(node)
                    )
                if p < 0.0 and left == 0.0:
                    raise EvaluationError("zero raised to a negative power", to_source(node))
                value = _power_or_inf(left, p)
        else:
            right = reference_value(node.right, x, y)
            if node.op == "+":
                value = left + right
            elif node.op == "-":
                value = left - right
            elif node.op == "*":
                value = left * right
            else:
                if right == 0.0:
                    raise EvaluationError("division by zero", to_source(node))
                value = left / right
        if not math.isfinite(value):
            raise EvaluationError("non-finite result", to_source(node))
        return value
    if isinstance(node, Call):
        u = reference_value(node.arg, x, y)
        if node.func == "sqrt" and u < 0.0:
            raise EvaluationError(f"sqrt of negative value {u!r}", to_source(node))
        if node.func == "ln" and u <= 0.0:
            raise EvaluationError(f"ln of non-positive value {u!r}", to_source(node))
        try:
            value = _MATH[node.func](u)
        except (ValueError, OverflowError) as exc:
            raise EvaluationError(str(exc), to_source(node)) from None
        if not math.isfinite(value):
            raise EvaluationError("non-finite result", to_source(node))
        return value
    total = node.dx + node.dy
    if total == 0:
        return reference_value(node.target, x, y)
    order = min(MAX_ORDER, max(1, total))
    return partial_derivative(evaluate_jet(node.target, (x, y), order), node.dx, node.dy)


def _reference_propagate(node, x, y):
    if isinstance(node, Constant):
        return node.value, 0.0, 0.0
    if isinstance(node, Variable):
        return (x, 1.0, 0.0) if node.name == "x" else (y, 0.0, 1.0)
    if isinstance(node, Unary):
        v, gx, gy = _reference_propagate(node.child, x, y)
        return -v, -gx, -gy
    if isinstance(node, Binary):
        lv, lx, ly = _reference_propagate(node.left, x, y)
        if node.op == "^":
            p = node.right.value
            v = reference_value(node, x, y)  # walks the base again
            if lv == 0.0:
                if p.is_integer() and p >= 0.0:
                    scale = 1.0 if p == 1.0 else 0.0
                else:
                    raise EvaluationError(
                        "gradient of power undefined at zero base", to_source(node)
                    )
            else:
                scale = p * v / lv
            return v, scale * lx, scale * ly
        rv, rx, ry = _reference_propagate(node.right, x, y)
        if node.op == "+":
            return lv + rv, lx + rx, ly + ry
        if node.op == "-":
            return lv - rv, lx - rx, ly - ry
        if node.op == "*":
            return lv * rv, lx * rv + lv * rx, ly * rv + lv * ry
        if rv == 0.0:
            raise EvaluationError("division by zero", to_source(node))
        v = lv / rv
        return v, (lx - v * rx) / rv, (ly - v * ry) / rv
    if isinstance(node, Call):
        u, ux, uy = _reference_propagate(node.arg, x, y)
        if node.func in ("sqrt", "ln") and u <= 0.0:
            raise EvaluationError(f"{node.func} of non-positive value {u!r}", to_source(node))
        try:
            if node.func == "sqrt":
                v = math.sqrt(u)
                scale = 0.5 / v
            elif node.func == "exp":
                v = scale = math.exp(u)
            elif node.func == "ln":
                v, scale = math.log(u), 1.0 / u
            elif node.func == "sin":
                v, scale = math.sin(u), math.cos(u)
            elif node.func == "cos":
                v, scale = math.cos(u), -math.sin(u)
            else:
                v = math.tan(u)
                scale = 1.0 + v * v
        except (ValueError, OverflowError) as exc:
            message = "exp overflow" if node.func == "exp" else str(exc)
            raise EvaluationError(message, to_source(node)) from None
        return v, scale * ux, scale * uy
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


def reference_gradient(node, x, y):
    """The forward propagation walk; only powers check their values."""
    v, gx, gy = _reference_propagate(node, x, y)
    if not (math.isfinite(gx) and math.isfinite(gy)):
        raise EvaluationError("non-finite gradient", to_source(node))
    return v, gx, gy


def _bits(v) -> bytes:
    return struct.pack("<d", v)


def outcome(fn, *args):
    """What a call gives: its result's bits, or its exception type and text."""
    try:
        result = fn(*args)
    except Exception as exc:  # noqa: BLE001 - the type is part of the outcome
        return type(exc), str(exc)
    if isinstance(result, tuple):
        return tuple(_bits(v) for v in result)
    return _bits(result)


#: Sample points; the leaves below vanish at some of them, so quotients,
#: square roots, logarithms and powers meet their domain edges.
POINTS = [(0.0, 0.0), (0.5, -0.25), (-1.5, 2.0), (1.0, 1.0), (2.0, 0.5), (-0.5, -0.5)]
_COORDS = sorted({c for p in POINTS for c in p})


@st.composite
def point_trees(draw):
    leaves = st.one_of(
        st.just(X),
        st.just(Y),
        st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 1e-3, 1e200, 1e-200]).map(Constant),
        st.sampled_from(_COORDS).map(lambda c: X - Constant(c)),
        st.sampled_from(_COORDS).map(lambda c: Y - Constant(c)),
        st.just(X - Y),
        st.just(X * X + Y * Y - Constant(1.0)),
        st.sampled_from([X, Y]).map(lambda v: Constant(1e200) * v),
    )
    exponents = [2.0, 3.0, 0.5, 1.5, 0.0, 1.0, 4.0, -1.0, -2.0, -0.5, -1.5, 1e300]

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from("+-*/"), children, children).map(lambda t: Binary(*t)),
            st.tuples(st.sampled_from(sorted(_MATH)), children).map(lambda t: Call(*t)),
            st.tuples(children, st.sampled_from(exponents)).map(lambda t: t[0] ** t[1]),
            # the power of a product, which may overflow inside the base
            st.tuples(children, children, st.sampled_from(exponents)).map(
                lambda t: (t[0] * t[1]) ** t[2]
            ),
            children.map(lambda c: -c),
            st.tuples(children, st.integers(0, 2), st.integers(0, 2)).map(
                lambda t: PartialDerivative(*t)
            ),
        )

    tree = draw(st.recursive(leaves, extend, max_leaves=8))
    if draw(st.booleans()):
        # a repeated node object, computed once by the compiled code
        tree = Binary(draw(st.sampled_from("+*/")), tree, tree ** draw(st.sampled_from(exponents)))
    return tree


@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(point_trees())
def test_compiled_point_functions_match_the_walks(tree):
    for point in POINTS:
        assert outcome(evaluate, tree, point) == outcome(reference_value, tree, *point)
        assert outcome(evaluate_gradient, tree, point) == outcome(
            reference_gradient, tree, *point
        )


@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(point_trees())
def test_walked_value_is_the_value_where_the_gradient_returns(tree):
    """The level-curve tracer takes a leaf's level from the value walk at
    a seed whose gradient returned: there the walk gives what evaluate
    gives, bits or error text."""
    for point in POINTS:
        if isinstance(outcome(evaluate_gradient, tree, point)[0], type):
            continue
        walked = outcome(lambda: _Walker(*point).value(tree, None))
        assert walked == outcome(evaluate, tree, point)


@pytest.mark.parametrize(
    "source", ["y + 1/(1e308*1e308)", "x + 1/sqrt(1e308*1e308)", "x*y - 1/ln(1e308*1e308)"]
)
def test_walked_value_checks_what_the_gradient_skips(source):
    """The gradient code checks no value outside powers, so it returns here,
    while the walk, like evaluate, raises at the overflowing product."""
    tree = parse(source)
    assert not isinstance(outcome(evaluate_gradient, tree, (0.5, 0.5))[0], type)
    walked = outcome(lambda: _Walker(0.5, 0.5).value(tree, None))
    assert walked == outcome(evaluate, tree, (0.5, 0.5))
    assert walked == (EvaluationError, "non-finite result in '(1e+308 * 1e+308)'")


#: Formulas that fail at a point: a domain error with the value that
#: violates it, an error of `math`, and the checks of operators.
_FAILING_AT_A_POINT = [
    (parse("sqrt(x - 1)"), (0.5, 0.5)),
    (parse("ln(x - 1)"), (0.5, 0.5)),
    (parse("ln(x - 0.5)"), (0.5, 0.5)),
    (parse("(x - 1)^0.5"), (0.5, 0.5)),
    (parse("exp(1000*x)"), (1.0, 0.5)),
    (parse("1/(x - 0.5)"), (0.5, 0.5)),
    (Binary("^", parse("x - 0.5"), Constant(-2.0)), (0.5, 0.5)),
    (Binary("^", parse("x - 0.5"), Constant(-0.5)), (0.5, 0.5)),
    (parse("y + (1e308*x)*1e308"), (0.5, 0.5)),
]


@pytest.mark.parametrize(
    "tree, point", _FAILING_AT_A_POINT, ids=[to_source(t) for t, _ in _FAILING_AT_A_POINT]
)
def test_walked_value_words_every_error_as_evaluate(tree, point):
    walked = outcome(lambda: _Walker(*point).value(tree, None))
    assert walked[0] is EvaluationError
    assert walked == outcome(evaluate, tree, point)


def test_gradient_wraps_math_errors_of_an_overflowed_argument():
    # 1e308 + 1e308*x overflows to inf; sin(inf) is a math domain error.
    tree = parse("x + y + 1e-310*sin(1e308+1e308*x)")
    assert evaluate_gradient(tree, (0.5, 0.5))[0] == 1.0
    message = "math domain error in 'sin((1e+308 + (1e+308 * x)))'"
    with pytest.raises(EvaluationError) as err:
        evaluate_gradient(tree, (0.9, 0.5))
    assert str(err.value) == message
    with pytest.raises(EvaluationError, match="non-finite result"):
        evaluate(tree, (0.9, 0.5))
    with pytest.raises(EvaluationError) as err:
        evaluate(parse("sin(x)"), (math.inf, 0.0))
    assert str(err.value) == "math domain error in 'sin(x)'"


def test_compiled_code_is_a_cache_that_dies_with_its_expression():
    tree = parse("x^2 + sqrt(y)") * PartialDerivative(parse("x*y"), 1, 0)
    pickled, twin = pickle.dumps(tree), parse("x^2 + sqrt(y)") * PartialDerivative(
        parse("x*y"), 1, 0
    )
    assert evaluate(tree, (2.0, 4.0)) == 6.0 * 4.0
    assert evaluate_gradient(tree, (2.0, 4.0)) == (24.0, 16.0, 7.0)
    assert evaluate(tree, (2.0, 4.0)) == 24.0  # the cached function again
    # equality, hashing, copies and pickles see the fields alone
    assert tree == twin and hash(tree) == hash(twin)
    assert pickle.dumps(tree) == pickled
    assert vars(copy.copy(tree)) == vars(twin) == vars(copy.deepcopy(tree))
    # the functions hold no strong reference to the tree: both go with it
    tree_ref = weakref.ref(tree)
    code_refs = [weakref.ref(tree._value_code), weakref.ref(tree._gradient_code)]
    gc.disable()
    try:
        del tree
        assert tree_ref() is None
        assert [ref() for ref in code_refs] == [None, None]
    finally:
        gc.enable()


#: Integer exponents at and around the edges of inlining: |n| < 64 is
#: compiled to inline multiplications, 0 and larger |n| call _integer_power.
_INLINE_EDGE_EXPONENTS = [-64, -63, -3, -1, 0, 1, 2, 3, 5, 7, 63, 64, 2**31, 1e300]


@pytest.mark.parametrize("n", _INLINE_EDGE_EXPONENTS)
def test_integer_powers_at_the_inlining_edges_match_the_walks(n):
    # x + 0.1 is 1.1 at x = 1, where 1.1**63 differs from the binary chain
    bases = [X - Constant(c) for c in [*_COORDS, -0.1]] + [Constant(1e200) * X]
    for base in bases:
        tree = base**n
        for point in POINTS:
            assert outcome(evaluate, tree, point) == outcome(reference_value, tree, *point)
            assert outcome(evaluate_gradient, tree, point) == outcome(
                reference_gradient, tree, *point
            )


def _statements(tree, gradient: bool) -> list[str]:
    """The statements of the compiled function of `tree`."""
    compiler = _Compiler(gradient)
    compiler.function(tree)
    return [part for line in compiler.lines for part in line.split("; ")]


@pytest.mark.parametrize("gradient", [False, True])
def test_inline_powers_are_short_and_never_use_the_power_operator(gradient):
    for n in _INLINE_EDGE_EXPONENTS:
        assert not any("**" in s for s in _statements(X**n, gradient)), n
    # a huge exponent calls _integer_power: no statement per bit
    huge = _statements(X**1e300, gradient)
    assert len(huge) <= 10 and any("_ipow(" in s for s in huge)
    # 63 = 0b111111: five squares and five products
    assert sum(s.count(" * ") for s in _statements(X**63, False)) == 10
