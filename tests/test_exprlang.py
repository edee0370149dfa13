"""Parser grammar, evaluation, jet evaluation, and printer round-trips."""

from __future__ import annotations

import string

import pytest

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
    evaluate_jet,
    evaluate_jet_with,
    jet_variable,
    parse,
    partial_derivative,
    to_source,
)
from webgeo.exprlang import MAX_NESTING
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


def test_parser_totality_fuzz(rng):
    alphabet = string.ascii_letters + string.digits + "+-*/^(). eE_\t"
    for _ in range(400):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 24)))
        try:
            parse(text)
        except ParseError:
            pass  # the only acceptable failure mode


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
