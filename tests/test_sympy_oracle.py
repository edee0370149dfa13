"""Exact derivatives from sympy: the second oracle of the jet engine.

The finite-difference oracle (conftest.fd_partial) checks jets of a fixed
corpus to about 1e-5.  Here hypothesis draws small trees and points, sympy
differentiates each tree exactly, with every float constant and coordinate
taken as the exact rational it stands for, and every partial derivative of
`evaluate_jet` at orders 1 to 4 must agree with the exact value to 1e-9 of
the largest exact partial of that order or lower.  Every tree is checked
at each order it is defined at.
"""

from __future__ import annotations

import math

import pytest
import sympy as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from webgeo import (
    Binary,
    Call,
    Constant,
    EvaluationError,
    Unary,
    Variable,
    evaluate_jet,
    partial_derivative,
)
from webgeo.exprlang import FUNCTION_NAMES, X, Y

SX, SY = sp.symbols("x y")

_SYMPY_FUNCTIONS = {
    "sqrt": sp.sqrt,
    "exp": sp.exp,
    "ln": sp.log,
    "sin": sp.sin,
    "cos": sp.cos,
    "tan": sp.tan,
}

RTOL = 1e-9


def to_sympy(e):
    """The exact sympy expression of a tree."""
    if isinstance(e, Constant):
        return sp.Rational(e.value)
    if isinstance(e, Variable):
        return SX if e.name == "x" else SY
    if isinstance(e, Unary):
        return -to_sympy(e.child)
    if isinstance(e, Call):
        return _SYMPY_FUNCTIONS[e.func](to_sympy(e.arg))
    left, right = to_sympy(e.left), to_sympy(e.right)
    return {
        "+": lambda: left + right,
        "-": lambda: left - right,
        "*": lambda: left * right,
        "/": lambda: left / right,
        "^": lambda: left**right,
    }[e.op]()


_COEFFICIENTS = st.sampled_from([0.25, 0.5, 1.5, 2.0, 3.0])

#: Leaves: x, y, a constant, or an affine form a*x + b*y + c, whose
#: derivatives in x and y are all nonzero.
_LEAVES = st.one_of(
    st.sampled_from([X, Y]),
    _COEFFICIENTS.map(Constant),
    st.tuples(_COEFFICIENTS, _COEFFICIENTS, _COEFFICIENTS).map(
        lambda t: Constant(t[0]) * X + Constant(t[1]) * Y + Constant(t[2])
    ),
)


def _node(children):
    return st.one_of(
        st.tuples(st.sampled_from("+-*/"), children, children).map(lambda t: Binary(*t)),
        children.map(lambda c: Unary("neg", c)),
        st.tuples(children, st.sampled_from([2.0, 3.0, -1.0, 0.5, 1.5])).map(
            lambda t: Binary("^", t[0], Constant(t[1]))
        ),
        st.tuples(st.sampled_from(FUNCTION_NAMES), children).map(lambda t: Call(*t)),
    )


TREES = st.recursive(_LEAVES, _node, max_leaves=4)
COORDINATES = st.floats(0.05, 1.0).map(lambda v: round(v, 3))

#: The outermost node of each tree, so every elementary function, the
#: quotient and a fractional power are checked at every order.
OUTER = {
    "sqrt": lambda t: Call("sqrt", t),
    "exp": lambda t: Call("exp", t),
    "ln": lambda t: Call("ln", t),
    "sin": lambda t: Call("sin", t),
    "cos": lambda t: Call("cos", t),
    "tan": lambda t: Call("tan", t),
    "quotient": lambda t: (X + 2.0 * Y) / t,
    "power": lambda t: t**1.5,
}


@pytest.mark.parametrize("outer", OUTER.values(), ids=OUTER.keys())
@settings(
    max_examples=12,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(inner=TREES, x=COORDINATES, y=COORDINATES)
def test_jet_partials_match_sympy(outer, inner, x, y):
    tree = outer(inner)
    derivatives = {(0, 0): to_sympy(tree)}
    at = {SX: sp.Rational(x), SY: sp.Rational(y)}
    exact = {}
    for order in range(1, 5):
        try:
            jet = evaluate_jet(tree, (x, y), order)
        except EvaluationError:
            return  # outside the domain: nothing more to compare
        for i in range(order + 1):
            j = order - i
            lower = derivatives[i - 1, j] if i else derivatives[i, j - 1]
            derivatives[i, j] = sp.diff(lower, SX if i else SY)
        for (i, j), derivative in derivatives.items():
            if (i, j) not in exact:
                value = derivative.evalf(30, subs=at)
                assert value.is_real, (i, j, value)
                exact[i, j] = float(value)
        scale = max(1.0, *(abs(v) for v in exact.values()))
        assert math.isfinite(scale)
        for (i, j), want in exact.items():
            got = partial_derivative(jet, i, j)
            assert abs(got - want) <= RTOL * scale, (order, i, j, got, want)
