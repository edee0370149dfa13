"""Jet engine: construction contracts, arithmetic, elementary functions."""

from __future__ import annotations

import copy
import math
import operator
import pickle
import random
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from webgeo import (
    JetDomainError,
    JetError,
    TaylorJet,
    derivative_jet,
    jet_arith,
    jet_constant,
    jet_elementary,
    jet_variable,
    partial_derivative,
    truncate_jet,
)
from webgeo.exprlang import Block
from webgeo.taylor import _jet


def test_variable_seed_x():
    j = jet_variable((2, 3), "x", 2)
    assert j.c(0, 0) == 2.0
    assert j.c(1, 0) == 1.0
    assert j.c(0, 1) == 0.0
    assert j.c(2, 0) == 0.0 and j.c(1, 1) == 0.0 and j.c(0, 2) == 0.0


def test_variable_seed_y():
    j = jet_variable((2, 3), "y", 2)
    assert j.c(0, 0) == 3.0
    assert j.c(0, 1) == 1.0
    assert j.c(1, 0) == 0.0


def test_order_out_of_range():
    with pytest.raises(JetError):
        jet_variable((0, 0), "x", 5)
    with pytest.raises(JetError):
        jet_variable((0, 0), "x", 0)


def test_coefficient_count_invariant():
    for order in range(1, 5):
        j = jet_constant((0, 0), 1.0, order)
        assert j.n_coefficients == (order + 1) * (order + 2) // 2


def test_mul_xy():
    x = jet_variable((2, 3), "x", 2)
    y = jet_variable((2, 3), "y", 2)
    p = jet_arith("mul", x, y)
    assert p.c(0, 0) == 6.0
    assert p.c(1, 0) == 3.0
    assert p.c(0, 1) == 2.0
    assert p.c(1, 1) == 1.0
    assert p.c(2, 0) == 0.0 and p.c(0, 2) == 0.0


def test_div_geometric_series():
    one = jet_constant((0, 0), 1.0, 4)
    x = jet_variable((0, 0), "x", 4)
    q = jet_arith("div", one, jet_arith("sub", one, x))
    for i in range(5):
        assert q.c(i, 0) == pytest.approx(1.0, abs=1e-15)
    assert q.c(0, 1) == 0.0 and q.c(1, 1) == 0.0


def test_div_by_zero_constant_term():
    one = jet_constant((0, 0), 1.0, 2)
    x = jet_variable((0, 0), "x", 2)  # constant term 0
    with pytest.raises(JetDomainError):
        jet_arith("div", one, x)


def test_mismatched_base_point_and_order():
    a = jet_variable((0, 0), "x", 2)
    b = jet_variable((1, 0), "x", 2)
    with pytest.raises(JetError):
        jet_arith("add", a, b)
    c = jet_variable((0, 0), "x", 3)
    with pytest.raises(JetError):
        jet_arith("mul", a, c)


def test_sqrt_at_four():
    x = jet_variable((4, 0), "x", 1)
    s = jet_elementary("sqrt", x)
    assert s.c(0, 0) == 2.0
    assert s.c(1, 0) == pytest.approx(0.25, rel=1e-15)


def test_exp_series():
    x = jet_variable((0, 0), "x", 4)
    e = jet_elementary("exp", x)
    for i in range(5):
        assert e.c(i, 0) == pytest.approx(1.0 / math.factorial(i), rel=1e-15)


def test_sqrt_domain_error():
    bad = jet_constant((0, 0), -1.0, 2)
    with pytest.raises(JetDomainError, match="sqrt"):
        jet_elementary("sqrt", bad)


def test_ln_domain_error():
    with pytest.raises(JetDomainError, match="ln"):
        jet_elementary("ln", jet_constant((0, 0), 0.0, 2))


def test_partial_derivative_examples():
    x = jet_variable((0, 0), "x", 4)
    e = jet_elementary("exp", x)
    assert partial_derivative(e, 4, 0) == pytest.approx(1.0, rel=1e-14)

    x2 = jet_variable((2, 3), "x", 2)
    y2 = jet_variable((2, 3), "y", 2)
    assert partial_derivative(jet_arith("mul", x2, y2), 1, 1) == 1.0

    with pytest.raises(JetError):
        partial_derivative(x2, 2, 1)


def test_derivative_jet_of_square():
    x = jet_variable((3, 7), "x", 3)
    sq = jet_arith("mul", x, x)
    d = derivative_jet(sq, "x")
    assert d.order == 2
    assert d.c(0, 0) == 6.0
    assert d.c(1, 0) == 2.0


def test_derivative_jet_zero_and_contract():
    y = jet_variable((0, 5), "y", 2)
    d = derivative_jet(y, "x")
    assert d.order == 1
    assert not d.coeffs.any()
    with pytest.raises(JetError):
        derivative_jet(d, "x")


def _random_jet(rng: random.Random, point, order) -> TaylorJet:
    coeffs = np.zeros((order + 1, order + 1))
    for i in range(order + 1):
        for j in range(order + 1 - i):
            coeffs[i, j] = rng.uniform(-2, 2)
    return TaylorJet(point, order, coeffs)


def test_ring_axioms(rng):
    point = (0.3, -0.7)
    for order in (2, 4):
        for _ in range(25):
            a = _random_jet(rng, point, order)
            b = _random_jet(rng, point, order)
            c = _random_jet(rng, point, order)
            ab = jet_arith("mul", a, b)
            ba = jet_arith("mul", b, a)
            assert np.allclose(ab.coeffs, ba.coeffs, rtol=1e-12, atol=1e-12)
            left = jet_arith("mul", ab, c)
            right = jet_arith("mul", a, jet_arith("mul", b, c))
            assert np.allclose(left.coeffs, right.coeffs, rtol=1e-12, atol=1e-12)


def test_derivative_jets_commute(rng):
    point = (1.1, 0.4)
    for _ in range(20):
        a = _random_jet(rng, point, 4)
        xy = derivative_jet(derivative_jet(a, "x"), "y")
        yx = derivative_jet(derivative_jet(a, "y"), "x")
        assert np.allclose(xy.coeffs, yx.coeffs, rtol=1e-15, atol=1e-15)


def test_mul_div_roundtrip(rng):
    point = (0.2, 0.9)
    for _ in range(20):
        a = _random_jet(rng, point, 4)
        b = _random_jet(rng, point, 4)
        if abs(b.c(0, 0)) < 0.1:
            continue
        back = jet_arith("mul", jet_arith("div", a, b), b)
        assert np.allclose(back.coeffs, a.coeffs, rtol=1e-10, atol=1e-10)


def test_integer_power_matches_repeated_mul():
    x = jet_variable((1.3, 0.2), "x", 3)
    cubed = jet_elementary("pow_const", x, 3.0)
    manual = jet_arith("mul", jet_arith("mul", x, x), x)
    assert np.allclose(cubed.coeffs, manual.coeffs, rtol=1e-15)


def test_negative_and_zero_powers():
    x = jet_variable((2.0, 0.0), "x", 3)
    inv = jet_elementary("pow_const", x, -1.0)
    assert inv.c(0, 0) == pytest.approx(0.5, rel=1e-15)
    assert inv.c(1, 0) == pytest.approx(-0.25, rel=1e-14)
    unit = jet_elementary("pow_const", x, 0.0)
    assert unit.c(0, 0) == 1.0 and unit.c(1, 0) == 0.0

    zero = jet_variable((0.0, 0.0), "x", 2)
    with pytest.raises(JetDomainError):
        jet_elementary("pow_const", zero, -2.0)


def test_fractional_power_domain():
    neg = jet_constant((0, 0), -2.0, 2)
    with pytest.raises(JetDomainError):
        jet_elementary("pow_const", neg, 0.5)
    with pytest.raises(JetError):
        jet_elementary("pow_const", jet_constant((0, 0), 1.0, 2), None)


def test_non_finite_is_an_error_not_a_value():
    big = jet_constant((0, 0), 1e200, 2)
    with pytest.raises(JetDomainError):
        jet_arith("mul", big, big)
    with pytest.raises(JetDomainError):
        jet_elementary("exp", jet_constant((0, 0), 1e4, 2))
    with pytest.raises(JetDomainError):
        TaylorJet((0, 0), 1, np.array([[math.nan, 0.0], [0.0, 0.0]]))


def test_jets_are_immutable():
    j = jet_variable((0, 0), "x", 2)
    with pytest.raises((ValueError, AttributeError)):
        j.coeffs[0, 0] = 5.0


def test_truncate_jet():
    x = jet_variable((1, 1), "x", 4)
    y = jet_variable((1, 1), "y", 4)
    p = (x + y) * (x + y) * (x + y)
    t = truncate_jet(p, 2)
    assert t.order == 2
    assert t.c(1, 1) == p.c(1, 1)
    with pytest.raises(JetError):
        truncate_jet(t, 4)


def test_tan_series_against_composition():
    # tan = sin/cos must agree with the direct series coefficients.
    x = jet_variable((0.4, 0.0), "x", 4)
    direct = jet_elementary("tan", x)
    quotient = jet_arith("div", jet_elementary("sin", x), jet_elementary("cos", x))
    assert np.allclose(direct.coeffs, quotient.coeffs, rtol=1e-13, atol=1e-13)


def test_unknown_operation_names():
    a = jet_constant((0, 0), 1.0, 2)
    with pytest.raises(JetError):
        jet_arith("pow", a, a)
    with pytest.raises(JetError):
        jet_elementary("sinh", a)


# ------------------------------------------------ the one jet: contracts


def test_every_attribute_is_immutable():
    j = jet_variable((1.0, 2.0), "x", 2)
    for name in ("table", "order", "base_point", "ok", "coeffs", "value"):
        with pytest.raises(AttributeError):
            setattr(j, name, None)
        with pytest.raises(AttributeError):
            delattr(j, name)
    with pytest.raises(AttributeError):
        j.extra = 1.0
    assert j.order == 2 and j.base_point == (1.0, 2.0) and j.ok is None
    for twin in (copy.copy(j), copy.deepcopy(j), pickle.loads(pickle.dumps(j))):
        assert twin is not j and twin.base_point == j.base_point
        assert twin.coeffs.tolist() == j.coeffs.tolist()


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_coeffs_is_a_fresh_read_only_square_array_with_a_zero_tail(order):
    x = jet_variable((0.5, -0.25), "x", order)
    y = jet_variable((0.5, -0.25), "y", order)
    # a product (square table), a derivative and a truncation (triangular)
    jets = [(x + y) * (x - 2.0 * y), jet_elementary("exp", x * y)]
    if order > 1:
        jets += [derivative_jet(jets[1], "y"), truncate_jet(jets[1], order - 1)]
    for j in jets:
        first, second = j.coeffs, j.coeffs
        n = j.order
        assert first is not second
        assert first.shape == (n + 1, n + 1) and first.dtype == np.float64
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0, 0] = 5.0
        for i in range(n + 1):
            for k in range(n + 1):
                want = j.c(i, k) if i + k <= n else 0.0
                assert first[i, k] == want and math.copysign(1.0, first[i, k]) == math.copysign(
                    1.0, want
                )
        # a copy that is written to leaves the jet alone
        scratch = np.array(first)
        scratch[:] = 7.0
        assert np.array_equal(j.coeffs, second)


def test_constructor_round_trips_through_coeffs():
    coeffs = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 0.0], [6.0, 0.0, 0.0]])
    j = TaylorJet((1, 2), 2, coeffs)
    coeffs[0, 0] = 99.0  # the jet keeps its own copy
    assert j.base_point == (1.0, 2.0)
    assert j.value == 1.0 and j.c(1, 1) == 5.0 and j.c(2, 0) == 6.0
    assert j.coeffs.tolist() == [[1.0, 2.0, 3.0], [4.0, 5.0, 0.0], [6.0, 0.0, 0.0]]
    with pytest.raises(JetError, match="beyond the truncation order"):
        TaylorJet((0, 0), 1, [[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(JetError, match="must have shape"):
        TaylorJet((0, 0), 2, np.zeros((2, 2)))


def test_error_texts_at_a_point():
    big = jet_constant((0, 0), 1e200, 2)
    with pytest.raises(JetDomainError) as info:
        big * big
    assert str(info.value) == "non-finite coefficient produced by mul"
    with pytest.raises(JetDomainError) as info:
        jet_constant((0, 0), 1.0, 2) / jet_variable((0, 0), "x", 2)
    assert str(info.value) == "division by a jet with zero constant term"
    with pytest.raises(JetError) as info:
        jet_arith("mul", jet_variable((0, 0), "x", 2), jet_variable((1, 0), "x", 2))
    assert str(info.value) == "mul: mismatched base points (0.0, 0.0) and (1.0, 0.0)"
    with pytest.raises(JetError) as info:
        jet_variable((0, 0), "x", 2) + jet_variable((0, 0), "x", 3)
    assert str(info.value) == "add: mismatched jet orders 2 and 3"
    with pytest.raises(JetDomainError) as info:
        jet_variable((0, 0), "x", 2) + math.inf
    assert str(info.value) == "non-finite coefficient produced by constant seed"


# ------------------------------- the one jet: a block against its points
#
# The same random program of operations runs on a jet over a block of
# lanes and on a jet at a point for each lane.  Every lane the block keeps
# must hold the bits of its point run, and the block must clear exactly
# the lanes whose point run raised.

_VALUES = st.one_of(
    st.floats(-3.0, 3.0, allow_nan=False),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 1e-300, 1e150, -1e150, 1e300]),
)
_STEPS = st.one_of(
    st.tuples(st.just("arith"), st.sampled_from("+-*/"), st.integers(0, 99), st.integers(0, 99)),
    st.tuples(
        st.just("number"), st.sampled_from("+-*/"), st.integers(0, 99), _VALUES, st.booleans()
    ),
    st.tuples(
        st.just("elementary"),
        st.sampled_from(["sqrt", "exp", "ln", "sin", "cos", "tan"]),
        st.integers(0, 99),
    ),
    st.tuples(
        st.just("pow"),
        st.sampled_from([-2.0, -1.0, 0.0, 1.0, 2.0, 3.0, 0.5, -0.5, 1.5]),
        st.integers(0, 99),
    ),
    st.tuples(st.just("derivative"), st.sampled_from("xy"), st.integers(0, 99)),
    st.tuples(st.just("truncate"), st.integers(1, 4), st.integers(0, 99)),
    st.tuples(st.just("neg"), st.integers(0, 99)),
)

_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _apply(step, registers):
    """One step of a program on a list of jets; the result, or None when
    the step does not apply to these jets."""
    kind = step[0]
    if kind == "arith":
        _, op, i, k = step
        a, b = registers[i % len(registers)], registers[k % len(registers)]
        n = min(a.order, b.order)
        return _BINARY[op](truncate_jet(a, n), truncate_jet(b, n))
    if kind == "number":
        _, op, i, value, reflected = step
        a = registers[i % len(registers)]
        return _BINARY[op](value, a) if reflected else _BINARY[op](a, value)
    if kind == "elementary":
        return jet_elementary(step[1], registers[step[2] % len(registers)])
    if kind == "pow":
        return registers[step[2] % len(registers)] ** step[1]
    if kind == "derivative":
        a = registers[step[2] % len(registers)]
        return derivative_jet(a, step[1]) if a.order > 1 else None
    if kind == "truncate":
        a = registers[step[2] % len(registers)]
        return truncate_jet(a, step[1]) if step[1] <= a.order else None
    return -registers[step[1] % len(registers)]


def _bits(v: float) -> bytes:
    return struct.pack("<d", v)


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    order=st.integers(1, 4),
    lanes=st.integers(1, 5),
    data=st.data(),
    program=st.lists(_STEPS, min_size=1, max_size=10),
)
def test_block_jet_matches_point_jets(order, lanes, data, program):
    with np.errstate(all="ignore"):
        _check_block_against_points(order, lanes, data, program)


def _check_block_against_points(order, lanes, data, program):
    size = (order + 1) * (order + 2) // 2
    starts = [
        [data.draw(st.lists(_VALUES, min_size=size, max_size=size)) for _ in range(lanes)]
        for _ in range(2)
    ]
    block = Block(np.linspace(0.0, 1.0, lanes), np.zeros(lanes))
    ok = np.ones(lanes, dtype=bool)

    def table(values):
        it = iter(values)
        return [[next(it) for _ in range(order + 1 - i)] for i in range(order + 1)]

    def lane_table(start):
        columns = table(range(size))
        return [[np.array([start[k][c] for k in range(lanes)]) for c in row] for row in columns]

    block_regs = [_jet(lane_table(start), order, block, ok) for start in starts]
    point_regs = []
    for k in range(lanes):
        point = (float(block.x[k]), 0.0)
        point_regs.append([_jet(table(start[k]), order, point) for start in starts])
    alive = [True] * lanes

    for step in program:
        try:
            result = _apply(step, block_regs)
        except JetDomainError:
            result = False  # a float operand fails at every point
        if result is None:
            continue
        for k in range(lanes):
            if not alive[k]:
                continue
            try:
                point_regs[k].append(_apply(step, point_regs[k]))
            except JetDomainError:
                alive[k] = False
        if result is False:
            assert not any(alive)
            return
        block_regs.append(result)

    assert ok.tolist() == alive
    for k in range(lanes):
        if not alive[k]:
            continue
        for block_jet, point_jet in zip(block_regs, point_regs[k], strict=True):
            assert block_jet.order == point_jet.order
            for i in range(block_jet.order + 1):
                for j in range(block_jet.order + 1 - i):
                    entry = block_jet.table[i][j]
                    lane = entry[k] if isinstance(entry, np.ndarray) else entry
                    assert _bits(float(lane)) == _bits(point_jet.table[i][j])
