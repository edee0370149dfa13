"""Jet engine: construction contracts, arithmetic, elementary functions."""

from __future__ import annotations

import copy
import math
import operator
import pickle
import random
import struct
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from webgeo import (
    JetDomainError,
    JetError,
    TaylorJet,
    jet_constant,
    jet_elementary,
    jet_variable,
    partial_derivative,
)
from webgeo.exprlang import Block, parse
from webgeo.taylor import _jet, check_table, div_table, fail, table_partial


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
        assert sum(map(len, j.table)) == (order + 1) * (order + 2) // 2


def test_mul_xy():
    x = jet_variable((2, 3), "x", 2)
    y = jet_variable((2, 3), "y", 2)
    p = x * y
    assert p.c(0, 0) == 6.0
    assert p.c(1, 0) == 3.0
    assert p.c(0, 1) == 2.0
    assert p.c(1, 1) == 1.0
    assert p.c(2, 0) == 0.0 and p.c(0, 2) == 0.0


def test_div_geometric_series():
    one = jet_constant((0, 0), 1.0, 4)
    x = jet_variable((0, 0), "x", 4)
    q = one / (one - x)
    for i in range(5):
        assert q.c(i, 0) == pytest.approx(1.0, abs=1e-15)
    assert q.c(0, 1) == 0.0 and q.c(1, 1) == 0.0


def test_div_by_zero_constant_term():
    one = jet_constant((0, 0), 1.0, 2)
    x = jet_variable((0, 0), "x", 2)  # constant term 0
    with pytest.raises(JetDomainError):
        one / x


def test_mismatched_base_point_and_order():
    a = jet_variable((0, 0), "x", 2)
    b = jet_variable((1, 0), "x", 2)
    with pytest.raises(JetError):
        a + b
    c = jet_variable((0, 0), "x", 3)
    with pytest.raises(JetError):
        a * c


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
    assert partial_derivative(x2 * y2, 1, 1) == 1.0

    with pytest.raises(JetError):
        partial_derivative(x2, 2, 1)


def test_derivative_jet_of_square():
    x = jet_variable((3, 7), "x", 3)
    sq = x * x
    d = sq.derivative("x")
    assert d.order == 2
    assert d.c(0, 0) == 6.0
    assert d.c(1, 0) == 2.0


def test_derivative_jet_zero_and_contract():
    y = jet_variable((0, 5), "y", 2)
    d = y.derivative("x")
    assert d.order == 1
    assert not d.coeffs.any()
    with pytest.raises(JetError):
        d.derivative("x")


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
            ab = a * b
            ba = b * a
            assert np.allclose(ab.coeffs, ba.coeffs, rtol=1e-12, atol=1e-12)
            left = ab * c
            right = a * (b * c)
            assert np.allclose(left.coeffs, right.coeffs, rtol=1e-12, atol=1e-12)


def test_derivative_jets_commute(rng):
    point = (1.1, 0.4)
    for _ in range(20):
        a = _random_jet(rng, point, 4)
        xy = a.derivative("x").derivative("y")
        yx = a.derivative("y").derivative("x")
        assert np.allclose(xy.coeffs, yx.coeffs, rtol=1e-15, atol=1e-15)


def test_mul_div_roundtrip(rng):
    point = (0.2, 0.9)
    for _ in range(20):
        a = _random_jet(rng, point, 4)
        b = _random_jet(rng, point, 4)
        if abs(b.c(0, 0)) < 0.1:
            continue
        back = a / b * b
        assert np.allclose(back.coeffs, a.coeffs, rtol=1e-10, atol=1e-10)


def test_integer_power_matches_repeated_mul():
    x = jet_variable((1.3, 0.2), "x", 3)
    cubed = jet_elementary("pow_const", x, 3.0)
    manual = x * x * x
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
        big * big
    with pytest.raises(JetDomainError):
        jet_elementary("exp", jet_constant((0, 0), 1e4, 2))
    with pytest.raises(JetDomainError):
        TaylorJet((0, 0), 1, np.array([[math.nan, 0.0], [0.0, 0.0]]))


def test_jets_are_immutable():
    j = jet_variable((0, 0), "x", 2)
    with pytest.raises((ValueError, AttributeError)):
        j.coeffs[0, 0] = 5.0


def test_truncate():
    x = jet_variable((1, 1), "x", 4)
    y = jet_variable((1, 1), "y", 4)
    p = (x + y) * (x + y) * (x + y)
    t = p.truncate(2)
    assert t.order == 2
    assert t.c(1, 1) == p.c(1, 1)
    with pytest.raises(JetError):
        t.truncate(4)


def test_tan_series_against_composition():
    # tan = sin/cos must agree with the direct series coefficients.
    x = jet_variable((0.4, 0.0), "x", 4)
    direct = jet_elementary("tan", x)
    quotient = jet_elementary("sin", x) / jet_elementary("cos", x)
    assert np.allclose(direct.coeffs, quotient.coeffs, rtol=1e-13, atol=1e-13)


def test_unknown_operation_names():
    a = jet_constant((0, 0), 1.0, 2)
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
        jets += [jets[1].derivative("y"), jets[1].truncate(order - 1)]
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
        jet_variable((0, 0), "x", 2) * jet_variable((1, 0), "x", 2)
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
        return _BINARY[op](a.truncate(n), b.truncate(n))
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
        return a.derivative(step[1]) if a.order > 1 else None
    if kind == "truncate":
        a = registers[step[2] % len(registers)]
        return a.truncate(step[1]) if step[1] <= a.order else None
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


def _lane_jets(entries, order):
    """The block jet whose entry (i, j) is the lane vector entries[i, j]
    (the float 0.0 where `entries` has none), its lane mask, and the
    point jet of each lane, whose entries are floats."""
    lanes = len(next(iter(entries.values())))
    block = Block(np.arange(lanes, dtype=float), np.zeros(lanes))
    ok = np.ones(lanes, dtype=bool)

    def table(entry):
        return [[entry(i, j) for j in range(order + 1 - i)] for i in range(order + 1)]

    def lane(k):
        return table(lambda i, j: float(entries[i, j][k]) if (i, j) in entries else 0.0)

    def vector(i, j):
        return np.array(entries[i, j], dtype=float) if (i, j) in entries else 0.0

    points = [_jet(lane(k), order, (float(k), 0.0)) for k in range(lanes)]
    return _jet(table(vector), order, block, ok), ok, points


def _assert_lane_bits(block_jet, k, point_jet):
    for row, point_row in zip(block_jet.table, point_jet.table, strict=True):
        for entry, value in zip(row, point_row, strict=True):
            lane = entry[k] if isinstance(entry, np.ndarray) else entry
            assert _bits(float(lane)) == _bits(value)


def test_a_power_whose_square_overflows_fails_its_point_and_only_its_lane():
    # At lane 0 the square holds inf at [2][0] and the cube multiplies it
    # by a[0][0] = 0.0: a float at the point, a lane vector in the block.
    block_jet, ok, points = _lane_jets({(0, 0): [0.0, 1.0], (1, 0): [1e300, 2.0]}, 2)
    with pytest.raises(JetDomainError, match="^non-finite coefficient produced by pow_const$"):
        points[0] ** 3.0
    with np.errstate(all="ignore"):
        cubed = block_jet**3.0
    assert ok.tolist() == [False, True]
    _assert_lane_bits(cubed, 1, points[1] ** 3.0)


def test_a_series_whose_horner_accumulator_overflows_fails_its_point_and_only_its_lane():
    # ln's fourth coefficient at 1e-80 is -inf; at lane 0 every other
    # entry is zero, a float at the point and a lane vector in the block.
    block_jet, ok, points = _lane_jets({(0, 0): [1e-80, 2.0], (1, 0): [0.0, 0.5]}, 4)
    with pytest.raises(JetDomainError, match="^non-finite coefficient produced by ln$"):
        jet_elementary("ln", points[0])
    with np.errstate(all="ignore"):
        logarithm = jet_elementary("ln", block_jet)
    assert ok.tolist() == [False, True]
    _assert_lane_bits(logarithm, 1, jet_elementary("ln", points[1]))


def test_a_quotient_with_signed_zero_entries_has_the_point_bits_in_every_lane():
    # (-0.0 - 1.0 * -0.0) is +0.0: a division that skipped the zero
    # factors would give -0.0 at the point and +0.0 in the block.
    entries = {(0, 0): [2.0, -3.0], (1, 0): [-0.0, 1.0], (0, 2): [0.0, -0.0], (2, 1): [-0.0, -0.0]}
    block_jet, ok, points = _lane_jets(entries, 4)
    quotient = block_jet / block_jet
    assert ok.tolist() == [True, True]
    for k, point in enumerate(points):
        _assert_lane_bits(quotient, k, point / point)


def test_numpy_float_power_and_sqrt_give_pythons_bits():
    # Powers and square roots over a block run numpy, at a point Python:
    # a numpy that rounds these differently must fail here, not move a
    # report.  Where Python raises OverflowError, float_power gives ±inf.
    rng = random.Random(6)
    magnitudes = [rng.uniform(1.0, 10.0) * 10.0 ** rng.randint(-320, 307) for _ in range(6000)]
    magnitudes += [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1.0, 1e103, 1.7976931348623157e308]
    for p in (3.0, 7.0, 2.0, -1.0, -2.0, 0.5, -0.5, 1.5, -1.5, 2.5, 0.3):
        bases = magnitudes + ([-v for v in magnitudes] if p.is_integer() else [])
        bases = [v for v in bases if v != 0.0 or p > 0.0]
        expected = []
        for v in bases:
            try:
                expected.append(v**p)
            except OverflowError:
                expected.append(math.copysign(math.inf, v) if p % 2.0 == 1.0 else math.inf)
        with np.errstate(over="ignore"):
            got = np.float_power(np.array(bases), p).tolist()
        assert [_bits(v) for v in got] == [_bits(v) for v in expected], p
    roots = magnitudes + [-0.0, math.inf]
    assert [_bits(v) for v in np.sqrt(np.array(roots)).tolist()] == [
        _bits(math.sqrt(v)) for v in roots
    ]


# ------------------------------------- the failure rule and the block runner


def test_fail_at_a_point_raises_the_factorys_error():
    fail(False, None, lambda: pytest.fail("the factory runs only on a failure"))
    with pytest.raises(ZeroDivisionError) as info:
        fail(True, None, lambda: ZeroDivisionError("the factory's text"))
    assert str(info.value) == "the factory's text"


def test_fail_clears_exactly_the_lanes_of_a_lane_vector():
    ok = np.array([True, True, False, True])
    fail(np.array([False, True, True, False]), ok, lambda: pytest.fail("called in a block"))
    assert ok.tolist() == [True, False, False, True]
    fail(False, ok, lambda: pytest.fail("called in a block"))
    assert ok.tolist() == [True, False, False, True]


def test_a_single_truth_value_fails_the_whole_block_without_the_factory():
    calls = []

    def factory():
        calls.append(1)
        return ValueError("never raised")

    block = Block([0.0, 1.0, 2.0], [0.0, 0.0, 0.0])
    with pytest.raises(JetDomainError):
        fail(True, np.ones(3, dtype=bool), factory)
    result, ok = block.run(lambda ok: fail(True, ok, factory))
    assert result is None
    assert ok.tolist() == [False, False, False]
    assert calls == []


def test_block_run_keeps_the_valid_lanes_and_stays_quiet():
    block = Block([0.0, 1.0, 2.0], [0.0, 0.0, 0.0])

    def kernel(ok):
        quotient = 1.0 / (block.x - 1.0)
        fail(~np.isfinite(quotient), ok, lambda: pytest.fail("called in a block"))
        return quotient

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result, ok = block.run(kernel)
        assert block.run(lambda ok: np.log(block.x - 5.0))[1].tolist() == [True] * 3
    assert ok.tolist() == [True, False, True]
    assert result[ok].tolist() == [-1.0, 1.0]


def test_block_run_lets_other_errors_through():
    block = Block([0.0, 1.0], [0.0, 0.0])
    with pytest.raises(JetError, match="order out of range") as info:
        block.run(lambda ok: jet_variable((0, 0), "x", 5))
    assert not isinstance(info.value, JetDomainError)
    with pytest.raises(JetError, match="order out of range"):
        block.evaluate(parse("x"), 5)

    def kernel(ok):
        raise TypeError("not a domain error")

    with pytest.raises(TypeError, match="not a domain error"):
        block.run(kernel)


def test_table_partial_skips_factorials_of_one_bit_for_bit():
    """A partial derivative multiplies its coefficient by i! and j! only
    where they exceed 1, with the bits of the full product ``c * i! * j!``,
    at a point and lane by lane."""
    rng = random.Random(22)
    pool = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 1.5, -2.75, 1e300, -8e307, 1.0 / 3.0]
    for order in range(1, 5):
        table = [[rng.choice(pool) for _ in range(order + 1 - i)] for i in range(order + 1)]
        lanes = [[np.array([rng.choice(pool) for _ in range(5)]) for _ in row] for row in table]
        for i in range(order + 1):
            for j in range(order + 1 - i):
                fi, fj = float(math.factorial(i)), float(math.factorial(j))
                assert _bits(table_partial(table, i, j)) == _bits(table[i][j] * fi * fj), (i, j)
                with np.errstate(over="ignore"):
                    got, full = table_partial(lanes, i, j), lanes[i][j] * fi * fj
                assert got.tobytes() == full.tobytes(), (i, j)


# ---------------------------------------- the quotient against its reference
#
# `div_table` skips a product with a float zero factor where the running
# value starts from a float other than -0.0.  The reference below is the
# quotient as it was before, which subtracts every product: the two must
# agree bit for bit wherever the reference's table is finite, at a point
# and lane by lane, and fail the same points and lanes elsewhere.


def reference_div_table(la, lb, n: int):
    b00 = lb[0][0]
    out = [[0.0] * (n + 1 - i) for i in range(n + 1)]
    out[0][0] = la[0][0] / b00
    for d in range(1, n + 1):
        for i in range(d + 1):
            j = d - i
            s = la[i][j]
            for p in range(i + 1):
                row_out = out[p]
                row_b = lb[i - p]
                for q in range(j + 1):
                    if p == i and q == j:
                        continue
                    s = s - row_out[q] * row_b[j - q]
            out[i][j] = s / b00
    return out


_QUOTIENT_POOL = [0.0, -0.0, 1.0, -1.0, 1e-300, 1e300, -1e300, 1.0 / 3.0]


def _checked(kernel, la, lb, n, ok):
    """(table, ok) after `kernel` and the check its callers make, or the
    error text where that check raises."""
    try:
        table = kernel(la, lb, n)
        return check_table(table, ok, "div"), ok
    except JetDomainError as exc:
        return str(exc), ok


def test_div_table_matches_its_reference_bit_for_bit():
    rng = random.Random(29)
    for trial in range(600):
        n = 1 + trial % 4
        lanes = rng.randint(1, 4)

        def entry(nonzero=False):
            pool = [v for v in _QUOTIENT_POOL if v != 0.0] if nonzero else _QUOTIENT_POOL
            if rng.random() < 0.5:
                return rng.choice(pool)
            return np.array([rng.choice(pool) for _ in range(lanes)])

        la = [[entry() for _ in range(n + 1 - i)] for i in range(n + 1)]
        lb = [[entry(i == j == 0) for j in range(n + 1 - i)] for i in range(n + 1)]

        def lane(table, k):
            return [[v if isinstance(v, float) else float(v[k]) for v in row] for row in table]

        with np.errstate(all="ignore"):
            for k in range(lanes):
                pa, pb = lane(la, k), lane(lb, k)
                got, _ = _checked(div_table, pa, pb, n, None)
                want, _ = _checked(reference_div_table, pa, pb, n, None)
                if isinstance(want, str):
                    assert got == want, (trial, k)
                else:
                    _assert_lane_bits(_jet(got, n, (0.0, 0.0)), 0, _jet(want, n, (0.0, 0.0)))
            got, got_ok = _checked(div_table, la, lb, n, np.ones(lanes, dtype=bool))
            want, want_ok = _checked(reference_div_table, la, lb, n, np.ones(lanes, dtype=bool))
        if isinstance(want, str):
            assert got == want, trial
            continue
        assert got_ok.tolist() == want_ok.tolist(), trial
        for k in np.flatnonzero(want_ok):
            _assert_lane_bits(_jet(got, n, (0.0, 0.0)), k, _jet(lane(want, k), n, (0.0, 0.0)))


def test_a_quotient_keeps_the_float_entries_of_its_operands():
    block = Block(np.linspace(0.0, 1.0, 7), np.linspace(1.0, 2.0, 7))
    table, ok = block.evaluate(parse("(0.3*x + 0.7*y)/4"), 4)
    assert ok.all()
    entries = [v for row in table for v in row]
    assert len(entries) == 15
    assert sum(isinstance(v, float) for v in entries) == 14


def test_a_derivative_shares_the_entries_whose_factor_is_one():
    block_jet, ok, points = _lane_jets(
        {(0, 0): [1.0, 2.0], (1, 0): [0.5, -0.0], (0, 1): [3.0, 0.25], (1, 1): [-1.0, 2.0],
         (2, 0): [0.0, 1e-300], (0, 2): [4.0, -4.0]},
        3,
    )
    for jet in [block_jet, *points]:
        before = [[np.copy(v) if isinstance(v, np.ndarray) else v for v in row] for row in jet.table]
        dx, dy = jet.derivative("x"), jet.derivative("y")
        assert all(a is b for a, b in zip(dx.table[0], jet.table[1], strict=True))
        assert all(row[0] is parent[1] for row, parent in zip(dy.table, jet.table))
        with np.errstate(all="ignore"):
            for d in (dx, dy):
                d * d, d / (d + 7.0), -d, jet_elementary("exp", d), d**3.0, d.derivative("x")
        for row, saved in zip(jet.table, before, strict=True):
            for v, w in zip(row, saved, strict=True):
                assert np.asarray(v).tobytes() == np.asarray(w).tobytes()


def test_a_derivative_whose_scaled_entry_overflows_fails_derivative_jet():
    # Row 1 of the x-derivative is 2 * 1e308 = inf at lane 0; row 0, the
    # shared row, is finite.
    block_jet, ok, points = _lane_jets({(0, 0): [1.0, 1.0], (2, 0): [1e308, 1.0]}, 2)
    with pytest.raises(JetDomainError, match="^non-finite coefficient produced by derivative_jet$"):
        points[0].derivative("x")
    with np.errstate(all="ignore"):
        block_jet.derivative("x")
    assert ok.tolist() == [False, True]
    block_jet, ok, points = _lane_jets({(0, 0): [1.0, 1.0], (0, 2): [1.0, -1e308]}, 2)
    with pytest.raises(JetDomainError, match="^non-finite coefficient produced by derivative_jet$"):
        points[1].derivative("y")
    with np.errstate(all="ignore"):
        block_jet.derivative("y")
    assert ok.tolist() == [True, False]
