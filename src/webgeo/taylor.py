"""Truncated bivariate Taylor expansions ("jets") of scalar fields.

A :class:`TaylorJet` stores the normalized Taylor coefficients

    c[i][j] = (d^{i+j} f / dx^i dy^j)(x0, y0) / (i! * j!)

of a smooth function at a base point, for every i + j <= order with the
order between 1 and 4.  Arithmetic between jets is exact up to truncation,
so all partial derivatives through order 4 are available without symbolic
differentiation and without finite differences.

Coefficients are kept in Taylor form (divided by factorials) so that the
truncated product is a plain 2-d convolution.  Division and the elementary
functions are computed by composing with the univariate Taylor expansion of
the outer function at the jet's constant term.  Any operation that would
produce a NaN or infinite coefficient raises immediately; non-finite values
are never stored.

The kernels (`mul_table`, `div_table`, `compose_table`, `_integer_power`)
work on coefficient tables whose entries are floats, for one jet, or lane
vectors holding one value per point of a block of grid points.  Grid
commands evaluate blocks: the same float operations run for every point
at once, and each point gets the bits its single jet would.  Failures are
per point: where a single jet raises, the block clears that point's lane
in a validity mask (see "lane tables" below).  Transcendental constant
terms and Python powers are computed lane by lane with `math` and Python
floats, whose rounding numpy's vectorized versions do not always match.
:class:`TableJet` gives a coefficient table the operators of TaylorJet,
so a jet formula (the order-4 to order-2 chain of the projective
invariants) is written once and runs at one point or at a block.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

MAX_ORDER = 4

_FACTORIAL = (1.0, 1.0, 2.0, 6.0, 24.0)


class JetError(ValueError):
    """Violation of a jet arithmetic contract (orders, base points, ranges)."""


class JetDomainError(JetError):
    """An elementary function was applied outside its domain, or an
    operation produced a non-finite coefficient."""


def _as_axis(axis) -> str:
    name = str(axis).lower()
    if name not in ("x", "y"):
        raise JetError(f"axis must be 'x' or 'y', got {axis!r}")
    return name


def _check_order(order: int) -> int:
    if not isinstance(order, int) or isinstance(order, bool):
        raise JetError(f"order must be an integer, got {order!r}")
    if not 1 <= order <= MAX_ORDER:
        raise JetError(f"order out of range: {order} (must be 1..{MAX_ORDER})")
    return order


@dataclass(frozen=True, eq=False)
class TaylorJet:
    """Immutable truncated Taylor expansion at a point of the plane.

    Attributes:
      base_point: the expansion point (x0, y0).
      order: truncation order, between 1 and 4.
      coeffs: square array of shape (order+1, order+1); entry [i, j] holds
        the normalized coefficient for x^i y^j, entries with i + j > order
        are zero.
    """

    base_point: tuple[float, float]
    order: int
    coeffs: np.ndarray

    def __post_init__(self):
        _check_order(self.order)
        point = (float(self.base_point[0]), float(self.base_point[1]))
        arr = np.array(self.coeffs, dtype=float)
        n = self.order
        if arr.shape != (n + 1, n + 1):
            raise JetError(
                f"coefficient table must have shape {(n + 1, n + 1)}, got {arr.shape}"
            )
        for i in range(n + 1):
            for j in range(n + 1):
                if i + j > n and arr[i, j] != 0.0:
                    raise JetError("coefficients beyond the truncation order must be zero")
        if not np.isfinite(arr).all():
            raise JetDomainError("jet holds a non-finite coefficient")
        arr.setflags(write=False)
        object.__setattr__(self, "base_point", point)
        object.__setattr__(self, "coeffs", arr)

    @property
    def n_coefficients(self) -> int:
        """Number of stored coefficients, (order+1)(order+2)/2."""
        return (self.order + 1) * (self.order + 2) // 2

    def c(self, i: int, j: int) -> float:
        """Normalized coefficient c[i][j]."""
        if i < 0 or j < 0 or i + j > self.order:
            raise JetError(f"coefficient ({i},{j}) outside jet of order {self.order}")
        return float(self.coeffs[i, j])

    @property
    def value(self) -> float:
        """Value of the underlying function at the base point."""
        return float(self.coeffs[0, 0])

    def _coerce(self, other):
        if isinstance(other, TaylorJet):
            return other
        if isinstance(other, (int, float)):
            return jet_constant(self.base_point, float(other), self.order)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is NotImplemented else jet_add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is NotImplemented else jet_sub(self, other)

    def __rsub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is NotImplemented else jet_sub(other, self)

    def __mul__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is NotImplemented else jet_mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is NotImplemented else jet_div(self, other)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is NotImplemented else jet_div(other, self)

    def __neg__(self):
        return jet_constant(self.base_point, 0.0, self.order) - self

    def __pow__(self, exponent):
        return jet_elementary("pow_const", self, float(exponent))

    def __repr__(self):
        return (
            f"TaylorJet(base_point={self.base_point}, order={self.order}, "
            f"value={self.value!r})"
        )


def _finish(point, order, coeffs, context: str) -> TaylorJet:
    """Internal constructor for arithmetic results.

    The coefficient layout is trusted (correct shape, zero truncation tail),
    so only the finiteness guard runs; full validation stays in the public
    constructor.
    """
    if not np.isfinite(coeffs).all():
        raise JetDomainError(f"non-finite coefficient produced by {context}")
    return _wrap(point, order, coeffs)


def _wrap(point, order, coeffs) -> TaylorJet:
    jet = object.__new__(TaylorJet)
    coeffs.setflags(write=False)
    object.__setattr__(jet, "base_point", point)
    object.__setattr__(jet, "order", order)
    object.__setattr__(jet, "coeffs", coeffs)
    return jet


def jet_constant(point, value: float, order: int) -> TaylorJet:
    """Jet of the constant function `value`."""
    _check_order(order)
    point = (float(point[0]), float(point[1]))
    coeffs = np.zeros((order + 1, order + 1))
    coeffs[0, 0] = float(value)
    return _finish(point, order, coeffs, "constant seed")


def jet_variable(point, axis, order: int) -> TaylorJet:
    """Jet of the coordinate function x or y at `point`."""
    _check_order(order)
    name = _as_axis(axis)
    point = (float(point[0]), float(point[1]))
    coeffs = np.zeros((order + 1, order + 1))
    coeffs[0, 0] = point[0] if name == "x" else point[1]
    if name == "x":
        coeffs[1, 0] = 1.0
    else:
        coeffs[0, 1] = 1.0
    return _finish(point, order, coeffs, "coordinate seed")


def _check_compatible(a: TaylorJet, b: TaylorJet, op: str):
    if a.order != b.order:
        raise JetError(f"{op}: mismatched jet orders {a.order} and {b.order}")
    if a.base_point != b.base_point:
        raise JetError(
            f"{op}: mismatched base points {a.base_point} and {b.base_point}"
        )


def jet_add(a: TaylorJet, b: TaylorJet) -> TaylorJet:
    _check_compatible(a, b, "add")
    return _finish(a.base_point, a.order, a.coeffs + b.coeffs, "add")


def jet_sub(a: TaylorJet, b: TaylorJet) -> TaylorJet:
    _check_compatible(a, b, "sub")
    return _finish(a.base_point, a.order, a.coeffs - b.coeffs, "sub")


def mul_table(la, lb, n: int):
    """Truncated Cauchy product of two coefficient tables of order n.

    Entries are floats or lane vectors.  A float entry of `la` equal to
    zero is skipped; a lane that holds zero adds +0.0 instead, which leaves
    every accumulated sum unchanged, so each lane gets the same bits as a
    single-point product.
    """
    out = [[0.0] * (n + 1) for _ in range(n + 1)]
    for p in range(n + 1):
        row_a = la[p]
        for q in range(n + 1 - p):
            apq = row_a[q]
            if type(apq) is float and apq == 0.0:
                continue
            for i in range(p, n + 1):
                row_b = lb[i - p]
                row_out = out[i]
                for j in range(q, n + 1 - i):
                    row_out[j] += apq * row_b[j - q]
    return out


def div_table(la, lb, n: int):
    """Truncated quotient of two coefficient tables, solved degree by
    degree.  The divisor's constant term must be nonzero (callers check)."""
    b00 = lb[0][0]
    out = [[0.0] * (n + 1) for _ in range(n + 1)]
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


def compose_table(h, series, n: int):
    """Table of g(a) given the univariate Taylor coefficients of g at a's
    constant term, where `h` is a's table with its constant term zeroed
    (Horner evaluation)."""
    acc = [[0.0] * (n + 1) for _ in range(n + 1)]
    acc[0][0] = series[n]
    for k in range(n - 1, -1, -1):
        acc = mul_table(acc, h, n)
        acc[0][0] = acc[0][0] + series[k]
    return acc


def per_lane(fn, *args):
    """fn(*args) for floats; for lane vectors, fn called once per lane.

    Lane-by-lane calls keep every lane bitwise equal to the single-point
    result where numpy's vectorized transcendentals and powers round
    differently from `math` and Python floats.
    """
    if isinstance(args[0], np.ndarray):
        return np.array(list(map(fn, *(a.tolist() for a in args))), dtype=float)
    return fn(*args)


def _exp_or_inf(u: float) -> float:
    try:
        return math.exp(u)
    except OverflowError:
        return math.inf


def _series(fn: str, u, n: int, p: float | None = None):
    """Univariate Taylor coefficients of an elementary function at u, a
    float or a lane vector inside the function's domain."""
    if fn == "sqrt":
        coeffs = [per_lane(math.sqrt, u)]
        p = 0.5
    elif fn == "pow_const":
        coeffs = [per_lane(lambda v: v**p, u)]
    elif fn == "exp":
        e = per_lane(_exp_or_inf, u)
        return [e / _FACTORIAL[k] for k in range(n + 1)]
    elif fn == "ln":
        coeffs = [per_lane(math.log, u), 1.0 / u]
        for k in range(2, n + 1):
            coeffs.append(-coeffs[-1] * (k - 1) / (k * u))
        return coeffs[: n + 1]
    elif fn in ("sin", "cos"):
        s, c = per_lane(math.sin, u), per_lane(math.cos, u)
        cycle = (s, c, -s, -c) if fn == "sin" else (c, -s, -c, s)
        return [cycle[k % 4] / _FACTORIAL[k] for k in range(n + 1)]
    elif fn == "tan":
        t = per_lane(math.tan, u)
        t2 = t * t
        coeffs = [
            t,
            1.0 + t2,
            t + t * t2,
            (1.0 + 4.0 * t2 + 3.0 * t2 * t2) / 3.0,
            (2.0 * t + 5.0 * t * t2 + 3.0 * t * t2 * t2) / 3.0,
        ]
        return coeffs[: n + 1]
    else:
        raise JetError(f"unknown elementary function {fn!r}")
    for k in range(1, n + 1):
        coeffs.append(coeffs[-1] * (p - k + 1) / (k * u))
    return coeffs


def jet_mul(a: TaylorJet, b: TaylorJet) -> TaylorJet:
    """Truncated Cauchy product of two jets."""
    _check_compatible(a, b, "mul")
    n = a.order
    out = mul_table(a.coeffs.tolist(), b.coeffs.tolist(), n)
    return _finish(a.base_point, n, np.array(out), "mul")


def jet_div(a: TaylorJet, b: TaylorJet) -> TaylorJet:
    """Truncated quotient, solved degree by degree.

    A zero constant term in the divisor signals a singular point of the
    formula being evaluated and raises :class:`JetDomainError`.
    """
    _check_compatible(a, b, "div")
    n = a.order
    if float(b.coeffs[0, 0]) == 0.0:
        raise JetDomainError("division by a jet with zero constant term")
    out = div_table(a.coeffs.tolist(), b.coeffs.tolist(), n)
    return _finish(a.base_point, n, np.array(out), "div")


_ARITH = {"add": jet_add, "sub": jet_sub, "mul": jet_mul, "div": jet_div}


def jet_arith(operation: str, a: TaylorJet, b: TaylorJet) -> TaylorJet:
    """Dispatch one of the four arithmetic operations by name."""
    try:
        fn = _ARITH[operation]
    except KeyError:
        raise JetError(f"unknown jet operation {operation!r}") from None
    return fn(a, b)


def _integer_power(value, n: int, one, mul=operator.mul, div=operator.truediv):
    """value**n by binary exponentiation.  Works for floats, jets and
    coefficient tables alike, so every evaluation path shares the exact
    same sequence of float ops.

    The exponent's bits are read most significant first: square, then
    multiply by `value` for a one bit.  A loop, so exponents of any size
    (``x^1e300``) cost one step per bit and no recursion.
    """
    if n == 0:
        return one
    if n < 0:
        value, n = div(one, value), -n
    result = value
    for bit in bin(n)[3:]:
        result = mul(result, result)
        if bit == "1":
            result = mul(result, value)
    return result


def jet_elementary(fn: str, a: TaylorJet, exponent: float | None = None) -> TaylorJet:
    """Apply an elementary function (sqrt, exp, ln, sin, cos, tan), or
    pow_const with a constant real exponent, to a jet.

    Integer exponents go through binary exponentiation (valid wherever the
    jet itself is, including zero constant terms for non-negative powers);
    fractional exponents require a positive constant term.
    """
    if fn == "pow_const" and exponent is None:
        raise JetError("pow_const requires an exponent")
    table = table_elementary(fn, a.coeffs.tolist(), a.order, None, exponent)
    check_table(table, None, fn)
    return jet_from_table(a.base_point, a.order, table)


def check_derivative_index(i: int, j: int, order: int):
    """Raise :class:`JetError` unless d^{i+j}/dx^i dy^j fits a jet of `order`."""
    if i < 0 or j < 0:
        raise JetError("derivative multi-index must be non-negative")
    if i + j > order:
        raise JetError(
            f"derivative order {i}+{j} exceeds jet order {order}"
        )


def partial_derivative(a: TaylorJet, i: int, j: int) -> float:
    """The raw partial derivative d^{i+j} f / dx^i dy^j at the base point."""
    if i < 0 or j < 0 or i + j > a.order:
        check_derivative_index(i, j, a.order)
    return float(a.coeffs[i, j]) * _FACTORIAL[i] * _FACTORIAL[j]


def derivative_jet(a: TaylorJet, axis) -> TaylorJet:
    """Jet of the partial derivative of `a` along `axis`, one order lower."""
    if a.order < 2:
        raise JetError("derivative_jet would drop the order below 1")
    table = table_derivative(a.coeffs.tolist(), axis, a.order)
    check_table(table, None, "derivative_jet")
    return jet_from_table(a.base_point, a.order - 1, table)


def truncate_jet(a: TaylorJet, order: int) -> TaylorJet:
    """Copy of `a` truncated to a lower (or equal) order."""
    _check_order(order)
    if order > a.order:
        raise JetError(f"cannot raise jet order from {a.order} to {order}")
    out = np.array(a.coeffs[: order + 1, : order + 1])
    for i in range(order + 1):
        for j in range(order + 1):
            if i + j > order:
                out[i, j] = 0.0
    return _finish(a.base_point, order, out, "truncate")


# ------------------------------------------------------------ lane tables
#
# A block of points is evaluated once for all its points.  A coefficient
# table is a list of rows whose entries are floats (the same value at every
# point) or lane vectors (one value per point); row i holds the
# coefficients of x^i y^j for j = 0..order-i.  Where the single-point path
# raises, a table operation clears that point's lane in the boolean mask
# `ok` instead; the lane then holds an arbitrary value that is never read.
# An operation that fails at every point (a float operand out of domain)
# raises :class:`JetDomainError` as the single-point path does.


def _require(good, ok, message: str, *value):
    """Clear the lanes of `ok` where `good` is False; raise, naming the
    offending value, when it is False at every point."""
    if isinstance(good, np.ndarray):
        ok &= good
    elif not good:
        raise JetDomainError(" ".join([message, *map(repr, value)]))


def _is_finite(v):
    return np.isfinite(v) if isinstance(v, np.ndarray) else math.isfinite(v)


def constant_table(value: float, order: int):
    table = [[0.0] * (order + 1 - i) for i in range(order + 1)]
    table[0][0] = float(value)
    return table


def variable_table(lanes, axis: str, order: int):
    """Table of the coordinate function x or y, valued `lanes` at the points."""
    table = constant_table(0.0, order)
    table[0][0] = lanes
    if _as_axis(axis) == "x":
        table[1][0] = 1.0
    else:
        table[0][1] = 1.0
    return table


def check_table(table, ok, context: str):
    """Clear the lanes holding a non-finite coefficient, as `_finish` raises."""
    for row in table:
        for v in row:
            if isinstance(v, np.ndarray):
                ok &= np.isfinite(v)
            elif v - v != 0.0:
                raise JetDomainError(f"non-finite coefficient produced by {context}")


def jet_from_table(point, order: int, table) -> TaylorJet:
    """The jet at `point` whose table of finite floats is `table`."""
    rows = [list(row[: order + 1 - i]) + [0.0] * i for i, row in enumerate(table)]
    return _wrap(point, order, np.array(rows))


def table_arith(op: str, a, b, order: int, ok):
    """a op b for op one of + - * /."""
    if op == "+":
        return [[u + v for u, v in zip(ra, rb)] for ra, rb in zip(a, b)]
    if op == "-":
        return [[u - v for u, v in zip(ra, rb)] for ra, rb in zip(a, b)]
    if op == "*":
        return mul_table(a, b, order)
    if op == "/":
        _require(b[0][0] != 0.0, ok, "division by a jet with zero constant term")
        return div_table(a, b, order)
    raise JetError(f"unknown jet operation {op!r}")


def table_elementary(fn: str, a, order: int, ok, exponent: float | None = None):
    """Table of an elementary function (or pow_const) of a table."""
    u = a[0][0]
    p = None
    if fn == "pow_const":
        p = float(exponent)
        if p.is_integer():
            k = int(p)
            if k < 0:
                _require(u != 0.0, ok, "negative power of a jet with zero constant term")
            return _integer_power(
                a,
                k,
                constant_table(1.0, order),
                lambda s, t: mul_table(s, t, order),
                lambda s, t: div_table(s, t, order),
            )
    if fn == "pow_const":
        _require(
            u > 0.0,
            ok,
            f"pow_const with non-integer exponent {p!r} needs a positive constant term, got",
            u,
        )
    elif fn in ("sqrt", "ln"):
        _require(u > 0.0, ok, f"{fn} of non-positive constant term", u)
    if isinstance(u, np.ndarray):
        u = np.where(ok, u, 1.0)
    series = _series(fn, u, order, p)
    overflow = "exp overflow" if fn == "exp" else f"{fn} undefined"
    _require(_is_finite(series[0]), ok, f"{overflow} at constant term", u)
    h = [list(row) for row in a]
    h[0][0] = 0.0
    return compose_table(h, series, order)


def table_derivative(table, axis: str, order: int):
    """Table of the partial derivative along `axis`, one order lower."""
    m = order - 1
    if _as_axis(axis) == "x":
        return [[(i + 1) * table[i + 1][j] for j in range(m + 1 - i)] for i in range(m + 1)]
    return [[(j + 1) * table[i][j + 1] for j in range(m + 1 - i)] for i in range(m + 1)]


_CONTEXT = {"+": "add", "-": "sub", "*": "mul", "/": "div"}


class TableJet:
    """A jet held as a coefficient table, with the arithmetic of
    :class:`TaylorJet`.

    Each operator runs the kernel and the finiteness check that the
    TaylorJet operator runs, on float entries (one point) or lane vectors
    (a block), so each lane gets the bits of the TaylorJet computation.
    Where the TaylorJet operator raises :class:`JetDomainError`, this one
    clears the point's lane in the shared mask `ok`, or raises the same
    error when `ok` is None (one point).  A number operand stands for a
    constant jet: ``2.0 * a`` is ``a * constant(2.0)``, as for TaylorJet.
    """

    __slots__ = ("table", "order", "ok")

    def __init__(self, table, order: int, ok=None):
        self.table = table
        self.order = order
        self.ok = ok

    def _arith(self, op: str, other) -> "TableJet":
        if not isinstance(other, TableJet):
            other = TableJet(constant_table(other, self.order), self.order, self.ok)
        table = table_arith(op, self.table, other.table, self.order, self.ok)
        check_table(table, self.ok, _CONTEXT[op])
        return TableJet(table, self.order, self.ok)

    def __add__(self, other):
        return self._arith("+", other)

    def __sub__(self, other):
        return self._arith("-", other)

    def __mul__(self, other):
        return self._arith("*", other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._arith("/", other)

    @property
    def value(self):
        return self.table[0][0]

    def derivative(self, axis) -> "TableJet":
        """As :func:`derivative_jet`: the jet of d/d`axis`, one order lower."""
        table = table_derivative(self.table, axis, self.order)
        check_table(table, self.ok, "derivative_jet")
        return TableJet(table, self.order - 1, self.ok)

    def truncate(self, order: int) -> "TableJet":
        """As :func:`truncate_jet` (its entries are already checked)."""
        rows = [row[: order + 1 - i] for i, row in enumerate(self.table[: order + 1])]
        return TableJet(rows, order, self.ok)


def take_lanes(value, ok):
    """The lanes of `value` where `ok`, as a lane vector (floats broadcast)."""
    if isinstance(value, np.ndarray):
        return value[ok]
    return np.full(int(np.count_nonzero(ok)), value)


def table_partial(table, i: int, j: int):
    """The raw partial derivative d^{i+j}/dx^i dy^j, as `partial_derivative`."""
    return table[i][j] * _FACTORIAL[i] * _FACTORIAL[j]
