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

A jet holds its coefficients as a table (see "lane tables" below) whose
entries are floats, for a jet at one point, or lane vectors holding one
value per point of a block of grid points.  The kernels (`mul_table`,
`div_table`, `compose_table`, `_integer_power`) work on such tables, and
each TaylorJet operator runs them once for a point or for a block: the
same float operations run for every point at once, and each point gets
the bits its own jet would.  Failures are per point: where a jet at a
point raises, a jet at a block clears that point's lane in a validity mask.
Transcendental constant terms are computed lane by lane with `math`,
whose rounding numpy's vectorized versions do not always match; powers
and square roots over lanes run `np.float_power` and `np.sqrt`, which
give the bits of Python's ``**`` and `math.sqrt`.  So a jet formula (the
order-4 to order-2 chain of the projective invariants) is written once
and runs at a point or at a block.

An entry that is the same at every point stays a float: products, quotients
and derivatives keep the float entries of their operands, and skip or share
exactly the float work that cannot change a bit (see `mul_table`,
`div_table` and `table_derivative`), so a block pays for a lane vector only
where the points differ.
"""

from __future__ import annotations

import importlib.util
import math
import operator
import sys
from itertools import repeat


def _lazy_numpy():
    """numpy, or while it is not yet imported a module that imports it on
    its first attribute access: a command that makes no lane vector never
    loads numpy.  After that access the module is numpy itself, so a
    lookup costs what it costs on a plain import."""
    numpy = sys.modules.get("numpy")
    if numpy is None:
        spec = importlib.util.find_spec("numpy")
        if spec is None:
            raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
        spec.loader = importlib.util.LazyLoader(spec.loader)
        numpy = importlib.util.module_from_spec(spec)
        sys.modules["numpy"] = numpy
        spec.loader.exec_module(numpy)
    return numpy


#: numpy for every module of the package; see _lazy_numpy.
np = _lazy_numpy()

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


class TaylorJet:
    """Immutable truncated Taylor expansion at a point of the plane, or at
    every point of a block of grid points.

    Attributes:
      table: the coefficient table (see "lane tables" below); row i holds
        the normalized coefficients of x^i y^j for j = 0..order-i, floats
        at a point, floats or lane vectors at a block.  No operation
        changes a table it is given.
      order: truncation order, between 1 and 4.
      base_point: the expansion point (x0, y0), or the
        :class:`~webgeo.exprlang.Block` whose points the lanes hold.
      ok: None at a point; at a block, the boolean lane mask that the jets
        of one computation share.

    The operators (+ - * / between jets or with a number, ``**`` a
    constant, :meth:`derivative`, :meth:`truncate`) run the table kernels
    and check that every coefficient is finite.  At a point a failure
    raises :class:`JetDomainError`; at a block it clears the failing
    lanes of `ok` instead (and raises when it holds at every point), and
    each lane gets the bits of the point computation.  A number operand
    stands for a constant jet: ``2.0 * a`` is ``a * constant(2.0)``.
    """

    __slots__ = ("table", "order", "base_point", "ok")

    def __new__(cls, base_point, order: int, coeffs):
        """The jet at `base_point` with the coefficients of the square
        array `coeffs`, of shape (order+1, order+1): entry [i, j] holds
        the coefficient of x^i y^j, and entries with i + j > order must be
        zero."""
        _check_order(order)
        point = (float(base_point[0]), float(base_point[1]))
        arr = np.array(coeffs, dtype=float)
        n = order
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
        return _jet([row[: n + 1 - i] for i, row in enumerate(arr.tolist())], n, point)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}: TaylorJet is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}: TaylorJet is immutable")

    def __reduce__(self):
        return (_jet, (self.table, self.order, self.base_point, self.ok))

    @property
    def coeffs(self) -> np.ndarray:
        """A fresh read-only array of shape (order+1, order+1) holding
        c[i][j] at [i, j] and zero where i + j > order (a jet at a point).
        Loads numpy if it is not loaded yet, as the constructor does; the
        jet operations at a point never need it."""
        if self.ok is not None:
            raise JetError("a jet over a block of points has no coefficient array")
        n = self.order
        arr = np.zeros((n + 1, n + 1))
        for i, row in enumerate(self.table):
            arr[i, : n + 1 - i] = row[: n + 1 - i]
        arr.setflags(write=False)
        return arr

    def c(self, i: int, j: int) -> float:
        """Normalized coefficient c[i][j]."""
        if i < 0 or j < 0 or i + j > self.order:
            raise JetError(f"coefficient ({i},{j}) outside jet of order {self.order}")
        return float(self.table[i][j])

    @property
    def value(self):
        """Value of the underlying function at the base point (a lane
        vector at a block)."""
        return self.table[0][0]

    def _coerce(self, other):
        if isinstance(other, TaylorJet):
            return other
        if isinstance(other, (int, float)):
            return _constant(other, self.order, self.base_point, self.ok)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is NotImplemented else _arith("+", self, other)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is NotImplemented else _arith("-", self, other)

    def __rsub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is NotImplemented else _arith("-", other, self)

    def __mul__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is NotImplemented else _arith("*", self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is NotImplemented else _arith("/", self, other)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is NotImplemented else _arith("/", other, self)

    def __neg__(self):
        return _arith("-", self._coerce(0.0), self)

    def __pow__(self, exponent):
        return jet_elementary("pow_const", self, float(exponent))

    def derivative(self, axis) -> "TaylorJet":
        """Jet of the partial derivative along `axis`, one order lower."""
        if self.order < 2:
            raise JetError("derivative_jet would drop the order below 1")
        table = table_derivative(self.table, axis, self.order)
        # Only the entries it multiplied by more than 1 can be new; the
        # others are this jet's own, which are checked.
        scaled = table[1:] if _as_axis(axis) == "x" else [row[1:] for row in table]
        check_table(scaled, self.ok, "derivative_jet")
        return _jet(table, self.order - 1, self.base_point, self.ok)

    def truncate(self, order: int) -> "TaylorJet":
        """Copy truncated to a lower (or equal) order."""
        _check_order(order)
        if order > self.order:
            raise JetError(f"cannot raise jet order from {self.order} to {order}")
        rows = [row[: order + 1 - i] for i, row in enumerate(self.table[: order + 1])]
        return _jet(rows, order, self.base_point, self.ok)

    def __repr__(self):
        return (
            f"TaylorJet(base_point={self.base_point}, order={self.order}, "
            f"value={self.value!r})"
        )


# The slots' own setters, which the immutable class's __setattr__ does not
# reach.
_SET_TABLE, _SET_ORDER, _SET_BASE, _SET_OK = (
    TaylorJet.__dict__[name].__set__ for name in TaylorJet.__slots__
)


def _jet(table, order: int, base_point, ok=None) -> TaylorJet:
    """The jet of a table that an operation made (see TaylorJet)."""
    jet = object.__new__(TaylorJet)
    _SET_TABLE(jet, table)
    _SET_ORDER(jet, order)
    _SET_BASE(jet, base_point)
    _SET_OK(jet, ok)
    return jet


def _constant(value, order: int, base_point, ok=None) -> TaylorJet:
    table = constant_table(value, order)
    check_table(table, None, "constant seed")
    return _jet(table, order, base_point, ok)


def jet_constant(point, value: float, order: int) -> TaylorJet:
    """Jet of the constant function `value`."""
    _check_order(order)
    return _constant(value, order, (float(point[0]), float(point[1])))


def jet_variable(point, axis, order: int) -> TaylorJet:
    """Jet of the coordinate function x or y at `point`."""
    _check_order(order)
    name = _as_axis(axis)
    point = (float(point[0]), float(point[1]))
    table = variable_table(point[0] if name == "x" else point[1], name, order)
    check_table(table, None, "coordinate seed")
    return _jet(table, order, point)


_CONTEXT = {"+": "add", "-": "sub", "*": "mul", "/": "div"}


def _arith(op: str, a: TaylorJet, b: TaylorJet) -> TaylorJet:
    """a op b for op one of + - * /: the arithmetic of every jet.  A zero
    constant term in a divisor is a singular point of the formula and
    fails it (:class:`JetDomainError` at a point)."""
    context = _CONTEXT[op]
    if a.order != b.order:
        raise JetError(f"{context}: mismatched jet orders {a.order} and {b.order}")
    if a.base_point != b.base_point:
        raise JetError(
            f"{context}: mismatched base points {a.base_point} and {b.base_point}"
        )
    table = table_arith(op, a.table, b.table, a.order, a.ok)
    check_table(table, a.ok, context)
    return _jet(table, a.order, a.base_point, a.ok)


def mul_table(la, lb, n: int):
    """Truncated Cauchy product of two coefficient tables of order n.

    Entries are floats or lane vectors.  A term with a float factor equal
    to zero, from either table, is skipped: a lane whose other factor is
    finite adds ±0.0 instead, which leaves every sum unchanged (a sum from
    +0.0 is never -0.0), so each lane gets the bits of a point product.
    Both tables must therefore be finite in every valid lane: the operands
    of `table_arith` are, and `compose_table` and `table_elementary` check
    each table they multiply.  Those checks move no failure: without the
    skip in `lb`, a non-finite entry of `la` meets b[0][0] (0.0 * inf is
    NaN) and reaches the final table, whose check fails the same way.
    `div_table` skips zero factors by a narrower rule, as its sums start
    from entries of the dividend, which may be -0.0.
    """
    out = [[0.0] * (n + 1 - i) for i in range(n + 1)]
    # The terms b[r][c] that are not a float zero, by degree r + c.
    terms_b = [
        (r, d - r, b)
        for d in range(n + 1)
        for r in range(d + 1)
        if not (type(b := lb[r][d - r]) is float and b == 0.0)
    ]
    for p in range(n + 1):
        row_a = la[p]
        for q in range(n + 1 - p):
            apq = row_a[q]
            if type(apq) is float and apq == 0.0:
                continue
            room = n - p - q
            for r, c, b in terms_b:
                if r + c > room:
                    break
                out[p + r][q + c] += apq * b
    return out


def div_table(la, lb, n: int):
    """Truncated quotient of two coefficient tables, solved degree by
    degree: out[i][j] is la[i][j] minus the products out[p][q] *
    lb[i-p][j-q], (p, q) in lexicographic order, divided by lb[0][0].  The
    divisor's constant term must be nonzero, `lb` must be finite in every
    valid lane, and the caller checks the result (as `_arith`, the walker
    and `table_elementary` do).

    A product with a float zero factor is skipped where la[i][j] is a
    float other than -0.0, so the quotient keeps the float entries of its
    operands: ``(0.3*x + 0.7*y)/4`` holds one lane vector, not fifteen.
    The skip changes no bit of a point or a lane:
    - ``s - (±0.0)`` is `s` unless `s` is -0.0, and a difference is -0.0
      only as ``(-0.0) - (+0.0)``, so a running value that does not start
      at -0.0 never becomes -0.0;
    - a skipped product is ±0.0 unless its other factor is not finite;
      as `lb` is finite, that factor is out[p][q], a non-finite entry of
      the result, which the caller's check fails at that point or lane
      with the text it would give without the skip.
    Where la[i][j] is -0.0, or a lane vector (which may hold -0.0 in some
    lane), every product is subtracted: -0.0 minus a product -0.0 is +0.0.
    """
    b00 = lb[0][0]
    plan, rows = _QUOTIENT_PLANS[n]
    a = [v for row in la for v in row]
    b = [v for row in lb for v in row]
    out = [0.0] * len(a)
    # b and out with None for each float zero: the factors a skip drops.
    sparse_b = [None if type(v) is float and v == 0.0 else v for v in b]
    sparse_out = [None] * len(a)
    for k, terms in plan:
        s = a[k]
        if type(s) is float and (s != 0.0 or math.copysign(1.0, s) > 0.0):
            factors_out, factors_b = sparse_out, sparse_b
        else:
            factors_out, factors_b = out, b
        for ko, kb in terms:
            u = factors_out[ko]
            if u is not None:
                w = factors_b[kb]
                if w is not None:
                    s = s - u * w
        v = out[k] = s / b00
        if not (type(v) is float and v == 0.0):
            sparse_out[k] = v
    return [out[lo:hi] for lo, hi in rows]


def _quotient_plan(n: int):
    """The order of `div_table`'s work on flattened tables of order n:
    [(k, [(ko, kb), ...]), ...] with k the index of (i, j), degree by
    degree, and ko, kb those of out[p][q] and lb[i-p][j-q]; and the
    (start, stop) of each row."""
    index, rows = {}, []
    for i in range(n + 1):
        start = len(index)
        for j in range(n + 1 - i):
            index[i, j] = len(index)
        rows.append((start, len(index)))
    plan = []
    for d in range(n + 1):
        for i in range(d + 1):
            j = d - i
            terms = [
                (index[p, q], index[i - p, j - q])
                for p in range(i + 1)
                for q in range(j + 1)
                if (p, q) != (i, j)
            ]
            plan.append((index[i, j], terms))
    return plan, rows


_QUOTIENT_PLANS = {n: _quotient_plan(n) for n in range(1, MAX_ORDER + 1)}


def compose_table(h, series, n: int, ok, context: str):
    """Table of g(a) given the univariate Taylor coefficients of g at a's
    constant term, where `h` is a's table with its constant term zeroed
    (Horner evaluation).  The accumulator is checked before each product
    (see `mul_table`); `table_elementary` checks the result."""
    acc = [[0.0] * (n + 1 - i) for i in range(n + 1)]
    acc[0][0] = series[n]
    for k in range(n - 1, -1, -1):
        acc = mul_table(check_table(acc, ok, context), h, n)
        acc[0][0] = acc[0][0] + series[k]
    return acc


def per_lane(fn, *args):
    """fn(*args) for floats; otherwise fn called once per lane, a float
    among lane vectors standing for every lane.

    Lane-by-lane calls keep every lane bitwise equal to the single-point
    result where numpy's vectorized transcendentals round differently
    from `math`.
    """
    if all(isinstance(a, float) for a in args):
        return fn(*args)
    lanes = [repeat(a) if isinstance(a, float) else a.tolist() for a in args]
    count = next(len(a) for a in args if not isinstance(a, float))
    return np.fromiter(map(fn, *lanes), dtype=float, count=count)


def per_lane_or_nan(fn, u):
    """fn at u lane by lane (see `per_lane`), and NaN where `math` raises
    (exp past its range, sin of inf), so the caller's non-finite check
    fails that lane as the float path raises, and the error does not
    escape :meth:`~webgeo.exprlang.Block.run`.  A block where fn raises
    nowhere pays for no guard."""
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


def _exp_or_inf(u: float) -> float:
    try:
        return math.exp(u)
    except OverflowError:
        return math.inf


def _power_or_inf(v, p: float):
    """v**p for v inside the power's domain.  For a float, Python's power,
    or inf where it raises OverflowError, so the caller's finiteness check
    fails it; for a lane vector, ``np.float_power``, which runs the same
    libm ``pow`` and so gives every lane the float's bits (±inf where
    Python raises)."""
    if not isinstance(v, float):
        return np.float_power(v, p)
    try:
        return v**p
    except OverflowError:
        return math.inf


def _series(fn: str, u, n: int, p: float | None = None):
    """Univariate Taylor coefficients of an elementary function at u, a
    float or a lane vector inside the function's domain."""
    if fn == "sqrt":
        # np.sqrt is correctly rounded, as IEEE requires of math.sqrt too
        coeffs = [math.sqrt(u) if isinstance(u, float) else np.sqrt(u)]
        p = 0.5
    elif fn == "pow_const":
        coeffs = [_power_or_inf(u, p)]
    elif fn == "exp":
        e = _exp_or_inf(u) if isinstance(u, float) else per_lane_or_nan(math.exp, u)
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
    table = table_elementary(fn, a.table, a.order, a.ok, exponent)
    return _jet(table, a.order, a.base_point, a.ok)


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
    return table_partial(a.table, i, j)


# ------------------------------------------------------------ lane tables
#
# A block of points is evaluated once for all its points.  A coefficient
# table is a list of rows whose entries are floats (the same value at every
# point) or lane vectors (one value per point); row i holds the
# coefficients of x^i y^j for j = 0..order-i.  Every check that fails a
# point goes through `fail`: where the single-point path raises, a table
# operation clears that point's lane in the boolean mask `ok` instead, and
# the lane then holds an arbitrary value that is never read.  A check on a
# float entry fails every point of the block at once.  Code that takes a
# float or a lane vector tests for the float first (``isinstance(v, float)``,
# true of numpy's float64 too), so a computation at a point never loads
# numpy.


def fail(bad, ok, error):
    """The failure rule of every computation at a point or a block: at a
    point (`ok` None) raise ``error()`` if `bad`; in a block clear the
    lanes of `ok` where the lane vector `bad` holds, or, for a `bad` that
    is one truth value for every point, fail them all with a plain
    :class:`JetDomainError`.  In a block ``error`` is never called."""
    if ok is None:
        if bad:
            raise error()
    elif isinstance(bad, np.ndarray):
        ok &= ~bad
    elif bad:
        raise JetDomainError("fails at every point of the block")


def _non_finite(v):
    return not math.isfinite(v) if isinstance(v, float) else ~np.isfinite(v)


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
    """Clear the lanes holding a non-finite coefficient; raise when a float
    entry is not finite.  Returns the table."""
    for row in table:
        for v in row:
            if isinstance(v, float):
                if v - v != 0.0:
                    raise JetDomainError(f"non-finite coefficient produced by {context}")
            else:
                ok &= np.isfinite(v)
    return table


def table_arith(op: str, a, b, order: int, ok):
    """a op b for op one of + - * /."""
    if op == "+":
        return [[u + v for u, v in zip(ra, rb)] for ra, rb in zip(a, b)]
    if op == "-":
        return [[u - v for u, v in zip(ra, rb)] for ra, rb in zip(a, b)]
    if op == "*":
        return mul_table(a, b, order)
    message = "division by a jet with zero constant term"
    fail(b[0][0] == 0.0, ok, lambda: JetDomainError(message))
    return div_table(a, b, order)


def table_elementary(fn: str, a, order: int, ok, exponent: float | None = None):
    """Table of an elementary function (or pow_const) of a table, checked:
    every table it makes is checked once, with `fn` as the context."""
    u = a[0][0]
    p = None
    if fn == "pow_const":
        p = float(exponent)
        if p.is_integer():
            k = int(p)
            if k < 0:
                message = "negative power of a jet with zero constant term"
                fail(u == 0.0, ok, lambda: JetDomainError(message))
            # Each power is checked before it is multiplied (see mul_table).
            return _integer_power(
                a,
                k,
                constant_table(1.0, order),
                lambda s, t: check_table(mul_table(s, t, order), ok, fn),
                lambda s, t: check_table(div_table(s, t, order), ok, fn),
            )
    # Valid lanes hold finite values, so u <= 0.0 is where u > 0.0 fails.
    if fn == "pow_const":
        needs = f"pow_const with non-integer exponent {p!r} needs a positive constant term"
        fail(u <= 0.0, ok, lambda: JetDomainError(f"{needs}, got {u!r}"))
    elif fn in ("sqrt", "ln"):
        fail(u <= 0.0, ok, lambda: JetDomainError(f"{fn} of non-positive constant term {u!r}"))
    if not isinstance(u, float):
        u = np.where(ok, u, 1.0)
    series = _series(fn, u, order, p)
    overflow = "exp overflow" if fn == "exp" else f"{fn} undefined"
    fail(_non_finite(series[0]), ok, lambda: JetDomainError(f"{overflow} at constant term {u!r}"))
    h = [list(row) for row in a]
    h[0][0] = 0.0
    return check_table(compose_table(h, series, order, ok, fn), ok, fn)


def table_derivative(table, axis: str, order: int):
    """Table of the partial derivative along `axis`, one order lower.

    The entries whose factor is 1, row 0 of an x-derivative and column 0
    of a y-derivative, are the entries of `table` themselves: ``1 * v``
    is `v` for every float.  Only the others are new, so a caller that
    knows `table` is checked checks only those."""
    m = order - 1
    if _as_axis(axis) == "x":
        return [table[1][: m + 1]] + [
            [(i + 1) * table[i + 1][j] for j in range(m + 1 - i)] for i in range(1, m + 1)
        ]
    return [
        [table[i][1]] + [(j + 1) * table[i][j + 1] for j in range(1, m + 1 - i)]
        for i in range(m + 1)
    ]


def take_lanes(value, ok):
    """The lanes of `value` where `ok`, as a lane vector (floats broadcast)."""
    if isinstance(value, np.ndarray):
        return value[ok]
    return np.full(int(np.count_nonzero(ok)), value)


def table_partial(table, i: int, j: int):
    """The raw partial derivative d^{i+j}/dx^i dy^j, as `partial_derivative`.

    Only factorials above 1 multiply: ``v * 1.0`` is `v`, bit for bit, for
    every v that is not NaN, and a valid entry is finite."""
    value = table[i][j]
    if i > 1:
        value = value * _FACTORIAL[i]
    if j > 1:
        value = value * _FACTORIAL[j]
    return value
