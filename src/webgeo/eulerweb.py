"""Linear webs via the Euler equation and the method of characteristics.

A planar web is linear (all leaves straight) exactly when each web function
satisfies Flex f = 0.  Passing to the slope invariant w = f_x / f_y reduces
that fourth-order-looking condition to the classical Euler equation

    w_x - w w_y = 0,

whose solutions are transported unchanged along straight characteristics:
given Cauchy data w0 on the line x = 0, the solution at (x, y) is w0(lam)
for every root lam of

    g(lam) = y + w0(lam) x - lam = 0,

and the characteristic lines y = lam - w0(lam) x are the leaves of the
generated foliation.  Multiple roots mean the solution is multivalued there
(past a caustic); all branches are returned and callers pick by continuity.

The mirrored convention w = f_y / f_x pairs with a connection: the leaf
family of f consists of geodesics of a projective structure iff

    w_y - w w_x = P2_11 w^3 - 3 P2_12 w^2 - 3 P1_12 w + P1_22.

Both residuals are exposed, each in its own convention.  One kernel,
:func:`_euler`, computes both from the jet table of w, at one point or at
a block of grid points: the single-point functions, the ``*_of_jet``
functions and :func:`euler_sweep` all call it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import MAX_LEAVES
from .exprlang import (
    EvaluationError,
    Expression,
    _value_function,
    as_expression,
    evaluate,
    evaluate_jet,
    evaluate_jet_with,
    table_at,
    to_source,
    variables_of,
)
from .geodesy import GridResiduals, GridSpec, _sweep, cube
from .geometry import ThomasParameters
from .render import LeafPolyline, Rect
from .taylor import (
    TaylorJet,
    jet_constant,
    jet_variable,
    partial_derivative,
    table_partial,
)

DEFAULT_SCAN_COUNT = 400

#: Largest scan_count characteristic_roots accepts.
MAX_SCAN_COUNT = 100_000

#: Parameter values of each datum probed for lines that meet the domain.
PROBE_COUNT = 512

#: |g'(lam)| below this (relative to 1 + |x|) flags a near-double root.
NEAR_DOUBLE_THRESHOLD = 1e-6


@dataclass(frozen=True)
class CauchyDatum:
    """Cauchy data w0 for the Euler equation, given on the line x = 0.

    The datum is written in the variable y and evaluated by substituting
    the characteristic parameter for y; it must not mention x.
    """

    w0: Expression
    lambda_interval: tuple[float, float]

    def __init__(self, w0, lambda_interval):
        w0 = as_expression(w0)
        if "x" in variables_of(w0):
            raise ValueError(
                f"Cauchy data must be a function of y alone, got '{to_source(w0)}'"
            )
        lo, hi = float(lambda_interval[0]), float(lambda_interval[1])
        if not lo < hi:
            raise ValueError(f"empty parameter interval ({lo}, {hi})")
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"parameter interval ({lo}, {hi}) must be finite")
        object.__setattr__(self, "w0", w0)
        object.__setattr__(self, "lambda_interval", (lo, hi))

    def value(self, lam: float) -> float:
        return evaluate(self.w0, (0.0, lam))

    def slope_jet(self, lam: float) -> TaylorJet:
        """Order-1 jet of w0 in its parameter, for derivative extraction."""
        return evaluate_jet(self.w0, (0.0, lam), 1)

    def source(self) -> str:
        return to_source(self.w0)


@dataclass(frozen=True)
class CharacteristicRoot:
    """One solution branch of the characteristic system at a point."""

    lam: float
    w: float
    multiplicity_hint: str  # "simple" or "near_double"


def _euler(table, pi: ThomasParameters | None = None, ok=None):
    """The Euler residual from the table of an order >= 1 jet of w, floats
    at one point or lane vectors at a block: the flat one, or with `pi`
    the connection variant.  A cube that overflows fails the point."""
    w, wx, wy = (table_partial(table, i, j) for i, j in ((0, 0), (1, 0), (0, 1)))
    if pi is None:
        return wx - w * wy
    cubic = (
        pi.p2_11 * cube(w, ok)
        - 3.0 * pi.p2_12 * w * w
        - 3.0 * pi.p1_12 * w
        + pi.p1_22
    )
    return wy - w * wx - cubic


def euler_residual(w, point) -> float:
    """Residual of the flat Euler equation w_x - w w_y for the slope
    convention w = f_x / f_y."""
    return _euler(table_at(as_expression(w), point, 1, None))


def euler_residual_of_jet(jet: TaylorJet) -> float:
    return _euler(jet.table)


def connection_euler_residual(w, pi: ThomasParameters, point) -> float:
    """Residual of the Euler equation associated with a projective
    structure, in the convention w = f_y / f_x:

        w_y - w w_x - (P2_11 w^3 - 3 P2_12 w^2 - 3 P1_12 w + P1_22)
    """
    return _euler(table_at(as_expression(w), point, 1, None), pi)


def connection_euler_residual_of_jet(jet: TaylorJet, pi: ThomasParameters) -> float:
    return _euler(jet.table, pi)


def euler_sweep(w, grid: GridSpec, pi: ThomasParameters | None = None) -> GridResiduals:
    """Euler residual of w at every grid point: the flat one, or with
    `pi` the connection variant.  Each sample equals, bit for bit,
    :func:`euler_residual` or :func:`connection_euler_residual` there, and
    is its own normalized value; points where those raise
    :class:`EvaluationError` are skipped."""
    w = as_expression(w)

    def residual(block, ok):
        raw = _euler(table_at(w, block, 1, ok), pi, ok)
        return raw, raw, math.nan, False

    (out,) = _sweep(grid, [residual])
    return out


def _characteristic_g(datum: CauchyDatum, point, lam: float) -> float:
    return point[1] + datum.value(lam) * point[0] - lam


def _characteristic_g_prime(datum: CauchyDatum, point, lam: float) -> float:
    slope = partial_derivative(datum.slope_jet(lam), 0, 1)
    return slope * point[0] - 1.0


def characteristic_roots(
    datum: CauchyDatum,
    point,
    scan_count: int = DEFAULT_SCAN_COUNT,
) -> list[CharacteristicRoot]:
    """All parameter values lam in the datum's interval that solve the
    characteristic system at `point`, each paired with the transported
    slope w0(lam).

    A uniform scan locates sign changes of g, each bracket is bisected to
    width 1e-14 and polished with one Newton step.  Root isolation is only
    as fine as the scan: raising `scan_count` never loses roots that a
    coarser scan found.  An empty list is a valid outcome (no
    characteristic through the point), not an error.  Raises ValueError,
    before any evaluation, for a point that is not finite and for a
    `scan_count` that is not an int from 2 to MAX_SCAN_COUNT (a bool is
    not one).
    """
    x, y = float(point[0]), float(point[1])
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"point {(x, y)} is not finite")
    if isinstance(scan_count, bool) or not isinstance(scan_count, int):
        raise ValueError(f"scan_count must be an integer, got {scan_count!r}")
    if scan_count < 2:
        raise ValueError(f"scan_count must be at least 2, got {scan_count}")
    if scan_count > MAX_SCAN_COUNT:
        raise ValueError(f"scan_count must be at most {MAX_SCAN_COUNT}, got {scan_count}")
    lo, hi = datum.lambda_interval
    lams = [lo + (hi - lo) * k / (scan_count - 1) for k in range(scan_count)]
    values = [_characteristic_g(datum, (x, y), lam) for lam in lams]

    found: list[float] = []

    def record(lam: float):
        tol = 1e-9 * max(1.0, abs(lam))
        for existing in found:
            if abs(existing - lam) <= tol:
                return
        found.append(lam)

    for k in range(scan_count - 1):
        a, b = lams[k], lams[k + 1]
        ga, gb = values[k], values[k + 1]
        if ga == 0.0:
            record(a)
            continue
        if gb == 0.0:
            if k == scan_count - 2:
                record(b)
            continue
        if ga * gb > 0.0:
            continue
        while b - a > 1e-14 * max(1.0, abs(a), abs(b)):
            mid = 0.5 * (a + b)
            gm = _characteristic_g(datum, (x, y), mid)
            if gm == 0.0:
                a = b = mid
                break
            if ga * gm < 0.0:
                b, gb = mid, gm
            else:
                a, ga = mid, gm
        root = 0.5 * (a + b)
        gprime = _characteristic_g_prime(datum, (x, y), root)
        if gprime != 0.0:
            polished = root - _characteristic_g(datum, (x, y), root) / gprime
            if lo <= polished <= hi:
                root = polished
        record(root)

    roots = []
    for lam in sorted(found):
        gprime = _characteristic_g_prime(datum, (x, y), lam)
        hint = "near_double" if abs(gprime) <= NEAR_DOUBLE_THRESHOLD * (1.0 + abs(x)) else "simple"
        roots.append(CharacteristicRoot(lam=lam, w=datum.value(lam), multiplicity_hint=hint))
    return roots


class CharacteristicSolution:
    """Callable view of the Euler solution generated by one Cauchy datum."""

    def __init__(self, datum: CauchyDatum):
        self.datum = datum

    def roots(self, point) -> list[CharacteristicRoot]:
        return characteristic_roots(self.datum, point)

    def branch(self, point) -> CharacteristicRoot:
        """The unique branch at a point; raises off the single-valued set."""
        roots = self.roots(point)
        if len(roots) != 1:
            raise ValueError(
                f"expected exactly one characteristic root at {tuple(point)}, "
                f"found {len(roots)}"
            )
        return roots[0]

    def value(self, point) -> float:
        """w(x, y) where the solution is single valued."""
        return self.branch(point).w

    def jet(self, point, order: int, lam: float | None = None) -> TaylorJet:
        """Jet of w at a point, by implicit degree-by-degree solution of the
        characteristic system in jet arithmetic.

        The parameter jet L(x, y) solving y + w0(L) x - L = 0 is corrected
        one total degree per sweep using the exact scalar linearization
        g'(lam0); near-double roots (caustics) make that factor tiny and
        raise instead of returning garbage.
        """
        if lam is None:
            lam = self.branch(point).lam
        x, y = float(point[0]), float(point[1])
        gprime = _characteristic_g_prime(self.datum, (x, y), lam)
        if abs(gprime) <= NEAR_DOUBLE_THRESHOLD * (1.0 + abs(x)):
            raise ValueError(
                f"characteristic root at {tuple(point)} is near-double; "
                "the solution jet is not defined across a caustic"
            )
        xj = jet_variable((x, y), "x", order)
        yj = jet_variable((x, y), "y", order)
        lam_jet = jet_constant((x, y), lam, order)
        for _ in range(order + 1):
            w0_jet = evaluate_jet_with(self.datum.w0, {"y": lam_jet})
            g_jet = yj + w0_jet * xj - lam_jet
            lam_jet = lam_jet - g_jet * (1.0 / gprime)
        residual = yj + evaluate_jet_with(self.datum.w0, {"y": lam_jet}) * xj - lam_jet
        worst = max(abs(v) for row in residual.table for v in row)
        if worst > 1e-9 * (1.0 + abs(lam)):
            raise ValueError(
                f"characteristic jet failed to converge at {tuple(point)} "
                f"(residual {worst:.3e})"
            )
        return evaluate_jet_with(self.datum.w0, {"y": lam_jet})


@dataclass(frozen=True)
class FoliationSample:
    """Generated leaves and solution access for one Cauchy datum."""

    index: int
    datum: CauchyDatum
    lambda_values: tuple[float, ...]
    leaves: tuple[LeafPolyline, ...]
    solution: CharacteristicSolution
    warnings: tuple[str, ...]


@dataclass(frozen=True)
class LinearWebSample:
    """A linear web generated from Cauchy data, clipped to a rectangle."""

    domain: Rect
    foliations: tuple[FoliationSample, ...]

    def leaf_count(self) -> int:
        return sum(len(f.leaves) for f in self.foliations)

    def all_leaves(self) -> list[LeafPolyline]:
        leaves = []
        for f in self.foliations:
            leaves.extend(f.leaves)
        return leaves


def _clip_line_to_rect(slope: float, intercept: float, rect: Rect):
    """Clip y = intercept + slope * x to a rectangle; None when disjoint."""
    x_lo, x_hi = rect.xmin, rect.xmax
    if slope > 0.0:
        x_lo = max(x_lo, (rect.ymin - intercept) / slope)
        x_hi = min(x_hi, (rect.ymax - intercept) / slope)
    elif slope < 0.0:
        x_lo = max(x_lo, (rect.ymax - intercept) / slope)
        x_hi = min(x_hi, (rect.ymin - intercept) / slope)
    else:
        if not rect.ymin <= intercept <= rect.ymax:
            return None
    if x_lo >= x_hi:
        return None
    return (
        (x_lo, intercept + slope * x_lo),
        (x_hi, intercept + slope * x_hi),
    )


def generate_linear_web(
    data: list[CauchyDatum],
    domain: Rect,
    leaves_per_foliation: int,
) -> LinearWebSample:
    """Generate one straight-leaf foliation per Cauchy datum.

    Each parameter value lam contributes the characteristic line
    y = lam - w0(lam) x; leaves sample lam uniformly over the part of the
    datum's interval whose lines meet the requested rectangle, clipped to
    it.  Leaves are labeled by lam, not by branch.  A datum whose lines
    never meet the rectangle yields an empty foliation with a warning
    rather than an error.  Raises ValueError, before any evaluation, unless
    leaves_per_foliation is an int (a bool is not one) from 1 to MAX_LEAVES.
    """
    if not data:
        raise ValueError("no Cauchy data supplied")
    if isinstance(leaves_per_foliation, bool) or not isinstance(leaves_per_foliation, int):
        raise ValueError(f"leaves_per_foliation must be an integer, got {leaves_per_foliation!r}")
    if not 1 <= leaves_per_foliation <= MAX_LEAVES:
        raise ValueError(f"leaves_per_foliation must be between 1 and {MAX_LEAVES}")
    seen = set()
    for datum in data:
        key = (datum.source(), datum.lambda_interval)
        if key in seen:
            raise ValueError(f"duplicate Cauchy datum '{key[0]}' on {key[1]}")
        seen.add(key)

    foliations = []
    for index, datum in enumerate(data):
        lo, hi = datum.lambda_interval
        warnings = []
        hits = []
        bad = 0
        value = _value_function(datum.w0)
        for k in range(PROBE_COUNT):
            lam = lo + (hi - lo) * k / (PROBE_COUNT - 1)
            try:
                w0 = value(0.0, lam)
            except EvaluationError:
                bad += 1
                continue
            if _clip_line_to_rect(-w0, lam, domain) is not None:
                hits.append(lam)
        if bad:
            warnings.append(
                f"datum '{datum.source()}' undefined at {bad}/{PROBE_COUNT} "
                "probed parameter values"
            )
        if not hits:
            warnings.append(
                f"datum '{datum.source()}' produces no lines meeting the domain"
            )
            lam_values = []
        elif leaves_per_foliation == 1:
            lam_values = [0.5 * (min(hits) + max(hits))]
        else:
            lam_lo, lam_hi = min(hits), max(hits)
            lam_values = [
                lam_lo + (lam_hi - lam_lo) * k / (leaves_per_foliation - 1)
                for k in range(leaves_per_foliation)
            ]
        leaves = []
        kept = []
        for lam in lam_values:
            try:
                w0 = value(0.0, lam)
            except EvaluationError:
                continue
            segment = _clip_line_to_rect(-w0, lam, domain)
            if segment is None:
                continue
            kept.append(lam)
            leaves.append(
                LeafPolyline(
                    foliation_index=index,
                    level=lam,
                    points=(segment[0], segment[1]),
                )
            )
        foliations.append(
            FoliationSample(
                index=index,
                datum=datum,
                lambda_values=tuple(kept),
                leaves=tuple(leaves),
                solution=CharacteristicSolution(datum),
                warnings=tuple(warnings),
            )
        )
    return LinearWebSample(domain=domain, foliations=tuple(foliations))
