"""Projective structures of planar webs.

A non-degenerate 4-web determines a unique projective structure whose
geodesics contain all four families of leaves: each web function imposes one
linear condition

    P1_22 fx^3 - 3 P1_12 fx^2 fy - 3 P2_12 fx fy^2 + P2_11 fy^3 = Flex f

on the Thomas parameters, and four transversal foliations pin all four.
Two independent routes to the solution are provided: a closed form obtained
by Lagrange interpolation of binary cubics through the four gradient
directions, and a direct dense solve of the 4x4 system.  They are each
other's oracle.

For webs normalized to (x, y, f3, f4) the structure is encoded by the two
combinations alpha = G2_22 - 2 G1_12 and beta = G1_11 - 2 G2_12, built from
derivatives of f3 and f4.  The structure contains an affine symmetric
connection (covariantly constant curvature) iff

    alpha_xx + 2 beta_xy = beta alpha_x + 2 beta beta_y
    2 alpha_xy + beta_yy = 2 alpha alpha_x + alpha beta_y

hold.  In that case the remaining freedom (sigma = G1_12, tau = G2_12 and
their first derivatives, constrained by a vanishing curvature trace) forms
a finite-type system: all second derivatives of sigma and tau are explicit
in the state, and transporting a state along paths is path independent.

Each computation has one kernel that runs at a point or over a block of
points (see :class:`~webgeo.exprlang.Block` and the note on kernels in
:mod:`webgeo.geodesy`): ``_fit`` for the fit, ``_dweb_residuals`` for the
residuals of f5..fd, ``_alpha_beta_jets`` for (alpha, beta).  The
single-point functions call them at their point, and :func:`fit_sweep`,
:func:`dweb_sweep` and :func:`symmetry_sweep` a block at a time, so every
value has the single-point bits; a point where the single-point function
raises is skipped.  :func:`integrate_symmetric_connection` evaluates the
(alpha, beta) samples of a path the same way, a block at a time.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from itertools import chain, islice, tee

from . import geodesy
from .exprlang import Block, EvaluationError, as_expression, evaluate_jet, table_at, to_source
from .geodesy import (
    GridResiduals,
    GridSpec,
    ResidualSample,
    WebPresentation,
    _flex,
    _residual,
    _second_order,
    _sweep,
    cube,
)
from .geometry import CurvatureMatrix, ThomasParameters, _check_thomas, curvature_components
from .taylor import (
    TaylorJet,
    _jet,
    fail,
    np,
    partial_derivative,
    per_lane,
    table_partial,
)

#: Pairs with |J(f_i, f_j)| below this times |grad f_i| |grad f_j| are
#: treated as tangent (degenerate) directions.
JACOBIAN_DEGENERACY_COEFF = 1e-8

MAX_CONDITION = 1e12


class DegenerateWebError(ValueError):
    """A web fails the transversality / conditioning requirements."""


def _require_web(web, d: int | None = None, at_least: int | None = None):
    if not isinstance(web, WebPresentation):
        web = WebPresentation(web)
    n = len(web)
    if d is not None and n != d:
        raise ValueError(f"operation needs a web of exactly {d} functions, got {n}")
    if at_least is not None and n < at_least:
        raise ValueError(f"operation needs a web of at least {at_least} functions, got {n}")
    return web


def _jet_at(f, at, order: int, ok) -> TaylorJet:
    """The jet of f at `at`."""
    if ok is None:
        return evaluate_jet(f, at, order)
    return _jet(at.target(f, order, ok), order, at, ok)


def _gradients_and_flexes(web: WebPresentation, at, ok=None):
    grads = []
    flexes = []
    for f in web.functions:
        d = _second_order(table_at(f, at, 2, ok))
        grads.append((d[0], d[1]))
        flexes.append(_flex(*d))
    return grads, flexes


def _check_transversality(web: WebPresentation, grads, at, ok):
    norms = [per_lane(math.hypot, gx, gy) for gx, gy in grads]
    n = len(grads)
    for i in range(n):
        for j in range(i + 1, n):
            (pix, piy), (pjx, pjy) = grads[i], grads[j]
            jac = pix * pjy - piy * pjx
            fail(
                abs(jac) <= JACOBIAN_DEGENERACY_COEFF * (norms[i] * norms[j]),
                ok,
                lambda: DegenerateWebError(
                    f"degenerate web at {tuple(at)}: foliations ({i + 1}, {j + 1}) "
                    f"('{to_source(web.functions[i])}', '{to_source(web.functions[j])}') "
                    f"are tangent (Jacobian {jac!r})"
                ),
            )


def _fit(web: WebPresentation, at, ok=None):
    """(p1_22, p1_12, p2_12, p2_11) of a 4-web by the closed form of
    :func:`fit_projective_structure`; a point where those are not finite
    fails as :class:`~webgeo.geometry.ThomasParameters` does."""
    grads, flexes = _gradients_and_flexes(web, at, ok)
    _check_transversality(web, grads, at, ok)

    p1_22 = p1_12 = p2_12 = p2_11 = 0.0
    for i in range(4):
        others = [k for k in range(4) if k != i]
        denom = 1.0
        for k in others:
            denom *= grads[i][0] * grads[k][1] - grads[i][1] * grads[k][0]
        fail(
            denom == 0.0,
            ok,
            lambda: DegenerateWebError(
                f"degenerate web at {tuple(at)}: the Jacobians of foliation {i + 1} "
                "with the others multiply to zero"
            ),
        )
        prod_fy = 1.0
        prod_fx = 1.0
        for k in others:
            prod_fy *= grads[k][1]
            prod_fx *= grads[k][0]
        sum_x_prod_y = 0.0
        sum_y_prod_x = 0.0
        for k in others:
            rest = [l for l in others if l != k]
            term_y = 1.0
            term_x = 1.0
            for l in rest:
                term_y *= grads[l][1]
                term_x *= grads[l][0]
            sum_x_prod_y += grads[k][0] * term_y
            sum_y_prod_x += grads[k][1] * term_x
        weight = flexes[i] / denom
        p1_22 += weight * prod_fy
        p2_11 -= weight * prod_fx
        p1_12 += weight * sum_x_prod_y / 3.0
        p2_12 -= weight * sum_y_prod_x / 3.0
    pi = (p1_22, p1_12, p2_12, p2_11)
    _check_thomas(pi, ok)
    return pi


def fit_projective_structure(web, point) -> ThomasParameters:
    """Thomas parameters of the projective structure of a 4-web, in closed
    form.

    The cubic gradient form interpolating the four flex values is assembled
    by Lagrange interpolation over the gradient directions:

        C(p, q) = sum_i Flex f_i * prod_{k != i} (q_k p - p_k q)
                                 / prod_{k != i} J(f_i, f_k)

    and the Thomas parameters are read off its coefficients.  Substituting
    the result back into the geodesicity equation of any of the four
    functions gives a zero residual to machine precision.
    """
    return ThomasParameters(*_fit(_require_web(web, d=4), point))


def _fit_grid(web, grid: GridSpec) -> GridResiduals:
    """The samples of :func:`fit_sweep`, as vectors."""
    web = _require_web(web, d=4)
    (out,) = _sweep(grid, [lambda block, ok: _fit(web, block, ok)])
    return out


def fit_sweep(web, grid: GridSpec):
    """The closed-form fit of a 4-web over a grid, a block of points at a
    time: (columns, skipped).  `columns` holds the values of p1_22, p1_12,
    p2_12 and p2_11, in grid order, at the points where
    :func:`fit_projective_structure` gives them, bit for bit; `skipped`
    lists the points where it raises."""
    out = _fit_grid(web, grid)
    return out.columns, out.skipped


def fit_by_linear_solve(web, point) -> ThomasParameters:
    """Thomas parameters of a 4-web by dense solution of the 4x4 linear
    system; the independent oracle for :func:`fit_projective_structure`."""
    web = _require_web(web, d=4)
    grads, flexes = _gradients_and_flexes(web, point)
    matrix = np.array(
        [
            [
                cube(fx),
                -3.0 * fx * fx * fy,
                -3.0 * fx * fy * fy,
                cube(fy),
            ]
            for fx, fy in grads
        ]
    )
    condition = float(np.linalg.cond(matrix))
    if not math.isfinite(condition) or condition > MAX_CONDITION:
        raise DegenerateWebError(
            f"geodesicity system is singular or ill-conditioned at {tuple(point)}: "
            f"condition estimate {condition:.3e}"
        )
    solution = np.linalg.solve(matrix, np.array(flexes))
    return ThomasParameters(
        p1_22=float(solution[0]),
        p1_12=float(solution[1]),
        p2_12=float(solution[2]),
        p2_11=float(solution[3]),
    )


@dataclass(frozen=True)
class AlphaBeta:
    """The two projective invariants of a normalized 4-web at a point,
    with their order-2 jets (for derivative extraction)."""

    alpha: float
    beta: float
    alpha_jet: TaylorJet
    beta_jet: TaylorJet

    @property
    def alpha_x(self) -> float:
        return partial_derivative(self.alpha_jet, 1, 0)

    @property
    def alpha_y(self) -> float:
        return partial_derivative(self.alpha_jet, 0, 1)

    @property
    def alpha_xx(self) -> float:
        return partial_derivative(self.alpha_jet, 2, 0)

    @property
    def alpha_xy(self) -> float:
        return partial_derivative(self.alpha_jet, 1, 1)

    @property
    def alpha_yy(self) -> float:
        return partial_derivative(self.alpha_jet, 0, 2)

    @property
    def beta_x(self) -> float:
        return partial_derivative(self.beta_jet, 1, 0)

    @property
    def beta_y(self) -> float:
        return partial_derivative(self.beta_jet, 0, 1)

    @property
    def beta_xx(self) -> float:
        return partial_derivative(self.beta_jet, 2, 0)

    @property
    def beta_xy(self) -> float:
        return partial_derivative(self.beta_jet, 1, 1)

    @property
    def beta_yy(self) -> float:
        return partial_derivative(self.beta_jet, 0, 2)


def _gradient_and_flex_jets(fjet: TaylorJet, order: int):
    """(f_x, f_y, Flex f) as jets of `order`, from a jet of f two orders
    higher; the derivative jets are shared between the three outputs."""
    dx = fjet.derivative("x")
    dy = fjet.derivative("y")
    fx = dx.truncate(order)
    fy = dy.truncate(order)
    fxx = dx.derivative("x").truncate(order)
    fxy = dx.derivative("y").truncate(order)
    fyy = dy.derivative("y").truncate(order)
    return fx, fy, _flex(fx, fy, fxx, fxy, fyy)


def _alpha_beta_jets(f3, f4, at, ok=None):
    """Order-2 jets of alpha and beta (see :func:`alpha_beta`)."""
    j3 = _jet_at(f3, at, 4, ok)
    j4 = _jet_at(f4, at, 4, ok)
    f3x, f3y, flex3 = _gradient_and_flex_jets(j3, 2)
    f4x, f4y, flex4 = _gradient_and_flex_jets(j4, 2)
    delta = f3x * f4y - f3y * f4x
    den3 = f3x * f3y * delta
    den4 = f4x * f4y * delta
    denominators = (
        (f3x, "f3_x = 0"), (f3y, "f3_y = 0"), (f4x, "f4_x = 0"), (f4y, "f4_y = 0"),
        (delta, "Delta = 0"),
        (den3, "the product f3_x f3_y Delta underflows to 0"),
        (den4, "the product f4_x f4_y Delta underflows to 0"),
    )
    for value, why in denominators:
        fail(
            value.value == 0.0,
            ok,
            lambda: EvaluationError(f"invariant denominators vanish at {tuple(at)}: {why}"),
        )
    term3 = flex3 / den3
    term4 = flex4 / den4
    return f4y * term3 - f3y * term4, f3x * term4 - f4x * term3


def alpha_beta(f3, f4, point) -> AlphaBeta:
    """The invariants (alpha, beta) of the normalized web (x, y, f3, f4),
    with their order-2 jets:

        alpha = f4_y Flex f3 / (f3_x f3_y D) - f3_y Flex f4 / (f4_x f4_y D)
        beta  = -f4_x Flex f3 / (f3_x f3_y D) + f3_x Flex f4 / (f4_x f4_y D)

    with D = f3_x f4_y - f3_y f4_x.  The combination is carried out in
    truncated jet arithmetic on order-4 jets of f3 and f4, so the first
    and second derivatives of alpha and beta, which the symmetry
    conditions and the transport read, come out exact to truncation.
    Each vanishing denominator factor, and each of the products
    f3_x f3_y D and f4_x f4_y D that underflows to 0, is reported by name.
    """
    alpha, beta = _alpha_beta_jets(as_expression(f3), as_expression(f4), point)
    return AlphaBeta(alpha.value, beta.value, alpha, beta)


def _symmetry_residuals(alpha: TaylorJet, beta: TaylorJet):
    """(r1, r2) of :func:`symmetric_conditions_residual` from the order-2
    jets of alpha and beta."""
    a, b = alpha.value, beta.value
    alpha_x, alpha_xx, alpha_xy = (
        partial_derivative(alpha, *ij) for ij in ((1, 0), (2, 0), (1, 1))
    )
    beta_y, beta_xy, beta_yy = (partial_derivative(beta, *ij) for ij in ((0, 1), (1, 1), (0, 2)))
    r1 = alpha_xx + 2.0 * beta_xy - b * alpha_x - 2.0 * b * beta_y
    r2 = 2.0 * alpha_xy + beta_yy - 2.0 * a * alpha_x - a * beta_y
    return r1, r2


def symmetric_conditions_residual(f3, f4, point) -> tuple[float, float]:
    """Residuals of the two symmetry conditions on (alpha, beta):

        r1 = alpha_xx + 2 beta_xy - beta alpha_x - 2 beta beta_y
        r2 = 2 alpha_xy + beta_yy - 2 alpha alpha_x - alpha beta_y

    Both vanish exactly when the projective structure of the normalized web
    (x, y, f3, f4) contains an affine symmetric connection at the point.
    """
    return _symmetry_residuals(*_alpha_beta_jets(as_expression(f3), as_expression(f4), point))


def _symmetry_grid(f3, f4, grid: GridSpec) -> GridResiduals:
    """The samples of :func:`symmetry_sweep`, as vectors."""
    f3 = as_expression(f3)
    f4 = as_expression(f4)

    def kernel(block, ok):
        return _symmetry_residuals(*_alpha_beta_jets(f3, f4, block, ok))

    (out,) = _sweep(grid, [kernel], 2)
    return out


def symmetry_sweep(f3, f4, grid: GridSpec):
    """(r1, r2, skipped): the residuals of :func:`symmetric_conditions_residual`
    over a grid, a block of points at a time, in grid order at the points
    where it gives them, bit for bit, and the points where it raises."""
    out = _symmetry_grid(f3, f4, grid)
    return (*out.columns, out.skipped)


def _dweb_residuals(web: WebPresentation, at, ok=None):
    """The residual fields of f5..fd (see :func:`geodesy._normalize`) for
    the projective structure fitted to the leading 4-subweb; the fit fails
    first."""
    pi = _fit(WebPresentation(web.functions[:4]), at, ok)
    return [_residual(f, at, ok, thomas=pi) for f in web.functions[4:]]


def dweb_geodesic_residuals(web, point) -> list[ResidualSample]:
    """Geodesicity residuals of f5..fd for the projective structure fitted
    to the leading 4-subweb.  The web is geodesic at the point iff all of
    them vanish."""
    web = _require_web(web, at_least=5)
    point = (float(point[0]), float(point[1]))
    return [ResidualSample(point, *fields) for fields in _dweb_residuals(web, point)]


def dweb_sweep(web, grid: GridSpec) -> list[GridResiduals]:
    """The residuals of :func:`dweb_geodesic_residuals` over a grid, a
    block of points at a time: one series per function f5..fd, each sample
    bit for bit the single-point one.  A point where that function raises
    is skipped for every function."""
    web = _require_web(web, at_least=5)
    rest = web.functions[4:]
    series = [GridResiduals() for _ in rest]
    for block in grid.blocks():
        samples, ok = block.run(lambda ok: _dweb_residuals(web, block, ok))
        for out, fields in zip(series, samples or [None] * len(rest)):
            out.add_block(block, ok, fields)
    return series


@dataclass(frozen=True)
class FiniteTypeState:
    """State of the finite-type system: sigma, tau and their first
    derivatives.  The free choice of a state subject to the single trace
    constraint is the 5-parameter family of symmetric connections."""

    sigma: float
    tau: float
    sigma_x: float
    sigma_y: float
    tau_x: float
    tau_y: float

    def constraint_residual(self, alpha_x: float, beta_y: float) -> float:
        """Residual of the vanishing-curvature-trace constraint
        alpha_x - beta_y + 3 (sigma_x - tau_y)."""
        return alpha_x - beta_y + 3.0 * (self.sigma_x - self.tau_y)

    def as_array(self) -> np.ndarray:
        return np.array(
            [self.sigma, self.tau, self.sigma_x, self.sigma_y, self.tau_x, self.tau_y]
        )

    @staticmethod
    def from_array(values) -> "FiniteTypeState":
        s, t, sx, sy, tx, ty = (float(v) for v in values)
        return FiniteTypeState(s, t, sx, sy, tx, ty)


def finite_type_rhs(state: FiniteTypeState, ab: AlphaBeta):
    """All second derivatives of sigma and tau in terms of the state and
    the (alpha, beta) field with its first and mixed derivatives.

    Returns (sigma_xx, sigma_xy, sigma_yy, tau_xx, tau_xy, tau_yy).
    """
    return _second_derivatives(
        (state.sigma, state.tau, state.sigma_x, state.sigma_y, state.tau_x, state.tau_y),
        _field(ab.alpha_jet.table, ab.beta_jet.table),
    )


def _field(a, b) -> tuple:
    """(alpha, beta, alpha_x, alpha_y, beta_x, beta_y, alpha_xy, beta_xy),
    what :func:`_second_derivatives` reads of a field sample, from the
    tables of the order-2 jets of alpha and beta: floats at a point, floats
    or lane vectors in a block."""
    return (
        a[0][0], b[0][0], table_partial(a, 1, 0), table_partial(a, 0, 1),
        table_partial(b, 1, 0), table_partial(b, 0, 1), table_partial(a, 1, 1),
        table_partial(b, 1, 1),
    )


def _second_derivatives(state, field):
    """:func:`finite_type_rhs` on the state's six floats (sigma, tau,
    sigma_x, sigma_y, tau_x, tau_y) and the field's eight (see
    :func:`_field`)."""
    s, t, sx, sy, tx, ty = state
    a, b, ax, ay, bx, by, axy, bxy = field

    sigma_xx = (
        2.0 * s * tx
        + (4.0 * t + b) * sx
        + (t - b) * by
        + 2.0 * t * ax
        + bxy
        - 2.0 * s * t * (2.0 * t + b)
    )
    sigma_xy = (
        (3.0 * s + a) * sx
        + 2.0 * s * ax
        + s * ty
        + 2.0 * t * sy
        + s * by
        - 2.0 * s * t * (2.0 * s + a)
    )
    sigma_yy = (
        3.0 * (2.0 * s + a) * sy
        + s * ay
        - 2.0 * s * (a * a + 2.0 * s * s + 3.0 * s * a)
    )
    tau_xx = (
        3.0 * (2.0 * t + b) * tx
        + t * bx
        - 2.0 * t * (b * b + 2.0 * t * t + 3.0 * t * b)
    )
    tau_xy = (
        t * sx
        + t * ax
        + (3.0 * t + b) * ty
        + 2.0 * (t * by + s * tx)
        - 2.0 * s * t * (2.0 * t + b)
    )
    tau_yy = (
        (s - a) * ax
        + (4.0 * s + a) * ty
        + 2.0 * (t * sy + s * by)
        + axy
        - 2.0 * s * t * (2.0 * s + a)
    )
    return (sigma_xx, sigma_xy, sigma_yy, tau_xx, tau_xy, tau_yy)


@dataclass(frozen=True)
class IntegrationResult:
    """Endpoint of a finite-type transport, with constraint diagnostics and
    the (alpha, beta) field sample at the endpoint."""

    state: FiniteTypeState
    endpoint: tuple[float, float]
    endpoint_alpha_beta: AlphaBeta
    constraint_residual: float
    max_symmetry_residual: float
    warnings: tuple[str, ...]


#: Tolerance on the trace constraint at the start point of a transport.
INITIAL_CONSTRAINT_TOLERANCE = 1e-8

#: Symmetry-condition residuals above this along the path are flagged; the
#: system is only path independent where the conditions hold.
SYMMETRY_WARNING_THRESHOLD = 1e-6


#: Largest number of integration steps a transport path may take.
MAX_PATH_STEPS = 1_000_000


def _path_segments(path, step: float):
    """(points, segments): the path as float points and its segments of
    positive length as (start, end, length, steps).  Raises ValueError for
    a step that is not finite and positive, a path of fewer than two points
    or with a point that is not finite, and a path of more than
    MAX_PATH_STEPS steps."""
    if not (math.isfinite(step) and step > 0.0):
        raise ValueError(f"step must be a finite positive number, got {step!r}")
    points = [(float(p[0]), float(p[1])) for p in path]
    if len(points) < 2:
        raise ValueError("path needs at least two points")
    for point in points:
        if not (math.isfinite(point[0]) and math.isfinite(point[1])):
            raise ValueError(f"path point {point} is not finite")
    segments = []
    total = 0
    for start, end in zip(points[:-1], points[1:]):
        length = math.hypot(end[0] - start[0], end[1] - start[1])
        if length == 0.0:
            continue
        ratio = length / step
        n_steps = max(1, math.ceil(ratio)) if ratio <= MAX_PATH_STEPS else MAX_PATH_STEPS + 1
        total += n_steps
        if total > MAX_PATH_STEPS:
            raise ValueError(f"path needs more than {MAX_PATH_STEPS} steps of {step!r}")
        segments.append((start, end, length, n_steps))
    return points, segments


def path_step_count(path, step: float) -> int:
    """The number of steps :func:`integrate_symmetric_connection` takes
    along `path`.  Raises the ValueError it raises for the path and the
    step, before any evaluation."""
    return sum(segment[3] for segment in _path_segments(path, step)[1])


def _rk4_steps(segments):
    """(direction, h, mid, end) of each step along the segments, in order."""
    for (x0, y0), (x1, y1), length, n_steps in segments:
        direction = ((x1 - x0) / length, (y1 - y0) / length)
        h = length / n_steps
        base = (x0, y0)
        for k in range(n_steps):
            if k == n_steps - 1:
                end = (x1, y1)
            else:
                end = (x0 + direction[0] * (k + 1) * h, y0 + direction[1] * (k + 1) * h)
            mid = (base[0] + direction[0] * h / 2.0, base[1] + direction[1] * h / 2.0)
            yield direction, h, mid, end
            base = end


def _lane_floats(value, n: int) -> list[float]:
    """A float or a lane vector as n Python floats."""
    if isinstance(value, float):
        return [float(value)] * n
    return np.broadcast_to(value, (n,)).tolist()


def _field_columns(alpha: TaylorJet, beta: TaylorJet):
    """(field, r1, r2) from the order-2 jets of alpha and beta: the eight
    values of :func:`_field` and the residuals of
    :func:`symmetric_conditions_residual`."""
    return (_field(alpha.table, beta.table), *_symmetry_residuals(alpha, beta))


def _field_samples(f3, f4, points):
    """(field, r1, r2) of :func:`_field_columns` at each of the points, in
    order, with `field` a tuple of Python floats; then, last, the
    :class:`AlphaBeta` with jets at the last point.

    The points are evaluated in blocks of at most geodesy.BLOCK_POINTS, one
    block at a time as the samples are consumed, and each block's values
    are turned into Python floats a column at a time.  Every sample has the
    bits of the single-point chain; at a point the block clears, the
    single-point chain runs and raises its error there.
    """
    points = iter(points)

    def kernel(ok):
        alpha, beta = _alpha_beta_jets(f3, f4, block, ok)
        return (alpha.table, beta.table), _field_columns(alpha, beta)

    while chunk := list(islice(points, geodesy.BLOCK_POINTS)):
        block = Block(*zip(*chunk))
        result, ok = block.run(kernel)
        n = len(ok)
        lanes = [None] * n
        if result is not None:
            tables, (field, r1, r2) = result
            lanes = zip(
                zip(*(_lane_floats(column, n) for column in field)),
                _lane_floats(r1, n), _lane_floats(r2, n),
            )
        points_here = zip(block.x.tolist(), block.y.tolist())
        for point, good, lane in zip(points_here, ok.tolist(), lanes):
            yield lane if good else _field_columns(*_alpha_beta_jets(f3, f4, point))

    # `point` and `good` are those of the last point
    if good:
        alpha, beta = (
            _jet([[float(np.broadcast_to(v, (n,))[-1]) for v in row] for row in table], 2, point)
            for table in tables
        )
    else:
        alpha, beta = _alpha_beta_jets(f3, f4, point)
    yield AlphaBeta(alpha.value, beta.value, alpha, beta)


def integrate_symmetric_connection(
    f3,
    f4,
    initial: FiniteTypeState,
    path,
    step: float,
) -> IntegrationResult:
    """Transport a finite-type state along a polyline by classical 4-stage
    fixed-step integration of the total-derivative system.

    Along a segment with unit direction (ux, uy) the state evolves by
    ux * d/dx + uy * d/dy, with the second derivatives supplied by
    :func:`finite_type_rhs` from the (alpha, beta) field of the web
    (x, y, f3, f4).  Each segment takes ceil(length / step) equal steps.
    The trace constraint must hold at the start point; the symmetry
    conditions are monitored at every sample and violations are reported
    as warnings (transport is then path dependent, not wrong).

    The field is sampled at the start point, then at the midpoint and the
    end of every step, in that order.  The samples depend on the path alone,
    so they are evaluated a block of geodesy.BLOCK_POINTS points at a time
    (see :class:`~webgeo.exprlang.Block`) and consumed one block at a time:
    memory stays bounded whatever the path length, and every value has the
    bits of the single-point :func:`alpha_beta`.  Errors come in path
    order: a failure of the field at the start point, then a violated
    trace constraint, then the first sample along the path where the field
    fails.

    The steps run on Python floats.  The state is a 6-tuple.  Each block's
    field is read straight from the lane tables of its alpha and beta jets
    into columns of Python floats, so a sample is a tuple of the eight
    floats the system needs and the two symmetry residuals; only the
    endpoint sample becomes an :class:`AlphaBeta` with jets.  Every
    operation is that of the size-6 float64 arrays the method is written
    in, in the same order (``(0.5*h)*k``, ``u*ddx + w*ddy``,
    ``(h/6)*(((k1 + 2*k2) + 2*k3) + k4)``), so the bits are the same; an
    overflow gives inf or nan in the state without a warning.

    Raises ValueError, before any evaluation, for an initial state that is
    not finite, a step that is not finite and positive, a path of fewer
    than two points or with a point that is not finite, and a path of more
    than MAX_PATH_STEPS steps.
    """
    values = tuple(map(float, astuple(initial)))
    if not all(map(math.isfinite, values)):
        raise ValueError(f"initial state is not finite: {initial}")
    points, segments = _path_segments(path, step)
    f3 = as_expression(f3)
    f4 = as_expression(f4)

    def field(state, sample, u, w):
        _, _, sx, sy, tx, ty = state
        sxx, sxy, syy, txx, txy, tyy = _second_derivatives(state, sample)
        return (
            u * sx + w * sy, u * tx + w * ty, u * sxx + w * sxy,
            u * sxy + w * syy, u * txx + w * txy, u * txy + w * tyy,
        )

    # One walk of the steps feeds both the samples, which run at most a
    # block ahead, and the loop below.
    sample_steps, steps = tee(_rk4_steps(segments))
    sample_points = chain(
        [points[0]], chain.from_iterable((mid, end) for _, _, mid, end in sample_steps)
    )
    samples = _field_samples(f3, f4, sample_points)

    current, r1, r2 = next(samples)
    max_sym = max(0.0, abs(r1), abs(r2))
    c0 = initial.constraint_residual(current[2], current[5])
    if abs(c0) > INITIAL_CONSTRAINT_TOLERANCE:
        raise ValueError(
            f"initial state violates the trace constraint: residual {c0!r} "
            f"at {points[0]}"
        )

    # The end sample of a step is the next step's base sample.
    for (u, w), h, _, _ in steps:
        mid, r1, r2 = next(samples)
        max_sym = max(max_sym, abs(r1), abs(r2))
        end, r1, r2 = next(samples)
        max_sym = max(max_sym, abs(r1), abs(r2))
        # Stage k's rates of (sigma, tau, sigma_x, sigma_y, tau_x, tau_y)
        # are (sk, tk, sxk, syk, txk, tyk).
        s, t, sx, sy, tx, ty = values
        half = 0.5 * h
        s1, t1, sx1, sy1, tx1, ty1 = field(values, current, u, w)
        s2, t2, sx2, sy2, tx2, ty2 = field(
            (s + half * s1, t + half * t1, sx + half * sx1,
             sy + half * sy1, tx + half * tx1, ty + half * ty1),
            mid, u, w,
        )
        s3, t3, sx3, sy3, tx3, ty3 = field(
            (s + half * s2, t + half * t2, sx + half * sx2,
             sy + half * sy2, tx + half * tx2, ty + half * ty2),
            mid, u, w,
        )
        s4, t4, sx4, sy4, tx4, ty4 = field(
            (s + h * s3, t + h * t3, sx + h * sx3, sy + h * sy3, tx + h * tx3, ty + h * ty3),
            end, u, w,
        )
        sixth = h / 6.0
        values = (
            s + sixth * (s1 + 2.0 * s2 + 2.0 * s3 + s4),
            t + sixth * (t1 + 2.0 * t2 + 2.0 * t3 + t4),
            sx + sixth * (sx1 + 2.0 * sx2 + 2.0 * sx3 + sx4),
            sy + sixth * (sy1 + 2.0 * sy2 + 2.0 * sy3 + sy4),
            tx + sixth * (tx1 + 2.0 * tx2 + 2.0 * tx3 + tx4),
            ty + sixth * (ty1 + 2.0 * ty2 + 2.0 * ty3 + ty4),
        )
        current = end

    final_state = FiniteTypeState(*values)
    c_end = final_state.constraint_residual(current[2], current[5])
    warnings = []
    if max_sym > SYMMETRY_WARNING_THRESHOLD:
        warnings.append(
            "symmetry conditions violated along the path "
            f"(max residual {max_sym:.3e}); transport is path dependent"
        )
    return IntegrationResult(
        state=final_state,
        endpoint=points[-1],
        endpoint_alpha_beta=next(samples),
        constraint_residual=c_end,
        max_symmetry_residual=max_sym,
        warnings=tuple(warnings),
    )


def curvature_along(state: FiniteTypeState, ab: AlphaBeta) -> CurvatureMatrix:
    """Curvature matrix of the transported connection at a point, from the
    state and the local (alpha, beta) values and derivatives."""
    return curvature_components(
        sigma=state.sigma,
        tau=state.tau,
        alpha=ab.alpha,
        beta=ab.beta,
        sigma_x=state.sigma_x,
        sigma_y=state.sigma_y,
        tau_x=state.tau_x,
        tau_y=state.tau_y,
        alpha_x=ab.alpha_x,
        beta_y=ab.beta_y,
    )


__all__ = [
    "AlphaBeta",
    "DegenerateWebError",
    "FiniteTypeState",
    "IntegrationResult",
    "WebPresentation",
    "alpha_beta",
    "curvature_along",
    "dweb_geodesic_residuals",
    "dweb_sweep",
    "finite_type_rhs",
    "fit_by_linear_solve",
    "fit_projective_structure",
    "fit_sweep",
    "integrate_symmetric_connection",
    "path_step_count",
    "symmetric_conditions_residual",
    "symmetry_sweep",
]
