"""The flex operator and geodesicity residuals for planar foliations.

The flex of a function f(x, y),

    Flex f = f_y^2 f_xx - 2 f_x f_y f_xy + f_x^2 f_yy,

vanishes identically exactly when every level set of f is a straight line.
Replacing the bare second derivatives by their covariant counterparts gives
the geodesicity test for an affine connection: the level curve of f through
a point is a geodesic there iff

    f_y^2 (f_xx - G^k_11 f_k) - 2 f_x f_y (f_xy - G^k_12 f_k)
        + f_x^2 (f_yy - G^k_22 f_k) = 0      (sum over k = x, y).

Residuals are reported both raw and normalized by |grad f|^3: both sides of
every geodesicity equation are cubic in the gradient, so the normalized
value is invariant under relabeling f by a gauge function and comparable
across foliations.

Each residual has one kernel, :func:`_residual` with :func:`_normalize`,
that runs at one point or over a block of points (see
:class:`~webgeo.exprlang.Block`).  The single-point functions here call it
at their point; :func:`residual_sweep` calls it a block at a time, the
structure once per block for all foliations, so every sample has the bits
of the single-point call.  Every grid sweep collects each block's samples
and skipped points as it goes, and builds one :class:`GridResiduals` from
them when it ends, which keeps them as numpy vectors; they become Python
values only in the lists a report reads.  :func:`reduce_samples` and
:func:`judge` turn samples into the numbers and verdict of a report, for
every grid command: a NaN sample makes the largest value NaN and fails the
verdict, and a mean is a left-to-right sum, the same bits on every Python
version.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import partial
from typing import NamedTuple

from . import DEFAULT_TOLERANCE, GEODESIC_VERDICTS
from .exprlang import (
    Block,
    EvaluationError,
    Expression,
    as_expression,
    table_at,
    to_source,
)
from .geometry import (
    GRAPH_SURFACE_GAMMA_NOTE,
    ChristoffelField,
    ThomasParameters,
)
from .taylor import (
    TaylorJet,
    check_derivative_index,
    fail,
    np,
    per_lane,
    table_partial,
    take_lanes,
    _power_or_inf,
)

#: Gradients below ``DEGENERACY_COEFF * (1 + |x| + |y|)`` mark a sample
#: degenerate: the foliation has no well-defined leaf direction there.
DEGENERACY_COEFF = 1e-10

#: Grid points evaluated together by a sweep.  Large enough that numpy
#: does the work, small enough that a block's temporaries stay small.
BLOCK_POINTS = 2048

#: Largest grid (nx * ny) a GridSpec accepts.
MAX_GRID_POINTS = 1_000_000

#: The first and second partial derivatives (fx, fy, fxx, fxy, fyy).
_SECOND_ORDER = ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


@dataclass(frozen=True)
class ResidualSample:
    """One geodesicity residual at one point."""

    point: tuple[float, float]
    raw: float
    normalized: float
    gradient_norm: float
    degenerate: bool


def _gradient_threshold(x, y):
    return DEGENERACY_COEFF * (1.0 + abs(x) + abs(y))


def cube(v, ok=None):
    """v**3 as Python computes it for a float, and with the same bits
    (``np.float_power``) for a lane vector.  A cube that overflows fails
    its point: at one point (`ok` None) it raises
    :class:`EvaluationError`, in a block it clears the point's lane of
    `ok`."""
    c = _power_or_inf(v, 3.0)
    # v - v == 0.0 holds where v is finite, for a float or lane by lane.
    overflowed = (c - c != 0.0) & (v - v == 0.0)
    fail(overflowed, ok, lambda: EvaluationError(f"cube of {v!r} overflows"))
    return c


def _where(condition, value, other):
    """`value` where `condition` holds and `other` elsewhere: one of the two
    for a truth value, lane by lane for a lane vector."""
    if isinstance(condition, bool):
        return value if condition else other
    return np.where(condition, value, other)


# The residual kernels are written once, over floats at one point or lane
# vectors at a block, run through :meth:`~webgeo.exprlang.Block.run`: `at`
# is the point or the Block, `ok` None or the block's lane mask.  They read
# formulas through :func:`~webgeo.exprlang.table_at` and fail points through
# :func:`~webgeo.taylor.fail`; a block's failed lanes are computed, never read.


def _normalize(at, ok, raw, fx, fy):
    """The fields of a :class:`ResidualSample` after its point: (raw,
    normalized, gradient norm, degenerate), for the residual `raw` of a
    function with gradient (`fx`, `fy`) at `at`.  The normalized value is
    raw / |grad|^3, and NaN where the gradient is degenerate.  A cube that
    overflows fails the point."""
    x, y = at
    gradient_norm = per_lane(math.hypot, fx, fy)
    degenerate = gradient_norm <= _gradient_threshold(x, y)
    # 1.0 stands in for a degenerate norm, whose normalized value is NaN.
    denominator = cube(_where(degenerate, 1.0, gradient_norm), ok)
    return raw, _where(degenerate, math.nan, raw / denominator), gradient_norm, degenerate


def _flex(fx, fy, fxx, fxy, fyy):
    return fy * fy * fxx - 2.0 * fx * fy * fxy + fx * fx * fyy


def _covariant_flex(d, gammas):
    fx, fy, fxx, fxy, fyy = d
    g1_11, g1_12, g1_22, g2_11, g2_12, g2_22 = gammas
    return (
        fy * fy * (fxx - g1_11 * fx - g2_11 * fy)
        - 2.0 * fx * fy * (fxy - g1_12 * fx - g2_12 * fy)
        + fx * fx * (fyy - g1_22 * fx - g2_22 * fy)
    )


def _projective_flex(d, pi, ok=None):
    fx, fy = d[0], d[1]
    p1_22, p1_12, p2_12, p2_11 = pi
    cubic = (
        p1_22 * cube(fx, ok)
        - 3.0 * p1_12 * fx * fx * fy
        - 3.0 * p2_12 * fx * fy * fy
        + p2_11 * cube(fy, ok)
    )
    return cubic - _flex(*d)


def _check_curvature(kappa):
    if not math.isfinite(kappa):
        raise ValueError(f"curvature must be a finite number, got {kappa!r}")


def _curvature_denominator(kappa, x, y, ok=None):
    """1 + kappa (x^2 + y^2); a point where it is not positive is a metric
    singularity, and fails."""
    denom = 1.0 + kappa * (x * x + y * y)

    def singular():
        return EvaluationError(f"metric singularity: 1 + kappa*(x^2+y^2) = {denom!r} at {(x, y)}")

    fail(denom <= 0.0, ok, singular)
    return denom


def _constant_curvature_flex(d, kappa, x, y, denom):
    fx, fy = d[0], d[1]
    rhs = 2.0 * kappa * (x * fx + y * fy) * (fx * fx + fy * fy) / denom
    return _flex(*d) - rhs


def _graph_surface_flex(d, z):
    fx, fy = d[0], d[1]
    zx, zy, zxx, zxy, zyy = z
    rhs = (
        (zx * fx + zy * fy)
        * (fy * fy * zxx - 2.0 * fx * fy * zxy + fx * fx * zyy)
        / (1.0 + zx * zx + zy * zy)
    )
    return _flex(*d) - rhs


def _second_order(table):
    """(fx, fy, fxx, fxy, fyy) from the table of an order >= 2 jet."""
    return [table_partial(table, i, j) for i, j in _SECOND_ORDER]


def _residual(f, at, ok, *, christoffels=None, thomas=None, curvature=None, surface=None):
    """The residual of f for at most one structure, as :func:`_normalize`
    gives it: a ChristoffelField, the four Thomas parameters (p1_22,
    p1_12, p2_12, p2_11), a finite curvature or a surface height, and
    with none the flat plane, raw = Flex f.  The metric singularity of a
    curvature fails first, then f, then the structure."""
    if curvature is not None:
        x, y = at
        denom = _curvature_denominator(curvature, x, y, ok)
    d = _second_order(table_at(f, at, 2, ok))
    if christoffels is not None:
        gammas = [table_at(getattr(christoffels, g.name), at, 0, ok) for g in fields(christoffels)]
        raw = _covariant_flex(d, gammas)
    elif thomas is not None:
        raw = _projective_flex(d, thomas, ok)
    elif curvature is not None:
        raw = _constant_curvature_flex(d, curvature, x, y, denom)
    elif surface is not None:
        raw = _graph_surface_flex(d, _second_order(table_at(surface, at, 2, ok)))
    else:
        raw = _flex(*d)
    return _normalize(at, ok, raw, d[0], d[1])


def _sample(f, point, **structure) -> ResidualSample:
    """The residual of :func:`_residual` at one point."""
    point = (float(point[0]), float(point[1]))
    return ResidualSample(point, *_residual(as_expression(f), point, None, **structure))


def flex_of_jet(jet: TaylorJet) -> float:
    """Flex value from an order >= 2 jet."""
    check_derivative_index(2, 0, jet.order)
    return _flex(*_second_order(jet.table))


def flex(f, point) -> float:
    """Flex of the function at a point (zero for all straight level sets)."""
    return _flex(*_second_order(table_at(as_expression(f), point, 2, None)))


def flex_residual(f, gammas: ChristoffelField, point) -> ResidualSample:
    """Geodesicity residual of f's foliation for an affine connection.

    Zero exactly when the level set of f through `point` is a geodesic of
    the connection at that point.  Orientation: raw = Flex f minus the
    Christoffel terms.
    """
    return _sample(f, point, christoffels=gammas)


def projective_flex_residual(f, pi: ThomasParameters, point) -> ResidualSample:
    """Geodesicity residual of f for a projective structure.

    raw is the cubic gradient form of the Thomas parameters minus Flex f:

        raw = P1_22 fx^3 - 3 P1_12 fx^2 fy - 3 P2_12 fx fy^2 + P2_11 fy^3
              - Flex f
    """
    return _sample(f, point, thomas=pi.as_tuple())


def constant_curvature_residual(f, kappa: float, point) -> ResidualSample:
    """Geodesicity residual on the constant-curvature model surface:

        raw = Flex f - 2 kappa (x fx + y fy)(fx^2 + fy^2) / (1 + kappa r^2)

    Raises ValueError for a kappa that is not finite.
    """
    _check_curvature(kappa)
    return _sample(f, point, curvature=kappa)


def graph_surface_residual(f, z, point) -> ResidualSample:
    """Geodesicity residual on the graph surface w = z(x, y):

        raw = Flex f - (z_x fx + z_y fy)
                       (fy^2 z_xx - 2 fx fy z_xy + fx^2 z_yy)
                       / (1 + z_x^2 + z_y^2)
    """
    return _sample(f, point, surface=as_expression(z))


@dataclass(frozen=True)
class GridSpec:
    """Rectangular evaluation lattice with inclusive endpoints."""

    xmin: float
    xmax: float
    ymin: float
    ymax: float
    nx: int
    ny: int

    def __post_init__(self):
        for name in ("xmin", "xmax", "ymin", "ymax"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"grid bound {name} is not finite: {value!r}")
        for name in ("nx", "ny"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"grid {name} must be an integer, got {value!r}")
        if self.nx < 1 or self.ny < 1:
            raise ValueError("grid needs nx >= 1 and ny >= 1")
        if self.xmax < self.xmin or self.ymax < self.ymin:
            raise ValueError("grid bounds are reversed")
        if not (math.isfinite(self.xmax - self.xmin) and math.isfinite(self.ymax - self.ymin)):
            raise ValueError("grid extent is too large to represent")
        if self.nx * self.ny > MAX_GRID_POINTS:
            raise ValueError(
                f"grid has {self.nx * self.ny} points, more than the limit of "
                f"{MAX_GRID_POINTS}"
            )

    def xs(self) -> list[float]:
        if self.nx == 1:
            return [self.xmin]
        h = (self.xmax - self.xmin) / (self.nx - 1)
        return [self.xmin + i * h for i in range(self.nx)]

    def ys(self) -> list[float]:
        if self.ny == 1:
            return [self.ymin]
        h = (self.ymax - self.ymin) / (self.ny - 1)
        return [self.ymin + j * h for j in range(self.ny)]

    def points(self):
        """All lattice points, y-major then x, deterministic order."""
        for y in self.ys():
            for x in self.xs():
                yield (x, y)

    def blocks(self):
        """The lattice points in `points()` order, as successive
        :class:`Block` s of at most BLOCK_POINTS points.  The coordinate
        vectors of the whole grid are built once, from `xs()` and `ys()`,
        so every coordinate has the bits `points()` gives it; each block
        holds a slice of them."""
        xs, ys = np.array(self.xs()), np.array(self.ys())
        px, py = np.tile(xs, len(ys)), np.repeat(ys, len(xs))
        for start in range(0, len(px), BLOCK_POINTS):
            stop = start + BLOCK_POINTS
            yield Block(px[start:stop], py[start:stop])

    def as_dict(self) -> dict:
        return {
            "xmin": self.xmin,
            "xmax": self.xmax,
            "ymin": self.ymin,
            "ymax": self.ymax,
            "nx": self.nx,
            "ny": self.ny,
        }


def _join(parts, dtype=float):
    """One vector of the vectors `parts`, without a copy for one part."""
    if len(parts) == 1:
        return parts[0]
    return np.concatenate(parts) if parts else np.empty(0, dtype)


def _block_part(block: Block, ok, values):
    """One block's part of a :class:`GridResiduals`: (x, y, ok, columns),
    its coordinates and lane mask, and the k `values` (None when no point
    is valid) at its valid lanes (floats stand for every lane)."""
    columns = None if values is None else [take_lanes(v, ok) for v in values]
    return block.x, block.y, ok, columns


class GridResiduals:
    """The samples of one computation over a grid, in grid order.

    Built once, when the sweep ends, from the `parts` it collected, one
    (x, y, ok, columns) per block in grid order (see :func:`_block_part`):
    they are joined into numpy vectors over the grid.  `vectors` holds the
    k value columns at the valid points, and :meth:`valid` and
    :meth:`stats` reduce them in numpy.  `skipped` lists the points, as
    [x, y], where the computation is undefined, and :meth:`samples` the
    others with their values, in Python floats, bools and tuples.

    A residual's four columns are the fields of :class:`ResidualSample`
    after its point, read by index: ``vectors[0]`` raw, ``[1]`` normalized,
    ``[2]`` gradient norm and ``[3]`` degenerate.  The fit's and the
    symmetry conditions' columns are listed where they are swept.
    """

    def __init__(self, parts, k: int = 4):
        filled = [p[3] for p in parts if p[3] is not None]
        columns = [_join(c) for c in zip(*filled)] if filled else [np.empty(0)] * k
        x, y, ok = ([p[i] for p in parts] for i in range(3))
        self._x, self._y, self._ok = _join(x), _join(y), _join(ok, bool)
        self.vectors = tuple(columns)

    @property
    def skipped(self) -> list[list[float]]:
        x, y, ok = self._x, self._y, self._ok
        return np.column_stack((x[~ok], y[~ok])).tolist()

    def samples(self) -> list[ResidualSample]:
        points = zip(self._x[self._ok].tolist(), self._y[self._ok].tolist())
        return [ResidualSample(*f) for f in zip(points, *(v.tolist() for v in self.vectors))]

    def valid(self):
        """The normalized residuals of the non-degenerate samples, a numpy
        vector."""
        _, normalized, _, degenerate = self.vectors
        return normalized[np.logical_not(degenerate)]

    def stats(self) -> dict | None:
        """Report fields over the non-degenerate samples; None when there
        are none."""
        reduced = reduce_samples(self.valid())
        if not reduced.samples:
            return None
        x, y, ok, degenerate = self._x, self._y, self._ok, self.vectors[3]
        return {
            "samples": reduced.samples,
            "max_normalized": reduced.largest,
            "mean_normalized": reduced.mean,
            "degenerate_points": np.column_stack((x[ok], y[ok]))[degenerate].tolist(),
            "skipped_points": self.skipped,
        }


def sequential_sum(values) -> float:
    """Left-to-right float sum from 0.0, the same bits on every Python
    version (the builtin sum compensates its rounding from 3.12 on)."""
    # A running sum adds in order, where np.sum would add pairwise;
    # 0.0 + gives a sum of negative zeros the sign a sum from 0.0 has.
    with np.errstate(over="ignore", invalid="ignore"):
        running = np.add.accumulate(np.asarray(values, dtype=float))
    return 0.0 + float(running[-1]) if len(running) else 0.0


class Reduction(NamedTuple):
    """What a report says about a list of samples."""

    largest: float
    mean: float
    samples: int


def reduce_samples(values) -> Reduction:
    """The largest |v|, the mean |v| and the count of `values`.

    A NaN anywhere makes `largest` (and `mean`) NaN, so a verdict
    ``largest <= tolerance`` fails; an empty list gives 0.0 for both.
    """
    magnitudes = np.abs(np.asarray(values, dtype=float))
    count = len(magnitudes)
    if not count:
        return Reduction(0.0, 0.0, 0)
    # np.maximum keeps a NaN wherever it comes; max() only when it is first.
    largest = float(np.maximum.reduce(magnitudes))
    return Reduction(largest, sequential_sum(magnitudes) / count, count)


def judge(maxima, tolerance: float, labels=GEODESIC_VERDICTS) -> tuple[float, str]:
    """(worst, verdict): the largest of the per-foliation or per-function
    `maxima`, and labels[0] when it is within `tolerance`, else labels[1]."""
    worst = reduce_samples(maxima).largest
    return worst, labels[0] if worst <= tolerance else labels[1]


def _sweep(grid: GridSpec, kernels, k: int = 4) -> list[GridResiduals]:
    """The samples of each of `kernels` over a grid: ``kernel(block, ok)``
    gives the k values at a block's points, run through
    :meth:`~webgeo.exprlang.Block.run`.  Every kernel runs on a block
    before the next block is made, so they share its cache."""
    parts = [[] for _ in kernels]
    for block in grid.blocks():
        for kernel, out in zip(kernels, parts):
            values, ok = block.run(lambda ok: kernel(block, ok))
            out.append(_block_part(block, ok, values))
    return [GridResiduals(p, k) for p in parts]


def flex_sweep(f, grid: GridSpec) -> GridResiduals:
    """The flat-plane residual of f at every grid point: raw = Flex f, the
    value of :func:`flex`, normalized by |grad f|^3.  No connection is
    built; six zero Christoffel symbols in :func:`residual_sweep` give the
    same samples up to the sign of a zero."""
    return _sweep(grid, [partial(_residual, as_expression(f))])[0]


def residual_sweep(
    functions,
    grid: GridSpec,
    *,
    christoffels: ChristoffelField | None = None,
    thomas: ThomasParameters | None = None,
    curvature: float | None = None,
    surface=None,
) -> list[GridResiduals]:
    """Geodesicity residuals of each function at every grid point, for
    exactly one structure (the arguments of :func:`geodesic_web_report`).

    Every sample equals, bit for bit, what the single-point residual
    function gives at that point; the points where it raises
    :class:`EvaluationError` are skipped.  Raises ValueError for a
    curvature that is not finite.
    """
    supplied = [
        name
        for name, value in (
            ("christoffels", christoffels),
            ("thomas", thomas),
            ("curvature", curvature),
            ("surface", surface),
        )
        if value is not None
    ]
    if len(supplied) != 1:
        raise ValueError(
            f"exactly one geometric structure is required, got {supplied or 'none'}"
        )
    if curvature is not None:
        _check_curvature(curvature)
    structure = {
        "christoffels": christoffels,
        "thomas": None if thomas is None else thomas.as_tuple(),
        "curvature": curvature,
        "surface": None if surface is None else as_expression(surface),
    }
    return _sweep(grid, [partial(_residual, as_expression(f), **structure) for f in functions])


@dataclass(frozen=True)
class WebPresentation:
    """An ordered family of d >= 3 foliations given by level sets."""

    functions: tuple[Expression, ...]

    def __init__(self, functions):
        funcs = tuple(as_expression(f) for f in functions)
        if len(funcs) < 3:
            raise ValueError(f"a web needs at least 3 functions, got {len(funcs)}")
        object.__setattr__(self, "functions", funcs)

    def __len__(self):
        return len(self.functions)

    def __iter__(self):
        return iter(self.functions)


def _web_functions(web) -> list[Expression]:
    if isinstance(web, WebPresentation):
        return list(web.functions)
    return [as_expression(f) for f in web]


def geodesic_web_report(
    web,
    grid: GridSpec,
    *,
    christoffels: ChristoffelField | None = None,
    thomas: ThomasParameters | None = None,
    curvature: float | None = None,
    surface=None,
    tolerance: float = DEFAULT_TOLERANCE,
) -> dict:
    """Evaluate geodesicity of every foliation of a web over a grid.

    Exactly one structure must be supplied:

      christoffels: affine connection (covariant flex residual),
      thomas: ThomasParameters of a projective structure,
      curvature: constant-curvature parameter kappa of the model metric,
      surface: height expression z of a graph surface.

    Grid points where a web function or the structure hits a domain error
    are skipped and reported; points with a degenerate gradient are listed
    and excluded from the verdict.  The verdict is "geodesic" when every
    foliation's largest normalized residual stays within `tolerance`.
    """
    funcs = _web_functions(web)
    if not funcs:
        raise ValueError("web has no functions")
    sweep = residual_sweep(
        funcs,
        grid,
        christoffels=christoffels,
        thomas=thomas,
        curvature=curvature,
        surface=surface,
    )
    per_foliation = []
    for index, (f, series) in enumerate(zip(funcs, sweep)):
        stats = series.stats()
        if stats is None:
            raise ValueError(
                f"no valid grid samples for foliation {index + 1} "
                f"('{to_source(f)}'): all points degenerate or out of domain"
            )
        per_foliation.append({"index": index + 1, "function": to_source(f), **stats})
    worst, verdict = judge([entry["max_normalized"] for entry in per_foliation], tolerance)
    return {
        "per_foliation": per_foliation,
        "verdict": verdict,
        "max_normalized": worst,
        "tolerance": tolerance,
        "notes": [GRAPH_SURFACE_GAMMA_NOTE] if surface is not None else [],
    }
