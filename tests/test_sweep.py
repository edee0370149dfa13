"""The block sweeps against the single-point functions, bit for bit.

Random formulas lean on domain edges (square roots, logarithms, quotients
and fractional powers that vanish exactly at grid nodes, tangents next to
their poles), and random grids are swept in blocks of random size.  The
sweep must skip exactly the points where the single-point function raises
EvaluationError, flag the same degenerate points, and give every other
sample the same raw and normalized bits.  The CLI reports built from the
sweep must equal, byte for byte, reports built by looping the single-point
functions.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import struct

import numpy as np

import pytest

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import webgeo
from webgeo import geodesy
from webgeo.cli import run
from webgeo.eulerweb import connection_euler_residual, euler_residual, euler_sweep
from webgeo.exprlang import (
    Binary,
    Block,
    Call,
    Constant,
    EvaluationError,
    PartialDerivative,
    X,
    Y,
    evaluate,
    evaluate_jet,
    parse,
    to_source,
)
from webgeo.geodesy import (
    GridSpec,
    constant_curvature_residual,
    flex_residual,
    graph_surface_residual,
    residual_sweep,
)
from webgeo.geometry import ChristoffelField, ThomasParameters
from webgeo.projective import (
    SYMMETRY_WARNING_THRESHOLD,
    FiniteTypeState,
    alpha_beta,
    dweb_geodesic_residuals,
    dweb_sweep,
    finite_type_rhs,
    fit_projective_structure,
    fit_sweep,
    integrate_symmetric_connection,
    symmetric_conditions_residual,
    symmetry_sweep,
)
from webgeo.render import compose_report, write_csv_grid, write_report

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

HALF_PI = math.pi / 2.0

FLAT = ChristoffelField(*([Constant(0.0)] * 6))


@contextlib.contextmanager
def block_size(points: int):
    saved = geodesy.BLOCK_POINTS
    geodesy.BLOCK_POINTS = points
    try:
        yield
    finally:
        geodesy.BLOCK_POINTS = saved


@st.composite
def grids(draw):
    xmin = draw(st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.25, 1.0]))
    ymin = draw(st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0]))
    width = draw(st.sampled_from([0.0, 0.5, 1.0, 1.5, 3.0]))
    height = draw(st.sampled_from([0.0, 0.5, 1.0, 2.0]))
    nx = draw(st.integers(1, 9))
    ny = draw(st.integers(1, 9))
    return GridSpec(xmin, xmin + width, ymin, ymin + height, nx, ny)


def formulas(grid: GridSpec, negative_powers: bool = True):
    """Expression trees whose domain edges fall on the grid's nodes."""
    nodes = grid.xs() + grid.ys()

    # linear forms that are exactly zero at some grid nodes
    vanishing = st.one_of(
        st.sampled_from(grid.xs()).map(lambda c: X - Constant(c)),
        st.sampled_from(grid.ys()).map(lambda c: Y - Constant(c)),
        st.just(X - Y),
        st.sampled_from(nodes).map(lambda c: X + Y - Constant(c)),
    )
    leaves = st.one_of(
        st.just(X),
        st.just(Y),
        st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 1e-3]).map(Constant),
        vanishing,
    )
    exponents = [2.0, 3.0, 0.5, 1.5, 0.0, 1.0, 4.0]
    if negative_powers:
        exponents += [-1.0, -2.0, -0.5, -1.5]

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from("+-*/"), children, children).map(lambda t: Binary(*t)),
            st.tuples(st.sampled_from(["sqrt", "exp", "ln", "sin", "cos", "tan"]), children).map(
                lambda t: Call(t[0], t[1])
            ),
            st.tuples(children, st.sampled_from(exponents)).map(lambda t: t[0] ** t[1]),
            children.map(lambda c: -c),
            # a tangent next to its pole where c vanishes
            children.map(lambda c: Call("tan", c * Constant(1e-3) + Constant(HALF_PI))),
        )

    return st.recursive(leaves, extend, max_leaves=6)


def bits(v: float) -> bytes:
    if math.isnan(v):
        return b"nan"
    return struct.pack("<d", v)


def loop(fn, grid: GridSpec):
    """Samples by the single-point function: (skipped, samples)."""
    skipped, samples = [], []
    for point in grid.points():
        try:
            samples.append(fn(point))
        except EvaluationError:
            skipped.append([point[0], point[1]])
    return skipped, samples


def assert_same(series, skipped, samples):
    assert series.skipped == skipped
    assert [s.point for s in series.samples()] == [s.point for s in samples]
    raw, normalized, _, degenerate = series.vectors
    assert degenerate.tolist() == [s.degenerate for s in samples]
    assert [bits(v) for v in raw] == [bits(s.raw) for s in samples]
    assert [bits(v) for v in normalized] == [bits(s.normalized) for s in samples]


def assert_sweep_matches(sweep, point_fn, grid):
    """Either both raise the same non-EvaluationError exception, or they
    agree sample for sample."""
    try:
        expected = loop(point_fn, grid)
    except (OverflowError, ValueError) as exc:
        try:
            sweep()
        except type(exc):
            return
        raise AssertionError(f"single-point path raised {exc!r}, the sweep did not")
    assert_same(sweep(), *expected)


@SETTINGS
@given(data=st.data(), grid=grids(), block=st.integers(1, 40))
def test_covariant_flex_sweep_matches_flex_residual(data, grid, block):
    f = data.draw(formulas(grid))
    gammas = ChristoffelField(*(data.draw(formulas(grid)) for _ in range(6)))
    with block_size(block):
        assert_sweep_matches(
            lambda: residual_sweep([f], grid, christoffels=gammas)[0],
            lambda p: flex_residual(f, gammas, p),
            grid,
        )


@SETTINGS
@given(
    data=st.data(),
    grid=grids(),
    block=st.integers(1, 40),
    kappa=st.sampled_from([0.0, 1.0, -0.25, -0.5, 2.0, -1.0]),
)
def test_constant_curvature_sweep_matches(data, grid, block, kappa):
    funcs = [data.draw(formulas(grid)) for _ in range(data.draw(st.integers(1, 3)))]
    with block_size(block):
        for index, f in enumerate(funcs):
            assert_sweep_matches(
                lambda: residual_sweep(funcs, grid, curvature=kappa)[index],
                lambda p: constant_curvature_residual(f, kappa, p),
                grid,
            )


@SETTINGS
@given(data=st.data(), grid=grids(), block=st.integers(1, 40))
def test_graph_surface_sweep_matches(data, grid, block):
    f = data.draw(formulas(grid))
    z = data.draw(formulas(grid))
    with block_size(block):
        assert_sweep_matches(
            lambda: residual_sweep([f], grid, surface=z)[0],
            lambda p: graph_surface_residual(f, z, p),
            grid,
        )


@SETTINGS
@given(data=st.data(), grid=grids(), block=st.integers(1, 40), with_pi=st.booleans())
def test_euler_sweep_matches(data, grid, block, with_pi):
    w = data.draw(formulas(grid))
    pi = ThomasParameters(0.5, -1.25, 0.75, 2.0) if with_pi else None
    if pi is None:
        point_fn = lambda p: euler_residual(w, p)  # noqa: E731
    else:
        point_fn = lambda p: connection_euler_residual(w, pi, p)  # noqa: E731
    with block_size(block):
        assert_sweep_matches(
            lambda: euler_sweep(w, grid, pi),
            lambda p: geodesy.ResidualSample(tuple(p), point_fn(p), point_fn(p), math.nan, False),
            grid,
        )


def test_generated_graph_connection_sweep_matches():
    """Christoffels made of derivative nodes of a surface height (each
    target jetted once per block and order) equal the single-point path."""
    from webgeo.geometry import christoffels_graph_surface

    grid = GridSpec(0.6, 1.4, 0.4, 1.2, 5, 5)
    gammas = christoffels_graph_surface("ln(1 + 0.4*(x^2 + y^2))")
    f = parse("y/x")
    skipped, samples = loop(lambda p: flex_residual(f, gammas, p), grid)
    assert_same(residual_sweep([f], grid, christoffels=gammas)[0], skipped, samples)


def test_overflow_inside_a_node_is_not_hidden_by_a_zero_factor():
    """At x = 1e-300 the jet of sqrt(x) overflows in its second-order
    coefficients; the single-point path raises there, so the sweep must
    skip the point even though 0*sqrt(x) multiplies the overflow away."""
    grid = GridSpec(1e-300, 0.5, 0.0, 1.0, 2, 2)
    f = parse("0*sqrt(x) + x*y")
    skipped, samples = loop(lambda p: flex_residual(f, FLAT, p), grid)
    assert skipped == [[1e-300, 0.0], [1e-300, 1.0]]
    assert_same(residual_sweep([f], grid, christoffels=FLAT)[0], skipped, samples)


def lane_bits(value, k):
    """The bits of lane k of a block value, or of each entry of a table; a
    float stands for every lane."""
    if isinstance(value, list):
        return [lane_bits(v, k) for v in value]
    return bits(value if isinstance(value, float) else value[k])


@pytest.mark.parametrize(
    "formula, order, xs, ys, message",
    [
        pytest.param("exp(800*x)", 0, np.linspace(0.8, 1.0, 9), np.zeros(9), "math range error",
                     id="exp-overflow"),
        # D[2,0] takes 2! times a coefficient of 1e308 (1 + y): inf at y = 1,
        # where math.sin raises
        pytest.param(Call("sin", PartialDerivative(parse("5e307*x^2*(1+y)"), 2, 0)), 0,
                     [0.0, 0.0], [1.0, -1.0], "math domain error", id="sin-of-inf"),
        # the exp series of a jet: math.exp overflows from x = 0.9 on, while
        # at x = 0.85 every coefficient up to 800^2/2 exp(680) is finite
        pytest.param("exp(800*x)", 2, np.linspace(0.8, 1.0, 5), np.zeros(5), "exp overflow",
                     id="exp-series-overflow"),
    ],
)
def test_block_values_clear_the_lanes_where_math_raises(formula, order, xs, ys, message):
    """A `math` function that raises at some lanes sends the block value
    or jet walk lane by lane: it clears exactly the lanes where the
    single-point value or jet raises, and keeps the bits of the others."""
    e = parse(formula) if isinstance(formula, str) else formula
    values, ok = Block(xs, ys).evaluate(e, order)
    raised = []
    for k, point in enumerate(zip(xs, ys)):
        try:
            want = evaluate(e, point) if order == 0 else evaluate_jet(e, point, order).table
        except EvaluationError as exc:
            assert message in str(exc)
            raised.append(k)
            continue
        assert lane_bits(values, k) == lane_bits(want, k)
    assert 0 < len(raised) < len(xs)
    assert [k for k, valid in enumerate(ok) if not valid] == raised


def test_residual_sweep_runs_each_function_once_per_block(monkeypatch):
    """One Block.run per function per block takes the structure terms
    too; the Christoffels inside it come from the block's cache, so they
    are evaluated once per block for all the functions."""
    top_level, evaluated = [], []
    run, evaluate = Block.run, Block.evaluate
    depth = 0

    def counting_run(self, kernel):
        nonlocal depth
        if depth == 0:
            top_level.append(self)
        depth += 1
        try:
            return run(self, kernel)
        finally:
            depth -= 1

    def counting_evaluate(self, e, order):
        if (id(e), order) not in self._cache:
            evaluated.append(self)
        return evaluate(self, e, order)

    monkeypatch.setattr(Block, "run", counting_run)
    monkeypatch.setattr(Block, "evaluate", counting_evaluate)
    gammas = ChristoffelField(*(parse(f"{k}*x*y + y") for k in range(1, 7)))
    grid = GridSpec(0.0, 1.0, 0.0, 1.0, 3, 3)
    with block_size(4):
        series = residual_sweep(["x^2 + y", "x*y", "sin(x) + y"], grid, christoffels=gammas)
    assert [len(s.samples()) for s in series] == [9, 9, 9]
    # the lists keep every block alive, so no two share an id
    blocks = list(dict.fromkeys(map(id, top_level)))
    assert len(blocks) == 3
    assert list(map(id, top_level)) == [b for b in blocks for _ in range(3)]
    # three functions and six Christoffels, each evaluated once per block
    assert list(map(id, evaluated)) == [b for b in blocks for _ in range(9)]


# Undefined on the row y = 0 (a division by zero), degenerate at (0, -1)
# and (0, 1), where both partial derivatives vanish.
ROW_GAP = "x*x + (y*y - 1)^2/(y*y)"
ROW_GAP_GRID = GridSpec(-1.0, 1.0, -1.0, 1.0, 3, 3)
# A 4-web fitted everywhere off that row, and an invariant pair defined
# only at the corners.
FIT_GAP = ["x", "y", "x + y", "x - y + (y*y - 1)^2/(y*y)"]
SYMMETRY_GAP = ("exp(x) + y", "x + 2*y + 1/y")


def reference_summary(skipped, samples):
    """`reference_stats` as a :class:`geodesy.Summary`; with no valid
    sample, 0.0 from 0 samples."""
    stats = reference_stats(skipped, samples)
    if stats is None:
        degenerate = [list(s.point) for s in samples if s.degenerate]
        return geodesy.Summary(0, 0.0, 0.0, skipped, degenerate)
    return geodesy.Summary(
        stats["samples"],
        stats["max_normalized"],
        stats["mean_normalized"],
        stats["skipped_points"],
        stats["degenerate_points"],
    )


@pytest.mark.parametrize("block", [1, 2, 3, 4, 9])
def test_samples_keep_grid_order_across_blocks(block):
    """With blocks of one row each, the middle block has no valid lane and
    its kernel gives None; the samples of the blocks around it, and the
    report fields, keep the point-by-point order.  The two symmetry
    columns leave no sample out, and a dweb function with no valid sample
    (a constant, degenerate at every point) gives 0.0 from 0 samples."""
    f = parse(ROW_GAP)
    skipped, samples = loop(lambda p: geodesy._sample(f, p), ROW_GAP_GRID)
    assert skipped == [[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]]
    assert [s.point for s in samples if s.degenerate] == [(0.0, -1.0), (0.0, 1.0)]
    pairs, pair_skipped = point_loop(
        lambda p: symmetric_conditions_residual(*SYMMETRY_GAP, p), ROW_GAP_GRID
    )
    points = [p for p in ROW_GAP_GRID.points() if list(p) not in pair_skipped]
    web = [*FIT_GAP, ROW_GAP, "1"]
    rows, row_skipped = point_loop(lambda p: dweb_geodesic_residuals(web, p), ROW_GAP_GRID)
    assert len(points) == len(pairs) == 4 and len(rows) == 6
    with block_size(block):
        series = geodesy.flex_sweep(f, ROW_GAP_GRID)
        (connected,) = residual_sweep([f], ROW_GAP_GRID, christoffels=FLAT)
        symmetric = symmetry_sweep(*SYMMETRY_GAP, ROW_GAP_GRID)
        functions = dweb_sweep(web, ROW_GAP_GRID)
    for out in (series, connected):
        assert_same(out, skipped, samples)
        assert [bits(v) for v in out.vectors[2]] == [bits(s.gradient_norm) for s in samples]
        assert out.summary(1) == reference_summary(skipped, samples)
    for i in (0, 1):
        column = [
            geodesy.ResidualSample(p, v[i], v[i], math.nan, False) for p, v in zip(points, pairs)
        ]
        expected = reference_summary(pair_skipped, column)
        assert symmetric.summary(i) == expected and expected.degenerate_points == []
    for i, out in enumerate(functions):
        assert out.summary(1) == reference_summary(row_skipped, [row[i] for row in rows])
    assert functions[1].summary(1)[:3] == (0, 0.0, 0.0)


def test_fit_and_symmetry_sweeps_keep_grid_order_across_blocks():
    values, skipped = point_loop(
        lambda p: fit_projective_structure(FIT_GAP, p).as_tuple(), ROW_GAP_GRID
    )
    pairs, pair_skipped = point_loop(
        lambda p: symmetric_conditions_residual(*SYMMETRY_GAP, p), ROW_GAP_GRID
    )
    assert values and skipped and pairs and pair_skipped
    with block_size(3):
        fitted = fit_sweep(FIT_GAP, ROW_GAP_GRID)
        symmetric = symmetry_sweep(*SYMMETRY_GAP, ROW_GAP_GRID)
    assert fitted.skipped == skipped
    assert [[bits(v) for v in c] for c in fitted.vectors] == [
        [bits(v) for v in c] for c in zip(*values)
    ]
    assert symmetric.skipped == pair_skipped
    r1, r2 = symmetric.vectors
    assert [bits(v) for v in r1] == [bits(v[0]) for v in pairs]
    assert [bits(v) for v in r2] == [bits(v[1]) for v in pairs]


@pytest.mark.parametrize(
    "grid, block",
    [
        (GridSpec(0.0, 0.6, 0.1, 0.7, 7, 7), 5),
        (GridSpec(-0.3, 0.7, 0.1, 1.1, 7, 11), 4),
        (GridSpec(0.1, 0.7, -1.3, 1.9, 7, 300), None),
        (GridSpec(1e-3, 2.0 / 3.0, 0.2, 0.2, 9, 1), 2),
    ],
)
def test_blocks_hold_the_bits_of_points(grid, block):
    """The blocks' coordinates, end to end, are `points()` bit for bit, for
    steps that floats cannot represent exactly and a block size that does
    not divide nx * ny."""
    size = geodesy.BLOCK_POINTS if block is None else block
    assert (grid.nx * grid.ny) % size
    with block_size(size):
        blocks = list(grid.blocks())
    assert [len(b.x) for b in blocks[:-1]] == [size] * (len(blocks) - 1)
    assert 0 < len(blocks[-1].x) < size
    xs = [v for b in blocks for v in b.x.tolist()]
    ys = [v for b in blocks for v in b.y.tolist()]
    assert [(bits(x), bits(y)) for x, y in zip(xs, ys)] == [
        (bits(x), bits(y)) for x, y in grid.points()
    ]


def python_only(value) -> bool:
    """True when `value` is built of Python floats, bools, tuples and
    lists alone (and the ResidualSample that holds them)."""
    if type(value) in (tuple, list):
        return all(python_only(v) for v in value)
    if isinstance(value, geodesy.ResidualSample):
        return all(python_only(getattr(value, name)) for name in value.__dataclass_fields__)
    return type(value) in (float, bool)


def test_public_views_hold_python_values():
    f = parse(ROW_GAP)
    with block_size(3):
        series = geodesy.flex_sweep(f, ROW_GAP_GRID)
        fitted = fit_sweep(FIT_GAP, ROW_GAP_GRID)
        symmetric = symmetry_sweep(*SYMMETRY_GAP, ROW_GAP_GRID)
    for view in [series.skipped, series.samples(), fitted.skipped, symmetric.skipped]:
        assert view and python_only(view), view
    assert all(type(s.point) is tuple for s in series.samples())
    assert all(type(p) is list for p in series.skipped)
    summaries = [series.summary(1), fitted.summary(0), *map(symmetric.summary, (0, 1))]
    for summary in summaries:
        assert python_only(summary.degenerate_points) and python_only(summary.skipped_points)
        assert type(summary.samples) is int
        assert type(summary.largest) is float and type(summary.mean) is float
    assert summaries[0].degenerate_points


# ------------------------------------------------------- CLI report bytes


def cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    return code, out.getvalue()


def grid_text(g: GridSpec) -> str:
    return f"{g.xmin!r}:{g.xmax!r}:{g.ymin!r}:{g.ymax!r}:{g.nx}:{g.ny}"


def reference_stats(skipped, samples):
    valid = [s for s in samples if not s.degenerate]
    if not valid:
        return None
    values = [abs(s.normalized) for s in valid]
    return {
        "samples": len(valid),
        "max_normalized": max(values),
        "mean_normalized": sum(values) / len(values),
        "degenerate_points": [list(s.point) for s in samples if s.degenerate],
        "skipped_points": skipped,
    }


def reference_flex(source, grid, fmt, tol=1e-8):
    f = parse(source)
    skipped, samples = loop(lambda p: flex_residual(f, FLAT, p), grid)
    stats = reference_stats(skipped, samples)
    if stats is None:
        return 1, ""
    if fmt == "csv":
        return 0, write_csv_grid(samples)
    results = {
        "per_foliation": [stats],
        "verdict": "geodesic" if stats["max_normalized"] <= tol else "non-geodesic",
        "max_normalized": stats["max_normalized"],
        "tolerance": tol,
    }
    report = compose_report("flex", {"f": to_source(f), "tolerance": tol}, grid.as_dict(), results)
    return 0, write_report(report)


def reference_euler(source, grid, fmt, tol=1e-8):
    w = parse(source)
    skipped, samples = loop(lambda p: (p, euler_residual(w, p)), grid)
    if not samples:
        return 1, ""
    values = [abs(v) for _, v in samples]
    worst = max(values)
    if fmt == "csv":
        rows = ["x,y,raw,normalized,degenerate"]
        rows += [f"{p[0]!r},{p[1]!r},{v!r},{v!r},false" for p, v in samples]
        return 0, "\n".join(rows) + "\n"
    results = {
        "max_residual": worst,
        "mean_residual": sum(values) / len(values),
        "samples": len(samples),
        "skipped_points": skipped,
        "verdict": "pass" if worst <= tol else "fail",
    }
    report = compose_report("euler", {"w": to_source(w), "tolerance": tol}, grid.as_dict(), results)
    return 0, write_report(report)


def reference_geodesic(sources, structure, grid, tol=1e-8):
    web = [parse(s) for s in sources]
    kind, _, rest = structure.partition(":")
    if kind == "constcurv":
        kappa = float(rest)
        point_fn = lambda f, p: constant_curvature_residual(f, kappa, p)  # noqa: E731
    elif kind == "graph":
        z = parse(rest)
        point_fn = lambda f, p: graph_surface_residual(f, z, p)  # noqa: E731
    else:
        gammas = ChristoffelField(*(parse(c) for c in rest.split(";")))
        point_fn = lambda f, p: flex_residual(f, gammas, p)  # noqa: E731
    per_foliation = []
    worst = 0.0
    for index, f in enumerate(web):
        stats = reference_stats(*loop(lambda p: point_fn(f, p), grid))
        if stats is None:
            return 1, ""
        worst = max(worst, stats["max_normalized"])
        per_foliation.append({"index": index + 1, "function": to_source(f), **stats})
    results = {
        "per_foliation": per_foliation,
        "verdict": "geodesic" if worst <= tol else "non-geodesic",
        "max_normalized": worst,
        "tolerance": tol,
    }
    notes = [geodesy.GRAPH_SURFACE_GAMMA_NOTE] if kind == "graph" else []
    report = compose_report(
        "geodesic",
        {"web": [to_source(f) for f in web], "christoffel": structure, "tolerance": tol},
        grid.as_dict(),
        results,
        notes=notes,
    )
    return 0, write_report(report)


def source_formulas(grid):
    return formulas(grid, negative_powers=False).map(to_source)


@SETTINGS
@given(data=st.data(), grid=grids(), fmt=st.sampled_from(["json", "csv"]))
def test_flex_and_euler_cli_bytes(data, grid, fmt):
    source = data.draw(source_formulas(grid))
    for command, reference in (("flex", reference_flex), ("euler", reference_euler)):
        option = "--f" if command == "flex" else "--w"
        try:
            expected = reference(source, grid, fmt)
        except (OverflowError, ValueError):
            continue
        argv = [command, f"{option}={source}", f"--grid={grid_text(grid)}", f"--format={fmt}"]
        assert cli(argv) == expected, argv


@SETTINGS
@given(data=st.data(), grid=grids(), block=st.integers(1, 40))
def test_flat_plane_sweep_matches_the_point_kernel(data, grid, block):
    """`flex_sweep`, the residual without a connection, gives every sample
    the bits of the single-point kernel, and its raw value is
    `geodesy.flex` at that point, bit for bit."""
    f = data.draw(formulas(grid))
    with block_size(block):
        assert_sweep_matches(
            lambda: geodesy.flex_sweep(f, grid), lambda p: geodesy._sample(f, p), grid
        )
        try:
            series = geodesy.flex_sweep(f, grid)
        except (OverflowError, ValueError):
            return
    for sample in series.samples():
        assert bits(sample.raw) == bits(geodesy.flex(f, sample.point)), sample.point


#: Formulas whose negated or divided-by-minus-one zero derivatives meet
#: gradients of every sign on the grid below.
NEGATED_ZEROS = [
    "-(x + y)",
    "-(0*x*x + y)",
    "-(y - x)",
    "-(x*0 + y)",
    "sin(-x) + y",
    "-sin(x) - sin(y)",
    "sin(x)/(-1) + sin(y)/(-1)",
    "sin(x)/(-1) + y",
]


@pytest.mark.parametrize("source", NEGATED_ZEROS)
def test_flex_csv_keeps_the_bits_of_the_zero_connection(source):
    """These CSV reports have the bytes of the covariant residual with six
    zero Christoffel symbols, which `flex` computed before the flat-plane
    kernel."""
    grid = GridSpec(-1.0, 1.0, -1.0, 1.0, 3, 3)
    zero = residual_sweep([source], grid, christoffels=FLAT)[0]
    argv = ["flex", f"--f={source}", f"--grid={grid_text(grid)}", "--format=csv"]
    assert cli(argv) == (0, write_csv_grid(zero.samples()))


def test_flex_csv_zero_sign_where_the_kernels_differ():
    """Where f_xx, f_xy and f_yy are all -0.0 and f_x, f_y have opposite
    signs, Flex f is -0.0, while the covariant form subtracts 0*f_x and
    0*f_y and gives +0.0.  The CSV prints the flat-plane value; the JSON
    report, which reduces |v|, is the same for both."""
    source = "sin(x)/(-1) - (-y)"
    grid = GridSpec(0.0, 0.0, -1.0, 1.0, 1, 3)
    code, text = cli(["flex", f"--f={source}", f"--grid={grid_text(grid)}", "--format=csv"])
    assert code == 0
    rows = [f"0.0,{y!r},-0.0,-0.0,false" for y in grid.ys()]
    assert text.splitlines()[1:] == rows
    zero = residual_sweep([source], grid, christoffels=FLAT)[0]
    assert [bits(v) for v in zero.vectors[0]] == [bits(0.0)] * 3
    assert [bits(geodesy.flex(source, p)) for p in grid.points()] == [bits(-0.0)] * 3
    json_argv = ["flex", f"--f={source}", f"--grid={grid_text(grid)}"]
    assert cli(json_argv) == reference_flex(source, grid, "json")


@SETTINGS
@given(
    data=st.data(),
    grid=grids(),
    kind=st.sampled_from(["constcurv", "graph", "custom"]),
    kappa=st.sampled_from(["1.0", "-0.5", "0.25"]),
)
def test_geodesic_cli_bytes(data, grid, kind, kappa):
    web = [data.draw(source_formulas(grid)) for _ in range(data.draw(st.integers(1, 3)))]
    if kind == "constcurv":
        structure = f"constcurv:{kappa}"
    elif kind == "graph":
        structure = f"graph:{data.draw(source_formulas(grid))}"
    else:
        structure = "custom:" + "; ".join(data.draw(source_formulas(grid)) for _ in range(6))
    try:
        expected = reference_geodesic(web, structure, grid)
    except (OverflowError, ValueError):
        return
    argv = ["geodesic", f"--web={'; '.join(web)}", f"--christoffel={structure}",
            f"--grid={grid_text(grid)}"]
    assert cli(argv) == expected, argv


# ------------------------------------------- web invariants: fit, dweb, symcheck


def web_functions(grid: GridSpec, negative_powers: bool = True):
    """Web functions: lines, parabolas tangent to y = const along a grid
    column, lines perturbed by a random formula, and random formulas."""
    lines = st.tuples(
        st.sampled_from([-1.0, 0.5, 1.0, 2.0]), st.sampled_from([-1.0, 0.5, 1.0, 3.0])
    ).map(lambda t: Constant(t[0]) * X + Constant(t[1]) * Y)
    tangent = st.tuples(st.sampled_from(grid.xs()), st.sampled_from([0.25, 1.0])).map(
        lambda t: Y + Constant(t[1]) * (X - Constant(t[0])) ** 2.0
    )
    random = formulas(grid, negative_powers)
    perturbed = st.tuples(lines, random).map(lambda t: t[0] + Constant(0.1) * t[1])
    # lines and perturbed lines come up most, so that many points are valid
    return st.one_of(lines, perturbed, lines, perturbed, tangent, random)


def webs(grid: GridSpec, sizes=(4, 7), negative_powers: bool = True):
    """d-webs (x, y, f3, ..., fd) or, one time in four, webs of d arbitrary
    functions."""
    funcs = web_functions(grid, negative_powers)
    normalized = st.integers(sizes[0] - 2, sizes[1] - 2).flatmap(
        lambda n: st.lists(funcs, min_size=n, max_size=n, unique_by=to_source).map(
            lambda fs: [X, Y, *fs]
        )
    )
    free = st.lists(funcs, min_size=sizes[0], max_size=sizes[1], unique_by=to_source)
    return st.one_of(normalized, normalized, normalized, free)


def invariant_pairs(grid: GridSpec, negative_powers: bool = True):
    """(f3, f4) pairs, some with a vanishing denominator of alpha and beta:
    f3_x = 0 along a grid column, Delta = 0 everywhere (f4 = 2 f3), or
    f3_x = y vanishing on a grid row."""
    funcs = web_functions(grid, negative_powers)
    zero_fx = st.sampled_from(grid.xs()).map(lambda c: (X - Constant(c)) ** 2.0 + Y)
    # the x*y term keeps f4 apart from f3 when both draws coincide
    pairs = st.tuples(funcs, funcs).map(lambda t: (t[0], t[1] + Constant(0.5) * X * Y))
    return st.one_of(
        pairs,
        pairs,
        st.tuples(zero_fx, funcs),
        funcs.map(lambda f: (f, Constant(2.0) * f)),
        st.just((X + Y, X * Y)),
        st.just((X * Y, X + Y * Y)),
    )


def point_loop(fn, grid: GridSpec):
    """fn at every grid point: (values, skipped).  Every failure of a point
    is a ValueError (EvaluationError, JetDomainError, DegenerateWebError,
    non-finite ThomasParameters)."""
    values, skipped = [], []
    for point in grid.points():
        try:
            values.append(fn(point))
        except ValueError:
            skipped.append([point[0], point[1]])
    return values, skipped


@SETTINGS
@given(data=st.data(), grid=grids(), block=st.integers(1, 40))
def test_fit_sweep_matches_fit_projective_structure(data, grid, block):
    web = data.draw(webs(grid, sizes=(4, 4)))
    values, skipped = point_loop(lambda p: fit_projective_structure(web, p).as_tuple(), grid)
    with block_size(block):
        fitted = fit_sweep(web, grid)
    assert fitted.skipped == skipped
    expected = list(zip(*values)) if values else [(), (), (), ()]
    assert [[bits(v) for v in c] for c in fitted.vectors] == [[bits(v) for v in c] for c in expected]


@SETTINGS
@given(data=st.data(), grid=grids(), block=st.integers(1, 40))
def test_dweb_sweep_matches_dweb_geodesic_residuals(data, grid, block):
    web = data.draw(webs(grid, sizes=(5, 7)))
    rows, skipped = point_loop(lambda p: dweb_geodesic_residuals(web, p), grid)
    with block_size(block):
        series = dweb_sweep(web, grid)
    assert len(series) == len(web) - 4
    for index, out in enumerate(series):
        assert_same(out, skipped, [row[index] for row in rows])


@pytest.mark.parametrize("block", [1, 4, 40])
def test_dweb_series_share_one_set_of_points(block):
    """Every function's series of one dweb sweep holds the same point
    vectors and skipped list, built once, whatever the blocks."""
    web = [*FIT_GAP, ROW_GAP, "1", "x + 2*y"]
    rows, skipped = point_loop(lambda p: dweb_geodesic_residuals(web, p), ROW_GAP_GRID)
    assert skipped and rows
    with block_size(block):
        series = dweb_sweep(web, ROW_GAP_GRID)
    assert len(series) == 3
    for index, out in enumerate(series):
        assert_same(out, skipped, [row[index] for row in rows])
        assert out.skipped is series[0].skipped
        assert out.summary(1).skipped_points is series[0].summary(1).skipped_points
        assert [s.point for s in out.samples()] == [s.point for s in series[0].samples()]


@SETTINGS
@given(data=st.data(), grid=grids(), block=st.integers(1, 40))
def test_symmetry_sweep_matches_symmetric_conditions_residual(data, grid, block):
    f3, f4 = data.draw(invariant_pairs(grid))
    values, skipped = point_loop(lambda p: symmetric_conditions_residual(f3, f4, p), grid)
    with block_size(block):
        symmetric = symmetry_sweep(f3, f4, grid)
    assert symmetric.skipped == skipped
    r1, r2 = symmetric.vectors
    assert [bits(v) for v in r1] == [bits(v[0]) for v in values]
    assert [bits(v) for v in r2] == [bits(v[1]) for v in values]


def test_sweeps_see_the_failures_of_every_kind():
    """The strategies reach every way a point fails: a tangent pair, a
    Jacobian product that underflows, an out-of-domain formula, a vanishing
    alpha/beta denominator and an overflow in the jet chain."""
    grid = GridSpec(0.5, 4.0, 0.0, 4.0, 3, 3)
    cases = [
        (["x", "y", "y + (x - 2.25)^2", "x + y"], "tangent"),
        (["1e-120*x", "1e-120*y", "1e-120*(x+y)", "1e-120*(x-y)"], "multiply to zero"),
        (["x", "y", "sqrt(x - 2.25)", "x + y"], "sqrt"),
    ]
    for sources, reason in cases:
        web = [parse(s) for s in sources]
        skipped = fit_sweep(web, grid).skipped
        assert skipped, reason
        with pytest.raises(ValueError, match=reason):
            fit_projective_structure(web, tuple(skipped[0]))
    for f3, f4, reason in (
        ("x*y", "x + y^2", "f3_x = 0"),
        ("exp(60*x)+exp(60*y)", "x*y+x+2*y", "non-finite coefficient produced by mul"),
    ):
        skipped = symmetry_sweep(f3, f4, grid).skipped
        assert skipped, reason
        with pytest.raises(ValueError, match=reason):
            symmetric_conditions_residual(f3, f4, tuple(skipped[-1]))


def test_cube_overflow_raises_evaluation_error_at_one_point():
    f = parse("1e200*x")
    with pytest.raises(EvaluationError, match="overflows"):
        flex_residual(f, FLAT, (0.5, 0.5))
    with pytest.raises(EvaluationError, match="overflows"):
        connection_euler_residual(f, ThomasParameters(1.0, 1.0, 1.0, 1.0), (0.5, 0.5))
    with pytest.raises(EvaluationError, match="overflows"):
        dweb_geodesic_residuals(["x", "y", "x+y", "x-y", "exp(60*x)+y"], (4.0, 0.5))


def reference_fit(sources, grid):
    web = [parse(s) for s in sources]
    values, skipped = point_loop(lambda p: fit_projective_structure(web, p).as_tuple(), grid)
    if not values:
        return 1, ""
    sums = [0.0, 0.0, 0.0, 0.0]
    lows = [float("inf")] * 4
    highs = [float("-inf")] * 4
    for pi in values:
        for idx, value in enumerate(pi):
            sums[idx] += value
            lows[idx] = min(lows[idx], value)
            highs[idx] = max(highs[idx], value)
    names = ("p1_22", "p1_12", "p2_12", "p2_11")
    results = {
        "pi": {n: sums[i] / len(values) for i, n in enumerate(names)},
        "max_spread": max(highs[i] - lows[i] for i in range(4)),
        "points_used": len(values),
        "skipped_points": skipped,
    }
    report = compose_report("fit", {"web": [to_source(f) for f in web]}, grid.as_dict(), results)
    return 0, write_report(report)


def reference_dweb(sources, grid, tol=1e-8):
    web = [parse(s) for s in sources]
    rows, skipped = point_loop(lambda p: dweb_geodesic_residuals(web, p), grid)
    worst = 0.0
    per_function = [
        {"index": idx + 5, "function": to_source(f), "max_normalized": 0.0, "samples": 0}
        for idx, f in enumerate(web[4:])
    ]
    for row in rows:
        for entry, sample in zip(per_function, row):
            if sample.degenerate:
                continue
            entry["samples"] += 1
            entry["max_normalized"] = max(entry["max_normalized"], abs(sample.normalized))
            worst = max(worst, abs(sample.normalized))
    if all(entry["samples"] == 0 for entry in per_function):
        return 1, ""
    results = {
        "per_function": per_function,
        "skipped_points": skipped,
        "max_normalized": worst,
        "verdict": "geodesic" if worst <= tol else "non-geodesic",
        "tolerance": tol,
    }
    report = compose_report(
        "dweb", {"web": [to_source(f) for f in web], "tolerance": tol}, grid.as_dict(), results
    )
    return 0, write_report(report)


def reference_symcheck(f3_source, f4_source, grid, tol=1e-8):
    f3, f4 = parse(f3_source), parse(f4_source)
    values, skipped = point_loop(lambda p: symmetric_conditions_residual(f3, f4, p), grid)
    if not values:
        return 1, ""
    r1 = [abs(v[0]) for v in values]
    r2 = [abs(v[1]) for v in values]
    worst = max(max(r1), max(r2))
    results = {
        "r1": {"max": max(r1), "mean": sum(r1) / len(r1)},
        "r2": {"max": max(r2), "mean": sum(r2) / len(r2)},
        "samples": len(r1),
        "skipped_points": skipped,
        "verdict": "symmetric" if worst <= tol else "non-symmetric",
        "tolerance": tol,
    }
    report = compose_report(
        "symcheck",
        {"f3": to_source(f3), "f4": to_source(f4), "tolerance": tol},
        grid.as_dict(),
        results,
    )
    return 0, write_report(report)


@SETTINGS
@given(data=st.data(), grid=grids())
def test_fit_dweb_and_symcheck_cli_bytes(data, grid):
    fit_web = [to_source(f) for f in data.draw(webs(grid, (4, 4), negative_powers=False))]
    argv = ["fit", f"--web={'; '.join(fit_web)}", f"--grid={grid_text(grid)}"]
    assert cli(argv) == reference_fit(fit_web, grid), argv

    dweb_web = [to_source(f) for f in data.draw(webs(grid, (5, 7), negative_powers=False))]
    argv = ["dweb", f"--web={'; '.join(dweb_web)}", f"--grid={grid_text(grid)}"]
    assert cli(argv) == reference_dweb(dweb_web, grid), argv

    f3, f4 = (to_source(f) for f in data.draw(invariant_pairs(grid, negative_powers=False)))
    argv = ["symcheck", f"--f3={f3}", f"--f4={f4}", f"--grid={grid_text(grid)}"]
    assert cli(argv) == reference_symcheck(f3, f4, grid), argv


@pytest.mark.parametrize(
    "column",
    [
        [0.0, -0.0] * 40 + [-0.0],
        [-0.0] * 33 + [0.0] * 31,
        [0.0] * 17,
        [1.5, -0.0, 0.0, -2.25],
        [-0.0, 3.0],
    ],
)
def test_fit_spread_has_the_bits_of_python_max_and_min(monkeypatch, column):
    """The fit's spread is read from the column vectors; a spread of equal
    values is +0.0, as Python's max and min give it, whichever zeros numpy
    picks."""

    lanes = len(column)
    part = (np.zeros(lanes), np.zeros(lanes), np.ones(lanes, bool), [np.array(column)] * 4)
    fitted = geodesy.GridResiduals([part])
    monkeypatch.setattr(webgeo.projective, "fit_sweep", lambda web, grid: fitted)
    code, text = cli(["fit", "--web=x; y; x + y; x - y", "--grid=0:1:0:1:2:2"])
    assert code == 0
    spread = json.loads(text)["results"]["max_spread"]
    assert bits(spread) == bits(max(column) - min(column))


# ------------------------------------------------ symintegrate: path transport


def reference_transport(f3, f4, initial, path, step):
    """integrate_symmetric_connection as a loop over the steps that runs
    alpha_beta and the symmetry residual at every sample:
    (state, constraint residual, max symmetry residual, warnings)."""
    points = [(float(p[0]), float(p[1])) for p in path]
    max_sym = 0.0

    def sample(point):
        nonlocal max_sym
        ab = alpha_beta(f3, f4, point)
        r1, r2 = symmetric_conditions_residual(f3, f4, point)
        max_sym = max(max_sym, abs(r1), abs(r2))
        return ab

    def field(values, ab, direction):
        state = FiniteTypeState.from_array(values)
        sxx, sxy, syy, txx, txy, tyy = finite_type_rhs(state, ab)
        ddx = np.array([state.sigma_x, state.tau_x, sxx, sxy, txx, txy])
        ddy = np.array([state.sigma_y, state.tau_y, sxy, syy, txy, tyy])
        return direction[0] * ddx + direction[1] * ddy

    ab_current = sample(points[0])
    c0 = initial.constraint_residual(ab_current.alpha_x, ab_current.beta_y)
    if abs(c0) > 1e-8:
        raise ValueError(
            f"initial state violates the trace constraint: residual {c0!r} at {points[0]}"
        )
    values = initial.as_array()
    for (x0, y0), (x1, y1) in zip(points[:-1], points[1:]):
        length = math.hypot(x1 - x0, y1 - y0)
        if length == 0.0:
            continue
        direction = ((x1 - x0) / length, (y1 - y0) / length)
        n_steps = max(1, math.ceil(length / step))
        h = length / n_steps
        base = (x0, y0)
        for k in range(n_steps):
            if k == n_steps - 1:
                end = (x1, y1)
            else:
                end = (x0 + direction[0] * (k + 1) * h, y0 + direction[1] * (k + 1) * h)
            mid = (base[0] + direction[0] * h / 2.0, base[1] + direction[1] * h / 2.0)
            ab_mid = sample(mid)
            ab_end = sample(end)
            k1 = field(values, ab_current, direction)
            k2 = field(values + 0.5 * h * k1, ab_mid, direction)
            k3 = field(values + 0.5 * h * k2, ab_mid, direction)
            k4 = field(values + h * k3, ab_end, direction)
            values = values + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            ab_current = ab_end
            base = end
    state = FiniteTypeState.from_array(values)
    warnings = ()
    if max_sym > SYMMETRY_WARNING_THRESHOLD:
        warnings = (
            "symmetry conditions violated along the path "
            f"(max residual {max_sym:.3e}); transport is path dependent",
        )
    c_end = state.constraint_residual(ab_current.alpha_x, ab_current.beta_y)
    return state, c_end, max_sym, warnings


def sample_count(path, step) -> int:
    """The field samples of a transport: the start, then two per step."""
    count = 1
    for (x0, y0), (x1, y1) in zip(path[:-1], path[1:]):
        length = math.hypot(x1 - x0, y1 - y0)
        if length > 0.0:
            count += 2 * max(1, math.ceil(length / step))
    return count


def outcome(fn):
    """fn()'s result, or the type and text of the exception it raises."""
    try:
        return fn()
    except Exception as exc:  # compared by type and text
        return type(exc), str(exc)


def assert_transport_matches(f3, f4, initial, path, step, block):
    # random fields can drive the state to inf and nan on both sides
    with np.errstate(over="ignore", invalid="ignore"):
        expected = outcome(lambda: reference_transport(f3, f4, initial, path, step))
        with block_size(block):
            got = outcome(lambda: integrate_symmetric_connection(f3, f4, initial, path, step))
    if isinstance(expected, tuple) and isinstance(expected[0], type):
        assert got == expected
        return
    state, c_end, max_sym, warnings = expected
    assert [bits(v) for v in got.state.as_array().tolist()] == [
        bits(v) for v in state.as_array().tolist()
    ]
    assert bits(got.constraint_residual) == bits(c_end)
    assert bits(got.max_symmetry_residual) == bits(max_sym)
    assert got.warnings == warnings
    assert got.endpoint == (float(path[-1][0]), float(path[-1][1]))
    assert alpha_beta_bits(got.endpoint_alpha_beta) == alpha_beta_bits(
        alpha_beta(f3, f4, path[-1])
    )
    return got


def alpha_beta_bits(ab):
    """The bits of alpha, beta and every entry of their jet tables."""
    tables = [v for jet in (ab.alpha_jet, ab.beta_jet) for row in jet.table for v in row]
    return [bits(v) for v in (ab.alpha, ab.beta, *tables)]


def constrained_state(f3, f4, point, values):
    """A state that meets the trace constraint at `point` (or `values` as
    given where alpha_beta raises there)."""
    s, t, sy, tx, ty = values
    try:
        ab = alpha_beta(f3, f4, point)
    except ValueError:
        return FiniteTypeState(s, t, 0.0, sy, tx, ty)
    return FiniteTypeState(s, t, ty - (ab.alpha_x - ab.beta_y) / 3.0, sy, tx, ty)


def transport_pairs(grid: GridSpec):
    """(f3, f4) pairs for paths over the grid: random pairs, pairs where
    f3_x vanishes along a grid column, and the symmetric pair (x+y, xy),
    whose alpha/beta denominators vanish on the axes and the diagonal, as
    given or perturbed by a random formula."""
    funcs = web_functions(grid)
    pairs = st.tuples(funcs, funcs).map(lambda t: (t[0], t[1] + Constant(0.5) * X * Y))
    zero_fx = st.tuples(st.sampled_from(grid.xs()), funcs).map(
        lambda t: ((X - Constant(t[0])) ** 2.0 + Y, t[1])
    )
    perturbed = formulas(grid).map(lambda f: (X + Y, X * Y + Constant(0.1) * f))
    return st.one_of(pairs, st.just((X + Y, X * Y)), perturbed, zero_fx)


@settings(SETTINGS, max_examples=80)
@given(
    data=st.data(),
    grid=grids(),
    closed=st.booleans(),
    step=st.sampled_from([0.1, 0.25, 0.4, 0.75, 2.0]),
    violate=st.sampled_from([False] * 7 + [True]),
)
def test_transport_matches_per_step_reference(data, grid, closed, step, violate):
    f3, f4 = data.draw(transport_pairs(grid))
    # path corners on the grid lines, where the domain edges lie, and
    # beyond them; most paths start off the lines, and so fail part-way if
    # at all
    xs = [grid.xmin + 1.5, *grid.xs(), grid.xmin - 0.75]
    ys = [grid.ymin + 1.0, *grid.ys(), grid.ymin - 0.5]
    corners = st.tuples(st.sampled_from(xs), st.sampled_from(ys))
    path = data.draw(st.lists(corners, min_size=2, max_size=4))
    dx, dy = data.draw(st.sampled_from([(0.0123, 0.0071), (0.0123, 0.0071), (0.0, 0.0)]))
    path[0] = (path[0][0] + dx, path[0][1] + dy)
    if closed:
        path.append(path[0])
    values = data.draw(st.tuples(*[st.sampled_from([-0.3, 0.0, 0.1, 0.25])] * 5))
    initial = constrained_state(f3, f4, path[0], values)
    if violate:
        initial = FiniteTypeState.from_array(initial.as_array() + [0, 0, 1, 0, 0, 0])
    samples = sample_count(path, step)
    block = data.draw(st.integers(1, max(1, min(40, samples - 1))))
    assert_transport_matches(f3, f4, initial, path, step, block)


def test_transport_fails_part_way_like_the_reference():
    """A sqrt or ln domain edge and a vanishing f3_y crossed after the start:
    the error of the first failing sample, for every block size."""
    cases = [
        ("x+y", "x*y + sqrt(3 - x)", [(2.9, 0.5), (3.2, 0.5)], 0.01, "sqrt of non-positive"),
        ("x+y", "x*y + ln(3 - x)", [(2.9, 0.5), (3.2, 0.5)], 0.01, "ln of non-positive"),
        ("x*y", "x - y^2", [(0.5, 0.5), (-0.5, 0.5)], 0.25, "f3_y = 0"),
        ("x*y", "x - y^2", [(0.5, 0.5), (0.5, 0.9), (-0.5, 0.9)], 0.01, "f3_y = 0"),
    ]
    for f3, f4, path, step, reason in cases:
        initial = constrained_state(parse(f3), parse(f4), path[0], (0.1, -0.2, 0.3, 0.05, 0.0))
        expected = outcome(lambda: reference_transport(f3, f4, initial, path, step))
        assert issubclass(expected[0], ValueError)
        assert reason in expected[1]
        for block in (1, 2, 7, 64, 2048):
            assert_transport_matches(f3, f4, initial, path, step, block)


def test_transport_matches_reference_on_a_closed_loop():
    f3, f4 = "x+y", "x*y + x^3"
    path = [(1.9, 0.4), (2.1, 0.4), (2.1, 0.6), (1.9, 0.6), (1.9, 0.4), (1.9, 0.4)]
    initial = constrained_state(parse(f3), parse(f4), path[0], (0.2, -0.1, 0.33, -0.21, 0.15))
    for block in (3, 100):
        got = assert_transport_matches(f3, f4, initial, path, 0.01, block)
        assert got.warnings  # the perturbed web is not symmetric


def test_transport_evaluates_one_block_of_samples_at_a_time(monkeypatch):
    from webgeo import projective

    sizes = []

    class CountingBlock(projective.Block):
        def __init__(self, xs, ys):
            super().__init__(xs, ys)
            sizes.append(len(self.x))

    monkeypatch.setattr(projective, "Block", CountingBlock)
    path = [(2.9, 0.9), (3.1, 0.9), (3.1, 0.9), (3.1, 1.1)]
    initial = constrained_state(parse("x+y"), parse("x*y"), path[0], (0.2, -0.1, 0.33, -0.21, 0.15))
    for block in (5, 2048):
        sizes.clear()
        assert_transport_matches("x+y", "x*y", initial, path, 0.01, block)
        samples = sample_count(path, 0.01)
        assert sum(sizes) == samples
        assert sizes == [min(block, samples - k) for k in range(0, samples, block)]


def test_transport_walks_its_steps_once(monkeypatch):
    from webgeo import projective

    walks = []
    steps = projective._rk4_steps

    def counting_steps(segments):
        walks.append(segments)
        return steps(segments)

    monkeypatch.setattr(projective, "_rk4_steps", counting_steps)
    path = [(2.9, 0.9), (3.1, 0.9), (3.1, 1.1)]
    initial = constrained_state(parse("x+y"), parse("x*y"), path[0], (0.2, -0.1, 0.33, -0.21, 0.15))
    for block in (5, 2048):
        walks.clear()
        assert_transport_matches("x+y", "x*y", initial, path, 0.01, block)
        assert len(walks) == 1


def test_transport_builds_one_alpha_beta_for_the_endpoint(monkeypatch):
    from webgeo import projective

    built = []

    class CountingAlphaBeta(projective.AlphaBeta):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    f3, f4 = "x+y", "x*y"
    path = [(2.0, 0.5), (2.5, 0.5)]
    initial = constrained_state(parse(f3), parse(f4), path[0], (0.2, -0.1, 0.33, -0.21, 0.15))
    assert projective.path_step_count(path, 0.0025) == 200
    monkeypatch.setattr(projective, "AlphaBeta", CountingAlphaBeta)
    result = integrate_symmetric_connection(f3, f4, initial, path, 0.0025)
    assert built == [result.endpoint_alpha_beta]


def test_rk4_error_shrinks_sixteen_fold_when_the_step_halves():
    f3, f4 = "x+y", "x*y + x^3"
    path = [(2.0, 0.5), (2.5, 0.5)]
    initial = constrained_state(parse(f3), parse(f4), path[0], (0.4, -0.3, 0.5, -0.6, 0.3))

    def end_state(steps):
        result = integrate_symmetric_connection(f3, f4, initial, path, 0.5 / steps)
        return result.state.as_array()

    reference = end_state(1024)
    errors = [float(np.abs(end_state(n) - reference).max()) for n in (8, 16, 32)]
    for coarse, fine in zip(errors[:-1], errors[1:]):
        assert 0.9 * 16.0 <= coarse / fine <= 1.1 * 16.0, errors
