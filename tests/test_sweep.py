"""The block sweep against the single-point residual functions, bit for bit.

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
import math
import struct

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from webgeo import geodesy
from webgeo.cli import run
from webgeo.eulerweb import connection_euler_residual, euler_residual, euler_sweep
from webgeo.exprlang import (
    Binary,
    Call,
    Constant,
    EvaluationError,
    X,
    Y,
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
    assert series.points == [s.point for s in samples]
    assert series.degenerate == [s.degenerate for s in samples]
    assert [bits(v) for v in series.raw] == [bits(s.raw) for s in samples]
    assert [bits(v) for v in series.normalized] == [bits(s.normalized) for s in samples]


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
