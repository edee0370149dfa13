"""Level-curve tracing, SVG generation, report serialization."""

from __future__ import annotations

import json
import math

import pytest

from webgeo import (
    LeafPolyline,
    Rect,
    compose_report,
    evaluate,
    parse,
    render_svg,
    trace_level_curve,
    write_csv_grid,
    write_report,
)
from webgeo.cli import run
from webgeo.geodesy import ResidualSample
from conftest import CORPUS, sample_point


def _max_line_deviation(points):
    (x0, y0), (x1, y1) = points[0], points[-1]
    length = math.hypot(x1 - x0, y1 - y0)
    if length == 0.0:
        return max(math.hypot(px - x0, py - y0) for px, py in points)
    return max(
        abs((x1 - x0) * (y0 - py) - (x0 - px) * (y1 - y0)) / length
        for px, py in points
    )


def test_trace_straight_line():
    leaf = trace_level_curve("x + y", (0, 0), Rect(-1, 1, -1, 1), step=1e-2)
    assert len(leaf) > 50
    assert _max_line_deviation(leaf.points) <= 1e-9
    for x, y in leaf.points:
        assert abs(x + y) <= 1e-9


def test_trace_circle_closes():
    leaf = trace_level_curve("x^2 + y^2", (1, 0), Rect(-2, 2, -2, 2), step=1e-3)
    assert leaf.points[0] == leaf.points[-1]
    radii = [math.hypot(x, y) for x, y in leaf.points]
    assert max(abs(r - 1.0) for r in radii) <= 1e-6
    # closed loop of circumference 2 pi at step 1e-3
    assert 6000 <= len(leaf) <= 6500


def test_trace_parabola_tangent_is_straight():
    f = parse("x + sqrt(x^2 - y)")
    leaf = trace_level_curve(f, (2, 3), Rect(1.7, 2.4, 2.2, 3.4), step=1e-3)
    assert len(leaf) > 100
    assert _max_line_deviation(leaf.points) <= 1e-6


def test_trace_level_drift(rng):
    for source, box in CORPUS[:8]:
        f = parse(source)
        seed = sample_point(rng, box)
        domain = Rect(box[0], box[1], box[2], box[3])
        try:
            leaf = trace_level_curve(f, seed, domain, step=1e-3, max_points=500)
        except ValueError:
            continue
        level = evaluate(f, seed)
        for point in leaf.points[:: max(1, len(leaf.points) // 50)]:
            assert abs(evaluate(f, point) - level) <= 1e-6 * (1.0 + abs(level))


def test_trace_contracts():
    domain = Rect(-1, 1, -1, 1)
    with pytest.raises(ValueError):
        trace_level_curve("x + y", (0, 0), domain, step=0.0)
    with pytest.raises(ValueError):
        trace_level_curve("x^2 + y^2", (0, 0), domain)  # degenerate seed
    with pytest.raises(ValueError):
        trace_level_curve("x", (5, 0), domain)  # outside


def test_trace_stays_inside_domain():
    domain = Rect(-0.5, 0.5, -0.5, 0.5)
    leaf = trace_level_curve("x + 2*y", (0, 0), domain, step=1e-2)
    for point in leaf.points:
        assert domain.contains(point)


def test_render_svg_counts_and_determinism():
    domain = Rect(0, 1, 0, 1)
    leaves = [
        LeafPolyline(i, float(j), [(0.1 * j, 0.0), (0.1 * j, 1.0)])
        for i in range(3)
        for j in range(5)
    ]
    svg1 = render_svg(leaves, domain)
    svg2 = render_svg(leaves, domain)
    assert svg1 == svg2
    assert svg1.count("<path") == 15
    assert svg1.startswith('<?xml version="1.0"')
    assert 'version="1.1"' in svg1


def test_render_svg_empty_error():
    with pytest.raises(ValueError):
        render_svg([], Rect(0, 1, 0, 1))


def test_render_svg_styles():
    domain = Rect(0, 1, 0, 1)
    leaf = LeafPolyline(0, 0.0, [(0, 0), (1, 1)])
    svg = render_svg([leaf], domain, style={0: {"color": "#123456", "width": 3}})
    assert 'stroke="#123456"' in svg
    assert 'stroke-width="3"' in svg


def test_write_report_roundtrip_and_key_order():
    report = compose_report(
        "fit",
        {"web": ["x", "y"], "point": [2.0, 1.0]},
        {"xmin": 0.0, "xmax": 1.0, "ymin": 0.0, "ymax": 1.0, "nx": 3, "ny": 3},
        {"pi": {"p1_22": 0.1234567890123456789, "p1_12": -2.0 / 3.0}},
        warnings=["w"],
        notes=["n"],
    )
    text = write_report(report)
    parsed = json.loads(text)
    assert list(parsed.keys()) == ["command", "inputs", "grid", "results", "warnings", "notes"]
    assert parsed["results"]["pi"]["p1_12"] == -2.0 / 3.0
    assert parsed["results"]["pi"]["p1_22"] == 0.1234567890123456789
    assert write_report(report) == text


def test_write_report_non_finite_values():
    report = compose_report("euler", {}, None, {"residual": float("nan"), "bad": float("inf")})
    text = write_report(report)
    parsed = json.loads(text)
    assert parsed["results"]["residual"] == "nan"
    assert parsed["results"]["bad"] == "inf"
    assert parsed["degenerate"] is True


def test_write_csv_grid():
    samples = [
        ResidualSample((0.0, 0.5), 1.25e-3, 2.5e-4, 5.0, False),
        ResidualSample((1.0, 0.5), 0.5, float("nan"), 0.0, True),
    ]
    text = write_csv_grid(samples)
    lines = text.strip().split("\n")
    assert lines[0] == "x,y,raw,normalized,degenerate"
    assert lines[1] == "0.0,0.5,0.00125,0.00025,false"
    assert lines[2].endswith(",true")
    assert "nan" in lines[2]


def test_rect_contract():
    with pytest.raises(ValueError):
        Rect(1, 0, 0, 1)
    with pytest.raises(ValueError):
        LeafPolyline(0, 0.0, [])


@pytest.mark.parametrize("step", [0.0, -0.01, math.nan, math.inf])
def test_trace_step_must_be_finite_and_positive(step):
    with pytest.raises(ValueError, match="step must be a finite positive number"):
        trace_level_curve("x+y", (0.5, 0.5), Rect(0, 1, 0, 1), step=step)


@pytest.mark.parametrize(
    "bounds", [(0, math.inf, 0, 1), (-math.inf, 0, 0, 1), (0, 1, -math.inf, 1), (0, 1, 0, math.inf)]
)
def test_rect_bounds_must_be_finite(bounds):
    with pytest.raises(ValueError, match="rectangle bounds must be finite"):
        Rect(*bounds)


# 1e308*(1 + x) overflows to inf for x above about 0.797, where the sine's
# derivative then raises a math domain error: the leaf must end there.
OVERFLOWING_SINE = "x + y + 1e-310*sin(1e308+1e308*x)"


def test_trace_ends_leaf_where_an_argument_overflows():
    leaf = trace_level_curve(OVERFLOWING_SINE, (0.5, 0.5), Rect(0, 1, 0, 1), step=0.01)
    xs = [x for x, _ in leaf.points]
    assert min(xs) < 0.01
    assert 0.78 < max(xs) < 0.8


def test_render_keeps_a_leaf_that_ends_at_an_overflow(tmp_path, capsys):
    svg = tmp_path / "web.svg"
    code = run(["render", "--web", f"{OVERFLOWING_SINE}; x", "--domain", "0:1:0:1",
                "--levels", "1", "--step", "0.01", "--svg", str(svg)])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["results"]["leaves"] == 2
    assert report["warnings"] == []
    assert svg.read_text().count("<path ") == 2
