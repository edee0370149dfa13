"""Level-curve tracing, SVG generation, report serialization."""

from __future__ import annotations

import json
import math
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from webgeo import (
    Call,
    Constant,
    EvaluationError,
    LeafPolyline,
    PartialDerivative,
    Rect,
    as_expression,
    compose_report,
    evaluate,
    evaluate_gradient,
    parse,
    render_svg,
    trace_level_curve,
    write_csv_grid,
    write_report,
)
from webgeo import render
from webgeo.cli import run
from webgeo.exprlang import X, Y, to_source
from webgeo.geodesy import ResidualSample
from webgeo.render import (
    _PALETTE,
    SEED_DEGENERACY_COEFF,
    SVG_HEIGHT,
    SVG_MARGIN,
    SVG_WIDTH,
)
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
            with mock.patch.object(render, "MAX_LEAF_STEPS", 500):
                leaf = trace_level_curve(f, seed, domain, step=1e-3)
        except ValueError:
            continue
        level = evaluate(f, seed)
        for point in leaf.points[:: max(1, len(leaf.points) // 50)]:
            assert abs(evaluate(f, point) - level) <= 1e-6 * (1.0 + abs(level))


# The gradient code checks only powers and the final gradient, so at
# (0.5, 0.5) it returns (0.5, 0.0, 1.0) for this formula; the value walk
# checks every intermediate.  The leaf's level must come from the value.
OVERFLOWING_CONSTANT = "y + 1/(1e308*1e308)"


def test_trace_takes_its_level_from_the_checked_value():
    with pytest.raises(EvaluationError, match=r"non-finite result in '\(1e\+308 \* 1e\+308\)'"):
        trace_level_curve(OVERFLOWING_CONSTANT, (0.5, 0.5), Rect(0, 1, 0, 1))


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


# ------------------------------------------ the SVG writer against its reference
#
# `render_svg` writes each point with one %-format.  The reference below is
# the writer as it was before, with a viewport function, a list of pixel
# coordinates per leaf and one "M"/"L" part per point: the documents must be
# equal, character for character.


def reference_render_svg(leaves, domain):
    leaves = list(leaves)
    if not leaves:
        raise ValueError("no leaves to render")

    sx = (SVG_WIDTH - 2.0 * SVG_MARGIN) / (domain.xmax - domain.xmin)
    sy = (SVG_HEIGHT - 2.0 * SVG_MARGIN) / (domain.ymax - domain.ymin)

    def viewport(point):
        px = SVG_MARGIN + (point[0] - domain.xmin) * sx
        py = SVG_HEIGHT - SVG_MARGIN - (point[1] - domain.ymin) * sy
        return px, py

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{SVG_WIDTH}" height="{SVG_HEIGHT}" viewBox="0 0 {SVG_WIDTH} {SVG_HEIGHT}">',
    ]
    for leaf in leaves:
        color = _PALETTE[leaf.foliation_index % len(_PALETTE)]
        coords = [viewport(p) for p in leaf.points]
        parts = [f"M {coords[0][0]:.4f} {coords[0][1]:.4f}"]
        parts.extend(f"L {px:.4f} {py:.4f}" for px, py in coords[1:])
        path_data = " ".join(parts)
        lines.append(
            f'<path d="{path_data}" fill="none" stroke="{color}" '
            'stroke-width="1.2"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


# The last domain sits far from the origin, where y * sy and y0 * sy are
# large and (y - y0) * sy keeps bits that their difference loses.
_SVG_DOMAINS = [
    Rect(0, 1, 0, 1),
    Rect(-2.5, 0.5, -1e-3, 1e-3),
    Rect(-1e6, 1e6, 3.0, 7.0),
    Rect(1e9, 1e9 + 1.0, -1e9 - 1e-3, -1e9),
]

# Signed zeros, and values whose pixel coordinates overflow to inf (or
# give inf - inf = nan).
_SVG_SPECIAL = [0.0, -0.0, 1e300, -1e300, 1.7e308, -1.7e308, math.inf, -math.inf, math.nan]


@st.composite
def svg_problems(draw):
    """(leaves, domain): points inside and outside the domain."""
    domain = draw(st.sampled_from(_SVG_DOMAINS))

    def coordinate(lo, hi):
        inside = st.floats(-0.5, 1.5).map(lambda t: lo + t * (hi - lo))
        return st.one_of(inside, st.sampled_from(_SVG_SPECIAL))

    point = st.tuples(
        coordinate(domain.xmin, domain.xmax), coordinate(domain.ymin, domain.ymax)
    )
    leaves = draw(st.lists(
        st.builds(
            LeafPolyline,
            st.integers(-3, 20),  # past the palette's 8 colors
            st.floats(allow_nan=False),
            st.one_of(
                st.lists(point, min_size=1, max_size=2),
                st.lists(point, min_size=3, max_size=40),
            ),
        ),
        min_size=1,
        max_size=6,
    ))
    return leaves, domain


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(svg_problems())
def test_render_svg_matches_its_reference(problem):
    leaves, domain = problem
    assert render_svg(leaves, domain) == reference_render_svg(leaves, domain)


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


def reference_sanitize(report: dict) -> dict:
    """The record as the report writer once handed it to json.dumps: keys
    converted by str(), non-finite floats replaced by "nan"/"inf"/"-inf",
    and then a top-level "degenerate": True."""
    flag = {"degenerate": False}

    def sanitize(value):
        if isinstance(value, float):
            if math.isnan(value):
                flag["degenerate"] = True
                return "nan"
            if math.isinf(value):
                flag["degenerate"] = True
                return "inf" if value > 0 else "-inf"
            return value
        if isinstance(value, dict):
            return {str(k): sanitize(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [sanitize(v) for v in value]
        return value

    sanitized = sanitize(report)
    if flag["degenerate"]:
        sanitized["degenerate"] = True
    return sanitized


def reference_write_report(report: dict) -> str:
    return json.dumps(reference_sanitize(report), indent=2, allow_nan=False) + "\n"


_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e308]),
)
_STRINGS = st.one_of(
    st.text(max_size=8),
    st.sampled_from(["", "nan", "degenerate", "\x00\x1f\x7f", "\u2028", "π x²", "\U0001d7d9", '"\\']),
)
_INTS = st.one_of(st.integers(-3, 3), st.integers(), st.sampled_from([2**64, -(10**40)]))
_SCALARS = st.one_of(_FLOATS, _STRINGS, _INTS, st.booleans(), st.none())
# int, float, bool and None keys, and strings that equal their str()
_KEYS = st.one_of(
    _STRINGS,
    st.integers(-3, 3),
    _FLOATS,
    st.booleans(),
    st.none(),
    st.sampled_from(["1", "-2", "True", "None", "0.5", "inf"]),
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_KEYS, inner, max_size=4),
        st.lists(_FLOATS, max_size=6),
        st.lists(_FLOATS, max_size=6).map(tuple),
    ),
    max_leaves=16,
)


@st.composite
def report_records(draw):
    items = list(draw(st.dictionaries(_KEYS, _VALUES, max_size=6)).items())
    if draw(st.booleans()):
        items.insert(draw(st.integers(0, len(items))), ("degenerate", draw(_VALUES)))
    return dict(items)


@settings(max_examples=800, deadline=None, derandomize=True, database=None)
@given(report_records())
def test_write_report_matches_json_dumps(record):
    assert write_report(record) == reference_write_report(record)


@pytest.mark.parametrize(
    "record",
    [{"a": {1, 2}}, {"a": [1.0, {1.0}]}, {"a": {"b": (math.nan, frozenset())}}, {"a": 1j}],
)
def test_write_report_rejects_what_json_rejects(record):
    with pytest.raises(TypeError) as expected:
        reference_write_report(record)
    with pytest.raises(TypeError) as raised:
        write_report(record)
    assert str(raised.value) == str(expected.value)


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


@pytest.mark.parametrize("position", range(4))
def test_a_nan_rect_bound_is_named_non_finite(position):
    """A NaN bound fails every comparison, so it is caught as non-finite
    before the extent is checked."""
    bounds = [0.0, 1.0, 0.0, 1.0]
    bounds[position] = math.nan
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


# ------------------------------------------ the tracer against its reference
#
# `trace_level_curve` calls the compiled gradient function of its formula
# directly.  The reference below is the tracer as it was before, which went
# through `evaluate_gradient` at every stage: the leaves must have the same
# bits, and the errors the same type and text.


def reference_trace(f, seed, domain, step=1e-3, max_points=20000, foliation_index=0):
    if not (math.isfinite(step) and step > 0.0):
        raise ValueError(f"step must be a finite positive number, got {step!r}")
    f = as_expression(f)
    seed = (float(seed[0]), float(seed[1]))
    if not domain.contains(seed):
        raise ValueError(f"seed {seed} lies outside the domain rectangle")

    def unit_leaf_direction(point):
        _, fx, fy = evaluate_gradient(f, point)
        return fx, fy, math.hypot(fx, fy)

    fx, fy, norm = unit_leaf_direction(seed)
    if norm <= SEED_DEGENERACY_COEFF * (1.0 + abs(seed[0]) + abs(seed[1])):
        raise ValueError(f"degenerate seed {seed}: |grad f| = {norm!r}")
    level = evaluate(f, seed)

    def velocity(point, sign):
        fx, fy, norm = unit_leaf_direction(point)
        if norm <= SEED_DEGENERACY_COEFF * (1.0 + abs(point[0]) + abs(point[1])):
            return None
        return (sign * fy / norm, sign * -fx / norm)

    def march(sign):
        points = [seed]
        current = seed
        closed = False
        escaped_seed = False
        for _ in range(max_points):
            try:
                k1 = velocity(current, sign)
                if k1 is None:
                    break
                p2 = (current[0] + 0.5 * step * k1[0], current[1] + 0.5 * step * k1[1])
                k2 = velocity(p2, sign)
                if k2 is None:
                    break
                p3 = (current[0] + 0.5 * step * k2[0], current[1] + 0.5 * step * k2[1])
                k3 = velocity(p3, sign)
                if k3 is None:
                    break
                p4 = (current[0] + step * k3[0], current[1] + step * k3[1])
                k4 = velocity(p4, sign)
                if k4 is None:
                    break
            except EvaluationError:
                break
            nxt = (
                current[0] + step / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]),
                current[1] + step / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]),
            )
            if not domain.contains(nxt):
                break
            gap = math.hypot(nxt[0] - seed[0], nxt[1] - seed[1])
            if not escaped_seed and gap > 2.0 * step:
                escaped_seed = True
            if escaped_seed and gap < 0.9 * step:
                points.append(seed)
                closed = True
                break
            points.append(nxt)
            current = nxt
        return points, closed

    forward, closed = march(+1.0)
    if closed:
        return LeafPolyline(foliation_index, level, forward)
    backward, _ = march(-1.0)
    combined = list(reversed(backward[1:])) + forward
    return LeafPolyline(foliation_index, level, combined)


def trace_outcome(tracer, *args, **kwargs):
    """A leaf's index, level and points as bits, or the error's type and text."""
    try:
        leaf = tracer(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the type is part of the outcome
        return type(exc), str(exc)
    return (
        leaf.foliation_index,
        leaf.level.hex(),
        [(x.hex(), y.hex()) for x, y in leaf.points],
    )


_OFFSETS = [-0.6, -0.25, 0.0, 0.2, 0.45]


@st.composite
def leaf_problems(draw):
    """(formula, seed, domain, step, max_points)."""
    a, b = draw(st.sampled_from(_OFFSETS)), draw(st.sampled_from(_OFFSETS))
    p = draw(st.sampled_from([-1.7, -0.5, 0.3, 1.0]))
    q = draw(st.sampled_from([-1.0, 0.0, 0.7, 2.0]))
    domain = draw(st.sampled_from([
        Rect(-1.0, 0.5, -1.0, 0.7), Rect(-0.7, 0.8, -0.9, 0.8), Rect(-0.3, 0.5, -0.3, 0.5),
    ]))
    step = draw(st.sampled_from([0.01, 0.03, 0.1, 0.25]))
    if draw(st.integers(0, 3)) == 0:
        # circles and an ellipse about (a, b), seeded near the centre: most
        # of these leaves close
        formula = draw(st.sampled_from([
            parse(f"(x - {a})^2 + (y - {b})^2"),
            parse(f"(x - {a})^2 + 3*(y - {b})^2 + 0.1*x"),
        ]))
        seed = draw(st.sampled_from([(a + 0.15, b), (a, b - 0.3)]))
        return formula, seed, domain, step, 400
    formula = draw(st.sampled_from([
        # lines, which leave the domain
        parse(f"{p}*x + {q}*y"),
        # domain edges inside the rectangle
        parse(f"sqrt(x - {a}) + {q}*y"),
        parse(f"ln(y - {b}) - x"),
        parse(f"sqrt(0.25 - (x - {a})^2 - y^2) + x"),
        # a saddle and a flat critical point on the leaf through the seed
        parse(f"(x - {a})*(y - {b})"),
        parse(f"(x - {a})^3 - (y - {b})^3"),
        # integer powers, negative ones too, and a derivative node
        (X - Constant(a)) ** -3 + (Y - Constant(b)) ** 5,
        (X + Constant(1.5)) ** 7 * (Y + Constant(1.5)) ** -2,
        PartialDerivative(parse(f"x^2*y + y^3 + {p}*x"), 1, 0),
        # a value that overflows where the gradient code does not look
        parse(OVERFLOWING_CONSTANT),
    ]))
    seed = (
        draw(st.sampled_from([domain.xmin, *_OFFSETS, domain.xmax])),
        draw(st.sampled_from([domain.ymin, *_OFFSETS, domain.ymax])),
    )
    max_points = draw(st.sampled_from([1, 2, 5, 60, 400]))
    return formula, seed, domain, step, max_points


@settings(
    max_examples=400,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(leaf_problems(), st.integers(0, 3))
def test_tracer_matches_its_reference(problem, foliation_index):
    formula, seed, domain, step, max_points = problem
    args = (formula, seed, domain)
    kwargs = {"step": step, "foliation_index": foliation_index}
    with mock.patch.object(render, "MAX_LEAF_STEPS", max_points):
        got = trace_outcome(trace_level_curve, *args, **kwargs)
    assert got == trace_outcome(reference_trace, *args, max_points=max_points, **kwargs)


# The tracer tests a stage point's own degeneracy threshold only where the
# gradient norm is at most a floor made from the domain and the step.  The
# cases below put the norm within a factor of 2 of the threshold: on domains
# far from the origin, on one whose floor overflows to inf, and with steps
# larger than the domain, so that stage points lie far outside it.
_BAND_DOMAINS = [
    Rect(-1.0, 2.0, -1.0, 2.0),
    Rect(1e6, 1e6 + 1.0, -1e6 - 1.0, -1e6),
    Rect(-1e150, -0.9e150, 1e149, 2e149),
    Rect(-1.5e308, 1.5e308, -1.5e308, 1.5e308),  # 1 + 1.5e308 + 1.5e308 = inf
]
_BAND_RATIOS = [0.5, 0.9, 1.0 - 1e-7, 1.0 + 1e-7, 1.1, 1.5, 1.999, 2.0, 2.001, 4.0, 8.0]


@st.composite
def band_problems(draw):
    """(formula, seed, domain, step): |grad f| is `ratio` times the seed's
    threshold SEED_DEGENERACY_COEFF * (1 + |x| + |y|)."""
    domain = draw(st.sampled_from(_BAND_DOMAINS))
    tx, ty = draw(st.sampled_from([0.5, 0.2, 0.9])), draw(st.sampled_from([0.5, 0.1, 0.7]))
    width = domain.xmax - domain.xmin
    if math.isfinite(width):
        seed = (domain.xmin + tx * width, domain.ymin + ty * (domain.ymax - domain.ymin))
    else:  # seeds near the origin, and leaves a few units long
        width, seed = 4.0, (tx - 0.5, ty - 0.5)
    threshold = SEED_DEGENERACY_COEFF * (1.0 + abs(seed[0]) + abs(seed[1]))
    norm = draw(st.sampled_from(_BAND_RATIOS)) * threshold
    kind = draw(st.sampled_from(["line", "saddle", "log"]))
    if kind == "line":
        angle = draw(st.sampled_from([0.3, 1.1, 2.0, 2.8, 4.0, 5.5]))
        formula = Constant(norm * math.cos(angle)) * X + Constant(norm * math.sin(angle)) * Y
    else:
        # centred at distance r from the seed, scaled to the same norm there
        r = draw(st.sampled_from([0.1, 0.5, 2.0])) * width
        a, b = seed[0] + 0.6 * r, seed[1] - 0.8 * r
        if kind == "saddle":
            formula = Constant(norm / (2.0 * r)) * ((X - Constant(a)) ** 2 - (Y - Constant(b)) ** 2)
        else:
            # circles whose gradient shrinks away from the centre, so that
            # a step larger than the domain can come back into it
            square = (X - Constant(a)) ** 2 + (Y - Constant(b)) ** 2 + Constant(r * r)
            formula = Constant(norm * r) * Call("ln", square)
    # the largest steps are larger than the domain, but for the infinite one
    step = draw(st.sampled_from([0.01, 0.2, 3.0, 5.0])) * width
    return formula, seed, domain, step


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(band_problems())
@example((parse("1e-10*x + 2e-10*y"), (0.5, 0.5), Rect(-1, 2, -1, 2), 0.01))
@example((parse("1e-10*x + 2e-10*y"), (0.5, 0.5), Rect(0, 1, 0, 1), 3.0))
@example((parse("1e-10*x + 2e-10*y"), (0.25, -0.5), _BAND_DOMAINS[-1], 0.1))
# the leaf through the origin runs toward the saddle at (100, -100) and
# ends where its norm falls below the threshold
@example((parse("1e-12*((x-100)^2 - (y+100)^2)"), (0.0, 0.0), Rect(-40, 40, -40, 40), 0.5))
@example((parse("1e-12*((x-100)^2 - (y+100)^2)"), (0.0, 0.0), Rect(-40, 40, -40, 40), 100.0))
# a step larger than the domain that comes back into it, whose last stage
# lies where only the floor's 2*step term covers the threshold
@example((parse("2e-9*ln((x-0.5)^2 + y^2 + 1)"), (0.9, 0.5), Rect(-1, 1, -1, 1), 5.0))
def test_tracer_degeneracy_floor_is_exact(problem):
    formula, seed, domain, step = problem
    with mock.patch.object(render, "MAX_LEAF_STEPS", 300):
        got = trace_outcome(trace_level_curve, formula, seed, domain, step=step)
    assert got == trace_outcome(reference_trace, formula, seed, domain, step=step, max_points=300)


# ------------------------------------------ one compile per traced formula


def test_trace_compiles_only_the_gradient():
    f = parse("(x - 0.4)^2 + (y - 0.6)^2")
    trace_level_curve(f, (0.5, 0.5), Rect(0, 1, 0, 1), step=0.01)
    assert f._value_code is None
    assert f._gradient_code is not None


def test_render_compiles_each_formula_once(tmp_path, monkeypatch, capsys):
    from webgeo import exprlang

    compiled = []
    compile_ = exprlang._compile

    def counting(e, gradient):
        compiled.append((to_source(e), gradient))
        return compile_(e, gradient)

    monkeypatch.setattr(exprlang, "_compile", counting)
    code = run(["render", "--web", "x; y; (x-0.4)^2+(y-0.6)^2", "--domain", "0:1:0:1",
                "--levels", "5", "--step", "0.01", "--svg", str(tmp_path / "web.svg")])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["results"]["leaves"] == 15
    assert len(compiled) == 3
    assert all(gradient for _, gradient in compiled)
