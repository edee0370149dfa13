"""Flex operator, geodesicity residuals, equivalences, and web reports."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from webgeo import (
    ChristoffelField,
    Constant,
    EvaluationError,
    GridSpec,
    ThomasParameters,
    WebPresentation,
    christoffels_constant_curvature,
    christoffels_graph_surface,
    constant_curvature_residual,
    evaluate,
    flex,
    flex_residual,
    geodesic_web_report,
    graph_surface_residual,
    parse,
    projective_flex_residual,
)
from conftest import CORPUS, monotone_relabelings, rel_close, sample_point

from webgeo.geodesy import MAX_GRID_POINTS, judge, reduce_samples, sequential_sum

FLAT = ChristoffelField(*([Constant(0.0)] * 6))


def test_flex_of_affine_function(rng):
    f = parse("3*x - 2*y + 7")
    for _ in range(5):
        assert flex(f, sample_point(rng, (-2, 2, -2, 2))) == 0.0


def test_flex_of_circle_family():
    assert flex("x^2 + y^2", (1, 1)) == 16.0


def test_flex_of_parabola_tangents():
    f = parse("x + sqrt(x^2 - y)")
    assert abs(flex(f, (2, 3))) <= 1e-12


def test_flex_residual_flat_equals_flex(rng):
    for source, box in CORPUS[:8]:
        f = parse(source)
        p = sample_point(rng, box)
        sample = flex_residual(f, FLAT, p)
        assert sample.raw == flex(f, p)


def test_flex_residual_constant_curvature_radial_lines(rng):
    gammas = christoffels_constant_curvature(1.0)
    f = parse("y/x")
    for _ in range(8):
        p = sample_point(rng, (0.4, 1.5, 0.2, 1.2))
        sample = flex_residual(f, gammas, p)
        assert abs(sample.normalized) <= 1e-12


def test_flex_residual_vertical_line_value():
    gammas = christoffels_constant_curvature(1.0)
    sample = flex_residual(parse("x"), gammas, (1, 0))
    assert sample.raw == pytest.approx(-1.0)


def test_projective_residual_linear_flat():
    pi = ThomasParameters(0, 0, 0, 0)
    assert projective_flex_residual("2*x - y", pi, (0.3, 0.4)).raw == 0.0


def test_projective_residual_of_hyperbolas():
    pi = ThomasParameters(0, 0, 0, 0)
    sample = projective_flex_residual("x*y", pi, (1, 1))
    assert sample.raw == pytest.approx(2.0)


def test_constant_curvature_residual_reduces_to_flex(rng):
    for source, box in CORPUS[:6]:
        f = parse(source)
        p = sample_point(rng, box)
        assert constant_curvature_residual(f, 0.0, p).raw == flex(f, p)


@pytest.mark.parametrize("kappa", [-0.3, 0.5, 1.0])
@pytest.mark.parametrize("gauge", ["y/x", "sin(y/x)"])
def test_radial_gauges_are_geodesic_on_model_surface(gauge, kappa, rng):
    f = parse(gauge)
    for _ in range(6):
        p = sample_point(rng, (0.4, 1.2, 0.2, 1.0))
        sample = constant_curvature_residual(f, kappa, p)
        assert abs(sample.normalized) <= 1e-10


def test_constant_curvature_metric_singularity():
    with pytest.raises(EvaluationError):
        constant_curvature_residual("x", -1.0, (1.0, 1.0))


def test_graph_surface_radial_solution():
    sample = graph_surface_residual("x/y", "exp(x^2 + y^2)", (1, 2))
    assert abs(sample.normalized) <= 1e-10


def test_graph_surface_linear_height_reduces_to_flex(rng):
    z = parse("x + 2*y + 1")
    for source, box in CORPUS[:6]:
        f = parse(source)
        p = sample_point(rng, box)
        assert graph_surface_residual(f, z, p).raw == flex(f, p)


def test_graph_surface_coordinate_lines_on_ruled_graph():
    sample = graph_surface_residual("x", "x*y", (0.7, -0.2))
    assert sample.raw == 0.0


def test_connection_equals_model_surface_residual(rng):
    """The covariant flex against the model-metric connection must replay
    the closed-form constant-curvature residual."""
    for kappa in (-0.3, 0.5, 1.0):
        gammas = christoffels_constant_curvature(kappa)
        for source, box in CORPUS[:8]:
            f = parse(source)
            p = sample_point(rng, box)
            if 1.0 + kappa * (p[0] ** 2 + p[1] ** 2) <= 0.1:
                continue
            a = flex_residual(f, gammas, p).raw
            b = constant_curvature_residual(f, kappa, p).raw
            assert rel_close(a, b, 1e-9)


def test_connection_equals_graph_surface_residual(rng):
    for z_source in ("x*y + 1", "exp(x*y/4)", "x^2 + y^2"):
        z = parse(z_source)
        gammas = christoffels_graph_surface(z)
        for source, _ in CORPUS[:6]:
            f = parse(source)
            p = sample_point(rng, (-1.0, 1.0, -1.0, 1.0))
            try:
                a = flex_residual(f, gammas, p).raw
                b = graph_surface_residual(f, z, p).raw
            except EvaluationError:
                continue
            assert rel_close(a, b, 1e-9)


def test_flex_gauge_covariance(rng):
    """Relabeling f by Phi(t) = t + t^3 scales the flex by Phi'(f)^3."""
    for source, box in CORPUS[:10]:
        f = parse(source)
        relabeled = f + f**3
        p = sample_point(rng, box)
        value = evaluate(f, p)
        scale = (1.0 + 3.0 * value * value) ** 3
        assert rel_close(flex(relabeled, p), scale * flex(f, p), 1e-9)


def _normalized_residuals(f, p):
    """The normalized flex and geodesic residuals of f at p, one for each
    kind of structure; the points of CORPUS's boxes keep every one defined."""
    return [
        flex_residual(f, FLAT, p).normalized,
        flex_residual(f, christoffels_constant_curvature(0.5), p).normalized,
        constant_curvature_residual(f, -0.05, p).normalized,
        graph_surface_residual(f, "x*y + 0.3*x^2", p).normalized,
        projective_flex_residual(f, ThomasParameters(0.5, -1.25, 0.75, 2.0), p).normalized,
    ]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    case=st.sampled_from(CORPUS),
    relabel=monotone_relabelings(),
    u=st.floats(0.0, 1.0),
    v=st.floats(0.0, 1.0),
)
def test_normalized_residuals_are_gauge_invariant(case, relabel, u, v):
    """Relabeling f by an increasing Phi scales every residual by Phi'(f)^3
    and the gradient norm by Phi'(f), so the normalized residuals stay."""
    source, (xlo, xhi, ylo, yhi) = case
    f = parse(source)
    p = (xlo + 0.06 + u * (xhi - xlo - 0.12), ylo + 0.06 + v * (yhi - ylo - 0.12))
    for before, after in zip(_normalized_residuals(f, p), _normalized_residuals(relabel(f), p)):
        assert rel_close(after, before, 1e-9)


def test_degenerate_gradient_is_flagged():
    sample = flex_residual("x^2 + y^2", FLAT, (0, 0))
    assert sample.degenerate
    assert math.isnan(sample.normalized)
    assert sample.gradient_norm == 0.0


def test_web_report_flat_linear_web():
    grid = GridSpec(0, 1, 0, 1, 5, 5)
    report = geodesic_web_report(["x", "y", "x+y"], grid, christoffels=FLAT)
    assert report["verdict"] == "geodesic"
    assert report["max_normalized"] == 0.0
    assert len(report["per_foliation"]) == 3


def test_web_report_radial_gauges_constant_curvature():
    grid = GridSpec(0.4, 1.2, 0.2, 1.0, 6, 6)
    report = geodesic_web_report(["y/x", "sin(y/x)"], grid, curvature=1.0)
    assert report["verdict"] == "geodesic"


def test_web_report_non_geodesic():
    grid = GridSpec(0.5, 1.5, 0.5, 1.5, 5, 5)
    report = geodesic_web_report(
        ["x*y"], grid, thomas=ThomasParameters(0, 0, 0, 0), tolerance=1e-8
    )
    assert report["verdict"] == "non-geodesic"
    assert report["max_normalized"] > 1e-8


def test_web_report_skips_out_of_domain_points():
    # sqrt(x^2 - y) has a domain boundary crossing this grid
    grid = GridSpec(0.5, 2.0, 0.0, 2.0, 6, 6)
    report = geodesic_web_report(["x + sqrt(x^2 - y)"], grid, christoffels=FLAT)
    entry = report["per_foliation"][0]
    assert entry["skipped_points"]
    assert entry["samples"] + len(entry["skipped_points"]) + len(
        entry["degenerate_points"]
    ) == 36


def test_web_report_structure_validation():
    grid = GridSpec(0, 1, 0, 1, 3, 3)
    with pytest.raises(ValueError):
        geodesic_web_report(["x"], grid)
    with pytest.raises(ValueError):
        geodesic_web_report(["x"], grid, christoffels=FLAT, curvature=1.0)


def test_web_report_needs_a_function():
    with pytest.raises(ValueError, match="web has no functions"):
        geodesic_web_report([], GridSpec(0, 1, 0, 1, 3, 3), curvature=0.0)


def test_web_report_all_points_invalid():
    grid = GridSpec(10.0, 11.0, 10.0, 11.0, 3, 3)
    with pytest.raises(ValueError):
        geodesic_web_report(["sqrt(x - 100)"], grid, christoffels=FLAT)


def test_web_report_graph_surface_note():
    grid = GridSpec(0.5, 1.5, 0.5, 1.5, 4, 4)
    report = geodesic_web_report(["x/y"], grid, surface="exp(x^2 + y^2)")
    assert report["verdict"] == "geodesic"
    assert any("Gamma^2_22" in note for note in report["notes"])


def test_web_presentation_contract():
    with pytest.raises(ValueError):
        WebPresentation(["x", "y"])
    web = WebPresentation(["x", "y", "x+y"])
    assert len(web) == 3


def test_grid_spec_contract():
    with pytest.raises(ValueError):
        GridSpec(0, 1, 0, 1, 0, 5)
    with pytest.raises(ValueError):
        GridSpec(1, 0, 0, 1, 5, 5)
    grid = GridSpec(0, 1, 0, 2, 2, 3)
    assert list(grid.points())[0] == (0.0, 0.0)
    assert list(grid.points())[-1] == (1.0, 2.0)
    assert len(list(grid.points())) == 6


@pytest.mark.parametrize(
    "bounds",
    [
        (math.nan, 1.0, 0.0, 1.0),
        (0.0, math.inf, 0.0, 1.0),
        (0.0, 1.0, -math.inf, 1.0),
        (0.0, 1.0, 0.0, math.nan),
        (-1e308, 1e308, 0.0, 1.0),
    ],
)
def test_grid_spec_rejects_non_finite_bounds(bounds):
    with pytest.raises(ValueError):
        GridSpec(*bounds, 3, 3)


def test_grid_spec_caps_the_point_count():
    # Construction validates without building the lattice.
    side = math.isqrt(MAX_GRID_POINTS)
    GridSpec(0, 1, 0, 1, side, MAX_GRID_POINTS // side)
    with pytest.raises(ValueError, match="more than the limit"):
        GridSpec(0, 1, 0, 1, side, MAX_GRID_POINTS // side + 1)
    with pytest.raises(ValueError, match="more than the limit"):
        GridSpec(0, 1, 0, 1, 10**9, 10**9)


def test_single_point_residuals_fail_in_a_fixed_order():
    """The metric singularity of a curvature fails before f; otherwise f
    fails before the structure."""
    f = parse("sqrt(x)")  # undefined at x < 0
    with pytest.raises(EvaluationError, match="metric singularity"):
        constant_curvature_residual(f, -1.0, (-2.0, 0.0))
    undefined = parse("ln(x)")
    gammas = ChristoffelField(*([undefined] * 6))
    for residual in (
        lambda: flex_residual(f, gammas, (-1.0, 0.5)),
        lambda: graph_surface_residual(f, undefined, (-1.0, 0.5)),
    ):
        with pytest.raises(EvaluationError, match="sqrt"):
            residual()
    with pytest.raises(EvaluationError, match="ln"):
        flex_residual("x", gammas, (-1.0, 0.5))


@pytest.mark.parametrize("nx, ny", [(2.5, 2), (2, 3.0), (True, 2), (2, False), ("3", 3)])
def test_grid_spec_takes_only_int_counts(nx, ny):
    # A float count used to pass here and fail later in range(); True was
    # taken as a one-column grid.
    with pytest.raises(ValueError, match="must be an integer"):
        GridSpec(0, 1, 0, 1, nx, ny)


@pytest.mark.parametrize("kappa", [math.nan, math.inf, -math.inf])
def test_non_finite_curvature_is_rejected(kappa):
    from webgeo import geodesic_web_report
    from webgeo.geodesy import residual_sweep

    grid = GridSpec(0.1, 1.0, 0.1, 1.0, 3, 3)
    with pytest.raises(ValueError, match="curvature must be a finite number"):
        constant_curvature_residual("x", kappa, (0.5, 0.5))
    with pytest.raises(ValueError, match="curvature must be a finite number"):
        residual_sweep(["x", "y"], grid, curvature=kappa)
    with pytest.raises(ValueError, match="curvature must be a finite number"):
        geodesic_web_report(["x", "y"], grid, curvature=kappa)


NAN = math.nan


def assert_judge_matches_reduce_samples(maxima):
    """judge reduces in plain Python to what the numpy reduction gives;
    repr tells NaN, 0.0 and -0.0 apart."""
    worst, verdict = judge(maxima, 1e-8)
    expected = reduce_samples(maxima).largest
    assert type(worst) is float and repr(worst) == repr(expected), maxima
    assert verdict == ("geodesic" if expected <= 1e-8 else "non-geodesic"), maxima


@pytest.mark.parametrize(
    "values", [[NAN, 2.0, 1.0], [1.0, NAN, 2.0], [2.0, 1.0, NAN]], ids=["first", "middle", "last"]
)
def test_reduce_samples_nan_anywhere_makes_the_maximum_nan(values):
    reduced = reduce_samples(values)
    assert math.isnan(reduced.largest)
    assert reduced.samples == 3
    worst, verdict = judge([0.0, reduced.largest], 1e-8)
    assert math.isnan(worst)
    assert verdict == "non-geodesic"
    assert_judge_matches_reduce_samples(values)


def test_reduce_samples_of_nothing_is_zero():
    assert reduce_samples([]) == (0.0, 0.0, 0)
    assert judge([], 1e-8) == (0.0, "geodesic")
    assert_judge_matches_reduce_samples([])


def test_reduce_samples_takes_magnitudes():
    assert reduce_samples([-3.0, 1.0, -0.0]) == (3.0, 4.0 / 3.0, 3)
    assert judge([1e-9, 2e-9], 1e-8, ("pass", "fail")) == (2e-9, "pass")
    assert judge([1e-9, 2e-7], 1e-8, ("pass", "fail")) == (2e-7, "fail")
    for maxima in ([-0.0], [-0.0, -0.0], [1e-9, -2e-9], [-3.0, 1.0, -0.0]):
        assert_judge_matches_reduce_samples(maxima)
    assert repr(judge([-0.0], 1e-8)[0]) == "0.0"


def test_sums_run_left_to_right():
    # A compensated sum (math.fsum, and the builtin sum from Python 3.12 on)
    # keeps the 1.0 that a left-to-right sum rounds away, and a pairwise sum
    # (numpy's) adds the twenty 1.0s together before they meet 1e16.
    assert sequential_sum([1e16, 1.0, -1e16]) == 0.0
    assert math.fsum([1e16, 1.0, -1e16]) == 1.0
    ones = [1e16] + [1.0] * 20
    assert sequential_sum(ones) == 1e16
    assert reduce_samples(ones).mean == 1e16 / 21
    assert math.fsum(ones) != 1e16
    assert math.copysign(1.0, sequential_sum([-0.0, -0.0])) == 1.0
    assert sequential_sum([]) == 0.0
    assert sequential_sum([1e308, 1e308, -1e308]) == math.inf
