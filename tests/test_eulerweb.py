"""Euler equation residuals, characteristic roots, linear web generation."""

from __future__ import annotations

import math

import pytest

from webgeo import (
    CauchyDatum,
    Rect,
    ThomasParameters,
    characteristic_roots,
    connection_euler_residual,
    connection_euler_residual_of_jet,
    euler_residual,
    euler_residual_of_jet,
    evaluate,
    evaluate_jet,
    fit_projective_structure,
    flex_of_jet,
    generate_linear_web,
    parse,
    partial_derivative,
    projective_flex_residual,
    truncate_jet,
    derivative_jet,
)
from conftest import CORPUS, rel_close, sample_point

FLAT_PI = ThomasParameters(0, 0, 0, 0)


def test_euler_residual_of_transported_slopes():
    assert abs(euler_residual("y/(1 - x)", (0.5, 2))) <= 1e-12
    assert abs(euler_residual("2*y/(1 - 2*x)", (0.2, 1))) <= 1e-12
    assert euler_residual("x", (0.3, 0.8)) == 1.0


def test_connection_euler_residual_flat_cases():
    assert abs(connection_euler_residual("x/(1 - y)", FLAT_PI, (0.4, 0.3))) <= 1e-12
    assert connection_euler_residual("y", FLAT_PI, (0.7, 0.1)) == 1.0


def test_connection_euler_residual_with_fitted_structure():
    pi = fit_projective_structure(["x", "y", "x+y", "x*y"], (2, 1))
    assert abs(connection_euler_residual("x/y", pi, (2, 1))) <= 1e-12


def test_euler_bridge_identity(rng):
    """The geodesicity residual equals -fx^3 times the associated Euler
    residual of the slope w = fy/fx."""
    count = 0
    attempts = 0
    while count < 50 and attempts < 400:
        attempts += 1
        source, box = CORPUS[attempts % len(CORPUS)]
        f = parse(source)
        point = sample_point(rng, box)
        pi = ThomasParameters(*(rng.uniform(-2, 2) for _ in range(4)))
        try:
            jet = evaluate_jet(f, point, 3)
        except Exception:
            continue
        fx_jet = derivative_jet(jet, "x")
        fy_jet = derivative_jet(jet, "y")
        fx = fx_jet.value
        if abs(fx) < 1e-3:
            continue
        w_jet = truncate_jet(fy_jet, 1) / truncate_jet(fx_jet, 1)
        lhs = projective_flex_residual(f, pi, point).raw
        rhs = -(fx**3) * connection_euler_residual_of_jet(w_jet, pi)
        assert rel_close(lhs, rhs, 1e-9)
        count += 1
    assert count == 50


def test_characteristic_roots_parabola_tangents():
    datum = CauchyDatum("-2*sqrt(-y)", (-20.0, -1e-6))
    roots = characteristic_roots(datum, (2, 3))
    assert len(roots) == 2
    assert sorted(r.w for r in roots) == pytest.approx([-6.0, -2.0], rel=1e-9)
    assert sorted(r.lam for r in roots) == pytest.approx([-9.0, -1.0], rel=1e-9)
    for r in roots:
        g = 3 + r.w * 2 - r.lam
        assert abs(g) <= 1e-12
        assert r.multiplicity_hint == "simple"


def test_characteristic_roots_linear_datum():
    datum = CauchyDatum("2*y", (-10.0, 10.0))
    roots = characteristic_roots(datum, (0.2, 1))
    assert len(roots) == 1
    assert roots[0].lam == pytest.approx(5.0 / 3.0, rel=1e-12)
    assert roots[0].w == pytest.approx(10.0 / 3.0, rel=1e-12)


def test_characteristic_roots_empty_through_vertex_line():
    datum = CauchyDatum("y", (-5.0, 5.0))
    assert characteristic_roots(datum, (1.0, 0.5)) == []


def test_characteristic_roots_scan_refinement_keeps_roots():
    datum = CauchyDatum("-2*sqrt(-y)", (-20.0, -1e-6))
    coarse = characteristic_roots(datum, (2, 3), scan_count=40)
    fine = characteristic_roots(datum, (2, 3), scan_count=400)
    assert len(fine) >= len(coarse) == 2
    for root in coarse:
        assert any(abs(root.lam - r.lam) <= 1e-8 for r in fine)


def test_characteristic_roots_monotone_case_unique(rng):
    datum = CauchyDatum("0.5*y + 1", (-8.0, 8.0))
    # g(lam) = y + (0.5 lam + 1) x - lam is strictly monotone in lam for
    # x < 2, with the single zero lam* = (x + y)/(1 - 0.5 x)
    for _ in range(25):
        point = (rng.uniform(-1.5, 1.5), rng.uniform(-2, 2))
        expected = (point[0] + point[1]) / (1.0 - 0.5 * point[0])
        roots = characteristic_roots(datum, point)
        if -7.9 <= expected <= 7.9:
            assert len(roots) == 1
            assert roots[0].lam == pytest.approx(expected, rel=1e-10, abs=1e-10)
        else:
            assert len(roots) <= 1


def test_cauchy_datum_contracts():
    with pytest.raises(ValueError):
        CauchyDatum("x + y", (0.0, 1.0))
    with pytest.raises(ValueError):
        CauchyDatum("y", (1.0, 1.0))
    with pytest.raises(ValueError):
        characteristic_roots(CauchyDatum("y", (0.0, 1.0)), (0, 0), scan_count=1)


@pytest.mark.parametrize("scan_count", [2.5, 3.0, True, "400"])
def test_scan_count_must_be_an_int(scan_count):
    with pytest.raises(ValueError, match="must be an integer"):
        characteristic_roots(CauchyDatum("y", (0.0, 1.0)), (0, 0), scan_count=scan_count)


def test_scan_count_is_capped_before_anything_is_allocated(monkeypatch):
    import tracemalloc

    from webgeo import eulerweb

    datum = CauchyDatum("y", (0.0, 1.0))
    monkeypatch.setattr(eulerweb, "MAX_SCAN_COUNT", 10)
    assert characteristic_roots(datum, (0, 0.5), scan_count=10)
    with pytest.raises(ValueError, match="at most 10, got 11"):
        characteristic_roots(datum, (0, 0.5), scan_count=11)
    monkeypatch.undo()

    def evaluated(*_):
        raise AssertionError("the datum was evaluated")

    monkeypatch.setattr(CauchyDatum, "value", evaluated)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="at most"):
            characteristic_roots(datum, (0, 0.5), scan_count=eulerweb.MAX_SCAN_COUNT + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a scan of MAX_SCAN_COUNT + 1 parameter values would take megabytes
    assert peak < 64 * 1024


@pytest.mark.parametrize(
    "point", [(math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0), (0.0, -math.inf)]
)
def test_characteristic_roots_reject_a_point_that_is_not_finite(point, monkeypatch):
    def evaluated(*_):
        raise AssertionError("the datum was evaluated")

    monkeypatch.setattr(CauchyDatum, "value", evaluated)
    with pytest.raises(ValueError, match="is not finite"):
        characteristic_roots(CauchyDatum("y^2", (-1.0, 1.0)), point)


def test_generate_parabola_tangent_foliation():
    datum = CauchyDatum("-2*sqrt(-y)", (-16.0, -0.04))
    sample = generate_linear_web([datum], Rect(-2, 2, -4, 2), 9)
    foliation = sample.foliations[0]
    assert foliation.leaves
    for leaf in foliation.leaves:
        (x0, y0), (x1, y1) = leaf.points
        slope = (y1 - y0) / (x1 - x0)
        intercept = y0 - slope * x0
        # tangency to y = x^2: the line hits the parabola in a double point
        assert abs(slope * slope / 4.0 + intercept) <= 1e-9


@pytest.mark.parametrize("leaves", [0, -1, 10001])
def test_generate_rejects_leaf_counts_out_of_range(leaves):
    datum = CauchyDatum("-2*sqrt(-y)", (-16.0, -0.04))
    with pytest.raises(ValueError, match="leaves_per_foliation"):
        generate_linear_web([datum], Rect(-2, 2, -4, 2), leaves)


@pytest.mark.parametrize("leaves", [True, 2.5, 3.0, "3"])
def test_generate_rejects_a_leaf_count_that_is_not_an_int(leaves):
    datum = CauchyDatum("-2*sqrt(-y)", (-16.0, -0.04))
    with pytest.raises(ValueError, match="leaves_per_foliation must be an integer"):
        generate_linear_web([datum], Rect(-2, 2, -4, 2), leaves)


def test_generate_pencils():
    half = CauchyDatum("2*y", (-6.0, 6.0))
    unit = CauchyDatum("y", (-6.0, 6.0))
    sample = generate_linear_web([half, unit], Rect(-1, 3, -3, 3), 7)
    for leaf in sample.foliations[0].leaves:
        lam = leaf.level
        # lines y = lam (1 - 2x) all pass through (1/2, 0)
        for x, y in leaf.points:
            assert abs(y - lam * (1 - 2 * x)) <= 1e-9
    for leaf in sample.foliations[1].leaves:
        lam = leaf.level
        # lines y = lam (1 - x) all pass through (1, 0)
        for x, y in leaf.points:
            assert abs(y - lam * (1 - x)) <= 1e-9


def test_shifted_datum_matches_shifted_pencil():
    """w0(y) = y + 1 transports to w = (y+1)/(1-x), the pencil through
    (1, -1)."""
    datum = CauchyDatum("y + 1", (-6.0, 6.0))
    solution = generate_linear_web([datum], Rect(-1, 0.8, -3, 3), 5).foliations[0].solution
    for point in ((0.3, 0.5), (-0.5, 1.2), (0.5, -0.7)):
        expected = evaluate(parse("(y + 1)/(1 - x)"), point)
        assert solution.value(point) == pytest.approx(expected, rel=1e-10)


def test_generated_solution_satisfies_euler_and_flex(rng):
    # over this box only the outer tangent branch has its parameter in the
    # datum's interval, so the transported solution is single valued
    datum = CauchyDatum("-2*sqrt(-y)", (-26.0, -2.0))
    sample = generate_linear_web([datum], Rect(1.2, 2.6, 0.2, 1.4), 5)
    solution = sample.foliations[0].solution
    checked = 0
    for _ in range(200):
        point = (rng.uniform(1.3, 2.5), rng.uniform(0.3, 1.3))
        if point[0] ** 2 <= point[1] + 0.05:
            continue
        roots = solution.roots(point)
        if len(roots) != 1:
            continue
        jet2 = solution.jet(point, 2, lam=roots[0].lam)
        assert abs(euler_residual_of_jet(truncate_jet(jet2, 1))) <= 1e-8
        gradient = math.hypot(
            partial_derivative(jet2, 1, 0), partial_derivative(jet2, 0, 1)
        )
        if gradient > 1e-6:
            assert abs(flex_of_jet(jet2)) / gradient**3 <= 1e-8
        checked += 1
        if checked >= 100:
            break
    assert checked >= 100


def test_solution_jet_matches_closed_form():
    datum = CauchyDatum("y", (-6.0, 6.0))
    solution = generate_linear_web([datum], Rect(-1, 0.8, -3, 3), 3).foliations[0].solution
    point = (0.25, 0.4)
    jet = solution.jet(point, 2)
    closed = evaluate_jet(parse("y/(1 - x)"), point, 2)
    for i in range(3):
        for j in range(3 - i):
            assert jet.c(i, j) == pytest.approx(closed.c(i, j), rel=1e-10, abs=1e-12)


def test_generate_linear_web_contracts():
    datum = CauchyDatum("y", (-1.0, 1.0))
    with pytest.raises(ValueError):
        generate_linear_web([], Rect(0, 1, 0, 1), 3)
    with pytest.raises(ValueError):
        generate_linear_web([datum], Rect(0, 1, 0, 1), 0)
    with pytest.raises(ValueError):
        generate_linear_web([datum, CauchyDatum("y", (-1.0, 1.0))], Rect(0, 1, 0, 1), 3)


def test_generate_reports_domain_incompatibility():
    # lines y = lam - lam x with lam in [4, 5] never meet this rectangle
    datum = CauchyDatum("y", (4.0, 5.0))
    sample = generate_linear_web([datum], Rect(-0.2, 0.2, -0.5, 0.5), 3)
    foliation = sample.foliations[0]
    assert foliation.leaves == ()
    assert foliation.warnings


@pytest.mark.parametrize("interval", [(-math.inf, 1.0), (0.0, math.inf), (-math.inf, math.inf)])
def test_cauchy_datum_interval_must_be_finite(interval):
    with pytest.raises(ValueError, match="must be finite"):
        CauchyDatum("y", interval)
