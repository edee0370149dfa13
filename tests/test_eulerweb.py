"""Euler equation residuals, characteristic roots, linear web generation."""

from __future__ import annotations

import json
import math
import os
import struct
import subprocess
import sys
from unittest import mock

import pytest

from webgeo import (
    CauchyDatum,
    CharacteristicSolution,
    Rect,
    ThomasParameters,
    characteristic_roots,
    connection_euler_residual,
    connection_euler_residual_of_jet,
    euler_residual,
    euler_residual_of_jet,
    EvaluationError,
    evaluate,
    evaluate_jet,
    fit_projective_structure,
    flex_of_jet,
    generate_linear_web,
    parse,
    partial_derivative,
    projective_flex_residual,
)
from webgeo import eulerweb
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
        fx_jet = jet.derivative("x")
        fy_jet = jet.derivative("y")
        fx = fx_jet.value
        if abs(fx) < 1e-3:
            continue
        w_jet = fy_jet.truncate(1) / fx_jet.truncate(1)
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
    with mock.patch.object(eulerweb, "SCAN_COUNT", 40):
        coarse = characteristic_roots(datum, (2, 3))
    with mock.patch.object(eulerweb, "SCAN_COUNT", 400):
        fine = characteristic_roots(datum, (2, 3))
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


def test_solution_value_needs_exactly_one_branch():
    solution = CharacteristicSolution(CauchyDatum("-2*sqrt(-y)", (-20.0, -1e-6)))
    with pytest.raises(ValueError, match=r"expected exactly one characteristic root .* found 2"):
        solution.value((2, 3))


def test_solution_jet_is_refused_at_a_near_double_root():
    # (2, 4) lies on y = x^2, the caustic of the tangent lines: lam = -4 is
    # a double root there, g'(-4) = 2/sqrt(4) - 1 = 0
    solution = CharacteristicSolution(CauchyDatum("-2*sqrt(-y)", (-20.0, -1e-6)))
    with pytest.raises(ValueError, match="near-double"):
        solution.jet((2.0, 4.0), 2, lam=-4.0)


@pytest.mark.parametrize(
    "point", [(math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0), (0.0, -math.inf)]
)
def test_characteristic_roots_reject_a_point_that_is_not_finite(point, monkeypatch):
    def evaluated(*_):
        raise AssertionError("the datum was evaluated")

    monkeypatch.setattr(eulerweb, "_value_function", evaluated)
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


def test_generate_places_a_single_leaf_midway():
    sample = generate_linear_web([CauchyDatum("y", (-1.0, 1.0))], Rect(-1, 1, -1, 1), 1)
    (foliation,) = sample.foliations
    assert foliation.lambda_values == (0.0,)
    assert foliation.leaves[0].points == ((-1.0, 0.0), (1.0, 0.0))


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
        assert abs(euler_residual_of_jet(jet2.truncate(1))) <= 1e-8
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


@pytest.mark.parametrize("interval", [(math.nan, 1.0), (0.0, math.nan)])
def test_a_nan_cauchy_datum_bound_is_named_non_finite(interval):
    with pytest.raises(ValueError, match="must be finite"):
        CauchyDatum("y", interval)


# ------------------------------------------- per-lambda references, bit for bit


def bits(v: float) -> bytes:
    return struct.pack("<d", v)


def reference_roots(datum: CauchyDatum, point):
    """characteristic_roots as a loop that evaluates g through
    CauchyDatum.value at every lambda, with no pole rule: (lam, w, hint)."""
    x, y = float(point[0]), float(point[1])
    n = eulerweb.SCAN_COUNT

    def g(lam):
        return y + datum.value(lam) * x - lam

    def g_prime(lam):
        return partial_derivative(datum.slope_jet(lam), 0, 1) * x - 1.0

    lo, hi = datum.lambda_interval
    lams = [lo + (hi - lo) * k / (n - 1) for k in range(n)]
    values = [g(lam) for lam in lams]
    found = []

    def record(lam):
        if all(abs(e - lam) > 1e-9 * max(1.0, abs(lam)) for e in found):
            found.append(lam)

    for k in range(n - 1):
        a, b, ga, gb = lams[k], lams[k + 1], values[k], values[k + 1]
        if ga == 0.0:
            record(a)
            continue
        if gb == 0.0:
            if k == n - 2:
                record(b)
            continue
        if ga * gb > 0.0:
            continue
        while b - a > 1e-14 * max(1.0, abs(a), abs(b)):
            mid = 0.5 * (a + b)
            gm = g(mid)
            if gm == 0.0:
                a = b = mid
                break
            if ga * gm < 0.0:
                b, gb = mid, gm
            else:
                a, ga = mid, gm
        root = 0.5 * (a + b)
        gprime = g_prime(root)
        if gprime != 0.0:
            polished = root - g(root) / gprime
            if lo <= polished <= hi:
                root = polished
        record(root)
    threshold = eulerweb.NEAR_DOUBLE_THRESHOLD * (1.0 + abs(x))
    return [
        (lam, datum.value(lam), "near_double" if abs(g_prime(lam)) <= threshold else "simple")
        for lam in sorted(found)
    ]


def seeded_data(rng):
    """Cauchy data of each shape the scan and the probes see, with the
    points to solve at."""
    cases = []
    for _ in range(6):
        a, c = rng.uniform(-0.8, 0.8), rng.uniform(-1.0, 1.0)
        cases.append(CauchyDatum(f"{a!r}*y + {c!r}", (-3.0 + c, 3.0 + a)))
        q, e = rng.uniform(0.2, 0.6), rng.uniform(-0.3, 0.3)
        cases.append(CauchyDatum(f"{q!r}*y^2 + {e!r}", (-2.5 - e, 2.0 + q)))
        b = rng.uniform(-0.7, 0.7)
        cases.append(CauchyDatum(f"exp({b!r}*y)", (-2.0 + b, 2.5)))
    cases.append(CauchyDatum("-2*sqrt(-y)", (-20.0, -1e-6)))
    cases.append(CauchyDatum("-2*sqrt(-y)", (-16.0, -0.04)))
    return cases


def test_characteristic_roots_and_jets_keep_the_bits_of_a_per_lambda_loop(rng):
    checked = 0
    for datum in seeded_data(rng):
        solution = CharacteristicSolution(datum)
        for _ in range(8):
            point = (rng.uniform(-0.6, 0.8), rng.uniform(-1.5, 3.5))
            expected = reference_roots(datum, point)
            roots = characteristic_roots(datum, point)
            assert [(bits(r.lam), bits(r.w), r.multiplicity_hint) for r in roots] == [
                (bits(lam), bits(w), hint) for lam, w, hint in expected
            ]
            if len(expected) == 1 and expected[0][2] == "simple":
                for order in (1, 3):
                    jet = solution.jet(point, order)
                    pinned = solution.jet(point, order, lam=expected[0][0])
                    assert [bits(v) for row in jet.table for v in row] == [
                        bits(v) for row in pinned.table for v in row
                    ]
            checked += len(roots)
    assert checked >= 100


@pytest.mark.parametrize(
    "source, interval, point, expected",
    [
        # g = 0.2 + 0.5/lam - lam changes sign across the pole lam = 0
        ("1/y", (-1.0, 1.0), (0.5, 0.2),
         [(-0.614142842854285, -1.62828568570857), (0.814142842854285, 1.22828568570857)]),
        # and tan across -pi/2 and pi/2
        ("tan(y)", (-3.0, 3.0), (0.4, 0.1),
         [(-1.2907384547994232, -3.476846136998557),
          (0.16772717292161893, 0.16931793230404732),
          (1.2308010759060324, 2.82700268976508)]),
    ],
)
def test_characteristic_roots_leave_out_the_poles_of_the_datum(source, interval, point, expected):
    roots = characteristic_roots(CauchyDatum(source, interval), point)
    assert [(bits(r.lam), bits(r.w)) for r in roots] == [
        (bits(lam), bits(w)) for lam, w in expected
    ]
    assert all(r.multiplicity_hint == "simple" for r in roots)
    # the scan itself still brackets the poles: the loop keeps them
    assert len(reference_roots(CauchyDatum(source, interval), point)) == len(expected) + (
        1 if source == "1/y" else 2
    )


def test_characteristic_roots_raise_at_the_first_undefined_scan_value():
    with pytest.raises(EvaluationError) as raised:
        characteristic_roots(CauchyDatum("sqrt(y)", (-1.0, 1.0)), (0.5, 0.2))
    assert str(raised.value) == "sqrt of negative value -1.0 in 'sqrt(y)'"


def reference_clip(slope, intercept, rect):
    """The clip of a line y = intercept + slope * x to a rectangle, one
    line per call: its segment, or None when they are disjoint."""
    x_lo, x_hi = rect.xmin, rect.xmax
    if slope > 0.0:
        x_lo = max(x_lo, (rect.ymin - intercept) / slope)
        x_hi = min(x_hi, (rect.ymax - intercept) / slope)
    elif slope < 0.0:
        x_lo = max(x_lo, (rect.ymax - intercept) / slope)
        x_hi = min(x_hi, (rect.ymin - intercept) / slope)
    elif not rect.ymin <= intercept <= rect.ymax:
        return None
    if x_lo >= x_hi:
        return None
    return ((x_lo, intercept + slope * x_lo), (x_hi, intercept + slope * x_hi))


def reference_foliation(datum, domain, leaves_per_foliation):
    """One foliation of generate_linear_web as a probe loop that evaluates
    and clips one lambda at a time: (lambda_values, leaf points, warnings)."""
    lo, hi = datum.lambda_interval
    n = eulerweb.PROBE_COUNT
    hits, bad = [], 0
    for k in range(n):
        lam = lo + (hi - lo) * k / (n - 1)
        try:
            w0 = datum.value(lam)
        except EvaluationError:
            bad += 1
            continue
        if reference_clip(-w0, lam, domain) is not None:
            hits.append(lam)
    warnings = []
    if bad:
        warnings.append(f"datum '{datum.source()}' undefined at {bad}/{n} probed parameter values")
    if not hits:
        warnings.append(f"datum '{datum.source()}' produces no lines meeting the domain")
        lams = []
    elif leaves_per_foliation == 1:
        lams = [0.5 * (min(hits) + max(hits))]
    else:
        lams = [
            min(hits) + (max(hits) - min(hits)) * k / (leaves_per_foliation - 1)
            for k in range(leaves_per_foliation)
        ]
    kept, leaves = [], []
    for lam in lams:
        try:
            segment = reference_clip(-datum.value(lam), lam, domain)
        except EvaluationError:
            continue
        if segment is not None:
            kept.append(lam)
            leaves.append(segment)
    return kept, leaves, warnings


def test_generate_linear_web_keeps_the_bits_of_a_per_probe_loop(rng):
    data = seeded_data(rng) + [
        CauchyDatum("sqrt(y)", (-1.0, 1.0)),  # undefined at half the probes
        CauchyDatum("0", (-1.0, 1.0)),  # horizontal lines, slope -0.0
        CauchyDatum("1", (10.0, 20.0)),  # no line meets the domain
        CauchyDatum("sqrt(y) - 3", (-4.0, 0.5)),  # undefined but at the last leaves
    ]
    domains = [
        Rect(-1.0, 1.0, -2.0, 2.0),
        Rect(-2, 2, -4, 2),
        Rect(0.1, 0.3, -0.5, 0.25),
        Rect(-1.0, 1.0, -1.0, 0.5),  # the horizontal line y = -1 lies on its edge
    ]
    for domain in domains:
        for leaves in (1, 2, 9):
            sample = generate_linear_web(data, domain, leaves)
            for index, (datum, foliation) in enumerate(zip(data, sample.foliations)):
                kept, segments, warnings = reference_foliation(datum, domain, leaves)
                assert [bits(v) for v in foliation.lambda_values] == [bits(v) for v in kept]
                assert list(foliation.warnings) == warnings
                assert [leaf.foliation_index for leaf in foliation.leaves] == [index] * len(kept)
                assert [bits(leaf.level) for leaf in foliation.leaves] == [bits(v) for v in kept]
                assert [
                    [bits(v) for p in leaf.points for v in p] for leaf in foliation.leaves
                ] == [[bits(v) for p in s for v in p] for s in segments]


#: Runs characteristic_roots and a solution jet in a fresh interpreter and
#: lists the numpy modules loaded by then.
NUMPY_FREE_SCRIPT = """
import json, sys
from webgeo import CauchyDatum, CharacteristicSolution, characteristic_roots
datum = CauchyDatum("0.5*y^2 + 0.1", (-3.0, 0.9))
roots = characteristic_roots(datum, (0.4, 0.2))
jet = CharacteristicSolution(datum).jet((0.4, 0.2), 3)
print(json.dumps({
    "roots": len(roots),
    "jet": jet.c(0, 0),
    "numpy_modules": sorted(m for m in sys.modules if m.startswith("numpy.")),
}))
"""


def test_characteristic_roots_and_jets_run_without_numpy(tmp_path):
    src = os.path.dirname(os.path.dirname(eulerweb.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_FREE_SCRIPT],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["roots"] == 1
    assert math.isfinite(result["jet"])
    assert result["numpy_modules"] == []
