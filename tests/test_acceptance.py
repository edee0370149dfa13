"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

from __future__ import annotations

import json
import math
import random

import numpy as np
import pytest

from webgeo import (
    CauchyDatum,
    FiniteTypeState,
    GridSpec,
    Rect,
    ThomasParameters,
    alpha_beta,
    characteristic_roots,
    christoffels_constant_curvature,
    christoffels_graph_surface,
    connection_euler_residual_of_jet,
    constant_curvature_metric,
    constant_curvature_residual,
    curvature_along,
    dweb_geodesic_residuals,
    evaluate,
    evaluate_jet,
    fit_by_linear_solve,
    fit_projective_structure,
    flex,
    flex_residual,
    gaussian_curvature_oracle,
    graph_surface_residual,
    integrate_symmetric_connection,
    parse,
    partial_derivative,
    projective_flex_residual,
    render_svg,
    symmetric_conditions_residual,
    trace_level_curve,
    write_report,
    compose_report,
)
from webgeo.cli import run
from conftest import CORPUS, corpus_cases, fd_partial, random_webs, rel_close, sample_point


def _passed(number: int, label: str):
    print(f"[criterion {number:02d}] PASS - {label}")


def test_criterion_01_derivative_engine():
    rng = random.Random(101)
    cases = corpus_cases(rng, 50)
    for expr, point in cases:

        def fn(x, y, expr=expr):
            return evaluate(expr, (x, y))

        jet = evaluate_jet(expr, point, 4)
        for i in range(5):
            for j in range(5 - i):
                if not 1 <= i + j <= 4:
                    continue
                reference = fd_partial(fn, point[0], point[1], i, j)
                got = partial_derivative(jet, i, j)
                assert abs(got - reference) <= 1e-5 * max(1.0, abs(reference)), (
                    f"{expr} at {point}: d[{i},{j}] jet {got} vs fd {reference}"
                )
    _passed(1, "jet partials of orders 1-4 match Richardson central differences on 50 cases")


def test_criterion_02_fit_oracle_equivalence():
    rng = random.Random(102)
    for funcs, point in random_webs(rng, 100):
        a = fit_projective_structure(funcs, point)
        b = fit_by_linear_solve(funcs, point)
        for u, v in zip(a.as_tuple(), b.as_tuple()):
            assert rel_close(u, v, 1e-9)
    _passed(2, "closed-form fit matches the dense linear solve on 100 random 4-webs")


def test_criterion_03_back_substitution_and_permutation():
    rng = random.Random(103)
    for funcs, point in random_webs(rng, 25):
        pi = fit_projective_structure(funcs, point)
        for f in funcs:
            assert abs(projective_flex_residual(f, pi, point).normalized) <= 1e-10
        permuted = [funcs[3], funcs[1], funcs[0], funcs[2]]
        pi2 = fit_projective_structure(permuted, point)
        for u, v in zip(pi.as_tuple(), pi2.as_tuple()):
            assert rel_close(u, v, 1e-9)
    _passed(3, "fitted structures annihilate their webs and ignore function order")


def test_criterion_04_gauge_invariance():
    rng = random.Random(104)
    for funcs, point in random_webs(rng, 20):
        pi = fit_projective_structure(funcs, point)
        pi2 = fit_projective_structure([f + f**3 for f in funcs], point)
        for u, v in zip(pi.as_tuple(), pi2.as_tuple()):
            assert rel_close(u, v, 1e-8)
    _passed(4, "Thomas parameters unchanged under f -> f + f^3 on 20 webs")


def test_criterion_05_parabola_tangent_example():
    f = parse("x + sqrt(x^2 - y)")
    grid = GridSpec(1.5, 2.5, 0.0, 1.0, 20, 20)
    worst = 0.0
    for point in grid.points():
        jet = evaluate_jet(f, point, 2)
        fx = partial_derivative(jet, 1, 0)
        fy = partial_derivative(jet, 0, 1)
        value = flex(f, point)
        worst = max(worst, abs(value) / math.hypot(fx, fy) ** 3)
    assert worst <= 1e-10

    datum = CauchyDatum("-2*sqrt(-y)", (-20.0, -1e-6))
    roots = characteristic_roots(datum, (2, 3))
    slopes = sorted(root.w for root in roots)
    # w = -2 (x +- sqrt(x^2 - y)) at (2, 3) gives the two branches -6, -2
    assert slopes == pytest.approx([-6.0, -2.0], rel=1e-9)
    for root in roots:
        assert abs(3.0 + root.w * 2.0 - root.lam) <= 1e-12
    _passed(5, "tangent-line web has zero flex; characteristic branches are -6 and -2")


def test_criterion_06_linear_five_web_example():
    grid = GridSpec(1.6, 2.4, 0.1, 0.9, 8, 8)
    web = ["x", "y", "x + sqrt(x^2 - y)", "y/(1 - x)", "y/(1 - 2*x)"]
    for point in grid.points():
        for sample in dweb_geodesic_residuals(web, point):
            assert abs(sample.normalized) <= 1e-8

    # the pencil through (1, -1): also linear, generated by the datum y + 1
    printed_web = ["x", "y", "x + sqrt(x^2 - y)", "(y + 1)/(1 - x)", "y/(1 - 2*x)"]
    for point in grid.points():
        for sample in dweb_geodesic_residuals(printed_web, point):
            assert abs(sample.normalized) <= 1e-8

    datum_notes = [
        "datum w0(y) = y transports to w = y/(1 - x), the pencil through (1, 0)",
        "the pencil function (y + 1)/(1 - x) through (1, -1) corresponds to "
        "the datum w0(y) = y + 1, not w0(y) = y",
    ]
    report = compose_report(
        "dweb",
        {"web": web},
        grid.as_dict(),
        {"verdict": "geodesic"},
        notes=datum_notes,
    )
    parsed = json.loads(write_report(report))
    assert parsed["notes"] == datum_notes

    datum = CauchyDatum("y + 1", (-6.0, 6.0))
    for point in ((0.3, 0.4), (-0.2, 0.8)):
        roots = characteristic_roots(datum, point)
        assert len(roots) == 1
        expected = evaluate(parse("(y + 1)/(1 - x)"), point)
        assert roots[0].w == pytest.approx(expected, rel=1e-10)
    _passed(6, "linear 5-web is geodesic for the flat structure; datum mismatch recorded")


def test_criterion_07_constant_curvature():
    rng = random.Random(107)
    for kappa in (-0.3, 0.5, 1.0):
        for gauge in ("y/x", "sin(y/x)"):
            f = parse(gauge)
            grid = GridSpec(0.4, 1.2, 0.2, 1.0, 6, 6)
            for point in grid.points():
                assert abs(constant_curvature_residual(f, kappa, point).normalized) <= 1e-10

        gammas = christoffels_constant_curvature(kappa)
        for source, box in CORPUS[:10]:
            f = parse(source)
            point = sample_point(rng, box)
            if 1.0 + kappa * (point[0] ** 2 + point[1] ** 2) <= 0.1:
                continue
            a = flex_residual(f, gammas, point).raw
            b = constant_curvature_residual(f, kappa, point).raw
            assert rel_close(a, b, 1e-9)

        e_comp, f_comp, g_comp = constant_curvature_metric(kappa)
        values = [
            gaussian_curvature_oracle(e_comp, f_comp, g_comp, sample_point(rng, (-0.45, 0.45, -0.45, 0.45)))
            for _ in range(20)
        ]
        assert max(values) - min(values) <= 1e-6
        assert all(abs(v - 4.0 * kappa) <= 1e-6 for v in values)
    _passed(7, "model-surface residuals, connection equivalence, and curvature 4*kappa")


def test_criterion_08_graph_surfaces():
    rng = random.Random(108)
    for z_source in ("x*y + 1", "exp(x*y/4)", "x^2 + y^2", "sin(x)*cos(y)"):
        z = parse(z_source)
        gammas = christoffels_graph_surface(z)
        for source, _ in CORPUS[:8]:
            f = parse(source)
            point = sample_point(rng, (-1.0, 1.0, -1.0, 1.0))
            try:
                a = flex_residual(f, gammas, point).raw
                b = graph_surface_residual(f, z, point).raw
            except Exception:
                continue
            assert rel_close(a, b, 1e-9)

    f = parse("x/y")
    z = parse("exp(x^2 + y^2)")
    grid = GridSpec(0.5, 1.4, 0.5, 1.4, 6, 6)
    for point in grid.points():
        assert abs(graph_surface_residual(f, z, point).normalized) <= 1e-10

    # Levi-Civita referee for the z_y z_yy component: the connection of the
    # induced metric of z = x^2 + y^2 at (0, 1) has G2_22 = 4/5, which only
    # the z_y z_yy form produces (the z_x z_yy form gives 0 there).
    gammas = christoffels_graph_surface(parse("x^2 + y^2"))
    components = gammas.components_at((0, 1))
    assert components[5] == pytest.approx(0.8, rel=1e-12)
    _passed(8, "graph-surface connection replays the closed-form residual; G2_22 confirmed")


def _square_loop(center, half):
    cx, cy = center
    return [
        (cx - half, cy - half),
        (cx + half, cy - half),
        (cx + half, cy + half),
        (cx - half, cy + half),
        (cx - half, cy - half),
    ]


def test_criterion_09_symmetric_structure():
    grid = GridSpec(1.5, 3.0, 0.05, 1.0, 8, 8)
    for point in grid.points():
        r1, r2 = symmetric_conditions_residual("x+y", "x*y", point)
        assert max(abs(r1), abs(r2)) <= 1e-9

    initial = FiniteTypeState(0.2, -0.1, 0.15, 0.33, -0.21, 0.15)
    result = integrate_symmetric_connection(
        "x+y", "x*y", initial, _square_loop((3.0, 1.0), 0.1), step=1e-3
    )
    defect = np.abs(result.state.as_array() - initial.as_array()).max()
    assert defect <= 1e-6

    perturbed_grid = GridSpec(1.5, 3.0, 0.05, 1.0, 5, 5)
    worst = max(
        max(abs(r) for r in symmetric_conditions_residual("x+y", "x*y + x^3", p))
        for p in perturbed_grid.points()
    )
    assert worst >= 1e-3

    start = (1.9, 0.4)
    ab0 = alpha_beta("x+y", "x*y + x^3", start)
    shift = -(ab0.alpha_x - ab0.beta_y) / 3.0
    perturbed_initial = FiniteTypeState(0.2, -0.1, 0.15 + shift, 0.33, -0.21, 0.15)
    perturbed = integrate_symmetric_connection(
        "x+y", "x*y + x^3", perturbed_initial, _square_loop((2.0, 0.5), 0.1), step=1e-3
    )
    perturbed_defect = np.abs(
        perturbed.state.as_array() - perturbed_initial.as_array()
    ).max()
    assert perturbed_defect >= 1e-3
    _passed(9, f"loop closes to {defect:.1e}; perturbed web defect {perturbed_defect:.1e}")


def test_criterion_10_euler_bridge():
    rng = random.Random(110)
    checked = 0
    attempts = 0
    while checked < 50 and attempts < 500:
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
        raw = projective_flex_residual(f, pi, point).raw
        bridge = -(fx**3) * connection_euler_residual_of_jet(w_jet, pi)
        assert rel_close(raw, bridge, 1e-9)
        checked += 1
    assert checked == 50

    initial = FiniteTypeState(0.2, -0.1, 0.15, 0.33, -0.21, 0.15)
    result = integrate_symmetric_connection(
        "x+y", "x*y", initial, [(2.9, 0.9), (3.1, 0.9), (3.1, 1.1)], step=1e-3
    )
    ab_end = alpha_beta("x+y", "x*y", result.endpoint)
    assert abs(curvature_along(result.state, ab_end).trace) <= 1e-8
    _passed(10, "geodesicity residual = -fx^3 * Euler residual; transported trace stays 0")


def test_criterion_11_cli_end_to_end(tmp_path, capsys):
    flex_args = ["flex", "--f", "x + sqrt(x^2 - y)", "--grid", "1.5:2.5:0:1:20:20"]
    assert run(flex_args) == 0
    flex_report = json.loads(capsys.readouterr().out)
    assert flex_report["results"]["verdict"] == "geodesic"

    assert run(["fit", "--web", "x; y; x+y; x*y", "--point", "2,1"]) == 0
    fit_report = json.loads(capsys.readouterr().out)
    assert fit_report["results"]["pi"]["p1_12"] == pytest.approx(-2.0 / 3.0, rel=1e-12)

    assert run(["symcheck", "--f3", "x+y", "--f4", "x*y", "--grid", "1.5:3:0:1:10:10"]) == 0
    sym_report = json.loads(capsys.readouterr().out)
    assert sym_report["results"]["verdict"] == "symmetric"

    assert run(["flex", "--f", "x +* y", "--grid", "0:1:0:1:2:2"]) == 2
    capsys.readouterr()

    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert run(flex_args + ["--out", str(first)]) == 0
    assert run(flex_args + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()

    # the parabola-tangent 3-web traces to straight leaves only
    domain = Rect(1.6, 2.4, 2.2, 3.4)
    web = [parse("x"), parse("y"), parse("x + sqrt(x^2 - y)")]
    leaves = []
    for index, f in enumerate(web):
        for frac in (0.3, 0.5, 0.7):
            seed = (
                domain.xmin + frac * (domain.xmax - domain.xmin),
                domain.ymin + frac * (domain.ymax - domain.ymin),
            )
            leaves.append(
                trace_level_curve(f, seed, domain, step=1e-3, foliation_index=index)
            )
    for leaf in leaves:
        (x0, y0), (x1, y1) = leaf.points[0], leaf.points[-1]
        length = math.hypot(x1 - x0, y1 - y0)
        assert length > 0
        deviation = max(
            abs((x1 - x0) * (y0 - py) - (x0 - px) * (y1 - y0)) / length
            for px, py in leaf.points
        )
        assert deviation <= 1e-6
    svg = render_svg(leaves, domain)
    assert svg.count("<path") == len(leaves)
    _passed(11, "CLI examples, byte-deterministic reports, straight traced leaves")
