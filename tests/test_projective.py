"""4-web fits, the (alpha, beta) invariants, and finite-type transport."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from webgeo import (
    AlphaBeta,
    DegenerateWebError,
    EvaluationError,
    FiniteTypeState,
    alpha_beta,
    curvature_along,
    dweb_geodesic_residuals,
    finite_type_rhs,
    fit_by_linear_solve,
    fit_projective_structure,
    integrate_symmetric_connection,
    parse,
    projective_flex_residual,
    symmetric_conditions_residual,
)
from conftest import monotone_relabelings, random_webs, rel_close

SYMMETRIC_PAIR = ("x+y", "x*y")
PERTURBED_PAIR = ("x+y", "x*y + x^3")


def test_fit_of_linear_web_is_flat():
    pi = fit_projective_structure(["x", "y", "x+y", "x-y"], (0.7, 0.2))
    assert pi.as_tuple() == pytest.approx((0, 0, 0, 0), abs=1e-14)


def test_fit_worked_example():
    pi = fit_projective_structure(["x", "y", "x+y", "x*y"], (2, 1))
    assert pi.p1_22 == pytest.approx(0.0, abs=1e-14)
    assert pi.p2_11 == pytest.approx(0.0, abs=1e-14)
    assert pi.p1_12 == pytest.approx(-2.0 / 3.0, rel=1e-12)
    assert pi.p2_12 == pytest.approx(2.0 / 3.0, rel=1e-12)


def test_fit_degenerate_pair_reported():
    with pytest.raises(DegenerateWebError) as err:
        fit_projective_structure(["x", "y", "x+y", "x*y"], (1, 1))
    assert "(3, 4)" in str(err.value)


def test_linear_solve_matches_closed_form_on_example():
    pi_a = fit_projective_structure(["x", "y", "x+y", "x*y"], (2, 1))
    pi_b = fit_by_linear_solve(["x", "y", "x+y", "x*y"], (2, 1))
    for u, v in zip(pi_a.as_tuple(), pi_b.as_tuple()):
        assert rel_close(u, v, 1e-12)


def test_linear_solve_detects_repeated_function():
    with pytest.raises(DegenerateWebError):
        fit_by_linear_solve(["x", "y", "x+y", "x+y"], (0.3, 0.4))


def test_fit_oracle_equivalence_random(rng):
    for funcs, point in random_webs(rng, 30):
        a = fit_projective_structure(funcs, point)
        b = fit_by_linear_solve(funcs, point)
        for u, v in zip(a.as_tuple(), b.as_tuple()):
            assert rel_close(u, v, 1e-9)


def test_fit_back_substitution_and_permutation(rng):
    webs = random_webs(rng, 10)
    for funcs, point in webs:
        pi = fit_projective_structure(funcs, point)
        for f in funcs:
            sample = projective_flex_residual(f, pi, point)
            assert abs(sample.normalized) <= 1e-10
        shuffled = [funcs[2], funcs[0], funcs[3], funcs[1]]
        pi2 = fit_projective_structure(shuffled, point)
        for u, v in zip(pi.as_tuple(), pi2.as_tuple()):
            assert rel_close(u, v, 1e-9)


@settings(max_examples=160, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    relabels=st.lists(monotone_relabelings(), min_size=4, max_size=4),
)
def test_fit_gauge_invariance(seed, relabels):
    """The fitted structure depends on the leaves alone: relabeling each
    web function by its own increasing Phi leaves it unchanged."""
    ((funcs, point),) = random_webs(random.Random(seed), 1)
    pi = fit_projective_structure(funcs, point)
    relabeled = [relabel(f) for relabel, f in zip(relabels, funcs)]
    pi2 = fit_projective_structure(relabeled, point)
    for u, v in zip(pi.as_tuple(), pi2.as_tuple()):
        assert rel_close(u, v, 1e-8)


def test_dweb_fit_fails_before_the_further_functions():
    # the fit of the leading 4-web is NaN at (4, 4); sqrt(x - 10) is
    # undefined there
    web = ["x", "y", "exp(60*x)+exp(60*y)", "x*y+x+2*y", "sqrt(x - 10)"]
    with pytest.raises(ValueError, match="Thomas parameter p1_22 is not finite"):
        dweb_geodesic_residuals(web, (4, 4))


def test_web_size_contracts():
    with pytest.raises(ValueError):
        fit_projective_structure(["x", "y", "x+y", "x-y", "x*y"], (2, 1))
    with pytest.raises(ValueError):
        dweb_geodesic_residuals(["x", "y", "x+y", "x*y"], (2, 1))


def test_alpha_beta_worked_example():
    ab = alpha_beta(*SYMMETRIC_PAIR, (2, 1))
    assert ab.alpha == pytest.approx(2.0)
    assert ab.beta == pytest.approx(-2.0)


def test_alpha_beta_jet_derivatives():
    ab = alpha_beta(*SYMMETRIC_PAIR, (2, 1))
    # alpha = 2/(x - y), beta = -2/(x - y); u = 1 at (2, 1)
    assert ab.alpha_x == pytest.approx(-2.0)
    assert ab.alpha_y == pytest.approx(2.0)
    assert ab.alpha_xy == pytest.approx(-4.0)
    assert ab.alpha_xx == pytest.approx(4.0)
    assert ab.alpha_yy == pytest.approx(4.0)
    assert ab.beta_x == pytest.approx(2.0)
    assert ab.beta_y == pytest.approx(-2.0)
    assert ab.beta_xy == pytest.approx(4.0)
    assert ab.beta_yy == pytest.approx(-4.0)


def test_alpha_beta_degenerate_point():
    with pytest.raises(EvaluationError) as err:
        alpha_beta("x+y", "x*y", (1, 1))
    assert "Delta" in str(err.value)
    # the order-4 jet of f4 overflows; the float formula returned nan, nan here
    with pytest.raises(EvaluationError):
        alpha_beta("x+y", "exp(700*x) + y", (0.99, -0.86))


def test_alpha_beta_matches_fit(rng):
    """alpha = -3 P1_12 and beta = -3 P2_12 for normalized webs."""
    pool = ["x*y", "x + 0.5*y^2", "sin(x) + y + x*y", "x^2 - y + x*y"]
    for f4_source in pool:
        for _ in range(4):
            point = (rng.uniform(1.5, 2.5), rng.uniform(0.5, 1.2))
            try:
                ab = alpha_beta("x+y", f4_source, point)
                pi = fit_projective_structure(["x", "y", "x+y", f4_source], point)
            except (DegenerateWebError, EvaluationError):
                continue
            assert rel_close(ab.alpha, -3.0 * pi.p1_12, 1e-10)
            assert rel_close(ab.beta, -3.0 * pi.p2_12, 1e-10)


def test_symmetric_conditions_linear_pair():
    assert symmetric_conditions_residual("x+y", "x-y", (0.5, 0.25)) == (0.0, 0.0)


def test_symmetric_conditions_worked_example(rng):
    for _ in range(5):
        point = (rng.uniform(1.5, 3.0), rng.uniform(0.0, 1.0))
        r1, r2 = symmetric_conditions_residual(*SYMMETRIC_PAIR, point)
        assert abs(r1) <= 1e-9 and abs(r2) <= 1e-9


def test_symmetric_conditions_violated_by_perturbation():
    r1, r2 = symmetric_conditions_residual(*PERTURBED_PAIR, (2, 1))
    assert max(abs(r1), abs(r2)) > 1e-3


def test_dweb_linear_five_web(rng):
    web = ["x", "y", "x + sqrt(x^2 - y)", "y/(1 - x)", "y/(1 - 2*x)"]
    for _ in range(6):
        point = (rng.uniform(1.6, 2.4), rng.uniform(0.1, 0.9))
        samples = dweb_geodesic_residuals(web, point)
        assert len(samples) == 1
        assert abs(samples[0].normalized) <= 1e-10


def test_dweb_detects_non_geodesic_function():
    web = ["x", "y", "x+y", "x-y", "x*y"]
    samples = dweb_geodesic_residuals(web, (1, 1))
    assert samples[0].raw == pytest.approx(2.0)


def test_finite_type_rhs_zero_field():
    state = FiniteTypeState(0, 0, 0, 0, 0, 0)
    ab = AlphaBeta(
        alpha=0.0,
        beta=0.0,
        alpha_jet=alpha_beta("x+y", "x-y", (0.5, 0.2)).alpha_jet,
        beta_jet=alpha_beta("x+y", "x-y", (0.5, 0.2)).beta_jet,
    )
    assert finite_type_rhs(state, ab) == (0, 0, 0, 0, 0, 0)


def test_finite_type_rhs_worked_example():
    state = FiniteTypeState(0, 0, 0, 0, 0, 0)
    ab = alpha_beta(*SYMMETRIC_PAIR, (2, 1))
    values = finite_type_rhs(state, ab)
    assert values == pytest.approx((0, 0, 0, 0, 0, 0), abs=1e-12)


def test_finite_type_rhs_cross_check_with_full_system(rng):
    """The mixed-derivative rows must agree with the direct covariant
    derivative expansion they were solved from."""
    for _ in range(15):
        state = FiniteTypeState(*(rng.uniform(-1, 1) for _ in range(6)))
        point = (rng.uniform(1.5, 2.5), rng.uniform(0.2, 0.8))
        ab = alpha_beta(*SYMMETRIC_PAIR, point)
        s, t = state.sigma, state.tau
        sx, sy = state.sigma_x, state.sigma_y
        tx, ty = state.tau_x, state.tau_y
        a, b_ = ab.alpha, ab.beta
        ax, by = ab.alpha_x, ab.beta_y
        sigma_xy_direct = (
            (3 * s + a) * sx + 2 * s * ax + s * ty + 2 * t * sy + s * by
            - 2 * s * t * (2 * s + a)
        )
        tau_xy_direct = (
            t * sx + t * ax + (3 * t + b_) * ty + 2 * t * by + 2 * s * tx
            - 2 * s * t * (2 * t + b_)
        )
        _, sxy, _, _, txy, _ = finite_type_rhs(state, ab)
        assert rel_close(sxy, sigma_xy_direct, 1e-12)
        assert rel_close(txy, tau_xy_direct, 1e-12)


def test_transport_of_flat_pair_stays_zero():
    initial = FiniteTypeState(0, 0, 0, 0, 0, 0)
    result = integrate_symmetric_connection(
        "x+y", "x-y", initial, [(0, 0), (0.5, 0.2), (0.3, 0.6)], step=1e-2
    )
    assert np.allclose(result.state.as_array(), 0.0)
    assert result.constraint_residual == 0.0
    assert result.warnings == ()


def _loop(center, half):
    cx, cy = center
    return [
        (cx - half, cy - half),
        (cx + half, cy - half),
        (cx + half, cy + half),
        (cx - half, cy + half),
        (cx - half, cy - half),
    ]


def test_loop_closure_symmetric_web():
    initial = FiniteTypeState(0.2, -0.1, 0.15, 0.33, -0.21, 0.15)
    result = integrate_symmetric_connection(
        *SYMMETRIC_PAIR, initial, _loop((3, 1), 0.1), step=1e-3
    )
    defect = np.abs(result.state.as_array() - initial.as_array()).max()
    assert defect <= 1e-6
    assert abs(result.constraint_residual) <= 1e-8
    assert result.warnings == ()


def test_loop_defect_perturbed_web():
    start = (1.9, 0.4)
    ab0 = alpha_beta(*PERTURBED_PAIR, start)
    shift = -(ab0.alpha_x - ab0.beta_y) / 3.0
    initial = FiniteTypeState(0.2, -0.1, 0.15 + shift, 0.33, -0.21, 0.15)
    result = integrate_symmetric_connection(
        *PERTURBED_PAIR, initial, _loop((2.0, 0.5), 0.1), step=2e-3
    )
    defect = np.abs(result.state.as_array() - initial.as_array()).max()
    assert defect >= 1e-3
    assert result.warnings  # symmetry violation reported


def test_transport_contracts():
    initial = FiniteTypeState(0, 0, 1.0, 0, 0, 0)  # violates the constraint
    with pytest.raises(ValueError):
        integrate_symmetric_connection("x+y", "x-y", initial, [(0, 0), (1, 0)], 1e-2)
    ok = FiniteTypeState(0, 0, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        integrate_symmetric_connection("x+y", "x-y", ok, [(0, 0), (1, 0)], step=0.0)
    with pytest.raises(ValueError):
        integrate_symmetric_connection("x+y", "x-y", ok, [(0, 0)], step=1e-2)


def test_transport_validates_path_and_step_before_evaluating():
    from webgeo.projective import MAX_PATH_STEPS, path_step_count

    ok = FiniteTypeState(0, 0, 0, 0, 0, 0)
    # the field is undefined everywhere, so any evaluation would raise
    # EvaluationError instead of these ValueErrors
    nowhere = "sqrt(-1 - x^2)"
    bad = [
        ([(0, 0), (float("inf"), 0)], 1e-2, "not finite"),
        ([(0, 0), (float("nan"), 0)], 1e-2, "not finite"),
        ([(0, 0), (1, 0)], float("nan"), "finite positive"),
        ([(0, 0), (1, 0)], float("inf"), "finite positive"),
        ([(0, 0), (1, 0)], -1.0, "finite positive"),
        ([(0, 0), (1, 0)], 2.0**-20, f"more than {MAX_PATH_STEPS} steps"),
        ([(0, 0), (1, 0), (2, 0)], 2.0**-19, f"more than {MAX_PATH_STEPS} steps"),
        ([(-1e308, 0), (1e308, 0)], 1.0, f"more than {MAX_PATH_STEPS} steps"),
        ([(0, 0), (1, 0)], 1e-320, f"more than {MAX_PATH_STEPS} steps"),
    ]
    for path, step, reason in bad:
        with pytest.raises(ValueError, match=reason):
            path_step_count(path, step)
        with pytest.raises(ValueError, match=reason):
            integrate_symmetric_connection(nowhere, "x", ok, path, step)
    # zero-length segments take no steps; each other segment at least one
    assert path_step_count([(0, 0), (0, 0), (1, 0), (1, 0)], 0.25) == 4
    assert path_step_count([(0, 0), (0, 0)], 0.25) == 0
    assert path_step_count([(0, 0), (1, 0)], 10.0) == 1
    assert path_step_count([(0, 0), (1, 0)], 2.0**-19) == 2**19
    assert path_step_count([(0, 0), (1, 0), (2, 0)], 2.0**-18) == 2**19
    assert path_step_count([(0, 0), (1e6, 0)], 1.0) == MAX_PATH_STEPS
    with pytest.raises(ValueError, match=f"more than {MAX_PATH_STEPS} steps"):
        path_step_count([(0, 0), (1e6, 0), (1e6, 0.5)], 1.0)


def test_alpha_beta_denominator_product_underflow_is_an_evaluation_error():
    # each factor is about 1e-110, their product with Delta underflows
    f3, f4 = "1e-110*x + 1e-110*y", "x - y"
    with pytest.raises(EvaluationError, match="f3_x f3_y Delta underflows to 0"):
        alpha_beta(f3, f4, (1, 1))


def test_linear_solve_cube_overflow_is_an_evaluation_error():
    with pytest.raises(EvaluationError, match="overflows"):
        fit_by_linear_solve(["1e120*x", "y", "x+y", "x-y"], (1, 1))


def test_curvature_along_trace():
    ab = alpha_beta(*SYMMETRIC_PAIR, (2.5, 0.5))
    flat_ab = alpha_beta("x+y", "x-y", (2.5, 0.5))
    zero = curvature_along(FiniteTypeState(0, 0, 0, 0, 0, 0), flat_ab)
    assert zero.trace == 0.0

    shift = -(ab.alpha_x - ab.beta_y) / 3.0
    state = FiniteTypeState(0.3, 0.1, 0.2 + shift, -0.4, 0.9, 0.2)
    cm = curvature_along(state, ab)
    assert abs(cm.trace) <= 1e-12

    bad = FiniteTypeState(0.3, 0.1, 0.2, -0.4, 0.9, 0.7)
    assert abs(curvature_along(bad, ab).trace) > 1e-3


def test_transport_rejects_a_non_finite_initial_state_before_evaluating():
    path = [(2.9, 0.9), (3.1, 0.9)]
    for bad in (float("nan"), float("inf"), -float("inf")):
        initial = FiniteTypeState(0, 0, bad, 0, 0, 0)
        # the field is undefined everywhere: evaluating it would raise
        # EvaluationError ("sqrt ...") instead
        with pytest.raises(ValueError, match="initial state is not finite"):
            integrate_symmetric_connection("sqrt(-1 - x^2)", "x", initial, path, 1e-2)


@pytest.mark.parametrize("path", [[(2.9, 0.9), (3.1, 0.9), (3.1, 1.1)], [(3.0, 1.0), (3.0, 1.0)]])
def test_transport_returns_the_field_sample_at_its_endpoint(path):
    initial = FiniteTypeState(0.2, -0.1, 0.15, 0.33, -0.21, 0.15)
    result = integrate_symmetric_connection(*SYMMETRIC_PAIR, initial, path, step=0.05)
    at_end = alpha_beta(*SYMMETRIC_PAIR, result.endpoint)
    sample = result.endpoint_alpha_beta
    assert sample.alpha_jet.base_point == at_end.alpha_jet.base_point == path[-1]
    assert (sample.alpha, sample.beta) == (at_end.alpha, at_end.beta)
    assert sample.alpha_jet.coeffs.tolist() == at_end.alpha_jet.coeffs.tolist()
    assert sample.beta_jet.coeffs.tolist() == at_end.beta_jet.coeffs.tolist()
    assert curvature_along(result.state, sample) == curvature_along(result.state, at_end)
