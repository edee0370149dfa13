"""Torsion-free planar connections and their projective invariants.

A connection is stored through its six independent Christoffel components
(the lower index pair is symmetric, so torsion-freeness holds by
construction).  Components are kept as expressions rather than point
samples, so closed-form connection families stay exact and downstream code
can evaluate them wherever it needs.

The Thomas parameters of a connection,

    P^1_22 = G^1_22            P^1_12 = -(G^2_22 - 2 G^1_12) / 3
    P^2_11 = G^2_11            P^2_12 = -(G^1_11 - 2 G^2_12) / 3

with the planar identities P^2_22 = -P^1_12 and P^1_11 = -P^2_12, determine
the connection's projective equivalence class: two connections share their
unparametrized geodesics exactly when their Thomas parameters agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .exprlang import (
    Constant,
    EvaluationError,
    Expression,
    PartialDerivative,
    X,
    Y,
    as_expression,
    evaluate,
    evaluate_jet,
)
from .taylor import fail, np, partial_derivative


@dataclass(frozen=True)
class ChristoffelField:
    """Six Christoffel components of a torsion-free planar connection."""

    gamma1_11: Expression
    gamma1_12: Expression
    gamma1_22: Expression
    gamma2_11: Expression
    gamma2_12: Expression
    gamma2_22: Expression

    def components_at(self, point) -> tuple[float, float, float, float, float, float]:
        """Evaluate (G1_11, G1_12, G1_22, G2_11, G2_12, G2_22) at a point."""
        return (
            evaluate(self.gamma1_11, point),
            evaluate(self.gamma1_12, point),
            evaluate(self.gamma1_22, point),
            evaluate(self.gamma2_11, point),
            evaluate(self.gamma2_12, point),
            evaluate(self.gamma2_22, point),
        )


@dataclass(frozen=True)
class ThomasParameters:
    """Projective connection components at a point.

    Only the four independent values are stored; the remaining two planar
    components are exposed as derived accessors.
    """

    p1_22: float
    p1_12: float
    p2_12: float
    p2_11: float

    def __post_init__(self):
        _check_thomas(self.as_tuple())

    @property
    def p2_22(self) -> float:
        return -self.p1_12

    @property
    def p1_11(self) -> float:
        return -self.p2_12

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.p1_22, self.p1_12, self.p2_12, self.p2_11)


def _check_thomas(values, ok=None):
    """Fail (see :func:`~webgeo.taylor.fail`) a point whose Thomas
    parameters (p1_22, p1_12, p2_12, p2_11) are not all finite."""
    for name, v in zip(("p1_22", "p1_12", "p2_12", "p2_11"), values):
        bad = not math.isfinite(v) if ok is None else ~np.isfinite(v)
        fail(bad, ok, lambda: ValueError(f"Thomas parameter {name} is not finite: {v!r}"))


@dataclass(frozen=True)
class CurvatureMatrix:
    """Independent curvature components of a planar connection at a point."""

    r1_112: float
    r1_212: float
    r2_112: float
    r2_212: float

    @property
    def trace(self) -> float:
        return self.r1_112 + self.r2_212


def thomas_from_christoffels(gammas: ChristoffelField, point) -> ThomasParameters:
    """Thomas parameters of a connection, evaluated at a point."""
    g1_11, g1_12, g1_22, g2_11, g2_12, g2_22 = gammas.components_at(point)
    return ThomasParameters(
        p1_22=g1_22,
        p1_12=-(g2_22 - 2.0 * g1_12) / 3.0,
        p2_12=-(g1_11 - 2.0 * g2_12) / 3.0,
        p2_11=g2_11,
    )


def christoffels_constant_curvature(kappa: float) -> ChristoffelField:
    """Levi-Civita connection of the rotationally symmetric metric

        (dx^2 + dy^2) / (1 + kappa (x^2 + y^2))^2

    of constant Gaussian curvature 4*kappa.  With b = 1/(1 + kappa r^2):

        G1_12 = G2_22 = -G2_11 = -2 kappa y b
        G1_11 = G2_12 = -G1_22 = -2 kappa x b
    """
    k = float(kappa)
    if k == 0.0:
        zero = Constant(0.0)
        return ChristoffelField(zero, zero, zero, zero, zero, zero)
    b = Constant(1.0) / (Constant(1.0) + Constant(k) * (X**2 + Y**2))
    mx = Constant(-2.0 * k) * X * b
    my = Constant(-2.0 * k) * Y * b
    return ChristoffelField(
        gamma1_11=mx,
        gamma1_12=my,
        gamma1_22=-mx,
        gamma2_11=-my,
        gamma2_12=mx,
        gamma2_22=my,
    )


GRAPH_SURFACE_GAMMA_NOTE = (
    "graph-surface connection uses Gamma^2_22 = z_y*z_yy/(1+z_x^2+z_y^2), "
    "the Levi-Civita value of the induced metric"
)


def christoffels_graph_surface(z) -> ChristoffelField:
    """Levi-Civita connection of the graph surface w = z(x, y) in 3-space,
    written in the (x, y) chart of the induced metric:

        G^1_ij = z_x * z_ij / (1 + z_x^2 + z_y^2)
        G^2_ij = z_y * z_ij / (1 + z_x^2 + z_y^2)

    The components hold derivative nodes of `z`, so evaluating them needs
    `z` to support jets two orders above the requested one.
    """
    z = as_expression(z)
    zx = PartialDerivative(z, 1, 0)
    zy = PartialDerivative(z, 0, 1)
    zxx = PartialDerivative(z, 2, 0)
    zxy = PartialDerivative(z, 1, 1)
    zyy = PartialDerivative(z, 0, 2)
    denom = Constant(1.0) + zx**2 + zy**2
    return ChristoffelField(
        gamma1_11=zx * zxx / denom,
        gamma1_12=zx * zxy / denom,
        gamma1_22=zx * zyy / denom,
        gamma2_11=zy * zxx / denom,
        gamma2_12=zy * zxy / denom,
        gamma2_22=zy * zyy / denom,
    )


def curvature_components(
    sigma: float,
    tau: float,
    alpha: float,
    beta: float,
    sigma_x: float,
    sigma_y: float,
    tau_x: float,
    tau_y: float,
    alpha_x: float,
    beta_y: float,
) -> CurvatureMatrix:
    """Curvature matrix of the normalized connection

        G1_12 = sigma, G2_12 = tau, G1_11 = 2 tau + beta,
        G2_22 = 2 sigma + alpha, G1_22 = G2_11 = 0:

        R1_112 = sigma_x - 2 tau_y - beta_y + sigma tau
        R1_212 = -sigma_y + sigma^2 + sigma alpha
        R2_112 = tau_x - tau^2 - tau beta
        R2_212 = 2 sigma_x - tau_y + alpha_x - sigma tau

    The trace R1_112 + R2_212 equals alpha_x - beta_y + 3 (sigma_x - tau_y)
    and vanishes exactly for affine symmetric connections.
    """
    return CurvatureMatrix(
        r1_112=sigma_x - 2.0 * tau_y - beta_y + sigma * tau,
        r1_212=-sigma_y + sigma * sigma + sigma * alpha,
        r2_112=tau_x - tau * tau - tau * beta,
        r2_212=2.0 * sigma_x - tau_y + alpha_x - sigma * tau,
    )


def gaussian_curvature_oracle(e_comp, f_comp, g_comp, point) -> float:
    """Gaussian curvature of the metric E dx^2 + 2 F dx dy + G dy^2 by the
    Brioschi formula.  Serves as an independent check on connection
    generators; requires E G - F^2 > 0 at the point.
    """
    e_comp = as_expression(e_comp)
    f_comp = as_expression(f_comp)
    g_comp = as_expression(g_comp)

    je = evaluate_jet(e_comp, point, 2)
    jf = evaluate_jet(f_comp, point, 2)
    jg = evaluate_jet(g_comp, point, 2)

    E = partial_derivative(je, 0, 0)
    Ex = partial_derivative(je, 1, 0)
    Ey = partial_derivative(je, 0, 1)
    Eyy = partial_derivative(je, 0, 2)
    F = partial_derivative(jf, 0, 0)
    Fx = partial_derivative(jf, 1, 0)
    Fy = partial_derivative(jf, 0, 1)
    Fxy = partial_derivative(jf, 1, 1)
    G = partial_derivative(jg, 0, 0)
    Gx = partial_derivative(jg, 1, 0)
    Gy = partial_derivative(jg, 0, 1)
    Gxx = partial_derivative(jg, 2, 0)

    det_metric = E * G - F * F
    if det_metric <= 0.0:
        raise EvaluationError(
            f"degenerate metric: E*G - F^2 = {det_metric!r} at {tuple(point)}"
        )

    m1 = np.array(
        [
            [-0.5 * Eyy + Fxy - 0.5 * Gxx, 0.5 * Ex, Fx - 0.5 * Ey],
            [Fy - 0.5 * Gx, E, F],
            [0.5 * Gy, F, G],
        ]
    )
    m2 = np.array(
        [
            [0.0, 0.5 * Ey, 0.5 * Gx],
            [0.5 * Ey, E, F],
            [0.5 * Gx, F, G],
        ]
    )
    return float((np.linalg.det(m1) - np.linalg.det(m2)) / det_metric**2)


def constant_curvature_metric(kappa: float) -> tuple[Expression, Expression, Expression]:
    """The (E, F, G) components of the constant-curvature model metric."""
    k = float(kappa)
    conformal = Constant(1.0) / (Constant(1.0) + Constant(k) * (X**2 + Y**2)) ** 2
    return conformal, Constant(0.0), conformal
