#!/usr/bin/env python3
"""Symmetric projective structures and finite-type transport.

For a normalized web (x, y, f3, f4) the structure is encoded by two
functions alpha and beta.  It contains an affine symmetric connection
(covariantly constant curvature) iff two fourth-order conditions on
(f3, f4) hold; the remaining freedom is then a 5-parameter family, and
transporting its state around a closed loop must return to the start.
Violating the conditions makes the transport path dependent, which the
loop defect exposes.
"""

import numpy as np

from webgeo import (
    FiniteTypeState,
    alpha_beta,
    curvature_along,
    integrate_symmetric_connection,
    symmetric_conditions_residual,
)


def square_loop(center, half):
    cx, cy = center
    return [
        (cx - half, cy - half),
        (cx + half, cy - half),
        (cx + half, cy + half),
        (cx - half, cy + half),
        (cx - half, cy - half),
    ]


def transport(f3, f4, center, label):
    start = square_loop(center, 0.1)[0]
    ab = alpha_beta(f3, f4, start)
    # satisfy the trace constraint at the start point
    shift = -(ab.alpha_x - ab.beta_y) / 3.0
    initial = FiniteTypeState(0.2, -0.1, 0.15 + shift, 0.33, -0.21, 0.15)
    result = integrate_symmetric_connection(
        f3, f4, initial, square_loop(center, 0.1), step=1e-3
    )
    defect = np.abs(result.state.as_array() - initial.as_array()).max()
    print(f"\n  {label}")
    print(f"    loop defect:          {defect:.3e}")
    print(f"    trace constraint end: {result.constraint_residual:+.3e}")
    for warning in result.warnings:
        print(f"    warning: {warning}")
    curvature = curvature_along(result.state, alpha_beta(f3, f4, start))
    print(f"    curvature trace:      {curvature.trace:+.3e}")


def main():
    print("Symmetry conditions for (x, y, x+y, x*y) at a few points:")
    for point in ((2.0, 1.0), (2.5, 0.3), (1.8, 0.6)):
        r1, r2 = symmetric_conditions_residual("x+y", "x*y", point)
        print(f"  at {point}: r1 = {r1:+.3e}, r2 = {r2:+.3e}")

    print("\nThe same conditions fail for the perturbed pair (x+y, x*y + x^3):")
    for point in ((2.0, 1.0), (1.8, 0.6)):
        r1, r2 = symmetric_conditions_residual("x+y", "x*y + x^3", point)
        print(f"  at {point}: r1 = {r1:+.3e}, r2 = {r2:+.3e}")

    print("\nTransport around a 0.2-side square loop (step 1e-3):")
    transport("x+y", "x*y", (3.0, 1.0), "symmetric web: holonomy-free")
    transport("x+y", "x*y + x^3", (2.0, 0.5), "perturbed web: path dependent")


if __name__ == "__main__":
    main()
