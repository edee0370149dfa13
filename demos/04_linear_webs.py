#!/usr/bin/env python3
"""Linear webs from the Euler equation by the method of characteristics.

Web functions of linear webs are exactly the solutions of Flex f = 0, and
in slope form w = f_x/f_y that condition collapses to the Euler equation
w_x - w w_y = 0.  Cauchy data w0 on the line x = 0 propagates unchanged
along the straight characteristics y = lam - w0(lam) x, which are at once
the solution recipe and the leaves of the generated web.

Writes demos/output/linear_web.svg with three classical examples:
tangents of the parabola y = x^2 and two pencils of lines.
"""

from pathlib import Path

from webgeo import (
    CauchyDatum,
    Rect,
    characteristic_roots,
    euler_residual,
    euler_residual_of_jet,
    flex_of_jet,
    generate_linear_web,
    render_svg,
)

OUTPUT = Path(__file__).parent / "output"


def main():
    print("Euler residual w_x - w w_y for a few slope fields:")
    for source, point in (
        ("y/(1 - x)", (0.5, 2.0)),
        ("2*y/(1 - 2*x)", (0.2, 1.0)),
        ("x", (0.3, 0.8)),
    ):
        print(f"  {source:<16} at {point}: {euler_residual(source, point):+.3e}")

    print("\nCharacteristic branches of the tangent-line datum w0 = -2 sqrt(-y):")
    datum = CauchyDatum("-2*sqrt(-y)", (-20.0, -1e-6))
    for root in characteristic_roots(datum, (2.0, 3.0)):
        print(
            f"  lam = {root.lam:+.6f}  ->  w = {root.w:+.6f}  ({root.multiplicity_hint})"
        )
    print("  (two branches: the point (2,3) lies on two tangents of y = x^2)")

    print("\nGenerating a linear 3-web on [-2, 2] x [-4, 2]:")
    domain = Rect(-2.0, 2.0, -4.0, 2.0)
    data = [
        CauchyDatum("-2*sqrt(-y)", (-16.0, -0.04)),  # tangents of y = x^2
        CauchyDatum("2*y", (-6.0, 6.0)),             # pencil through (1/2, 0)
        CauchyDatum("y + 1", (-6.0, 6.0)),           # pencil through (1, -1)
    ]
    web = generate_linear_web(data, domain, leaves_per_foliation=11)
    for foliation in web.foliations:
        print(
            f"  datum {foliation.datum.source():<14} "
            f"-> {len(foliation.leaves)} leaves"
        )

    print("\nSpot check: the transported solution solves the Euler equation")
    print("and has zero flex (single-valued region of the first foliation):")
    solution = web.foliations[0].solution
    point = (1.8, 0.9)
    branch = max(solution.roots(point), key=lambda r: abs(r.lam))
    jet = solution.jet(point, 2, lam=branch.lam)
    print(f"  at {point}: euler = {euler_residual_of_jet(jet.truncate(1)):+.3e}, "
          f"flex = {flex_of_jet(jet):+.3e}")

    OUTPUT.mkdir(exist_ok=True)
    svg_path = OUTPUT / "linear_web.svg"
    svg_path.write_text(render_svg(web.all_leaves(), domain))
    print(f"\nwrote {svg_path}")


if __name__ == "__main__":
    main()
