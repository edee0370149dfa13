"""Seeded job lists for the three benchmark workloads.

Every job is built from a known-answer family: the family fixes what the
right output is (a verdict, a skipped-point count, an exact value, or a
formula that an independent sympy evaluation turns into numbers), and the
seed picks coefficients, directions, centres and grid offsets inside
ranges chosen so that no grid node sits near a domain boundary or a
near-singular point.

The structure of each list is fixed: which family, formula shape and grid
size sits in which slot does not depend on the seed.  So the work in one
pass hardly depends on the seed, which keeps `wall_s` and the latency
percentiles comparable across seeds.  The program sees only the generated
argv strings and formulas.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass, field

#: Verdict tolerance passed to every command (the CLI default).
TOL = 1e-8

WORKLOADS = ("grid_residuals", "web_invariants", "paths_and_points")

#: Where render/lingen jobs write their SVG files, relative to the checkout.
WORK_DIR = ".bench_work"


@dataclass
class Job:
    """One timed call: a CLI argv or a named library routine.

    `points` counts the work in the input: grid points times foliations for
    grid jobs, integrator or tracer steps for path jobs.  `large` marks the
    jobs that `points_per_s` is measured over.
    """

    id: int
    family: str
    argv: list | None = None
    call: str | None = None
    args: dict = field(default_factory=dict)
    points: int = 1
    expect: dict = field(default_factory=dict)
    large: bool = False

    def as_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------- helpers


def num(v: float) -> str:
    """Formula text for a number; negative values use unary minus."""
    return repr(float(v))


def lin(a: float, b: float, c: float = 0.0) -> str:
    """Formula text for the linear form a*x + b*y + c."""
    return f"({num(a)}*x + {num(b)}*y + {num(c)})"


def grid_text(g) -> str:
    return f"{num(g[0])}:{num(g[1])}:{num(g[2])}:{num(g[3])}:{g[4]}:{g[5]}"


def grid_nodes(g):
    """Grid nodes (x, y), y-major then x, with inclusive endpoints."""
    xmin, xmax, ymin, ymax, nx, ny = g
    hx = (xmax - xmin) / (nx - 1) if nx > 1 else 0.0
    hy = (ymax - ymin) / (ny - 1) if ny > 1 else 0.0
    xs = [xmin + i * hx for i in range(nx)]
    ys = [ymin + j * hy for j in range(ny)]
    return [(x, y) for y in ys for x in xs]


def _r(rng: random.Random, lo: float, hi: float, digits: int = 3) -> float:
    return round(rng.uniform(lo, hi), digits)


def _margin_ok(values, margin: float) -> bool:
    return all(abs(v) >= margin for v in values)


def _grid(rng, n, x0, y0, w=1.0, h=1.0):
    """An n x n grid over [x0, x0 + w] x [y0, y0 + h], shifted by up to 0.05."""
    xmin, ymin = round(x0 + _r(rng, -0.05, 0.05), 3), round(y0 + _r(rng, -0.05, 0.05), 3)
    return (xmin, round(xmin + w, 3), ymin, round(ymin + h, 3), n, n)


def _direction(rng, lo=0.2, hi=1.3):
    ang = rng.uniform(lo, hi)
    return round(math.cos(ang), 3), round(math.sin(ang), 3)


def _monotone(rng, u: str, variant: int) -> str:
    """A function of `u` whose derivative never vanishes, so its level sets
    are those of `u` and its gradient is never zero where u's is not."""
    k = _r(rng, 0.3, 0.8)
    u = f"({u})"
    return (
        f"exp({num(k)}*{u})",
        f"({u}^3 + {num(1 + k)}*{u})",
        f"(-exp({num(-k)}*{u}))",
        f"({num(k)}*{u} + {u}^5/50)",
    )[variant % 4]


def _ratio_fn(rng, r: str, variant: int) -> str:
    """A monotone function of the expression `r`, whose values are positive."""
    k = _r(rng, 0.3, 0.9)
    r = f"({r})"
    return (r, f"exp({num(k)}*{r})", f"({r}^3 + {num(k)}*{r})", f"ln({num(1 + k)} + {r})")[variant % 4]


class _JobList:
    def __init__(self, workload: str, seed: int):
        self.rng = random.Random(f"{workload}:{seed}")
        self.workload = workload
        self.jobs: list[Job] = []
        self.large_start = None

    def add(self, family: str, **kw) -> Job:
        job = Job(id=len(self.jobs), family=family, **kw)
        self.jobs.append(job)
        return job

    def large_from_here(self):
        """Mark every job added after this call as a large-input job."""
        self.large_start = len(self.jobs)

    def finish(self) -> list[Job]:
        if self.large_start is not None:
            for job in self.jobs[self.large_start:]:
                job.large = True
        return self.jobs

    def svg_path(self) -> str:
        return f"{WORK_DIR}/{self.workload}/job{len(self.jobs):03d}.svg"


# --------------------------------------------------------- grid_residuals

FLEX_KINDS = ("linear", "pencil", "repeated", "sqrt", "ellipse", "general")


def _flex_job(b: _JobList, kind: str, n: int, variant: int):
    rng = b.rng
    g = _grid(rng, n, -0.5, -0.5)
    nodes = grid_nodes(g)
    expect = {"verdict": "geodesic", "skipped": 0, "degenerate": [], "tol": TOL}
    if kind == "linear":
        f = _monotone(rng, lin(*_direction(rng), _r(rng, -0.3, 0.3)), variant)
    elif kind == "repeated":
        # A function of one linear form written out four times; its
        # derivative e^L + 3 L^2 + 1/3 + cos(L/4)/4 is at least 1/12.
        L = lin(*_direction(rng), _r(rng, -0.3, 0.3))
        f = f"(exp({L}) + {L}^3 + {L}/3 + sin({L}/4))"
    elif kind == "pencil":
        # Lines through (1/c, -q); 1 - c*x stays in [0.7, 1.3] on the grid,
        # so the shifted ratio stays in 1.1..3.9.
        c = _r(rng, 0.2, 0.5) * (1 if variant % 2 else -1)
        q = _r(rng, -0.4, 0.4)
        f = _ratio_fn(rng, f"(y + {num(q)})/(1 - {num(c)}*x) + 2.5", variant)
    elif kind == "sqrt":
        # A line through the middle of the grid: about half the nodes are
        # out of the domain of sqrt, none within 1e-6 of the boundary.
        a, bb = _direction(rng, 0.0, 2 * math.pi)
        cx, cy = 0.5 * (g[0] + g[1]), 0.5 * (g[2] + g[3])
        while True:
            c = round(-(a * cx + bb * cy) + rng.uniform(-0.01, 0.01), 4)
            vals = [a * x + bb * y + c for x, y in nodes]
            if _margin_ok(vals, 1e-6):
                break
        f = f"sqrt({lin(a, bb, c)})"
        expect["skipped"] = sum(1 for v in vals if v <= 0.0)
    elif kind == "ellipse":
        # Concentric ellipses: non-geodesic, and degenerate at the centre,
        # which is a grid node.
        i0, j0 = rng.randrange(1, n - 1), rng.randrange(1, n - 1)
        x0, y0 = nodes[j0 * n + i0]
        f = f"((x - {num(x0)})^2 + {num(_r(rng, 0.4, 2.5))}*(y - {num(y0)})^2)"
        expect.update(verdict="non-geodesic", degenerate=[[x0, y0]], oracle="flex")
    else:
        # f_y = exp(a x) + 2 c x y stays above 0.2 on the grid.
        f = f"(exp({num(_r(rng, 0.5, 1.5))}*x)*(y + 2) + {num(_r(rng, 0.1, 0.4))}*x*y^2)"
        expect.update(verdict="non-geodesic", oracle="flex")
    b.add(
        "flex",
        argv=["flex", f"--f={f}", f"--grid={grid_text(g)}", f"--expect={expect['verdict']}"],
        args={"f": f, "grid": list(g)},
        points=len(nodes),
        expect=expect,
    )


def _ratio_web(rng, count, variant):
    """Functions of y/x: their leaves are lines through the origin."""
    return [_ratio_fn(rng, "y/x", variant + i) for i in range(count)]


def _constcurv_job(b: _JobList, n: int, nfun: int, variant: int, extra: bool):
    """Radial lines are geodesics of the rotationally symmetric metric
    (dx^2 + dy^2)/(1 + k r^2)^2.  For k < 0 the nodes beyond the singular
    circle are skipped."""
    rng = b.rng
    kappa = -_r(rng, 0.3, 0.35) if variant % 2 else _r(rng, 0.2, 1.0)
    while True:
        g = _grid(rng, n, 0.6, 0.3)
        nodes = grid_nodes(g)
        denoms = [1.0 + kappa * (x * x + y * y) for x, y in nodes]
        if _margin_ok(denoms, 1e-4):
            break
    web = _ratio_web(rng, nfun, variant)
    foliations = [{"geodesic": True} for _ in web]
    if extra:
        web.append(f"(x + {num(_r(rng, 0.3, 1.0))}*y^2)")
        foliations.append({"geodesic": False})
    verdict = "non-geodesic" if extra else "geodesic"
    b.add(
        "geodesic",
        argv=["geodesic", f"--web={'; '.join(web)}", f"--christoffel=constcurv:{num(kappa)}",
              f"--grid={grid_text(g)}", f"--expect={verdict}"],
        args={"web": web, "structure": "constcurv", "kappa": kappa, "grid": list(g)},
        points=len(nodes) * len(web),
        expect={"verdict": verdict, "skipped": sum(1 for d in denoms if d <= 0.0),
                "foliations": foliations, "tol": TOL},
    )


def _surface(rng, variant: int) -> str:
    """Height of a surface of revolution about the w axis."""
    k = num(_r(rng, 0.2, 0.6))
    r2 = "(x^2 + y^2)"
    return (f"exp({k}*{r2})", f"{k}*{r2}^2", f"ln(1 + {k}*{r2})", f"sqrt(1 + {k}*{r2})")[variant % 4]


def _graph_job(b: _JobList, n: int, nfun: int, variant: int):
    """Meridians (lines through the origin) are geodesics of a surface of
    revolution w = g(x^2 + y^2)."""
    rng = b.rng
    g = _grid(rng, n, 0.6, 0.4)
    web = _ratio_web(rng, nfun, variant)
    z = _surface(rng, variant)
    b.add(
        "geodesic",
        argv=["geodesic", f"--web={'; '.join(web)}", f"--christoffel=graph:{z}",
              f"--grid={grid_text(g)}", "--expect=geodesic"],
        args={"web": web, "structure": "graph", "z": z, "grid": list(g)},
        points=n * n * nfun,
        expect={"verdict": "geodesic", "skipped": 0,
                "foliations": [{"geodesic": True} for _ in web], "tol": TOL},
    )


def _flat_christoffels(rng) -> list[str]:
    """Christoffels of a projectively flat connection,
    G^k_ij = delta^k_i phi_j + delta^k_j phi_i with phi = (p, q): its
    geodesics are straight lines and its flex residual equals Flex f.
    p and q are repeated subexpressions of the six components."""
    a = _r(rng, 0.2, 0.9)
    p = f"(sin({num(a)}*x*y) + {num(_r(rng, 0.2, 0.9))}*x)"
    q = f"(exp({num(_r(rng, 0.1, 0.4))}*x*y) - {num(a)}*y^2)"
    return [f"2*{p}", q, "0", "0", p, f"2*{q}"]


def _custom_job(b: _JobList, n: int, nfun: int, variant: int, extra: bool):
    rng = b.rng
    g = _grid(rng, n, 0.2, 0.2)
    web = [_monotone(rng, lin(*_direction(rng), -0.8), variant + i) for i in range(nfun)]
    foliations = [{"geodesic": True} for _ in web]
    if extra:
        web.append(f"(x^2 + {num(_r(rng, 0.5, 2.0))}*y^2)")
        foliations.append({"geodesic": False})
    verdict = "non-geodesic" if extra else "geodesic"
    b.add(
        "geodesic",
        argv=["geodesic", f"--web={'; '.join(web)}",
              f"--christoffel=custom:{'; '.join(_flat_christoffels(rng))}",
              f"--grid={grid_text(g)}", f"--expect={verdict}"],
        args={"web": web, "structure": "custom", "grid": list(g)},
        points=n * n * len(web),
        expect={"verdict": verdict, "skipped": 0, "foliations": foliations, "tol": TOL},
    )


def _euler_grid_job(b: _JobList, n: int, solution: bool):
    rng = b.rng
    g = _grid(rng, n, 0.0, 0.0)
    if solution:
        # w = (y + a)/(b - x) solves w_x = w w_y.
        w = f"((y + {num(_r(rng, -1.0, 1.0))})/({num(_r(rng, 1.5, 3.0))} - x))"
        expect = {"verdict": "pass"}
    else:
        w = lin(_r(rng, 0.3, 1.2), _r(rng, 0.3, 1.2), _r(rng, -0.5, 0.5))
        expect = {"verdict": "fail", "oracle": "euler"}
    expect.update(skipped=0, tol=TOL)
    b.add(
        "euler_grid",
        argv=["euler", f"--w={w}", f"--grid={grid_text(g)}", f"--expect={expect['verdict']}"],
        args={"w": w, "grid": list(g)},
        points=n * n,
        expect=expect,
    )


def _lib_graph_job(b: _JobList, n: int, variant: int):
    """geodesic_web_report with the generated graph-surface Christoffels."""
    rng = b.rng
    g = _grid(rng, n, 0.6, 0.4)
    b.add(
        "lib_graph_report",
        call="graph_report",
        args={"web": _ratio_web(rng, 1, variant), "z": _surface(rng, variant),
              "grid": list(g), "tol": TOL},
        points=n * n,
        expect={"verdict": "geodesic"},
    )


def grid_residuals(seed: int) -> list[Job]:
    b = _JobList("grid_residuals", seed)
    sizes = (6, 7, 8, 9, 10, 12)
    for rep in range(7):
        for k, kind in enumerate(FLEX_KINDS):
            _flex_job(b, kind, sizes[(rep + k) % len(sizes)], rep + k)
    for i in range(12):
        _constcurv_job(b, 6 + i % 5, 2 + i % 2, i, extra=i % 3 == 2)
    for i in range(10):
        _graph_job(b, 5 + i % 4, 1 + i % 2, i)
    for i in range(12):
        _custom_job(b, 6 + i % 5, 1 + i % 2, i, extra=i % 3 == 1)
    for i in range(18):
        _euler_grid_job(b, 8 + i % 9, solution=i % 4 != 3)
    for i in range(2):
        _lib_graph_job(b, 4 + i, i)
    _cross_section(b, ("fit_tangent", "roots", "lingen", "render", "symintegrate"))
    # Large inputs: from 900 points to a 10^4-point grid.
    b.large_from_here()
    _flex_job(b, "linear", 100, 0)
    _flex_job(b, "repeated", 30, 0)
    _flex_job(b, "sqrt", 40, 0)
    _constcurv_job(b, 24, 2, 0, extra=False)
    _custom_job(b, 30, 1, 0, extra=False)
    _graph_job(b, 30, 1, 1)
    _euler_grid_job(b, 60, solution=True)
    return b.finish()


# --------------------------------------------------------- web_invariants


def _fit_web(rng, kind: str, g, variant: int):
    """Four web functions and, for the tangent family, the grid column where
    foliations 2 and 3 touch."""
    if kind == "linear":
        web = []
        for k in sorted(rng.sample(range(8), 4)):
            ang = (k + rng.uniform(0.15, 0.85)) * math.pi / 8
            web.append(lin(round(math.cos(ang), 3), round(math.sin(ang), 3), _r(rng, -1, 1)))
        return web, None
    if kind == "general":
        # x - c in [1, 2], y - d in [2.5, 3.5] and b >= 1.25 a keep every
        # pairwise Jacobian away from zero on the grid.
        a, bb = _r(rng, 0.5, 0.8), _r(rng, 1.0, 1.5)
        c = round(g[0] - 1.0, 3)
        d = round(g[2] - 2.5, 3)
        third = _monotone(rng, lin(a, bb), variant) if variant % 2 else lin(a, bb)
        return ["x", "y", third, f"((x - {num(c)})*(y - {num(d)}))"], None
    # J(y, y + k (x - x0)^2) = -2 k (x - x0) vanishes on the grid column
    # x = x0; J(f3, f4) = 2 k b (x - x0) - a stays below -1 since a >= 2.
    i0 = rng.randrange(1, g[4] - 1)
    x0 = grid_nodes(g)[i0][0]
    a, bb = _r(rng, 2.0, 3.0), _r(rng, 0.5, 1.0)
    return ["x", "y", f"(y + {num(_r(rng, 0.25, 0.5))}*(x - {num(x0)})^2)", lin(a, bb)], x0


def _fit_grid_job(b: _JobList, kind: str, n: int, variant: int):
    rng = b.rng
    g = _grid(rng, n, 0.5, 0.5)
    web, x0 = _fit_web(rng, kind, g, variant)
    expect = {"skipped": 0, "oracle": "zero" if kind == "linear" else "pi"}
    if x0 is not None:
        expect.update(skipped=n, tangent_x=x0)
    b.add(
        "fit_grid",
        argv=["fit", f"--web={'; '.join(web)}", f"--grid={grid_text(g)}"],
        args={"web": web, "grid": list(g)},
        points=n * n * 4,
        expect=expect,
    )


def _line_foliations(rng, g, count, variant):
    """Foliations by straight lines on the dweb grid box (x >= 1.55,
    y <= 0.95): linear forms, pencils through points below-left of the box,
    and tangent lines of the parabola y = s x^2, defined where
    x^2 > y / s, which holds on the whole box for s >= 1."""
    out = []
    for i in range(count):
        kind = (variant + i) % 3
        if kind == 0:
            a, bb = _direction(rng)
            out.append(_monotone(rng, lin(a, -bb), variant + i))
        elif kind == 1:
            p, q = round(g[0] - _r(rng, 1.0, 2.0), 3), round(g[2] - _r(rng, 1.0, 2.0), 3)
            out.append(f"((y - {num(q)})/(x - {num(p)}))")
        else:
            out.append(f"(x + sqrt(x^2 - y/{num(_r(rng, 1.0, 1.5))}))")
    return out


def _dweb_job(b: _JobList, kind: str, n: int, d: int, variant: int):
    rng = b.rng
    g = _grid(rng, n, 1.6, 0.1, 0.8, 0.8)
    expect = {"skipped": 0, "oracle": None, "tol": TOL}
    if kind == "tangent":
        lead, x0 = _fit_web(rng, "tangent", g, variant)
        rest = [lin(_r(rng, 0.5, 1.0), _r(rng, 0.5, 1.0)) for _ in range(d - 4)]
        expect.update(verdict="non-geodesic", skipped=n, tangent_x=x0, oracle="pi")
    else:
        # x, y, a linear form and a pencil through a point below-left of
        # the box are pairwise transversal there, and all four are lines,
        # so they fit pi = 0 and every further line foliation is geodesic.
        p, q = round(g[0] - _r(rng, 1.0, 2.0), 3), round(g[2] - _r(rng, 1.0, 2.0), 3)
        lead = ["x", "y", lin(*_direction(rng)), f"((y - {num(q)})/(x - {num(p)}))"]
        rest = _line_foliations(rng, g, d - 4, variant)
        expect["verdict"] = "geodesic"
        if kind == "curved":
            rest[-1] = f"((x - {num(_r(rng, 0.0, 1.0))})^2 + {num(_r(rng, 0.5, 2))}*y^2)"
            expect.update(verdict="non-geodesic", oracle="pi")
    web = lead + rest
    b.add(
        "dweb",
        argv=["dweb", f"--web={'; '.join(web)}", f"--grid={grid_text(g)}",
              f"--expect={expect['verdict']}"],
        args={"web": web, "grid": list(g)},
        points=n * n * d,
        expect=expect,
    )


def _symmetric_pair(rng, g, variant, equal_scales=False):
    """(f3, f4) with (x, y, f3, f4) the pull-back of the web
    (X, Y, X + Y, X Y) by X = s (x - x1), Y = t (y - y1); its projective
    structure is symmetric.  On the grid box, Y >= 0.5 and X - Y >= 2,
    so the invariants' denominators stay well away from zero."""
    s = _r(rng, 0.8, 1.2)
    t = s if equal_scales else _r(rng, 0.8, 1.2)
    y1 = round(g[2] - 0.5 / t, 3)
    x1 = round(g[0] - (2.0 + t * (g[3] - y1)) / s, 3)
    X = f"{num(s)}*(x - {num(x1)})"
    Y = f"{num(t)}*(y - {num(y1)})"
    f3 = _monotone(rng, f"({X} + {Y})/4", variant)
    f4 = f"(({X})*({Y}))"
    if variant % 2:
        f4 = f"ln{f4}"
    return f3, f4, (s, t, x1, y1)


def _symcheck_job(b: _JobList, kind: str, n: int, variant: int):
    rng = b.rng
    expect = {"verdict": "symmetric", "skipped": 0, "oracle": None, "tol": TOL}
    if kind == "nonsymmetric":
        # f4_x, f4_y and D = s f4_y - t f4_x stay above 1 on the grid box.
        g = _grid(rng, n, 1.5, 1.5)
        f3 = lin(_r(rng, 0.8, 1.0), _r(rng, 0.2, 0.4))
        f4 = f"(x^2 + {num(_r(rng, 1.5, 2.5))}*y^2 + {num(_r(rng, 0.2, 0.6))}*x*y)"
        expect.update(verdict="non-symmetric", oracle="sym")
    else:
        g = _grid(rng, n, 1.5, 0.0)
        f3, f4, (s, t, x1, y1) = _symmetric_pair(rng, g, variant, kind == "domain")
        if kind == "domain":
            # ln(X + Y - c) has the leaves of X + Y and is out of its domain
            # on part of the grid.  With s = t the node values of X + Y are
            # s h apart (h the grid step), and c sits half-way between two
            # of them: at least 0.04 from every node, enough for the
            # order-4 jets of ln.
            sums = sorted({round(s * (x - x1) + t * (y - y1), 9) for x, y in grid_nodes(g)})
            k = rng.randrange(len(sums) // 5, len(sums) // 3)
            c = round(0.5 * (sums[k] + sums[k + 1]), 6)
            f3 = f"ln({num(s)}*(x - {num(x1)}) + {num(t)}*(y - {num(y1)}) - {num(c)})"
            expect["skipped"] = sum(
                1 for x, y in grid_nodes(g) if s * (x - x1) + t * (y - y1) - c <= 0.0)
    b.add(
        "symcheck",
        argv=["symcheck", f"--f3={f3}", f"--f4={f4}", f"--grid={grid_text(g)}",
              f"--expect={expect['verdict']}"],
        args={"f3": f3, "f4": f4, "grid": list(g)},
        points=n * n * 2,
        expect=expect,
    )


def web_invariants(seed: int) -> list[Job]:
    b = _JobList("web_invariants", seed)
    fit_kinds = ("linear", "general", "tangent")
    for i in range(36):
        _fit_grid_job(b, fit_kinds[i % 3], 6 + i % 7, i)
    dweb_kinds = ("lines", "lines", "curved", "tangent")
    for i in range(32):
        _dweb_job(b, dweb_kinds[i % 4], 6 + i % 5, 5 + i % 3, i)
    sym_kinds = ("symmetric", "domain", "nonsymmetric")
    for i in range(30):
        _symcheck_job(b, sym_kinds[i % 3], 5 + i % 5, i)
    _cross_section(b, ("geodesic", "flex_ellipse", "euler_point", "roots", "lingen", "render",
                       "symintegrate"))
    # Large inputs: 512 to 3600 points each.
    b.large_from_here()
    _fit_grid_job(b, "general", 30, 1)
    _fit_grid_job(b, "tangent", 24, 0)
    _dweb_job(b, "lines", 20, 6, 0)
    _dweb_job(b, "tangent", 20, 5, 3)
    _symcheck_job(b, "symmetric", 16, 0)
    _symcheck_job(b, "nonsymmetric", 16, 2)
    return b.finish()


# ------------------------------------------------------- paths_and_points


def _fit_point_job(b: _JobList, kind: str, variant: int):
    rng = b.rng
    g = _grid(rng, 7, 0.5, 0.5)
    web, x0 = _fit_web(rng, kind, g, variant)
    if x0 is None:
        point = (_r(rng, g[0], g[1], 4), _r(rng, g[2], g[3], 4))
        expect = {"rc": 0, "oracle": "zero" if kind == "linear" else "pi"}
    else:
        # Foliations 2 and 3 are tangent at the point: exit code 1.
        point = (x0, _r(rng, g[2], g[3], 4))
        expect = {"rc": 1}
    b.add(
        "fit_point",
        argv=["fit", f"--web={'; '.join(web)}", f"--point={num(point[0])},{num(point[1])}"],
        args={"web": web, "point": list(point)},
        points=4,
        expect=expect,
    )


def _euler_point_job(b: _JobList, kind: str):
    rng = b.rng
    point = (_r(rng, 0.0, 1.0, 4), _r(rng, 0.0, 1.0, 4))
    extra = []
    pi = None
    if kind == "solution":
        w = f"((y + {num(_r(rng, -1.0, 1.0))})/({num(_r(rng, 1.5, 3.0))} - x))"
        expect = {"verdict": "pass"}
    else:
        w = f"(sin({num(_r(rng, 0.3, 1.0))}*x) + {num(_r(rng, 0.3, 1.0))}*y^2)"
        expect = {"verdict": "fail", "oracle": "euler"}
        if kind == "connection":
            pi = [_r(rng, -1.0, 1.0) for _ in range(4)]
            extra = [f"--pi={','.join(num(v) for v in pi)}"]
            expect["oracle"] = "connection_euler"
    expect["tol"] = TOL
    b.add(
        "euler_point",
        argv=["euler", f"--w={w}", f"--point={num(point[0])},{num(point[1])}",
              f"--expect={expect['verdict']}"] + extra,
        args={"w": w, "point": list(point), "pi": pi},
        points=1,
        expect=expect,
    )


def _roots_job(b: _JobList, kind: str, variant: int):
    rng = b.rng
    if kind == "linear":
        # w0 = a y + c: one root lam = (y + c x)/(1 - a x).
        a, c = _r(rng, -0.8, 0.8), _r(rng, -1.0, 1.0)
        x, y = _r(rng, -0.5, 0.5, 4), _r(rng, -1.0, 1.0, 4)
        lam = (y + c * x) / (1.0 - a * x)
        datum = f"({num(a)}*y + {num(c)})"
        interval = [round(lam - _r(rng, 1.0, 2.0), 3), round(lam + _r(rng, 1.0, 2.0), 3)]
        roots = [lam]
    else:
        # w0 = c y^2 + e: c x lam^2 - lam + (y + e x) = 0, two roots at
        # least 1.2 apart; the interval holds both or only the smaller.
        while True:
            c, e = _r(rng, 0.2, 0.6), _r(rng, -0.3, 0.3)
            x, y = _r(rng, 0.2, 0.6, 4), _r(rng, -0.5, 0.3, 4)
            disc = 1.0 - 4.0 * c * x * (y + e * x)
            if disc > 0.2:
                break
        r = math.sqrt(disc)
        both = sorted([(1.0 - r) / (2 * c * x), (1.0 + r) / (2 * c * x)])
        lo = round(both[0] - _r(rng, 0.5, 1.0), 3)
        if variant % 4 == 1:
            hi = round(0.5 * (both[0] + both[1]), 3)
        else:
            hi = round(both[1] + _r(rng, 0.5, 1.0), 3)
        roots = [v for v in both if lo < v < hi]
        datum = f"({num(c)}*y^2 + {num(e)})"
        interval = [lo, hi]
    b.add(
        "roots",
        call="characteristic_roots",
        args={"datum": datum, "interval": interval, "point": [x, y]},
        points=1,
        expect={"roots": roots},
    )


def _solution_jet_job(b: _JobList, order: int):
    rng = b.rng
    a, c = _r(rng, -0.8, 0.8), _r(rng, -1.0, 1.0)
    x, y = _r(rng, -0.5, 0.5, 4), _r(rng, -1.0, 1.0, 4)
    lam = (y + c * x) / (1.0 - a * x)
    b.add(
        "solution_jet",
        call="solution_jet",
        args={"datum": f"({num(a)}*y + {num(c)})",
              "interval": [round(lam - 2.0, 3), round(lam + 2.0, 3)],
              "point": [x, y], "order": order},
        points=1,
        # the Euler solution of w0 = a y + c is w = (a y + c)/(1 - a x)
        expect={"w": f"(({num(a)}*y + {num(c)})/(1 - {num(a)}*x))"},
    )


def _symintegrate_job(b: _JobList, closed: bool, steps: int, variant: int):
    """Transport along a square loop (back to the initial state, since the
    structure is symmetric) or an open two-segment path.  sigma_x = tau_y
    satisfies the trace constraint, as alpha_x = beta_y for these webs."""
    rng = b.rng
    g = (1.5, 2.5, 0.0, 1.0, 2, 2)
    f3, f4, _ = _symmetric_pair(rng, g, variant)
    step = 0.004
    cx, cy = _r(rng, 1.8, 2.2), _r(rng, 0.3, 0.7)
    side = round(steps * step / 4, 3)
    if closed:
        path = [(cx, cy), (cx + side, cy), (cx + side, cy + side), (cx, cy + side), (cx, cy)]
    else:
        path = [(cx, cy), (cx + 2 * side, cy + side), (cx + side, cy + 2 * side)]
    sigma_x = _r(rng, -0.2, 0.2)
    initial = [_r(rng, -0.2, 0.2), _r(rng, -0.2, 0.2), sigma_x,
               _r(rng, -0.2, 0.2), _r(rng, -0.2, 0.2), sigma_x]
    count = sum(max(1, math.ceil(math.hypot(x1 - x0, y1 - y0) / step))
                for (x0, y0), (x1, y1) in zip(path[:-1], path[1:]))
    b.add(
        "symintegrate",
        argv=["symintegrate", f"--f3={f3}", f"--f4={f4}",
              f"--initial={','.join(num(v) for v in initial)}",
              f"--path={'; '.join(f'{num(p[0])},{num(p[1])}' for p in path)}",
              f"--step={num(step)}", "--expect=pass"],
        args={"f3": f3, "f4": f4, "path": [list(p) for p in path], "step": step},
        points=count,
        expect={"closed": closed, "initial": initial},
    )


def _leaf_steps(leaf, dom, step) -> int:
    """Tracer steps for one leaf: its length inside the domain over the
    step, from the leaf's geometry (the line through the seed with normal
    (a, c), or the circle about (a, c) through the seed)."""
    kind, a, c, sx, sy = leaf
    samples = 2000
    if kind == "line":
        ts = [-1.5 + 3.0 * k / samples for k in range(samples + 1)]
        pts = [(sx + t * c, sy - t * a) for t in ts]
        span = 3.0 * math.hypot(a, c)
    else:
        r = math.hypot(sx - a, sy - c)
        ang0 = math.atan2(sy - c, sx - a)
        pts = [(a + r * math.cos(ang0 + 2 * math.pi * k / samples),
                c + r * math.sin(ang0 + 2 * math.pi * k / samples)) for k in range(samples + 1)]
        span = 2 * math.pi * r
    inside = sum(1 for x, y in pts if dom[0] <= x <= dom[1] and dom[2] <= y <= dom[3])
    return int(span * inside / len(pts) / step)


def _render_job(b: _JobList, nfun: int, levels: int, step: float):
    """Lines and circles; render seeds one leaf per level on the diagonal."""
    rng = b.rng
    dom = (0.0, 1.0, 0.0, 1.0)
    seeds = [((k + 0.5) / levels, (k + 0.5) / levels) for k in range(levels)]
    web, leaves = [], []
    for i in range(nfun):
        if i % 2 == 0:
            # Leaf lengths depend on the direction: keep it near a fixed one.
            a, c = _direction(rng, 0.5 + 0.3 * i - 0.05, 0.5 + 0.3 * i + 0.05)
            if i % 4 == 2:
                a = -a
            web.append(lin(a, c))
            leaves += [("line", a, c, sx, sy) for sx, sy in seeds]
        else:
            cx, cy = _r(rng, 0.38, 0.42), _r(rng, 0.58, 0.62)
            web.append(f"((x - {num(cx)})^2 + (y - {num(cy)})^2)")
            leaves += [("circle", cx, cy, sx, sy) for sx, sy in seeds]
    svg = b.svg_path()
    b.add(
        "render",
        argv=["render", f"--web={'; '.join(web)}", f"--domain={':'.join(num(v) for v in dom)}",
              f"--levels={levels}", f"--step={num(step)}", f"--svg={svg}"],
        args={"web": web, "domain": list(dom), "levels": levels, "svg": svg},
        points=sum(_leaf_steps(leaf, dom, step) for leaf in leaves),
        expect={"leaves": nfun * levels},
    )


def _lingen_job(b: _JobList, ndata: int, leaves: int):
    rng = b.rng
    data = []
    for i in range(ndata):
        if i % 2 == 0:
            data.append(f"({num(_r(rng, -0.8, 0.8))}*y + {num(_r(rng, -1.0, 1.0))})")
        else:
            data.append(f"({num(_r(rng, 0.1, 0.4))}*y^2 + {num(_r(rng, -0.5, 0.5))})")
    interval = (-_r(rng, 2.0, 3.0), _r(rng, 2.0, 3.0))
    dom = (-1.0, 1.0, -2.0, 2.0)
    svg = b.svg_path()
    b.add(
        "lingen",
        argv=["lingen", f"--data={'; '.join(data)}",
              f"--lambda={num(interval[0])}:{num(interval[1])}",
              f"--domain={':'.join(num(v) for v in dom)}", f"--leaves={leaves}",
              f"--svg={svg}"],
        args={"data": data, "interval": list(interval), "domain": list(dom), "svg": svg},
        points=ndata * leaves,
        expect={"max_leaves": ndata * leaves},
    )


def paths_and_points(seed: int) -> list[Job]:
    # The counts place the latency percentiles inside clusters of jobs of
    # one kind: p50 among the single-point fits, p90 among the renders.
    b = _JobList("paths_and_points", seed)
    fit_kinds = ("linear", "general", "general", "general", "linear", "tangent")
    for i in range(40):
        _fit_point_job(b, fit_kinds[i % 6], i)
    euler_kinds = ("solution", "nonsolution", "connection")
    for i in range(15):
        _euler_point_job(b, euler_kinds[i % 3])
    for i in range(12):
        _roots_job(b, "linear" if i % 2 == 0 else "quadratic", i // 2)
    for i in range(8):
        _solution_jet_job(b, 1 + i % 4)
    for i in range(12):
        _lingen_job(b, 1 + i % 3, 5 + 2 * (i % 4))
    for i in range(10):
        _render_job(b, 2, 3, 0.004)
    _render_job(b, 3, 4, 0.002)
    for i in range(6):
        _symintegrate_job(b, i % 2 == 0, 60 + 20 * (i % 3), i)
    _cross_section(b, ("geodesic", "flex_ellipse", "flex_sqrt"))
    # Large inputs: paths of 200 integrator steps, two loops and two open.
    b.large_from_here()
    for i in range(4):
        _symintegrate_job(b, i % 2 == 0, 200, i)
    return b.finish()


def _cross_section(b: _JobList, families):
    """One tiny job of each named family, so every layer function group,
    error path and degenerate case runs in every workload and no per-layer
    metric reads a constant 0."""
    adders = {
        "geodesic": lambda: _custom_job(b, 3, 1, 0, extra=False),
        "flex_ellipse": lambda: _flex_job(b, "ellipse", 3, 0),
        "flex_sqrt": lambda: _flex_job(b, "sqrt", 4, 0),
        "fit_tangent": lambda: _fit_point_job(b, "tangent", 5),
        "euler_point": lambda: _euler_point_job(b, "solution"),
        "roots": lambda: _roots_job(b, "linear", 0),
        "lingen": lambda: _lingen_job(b, 1, 3),
        "render": lambda: _render_job(b, 1, 1, 0.02),
        "symintegrate": lambda: _symintegrate_job(b, True, 12, 0),
    }
    for family in families:
        adders[family]()


BUILDERS = {
    "grid_residuals": grid_residuals,
    "web_invariants": web_invariants,
    "paths_and_points": paths_and_points,
}


def build(workload: str, seed: int) -> list[Job]:
    """The job list of a workload for a seed; the same seed gives the same
    list."""
    return BUILDERS[workload](seed)
