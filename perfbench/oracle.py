"""Known-answer checks for benchmark jobs.

No check uses webgeo as its reference.  Verdicts, skipped-point counts and
degenerate points come from how the inputs were built (see workloads.py).
Where a number has no closed form, the reference is an exact sympy
derivative of the same formula, evaluated in float64 with numpy over the
same grid nodes, combined by the formulas of the paper:

- flex:        fy^2 fxx - 2 fx fy fxy + fx^2 fyy, normalized by |grad f|^3;
- constcurv:   flex - 2 k (x fx + y fy)(fx^2 + fy^2) / (1 + k r^2);
- 4-web fit:   P1_22 fx^3 - 3 P1_12 fx^2 fy - 3 P2_12 fx fy^2 + P2_11 fy^3
               = flex, one row per web function, solved with numpy;
- symmetry:    r1, r2 of the (alpha, beta) invariants;
- Euler:       w_x - w w_y, and w_y - w w_x - (cubic in the Thomas
               parameters) for the connection variant.

`check(job, output)` returns None when the output is right, else a
one-line reason.
"""

from __future__ import annotations

import functools
import json
import math
import re

import numpy as np
import sympy as sp

from workloads import Job, grid_nodes

X, Y = sp.symbols("x y")
_NAMES = {"x": X, "y": Y, "ln": sp.log, "sqrt": sp.sqrt, "exp": sp.exp,
          "sin": sp.sin, "cos": sp.cos, "tan": sp.tan}

#: Relative tolerance between webgeo's jets and the sympy reference.
RTOL = 1e-6


def sym(text: str):
    """sympy expression of a formula in webgeo's grammar."""
    return sp.sympify(text.replace("^", "**"), locals=_NAMES)


def _fn(exprs):
    """numpy function of (x, y) returning one array per expression."""
    f = sp.lambdify((X, Y), list(exprs), modules="numpy")

    def call(xs, ys):
        with np.errstate(all="ignore"):
            return [np.broadcast_to(np.asarray(v, dtype=float), xs.shape) for v in f(xs, ys)]

    return call


def _derivs(text: str, xs, ys):
    """f, fx, fy, fxx, fxy, fyy of a formula at the nodes."""
    f = sym(text)
    fx, fy = sp.diff(f, X), sp.diff(f, Y)
    exprs = [f, fx, fy, sp.diff(fx, X), sp.diff(fx, Y), sp.diff(fy, Y)]
    return _fn(exprs)(xs, ys)


def _flex(d):
    _, fx, fy, fxx, fxy, fyy = d
    return fy * fy * fxx - 2.0 * fx * fy * fxy + fx * fx * fyy


def _norm3(d):
    return np.hypot(d[1], d[2]) ** 3


def _pi_field(web, xs, ys):
    """Thomas parameters (N, 4) of the 4-web fit at every node."""
    rows, rhs = [], []
    for text in web[:4]:
        d = _derivs(text, xs, ys)
        fx, fy = d[1], d[2]
        rows.append(np.stack([fx ** 3, -3 * fx * fx * fy, -3 * fx * fy * fy, fy ** 3], axis=-1))
        rhs.append(_flex(d))
    matrix = np.stack(rows, axis=-2)
    return np.linalg.solve(matrix, np.stack(rhs, axis=-1)[..., None])[..., 0]


def _close(a, b, rtol=RTOL, atol=0.0) -> bool:
    return abs(a - b) <= atol + rtol * abs(b)


def _nodes(grid):
    pts = np.array(grid_nodes(tuple(grid)), dtype=float)
    return pts[:, 0], pts[:, 1]


def _report(job: Job, out: dict):
    if "error" in out:
        raise _Fail(f"raised {out['error']}")
    want_rc = job.expect.get("rc", 0)
    if out["rc"] != want_rc:
        raise _Fail(f"exit code {out['rc']}, expected {want_rc}: {out['stderr'].strip()[:200]}")
    if want_rc != 0:
        return None
    try:
        return json.loads(out["stdout"])
    except ValueError:
        raise _Fail("report is not JSON") from None


class _Fail(Exception):
    pass


def _expect(cond: bool, what: str):
    if not cond:
        raise _Fail(what)


def _stats_match(name, got_max, got_mean, values):
    _expect(values.size > 0, f"{name}: no reference samples")
    want_max, want_mean = float(np.max(values)), float(np.mean(values))
    _expect(_close(got_max, want_max), f"{name}: max {got_max!r} != reference {want_max!r}")
    _expect(_close(got_mean, want_mean), f"{name}: mean {got_mean!r} != reference {want_mean!r}")


# ------------------------------------------------------------ families


def _check_flex(job, out):
    rep = _report(job, out)
    e = job.expect
    res = rep["results"]
    _expect(res["verdict"] == e["verdict"], f"verdict {res['verdict']}")
    fol = res["per_foliation"][0]
    xs, ys = _nodes(job.args["grid"])
    _expect(len(fol["skipped_points"]) == e["skipped"],
            f"{len(fol['skipped_points'])} skipped, expected {e['skipped']}")
    _expect(fol["degenerate_points"] == e["degenerate"],
            f"degenerate points {fol['degenerate_points']}, expected {e['degenerate']}")
    n_valid = xs.size - e["skipped"] - len(e["degenerate"])
    _expect(fol["samples"] == n_valid, f"{fol['samples']} samples, expected {n_valid}")
    if e.get("oracle") == "flex":
        d = _derivs(job.args["f"], xs, ys)
        mask = np.ones(xs.shape, bool)
        for px, py in e["degenerate"]:
            mask &= ~((xs == px) & (ys == py))
        with np.errstate(all="ignore"):
            values = np.abs(_flex(d) / _norm3(d))[mask]
        _stats_match("flex", fol["max_normalized"], fol["mean_normalized"], values)
    else:
        _expect(fol["max_normalized"] <= e["tol"], f"max_normalized {fol['max_normalized']}")


def _check_geodesic(job, out):
    rep = _report(job, out)
    e = job.expect
    res = rep["results"]
    _expect(res["verdict"] == e["verdict"], f"verdict {res['verdict']}")
    xs, ys = _nodes(job.args["grid"])
    mask = np.ones(xs.shape, bool)
    kappa = job.args.get("kappa")
    if job.args["structure"] == "constcurv":
        mask = 1.0 + kappa * (xs * xs + ys * ys) > 0.0
    _expect(len(res["per_foliation"]) == len(job.args["web"]), "foliation count")
    for text, fol, want in zip(job.args["web"], res["per_foliation"], e["foliations"]):
        _expect(len(fol["skipped_points"]) == e["skipped"],
                f"{len(fol['skipped_points'])} skipped, expected {e['skipped']}")
        _expect(fol["degenerate_points"] == [], "unexpected degenerate points")
        _expect(fol["samples"] == xs.size - e["skipped"], f"{fol['samples']} samples")
        if want["geodesic"]:
            _expect(fol["max_normalized"] <= e["tol"], f"{text}: max_normalized {fol['max_normalized']}")
            continue
        d = _derivs(text, xs, ys)
        raw = _flex(d)
        if kappa is not None:
            _, fx, fy = d[0], d[1], d[2]
            raw = raw - 2.0 * kappa * (xs * fx + ys * fy) * (fx * fx + fy * fy) / (
                1.0 + kappa * (xs * xs + ys * ys))
        values = np.abs(raw / _norm3(d))[mask]
        _stats_match(text, fol["max_normalized"], fol["mean_normalized"], values)


def _check_euler_grid(job, out):
    rep = _report(job, out)
    e = job.expect
    res = rep["results"]
    _expect(res["verdict"] == e["verdict"], f"verdict {res['verdict']}")
    xs, ys = _nodes(job.args["grid"])
    _expect(res["samples"] == xs.size and res["skipped_points"] == [], "samples/skipped")
    if e.get("oracle") == "euler":
        w = sym(job.args["w"])
        wv, wx, wy = _fn([w, sp.diff(w, X), sp.diff(w, Y)])(xs, ys)
        values = np.abs(wx - wv * wy)
        _stats_match("euler", res["max_residual"], res["mean_residual"], values)
    else:
        _expect(res["max_residual"] <= e["tol"], f"max_residual {res['max_residual']}")


def _check_fit_grid(job, out):
    rep = _report(job, out)
    e = job.expect
    res = rep["results"]
    xs, ys = _nodes(job.args["grid"])
    _expect(len(res["skipped_points"]) == e["skipped"],
            f"{len(res['skipped_points'])} skipped, expected {e['skipped']}")
    _expect(res["points_used"] == xs.size - e["skipped"], f"{res['points_used']} points used")
    got = [res["pi"][k] for k in ("p1_22", "p1_12", "p2_12", "p2_11")]
    if e["oracle"] == "zero":
        _expect(max(abs(v) for v in got) <= 1e-9 and res["max_spread"] <= 1e-9,
                f"linear web: pi {got}, spread {res['max_spread']}")
        return
    if "tangent_x" in e:
        keep = xs != e["tangent_x"]
        xs, ys = xs[keep], ys[keep]
    pi = _pi_field(job.args["web"], xs, ys)
    for k, name in enumerate(("p1_22", "p1_12", "p2_12", "p2_11")):
        want = float(np.mean(pi[:, k]))
        _expect(_close(got[k], want, atol=1e-10), f"{name}: {got[k]!r} != reference {want!r}")
    spread = float(np.max(pi.max(axis=0) - pi.min(axis=0)))
    _expect(_close(res["max_spread"], spread, atol=1e-10),
            f"max_spread {res['max_spread']!r} != reference {spread!r}")


def _check_dweb(job, out):
    rep = _report(job, out)
    e = job.expect
    res = rep["results"]
    _expect(res["verdict"] == e["verdict"], f"verdict {res['verdict']}")
    _expect(len(res["skipped_points"]) == e["skipped"],
            f"{len(res['skipped_points'])} skipped, expected {e['skipped']}")
    web = job.args["web"]
    if e.get("oracle") != "pi":
        _expect(res["max_normalized"] <= e["tol"], f"max_normalized {res['max_normalized']}")
        return
    xs, ys = _nodes(job.args["grid"])
    if "tangent_x" in e:
        keep = xs != e["tangent_x"]
        xs, ys = xs[keep], ys[keep]
    pi = _pi_field(web, xs, ys)
    for text, entry in zip(web[4:], res["per_function"]):
        d = _derivs(text, xs, ys)
        fx, fy = d[1], d[2]
        cubic = (pi[:, 0] * fx ** 3 - 3 * pi[:, 1] * fx * fx * fy
                 - 3 * pi[:, 2] * fx * fy * fy + pi[:, 3] * fy ** 3)
        values = np.abs((cubic - _flex(d)) / _norm3(d))
        want = float(values.max())
        _expect(entry["samples"] == xs.size, f"{text}: {entry['samples']} samples")
        if want <= e["tol"]:
            _expect(entry["max_normalized"] <= e["tol"], f"{text}: {entry['max_normalized']}")
        else:
            _expect(_close(entry["max_normalized"], want),
                    f"{text}: max {entry['max_normalized']!r} != reference {want!r}")


def _alpha_beta_sym(f3, f4):
    d3 = [sp.diff(f3, X), sp.diff(f3, Y)]
    d4 = [sp.diff(f4, X), sp.diff(f4, Y)]

    def flex(f, d):
        return (d[1] ** 2 * sp.diff(f, X, 2) - 2 * d[0] * d[1] * sp.diff(f, X, Y)
                + d[0] ** 2 * sp.diff(f, Y, 2))

    delta = d3[0] * d4[1] - d3[1] * d4[0]
    t3 = flex(f3, d3) / (d3[0] * d3[1] * delta)
    t4 = flex(f4, d4) / (d4[0] * d4[1] * delta)
    return d4[1] * t3 - d3[1] * t4, -d4[0] * t3 + d3[0] * t4


def _generic(build):
    """numpy function of the partial derivatives (orders 1-4) of f3, f4
    returning the expressions `build(f3, f4)` derives for generic f3, f4."""
    f3, f4 = sp.Function("F3")(X, Y), sp.Function("F4")(X, Y)
    exprs = build(f3, f4)
    names = {}
    for f in (f3, f4):
        for i, j in _ORDERS_1_TO_4:
            names[_partial(f, i, j)] = sp.Symbol(f"{f.func}_{i}{j}")
    args = list(names.values())
    return sp.lambdify(args, [e.xreplace(names) for e in exprs], modules="numpy", cse=True)


def _partials_1_to_4(texts, xs, ys):
    """The arguments of a `_generic` function for concrete f3, f4."""
    partials = []
    for text in texts:
        f = sym(text)
        partials += _fn([_partial(f, i, j) for i, j in _ORDERS_1_TO_4])(xs, ys)
    return partials


@functools.lru_cache(maxsize=None)
def _symmetry_residuals():
    """r1, r2 of the symmetry conditions, derived once with sympy."""

    def build(f3, f4):
        a, b = _alpha_beta_sym(f3, f4)
        ax = sp.diff(a, X)
        by = sp.diff(b, Y)
        r1 = sp.diff(ax, X) + 2 * sp.diff(b, X, Y) - b * ax - 2 * b * by
        r2 = 2 * sp.diff(ax, Y) + sp.diff(by, Y) - 2 * a * ax - a * by
        return [r1, r2]

    return _generic(build)


@functools.lru_cache(maxsize=None)
def _alpha_beta_field():
    """alpha, beta, alpha_x, alpha_y, beta_x, beta_y, alpha_xy, beta_xy,
    derived once with sympy."""

    def build(f3, f4):
        a, b = _alpha_beta_sym(f3, f4)
        ax, ay, bx, by = sp.diff(a, X), sp.diff(a, Y), sp.diff(b, X), sp.diff(b, Y)
        return [a, b, ax, ay, bx, by, sp.diff(ax, Y), sp.diff(bx, Y)]

    return _generic(build)


_ORDERS_1_TO_4 = [(i, d - i) for d in range(1, 5) for i in range(d + 1)]


def _partial(f, i, j):
    for _ in range(i):
        f = sp.diff(f, X)
    for _ in range(j):
        f = sp.diff(f, Y)
    return f


def _check_symcheck(job, out):
    rep = _report(job, out)
    e = job.expect
    res = rep["results"]
    _expect(res["verdict"] == e["verdict"], f"verdict {res['verdict']}")
    _expect(len(res["skipped_points"]) == e["skipped"],
            f"{len(res['skipped_points'])} skipped, expected {e['skipped']}")
    xs, ys = _nodes(job.args["grid"])
    _expect(res["samples"] == xs.size - e["skipped"], f"{res['samples']} samples")
    if e.get("oracle") != "sym":
        worst = max(res["r1"]["max"], res["r2"]["max"])
        _expect(worst <= e["tol"], f"symmetric web: residual {worst}")
        return
    partials = _partials_1_to_4((job.args["f3"], job.args["f4"]), xs, ys)
    v1, v2 = _symmetry_residuals()(*partials)
    _stats_match("r1", res["r1"]["max"], res["r1"]["mean"], np.abs(v1))
    _stats_match("r2", res["r2"]["max"], res["r2"]["mean"], np.abs(v2))


def _check_graph_report(job, out):
    _expect("error" not in out, f"raised {out.get('error')}")
    res = out["value"]
    _expect(res["verdict"] == job.expect["verdict"], f"verdict {res['verdict']}")
    for fol in res["per_foliation"]:
        _expect(fol["skipped_points"] == [] and fol["degenerate_points"] == [], "skips")


def _check_fit_point(job, out):
    rep = _report(job, out)
    if rep is None:
        return
    got = [rep["results"]["pi"][k] for k in ("p1_22", "p1_12", "p2_12", "p2_11")]
    if job.expect["oracle"] == "zero":
        _expect(max(abs(v) for v in got) <= 1e-10, f"linear web: pi {got}")
        return
    px, py = job.args["point"]
    want = _pi_field(job.args["web"], np.array([px]), np.array([py]))[0]
    for k in range(4):
        _expect(_close(got[k], float(want[k]), atol=1e-12), f"pi[{k}] {got[k]!r} != {want[k]!r}")


def _check_euler_point(job, out):
    rep = _report(job, out)
    e = job.expect
    res = rep["results"]
    _expect(res["verdict"] == e["verdict"], f"verdict {res['verdict']}")
    if "oracle" not in e:
        _expect(abs(res["residual"]) <= e["tol"], f"residual {res['residual']}")
        return
    w = sym(job.args["w"])
    px, py = job.args["point"]
    wv, wx, wy = (float(v[0]) for v in _fn([w, sp.diff(w, X), sp.diff(w, Y)])(
        np.array([px]), np.array([py])))
    if e["oracle"] == "euler":
        want = wx - wv * wy
    else:
        p1_22, p1_12, p2_12, p2_11 = job.args["pi"]
        want = wy - wv * wx - (p2_11 * wv ** 3 - 3 * p2_12 * wv * wv - 3 * p1_12 * wv + p1_22)
    _expect(_close(res["residual"], want, rtol=1e-9, atol=1e-13),
            f"residual {res['residual']!r} != reference {want!r}")


def _check_roots(job, out):
    _expect("error" not in out, f"raised {out.get('error')}")
    got = out["value"]["roots"]
    want = job.expect["roots"]
    _expect(len(got) == len(want), f"{len(got)} roots, expected {len(want)}")
    for (lam, w), ref in zip(got, want):
        _expect(_close(lam, ref, rtol=1e-10, atol=1e-12), f"root {lam!r} != {ref!r}")
        wref = float(sym(job.args["datum"]).subs(Y, lam))
        _expect(_close(w, wref, rtol=1e-10, atol=1e-12), f"slope {w!r} != {wref!r}")


def _check_solution_jet(job, out):
    _expect("error" not in out, f"raised {out.get('error')}")
    coeffs = out["value"]["coeffs"]
    order = job.args["order"]
    w = sym(job.expect["w"])
    px, py = job.args["point"]
    for i in range(order + 1):
        for j in range(order + 1 - i):
            want = float(_partial(w, i, j).subs({X: px, Y: py}))
            want /= math.factorial(i) * math.factorial(j)
            _expect(_close(coeffs[i][j], want, rtol=1e-8, atol=1e-12),
                    f"c[{i}][{j}] {coeffs[i][j]!r} != {want!r}")


def _finite_type_field(state, ab, u):
    """Derivative of the state (sigma, tau, sigma_x, sigma_y, tau_x, tau_y)
    along the unit direction u: the finite-type system of a symmetric
    projective structure, with second derivatives of sigma and tau given by
    the state and (alpha, beta, alpha_x, alpha_y, beta_x, beta_y, alpha_xy,
    beta_xy)."""
    s, t, sx, sy, tx, ty = state
    a, b, ax, ay, bx, by, axy, bxy = ab
    sxx = 2 * s * tx + (4 * t + b) * sx + (t - b) * by + 2 * t * ax + bxy - 2 * s * t * (2 * t + b)
    sxy = (3 * s + a) * sx + 2 * s * ax + s * ty + 2 * t * sy + s * by - 2 * s * t * (2 * s + a)
    syy = 3 * (2 * s + a) * sy + s * ay - 2 * s * (a * a + 2 * s * s + 3 * s * a)
    txx = 3 * (2 * t + b) * tx + t * bx - 2 * t * (b * b + 2 * t * t + 3 * t * b)
    txy = t * sx + t * ax + (3 * t + b) * ty + 2 * (t * by + s * tx) - 2 * s * t * (2 * t + b)
    tyy = (s - a) * ax + (4 * s + a) * ty + 2 * (t * sy + s * by) + axy - 2 * s * t * (2 * s + a)
    return (u[0] * np.array([sx, tx, sxx, sxy, txx, txy])
            + u[1] * np.array([sy, ty, sxy, syy, txy, tyy]))


def _reference_transport(job):
    """End state of the transport by classical RK4 along each segment, in as
    many equal steps as --step asks for, with (alpha, beta) and their
    derivatives from sympy at every step's start, midpoint and end."""
    path = job.args["path"]
    steps = []  # (h, unit direction), one per step
    xs, ys = [], []
    for (x0, y0), (x1, y1) in zip(path[:-1], path[1:]):
        length = math.hypot(x1 - x0, y1 - y0)
        n = max(1, math.ceil(length / job.args["step"]))
        h = length / n
        u = ((x1 - x0) / length, (y1 - y0) / length)
        for k in range(n):
            for frac in (k, k + 0.5, k + 1):
                xs.append(x0 + u[0] * frac * h)
                ys.append(y0 + u[1] * frac * h)
            steps.append((h, u))
    partials = _partials_1_to_4((job.args["f3"], job.args["f4"]), np.array(xs), np.array(ys))
    ab = np.array(_alpha_beta_field()(*partials)).T
    state = np.array(job.expect["initial"], dtype=float)
    for k, (h, u) in enumerate(steps):
        start, mid, end = ab[3 * k], ab[3 * k + 1], ab[3 * k + 2]
        k1 = _finite_type_field(state, start, u)
        k2 = _finite_type_field(state + 0.5 * h * k1, mid, u)
        k3 = _finite_type_field(state + 0.5 * h * k2, mid, u)
        k4 = _finite_type_field(state + h * k3, end, u)
        state = state + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return state


#: Tolerance between the transported state and the reference transport.
#: The two agree to about 1e-16 on the benchmark's paths; doubling the step
#: moves an open path's end state by 1e-12 or more.
TRANSPORT_TOL = 1e-13


def _check_symintegrate(job, out):
    rep = _report(job, out)
    res = rep["results"]
    # The trace constraint is preserved along the path.
    _expect(res["verdict"] == "pass", f"verdict {res['verdict']}")
    _expect(rep["warnings"] == [], f"warnings {rep['warnings']}")
    _expect(res["endpoint"] == job.args["path"][-1], f"endpoint {res['endpoint']}")
    state = [res["state"][k] for k in ("sigma", "tau", "sigma_x", "sigma_y", "tau_x", "tau_y")]
    if job.expect["closed"]:
        # The structure is symmetric, so transport is path independent and a
        # loop brings the state back to where it started.
        for got, want in zip(state, job.expect["initial"]):
            _expect(abs(got - want) <= 1e-6, f"loop closure: {got!r} vs {want!r}")
    for k, (got, want) in enumerate(zip(state, _reference_transport(job))):
        _expect(abs(got - want) <= TRANSPORT_TOL,
                f"state[{k}] {got!r} != reference transport {want!r}")


_PATH_RE = re.compile(r'<path d="([^"]*)"')


def _svg_polylines(svg: str, dom, width=640.0, height=480.0, margin=16.0):
    """Leaf polylines of an SVG in domain coordinates."""
    sx = (width - 2 * margin) / (dom[1] - dom[0])
    sy = (height - 2 * margin) / (dom[3] - dom[2])
    leaves = []
    for data in _PATH_RE.findall(svg):
        nums = [float(v) for v in re.findall(r"-?\d+\.\d+", data)]
        pts = [(dom[0] + (nums[k] - margin) / sx, dom[2] + (height - margin - nums[k + 1]) / sy)
               for k in range(0, len(nums), 2)]
        leaves.append(pts)
    return leaves, 1.0 / min(sx, sy)


def _check_render(job, out):
    rep = _report(job, out)
    want = job.expect["leaves"]
    _expect(rep["results"]["leaves"] == want, f"{rep['results']['leaves']} leaves, expected {want}")
    dom = job.args["domain"]
    leaves, unit = _svg_polylines(out.get("svg") or "", dom)
    _expect(len(leaves) == want, f"SVG holds {len(leaves)} paths, expected {want}")
    levels = job.args["levels"]
    index = 0
    for text in job.args["web"]:
        fn = sp.lambdify((X, Y), sym(text), modules="math")
        for k in range(levels):
            frac = (k + 0.5) / levels
            seed = (dom[0] + frac * (dom[1] - dom[0]), dom[2] + frac * (dom[3] - dom[2]))
            level = fn(*seed)
            pts = leaves[index]
            index += 1
            drift = max(abs(fn(px, py) - level) for px, py in pts)
            # SVG coordinates carry 4 decimals of a pixel; |grad f| <= 2 here.
            _expect(drift <= 4.0 * unit * 1e-4 + 1e-6, f"{text}: leaf drifts {drift:.3e} off its level")
            _expect(len(pts) >= 2, "leaf with fewer than two points")


def _check_lingen(job, out):
    rep = _report(job, out)
    count = rep["results"]["leaves"]
    _expect(0 < count <= job.expect["max_leaves"], f"{count} leaves")
    dom = job.args["domain"]
    leaves, unit = _svg_polylines(out.get("svg") or "", dom)
    _expect(len(leaves) == count, f"SVG holds {len(leaves)} paths, report says {count}")
    data = [sp.lambdify(Y, sym(t), modules="math") for t in job.args["data"]]
    lo, hi = job.args["interval"]
    for pts in leaves:
        _expect(len(pts) == 2, "generated leaf is not a segment")
        (x1, y1), (x2, y2) = pts
        for x, y in pts:
            _expect(dom[0] - unit <= x <= dom[1] + unit and dom[2] - unit <= y <= dom[3] + unit,
                    f"leaf end ({x}, {y}) outside the domain")
        if math.hypot(x2 - x1, y2 - y1) < 1e-3:
            # A line through a corner of the domain: the 4-decimal pixel
            # coordinates of so short a segment do not fix its slope.
            continue
        slope = (y2 - y1) / (x2 - x1)
        lam = y1 - slope * x1
        # A leaf is the characteristic y = lam - w0(lam) x of one datum.
        err = min(abs(slope + w0(lam)) for w0 in data)
        _expect(lo - 1e-3 <= lam <= hi + 1e-3 and err <= 1e-3,
                f"segment slope {slope:.6f} at lam {lam:.6f} matches no datum ({err:.2e})")


CHECKS = {
    "flex": _check_flex,
    "geodesic": _check_geodesic,
    "euler_grid": _check_euler_grid,
    "lib_graph_report": _check_graph_report,
    "fit_grid": _check_fit_grid,
    "dweb": _check_dweb,
    "symcheck": _check_symcheck,
    "fit_point": _check_fit_point,
    "euler_point": _check_euler_point,
    "roots": _check_roots,
    "solution_jet": _check_solution_jet,
    "symintegrate": _check_symintegrate,
    "render": _check_render,
    "lingen": _check_lingen,
}


def check(job: Job, out: dict) -> str | None:
    """None when the job's output matches its known answer, else why not."""
    try:
        CHECKS[job.family](job, out)
    except _Fail as exc:
        return str(exc)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
    return None
