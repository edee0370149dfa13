"""Command line interface: `webgeo <subcommand> ...`.

Exit codes: 0 for a completed analysis (and, with --expect, a matching
verdict), 1 when the analysis verdict misses an --expect value or a web is
degenerate at the request point, 2 for usage errors and formula syntax
errors.  Diagnostics go to standard error; reports go to --out or standard
output and are byte-identical across repeated identical invocations.

Each subcommand declares only the options its handler reads, so argparse
rejects any other before anything runs: --format on `flex` and `euler`,
--tol and --expect (one of two verdicts) on the six that give a verdict.
The word after an option that takes a value is that value, even when it
starts with "-", unless it names one of the subcommand's options.

Every handler parses its input, runs one library sweep or call, and
passes its results to one tail (`_finish`) that composes, writes and
judges the report.  A grid command reads each column it reports from
:meth:`webgeo.geodesy.GridResiduals.summary`, the one place a grid column
is reduced, and every verdict comes from :func:`~webgeo.geodesy.judge`.

The parser and :func:`run` import only argparse, math and sys, and the
constants they read from the package itself.  Handlers and their helpers
reach the library as attributes of the package, ``webgeo.<module>.<name>``:
the package imports a module when it is first read (PEP 562), and from
then on the module is a plain attribute, a dict lookup where an import
statement would cost a microsecond on every call.  Each handler parses
all its option text before it reads the modules that compute.  So
`--help` and usage errors load no other module of webgeo, a formula syntax
error loads only the formula language, and each subcommand loads only the
modules it runs (see the README).  Every error the library raises for a
value is a ValueError; a formula syntax error is turned into a usage error
where the formula is parsed.

:func:`run` hands a subcommand's arguments straight to that subcommand's
parser, as argparse's top-level pass would after reading the subcommand
name, and only other argument lists (help, `--`, no subcommand) to the
top-level parser.
"""

from __future__ import annotations

import argparse
import math
import sys

import webgeo

from . import (
    DEFAULT_TOLERANCE,
    GEODESIC_VERDICTS,
    MAX_LEAVES,
    PASS_FAIL_VERDICTS,
    SYMMETRIC_VERDICTS,
)


class _UsageError(Exception):
    pass


def _parse_expr(text: str, what: str):
    exprlang = webgeo.exprlang
    try:
        return exprlang.parse(text)
    except exprlang.ParseError as exc:
        raise _UsageError(f"{what}: {exc}") from None


def _parse_web(text: str, what: str = "--web"):
    parts = [p.strip() for p in text.split(";")]
    if any(not p for p in parts):
        raise _UsageError(f"{what}: empty entry in web list")
    return [_parse_expr(p, what) for p in parts]


def _parse_grid(text: str) -> GridSpec:
    pieces = text.split(":")
    if len(pieces) != 6:
        raise _UsageError(f"--grid: expected xmin:xmax:ymin:ymax:nx:ny, got {text!r}")
    try:
        xmin, xmax, ymin, ymax = (float(p) for p in pieces[:4])
        nx, ny = int(pieces[4]), int(pieces[5])
    except ValueError as exc:
        raise _UsageError(f"--grid: {exc}") from None
    try:
        return webgeo.geodesy.GridSpec(xmin, xmax, ymin, ymax, nx, ny)
    except ValueError as exc:
        raise _UsageError(f"--grid: {exc}") from None


def _finite(text: str, what: str) -> float:
    """The finite number `text` spells; a usage error otherwise."""
    try:
        value = float(text)
    except ValueError as exc:
        raise _UsageError(f"{what}: {exc}") from None
    if not math.isfinite(value):
        raise _UsageError(f"{what}: {text.strip()!r} is not finite")
    return value


def _parse_point(text: str, what: str = "--point"):
    pieces = text.split(",")
    if len(pieces) != 2:
        raise _UsageError(f"{what}: expected x,y, got {text!r}")
    return (_finite(pieces[0], what), _finite(pieces[1], what))


def _parse_path(text: str):
    points = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            raise _UsageError("--path: empty point entry")
        points.append(_parse_point(chunk, "--path"))
    if len(points) < 2:
        raise _UsageError("--path: need at least two points")
    return points


def _parse_rect(text: str) -> Rect:
    pieces = text.split(":")
    if len(pieces) != 4:
        raise _UsageError(f"--domain: expected xmin:xmax:ymin:ymax, got {text!r}")
    try:
        return webgeo.render.Rect(*(_finite(p, "--domain") for p in pieces))
    except ValueError as exc:
        raise _UsageError(f"--domain: {exc}") from None


def _float(text: str, valid, requirement: str) -> float:
    """The finite float `text` spells that passes `valid`; an argparse
    type error naming `requirement` otherwise."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not (math.isfinite(value) and valid(value)):
        raise argparse.ArgumentTypeError(f"{requirement}, got {text!r}")
    return value


def _tolerance(text: str) -> float:
    return _float(text, lambda v: v >= 0.0, "tolerance must be a finite non-negative number")


def _step(text: str) -> float:
    return _float(text, lambda v: v > 0.0, "step must be a finite positive number")


def _count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if not 1 <= value <= MAX_LEAVES:
        raise argparse.ArgumentTypeError(f"must be between 1 and {MAX_LEAVES}, got {text!r}")
    return value


def _parse_floats(text: str, count: int, what: str):
    pieces = text.split(",")
    if len(pieces) != count:
        raise _UsageError(f"{what}: expected {count} comma-separated numbers")
    return [_finite(p, what) for p in pieces]


def _finish(args, command, inputs, grid, results, *, csv=None, **extra) -> int:
    """Write the report (with --format csv, the rows of the grid residuals
    `csv` when there are any) to --out or, without it or with ``--out -``,
    standard output, and return the exit code: 1 when the results' verdict
    misses --expect, else 0."""
    render = webgeo.render
    if csv is not None and args.format == "csv":
        text = render.write_csv_grid(csv.samples())
    else:
        text = render.write_report(render.compose_report(command, inputs, grid, results, **extra))
    if args.out and args.out != "-":
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    verdict = results.get("verdict")
    if verdict is None or args.expect in (None, verdict):
        return 0
    print(
        f"webgeo: verdict {verdict!r} does not match expected {args.expect!r}",
        file=sys.stderr,
    )
    return 1


def _cmd_flex(args) -> int:
    f = _parse_expr(args.f, "--f")
    grid = _parse_grid(args.grid)

    series = webgeo.geodesy.flex_sweep(f, grid)
    summary = series.summary(1)
    if not summary.samples:
        raise webgeo.exprlang.EvaluationError("no valid samples on the requested grid")
    worst, verdict = webgeo.geodesy.judge([summary.largest], args.tol)
    results = {
        "per_foliation": [summary.foliation_fields()],
        "verdict": verdict,
        "max_normalized": worst,
        "tolerance": args.tol,
    }
    inputs = {"f": webgeo.exprlang.to_source(f), "tolerance": args.tol}
    return _finish(args, "flex", inputs, grid.as_dict(), results, csv=series)


def _parse_structure(text: str):
    if text.startswith("constcurv:"):
        return {"curvature": _finite(text.split(":", 1)[1], "--christoffel constcurv")}
    if text.startswith("graph:"):
        return {"surface": _parse_expr(text.split(":", 1)[1], "--christoffel graph")}
    if text.startswith("custom:"):
        names = text.split(":", 1)[1]
        comps = _parse_web(names, "--christoffel custom")
        if len(comps) != 6:
            raise _UsageError(
                "--christoffel custom: expected six semicolon-separated "
                "components g1_11; g1_12; g1_22; g2_11; g2_12; g2_22"
            )
        return {"christoffels": webgeo.geometry.ChristoffelField(*comps)}
    raise _UsageError(
        f"--christoffel: expected constcurv:<kappa>, graph:<expr>, or "
        f"custom:<six exprs>, got {text!r}"
    )


def _cmd_geodesic(args) -> int:
    web = _parse_web(args.web)
    structure = _parse_structure(args.christoffel)
    grid = _parse_grid(args.grid)

    to_source = webgeo.exprlang.to_source
    results = webgeo.geodesy.geodesic_web_report(web, grid, tolerance=args.tol, **structure)
    notes = results.pop("notes", [])
    inputs = {
        "web": [to_source(f) for f in web],
        "christoffel": args.christoffel,
        "tolerance": args.tol,
    }
    return _finish(args, "geodesic", inputs, grid.as_dict(), results, notes=notes)


def _cmd_fit(args) -> int:
    web = _parse_web(args.web)
    if len(web) != 4:
        raise _UsageError(f"--web: fit needs exactly 4 functions, got {len(web)}")
    point = None if args.point is None else _parse_point(args.point)
    grid = None if point is not None else _parse_grid(args.grid)

    from dataclasses import asdict

    exprlang, projective = webgeo.exprlang, webgeo.projective
    inputs = {"web": [exprlang.to_source(f) for f in web]}
    if point is not None:
        pi = projective.fit_projective_structure(web, point)
        inputs["point"] = list(point)
        results = {"pi": asdict(pi)}
        grid_dict = None
    else:
        grid_dict = grid.as_dict()
        series = projective.fit_sweep(web, grid)
        summary = series.summary(0)
        count = summary.samples
        if count == 0:
            raise exprlang.EvaluationError("web is degenerate on the whole grid")
        # A summary reduces magnitudes; pi keeps signed means and a spread.
        columns, names = series.vectors, ("p1_22", "p1_12", "p2_12", "p2_11")
        sequential_sum = webgeo.geodesy.sequential_sum
        results = {
            "pi": {n: sequential_sum(c) / count for n, c in zip(names, columns)},
            # The values are finite.  Where they are all equal, Python's max
            # and min pick the same one and the spread is +0.0, while
            # np.max and np.min may pick zeros of opposite signs: 0.0 +
            # turns their -0.0 into +0.0 and leaves every other spread.
            "max_spread": max(0.0 + float(c.max() - c.min()) for c in columns),
            "points_used": count,
            "skipped_points": summary.skipped_points,
        }
    return _finish(args, "fit", inputs, grid_dict, results)


def _cmd_dweb(args) -> int:
    web = _parse_web(args.web)
    if len(web) < 5:
        raise _UsageError(f"--web: dweb needs at least 5 functions, got {len(web)}")
    grid = _parse_grid(args.grid)

    to_source = webgeo.exprlang.to_source
    summaries = [s.summary(1) for s in webgeo.projective.dweb_sweep(web, grid)]
    if not any(s.samples for s in summaries):
        raise webgeo.exprlang.EvaluationError("no valid samples on the requested grid")
    worst, verdict = webgeo.geodesy.judge([s.largest for s in summaries], args.tol)
    results = {
        "per_function": [
            {"index": idx + 5, "function": to_source(f), "max_normalized": s.largest,
             "samples": s.samples}
            for idx, (f, s) in enumerate(zip(web[4:], summaries))
        ],
        "skipped_points": summaries[0].skipped_points,
        "max_normalized": worst,
        "verdict": verdict,
        "tolerance": args.tol,
    }
    inputs = {"web": [to_source(f) for f in web], "tolerance": args.tol}
    return _finish(args, "dweb", inputs, grid.as_dict(), results)


def _cmd_symcheck(args) -> int:
    f3 = _parse_expr(args.f3, "--f3")
    f4 = _parse_expr(args.f4, "--f4")
    grid = _parse_grid(args.grid)

    exprlang, geodesy = webgeo.exprlang, webgeo.geodesy
    r1, r2 = map(webgeo.projective.symmetry_sweep(f3, f4, grid).summary, (0, 1))
    if not r1.samples:
        raise exprlang.EvaluationError("no valid samples on the requested grid")
    _, verdict = geodesy.judge([r1.largest, r2.largest], args.tol, SYMMETRIC_VERDICTS)
    results = {
        "r1": {"max": r1.largest, "mean": r1.mean},
        "r2": {"max": r2.largest, "mean": r2.mean},
        "samples": r1.samples,
        "skipped_points": r1.skipped_points,
        "verdict": verdict,
        "tolerance": args.tol,
    }
    inputs = {"f3": exprlang.to_source(f3), "f4": exprlang.to_source(f4), "tolerance": args.tol}
    return _finish(args, "symcheck", inputs, grid.as_dict(), results)


def _cmd_symintegrate(args) -> int:
    f3 = _parse_expr(args.f3, "--f3")
    f4 = _parse_expr(args.f4, "--f4")
    path = _parse_path(args.path)
    initial_values = _parse_floats(args.initial, 6, "--initial")

    from dataclasses import asdict

    projective = webgeo.projective
    initial = projective.FiniteTypeState(*initial_values)
    try:
        projective.path_step_count(path, args.step)
    except ValueError as exc:
        raise _UsageError(f"--path: {exc}") from None
    result = projective.integrate_symmetric_connection(f3, f4, initial, path, step=args.step)
    curvature = projective.curvature_along(result.state, result.endpoint_alpha_beta)
    _, verdict = webgeo.geodesy.judge([result.constraint_residual], args.tol, PASS_FAIL_VERDICTS)
    results = {
        "state": asdict(result.state),
        "endpoint": list(result.endpoint),
        "constraint_residual": result.constraint_residual,
        "max_symmetry_residual": result.max_symmetry_residual,
        "curvature": {**asdict(curvature), "trace": curvature.trace},
        "verdict": verdict,
    }
    to_source = webgeo.exprlang.to_source
    inputs = {
        "f3": to_source(f3),
        "f4": to_source(f4),
        "initial": initial_values,
        "path": [list(p) for p in path],
        "step": args.step,
    }
    return _finish(args, "symintegrate", inputs, None, results, warnings=result.warnings)


def _cmd_euler(args) -> int:
    w = _parse_expr(args.w, "--w")
    values = _parse_floats(args.pi, 4, "--pi") if args.pi else None
    if args.point is not None:
        point = _parse_point(args.point)
        if args.format == "csv":
            raise _UsageError("--format csv needs --grid")
    else:
        grid = _parse_grid(args.grid)

    eulerweb = webgeo.eulerweb
    pi = None if values is None else webgeo.geometry.ThomasParameters(*values)
    inputs = {"w": webgeo.exprlang.to_source(w), "tolerance": args.tol}
    if pi is not None:
        inputs["pi"] = [pi.p1_22, pi.p1_12, pi.p2_12, pi.p2_11]
    if args.point is not None:
        if pi is None:
            value = eulerweb.euler_residual(w, point)
        else:
            value = eulerweb.connection_euler_residual(w, pi, point)
        inputs["point"] = list(point)
        _, verdict = webgeo.geodesy.judge([value], args.tol, PASS_FAIL_VERDICTS)
        results = {"residual": value, "verdict": verdict}
        return _finish(args, "euler", inputs, None, results)

    series = eulerweb.euler_sweep(w, grid, pi)
    summary = series.summary(1)
    if not summary.samples:
        raise webgeo.exprlang.EvaluationError("no valid samples on the requested grid")
    worst, verdict = webgeo.geodesy.judge([summary.largest], args.tol, PASS_FAIL_VERDICTS)
    results = {
        "max_residual": worst,
        "mean_residual": summary.mean,
        "samples": summary.samples,
        "skipped_points": summary.skipped_points,
        "verdict": verdict,
    }
    return _finish(args, "euler", inputs, grid.as_dict(), results, csv=series)


def _cmd_lingen(args) -> int:
    sources = [p.strip() for p in args.data.split(";")]
    if any(not s for s in sources):
        raise _UsageError("--data: empty datum entry")
    interval_pieces = args.lam.split(":")
    if len(interval_pieces) != 2:
        raise _UsageError(f"--lambda: expected lo:hi, got {args.lam!r}")
    interval = tuple(_finite(p, "--lambda") for p in interval_pieces)
    exprs = [_parse_expr(source, "--data") for source in sources]
    domain = _parse_rect(args.domain)

    eulerweb = webgeo.eulerweb
    data = []
    for expr in exprs:
        try:
            data.append(eulerweb.CauchyDatum(expr, interval))
        except ValueError as exc:
            raise _UsageError(f"--data: {exc}") from None
    try:
        sample = eulerweb.generate_linear_web(data, domain, args.leaves)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    leaves = sample.all_leaves()
    warnings = [w for f in sample.foliations for w in f.warnings]
    svg_path = args.svg
    if svg_path:
        if not leaves:
            print("webgeo: no leaves meet the domain; SVG not written", file=sys.stderr)
            return 1
        with open(svg_path, "w", encoding="utf-8") as handle:
            handle.write(webgeo.render.render_svg(leaves, domain))
    inputs = {
        "data": [d.source() for d in data],
        "lambda_interval": list(interval),
        "domain": domain.as_dict(),
        "leaves_per_foliation": args.leaves,
    }
    results = {"leaves": len(leaves), "svg_path": svg_path}
    return _finish(args, "lingen", inputs, None, results, warnings=warnings)


def _cmd_render(args) -> int:
    web = _parse_web(args.web)
    domain = _parse_rect(args.domain)

    to_source, render = webgeo.exprlang.to_source, webgeo.render
    leaves = []
    warnings = []
    points = 0
    for index, f in enumerate(web):
        placed = 0
        for level_index in range(args.levels):
            frac = (level_index + 0.5) / args.levels
            seed = (
                domain.xmin + frac * (domain.xmax - domain.xmin),
                domain.ymin + frac * (domain.ymax - domain.ymin),
            )
            try:
                leaf = render.trace_level_curve(
                    f, seed, domain, step=args.step, foliation_index=index
                )
            except ValueError:
                continue
            leaves.append(leaf)
            placed += 1
            points += len(leaf.points)
            if points > render.MAX_RENDER_POINTS:
                print(
                    f"webgeo: the leaves hold more than {render.MAX_RENDER_POINTS} points "
                    "(raise --step or lower --levels); SVG not written",
                    file=sys.stderr,
                )
                return 1
        if placed == 0:
            warnings.append(f"no leaves traced for '{to_source(f)}'")
    if not leaves:
        print("webgeo: nothing traced; SVG not written", file=sys.stderr)
        return 1
    with open(args.svg, "w", encoding="utf-8") as handle:
        handle.write(render.render_svg(leaves, domain))
    inputs = {
        "web": [to_source(f) for f in web],
        "domain": domain.as_dict(),
        "levels": args.levels,
        "step": args.step,
    }
    results = {"leaves": len(leaves), "svg_path": args.svg}
    return _finish(args, "render", inputs, None, results, warnings=warnings)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads the token after an option that takes a
    value as that value unless the token names one of its own options.

    argparse alone takes any token that starts with "-" and is not a plain
    negative number for an option, so `--domain -1:1:-1:1` exits 2 with
    "expected one argument".  Such a value is passed on as
    `--domain=-1:1:-1:1`, which argparse reads as written.
    """

    def parse_known_args(self, args=None, namespace=None):
        if args is not None:
            args = self._attach_dash_values(list(args))
        return super().parse_known_args(args, namespace)

    def _options_named(self, token: str) -> set:
        """The options `token` may name: its part before any "=" as an
        option string, or for a long option as a prefix of one (argparse
        reads an unambiguous prefix as that option)."""
        name = token.split("=", 1)[0]
        actions = self._option_string_actions
        if name in actions:
            return {actions[name]}
        if name.startswith("--"):
            return {a for s, a in actions.items() if s.startswith(name)}
        return set()

    def _attach_dash_values(self, args: list) -> list:
        out = []
        i = 0
        while i < len(args):
            token = args[i]
            i += 1
            if (
                i < len(args)
                and args[i].startswith("-")
                and token.startswith("-")
                and "=" not in token
                and not self._options_named(args[i])
            ):
                named = self._options_named(token)
                if len(named) == 1 and named.pop().nargs != 0:
                    token = f"{token}={args[i]}"
                    i += 1
            out.append(token)
        return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="webgeo",
        description="Numeric analysis of planar webs",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def report_options(p, verdicts=None, csv=False):
        p.add_argument("--out", help="write the report to this file instead of stdout")
        if csv:
            p.add_argument("--format", choices=("json", "csv"), default="json")
        if verdicts:
            p.add_argument("--tol", type=_tolerance, default=DEFAULT_TOLERANCE)
            p.add_argument("--expect", choices=verdicts, help="exit 1 unless the verdict equals this")

    def point_or_grid(p):
        where = p.add_mutually_exclusive_group(required=True)
        where.add_argument("--point")
        where.add_argument("--grid")

    p = sub.add_parser("flex", help="flat-plane linearity test: Flex f over a grid")
    p.add_argument("--f", required=True)
    p.add_argument("--grid", required=True)
    report_options(p, GEODESIC_VERDICTS, csv=True)
    p.set_defaults(handler=_cmd_flex)

    p = sub.add_parser("geodesic", help="geodesicity of a web for a connection")
    p.add_argument("--web", required=True, help="semicolon-separated web functions")
    p.add_argument(
        "--christoffel",
        required=True,
        help="constcurv:<kappa> | graph:<z expr> | custom:<six exprs>",
    )
    p.add_argument("--grid", required=True)
    report_options(p, GEODESIC_VERDICTS)
    p.set_defaults(handler=_cmd_geodesic)

    p = sub.add_parser("fit", help="projective structure of a 4-web")
    p.add_argument("--web", required=True)
    point_or_grid(p)
    report_options(p)
    p.set_defaults(handler=_cmd_fit)

    p = sub.add_parser("dweb", help="geodesicity residuals of f5..fd")
    p.add_argument("--web", required=True)
    p.add_argument("--grid", required=True)
    report_options(p, GEODESIC_VERDICTS)
    p.set_defaults(handler=_cmd_dweb)

    p = sub.add_parser("symcheck", help="symmetric-structure conditions of (x,y,f3,f4)")
    p.add_argument("--f3", required=True)
    p.add_argument("--f4", required=True)
    p.add_argument("--grid", required=True)
    report_options(p, SYMMETRIC_VERDICTS)
    p.set_defaults(handler=_cmd_symcheck)

    p = sub.add_parser("symintegrate", help="transport the finite-type state along a path")
    p.add_argument("--f3", required=True)
    p.add_argument("--f4", required=True)
    p.add_argument("--initial", required=True, help="sigma,tau,sigma_x,sigma_y,tau_x,tau_y")
    p.add_argument("--path", required=True, help="semicolon-separated x,y points")
    p.add_argument("--step", type=_step, default=1e-3)
    report_options(p, PASS_FAIL_VERDICTS)
    p.set_defaults(handler=_cmd_symintegrate)

    p = sub.add_parser("euler", help="Euler equation residuals")
    p.add_argument("--w", required=True)
    p.add_argument("--pi", help="p1_22,p1_12,p2_12,p2_11 for the connection variant")
    point_or_grid(p)
    report_options(p, PASS_FAIL_VERDICTS, csv=True)
    p.set_defaults(handler=_cmd_euler)

    p = sub.add_parser("lingen", help="generate a linear web from Cauchy data")
    p.add_argument("--data", required=True, help="semicolon-separated Cauchy data in y")
    p.add_argument("--lambda", dest="lam", required=True, help="parameter interval lo:hi")
    p.add_argument("--domain", required=True, help="xmin:xmax:ymin:ymax")
    p.add_argument("--leaves", type=_count, default=7)
    p.add_argument("--svg", help="write the leaves to this SVG file")
    report_options(p)
    p.set_defaults(handler=_cmd_lingen)

    p = sub.add_parser("render", help="trace level curves of a web into an SVG")
    p.add_argument("--web", required=True)
    p.add_argument("--domain", required=True)
    p.add_argument("--levels", type=_count, default=5)
    p.add_argument("--step", type=_step, default=1e-3)
    p.add_argument("--svg", required=True)
    report_options(p)
    p.set_defaults(handler=_cmd_render)

    return parser


_PARSER: argparse.ArgumentParser | None = None
#: The subcommand parsers of _PARSER, by name.
_COMMANDS: dict = {}


def _parse_args(argv: list) -> argparse.Namespace:
    """``_PARSER.parse_args(argv)``, parsed once.

    argparse's top-level pass hands every argument after a subcommand name
    to that subcommand's parser and then reports any it leaves over, so
    such an argument list goes straight to the subcommand's parser, with
    the same namespace, output and exit.  Any other list (help, a usage
    error, ``--``, no argument) goes through the top-level parser.
    """
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return _PARSER.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extras:
        _PARSER.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def run(argv) -> int:
    """Run the CLI on an argument list and return the exit code."""
    global _PARSER, _COMMANDS
    if _PARSER is None:
        _PARSER = _build_parser()
        (_COMMANDS,) = (
            action.choices
            for action in _PARSER._actions
            if isinstance(action, argparse._SubParsersAction)
        )
    try:
        args = _parse_args(list(argv))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.handler(args)
    except _UsageError as exc:
        print(f"webgeo: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"webgeo: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"webgeo: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
