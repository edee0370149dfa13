"""End-to-end command line behavior: exit codes, reports, determinism."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from webgeo.cli import run

SRC = str(Path(__file__).resolve().parents[1] / "src")

FLEX_ARGS = ["flex", "--f", "x + sqrt(x^2 - y)", "--grid", "1.5:2.5:0:1:20:20"]
FIT_ARGS = ["fit", "--web", "x; y; x+y; x*y", "--point", "2,1"]
SYM_ARGS = ["symcheck", "--f3", "x+y", "--f4", "x*y", "--grid", "1.5:3:0:1:10:10"]


def _run_json(args, capsys):
    code = run(args)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_flex_example(capsys):
    code, report = _run_json(FLEX_ARGS, capsys)
    assert code == 0
    assert report["command"] == "flex"
    assert report["results"]["verdict"] == "geodesic"
    assert report["results"]["max_normalized"] <= 1e-10
    assert report["grid"]["nx"] == 20


def test_fit_example(capsys):
    code, report = _run_json(FIT_ARGS, capsys)
    assert code == 0
    pi = report["results"]["pi"]
    assert pi["p1_12"] == pytest.approx(-2.0 / 3.0, rel=1e-12)
    assert pi["p2_12"] == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert pi["p1_22"] == pytest.approx(0.0, abs=1e-14)
    assert pi["p2_11"] == pytest.approx(0.0, abs=1e-14)


def test_symcheck_example(capsys):
    code, report = _run_json(SYM_ARGS, capsys)
    assert code == 0
    assert report["results"]["verdict"] == "symmetric"
    assert report["results"]["r1"]["max"] <= 1e-8
    # the y = 0 grid row hits the f4_x = 0 denominator and is skipped
    assert len(report["results"]["skipped_points"]) == 10


def test_reports_are_byte_deterministic(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert run(FLEX_ARGS + ["--out", str(first)]) == 0
    assert run(FLEX_ARGS + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_out_dash_writes_to_stdout(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = ["flex", "--f", "x", "--grid", "-1:1:0:1:3:3"]
    assert run(argv) == 0
    plain = capsys.readouterr()
    assert run(argv + ["--out", "-"]) == 0
    assert capsys.readouterr() == plain
    assert plain.out.startswith("{")
    assert not (tmp_path / "-").exists()


def test_parse_error_exits_2(capsys):
    code = run(["flex", "--f", "x +* y", "--grid", "0:1:0:1:3:3"])
    err = capsys.readouterr().err
    assert code == 2
    assert "offset 3" in err


def test_usage_error_exits_2(capsys):
    assert run(["flex", "--f", "x", "--grid", "bad"]) == 2
    assert run(["nosuchcommand"]) == 2
    assert run([]) == 2
    assert run(["fit", "--web", "x; y; x+y; x*y"]) == 2  # no point/grid


@pytest.mark.parametrize("grid", ["nan:1:0:1:3:3", "0:inf:0:1:3:3", "0:1:0:1:1001:1000"])
def test_bad_grid_exits_2(grid, capsys):
    assert run(["flex", "--f", "x", "--grid", grid]) == 2
    err = capsys.readouterr().err
    assert "--grid" in err


@pytest.mark.parametrize("tol", ["nan", "-1e-8", "inf", "-inf"])
def test_bad_tolerance_exits_2(tol, capsys):
    assert run(["flex", "--f", "x", "--grid", "0:1:0:1:3:3", f"--tol={tol}"]) == 2
    assert "tolerance must be a finite non-negative number" in capsys.readouterr().err


SYM_PATH_ARGS = ["symintegrate", "--f3", "x+y", "--f4", "x*y", "--initial", "0,0,0,0,0,0"]


@pytest.mark.parametrize(
    "path, step, reason",
    [
        ("2.9,0.9; inf,0.9", "0.01", "not finite"),
        ("2.9,0.9; nan,0.9", "0.01", "not finite"),
        ("2.9,0.9; 3.1,0.9", "nan", "step must be a finite positive number"),
        ("2.9,0.9; 3.1,0.9", "inf", "step must be a finite positive number"),
        ("2.9,0.9; 3.1,0.9", "0", "step must be a finite positive number"),
        ("2.9,0.9; 3.1,0.9", "-1", "step must be a finite positive number"),
        # 2e8 steps: rejected before any evaluation
        ("2.9,0.9; 3.1,0.9", "1e-9", "more than 1000000 steps"),
    ],
)
def test_bad_symintegrate_path_or_step_exits_2(path, step, reason, capsys):
    assert run([*SYM_PATH_ARGS, "--path", path, f"--step={step}"]) == 2
    assert reason in capsys.readouterr().err


@pytest.mark.parametrize("step", ["nan", "inf", "0", "-0.01"])
def test_bad_render_step_exits_2(step, capsys):
    argv = ["render", "--web", "x; y", "--domain", "0:1:0:1", "--svg", os.devnull]
    assert run([*argv, f"--step={step}"]) == 2
    assert "step must be a finite positive number" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, option",
    [
        (["flex", "--f", "x", "--grid", "0:1:0:1:3:3", "--tol", "abc"], "--tol"),
        ([*SYM_PATH_ARGS, "--path", "2.9,0.9; 3.1,0.9", "--step", "abc"], "--step"),
        (["render", "--web", "x; y", "--domain", "0:1:0:1", "--svg", os.devnull,
          "--step=abc"], "--step"),
    ],
)
def test_non_numbers_are_named_invalid_float_values(argv, option, capsys):
    """argparse names the type it wanted, as `invalid int value` does for
    --leaves, and not the private parser function."""
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert f"argument {option}: invalid float value: 'abc'" in err
    assert "_tolerance" not in err and "_step" not in err


def test_zero_tolerance_is_accepted(capsys):
    code, report = _run_json(["flex", "--f", "x", "--grid", "0:1:0:1:3:3", "--tol", "0"], capsys)
    assert code == 0
    assert report["results"]["tolerance"] == 0.0


def _run_alone(argv):
    """Exit code, stdout and stderr of one run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    code = "import sys; from webgeo.cli import run; sys.exit(run(sys.argv[1:]))"
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_runs_in_one_process_match_runs_alone(capsys):
    sequence = [
        FLEX_ARGS,
        ["flex", "--f", "x", "--grid", "0:1:0:1:3:3", "--format", "xml"],
        ["euler", "--w", "y/(1 - x)", "--point", "0.5,2"],
    ]
    for argv in sequence:
        code = run(argv)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == _run_alone(argv), argv
    assert [run(argv) for argv in sequence] == [0, 2, 0]


def test_expect_mismatch_exits_1(capsys):
    args = [
        "flex",
        "--f",
        "x*y",
        "--grid",
        "0.5:1.5:0.5:1.5:5:5",
        "--expect",
        "geodesic",
    ]
    assert run(args) == 1
    capsys.readouterr()
    args[-1] = "non-geodesic"
    assert run(args) == 0


def test_degenerate_fit_point_exits_1(capsys):
    code = run(["fit", "--web", "x; y; x+y; x*y", "--point", "1,1"])
    err = capsys.readouterr().err
    assert code == 1
    assert "(3, 4)" in err


def test_geodesic_constcurv(capsys):
    code, report = _run_json(
        [
            "geodesic",
            "--web",
            "y/x; sin(y/x)",
            "--christoffel",
            "constcurv:1.0",
            "--grid",
            "0.4:1.2:0.2:1.0:6:6",
        ],
        capsys,
    )
    assert code == 0
    assert report["results"]["verdict"] == "geodesic"


def test_geodesic_graph_surface(capsys):
    code, report = _run_json(
        [
            "geodesic",
            "--web",
            "x/y",
            "--christoffel",
            "graph:exp(x^2 + y^2)",
            "--grid",
            "0.5:1.5:0.5:1.5:5:5",
        ],
        capsys,
    )
    assert code == 0
    assert report["results"]["verdict"] == "geodesic"
    assert any("Gamma^2_22" in n for n in report["notes"])


def test_geodesic_custom_christoffels(capsys):
    code, report = _run_json(
        [
            "geodesic",
            "--web",
            "x; y; x+y",
            "--christoffel",
            "custom:0; 0; 0; 0; 0; 0",
            "--grid",
            "0:1:0:1:4:4",
        ],
        capsys,
    )
    assert code == 0
    assert report["results"]["verdict"] == "geodesic"


def test_dweb_linear_five_web(capsys):
    code, report = _run_json(
        [
            "dweb",
            "--web",
            "x; y; x + sqrt(x^2 - y); y/(1 - x); y/(1 - 2*x)",
            "--grid",
            "1.6:2.4:0.1:0.9:6:6",
        ],
        capsys,
    )
    assert code == 0
    assert report["results"]["verdict"] == "geodesic"
    assert report["results"]["max_normalized"] <= 1e-8


def test_euler_point_and_grid(capsys):
    code, report = _run_json(
        ["euler", "--w", "y/(1 - x)", "--point", "0.5,2"], capsys
    )
    assert code == 0
    assert abs(report["results"]["residual"]) <= 1e-12

    code, report = _run_json(
        ["euler", "--w", "x", "--grid", "0:1:0:1:3:3", "--expect", "pass"], capsys
    )
    assert code == 1  # residual is 1, not a solution


def test_euler_csv_output(capsys):
    code = run(["euler", "--w", "y/(1 - x)", "--grid", "0:0.5:0:1:3:3", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,y,raw,normalized,degenerate"
    assert len(lines) == 10


def test_flex_csv_output(capsys):
    code = run(["flex", "--f", "x + y", "--grid", "0:1:0:1:3:3", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,y,raw,normalized,degenerate"
    assert len(lines) == 10
    assert all(row.endswith("false") for row in lines[1:])


def test_symintegrate(capsys):
    code, report = _run_json(
        [
            "symintegrate",
            "--f3",
            "x+y",
            "--f4",
            "x*y",
            "--initial",
            "0.2,-0.1,0.15,0.33,-0.21,0.15",
            "--path",
            "2.9,0.9; 3.1,0.9; 3.1,1.1",
            "--step",
            "0.01",
        ],
        capsys,
    )
    assert code == 0
    assert report["results"]["verdict"] == "pass"
    assert abs(report["results"]["constraint_residual"]) <= 1e-8
    assert abs(report["results"]["curvature"]["trace"]) <= 1e-8


def test_lingen_writes_svg_and_report(tmp_path, capsys):
    svg_path = tmp_path / "parabola.svg"
    code, report = _run_json(
        [
            "lingen",
            "--data=-2*sqrt(-y)",
            "--lambda=-16:-0.04",
            "--domain=-2:2:-4:2",
            "--leaves",
            "9",
            "--svg",
            str(svg_path),
        ],
        capsys,
    )
    assert code == 0
    assert report["results"]["leaves"] == 9
    svg = svg_path.read_text()
    assert svg.count("<path") == 9


def test_render_traces_web(tmp_path, capsys):
    svg_path = tmp_path / "web.svg"
    code, report = _run_json(
        [
            "render",
            "--web",
            "x; y; x+y",
            "--domain",
            "0:1:0:1",
            "--levels",
            "3",
            "--step",
            "0.005",
            "--svg",
            str(svg_path),
        ],
        capsys,
    )
    assert code == 0
    assert report["results"]["leaves"] == 9
    assert svg_path.read_text().count("<path") == 9


# A point where one formula overflows or leaves its domain is skipped and
# listed; it never aborts a grid command.

EXP_WEB = ["x", "y", "exp(60*x)+exp(60*y)", "x*y+x+2*y"]


def test_flex_cube_overflow_fails_the_point(capsys):
    # |grad f| = 1e200 has no float cube: every point is skipped
    assert run(["flex", "--f", "1e200*x", "--grid", "0:1:0:1:2:2"]) == 1
    assert "no valid samples" in capsys.readouterr().err


def test_dweb_cube_overflow_skips_the_point(capsys):
    # f5_x = 60 exp(240) at x = 4 overflows in its cube
    code, report = _run_json(
        ["dweb", "--web", "x;y;x+y;x-y;exp(60*x)+y", "--grid", "0.5:4:0.5:1:4:2"], capsys
    )
    assert code == 0
    assert report["results"]["skipped_points"] == [[4.0, 0.5], [4.0, 1.0]]
    assert report["results"]["per_function"][0]["samples"] == 6


def test_symcheck_jet_overflow_skips_the_point(capsys):
    code, report = _run_json(
        ["symcheck", "--f3", EXP_WEB[2], "--f4", EXP_WEB[3], "--grid", "0.5:4:0.5:4:3:3"],
        capsys,
    )
    assert code == 0
    assert report["results"]["skipped_points"] == [[4.0, 4.0]]
    assert report["results"]["samples"] == 8


def test_fit_grid_lists_non_finite_fits(capsys):
    code, report = _run_json(
        ["fit", "--web", "; ".join(EXP_WEB), "--grid", "0.5:4:0.5:4:3:3"], capsys
    )
    assert code == 0
    results = report["results"]
    assert results["points_used"] == 2
    # (4, 4) gives p1_22 = nan; the others are tangent pairs
    assert [4.0, 4.0] in results["skipped_points"]
    assert len(results["skipped_points"]) == 7
    # the single point keeps its error
    assert run(["fit", "--web", "; ".join(EXP_WEB), "--point", "4,4"]) == 1
    assert "Thomas parameter p1_22 is not finite" in capsys.readouterr().err


def test_huge_integer_exponent_does_not_recurse(capsys):
    assert run(["flex", "--f", "x^1e300", "--grid", "0.5:1:0.5:1:2:2"]) == 1
    assert "no valid samples" in capsys.readouterr().err


def test_non_finite_literal_is_a_parse_error(capsys):
    assert run(["flex", "--f", "x^1e400", "--grid", "0.5:1:0.5:1:2:2"]) == 2
    assert "out of range" in capsys.readouterr().err


def test_deep_flat_chain_is_a_parse_error(capsys):
    from webgeo.exprlang import MAX_DEPTH

    chain = "+".join(["x"] * 3000)
    assert run(["flex", "--f", chain, "--grid", "0:1:0:1:2:2"]) == 2
    assert f"deeper than {MAX_DEPTH} levels" in capsys.readouterr().err
    # the deepest chain the parser accepts runs through every walker
    chain = "+".join(["x"] * MAX_DEPTH)
    assert run(["flex", "--f", chain, "--grid", "0:1:0:1:2:2"]) == 0
    assert run(["render", "--web", f"{chain}; y", "--domain", "0:1:0:1", "--levels", "1",
                "--step", "0.05", "--svg", os.devnull]) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["fit", "--web", "x;y;x+y;x*y", "--point", "nan,1"],
        ["euler", "--w", "y/(1-x)", "--point=inf,2"],
        ["euler", "--w", "y/(1-x)", "--pi", "nan,0,0,0", "--point", "0.5,2"],
        ["symintegrate", "--f3", "x+y", "--f4", "x*y", "--initial", "0,0,nan,0,0,0",
         "--path", "2.9,0.9; 3.1,0.9", "--step", "0.01"],
        ["render", "--web", "x; y", "--domain", "0:inf:0:1", "--svg", os.devnull],
        ["lingen", "--data=-2*sqrt(-y)", "--lambda=-inf:-0.04", "--domain=-2:2:-4:2"],
    ]
    + [
        ["geodesic", "--web", "x;y", "--christoffel", f"constcurv:{kappa}",
         "--grid", "0.1:1:0.1:1:3:3", "--expect", "geodesic"]
        for kappa in ("nan", "inf", "-inf")
    ],
)
def test_non_finite_numbers_exit_2(argv, capsys):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "is not finite" in err and "Traceback" not in err


def test_unreadable_curvature_exits_2(capsys):
    argv = ["geodesic", "--web", "x;y", "--christoffel", "constcurv:abc",
            "--grid", "0.1:1:0.1:1:3:3"]
    assert run(argv) == 2
    assert "--christoffel constcurv: could not convert" in capsys.readouterr().err


def test_symintegrate_reuses_the_endpoint_sample(monkeypatch, capsys):
    # Every (alpha, beta) comes from the path's blocks, the endpoint's jets
    # too: the kernel never runs again at a single point.
    import webgeo.projective
    from webgeo.exprlang import Block

    kernel = webgeo.projective._alpha_beta_jets
    blocks = []

    def spy(f3, f4, at, ok=None):
        if not isinstance(at, Block):
            raise AssertionError(f"alpha and beta evaluated again at the point {at}")
        blocks.append(at)
        return kernel(f3, f4, at, ok)

    monkeypatch.setattr(webgeo.projective, "_alpha_beta_jets", spy)
    assert run([*SYM_PATH_ARGS, "--path", "2.9,0.9; 3.1,0.9", "--step", "0.05"]) == 0
    assert blocks


def test_overflowing_transport_stays_quiet(capsys):
    # The state overflows to inf and then nan within the first steps.  The
    # report says so ("nan", verdict "fail"); nothing else may be written,
    # and no warning raised, which Python would print on stderr outside
    # the test.  The digest is that of the report before the transport ran
    # on floats.
    argv = ["symintegrate", "--f3", "x+y", "--f4", "x*y",
            "--initial", "1e200,-1e200,0,0,0,0", "--path", "2,1; 3,1", "--step", "0.1"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(argv)
    out, err = capsys.readouterr()
    assert [str(w.message) for w in caught] == []
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "6e2f35265f84711d27cb3d0fb31bdc35300c206cebbae91aace2969b90994e70"
    )
    results = json.loads(out)["results"]
    assert results["state"]["sigma"] == "nan" and results["verdict"] == "fail"


@pytest.mark.parametrize(
    "argv",
    [
        ["flex", "--f", "(1e250*x)^1.5", "--grid", "0.5:1:0.5:1:2:2"],
        ["fit", "--web", "x;y;x+y;(1e250*x)^1.5", "--point", "1,1"],
    ],
)
def test_overflowing_fractional_power_fails_the_point(argv, capsys):
    assert run(argv) == 1
    assert "Traceback" not in capsys.readouterr().err


def test_overflowing_fractional_power_skips_the_leaf(capsys):
    argv = ["render", "--web", "(1e250*x)^1.5; y", "--domain", "0:1:0:1", "--levels", "1",
            "--step", "0.05", "--svg", os.devnull]
    assert run(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["warnings"] == ["no leaves traced for '((1e+250 * x))^1.5'"]


def test_geodesic_nan_maximum_fails_the_verdict(capsys):
    # Foliation 1's jets overflow (1e308 times factorials), so its maximum
    # normalized residual is NaN; the top-level maximum must not fold it away.
    code, report = _run_json(
        ["geodesic", "--web", "x + y + 1e308*x^2 - 1e308*y^2; y",
         "--christoffel", "constcurv:0", "--grid", "0:0.1:0:0.1:2:2", "--expect", "geodesic"],
        capsys,
    )
    results = report["results"]
    assert results["per_foliation"][0]["max_normalized"] == "nan"
    assert results["max_normalized"] == "nan"
    assert results["verdict"] == "non-geodesic"
    assert code == 1


# The jets of NAN_F overflow at (0, 1) (5e307 times 2!), so its flex is NaN
# there; the other two grid points give 0.0, before and after the NaN.
NAN_F = "x + 5e307*x^2*(1+y)"
NAN_GRID = "0:0:0:1:1:3"


@pytest.mark.parametrize(
    "argv, entries",
    [
        (["flex", "--f", NAN_F, "--grid", NAN_GRID], "per_foliation"),
        (
            ["geodesic", "--web", f"{NAN_F}; y", "--christoffel", "constcurv:0",
             "--grid", NAN_GRID],
            "per_foliation",
        ),
        (["dweb", "--web", f"x; y; x+y; x-y; {NAN_F}", "--grid", NAN_GRID], "per_function"),
        (
            ["dweb", "--web", "x; y; x+y; x-y; x + y + 1e308*x^2 - 1e308*y^2",
             "--grid", "0:0.1:0:0.1:2:2"],
            "per_function",
        ),
    ],
    ids=["flex", "geodesic", "dweb", "dweb-one-sample"],
)
def test_nan_sample_fails_the_verdict(argv, entries, capsys):
    code, report = _run_json([*argv, "--expect", "geodesic"], capsys)
    results = report["results"]
    assert results[entries][0]["max_normalized"] == "nan"
    assert results["max_normalized"] == "nan"
    assert results["verdict"] == "non-geodesic"
    assert report["degenerate"] is True
    assert code == 1


@pytest.mark.parametrize("count", ["0", "-1", "10001"])
@pytest.mark.parametrize(
    "argv",
    [
        ["render", "--web", "x; y", "--domain", "0:1:0:1", "--levels"],
        ["lingen", "--data=-2*sqrt(-y)", "--lambda=-16:-0.04", "--domain=-2:2:-4:2", "--leaves"],
    ],
    ids=["render", "lingen"],
)
def test_counts_out_of_range_exit_2(argv, count, tmp_path, capsys):
    *command, option = argv
    svg_path = tmp_path / "web.svg"
    assert run([*command, f"{option}={count}", "--svg", str(svg_path)]) == 2
    assert "must be between 1 and 10000" in capsys.readouterr().err
    assert not svg_path.exists()


WEB4 = "x; y; x+y; x*y"


@pytest.mark.parametrize(
    "argv",
    [
        # --format exists only on flex and euler: rejected before the sweep,
        # whose every point here is out of the domain
        ["geodesic", "--web", "sqrt(-1-x^2); y", "--christoffel", "constcurv:0",
         "--grid", "0:1:0:1:2:2", "--format", "csv"],
        ["dweb", "--web", "x; y; x+y; x-y; x*y", "--grid", "1:2:1:2:2:2", "--format", "csv"],
        # --tol and --expect exist only where there is a verdict
        ["fit", "--web", WEB4, "--point", "2,1", "--tol", "7"],
        # --expect takes only the command's two verdicts
        ["flex", "--f", "x", "--grid", "0:1:0:1:2:2", "--expect", "geodesc"],
        # --point and --grid exclude each other
        ["fit", "--web", WEB4, "--point", "2,1", "--grid", "1:2:1:2:2:2"],
        ["euler", "--w", "y/(1-x)", "--point", "0.5,2", "--grid", "0:0.5:0:1:3:3"],
        # CSV needs a grid; refused before the residual leaves its domain
        ["euler", "--w", "sqrt(-1-x^2)", "--point", "0.5,2", "--format", "csv"],
    ],
    ids=["geodesic-format", "dweb-format", "fit-tol", "expect-typo", "fit-point-grid",
         "euler-point-grid", "euler-point-csv"],
)
def test_options_a_command_does_not_read_exit_2(argv, capsys):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv, option",
    [
        (["render", "--web", "x^2 + y^2", "--domain", "-1:1:-1:1", "--levels", "3",
          "--svg", "web.svg"], "--domain"),
        (["fit", "--web", WEB4, "--point", "-1,2"], "--point"),
        (["flex", "--f", "x", "--grid", "-1:1:0:1:3:3"], "--grid"),
    ],
    ids=["render-domain", "fit-point", "flex-grid"],
)
def test_option_values_may_start_with_a_dash(argv, option, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    svg = tmp_path / "web.svg"

    def outputs(words):
        code = run(words)
        captured = capsys.readouterr()
        drawn = svg.read_bytes() if svg.exists() else None
        svg.unlink(missing_ok=True)
        return code, captured.out, captured.err, drawn

    spaced = outputs(argv)
    assert spaced[0] == 0, spaced[2]
    at = argv.index(option)
    joined = [*argv[:at], f"{option}={argv[at + 1]}", *argv[at + 2:]]
    assert outputs(joined) == spaced


def test_an_option_after_an_option_is_not_its_value(capsys):
    assert run(["flex", "--f", "x", "--grid", "--tol", "1e-6"]) == 2
    assert "argument --grid: expected one argument" in capsys.readouterr().err


def test_render_bounds_its_leaf_points(tmp_path, monkeypatch, capsys):
    import webgeo.render

    # each leaf of x from y = 0 to 1 in steps of 0.01 holds about 100 points
    monkeypatch.setattr(webgeo.render, "MAX_RENDER_POINTS", 150)
    svg_path = tmp_path / "web.svg"
    argv = ["render", "--web", "x", "--domain", "0:1:0:1", "--step", "0.01"]
    argv += ["--svg", str(svg_path)]
    assert run([*argv, "--levels", "1"]) == 0
    capsys.readouterr()
    svg_path.unlink()
    assert run([*argv, "--levels", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "more than 150 points" in captured.err
    assert not svg_path.exists()


def test_render_rejects_tol_before_tracing(tmp_path, capsys):
    svg_path = tmp_path / "web.svg"
    argv = ["render", "--web", "x; y", "--domain", "0:1:0:1", "--svg", str(svg_path)]
    assert run([*argv, "--tol", "5"]) == 2
    assert capsys.readouterr().out == ""
    assert not svg_path.exists()


GEODESIC = ("geodesic", "non-geodesic")
PASS_FAIL = ("pass", "fail")

# subcommand -> (its options in order, the --expect choices or None)
SURFACE = {
    "flex": ("--f --grid --out --format --tol --expect", GEODESIC),
    "geodesic": ("--web --christoffel --grid --out --tol --expect", GEODESIC),
    "fit": ("--web --point --grid --out", None),
    "dweb": ("--web --grid --out --tol --expect", GEODESIC),
    "symcheck": ("--f3 --f4 --grid --out --tol --expect", ("symmetric", "non-symmetric")),
    "symintegrate": ("--f3 --f4 --initial --path --step --out --tol --expect", PASS_FAIL),
    "euler": ("--w --pi --point --grid --out --format --tol --expect", PASS_FAIL),
    "lingen": ("--data --lambda --domain --leaves --svg --out", None),
    "render": ("--web --domain --levels --step --svg --out", None),
}


def test_each_command_declares_only_the_options_it_reads():
    import argparse

    from webgeo.cli import _build_parser

    (commands,) = [
        action.choices
        for action in _build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    assert list(commands) == list(SURFACE)
    for name, (options, verdicts) in SURFACE.items():
        parser = commands[name]
        actions = [a for a in parser._actions if a.option_strings != ["-h", "--help"]]
        assert [a.option_strings[0] for a in actions] == options.split(), name
        expect = [a for a in actions if a.option_strings == ["--expect"]]
        assert [tuple(a.choices) for a in expect] == ([verdicts] if verdicts else []), name
        groups = [
            ([a.option_strings[0] for a in g._group_actions], g.required)
            for g in parser._mutually_exclusive_groups
        ]
        expected = [(["--point", "--grid"], True)] if name in ("fit", "euler") else []
        assert groups == expected, name
