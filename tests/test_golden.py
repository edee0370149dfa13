"""The bytes of the reports, pinned.

Each case runs one command through `webgeo.cli.run` inside a temporary
directory, with any SVG written there as `web.svg`.  The exit code and the
SHA-256 of stdout, stderr and the SVG file must equal the digests recorded
below, so a change to the tracer, the transport, the grid sweeps, the
compiled formulas or the report writer that moves a single bit of any
output fails here.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from webgeo.cli import run

#: A state that meets the trace constraint of ("x+y", "x*y + x^3") at
#: (1.9, 0.4): sigma_x = 0.15 - (alpha_x - beta_y) / 3 there.
_PERTURBED_SIGMA_X = "0.15044272224195548"

CASES = {
    "render-three-function-web": [
        "render", "--web", "x; y; x+y", "--domain", "0:1:0:1",
        "--levels", "4", "--step", "0.01", "--svg", "web.svg",
    ],
    "render-closed-loops": [
        "render", "--web", "x^2 + y^2; (x - 0.4)^2 + 2*(y - 0.6)^2", "--domain=-1:1:-1:1",
        "--levels", "3", "--step", "0.005", "--svg", "web.svg",
    ],
    "render-domain-edges": [
        "render", "--web", "sqrt(x - 0.3) + y; ln(y - 0.2) - x", "--domain", "0:1:0:1",
        "--levels", "3", "--step", "0.01", "--svg", "web.svg",
    ],
    "render-integer-powers": [
        "render", "--web", "x^3*y^5; (x + 2*y)^7 - x; 1/(x^2 + y^2)^2; y + (x/2)^63",
        "--domain", "0.2:1.2:0.2:1.2", "--levels", "2", "--step", "0.01", "--svg", "web.svg",
    ],
    "render-saddle": [
        "render", "--web", "(x - 0.5)^2 - (y - 0.5)^2", "--domain", "0:1:0:1",
        "--levels", "3", "--step", "0.01", "--svg", "web.svg",
    ],
    "render-overflowing-argument": [
        "render", "--web", "x + y + 1e-310*sin(1e308+1e308*x); x", "--domain", "0:1:0:1",
        "--levels", "1", "--step", "0.01", "--svg", "web.svg",
    ],
    "render-nothing-traced": [
        "render", "--web", "x^2 + y^2", "--domain=-1:1:-1:1",
        "--levels", "1", "--svg", "web.svg",
    ],
    "lingen-parabola": [
        "lingen", "--data=-2*sqrt(-y)", "--lambda=-16:-0.04", "--domain=-2:2:-4:2",
        "--leaves", "9", "--svg", "web.svg",
    ],
    "lingen-two-data": [
        "lingen", "--data", "0.3*y + 0.2; 0.25*y^2 - 0.1", "--lambda=-2.5:2.5",
        "--domain=-1:1:-2:2", "--leaves", "7", "--svg", "web.svg",
    ],
    # sqrt(y) is undefined on half of the probed parameter values: a
    # warning, and leaves drawn from the other half.
    "lingen-undefined-probes": [
        "lingen", "--data", "sqrt(y); 0*y + 3", "--lambda=-1:1", "--domain=-1:1:-2:2",
        "--leaves", "5", "--svg", "web.svg",
    ],
    # The lines y = lam, lam in 3..4, all pass above the domain.
    "lingen-no-leaves": [
        "lingen", "--data", "0*y", "--lambda=3:4", "--domain=-1:1:-2:2",
        "--leaves", "5", "--svg", "web.svg",
    ],
    "symintegrate-open-path": [
        "symintegrate", "--f3", "x+y", "--f4", "x*y",
        "--initial", "0.2,-0.1,0.15,0.33,-0.21,0.15",
        "--path", "2.9,0.9; 3.1,0.9; 3.1,1.1", "--step", "0.001",
    ],
    "symintegrate-closed-loop": [
        "symintegrate", "--f3", "x+y", "--f4", "x*y",
        "--initial", "0.2,-0.1,0.15,0.33,-0.21,0.15",
        "--path", "2.9,0.9; 3.1,0.9; 3.1,1.1; 2.9,1.1; 2.9,0.9", "--step", "0.005",
    ],
    "symintegrate-path-dependent": [
        "symintegrate", "--f3", "x+y", "--f4", "x*y + x^3",
        "--initial", f"0.2,-0.1,{_PERTURBED_SIGMA_X},0.33,-0.21,0.15",
        "--path", "1.9,0.4; 2.1,0.4; 2.1,0.6; 1.9,0.6; 1.9,0.4", "--step", "0.002",
    ],
    "symintegrate-constraint-violated": [
        "symintegrate", "--f3", "x+y", "--f4", "x*y",
        "--initial", "0.2,-0.1,0.15,0.33,-0.21,0.2",
        "--path", "2.9,0.9; 3.1,0.9", "--step", "0.01",
    ],
    # Half of the 1,600 nodes lie outside the domain of sqrt: 780 skipped.
    "flex-sqrt-half-domain": [
        "flex", "--f", "sqrt(x - y + 0.013)", "--grid", "0:1:0:1:40:40",
    ],
    "geodesic-constcurv-two-functions": [
        "geodesic", "--web", "y/x; sin(y/x)", "--christoffel", "constcurv:1.0",
        "--grid", "0.4:1.2:0.2:1.0:6:6",
    ],
    "dweb-linear-five-web": [
        "dweb", "--web", "x; y; x + sqrt(x^2 - y); y/(1 - x); y/(1 - 2*x)",
        "--grid", "1.6:2.4:0.1:0.9:6:6",
    ],
    "symcheck-grid": [
        "symcheck", "--f3", "x+y", "--f4", "x*y", "--grid", "1.5:3:0:1:10:10",
    ],
    # y + x^2 is tangent to y at x = 0 and to x + y at x = 0.5.
    "fit-grid-tangent-columns": [
        "fit", "--web", "x; y; x+y; y + x^2", "--grid", "0:1:0.2:1:5:5",
    ],
    "euler-grid": [
        "euler", "--w", "y/(1 - x)", "--grid", "0:0.5:0:1:5:5",
    ],
    "flex-csv": [
        "flex", "--f", "x + sqrt(x^2 - y)", "--grid", "1.5:2.5:0:1:5:5", "--format", "csv",
    ],
    # The partial f_xx overflows to inf: the report holds "nan" and ends
    # with "degenerate": true.
    "flex-degenerate": [
        "flex", "--f", "x + 5e307*x^2*(1+y)", "--grid", "0:0:1:1:1:1",
    ],
}

#: (exit code, SHA-256 of stdout, of stderr, of the SVG or None).
DIGESTS = {
    "dweb-linear-five-web": (
        0,
        "b3d0256199bcb17c36ebdf2874e2e6da601d9f8469df2703b972c10a254c6afe",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        None,
    ),
    "euler-grid": (
        0,
        "d02f85b6105fbf5ca4dfe27f105945884913c0f0275fbb1b549d218d623e63f2",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        None,
    ),
    "fit-grid-tangent-columns": (
        0,
        "6362ee62d4bd18435eae51b0409bb0f44f849d0f699a0ceeccf660e332444f20",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        None,
    ),
    "flex-csv": (
        0,
        "d1a24152d87f49848dc093bbd540f93b6fc7f2de44623926c0487b18235902c1",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        None,
    ),
    "flex-degenerate": (
        0,
        "500cb3bcf2c9a4a2e67c79598ec1dd7ff889f1190d0bd0ed0812bed840b9751d",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        None,
    ),
    "flex-sqrt-half-domain": (
        0,
        "c244af07eaae2dc03e6a170f8385a2e06138a3c67df663adeaef15417e0df894",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        None,
    ),
    "geodesic-constcurv-two-functions": (
        0,
        "65c3bbd32dc72da7212a435481639ba192132508df912bf7dba93e98ea9bc081",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        None,
    ),
    "lingen-no-leaves": (
        1,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "eba57546020351929827dda95c5a6acd28e3a8b64f19973e91e0783041be5680",
        None,
    ),
    "lingen-parabola": (
        0,
        "dd7cb7f62c97bf6fb3feb144c09c6c12a4b25a03648f7f9cc17b21cb123567c0",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "532641c142d2f13e587c282fff64d33e4679e93e6956c4baf05e6033b9f0b99a",
    ),
    "lingen-two-data": (
        0,
        "3ba20eccd96c2010ec4e645a5090003a087bf841bba58df4ef798943abc5ae3c",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e37945658c91974bf6153163ebdab8d99c23fe5da2b9c1a7075000e083030c34",
    ),
    "lingen-undefined-probes": (
        0,
        "c5fa5309fe72ad19ddd2a67781b93c92d4324c47b95f4b6d39a810cb92426f15",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "517bb5a120b2112e4fdac72490945f1c86a1191c22bd10955e73e7688ad2f0eb",
    ),
    "render-closed-loops": (
        0,
        "6165f6b737db369f6b02deca504a440e4711c07032cd4921b0c438e75888bc3d",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "34ab16d80fbb13d71182fc4aaa74323ca0f695c3b78a40e00d6216e4afab585d",
    ),
    "render-domain-edges": (
        0,
        "93ed49c01ac2a710eba51fb4739058a204c7175c5db1e64adc90ca12891236c4",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "66366a81cd41052894750d70229071a42d82ebecbb082038ef6ee12898b0bef8",
    ),
    "render-integer-powers": (
        0,
        "005af2717ee1eac0f9d82b0aef55c2ccdbb789770566ec06b93a884b0978528b",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "1e08f7e0859911cce602b67220f0253c5f37d1c6ba30a8b3d9f5826b5b5a0d78",
    ),
    "render-nothing-traced": (
        1,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "cbf3c69a9be2bef16bfbaca72645ac10cc962cb13707c99a50cec76497046093",
        None,
    ),
    "render-overflowing-argument": (
        0,
        "8b6593832c63c4a161d24c40736995f2ee2c4e6567e451da49cbf3a96543b6b9",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "5d8aa886cdfb32e76683ce9000875d4c13ca78d8cceb0466edfcefc32993da0e",
    ),
    "render-saddle": (
        0,
        "45a150524f5e5a235ba3e22d05059009cf50d674c3e02c9c4f17f3b38aa536da",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "04b60c03d5ca32aca66f648417784ddd81f0019e6fe43beb925e766c5b0dc5d2",
    ),
    "render-three-function-web": (
        0,
        "041915b68fd0ad76fee0ddf487f517e5b350043c53a1f158a5f7f02f010c056c",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "4b771ecc95bcde2b37dffe207d7a7e0189aae42e9075f68dcb7fbbed5d5c21ed",
    ),
    "symcheck-grid": (
        0,
        "eeed3e3c65efe72e79253bf442f9756718d41ef7f5d8419f282fc9b28a81ec64",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        None,
    ),
    "symintegrate-closed-loop": (
        0,
        "c2b26f7327da01a00c6a0d6f8253bfd179920a2548b6c3dbe0dc4fbcf6966e2f",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        None,
    ),
    "symintegrate-constraint-violated": (
        1,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "bec5da6b147f09c7ef2d4d2f2872a1ede76368f83368885e1ab3f75196402553",
        None,
    ),
    "symintegrate-open-path": (
        0,
        "d61470a3a51cf7b87b97f647d538927bc7aa97b6cb16ac70cf630d12e8d39f96",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        None,
    ),
    "symintegrate-path-dependent": (
        0,
        "aebbe7de5841e7996d7ea14ac27286db8bee69c9612232945d9b1c9d33583db8",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        None,
    ),
}


def _sha(data) -> str:
    return hashlib.sha256(data).hexdigest()


def outcome(argv, directory: Path, capsys):
    """(exit code, digests of stdout, stderr and web.svg) of one run in
    `directory`."""
    code = run(argv)
    captured = capsys.readouterr()
    svg = directory / "web.svg"
    svg_digest = _sha(svg.read_bytes()) if svg.exists() else None
    return code, _sha(captured.out.encode()), _sha(captured.err.encode()), svg_digest


def test_every_case_has_a_digest():
    assert sorted(DIGESTS) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_bytes_are_pinned(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert outcome(CASES[name], tmp_path, capsys) == DIGESTS[name]
