"""Shared corpus, finite-difference oracle, and random-web helpers."""

from __future__ import annotations

import random

import pytest
from hypothesis import strategies as st

from webgeo import Call, parse

# Each corpus entry is (formula, sampling box (xlo, xhi, ylo, yhi)) with the
# box kept a safe margin away from the formula's singular set so that
# finite-difference stencils stay in-domain.
CORPUS = [
    ("x*y + 3*x - y", (-1.5, 1.5, -1.5, 1.5)),
    ("x^2 + y^2 + 1", (-1.5, 1.5, -1.5, 1.5)),
    ("x^3 - 2*x*y + y^2", (-1.5, 1.5, -1.5, 1.5)),
    ("sin(x)*cos(y)", (-1.5, 1.5, -1.5, 1.5)),
    ("exp(0.3*x - 0.2*y)", (-1.5, 1.5, -1.5, 1.5)),
    ("ln(2 + x^2 + y^2)", (-1.5, 1.5, -1.5, 1.5)),
    ("sqrt(1 + x^2 + y^2)", (-1.5, 1.5, -1.5, 1.5)),
    ("(x + 2*y)/(3 + x^2)", (-1.5, 1.5, -1.5, 1.5)),
    ("y/x", (0.6, 1.8, -1.2, 1.2)),
    ("x/y", (-1.2, 1.2, 0.6, 1.8)),
    ("x + sqrt(x^2 - y)", (1.6, 2.4, 0.1, 0.9)),
    ("sin(y/x)", (0.8, 1.8, -1.0, 1.0)),
    ("tan(0.3*x + 0.1*y)", (-1.0, 1.0, -1.0, 1.0)),
    ("exp(x*y/4)", (-1.0, 1.0, -1.0, 1.0)),
    ("1/(1 - 0.2*x - 0.3*y)", (-1.0, 1.0, -1.0, 1.0)),
    ("ln(x + 3)", (-1.5, 1.5, -1.5, 1.5)),
    ("sqrt(x + 2)*cos(y)", (-1.0, 1.5, -1.5, 1.5)),
    ("(y + 1)/(1 - x)", (-0.8, 0.4, -1.0, 1.0)),
    ("x^2*y - y^3/3", (-1.5, 1.5, -1.5, 1.5)),
    ("cos(x - y) + 0.5*x^2", (-1.5, 1.5, -1.5, 1.5)),
]

# Formulas defined on the whole shared box, for random 4-web assembly.
WEB_POOL = [
    "x + 0.5*y^2",
    "y + sin(x)",
    "x*y + x",
    "x^2 - y",
    "exp(0.3*x) + y",
    "cos(x) + x + 2*y",
    "x + y + 0.2*x^2",
    "y - 0.3*x^3",
    "x - y^2/2",
    "sin(x + y) + 2*x",
]

_CD_STENCILS = {
    1: ((-1, -0.5), (1, 0.5)),
    2: ((-1, 1.0), (0, -2.0), (1, 1.0)),
    3: ((-2, -0.5), (-1, 1.0), (1, -1.0), (2, 0.5)),
    4: ((-2, 1.0), (-1, -4.0), (0, 6.0), (1, -4.0), (2, 1.0)),
}

# Base steps per total derivative order.  Orders 1 and 2 run at 1e-3; the
# higher orders need wider stencils because the Richardson fine evaluation
# at h/2 carries float64 roundoff ~16 eps |f| / (h/2)^k, which at 1e-3
# would swamp the 1e-5 comparison tolerance for k >= 3.
FD_STEPS = {1: 1e-3, 2: 1e-3, 3: 4e-3, 4: 1.4e-2}


def _mixed_difference(fn, x, y, i, j, h):
    sx = _CD_STENCILS[i] if i else ((0, 1.0),)
    sy = _CD_STENCILS[j] if j else ((0, 1.0),)
    total = 0.0
    for ox, cx in sx:
        for oy, cy in sy:
            total += cx * cy * fn(x + ox * h, y + oy * h)
    if i:
        total /= h**i
    if j:
        total /= h**j
    return total


def fd_partial(fn, x, y, i, j):
    """Richardson-extrapolated central difference for d^{i+j}/dx^i dy^j."""
    if i == 0 and j == 0:
        return fn(x, y)
    h = FD_STEPS[i + j]
    coarse = _mixed_difference(fn, x, y, i, j, h)
    fine = _mixed_difference(fn, x, y, i, j, h / 2.0)
    return (4.0 * fine - coarse) / 3.0


def rel_close(a: float, b: float, tol: float) -> bool:
    """|a - b| within tol relative to max(1, |a|, |b|)."""
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def sample_point(rng: random.Random, box, margin: float = 0.06):
    xlo, xhi, ylo, yhi = box
    return (
        rng.uniform(xlo + margin, xhi - margin),
        rng.uniform(ylo + margin, yhi - margin),
    )


def corpus_cases(rng: random.Random, count: int):
    """(expression, point) pairs cycling deterministically over the corpus."""
    cases = []
    k = 0
    while len(cases) < count:
        source, box = CORPUS[k % len(CORPUS)]
        cases.append((parse(source), sample_point(rng, box)))
        k += 1
    return cases


def random_webs(rng: random.Random, count: int, size: int = 4):
    """Non-degenerate random webs with their evaluation points.

    Transversality and conditioning are enforced generatively so the fit
    comparisons exercise well-posed problems.
    """
    import numpy as np

    from webgeo import evaluate_jet, partial_derivative

    webs = []
    attempts = 0
    while len(webs) < count and attempts < count * 60:
        attempts += 1
        funcs = [parse(s) for s in rng.sample(WEB_POOL, size)]
        point = (rng.uniform(0.2, 1.2), rng.uniform(0.2, 1.2))
        try:
            grads = []
            for f in funcs:
                jet = evaluate_jet(f, point, 2)
                grads.append(
                    (partial_derivative(jet, 1, 0), partial_derivative(jet, 0, 1))
                )
        except Exception:
            continue
        good = True
        for a in range(size):
            for b in range(a + 1, size):
                jac = grads[a][0] * grads[b][1] - grads[a][1] * grads[b][0]
                scale = (
                    (grads[a][0] ** 2 + grads[a][1] ** 2) ** 0.5
                    * (grads[b][0] ** 2 + grads[b][1] ** 2) ** 0.5
                )
                if abs(jac) < 1e-3 * scale:
                    good = False
        if not good:
            continue
        if size == 4:
            matrix = np.array(
                [
                    [fx**3, -3 * fx * fx * fy, -3 * fx * fy * fy, fy**3]
                    for fx, fy in grads
                ]
            )
            if np.linalg.cond(matrix) > 1e6:
                continue
        webs.append((funcs, point))
    assert len(webs) == count, f"could only build {len(webs)} webs"
    return webs


@st.composite
def monotone_relabelings(draw):
    """Phi(t) = a t + b t^3 + c exp(d t) + s sin(t), increasing since
    a > |s| and b, c, d >= 0, as a function of a formula."""
    a = draw(st.floats(0.5, 4.0))
    b, c = draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))
    d = draw(st.floats(0.0, 1.0))
    s = draw(st.floats(-0.45, 0.45))
    return lambda f: a * f + b * f**3 + c * Call("exp", d * f) + s * Call("sin", f)


@pytest.fixture
def rng():
    return random.Random(20240817)
