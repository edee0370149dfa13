"""Machine-speed calibration for the job timings.

On a shared machine the speed of one vCPU drifts by 20-40% over tens of
seconds (measured with a fixed loop: CPU time moves with wall time, so the
drift is slower execution, not lost time slices).  That drift is larger
than any bound worth setting, so every job time the benchmark reports is
scaled by a calibration kernel measured right next to it:

    reported = measured * NOMINAL_S / kernel time nearby

The kernel is fixed code of the benchmark's own, not webgeo's, and mimics
webgeo's profile: a small expression-tree walk over truncated bivariate
Taylor tables, with nested Python float loops, small numpy arrays and
finiteness checks.  Its ratio to webgeo job times holds within a few
percent while both drift together.  NOMINAL_S is about the kernel's median
time on the reference machine of baseline/BASELINE.md (over 30 s there:
0.54 ms at p10, 0.68 ms median, 0.97 ms at p90), so reported times read as
seconds on that machine at its usual speed.  Unscaled times are printed in
the run summary.

Set-up time is measured in fresh interpreters, where this kernel runs cold
and does not track the machine's speed.  It is scaled instead by a
reference interpreter run just before and just after each probe, which
imports argparse and numpy and formats a parser's help but never touches
webgeo:

    reported = measured * SETUP_NOMINAL_S / median(reference times)

On the reference machine this cut the spread of single probes from 16% to
7%.
"""

from __future__ import annotations

import math
import time

import numpy as np

#: Kernel time on the reference machine, in seconds.  Changing it rescales
#: every reported time, so it stays fixed once a baseline is recorded.
NOMINAL_S = 0.0007

#: Reference interpreter time on the reference machine (median 0.157 s),
#: in seconds.  Fixed like NOMINAL_S.
SETUP_NOMINAL_S = 0.15

#: The reference interpreter's code: import-heavy start-up work of the same
#: kind as webgeo's, without webgeo.
SETUP_REFERENCE_CODE = """
import time
t0 = time.perf_counter()
import argparse, numpy
argparse.ArgumentParser(prog="reference").format_help()
print(time.perf_counter() - t0)
"""

_N = 2  # truncation order of the tables
_POINTS = 6  # tree walks per kernel run

_TREE = ("add", ("mul", "x", ("exp", ("mul", 0.5, "y"))), ("div", "y", ("add", 1.5, "x")))


def _table(value, dx=0.0, dy=0.0):
    rows = [[0.0] * (_N + 1) for _ in range(_N + 1)]
    rows[0][0], rows[1][0], rows[0][1] = value, dx, dy
    return _finish(rows)


def _finish(rows):
    arr = np.array(rows)
    if not np.isfinite(arr).all():
        raise ArithmeticError("non-finite calibration table")
    return arr


def _mul(a, b):
    la, lb = a.tolist(), b.tolist()
    out = [[0.0] * (_N + 1) for _ in range(_N + 1)]
    for p in range(_N + 1):
        for q in range(_N + 1 - p):
            apq = la[p][q]
            for i in range(p, _N + 1):
                row = out[i]
                for j in range(q, _N + 1 - i):
                    row[j] += apq * lb[i - p][j - q]
    return _finish(out)


def _div(a, b):
    lb = b.tolist()
    b00 = lb[0][0]
    inv = [[0.0] * (_N + 1) for _ in range(_N + 1)]
    inv[0][0] = 1.0 / b00
    for d in range(1, _N + 1):
        for i in range(d + 1):
            s = 0.0
            for p in range(i + 1):
                for q in range(d - i + 1):
                    if p or q:
                        s -= lb[p][q] * inv[i - p][d - i - q]
            inv[i][d - i] = s / b00
    return _mul(a, _finish(inv))


def _exp(a):
    u = float(a[0, 0])
    h = np.array(a)
    h[0, 0] = 0.0
    acc = _table(math.exp(u) / 2.0)
    for k in (1, 0):
        acc = _mul(acc, _finish(h))
        acc = np.array(acc)
        acc[0, 0] += math.exp(u) / math.factorial(k)
    return _finish(acc)


def _walk(node, x, y):
    if isinstance(node, float):
        return _table(node)
    if isinstance(node, str):
        return x if node == "x" else y
    op = node[0]
    if op == "exp":
        return _exp(_walk(node[1], x, y))
    left, right = _walk(node[1], x, y), _walk(node[2], x, y)
    if op == "add":
        return _finish(left + right)
    if op == "mul":
        return _mul(left, right)
    return _div(left, right)


def kernel() -> float:
    """The fixed calibration work; returns a checksum."""
    total = 0.0
    for k in range(_POINTS):
        x0, y0 = 0.3 + 0.1 * k, 0.7 - 0.05 * k
        total += float(_walk(_TREE, _table(x0, 1.0), _table(y0, 0.0, 1.0))[1, 1])
    return total


def sample() -> float:
    """Seconds the kernel takes now."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
