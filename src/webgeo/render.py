"""Serialization and drawing: level-curve tracing, SVG output, JSON reports.

Leaves are level curves; they are traced as polylines by fixed-step 4-stage
integration of the unit field (f_y, -f_x)/|grad f|, which follows a level
set exactly up to the integrator's truncation error.  Tracing rather than
marching squares keeps each leaf a single smooth, ordered polyline.

Reports serialize to JSON with a fixed top-level schema and stable key
order, indented by two spaces, with every key written as str(key) and
every string escaped to ASCII (\\uXXXX); floats use the shortest
representation that round-trips, so a re-parsed report reproduces every
numeric field exactly.  NaN or infinite values are replaced by the strings
"nan"/"inf"/"-inf", and then "degenerate": true is written as the last
top-level key, which only such a report has.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

from .exprlang import EvaluationError, _gradient_function, as_expression, evaluate

#: Gradient norms below this (times 1 + |x| + |y|) refuse to seed a trace.
SEED_DEGENERACY_COEFF = 1e-10

#: Most steps a trace takes in each direction from its seed.
MAX_LEAF_STEPS = 20000

#: Most leaf points the CLI's `render` traces over all its leaves; past
#: it the run writes no SVG.  A million points take about 170 MB while
#: they are traced and drawn.
MAX_RENDER_POINTS = 1_000_000

#: The SVG canvas in pixels, and the blank margin around the domain.
SVG_WIDTH, SVG_HEIGHT, SVG_MARGIN = 640, 480, 16.0

_PALETTE = (
    "#1b9e77",
    "#d95f02",
    "#7570b3",
    "#e7298a",
    "#66a61e",
    "#e6ab02",
    "#a6761d",
    "#666666",
)


@dataclass(frozen=True)
class Rect:
    """Axis-aligned clip rectangle with finite bounds."""

    xmin: float
    xmax: float
    ymin: float
    ymax: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.xmin, self.xmax, self.ymin, self.ymax))):
            raise ValueError("rectangle bounds must be finite")
        if not (self.xmax > self.xmin and self.ymax > self.ymin):
            raise ValueError("rectangle must have positive extent")

    def contains(self, point) -> bool:
        x, y = point
        return self.xmin <= x <= self.xmax and self.ymin <= y <= self.ymax

    def as_dict(self) -> dict:
        return {
            "xmin": self.xmin,
            "xmax": self.xmax,
            "ymin": self.ymin,
            "ymax": self.ymax,
        }


@dataclass(frozen=True)
class LeafPolyline:
    """One traced (or generated) leaf of a foliation."""

    foliation_index: int
    level: float
    points: tuple[tuple[float, float], ...]

    def __init__(self, foliation_index, level, points):
        pts = tuple((float(p[0]), float(p[1])) for p in points)
        if not pts:
            raise ValueError("a leaf polyline needs at least one point")
        object.__setattr__(self, "foliation_index", int(foliation_index))
        object.__setattr__(self, "level", float(level))
        object.__setattr__(self, "points", pts)

    def __len__(self):
        return len(self.points)


class _Degenerate(Exception):
    """The gradient vanishes (relative to the point) where a trace steps."""


def trace_level_curve(
    f,
    seed,
    domain: Rect,
    step: float = 1e-3,
    foliation_index: int = 0,
) -> LeafPolyline:
    """Trace the level curve of f through `seed` inside `domain`.

    The polyline runs in both directions from the seed until it leaves the
    rectangle, closes a loop (the seed is then appended again so closed
    leaves end where they start), or has taken MAX_LEAF_STEPS steps in
    that direction.  Raises ValueError for a step that is not finite and
    positive.
    """
    if not (math.isfinite(step) and step > 0.0):
        raise ValueError(f"step must be a finite positive number, got {step!r}")
    f = as_expression(f)
    seed = (float(seed[0]), float(seed[1]))
    if not domain.contains(seed):
        raise ValueError(f"seed {seed} lies outside the domain rectangle")
    gradient = _gradient_function(f)
    hypot = math.hypot
    _, fx, fy = gradient(*seed)
    norm = hypot(fx, fy)
    if norm <= SEED_DEGENERACY_COEFF * (1.0 + abs(seed[0]) + abs(seed[1])):
        raise ValueError(f"degenerate seed {seed}: |grad f| = {norm!r}")
    level = evaluate(f, seed)

    def velocity(x, y, sign):
        _, fx, fy = gradient(x, y)
        norm = hypot(fx, fy)
        if norm <= SEED_DEGENERACY_COEFF * (1.0 + abs(x) + abs(y)):
            raise _Degenerate
        return sign * fy / norm, sign * -fx / norm

    half, sixth = 0.5 * step, step / 6.0
    near, far = 0.9 * step, 2.0 * step
    xmin, xmax, ymin, ymax = domain.xmin, domain.xmax, domain.ymin, domain.ymax
    seed_x, seed_y = seed

    def march(sign):
        points = [seed]
        x, y = seed
        closed = False
        escaped_seed = False
        for _ in range(MAX_LEAF_STEPS):
            try:
                k1x, k1y = velocity(x, y, sign)
                k2x, k2y = velocity(x + half * k1x, y + half * k1y, sign)
                k3x, k3y = velocity(x + half * k2x, y + half * k2y, sign)
                k4x, k4y = velocity(x + step * k3x, y + step * k3y, sign)
            except (_Degenerate, EvaluationError):
                break
            x = x + sixth * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
            y = y + sixth * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
            if not (xmin <= x <= xmax and ymin <= y <= ymax):
                break
            gap = hypot(x - seed_x, y - seed_y)
            if not escaped_seed and gap > far:
                escaped_seed = True
            if escaped_seed and gap < near:
                points.append(seed)
                closed = True
                break
            points.append((x, y))
        return points, closed

    forward, closed = march(+1.0)
    if closed:
        return LeafPolyline(foliation_index, level, forward)
    backward, _ = march(-1.0)
    combined = list(reversed(backward[1:])) + forward
    return LeafPolyline(foliation_index, level, combined)


def render_svg(leaves, domain: Rect) -> str:
    """Standalone SVG 1.1 document with one path element per leaf.

    Output is deterministic for identical input: coordinates are formatted
    with fixed precision and leaves are emitted in the order given.  Each
    foliation index i is drawn in colour i mod 8 of a fixed palette, with
    a stroke 1.2 pixels wide.
    """
    leaves = list(leaves)
    if not leaves:
        raise ValueError("no leaves to render")

    x0, y0 = domain.xmin, domain.ymin
    sx = (SVG_WIDTH - 2.0 * SVG_MARGIN) / (domain.xmax - x0)
    sy = (SVG_HEIGHT - 2.0 * SVG_MARGIN) / (domain.ymax - y0)
    top = SVG_HEIGHT - SVG_MARGIN

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{SVG_WIDTH}" height="{SVG_HEIGHT}" viewBox="0 0 {SVG_WIDTH} {SVG_HEIGHT}">',
    ]
    for leaf in leaves:
        color = _PALETTE[leaf.foliation_index % len(_PALETTE)]
        path_data = "M " + " L ".join([
            f"{SVG_MARGIN + (x - x0) * sx:.4f} {top - (y - y0) * sy:.4f}"
            for x, y in leaf.points
        ])
        lines.append(
            f'<path d="{path_data}" fill="none" stroke="{color}" '
            'stroke-width="1.2"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def compose_report(
    command: str,
    inputs: dict,
    grid: dict | None,
    results,
    warnings=None,
    notes=None,
) -> dict:
    """Assemble the fixed-schema analysis record."""
    return {
        "command": command,
        "inputs": inputs,
        "grid": grid,
        "results": results,
        "warnings": list(warnings or []),
        "notes": list(notes or []),
    }


def _non_finite(value) -> bool:
    """Whether a NaN or infinite float lies in `value` or the dicts,
    lists and tuples nested in it."""
    if isinstance(value, float):
        return not math.isfinite(value)
    if isinstance(value, dict):
        value = value.values()
    elif not isinstance(value, (list, tuple)):
        return False
    return any(map(_non_finite, value))


def write_report(report: dict) -> str:
    """Serialize an analysis record to JSON text in one walk.

    The text is ``json.dumps(record, indent=2)`` of the record with every
    key converted by str() and every NaN or infinite float replaced by
    "nan", "inf" or "-inf"; after such a float, "degenerate": true is the
    last top-level key (or replaces an existing "degenerate" value).  Key
    order is the record's own, so identical records give identical bytes.
    A value of any other type raises the TypeError that json raises.
    """
    chunks = []
    degenerate = False

    def put(value, pad):
        nonlocal degenerate
        if isinstance(value, float):
            text = float.__repr__(value)
            if "n" in text:  # nan, inf, -inf: no finite repr has an n
                degenerate = True
                text = f'"{text}"'
            chunks.append(text)
        elif isinstance(value, str):
            chunks.append(encode_basestring_ascii(value))
        elif isinstance(value, (list, tuple)):
            if not value:
                chunks.append("[]")
                return
            inner = pad + "  "
            try:
                text = ("," + inner).join(map(float.__repr__, value))
            except TypeError:
                text = "n"  # not all floats
            if "n" not in text:
                chunks.append(f"[{inner}{text}{pad}]")
                return
            chunks.append("[")
            sep = inner
            for item in value:
                chunks.append(sep)
                put(item, inner)
                sep = "," + inner
            chunks.append(pad + "]")
        elif isinstance(value, dict):
            put_items(value, pad)
        elif value is True:
            chunks.append("true")
        elif value is False:
            chunks.append("false")
        elif value is None:
            chunks.append("null")
        elif isinstance(value, int):
            chunks.append(int.__repr__(value))
        else:
            raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")

    def put_items(d, pad):
        """Write dict `d`; return the chunk span of the value of its
        "degenerate" key, or None."""
        nonlocal degenerate
        if not d:
            chunks.append("{}")
            return None
        inner = pad + "  "
        span = None
        sep = "{" + inner
        mark = len(chunks)
        for key, value in d.items():
            if type(key) is not str:
                # Keys become str(key) and a later duplicate wins; a
                # non-finite float in the value it replaces still counts.
                del chunks[mark:]
                keyed = {}
                for k, v in d.items():
                    k = str(k)
                    if k in keyed and _non_finite(keyed[k]):
                        degenerate = True
                    keyed[k] = v
                return put_items(keyed, pad)
            chunks.append(f"{sep}{encode_basestring_ascii(key)}: ")
            start = len(chunks)
            put(value, inner)
            if key == "degenerate":
                span = (start, len(chunks))
            sep = "," + inner
        chunks.append(pad + "}")
        return span

    span = put_items(report, "\n")
    if degenerate:
        if span is None:
            chunks.insert(-1, ',\n  "degenerate": true')
        else:
            chunks[span[0] : span[1]] = ["true"]
    chunks.append("\n")
    return "".join(chunks)


def write_csv_grid(samples) -> str:
    """CSV text for residual samples: x,y,raw,normalized,degenerate."""
    rows = ["x,y,raw,normalized,degenerate"]
    for s in samples:
        normalized = "nan" if s.degenerate else repr(s.normalized)
        rows.append(
            f"{s.point[0]!r},{s.point[1]!r},{s.raw!r},{normalized},"
            f"{'true' if s.degenerate else 'false'}"
        )
    return "\n".join(rows) + "\n"
