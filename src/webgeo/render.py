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

from .exprlang import EvaluationError, _gradient_function, _Walker, as_expression

#: Gradient norms below this (times 1 + |x| + |y|) refuse to seed a trace.
SEED_DEGENERACY_COEFF = 1e-10

#: Most steps a trace takes in each direction from its seed.
MAX_LEAF_STEPS = 20000

#: Most leaf points the CLI's `render` traces over all its leaves; past
#: it the run writes no SVG.  A million points take about 155 MB at the
#: peak while they are traced and drawn, of which the leaves hold 112 MB.
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


def _leaf(foliation_index: int, level: float, points) -> LeafPolyline:
    """The leaf of the (float, float) tuples `points` that a trace made,
    without the per-point copy of LeafPolyline's constructor."""
    leaf = object.__new__(LeafPolyline)
    object.__setattr__(leaf, "foliation_index", int(foliation_index))
    object.__setattr__(leaf, "level", float(level))
    object.__setattr__(leaf, "points", tuple(points))
    return leaf


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
    that direction.  A step also ends the leaf where a stage's gradient
    cannot be evaluated or is degenerate: |grad f| at most
    SEED_DEGENERACY_COEFF * (1 + |x| + |y|).  The leaf's level is the
    checked value of f at the seed.  Raises ValueError for a step that is
    not finite and positive, a seed outside the domain or a degenerate
    seed, and EvaluationError where the seed's gradient or value fails.
    """
    if not (math.isfinite(step) and step > 0.0):
        raise ValueError(f"step must be a finite positive number, got {step!r}")
    f = as_expression(f)
    seed = (float(seed[0]), float(seed[1]))
    if not domain.contains(seed):
        raise ValueError(f"seed {seed} lies outside the domain rectangle")
    gradient = _gradient_function(f)
    hypot = math.hypot
    coeff = SEED_DEGENERACY_COEFF
    _, fx, fy = gradient(*seed)
    norm = hypot(fx, fy)
    if norm <= coeff * (1.0 + abs(seed[0]) + abs(seed[1])):
        raise ValueError(f"degenerate seed {seed}: |grad f| = {norm!r}")
    level = _Walker(*seed).value(f, None)

    half, sixth = 0.5 * step, step / 6.0
    near, far = 0.9 * step, 2.0 * step
    xmin, xmax, ymin, ymax = domain.xmin, domain.xmax, domain.ymin, domain.ymax
    seed_x, seed_y = seed
    # Every stage point lies within one step of the domain, so a norm above
    # `floor`, twice the largest threshold there (a margin for rounding),
    # passes the degeneracy test without the point's own threshold.
    reach_x, reach_y = max(abs(xmin), abs(xmax)), max(abs(ymin), abs(ymax))
    floor = 2.0 * coeff * (1.0 + reach_x + reach_y + 2.0 * step)

    def march(sign):
        points = [seed]
        x, y = seed
        escaped_seed = False
        try:
            for _ in range(MAX_LEAF_STEPS):
                _, fx, fy = gradient(x, y)
                norm = hypot(fx, fy)
                if norm <= floor and norm <= coeff * (1.0 + abs(x) + abs(y)):
                    break
                k1x, k1y = sign * fy / norm, sign * -fx / norm
                px, py = x + half * k1x, y + half * k1y
                _, fx, fy = gradient(px, py)
                norm = hypot(fx, fy)
                if norm <= floor and norm <= coeff * (1.0 + abs(px) + abs(py)):
                    break
                k2x, k2y = sign * fy / norm, sign * -fx / norm
                px, py = x + half * k2x, y + half * k2y
                _, fx, fy = gradient(px, py)
                norm = hypot(fx, fy)
                if norm <= floor and norm <= coeff * (1.0 + abs(px) + abs(py)):
                    break
                k3x, k3y = sign * fy / norm, sign * -fx / norm
                px, py = x + step * k3x, y + step * k3y
                _, fx, fy = gradient(px, py)
                norm = hypot(fx, fy)
                if norm <= floor and norm <= coeff * (1.0 + abs(px) + abs(py)):
                    break
                k4x, k4y = sign * fy / norm, sign * -fx / norm
                x = x + sixth * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
                y = y + sixth * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
                if not (xmin <= x <= xmax and ymin <= y <= ymax):
                    break
                gap = hypot(x - seed_x, y - seed_y)
                if not escaped_seed and gap > far:
                    escaped_seed = True
                if escaped_seed and gap < near:
                    points.append(seed)
                    return points, True
                points.append((x, y))
        except EvaluationError:
            pass
        return points, False

    forward, closed = march(+1.0)
    if closed:
        return _leaf(foliation_index, level, forward)
    backward, _ = march(-1.0)
    return _leaf(foliation_index, level, backward[:0:-1] + forward)


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
            "%.4f %.4f" % (SVG_MARGIN + (x - x0) * sx, top - (y - y0) * sy)
            for x, y in leaf.points
        ])
        lines.append(
            f'<path d="{path_data}" fill="none" stroke="{color}" '
            'stroke-width="1.2"/>'
        )
    lines.append("</svg>\n")
    return "\n".join(lines)


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
