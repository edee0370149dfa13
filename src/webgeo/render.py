"""Serialization and drawing: level-curve tracing, SVG output, JSON reports.

Leaves are level curves; they are traced as polylines by fixed-step 4-stage
integration of the unit field (f_y, -f_x)/|grad f|, which follows a level
set exactly up to the integrator's truncation error.  Tracing rather than
marching squares keeps each leaf a single smooth, ordered polyline.

Reports serialize to JSON with a fixed top-level schema and stable key
order; floats use the shortest representation that round-trips, so a
re-parsed report reproduces every numeric field exactly.  NaN or infinite
values are replaced by the strings "nan"/"inf"/"-inf" and flagged.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .exprlang import EvaluationError, as_expression, evaluate, evaluate_gradient

#: Gradient norms below this (times 1 + |x| + |y|) refuse to seed a trace.
SEED_DEGENERACY_COEFF = 1e-10

#: Most leaves drawn per foliation: `generate_linear_web`'s leaves and
#: the CLI's `render --levels`.
MAX_LEAVES = 10_000

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
        if not (self.xmax > self.xmin and self.ymax > self.ymin):
            raise ValueError("rectangle must have positive extent")
        if not all(map(math.isfinite, (self.xmin, self.xmax, self.ymin, self.ymax))):
            raise ValueError("rectangle bounds must be finite")

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


def _unit_leaf_direction(f, point):
    _, fx, fy = evaluate_gradient(f, point)
    norm = math.hypot(fx, fy)
    return fx, fy, norm


def trace_level_curve(
    f,
    seed,
    domain: Rect,
    step: float = 1e-3,
    max_points: int = 20000,
    foliation_index: int = 0,
) -> LeafPolyline:
    """Trace the level curve of f through `seed` inside `domain`.

    The polyline runs in both directions from the seed until it leaves the
    rectangle, closes a loop (the seed is then appended again so closed
    leaves end where they start), or reaches `max_points` per direction.
    Raises ValueError for a step that is not finite and positive.
    """
    if not (math.isfinite(step) and step > 0.0):
        raise ValueError(f"step must be a finite positive number, got {step!r}")
    f = as_expression(f)
    seed = (float(seed[0]), float(seed[1]))
    if not domain.contains(seed):
        raise ValueError(f"seed {seed} lies outside the domain rectangle")
    fx, fy, norm = _unit_leaf_direction(f, seed)
    if norm <= SEED_DEGENERACY_COEFF * (1.0 + abs(seed[0]) + abs(seed[1])):
        raise ValueError(f"degenerate seed {seed}: |grad f| = {norm!r}")
    level = evaluate(f, seed)

    def velocity(point, sign):
        fx, fy, norm = _unit_leaf_direction(f, point)
        if norm <= SEED_DEGENERACY_COEFF * (1.0 + abs(point[0]) + abs(point[1])):
            return None
        return (sign * fy / norm, sign * -fx / norm)

    def march(sign):
        points = [seed]
        current = seed
        closed = False
        escaped_seed = False
        for _ in range(max_points):
            try:
                k1 = velocity(current, sign)
                if k1 is None:
                    break
                p2 = (current[0] + 0.5 * step * k1[0], current[1] + 0.5 * step * k1[1])
                k2 = velocity(p2, sign)
                if k2 is None:
                    break
                p3 = (current[0] + 0.5 * step * k2[0], current[1] + 0.5 * step * k2[1])
                k3 = velocity(p3, sign)
                if k3 is None:
                    break
                p4 = (current[0] + step * k3[0], current[1] + step * k3[1])
                k4 = velocity(p4, sign)
                if k4 is None:
                    break
            except EvaluationError:
                break
            nxt = (
                current[0] + step / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]),
                current[1] + step / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]),
            )
            if not domain.contains(nxt):
                break
            gap = math.hypot(nxt[0] - seed[0], nxt[1] - seed[1])
            if not escaped_seed and gap > 2.0 * step:
                escaped_seed = True
            if escaped_seed and gap < 0.9 * step:
                points.append(seed)
                closed = True
                break
            points.append(nxt)
            current = nxt
        return points, closed

    forward, closed = march(+1.0)
    if closed:
        return LeafPolyline(foliation_index, level, forward)
    backward, _ = march(-1.0)
    combined = list(reversed(backward[1:])) + forward
    return LeafPolyline(foliation_index, level, combined)


def render_svg(
    leaves,
    domain: Rect,
    style: dict | None = None,
) -> str:
    """Standalone SVG 1.1 document with one path element per leaf.

    Output is deterministic for identical input: coordinates are formatted
    with fixed precision and leaves are emitted in the order given.
    `style` may map a foliation index to {"color": ..., "width": ...}.
    """
    leaves = list(leaves)
    if not leaves:
        raise ValueError("no leaves to render")
    style = style or {}

    sx = (SVG_WIDTH - 2.0 * SVG_MARGIN) / (domain.xmax - domain.xmin)
    sy = (SVG_HEIGHT - 2.0 * SVG_MARGIN) / (domain.ymax - domain.ymin)

    def viewport(point):
        px = SVG_MARGIN + (point[0] - domain.xmin) * sx
        py = SVG_HEIGHT - SVG_MARGIN - (point[1] - domain.ymin) * sy
        return px, py

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{SVG_WIDTH}" height="{SVG_HEIGHT}" viewBox="0 0 {SVG_WIDTH} {SVG_HEIGHT}">',
    ]
    for leaf in leaves:
        entry = style.get(leaf.foliation_index, {})
        color = entry.get("color", _PALETTE[leaf.foliation_index % len(_PALETTE)])
        stroke = entry.get("width", 1.2)
        coords = [viewport(p) for p in leaf.points]
        parts = [f"M {coords[0][0]:.4f} {coords[0][1]:.4f}"]
        parts.extend(f"L {px:.4f} {py:.4f}" for px, py in coords[1:])
        path_data = " ".join(parts)
        lines.append(
            f'<path d="{path_data}" fill="none" stroke="{color}" '
            f'stroke-width="{stroke}"/>'
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


def _sanitize(value, flag):
    if isinstance(value, float):
        if math.isnan(value):
            flag["degenerate"] = True
            return "nan"
        if math.isinf(value):
            flag["degenerate"] = True
            return "inf" if value > 0 else "-inf"
        return value
    if isinstance(value, dict):
        return {str(k): _sanitize(v, flag) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(v, flag) for v in value]
    return value


def write_report(report: dict) -> str:
    """Serialize an analysis record to JSON text.

    Key order follows the record's own (insertion) order, so identical
    records give byte-identical output; non-finite floats are replaced by
    strings and a top-level "degenerate" flag is set.
    """
    flag = {"degenerate": False}
    sanitized = _sanitize(report, flag)
    if flag["degenerate"]:
        sanitized["degenerate"] = True
    return json.dumps(sanitized, indent=2, allow_nan=False) + "\n"


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
