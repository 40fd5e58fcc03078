"""Deterministic SVG rendering of bodies, curves and lines.

Output is byte-identical for identical input: all numbers print through one
9-significant-digit format, there are no timestamps, and elements render in
input order.  Infinite lines are clipped to the 10%-padded bounding box of
the scene's point geometry.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .errors import KonvexError, ParseError, PreconditionError
from .formats import line_from_dict, parse_polygon, parse_polyline
from .geometry import ConvexPolygon, Line, Polyline

_CURVE_COLORS = ("#c0392b", "#2471a3", "#1e8449", "#9b59b6", "#d68910")
_LINE_COLOR = "#566573"
_BODY_FILL = "#eef2f5"
_BODY_EDGE = "#2c3e50"


def _fmt(x: float) -> str:
    out = f"{x:.9g}"
    return "0" if out == "-0" else out


@dataclass
class SceneDocument:
    """What to draw: an optional body, labelled curves and lines, annotations."""

    body: ConvexPolygon | None = None
    curves: list[tuple[str, Polyline]] = field(default_factory=list)
    lines: list[tuple[str, Line]] = field(default_factory=list)
    annotations: list[tuple[float, float, str]] = field(default_factory=list)

    def __post_init__(self):
        labels = [label for label, _ in self.curves] + [label for label, _ in self.lines]
        if len(labels) != len(set(labels)):
            raise PreconditionError("scene labels must be unique")

    def is_empty(self) -> bool:
        return self.body is None and not self.curves and not self.lines


def _label(entry: dict, default: str) -> str:
    label = entry.get("label", default)
    if not isinstance(label, str):
        raise ParseError(f"scene labels must be strings, got {label!r}")
    return label


def load_scene(path: str | Path) -> SceneDocument:
    """Scene description: JSON with optional 'body' (polygon file), 'curves'
    [{file, label}], 'lines' [{nx, ny, c, label}], 'annotations' [{at, text}].
    Labels are strings.  File references resolve relative to the scene file.
    An unreadable file or a malformed entry raises ParseError."""
    path = Path(path)
    base = path.parent
    try:
        doc = json.loads(path.read_text())
        body = parse_polygon((base / doc["body"]).read_text()) if doc.get("body") else None
        curves = [
            (_label(entry, f"curve{i}"), parse_polyline((base / entry["file"]).read_text()))
            for i, entry in enumerate(doc.get("curves", []))
        ]
        lines = [
            (_label(entry, f"line{i}"), line_from_dict(entry))
            for i, entry in enumerate(doc.get("lines", []))
        ]
        annotations = [
            (float(a["at"][0]), float(a["at"][1]), str(a["text"]))
            for a in doc.get("annotations", [])
        ]
        if not all(math.isfinite(x) and math.isfinite(y) for x, y, _ in annotations):
            raise ParseError("annotation coordinates must be finite")
    except KonvexError:
        raise
    except json.JSONDecodeError as exc:
        raise ParseError(f"scene is not valid JSON: {exc}") from exc
    except OSError as exc:
        raise ParseError(f"cannot read {exc.filename}: {exc.strerror}") from exc
    except (LookupError, TypeError, AttributeError, ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"malformed scene: {type(exc).__name__}: {exc}") from exc
    return SceneDocument(body, curves, lines, annotations)


def _scene_box(scene: SceneDocument) -> tuple[float, float, float, float]:
    xs: list[float] = []
    ys: list[float] = []
    if scene.body is not None:
        for x, y in scene.body.float_ring():
            xs.append(x)
            ys.append(y)
    for _, curve in scene.curves:
        for x, y in curve.float_vertices():
            xs.append(x)
            ys.append(y)
    for x, y, _ in scene.annotations:
        xs.append(x)
        ys.append(y)
    if not xs:
        # lines only: center the frame on each line's closest point to the origin
        for _, line in scene.lines:
            nx, ny, c = line.unit()
            xs += [c * nx - 1.0, c * nx + 1.0]
            ys += [c * ny - 1.0, c * ny + 1.0]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    pad = 0.1 * max(x1 - x0, y1 - y0, 1e-9)
    return (x0 - pad, y0 - pad, x1 + pad, y1 + pad)


def _clip_line(line: Line, box: tuple[float, float, float, float]):
    """Intersection of an infinite line with the clip box, as two endpoints."""
    x0, y0, x1, y1 = box
    nx, ny, c = line.unit()
    px, py = c * nx, c * ny  # closest point to origin
    dx, dy = -ny, nx
    t_lo, t_hi = -math.inf, math.inf
    for p, d, lo, hi in ((px, dx, x0, x1), (py, dy, y0, y1)):
        if abs(d) < 1e-15:
            if not lo <= p <= hi:
                return None
            continue
        ta, tb = (lo - p) / d, (hi - p) / d
        if ta > tb:
            ta, tb = tb, ta
        t_lo, t_hi = max(t_lo, ta), min(t_hi, tb)
    if t_lo >= t_hi:
        return None
    return ((px + t_lo * dx, py + t_lo * dy), (px + t_hi * dx, py + t_hi * dy))


def render_svg(scene: SceneDocument) -> str:
    """Standalone SVG document for the scene."""
    if scene.is_empty():
        raise PreconditionError("refusing to render an empty scene")
    box = _scene_box(scene)
    x0, y0, x1, y1 = box
    width, height = x1 - x0, y1 - y0
    scale = 640.0 / max(width, height)

    def sx(x: float) -> str:
        return _fmt((x - x0) * scale)

    def sy(y: float) -> str:
        return _fmt((y1 - y) * scale)  # flip: world y grows upward

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width * scale)}" '
        f'height="{_fmt(height * scale)}" viewBox="0 0 {_fmt(width * scale)} {_fmt(height * scale)}">',
    ]
    if scene.body is not None:
        pts = " ".join(f"{sx(x)},{sy(y)}" for x, y in scene.body.float_ring())
        out.append(
            f'<polygon points="{pts}" fill="{_BODY_FILL}" stroke="{_BODY_EDGE}" stroke-width="1.5"/>'
        )
    for _, line in scene.lines:
        clipped = _clip_line(line, box)
        if clipped is None:
            continue
        (ax, ay), (bx, by) = clipped
        out.append(
            f'<line x1="{sx(ax)}" y1="{sy(ay)}" x2="{sx(bx)}" y2="{sy(by)}" '
            f'stroke="{_LINE_COLOR}" stroke-width="1" stroke-dasharray="6 3"/>'
        )
    for idx, (label, curve) in enumerate(scene.curves):
        color = _CURVE_COLORS[idx % len(_CURVE_COLORS)]
        pts = [f"{sx(x)},{sy(y)}" for x, y in curve.float_vertices()]
        if curve.closed:
            pts.append(pts[0])
        out.append(
            f'<polyline points="{" ".join(pts)}" fill="none" stroke="{color}" '
            f'stroke-width="1.2"><title>{_escape(label)}</title></polyline>'
        )
    for x, y, text in scene.annotations:
        out.append(
            f'<text x="{sx(x)}" y="{sy(y)}" font-family="monospace" font-size="12" '
            f'fill="#17202a">{_escape(text)}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def emit_svg(scene: SceneDocument, path: str | Path) -> None:
    Path(path).write_text(render_svg(scene))
