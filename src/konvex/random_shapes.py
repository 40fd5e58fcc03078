"""Seeded random geometry generators used by the falsification harness and tests.

All outputs are snapped to a 1e-9 decimal grid so files stay readable and
every generated coordinate is an exact short decimal.  Walks and star rings
keep each vertex as a pair of ints on that grid, (round(x·GRID),
round(y·GRID)), from the draw to the returned `Polyline.from_grid`: redraws
compare ints, and no Fraction or Point is made.  Generators accept an
integer seed or a numpy Generator and are deterministic for a fixed seed.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import DegeneracyError, PreconditionError
from .geometry import ConvexPolygon, Point, Polyline, _turns_both_ways, convex_hull

GRID = 10**9


def snap(value: float) -> Fraction:
    """Round to the 1e-9 grid, returning an exact rational."""
    return Fraction(round(value * GRID), GRID)


def snap_point(x: float, y: float) -> Point:
    return Point(snap(x), snap(y))


def _rng(seed_or_rng) -> np.random.Generator:
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


def random_convex_polygon(
    seed_or_rng,
    n_vertices: int = 20,
    scale: float = 1.0,
    center: tuple[float, float] = (0.0, 0.0),
) -> ConvexPolygon:
    """Random strictly convex polygon with about n_vertices vertices.

    Vertex directions are generated by pairing shuffled x and y increments
    whose totals vanish, sorted by angle; the resulting ring is convex by
    construction.  Snapping can create collinear triples, so the ring is
    passed through the strict hull before returning.
    """
    rng = _rng(seed_or_rng)
    if n_vertices < 3:
        raise DegeneracyError("need at least 3 vertices")
    for _ in range(32):
        xs = np.sort(rng.random(n_vertices))
        ys = np.sort(rng.random(n_vertices))
        dx = _chain_increments(rng, xs)
        dy = _chain_increments(rng, ys)
        rng.shuffle(dy)
        order = np.argsort(np.arctan2(dy, dx))
        px = np.cumsum(dx[order])
        py = np.cumsum(dy[order])
        px -= (px.max() + px.min()) / 2.0
        py -= (py.max() + py.min()) / 2.0
        span = max(px.max() - px.min(), py.max() - py.min())
        if span <= 0:
            continue
        f = scale / span
        pts = [
            snap_point(center[0] + f * x, center[1] + f * y) for x, y in zip(px, py)
        ]
        try:
            hull = convex_hull(pts)
        except DegeneracyError:
            continue
        if len(hull) >= min(n_vertices, 5) or len(hull) >= 3 and n_vertices < 5:
            return hull
    raise DegeneracyError("could not generate a convex polygon")


def _chain_increments(rng: np.random.Generator, sorted_vals: np.ndarray) -> np.ndarray:
    """Split sorted values into two monotone chains; return signed increments
    that sum to zero."""
    lo, hi = sorted_vals[0], sorted_vals[-1]
    up: list[float] = []
    down: list[float] = []
    last_up, last_down = lo, lo
    for v in sorted_vals[1:-1]:
        if rng.random() < 0.5:
            up.append(v - last_up)
            last_up = v
        else:
            down.append(last_down - v)
            last_down = v
    up.append(hi - last_up)
    down.append(last_down - hi)
    return np.array(up + down)


def _fan(polygon: ConvexPolygon) -> tuple[list[tuple[float, float]], list[float], float]:
    """The float ring, the areas of its fan triangles from vertex 0, and their sum."""
    ring = polygon.float_ring()
    x0, y0 = ring[0]
    areas = []
    for i in range(1, len(ring) - 1):
        x1, y1 = ring[i]
        x2, y2 = ring[i + 1]
        areas.append(abs((x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0)))
    return ring, areas, sum(areas)


def _sample_fan(
    rng: np.random.Generator, fan: tuple[list[tuple[float, float]], list[float], float]
) -> tuple[float, float]:
    ring, areas, total = fan
    x0, y0 = ring[0]
    pick = rng.random() * total
    idx = 1
    acc = 0.0
    for i, a in enumerate(areas, start=1):
        acc += a
        if pick <= acc:
            idx = i
            break
    x1, y1 = ring[idx]
    x2, y2 = ring[idx + 1]
    u, v = rng.random(), rng.random()
    if u + v > 1.0:
        u, v = 1.0 - u, 1.0 - v
    return (x0 + u * (x1 - x0) + v * (x2 - x0), y0 + u * (y1 - y0) + v * (y2 - y0))


def random_walk_polyline(
    seed_or_rng, polygon: ConvexPolygon, n_segments: int, closed: bool = False
) -> Polyline:
    """Chain of uniform interior points; stays inside by convexity.

    An open walk draws n_segments + 1 vertices, a closed one n_segments.
    A snapped point equal to its predecessor (or, as a ring's last vertex,
    to the first) is redrawn, at most 64 times in a row.
    """
    if closed and n_segments < 3:
        raise PreconditionError("a closed walk needs at least 3 segments")
    rng = _rng(seed_or_rng)
    fan = _fan(polygon)
    count = n_segments if closed else n_segments + 1
    verts: list[tuple[int, int]] = []  # on the grid, times GRID
    while len(verts) < count:
        for _ in range(64):
            x, y = _sample_fan(rng, fan)
            p = (round(x * GRID), round(y * GRID))
            if verts and p == verts[-1]:
                continue
            if closed and len(verts) == count - 1 and p == verts[0]:
                continue
            break
        else:
            raise DegeneracyError("could not draw a new walk vertex on the 1e-9 grid")
        verts.append(p)
    xs, ys = zip(*verts)
    return Polyline.from_grid(GRID, xs, ys, closed=closed)


def _exit_edges(polygon: ConvexPolygon, cx: float, cy: float) -> list[tuple[float, float, float]]:
    """(nx, ny, h) per edge: its outward normal and the height
    nx·(ax - cx) + ny·(ay - cy) of its first vertex a over the point (cx, cy)."""
    ring = polygon.float_ring()
    edges = []
    for (ax, ay), (bx, by) in zip(ring, ring[1:] + ring[:1]):
        nx, ny = by - ay, -(bx - ax)  # outward normal of a ccw edge
        edges.append((nx, ny, nx * (ax - cx) + ny * (ay - cy)))
    return edges


def _exit_distance(edges: list[tuple[float, float, float]], ux: float, uy: float) -> float:
    """Distance from the interior point of `_exit_edges` to the boundary
    along the unit direction (ux, uy)."""
    best = math.inf
    for nx, ny, h in edges:
        denom = nx * ux + ny * uy
        if denom > 1e-15:
            t = h / denom
            if 0 <= t < best:
                best = t
    return best


# radius fractions of a spiky ring's even and odd vertices, and of a smooth one's
_SPIKY_BANDS = ((0.75, 0.92), (0.15, 0.3))
_SMOOTH_BAND = (0.55, 0.9)


def random_star_ring(
    seed_or_rng,
    polygon: ConvexPolygon,
    n_vertices: int = 10,
    spiky: bool = True,
) -> Polyline:
    """Simple closed ring, star-shaped around the polygon centroid.

    With spiky=True radii alternate between a deep and a shallow band, which
    forces pronounced reflex vertices (useful as non-convex prop-1 inputs and
    as high-multiplicity falsification curves).

    A ring is drawn in scalar Python floats, with the numbers of the numpy
    array form bit for bit.  Three steps stay numpy: the n angular gaps
    `rng.uniform(0.5, 1.5, n)`, the start angle, and `gaps.sum()`, which
    numpy adds pairwise, so a Python sum could round differently.  The
    angles are a running sum, as `np.cumsum` adds in sequence.  The n radius
    fractions come from one `rng.random(n)` as lo + (hi - lo)·f, which is how
    a scalar `rng.uniform(lo, hi)` computes each, from the same stream.
    """
    rng = _rng(seed_or_rng)
    cx, cy = polygon.centroid()
    edges = _exit_edges(polygon, cx, cy)
    bands = _SPIKY_BANDS if spiky else (_SMOOTH_BAND,)
    for _ in range(64):
        # controlled angular gaps: all below pi, so every edge stays inside
        # its wedge and the ring is simple by construction
        gaps = rng.uniform(0.5, 1.5, n_vertices)
        start = rng.uniform(0.0, 2.0 * math.pi)
        scale = float(2.0 * math.pi / gaps.sum())
        angles = [start]
        run = 0.0
        for gap in gaps[:-1].tolist():
            run += gap
            angles.append(start + run * scale)
        ends = angles[1:] + [start + 2 * math.pi]
        if min(b - a for a, b in zip(angles, ends)) < 1e-3:
            continue
        fractions = rng.random(n_vertices).tolist()
        snapped: list[tuple[int, int]] = []  # vertices on the grid, times GRID
        for k, theta in enumerate(angles):
            ux, uy = math.cos(theta), math.sin(theta)
            lo, hi = bands[k % len(bands)]
            r = (lo + (hi - lo) * fractions[k]) * _exit_distance(edges, ux, uy)
            snapped.append((round((cx + r * ux) * GRID), round((cy + r * uy) * GRID)))
        if len(set(snapped)) != len(snapped):
            continue
        xs, ys = zip(*snapped)
        ring = Polyline.from_grid(GRID, xs, ys, closed=True)
        if spiky and not _turns_both_ways(ring):
            continue
        return ring
    raise DegeneracyError("could not generate a star ring")
