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


def _outward_edges(polygon: ConvexPolygon) -> list[tuple[float, float, float, float]]:
    """(ax, ay, nx, ny) per edge: its first vertex and its outward normal."""
    ring = polygon.float_ring()
    edges = []
    for i in range(len(ring)):
        ax, ay = ring[i]
        bx, by = ring[(i + 1) % len(ring)]
        edges.append((ax, ay, by - ay, -(bx - ax)))  # outward normal of a ccw edge
    return edges


def _ray_exit_distance(
    edges: list[tuple[float, float, float, float]],
    origin: tuple[float, float],
    direction: tuple[float, float],
) -> float:
    """Distance from an interior point to the boundary along a unit direction."""
    ox, oy = origin
    ux, uy = direction
    best = math.inf
    for ax, ay, nx, ny in edges:
        denom = nx * ux + ny * uy
        if denom <= 1e-15:
            continue
        t = (nx * (ax - ox) + ny * (ay - oy)) / denom
        if t >= 0:
            best = min(best, t)
    return best


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
    """
    rng = _rng(seed_or_rng)
    cx, cy = polygon.centroid()
    edges = _outward_edges(polygon)
    for _ in range(64):
        # controlled angular gaps: all below pi, so every edge stays inside
        # its wedge and the ring is simple by construction
        gaps = rng.uniform(0.5, 1.5, n_vertices)
        angles = rng.uniform(0.0, 2.0 * math.pi) + np.concatenate(
            [[0.0], np.cumsum(gaps[:-1])]
        ) * (2.0 * math.pi / gaps.sum())
        if np.min(np.diff(angles, append=angles[0] + 2 * math.pi)) < 1e-3:
            continue
        snapped: list[tuple[int, int]] = []  # vertices on the grid, times GRID
        for k, theta in enumerate(angles):
            u = (math.cos(theta), math.sin(theta))
            reach = _ray_exit_distance(edges, (cx, cy), u)
            if spiky:
                f = rng.uniform(0.75, 0.92) if k % 2 == 0 else rng.uniform(0.15, 0.3)
            else:
                f = rng.uniform(0.55, 0.9)
            r = f * reach
            snapped.append((round((cx + r * u[0]) * GRID), round((cy + r * u[1]) * GRID)))
        if len(set(snapped)) != len(snapped):
            continue
        xs, ys = zip(*snapped)
        ring = Polyline.from_grid(GRID, xs, ys, closed=True)
        if spiky and not _turns_both_ways(ring):
            continue
        return ring
    raise DegeneracyError("could not generate a star ring")

