"""The scalar walk, the reference for `random_shapes.random_walk_polyline`.

`reference_walk_polyline` draws every vertex with three scalar
`Generator.random()` calls and finds its fan triangle by a running sum over
the triangles' areas.  The library draws the same uniforms in arrays, so
both must give the same walk bit for bit, the same `DegeneracyError`, and
leave the generator in the same state.
"""

from __future__ import annotations

import numpy as np

from konvex.errors import DegeneracyError, PreconditionError
from konvex.geometry import ConvexPolygon, Polyline
from konvex.random_shapes import GRID, _rng


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


def reference_walk_polyline(
    seed_or_rng,
    polygon: ConvexPolygon,
    n_segments: int,
    closed: bool = False,
    redraws: list[str] | None = None,
) -> Polyline:
    """Chain of uniform interior points, drawn one scalar at a time.  Each
    redraw is recorded in `redraws`, when given: "repeat" for a point equal
    to its predecessor, "first" for a ring's last vertex equal to its first."""
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
                if redraws is not None:
                    redraws.append("repeat")
                continue
            if closed and len(verts) == count - 1 and p == verts[0]:
                if redraws is not None:
                    redraws.append("first")
                continue
            break
        else:
            raise DegeneracyError("could not draw a new walk vertex on the 1e-9 grid")
        verts.append(p)
    xs, ys = zip(*verts)
    return Polyline.from_grid(GRID, xs, ys, closed=closed)
