"""The numpy star ring, the reference for `random_shapes.random_star_ring`.

`reference_star_ring` draws the ring with numpy arrays for the angles and
one scalar `Generator.uniform` call per radius, and finds each ray's exit
distance edge by edge.  The library draws the same numbers in scalar Python
floats, so both must give the same ring bit for bit, the same
`DegeneracyError`, and leave the generator in the same state.
"""

from __future__ import annotations

import math

import numpy as np

from konvex.errors import DegeneracyError
from konvex.geometry import ConvexPolygon, Polyline, _turns_both_ways
from konvex.random_shapes import GRID, _rng


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


def reference_star_ring(
    seed_or_rng,
    polygon: ConvexPolygon,
    n_vertices: int = 10,
    spiky: bool = True,
) -> Polyline:
    """Simple closed ring, star-shaped around the polygon centroid, drawn
    with numpy arrays."""
    rng = _rng(seed_or_rng)
    cx, cy = polygon.centroid()
    edges = _outward_edges(polygon)
    for _ in range(64):
        gaps = rng.uniform(0.5, 1.5, n_vertices)
        angles = rng.uniform(0.0, 2.0 * math.pi) + np.concatenate(
            [[0.0], np.cumsum(gaps[:-1])]
        ) * (2.0 * math.pi / gaps.sum())
        if np.min(np.diff(angles, append=angles[0] + 2 * math.pi)) < 1e-3:
            continue
        snapped: list[tuple[int, int]] = []
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
