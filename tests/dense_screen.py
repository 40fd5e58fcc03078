"""The oracle's dense screen, the reference for its direction-bucket screen.

`dense_screened_lines` is the line-by-vertex screen that
`stabbing._screened_lines` replaced: it draws the same random lines, takes
each line's offset over the extent of all float projections, and counts
every line with `stabbing._screen`.  The bucket screen must give the same
lines bit for bit and the same counts.
"""

from __future__ import annotations

import math

import numpy as np

from konvex import stabbing
from konvex.geometry import Polyline


def dense_screened_lines(poly: Polyline, trials: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The oracle's random lines, one (nx, ny, c) row each, and their screen
    counts, every line projected onto every vertex."""
    rng = np.random.default_rng(seed)
    pts = stabbing._float_points(poly)
    lines = np.empty((trials, 3))
    counts = np.empty(trials, dtype=np.int64)
    step = max(1, stabbing._SCREEN_ENTRIES // len(pts))
    for start in range(0, trials, stabbing._SCREEN_CHUNK):
        k = min(trials - start, stabbing._SCREEN_CHUNK)
        theta = rng.uniform(0.0, math.pi, k)
        u = rng.random(k)
        nx, ny = np.cos(theta), np.sin(theta)
        for lo in range(0, k, step):
            part = slice(lo, min(lo + step, k))
            rows = slice(start + part.start, start + part.stop)
            proj = np.multiply.outer(nx[part], pts[:, 0])
            proj += np.multiply.outer(ny[part], pts[:, 1])
            low, high = proj.min(axis=1), proj.max(axis=1)
            # the offset uniform over [low, high), exactly as Generator.uniform draws it
            lines[rows] = np.column_stack([nx[part], ny[part], low + (high - low) * u[part]])
            counts[rows] = stabbing._screen(poly, pts, lines[rows], proj)
    return lines, counts
