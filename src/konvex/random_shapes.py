"""Seeded random geometry generators used by the falsification harness and tests.

All outputs are snapped to a 1e-9 decimal grid so files stay readable and
every generated coordinate is an exact short decimal.  Walks and star rings
keep each vertex as a pair of ints on that grid, (round(x·GRID),
round(y·GRID)), from the draw to the returned `Polyline.from_grid`: redraws
compare ints, and no Fraction or Point is made.  Generators accept an
integer seed or a numpy Generator and are deterministic for a fixed seed.
A body's walk fan and star frame are computed once and stored on it.
`trial_streams` gives falsify's per-trial streams, in the states of
`np.random.default_rng([seed, t])`, seeded a batch of trials at a time.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from typing import Iterator

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


# NumPy's SeedSequence (a pool of four uint32 words) and PCG64 seeding
_SS_INIT_A, _SS_MULT_A = 0x43B0D7E5, 0x931E8875
_SS_INIT_B, _SS_MULT_B = 0x8B51F9DD, 0x58F38DED
_SS_MIX_L, _SS_MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG64_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MASK128 = (1 << 128) - 1
_SEED_CHUNK = 1024  # trials seeded per batch


def trial_streams(seed: int, trials: int) -> Iterator[np.random.Generator]:
    """For t = 0, ..., trials - 1, a Generator in the state that
    `np.random.default_rng([seed, t])` starts in, for an int seed >= 0.

    The states are computed a batch of trials at a time (`_pcg64_states`),
    and one Generator is set to each in turn: a caller is done with a
    trial's stream when it takes the next."""
    rng = np.random.Generator(np.random.PCG64())  # its own state is replaced
    # chunks start at multiples of _SEED_CHUNK, which divides 2^32, so the
    # trials of a chunk all have the same number of 32-bit words
    for start in range(0, trials, _SEED_CHUNK):
        for state in _pcg64_states(seed, range(start, min(trials, start + _SEED_CHUNK))):
            rng.bit_generator.state = state
            yield rng


def _uint32_words(n: int) -> list[int]:
    """The 32-bit words of an int n >= 0, least significant first, as
    SeedSequence splits its entropy (0 is one word)."""
    words = [n & 0xFFFFFFFF]
    while n := n >> 32:
        words.append(n & 0xFFFFFFFF)
    return words


def _hash_constants(init: int, mult: int, calls: int) -> tuple[np.ndarray, np.ndarray]:
    """The multipliers of SeedSequence's successive hash calls, as columns:
    each call xors in its running constant, multiplies the constant by
    `mult` and multiplies the word by the result."""
    xors, mults = [], []
    for _ in range(calls):
        xors.append(init)
        init = init * mult & 0xFFFFFFFF
        mults.append(init)
    return np.array(xors, np.uint32)[:, None], np.array(mults, np.uint32)[:, None]


def _hashed(words: np.ndarray, xors: np.ndarray, mults: np.ndarray) -> np.ndarray:
    words = words ^ xors
    words *= mults
    words ^= words >> 16
    return words


def _mixed(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    x = _SS_MIX_L * x - _SS_MIX_R * y
    x ^= x >> 16
    return x


def _pcg64_states(seed: int, trials: range) -> list[dict]:
    """The `bit_generator.state` of `np.random.default_rng([seed, t])` for
    each t in trials, whose values must all have the same number of 32-bit
    words.

    SeedSequence hashes the entropy words (the seed's, then t's) into a
    pool of four words, mixes every pool word into every other, mixes in
    any words beyond four, and draws eight words from the pool
    (`generate_state(4, uint64)`, low word first).  Its hash constants do
    not depend on the data, so the pools of all trials are hashed at once,
    one uint32 row per pool word and one column per trial; a row's three
    updates from one source word are independent and run as one.  PCG64
    then seeds its 128-bit state from the words in Python ints."""
    seed_rows = [[word] * len(trials) for word in _uint32_words(seed)]
    entropy = np.array(seed_rows + list(zip(*map(_uint32_words, trials))), np.uint32)
    xors, mults = _hash_constants(_SS_INIT_A, _SS_MULT_A, 16 + 4 * max(0, len(entropy) - 4))
    pool = np.zeros((4, len(trials)), np.uint32)
    pool[: len(entropy)] = entropy[:4]
    pool = _hashed(pool, xors[:4], mults[:4])
    for src in range(4):
        dst = [i for i in range(4) if i != src]
        k = 4 + 3 * src
        pool[dst] = _mixed(pool[dst], _hashed(pool[src], xors[k : k + 3], mults[k : k + 3]))
    for k, word in enumerate(entropy[4:], start=4):
        pool = _mixed(pool, _hashed(word, xors[4 * k : 4 * k + 4], mults[4 * k : 4 * k + 4]))
    words = _hashed(np.concatenate([pool, pool]), *_hash_constants(_SS_INIT_B, _SS_MULT_B, 8))
    words = words.astype(np.uint64)
    states = []
    for s_hi, s_lo, i_hi, i_lo in (words[0::2] | words[1::2] << 32).T.tolist():
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128
        states.append({
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        })
    return states


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


def _walk_fan(polygon: ConvexPolygon) -> tuple[float, float, float, list[float], list[tuple]]:
    """The walks' fan from vertex 0, stored on the polygon on first use:
    that vertex (x0, y0), the sum of the fan triangles' doubled areas, their
    running sums, and each triangle's two edge vectors from (x0, y0)."""
    if polygon._walk_fan is None:
        ring = polygon.float_ring()
        x0, y0 = ring[0]
        areas, ends, edges = [], [], []
        acc = 0.0
        for (x1, y1), (x2, y2) in zip(ring[1:-1], ring[2:]):
            area = abs((x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0))
            areas.append(area)
            acc += area
            ends.append(acc)
            edges.append((x1 - x0, y1 - y0, x2 - x0, y2 - y0))
        object.__setattr__(polygon, "_walk_fan", (x0, y0, sum(areas), ends, edges))
    return polygon._walk_fan


def random_walk_polyline(
    seed_or_rng, polygon: ConvexPolygon, n_segments: int, closed: bool = False
) -> Polyline:
    """Chain of uniform interior points; stays inside by convexity.

    An open walk draws n_segments + 1 vertices, a closed one n_segments.
    Each vertex takes three uniforms: the first picks a triangle of the
    body's fan from its vertex 0 by area (the first whose running area sum
    reaches it), and u, v place the point x0 + u·e1 + v·e2 in it, reflected
    to 1 - u, 1 - v when u + v > 1.  A snapped point equal to its
    predecessor (or, as a ring's last vertex, to the first) is redrawn, at
    most 64 times in a row.  The uniforms come as one `rng.random(3·k)` for
    the k vertices still wanted, capped by the redraws left, and again only
    after a redraw.  So every number, and the generator's final state, is
    that of three scalar `rng.random()` calls per drawn point.
    """
    if closed and n_segments < 3:
        raise PreconditionError("a closed walk needs at least 3 segments")
    rng = _rng(seed_or_rng)
    x0, y0, total, ends, edges = _walk_fan(polygon)
    count = n_segments if closed else n_segments + 1
    verts: list[tuple[int, int]] = []  # on the grid, times GRID
    redraws = 0
    while len(verts) < count:
        draws = rng.random(3 * min(count - len(verts), 64 - redraws)).tolist()
        for k in range(0, len(draws), 3):
            pick, u, v = draws[k : k + 3]
            i = bisect_left(ends, pick * total)
            # a pick beyond the last running sum (`sum` may round otherwise)
            # takes the first triangle, as the scalar loop did
            ex1, ey1, ex2, ey2 = edges[i] if i < len(edges) else edges[0]
            if u + v > 1.0:
                u, v = 1.0 - u, 1.0 - v
            p = (round((x0 + u * ex1 + v * ex2) * GRID), round((y0 + u * ey1 + v * ey2) * GRID))
            if (verts and p == verts[-1]) or (
                closed and len(verts) == count - 1 and p == verts[0]
            ):
                redraws += 1
                if redraws == 64:
                    raise DegeneracyError("could not draw a new walk vertex on the 1e-9 grid")
                continue
            redraws = 0
            verts.append(p)
    xs, ys = zip(*verts)
    return Polyline.from_grid(GRID, xs, ys, closed=closed)


def _star_frame(polygon: ConvexPolygon) -> tuple[float, float, list[tuple[float, float, float]]]:
    """The star rings' centre, the polygon's centroid (cx, cy), and its
    exit edges: (nx, ny, h) per edge, its outward normal and the height
    nx·(ax - cx) + ny·(ay - cy) of its first vertex a over the centre.
    Stored on the polygon on first use."""
    if polygon._star_frame is None:
        cx, cy = polygon.centroid()
        ring = polygon.float_ring()
        edges = []
        for (ax, ay), (bx, by) in zip(ring, ring[1:] + ring[:1]):
            nx, ny = by - ay, -(bx - ax)  # outward normal of a ccw edge
            edges.append((nx, ny, nx * (ax - cx) + ny * (ay - cy)))
        object.__setattr__(polygon, "_star_frame", (cx, cy, edges))
    return polygon._star_frame


def _exit_distance(edges: list[tuple[float, float, float]], ux: float, uy: float) -> float:
    """Distance from the centre of `_star_frame` to the boundary
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
    cx, cy, edges = _star_frame(polygon)
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
