"""Construction of long curves that no line meets more than r times.

The curve winds n = floor(r/2) times just inside the body's boundary as a
chain of nested strictly convex loops.  Each loop is opened by skipping a
small arc fraction near a common angular sector, and the next loop passes
exactly through the previous loop's stopping vertex, so a line can meet
each loop at most twice: the whole chain stays within the budget r = 2n.

For odd r the innermost loop stops just short of one endpoint of a
near-diameter chord, and a slightly bowed arc runs down that chord.  Any
line meeting the bow twice is nearly parallel to the chord and therefore
passes through the innermost loop's opening, trading one loop crossing
for the two arc crossings: 2n + 1 = r total.

None of this is trusted: every result's multiplicity is certified as the
exact maximum over all lines by the paper's own argument, checked on grid
ints (`_certify`: 2 per strictly convex loop run, at odd r the exact sweep
of the innermost loop and the tail, met by one exact gap line), and by the
whole-curve sweep where that bound does not close.  Construction parameters
are re-tuned and re-jittered on failure up to max_retries.

Samples, rings, runs, junctions and the odd tail are int pairs on the 1e-9
snap grid, X = round(x·GRID), the value `random_shapes.snap` makes.  Every
decision (the hull, the junction lookup, the farthest vertex, the bowed
arc's side and checks, the curve's containment in the body) is a sign or a
comparison of ints, and the curve is built as `Polyline.from_grid`.  Lengths
and directions read the float views X/GRID, the bits of `Point.xy` of the
snapped points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import ConstructionError, DegeneracyError, PreconditionError
from .geometry import (
    INTERIOR,
    RIGHT,
    ConvexPolygon,
    Polyline,
    _centroid,
    _classify,
    _convex_run,
    _float_length,
    _hull_indices,
    _inside,
    _turn,
    diameter,
    perimeter,
    polyline_length,
    s_bound,
)
from .random_shapes import GRID
from .stabbing import (
    METHOD_RUNS,
    METHOD_SWEEP,
    MultiplicityReport,
    _gap_replay,
    _sweep_best,
    _witness,
    _witness_gaps,
    max_line_multiplicity,
)

_MIN_SAMPLES = 8
_INSET_FLOOR = 1e-7
_GAP = 0.01  # arc fraction removed from each loop at the common sector

GridPoint = tuple[int, int]  # (X, Y) = (round(x·GRID), round(y·GRID))


def _snap(x: float, y: float) -> GridPoint:
    """The point (x, y) rounded to the 1e-9 grid, as `random_shapes.snap`."""
    return round(x * GRID), round(y * GRID)


def _floats(points: Sequence[GridPoint]) -> list[tuple[float, float]]:
    """Float views (X/GRID, Y/GRID): int true division rounds correctly, so
    these are the bits of `Point.xy` of the snapped points."""
    return [(x / GRID, y / GRID) for x, y in points]


def _grid_hull(points: Sequence[GridPoint]) -> list[GridPoint]:
    """Counterclockwise convex hull of grid points (`_hull_indices`), with the
    ring order and the DegeneracyErrors of `convex_hull`."""
    xs, ys = zip(*points)
    return [points[i] for i in _hull_indices(xs, ys)]


@dataclass(frozen=True)
class ConstructionParams:
    """Tuning knobs for the extremal curve builder.

    n = r // 2 loops are built; eps is the admissible length slack below the
    threshold s(K, r); m is the number of samples per loop.
    """

    r: int
    eps: float
    m: int = 256
    seed: int = 0
    max_retries: int = 16

    def __post_init__(self):
        if self.r < 2:
            raise PreconditionError("multiplicity budget r must be at least 2")
        if not 0 < self.eps < math.inf:
            raise PreconditionError("eps must be positive and finite")
        if self.m < _MIN_SAMPLES:
            raise PreconditionError(f"need at least {_MIN_SAMPLES} samples per loop")
        if self.max_retries < 1:
            raise PreconditionError("max_retries must be at least 1")
        if self.seed < 0:
            raise PreconditionError("seed must be non-negative")

    @property
    def n_loops(self) -> int:
        return self.r // 2


@dataclass(frozen=True)
class ConstructionResult:
    curve: Polyline
    achieved_length: float
    multiplicity: MultiplicityReport
    target: float
    retries_used: int
    params: ConstructionParams


def _offset_polygon(
    base: ConvexPolygon, depth: float
) -> list[tuple[float, float]] | None:
    """Inner parallel polygon: every edge moved inward by depth, corners
    mitered.  None when the offset degenerates (depth too large)."""
    ring = base.float_ring()
    n = len(ring)
    lines = []
    for i in range(n):
        (ax, ay), (bx, by) = ring[i], ring[(i + 1) % n]
        dx, dy = bx - ax, by - ay
        length = math.hypot(dx, dy)
        nx, ny = -dy / length, dx / length  # inward normal of a ccw edge
        lines.append((nx, ny, nx * ax + ny * ay + depth))
    verts = []
    for i in range(n):
        n1x, n1y, c1 = lines[i - 1]
        n2x, n2y, c2 = lines[i]
        det = n1x * n2y - n1y * n2x
        if abs(det) < 1e-14:
            return None
        verts.append(((c1 * n2y - c2 * n1y) / det, (n1x * c2 - n2x * c1) / det))
    for i in range(n):
        ax, ay = verts[i]
        bx, by = verts[(i + 1) % n]
        cx, cy = verts[(i + 2) % n]
        if (bx - ax) * (cy - by) - (by - ay) * (cx - bx) <= 0:
            return None
    return verts


def _sample_offset(
    verts: list[tuple[float, float]], m: int, start_vertex: int
) -> list[tuple[tuple[float, float], int, float]]:
    """m equal-arc samples of an offset polygon starting at one of its
    vertices; each sample carries (point, edge index, edge parameter)."""
    n = len(verts)
    order = [(start_vertex + k) % n for k in range(n)]
    lengths = [
        math.dist(verts[order[k]], verts[order[(k + 1) % n]]) for k in range(n)
    ]
    cum = np.concatenate([[0.0], np.cumsum(lengths)])
    positions = np.arange(m) * (cum[-1] / m)
    edges = np.minimum(np.searchsorted(cum, positions, side="right") - 1, n - 1)
    samples = []
    for pos, k, start in zip(positions.tolist(), edges.tolist(), cum[edges].tolist()):
        t = (pos - start) / lengths[k]
        (ax, ay) = verts[order[k]]
        (bx, by) = verts[order[(k + 1) % n]]
        samples.append(((ax + t * (bx - ax), ay + t * (by - ay)), order[k], t))
    return samples


def _turn_angles(verts: list[tuple[float, float]]) -> list[float]:
    n = len(verts)
    turns = []
    for i in range(n):
        (ax, ay), (bx, by), (cx, cy) = verts[i - 1], verts[i], verts[(i + 1) % n]
        a1 = math.atan2(by - ay, bx - ax)
        a2 = math.atan2(cy - by, cx - bx)
        turns.append((a2 - a1) % (2.0 * math.pi))
    return turns


def _inset_ring(
    base: ConvexPolygon,
    depth: float,
    m: int,
    rng: np.random.Generator,
    through: GridPoint | None = None,
    anchor_vertex: int = 0,
    nesting_step: float | None = None,
    attempts: int = 8,
) -> list[GridPoint]:
    """Strictly convex ring of m samples hugging the inner offset at `depth`.

    Samples sit on the inward parallel polygon and dip further inward by a
    convex per-edge bump profile (amplitude at most depth/8), so consecutive
    triples turn strictly left by construction; a straight offset edge alone
    would leave collinear samples.  A tiny per-vertex jitter bounded by the
    local convexity margin keeps vertex triples generic.  `through` adds one
    prescribed outer vertex (a junction); the strict hull then drops the few
    samples it shadows.  Returns the ring's grid points, counterclockwise.
    """
    if depth <= 0:
        raise PreconditionError("inset depth must be positive")
    offset = _offset_polygon(base, depth)
    if offset is None:
        raise DegeneracyError("inset depth too large for this body")
    samples = _sample_offset(offset, m, anchor_vertex)
    turns = _turn_angles(offset)
    edge_len = [
        math.dist(offset[i], offset[(i + 1) % len(offset)]) for i in range(len(offset))
    ]
    ring_f = base.float_ring()
    n_edges = len(ring_f)
    normals = []
    for i in range(n_edges):
        (ax, ay), (bx, by) = ring_f[i], ring_f[(i + 1) % n_edges]
        length = math.hypot(bx - ax, by - ay)
        normals.append((-(by - ay) / length, (bx - ax) / length))

    amp_cap = depth / 8.0
    if nesting_step is not None:
        amp_cap = min(amp_cap, nesting_step / 4.0)
    for i in range(n_edges):
        theta = min(turns[i], turns[(i + 1) % n_edges])
        amp_cap_edge = theta * edge_len[i] / (16.0)
        # a single global cap keeps the profile analysis uniform
        amp_cap = min(amp_cap, max(amp_cap_edge, depth / 64.0))

    sines = [math.sin(math.pi * t) for _, _, t in samples]
    spacing = (math.pi / max(m, 1)) ** 2
    for _ in range(attempts):
        amps = (rng.uniform(0.35, 1.0, n_edges) * amp_cap).tolist()
        # outward sine bump: vanishes at the edge ends, so the profile
        # height depth - bump is convex along each edge and continuous
        # across corners; the corner turn supplies the rest.
        margins = [0.125 * amps[edge] * sine * spacing for (_, edge, _), sine in zip(samples, sines)]
        # one jitter draw per positive margin, in sample order: the numbers
        # of one scalar draw per such sample
        jitter = iter(rng.uniform(0.0, [v for v in margins if v > 0]).tolist())
        pts: list[GridPoint] = []
        for ((x, y), edge, _), sine, margin in zip(samples, sines, margins):
            bump = amps[edge] * sine
            bump += next(jitter) if margin > 0 else 0.0
            nx, ny = normals[edge]
            pts.append(_snap(x - bump * nx, y - bump * ny))
        if through is not None:
            pts.append(through)
        try:
            ring = _grid_hull(pts)
        except DegeneracyError:
            continue
        if len(ring) < _ring_floor(m):
            continue
        if through is not None and through not in ring:
            continue
        return ring
    raise DegeneracyError("could not build a strictly convex inset ring")


def _ring_floor(m: int) -> int:
    """Fewest vertices `_inset_ring` accepts in a ring of m samples."""
    return max(_MIN_SAMPLES, m // 4)


def _arc_walk(
    verts: list[tuple[float, float]], start_idx: int, arc_budget: float, direction: int = 1
) -> list[int]:
    """Vertex indices from start_idx along the ring of float views `verts`
    (direction +1 ccw, -1 cw) until the arc budget runs out."""
    n = len(verts)
    out = [start_idx]
    walked = 0.0
    for step in range(1, n):
        a = verts[(start_idx + direction * (step - 1)) % n]
        b_idx = (start_idx + direction * step) % n
        walked += math.dist(a, verts[b_idx])
        if walked > arc_budget:
            break
        out.append(b_idx)
    return out


def _anchor_index(verts: list[tuple[float, float]], direction: tuple[float, float]) -> int:
    """Vertex of the ring of float views `verts` whose direction from the
    centroid best matches `direction`."""
    cx, cy = _centroid(verts)
    best, best_dot = 0, -math.inf
    norm = math.hypot(*direction)
    ux, uy = direction[0] / norm, direction[1] / norm
    for idx, (x, y) in enumerate(verts):
        r = math.hypot(x - cx, y - cy)
        if r == 0:
            continue
        dot = ((x - cx) * ux + (y - cy) * uy) / r
        if dot > best_dot:
            best, best_dot = idx, dot
    return best


def _bowed_arc(
    a: GridPoint,
    b: GridPoint,
    toward: GridPoint,
    bow: float,
    m: int,
) -> list[GridPoint]:
    """Strictly convex arc from a to b, bulging toward `toward` by a sine
    bump of height bow; includes both endpoints."""
    (ax, ay), (bx, by) = _floats((a, b))
    chord = math.dist((ax, ay), (bx, by))
    if chord == 0:
        raise PreconditionError("arc endpoints coincide")
    side = _turn(*zip(a, b, toward), 0, 1, 2)
    nx, ny = -(by - ay) / chord, (bx - ax) / chord
    if side == RIGHT:
        nx, ny = -nx, -ny
    pts = [a]
    for i in range(1, m):
        t = i / m
        h = bow * math.sin(math.pi * t)
        pts.append(_snap(ax + t * (bx - ax) + h * nx, ay + t * (by - ay) + h * ny))
    pts.append(b)
    return pts


def _chain_loops(
    body: ConvexPolygon,
    params: ConstructionParams,
    rng: np.random.Generator,
    inset: float,
    gap: float,
    n_loops: int,
    anchor_idx: int,
    anchor_dir: tuple[float, float],
) -> tuple[list[list[GridPoint]], list[list[GridPoint]], list[int]]:
    """Nested rings plus their opened traversals, chained through junctions.

    Ring j sits at depth j * inset inside the body; run j starts at the
    junction vertex shared with run j-1, and the skipped arc of each ring
    sits just before its start, in the sector of the anchor corner (where
    the body's own turning keeps junction hull shadows short).
    """
    rings: list[list[GridPoint]] = []
    opens: list[list[GridPoint]] = []
    starts: list[int] = []
    junction: GridPoint | None = None
    for j in range(1, n_loops + 1):
        ring = _inset_ring(
            body,
            j * inset,
            params.m,
            rng,
            through=junction,
            anchor_vertex=anchor_idx,
            nesting_step=inset,
        )
        n = len(ring)
        verts = _floats(ring)
        p_ring = _float_length(verts, closed=True)
        corner_idx = _anchor_index(verts, anchor_dir)
        if junction is None:
            # start at the anchor corner; the run then stops one gap arc
            # short of it, safely off the corner diagonal, so the next
            # ring's junction has one short (corner-side) tangent
            start_idx = corner_idx
            direction = 1
        else:
            start_idx = ring.index(junction)
            # go along the longer adjacent hull edge first: the short one is
            # the corner-side tangent of the junction, which the skipped arc
            # should cover
            e_ccw = math.dist(verts[start_idx], verts[(start_idx + 1) % n])
            e_cw = math.dist(verts[start_idx], verts[(start_idx - 1) % n])
            direction = 1 if e_ccw >= e_cw else -1
        run = _arc_walk(verts, start_idx, (1.0 - gap) * p_ring, direction)
        # a stop on or next to the corner apex would leave the next junction
        # with two long tangents; back off until clearly off the diagonal
        while len(run) > 3:
            offset = (run[-1] - corner_idx) % n
            if min(offset, n - offset) <= 1 and run[-1] != start_idx:
                run.pop()
            else:
                break
        if len(run) < 3:
            raise DegeneracyError("opened loop too short")
        rings.append(ring)
        opens.append([ring[k] for k in run])
        starts.append(start_idx)
        junction = opens[-1][-1]
    return rings, opens, starts


def _assemble(opens: list[list[GridPoint]]) -> tuple[list[GridPoint], list[int]]:
    """The runs joined at their shared junctions, and the index where each
    run starts, then where the last one ends: run j is bounds[j]..bounds[j + 1]."""
    verts = list(opens[0])
    bounds = [0, len(verts) - 1]
    for run in opens[1:]:
        assert run[0] == verts[-1]
        verts.extend(run[1:])
        bounds.append(len(verts) - 1)
    return verts, bounds


def _gap_anchor(body: ConvexPolygon) -> tuple[int, tuple[float, float]]:
    """Common sector: the first diameter endpoint, as (ring index, direction
    from the centroid)."""
    _, da, _ = diameter(body)
    idx = body.ring.index(da)
    cx, cy = body.centroid()
    x, y = da.xy
    direction = (x - cx, y - cy)
    if direction == (0.0, 0.0):
        direction = (1.0, 0.0)
    return idx, direction


def _farthest_vertex(ring: list[GridPoint], origin: GridPoint) -> GridPoint:
    """The first ring vertex at the largest squared grid distance from origin."""
    ox, oy = origin
    return max(ring, key=lambda v: (v[0] - ox) ** 2 + (v[1] - oy) ** 2)


def _check_arc(inner: list[GridPoint], arc: list[GridPoint], triangle_apex: GridPoint) -> None:
    """Interior arc vertices must sit strictly inside the inner ring and
    strictly inside the triangle (apex, far end, stop), and the arc with its
    chord must be strictly convex (`_convex_run`), so no 3 of its vertices
    are collinear.  Decided on the grid ints of the ring, the arc and its
    apex."""
    xs, ys = (list(c) for c in zip(*arc, triangle_apex))
    # the ring, with one free slot at the end for the vertex to classify
    ring_x, ring_y = (list(c) + [0] for c in zip(*inner))
    a, b, t = 0, len(arc) - 1, len(arc)
    for p in range(1, b):
        ring_x[-1], ring_y[-1] = arc[p]
        if _classify(ring_x, ring_y) != INTERIOR:
            raise DegeneracyError("arc leaves the inner ring")
        if not (
            _turn(xs, ys, a, b, p) == _turn(xs, ys, a, b, t)
            and _turn(xs, ys, b, t, p) == _turn(xs, ys, b, t, a)
            and _turn(xs, ys, t, a, p) == _turn(xs, ys, t, a, b)
        ):
            raise DegeneracyError("arc leaves its guard triangle")
    if not _convex_run(xs, ys, a, b):
        raise DegeneracyError("arc is not strictly convex")


def _odd_tail(
    inner: list[GridPoint], stop: GridPoint, start_idx: int, m: int
) -> list[GridPoint]:
    """Bowed arc from the innermost loop's stop to the inner ring vertex
    farthest from it, bulging toward the loop's start vertex; the stop
    itself, which ends the loops, is left out."""
    far = _farthest_vertex(inner, stop)
    start_vertex = inner[start_idx]
    bow = max(math.dist(*_floats((stop, start_vertex))) / 12.0, 1e-6)
    arc = _bowed_arc(stop, far, start_vertex, bow, max(16, m // 8))
    _check_arc(inner, arc, start_vertex)
    return arc[1:]


def _certify(curve: Polyline, bounds: list[int], r: int) -> MultiplicityReport:
    """The curve's maximum multiplicity over all lines, an exact replay.

    The curve's pieces are its loop runs (bounds[j]..bounds[j + 1], as
    `_assemble` joined them) and, at odd r, the innermost run with the tail.
    A run that `_convex_run` passes meets every line at most twice, and the
    innermost run with the tail is swept exactly.  Each component of
    line ∩ curve contains a component of line ∩ piece for some piece, so the
    pieces' counts sum to a bound U on every line's count.  A gap line of
    `_witness_gaps` whose exact count reaches U is then a maximum over all
    lines.  At r = 3 that sub-polyline is the whole curve, and its sweep is
    the answer.  Otherwise, when a run fails, U > r or no gap line reaches
    U, the whole curve is swept."""
    d, xs, ys = curve.grid
    convex = len(bounds) - 1 - r % 2  # the runs bounded by 2 each
    bound = 2 * convex
    if all(_convex_run(xs, ys, bounds[j], bounds[j + 1]) for j in range(convex)):
        if r % 2:
            start = bounds[convex]
            if start == 0:
                return _witness(curve, _sweep_best([curve], math.inf)[0], METHOD_SWEEP)
            inner = Polyline.from_grid(d, xs[start:], ys[start:])
            bound += _sweep_best([inner], math.inf)[0][0]
        if bound <= r:
            fits, counts, sums = _witness_gaps([curve])
            if fits and counts[0].max() >= bound:
                found = _gap_replay(curve, counts[0], sums[0], bound)
                if found[0] >= bound:
                    return _witness(curve, found, METHOD_RUNS)
    return max_line_multiplicity(curve)


def build_curve(body: ConvexPolygon, params: ConstructionParams) -> ConstructionResult:
    """Open curve of length at least s(K, r) - eps with multiplicity <= r.

    floor(r/2) nested strictly convex loops, each opened near the common
    sector and entered exactly at the previous loop's stopping vertex; for
    odd r a bowed arc then runs from the innermost stop to the ring vertex
    farthest from it, realizing the near-diameter term of the threshold.
    """
    # An accepted ring has at least _ring_floor(m) distinct vertices on the
    # snap grid and lies within one grid step of the body, so its perimeter
    # is at least _ring_floor(m) steps and, perimeter being monotone under
    # inclusion, at most p + 2 pi steps.  Densifying only raises the floor.
    if perimeter(body) + 2.0 * math.pi / GRID < _ring_floor(params.m) / GRID:
        raise DegeneracyError("the body is too small for the 1e-9 snap grid")
    target = s_bound(body, params.r)
    odd = params.r % 2
    anchor_idx, anchor_dir = _gap_anchor(body)
    # A slack of eps >= s lets any curve pass the length test, so the insets
    # are planned from at most s: an inset larger than the body builds no ring.
    default_inset = min(params.eps, target) / (8.0 * params.n_loops)
    inset_min = max(default_inset / 32.0, _INSET_FLOOR)
    failing_report: MultiplicityReport | None = None
    longest = 0.0
    for retry in range(params.max_retries):
        rng = np.random.default_rng([params.seed, 10_000 * odd + retry])
        inset, gap, m_params = default_inset, _GAP, params
        for _shrink in range(12):
            try:
                rings, opens, starts = _chain_loops(
                    body, m_params, rng, inset, gap, params.n_loops, anchor_idx, anchor_dir
                )
                tail = _odd_tail(rings[-1], opens[-1][-1], starts[-1], m_params.m) if odd else []
            except DegeneracyError:
                inset /= 2.0
                if inset < _INSET_FLOOR:
                    break
                continue
            verts, bounds = _assemble(opens)
            curve = Polyline.from_grid(GRID, *zip(*(verts + tail)))
            length = polyline_length(curve)
            longest = max(longest, length)
            if length >= target - 0.9 * params.eps:
                if _inside(curve, body):
                    report = _certify(curve, bounds, params.r)
                    if report.count <= params.r:
                        return ConstructionResult(curve, length, report, target, retry, params)
                    failing_report = report
                break  # verification failed; re-jitter
            # too short: tighten the inset first, then the gap, then densify
            if inset > inset_min:
                inset /= 2.0
            elif gap > 0.0025:
                gap /= 2.0
            else:
                m_params = replace(m_params, m=min(2 * m_params.m, 4096))
                inset, gap = default_inset / 8.0, _GAP / 2.0
    message = f"construction failed after {params.max_retries} retries"
    if failing_report is None and longest == 0.0:  # no attempt built a curve
        message += "; no strictly convex inset ring could be built"
    elif failing_report is None:  # no attempt was long enough to verify
        message += f"; longest curve {longest!r} < {target - 0.9 * params.eps!r}"
    raise ConstructionError(message, failing_report)
