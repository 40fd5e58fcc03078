"""Line-multiplicity analysis: how often can a straight line meet a polyline.

Multiplicity is the number of connected components of line ∩ polyline
(as plane sets).  Counting components rather than points keeps the theory
well-posed when a line contains a whole segment of the polyline: a maximal
collinear run counts once, a transversal crossing counts once, and a vertex
touch counts once.  For curves that meet lines in finitely many points the
two conventions agree.

`max_line_multiplicity` is exact over all lines.  A line through no vertex
can be translated until it first meets a vertex, the pivot, without
changing the edges it crosses, so every count is realized through or next
to some pivot.  The sweep sorts the other vertices around each distinct
pivot by direction mod π.  Between consecutive directions (an angular
interval) no vertex changes side, so an edge not incident to the pivot is
crossed on one contiguous run of intervals, and cumulative sums over the
sorted run ends give every interval's crossing count at once: O(n² log n)
over all pivots.  Each interval yields three candidates (the line through
the pivot, and the two open cells beside it, which also cross the pivot's
incident edges) and each event direction one more (the line through the
pivot and its collinear group).  A candidate's score is the number of
edges whose ends lie strictly on opposite sides of its line plus the number
of maximal runs of consecutive vertices on it: an upper bound on its
component count, tight unless intersection points coincide.

Exactness contract: every reported count is an exact replay, decided in
Python ints on the polyline's integer grid (`Polyline.grid`: every
coordinate times D, the lcm of their denominators).  Replays are
count-first: each returns its count with the grid line behind it; an
answer's report (`Line`, float components) is built once, by
`_grid_multiplicity`.  A rational line is scaled to integer coefficients
by the lcm of its own denominators, so a vertex's side is the sign of
a·X + b·Y - c·D, its place along the line is b·X - a·Y, and a crossing of
edge (i, j) sits at (vᵢ·tⱼ - vⱼ·tᵢ)/(vᵢ - vⱼ), compared by cross
multiplication; a component's float ends are int true divisions, which
round correctly, exactly as float() of the Fraction would.  The sweep and
the oracle read a polyline only through that grid.  The sweep's float view
is the polyline's own, X/D, an int true division with the same bits as
`Point.xy`.  The sweep ranks each curve's coordinates on its grid ints,
orders directions by float angle and re-decides every pair of angles that
its rounding-error band cannot separate with an int cross product of grid
differences, so its intervals and scores are exact, and its witnesses are
rational lines built from grid ints.  The witness screen and the
builder's certificate count crossings with one exact integer table
(`_crossing_table`) of the grid ints' projections on integer normals, read
at its gaps (`_gap_counts`): one sort of packed keys
8·projection + weight + 2 orders the projections and carries each vertex's
edge weights into their prefix sums, and for consecutive distinct
projections p < q the line 2a·X + 2b·Y = p + q passes through no vertex, so
its table count is exact.  The oracle reads every gap of the normals, among
2048 fixed ones, that its seed draws: a deterministic family of lines, not
a random sample of offsets.  Its table (`_turning_table`) holds only the
turning vertices, where the height a·X + b·Y along the curve has a local
extremum, and the curve's ends: a vertex of weight 0 changes no prefix
sum, so a gap between consecutive turning projections has the count of
every gap of all vertices inside it, and its replay takes those gap lines.
The sweep and the oracle replay candidates exactly in descending score
until no remaining score can beat the best exact count, so screening never
changes a reported number.

A report's method tag names the replay behind it: "direct" for
`line_multiplicity` of a given line, "rotational_sweep" for the sweep's
maximum, "oracle" for the best gap line of the oracle's drawn normals, and
"convex_runs" for the builder's certificate: a gap line of the witness
screen's normals (`_witness_gaps`, `_gap_replay`) whose exact count meets
the bound of the curve's convex runs, so it too is a maximum over all
lines.

`find_stabbing_line` runs the same sweep and replay but stops at the first
candidate whose exact count reaches r + 1, so the constructive direction of
the theorem rests on the exact algorithm alone.  `projection_witness` is
the proof's pigeonhole angle in closed form: the margin of the curve's
projected length over r times the body's width is a sum of weighted
|cos(α - β)| terms, a single sinusoid between consecutive sign changes, so
one sort gives its exact maximum.  It chooses no stabbing line.

The sweep scores a batch of curves at once: a row is one curve and one of
its pivots, and vertex columns are padded to the batch's largest curve.
Single-curve callers sweep a batch of one.  `verifier.falsify` packs its
trial curves, sorted by vertex count, into batches of at most
_BATCH_ENTRIES padded entries and asks only whether some line meets a
curve more than r times.  One exact line with r + 1 components answers
that, so each batch first takes the witness screen: for each of 16 small
integer normals (a, b), the crossing table counts, in int64 packed keys,
the edges that the line 2a·X + 2b·Y = p + q crosses, for every gap p < q
between consecutive distinct projections.  That line passes through no
vertex, and its count is exact.  A curve whose largest count exceeds r
replays those lines, in descending count, until an exact count reaches
r + 1; such a line meets the curve only in crossings, so its replay counts
distinct crossing places, with no pieces to merge.  On the
benchmark's falsify cycle the screen decides 1128 of the 1166 curves above
r (97 %).  Only the curves it leaves are swept.  A curve whose every score
is at most r is within r with no replay, since the scores bound every
line's count; any other curve is replayed in descending score order until
a count reaches r + 1 or the scores left cannot, so every count above r
that it acts on is an exact replay.  Like every replay, those decide on the
candidate's integer line and build no `Line`, and falsify asks for no
report, so it judges its grid-born curves with no `Fraction` at all.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cmp_to_key
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import PreconditionError, VerificationError
from .geometry import (
    ConvexPolygon,
    Line,
    Polyline,
    _require_inside,
    polyline_length,
    s_bound,
)
from .projections import chord_term, segment_data

# report provenance tags (see the module docstring)
METHOD_DIRECT = "direct"
METHOD_ORACLE = "oracle"
METHOD_SWEEP = "rotational_sweep"
METHOD_RUNS = "convex_runs"

# Coordinates are refused beyond 2^500 in absolute value: products of two
# coordinate differences (below 2^1002) then stay finite in double precision.
_COORD_LIMIT = 2.0**500
_TINY = 1e-290  # absolute floor of the angle band: covers subnormal rounding
# Relative width of the float bands: the sweep's angle band and the
# projection witness's margin floor.  Each float result there errs by a few
# eps of its operands' magnitudes; 16 eps leaves a wide margin.
_FILTER = 16.0 * sys.float_info.epsilon
# vertices of the largest polyline swept or scanned for simplicity: the
# sweep is O(n² log n) and the scan O(n²).  Sweeping a random walk of 8192
# vertices took 22 s on a 2-vCPU Xeon; the tests sweep at most 397 vertices
_VERTEX_BUDGET = 1 << 13
_SWEEP_ENTRIES = 1 << 18  # pivot-by-vertex entries per sweep chunk
_BATCH_ENTRIES = 1 << 16  # padded pivot-by-vertex entries per batch of several curves
_GENERIC_TRIES = 8  # open-cell witness shifts tried before giving up
# normal-by-vertex entries per slice of the oracle's tables: a slice holds
# _TABLE_ENTRIES // (chain vertices) normals, and only its turning vertices,
# so it reaches this bound only when every vertex turns on every normal
_TABLE_ENTRIES = 1 << 16
_DRAW_CHUNK = 1 << 14  # uniform draws per chunk of the oracle's bucket draw
# small primitive integer normals (a, b) of the witness screen in `_exceeds`,
# about every π/16 over [0, π)
_WITNESS_NORMALS = (
    (1, 0), (5, 1), (5, 2), (3, 2), (1, 1), (2, 3), (2, 5), (1, 5),
    (0, 1), (-1, 5), (-2, 5), (-2, 3), (-1, 1), (-3, 2), (-5, 2), (-5, 1),
)
_WITNESS_A, _WITNESS_B = np.array(_WITNESS_NORMALS).T[:, :, None]
# grid ints within ±_WITNESS_BOUND keep every projection a·X + b·Y below 2^59
# in absolute value, so its packed key (`_crossing_table`) and every sum of
# two projections fit int64
_WITNESS_BOUND = (2**59 - 1) // max(abs(a) + abs(b) for a, b in _WITNESS_NORMALS)
# the oracle's integer normals (a, b) = round(4096·(cos φ, sin φ)), one at
# the centre φ = (j + ½)·π/2048 of each of 2048 direction buckets, and the
# int64 bound of their largest |a| + |b|, which keeps every projection below
# 2^59 in absolute value
_ORACLE_BUCKETS = 2048
_ORACLE_NORMALS = np.array([
    (round(4096 * math.cos(phi)), round(4096 * math.sin(phi)))
    for phi in ((j + 0.5) * math.pi / _ORACLE_BUCKETS for j in range(_ORACLE_BUCKETS))
])
_ORACLE_BOUND = (2**59 - 1) // int(np.abs(_ORACLE_NORMALS).sum(axis=1).max())

# sweep candidates for a pivot and its angular interval (or event) k
_EVENT = 0  # the line through the pivot and the vertices of event k
_LEFT = 1  # interval k, shifted so the pivot lies on the line's left (+) side
_RIGHT = 2  # interval k, shifted so the pivot lies on the line's right (-) side
_THROUGH = 3  # interval k, through the pivot and no other vertex


@dataclass(frozen=True)
class Component:
    """One connected component of line ∩ polyline."""

    segments: tuple[int, ...]  # contributing segment indices, sorted
    start: tuple[float, float]
    end: tuple[float, float]

    @property
    def kind(self) -> str:
        return "point" if self.start == self.end else "span"


@dataclass(frozen=True)
class MultiplicityReport:
    """An exact component count, the method that found it, and the line and
    components behind it; built once per answer, from an exact replay."""

    count: int
    witness: Line
    method: str
    components: tuple[Component, ...] = field(default=())


def _segment_count(poly: Polyline) -> int:
    return len(poly) if poly.closed else len(poly) - 1


def _segment_endpoints(poly: Polyline) -> Iterator[tuple[int, int, int]]:
    n = len(poly)
    for k in range(n - 1):
        yield k, k, k + 1
    if poly.closed:
        yield n - 1, n - 1, 0


def _integer_line(coefs: Sequence[Fraction | float], d: int) -> tuple[int, int, int]:
    """(a, b, c) with a·X + b·Y - c a positive multiple of nx·x + ny·y - c0
    at the grid point (X, Y) = (x, y)·d, for exact coefficients
    (nx, ny, c0): scaled to ints by the lcm of their denominators."""
    (a, p), (b, q), (c, r) = (v.as_integer_ratio() for v in coefs)
    scale = math.lcm(p, q, r)
    return a * (scale // p), b * (scale // q), c * (scale // r) * d


def _compare(p: tuple[int, int], q: tuple[int, int]) -> int:
    """Sign of p - q for positions (numerator, positive denominator)."""
    u, v = p[0] * q[1], q[0] * p[1]
    return (u > v) - (u < v)


def _float_point(end: tuple[int, int, int]) -> tuple[float, float]:
    """The correctly rounded doubles (X/q, Y/q) of an exact point (X, Y, q),
    the same as float() of its Fraction coordinates."""
    x, y, q = end
    try:
        return (x / q, y / q)
    except OverflowError:
        raise PreconditionError("a coordinate lies beyond double range") from None


def line_multiplicity(line: Line, poly: Polyline) -> MultiplicityReport:
    """Exact component count of line ∩ polyline (method "direct").

    Every intersection piece (crossing point, vertex touch, collinear
    sub-segment) is located exactly on the line's coordinate chart, in
    ints on the polyline's integer grid; pieces that touch or overlap there
    are merged into one component.
    """
    coefs = _integer_line((line.nx, line.ny, line.c), poly.grid[0])
    return _grid_multiplicity(poly, coefs, line, METHOD_DIRECT)


def _merged_pieces(poly: Polyline, coefs: tuple[int, int, int]) -> tuple[list[list], list[int]]:
    """The pieces of the line a·X + b·Y = c on the polyline's integer grid,
    for coefs (a, b, c), merged into components, and the line's value at
    every vertex.  A component is [lo, hi, start, end, segments]: its extent
    on the chart as (numerator, positive denominator) pairs, its end points
    as vertex index pairs (i, i for vertex i, i, j for the crossing of edge
    (i, j)), and the set of its segment indices.  Every decision is
    invariant under a positive multiple of the coefs."""
    _, xs, ys = poly.grid
    a, b, c = coefs
    values = [a * x + b * y - c for x, y in zip(xs, ys)]
    along = [b * x - a * y for x, y in zip(xs, ys)]

    pieces: list[tuple[tuple[int, int], tuple[int, int], tuple, tuple, int]] = []
    for seg_idx, i, j in _segment_endpoints(poly):
        vi, vj = values[i], values[j]
        if vi == 0 and vj == 0:
            if along[j] < along[i]:
                i, j = j, i
            pieces.append(((along[i], 1), (along[j], 1), (i, i), (j, j), seg_idx))
        elif vi == 0 or vj == 0:
            k = i if vi == 0 else j
            t = (along[k], 1)
            pieces.append((t, t, (k, k), (k, k), seg_idx))
        elif (vi > 0) != (vj > 0):
            # the crossing (vi·tj - vj·ti) / (vi - vj), its denominator made positive
            sign = 1 if vi > 0 else -1
            t = (sign * (vi * along[j] - vj * along[i]), sign * (vi - vj))
            pieces.append((t, t, (i, j), (i, j), seg_idx))

    pieces.sort(key=cmp_to_key(lambda s, t: _compare(s[0], t[0]) or _compare(s[1], t[1])))
    merged: list[list] = []
    for lo, hi, start, end, seg_idx in pieces:
        cur = merged[-1] if merged else None
        if cur is not None and _compare(lo, cur[1]) <= 0:
            if _compare(hi, cur[1]) > 0:
                cur[1] = hi
                cur[3] = end
            cur[4].add(seg_idx)
        else:
            merged.append([lo, hi, start, end, {seg_idx}])
    return merged, values


def _grid_multiplicity(
    poly: Polyline, coefs: tuple[int, int, int], witness: Line, method: str
) -> MultiplicityReport:
    """`line_multiplicity` of the line a·X + b·Y = c on the polyline's
    integer grid, for coefs (a, b, c), reported with `witness`: the rational
    line of which the coefs are a positive multiple."""
    merged, values = _merged_pieces(poly, coefs)
    d, xs, ys = poly.grid

    def point(end: tuple[int, int]) -> tuple[float, float]:
        i, j = end
        if i == j:
            return _float_point((xs[i], ys[i], d))
        # the crossing (vi·Pj - vj·Pi) / (vi - vj), its denominator made
        # positive (so a zero coordinate divides to 0.0, not -0.0)
        vi, vj = values[i], values[j]
        sign = 1 if vi > 0 else -1
        return _float_point(
            (sign * (vi * xs[j] - vj * xs[i]),
             sign * (vi * ys[j] - vj * ys[i]),
             d * sign * (vi - vj))
        )

    components = tuple(
        Component(tuple(sorted(segments)), point(start), point(end))
        for _, _, start, end, segments in merged
    )
    return MultiplicityReport(len(components), witness, method, components)


# An exact replay: (count, coefs, unit).  The count is that of the line
# a·X + b·Y = c on the polyline's integer grid, for coefs (a, b, c); the
# rational line a/k·x + b/k·y = c/(D·k), for k = unit, is its witness.
_Replay = tuple[int, tuple[int, int, int], int]


def _witness(poly: Polyline, replay: _Replay, method: str) -> MultiplicityReport:
    """The report of an exact replay: its rational line and components."""
    _, (a, b, c), unit = replay
    line = Line(Fraction(a, unit), Fraction(b, unit), Fraction(c, poly.grid[0] * unit))
    return _grid_multiplicity(poly, (a, b, c), line, method)


def _grid_count(poly: Polyline, coefs: tuple[int, int, int]) -> int:
    """The component count of `_grid_multiplicity`, with no end points and
    no `Component`s built."""
    return len(_merged_pieces(poly, coefs)[0])


def _gap_count(poly: Polyline, coefs: tuple[int, int, int]) -> int:
    """`_grid_count` of a line a·X + b·Y = c, for coefs (a, b, c), that
    passes through no vertex of the polyline: every piece is then the
    crossing of an edge whose ends lie on opposite sides, and the count is
    the number of distinct crossing places on the line.  Each place
    (num, den) is keyed by its exact floor num // den, so equal places
    share a key; places that share one are told apart exactly, reduced to
    lowest terms."""
    _, xs, ys = poly.grid
    a, b, c = coefs
    values = [a * x + b * y - c for x, y in zip(xs, ys)]
    places: dict[int, list[tuple[int, int]]] = {}
    for _, i, j in _segment_endpoints(poly):
        vi, vj = values[i], values[j]
        if (vi > 0) != (vj > 0):
            # the crossing (vi·tj - vj·ti) / (vi - vj), t = b·X - a·Y
            num = vi * (b * xs[j] - a * ys[j]) - vj * (b * xs[i] - a * ys[i])
            places.setdefault(num // (vi - vj), []).append((num, vi - vj))
    count = len(places)
    for same in places.values():
        if len(same) > 1:
            reduced = set()
            for num, den in same:
                g = math.gcd(num, den) if den > 0 else -math.gcd(num, den)
                reduced.add((num // g, den // g))
            count += len(reduced) - 1
    return count


def proper_crossings(line: Line, poly: Polyline) -> int:
    """Number of strict sign-change crossings (touches and overlaps excluded).

    Requires that no polyline vertex lies on the line, so every intersection
    is a transversal segment crossing.
    """
    d, xs, ys = poly.grid
    a, b, c = _integer_line((line.nx, line.ny, line.c), d)
    left = []
    for x, y in zip(xs, ys):
        value = a * x + b * y - c
        if value == 0:
            raise PreconditionError("line passes through a polyline vertex")
        left.append(value > 0)
    flips = sum(1 for u, v in zip(left, left[1:]) if u != v)
    if poly.closed and left[-1] != left[0]:
        flips += 1
    return flips


# ---------------------------------------------------------------------------
# exact maximum: rotational sweep
# ---------------------------------------------------------------------------


def _float_points(*polys: Polyline) -> np.ndarray:
    """The polylines' float views (X/D, Y/D), one after another in one
    array, refused outside ±_COORD_LIMIT."""
    refused = PreconditionError("vertex coordinates must lie within ±2^500")
    try:
        pts = np.array([p for poly in polys for p in poly.float_vertices()], dtype=np.float64)
    except PreconditionError:
        raise refused from None
    if not np.all(np.abs(pts) <= _COORD_LIMIT):
        raise refused
    return pts


def _ranks(values: Sequence[int]) -> list[int]:
    """Dense rank of every value, so that equal values share a rank."""
    rank = {v: k for k, v in enumerate(sorted(set(values)))}
    return [rank[v] for v in values]


def _cross(u: tuple[int, int], v: tuple[int, int]) -> int:
    return u[0] * v[1] - u[1] * v[0]


def _tally(rows: int, width: int, *terms) -> np.ndarray:
    """Row-wise histogram: each (index, weight, mask) term adds `weight` at
    `index` of its row for every masked entry."""
    base = np.arange(rows)[:, None] * width
    flat, weights = [], []
    for index, weight, mask in terms:
        idx = np.broadcast_to(base + index, mask.shape)[mask]
        flat.append(idx)
        weights.append(np.full(idx.size, weight, dtype=np.float64))
    hist = np.bincount(np.concatenate(flat), np.concatenate(weights), rows * width)
    return hist.reshape(rows, width).astype(np.int64)


def _accidental(merged: list[list], poly: Polyline) -> bool:
    """Whether a merged component joins crossings of edges on different lines.

    On a line through no vertex that is a coincidence of this line alone
    (it passes through a self-intersection point), which a nearby parallel
    line avoids; collinear overlapping edges merge on every nearby line.
    """
    _, xs, ys = poly.grid
    n = len(xs)
    for *_, segments in merged:
        i = min(segments)
        ex, ey = xs[(i + 1) % n] - xs[i], ys[(i + 1) % n] - ys[i]
        for seg in segments:
            for k in (seg, (seg + 1) % n):
                if _cross((ex, ey), (xs[k] - xs[i], ys[k] - ys[i])):
                    return True
    return False


class _Sweep:
    """Rotational sweep about every distinct vertex of a batch of
    polylines, in chunks of rows.

    A row is one curve and one of its pivots.  Vertex columns are padded to
    the batch's largest curve: a padded column is left out of the angular
    order like the pivot's own coincident vertices, and its edge enters no
    tally.  Ranks, each curve's on its own grid, and point ids are computed
    once for the whole batch.

    For a pivot, each other vertex gets its exact direction class: `lower`
    (v - pivot points into the lower half plane, so it is negated into
    [0, π)) and the rank g of its direction among the pivot's distinct
    directions.  For a line through the pivot with direction inside
    interval k (between directions k and k + 1; the last interval ends at
    π), v lies on the left iff (g > k) xor lower.  Hence an edge (a, b) not
    incident to the pivot is crossed on the intervals [min g, max g) when
    lower(a) == lower(b) and on the complement otherwise.
    """

    def __init__(self, polys: Sequence[Polyline]):
        self.polys = polys
        sizes = np.array([len(poly) for poly in polys])
        starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        pts = _float_points(*polys)
        # rows compare only the vertices of their own curve, so each curve is
        # ranked on its own grid
        rank_x = np.array([k for poly in polys for k in _ranks(poly.grid[1])])
        rank_y = np.array([k for poly in polys for k in _ranks(poly.grid[2])])
        pid = np.unique(rank_x * (int(rank_y.max()) + 1) + rank_y, return_inverse=True)[1]
        # rows: each curve's first vertex of every distinct point, in order
        curve = np.repeat(np.arange(len(polys)), sizes)
        first = np.sort(np.unique(curve * (int(pid.max()) + 1) + pid, return_index=True)[1])
        self.row_curve = curve[first]
        self.row_pivot = first - starts[self.row_curve]
        self.row_start = np.searchsorted(self.row_curve, np.arange(len(polys) + 1))

        col = np.arange(sizes.max())
        self.pad = col[None, :] >= sizes[:, None]
        index = np.minimum(starts[:, None] + col, len(pts) - 1)
        self.pid = np.where(self.pad, -1, pid[index])
        self.pts = pts[index]
        self.mag = np.abs(self.pts).max(axis=2)
        self.rank_x, self.rank_y = rank_x[index], rank_y[index]
        # edge j joins vertex j to vertex eb[j]
        self.eb = (col[None, :] + 1) % sizes[:, None]
        closed = np.array([poly.closed for poly in polys])
        self.edge = col[None, :] < np.where(closed, sizes, sizes - 1)[:, None]

    def _direction(self, curve: int, pivot: int, v: int) -> tuple[int, int]:
        """v - pivot on the curve's integer grid, negated into the upper half
        plane (angle in [0, π))."""
        _, xs, ys = self.polys[curve].grid
        dx, dy = xs[v] - xs[pivot], ys[v] - ys[pivot]
        return (-dx, -dy) if dy < 0 or (dy == 0 and dx < 0) else (dx, dy)

    def _resolve(
        self, curve: int, pivot: int, order: np.ndarray, joined: np.ndarray, tie: np.ndarray
    ):
        """Sort each cluster of angles the band cannot separate by exact cross
        products (in place), marking members parallel to their predecessor."""
        js = np.nonzero(joined)[0]
        breaks = np.diff(js) > 1
        starts = js[np.concatenate(([True], breaks))] - 1
        stops = js[np.concatenate((breaks, [True]))] + 1
        by_angle = cmp_to_key(lambda s, t: _cross(t[0], s[0]))
        for a, b in zip(starts, stops):
            members = sorted(
                ((self._direction(curve, pivot, int(v)), int(v)) for v in order[a:b]),
                key=by_angle,
            )
            order[a:b] = [v for _, v in members]
            for i in range(1, len(members)):
                tie[a + i] = _cross(members[i - 1][0], members[i][0]) == 0

    @staticmethod
    def _per_row(table: np.ndarray, cr: np.ndarray) -> np.ndarray:
        """Each chunk row's curve entry of a per-curve table: a read-only
        broadcast, which copies nothing, when the rows share one curve."""
        if cr[0] == cr[-1]:
            return np.broadcast_to(table[cr[0]], (len(cr), *table.shape[1:]))
        return table[cr]

    def _chunk(self, rows: slice) -> tuple[np.ndarray, np.ndarray]:
        """Scores of every candidate of the rows (rows × width × kind, -1
        past a pivot's last interval) and the first vertex of every direction
        class (rows × (width + 1), -1 past the last)."""
        cr, pr = self.row_curve[rows], self.row_pivot[rows]
        count, width = len(cr), self.pid.shape[1]
        at = np.arange(count)
        pid = self._per_row(self.pid, cr)
        same = pid == pid[at, pr][:, None]
        out = same | self._per_row(self.pad, cr)
        rx, ry = self._per_row(self.rank_x, cr), self._per_row(self.rank_y, cr)
        py, px = ry[at, pr][:, None], rx[at, pr][:, None]
        lower = (ry < py) | ((ry == py) & (rx < px))

        # Float angles in [0, π].  Rounding is monotone, so the float y
        # difference has the exact sign and abs() negates exactly the lower
        # ones.  The band bounds the angle error caused by converting and
        # subtracting the coordinates (relative to the vector's length) plus
        # arctan2's own rounding; it is infinite for vectors that vanish in
        # floats, whose angles are then decided exactly against all others.
        pts, mag = self._per_row(self.pts, cr), self._per_row(self.mag, cr)
        dx = pts[:, :, 0] - pts[at, pr, 0][:, None]
        dx = np.where(lower, -dx, dx)
        dy = np.abs(pts[:, :, 1] - pts[at, pr, 1][:, None])
        psi = np.arctan2(dy, dx)
        scale = np.maximum(np.abs(dx), dy) + mag + mag[at, pr][:, None] + _TINY
        with np.errstate(divide="ignore"):
            band = _FILTER * (scale / np.hypot(dx, dy) + 1.0)
        # clusters: runs of overlapping [psi - band, psi + band] intervals
        lo = np.where(out, np.inf, psi - band)
        order = np.argsort(lo, axis=1, kind="stable")
        valid = ~np.take_along_axis(out, order, axis=1)
        reach = np.maximum.accumulate(np.take_along_axis(psi + band, order, axis=1), axis=1)
        joined = np.zeros_like(valid)
        joined[:, 1:] = valid[:, 1:] & (np.take_along_axis(lo, order, axis=1)[:, 1:] <= reach[:, :-1])
        tie = np.zeros_like(valid)
        for row in np.unique(np.nonzero(joined)[0]):
            self._resolve(int(cr[row]), int(pr[row]), order[row], joined[row], tie[row])

        first = valid & ~tie
        rank = np.cumsum(first, axis=1) - 1
        classes = first.sum(axis=1)[:, None]
        g = np.empty_like(order)
        np.put_along_axis(g, order, rank, axis=1)
        rep = np.full((count, width + 1), -1)
        rr, cc = np.nonzero(first)
        rep[rr, rank[rr, cc]] = order[rr, cc]

        # edge j runs from vertex j to vertex eb[j]
        eb, edge = self._per_row(self.eb, cr), self._per_row(self.edge, cr)
        at_b = np.take_along_axis(same, eb, axis=1)
        free = edge & ~(same | at_b)
        incident = edge & (same | at_b)
        g_b = np.take_along_axis(g, eb, axis=1)
        g_lo, g_hi = np.minimum(g, g_b), np.maximum(g, g_b)
        flip = lower != np.take_along_axis(lower, eb, axis=1)
        other = np.where(same, eb, np.arange(width))
        g_o = np.take_along_axis(g, other, axis=1)
        low_o = np.take_along_axis(lower, other, axis=1)
        run, wrap = free & ~flip, free & flip
        straddles = np.cumsum(
            _tally(count, width + 1,
                   (g_lo, 1, run), (g_hi, -1, run),
                   (0, 1, wrap), (g_lo, -1, wrap), (g_hi, 1, wrap), (classes, -1, wrap)),
            axis=1,
        )[:, :width]
        # incident edges whose other end lies on the left
        left_ends = np.cumsum(
            _tally(count, width + 1,
                   (0, 1, incident & ~low_o), (g_o, -1, incident & ~low_o),
                   (g_o, 1, incident & low_o), (classes, -1, incident & low_o)),
            axis=1,
        )[:, :width]
        degree = incident.sum(axis=1)[:, None]
        occurrences = same.sum(axis=1)[:, None]
        # event k: its class and the pivot are zeros; edges counted in
        # `straddles` with an end in class k stop being strict crossings, and
        # each edge with both ends on the line joins two zeros into one run
        along = free & (g_lo == g_hi)
        event_fix = _tally(count, width,
                           (g_lo, -1, run & (g_lo < g_hi)), (g_hi, -1, wrap & (g_lo < g_hi)),
                           (g_lo, -1, along), (g_lo, -1, along & flip), (g_o, -1, incident))
        class_size = _tally(count, width, (g, 1, ~out))

        scores = np.stack(
            [
                np.maximum(straddles + event_fix + occurrences + class_size, 1),
                straddles + degree - left_ends,
                straddles + left_ends,
                straddles + occurrences,
            ],
            axis=2,
        )
        scores[np.arange(width)[None, :] >= classes] = -1
        return scores, rep

    def scored_chunks(self) -> Iterator[tuple[slice, np.ndarray, np.ndarray]]:
        """(rows, scores, first vertex of every direction class) per chunk
        of about _SWEEP_ENTRIES row × column entries."""
        step = max(1, _SWEEP_ENTRIES // self.pid.shape[1])
        for start in range(0, len(self.row_curve), step):
            rows = slice(start, min(start + step, len(self.row_curve)))
            yield (rows, *self._chunk(rows))

    def curves(self, rows: slice) -> Iterator[tuple[int, slice]]:
        """Each curve with rows in the chunk `rows`, and its part of the chunk."""
        for curve in range(self.row_curve[rows.start], self.row_curve[rows.stop - 1] + 1):
            lo = max(self.row_start[curve], rows.start)
            hi = min(self.row_start[curve + 1], rows.stop)
            yield curve, slice(lo - rows.start, hi - rows.start)

    def replay(self, rows: slice, scores: np.ndarray, rep: np.ndarray, flat: int) -> _Replay:
        """Exact replay of a witness line of the candidate at index `flat`
        of a chunk's scores, on its curve's integer grid."""
        row, k, kind = np.unravel_index(flat, scores.shape)
        curve, pivot = int(self.row_curve[rows.start + row]), int(self.row_pivot[rows.start + row])
        score, a, b = int(scores[row, k, kind]), rep[row, k], rep[row, k + 1]
        poly = self.polys[curve]
        d, xs, ys = poly.grid
        if kind == _EVENT:
            # the direction from the pivot to the event's first vertex, as
            # Line.from_points takes it
            wx, wy = xs[a] - xs[pivot], ys[a] - ys[pivot]
        else:
            # a direction strictly inside the interval: a positive combination
            # of its ends, in grid units (the grid's coordinates are d times
            # the curve's)
            ax, ay = self._direction(curve, pivot, a)
            if b >= 0:
                bx, by = self._direction(curve, pivot, b)
                wx, wy = ax + bx, ay + by
            elif ay > 0:
                wx, wy = ax - abs(ax) - ay, ay
            else:  # the only direction is horizontal; the interval is (0, π)
                wx, wy = 0, d
        # n·(V - P) = cross(w, V - P) on the grid: positive on the left; the
        # curve's line n/d·(x, y) = c/d² has unit d
        nx, ny = -wy, wx
        c = nx * xs[pivot] + ny * ys[pivot]
        if kind in (_EVENT, _THROUGH):
            return _grid_count(poly, (nx, ny, c)), (nx, ny, c), d
        pivots = self.row_pivot[self.row_start[curve] : self.row_start[curve + 1]]
        gap = min(abs(nx * xs[i] + ny * ys[i] - c) for i in pivots.tolist() if i != pivot)
        side = 1 if kind == _LEFT else -1
        for tries in range(1, _GENERIC_TRIES + 1):
            # n·(X, Y) = c - side·gap/2^tries, times 2^tries: the line moved
            # a 2^tries-th of the way to the nearest other pivot
            scale = 2**tries
            coefs = (nx * scale, ny * scale, c * scale - side * gap)
            merged = _merged_pieces(poly, coefs)[0]
            # a short count: re-shift if it comes from a self-intersection
            if len(merged) == score or not _accidental(merged, poly):
                return len(merged), coefs, d * scale
        raise VerificationError("no witness line avoids the curve's self-intersections")


def _replay_descending(
    scores: np.ndarray,
    replay: Callable[[int], _Replay],
    best: _Replay | None,
    enough: float,
) -> _Replay:
    """First replay of the best exact count, `best` first, of candidates in
    descending score order (ascending flat index within a score).  Stops at
    a count of `enough` or of the next score, which bounds the exact count
    of every candidate left out."""
    level = int(scores.max())
    while best is None or best[0] < min(level, enough):
        for flat in np.flatnonzero(scores == level):
            found = replay(int(flat))
            if best is None or found[0] > best[0]:
                best = found
            if best[0] >= min(level, enough):
                break
        level -= 1
    return best


def _sweep_best(polys: Sequence[Polyline], enough: float, floor: int = 0) -> list[_Replay | None]:
    """Per polyline, the best exact replay of one rotational sweep of the
    batch, chunk by chunk, cut short once a count reaches `enough`.  A
    polyline whose scores all stay at or below `floor` is not replayed
    (None): its scores already bound every line's count by `floor`.  A
    polyline of more than _VERTEX_BUDGET vertices is refused with
    PreconditionError; a report is built (`_witness`) only for an answer."""
    if any(len(poly) > _VERTEX_BUDGET for poly in polys):
        raise PreconditionError(
            f"polylines of more than {_VERTEX_BUDGET} vertices are refused: "
            "the exact sweep is O(n^2 log n)"
        )
    sweep = _Sweep(polys)
    best: list[_Replay | None] = [None] * len(polys)
    for rows, scores, rep in sweep.scored_chunks():
        parts = list(sweep.curves(rows))
        row_tops = scores.reshape(len(scores), -1).max(axis=1)
        tops = np.maximum.reduceat(row_tops, [part.start for _, part in parts]).tolist()
        for (curve, part), top in zip(parts, tops):
            found = best[curve]
            if (found is not None and found[0] >= enough) or top <= floor:
                continue
            offset = part.start * scores[0].size
            best[curve] = _replay_descending(
                scores[part],
                lambda flat: sweep.replay(rows, scores, rep, offset + flat),
                found,
                enough,
            )
        if all(found is not None and found[0] >= enough for found in best):
            break
    return best


def _batches(polys: Sequence[Polyline]) -> Iterator[list[int]]:
    """Indices of the polylines, by vertex count, in batches of at most
    _BATCH_ENTRIES padded row × column entries (a larger polyline alone).
    A chunk's temporaries take a few hundred bytes per entry, so the budget
    bounds a batch's memory; a polyline alone is chunked as in any sweep."""
    batch: list[int] = []
    rows = 0
    for i in sorted(range(len(polys)), key=lambda i: len(polys[i])):
        n = len(polys[i])
        if batch and (rows + n) * n > _BATCH_ENTRIES:
            yield batch
            batch, rows = [], 0
        batch.append(i)
        rows += n
    if batch:
        yield batch


def _crossing_table(
    xs: np.ndarray, ys: np.ndarray, a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The table of every vertex, which serves the witness screen and the
    builder's certificate (the oracle tabulates turning vertices only,
    `_turning_table`).  For open chains of grid ints (xs, ys), their vertices
    along the last axis, and integer normals (a, b) broadcast against them: the
    projections a·X + b·Y sorted along that axis, and at each place the
    number of edges that a line a·X + b·Y = t crosses, for t between that
    projection and the next when they differ (0 at the last place).

    Each edge weighs +1 at its lower end and -1 at its upper end, so a
    vertex weighs -2..2, and one sort of the packed keys 8·proj + weight + 2
    orders both: a key's projection is key >> 3 and its weight (key & 7) - 2.
    Equal projections sort in any order of their weights, which changes no
    sum at the last place of their group, the only place a reader reads.
    Exact in the arrays' dtype: int64 while every projection lies within
    ±2^59, or Python ints in object arrays."""
    proj = a * xs + b * ys
    # edge i adds its rise at vertex i and takes it at vertex i + 1
    rise = np.sign(np.diff(proj, axis=-1))
    keys = 8 * proj + 2
    keys[..., :-1] += rise
    keys[..., 1:] -= rise
    keys.sort(axis=-1)
    return keys >> 3, np.cumsum((keys & 7) - 2, axis=-1)


def _gap_counts(
    xs: np.ndarray, ys: np.ndarray, a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The crossing table (`_crossing_table`) read at its gaps: the sorted
    projections p, and at each place i the number of edges that the line
    2a·X + 2b·Y = p[i] + p[i + 1] crosses, 0 where p[i] = p[i + 1].  That
    line passes through no vertex, so the count is its exact number of
    strict crossings."""
    proj, crossed = _crossing_table(xs, ys, a, b)
    return proj, np.where(proj[..., 1:] > proj[..., :-1], crossed[..., :-1], 0)


def _witness_gaps(polys: Sequence[Polyline]) -> tuple[list[int], np.ndarray, np.ndarray]:
    """The witness screen's reading of the crossing table at its gaps
    (`_gap_counts`): for each polyline it screens and each normal
    (a, b) of _WITNESS_NORMALS, the largest number of edges crossed
    by a line a·X + b·Y = t on the polyline's integer grid with t strictly
    between two consecutive distinct projections p < q, and the first such
    gap's p + q.  So the line 2a·X + 2b·Y = p + q passes through no vertex,
    and the count is its exact number of strict crossings.

    Returns the indices of the screened polylines, their counts and their
    sums (screened × normals; a count of 0 has no gap line).  A polyline is
    screened when its grid ints all lie within ±_WITNESS_BOUND, so that its
    packed keys and the sums of its projections fit in int64.

    Each polyline is an open chain of the batch's width: a closed one
    repeats its first vertex, which closes it, and an open one its last.
    The repeated vertices add edges of length 0, which weigh nothing, and
    tie with the vertex they copy, so no count is read between them."""
    fits, xs, ys = [], [], []
    width = max(len(poly) + poly.closed for poly in polys)
    for i, poly in enumerate(polys):
        _, px, py = poly.grid
        ints = px + py
        if -_WITNESS_BOUND <= min(ints) and max(ints) <= _WITNESS_BOUND:
            fits.append(i)
            fill = width - len(px)
            end = 0 if poly.closed else -1
            xs.extend(px)
            xs.extend([px[end]] * fill)
            ys.extend(py)
            ys.extend([py[end]] * fill)
    grid = np.array([xs, ys], dtype=np.int64).reshape(2, len(fits), 1, width)
    # polyline × normal × vertex
    proj, counts = _gap_counts(grid[0], grid[1], _WITNESS_A, _WITNESS_B)
    gap = counts.argmax(axis=2)[:, :, None]
    sums = np.take_along_axis(proj, gap, axis=2) + np.take_along_axis(proj, gap + 1, axis=2)
    return fits, counts.max(axis=2), sums[:, :, 0]


def _witness_screen(polys: Sequence[Polyline], r: int) -> list[bool]:
    """Whether a gap line of `_witness_gaps` meets each polyline more than
    r times, by an exact count of its distinct crossing places
    (`_gap_count`): a gap line passes through no vertex, so that count is
    `_grid_count`'s with no pieces merged.  The normals of a polyline are
    tried in descending table count while the count exceeds r; the table
    count bounds the exact one, which falls short only when crossings
    coincide.  False leaves the polyline undecided."""
    marked = [False] * len(polys)
    fits, counts, sums = _witness_gaps(polys)
    rows = np.flatnonzero(counts.max(axis=1, initial=0) > r)
    for row in rows.tolist():
        found = _gap_replay(polys[fits[row]], counts[row], sums[row], r + 1)
        marked[fits[row]] = found[0] > r
    return marked


def _gap_replay(poly: Polyline, counts: np.ndarray, sums: np.ndarray, enough: int) -> _Replay:
    """The best exact replay (`_gap_count`) of one polyline's row of
    `_witness_gaps`, its normals tried in descending table count until a
    count reaches `enough`.  Normals whose table count is below `enough`
    are never replayed, so the caller makes sure that some count reaches it."""

    def replay(k: int) -> _Replay:
        a, b = _WITNESS_NORMALS[k]
        coefs = (2 * a, 2 * b, int(sums[k]))
        return _gap_count(poly, coefs), coefs, 1

    return _replay_descending(np.where(counts >= enough, counts, 0), replay, None, enough)


def _exceeds(polys: Sequence[Polyline], r: int) -> list[bool]:
    """Whether some line meets each polyline more than r times, decided by
    the witness screen and batched sweeps.

    A line meets a segment in at most one piece, so a polyline of at most r
    segments is within r and is not swept.  The others are taken in batches
    (`_batches`), and each batch is first screened (`_witness_screen`): an
    exact replay of a gap line through no vertex that reaches r + 1 proves
    the polyline exceeds r with no sweep.  That replay counts the line's
    distinct crossing places (`_gap_count`), since it meets no vertex.  The
    screen cannot prove a polyline within r, so the ones it leaves are
    swept.  A polyline whose scores all stay at or below r needs no replay;
    otherwise it exceeds r exactly when an exact replay reaches r + 1.  Only
    the replays' counts are read: no report, line or component is built."""
    over = [False] * len(polys)
    long = [i for i, poly in enumerate(polys) if _segment_count(poly) > r]
    for part in _batches([polys[i] for i in long]):
        batch = [long[i] for i in part]
        for i, done in zip(batch, _witness_screen([polys[i] for i in batch], r)):
            over[i] = done
        rest = [i for i in batch if not over[i]]
        if rest:
            for i, found in zip(rest, _sweep_best([polys[i] for i in rest], r + 1, r)):
                over[i] = found is not None and found[0] > r
    return over


def max_line_multiplicity(poly: Polyline) -> MultiplicityReport:
    """Maximum multiplicity over all lines, by the rotational sweep.

    Coordinates must lie within ±2^500.
    """
    return _witness(poly, _sweep_best([poly], math.inf)[0], METHOD_SWEEP)


# ---------------------------------------------------------------------------
# independent check: the gap lines of drawn normals, on the exact crossing table
# ---------------------------------------------------------------------------


def _drawn_buckets(trials: int, seed: int) -> np.ndarray:
    """The buckets j = ⌊2048·u⌋, ascending, of `trials` uniform draws u of
    the seed's generator.  They are drawn in chunks of _DRAW_CHUNK, the same
    stream as one draw of `trials`, and the draw stops once every bucket is
    drawn, so its memory and time stay bounded at any trial count."""
    rng = np.random.default_rng(seed)
    seen = np.zeros(_ORACLE_BUCKETS, dtype=bool)
    left = trials
    while left > 0 and not seen.all():
        size = min(left, _DRAW_CHUNK)
        seen[(_ORACLE_BUCKETS * rng.random(size)).astype(np.int64)] = True
        left -= size
    return np.flatnonzero(seen)


def _turning_ranges(
    xs: np.ndarray, ys: np.ndarray, closed: bool, a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Where the vertices of a polyline's grid ints (xs, ys) turn on the
    integer normals (a, b), which lie in strict angular order within
    (0, π): arrays (vertex, start, end, weight), one entry per range
    start <= j < end of normals on which the vertex weighs `weight` != 0.

    Vertex i weighs s_i(j) - s_{i-1}(j) (`_crossing_table`'s weight): edge
    e rises by s_e(j) = sign(a_j·dX + b_j·dY), and a chain end lacks an
    edge, which weighs 0.  A nonzero edge (dX, dY) is perpendicular to at
    most one of the normals, and they sweep less than a half turn, so s_e
    runs from -o to o as j ascends, o = -sign(dX) (o = 1 when dX = 0, where
    s_e is sign(dY) throughout), and is 0 at no more than one j.  One
    bisection over the normals, for all edges at once, finds z0 <= z1, the
    first j at which o·s_e reaches 0 and passes it, so a vertex's weight is
    constant between the at most four breakpoints of its two edges.  Exact
    in the arrays' dtype: within ±_ORACLE_BOUND, a·dX + b·dY, a difference
    of two projections, lies below 2^60."""
    n, count = len(xs), len(a)
    edges = n if closed else n - 1
    head = np.arange(1, edges + 1) % n
    dx, dy = xs[head] - xs[:edges], ys[head] - ys[:edges]
    orient = np.where(dx > 0, -1, 1)
    # first j with o·(a_j·dX + b_j·dY) + t > 0: z0 for t = 1, z1 for t = 0
    ox, oy = np.tile(orient * dx, 2), np.tile(orient * dy, 2)
    t = np.repeat([1, 0], edges)
    first = np.zeros(2 * edges, dtype=np.int64)
    step = 1 << (count.bit_length() - 1)
    while step:
        probe = np.minimum(first + step - 1, count - 1)
        below = (first + step <= count) & ~(a[probe] * ox + b[probe] * oy + t > 0)
        first += np.where(below, step, 0)
        step >>= 1
    # a last entry for the missing edge of a chain end: 0 on every normal
    z0, z1 = np.append(first[:edges], 0), np.append(first[edges:], count)
    orient = np.append(orient, 1)
    out, into = np.arange(n), np.arange(n) - 1
    if closed:
        into[0] = n - 1
    else:
        out[-1] = into[0] = edges

    def rise(edge: np.ndarray, j: np.ndarray) -> np.ndarray:
        o = orient[edge]
        return np.where(j < z0[edge], -o, np.where(j < z1[edge], 0, o))

    cuts = np.sort(np.column_stack([
        np.zeros(n, dtype=np.int64), z0[out], z1[out], z0[into], z1[into],
        np.full(n, count),
    ]), axis=1)
    start, end = cuts[:, :-1], cuts[:, 1:]
    weight = rise(out[:, None], start) - rise(into[:, None], start)
    keep = (start < end) & (weight != 0)
    vertex = np.broadcast_to(np.arange(n)[:, None], keep.shape)[keep]
    return vertex, start[keep], end[keep], weight[keep]


def _turning_table(
    xs: np.ndarray,
    ys: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    ranges: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    lo: int,
    hi: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The crossing table of the normals lo <= j < hi of (a, b) from the
    polyline's turning vertices only (`_turning_ranges`): its entries
    sorted by normal, then projection, as arrays (row j, projection a·X +
    b·Y, count).  An entry's count is the number of edges that a line
    a·X + b·Y = t crosses, for t between its projection and the next
    entry's of the same row when they differ, and 0 elsewhere.

    Vertices of weight 0 change no prefix sum, so the table has the same
    counts as `_crossing_table`'s, read on coarser gaps: every gap between
    two consecutive distinct projections of all vertices lies in one coarse
    gap and has its count, and the gaps outside the turning projections
    count 0.  The entries are packed as in `_crossing_table`, sorted by one
    lexsort; every row's weights sum to 0, so one cumulative sum gives each
    row's prefix sums."""
    vertex, start, end, weight = ranges
    start, end = np.maximum(start, lo), np.minimum(end, hi)
    keep = start < end
    size = (end - start)[keep]
    rows = np.repeat(start[keep] - np.cumsum(size) + size, size) + np.arange(size.sum())
    vertex = np.repeat(vertex[keep], size)
    keys = 8 * (a[rows] * xs[vertex] + b[rows] * ys[vertex]) + np.repeat(weight[keep], size) + 2
    order = np.lexsort((keys, rows))
    rows, keys = rows[order], keys[order]
    proj, crossed = keys >> 3, np.cumsum((keys & 7) - 2)
    counts = np.zeros(len(keys), dtype=np.int64)
    gap = (rows[1:] == rows[:-1]) & (proj[1:] > proj[:-1])
    counts[:-1] = np.where(gap, crossed[:-1], 0)
    return rows, proj, counts


def _oracle_best(poly: Polyline, trials: int, seed: int) -> _Replay:
    """The best exact replay over every gap line (`_gap_counts`) of the
    normals _ORACLE_NORMALS[j] drawn by `trials` uniform buckets j
    (`_drawn_buckets`), starting from a line of count 0 beyond the first
    drawn normal's top projection: the answer when no drawn normal has a
    gap.

    The tables hold the turning vertices only (`_turning_table`), for the
    drawn normals in slices of _TABLE_ENTRIES // (chain vertices) normals,
    in int64 while the grid ints lie within ±_ORACLE_BOUND and in Python
    ints beyond.  Each slice is replayed in descending table count
    (`_replay_descending`) while a count can still beat the best exact one,
    which the table count bounds.  A coarse gap p < q of the table holds
    the gaps between the row's distinct vertex projections u_k, p <= u_k <
    q, all of its count: its replay takes their lines 2a·X + 2b·Y =
    u_k + u_{k+1} in ascending order until an exact count reaches the
    table count, the same replays, in the same order, as a table of every
    vertex."""
    drawn = _drawn_buckets(trials, seed)
    _, xs, ys = poly.grid
    dtype = object if max(map(abs, xs + ys)) > _ORACLE_BOUND else np.int64
    normals = _ORACLE_NORMALS[drawn]
    a, b = normals.T.astype(dtype)
    gx, gy = np.array(xs, dtype=dtype), np.array(ys, dtype=dtype)
    ranges = _turning_ranges(gx, gy, poly.closed, a, b)
    a0, b0 = normals[0].tolist()
    top = max(a0 * x + b0 * y for x, y in zip(xs, ys))
    best: _Replay = 0, (2 * a0, 2 * b0, 2 * top + 1), 1
    distinct: dict[int, list[int]] = {}  # each replayed row's distinct projections, ascending
    step = max(1, _TABLE_ENTRIES // (len(xs) + poly.closed))
    for lo in range(0, len(drawn), step):
        rows, proj, counts = _turning_table(gx, gy, a, b, ranges, lo, lo + step)

        def replay(flat: int) -> _Replay:
            row = int(rows[flat])
            na, nb = normals[row].tolist()
            if row not in distinct:
                distinct[row] = sorted({na * x + nb * y for x, y in zip(xs, ys)})
            u = distinct[row]
            k = bisect_left(u, int(proj[flat]))
            stop, level = int(proj[flat + 1]), int(counts[flat])
            found = None
            while u[k] < stop:
                coefs = (2 * na, 2 * nb, u[k] + u[k + 1])
                here = _gap_count(poly, coefs), coefs, 1
                if found is None or here[0] > found[0]:
                    found = here
                if found[0] >= level:
                    break
                k += 1
            return found

        if len(counts):
            best = _replay_descending(counts, replay, best, math.inf)
    return best


def random_line_oracle(poly: Polyline, trials: int, seed: int) -> MultiplicityReport:
    """Maximum multiplicity over every gap line of the normals that `trials`
    random draws pick; the independent check for the rotational sweep.

    The draws pick among 2048 fixed integer normals, and each gap between
    two consecutive distinct projections on a drawn normal gives one line
    through no vertex (`_oracle_best`): a deterministic family of lines for
    a given seed, not a random sample of offsets.  Their crossing counts
    come from a table of the turning vertices only (`_turning_table`): the
    count changes only where the height a·X + b·Y turns along the curve,
    so every gap between two turning projections shares one count.  They
    are replayed in descending order by the exact count of distinct
    crossing places (`_gap_count`), at most (drawn normals) × (edges) of
    them; a line's coefs are built only when it is replayed, and only the
    best line builds its components.  The draw stops once every bucket is
    drawn, so any trial count takes bounded time and memory.  Coordinates
    must lie within ±2^500.
    """
    if trials < 1:
        raise PreconditionError("trials must be at least 1")
    if seed < 0:
        raise PreconditionError("seed must be non-negative")
    _float_points(poly)  # refuses coordinates beyond ±2^500
    return _witness(poly, _oracle_best(poly, trials, seed), METHOD_ORACLE)


# ---------------------------------------------------------------------------
# constructive stabbing line
# ---------------------------------------------------------------------------


def projection_witness(poly: Polyline, r: int, body: ConvexPolygon) -> float | None:
    """Angle in [0, π) at which the polyline's projected length pigeonholes a
    depth of r + 1 over the body's projection.

    The margin is l(a) - r·k(a) for even r; for odd r the endpoint chord
    strengthens it to l(a) - (r-1)·k(a) - l0·|cos(a - a0)|.  With
    k(a) = ½ Σ lᵢ|cos(a - aᵢ)| over the body's edges, the margin is
    Σ wⱼ|cos(a - βⱼ)|: the curve's segments weigh +lⱼ, the body's edges
    -(r // 2)·lᵢ and an open curve's chord, at odd r, -l0.  Over a full turn
    it integrates to 4L - 2rp, or to at least 4L - 2(r-1)p - 4d, so it is
    positive somewhere once L > s.  Each term changes sign once in [0, π),
    at βⱼ + π/2, so between consecutive sign changes the margin is
    A cos a + B sin a.  On each piece it peaks at atan2(B, A) if that lies
    inside, and otherwise at an end, which starts a piece too: one sort and
    a prefix sum give the exact maximum.  Returns None unless that maximum
    clears the rounding error of its evaluation.
    """
    if r < 2:
        raise PreconditionError("the multiplicity budget r must be at least 2")
    _require_inside(poly, body)
    lengths, angles = segment_data(poly)
    edge_lengths, edge_angles = segment_data(body.as_polyline())
    weights = [lengths, -(r // 2) * edge_lengths]
    betas = [angles, edge_angles]
    if r % 2 and not poly.closed:
        chord = chord_term(poly)
        weights.append(np.array([-chord.l0]))
        betas.append(np.array([chord.alpha0]))
    w, beta = np.concatenate(weights), np.concatenate(betas)

    # |cos(a - β)| = ±(cos β cos a + sin β sin a), with + on [0, β + π/2)
    # when β < π/2 and - on [0, β - π/2) otherwise; the sign flips at the break
    breaks = (beta + math.pi / 2.0) % math.pi
    order = np.argsort(breaks, kind="stable")
    start = np.where(beta < math.pi / 2.0, w, -w)[:, None] * np.column_stack(
        [np.cos(beta), np.sin(beta)]
    )
    flips = np.cumsum(2.0 * start[order], axis=0)
    a, b = (start.sum(axis=0) - np.vstack([np.zeros(2), flips])).T
    lo = np.concatenate([[0.0], breaks[order]])
    hi = np.concatenate([breaks[order], [math.pi]])
    alphas = np.concatenate([lo, np.clip(np.arctan2(b, a), lo, hi)])
    margins = np.tile(a, 2) * np.cos(alphas) + np.tile(b, 2) * np.sin(alphas)
    best = int(np.argmax(margins))
    # the prefix sums and products err by a few ulps of Σ|w| per term
    if not margins[best] > _FILTER * len(w) * float(np.abs(w).sum()):
        return None
    return float(alphas[best] % math.pi)


def find_stabbing_line(
    poly: Polyline, r: int, body: ConvexPolygon
) -> tuple[Line, MultiplicityReport]:
    """Produce a verified line meeting the polyline in at least r + 1
    components; defined whenever the polyline is longer than the threshold
    s(body, r).

    Runs the rotational sweep of `max_line_multiplicity` and returns the
    first candidate, in descending score order, whose exact replay reaches
    r + 1, so the returned report is an exact `line_multiplicity` count.
    Raises VerificationError when no line reaches r + 1.  That happens on
    curves that retrace themselves: a component of line ∩ polyline counts
    a retraced stretch once, so such a curve can be longer than s while
    every line meets it at most r times.
    """
    threshold = s_bound(body, r)
    if not polyline_length(poly) > threshold:
        raise PreconditionError(
            f"bound not exceeded: length {polyline_length(poly):.9g} <= s = {threshold:.9g}"
        )
    _require_inside(poly, body)
    found = _sweep_best([poly], r + 1)[0]
    if found[0] >= r + 1:
        report = _witness(poly, found, METHOD_SWEEP)
        return report.witness, report
    raise VerificationError(
        f"no line with multiplicity {r + 1} found despite length above the bound"
    )
