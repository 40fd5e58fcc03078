"""The integer grid behind exact replay: `line_multiplicity`,
`proper_crossings`, the sweep's witnesses and its re-shift test against
their `Fraction` references, and the grid view itself."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from konvex import geometry, stabbing
from konvex.errors import PreconditionError, VerificationError
from konvex.geometry import ConvexPolygon, Line, Point, Polyline
from konvex.random_shapes import random_star_ring, random_walk_polyline
from konvex.stabbing import (
    Component,
    MultiplicityReport,
    line_multiplicity,
    max_line_multiplicity,
    proper_crossings,
)

from fraction_oracle import fraction_accidental, side_of, value_at

SQUARE = ConvexPolygon((Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)))


# ---------------------------------------------------------------------------
# Fraction references: the exact replay as written before the integer grid
# ---------------------------------------------------------------------------


def fraction_line_multiplicity(line: Line, poly: Polyline, method: str = "direct"):
    """Component count of line ∩ polyline with every piece located by
    `Fraction` arithmetic on the line's rational chart."""
    verts = poly.vertices
    values = [value_at(line, v) for v in verts]
    sides = [(value > 0) - (value < 0) for value in values]

    pieces = []
    for seg_idx, ia, ib in stabbing._segment_endpoints(poly):
        sa, sb = sides[ia], sides[ib]
        if sa == 0 and sb == 0:
            ta, tb = line.along(verts[ia]), line.along(verts[ib])
            if ta <= tb:
                pieces.append((ta, tb, verts[ia], verts[ib], seg_idx))
            else:
                pieces.append((tb, ta, verts[ib], verts[ia], seg_idx))
        elif sa == 0:
            t = line.along(verts[ia])
            pieces.append((t, t, verts[ia], verts[ia], seg_idx))
        elif sb == 0:
            t = line.along(verts[ib])
            pieces.append((t, t, verts[ib], verts[ib], seg_idx))
        elif sa != sb:
            va, vb = values[ia], values[ib]
            tau = va / (va - vb)
            a, b = verts[ia], verts[ib]
            p = Point(a.x + tau * (b.x - a.x), a.y + tau * (b.y - a.y))
            t = line.along(p)
            pieces.append((t, t, p, p, seg_idx))

    pieces.sort(key=lambda piece: (piece[0], piece[1]))
    components = []
    cur = None
    for lo, hi, p_lo, p_hi, seg_idx in pieces:
        if cur is not None and lo <= cur[1]:
            if hi > cur[1]:
                cur[1] = hi
                cur[3] = p_hi
            cur[4].add(seg_idx)
        else:
            if cur is not None:
                components.append(Component(tuple(sorted(cur[4])), cur[2].xy, cur[3].xy))
            cur = [lo, hi, p_lo, p_hi, {seg_idx}]
    if cur is not None:
        components.append(Component(tuple(sorted(cur[4])), cur[2].xy, cur[3].xy))
    return MultiplicityReport(len(components), line, method, tuple(components))


def fraction_proper_crossings(line: Line, poly: Polyline) -> int:
    sides = [side_of(line, v) for v in poly.vertices]
    if any(s == 0 for s in sides):
        raise PreconditionError("line passes through a polyline vertex")
    flips = sum(1 for a, b in zip(sides, sides[1:]) if a != b)
    return flips + (poly.closed and sides[-1] != sides[0])


def fraction_direction(p: Point, q: Point) -> tuple[Fraction, Fraction]:
    dx, dy = q.x - p.x, q.y - p.y
    return (-dx, -dy) if dy < 0 or (dy == 0 and dx < 0) else (dx, dy)


def fraction_replay(sweep, rows, scores, rep, flat, shifts: list[int]):
    """`_Sweep.replay` in `Fraction`s; appends the open-cell tries it made."""
    row, k, kind = np.unravel_index(flat, scores.shape)
    curve, pivot = int(sweep.row_curve[rows.start + row]), int(sweep.row_pivot[rows.start + row])
    score, a, b = int(scores[row, k, kind]), rep[row, k], rep[row, k + 1]
    poly = sweep.polys[curve]
    verts = poly.vertices
    p = verts[pivot]
    if kind == stabbing._EVENT:
        return fraction_line_multiplicity(Line.from_points(p, verts[a]), poly, "rotational_sweep")
    ax, ay = fraction_direction(p, verts[a])
    if b >= 0:
        bx, by = fraction_direction(p, verts[b])
        wx, wy = ax + bx, ay + by
    elif ay > 0:
        wx, wy = ax - abs(ax) - ay, ay
    else:
        wx, wy = Fraction(0), Fraction(1)
    nx, ny = -wy, wx
    c = nx * p.x + ny * p.y
    if kind == stabbing._THROUGH:
        return fraction_line_multiplicity(Line(nx, ny, c), poly, "rotational_sweep")
    pivots = sweep.row_pivot[sweep.row_start[curve] : sweep.row_start[curve + 1]]
    gap = min(abs(nx * v.x + ny * v.y - c) for v in (verts[i] for i in pivots) if v != p)
    side = 1 if kind == stabbing._LEFT else -1
    for tries in range(1, stabbing._GENERIC_TRIES + 1):
        shifts.append(tries)
        line = Line(nx, ny, c - side * gap / 2**tries)
        report = fraction_line_multiplicity(line, poly, "rotational_sweep")
        if report.count == score or not fraction_accidental(report, poly):
            return report
    raise VerificationError("no witness line avoids the curve's self-intersections")


def same_report(new: MultiplicityReport, old: MultiplicityReport) -> bool:
    """Equal counts, witnesses and methods, and component bytes: repr tells
    -0.0 from 0.0, which == does not."""
    return (
        (new.count, new.witness, new.method) == (old.count, old.witness, old.method)
        and repr(new.components) == repr(old.components)
    )


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

# coordinate scales: plain integers, coprime ratio denominators, and the
# ends of double range (1e-315 is subnormal)
_SCALES = [
    Fraction(1),
    Fraction(1, 3),
    Fraction(2, 7),
    Fraction(5, 11),
    Fraction(1, 10**300),
    Fraction(1, 10**315),
    Fraction(10**300),
]
# the sweep refuses coordinates beyond 2^500
_SWEEP_SCALES = _SCALES[:-1] + [Fraction(2) ** 490]
_DENOMINATORS = [1, 1, 1, 2, 3, 7, 13]


@st.composite
def curves(draw, size: int = 12, scales: list[Fraction] = _SCALES) -> Polyline:
    """Walks, star rings and retraced or collinear-overlapping walks, at one
    scale, each coordinate over a small coprime denominator."""
    kind = draw(st.sampled_from(["walk", "star", "retraced"]))
    if kind == "star":
        seed = draw(st.integers(0, 10**6))
        ring = random_star_ring(seed, SQUARE, draw(st.integers(6, size)))
        raw = [(v.x, v.y) for v in ring.vertices]
    else:
        n = draw(st.integers(2, size))
        side = draw(st.integers(2, 6))
        coord = st.builds(Fraction, st.integers(0, 3 * side), st.sampled_from(_DENOMINATORS))
        raw = draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n))
        if kind == "retraced":  # the walk back along itself, then a little further
            raw = raw + raw[-2::-1] + raw[1:2]
    verts = [v for i, v in enumerate(raw) if i == 0 or v != raw[i - 1]]
    if len(verts) < 2:
        verts.append((verts[0][0] + 1, verts[0][1]))
    closed = len(verts) >= 3 and verts[0] != verts[-1] and draw(st.booleans())
    scale = draw(st.sampled_from(scales))
    return Polyline(tuple(Point(x * scale, y * scale) for x, y in verts), closed)


_small = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 9))


@st.composite
def lines_for(draw, poly: Polyline) -> Line:
    """A rational line, a lifted float line, a line through two vertices, a
    line along an edge, or a line through a vertex at a small rational slope."""
    verts = poly.vertices
    kind = draw(st.sampled_from(["rational", "float", "vertices", "edge", "pivot"]))
    scale = max(max(abs(v.x), abs(v.y)) for v in verts) or Fraction(1)
    if kind in ("rational", "float"):
        nx, ny = draw(_small), draw(_small)
        if nx == ny == 0:
            nx = Fraction(1)
        c = draw(_small) * scale / 10
        if kind == "float":
            return Line(*(Fraction(float(v)) for v in (nx, ny, c)))
        return Line(nx, ny, c)
    i = draw(st.integers(0, len(verts) - 1))
    if kind == "edge":
        _, a, b = draw(st.sampled_from(list(stabbing._segment_endpoints(poly))))
        return Line.from_points(verts[a], verts[b])
    if kind == "vertices":
        j = draw(st.integers(0, len(verts) - 1))
        if verts[j] != verts[i]:
            return Line.from_points(verts[i], verts[j])
    nx, ny = draw(_small), Fraction(1)
    return Line(nx, ny, nx * verts[i].x + ny * verts[i].y)


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------


def assert_every_sweep_witness(polys: list[Polyline]) -> None:
    sweep = stabbing._Sweep(polys)
    for rows, scores, rep in sweep.scored_chunks():
        for flat in np.flatnonzero(scores >= 0).tolist():
            curve = sweep.row_curve[rows.start + np.unravel_index(flat, scores.shape)[0]]
            found = sweep.replay(rows, scores, rep, flat)
            new = stabbing._witness(polys[curve], found, stabbing.METHOD_SWEEP)
            assert new.count == found[0]
            assert same_report(new, fraction_replay(sweep, rows, scores, rep, flat, []))


class TestAgainstFractionReference:
    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_line_multiplicity(self, data):
        poly = data.draw(curves())
        for _ in range(4):
            line = data.draw(lines_for(poly))
            expected = fraction_line_multiplicity(line, poly)
            assert same_report(line_multiplicity(line, poly), expected)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_proper_crossings(self, data):
        poly = data.draw(curves())
        line = data.draw(lines_for(poly))
        try:
            expected = fraction_proper_crossings(line, poly)
        except PreconditionError:
            with pytest.raises(PreconditionError):
                proper_crossings(line, poly)
        else:
            assert proper_crossings(line, poly) == expected

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_accidental(self, data):
        poly = data.draw(curves())
        line = data.draw(lines_for(poly))
        coefs = stabbing._integer_line((line.nx, line.ny, line.c), poly.grid[0])
        merged = stabbing._merged_pieces(poly, coefs)[0]
        report = line_multiplicity(line, poly)
        assert stabbing._accidental(merged, poly) == fraction_accidental(report, poly)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(curves(8, _SWEEP_SCALES), min_size=1, max_size=3))
    def test_every_sweep_witness(self, polys):
        assert_every_sweep_witness(polys)

    @pytest.mark.parametrize("scale", [Fraction(1), Fraction(2, 7), Fraction(1, 10**300)])
    def test_flat_curves(self, scale):
        # every pivot of a horizontal curve has one direction class, whose
        # interval is (0, π); vertical and diagonal ones have two
        flat = [
            [(0, 0), (2, 0), (1, 0), (3, 0)],
            [(0, 0), (0, 2), (0, 1)],
            [(0, 0), (1, 1), (3, 3), (2, 2)],
        ]
        assert_every_sweep_witness(
            [Polyline(tuple(Point(x * scale, y * scale) for x, y in f)) for f in flat]
        )

    def test_beyond_double_range(self):
        # exact counts need no float view; component ends beyond it are refused
        big = Fraction(10) ** 400
        poly = Polyline((Point(-big, 0), Point(big, 1), Point(0, 2)))
        line = Line(1, 0, big / 2)  # crosses both edges at x = 5e399
        with pytest.raises(PreconditionError, match="beyond double range"):
            line_multiplicity(line, poly)
        with pytest.raises(PreconditionError, match="beyond double range"):
            fraction_line_multiplicity(line, poly)
        assert proper_crossings(line, poly) == fraction_proper_crossings(line, poly) == 2

    def test_crossing_at_zero_is_positive_zero(self):
        # x = 0 crosses this edge from its negative side: the crossing's
        # denominator is negative before it is normalized
        poly = Polyline((Point(-1, 1), Point(1, 3)))
        report = line_multiplicity(Line(1, 0, 0), poly)
        assert repr(report.components[0].start) == "(0.0, 2.0)"
        assert same_report(report, fraction_line_multiplicity(Line(1, 0, 0), poly))


def reshifted_curve() -> tuple[Polyline, int]:
    """A walk whose sweep re-shifts an open-cell witness off a
    self-intersection point, and the number of candidates that needed it."""
    for seed in range(200):
        rng = np.random.default_rng([71, seed])
        pts = [tuple(int(c) for c in rng.integers(0, 4, 2)) for _ in range(7)]
        pts = [p for i, p in enumerate(pts) if i == 0 or p != pts[i - 1]]
        if len(pts) < 3:
            continue
        poly = Polyline(tuple(Point(x, y) for x, y in pts))
        sweep = stabbing._Sweep([poly])
        reshifts = 0
        for rows, scores, rep in sweep.scored_chunks():
            for flat in np.flatnonzero(scores >= 0).tolist():
                shifts: list[int] = []
                fraction_replay(sweep, rows, scores, rep, flat, shifts)
                reshifts += max(shifts, default=1) > 1
        if reshifts:
            return poly, reshifts
    raise AssertionError("no seeded walk needs a re-shift")


class TestReshift:
    def test_reshifted_witnesses_match_the_reference(self):
        poly, reshifts = reshifted_curve()
        assert reshifts >= 1
        assert_every_sweep_witness([poly])


class TestGridView:
    def test_scaled_coordinates(self):
        poly = Polyline((Point("1/3", "2/7"), Point("0.5", 2), Point(-1, "-1/21")))
        assert poly.grid == (42, (14, 21, -42), (12, 84, -2))

    def test_computed_once_per_polyline(self, monkeypatch):
        calls = []
        grid_of = geometry._grid_of

        def counting(vertices):
            calls.append(vertices)
            return grid_of(vertices)

        # the retraced half lifts top scores above the count: many replays;
        # generating the ring computes the ring's own grid, so it comes first
        verts = list(random_star_ring(np.random.default_rng(0), SQUARE, n_vertices=12).vertices)
        poly = Polyline(tuple(verts + verts[:1] + verts[1:7]))
        monkeypatch.setattr(geometry, "_grid_of", counting)
        max_line_multiplicity(poly)
        assert len(calls) == 1
        line_multiplicity(Line(1, 1, 1), poly)
        assert len(calls) == 1

    def test_stored_outside_the_fields(self):
        walk = random_walk_polyline(3, SQUARE, 8)
        fresh = Polyline(walk.vertices, walk.closed)
        shown = repr(walk)
        assert walk.grid is walk.grid
        assert walk == fresh and hash(walk) == hash(fresh) and repr(walk) == shown
