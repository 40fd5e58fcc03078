"""The sign predicates on integer views: `contains`, `ConvexPolygon`
validation, `_turns_both_ways`, `_require_simple` and the builder's
convex-run check against their `Fraction` references, the sweep's float
view against `Point.xy`, and a guard that none of them, nor the sweep's
scoring or the oracle's screen, does `Fraction` arithmetic."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from konvex import stabbing
from konvex.errors import DegeneracyError, NotSimpleError, PreconditionError
from konvex.geometry import (
    BOUNDARY,
    EXTERIOR,
    INTERIOR,
    LEFT,
    RIGHT,
    ConvexPolygon,
    Point,
    Polyline,
    _convex_run,
    _grid_of,
    _turns_both_ways,
    contains,
    convex_hull,
)
from konvex.verifier import _require_simple

from fraction_oracle import cross

# 1e-315 is subnormal in double precision and 10^400 beyond its range
SCALES = [
    Fraction(1, 10**315),
    Fraction(1, 10**300),
    Fraction(2, 7),
    Fraction(1),
    Fraction(10**9 + 7, 10**9),
    Fraction(2) ** 500,
    Fraction(10) ** 400,
]
small = st.fractions(Fraction(-3), Fraction(3), max_denominator=13)
shifts = st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(-5, 11), Fraction(10**8)])
# small numerators over small denominators: many coincident, collinear and
# touching configurations
lattice = st.builds(
    lambda a, b, q: (Fraction(a, q), Fraction(b, q)),
    st.integers(-4, 4), st.integers(-4, 4), st.sampled_from([1, 2, 3]),
)


# ---------------------------------------------------------------------------
# Fraction references: the predicates as written before the integer views
# ---------------------------------------------------------------------------


def fraction_orientation(p: Point, q: Point, r: Point) -> int:
    c = cross(p, q, r)
    return (c > 0) - (c < 0)


def fraction_contains(polygon: ConvexPolygon, p: Point) -> str:
    """A scan of exact `Fraction` cross products over the ring's edges."""
    ring = polygon.ring
    n = len(ring)
    on_edge = False
    for i in range(n):
        side = fraction_orientation(ring[i], ring[(i + 1) % n], p)
        if side == RIGHT:
            return EXTERIOR
        if side == 0:
            on_edge = True
    return BOUNDARY if on_edge else INTERIOR


def fraction_ring_error(ring) -> str | None:
    """The message ConvexPolygon raises on the ring, or None."""
    n = len(ring)
    if len({(p.x, p.y) for p in ring}) != n:
        return "convex polygon ring has repeated vertices"
    for i in range(n):
        if fraction_orientation(ring[i], ring[(i + 1) % n], ring[(i + 2) % n]) != LEFT:
            return (
                "ring is not strictly convex counterclockwise "
                f"(violation at vertex {(i + 1) % n})"
            )
    return None


def fraction_require_simple(poly: Polyline) -> None:
    """Every pair of segments tested with `Fraction` predicates."""
    verts = poly.vertices
    n = len(verts)
    segs = [(i, (i + 1) % n) for i in range(n)] if poly.closed else [
        (i, i + 1) for i in range(n - 1)
    ]
    for i in range(len(segs)):
        for j in range(i + 1, len(segs)):
            if segs[i][1] == segs[j][0] or segs[j][1] == segs[i][0]:
                if fraction_adjacent_overlap(verts, segs[i], segs[j]):
                    raise NotSimpleError(f"spur at segments {i} and {j}")
            elif fraction_segments_touch(*(verts[k] for k in segs[i] + segs[j])):
                raise NotSimpleError(f"segments {i} and {j} intersect")


def fraction_adjacent_overlap(verts, si, sj) -> bool:
    shared = si[1] if si[1] == sj[0] else si[0]
    e1 = si[0] if si[1] == shared else si[1]
    e2 = sj[1] if sj[0] == shared else sj[0]
    v, a, b = verts[shared], verts[e1], verts[e2]
    if fraction_orientation(v, a, b) != 0:
        return False
    return (a.x - v.x) * (b.x - v.x) + (a.y - v.y) * (b.y - v.y) > 0


def fraction_segments_touch(a: Point, b: Point, c: Point, d: Point) -> bool:
    o1 = fraction_orientation(a, b, c)
    o2 = fraction_orientation(a, b, d)
    o3 = fraction_orientation(c, d, a)
    o4 = fraction_orientation(c, d, b)
    if o1 != o2 and o3 != o4 and 0 not in (o1, o2, o3, o4):
        return True
    for p, q, r, o in ((a, b, c, o1), (a, b, d, o2), (c, d, a, o3), (c, d, b, o4)):
        within = min(p.x, q.x) <= r.x <= max(p.x, q.x) and min(p.y, q.y) <= r.y <= max(p.y, q.y)
        if o == 0 and within:
            return True
    return False


def outcome(check, poly: Polyline) -> str | None:
    try:
        check(poly)
    except NotSimpleError as err:
        return str(err)
    return None


def placed(raw, scale: Fraction, shift: Fraction = Fraction(0)) -> list[Point]:
    return [Point(x * scale + shift, y * scale - shift) for x, y in raw]


def distinct_runs(points: list[Point]) -> list[Point]:
    """The points with consecutive repeats dropped."""
    return [p for k, p in enumerate(points) if k == 0 or p != points[k - 1]]


# ---------------------------------------------------------------------------
# equivalence with the references
# ---------------------------------------------------------------------------


class TestContains:
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.tuples(small, small), min_size=3, max_size=10),
        st.lists(st.tuples(small, small), max_size=8),
        st.sampled_from(SCALES),
        shifts,
    )
    def test_matches_the_cross_scan(self, raw_ring, raw_points, scale, shift):
        try:
            body = convex_hull(placed(raw_ring, scale, shift))
        except DegeneracyError:
            assume(False)
        ring = body.ring
        n = len(ring)
        queries = placed(raw_points, scale, shift) + list(ring)
        for i in range(n):
            a, b = ring[i], ring[(i + 1) % n]
            mid = Point((a.x + b.x) / 2, (a.y + b.y) / 2)
            assert contains(body, mid) == BOUNDARY
            # a 10^-20-th of the edge length off the edge, either side
            for t in (Fraction(1, 10**20), Fraction(-1, 10**20)):
                queries.append(Point(mid.x - t * (b.y - a.y), mid.y + t * (b.x - a.x)))
        for p in queries:
            assert contains(body, p) == fraction_contains(body, p)

    def test_point_and_ring_on_different_grids(self):
        # the ring's D is 3, the points' own q is 7: the scales must not swap
        body = ConvexPolygon((Point(0, 0), Point("1/3", 0), Point(0, "1/3")))
        assert contains(body, Point("1/7", "1/7")) == INTERIOR
        assert contains(body, Point("1/7", "4/21")) == BOUNDARY
        assert contains(body, Point("1/7", "2/7")) == EXTERIOR
        assert contains(body, Point("2/7", "1/7")) == EXTERIOR


class TestConvexPolygon:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(small, small), min_size=3, max_size=9),
        st.sampled_from(SCALES),
        shifts,
        st.integers(0, 8),
        st.sampled_from(["none", "midpoint", "reverse", "push", "dent", "repeat"]),
    )
    def test_validation_matches_the_reference(self, raw, scale, shift, k, change):
        try:
            ring = list(convex_hull(placed(raw, scale, shift)).ring)
        except DegeneracyError:
            assume(False)
        n = len(ring)
        i = k % n
        a, b = ring[i], ring[(i + 1) % n]
        if change == "midpoint":
            ring.insert(i + 1, Point((a.x + b.x) / 2, (a.y + b.y) / 2))
        elif change == "reverse":
            ring.reverse()
        elif change in ("push", "dent"):
            # a vertex a 10^-20-th of a chord outside or inside its
            # neighbours' chord
            c = ring[(i + 2) % n]
            t = Fraction(1 if change == "push" else -1, 10**20)
            ring[(i + 1) % n] = Point(
                (a.x + c.x) / 2 + t * (c.y - a.y), (a.y + c.y) / 2 - t * (c.x - a.x)
            )
        elif change == "repeat":
            ring.insert(i + 1, a)
        expected = fraction_ring_error(ring)
        if expected is None:
            assert ConvexPolygon(tuple(ring)).ring == tuple(ring)
        else:
            with pytest.raises(PreconditionError) as err:
                ConvexPolygon(tuple(ring))
            assert str(err.value) == expected

    @settings(max_examples=200, deadline=None)
    @given(st.lists(lattice, min_size=3, max_size=9), st.sampled_from(SCALES))
    def test_turns_both_ways_matches_the_reference(self, raw, scale):
        pts = distinct_runs(placed(raw, scale))
        if len(pts) > 1 and pts[0] == pts[-1]:
            pts.pop()
        assume(len(pts) >= 2)
        ring = Polyline(tuple(pts), closed=True)
        n = len(pts)
        turns = {fraction_orientation(pts[i], pts[(i + 1) % n], pts[(i + 2) % n]) for i in range(n)}
        assert _turns_both_ways(ring) == (LEFT in turns and RIGHT in turns)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(lattice, min_size=0, max_size=7),
        st.sampled_from(SCALES),
        st.sampled_from(["raw", "hull", "reversed hull"]),
        st.integers(0, 6),
    )
    def test_convex_run_matches_the_reference(self, raw, scale, order, turn):
        # a run and its chord bound a strictly convex polygon exactly when
        # every triple of its vertices, in run order, turns the same strict way
        pts = placed(raw, scale)
        if order != "raw":
            try:
                pts = list(convex_hull(pts).ring)
            except DegeneracyError:
                assume(False)
            if order == "reversed hull":
                pts.reverse()
            pts = pts[turn % len(pts):] + pts[: turn % len(pts)]
        n = len(pts)
        turns = {
            fraction_orientation(pts[i], pts[j], pts[k])
            for i in range(n) for j in range(i + 1, n) for k in range(j + 1, n)
        }
        _, xs, ys = _grid_of(pts)
        assert _convex_run(xs, ys, 0, n - 1) == (n >= 3 and turns in ({LEFT}, {RIGHT}))
        if n >= 2:  # the same run inside a longer view
            assert _convex_run((0,) + xs + (0,), (0,) + ys + (0,), 1, n) == _convex_run(xs, ys, 0, n - 1)


class TestRequireSimple:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(lattice, min_size=2, max_size=9),
        st.sampled_from(SCALES),
        shifts,
        st.booleans(),
    )
    def test_matches_the_fraction_scan(self, raw, scale, shift, closed):
        pts = distinct_runs(placed(raw, scale, shift))
        if closed and len(pts) > 1 and pts[0] == pts[-1]:
            pts.pop()
        assume(len(pts) >= 2)
        poly = Polyline(tuple(pts), closed=closed)
        assert outcome(_require_simple, poly) == outcome(fraction_require_simple, poly)

    def test_touch_finer_than_float_resolution(self):
        # the third vertex touches the first segment's interior at a point
        # whose float view cannot tell it from a near miss
        tiny = Fraction(1, 10**30)
        touch = Polyline((Point(0, 0), Point(2, 2 * tiny), Point(1, tiny), Point(1, 1)))
        miss = Polyline((Point(0, 0), Point(2, 2 * tiny), Point(1, 2 * tiny), Point(1, 1)))
        with pytest.raises(NotSimpleError):
            _require_simple(touch)
        _require_simple(miss)
        assert outcome(fraction_require_simple, miss) is None


class TestFloatView:
    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.tuples(small, small), min_size=2, max_size=10),
        st.sampled_from(
            [Fraction(1, 10**315), Fraction(3, 2**1074), Fraction(1, 3), Fraction(2) ** 497]
        ),
    )
    def test_same_bits_as_point_xy(self, raw, scale):
        pts = distinct_runs(placed(raw, scale))
        assume(len(pts) >= 2)
        poly = Polyline(tuple(pts))
        view = stabbing._float_points(poly)
        xy = np.array([Point(p.x, p.y).xy for p in pts])
        assert np.array_equal(view.view(np.int64), xy.view(np.int64))

    def test_beyond_double_range_is_refused(self):
        poly = Polyline((Point(0, 0), Point(Fraction(10) ** 400, 1)))
        with pytest.raises(PreconditionError, match="2\\^500"):
            stabbing._float_points(poly)


# ---------------------------------------------------------------------------
# guard: no Fraction arithmetic on the predicate paths
# ---------------------------------------------------------------------------

FRACTION_DUNDERS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__", "__mod__", "__rmod__",
    "__divmod__", "__rdivmod__", "__pow__", "__rpow__", "__neg__", "__pos__", "__abs__",
    "__float__", "__bool__", "__eq__", "__lt__", "__le__", "__gt__", "__ge__",
)


def test_predicates_do_no_fraction_arithmetic(monkeypatch):
    tiny = "1e-30"
    ring = (Point("-1/7", "2/3"), Point("5/11", "-3/13"), Point(2, "1/2"), Point(1, "9/5"))
    body = ConvexPolygon(ring)
    queries = [Point("1/3", "1/2"), Point(2, "1/2"), Point("7/2", 0), Point("1e400", 1)]
    cloud = list(ring) + [Point("1/2", "1/2"), Point(2, "1/2"), Point("1e400", tiny)]
    closed = Polyline(ring[::-1] + (Point("1/2", "1/2"),), closed=True)
    crossing = Polyline((Point(0, 0), Point(2, 2), Point(2, 0), Point(0, 2)))
    zigzag = Polyline(tuple(Point(k, tiny if k % 2 else 0) for k in range(6)))
    # vertices within 1e-17 of each other: grid ints near 10^17, beyond the
    # oracle's int64 bound, so its table takes Python ints
    cluster = Polyline(tuple(Point(f"1.{k:017d}", f"1.{k * k % 5:017d}") for k in range(1, 9)))

    def refuse(*args):
        raise AssertionError("Fraction arithmetic on an integer-view path")

    def run():
        sweep = stabbing._Sweep([zigzag, closed, crossing])
        return (
            [contains(body, p) for p in queries],
            convex_hull(cloud).ring,
            ConvexPolygon(ring).ring,
            _turns_both_ways(closed),
            [outcome(_require_simple, poly) for poly in (closed, crossing, zigzag)],
            [(rows, scores.tolist(), rep.tolist()) for rows, scores, rep in sweep.scored_chunks()],
            stabbing._oracle_best(cluster, 300, 5),
        )

    for name in FRACTION_DUNDERS:
        monkeypatch.setattr(Fraction, name, refuse)
    guarded = run()
    monkeypatch.undo()
    assert guarded == run()
    assert guarded[0] == [fraction_contains(body, p) for p in queries]
    assert guarded[3] is True and guarded[4][1] == "segments 0 and 2 intersect"
