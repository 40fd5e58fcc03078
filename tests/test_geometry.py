import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from konvex.errors import DegeneracyError, PreconditionError
from konvex.geometry import (
    BOUNDARY,
    COLLINEAR,
    EXTERIOR,
    INTERIOR,
    LEFT,
    RIGHT,
    ConvexPolygon,
    Line,
    Point,
    Polyline,
    _convex_run,
    contains,
    convex_hull,
    diameter,
    orientation,
    perimeter,
    polyline_length,
    width,
)
from konvex.random_shapes import random_convex_polygon

from fraction_oracle import (
    cross,
    diameter_bruteforce,
    dist_sq,
    line_from_direction_offset,
    rigid_motion,
    side_of,
)

SQUARE = ConvexPolygon((Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)))


def square_ring() -> Polyline:
    return SQUARE.as_polyline()


rational = st.fractions(
    min_value=Fraction(-100), max_value=Fraction(100), max_denominator=10**6
)
points = st.builds(Point, rational, rational)


class TestOrientation:
    def test_unit_triangle_left(self):
        assert orientation(Point(0, 0), Point(1, 0), Point(0, 1)) == LEFT

    def test_diagonal_collinear(self):
        assert orientation(Point(0, 0), Point(1, 1), Point(2, 2)) == COLLINEAR

    def test_tiny_dip_right(self):
        # exact rational cross product: (1,0)x(2,-1e-9) = -1e-9 < 0
        assert orientation(Point(0, 0), Point(1, 0), Point("2", "-1e-9")) == RIGHT

    @given(points, points, points)
    @settings(max_examples=100, deadline=None)
    def test_swap_antisymmetry_and_cyclic_invariance(self, p, q, r):
        o = orientation(p, q, r)
        assert orientation(q, p, r) == -o
        assert orientation(p, r, q) == -o
        assert orientation(q, r, p) == o
        assert orientation(r, p, q) == o


# orientation against the sign of the exact `Fraction` cross product, on the
# inputs where a float evaluation of the determinant goes wrong or overflows
grid = st.integers(-(10**11), 10**11).map(lambda k: Fraction(k, 10**9))
grid_points = st.builds(Point, grid, grid)
ratios = st.fractions(Fraction(-10), Fraction(10), max_denominator=10**6)
shifts = st.fractions(Fraction(-(10**8)), Fraction(10**8), max_denominator=10**3)


def exact_sign(p: Point, q: Point, r: Point) -> int:
    c = cross(p, q, r)
    return (c > 0) - (c < 0)


def on_line(p: Point, q: Point, t: Fraction) -> Point:
    return Point(p.x + t * (q.x - p.x), p.y + t * (q.y - p.y))


def moved(points, scale, shift=(0, 0)):
    return [Point(v.x * scale + shift[0], v.y * scale + shift[1]) for v in points]


class TestFilteredOrientation:
    @given(grid_points, grid_points, grid_points, shifts, shifts)
    @settings(max_examples=300, deadline=None)
    def test_grid_triples(self, p, q, r, sx, sy):
        for triple in ((p, q, r), moved((p, q, r), 1, (sx, sy))):
            assert orientation(*triple) == exact_sign(*triple)

    @given(grid_points, grid_points, ratios, shifts, shifts)
    @settings(max_examples=200, deadline=None)
    def test_collinear_triples(self, p, q, t, sx, sy):
        r = on_line(p, q, t)
        for triple in ((p, q, r), moved((p, q, r), 1, (sx, sy))):
            assert orientation(*triple) == exact_sign(*triple) == COLLINEAR

    @given(
        grid_points, grid_points, ratios,
        st.integers(12, 30), st.sampled_from([-1, 1]), st.integers(-3, 3), st.integers(-3, 3),
        shifts, shifts,
    )
    @settings(max_examples=300, deadline=None)
    def test_near_collinear_triples(self, p, q, t, exponent, sign, a, b, sx, sy):
        delta = Fraction(sign, 10**exponent)
        base = on_line(p, q, t)
        r = Point(base.x + a * delta, base.y + b * delta)
        for triple in ((p, q, r), moved((p, q, r), 1, (sx, sy))):
            assert orientation(*triple) == exact_sign(*triple)

    @given(
        grid_points, grid_points, ratios, st.integers(12, 30), st.integers(-3, 3),
        st.sampled_from(
            [Fraction(2) ** 500, Fraction(2) ** 498 * 3, Fraction(10) ** 400, Fraction(1, 10**300)]
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_extreme_magnitudes(self, p, q, t, exponent, a, scale):
        base = on_line(p, q, t)
        r = Point(base.x + a * Fraction(1, 10**exponent), base.y)
        for triple in ((p, q, r), (p, q, base)):
            scaled = moved(triple, scale)
            assert orientation(*scaled) == exact_sign(*scaled)

    def test_subnormal_rounding_is_decided_exactly(self):
        # float views round 1.4 * 2^-1074 down to 2^-1074, turning the exact
        # det 3 * 1.4 * 2^-1074 - 2^-1072 > 0 into -2^-1074 in floats
        tiny = Fraction(1, 2**1074)
        p, q = Point(0, 0), Point(3, Fraction(1, 2**600))
        r = Point(Fraction(1, 2**472), tiny * Fraction(14, 10))
        assert exact_sign(p, q, r) == LEFT
        assert orientation(p, q, r) == LEFT

    def test_beyond_double_range_uses_exact_predicates(self):
        huge = Fraction(10) ** 400
        with pytest.raises(PreconditionError):
            Point(huge, 0).xy
        triangle = ConvexPolygon((Point(0, 0), Point(huge, 0), Point(0, 1)))
        assert orientation(Point(0, 0), Point(huge, 1), Point(huge, 2)) == LEFT
        assert contains(triangle, Point(huge / 2, "0.25")) == INTERIOR
        assert contains(triangle, Point(huge, "1e-9")) == EXTERIOR
        assert side_of(Line.from_points(Point(0, 0), Point(huge, 1)), Point(huge, 2)) == LEFT

    def test_float_view_is_computed_once(self):
        p = Point("1/3", 2)
        assert p.xy is p.xy == (1 / 3, 2.0)
        assert p == Point("1/3", 2) and hash(p) == hash(Point("1/3", 2))


class TestPolyline:
    def test_length_l_shape(self):
        poly = Polyline((Point(0, 0), Point(1, 0), Point(1, 1)))
        assert polyline_length(poly) == pytest.approx(2.0, abs=1e-15)

    def test_length_closed_square(self):
        assert polyline_length(square_ring()) == pytest.approx(4.0, abs=1e-15)

    def test_length_345(self):
        poly = Polyline((Point(0, 0), Point(3, 4)))
        assert polyline_length(poly) == pytest.approx(5.0, abs=1e-15)

    def test_rejects_single_vertex(self):
        with pytest.raises(PreconditionError):
            Polyline((Point(0, 0),))

    def test_rejects_repeated_consecutive(self):
        with pytest.raises(PreconditionError):
            Polyline((Point(0, 0), Point(0, 0), Point(1, 1)))

    def test_closed_must_not_restate_first_vertex(self):
        with pytest.raises(PreconditionError):
            Polyline((Point(0, 0), Point(1, 0), Point(0, 0)), closed=True)


class TestConvexPolygon:
    def test_perimeter_square(self):
        assert perimeter(SQUARE) == pytest.approx(4.0, abs=1e-15)

    def test_perimeter_right_triangle(self):
        tri = ConvexPolygon((Point(0, 0), Point(1, 0), Point(0, 1)))
        assert perimeter(tri) == pytest.approx(2 + math.sqrt(2), rel=1e-15)

    def test_perimeter_regular_hexagon(self):
        pts = tuple(
            Point(Fraction(math.cos(k * math.pi / 3)), Fraction(math.sin(k * math.pi / 3)))
            for k in range(6)
        )
        assert perimeter(ConvexPolygon(pts)) == pytest.approx(6.0, rel=1e-12)

    def test_rejects_collinear_triple(self):
        with pytest.raises(PreconditionError):
            ConvexPolygon((Point(0, 0), Point(1, 0), Point(2, 0), Point(1, 1)))

    def test_rejects_clockwise(self):
        with pytest.raises(PreconditionError):
            ConvexPolygon((Point(0, 0), Point(0, 1), Point(1, 1), Point(1, 0)))


def run_view(points, pad=0):
    """The integer view of a run, behind `pad` unrelated vertices and
    before one more, and the run's first and last index in it."""
    xs = [7] * pad + [x for x, _ in points] + [-9]
    ys = [-3] * pad + [y for _, y in points] + [11]
    return xs, ys, pad, pad + len(points) - 1


class TestConvexRun:
    """A run i..k closed by its chord must turn strictly one way at every
    vertex, the chord's two ends included, and wind once."""

    @pytest.mark.parametrize("pad", [0, 3])
    @pytest.mark.parametrize(
        "points",
        [
            [(0, 0), (4, 0), (4, 4)],
            [(0, 0), (4, 0), (5, 2), (4, 4), (0, 4)],
            [(0, 4), (4, 4), (5, 2), (4, 0), (0, 0)],  # clockwise
            [(10**30, 0), (0, 10**30), (-(10**30), 1)],
        ],
    )
    def test_convex_runs_pass(self, points, pad):
        assert _convex_run(*run_view(points, pad))

    @pytest.mark.parametrize("pad", [0, 3])
    @pytest.mark.parametrize(
        "points",
        [
            pytest.param([(0, 0), (4, 0), (2, 1), (4, 4), (0, 4)], id="reflex vertex"),
            pytest.param([(0, 0), (1, 0), (2, 0), (2, 2)], id="collinear triple"),
            pytest.param([(0, 0), (4, 0), (0, 0), (0, 4)], id="retraced edge"),
            pytest.param([(0, 0), (4, 0), (4, 4), (2, 1)], id="chord end turns wrong"),
            pytest.param([(0, 0), (4, 0), (4, 4), (0, 0)], id="chord of length 0"),
            pytest.param([(0, 0), (4, 0)], id="a segment"),
            pytest.param(
                [(0, 10), (6, -8), (-10, 3), (10, 3), (-6, -8)], id="pentagram winds twice"
            ),
        ],
    )
    def test_refused(self, points, pad):
        assert not _convex_run(*run_view(points, pad))

    def test_only_the_chord_end_or_the_winding_fails(self):
        # the interior turns of these two refused runs are strict and of
        # one sign: the chord end's turn and the winding are what refuse them
        for points, sign in (([(0, 0), (4, 0), (4, 4), (2, 1)], LEFT),
                             ([(0, 10), (6, -8), (-10, 3), (10, 3), (-6, -8)], RIGHT)):
            inner = {orientation(*(Point(*points[j]) for j in (v - 1, v, v + 1)))
                     for v in range(1, len(points) - 1)}
            assert inner == {sign}
        star = [(0, 10), (6, -8), (-10, 3), (10, 3), (-6, -8)]
        n = len(star)
        closed = {orientation(*(Point(*star[(v + t) % n]) for t in (-1, 0, 1))) for v in range(n)}
        assert closed == {RIGHT}  # one sign all round, the chord's ends included

    @settings(max_examples=200, deadline=None)
    @given(st.integers(3, 40), st.integers(1, 3), st.booleans(), st.integers(0, 10**6))
    def test_regular_star_polygons(self, n, turns, clockwise, seed):
        # the star polygon {n/turns} on a large circle, snapped to ints:
        # it turns one way strictly and winds `turns` times when 2·turns < n
        if 2 * turns >= n or math.gcd(n, turns) != 1:
            return
        radius = 10**12
        start = seed % n
        points = [
            (round(radius * math.cos(2 * math.pi * turns * j / n)),
             round(radius * math.sin(2 * math.pi * turns * j / n)))
            for j in range(start, start + n)
        ]
        if clockwise:
            points.reverse()
        assert _convex_run(*run_view(points, seed % 3)) == (turns == 1)


class TestDiameter:
    def test_square_diagonal(self):
        d, a, b = diameter(SQUARE)
        assert d == pytest.approx(math.sqrt(2), rel=1e-15)
        assert {a, b} == {Point(0, 0), Point(1, 1)}

    def test_right_triangle_hypotenuse(self):
        tri = ConvexPolygon((Point(0, 0), Point(4, 0), Point(0, 3)))
        d, a, b = diameter(tri)
        assert d == 5.0
        assert {a, b} == {Point(4, 0), Point(0, 3)}

    def test_regular_hexagon_opposite_vertices(self):
        pts = tuple(
            Point(Fraction(math.cos(k * math.pi / 3)), Fraction(math.sin(k * math.pi / 3)))
            for k in range(6)
        )
        d, _, _ = diameter(ConvexPolygon(pts))
        assert d == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_bruteforce_on_random_polygons(self, seed):
        poly = random_convex_polygon(seed, n_vertices=50)
        d_fast, a, b = diameter(poly)
        d_slow, _, _ = diameter_bruteforce(poly)
        assert d_fast == d_slow  # bit-exact, both from exact squared distances
        assert math.sqrt(float(dist_sq(a, b))) == d_fast

    def test_metrics_are_stored_outside_the_fields(self):
        body = ConvexPolygon((Point(0, 0), Point(4, 0), Point(0, 3)))
        fresh = ConvexPolygon(body.ring)
        shown = repr(body)
        assert diameter(body) is diameter(body) and perimeter(body) == 12.0
        assert body == fresh and hash(body) == hash(fresh) and repr(body) == shown

    def test_squared_diameter_beyond_double_range(self):
        # d^2 = 2e400 has no float view, d = 1.41e200 does
        big = Fraction(10) ** 200
        triangle = ConvexPolygon((Point(0, 0), Point(big, 0), Point(0, big)))
        assert diameter(triangle)[0] == pytest.approx(math.sqrt(2) * 1e200, rel=1e-15)
        assert diameter_bruteforce(triangle)[0] == diameter(triangle)[0]


class TestWidth:
    def test_square_axis(self):
        assert width(SQUARE, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_square_diagonal(self):
        assert width(SQUARE, math.pi / 4) == pytest.approx(math.sqrt(2), rel=1e-15)

    def test_square_pi_over_6(self):
        # vertex projection extremes: cos(30) + sin(30)
        expected = (math.sqrt(3) + 1) / 2
        assert width(SQUARE, math.pi / 6) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("seed", range(10))
    def test_pi_periodic_and_bounded_by_diameter(self, seed):
        import random

        rng = random.Random(seed)
        poly = random_convex_polygon(seed + 1000, n_vertices=rng.randrange(5, 30))
        d, a, b = diameter(poly)
        for _ in range(10):
            alpha = rng.uniform(0, 2 * math.pi)
            w = width(poly, alpha)
            assert abs(w - width(poly, alpha + math.pi)) < 1e-12
            assert w <= d + 1e-12
        # projecting along the diameter direction attains the diameter
        ax, ay = a.xy
        bx, by = b.xy
        alpha_d = math.atan2(by - ay, bx - ax)
        assert width(poly, alpha_d) == pytest.approx(d, rel=1e-12)


class TestContains:
    def test_interior(self):
        assert contains(SQUARE, Point("0.5", "0.5")) == INTERIOR

    def test_boundary(self):
        assert contains(SQUARE, Point(1, "0.5")) == BOUNDARY

    def test_exterior(self):
        assert contains(SQUARE, Point(2, 0)) == EXTERIOR

    def test_vertex_is_boundary(self):
        assert contains(SQUARE, Point(0, 0)) == BOUNDARY

    def test_collinear_with_edge_but_outside(self):
        assert contains(SQUARE, Point(3, 0)) == EXTERIOR


def exact_hull(points: list[Point]) -> tuple[Point, ...]:
    """Monotone chain over the exact (x, y) order, deduplicated by set()."""
    pts = sorted(set(points), key=lambda p: (p.x, p.y))

    def half(chain_pts):
        chain = []
        for p in chain_pts:
            while len(chain) >= 2 and cross(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
        return chain

    ring = half(pts)[:-1] + half(pts[::-1])[:-1]
    if len(ring) < 3:
        raise DegeneracyError("degenerate")
    return tuple(ring)


class TestConvexHull:
    def test_square_with_center(self):
        pts = [Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1), Point("0.5", "0.5")]
        hull = convex_hull(pts)
        assert set(hull.ring) == set(SQUARE.ring)

    def test_collinear_midpoint_dropped(self):
        hull = convex_hull([Point(0, 0), Point(1, 0), Point(2, 0), Point(1, 1)])
        assert set(hull.ring) == {Point(0, 0), Point(2, 0), Point(1, 1)}

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(-2, 2),
                              st.integers(-2, 2)), min_size=3, max_size=25))
    def test_tied_float_views_give_the_exact_hull(self, raw):
        # offsets of 1e-30 tie the float views of distinct coordinates
        tiny = Fraction(1, 10**30)
        pts = [Point(a + b * tiny, c + d * tiny) for a, b, c, d in raw]
        try:
            expected = exact_hull(pts)
        except DegeneracyError:
            with pytest.raises(DegeneracyError):
                convex_hull(pts)
        else:
            assert convex_hull(pts).ring == expected

    def test_coordinates_beyond_double_range(self):
        big = Fraction(10**400)
        pts = [Point(0, 0), Point(big, 0), Point(big, 1), Point(0, 1), Point(big, 0), Point(1, 1)]
        assert convex_hull(pts).ring == exact_hull(pts)

    def test_all_collinear_raises(self):
        with pytest.raises(DegeneracyError):
            convex_hull([Point(0, 0), Point(1, 1), Point(2, 2), Point(3, 3)])

    def test_random_points_classified_by_hull(self):
        import random

        rng = random.Random(7)
        pts = []
        while len(pts) < 100:
            x, y = rng.uniform(-1, 1), rng.uniform(-1, 1)
            if x * x + y * y <= 1.0:
                pts.append(Point(Fraction(x), Fraction(y)))
        hull = convex_hull(pts)
        for p in pts:
            assert contains(hull, p) in (INTERIOR, BOUNDARY)


class TestNestedPerimeterMonotonicity:
    @pytest.mark.parametrize("seed", range(20))
    def test_inner_hull_has_smaller_perimeter(self, seed):
        import random

        rng = random.Random(seed)
        outer = random_convex_polygon(seed + 31, n_vertices=rng.randrange(6, 40))
        cx, cy = outer.centroid()
        f = Fraction(rng.randrange(300, 900), 1000)
        inner_pts = [
            Point(
                Fraction(cx) + f * (p.x - Fraction(cx)),
                Fraction(cy) + f * (p.y - Fraction(cy)),
            )
            for p in outer.ring
        ]
        inner = convex_hull(inner_pts)
        for p in inner.ring:
            assert contains(outer, p) != EXTERIOR
        assert perimeter(inner) <= perimeter(outer) + 1e-12


class TestLine:
    def test_from_points_sides(self):
        line = Line.from_points(Point(0, 0), Point(1, 0))
        assert side_of(line, Point("0.5", 1)) == LEFT
        assert side_of(line, Point("0.5", -1)) == RIGHT
        assert side_of(line, Point(7, 0)) == COLLINEAR

    def test_unit_view_normalized(self):
        line = Line.from_points(Point(0, 0), Point(3, 4))
        nx, ny, _ = line.unit()
        assert abs(nx * nx + ny * ny - 1.0) < 1e-12

    @pytest.mark.parametrize(
        "coefs, expected",
        [
            (("1e200", "1e200", "1e199"), (0.5**0.5, 0.5**0.5, 0.1 * 0.5**0.5)),
            (("1e400", "1e200", "1e199"), (1.0, 1e-200, 1e-201)),
            (("-1e-200", "0", "1e-200"), (-1.0, 0.0, 1.0)),
            (("3", "-4", "10"), (0.6, -0.8, 2.0)),
        ],
        ids=["huge", "beyond-double", "tiny", "plain"],
    )
    def test_unit_scales_exactly_first(self, coefs, expected):
        assert Line(*coefs).unit() == pytest.approx(expected, rel=1e-15)

    def test_unit_offset_beyond_double_range(self):
        with pytest.raises(PreconditionError):
            Line("1e-200", "1e-200", "1e200").unit()

    def test_from_direction_offset(self):
        line = line_from_direction_offset(0.0, 0.25)
        assert side_of(line, Point("0.25", 5)) == COLLINEAR
        assert side_of(line, Point(1, 0)) == LEFT

    def test_rejects_zero_normal(self):
        with pytest.raises(PreconditionError):
            Line(0, 0, 1)

    def test_along_is_monotone_on_line(self):
        line = Line.from_points(Point(0, 0), Point(2, 1))
        t0 = line.along(Point(0, 0))
        t1 = line.along(Point(2, 1))
        t2 = line.along(Point(4, 2))
        assert t0 < t1 < t2


class TestRigidMotion:
    def test_exact_345_rotation_preserves_predicates(self):
        c, s = Fraction(3, 5), Fraction(4, 5)
        pts = [Point(0, 0), Point(1, 0), Point("2", "-1e-9")]
        moved = [rigid_motion(p, c, s, ("1/3", "-7")) for p in pts]
        assert orientation(*moved) == orientation(*pts)
        assert dist_sq(moved[0], moved[1]) == dist_sq(pts[0], pts[1])

    def test_rejects_inexact_rotation(self):
        with pytest.raises(PreconditionError):
            rigid_motion(Point(0, 0), "0.6", "0.81", (0, 0))
