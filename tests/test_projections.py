import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from konvex.errors import PreconditionError
from konvex.geometry import (
    EXTERIOR,
    ConvexPolygon,
    Point,
    Polyline,
    contains,
    diameter,
    perimeter,
    polyline_length,
)
from konvex.projections import (
    ChordTerm,
    cauchy_width_integral,
    chord_term,
    crofton_length,
    projection_length,
)
from konvex.random_shapes import random_convex_polygon, random_walk_polyline

SQUARE = ConvexPolygon((Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)))
UNIT_SEGMENT = Polyline((Point(0, 0), Point(1, 0)))


class TestProjectionLength:
    def test_horizontal_segment_along_axis(self):
        assert projection_length(UNIT_SEGMENT, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_horizontal_segment_perpendicular(self):
        assert projection_length(UNIT_SEGMENT, math.pi / 2) == pytest.approx(0.0, abs=1e-15)

    def test_square_ring_axis(self):
        # two horizontal edges project fully, two vertical edges to zero
        assert projection_length(SQUARE.as_polyline(), 0.0) == pytest.approx(2.0, abs=1e-14)

    @pytest.mark.parametrize("seed", range(5))
    def test_scaling(self, seed):
        import random

        rng = random.Random(seed)
        poly = random_walk_polyline(seed, SQUARE, n_segments=8)
        s = Fraction(rng.randrange(2, 50), 8)
        scaled = Polyline(tuple(Point(p.x * s, p.y * s) for p in poly.vertices))
        for _ in range(8):
            alpha = rng.uniform(0, 2 * math.pi)
            assert projection_length(scaled, alpha) == pytest.approx(
                float(s) * projection_length(poly, alpha), rel=1e-12
            )

    @given(st.floats(min_value=0.0, max_value=2 * math.pi, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_pi_periodic(self, alpha):
        poly = random_walk_polyline(7, SQUARE, n_segments=10)
        assert projection_length(poly, alpha) == pytest.approx(
            projection_length(poly, alpha + math.pi), rel=1e-9, abs=1e-12
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_rotation_equivariance(self, seed):
        import random

        rng = random.Random(seed + 99)
        poly = random_walk_polyline(seed + 17, SQUARE, n_segments=12)
        theta = rng.uniform(0.1, 3.0)
        ct, st = math.cos(theta), math.sin(theta)
        rotated = Polyline(
            tuple(
                Point(Fraction(ct * px - st * py), Fraction(st * px + ct * py))
                for px, py in poly.float_vertices()
            )
        )
        for alpha in np.linspace(0.0, 2 * math.pi, 64, endpoint=False):
            assert projection_length(rotated, alpha) == pytest.approx(
                projection_length(poly, alpha - theta), abs=1e-9
            )


class TestCauchy:
    def test_square_closed_form(self):
        # 2p with p = 4; agrees with the hand integral of |cos a| + |sin a|
        assert cauchy_width_integral(SQUARE) == pytest.approx(8.0, abs=1e-12)

    def test_square_quadrature(self):
        got = cauchy_width_integral(SQUARE, "quadrature", panels=100_000)
        assert got == pytest.approx(8.0, abs=1e-6)

    def test_right_triangle_closed_form(self):
        tri = ConvexPolygon((Point(0, 0), Point(1, 0), Point(0, 1)))
        assert cauchy_width_integral(tri) == pytest.approx(2 * (2 + math.sqrt(2)), rel=1e-12)

    def test_rejects_small_panel_count(self):
        with pytest.raises(PreconditionError):
            cauchy_width_integral(SQUARE, "quadrature", panels=3)

    @pytest.mark.parametrize("seed", range(10))
    def test_quadrature_matches_2p_on_random_polygons(self, seed):
        poly = random_convex_polygon(seed + 5, n_vertices=5 + 4 * seed)
        p = perimeter(poly)
        got = cauchy_width_integral(poly, "quadrature", panels=100_000)
        assert abs(got - 2.0 * p) <= 1e-4 * p


class TestCrofton:
    def test_unit_segment_closed_form(self):
        assert crofton_length(UNIT_SEGMENT) == pytest.approx(1.0, abs=1e-15)

    def test_square_ring_closed_form(self):
        assert crofton_length(SQUARE.as_polyline()) == pytest.approx(4.0, abs=1e-15)

    def test_rejects_small_panel_count(self):
        with pytest.raises(PreconditionError):
            crofton_length(UNIT_SEGMENT, "quadrature", panels=2)

    @pytest.mark.parametrize("seed", range(10))
    def test_quadrature_matches_length_on_random_polylines(self, seed):
        poly = random_walk_polyline(seed + 1, SQUARE, n_segments=20)
        length = polyline_length(poly)
        got = crofton_length(poly, "quadrature", panels=100_000)
        assert abs(got - length) <= 1e-4 * length


class TestChordTerm:
    def test_tent(self):
        poly = Polyline((Point(0, 0), Point(1, 1), Point(2, 0)))
        ct = chord_term(poly)
        assert ct == ChordTerm(2.0, 0.0)

    def test_vertical(self):
        ct = chord_term(Polyline((Point(0, 0), Point(0, 3))))
        assert ct.l0 == 3.0
        assert ct.alpha0 == pytest.approx(math.pi / 2, abs=1e-15)

    def test_coincident_ends_convention(self):
        poly = Polyline((Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 0)))
        assert chord_term(poly) == ChordTerm(0.0, 0.0)

    def test_rejects_closed(self):
        with pytest.raises(PreconditionError):
            chord_term(SQUARE.as_polyline())

    @pytest.mark.parametrize("seed", range(10))
    def test_chord_bounded_by_diameter_when_inside(self, seed):
        body = random_convex_polygon(seed + 40, n_vertices=12)
        poly = random_walk_polyline(seed, body, n_segments=6)
        assert all(contains(body, v) != EXTERIOR for v in poly.vertices)
        d, _, _ = diameter(body)
        assert chord_term(poly).l0 <= d + 1e-12
