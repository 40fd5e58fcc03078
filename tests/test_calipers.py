"""The rotating calipers on a convex polygon's integer view: `diameter`
against the brute-force `Fraction` oracle, `_antipodal_pairs` against the
`Fraction` walk it replaced, and the polygon's grid itself."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from konvex import geometry
from konvex.errors import DegeneracyError, PreconditionError
from konvex.geometry import (
    ConvexPolygon,
    Point,
    convex_hull,
    diameter,
)

from fraction_oracle import cross, diameter_bruteforce, rigid_motion


def fraction_antipodal_pairs(ring):
    """The calipers walk as written before the integer grid: exact `Fraction`
    cross products on the ring itself."""
    n = len(ring)
    j = 1
    for i in range(n):
        i2 = (i + 1) % n
        while abs(cross(ring[i], ring[i2], ring[(j + 1) % n])) > abs(
            cross(ring[i], ring[i2], ring[j])
        ):
            j = (j + 1) % n
        yield (i, j)
        yield (i2, j)
        j2 = (j + 1) % n
        if abs(cross(ring[i], ring[i2], ring[j2])) == abs(cross(ring[i], ring[i2], ring[j])):
            yield (i, j2)
            yield (i2, j2)


def moved(body: ConvexPolygon, scale=1, shift=(0, 0), rotation=("1", "0")) -> ConvexPolygon:
    """The body scaled about the origin, rotated exactly, then translated."""
    scale = Fraction(scale)
    return ConvexPolygon(
        tuple(rigid_motion(Point(p.x * scale, p.y * scale), *rotation, shift) for p in body.ring)
    )


def assert_matches_oracle(body: ConvexPolygon) -> None:
    fast = diameter(ConvexPolygon(body.ring))
    slow = diameter_bruteforce(body)
    assert fast[0].hex() == slow[0].hex()  # the same float bits
    assert fast[1:] == slow[1:]  # the same pair, in the same order
    assert list(geometry._antipodal_pairs(body.grid)) == list(
        fraction_antipodal_pairs(body.ring)
    )


rationals = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 13))


@st.composite
def polygons(draw):
    """A strictly convex hull of up to 24 points whose coordinates have
    denominators up to 13, x and y drawn independently."""
    pts = draw(st.lists(st.builds(Point, rationals, rationals), min_size=3, max_size=24))
    try:
        return convex_hull(pts)
    except DegeneracyError:
        assume(False)


@st.composite
def rectangles(draw):
    """Axis-parallel rectangles: two pairs of parallel edges, two equal diagonals."""
    x0, y0 = draw(rationals), draw(rationals)
    w = draw(rationals.filter(lambda v: v > 0))
    h = draw(rationals.filter(lambda v: v > 0))
    return ConvexPolygon(
        (Point(x0, y0), Point(x0 + w, y0), Point(x0 + w, y0 + h), Point(x0, y0 + h))
    )


shifts = st.tuples(
    st.integers(-(10**8), 10**8).map(Fraction), st.integers(-(10**8), 10**8).map(Fraction)
) | st.tuples(rationals.map(lambda v: v * 10**7), rationals.map(lambda v: v * 10**7))


class TestCalipersMatchBruteForce:
    @settings(max_examples=300, deadline=None)
    @given(polygons())
    def test_random_polygons(self, body):
        assert_matches_oracle(body)

    @settings(max_examples=150, deadline=None)
    @given(rectangles(), st.sampled_from([("1", "0"), ("3/5", "4/5"), ("-4/5", "3/5")]))
    def test_parallel_edge_ties(self, body, rotation):
        assert_matches_oracle(moved(body, rotation=rotation))

    def test_square_rotated_by_three_four_five(self):
        square = ConvexPolygon((Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)))
        body = moved(square, rotation=("3/5", "4/5"))
        assert_matches_oracle(body)
        assert diameter(body)[1:] == (body.ring[0], body.ring[2])

    @settings(max_examples=150, deadline=None)
    @given(polygons() | rectangles(), shifts)
    def test_exact_translations(self, body, shift):
        assert_matches_oracle(moved(body, shift=shift))

    @settings(max_examples=100, deadline=None)
    @given(polygons() | rectangles(), st.sampled_from(["1e-315", "1e300"]))
    def test_extreme_scales(self, body, scale):
        # 1e-315: d is subnormal or zero; 1e300: d² lies beyond double range
        # and the distance comes from the float views
        assert_matches_oracle(moved(body, scale=scale))

    def test_square_beyond_double_range_squared(self):
        square = ConvexPolygon((Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)))
        d, _, _ = diameter(moved(square, scale="1e300"))
        assert d == math.dist((0.0, 0.0), (1e300, 1e300))

    def test_coordinate_beyond_double_range_is_refused(self):
        big = 10**400
        body = ConvexPolygon((Point(0, 0), Point(big, 0), Point(0, big)))
        with pytest.raises(PreconditionError):
            diameter(body)


class TestIntegerView:
    def test_grid_is_stored_outside_the_fields(self):
        body = ConvexPolygon((Point(0, 0), Point("1/2", 0), Point(0, "1/3")))
        shown = repr(body)
        assert body.grid == (6, (0, 3, 0), (0, 0, 2))
        assert body.grid is body.grid
        fresh = ConvexPolygon(body.ring)
        assert body == fresh and hash(body) == hash(fresh) and repr(body) == shown

    def test_diameter_does_no_fraction_arithmetic(self, monkeypatch):
        body = ConvexPolygon(
            (Point("-1/7", "2/3"), Point("5/11", "-3/13"), Point(2, "1/2"), Point(1, "9/5"))
        )
        expected = diameter_bruteforce(body)

        def refuse(*args):
            raise AssertionError("Fraction arithmetic in diameter")

        for name in (
            "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
            "__truediv__", "__rtruediv__", "__floordiv__", "__mod__", "__pow__",
            "__neg__", "__abs__", "__float__", "__eq__", "__lt__", "__le__",
            "__gt__", "__ge__",
        ):
            monkeypatch.setattr(Fraction, name, refuse)
        result = diameter(body)
        monkeypatch.undo()
        assert result == expected
