"""The oracle's direction-bucket screen against the dense screen it
replaced: the same random lines bit for bit and the same counts, and the
dense path taken by few lines."""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from konvex import stabbing
from konvex.builder import ConstructionParams, build_curve
from konvex.geometry import ConvexPolygon, Point, Polyline
from konvex.verifier import s_bound

from dense_screen import dense_screened_lines

SQUARE = ConvexPolygon((Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)))
# 2^493 keeps the widest curves below (and near) 2^500; 10^-9 is the snap grid
SCALES = [Fraction(1), Fraction(1, 10**9), Fraction(2) ** 493, Fraction(3, 7)]
OFFSETS = [Fraction(0), Fraction(10**6), Fraction(-(10**6)), Fraction(1, 3)]
# directions and offset fractions that put lines through vertices: θ = 0
# gives the exact projection x, and u = 0 the line through the lowest vertex
FORCED_THETAS = [0.0, math.pi / 2, math.pi / 4, 3 * math.pi / 4]
FORCED_US = [0.0, 0.5, 0.25, 0.75]


def lattice(draw, n):
    """Small integers: collinear runs, repeats, edges through vertices."""
    return [draw(st.tuples(st.integers(-4, 4), st.integers(-4, 4))) for _ in range(n)]


def runs(draw, n):
    """Axis-parallel walks with straight runs: many vertices share the
    extreme projection of directions near the axes."""
    x = y = 0
    pts = [(x, y)]
    for _ in range(n - 1):
        step = draw(st.sampled_from([-2, -1, 1, 2, 3]))
        if draw(st.booleans()):
            x += step
        else:
            y += step
        pts.append((x, y))
    return pts


def clustered(draw, n):
    """Distinct vertices 10^-20 apart, whose float views coincide."""
    tiny = Fraction(1, 10**20)
    return [
        (draw(st.integers(-2, 2)) + draw(st.integers(0, 2)) * tiny,
         draw(st.integers(-2, 2)) + draw(st.integers(0, 2)) * tiny)
        for _ in range(n)
    ]


@st.composite
def polylines(draw):
    shape = draw(st.sampled_from([lattice, runs, clustered]))
    raw = shape(draw, draw(st.integers(2, 40)))
    scale, offset = draw(st.sampled_from(SCALES)), draw(st.sampled_from(OFFSETS))
    verts = []
    for x, y in raw:
        p = Point(Fraction(x) * scale + offset, Fraction(y) * scale + offset)
        if not verts or p != verts[-1]:
            verts.append(p)
    assume(len(verts) >= 2)
    closed = draw(st.booleans()) and len(verts) >= 3 and verts[0] != verts[-1]
    return Polyline(tuple(verts), closed)


class FixedDraws:
    """A stand-in for the oracle's generator that repeats given angles and
    offset fractions."""

    def __init__(self, thetas, us):
        self.thetas, self.us = np.array(thetas), np.array(us)

    def uniform(self, low, high, k):
        return np.resize(self.thetas, k)

    def random(self, k):
        return np.resize(self.us, k)


def assert_same_screen(poly: Polyline, trials: int, seed: int) -> None:
    lines, counts = stabbing._screened_lines(poly, trials, seed)
    ref_lines, ref_counts = dense_screened_lines(poly, trials, seed)
    assert lines.tobytes() == ref_lines.tobytes()
    assert np.array_equal(counts, ref_counts)


class TestAgainstDenseScreen:
    @settings(max_examples=150, deadline=None)
    @given(polylines(), st.integers(1, 2500), st.integers(0, 2**32 - 1))
    def test_random_draws(self, poly, trials, seed):
        assert_same_screen(poly, trials, seed)

    @settings(max_examples=100, deadline=None)
    @given(
        polylines(),
        st.integers(1, 300),
        st.lists(st.sampled_from(FORCED_THETAS) | st.floats(0, math.pi, exclude_max=True),
                 min_size=1, max_size=6),
        st.lists(st.sampled_from(FORCED_US) | st.floats(0, 1, exclude_max=True),
                 min_size=1, max_size=6),
    )
    def test_lines_forced_through_vertices(self, poly, trials, thetas, us):
        with mock.patch.object(np.random, "default_rng", lambda seed: FixedDraws(thetas, us)):
            assert_same_screen(poly, trials, 0)

    def test_two_vertices(self):
        for pts in ((Point(0, 0), Point(1, 0)), (Point(-3, 1), Point(Fraction(1, 3), 7))):
            assert_same_screen(Polyline(pts), 3000, 11)

    @pytest.mark.parametrize("r", [2, 5])
    def test_builder_curves_over_several_chunks(self, r):
        curve = build_curve(SQUARE, ConstructionParams(r=r, eps=0.05 * s_bound(SQUARE, r), m=64, seed=1)).curve
        assert_same_screen(curve, 3 * stabbing._SCREEN_CHUNK + 5, 1000 + r)


def test_few_lines_take_the_dense_path():
    """On the construct workload's r = 4 curve (222 vertices), the bucket
    tables decide almost every line; a fall-back to the dense screen for
    all of them would fail here."""
    r = 4
    params = ConstructionParams(r=r, eps=0.05 * s_bound(SQUARE, r), m=128, seed=1)
    curve = build_curve(SQUARE, params).curve
    assert len(curve) == 222
    dense_rows = []
    screen = stabbing._screen

    def counting(poly, pts, lines, proj):
        dense_rows.append(len(lines))
        return screen(poly, pts, lines, proj)

    with mock.patch.object(stabbing, "_screen", counting):
        report = stabbing.random_line_oracle(curve, 100_000, 1000 + r)
    assert report.count == r
    assert 0 < sum(dense_rows) < 0.05 * 100_000
