import hashlib
import math

import numpy as np
import pytest

from konvex.builder import ConstructionParams, _bowed_arc, _check_arc, _inset_ring, build_curve
from konvex.errors import ConstructionError, DegeneracyError, PreconditionError
from konvex.formats import serialize_polyline, to_json
from konvex.geometry import (
    EXTERIOR,
    INTERIOR,
    LEFT,
    ConvexPolygon,
    Point,
    Polyline,
    contains,
    convex_hull,
    diameter,
    orientation,
    polyline_length,
)
from konvex.random_shapes import random_convex_polygon
from konvex.stabbing import line_multiplicity, random_line_oracle
from konvex.verifier import s_bound

SQUARE = ConvexPolygon((Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)))
TRIANGLE = ConvexPolygon((Point(0, 0), Point(3, 0), Point(1, 2)))


def assert_strictly_convex_ring(poly):
    verts = poly.vertices
    n = len(verts)
    for i in range(n):
        assert orientation(verts[i], verts[(i + 1) % n], verts[(i + 2) % n]) == LEFT


def square_inset_ring(depth, m, seed):
    """The square's inset ring at `depth`, as build_curve draws each loop."""
    return _inset_ring(SQUARE, depth, m, np.random.default_rng(seed)).as_polyline()


def diagonal_arc(bow, m):
    """A bowed arc down the square's diameter chord, bulging toward (0, 1),
    as build_curve's odd-r tail draws it."""
    return Polyline(tuple(_bowed_arc(Point(0, 0), Point(1, 1), Point(0, 1), bow, m)))


class TestInsetLoop:
    def test_square_depth_001(self):
        loop = square_inset_ring(depth=0.01, m=64, seed=5)
        assert loop.closed
        assert 56 <= len(loop) <= 64
        assert_strictly_convex_ring(loop)
        assert polyline_length(loop) >= 4 - 0.2
        for v in loop.vertices:
            assert contains(SQUARE, v) == INTERIOR

    def test_perimeter_approaches_body_in_the_fine_limit(self):
        loop = square_inset_ring(depth=1e-5, m=512, seed=2)
        assert polyline_length(loop) >= 4 - 0.01

    def test_nesting_of_two_depths(self):
        outer = square_inset_ring(depth=0.01, m=64, seed=3)
        inner = square_inset_ring(depth=0.02, m=64, seed=4)
        hull = convex_hull(list(outer.vertices))
        for v in inner.vertices:
            assert contains(hull, v) == INTERIOR

    def test_depth_too_large(self):
        with pytest.raises(DegeneracyError):
            square_inset_ring(depth=0.7, m=32, seed=1)

    def test_rejects_nonpositive_depth(self):
        with pytest.raises(PreconditionError):
            square_inset_ring(depth=0.0, m=32, seed=1)


class TestDiameterChordArc:
    def test_length_window(self):
        arc = diagonal_arc(bow=0.01, m=32)
        d = math.sqrt(2)
        assert d <= polyline_length(arc) <= d + 4 * 0.01
        assert not arc.closed

    def test_small_bow_limit(self):
        arc = diagonal_arc(bow=1e-6, m=16)
        assert polyline_length(arc) == pytest.approx(math.sqrt(2), abs=1e-5)

    def test_no_three_vertices_collinear(self):
        arc = diagonal_arc(bow=0.01, m=24)
        verts = arc.vertices
        n = len(verts)
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    assert orientation(verts[i], verts[j], verts[k]) != 0

    def test_bow_too_large(self):
        arc = diagonal_arc(bow=0.9, m=16)
        with pytest.raises(DegeneracyError, match="leaves the inner ring"):
            _check_arc(SQUARE, list(arc.vertices), Point(0, 1))

    def test_interior_vertices_inside_body(self):
        arc = diagonal_arc(bow=0.02, m=16)
        for v in arc.vertices[1:-1]:
            assert contains(SQUARE, v) == INTERIOR
        _check_arc(SQUARE, list(arc.vertices), Point(0, 1))


class TestBuildEven:
    def test_r2(self):
        result = build_curve(SQUARE, ConstructionParams(r=2, eps=0.2, m=96, seed=7))
        assert result.achieved_length >= 4 - 0.2
        assert result.multiplicity.count <= 2
        assert not result.curve.closed

    def test_r4(self):
        result = build_curve(SQUARE, ConstructionParams(r=4, eps=0.4, m=96, seed=7))
        assert result.achieved_length >= 8 - 0.4
        assert result.multiplicity.count <= 4

    def test_huge_eps_is_trivially_satisfiable(self):
        result = build_curve(SQUARE, ConstructionParams(r=2, eps=4.5, m=32, seed=7))
        assert result.multiplicity.count <= 2
        assert result.achieved_length >= s_bound(SQUARE, 2) - 4.5

    def test_result_is_replayable(self):
        result = build_curve(SQUARE, ConstructionParams(r=2, eps=0.2, m=96, seed=9))
        rep = result.multiplicity
        assert line_multiplicity(rep.witness, result.curve).count == rep.count

    def test_all_vertices_inside_body(self):
        result = build_curve(SQUARE, ConstructionParams(r=4, eps=0.4, m=96, seed=2))
        for v in result.curve.vertices:
            assert contains(SQUARE, v) != EXTERIOR


class TestBuildOdd:
    def test_r3(self):
        result = build_curve(SQUARE, ConstructionParams(r=3, eps=0.3, m=96, seed=7))
        assert result.achieved_length >= 4 + math.sqrt(2) - 0.3
        assert result.multiplicity.count <= 3

    def test_r5(self):
        result = build_curve(SQUARE, ConstructionParams(r=5, eps=0.5, m=128, seed=7))
        assert result.achieved_length >= 8 + math.sqrt(2) - 0.5
        assert result.multiplicity.count <= 5

    def test_rejects_r1(self):
        with pytest.raises(PreconditionError):
            ConstructionParams(r=1, eps=0.1)


class TestConvergence:
    def test_tighter_eps_gives_longer_curves(self):
        achieved = []
        for eps, m in ((0.4, 64), (0.2, 128), (0.1, 256)):
            result = build_curve(
                SQUARE, ConstructionParams(r=2, eps=eps, m=m, seed=11)
            )
            assert result.achieved_length >= 4 - eps
            achieved.append(result.achieved_length)
        assert achieved[0] < achieved[1] < achieved[2]
        assert achieved[2] >= 4 - 0.1


class TestGeneralBodies:
    @pytest.mark.parametrize("r", [2, 3])
    def test_triangle(self, r):
        tri = ConvexPolygon((Point(0, 0), Point(3, 0), Point(1, 2)))
        s = s_bound(tri, r)
        result = build_curve(tri, ConstructionParams(r=r, eps=0.08 * s, m=96, seed=3))
        assert result.achieved_length >= s - 0.08 * s
        assert result.multiplicity.count <= r
        oracle = random_line_oracle(result.curve, trials=20_000, seed=5)
        assert oracle.count <= r

    def test_random_polygon_body(self):
        body = random_convex_polygon(21, n_vertices=9)
        s = s_bound(body, 2)
        result = build_curve(body, ConstructionParams(r=2, eps=0.1 * s, m=96, seed=13))
        assert result.achieved_length >= 0.9 * s
        assert result.multiplicity.count <= 2


class TestOddCaseDiameterCapture:
    def test_r3_curve_reaches_near_diameter(self):
        result = build_curve(SQUARE, ConstructionParams(r=3, eps=0.3, m=128, seed=1))
        d, _, _ = diameter(SQUARE)
        # the bowed arc spans close to the body diameter
        assert result.achieved_length >= 4 + d - 0.3


class TestPinnedOutput:
    """sha256 of serialize_polyline(curve) and of to_json(result) at
    eps = 0.05 s, m = 96, seed 7.  The curve digest shows any change to the
    construction's arithmetic or its random stream; the sidecar digest also
    covers the verifier's witness line, method tag and components."""

    @pytest.mark.parametrize(
        "body, r, curve_digest, sidecar_digest",
        [
            (
                SQUARE,
                2,
                "0f83c062eba7b405ecb041fe3dcb7bc19150af3745ef19fddfce6f27b71e7eee",
                "3ca43d58b9de129cb300d60152aac8fe5de670483105157b3412a5888934d3f2",
            ),
            (
                SQUARE,
                3,
                "012d775ef429a9ab276bdf851534d7e1fa277af653753c12374c6c0766041828",
                "03eb8227e7bec2a7e8e117dbf68835fc81de01b952c65a44a26997b63478b4d2",
            ),
            (
                SQUARE,
                4,
                "59051dd3c5cd70a81c38e7d3ab045aa6d7c488c58dc95551d30ec1e898f3e8d2",
                "56ca2342c4ace02b75b0a85f5d4b2d7d3fc0eb7c2ca44800ad8745e8dc0f0eae",
            ),
            (
                SQUARE,
                5,
                "cd9783dfe57ce09fab4b8d7ad58a2dc1dabfbcbaafbaa4d7362d9d8dc0b11b40",
                "6445441ec61a529096e836d4bb54fce45d78ec3258d6b22b6aff0a1a6a795056",
            ),
            (
                TRIANGLE,
                3,
                "6c01dea01d4ff2851dd3172d69b69b4b77a62a97c8decf7ac083d6eb16221d2b",
                "2bfd6d833610b6ba0117c254e3463f2270b970746dc458da13530976be473143",
            ),
        ],
        ids=["square-r2", "square-r3", "square-r4", "square-r5", "triangle-r3"],
    )
    def test_digest(self, body, r, curve_digest, sidecar_digest):
        params = ConstructionParams(r=r, eps=0.05 * s_bound(body, r), m=96, seed=7)
        result = build_curve(body, params)
        assert hashlib.sha256(serialize_polyline(result.curve).encode()).hexdigest() == curve_digest
        assert hashlib.sha256(to_json(result).encode()).hexdigest() == sidecar_digest


class TestConstructionFailure:
    @pytest.mark.parametrize("r", [2, 3])
    def test_too_few_samples_exhaust_the_retries(self, r):
        # 20 samples per loop never reach the length budget on the square
        params = ConstructionParams(r=r, eps=0.05 * s_bound(SQUARE, r), m=20, max_retries=2)
        needed = s_bound(SQUARE, r) - 0.9 * params.eps
        with pytest.raises(ConstructionError, match="after 2 retries; longest curve ") as err:
            build_curve(SQUARE, params)
        assert err.value.report is None
        longest, target = str(err.value).split("longest curve ")[1].split(" < ")
        assert 0 < float(longest) < needed
        assert target == f"{needed:.6g}"
