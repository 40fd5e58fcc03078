import hashlib
import math
import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from konvex import builder, stabbing
from konvex.builder import (
    _GAP,
    ConstructionParams,
    _assemble,
    _chain_loops,
    _farthest_vertex,
    _gap_anchor,
    _grid_hull,
    _inset_ring,
    build_curve,
)
from konvex.errors import ConstructionError, DegeneracyError, PreconditionError
from konvex.formats import serialize_polyline, to_json
from konvex.geometry import (
    EXTERIOR,
    INTERIOR,
    LEFT,
    ConvexPolygon,
    Point,
    Polyline,
    _inside,
    contains,
    convex_hull,
    diameter,
    orientation,
    polyline_length,
)
from konvex.random_shapes import GRID, random_convex_polygon
from konvex.stabbing import (
    METHOD_RUNS,
    METHOD_SWEEP,
    line_multiplicity,
    max_line_multiplicity,
    random_line_oracle,
)
from konvex.verifier import s_bound

SQUARE = ConvexPolygon((Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)))
TRIANGLE = ConvexPolygon((Point(0, 0), Point(3, 0), Point(1, 2)))
# the square's ring as grid points, X = x·GRID
SQUARE_GRID = [(0, 0), (GRID, 0), (GRID, GRID), (0, GRID)]
GON40 = random_convex_polygon(np.random.default_rng(40), 40)


def assert_strictly_convex_ring(poly):
    verts = poly.vertices
    n = len(verts)
    for i in range(n):
        assert orientation(verts[i], verts[(i + 1) % n], verts[(i + 2) % n]) == LEFT


def square_inset_ring(depth, m, seed):
    """The square's inset ring at `depth`, as build_curve draws each loop."""
    ring = _inset_ring(SQUARE, depth, m, np.random.default_rng(seed))
    return Polyline.from_grid(GRID, *zip(*ring), closed=True)


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


class TestSegmentTail:
    """At odd r the tail is one segment: from the innermost run's stop to
    the innermost ring's vertex farthest from it."""

    @pytest.mark.parametrize(
        "body, r, m",
        [(SQUARE, 3, 96), (SQUARE, 5, 96), (TRIANGLE, 3, 96), (GON40, 3, 128), (GON40, 5, 96)],
        ids=["square-r3", "square-r5", "triangle-r3", "gon40-r3", "gon40-r5"],
    )
    def test_tail_is_the_farthest_ring_vertex(self, monkeypatch, body, r, m):
        chains = []

        def record(*args):
            chains.append(chain(*args))
            return chains[-1]

        chain = builder._chain_loops
        monkeypatch.setattr(builder, "_chain_loops", record)
        curve = pinned_build(body, r, m=m).curve
        rings, opens = chains[-1]
        loops = _assemble(opens)[0]
        _, xs, ys = curve.grid
        points = list(zip(xs, ys))
        # the loops, then one vertex: the closing edge runs from the stop
        assert points[:-1] == loops
        stop, far = points[-2], points[-1]
        assert stop == opens[-1][-1]
        assert far in rings[-1]
        reach = [(x - stop[0]) ** 2 + (y - stop[1]) ** 2 for x, y in rings[-1]]
        assert (far[0] - stop[0]) ** 2 + (far[1] - stop[1]) ** 2 == max(reach)
        assert far == _farthest_vertex(rings[-1], stop)


@st.composite
def clouds(draw) -> list[tuple[int, int]]:
    """Grid points of small lattice clouds: repeated points, points on one
    line, and too few distinct points, at steps down to one grid unit."""
    lattice = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
    if draw(st.booleans()):
        raw = draw(st.lists(lattice, min_size=1, max_size=12))
    else:  # on the line y = 2x + 1, with one point off it or none
        raw = [(k, 2 * k + 1) for k in draw(st.lists(st.integers(-4, 4), min_size=1, max_size=8))]
        raw += draw(st.lists(lattice, max_size=1))
    raw += draw(st.lists(st.sampled_from(raw), max_size=4))  # repeats
    raw = draw(st.permutations(raw))
    step = draw(st.sampled_from([1, 7, 10**6, GRID]))
    return [(x * step, y * step) for x, y in raw]


class TestGridHull:
    @settings(max_examples=300, deadline=None)
    @given(clouds())
    def test_same_ring_and_errors_as_convex_hull(self, cloud):
        points = [Point(Fraction(x, GRID), Fraction(y, GRID)) for x, y in cloud]
        try:
            ring = convex_hull(points).ring
        except DegeneracyError as exc:
            with pytest.raises(DegeneracyError, match=re.escape(str(exc))):
                _grid_hull(cloud)
            return
        assert _grid_hull(cloud) == [(int(p.x * GRID), int(p.y * GRID)) for p in ring]


@pytest.mark.parametrize("body, r", [(SQUARE, 2), (SQUARE, 3), (SQUARE, 5), (GON40, 3)],
                         ids=["square-r2", "square-r3", "square-r5", "gon40-r3"])
def test_rings_tail_and_containment_make_no_fraction(monkeypatch, body, r):
    # the loops, the odd tail and the containment check of build_curve's
    # first try, on the benchmark's bodies, run on grid ints alone
    params = ConstructionParams(r=r, eps=0.05 * s_bound(body, r), m=96, seed=1)
    anchor_idx, anchor_dir = _gap_anchor(body)
    inset = params.eps / (8.0 * params.n_loops)

    def run():
        rng = np.random.default_rng([params.seed, 10_000 * (r % 2)])
        rings, opens = _chain_loops(
            body, params, rng, inset, _GAP, params.n_loops, anchor_idx, anchor_dir
        )
        tail = [_farthest_vertex(rings[-1], opens[-1][-1])] if r % 2 else []
        curve = Polyline.from_grid(GRID, *zip(*(_assemble(opens)[0] + tail)))
        return curve, _inside(curve, body)

    def refuse(*args, **kwargs):
        raise AssertionError("a Fraction was made")

    monkeypatch.setattr(Fraction, "__new__", refuse)
    guarded = run()
    monkeypatch.undo()
    assert guarded == run()
    curve, inside = guarded
    assert inside and len(curve) > params.n_loops * params.m // 2


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

    def test_thin_square(self):
        # a 1e-5 square: the inset rings are a few thousand grid steps apart
        side = "1e-5"
        body = ConvexPolygon((Point(0, 0), Point(side, 0), Point(side, side), Point(0, side)))
        result = build_curve(body, ConstructionParams(r=3, eps=0.05 * s_bound(body, 3), m=96, seed=1))
        assert result.multiplicity.count == 3
        assert result.achieved_length >= 0.95 * s_bound(body, 3)

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
        # the tail's segment spans close to the body diameter
        assert result.achieved_length >= 4 + d - 0.3


class TestPinnedOutput:
    """sha256 of serialize_polyline(curve) and of to_json(result) at
    eps = 0.05 s, m = 96, seed 7.  The curve digest shows any change to the
    construction's arithmetic or its random stream; the sidecar digest also
    covers the certificate's witness line, method tag and components: a
    convex-run gap line's at every r."""

    @pytest.mark.parametrize(
        "body, r, curve_digest, sidecar_digest",
        [
            (
                SQUARE,
                2,
                "59de4e3123d72e24a97ef2baba915d4bd710888269dba41ae4597894006c2732",
                "a26b6a3e31ba5c2820dd11a88ba5797166b85d71cd444a22f37894cb772bd40a",
            ),
            (
                SQUARE,
                3,
                "edb8903d3df379db3628b553a05984cb090115e38fed92b630e5851222b5fb15",
                "38756a5882209867e96c94fffde99418d101d4571bbac428425d91fed36769d6",
            ),
            (
                SQUARE,
                4,
                "d8e40ec62ef0d2433c8103ab5c5c8d47731d56aba90ae4df39680f3fd5ea7d85",
                "0223c98ff245ea0eaa13ee57e5e24c2e08a4208bcaab962221de1e83fd30f2be",
            ),
            (
                SQUARE,
                5,
                "43925a5e2b497da04e42976c22a39b40de5c1eb4127b52831119cd8c340a3d4c",
                "624951f7dc6a90836a328ed05184ad8e3e3313f05e324441046aadaba1741b0b",
            ),
            (
                TRIANGLE,
                3,
                "950234d921728014d8d66d4dceece38a1216a1374390e24e930709c9e628ea8e",
                "e0757c06c1a6cab55e4ebad31c490fa78a462a9b4af9f787909f71d1e99d0cef",
            ),
        ],
        ids=["square-r2", "square-r3", "square-r4", "square-r5", "triangle-r3"],
    )
    def test_digest(self, body, r, curve_digest, sidecar_digest):
        params = ConstructionParams(r=r, eps=0.05 * s_bound(body, r), m=96, seed=7)
        result = build_curve(body, params)
        assert hashlib.sha256(serialize_polyline(result.curve).encode()).hexdigest() == curve_digest
        assert hashlib.sha256(to_json(result).encode()).hexdigest() == sidecar_digest


def pinned_build(body, r, m=96, seed=7):
    """A build at eps = 0.05 s, as TestPinnedOutput, criterion 3 and the
    benchmark's construct workload make them."""
    return build_curve(body, ConstructionParams(r=r, eps=0.05 * s_bound(body, r), m=m, seed=seed))


class TestCertificate:
    """The builder's bound (2 per convex loop run, plus 1 per edge after
    the last run) met by one exact gap line."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(["square", "triangle", "gon40"]),
        st.integers(2, 7),
        st.sampled_from([16, 24, 32, 48]),
        st.sampled_from([0.05, 0.08, 0.12]),
        st.integers(0, 10**6),
    )
    def test_count_is_the_sweeps(self, name, r, m, share, seed):
        body = {"square": SQUARE, "triangle": TRIANGLE, "gon40": GON40}[name]
        params = ConstructionParams(r=r, eps=share * s_bound(body, r), m=m, seed=seed, max_retries=4)
        try:
            result = build_curve(body, params)
        except ConstructionError:
            assume(False)
        report = result.multiplicity
        assert report.count == max_line_multiplicity(result.curve).count <= r
        assert line_multiplicity(report.witness, result.curve).count == report.count

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(["square", "triangle", "gon40"]),
        st.integers(1, 2),
        st.sampled_from([16, 24, 32]),
        st.integers(0, 10**6),
        st.floats(0, math.pi),
        st.lists(st.floats(-1, 1), min_size=1, max_size=3),
        st.sampled_from([1e-3, 1e-2, 1.0]),
    )
    def test_edges_after_the_runs_count_one_each(self, name, n_loops, m, seed, angle, ts, h):
        # a chain of convex runs and 1 to 3 edges after it, to grid points
        # in the body: a zigzag across the line through the centroid at
        # `angle`, its first point on the far side from the stop, so that
        # lines near that one cross every edge and few gap lines do
        body = {"square": SQUARE, "triangle": TRIANGLE, "gon40": GON40}[name]
        params = ConstructionParams(r=2 * n_loops, eps=0.05 * s_bound(body, 2 * n_loops), m=m)
        inset = params.eps / (8.0 * n_loops)
        try:
            _, opens = _chain_loops(
                body, params, np.random.default_rng(seed), inset, _GAP, n_loops, *_gap_anchor(body)
            )
        except DegeneracyError:
            assume(False)
        verts, bounds = _assemble(opens)
        cx, cy = body.centroid()
        size = 0.1 * float(diameter(body)[0])
        ux, uy = math.cos(angle), math.sin(angle)
        side = -1 if ux * (verts[-1][1] / GRID - cy) > uy * (verts[-1][0] / GRID - cx) else 1
        for t in sorted(ts):
            x, y = cx + size * (t * ux - side * h * uy), cy + size * (t * uy + side * h * ux)
            point = (round(x * GRID), round(y * GRID))
            assume(point != verts[-1])
            verts.append(point)
            side = -side
        curve = Polyline.from_grid(GRID, *zip(*verts))
        report = builder._certify(curve, bounds)
        assert report.count == max_line_multiplicity(curve).count
        assert line_multiplicity(report.witness, curve).count == report.count

    def test_no_pinned_acceptance_or_workload_curve_sweeps_the_whole_curve(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a curve was swept")

        bounds = []

        def record(poly, counts, sums, enough):
            bounds.append(enough)
            return replay(poly, counts, sums, enough)

        replay = builder._gap_replay
        monkeypatch.setattr(builder, "max_line_multiplicity", refuse)
        monkeypatch.setattr(stabbing, "_sweep_best", refuse)
        monkeypatch.setattr(builder, "_gap_replay", record)
        builds = [(SQUARE, r, 96, 7) for r in (2, 3, 4, 5)] + [(TRIANGLE, 3, 96, 7)]  # pinned
        builds += [(SQUARE, r, 160 if r >= 5 else 128, 1) for r in (2, 3, 4, 5, 6)]  # criterion 3
        for seed in (1, 2):  # the construct workload at benchmark seeds 0 and 1
            builds += [(SQUARE, r, 96 if r >= 5 else 128, seed) for r in (2, 3, 4, 5, 6)]
            builds.append((GON40, 3, 128, seed))
        methods = Counter(pinned_build(*build).multiplicity.method for build in builds)
        assert methods == {METHOD_RUNS: 22}
        # the bound U the gap line meets is r itself on each of them
        assert bounds == [r for _, r, _, _ in builds]

    def test_even_curves_beyond_the_sweeps_budget(self):
        # the sweep refuses curves of more than 8192 vertices; the convex
        # runs and their gap line certify one without it
        result = pinned_build(SQUARE, 6, m=4096, seed=1)
        assert len(result.curve) > stabbing._VERTEX_BUDGET
        assert (result.multiplicity.method, result.multiplicity.count) == (METHOD_RUNS, 6)
        assert line_multiplicity(result.multiplicity.witness, result.curve).count == 6

    @pytest.mark.parametrize(
        "r, forced, sidecar_digest",
        [
            (2, "run refused", "48a0649730dc166cc47747e96d6dafbdf1c7182218240327ccc9b5c4a5a0b1e5"),
            (4, "gap line short", "9f02a3c58f76619c55cd3e09dcf16f14743f93f8ea322bcec9c6302b27ca3bc9"),
            (5, "beyond the screen", "209102ea62317a8357d4ce6166ce10ca79e1525845335886fcf41d040dc590ee"),
        ],
    )
    def test_fallback_is_the_sweeps_report(self, monkeypatch, r, forced, sidecar_digest):
        # the sidecars these builds wrote when the whole curve was always swept
        if forced == "run refused":
            monkeypatch.setattr(builder, "_convex_run", lambda xs, ys, i, k: False)
        elif forced == "gap line short":
            replay = builder._gap_replay
            monkeypatch.setattr(
                builder, "_gap_replay", lambda *args: (0,) + replay(*args)[1:]
            )
        else:
            monkeypatch.setattr(stabbing, "_WITNESS_BOUND", 0)
        result = pinned_build(SQUARE, r)
        assert result.multiplicity == max_line_multiplicity(result.curve)
        assert hashlib.sha256(to_json(result).encode()).hexdigest() == sidecar_digest


class TestScaleInvariance:
    """The inset is a length, eps / (8 n): a scaled square gives the unit
    square's curve, scaled, up to the 1e-9 snap grid."""

    @pytest.mark.parametrize("side", ["1/100", "100"])
    @pytest.mark.parametrize("r", [2, 3])
    def test_scaled_square_matches_unit_square(self, side, r):
        results = []
        for k in (1, side):
            body = ConvexPolygon((Point(0, 0), Point(k, 0), Point(k, k), Point(0, k)))
            params = ConstructionParams(r=r, eps=0.05 * s_bound(body, r), m=96, seed=1)
            results.append(build_curve(body, params))
        unit, scaled = results
        assert len(scaled.curve) == len(unit.curve)
        assert scaled.achieved_length / scaled.target == pytest.approx(
            unit.achieved_length / unit.target, abs=1e-3
        )


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
        assert float(target) == needed

    def test_no_inset_ring_is_reported_as_such(self):
        # a 1 x 1e-6 strip is narrower than every inset the schedule tries,
        # so no curve is built; the message says so instead of comparing a
        # length of 0 against the budget
        strip = ConvexPolygon(
            (Point(0, 0), Point(1, 0), Point(1, "1e-6"), Point(0, "1e-6"))
        )
        params = ConstructionParams(r=2, eps=0.05 * s_bound(strip, 2), m=32, max_retries=1)
        with pytest.raises(ConstructionError, match="no strictly convex inset ring could be built"):
            build_curve(strip, params)
