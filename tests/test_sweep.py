"""The rotational sweep of max_line_multiplicity against an exact brute
force over the whole line arrangement, its candidate scores against the
sign-vector formula, a batched sweep against sweeps of one curve each, its
float filter on near-degenerate and large inputs, and its invariance under
exact similarity motions; the crossing table and the witness screen of
`_exceeds` against Python-int crossing loops, the oracle's table of
turning vertices against the table of every vertex, its bucket draw, and
its count against the Python-int maximum over every gap line of its drawn
normals."""

from bisect import bisect_right
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from konvex import stabbing
from konvex.builder import ConstructionParams, build_curve
from konvex.errors import PreconditionError
from konvex.geometry import ConvexPolygon, Line, Point, Polyline
from konvex.random_shapes import random_convex_polygon, random_star_ring, random_walk_polyline
from konvex.stabbing import (
    _crossing_table,
    _drawn_buckets,
    _gap_counts,
    _turning_ranges,
    _turning_table,
    line_multiplicity,
    max_line_multiplicity,
    random_line_oracle,
)
from konvex.verifier import falsify

from fraction_oracle import rigid_motion, side_of
from sign_formula import count_from_signs

SQUARE = ConvexPolygon((Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)))


def _cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def brute_force_max(poly: Polyline) -> int:
    """Maximum exact multiplicity over every face of the line arrangement.

    Every line through two vertices is tried, and near it lines rotated by
    a small rational angle about each vertex on it, about a point between
    each two consecutive ones and about a point beyond either end.  The
    rotation is too small for any vertex off the line to change side, so
    these lines visit every cell and edge around the line; every face of
    the arrangement has such a line on its boundary.
    """
    pts = list(dict.fromkeys(poly.vertices))
    best, seen = 0, set()
    for i, p in enumerate(pts):
        for q in pts[i + 1 :]:
            d = (q.x - p.x, q.y - p.y)
            on = [v for v in pts if _cross(d, (v.x - p.x, v.y - p.y)) == 0]
            if frozenset(on) in seen:
                continue
            seen.add(frozenset(on))
            best = max(best, line_multiplicity(Line.from_points(p, q), poly).count)
            on.sort(key=lambda v: (v.x - p.x) * d[0] + (v.y - p.y) * d[1])
            t = Fraction(7, 17)  # an off-centre point between neighbours
            centers = on + [
                Point(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y)) for a, b in zip(on, on[1:])
            ]
            centers += [Point(on[0].x - d[0], on[0].y - d[1]), Point(on[-1].x + d[0], on[-1].y + d[1])]
            gap = min(
                (abs(_cross(d, (v.x - p.x, v.y - p.y))) for v in pts if v not in on),
                default=Fraction(1),
            )
            for z in centers:
                reach = max(abs(d[0] * (v.x - z.x) + d[1] * (v.y - z.y)) for v in pts) + 1
                eps = gap / (2 * reach)
                for sign in (1, -1):
                    wx, wy = d[0] - sign * eps * d[1], d[1] + sign * eps * d[0]
                    line = Line(-wy, wx, -wy * z.x + wx * z.y)
                    best = max(best, line_multiplicity(line, poly).count)
    return best


def grid_polyline(rng: np.random.Generator, size: int, n: int, closed: bool) -> Polyline:
    """Random polyline on a small integer grid: collinear runs, repeated and
    retraced vertices, and edges through vertices are common."""
    verts = [tuple(int(c) for c in rng.integers(0, size, 2))]
    while len(verts) < n:
        v = tuple(int(c) for c in rng.integers(0, size, 2))
        if v != verts[-1]:
            verts.append(v)
    closed = closed and n >= 3 and verts[0] != verts[-1]
    return Polyline(tuple(Point(x, y) for x, y in verts), closed)


def assert_exact_maximum(poly: Polyline) -> None:
    report = max_line_multiplicity(poly)
    assert report.method == "rotational_sweep"
    assert line_multiplicity(report.witness, poly).count == report.count
    assert report.count == brute_force_max(poly)


def points(*coords) -> tuple[Point, ...]:
    return tuple(Point(x, y) for x, y in coords)


class TestAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(20))
    def test_seeded_walks_and_star_rings(self, seed):
        rng = np.random.default_rng([31, seed])
        for _ in range(5):
            assert_exact_maximum(random_walk_polyline(rng, SQUARE, int(rng.integers(2, 9))))
            assert_exact_maximum(random_star_ring(rng, SQUARE, int(rng.integers(6, 10))))

    @pytest.mark.parametrize("seed", range(10))
    def test_integer_grid_polylines(self, seed):
        rng = np.random.default_rng([32, seed])
        for k in range(10):
            poly = grid_polyline(rng, int(rng.integers(2, 5)), int(rng.integers(2, 8)), k % 2 == 1)
            assert_exact_maximum(poly)

    @pytest.mark.parametrize("seed", range(3))
    def test_closed_convex_rings(self, seed):
        ring = random_convex_polygon(seed, n_vertices=8).as_polyline()
        assert_exact_maximum(ring)
        assert max_line_multiplicity(ring).count == 2

    @pytest.mark.parametrize(
        "poly",
        [
            Polyline(points((0, 0), (1, 0), (2, 0), (3, 0))),
            Polyline(points((0, 0), (2, 0), (1, 0), (3, 0))),
            Polyline(points((0, 0), (1, 1), (2, 2), (3, 3), (1, 1))),
            Polyline(points((0, 0), (1, 0), (2, 0)), closed=True),
        ],
        ids=["chain", "folded-chain", "diagonal-retrace", "flat-ring"],
    )
    def test_collinear_chains(self, poly):
        assert_exact_maximum(poly)
        assert max_line_multiplicity(poly).count == 1

    @pytest.mark.parametrize(
        "poly",
        [
            Polyline(points((0, 0), (2, 0), (1, 1), (0, 0), (1, -1), (2, 0))),
            Polyline(points((0, 0), (1, 1), (2, 0), (1, 1), (0, 2), (1, 1), (2, 2))),
            Polyline(points((0, 0), (3, 0), (3, 3), (0, 3), (0, 0), (1, 2))),
            Polyline(points((1, 1), (0, 0), (2, 0), (1, 1), (2, 2), (0, 2)), closed=True),
        ],
        ids=["figure-eight", "star-through-hub", "ring-plus-tail", "closed-bowtie"],
    )
    def test_repeated_vertices(self, poly):
        assert_exact_maximum(poly)

    @pytest.mark.parametrize(
        "poly",
        [
            Polyline(points((0, 0), (1, 1), (2, 0), (1, 2), (1, -1))),
            Polyline(points((-1, 0), (1, 0), (0, 1), (0, -1), (1, 1))),
            Polyline(points((0, 0), (4, 0), (2, 2), (2, -2), (0, 2), (4, -2))),
        ],
        ids=["edge-through-vertex", "cross-at-midpoint", "three-edges-one-point"],
    )
    def test_curve_through_its_own_vertex(self, poly):
        assert_exact_maximum(poly)

    def test_overlapping_edges_below_the_top_score(self):
        # the top score counts the two retraced edges separately, but every
        # line crosses them in one point, so lower scores are replayed too
        poly = Polyline(points((0, 2), (2, 0), (0, 2), (1, 1), (0, 0)))
        assert_exact_maximum(poly)
        assert max_line_multiplicity(poly).count == 2


class TestScores:
    @pytest.mark.parametrize("seed", range(8))
    def test_every_score_is_the_sign_formula_of_its_witness(self, seed):
        rng = np.random.default_rng([33, seed])
        for poly in (
            random_walk_polyline(rng, SQUARE, 6),
            grid_polyline(rng, 3, 6, closed=bool(seed % 2)),
        ):
            sweep = stabbing._Sweep([poly])
            for rows, scores, rep in sweep.scored_chunks():
                for flat in np.flatnonzero(scores >= 0):
                    found = sweep.replay(rows, scores, rep, int(flat))
                    report = stabbing._witness(poly, found, stabbing.METHOD_SWEEP)
                    assert report.count == found[0]
                    signs = np.array([[side_of(report.witness, v) for v in poly.vertices]], np.int8)
                    assert count_from_signs(signs, poly.closed)[0] == scores.flat[flat]
                    assert report.count <= scores.flat[flat]

    def test_chunks_give_the_same_result(self, monkeypatch):
        poly = random_walk_polyline(9, SQUARE, n_segments=24)
        whole = max_line_multiplicity(poly)
        monkeypatch.setattr(stabbing, "_SWEEP_ENTRIES", 1)  # one pivot per chunk
        chunked = max_line_multiplicity(poly)
        assert (chunked.count, chunked.witness) == (whole.count, whole.witness)


def per_curve(sweep: stabbing._Sweep) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each curve's rows of the scores and of the class representatives,
    gathered over all chunks."""
    parts = defaultdict(list)
    for rows, scores, rep in sweep.scored_chunks():
        for curve, part in sweep.curves(rows):
            parts[curve].append((scores[part], rep[part]))
    return [
        (np.concatenate([s for s, _ in parts[c]]), np.concatenate([r for _, r in parts[c]]))
        for c in range(len(sweep.polys))
    ]


# coordinates on a small integer grid (repeated and exactly collinear
# vertices, whose float angles tie), scaled towards the sweep's 2^500 bound
# or down to 1e-300, where rounding leaves most angles to `_resolve`
_SCALES = [Fraction(1), Fraction(2) ** 497, Fraction(1, 10**300), Fraction(3, 7)]


@st.composite
def batch_curves(draw, size: int = 40) -> Polyline:
    n = draw(st.integers(2, size))
    side = draw(st.integers(2, 8))
    raw = draw(st.lists(st.tuples(st.integers(0, side - 1), st.integers(0, side - 1)),
                        min_size=n, max_size=n))
    verts = [v for i, v in enumerate(raw) if i == 0 or v != raw[i - 1]]
    if len(verts) < 2:
        verts.append((verts[0][0] + 1, verts[0][1]))
    if draw(st.booleans()):  # retrace the walk back to its start
        verts = (verts + verts[-2::-1])[:size]
    closed = len(verts) >= 3 and verts[0] != verts[-1] and draw(st.booleans())
    scale = draw(st.sampled_from(_SCALES))
    return Polyline(tuple(Point(x * scale, y * scale) for x, y in verts), closed)


def batch_reports(polys: list[Polyline]) -> list:
    """The report of each polyline's best replay in one batched sweep."""
    best = stabbing._sweep_best(polys, float("inf"))
    return [stabbing._witness(p, found, stabbing.METHOD_SWEEP) for p, found in zip(polys, best)]


class TestBatch:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(batch_curves(), min_size=1, max_size=6))
    def test_batch_equals_sweeps_of_one(self, polys):
        batch = per_curve(stabbing._Sweep(polys))
        for poly, (scores, rep) in zip(polys, batch):
            [(alone_scores, alone_rep)] = per_curve(stabbing._Sweep([poly]))
            n = len(poly.vertices)
            assert np.array_equal(scores[:, :n], alone_scores)
            assert np.all(scores[:, n:] == -1)
            assert np.array_equal(rep[:, : n + 1], alone_rep)
            assert np.all(rep[:, n + 1 :] == -1)

    # replay walks every candidate of a retraced curve (its overlapping
    # edges inflate the top scores), so these curves stay small
    @settings(max_examples=25, deadline=None)
    @given(st.lists(batch_curves(12), min_size=1, max_size=5))
    def test_batch_replays_and_decisions(self, polys):
        alone = [max_line_multiplicity(poly) for poly in polys]
        best = batch_reports(polys)
        assert [(b.count, b.witness) for b in best] == [(a.count, a.witness) for a in alone]
        for r in range(2, 6):
            assert stabbing._exceeds(polys, r) == [a.count > r for a in alone]

    @pytest.mark.parametrize("entries", [1, 30, 200])
    def test_chunks_across_curves(self, monkeypatch, entries):
        rng = np.random.default_rng([46, entries])
        polys = [random_walk_polyline(rng, SQUARE, int(rng.integers(2, 12))) for _ in range(6)]
        polys += [grid_polyline(rng, 4, 9, closed=True), random_star_ring(rng, SQUARE, 10)]
        # retraced edges lift its top score above its count of 2
        polys.append(Polyline(points((0, 2), (2, 0), (0, 2), (1, 1), (0, 0))))
        alone = [max_line_multiplicity(poly) for poly in polys]
        whole = per_curve(stabbing._Sweep(polys))
        monkeypatch.setattr(stabbing, "_SWEEP_ENTRIES", entries)
        chunked = per_curve(stabbing._Sweep(polys))
        for (s, rep), (s2, rep2) in zip(whole, chunked):
            assert np.array_equal(s, s2) and np.array_equal(rep, rep2)
        best = batch_reports(polys)
        assert [(b.count, b.witness) for b in best] == [(a.count, a.witness) for a in alone]
        for r in (2, 3, 4):
            assert stabbing._exceeds(polys, r) == [a.count > r for a in alone]

    def test_batches_by_vertex_count(self, monkeypatch):
        sizes = [5, 3, 9, 3, 30, 4]
        polys = [Polyline(tuple(Point(i, i * i % 7) for i in range(n))) for n in sizes]
        monkeypatch.setattr(stabbing, "_BATCH_ENTRIES", 200)
        # rows x width: (3 + 3 + 4 + 5) x 5 = 75, then 9 x 9 = 81, and 30 x 30 alone
        assert list(stabbing._batches(polys)) == [[1, 3, 5, 0], [2], [4]]

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(2, 300), min_size=1, max_size=40))
    def test_no_batch_exceeds_the_budget(self, sizes):
        polys = [Polyline(tuple(Point(i, i * i % 7) for i in range(n))) for n in sizes]
        batches = list(stabbing._batches(polys))
        assert sorted(i for batch in batches for i in batch) == list(range(len(sizes)))
        for batch in batches:
            entries = sum(sizes[i] for i in batch) * max(sizes[i] for i in batch)
            assert len(batch) == 1 or entries <= stabbing._BATCH_ENTRIES


def edge_list(poly: Polyline) -> list[tuple[int, int]]:
    n = len(poly)
    return [(i, i + 1) for i in range(n - 1)] + ([(n - 1, 0)] if poly.closed else [])


def gap_crossings(poly: Polyline, a: int, b: int) -> list[tuple[int, int]]:
    """(p + q, edges with one end at or below p and the other at or above q)
    for each pair p < q of consecutive distinct projections a·X + b·Y of the
    grid ints, in ascending order: plain Python ints, no table."""
    _, xs, ys = poly.grid
    proj = [a * x + b * y for x, y in zip(xs, ys)]
    values = sorted(set(proj))
    spans = [sorted((proj[i], proj[j])) for i, j in edge_list(poly)]
    return [(p + q, sum(1 for lo, hi in spans if lo <= p and hi >= q))
            for p, q in zip(values, values[1:])]


def strict_crossings(poly: Polyline, coefs: tuple[int, int, int]) -> int:
    """Edges whose ends lie strictly on opposite sides of a·X + b·Y = c,
    which must pass through no vertex."""
    a, b, c = coefs
    _, xs, ys = poly.grid
    values = [a * x + b * y - c for x, y in zip(xs, ys)]
    assert 0 not in values
    return sum(1 for i, j in edge_list(poly) if (values[i] > 0) != (values[j] > 0))


def zigzag(x: int, n: int) -> Polyline:
    """n vertices alternating between X = -x and X = x on the grid of
    denominator 1, one step up each: the line X = 0 crosses every edge."""
    return Polyline.from_grid(1, [x if k % 2 else -x for k in range(n)], list(range(n)))


class TestWitnessScreen:
    """The exact witness screen that `_exceeds` runs before its sweeps."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(batch_curves(), min_size=1, max_size=6), st.integers(2, 6))
    def test_table_against_python_ints(self, polys, r):
        fits, counts, sums = stabbing._witness_gaps(polys)
        bound = stabbing._WITNESS_BOUND
        # the 2^497 scale lies beyond the bound and is left to the sweep
        assert fits == [i for i, poly in enumerate(polys)
                        if max(map(abs, poly.grid[1] + poly.grid[2])) <= bound]
        for row, i in enumerate(fits):
            for k, (a, b) in enumerate(stabbing._WITNESS_NORMALS):
                gaps = gap_crossings(polys[i], a, b)
                top = max((count for _, count in gaps), default=0)
                assert counts[row, k] == top
                if top:
                    # the first gap of the largest count: its line passes
                    # through no vertex and crosses exactly `top` edges
                    assert sums[row, k] == next(s for s, count in gaps if count == top)
                    assert strict_crossings(polys[i], (2 * a, 2 * b, int(sums[row, k]))) == top
        for poly, marked in zip(polys, stabbing._witness_screen(polys, r)):
            if marked:
                assert max_line_multiplicity(poly).count > r

    def test_curves_beyond_the_int64_bound_are_swept(self, monkeypatch):
        swept = []

        class Recording(stabbing._Sweep):
            def __init__(self, polys):
                swept.extend(polys)
                super().__init__(polys)

        monkeypatch.setattr(stabbing, "_Sweep", Recording)
        bound = stabbing._WITNESS_BOUND
        inside, beyond = zigzag(bound, 9), zigzag(bound + 1, 9)
        assert stabbing._witness_gaps([beyond, inside])[0] == [1]
        assert stabbing._witness_screen([beyond, inside], 7) == [False, True]
        for r in (3, 7, 8):
            assert stabbing._exceeds([beyond, inside], r) == [r < 8, r < 8]
        # only the curve beyond the bound reaches the sweep (at r = 8 no
        # curve does: eight segments)
        assert len(swept) == 2 and all(poly is beyond for poly in swept)
        assert max_line_multiplicity(beyond).count == 8

    def test_decides_a_fixed_share_of_falsify_curves(self, monkeypatch):
        marked = []
        screen = stabbing._witness_screen

        def recording(polys, r):
            out = screen(polys, r)
            marked.extend(out)
            return out

        monkeypatch.setattr(stabbing, "_witness_screen", recording)
        falsify(SQUARE, 3, 40, 508)
        # 35 of the 40 curves have more than 3 segments; the screen proves 28
        # of them exceed 3 (the sweep finds 7 more within 3 or above it)
        assert (len(marked), sum(marked)) == (35, 28)


class TestRanks:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-2, 2)), min_size=1, max_size=30))
    def test_equal_float_views_are_ranked_exactly(self, raw):
        # a + b·1e-30 rounds to the float view of a whatever b is
        values = [a + Fraction(b, 10**30) for a, b in raw]
        grid = [v * 10**30 for v in values]  # the grid ints of the values
        assert all(v.denominator == 1 for v in grid)
        distinct = sorted(set(values))
        assert stabbing._ranks([int(v) for v in grid]) == [distinct.index(v) for v in values]

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-2, 2)), min_size=2, max_size=12),
           st.sampled_from([1, 7, 10**9]))
    def test_each_curve_is_ranked_on_its_own_grid(self, raw, denominator):
        # two curves on different grids in one batch: each row's ranks are
        # the exact order of its own curve's coordinates
        tiny = Fraction(1, 10**30)
        first = Polyline(tuple(Point(a + b * tiny, k) for k, (a, b) in enumerate(raw)))
        second = Polyline(
            tuple(Point(k, Fraction(a, denominator) + b * tiny) for k, (a, b) in enumerate(raw))
        )
        sweep = stabbing._Sweep([first, second])
        for curve, poly in enumerate((first, second)):
            n = len(poly.vertices)
            for axis, ranks in (("x", sweep.rank_x), ("y", sweep.rank_y)):
                values = [getattr(v, axis) for v in poly.vertices]
                distinct = sorted(set(values))
                assert ranks[curve, :n].tolist() == [distinct.index(v) for v in values]


def level_crossings(xs: list[int], ys: list[int], a: int, b: int, k: int) -> int:
    """Edges of the open chain (xs, ys) with one end's projection
    a·X + b·Y at or below k and the other's above it: plain Python ints."""
    proj = [a * x + b * y for x, y in zip(xs, ys)]
    return sum(1 for p, q in zip(proj, proj[1:]) if min(p, q) <= k < max(p, q))


@st.composite
def chains(draw) -> tuple[list[int], list[int]]:
    """Open chains of small lattice points (repeated points, edges parallel
    to many normals), closed or not, scaled up to beyond the int64 bound of
    the oracle's normals and shifted."""
    raw = draw(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=2, max_size=30))
    if draw(st.booleans()):  # a closed curve: its first vertex closes it
        raw.append(raw[0])
    scale = draw(st.sampled_from([1, 3, 10**13, 2**58, stabbing._ORACLE_BOUND // 4, 2**200]))
    shift = draw(st.sampled_from([0, 5, -(10**14)]))
    return [x * scale + shift for x, _ in raw], [y * scale for _, y in raw]


_normals = st.tuples(st.integers(-6, 6), st.integers(-6, 6)).filter(lambda n: n != (0, 0))


class TestCrossingTable:
    """The one exact table behind the witness screen and the oracle."""

    @settings(max_examples=150, deadline=None)
    @given(chains(), st.lists(_normals | st.sampled_from(stabbing._ORACLE_NORMALS.tolist()),
                              min_size=1, max_size=4), st.data())
    def test_counts_against_python_ints(self, chain, normals, data):
        xs, ys = chain
        a, b = np.array(normals).T[:, :, None]
        # the packed keys 8·proj + weight + 2 fit int64 while |proj| < 2^59
        fits = max(map(abs, xs + ys)) <= (2**59 - 1) // int((abs(a) + abs(b)).max())
        tables = [_crossing_table(np.array(xs, object), np.array(ys, object), a.astype(object),
                                  b.astype(object))]
        if fits:
            tables.append(_crossing_table(np.array(xs), np.array(ys), a, b))
        for row, (na, nb) in enumerate(normals):
            proj = [na * x + nb * y for x, y in zip(xs, ys)]
            near = data.draw(st.lists(st.sampled_from(proj), min_size=1, max_size=8))
            levels = [p + d for p in near for d in (-1, 0, 1)] + [min(proj) - 3, max(proj) + 2]
            for k in levels:
                expected = level_crossings(xs, ys, na, nb, k)
                for levels_sorted, crossed in tables:
                    place = np.searchsorted(levels_sorted[row], k, "right") - 1
                    assert crossed[row, place] == expected


def drawn_normals(trials: int, seed: int) -> list[tuple[int, int]]:
    """The oracle's normals that `trials` uniform draws u pick, bucket
    ⌊2048·u⌋ each, in ascending bucket."""
    u = np.random.default_rng(seed).random(trials)
    buckets = sorted(set((stabbing._ORACLE_BUCKETS * u).astype(int).tolist()))
    return [tuple(stabbing._ORACLE_NORMALS[j].tolist()) for j in buckets]


def gap_line_maximum(poly: Polyline, trials: int, seed: int) -> int:
    """The largest exact count, in Python ints, of a gap line
    2a·X + 2b·Y = p + q on the drawn normals (a, b); 0 with no gap."""
    return max((stabbing._grid_count(poly, (2 * a, 2 * b, s))
                for a, b in drawn_normals(trials, seed) for s, _ in gap_crossings(poly, a, b)),
               default=0)


def assert_oracle_is_gap_line_maximum(
    poly: Polyline, trials: int, seed: int
) -> stabbing.MultiplicityReport:
    """The oracle's count is the exact maximum over every gap line of its
    drawn normals, bounded by the sweep's, and its witness's own count.
    Returns the oracle's report."""
    report = random_line_oracle(poly, trials, seed)
    assert report.count == gap_line_maximum(poly, trials, seed)
    assert report.count <= max_line_multiplicity(poly).count
    assert report.count == line_multiplicity(report.witness, poly).count
    return report


def chain_polyline(chain: tuple[list[int], list[int]]) -> Polyline:
    """A `chains()` chain as a polyline on the grid of denominator 1, its
    repeated points dropped; closed when it ends where it starts."""
    pts = list(zip(*chain))
    verts = [v for i, v in enumerate(pts) if i == 0 or v != pts[i - 1]]
    closed = len(verts) > 3 and verts[0] == verts[-1]
    if closed:
        verts.pop()
    assume(len(verts) >= 2)
    return Polyline.from_grid(1, *zip(*verts), closed=closed)


class TestOracleScreen:
    """The oracle's count against the Python-int maximum over every gap line
    of its drawn normals, and its witness against its exact count."""

    @settings(max_examples=60, deadline=None)
    @given(chains(), st.integers(1, 12), st.integers(0, 2**16))
    def test_gap_line_maximum(self, chain, trials, seed):
        # the chains' scales run the int64 and the Python-int tables
        assert_oracle_is_gap_line_maximum(chain_polyline(chain), trials, seed)

    @pytest.mark.parametrize("r", [2, 3])
    def test_builder_curves(self, r):
        curve = build_curve(SQUARE, ConstructionParams(r=r, eps=0.1 * r, m=64, seed=7)).curve
        assert_oracle_is_gap_line_maximum(curve, 30, seed=r)

    @pytest.mark.parametrize("seed", range(4))
    def test_closed_rings_and_grid_polylines(self, seed):
        rng = np.random.default_rng([44, seed])
        for poly in (
            random_star_ring(rng, SQUARE, n_vertices=12),
            random_convex_polygon(rng, 9).as_polyline(),
            grid_polyline(rng, 4, 10, closed=bool(seed % 2)),
        ):
            assert_oracle_is_gap_line_maximum(poly, 300, seed)

    def test_no_drawn_normal_has_a_gap(self):
        # one draw picks the normal (-1709, 3723), and the segment along
        # (-3723, -1709) projects to one value on it: no gap, so the answer
        # is a line of count 0 that misses the curve
        assert drawn_normals(1, 0) == [(-1709, 3723)]
        segment = Polyline.from_grid(1, [0, -3723], [0, -1709])
        report = random_line_oracle(segment, 1, 0)
        assert report.count == 0 and report.components == ()
        assert line_multiplicity(report.witness, segment).count == 0

    def test_int64_bound(self, monkeypatch):
        # grid ints at the bound stay in int64; one past it, the same
        # table runs on Python ints; slices of 40 entries give the count of
        # one slice, also when the only normals that cross all 8 edges, 2
        # near (0, 4096) for the flat zigzag, lie in a middle slice
        dtypes = []
        table = stabbing._turning_table

        def recording(xs, ys, *args):
            dtypes.append(xs.dtype)
            return table(xs, ys, *args)

        monkeypatch.setattr(stabbing, "_turning_table", recording)
        bound = stabbing._ORACLE_BOUND
        flat = Polyline.from_grid(
            1, [30 * k for k in range(9)], [1 if k % 2 else -1 for k in range(9)]
        )
        for poly, dtype in ((zigzag(bound, 9), np.int64), (zigzag(bound + 1, 9), object),
                            (flat, np.int64)):
            counts = []
            for entries in (40, 1 << 40):
                monkeypatch.setattr(stabbing, "_TABLE_ENTRIES", entries)
                dtypes.clear()
                counts.append(random_line_oracle(poly, 400, 3).count)
                assert set(dtypes) == {np.dtype(dtype)} and (len(dtypes) > 1) == (entries == 40)
            assert counts[0] == counts[1] == gap_line_maximum(poly, 400, 3) == 8

    @pytest.mark.parametrize("seed", range(3))
    def test_replays_are_exact(self, seed):
        # on a retraced loop the table counts over-count, yet the reported
        # count is its witness's exact count and no gap line's is higher
        rng = np.random.default_rng([47, seed])
        loop = random_star_ring(rng, SQUARE, n_vertices=10)
        retraced = Polyline(loop.vertices + loop.vertices[:1] + loop.vertices[1:6])
        for poly in (retraced, grid_polyline(rng, 4, 14, closed=False)):
            report = assert_oracle_is_gap_line_maximum(poly, 800, seed)
            coefs = [int(v) for v in (report.witness.nx, report.witness.ny,
                                      report.witness.c * poly.grid[0])]
            assert report.count == stabbing._gap_count(poly, coefs)


@st.composite
def turning_cases(draw) -> tuple[Polyline, list[int]]:
    """A `chains()` polyline and an ascending subset of the oracle's
    normals, the chain given edges along (-b, a) for some drawn normals
    (a, b), which rise 0 on them."""
    xs, ys = draw(chains())
    picks = sorted(set(draw(st.lists(st.integers(0, stabbing._ORACLE_BUCKETS - 1),
                                     min_size=1, max_size=12))))
    for _ in range(draw(st.integers(0, 3))):
        a, b = stabbing._ORACLE_NORMALS[draw(st.sampled_from(picks))].tolist()
        k = draw(st.sampled_from([-2, -1, 1, 3]))
        at = draw(st.integers(0, len(xs) - 1))
        xs = xs[: at + 1] + [xs[at] - k * b] + xs[at + 1 :]
        ys = ys[: at + 1] + [ys[at] + k * a] + ys[at + 1 :]
    return chain_polyline((xs, ys)), picks


class TestTurningTable:
    """The oracle's table from turning vertices only against the table of
    every vertex (`_gap_counts`), and its premise: the oracle's normals lie
    in strict angular order within (0, π)."""

    def test_normals_in_strict_angular_order(self):
        a, b = stabbing._ORACLE_NORMALS.T
        assert (b > 0).all()
        assert (a[:-1] * b[1:] - b[:-1] * a[1:] > 0).all()

    @settings(max_examples=150, deadline=None)
    @given(turning_cases(), st.data())
    def test_coarse_gaps_against_every_fine_gap(self, case, data):
        poly, picks = case
        _, xs, ys = poly.grid
        normals = stabbing._ORACLE_NORMALS[picks]
        lo = data.draw(st.integers(0, len(picks) - 1))
        hi = data.draw(st.integers(lo + 1, len(picks) + 2))
        dtypes = [object]
        if max(map(abs, xs + ys)) <= stabbing._ORACLE_BOUND:
            dtypes.append(np.int64)
        for dtype in dtypes:
            a, b = normals.T.astype(dtype)
            gx, gy = np.array(xs, dtype=dtype), np.array(ys, dtype=dtype)
            ranges = _turning_ranges(gx, gy, poly.closed, a, b)
            rows, proj, counts = _turning_table(gx, gy, a, b, ranges, lo, hi)
            assert proj.dtype == dtype
            # the table of every vertex: a closed chain repeats its first vertex
            chain = [np.array(v + v[: poly.closed], dtype=dtype) for v in (xs, ys)]
            fine_proj, fine = _gap_counts(*chain, a[:, None], b[:, None])
            assert set(rows.tolist()) <= set(range(lo, min(hi, len(picks))))
            for j in range(lo, min(hi, len(picks))):
                mine = rows == j
                coarse_proj, coarse = proj[mine].tolist(), counts[mine].tolist()
                assert coarse_proj == sorted(coarse_proj)
                every, counted = fine_proj[j].tolist(), fine[j].tolist()
                for p, q, count in zip(every, every[1:], counted):
                    if p < q:
                        # the coarse gap that holds the fine gap p < q;
                        # below the first turning projection the count is 0
                        at = bisect_right(coarse_proj, p) - 1
                        assert count == (coarse[at] if at >= 0 else 0)
                assert max(coarse, default=0) == max(counted)

    @pytest.mark.parametrize("trials", [1, 2, 7, 100, 2048, 16383, 16384, 16385,
                                        40_000, 100_000, 300_000])
    def test_bucket_draw_matches_one_draw(self, trials):
        for seed in range(3):
            drawn = stabbing._ORACLE_NORMALS[_drawn_buckets(trials, seed)]
            assert [tuple(n) for n in drawn.tolist()] == drawn_normals(trials, seed)

    @pytest.mark.parametrize("seed", range(3))
    def test_bucket_draw_stops_once_every_bucket_is_drawn(self, seed):
        u = np.random.default_rng(seed).random(300_000)
        buckets = (stabbing._ORACLE_BUCKETS * u).astype(int)
        first = np.unique(buckets, return_index=True)[1]
        assert len(first) == stabbing._ORACLE_BUCKETS
        full = int(first.max()) + 1  # the first trial count that draws every bucket
        assert len(_drawn_buckets(full - 1, seed)) == stabbing._ORACLE_BUCKETS - 1
        assert len(_drawn_buckets(10**12, seed)) == stabbing._ORACLE_BUCKETS
        poly = grid_polyline(np.random.default_rng([49, seed]), 6, 12, closed=bool(seed % 2))
        assert random_line_oracle(poly, 10**12, seed) == random_line_oracle(poly, full, seed)


class TestFloatFilter:
    def test_directions_closer_than_float_resolution(self):
        # a zigzag of amplitude 1e-30: every direction from a vertex lies
        # inside the error band and is ordered by exact cross products
        tiny = Fraction(1, 10**30)
        poly = Polyline(points((0, 0), (1, tiny), (2, 0), (3, tiny), (4, 0), (5, tiny)))
        assert_exact_maximum(poly)
        assert max_line_multiplicity(poly).count == 5

    @pytest.mark.parametrize("shrink", [6, 7, 8, 9])
    def test_tiny_features_far_from_the_origin(self, shrink):
        # walks scaled to 1e-6..1e-9 at about (1e8, 1e8): rounding the
        # coordinates to floats reorders or merges directions, which only
        # the band's exact re-decisions put right
        scale = Fraction(1, 10**shrink)
        shift = (Fraction(10**8) + Fraction(1, 3), Fraction(10**8) + Fraction(1, 7))
        for seed in range(40):
            poly = random_walk_polyline(seed, SQUARE, 7)
            moved = _moved(poly, 1, 0, scale, shift)
            assert max_line_multiplicity(moved).count == max_line_multiplicity(poly).count

    def test_distinct_vertices_with_equal_float_views(self):
        tiny = Fraction(1, 10**30)
        poly = Polyline(points((0, 0), (1, 1), (1 + tiny, 0), (1, -1), (1 + 2 * tiny, 2)))
        assert float(poly.vertices[2].x) == float(poly.vertices[1].x)
        assert_exact_maximum(poly)

    @pytest.mark.parametrize(
        "coord", [Fraction(2) ** 501, Fraction(-(10**400)), Fraction(10**400, 3)]
    )
    def test_coordinates_beyond_the_bound_are_refused(self, coord):
        poly = Polyline((Point(0, 0), Point(coord, 1), Point(0, 1)))
        with pytest.raises(PreconditionError):
            max_line_multiplicity(poly)
        with pytest.raises(PreconditionError):
            random_line_oracle(poly, trials=10, seed=0)

    def test_coordinates_at_the_bound_are_accepted(self):
        big = Fraction(2) ** 500
        poly = Polyline((Point(-big, 0), Point(big, 1), Point(0, -big), Point(1, big)))
        assert_exact_maximum(poly)
        assert random_line_oracle(poly, trials=100, seed=0).count <= 3


# hypothesis strategies: small integer polylines, open or closed
_coords = st.tuples(st.integers(-6, 6), st.integers(-6, 6))


@st.composite
def polylines(draw) -> Polyline:
    raw = draw(st.lists(_coords, min_size=2, max_size=7))
    verts = [v for i, v in enumerate(raw) if i == 0 or v != raw[i - 1]]
    if len(verts) < 2:
        verts.append((verts[0][0] + 1, verts[0][1]))
    closed = len(verts) >= 3 and verts[0] != verts[-1] and draw(st.booleans())
    return Polyline(points(*verts), closed)


def _moved(poly: Polyline, c, s, scale, shift) -> Polyline:
    verts = (rigid_motion(Point(v.x * scale, v.y * scale), c, s, shift) for v in poly.vertices)
    return Polyline(tuple(verts), poly.closed)


class TestInvariance:
    @settings(max_examples=60, deadline=None)
    @given(polylines())
    def test_exact_rotation(self, poly):
        c, s = Fraction(3, 5), Fraction(4, 5)
        rep = max_line_multiplicity(poly)
        moved = _moved(poly, c, s, 1, (0, 0))
        w = rep.witness
        # n'·(R x) = n·x for n' = R n
        moved_witness = Line(c * w.nx - s * w.ny, s * w.nx + c * w.ny, w.c)
        assert line_multiplicity(moved_witness, moved).count == rep.count
        assert max_line_multiplicity(moved).count == rep.count

    @settings(max_examples=60, deadline=None)
    @given(
        polylines(),
        st.integers(0, 7),
        st.fractions(-(10**8), 10**8, max_denominator=1000),
        st.fractions(-(10**8), 10**8, max_denominator=1000),
    )
    def test_translation_of_small_features(self, poly, shrink, dx, dy):
        # features down to 1e-7 at offsets up to 1e8 leave the float angles
        # without a single correct digit: the band must hand them to the
        # exact comparison
        scale = Fraction(1, 10**shrink)
        moved = _moved(poly, 1, 0, scale, (dx, dy))
        assert max_line_multiplicity(moved).count == max_line_multiplicity(poly).count

    @settings(max_examples=60, deadline=None)
    @given(polylines(), st.fractions(Fraction(-1000), Fraction(1000), max_denominator=997))
    def test_uniform_rational_scaling(self, poly, scale):
        if scale == 0:
            scale = Fraction(1, 997)
        moved = _moved(poly, 1, 0, scale, (0, 0))
        assert max_line_multiplicity(moved).count == max_line_multiplicity(poly).count
