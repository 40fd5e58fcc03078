"""Polylines born on the integer grid: `Polyline.from_grid` against the
polyline built from `Fraction` points, containment on the curve's grid, and
a guard that falsify's trial curves, their judge and their lengths make no
`Fraction` and no `Point`, and every sweep replay against the line that its
report is built on."""

import math
from dataclasses import FrozenInstanceError
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from konvex import stabbing, verifier
from konvex.stabbing import _accidental, line_multiplicity
from konvex.errors import PreconditionError
from konvex.formats import serialize_polyline
from konvex.geometry import (
    EXTERIOR,
    ConvexPolygon,
    Point,
    Polyline,
    _grid_of,
    _require_inside,
    contains,
    polyline_length,
)
from konvex.random_shapes import GRID, random_star_ring, random_walk_polyline

from fraction_oracle import fraction_accidental

SQUARE = ConvexPolygon((Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)))
HEXAGON = ConvexPolygon(
    tuple(Point(x, y) for x, y in
          [("1/3", 0), (2, "-1/7"), (3, 1), ("5/2", "13/5"), (1, 3), (0, "3/2")])
)


def outcome(make):
    """The built polyline, or the message of the PreconditionError raised."""
    try:
        return make()
    except PreconditionError as exc:
        return str(exc)


def both_ways(den: int, xs: list[int], ys: list[int], closed: bool):
    grid = outcome(lambda: Polyline.from_grid(den, xs, ys, closed))
    points = outcome(lambda: Polyline(
        tuple(Point(Fraction(x, den), Fraction(y, den)) for x, y in zip(xs, ys)), closed
    ))
    return grid, points


def bits(values) -> list[str]:
    return [float.hex(v) for v in values]


@st.composite
def grid_inputs(draw):
    """(den, xs, ys, closed) on the 10^9 grid: coordinates that share its
    factors (all even, all multiples of 10^6), negative ones, narrow ranges
    that repeat vertices, and a scale beyond double range."""
    n = draw(st.integers(2, 10))
    factor = draw(st.sampled_from([1, 2, 10**6]))
    span = draw(st.sampled_from([2, 1000, 10**9]))
    scale = draw(st.sampled_from([1, 1, 1, 10**400]))
    coord = st.integers(-span, span).map(lambda v: v * factor * scale)
    xs = draw(st.lists(coord, min_size=n, max_size=n))
    ys = draw(st.lists(coord, min_size=n, max_size=n))
    return 10**9, xs, ys, draw(st.booleans())


class TestFromGrid:
    @settings(max_examples=300, deadline=None)
    @given(grid_inputs())
    def test_same_polyline_both_ways(self, args):
        den, xs, ys, closed = args
        grid, points = both_ways(den, xs, ys, closed)
        if isinstance(points, str):
            assert grid == points  # the same repeat-vertex message
            return
        assert grid.grid == points.grid == _grid_of(points.vertices)
        if math.gcd(den, *xs, *ys) > 1:
            assert grid.grid[0] < den
        assert len(grid) == len(points)
        assert grid == points and points == grid and hash(grid) == hash(points)
        try:
            reference = [v.xy for v in points.vertices]
        except PreconditionError as exc:
            for poly in (grid, points):
                with pytest.raises(PreconditionError, match=str(exc)):
                    poly.float_vertices()
                with pytest.raises(PreconditionError, match=str(exc)):
                    polyline_length(poly)
                with pytest.raises(PreconditionError, match="2\\^500"):
                    stabbing._float_points(poly)
        else:
            for poly in (grid, points):
                assert bits(c for p in poly.float_vertices() for c in p) == bits(
                    c for p in reference for c in p
                )
            # the length as summed segment by segment before the float view
            length = sum(seg.length() for seg in points.segments())
            assert bits([polyline_length(grid), polyline_length(points)]) == bits([length] * 2)
        assert repr(grid) == repr(points)
        assert serialize_polyline(grid) == serialize_polyline(points)

    def test_repeat_messages(self):
        open_repeat = both_ways(10, [1, 1, 2], [0, 0, 0], False)
        closed_repeat = both_ways(10, [1, 2, 1], [0, 0, 0], True)
        too_short = both_ways(10, [1], [0], False)
        assert open_repeat == ("consecutive polyline vertices must be distinct",) * 2
        assert closed_repeat == (
            "closed polyline must not repeat its first vertex in storage",
        ) * 2
        assert too_short == ("a polyline needs at least 2 vertices",) * 2

    def test_reduced_on_the_grid(self):
        poly = Polyline.from_grid(10**9, [-2 * 10**6, 4 * 10**6], [0, 10**9])
        assert poly.grid == (500, (-1, 2), (0, 500))
        assert poly == Polyline((Point("-0.002", 0), Point("0.004", 1)))

    def test_refuses_a_bad_grid(self):
        with pytest.raises(PreconditionError):
            Polyline.from_grid(0, [0, 1], [0, 1])
        with pytest.raises(PreconditionError):
            Polyline.from_grid(1, [0, 1], [0])

    def test_immutable(self):
        poly = Polyline.from_grid(GRID, [0, 1], [0, 1])
        for name, value in (("closed", True), ("vertices", ()), ("_grid", None)):
            with pytest.raises(FrozenInstanceError):
                setattr(poly, name, value)
        with pytest.raises(FrozenInstanceError):
            del poly.closed
        assert poly.grid == (GRID, (0, 1), (0, 1)) and not poly.closed

    def test_generators_match_their_fraction_curves(self):
        for seed in range(20):
            for curve in (
                random_walk_polyline(seed, HEXAGON, 9, closed=seed % 2 == 1),
                random_star_ring(seed, HEXAGON, 8, spiky=seed % 2 == 0),
            ):
                fresh = Polyline(curve.vertices, curve.closed)
                assert curve.grid[0] <= GRID and GRID % curve.grid[0] == 0
                assert (curve, hash(curve), repr(curve)) == (fresh, hash(fresh), repr(fresh))


# ---------------------------------------------------------------------------
# containment on the curve's grid
# ---------------------------------------------------------------------------

lattice = st.builds(
    lambda a, b: (Fraction(a, 3), Fraction(b, 5)), st.integers(-3, 12), st.integers(-3, 18)
)


class TestRequireInside:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(lattice, min_size=2, max_size=8, unique=True), st.booleans())
    def test_matches_contains_per_vertex(self, raw, square):
        body = SQUARE if square else HEXAGON
        poly = Polyline(tuple(Point(x, y) for x, y in raw))
        outside = any(contains(body, v) == EXTERIOR for v in poly.vertices)
        if outside:
            with pytest.raises(PreconditionError, match="polyline is not contained in the body"):
                _require_inside(poly, body)
        else:
            _require_inside(poly, body)

    def test_reads_no_vertices(self, monkeypatch):
        inside = random_walk_polyline(5, HEXAGON, 12)
        # two corners of the hexagon and the midpoint of its first edge
        boundary = Polyline.from_grid(42, [126, 14, 49], [42, 0, -3])
        outside = Polyline.from_grid(GRID, [GRID, 4 * GRID], [GRID, GRID])

        def refuse(self):
            raise AssertionError("a grid-born curve's points were read")

        monkeypatch.setattr(Polyline, "vertices", property(refuse))
        _require_inside(inside, HEXAGON)
        _require_inside(boundary, HEXAGON)
        with pytest.raises(PreconditionError, match="polyline is not contained in the body"):
            _require_inside(outside, HEXAGON)


# ---------------------------------------------------------------------------
# guard: falsify's trial curves are born on the grid
# ---------------------------------------------------------------------------


def test_trial_curves_build_no_fraction_and_no_point(monkeypatch):
    r = 3

    def run():
        trials = [t for block in verifier._trial_blocks(SQUARE, r, 40, 17) for t in block]
        curves = [curve for _, _, curve in trials]
        return trials, stabbing._exceeds(curves, r), bits(polyline_length(c) for c in curves)

    def refuse(*args, **kwargs):
        raise AssertionError("a Fraction or a Point was made")

    monkeypatch.setattr(Fraction, "__new__", refuse)
    monkeypatch.setattr(Point, "__init__", refuse)
    monkeypatch.setattr(Point, "__post_init__", refuse)
    guarded = run()
    monkeypatch.undo()
    assert guarded == run()
    trials, over, _ = guarded
    # trials < 50 have no builder slot; both verdicts occur, so some curves
    # were replayed exactly
    assert {kind for _, kind, _ in trials} == {"walk", "star", "smooth_loop"}
    assert any(over) and not all(over)


def test_every_replay_counts_its_witness_line(monkeypatch):
    # every candidate of a batch: the replay's count is the exact count of
    # the line its report is built on, and the re-shift test on the line's
    # merged pieces agrees with the Fraction reference.  Walks on a 4 x 4
    # lattice cross at shared points, so some open cells are re-shifted.
    reshifts = []

    def accidental(merged, poly):
        reshifts.append(_accidental(merged, poly))
        return reshifts[-1]

    monkeypatch.setattr(stabbing, "_accidental", accidental)
    rng = np.random.default_rng(71)
    walks = [rng.integers(0, 4, (7, 2)).tolist() for _ in range(12)]
    curves = [
        Polyline.from_grid(1, *zip(*[p for i, p in enumerate(w) if i == 0 or p != w[i - 1]]))
        for w in walks
    ]
    curves += [random_star_ring(seed, SQUARE, 12) for seed in range(4)]
    sweep = stabbing._Sweep(curves)
    replays = 0
    for rows, scores, rep in sweep.scored_chunks():
        for flat in np.flatnonzero(scores >= 0).tolist():
            poly = curves[sweep.row_curve[rows.start + np.unravel_index(flat, scores.shape)[0]]]
            count, coefs, unit = sweep.replay(rows, scores, rep, flat)
            report = stabbing._witness(poly, (count, coefs, unit), stabbing.METHOD_SWEEP)
            assert count == report.count == line_multiplicity(report.witness, poly).count
            merged = stabbing._merged_pieces(poly, coefs)[0]
            assert _accidental(merged, poly) == fraction_accidental(report, poly)
            replays += 1
    assert replays > 1000 and any(reshifts)
