"""Falsify's trial loop: batch-seeded trial streams against
`np.random.default_rng`, the scalar star ring and the array-drawn walk
against the forms they replaced, count-only replays against
`line_multiplicity`, the gap-line count against `_grid_count`, and the
segment bound and witness screen that decide curves without a sweep."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from konvex import stabbing, verifier
from konvex.errors import DegeneracyError
from konvex.geometry import ConvexPolygon, Line, Point, Polyline
from konvex.random_shapes import (
    _pcg64_states,
    random_convex_polygon,
    random_star_ring,
    random_walk_polyline,
    trial_streams,
)
from konvex.stabbing import (
    _WITNESS_NORMALS,
    _gap_count,
    _grid_count,
    _integer_line,
    line_multiplicity,
    max_line_multiplicity,
    random_line_oracle,
)
from konvex.verifier import falsify

from star_ring_reference import reference_star_ring
from walk_reference import reference_walk_polyline

SQUARE = ConvexPolygon((Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)))
# the benchmark's 40-gon, a triangle three grid steps wide, and a body far
# from the origin
BODIES = [
    SQUARE,
    random_convex_polygon(np.random.default_rng(40), 40),
    ConvexPolygon((Point(0, 0), Point("3e-9", 0), Point(0, "3e-9"))),
    random_convex_polygon(3, 12, scale=5.0, center=(1e3, -2.0)),
]


def drawn(make, seed, body, n, spiky):
    """The ring's grid, or the DegeneracyError's message, and the next draw
    of the generator after it."""
    rng = np.random.default_rng(seed)
    try:
        ring = make(rng, body, n, spiky)
        out = (ring.grid, ring.closed)
    except DegeneracyError as exc:
        out = str(exc)
    return out, rng.random()


class TestStarRing:
    @settings(max_examples=500, deadline=None)
    @given(
        body=st.sampled_from(range(len(BODIES))),
        n=st.integers(3, 13),
        spiky=st.booleans(),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_matches_the_numpy_ring(self, body, n, spiky, seed):
        ring = drawn(random_star_ring, seed, BODIES[body], n, spiky)
        assert ring == drawn(reference_star_ring, seed, BODIES[body], n, spiky)

    def test_the_same_degeneracy_error(self):
        # three grid steps leave too few distinct vertices for a 13-vertex ring
        for seed in range(5):
            ring = drawn(random_star_ring, seed, BODIES[2], 13, True)
            assert ring[0] == "could not generate a star ring"
            assert ring == drawn(reference_star_ring, seed, BODIES[2], 13, True)


# ---------------------------------------------------------------------------
# batch-seeded trial streams
# ---------------------------------------------------------------------------


def default_states(seed, trials):
    return [np.random.default_rng([seed, t]).bit_generator.state for t in trials]


def reference_streams(seed, trials):
    """Trial t's stream as falsify drew it before: its own default_rng."""
    return (np.random.default_rng([seed, t]) for t in range(trials))


class TestTrialStreams:
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**96, 2**200 + 99])
    def test_states_of_default_rng(self, seed):
        expected = default_states(seed, range(70))
        for trials in range(1, 71):
            states = [rng.bit_generator.state for rng in trial_streams(seed, trials)]
            assert states == expected[:trials]

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.one_of(st.integers(0, 2**40), st.integers(0, 2**300)),
        trials=st.integers(1, 40),
    )
    def test_any_seed(self, seed, trials):
        states = [rng.bit_generator.state for rng in trial_streams(seed, trials)]
        assert states == default_states(seed, range(trials))

    def test_later_chunks_and_trial_numbers_of_several_words(self):
        states = [rng.bit_generator.state for rng in trial_streams(3, 1100)]
        assert states == default_states(3, range(1100))
        for trials in (range(2**32, 2**32 + 3), range(2**96 + 5, 2**96 + 8)):
            assert _pcg64_states(2**64 + 3, trials) == default_states(2**64 + 3, trials)

    def test_each_stream_starts_afresh(self):
        # an odd number of 32-bit draws leaves half a 64-bit output buffered;
        # the next trial's stream must not start with it
        for rng, ref in zip(trial_streams(9, 6), reference_streams(9, 6)):
            assert rng.integers(3, 11) == ref.integers(3, 11)
            assert rng.random() == ref.random()
            assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("fallback", [False, True])
    def test_falsify_as_with_default_rng(self, monkeypatch, fallback):
        # 60 trials have two builder slots; with the builder failing, each
        # slot falls back to a walk drawn from its trial's stream
        if fallback:
            monkeypatch.setattr(verifier, "_builder_curve", lambda *args: None)
        batched = [row for block in verifier._trial_blocks(SQUARE, 3, 60, 7) for row in block]
        assert ("builder" in [kind for _, kind, _ in batched]) != fallback
        evidence = falsify(SQUARE, 3, 60, 7).evidence
        monkeypatch.setattr(verifier, "trial_streams", reference_streams)
        assert batched == [row for block in verifier._trial_blocks(SQUARE, 3, 60, 7) for row in block]
        assert falsify(SQUARE, 3, 60, 7).evidence == evidence

    @pytest.mark.parametrize("seed", [505, 2**70])
    def test_falsify_calls_no_default_rng(self, monkeypatch, seed):
        expected = falsify(SQUARE, 3, 40, seed).evidence

        def refuse(*args, **kwargs):
            raise AssertionError("default_rng called")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        assert falsify(SQUARE, 3, 40, seed).evidence == expected


# ---------------------------------------------------------------------------
# array-drawn walks
# ---------------------------------------------------------------------------

# a triangle inside one grid cell: every point snaps to the origin, so a
# walk's second vertex is redrawn until the walk is refused
WALK_BODIES = BODIES[:3] + [ConvexPolygon((Point(0, 0), Point("1e-12", 0), Point(0, "1e-12")))]


def walked(make, seed, body, n, closed):
    """The walk's grid, or the error's message, and the
    generator's state after it."""
    rng = np.random.default_rng(seed)
    try:
        walk = make(rng, body, n, closed)
        out = (walk.grid, walk.closed)
    except DegeneracyError as exc:
        out = str(exc)
    return out, rng.bit_generator.state


class TestWalk:
    @settings(max_examples=500, deadline=None)
    @given(
        body=st.sampled_from(range(len(WALK_BODIES))),
        n=st.integers(3, 80),
        closed=st.booleans(),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_matches_the_scalar_walk(self, body, n, closed, seed):
        walk = walked(random_walk_polyline, seed, WALK_BODIES[body], n, closed)
        assert walk == walked(reference_walk_polyline, seed, WALK_BODIES[body], n, closed)

    def test_redraws_on_a_body_three_grid_steps_wide(self):
        redraws = []
        for seed in range(40):
            for closed in (False, True):
                walk = walked(random_walk_polyline, seed, BODIES[2], 3, closed)
                assert walk == walked(
                    lambda *args: reference_walk_polyline(*args, redraws=redraws),
                    seed, BODIES[2], 3, closed,
                )
        assert {"repeat", "first"} <= set(redraws)

    def test_the_same_degeneracy_error(self):
        for n in (1, 2, 70):
            walk = walked(random_walk_polyline, n, WALK_BODIES[3], n, False)
            assert walk[0] == "could not draw a new walk vertex on the 1e-9 grid"
            assert walk == walked(reference_walk_polyline, n, WALK_BODIES[3], n, False)


# ---------------------------------------------------------------------------
# count-only replays
# ---------------------------------------------------------------------------


def _crossing(p, q, a, b):
    """The exact crossing point of the lines pq and ab, or None if parallel."""
    d = (q.x - p.x) * (b.y - a.y) - (q.y - p.y) * (b.x - a.x)
    if d == 0:
        return None
    t = ((a.x - p.x) * (b.y - a.y) - (a.y - p.y) * (b.x - a.x)) / d
    return Point(p.x + t * (q.x - p.x), p.y + t * (q.y - p.y))


@st.composite
def curves(draw):
    """Walks on a 5 x 5 lattice, open or closed, and star rings."""
    if draw(st.booleans()):
        return random_star_ring(draw(st.integers(0, 10**6)), SQUARE, draw(st.integers(4, 12)))
    raw = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=2, max_size=12))
    verts = [p for i, p in enumerate(raw) if i == 0 or p != raw[i - 1]]
    assume(len(verts) >= 2)
    closed = draw(st.booleans()) and len(verts) >= 3 and verts[0] != verts[-1]
    return Polyline(tuple(Point(x, y) for x, y in verts), closed)


@st.composite
def curves_and_lines(draw):
    """A curve and a line through two of its vertices, along one of its
    edges, or through the crossing of two of its edges' lines and a
    vertex."""
    poly = draw(curves())
    verts = poly.vertices
    pick = st.integers(0, len(verts) - 1)
    edge = st.integers(0, len(verts) - 2).map(lambda i: (verts[i], verts[i + 1]))
    how = draw(st.sampled_from(["vertices", "edge", "crossing"]))
    if how == "vertices":
        p, q = verts[draw(pick)], verts[draw(pick)]
    elif how == "edge":
        p, q = draw(edge)
    else:
        p = _crossing(*draw(edge), *draw(edge))
        assume(p is not None)
        q = verts[draw(pick)]
    assume(p != q)
    return poly, Line.from_points(p, q)


class TestCountOnly:
    @settings(max_examples=400, deadline=None)
    @given(curves_and_lines(), st.integers(1, 7))
    def test_count_equals_line_multiplicity(self, case, multiple):
        poly, line = case
        coefs = _integer_line((line.nx, line.ny, line.c), poly.grid[0])
        expected = line_multiplicity(line, poly).count
        assert _grid_count(poly, coefs) == expected
        assert _grid_count(poly, tuple(multiple * c for c in coefs)) == expected


# ---------------------------------------------------------------------------
# the gap-line count
# ---------------------------------------------------------------------------


@st.composite
def curves_and_gap_lines(draw):
    """A curve of one of falsify's batches and a line 2a·X + 2b·Y = t with
    t odd, which passes through no grid point, one unit beside a vertex."""
    seed = draw(st.integers(0, 10**6))
    batch = [curve for block in verifier._trial_blocks(SQUARE, 3, 8, seed) for _, _, curve in block]
    poly = draw(st.sampled_from(batch))
    a, b = draw(st.one_of(st.sampled_from(_WITNESS_NORMALS), st.tuples(st.integers(-9, 9), st.integers(-9, 9))))
    assume((a, b) != (0, 0))
    _, xs, ys = poly.grid
    k = draw(st.integers(0, len(xs) - 1))
    t = 2 * a * xs[k] + 2 * b * ys[k] + draw(st.sampled_from([-1, 1]))
    return poly, (2 * a, 2 * b, t)


class TestGapCount:
    @settings(max_examples=400, deadline=None)
    @given(curves_and_gap_lines())
    def test_equals_the_merged_count(self, case):
        poly, coefs = case
        assert _gap_count(poly, coefs) == _grid_count(poly, coefs)

    def test_crossings_at_one_point(self):
        # the bow-tie's two diagonals cross X = 1 at its crossing (1, 1)
        bow = Polyline((Point(0, 0), Point(2, 2), Point(2, 0), Point(0, 2)))
        assert _gap_count(bow, (1, 0, 1)) == _grid_count(bow, (1, 0, 1)) == 1
        assert _gap_count(bow, (2, 0, 3)) == 2
        # there and back: every crossing coincides with another
        out = [Point(0, 0), Point(3, 1), Point(1, 4), Point(5, 2)]
        back = Polyline(tuple(out + out[-2::-1]))
        for coefs in ((2, 0, 3), (0, 2, 5), (2, 2, 9), (2, -2, 1)):
            assert _gap_count(back, coefs) == _grid_count(back, coefs) > 0
        # six edges cross X = 3/2, at three points
        assert _gap_count(back, (2, 0, 3)) == 3

    def test_places_that_share_a_float(self):
        # near Y = 2^60 the line X = 1/2 crosses the two edges at places
        # -2Y and -2Y - 3/2 along it, distinct rationals with one float
        y = 2**60
        poly = Polyline.from_grid(1, [0, 2, 0], [y, y, y + 1])
        assert -2 * y / 1 == (-4 * y - 3) / 2
        assert _gap_count(poly, (2, 0, 1)) == _grid_count(poly, (2, 0, 1)) == 2

    def test_places_beyond_float_range(self, monkeypatch):
        # grid ints near 2^1100 (denominator 2^600): the oracle's crossing
        # places lie beyond double range, so they are keyed by exact floors
        poly = Polyline((
            Point(0, 0), Point(Fraction(1, 2**600), 2**499), Point(2**499, 0),
            Point(1, Fraction(3, 2**600) + 2**498), Point(2**499, 2**499),
        ))
        replayed = []

        def recording(poly, coefs):
            replayed.append(coefs)
            return _gap_count(poly, coefs)

        monkeypatch.setattr(stabbing, "_gap_count", recording)
        assert random_line_oracle(poly, 100, 1).count == 4 == max_line_multiplicity(poly).count
        assert replayed
        for coefs in replayed:
            assert _gap_count(poly, coefs) == _grid_count(poly, coefs)

    def test_the_witness_screen_merges_no_pieces(self, monkeypatch):
        curves = [curve for block in verifier._trial_blocks(SQUARE, 3, 40, 508) for _, _, curve in block]
        curves = [curve for curve in curves if len(curve) > 3]
        expected = stabbing._witness_screen(curves, 3)
        assert sum(expected) > 10

        def refuse(*args):
            raise AssertionError("_merged_pieces called")

        monkeypatch.setattr(stabbing, "_merged_pieces", refuse)
        assert stabbing._witness_screen(curves, 3) == expected


# ---------------------------------------------------------------------------
# the segment bound and the witness screen
# ---------------------------------------------------------------------------


def test_curves_of_at_most_r_segments_reach_no_sweep(monkeypatch):
    swept, screened = [], []

    class Recording(stabbing._Sweep):
        def __init__(self, polys):
            swept.extend(polys)
            super().__init__(polys)

    screen = stabbing._witness_screen

    def recording(polys, r):
        marked = screen(polys, r)
        screened.extend(zip(polys, marked))
        return marked

    monkeypatch.setattr(stabbing, "_Sweep", Recording)
    monkeypatch.setattr(stabbing, "_witness_screen", recording)
    rng = np.random.default_rng(5)
    r = 3
    short = [random_walk_polyline(rng, SQUARE, k) for k in (1, 2, 3, 3)]
    short.append(Polyline((Point(0, 0), Point(1, 0), Point(0, 1)), closed=True))
    long = [random_walk_polyline(rng, SQUARE, k) for k in (4, 6, 9)]
    long += [random_star_ring(rng, SQUARE, 8), Polyline(SQUARE.ring, closed=True)]

    assert stabbing._exceeds(short, r) == [False] * len(short)
    assert swept == [] and screened == []
    curves = short + long
    over = stabbing._exceeds(curves, r)
    # the long curves are screened, and those the screen does not decide
    # are swept
    assert sorted(id(poly) for poly, _ in screened) == sorted(map(id, long))
    undecided = [poly for poly, marked in screened if not marked]
    assert sorted(map(id, swept)) == sorted(map(id, undecided))
    assert 0 < len(undecided) < len(long)
    assert over == [max_line_multiplicity(poly).count > r for poly in curves]
    assert any(over)
