"""Falsify's trial loop: the scalar star ring against the numpy ring it
replaced, count-only replays against `line_multiplicity`, and the segment
bound and witness screen that decide curves without a sweep."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from konvex import stabbing
from konvex.errors import DegeneracyError
from konvex.geometry import ConvexPolygon, Line, Point, Polyline
from konvex.random_shapes import random_convex_polygon, random_star_ring, random_walk_polyline
from konvex.stabbing import _grid_count, _integer_line, line_multiplicity, max_line_multiplicity

from star_ring_reference import reference_star_ring

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
