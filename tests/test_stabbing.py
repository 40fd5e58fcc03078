import math
from fractions import Fraction

import numpy as np
import pytest

from konvex import stabbing
from konvex.errors import PreconditionError, VerificationError
from konvex.geometry import (
    ConvexPolygon,
    Line,
    Point,
    Polyline,
    polyline_length,
    s_bound,
    width,
)
from konvex.projections import (
    chord_term,
    projection_length,
    projection_length_samples,
    width_samples,
)
from konvex.random_shapes import (
    random_convex_polygon,
    random_star_ring,
    random_walk_polyline,
    snap_point,
)
from konvex.stabbing import (
    find_stabbing_line,
    line_multiplicity,
    max_line_multiplicity,
    projection_witness,
    proper_crossings,
    random_line_oracle,
)

from fraction_oracle import line_from_direction_offset, rigid_motion, side_of

SQUARE = ConvexPolygon((Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)))


def lengthy_instance() -> Polyline:
    # square ring plus a short tail: length 4.1118 > s(square, 2) = 4
    return Polyline(
        (
            Point(0, 0),
            Point(1, 0),
            Point(1, 1),
            Point(0, 1),
            Point(0, 0),
            Point("0.1", "0.05"),
        )
    )


def half_retraced_loop(n_vertices: int) -> Polyline:
    """A spiky star loop traversed once, then again along its first half.
    The retraced edges overlap, so every screen score counts them twice
    while any line meets them in one component."""
    ring = random_star_ring(np.random.default_rng(0), SQUARE, n_vertices=n_vertices)
    v = list(ring.vertices)
    return Polyline(tuple(v + v[:1] + v[1 : n_vertices // 2 + 1]))


REGULAR_40GON = ConvexPolygon(
    tuple(
        snap_point(math.cos(2 * math.pi * k / 40), math.sin(2 * math.pi * k / 40))
        for k in range(40)
    )
)
WITNESS_BODIES = [
    SQUARE,
    random_convex_polygon(np.random.default_rng(40), 40),
    random_convex_polygon(7, n_vertices=9),
]


def witness_margins(poly, r, body, alphas):
    """projection_witness's margin at each angle, by direct evaluation: the
    projected length less r widths (r - 1 at odd r), less the endpoint
    chord's projection for an open curve at odd r."""
    margins = projection_length_samples(poly, alphas) - (r - r % 2) * width_samples(body, alphas)
    if r % 2 and not poly.closed:
        chord = chord_term(poly)
        margins -= chord.l0 * np.abs(np.cos(alphas - chord.alpha0))
    return margins


@pytest.fixture
def replays(monkeypatch):
    """Counts of every exact replay of a sweep candidate (`_Sweep.replay`)."""
    calls = []
    exact = stabbing._Sweep.replay

    def counting(self, rows, scores, rep, flat):
        found = exact(self, rows, scores, rep, flat)
        calls.append(found[0])
        return found

    monkeypatch.setattr(stabbing._Sweep, "replay", counting)
    return calls


@pytest.fixture
def gap_replays(monkeypatch):
    """Integer lines (a, b, c) of every exact replay made through
    stabbing._gap_count."""
    calls = []
    exact = stabbing._gap_count

    def counting(poly, coefs):
        calls.append(coefs)
        return exact(poly, coefs)

    monkeypatch.setattr(stabbing, "_gap_count", counting)
    return calls


class TestLineMultiplicity:
    def test_whole_segment_is_one_component(self):
        seg = Polyline((Point(0, 0), Point(1, 0)))
        rep = line_multiplicity(Line(0, 1, 0), seg)
        assert rep.count == 1
        assert rep.components[0].kind == "span"

    def test_zigzag_three_crossings(self):
        zig = Polyline((Point(0, 0), Point(1, 1), Point(2, 0), Point(3, 1)))
        assert line_multiplicity(Line(0, 1, "0.5"), zig).count == 3

    def test_square_ring_two_crossings(self):
        assert line_multiplicity(Line(1, 0, "0.5"), SQUARE.as_polyline()).count == 2

    def test_vertex_pass_through_counts_once(self):
        tent = Polyline((Point(-1, -1), Point(0, 0), Point(1, -1)))
        assert line_multiplicity(Line(0, 1, 0), tent).count == 1

    def test_line_through_collinear_run_merges(self):
        poly = Polyline((Point(0, 0), Point(1, 0), Point(2, 0), Point(2, 1)))
        rep = line_multiplicity(Line(0, 1, 0), poly)
        assert rep.count == 1
        # both collinear segments belong to the single component (the third
        # touches it at its endpoint)
        assert {0, 1} <= set(rep.components[0].segments)

    def test_coincident_crossings_merge(self):
        # X-shaped polyline: both diagonals cross y=0 at the origin
        poly = Polyline((Point(-1, -1), Point(1, 1), Point(-1, 1), Point(1, -1)))
        rep = line_multiplicity(Line(0, 1, 0), poly)
        assert rep.count == 1

    def test_supporting_line_of_edge(self):
        rep = line_multiplicity(Line(0, 1, 0), SQUARE.as_polyline())
        assert rep.count == 1  # the whole bottom edge, one component

    def test_replay_reproduces_count(self):
        for seed in range(10):
            poly = random_walk_polyline(seed, SQUARE, n_segments=9)
            rep = max_line_multiplicity(poly)
            assert line_multiplicity(rep.witness, poly).count == rep.count


class TestMaxLineMultiplicity:
    def test_square_ring(self):
        assert max_line_multiplicity(SQUARE.as_polyline()).count == 2

    def test_zigzag(self):
        zig = Polyline((Point(0, 0), Point(1, 1), Point(2, 0), Point(3, 1), Point(4, 0)))
        assert max_line_multiplicity(zig).count == 4

    def test_single_segment(self):
        assert max_line_multiplicity(Polyline((Point(0, 0), Point(1, 1)))).count == 1

    def test_collinear_chain_counts_one(self):
        poly = Polyline((Point(0, 0), Point(1, 0), Point(2, 0), Point(3, 0)))
        assert max_line_multiplicity(poly).count == 1

    @pytest.mark.parametrize("seed", range(15))
    def test_dominates_random_oracle(self, seed):
        poly = random_walk_polyline(seed + 100, SQUARE, n_segments=12)
        enum = max_line_multiplicity(poly)
        oracle = random_line_oracle(poly, trials=3000, seed=seed)
        assert enum.count >= oracle.count

    def test_oracle_deterministic(self):
        poly = random_walk_polyline(5, SQUARE, n_segments=10)
        a = random_line_oracle(poly, trials=500, seed=42)
        b = random_line_oracle(poly, trials=500, seed=42)
        assert a.count == b.count
        assert a.witness == b.witness

    def test_oracle_count_and_witness_pinned(self, gap_replays):
        # the top screen counts over-count on this curve, so many gap lines
        # are replayed and the replay order (descending count, then bucket
        # and gap) decides the witness: 2a·x + 2b·y = (p + q)/D for the
        # normal (a, b) = (-2087, 3525); reading every gap of the drawn
        # normals finds the sweep's maximum
        poly = half_retraced_loop(16)
        rep = random_line_oracle(poly, trials=1000, seed=1)
        assert len(gap_replays) > 100
        assert rep.count == 10 == max_line_multiplicity(poly).count
        assert rep.method == "oracle"
        assert (rep.witness.nx, rep.witness.ny, rep.witness.c) == (
            -4174, 7050, Fraction(20686205567, 31250000)
        )

    def test_oracle_multi_slice_replays_pinned(self, gap_replays):
        # 49 vertices take 1337 normals per table slice, so the 2048 normals
        # of 1e5 trials take two slices; the count, the witness and the
        # number of exact replays pin the replay order across slices
        poly = half_retraced_loop(32)
        assert len(poly) == 49 and stabbing._TABLE_ENTRIES // 49 < 2048
        rep = random_line_oracle(poly, trials=100_000, seed=1)
        assert len(gap_replays) == 16979
        assert rep.count == 14
        assert (rep.witness.nx, rep.witness.ny, rep.witness.c) == (
            -2908, 7658, Fraction(3525212394477, 1000000000)
        )

    def test_oracle_rejects_zero_trials(self):
        with pytest.raises(PreconditionError):
            random_line_oracle(SQUARE.as_polyline(), trials=0, seed=1)

    def test_rigid_motion_invariance(self):
        c, s = Fraction(3, 5), Fraction(4, 5)
        shift = (Fraction(7, 4), Fraction(-2, 3))
        for seed in range(5):
            poly = random_walk_polyline(seed + 50, SQUARE, n_segments=8)
            rep = max_line_multiplicity(poly)
            moved = Polyline(
                tuple(rigid_motion(v, c, s, shift) for v in poly.vertices), poly.closed
            )
            # transform the witness line the same way: n' . (R x + t) = c + n' . t
            nx = c * rep.witness.nx - s * rep.witness.ny
            ny = s * rep.witness.nx + c * rep.witness.ny
            cc = rep.witness.c + nx * shift[0] + ny * shift[1]
            moved_line = Line(nx, ny, cc)
            assert line_multiplicity(moved_line, moved).count == rep.count
            assert max_line_multiplicity(moved).count == rep.count


class TestProperCrossings:
    def test_even_for_closed_ring(self):
        line = Line.from_points(Point("0.5", "-3"), Point("0.51", 7))
        assert proper_crossings(line, SQUARE.as_polyline()) == 2

    def test_rejects_vertex_on_line(self):
        with pytest.raises(PreconditionError):
            proper_crossings(Line(0, 1, 0), SQUARE.as_polyline())

    @pytest.mark.parametrize("seed", range(40))
    def test_parity_when_line_misses_chord_and_vertices(self, seed):
        import numpy as np

        rng = np.random.default_rng(seed)
        poly = random_walk_polyline(rng, SQUARE, n_segments=int(rng.integers(4, 16)))
        first, last = poly.vertices[0], poly.vertices[-1]
        found = 0
        while found < 3:
            theta = rng.uniform(0, math.pi)
            offset = rng.uniform(-0.2, 1.2)
            line = line_from_direction_offset(theta, offset)
            sides = [side_of(line, v) for v in poly.vertices]
            if 0 in sides:
                continue
            if side_of(line, first) != side_of(line, last):
                continue  # line meets the endpoint chord
            assert proper_crossings(line, poly) % 2 == 0
            found += 1


class TestProjectionWitness:
    def test_square_ring_at_exact_bound_has_no_witness(self):
        assert projection_witness(SQUARE.as_polyline(), 2, SQUARE) is None

    def test_even_witness_on_lengthy_instance(self):
        poly = lengthy_instance()
        alpha = projection_witness(poly, 2, SQUARE)
        assert alpha is not None
        assert projection_length(poly, alpha) > 2 * width(SQUARE, alpha)

    def test_odd_witness_on_long_walk(self):
        # any contained polyline longer than s(square, 3) admits an odd witness
        poly = None
        for seed in range(20):
            cand = random_walk_polyline(seed, SQUARE, n_segments=30)
            if polyline_length(cand) > 4 + math.sqrt(2) + 0.5:
                poly = cand
                break
        assert poly is not None
        alpha = projection_witness(poly, 3, SQUARE)
        assert alpha is not None
        ct = chord_term(poly)
        lhs = projection_length(poly, alpha)
        rhs = 2 * width(SQUARE, alpha) + ct.l0 * abs(math.cos(alpha - ct.alpha0))
        assert lhs > rhs

    def test_rejects_r_below_two(self):
        with pytest.raises(PreconditionError):
            projection_witness(SQUARE.as_polyline(), 1, SQUARE)

    def test_rejects_escaping_polyline(self):
        poly = Polyline((Point(0, 0), Point(5, 5)))
        with pytest.raises(PreconditionError):
            projection_witness(poly, 2, SQUARE)

    def test_regular_polygon_ring_at_exact_bound_has_no_witness(self):
        # l = 2k at every angle: the margin is rounding noise below the bound
        assert projection_witness(REGULAR_40GON.as_polyline(), 2, REGULAR_40GON) is None

    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    @pytest.mark.parametrize("body", WITNESS_BODIES, ids=["square", "40gon", "random-9gon"])
    def test_exact_maximum_on_over_long_curves(self, body, r):
        # the margin integrates to at least 4(L - s) > 0 over a full turn, so
        # every curve longer than s has a positive maximum; the closed form
        # must find it and never lose to a 4096-angle grid
        threshold = s_bound(body, r)
        rng = np.random.default_rng([r, len(body)])
        tested = 0
        for trial in range(40):
            if trial % 3 == 2:
                poly = random_star_ring(rng, body, n_vertices=int(rng.integers(6, 40)))
            else:
                poly = random_walk_polyline(rng, body, n_segments=int(rng.integers(10, 50)))
            length = polyline_length(poly)
            if not length > threshold:
                continue
            alpha = projection_witness(poly, r, body)
            assert alpha is not None and 0.0 <= alpha < math.pi
            best = witness_margins(poly, r, body, np.array([alpha]))[0]
            assert best > 0.0
            grid = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
            assert best >= witness_margins(poly, r, body, grid).max() - 1e-12 * (
                length + r * threshold
            )
            tested += 1
        assert tested >= 8


class TestFindStabbingLine:
    def test_lengthy_instance_r2(self):
        poly = lengthy_instance()
        line, rep = find_stabbing_line(poly, 2, SQUARE)
        assert rep.count >= 3
        assert line_multiplicity(line, poly).count == rep.count

    def test_double_ring_r2(self):
        # ring plus a partial shrunken inner ring: length > 4
        inner = [Point("0.2", "0.2"), Point("0.8", "0.2"), Point("0.8", "0.5")]
        poly = Polyline(
            (
                Point(0, 0),
                Point(1, 0),
                Point(1, 1),
                Point(0, 1),
                Point(0, 0),
                *inner,
            )
        )
        assert polyline_length(poly) > 4
        _, rep = find_stabbing_line(poly, 2, SQUARE)
        assert rep.count >= 3

    def test_bound_not_exceeded_is_rejected(self):
        with pytest.raises(PreconditionError, match="bound not exceeded"):
            find_stabbing_line(SQUARE.as_polyline(), 2, SQUARE)

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_generated_instances(self, r):
        threshold = {2: 4.0, 3: 4 + math.sqrt(2), 4: 8.0}[r]
        done = 0
        seed = 0
        while done < 8:
            seed += 1
            rng = np.random.default_rng([r, seed])
            poly = random_walk_polyline(rng, SQUARE, n_segments=34)
            if polyline_length(poly) <= threshold * 1.02:
                continue
            line, rep = find_stabbing_line(poly, r, SQUARE)
            assert rep.count >= r + 1
            assert line_multiplicity(line, poly).count == rep.count
            done += 1

    def test_retraced_diagonal_has_no_stabbing_line(self):
        # length 3·√2 > s(square, 2) = 4, but every line meets it in at most
        # one component
        poly = Polyline((Point(0, 0), Point(1, 1), Point(0, 0), Point(1, 1)))
        assert polyline_length(poly) > 4
        with pytest.raises(VerificationError, match="no line with multiplicity 3"):
            find_stabbing_line(poly, 2, SQUARE)

    def test_stops_at_the_first_line_reaching_r_plus_1(self, replays):
        poly = half_retraced_loop(24)
        r = 4
        assert polyline_length(poly) > 8
        line, rep = find_stabbing_line(poly, r, SQUARE)
        assert len(replays) <= 2
        assert rep.count >= r + 1
        assert rep.method == "rotational_sweep"
        assert rep.witness == line
        replays.clear()
        max_line_multiplicity(poly)
        assert len(replays) > 100
