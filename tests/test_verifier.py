import hashlib
import math

import numpy as np
import pytest

from konvex import geometry, stabbing, verifier
from konvex.builder import ConstructionParams, build_curve
from konvex.cli import main
from konvex.formats import serialize_polygon, serialize_polyline
from konvex.errors import DegeneracyError, NotSimpleError, PreconditionError
from konvex.geometry import (
    ConvexPolygon,
    Point,
    Polyline,
    diameter,
    perimeter,
    polyline_length,
)
from konvex.random_shapes import random_convex_polygon, random_star_ring, random_walk_polyline
from konvex.stabbing import find_stabbing_line, max_line_multiplicity, random_line_oracle
from konvex.verifier import (
    BoundReport,
    check_upper_bound,
    falsify,
    prop1_check,
    s_bound,
)

SQUARE = ConvexPolygon((Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)))


class TestSBound:
    def test_square_r2(self):
        assert s_bound(SQUARE, 2) == pytest.approx(4.0, abs=1e-12)

    def test_square_r3(self):
        assert s_bound(SQUARE, 3) == pytest.approx(4 + math.sqrt(2), rel=1e-12)

    def test_square_r5(self):
        assert s_bound(SQUARE, 5) == pytest.approx(8 + math.sqrt(2), rel=1e-12)

    def test_rejects_r_below_2(self):
        for r in (1, 0, -3):
            with pytest.raises(PreconditionError):
                s_bound(SQUARE, r)

    @pytest.mark.parametrize("seed", range(20))
    def test_step_by_two_adds_perimeter(self, seed):
        body = random_convex_polygon(seed, n_vertices=5 + seed)
        p = perimeter(body)
        for r in (2, 3, 4, 5):
            assert s_bound(body, r + 2) == pytest.approx(s_bound(body, r) + p, rel=1e-12)

    @pytest.mark.parametrize("seed", range(20))
    def test_odd_below_next_even_since_d_le_half_p(self, seed):
        body = random_convex_polygon(seed + 500, n_vertices=4 + seed % 30)
        d, _, _ = diameter(body)
        assert d <= perimeter(body) / 2 + 1e-12
        assert s_bound(body, 3) <= s_bound(body, 4) + 1e-12


class TestBoundReport:
    def test_recomputes_threshold(self):
        with pytest.raises(PreconditionError):
            BoundReport(2, 4.0, math.sqrt(2), 999.0, "upper_checked", {})


class TestCheckUpperBound:
    def test_lengthy_instance_is_stabbed(self):
        poly = Polyline(
            (
                Point(0, 0),
                Point(1, 0),
                Point(1, 1),
                Point(0, 1),
                Point(0, 0),
                Point("0.1", "0.05"),
            )
        )
        report = check_upper_bound(poly, SQUARE, 2)
        assert report.evidence["status"] == "stabbed"
        assert report.evidence["report"].count >= 3

    def test_exact_bound_is_within(self):
        report = check_upper_bound(SQUARE.as_polyline(), SQUARE, 2)
        assert report.evidence["status"] == "within_bound"

    def test_builder_output_round_trips_within_bound(self):
        for r in (2, 3):
            result = build_curve(
                SQUARE, ConstructionParams(r=r, eps=0.05 * s_bound(SQUARE, r), m=96, seed=5)
            )
            report = check_upper_bound(result.curve, SQUARE, r)
            assert report.evidence["status"] == "within_bound"

    def test_rejects_escaping_polyline(self):
        with pytest.raises(PreconditionError):
            check_upper_bound(Polyline((Point(0, 0), Point(9, 9))), SQUARE, 2)

    @pytest.mark.parametrize("status", ["stabbed", "within_bound"])
    def test_scans_containment_once(self, monkeypatch, status):
        tail = (Point("0.1", "0.05"),) if status == "stabbed" else ()
        poly = Polyline(SQUARE.ring + (Point(0, 0),) + tail)
        calls = []
        exact = geometry._classify

        # one classification of a scaled ring's last point per vertex scanned
        def counting(xs, ys):
            calls.append((xs[-1], ys[-1]))
            return exact(xs, ys)

        monkeypatch.setattr(geometry, "_classify", counting)
        report = check_upper_bound(poly, SQUARE, 2)
        assert report.evidence["status"] == status
        assert len(calls) == len(poly.vertices)


class TestCalipersRunOnce:
    """A body computes its diameter once, on first use, and a stabbing line
    at even r needs none."""

    @pytest.mark.parametrize(
        "call, runs",
        [
            (lambda body: check_upper_bound(random_walk_polyline(3, body, 30), body, 3), 1),
            (lambda body: build_curve(body, ConstructionParams(r=3, eps=0.3, m=96, seed=7)), 1),
            (lambda body: falsify(body, 3, trials=60, seed=508), 1),
            (lambda body: find_stabbing_line(random_walk_polyline(3, body, 30), 2, body), 0),
        ],
        ids=["check_upper_bound-r3", "build_curve-r3", "falsify-r3", "find_stabbing_line-r2"],
    )
    def test_calipers_runs_per_call(self, monkeypatch, call, runs):
        calls = []
        calipers = geometry._antipodal_pairs

        def counting(ring):
            calls.append(ring)
            return calipers(ring)

        monkeypatch.setattr(geometry, "_antipodal_pairs", counting)
        call(ConvexPolygon((Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1))))
        assert len(calls) == runs


class TestFalsify:
    def test_small_run_has_no_violations(self):
        report = falsify(SQUARE, 2, trials=120, seed=4)
        ev = report.evidence
        assert ev["violations"] == []
        assert 0 < ev["max_ratio"] <= 1.0
        assert ev["qualifying"] >= 1
        assert set(ev["generators"]) >= {"walk", "star", "smooth_loop"}

    def test_deterministic_for_fixed_seed(self):
        a = falsify(SQUARE, 2, trials=40, seed=9)
        b = falsify(SQUARE, 2, trials=40, seed=9)
        assert a.evidence["max_ratio"] == b.evidence["max_ratio"]

    def test_rejects_zero_trials(self):
        with pytest.raises(PreconditionError):
            falsify(SQUARE, 2, trials=0, seed=1)

    def test_rejects_negative_seeds(self):
        ring = Polyline(SQUARE.ring, closed=True)
        for call in (
            lambda: falsify(SQUARE, 2, trials=5, seed=-1),
            lambda: ConstructionParams(r=3, eps=0.1, seed=-1),
            lambda: random_line_oracle(ring, 10, -1),
        ):
            with pytest.raises(PreconditionError, match="seed must be non-negative"):
                call()

    def test_closed_walk_needs_three_segments(self):
        # a closed walk has n_segments vertices
        with pytest.raises(PreconditionError, match="at least 3 segments"):
            random_walk_polyline(0, SQUARE, n_segments=2, closed=True)
        assert len(random_walk_polyline(0, SQUARE, n_segments=3, closed=True)) == 3

    def test_closed_walk_redraws_its_last_vertex(self):
        # a triangle holding ten grid points: the ring's last vertex often
        # snaps onto its first and must be redrawn, not refused
        tiny = ConvexPolygon((Point(0, 0), Point("3e-9", 0), Point(0, "3e-9")))
        for seed in range(2000):
            try:
                ring = random_walk_polyline(seed, tiny, n_segments=3, closed=True)
            except DegeneracyError:
                continue
            assert ring.closed and len(ring) == 3
            assert len(set(ring.vertices)) == 3


def per_trial_evidence(blocks, r: int, threshold: float, length) -> dict:
    """falsify's evidence from one exact maximum per trial curve."""
    ev = {"qualifying": 0, "max_ratio": 0.0, "violations": [], "generators": {}}
    for block in blocks:
        for t, kind, curve in block:
            ev["generators"][kind] = ev["generators"].get(kind, 0) + 1
            count = max_line_multiplicity(curve).count
            if count > r:
                continue
            ev["qualifying"] += 1
            ratio = length(curve) / threshold
            ev["max_ratio"] = max(ev["max_ratio"], ratio)
            if ratio > 1.0:
                ev["violations"].append(
                    {"trial": t, "generator": kind, "ratio": ratio, "count": count}
                )
    return ev


class TestFalsifyDecision:
    """The batched sweep's decisions against an exact maximum per curve, on
    60 trials, which include the two builder curves."""

    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    def test_evidence_matches_a_per_trial_maximum(self, monkeypatch, r):
        blocks = list(verifier._trial_blocks(SQUARE, r, 60, 40 + r))
        assert "builder" in [kind for block in blocks for _, kind, _ in block]
        monkeypatch.setattr(verifier, "_trial_blocks", lambda *args: iter(blocks))
        ev = falsify(SQUARE, r, trials=60, seed=40 + r).evidence
        expected = per_trial_evidence(blocks, r, s_bound(SQUARE, r), geometry.polyline_length)
        assert {key: ev[key] for key in expected} == expected
        assert list(ev["generators"]) == list(expected["generators"])

    def test_violation_records_carry_the_exact_maximum(self, monkeypatch):
        # lengths inflated tenfold turn every qualifying curve into a violation
        blocks = list(verifier._trial_blocks(SQUARE, 3, 40, 11))
        monkeypatch.setattr(verifier, "_trial_blocks", lambda *args: iter(blocks))
        monkeypatch.setattr(verifier, "polyline_length", lambda c: 10 * geometry.polyline_length(c))
        ev = falsify(SQUARE, 3, trials=40, seed=11).evidence
        expected = per_trial_evidence(blocks, 3, s_bound(SQUARE, 3), verifier.polyline_length)
        assert ev["violations"] and ev["violations"] == expected["violations"]
        assert ev["qualifying"] == expected["qualifying"] == len(ev["violations"])


class TestPinnedFalsify:
    """sha256 of `konvex falsify <unit square> r --json`: the benchmark's
    first seed at r = 3 and r = 5, and a run with builder curves."""

    @pytest.mark.parametrize(
        "r, trials, seed, digest",
        [
            (3, 40, 508, "0f76cb1b56562d31179ed7dfa3ece71427f49f4f754e5c49e0fe1aaa633c24b9"),
            (5, 40, 510, "19627584d4d9a0b7281cce93800f18e084a32d334d9bb802c7d967338ec324cf"),
            (3, 60, 508, "e928cdb6bdf092136300df5e7a1315b6157e1b0a2033c49c65821527f514e51c"),
        ],
    )
    def test_json_bytes(self, tmp_path, capsys, r, trials, seed, digest):
        square = tmp_path / "square.txt"
        square.write_text("0 0\n1 0\n1 1\n0 1\n")
        argv = ["falsify", str(square), str(r), "--trials", str(trials), "--seed", str(seed)]
        assert main(argv + ["--json"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def over_long_walk(body: ConvexPolygon, r: int, tag: list[int]) -> Polyline:
    """The first walk of seeds [404, r, trial] + tag longer than s(body, r),
    as the benchmark's stab workload draws them."""
    threshold = s_bound(body, r)
    for trial in range(1, 1000):
        walk = random_walk_polyline(
            np.random.default_rng([404, r, trial] + tag), body, n_segments=18 + 6 * r
        )
        if polyline_length(walk) > threshold:
            return walk
    raise AssertionError("no over-long walk in 1000 trials")


class TestPinnedVerify:
    """sha256 of `konvex verify <walk> <body> r --json` on the stab
    workload's first walk per case: the witness line's exact coefficients
    and the components' float bytes."""

    @pytest.mark.parametrize(
        "body_name, r, digest",
        [
            ("square", 2, "3ba4368c13f9063fa1a3730caba6234bcfae7f6961872d51dff992f056c5943b"),
            ("square", 3, "25590b8f8f8c6b33ea4412ebc547ca257cec42760598b1a4dbb9b452fcffc6a2"),
            ("square", 4, "d4b904e8c164ef5cb47443bf7c692e8a34f25e46e63f52678a7a255125ad7d33"),
            ("gon40", 3, "9c8f07e18450ef0ce94be9289cd38a7401d6d71da8da2d570284aaa02c351952"),
        ],
    )
    def test_json_bytes(self, tmp_path, capsys, body_name, r, digest):
        if body_name == "square":
            body, tag = SQUARE, []
        else:
            body, tag = random_convex_polygon(np.random.default_rng(40), 40), [40]
        body_path, walk_path = tmp_path / "body.txt", tmp_path / "walk.txt"
        body_path.write_text(serialize_polygon(body))
        walk_path.write_text(serialize_polyline(over_long_walk(body, r, tag)))
        assert main(["verify", str(walk_path), str(body_path), str(r), "--json"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


class TestProp1:
    def test_square_ring(self):
        res = prop1_check(SQUARE.as_polyline())
        assert res.convex and res.max_mult == 2 and res.consistent

    def test_triangle(self):
        tri = ConvexPolygon((Point(0, 0), Point(1, 0), Point(0, 1)))
        res = prop1_check(tri.as_polyline())
        assert res.convex and res.max_mult == 2 and res.consistent

    def test_l_shaped_hexagon(self):
        ring = Polyline(
            (Point(0, 0), Point(2, 0), Point(2, 1), Point(1, 1), Point(1, 2), Point(0, 2)),
            closed=True,
        )
        res = prop1_check(ring)
        assert not res.convex
        assert res.max_mult >= 4
        assert res.consistent

    def test_spiky_star_rings(self):
        for seed in range(10):
            ring = random_star_ring(seed, SQUARE, n_vertices=9)
            res = prop1_check(ring)
            assert not res.convex
            assert res.max_mult >= 4
            assert res.consistent

    def test_rejects_open_polyline(self):
        with pytest.raises(PreconditionError):
            prop1_check(Polyline((Point(0, 0), Point(1, 0))))

    def test_rejects_self_intersecting_ring(self):
        bowtie = Polyline(
            (Point(0, 0), Point(1, 1), Point(1, 0), Point(0, 1)), closed=True
        )
        with pytest.raises(NotSimpleError):
            prop1_check(bowtie)

    def test_rejects_spur(self):
        spur = Polyline(
            (Point(0, 0), Point(2, 0), Point(1, 0), Point(1, 1)), closed=True
        )
        with pytest.raises(NotSimpleError):
            prop1_check(spur)


class TestVertexBudget:
    """Curves of more than `stabbing._VERTEX_BUDGET` vertices are refused
    before any quadratic work: the sweep is patched to fail, and the
    simplicity scan would fail fast on the bow-tie each curve starts with."""

    @staticmethod
    def curve(n: int, closed: bool) -> Polyline:
        # a bow-tie (segments 0 and 2 cross), then a row of distinct points
        xs = [0, 2, 2, 0] + [10 + k for k in range(n - 4)]
        ys = [0, 2, 0, 2] + [5] * (n - 4)
        return Polyline.from_grid(1, xs, ys, closed=closed)

    @pytest.fixture(autouse=True)
    def no_sweep(self, monkeypatch):
        def refuse(polys):
            raise AssertionError("swept")

        monkeypatch.setattr(stabbing, "_Sweep", refuse)

    def test_sweep(self):
        budget = stabbing._VERTEX_BUDGET
        for closed in (False, True):
            with pytest.raises(PreconditionError, match="vertices are refused"):
                max_line_multiplicity(self.curve(budget + 1, closed))
        with pytest.raises(AssertionError, match="swept"):
            max_line_multiplicity(self.curve(budget, False))

    def test_simplicity_scan(self):
        budget = stabbing._VERTEX_BUDGET
        with pytest.raises(PreconditionError, match="vertices are refused"):
            prop1_check(self.curve(budget + 1, True))
        with pytest.raises(NotSimpleError):
            prop1_check(self.curve(budget, True))

    def test_analyze_exits_1(self, tmp_path, capsys):
        path = tmp_path / "long.txt"
        path.write_text(serialize_polyline(self.curve(stabbing._VERTEX_BUDGET + 1, False)))
        assert main(["analyze", str(path)]) == 1
        assert "vertices are refused" in capsys.readouterr().err
