"""Acceptance suite: the eight gate criteria, each at its stated tolerance.

Every test prints one PASS line with its measured numbers (run pytest with
-s to see them on success).  Seeds are fixed, so the whole suite is
deterministic.
"""

import math
import time

import numpy as np
import pytest

from konvex.builder import ConstructionParams, build_curve
from konvex.geometry import (
    EXTERIOR,
    ConvexPolygon,
    Point,
    contains,
    diameter,
    perimeter,
    polyline_length,
)
from konvex.projections import cauchy_width_integral, crofton_length
from konvex.random_shapes import (
    random_convex_polygon,
    random_star_ring,
    random_walk_polyline,
)
from konvex.stabbing import (
    find_stabbing_line,
    line_multiplicity,
    proper_crossings,
    random_line_oracle,
)
from konvex.verifier import falsify, prop1_check, s_bound

from fraction_oracle import diameter_bruteforce, line_from_direction_offset, side_of

SQUARE = ConvexPolygon((Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)))


def test_criterion_1_cauchy_identity():
    """100 random convex polygons: quadrature vs 2p within 1e-4*p; closed form exact."""
    start = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        body = random_convex_polygon(rng, int(rng.integers(5, 51)))
        p = perimeter(body)
        closed = cauchy_width_integral(body, "closed_form")
        assert abs(closed - 2.0 * p) <= 1e-12
        quad = cauchy_width_integral(body, "quadrature", panels=100_000)
        err = abs(quad - 2.0 * p) / p
        worst = max(worst, err)
        assert err <= 1e-4
    elapsed = time.time() - start
    assert elapsed < 30.0
    print(f"PASS criterion 1: Cauchy identity, worst rel err {worst:.2e} ({elapsed:.1f}s)")


def test_criterion_2_crofton_identity():
    """100 random polylines: quadrature length within 1e-4 of the exact length."""
    start = time.time()
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(100):
        poly = random_walk_polyline(rng, SQUARE, int(rng.integers(3, 51)))
        length = polyline_length(poly)
        assert crofton_length(poly, "closed_form") == length
        quad = crofton_length(poly, "quadrature", panels=100_000)
        err = abs(quad - length) / length
        worst = max(worst, err)
        assert err <= 1e-4
    elapsed = time.time() - start
    assert elapsed < 30.0
    print(f"PASS criterion 2: Crofton identity, worst rel err {worst:.2e} ({elapsed:.1f}s)")


def test_criterion_3_lower_bound_realized():
    """Extremal curves for r in 2..6 at eps = 0.05 s: long enough, multiplicity
    within budget by the builder's exact certificate, and a 1e5-trial oracle
    that finds the same maximum."""
    start = time.time()
    targets = {2: 4.0, 3: 5.41421, 4: 8.0, 5: 9.41421, 6: 12.0}
    lines = []
    for r in (2, 3, 4, 5, 6):
        s = s_bound(SQUARE, r)
        assert s == pytest.approx(targets[r], abs=5e-6)
        eps = 0.05 * s
        params = ConstructionParams(r=r, eps=eps, m=160 if r >= 5 else 128, seed=1)
        result = build_curve(SQUARE, params)
        assert result.achieved_length >= s - eps
        assert result.multiplicity.count <= r  # exact over all lines (in-builder certificate)
        oracle = random_line_oracle(result.curve, trials=100_000, seed=1000 + r)
        assert oracle.count == result.multiplicity.count
        lines.append(f"r={r}: {result.achieved_length:.4f}>={s - eps:.4f} mult={result.multiplicity.count}")
    elapsed = time.time() - start
    assert elapsed < 120.0
    print(f"PASS criterion 3: lower bound realized [{'; '.join(lines)}] ({elapsed:.1f}s)")


def test_criterion_4_upper_bound_constructive():
    """100 long polylines per r in {2,3,4}: a verified line with >= r+1 components."""
    start = time.time()
    for r in (2, 3, 4):
        threshold = s_bound(SQUARE, r)
        done = 0
        trial = 0
        while done < 100:
            trial += 1
            rng = np.random.default_rng([404, r, trial])
            poly = random_walk_polyline(rng, SQUARE, n_segments=18 + 6 * r)
            if polyline_length(poly) <= threshold:
                continue
            line, report = find_stabbing_line(poly, r, SQUARE)
            assert report.count >= r + 1
            assert line_multiplicity(line, poly).count == report.count
            done += 1
    elapsed = time.time() - start
    assert elapsed < 60.0
    print(f"PASS criterion 4: 300/300 stabbing lines verified at r+1 ({elapsed:.1f}s)")


@pytest.mark.parametrize("r", [2, 3])
def test_criterion_5_falsification(r):
    """1e4 random curves: none with multiplicity <= r exceeds the threshold."""
    start = time.time()
    report = falsify(SQUARE, r, trials=10_000, seed=505 + r)
    ev = report.evidence
    assert ev["violations"] == []
    assert ev["max_ratio"] < 1.0
    elapsed = time.time() - start
    assert elapsed < 300.0
    print(
        f"PASS criterion 5 (r={r}): {ev['qualifying']} qualifying curves, "
        f"max ratio {ev['max_ratio']:.4f}, 0 violations ({elapsed:.1f}s)"
    )


def test_criterion_6_parity_lemma():
    """1000 (open polyline, line) pairs with the line missing all vertices and
    the endpoint chord: the proper crossing count is always even."""
    start = time.time()
    rng = np.random.default_rng(606)
    checked = 0
    while checked < 1000:
        poly = random_walk_polyline(rng, SQUARE, int(rng.integers(3, 21)))
        theta = rng.uniform(0.0, math.pi)
        offset = rng.uniform(-0.3, 1.3)
        line = line_from_direction_offset(theta, offset)
        sides = [side_of(line, v) for v in poly.vertices]
        if 0 in sides:
            continue
        if sides[0] != sides[-1]:
            continue  # the line meets the endpoint chord
        assert proper_crossings(line, poly) % 2 == 0
        checked += 1
    elapsed = time.time() - start
    print(f"PASS criterion 6: 1000/1000 even crossing counts ({elapsed:.1f}s)")


def test_criterion_7_prop1_analog():
    """500 strictly convex rings have max multiplicity exactly 2; 500 simple
    non-convex rings have at least 4; the consistency flag holds throughout."""
    start = time.time()
    rng = np.random.default_rng(707)
    for _ in range(500):
        ring = random_convex_polygon(rng, int(rng.integers(5, 51))).as_polyline()
        res = prop1_check(ring)
        assert res.convex and res.max_mult == 2 and res.consistent
    for _ in range(500):
        ring = random_star_ring(rng, SQUARE, int(rng.integers(6, 14)))
        res = prop1_check(ring)
        assert not res.convex and res.max_mult >= 4 and res.consistent
    elapsed = time.time() - start
    print(f"PASS criterion 7: 1000/1000 rings consistent ({elapsed:.1f}s)")


def test_criterion_8_metric_oracles():
    """Calipers diameter equals the quadratic scan exactly on 1000 polygons;
    perimeter is monotone over 500 nested pairs."""
    start = time.time()
    rng = np.random.default_rng(808)
    for _ in range(1000):
        body = random_convex_polygon(rng, int(rng.integers(4, 51)))
        fast, _, _ = diameter(body)
        slow, _, _ = diameter_bruteforce(body)
        assert fast == slow  # bit-exact
    from fractions import Fraction

    from konvex.geometry import convex_hull

    for _ in range(500):
        outer = random_convex_polygon(rng, int(rng.integers(5, 31)))
        cx, cy = outer.centroid()
        f = Fraction(int(rng.integers(200, 950)), 1000)
        inner = convex_hull(
            [
                Point(
                    Fraction(cx) + f * (v.x - Fraction(cx)),
                    Fraction(cy) + f * (v.y - Fraction(cy)),
                )
                for v in outer.ring
            ]
        )
        assert all(contains(outer, v) != EXTERIOR for v in inner.ring)
        assert perimeter(inner) <= perimeter(outer) + 1e-12
    elapsed = time.time() - start
    print(
        f"PASS criterion 8: 1000 exact diameter agreements, "
        f"500 monotone nested perimeters ({elapsed:.1f}s)"
    )
