"""Threshold bounds and empirical verification of both bound directions.

s(K, r) is the threshold length: any curve in K longer than s admits a line
meeting it at least r + 1 times, and below s a curve with multiplicity at
most r exists.  check_upper_bound realizes the first direction
constructively, the builder realizes the second, and falsify hammers the
inequality with random curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .builder import ConstructionParams, build_curve
from .errors import ConstructionError, NotSimpleError, PreconditionError
from .geometry import (
    COLLINEAR,
    ConvexPolygon,
    Polyline,
    _require_inside,
    _threshold,
    _turn,
    _turns_both_ways,
    diameter,
    perimeter,
    polyline_length,
    s_bound,
)
from .random_shapes import random_star_ring, random_walk_polyline, trial_streams
from .stabbing import (
    MultiplicityReport,
    _SWEEP_ENTRIES,
    _VERTEX_BUDGET,
    _exceeds,
    _sweep_best,
    find_stabbing_line,
    max_line_multiplicity,
)

SIDE_UPPER = "upper_checked"
SIDE_LOWER = "lower_realized"
SIDE_FALSIFICATION = "falsification"


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one bound check; recomputes s from (p, d, r) on creation."""

    r: int
    perimeter: float
    diameter: float
    s: float
    side: str
    evidence: dict = field(default_factory=dict)

    def __post_init__(self):
        expected = _threshold(self.r, self.perimeter, self.diameter)
        if not math.isclose(self.s, expected, rel_tol=1e-12, abs_tol=1e-12):
            raise PreconditionError("inconsistent threshold in report")


def _report_base(body: ConvexPolygon, r: int, side: str, evidence: dict) -> BoundReport:
    return BoundReport(r, perimeter(body), diameter(body)[0], s_bound(body, r), side, evidence)


def check_upper_bound(poly: Polyline, body: ConvexPolygon, r: int) -> BoundReport:
    """If the polyline is longer than s(K, r), produce a verified line meeting
    it r + 1 times; otherwise report that it is within the bound.
    Containment is checked once, here or inside find_stabbing_line."""
    length = polyline_length(poly)
    threshold = s_bound(body, r)
    if length > threshold:
        line, report = find_stabbing_line(poly, r, body)
        evidence = {"status": "stabbed", "length": length, "line": line, "report": report}
    else:
        _require_inside(poly, body)
        evidence = {"status": "within_bound", "length": length}
    return _report_base(body, r, SIDE_UPPER, evidence)


def falsify(body: ConvexPolygon, r: int, trials: int, seed: int = 0) -> BoundReport:
    """Random curves with measured multiplicity <= r must not exceed s(K, r).

    Generates a seeded mix of interior random walks, star loops, smoothed
    loops and a couple of near-extremal builder curves; any curve whose
    measured multiplicity stays within r but whose length exceeds s is
    recorded as a violation (none are expected: a violation would indicate
    an implementation bug, so it is reported data rather than an error).
    The curves are swept in batches, which decide exactly whether some line
    meets a curve more than r times; a violation records the curve's exact
    maximum multiplicity.
    """
    if trials < 1:
        raise PreconditionError("trials must be at least 1")
    if r < 2:
        raise PreconditionError("the multiplicity budget r must be at least 2")
    if seed < 0:
        raise PreconditionError("seed must be non-negative")
    threshold = s_bound(body, r)
    max_ratio = 0.0
    qualifying = 0
    violations: list[dict] = []
    by_generator: dict[str, int] = {}

    for block in _trial_blocks(body, r, trials, seed):
        over = _exceeds([curve for _, _, curve in block], r)
        for (t, kind, curve), exceeds in zip(block, over):
            by_generator[kind] = by_generator.get(kind, 0) + 1
            if exceeds:
                continue
            qualifying += 1
            ratio = polyline_length(curve) / threshold
            max_ratio = max(max_ratio, ratio)
            if ratio > 1.0:
                count = _sweep_best([curve], math.inf)[0][0]
                violations.append(
                    {"trial": t, "generator": kind, "ratio": ratio, "count": count}
                )

    evidence = {
        "trials": trials,
        "qualifying": qualifying,
        "max_ratio": max_ratio,
        "violations": violations,
        "generators": by_generator,
        "seed": seed,
    }
    return _report_base(body, r, SIDE_FALSIFICATION, evidence)


def _trial_blocks(
    body: ConvexPolygon, r: int, trials: int, seed: int
) -> Iterator[list[tuple[int, str, Polyline]]]:
    """falsify's (trial, generator, curve) triples in trial order, in blocks
    of about _SWEEP_ENTRIES vertex pairs.  Trial t draws from the stream of
    `np.random.default_rng([seed, t])`; `trial_streams` seeds the trials in
    batches, with the same states."""
    builder_slots = {trials // 3, (2 * trials) // 3} if trials >= 50 else set()
    block: list[tuple[int, str, Polyline]] = []
    entries = 0
    for t, rng in enumerate(trial_streams(seed, trials)):
        if t in builder_slots:
            kind = "builder"
            curve = _builder_curve(body, r, seed + t)
            if curve is None:
                kind = "walk"
                curve = _walk_curve(rng, body)
        else:
            pick = t % 4
            if pick in (0, 1):
                kind = "walk"
                curve = _walk_curve(rng, body)
            elif pick == 2:
                kind = "star"
                curve = random_star_ring(rng, body, n_vertices=int(rng.integers(6, 13)))
            else:
                kind = "smooth_loop"
                curve = random_star_ring(
                    rng, body, n_vertices=int(rng.integers(6, 13)), spiky=False
                )
        block.append((t, kind, curve))
        entries += len(curve) ** 2
        if entries >= _SWEEP_ENTRIES:
            yield block
            block, entries = [], 0
    if block:
        yield block


def _walk_curve(rng: np.random.Generator, body: ConvexPolygon) -> Polyline:
    n = int(rng.integers(3, 11))
    return random_walk_polyline(rng, body, n_segments=n)


def _builder_curve(body: ConvexPolygon, r: int, seed: int):
    try:
        params = ConstructionParams(
            r=r, eps=0.05 * s_bound(body, r), m=96, seed=seed, max_retries=4
        )
        return build_curve(body, params).curve
    except ConstructionError:
        return None


@dataclass(frozen=True)
class Prop1Result:
    convex: bool
    max_mult: int
    consistent: bool
    report: MultiplicityReport


def prop1_check(poly: Polyline) -> Prop1Result:
    """Discrete convexity characterization for a simple closed ring.

    convex: all turns consistently oriented.  consistent: convex holds
    exactly when no line meets the ring in more than 3 components; strictly
    convex rings are met in exactly 2.
    """
    if not poly.closed:
        raise PreconditionError("prop1_check needs a closed polyline")
    _require_simple(poly)
    convex = not _turns_both_ways(poly)
    report = max_line_multiplicity(poly)
    consistent = convex == (report.count <= 3)
    return Prop1Result(convex, report.count, consistent, report)


def _require_simple(poly: Polyline) -> None:
    """Exact self-intersection scan on the polyline's integer view; adjacency
    may share only its endpoint.  The scan is O(n²), so a polyline of more
    than _VERTEX_BUDGET vertices is refused with PreconditionError."""
    _, xs, ys = poly.grid
    n = len(xs)
    if n > _VERTEX_BUDGET:
        raise PreconditionError(
            f"polylines of more than {_VERTEX_BUDGET} vertices are refused: "
            "the simplicity scan is O(n^2)"
        )
    segs = [(i, (i + 1) % n) for i in range(n)] if poly.closed else [
        (i, i + 1) for i in range(n - 1)
    ]
    boxes = [
        (min(xs[a], xs[b]), min(ys[a], ys[b]), max(xs[a], xs[b]), max(ys[a], ys[b]))
        for a, b in segs
    ]
    m = len(segs)
    for i in range(m):
        for j in range(i + 1, m):
            adjacent = segs[i][1] == segs[j][0] or segs[j][1] == segs[i][0]
            bi, bj = boxes[i], boxes[j]
            if bi[2] < bj[0] or bj[2] < bi[0] or bi[3] < bj[1] or bj[3] < bi[1]:
                continue
            if adjacent:
                if _adjacent_overlap(xs, ys, segs[i], segs[j]):
                    raise NotSimpleError(f"spur at segments {i} and {j}")
            elif _segments_touch(xs, ys, *segs[i], *segs[j]):
                raise NotSimpleError(f"segments {i} and {j} intersect")


def _adjacent_overlap(xs, ys, si, sj) -> bool:
    shared = si[1] if si[1] == sj[0] else si[0]
    a = si[0] if si[1] == shared else si[1]
    b = sj[1] if sj[0] == shared else sj[0]
    if _turn(xs, ys, shared, a, b) != COLLINEAR:
        return False
    dot = (xs[a] - xs[shared]) * (xs[b] - xs[shared]) + (ys[a] - ys[shared]) * (ys[b] - ys[shared])
    return dot > 0  # doubling back along the same ray


def _segments_touch(xs, ys, a: int, b: int, c: int, d: int) -> bool:
    """Whether the closed segments ab and cd, vertex indices of an integer
    view, share a point."""
    o1 = _turn(xs, ys, a, b, c)
    o2 = _turn(xs, ys, a, b, d)
    o3 = _turn(xs, ys, c, d, a)
    o4 = _turn(xs, ys, c, d, b)
    if o1 != o2 and o3 != o4 and 0 not in (o1, o2, o3, o4):
        return True
    for (p, q, r, o) in ((a, b, c, o1), (a, b, d, o2), (c, d, a, o3), (c, d, b, o4)):
        if o == COLLINEAR and _on_segment(xs, ys, p, q, r):
            return True
    return False


def _on_segment(xs, ys, p: int, q: int, r: int) -> bool:
    """r collinear with pq assumed; is it within the closed segment box."""
    return (
        min(xs[p], xs[q]) <= xs[r] <= max(xs[p], xs[q])
        and min(ys[p], ys[q]) <= ys[r] <= max(ys[p], ys[q])
    )
