"""Line-multiplicity analysis: how often can a straight line meet a polyline.

Multiplicity is the number of connected components of line ∩ polyline
(as plane sets).  Counting components rather than points keeps the theory
well-posed when a line contains a whole segment of the polyline: a maximal
collinear run counts once, a transversal crossing counts once, and a vertex
touch counts once.  For curves that meet lines in finitely many points the
two conventions agree.

Exactness contract: every reported count is produced by `line_multiplicity`,
which decides all incidences with exact rational arithmetic.  The candidate
search and the random oracle use a vectorized double-precision screen with a
conservative error band; any vertex whose side is not certified by the band
is re-decided exactly before a candidate's screened count is trusted, and the
screened count can only overestimate (coincident intersection points merge
components).  The best candidates are then re-verified exactly, so screening
never changes a reported number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

import numpy as np

from .errors import PreconditionError, VerificationError
from .geometry import (
    ConvexPolygon,
    Line,
    Point,
    Polyline,
    _require_inside,
    polyline_length,
    s_bound,
)
from .projections import chord_term, projection_length_samples, width_samples

# report provenance tags
METHOD_DIRECT = "direct"
METHOD_ENUMERATION = "enumeration"
METHOD_ORACLE = "oracle"
METHOD_WITNESS_SWEEP = "witness_sweep"

_EPS = float(np.finfo(np.float64).eps)
_BAND_FACTOR = 16.0  # safety margin over the 3-term dot product rounding bound
_ROTATION_PERTURBATION = 1e-7  # radians, paired with the 1e-7 * bbox shift
_FAN_DIRECTIONS = 360
_SCREEN_CHUNK = 8192
_WITNESS_GRID = 4096  # angles in projection_witness's coarse search


@dataclass(frozen=True)
class Component:
    """One connected component of line ∩ polyline."""

    segments: tuple[int, ...]  # contributing segment indices, sorted
    start: tuple[float, float]
    end: tuple[float, float]

    @property
    def kind(self) -> str:
        return "point" if self.start == self.end else "span"


@dataclass(frozen=True)
class MultiplicityReport:
    count: int
    witness: Line
    method: str
    components: tuple[Component, ...] = field(default=())


def _segment_endpoints(poly: Polyline) -> Iterator[tuple[int, int, int]]:
    n = len(poly.vertices)
    for k in range(n - 1):
        yield k, k, k + 1
    if poly.closed:
        yield n - 1, n - 1, 0


def line_multiplicity(line: Line, poly: Polyline, method: str = METHOD_DIRECT) -> MultiplicityReport:
    """Exact component count of line ∩ polyline.

    Every intersection piece (crossing point, vertex touch, collinear
    sub-segment) is located exactly on the line's rational coordinate chart;
    pieces that touch or overlap there are merged into one component.
    """
    verts = poly.vertices
    sides = [line.side_of(v) for v in verts]
    values = [line.value_at(v) for v in verts]

    pieces: list[tuple[Fraction, Fraction, Point, Point, int]] = []
    for seg_idx, ia, ib in _segment_endpoints(poly):
        sa, sb = sides[ia], sides[ib]
        if sa == 0 and sb == 0:
            ta, tb = line.along(verts[ia]), line.along(verts[ib])
            if ta <= tb:
                pieces.append((ta, tb, verts[ia], verts[ib], seg_idx))
            else:
                pieces.append((tb, ta, verts[ib], verts[ia], seg_idx))
        elif sa == 0:
            t = line.along(verts[ia])
            pieces.append((t, t, verts[ia], verts[ia], seg_idx))
        elif sb == 0:
            t = line.along(verts[ib])
            pieces.append((t, t, verts[ib], verts[ib], seg_idx))
        elif sa != sb:
            va, vb = values[ia], values[ib]
            tau = va / (va - vb)
            a, b = verts[ia], verts[ib]
            p = Point(a.x + tau * (b.x - a.x), a.y + tau * (b.y - a.y))
            t = line.along(p)
            pieces.append((t, t, p, p, seg_idx))

    pieces.sort(key=lambda piece: (piece[0], piece[1]))
    components: list[Component] = []
    cur: list | None = None
    for lo, hi, p_lo, p_hi, seg_idx in pieces:
        if cur is not None and lo <= cur[1]:
            if hi > cur[1]:
                cur[1] = hi
                cur[3] = p_hi
            cur[4].add(seg_idx)
        else:
            if cur is not None:
                components.append(
                    Component(tuple(sorted(cur[4])), cur[2].xy, cur[3].xy)
                )
            cur = [lo, hi, p_lo, p_hi, {seg_idx}]
    if cur is not None:
        components.append(Component(tuple(sorted(cur[4])), cur[2].xy, cur[3].xy))

    return MultiplicityReport(len(components), line, method, tuple(components))


def proper_crossings(line: Line, poly: Polyline) -> int:
    """Number of strict sign-change crossings (touches and overlaps excluded).

    Requires that no polyline vertex lies on the line, so every intersection
    is a transversal segment crossing.
    """
    sides = [line.side_of(v) for v in poly.vertices]
    if any(s == 0 for s in sides):
        raise PreconditionError("line passes through a polyline vertex")
    flips = sum(1 for a, b in zip(sides, sides[1:]) if a != b)
    if poly.closed and sides[-1] != sides[0]:
        flips += 1
    return flips


# ---------------------------------------------------------------------------
# screened candidate evaluation
# ---------------------------------------------------------------------------

_KIND_PAIR = 0
_KIND_COEFS = 1  # canonical line is the exact rational lift of the stored floats
_KIND_FAN = 2  # canonical line passes exactly through vertex ia with float normal


class _Screen:
    """Vectorized component counting for batches of candidate lines.

    Counts derived here are exact for every vertex side the error band
    certifies; banded vertices are re-decided with rational arithmetic
    against the candidate's canonical line.  The resulting count can exceed
    the true component count only through coincident intersection points,
    so it is a sound upper bound used to rank and prune candidates.
    """

    def __init__(self, poly: Polyline):
        self.poly = poly
        self.pts = np.asarray(poly.float_vertices())
        self.closed = poly.closed
        self.max_x = float(np.max(np.abs(self.pts[:, 0])))
        self.max_y = float(np.max(np.abs(self.pts[:, 1])))

    def canonical_line(self, kind: int, ia: int, ib: int, coefs: np.ndarray) -> Line:
        verts = self.poly.vertices
        if kind == _KIND_PAIR:
            return Line.from_points(verts[ia], verts[ib])
        if kind == _KIND_FAN:
            nx = Fraction(float(coefs[0]))
            ny = Fraction(float(coefs[1]))
            v = verts[ia]
            return Line(nx, ny, nx * v.x + ny * v.y)
        return Line(
            Fraction(float(coefs[0])), Fraction(float(coefs[1])), Fraction(float(coefs[2]))
        )

    def counts(
        self, coefs: np.ndarray, kinds: np.ndarray, ia: np.ndarray, ib: np.ndarray
    ) -> np.ndarray:
        vals = coefs[:, :2] @ self.pts.T - coefs[:, 2:3]
        band = _BAND_FACTOR * _EPS * (
            np.abs(coefs[:, 0]) * self.max_x
            + np.abs(coefs[:, 1]) * self.max_y
            + np.abs(coefs[:, 2])
        )
        band = band[:, None]
        signs = (vals > band).astype(np.int8) - (vals < -band).astype(np.int8)
        uncertain = np.abs(vals) <= band

        rows = np.arange(len(coefs))
        pair_rows = kinds == _KIND_PAIR
        fan_rows = kinds == _KIND_FAN
        if pair_rows.any():
            signs[rows[pair_rows], ia[pair_rows]] = 0
            signs[rows[pair_rows], ib[pair_rows]] = 0
            uncertain[rows[pair_rows], ia[pair_rows]] = False
            uncertain[rows[pair_rows], ib[pair_rows]] = False
        if fan_rows.any():
            signs[rows[fan_rows], ia[fan_rows]] = 0
            uncertain[rows[fan_rows], ia[fan_rows]] = False

        for row in np.nonzero(uncertain.any(axis=1))[0]:
            line = self.canonical_line(int(kinds[row]), int(ia[row]), int(ib[row]), coefs[row])
            for col in np.nonzero(uncertain[row])[0]:
                signs[row, col] = line.side_of(self.poly.vertices[int(col)])

        return self._count_from_signs(signs)

    def _count_from_signs(self, signs: np.ndarray) -> np.ndarray:
        if self.closed:
            edge_pairs = signs.astype(np.int16) * np.roll(signs, -1, axis=1).astype(np.int16)
        else:
            edge_pairs = signs[:, :-1].astype(np.int16) * signs[:, 1:].astype(np.int16)
        crossings = (edge_pairs < 0).sum(axis=1)

        zeros = signs == 0
        if self.closed:
            runs = (zeros & ~np.roll(zeros, 1, axis=1)).sum(axis=1)
            all_on = zeros.all(axis=1)
            if all_on.any():
                runs[all_on] = 1
        else:
            runs = (zeros[:, 1:] & ~zeros[:, :-1]).sum(axis=1) + zeros[:, 0]
        return (crossings + runs).astype(np.int64)


def _candidate_batches(
    poly: Polyline,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Candidate family: vertex-pair lines, their translated/rotated copies,
    and per-vertex direction fans.  Yields (coefs, kinds, ia, ib) blocks."""
    pts = np.asarray(poly.float_vertices())
    n = len(pts)
    span = math.dist(pts.min(axis=0), pts.max(axis=0))
    delta = 1e-7 * (span if span > 0 else 1.0)

    ii, jj = np.triu_indices(n, k=1)
    # vertices may repeat non-consecutively; drop pairs that span no direction
    alive = np.any(pts[jj] != pts[ii], axis=1)
    ii, jj = ii[alive], jj[alive]
    for start in range(0, len(ii), _SCREEN_CHUNK):
        i = ii[start : start + _SCREEN_CHUNK]
        j = jj[start : start + _SCREEN_CHUNK]
        d = pts[j] - pts[i]
        nx, ny = -d[:, 1], d[:, 0]
        c = nx * pts[i, 0] + ny * pts[i, 1]
        base = np.column_stack([nx, ny, c])
        yield base, np.full(len(i), _KIND_PAIR, np.int8), i.astype(np.int32), j.astype(np.int32)

        norm = np.hypot(nx, ny)
        mid = (pts[i] + pts[j]) / 2.0
        blocks = []
        for rot_sign in (0.0, 1.0, -1.0):
            if rot_sign == 0.0:
                rx, ry = nx, ny
                c0 = c
            else:
                ct = math.cos(rot_sign * _ROTATION_PERTURBATION)
                st = math.sin(rot_sign * _ROTATION_PERTURBATION)
                rx = ct * nx - st * ny
                ry = st * nx + ct * ny
                c0 = rx * mid[:, 0] + ry * mid[:, 1]
            for t_sign in (0.0, 1.0, -1.0):
                if rot_sign == 0.0 and t_sign == 0.0:
                    continue
                blocks.append(np.column_stack([rx, ry, c0 + t_sign * delta * norm]))
        pert = np.concatenate(blocks, axis=0)
        yield (
            pert,
            np.full(len(pert), _KIND_COEFS, np.int8),
            np.zeros(len(pert), np.int32),
            np.zeros(len(pert), np.int32),
        )

    thetas = np.arange(_FAN_DIRECTIONS) * (math.pi / _FAN_DIRECTIONS)
    cs, ss = np.cos(thetas), np.sin(thetas)
    for start in range(0, n, max(1, _SCREEN_CHUNK // _FAN_DIRECTIONS)):
        stop = min(n, start + max(1, _SCREEN_CHUNK // _FAN_DIRECTIONS))
        vx = pts[start:stop, 0]
        vy = pts[start:stop, 1]
        nx = np.repeat(cs[None, :], stop - start, axis=0).ravel()
        ny = np.repeat(ss[None, :], stop - start, axis=0).ravel()
        c = nx * np.repeat(vx, _FAN_DIRECTIONS) + ny * np.repeat(vy, _FAN_DIRECTIONS)
        idx = np.repeat(np.arange(start, stop, dtype=np.int32), _FAN_DIRECTIONS)
        yield (
            np.column_stack([nx, ny, c]),
            np.full(len(c), _KIND_FAN, np.int8),
            idx,
            idx,
        )


def _best_verified(
    poly: Polyline,
    screen: _Screen,
    batches,
    method: str,
) -> MultiplicityReport:
    """Screen all candidate batches, then verify screened leaders exactly
    until no remaining screened count can beat the best exact count."""
    counts_parts, kinds_parts, ia_parts, ib_parts, coef_parts = [], [], [], [], []
    for coefs, kinds, ia, ib in batches:
        counts_parts.append(screen.counts(coefs, kinds, ia, ib))
        kinds_parts.append(kinds)
        ia_parts.append(ia)
        ib_parts.append(ib)
        coef_parts.append(coefs)
    counts = np.concatenate(counts_parts)
    kinds = np.concatenate(kinds_parts)
    ia = np.concatenate(ia_parts)
    ib = np.concatenate(ib_parts)
    coefs = np.concatenate(coef_parts)

    best: MultiplicityReport | None = None
    for idx in np.argsort(-counts, kind="stable"):
        if best is not None and counts[idx] <= best.count:
            break
        line = screen.canonical_line(int(kinds[idx]), int(ia[idx]), int(ib[idx]), coefs[idx])
        report = line_multiplicity(line, poly, method)
        if best is None or report.count > best.count:
            best = report
    assert best is not None
    return best


def max_line_multiplicity(poly: Polyline) -> MultiplicityReport:
    """Maximum multiplicity over the candidate family.

    The family is all vertex-pair lines, each also shifted by ±1e-7 of the
    bounding-box diagonal along its normal and rotated by ±1e-7 radians
    about the pair midpoint (and the four combinations), plus 360 direction
    fans through every vertex.  The winning count is always re-established
    by exact replay before being returned.
    """
    if len({(v.x, v.y) for v in poly.vertices}) < 2:
        raise PreconditionError("need at least 2 distinct vertices")
    screen = _Screen(poly)
    return _best_verified(poly, screen, _candidate_batches(poly), METHOD_ENUMERATION)


def random_line_oracle(poly: Polyline, trials: int, seed: int) -> MultiplicityReport:
    """Maximum multiplicity over `trials` random lines; the independent check
    for the candidate enumeration.

    Directions are uniform on the half-circle; offsets are uniform over the
    bounding box's projection extent for the sampled direction.  Deterministic
    for a fixed seed.
    """
    if trials < 1:
        raise PreconditionError("trials must be at least 1")
    rng = np.random.default_rng(seed)
    pts = np.asarray(poly.float_vertices())
    screen = _Screen(poly)

    def batches():
        remaining = trials
        while remaining > 0:
            k = min(remaining, _SCREEN_CHUNK)
            remaining -= k
            theta = rng.uniform(0.0, math.pi, k)
            nx, ny = np.cos(theta), np.sin(theta)
            proj = nx[:, None] * pts[None, :, 0] + ny[:, None] * pts[None, :, 1]
            lo, hi = proj.min(axis=1), proj.max(axis=1)
            c = rng.uniform(lo, hi)
            yield (
                np.column_stack([nx, ny, c]),
                np.full(k, _KIND_COEFS, np.int8),
                np.zeros(k, np.int32),
                np.zeros(k, np.int32),
            )

    return _best_verified(poly, screen, batches(), METHOD_ORACLE)


# ---------------------------------------------------------------------------
# constructive stabbing line
# ---------------------------------------------------------------------------


def projection_witness(poly: Polyline, r: int, body: ConvexPolygon) -> float | None:
    """Angle at which the polyline's projected length pigeonholes a depth of
    r + 1 over the body's projection.

    For even r the target margin is l(a) - r·k(a); for odd r the endpoint
    chord strengthens it to l(a) - (r-1)·k(a) - l0·|cos(a - a0)|.  Searches a
    grid of 4096 angles and refines around the best grid point by golden
    section; returns None when no strictly positive margin is found.
    """
    if r < 2:
        raise PreconditionError("the multiplicity budget r must be at least 2")
    _require_inside(poly, body)

    alphas = np.linspace(0.0, 2.0 * math.pi, _WITNESS_GRID, endpoint=False)
    l_vals = projection_length_samples(poly, alphas)
    k_vals = width_samples(body, alphas)
    if r % 2 == 0:
        margins = l_vals - r * k_vals
        chord = None
    else:
        chord = chord_term(poly) if not poly.closed else None
        l0 = chord.l0 if chord else 0.0
        a0 = chord.alpha0 if chord else 0.0
        margins = l_vals - (r - 1) * k_vals - l0 * np.abs(np.cos(alphas - a0))

    best = int(np.argmax(margins))
    h = 2.0 * math.pi / _WITNESS_GRID

    def margin(alpha: float) -> float:
        l = projection_length_samples(poly, np.array([alpha]))[0]
        k = width_samples(body, np.array([alpha]))[0]
        if r % 2 == 0:
            return float(l - r * k)
        l0 = chord.l0 if chord else 0.0
        a0 = chord.alpha0 if chord else 0.0
        return float(l - (r - 1) * k - l0 * abs(math.cos(alpha - a0)))

    lo, hi = alphas[best] - h, alphas[best] + h
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - inv_phi * (b - a)
    x2 = a + inv_phi * (b - a)
    f1, f2 = margin(x1), margin(x2)
    for _ in range(72):
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - inv_phi * (b - a)
            f1 = margin(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + inv_phi * (b - a)
            f2 = margin(x2)
    alpha_star = (a + b) / 2.0
    refined = margin(alpha_star)
    grid_best = float(margins[best])
    # floating-point noise floor: an exactly tight bound evaluates to ~1e-16
    noise = 1e-12 * max(1.0, float(np.max(l_vals)))
    if max(refined, grid_best) <= noise:
        return None
    return alpha_star if refined >= grid_best else float(alphas[best])


def _depth_cells(poly: Polyline, alpha: float) -> list[tuple[int, float, float]]:
    """Coverage cells of the segment projections onto direction alpha,
    as (depth, lo, hi), zero-width projections discarded."""
    u = (math.cos(alpha), math.sin(alpha))
    events: list[tuple[float, int]] = []
    for seg in poly.segments():
        (ax, ay), (bx, by) = seg.a.xy, seg.b.xy
        ta = u[0] * ax + u[1] * ay
        tb = u[0] * bx + u[1] * by
        if ta == tb:
            continue  # projects to a point; no transversal line crosses it
        lo, hi = (ta, tb) if ta < tb else (tb, ta)
        events.append((lo, 1))
        events.append((hi, -1))
    if not events:
        return []
    events.sort()
    cells: list[tuple[int, float, float]] = []
    depth = 0
    pos = events[0][0]
    k = 0
    while k < len(events):
        t = events[k][0]
        if t > pos and depth > 0:
            cells.append((depth, pos, t))
        while k < len(events) and events[k][0] == t:
            depth += events[k][1]
            k += 1
        pos = t
    return cells


def find_stabbing_line(
    poly: Polyline, r: int, body: ConvexPolygon
) -> tuple[Line, MultiplicityReport]:
    """Produce a verified line meeting the polyline in at least r + 1
    components; defined whenever the polyline is longer than the threshold
    s(body, r).

    Projects all segments onto the witness direction and sweeps the interval
    endpoints for a maximal coverage-depth cell (leftmost on ties); the
    returned line runs through the cell midpoint perpendicular to the witness
    direction.  Every candidate is replayed through line_multiplicity before
    being returned; if no sweep cell verifies, the candidate enumeration is
    the fallback.
    """
    threshold = s_bound(body, r)
    if not polyline_length(poly) > threshold:
        raise PreconditionError(
            f"bound not exceeded: length {polyline_length(poly):.9g} <= s = {threshold:.9g}"
        )
    _require_inside(poly, body)

    alpha = projection_witness(poly, r, body)
    if alpha is not None:
        cells = _depth_cells(poly, alpha)
        cells.sort(key=lambda cell: (-cell[0], cell[1]))
        for depth, lo, hi in cells[:64]:
            if depth <= r:
                break
            line = Line.from_direction_offset(alpha, (lo + hi) / 2.0)
            report = line_multiplicity(line, poly, METHOD_WITNESS_SWEEP)
            if report.count >= r + 1:
                return line, report

    report = max_line_multiplicity(poly)
    if report.count >= r + 1:
        return report.witness, report
    raise VerificationError(
        f"no line with multiplicity {r + 1} found despite length above the bound"
    )
