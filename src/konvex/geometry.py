"""Exact planar primitives and convex-polygon metrics.

Points and polygons store their coordinates as exact rationals
(`fractions.Fraction`).  A polyline's exact state is its integer view
(D, X, Y) below, computed from its points or given directly as ints
(`Polyline.from_grid`); a polyline given as ints makes its points only
when something reads them.  The sign predicates are exact: no epsilons,
no tie-breaking heuristics.  Metric quantities (lengths, widths, angles)
are computed in double precision from float views of the same
coordinates; a point, and a polyline, converts its coordinates once, on
first use, and refuses coordinates beyond double range with
PreconditionError.

Every sign predicate (orientation, point-in-polygon, strict convexity,
the convex hull's turns) is the sign of a Python int: it runs on the
integer view of its points, D, the least common multiple of all their
coordinate denominators, and the integer coordinates X = x·D, Y = y·D.
A polyline and a convex polygon hold that view once computed.
Every incidence of a rational line with a polyline, and every comparison
of the rotating calipers on a polygon, is likewise a sign or a comparison
of ints, exact with no normalisation, no error bound and no float filter
(the integer approach of Fortune & Van Wyk 1996, "Static analysis yields
efficient exact integer arithmetic for computational geometry").

Decimal strings ingest exactly ("0.1" becomes 1/10); Python floats ingest
as their exact binary value.
"""

from __future__ import annotations

import math
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .errors import DegeneracyError, PreconditionError

Coordinate = Fraction | int | float | str

# Orientation signs.
LEFT = 1
COLLINEAR = 0
RIGHT = -1

# Containment classes.
INTERIOR = "interior"
BOUNDARY = "boundary"
EXTERIOR = "exterior"


def to_fraction(value: Coordinate) -> Fraction:
    """Convert a coordinate to an exact rational.

    Strings are read as exact decimals ("0.1" -> 1/10, "1e-9" -> 1/10^9)
    or ratios ("3/7"); floats convert to their exact binary value.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        if not math.isfinite(value):
            raise PreconditionError(f"non-finite coordinate: {value!r}")
        return Fraction(value)
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {type(value).__name__} as a coordinate")


@dataclass(frozen=True)
class Point:
    x: Fraction
    y: Fraction
    _xy = None  # not a field: the float view, stored by `xy` on first use

    def __post_init__(self):
        object.__setattr__(self, "x", to_fraction(self.x))
        object.__setattr__(self, "y", to_fraction(self.y))

    @property
    def xy(self) -> tuple[float, float]:
        """Double-precision view for metric work, computed once."""
        xy = self._xy
        if xy is None:
            try:
                xy = (float(self.x), float(self.y))
            except OverflowError:
                raise PreconditionError("a coordinate lies beyond double range") from None
            object.__setattr__(self, "_xy", xy)
        return xy

    def __iter__(self) -> Iterator[Fraction]:
        return iter((self.x, self.y))

    def __repr__(self) -> str:
        return f"Point({str(self.x)!r}, {str(self.y)!r})"


@dataclass(frozen=True)
class Segment:
    a: Point
    b: Point

    @property
    def degenerate(self) -> bool:
        return self.a == self.b

    def length(self) -> float:
        return math.dist(self.a.xy, self.b.xy)

    def angle(self) -> float:
        """Angle with the x axis, in [0, pi). Undefined (0.0) if degenerate."""
        if self.degenerate:
            return 0.0
        ax, ay = self.a.xy
        bx, by = self.b.xy
        alpha = math.atan2(by - ay, bx - ax)
        if alpha < 0.0:
            alpha += math.pi
        if alpha >= math.pi:
            alpha -= math.pi
        return alpha


def orientation(p: Point, q: Point, r: Point) -> int:
    """Exact turn direction of the triple: LEFT, RIGHT or COLLINEAR."""
    _, xs, ys = _grid_of((p, q, r))
    return _turn(xs, ys, 0, 1, 2)


def _turn(xs: Sequence[int], ys: Sequence[int], i: int, j: int, k: int) -> int:
    """Turn direction of the points i, j, k of an integer view: the sign of
    the int cross product (P_j - P_i) x (P_k - P_i)."""
    xi, yi = xs[i], ys[i]
    c = (xs[j] - xi) * (ys[k] - yi) - (ys[j] - yi) * (xs[k] - xi)
    return (c > 0) - (c < 0)


def _require_distinct(verts: Sequence, closed: bool) -> None:
    """Refuse fewer than 2 vertices, a vertex equal to the next, and a
    closed ring that stores its first vertex again; vertices are Points or
    int pairs."""
    if len(verts) < 2:
        raise PreconditionError("a polyline needs at least 2 vertices")
    for u, v in zip(verts, verts[1:]):
        if u == v:
            raise PreconditionError("consecutive polyline vertices must be distinct")
    if closed and verts[0] == verts[-1]:
        raise PreconditionError("closed polyline must not repeat its first vertex in storage")


class Polyline:
    """A broken line: ordered vertices, open or closed.

    For closed polylines the closing segment is implicit; the first vertex
    is not repeated in storage.  Consecutive vertices must be distinct.

    Its exact state is the integer view `grid`, (D, X, Y) with the vertices
    at (X/D, Y/D) and gcd(D, X, Y) = 1, so equal vertex tuples are equal
    grids and the reverse.  Equality and hashing compare (closed, grid).  A
    polyline built from its points keeps them and computes the grid on
    first use; one built by `from_grid` makes its points only when
    `vertices` is read.  Immutable.
    """

    __slots__ = ("closed", "_vertices", "_grid", "_floats")

    def __init__(self, vertices: Sequence[Point], closed: bool = False):
        verts = tuple(vertices)
        _require_distinct(verts, closed)
        self._set(closed, verts, None)

    @classmethod
    def from_grid(
        cls, den: int, xs: Sequence[int], ys: Sequence[int], closed: bool = False
    ) -> Polyline:
        """The polyline with vertices (xs[i]/den, ys[i]/den) for ints den > 0,
        xs and ys, held as its reduced integer view; no Point is made."""
        if den < 1 or len(xs) != len(ys):
            raise PreconditionError("a grid needs a positive denominator and one y per x")
        g = math.gcd(den, *xs, *ys)
        if g > 1:
            den, xs, ys = den // g, [x // g for x in xs], [y // g for y in ys]
        _require_distinct(list(zip(xs, ys)), closed)
        poly = object.__new__(cls)
        poly._set(closed, None, (den, tuple(xs), tuple(ys)))
        return poly

    def _set(self, closed: bool, vertices, grid) -> None:
        object.__setattr__(self, "closed", closed)
        object.__setattr__(self, "_vertices", vertices)
        object.__setattr__(self, "_grid", grid)
        object.__setattr__(self, "_floats", None)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    @property
    def vertices(self) -> tuple[Point, ...]:
        verts = self._vertices
        if verts is None:
            d, xs, ys = self._grid
            verts = tuple(Point(Fraction(x, d), Fraction(y, d)) for x, y in zip(xs, ys))
            object.__setattr__(self, "_vertices", verts)
        return verts

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.closed == other.closed and self.grid == other.grid

    def __hash__(self) -> int:
        return hash((self.closed, self.grid))

    def __repr__(self) -> str:
        return f"Polyline(vertices={self.vertices!r}, closed={self.closed!r})"

    def __len__(self) -> int:
        return len(self._grid[1] if self._vertices is None else self._vertices)

    def segments(self) -> Iterator[Segment]:
        verts = self.vertices
        for u, v in zip(verts, verts[1:]):
            yield Segment(u, v)
        if self.closed:
            yield Segment(verts[-1], verts[0])

    def float_vertices(self) -> tuple[tuple[float, float], ...]:
        """Double-precision vertices (X/D, Y/D), computed once.  Int true
        division rounds correctly, so these are the bits of `Point.xy`."""
        floats = self._floats
        if floats is None:
            d, xs, ys = self.grid
            try:
                floats = tuple((x / d, y / d) for x, y in zip(xs, ys))
            except OverflowError:
                raise PreconditionError("a coordinate lies beyond double range") from None
            object.__setattr__(self, "_floats", floats)
        return floats

    @property
    def grid(self) -> Grid:
        """Integer view (D, X, Y) of the vertices, computed once."""
        return _stored_grid(self, self._vertices)


Grid = tuple[int, tuple[int, ...], tuple[int, ...]]


def _grid_of(vertices: Sequence[Point]) -> Grid:
    """D, the lcm of all coordinate denominators, and X[i] = x_i·D, Y[i] = y_i·D."""
    ratios = [c.as_integer_ratio() for v in vertices for c in (v.x, v.y)]
    d = math.lcm(*(q for _, q in ratios))
    scaled = [p * (d // q) for p, q in ratios]
    return d, tuple(scaled[0::2]), tuple(scaled[1::2])


def _stored_grid(owner, vertices: Sequence[Point]) -> Grid:
    """The integer view of `vertices`, stored on `owner` on first use."""
    grid = owner._grid
    if grid is None:
        grid = _grid_of(vertices)
        object.__setattr__(owner, "_grid", grid)
    return grid


def polyline_length(poly: Polyline) -> float:
    """Total Euclidean length; closed polylines include the closing segment,
    summed last."""
    return _float_length(poly.float_vertices(), poly.closed)


def _float_length(pts: Sequence[tuple[float, float]], closed: bool) -> float:
    """`polyline_length` of float points: a closed ring's closing segment is
    summed last."""
    ends = pts[1:] + pts[:1] if closed else pts[1:]
    return sum(map(math.dist, pts, ends))


@dataclass(frozen=True)
class ConvexPolygon:
    """Strictly convex polygon: counterclockwise ring, no 3 collinear vertices.

    The constructor validates with exact predicates and rejects rather than
    repairs; use convex_hull() to build one from unordered points.
    """

    ring: tuple[Point, ...]
    # not fields: the metrics, stored by `perimeter` and `diameter` on first
    # use, the integer view, stored by `grid`, and the walk fan and star
    # frame, stored by `random_shapes`
    _perimeter = None
    _diameter = None
    _grid = None
    _walk_fan = None
    _star_frame = None

    def __post_init__(self):
        object.__setattr__(self, "ring", tuple(self.ring))
        n = len(self.ring)
        if n < 3:
            raise DegeneracyError("a convex polygon needs at least 3 vertices")
        _, xs, ys = self.grid
        if len(set(zip(xs, ys))) != n:
            raise PreconditionError("convex polygon ring has repeated vertices")
        for i in range(n):
            if _turn(xs, ys, i, (i + 1) % n, (i + 2) % n) != LEFT:
                raise PreconditionError(
                    "ring is not strictly convex counterclockwise "
                    f"(violation at vertex {(i + 1) % n})"
                )

    def __len__(self) -> int:
        return len(self.ring)

    def as_polyline(self) -> Polyline:
        return Polyline(self.ring, closed=True)

    def centroid(self) -> tuple[float, float]:
        """Area centroid, in doubles (used for inward directions, not predicates)."""
        return _centroid(self.float_ring())

    def float_ring(self) -> list[tuple[float, float]]:
        return [v.xy for v in self.ring]

    @property
    def grid(self) -> Grid:
        """Integer view (D, X, Y) of the ring, computed once."""
        return _stored_grid(self, self.ring)


def _centroid(ring: Sequence[tuple[float, float]]) -> tuple[float, float]:
    """Area centroid of a counterclockwise ring of float points."""
    ax = ay = area = 0.0
    x0, y0 = ring[0]
    for (x1, y1), (x2, y2) in zip(ring[1:-1], ring[2:]):
        t = (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0)
        area += t
        ax += t * (x0 + x1 + x2)
        ay += t * (y0 + y1 + y2)
    if not (0.0 < area < math.inf and math.isfinite(ax) and math.isfinite(ay)):
        raise DegeneracyError("polygon area underflows or overflows double precision")
    return (ax / (3.0 * area), ay / (3.0 * area))


def perimeter(polygon: ConvexPolygon) -> float:
    """Closed ring length; identical to polyline_length of the closed ring.
    Computed once per polygon."""
    if polygon._perimeter is None:
        object.__setattr__(polygon, "_perimeter", polyline_length(polygon.as_polyline()))
    return polygon._perimeter


def _antipodal_pairs(grid: Grid) -> Iterator[tuple[int, int]]:
    """Vertex index pairs visited by rotating calipers (superset of the diameter
    pair), on a ring's integer view (D, X, Y).  Cross products are those of
    the ring scaled by D², so every comparison is the exact one."""
    _, xs, ys = grid
    n = len(xs)
    j = 1
    for i in range(n):
        i2 = (i + 1) % n
        xi, yi = xs[i], ys[i]
        ex, ey = xs[i2] - xi, ys[i2] - yi

        def height(k: int) -> int:
            return abs(ex * (ys[k] - yi) - ey * (xs[k] - xi))

        while height((j + 1) % n) > height(j):
            j = (j + 1) % n
        yield (i, j)
        yield (i2, j)
        # parallel-edge tie: both far vertices are antipodal to edge (i, i2)
        j2 = (j + 1) % n
        if height(j2) == height(j):
            yield (i, j2)
            yield (i2, j2)


def _root(num: int, den: int, a: Point, b: Point) -> float:
    """The distance |a - b| from its exact square num/den, or from the float
    views when the square itself lies beyond double range.  Int true division
    rounds correctly, as float(Fraction(num, den)) does."""
    try:
        return math.sqrt(num / den)
    except OverflowError:
        return math.dist(a.xy, b.xy)


def diameter(polygon: ConvexPolygon) -> tuple[float, Point, Point]:
    """Maximum vertex-pair distance and one realizing pair (rotating calipers).

    The calipers and the pair selection run in Python ints on the polygon's
    integer view, comparing exact squared distances scaled by D², so the
    result matches a brute-force scan bit for bit; ties resolve to the
    lexicographically smallest index pair.  Computed once per polygon.
    """
    if polygon._diameter is not None:
        return polygon._diameter
    grid = polygon.grid
    d, xs, ys = grid
    best_d2 = -1
    best = (0, 1)
    for i, j in _antipodal_pairs(grid):
        if i == j:
            continue
        key = (i, j) if i < j else (j, i)
        dx, dy = xs[i] - xs[j], ys[i] - ys[j]
        d2 = dx * dx + dy * dy
        if d2 > best_d2 or (d2 == best_d2 and key < best):
            best_d2, best = d2, key
    i, j = best
    ring = polygon.ring
    result = (_root(best_d2, d * d, ring[i], ring[j]), ring[i], ring[j])
    object.__setattr__(polygon, "_diameter", result)
    return result


def _threshold(r: int, p: float, d: float) -> float:
    """s from the perimeter p and the diameter d: r*p/2 for even r,
    (r-1)*p/2 + d for odd r."""
    if r % 2 == 0:
        return r * p / 2.0
    return (r - 1) * p / 2.0 + d


def s_bound(body: ConvexPolygon, r: int) -> float:
    """Threshold length s(K, r); the diameter is computed only for odd r."""
    if r < 2:
        raise PreconditionError("the multiplicity budget r must be at least 2")
    return _threshold(r, perimeter(body), diameter(body)[0] if r % 2 else 0.0)


def width(polygon: ConvexPolygon, alpha: float) -> float:
    """Length of the projection of the polygon onto the direction-alpha line.

    Evaluated from vertex projection extremes; pi-periodic in alpha.
    """
    c, s = math.cos(alpha), math.sin(alpha)
    dots = [c * x + s * y for x, y in polygon.float_ring()]
    return max(dots) - min(dots)


def contains(polygon: ConvexPolygon, p: Point) -> str:
    """Classify a point against the polygon with exact edge turns.

    The ring's view (D, X, Y) and the point's own view (q, x, y) meet on the
    common scale D·q: the ring at X·q, Y·q and the point at x·D, y·D."""
    q, (x,), (y,) = _grid_of((p,))
    d, xs, ys = _scaled_ring(polygon, q)
    xs[-1], ys[-1] = x * d, y * d
    return _classify(xs, ys)


def _scaled_ring(polygon: ConvexPolygon, q: int) -> tuple[int, list[int], list[int]]:
    """D and the ring's integer view times q, with one free slot at the end
    for a query point, which goes there times D."""
    d, xs, ys = polygon.grid
    return d, [v * q for v in xs] + [0], [v * q for v in ys] + [0]


def _classify(xs: list[int], ys: list[int]) -> str:
    """INTERIOR, BOUNDARY or EXTERIOR of the last point of a scaled ring."""
    n = len(xs) - 1
    on_edge = False
    for i in range(n):
        side = _turn(xs, ys, i, (i + 1) % n, n)
        if side == RIGHT:
            return EXTERIOR
        if side == COLLINEAR:
            on_edge = True
    return BOUNDARY if on_edge else INTERIOR


def _turns_both_ways(ring: Polyline) -> bool:
    """Whether a closed ring turns left at some vertex and right at another."""
    _, xs, ys = ring.grid
    n = len(xs)
    turns = {_turn(xs, ys, i, (i + 1) % n, (i + 2) % n) for i in range(n)}
    return LEFT in turns and RIGHT in turns


def _convex_run(xs: Sequence[int], ys: Sequence[int], i: int, k: int) -> bool:
    """Whether the vertices i..k of an integer view, closed by the chord
    k → i, bound a strictly convex polygon: every turn, the two at the
    chord's ends included, strict and of one sign, and the edge directions
    winding exactly once.  A line then meets the boundary in at most two
    points or one edge, so it meets the open run i..k in at most two
    components.

    The winding is counted in ints against the half-line of direction
    (1, 0): a direction is upper when dy > 0, or dy = 0 < dx, and lower
    otherwise.  A strict turn is less than π, so it crosses that half-line
    or its opposite at most once, and the run winds once exactly when its
    directions change from lower to upper once round the polygon."""
    if k - i < 2:
        return False
    dx = [xs[j + 1] - xs[j] for j in range(i, k)] + [xs[i] - xs[k]]
    dy = [ys[j + 1] - ys[j] for j in range(i, k)] + [ys[i] - ys[k]]
    # the turn at the start of edge j, from edge j - 1 (the chord for j = 0)
    crosses = [dx[j - 1] * dy[j] - dy[j - 1] * dx[j] for j in range(len(dx))]
    if not (all(c > 0 for c in crosses) or all(c < 0 for c in crosses)):
        return False
    upper = [y > 0 or (y == 0 and x > 0) for x, y in zip(dx, dy)]
    return sum(up and not upper[j - 1] for j, up in enumerate(upper)) == 1


def _inside(poly: Polyline, body: ConvexPolygon) -> bool:
    """Whether no vertex of the polyline lies outside the body, on the
    polyline's own integer view: the ring is scaled once per call."""
    q, pxs, pys = poly.grid
    d, xs, ys = _scaled_ring(body, q)
    for x, y in zip(pxs, pys):
        xs[-1], ys[-1] = x * d, y * d
        if _classify(xs, ys) == EXTERIOR:
            return False
    return True


def _require_inside(poly: Polyline, body: ConvexPolygon) -> None:
    """Refuse a polyline with a vertex outside the body (`_inside`)."""
    if not _inside(poly, body):
        raise PreconditionError("polyline is not contained in the body")


def _hull_indices(xs: Sequence[int], ys: Sequence[int]) -> list[int]:
    """Monotone chain on an integer view: the indices of the counterclockwise
    convex hull's vertices, the first index of each distinct point, with
    collinear boundary points dropped.  Raises DegeneracyError when the
    points span no area (fewer than 3 distinct points, or all collinear)."""
    first: dict[tuple[int, int], int] = {}
    for i, key in enumerate(zip(xs, ys)):
        first.setdefault(key, i)
    pts = [first[key] for key in sorted(first)]
    if len(pts) < 3:
        raise DegeneracyError("convex hull needs at least 3 distinct points")

    def half(chain_pts: list[int]) -> list[int]:
        chain: list[int] = []
        for p in chain_pts:
            while len(chain) >= 2 and _turn(xs, ys, chain[-2], chain[-1], p) != LEFT:
                chain.pop()
            chain.append(p)
        return chain

    ring = half(pts)[:-1] + half(pts[::-1])[:-1]
    if len(ring) < 3:
        raise DegeneracyError("points are collinear; hull is degenerate")
    return ring


def convex_hull(points: Sequence[Point]) -> ConvexPolygon:
    """Counterclockwise convex hull with collinear boundary points dropped.

    Sorts, deduplicates and turns on the points' integer view
    (`_hull_indices`).  Raises DegeneracyError when the input spans no area
    (fewer than 3 distinct points, or all collinear).
    """
    _, xs, ys = _grid_of(points)
    return ConvexPolygon(tuple(points[i] for i in _hull_indices(xs, ys)))


@dataclass(frozen=True)
class Line:
    """Oriented straight line nx*x + ny*y = c with exact rational coefficients.

    The normal (nx, ny) is generally not unit length (unit normals of
    rational lines are irrational); unit() gives a normalized
    double-precision view.
    """

    nx: Fraction
    ny: Fraction
    c: Fraction

    def __post_init__(self):
        object.__setattr__(self, "nx", to_fraction(self.nx))
        object.__setattr__(self, "ny", to_fraction(self.ny))
        object.__setattr__(self, "c", to_fraction(self.c))
        if self.nx == 0 and self.ny == 0:
            raise PreconditionError("line normal must be nonzero")

    @classmethod
    def from_points(cls, p: Point, q: Point) -> "Line":
        """The line through two distinct points; its LEFT side is the left of p->q."""
        if p == q:
            raise PreconditionError("two distinct points are required")
        nx = -(q.y - p.y)
        ny = q.x - p.x
        return cls(nx, ny, nx * p.x + ny * p.y)

    def unit(self) -> tuple[float, float, float]:
        """(nx, ny, c) scaled to a unit normal, in doubles.

        The coefficients are first divided exactly by max(|nx|, |ny|), so the
        normal converts within double range whatever its size; an offset
        that still lies beyond it raises PreconditionError.
        """
        big = max(abs(self.nx), abs(self.ny))
        nx, ny = float(self.nx / big), float(self.ny / big)
        try:
            c = float(self.c / big)
        except OverflowError:
            raise PreconditionError("a line offset lies beyond double range") from None
        scale = math.hypot(nx, ny)
        return (nx / scale, ny / scale, c / scale)

    def along(self, p: Point) -> Fraction:
        """Exact coordinate of p along the line direction (ny, -nx).

        Restricted to points on the line this is an injective affine chart
        (increasing from p to q for from_points lines), which is all interval
        bookkeeping needs; it is not arc length.
        """
        return self.ny * p.x - self.nx * p.y
