"""Exact `Fraction` references that only the tests use: the cross product,
the squared distance, a line's value and side at a point, a line from a direction and an offset,
exact rational rigid motions, the quadratic diameter scan and the sweep's
re-shift test.

They compute on the points' `Fraction` coordinates directly, so they stay
independent of the integer views that the library decides on.
"""

from __future__ import annotations

import math
from fractions import Fraction

from konvex.errors import PreconditionError
from konvex.geometry import (
    COLLINEAR,
    LEFT,
    RIGHT,
    Coordinate,
    ConvexPolygon,
    Line,
    Point,
    _root,
    to_fraction,
)


def cross(o: Point, a: Point, b: Point) -> Fraction:
    """Exact cross product (a - o) x (b - o); twice the signed triangle area."""
    return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)


def dist_sq(a: Point, b: Point) -> Fraction:
    """Exact squared distance."""
    dx = a.x - b.x
    dy = a.y - b.y
    return dx * dx + dy * dy


def value_at(line: Line, p: Point) -> Fraction:
    """nx*x + ny*y - c at p."""
    return line.nx * p.x + line.ny * p.y - line.c


def side_of(line: Line, p: Point) -> int:
    """Exact sign of nx*x + ny*y - c at p: LEFT, RIGHT or COLLINEAR (on line)."""
    v = value_at(line, p)
    if v > 0:
        return LEFT
    if v < 0:
        return RIGHT
    return COLLINEAR


def line_from_direction_offset(alpha: float, offset: float) -> Line:
    """Points x with <(cos a, sin a), x> = offset: the line perpendicular
    to direction alpha at signed distance offset along it."""
    return Line(Fraction(math.cos(alpha)), Fraction(math.sin(alpha)), Fraction(offset))


def rigid_motion(
    p: Point, cos_t: Coordinate, sin_t: Coordinate, shift: tuple[Coordinate, Coordinate]
) -> Point:
    """Rotate by an exact rational rotation (cos_t^2 + sin_t^2 must be 1) then translate.

    Rational rotations (e.g. cos 3/5, sin 4/5) preserve all exact predicates
    and all distances, so motion-invariance checks can compare exactly.
    """
    c = to_fraction(cos_t)
    s = to_fraction(sin_t)
    if c * c + s * s != 1:
        raise PreconditionError("not an exact rotation: cos^2 + sin^2 != 1")
    dx = to_fraction(shift[0])
    dy = to_fraction(shift[1])
    return Point(c * p.x - s * p.y + dx, s * p.x + c * p.y + dy)


def diameter_bruteforce(polygon: ConvexPolygon) -> tuple[float, Point, Point]:
    """O(n^2) exact pair scan; the independent oracle for diameter()."""
    ring = polygon.ring
    best_d2 = Fraction(-1)
    best = (0, 1)
    for i in range(len(ring)):
        for j in range(i + 1, len(ring)):
            d2 = dist_sq(ring[i], ring[j])
            if d2 > best_d2:
                best_d2 = d2
                best = (i, j)
    i, j = best
    return (
        _root(best_d2.numerator, best_d2.denominator, ring[i], ring[j]), ring[i], ring[j]
    )


def fraction_accidental(report, poly) -> bool:
    """Whether a component of the report merges crossings of edges on
    different lines, by `Fraction` cross products of the vertices."""
    verts = poly.vertices
    n = len(verts)
    for comp in report.components:
        first = comp.segments[0]
        a, b = verts[first], verts[(first + 1) % n]
        for seg in comp.segments[1:]:
            if cross(a, b, verts[seg]) or cross(a, b, verts[(seg + 1) % n]):
                return True
    return False
