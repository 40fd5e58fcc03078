"""Direction-wise projection lengths and the Cauchy/Crofton integral identities.

For a polyline with segment lengths l_i and axis angles a_i, the projected
length onto the direction-alpha line is

    l(alpha) = sum_i l_i * |cos(alpha - a_i)|,

and for a convex polygon k(alpha) is the width of its projection.  Since
each |cos| integrates to 4 over a full turn, integrating l and k recovers
4 * total length and 2 * perimeter respectively; the quadrature modes here
exist to check exactly that against the closed forms.  `segment_data` and
`chord_term` also supply the (weight, angle) terms from which
`stabbing.projection_witness` maximizes the proof's margin in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .geometry import ConvexPolygon, Polyline, Segment, perimeter, polyline_length

CLOSED_FORM = "closed_form"
QUADRATURE = "quadrature"

_ALPHA_CHUNK = 16384  # quadrature block size, keeps the cos matrix small


def segment_data(poly: Polyline) -> tuple[np.ndarray, np.ndarray]:
    """(lengths, axis angles) per segment, zero-length segments skipped."""
    lengths = []
    angles = []
    for seg in poly.segments():
        if seg.degenerate:
            continue
        lengths.append(seg.length())
        angles.append(seg.angle())
    return np.asarray(lengths), np.asarray(angles)


def projection_length(poly: Polyline, alpha: float) -> float:
    """Projected length of the polyline onto the direction-alpha line."""
    lengths, angles = segment_data(poly)
    return float(np.abs(np.cos(alpha - angles)) @ lengths)


def projection_length_samples(poly: Polyline, alphas: np.ndarray) -> np.ndarray:
    """Vectorized projection_length over an array of angles."""
    lengths, angles = segment_data(poly)
    out = np.empty(len(alphas))
    for start in range(0, len(alphas), _ALPHA_CHUNK):
        block = alphas[start : start + _ALPHA_CHUNK, None]
        out[start : start + _ALPHA_CHUNK] = np.abs(np.cos(block - angles[None, :])) @ lengths
    return out


def width_samples(polygon: ConvexPolygon, alphas: np.ndarray) -> np.ndarray:
    """Vectorized width over an array of angles (vertex projection extremes)."""
    pts = np.asarray(polygon.float_ring())
    out = np.empty(len(alphas))
    for start in range(0, len(alphas), _ALPHA_CHUNK):
        block = alphas[start : start + _ALPHA_CHUNK]
        proj = np.cos(block)[:, None] * pts[None, :, 0] + np.sin(block)[:, None] * pts[None, :, 1]
        out[start : start + _ALPHA_CHUNK] = proj.max(axis=1) - proj.min(axis=1)
    return out


def _midpoint_angles(panels: int) -> np.ndarray:
    if panels < 4:
        raise PreconditionError(f"invalid panel count {panels}; need at least 4")
    h = 2.0 * math.pi / panels
    return (np.arange(panels) + 0.5) * h


def cauchy_width_integral(
    polygon: ConvexPolygon, mode: str = CLOSED_FORM, panels: int = 100_000
) -> float:
    """Integral of the width profile k over a full turn.

    closed_form evaluates it as 2 * perimeter, which is what summing the
    per-edge |cos| integrals of k(alpha) = 1/2 sum_i l_i |cos(alpha - a_i)|
    gives; quadrature(panels) is a composite midpoint estimate of the same
    integral from direct width samples.
    """
    if mode == CLOSED_FORM:
        return 2.0 * perimeter(polygon)
    if mode == QUADRATURE:
        alphas = _midpoint_angles(panels)
        return float(width_samples(polygon, alphas).sum()) * (2.0 * math.pi / panels)
    raise PreconditionError(f"unknown mode {mode!r}")


def crofton_length(
    poly: Polyline, mode: str = CLOSED_FORM, panels: int = 100_000
) -> float:
    """Length recovered as one quarter of the projected-length integral."""
    if mode == CLOSED_FORM:
        return polyline_length(poly)
    if mode == QUADRATURE:
        alphas = _midpoint_angles(panels)
        return float(projection_length_samples(poly, alphas).sum()) * (
            2.0 * math.pi / panels
        ) / 4.0
    raise PreconditionError(f"unknown mode {mode!r}")


@dataclass(frozen=True)
class ChordTerm:
    """Length and axis angle of the segment joining an open polyline's ends."""

    l0: float
    alpha0: float


def chord_term(poly: Polyline) -> ChordTerm:
    """Endpoint chord of an open polyline; zero length by convention when the
    ends coincide (alpha0 = 0)."""
    if poly.closed:
        raise PreconditionError("chord_term is defined for open polylines")
    chord = Segment(poly.vertices[0], poly.vertices[-1])
    l0 = chord.length()
    if l0 == 0.0:
        return ChordTerm(0.0, 0.0)
    return ChordTerm(l0, chord.angle())
