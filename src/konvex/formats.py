"""Text and JSON serialization for geometry and reports.

Geometry files are line based: one `x y` pair per line, `#` starts a
comment, and polylines carry an `open`/`closed` header (polygon files have
no header).  Coordinates are written as exact decimal strings whenever the
value has a finite decimal expansion, falling back to `p/q`; both forms
parse back to the identical rational, so serialize/parse round-trips are
bit-exact.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from typing import Iterable

from .builder import ConstructionParams, ConstructionResult
from .errors import ParseError, PreconditionError
from .geometry import ConvexPolygon, Line, Point, Polyline
from .stabbing import Component, MultiplicityReport
from .verifier import BoundReport, Prop1Result


def fraction_to_str(value: Fraction) -> str:
    """Exact decimal string when the denominator is 2^a 5^b, else 'p/q'."""
    return _ratio_to_str(value.numerator, value.denominator)


def _ratio_to_str(num: int, den: int) -> str:
    """`fraction_to_str` of num/den, in lowest terms with den > 0."""
    digits = _decimal_digits(den)
    if digits is None:
        return f"{num}/{den}"
    return _decimal_to_str(num * 10**digits // den, digits)


def _decimal_digits(den: int) -> int | None:
    """The least k with den dividing 10^k, or None when den has a prime
    factor other than 2 and 5."""
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    return max(twos, fives) if den == 1 else None


def _decimal_to_str(scaled: int, digits: int) -> str:
    """The exact decimal scaled / 10^digits, its trailing zeros dropped."""
    if digits == 0:
        return str(scaled)
    sign = "-" if scaled < 0 else ""
    body = str(abs(scaled)).rjust(digits + 1, "0")
    out = f"{sign}{body[:-digits]}.{body[-digits:]}".rstrip("0").rstrip(".")
    return out if out not in ("", "-") else "0"


def _parse_coordinate(token: str, line_no: int) -> Fraction:
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad coordinate {token!r}", line_no) from exc


# a plain decimal, read straight to ints: the digits and 10^(digits after the point)
_DECIMAL = re.compile(r"[-+]?[0-9]+(\.[0-9]+)?")


def _parse_ratio(token: str, line_no: int) -> tuple[int, int]:
    """A coordinate token as an int pair (p, q), q > 0, with value p/q: a
    plain decimal with no `Fraction` made, any other token by `Fraction`."""
    if _DECIMAL.fullmatch(token):
        whole, _, frac = token.partition(".")
        return int(whole + frac), 10 ** len(frac)
    return _parse_coordinate(token, line_no).as_integer_ratio()


def _content_lines(text: str) -> Iterable[tuple[int, str]]:
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            yield line_no, stripped


def _parse_points(rows: list[tuple[int, str]]) -> list[Point]:
    points = []
    for line_no, row in rows:
        tokens = row.split()
        if len(tokens) != 2:
            raise ParseError(f"expected 'x y', got {row!r}", line_no)
        points.append(
            Point(_parse_coordinate(tokens[0], line_no), _parse_coordinate(tokens[1], line_no))
        )
    return points


def parse_polyline(text: str) -> Polyline:
    rows = list(_content_lines(text))
    if not rows:
        raise ParseError("empty polyline file")
    head_no, head = rows[0]
    if head not in ("open", "closed"):
        raise ParseError(f"expected header 'open' or 'closed', got {head!r}", head_no)
    ratios = []
    for line_no, row in rows[1:]:
        tokens = row.split()
        if len(tokens) != 2:
            raise ParseError(f"expected 'x y', got {row!r}", line_no)
        ratios += [_parse_ratio(tokens[0], line_no), _parse_ratio(tokens[1], line_no)]
    # the integer view over the lcm of the denominators; from_grid reduces it
    den = math.lcm(*(q for _, q in ratios))
    scaled = [p * (den // q) for p, q in ratios]
    try:
        return Polyline.from_grid(den, scaled[0::2], scaled[1::2], closed=(head == "closed"))
    except PreconditionError as exc:
        raise ParseError(str(exc)) from exc


def serialize_polyline(poly: Polyline) -> str:
    """Each coordinate X/D written from the integer view (D, X, Y) with the
    bytes of `fraction_to_str`.  When D divides 10^k, every coordinate is
    written with k digits, from which the trailing zeros drop: the decimal
    of X/D in lowest terms."""
    d, xs, ys = poly.grid
    digits = _decimal_digits(d)
    if digits is None:

        def text(v: int) -> str:
            g = math.gcd(v, d)
            return _ratio_to_str(v // g, d // g)

    else:
        scale = 10**digits // d

        def text(v: int) -> str:
            return _decimal_to_str(v * scale, digits)

    lines = ["closed" if poly.closed else "open"]
    lines += [f"{text(x)} {text(y)}" for x, y in zip(xs, ys)]
    return "\n".join(lines) + "\n"


def parse_polygon(text: str) -> ConvexPolygon:
    rows = list(_content_lines(text))
    if rows and rows[0][1] == "closed":  # tolerated header
        rows = rows[1:]
    if rows and rows[0][1] == "open":
        raise ParseError("a polygon file cannot be 'open'", rows[0][0])
    points = _parse_points(rows)
    try:
        return ConvexPolygon(tuple(points))
    except PreconditionError as exc:
        raise ParseError(f"not a strictly convex counterclockwise ring: {exc}") from exc


def serialize_polygon(polygon: ConvexPolygon) -> str:
    lines = [f"{fraction_to_str(v.x)} {fraction_to_str(v.y)}" for v in polygon.ring]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# JSON documents
# ---------------------------------------------------------------------------


def line_to_dict(line: Line) -> dict:
    return {
        "nx": fraction_to_str(line.nx),
        "ny": fraction_to_str(line.ny),
        "c": fraction_to_str(line.c),
    }


def line_from_dict(doc: dict) -> Line:
    try:
        return Line(Fraction(doc["nx"]), Fraction(doc["ny"]), Fraction(doc["c"]))
    except OverflowError as exc:
        raise ParseError(f"line coefficients must be finite: {exc}") from exc


def multiplicity_report_to_dict(report: MultiplicityReport) -> dict:
    return {
        "count": report.count,
        "method": report.method,
        "witness": line_to_dict(report.witness),
        "components": [
            {
                "segments": list(c.segments),
                "kind": c.kind,
                "start": list(c.start),
                "end": list(c.end),
            }
            for c in report.components
        ],
    }


def multiplicity_report_from_dict(doc: dict) -> MultiplicityReport:
    components = tuple(
        Component(tuple(c["segments"]), tuple(c["start"]), tuple(c["end"]))
        for c in doc["components"]
    )
    return MultiplicityReport(
        doc["count"], line_from_dict(doc["witness"]), doc["method"], components
    )


def _jsonable(value):
    if isinstance(value, Line):
        return line_to_dict(value)
    if isinstance(value, MultiplicityReport):
        return multiplicity_report_to_dict(value)
    if isinstance(value, BoundReport):
        return {
            "r": value.r,
            "perimeter": value.perimeter,
            "diameter": value.diameter,
            "s": value.s,
            "side": value.side,
            "evidence": _jsonable(value.evidence),
        }
    if isinstance(value, Prop1Result):
        return {
            "convex": value.convex,
            "max_mult": value.max_mult,
            "consistent": value.consistent,
            "report": multiplicity_report_to_dict(value.report),
        }
    if isinstance(value, ConstructionResult):
        return {
            "achieved_length": value.achieved_length,
            "target": value.target,
            "eps": value.params.eps,
            "retries_used": value.retries_used,
            "multiplicity": multiplicity_report_to_dict(value.multiplicity),
            "params": _jsonable(value.params),
            "vertices": len(value.curve),
        }
    if isinstance(value, ConstructionParams):
        return {
            "r": value.r,
            "eps": value.eps,
            "m": value.m,
            "seed": value.seed,
            "max_retries": value.max_retries,
        }
    if isinstance(value, Fraction):
        return fraction_to_str(value)
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def to_json(value) -> str:
    return json.dumps(_jsonable(value), indent=2, sort_keys=True)
