import json
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from konvex.errors import ParseError, PreconditionError
from konvex.formats import (
    fraction_to_str,
    line_from_dict,
    line_to_dict,
    multiplicity_report_from_dict,
    multiplicity_report_to_dict,
    parse_polygon,
    parse_polyline,
    serialize_polygon,
    serialize_polyline,
    to_json,
)
from konvex.geometry import ConvexPolygon, Line, Point, Polyline
from konvex.random_shapes import random_convex_polygon, random_star_ring, random_walk_polyline
from konvex.stabbing import line_multiplicity, max_line_multiplicity

SQUARE = ConvexPolygon((Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)))


class TestFractionStrings:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (Fraction(0), "0"),
            (Fraction(5), "5"),
            (Fraction(-3), "-3"),
            (Fraction(1, 10), "0.1"),
            (Fraction(-1, 8), "-0.125"),
            (Fraction(1, 10**9), "0.000000001"),
            (Fraction(1, 3), "1/3"),
            (Fraction(22, 7), "22/7"),
        ],
    )
    def test_formatting(self, value, expected):
        assert fraction_to_str(value) == expected

    @pytest.mark.parametrize(
        "value",
        [Fraction(0), Fraction(7, 25), Fraction(-9, 64), Fraction(1, 3), Fraction(0.1)],
    )
    def test_round_trip(self, value):
        assert Fraction(fraction_to_str(value)) == value


class TestPolylineFormat:
    def test_parse_square_header(self):
        poly = parse_polyline("closed\n0 0\n1 0\n1 1\n0 1\n")
        assert poly.closed
        assert poly.vertices == SQUARE.ring

    def test_parse_open_segment(self):
        poly = parse_polyline("open\n0 0\n1 0\n")
        assert not poly.closed and len(poly) == 2

    def test_comments_and_blanks_ignored(self):
        poly = parse_polyline("# a polyline\nopen\n\n0 0  # origin\n1 0\n")
        assert len(poly) == 2

    def test_round_trip_bit_exact(self):
        for seed in range(5):
            poly = random_walk_polyline(seed, SQUARE, n_segments=7)
            again = parse_polyline(serialize_polyline(poly))
            assert again == poly

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse_polyline("0 0\n1 0\n")

    def test_bad_coordinate_reports_line_number(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_polyline("open\n0 0\n1 q\n")

    def test_wrong_token_count(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_polyline("open\n0 0 0\n1 1\n")


def fraction_parse_polyline(text: str) -> Polyline:
    """`parse_polyline` with every coordinate read by `Fraction` into a
    `Point`, as it was before it read plain decimals straight to ints."""
    rows = [(no, raw.split("#", 1)[0].strip()) for no, raw in enumerate(text.splitlines(), 1)]
    rows = [(no, row) for no, row in rows if row]
    head_no, head = rows[0]
    assert head in ("open", "closed")
    points = []
    for line_no, row in rows[1:]:
        tokens = row.split()
        if len(tokens) != 2:
            raise ParseError(f"expected 'x y', got {row!r}", line_no)
        coords = []
        for token in tokens:
            try:
                coords.append(Fraction(token))
            except (ValueError, ZeroDivisionError):
                raise ParseError(f"bad coordinate {token!r}", line_no) from None
        points.append(Point(*coords))
    try:
        return Polyline(tuple(points), closed=(head == "closed"))
    except PreconditionError as exc:
        raise ParseError(str(exc)) from exc


# tokens `Fraction` reads or refuses, a few of each kind, and plain decimals
odd_tokens = st.sampled_from([
    "-0", "+0", "0.0", "-0.000", ".5", "-.5", "5.", "1e3", "1E-9", "1_0", "1_000.5",
    "+7", "007.250", "3/7", "-22/7", "1/0", "0/5", "nan", "inf", "0x10", "1.2.3",
    "--1", "1,5", "\u0661\u0662", "\u0661.5", "1/2.5", "abc", ".", "-", "+", "-.", "+.",
])
plain_decimals = st.from_regex(r"[-+]?[0-9]{1,12}(\.[0-9]{1,12})?", fullmatch=True)
coordinate_tokens = st.one_of(odd_tokens, plain_decimals, st.integers(-3, 3).map(str))


class TestGridParse:
    @settings(max_examples=400, deadline=None)
    @given(
        st.sampled_from(["open", "closed"]),
        st.lists(st.tuples(coordinate_tokens, coordinate_tokens), min_size=0, max_size=6),
        st.data(),
    )
    def test_same_polyline_and_errors_as_the_fraction_parse(self, head, rows, data):
        if rows and data.draw(st.booleans()):  # repeat a row: a repeated vertex
            rows.insert(data.draw(st.integers(0, len(rows))), data.draw(st.sampled_from(rows)))
        text = "\n".join([head] + [f"{x} {y}" for x, y in rows]) + "\n"
        try:
            expected = fraction_parse_polyline(text)
        except ParseError as exc:
            with pytest.raises(ParseError) as err:
                parse_polyline(text)
            assert (str(err.value), err.value.line) == (str(exc), exc.line)
            return
        poly = parse_polyline(text)
        assert poly == expected and poly.closed == expected.closed and poly.grid == expected.grid
        assert serialize_polyline(poly) == serialize_polyline(expected)
        assert serialize_polyline(poly) == fraction_serialize_polyline(expected)

    def test_plain_decimals_make_no_fraction(self, monkeypatch):
        text = "open\n-0 0.5\n0.125 -3\n+2.50 1\n"

        def refuse(*args, **kwargs):
            raise AssertionError("a Fraction was made")

        monkeypatch.setattr(Fraction, "__new__", refuse)
        poly = parse_polyline(text)
        out = serialize_polyline(poly)
        monkeypatch.undo()
        assert poly.grid == (8, (0, 1, 20), (4, -24, 8))
        assert out == "open\n0 0.5\n0.125 -3\n2.5 1\n"


    @pytest.mark.parametrize(
        "den, xs, ys, text",
        [
            (30, (3, 1, 0), (30, -45, 10), "0.1 1\n1/30 -1.5\n0 1/3\n"),
            (8, (-1, 0, 16), (4, -24, 1), "-0.125 0.5\n0 -3\n2 0.125\n"),
            (10**9, (10**9, -5, 7), (0, 2 * 10**8, -(10**12)), "1 0\n-0.000000005 0.2\n0.000000007 -1000\n"),
        ],
    )
    def test_serialize_from_the_grid(self, den, xs, ys, text):
        poly = Polyline.from_grid(den, xs, ys)
        assert serialize_polyline(poly) == "open\n" + text == fraction_serialize_polyline(poly)


def fraction_serialize_polyline(poly: Polyline) -> str:
    """`serialize_polyline` through each vertex's `Fraction` coordinates."""
    lines = ["closed" if poly.closed else "open"]
    lines += [f"{fraction_to_str(v.x)} {fraction_to_str(v.y)}" for v in poly.vertices]
    return "\n".join(lines) + "\n"


class TestPolygonFormat:
    def test_parse_square(self):
        assert parse_polygon("0 0\n1 0\n1 1\n0 1\n") == SQUARE

    def test_round_trip(self):
        assert parse_polygon(serialize_polygon(SQUARE)) == SQUARE

    def test_collinear_triple_rejected(self):
        with pytest.raises(ParseError, match="convex"):
            parse_polygon("0 0\n1 0\n2 0\n1 1\n")

    def test_open_header_rejected(self):
        with pytest.raises(ParseError):
            parse_polygon("open\n0 0\n1 0\n1 1\n")

    def test_exponent_and_ratio_coordinates(self):
        poly = parse_polygon("0 0\n1 0\n1/2 1e-0\n")
        assert poly.ring[2] == Point(Fraction(1, 2), 1)


class TestReportJson:
    def test_line_round_trip(self):
        line = Line.from_points(Point("0.1", "0.2"), Point("3", "-1/3"))
        assert line_from_dict(line_to_dict(line)) == line

    def test_report_round_trip_replays(self):
        poly = random_walk_polyline(3, SQUARE, n_segments=9)
        rep = max_line_multiplicity(poly)
        doc = multiplicity_report_to_dict(rep)
        back = multiplicity_report_from_dict(doc)
        assert back.count == rep.count
        assert back.witness == rep.witness
        assert line_multiplicity(back.witness, poly).count == rep.count

    def test_json_text_round_trip(self):
        poly = random_walk_polyline(8, SQUARE, n_segments=6)
        rep = max_line_multiplicity(poly)
        text = to_json(rep)
        back = multiplicity_report_from_dict(json.loads(text))
        assert back.witness == rep.witness


# ---------------------------------------------------------------------------
# round trips, bit for bit
# ---------------------------------------------------------------------------

# exact decimals, other rationals, dyadic rationals of doubles, and huge and
# tiny magnitudes
rationals = st.one_of(
    st.integers(-(10**12), 10**12).map(lambda n: Fraction(n, 10**9)),
    st.fractions(max_denominator=10**6),
    st.floats(allow_nan=False, allow_infinity=False).map(Fraction),
    st.builds(lambda m, e: m * Fraction(10) ** e, st.integers(-9, 9), st.integers(-400, 400)),
)


@st.composite
def polylines(draw):
    raw = draw(st.lists(st.tuples(rationals, rationals), min_size=2, max_size=12))
    verts = [Point(x, y) for i, (x, y) in enumerate(raw) if i == 0 or (x, y) != raw[i - 1]]
    assume(len(verts) >= 2)
    closed = draw(st.booleans()) and len(verts) >= 3 and verts[0] != verts[-1]
    return Polyline(tuple(verts), closed)


@st.composite
def polygons(draw):
    """Random convex polygons, moved by an exact rational scale and shift."""
    base = random_convex_polygon(draw(st.integers(0, 10**6)), draw(st.integers(3, 20)))
    scales = [Fraction(1), Fraction(1, 3), Fraction(10) ** 30, Fraction(7, 10**12)]
    scale = draw(st.sampled_from(scales))
    shift = draw(rationals)
    return ConvexPolygon(tuple(Point(v.x * scale + shift, v.y * scale - shift) for v in base.ring))


lines = st.tuples(rationals, rationals, rationals).filter(lambda t: t[0] or t[1]).map(
    lambda t: Line(*t)
)


def _bits(report):
    return (
        report.count,
        report.method,
        report.witness,
        [(c.segments, c.kind, [v.hex() for v in (*c.start, *c.end)]) for c in report.components],
    )


class TestRoundTrips:
    @settings(max_examples=300, deadline=None)
    @given(polylines())
    def test_polyline(self, poly):
        text = serialize_polyline(poly)
        back = parse_polyline(text)
        assert back == poly and back.closed == poly.closed and back.grid == poly.grid
        assert back.vertices == poly.vertices
        assert serialize_polyline(back) == text

    @settings(max_examples=100, deadline=None)
    @given(polygons())
    def test_polygon(self, polygon):
        text = serialize_polygon(polygon)
        back = parse_polygon(text)
        assert back == polygon and back.ring == polygon.ring
        assert serialize_polygon(back) == text

    @settings(max_examples=300, deadline=None)
    @given(lines)
    def test_line(self, line):
        back = line_from_dict(line_to_dict(line))
        assert (back.nx, back.ny, back.c) == (line.nx, line.ny, line.c)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10**6), st.booleans(), lines)
    def test_report(self, seed, ring, line):
        poly = random_star_ring(seed, SQUARE, 9) if ring else random_walk_polyline(seed, SQUARE, 8)
        for report in (line_multiplicity(line, poly), max_line_multiplicity(poly)):
            doc = multiplicity_report_to_dict(report)
            back = multiplicity_report_from_dict(doc)
            assert back == report and _bits(back) == _bits(report)
            text = multiplicity_report_from_dict(json.loads(json.dumps(doc)))
            assert _bits(text) == _bits(report)
