from fractions import Fraction

import pytest

from konvex.errors import ParseError
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
from konvex.geometry import ConvexPolygon, Line, Point
from konvex.random_shapes import random_walk_polyline
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
        import json

        poly = random_walk_polyline(8, SQUARE, n_segments=6)
        rep = max_line_multiplicity(poly)
        text = to_json(rep)
        back = multiplicity_report_from_dict(json.loads(text))
        assert back.witness == rep.witness
