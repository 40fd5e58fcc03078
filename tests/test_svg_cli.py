import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from konvex import cli
from konvex.builder import ConstructionParams, build_curve
from konvex.cli import main
from konvex.errors import PreconditionError
from konvex.formats import serialize_polygon, serialize_polyline
from konvex.geometry import ConvexPolygon, Line, Point, Polyline, s_bound
from konvex.svg import SceneDocument, emit_svg, load_scene, render_svg

SQUARE = ConvexPolygon((Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)))


class TestSvg:
    def test_empty_scene_rejected(self):
        with pytest.raises(PreconditionError):
            render_svg(SceneDocument())

    def test_single_line_scene(self):
        scene = SceneDocument(lines=[("cut", Line(0, 1, "0.5"))])
        out = render_svg(scene)
        assert out.startswith("<?xml")
        assert "<line " in out

    def test_deterministic_output(self, tmp_path):
        result = build_curve(SQUARE, ConstructionParams(r=5, eps=0.5, m=64, seed=3))
        scene = SceneDocument(
            body=SQUARE,
            curves=[("extremal", result.curve)],
            lines=[("witness", result.multiplicity.witness)],
            annotations=[(0.05, 1.05, "r=5")],
        )
        a = tmp_path / "a.svg"
        b = tmp_path / "b.svg"
        emit_svg(scene, a)
        emit_svg(scene, b)
        assert a.read_bytes() == b.read_bytes()
        text = a.read_text()
        assert "<polygon" in text and "<polyline" in text and "<text" in text

    def test_duplicate_labels_rejected(self):
        with pytest.raises(PreconditionError):
            SceneDocument(
                lines=[("x", Line(0, 1, 0)), ("x", Line(1, 0, 0))],
            )

    def test_scene_loading(self, tmp_path):
        (tmp_path / "body.txt").write_text(serialize_polygon(SQUARE))
        curve = Polyline((Point(0, 0), Point("0.5", "0.5"), Point(1, 0)))
        (tmp_path / "curve.txt").write_text(serialize_polyline(curve))
        scene_doc = {
            "body": "body.txt",
            "curves": [{"file": "curve.txt", "label": "walk"}],
            "lines": [{"nx": "0", "ny": "1", "c": "0.25", "label": "cut"}],
            "annotations": [{"at": [0.5, 1.1], "text": "demo"}],
        }
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(json.dumps(scene_doc))
        scene = load_scene(scene_path)
        assert scene.body == SQUARE
        assert scene.curves[0][1] == curve
        out = tmp_path / "out.svg"
        emit_svg(scene, out)
        assert out.read_text().startswith("<?xml")


@pytest.fixture
def square_file(tmp_path):
    path = tmp_path / "square.txt"
    path.write_text(serialize_polygon(SQUARE))
    return str(path)


@pytest.fixture
def ring_file(tmp_path):
    path = tmp_path / "ring.txt"
    path.write_text(serialize_polyline(SQUARE.as_polyline()))
    return str(path)


class TestCli:
    def test_bound(self, square_file, capsys):
        assert main(["bound", square_file, "3"]) == 0
        out = capsys.readouterr().out
        assert "5.414213562" in out

    def test_bound_json(self, square_file, capsys):
        assert main(["bound", square_file, "2", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["s"] == pytest.approx(4.0)

    def test_bound_rejects_r1(self, square_file, capsys):
        assert main(["bound", square_file, "1"]) == 1

    def test_analyze(self, ring_file, capsys):
        assert main(["analyze", ring_file, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["count"] == 2

    def test_stab_and_verify(self, tmp_path, square_file, capsys):
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
        poly_path = tmp_path / "long.txt"
        poly_path.write_text(serialize_polyline(poly))
        assert main(["stab", str(poly_path), "2", square_file, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["report"]["count"] >= 3
        assert main(["verify", str(poly_path), square_file, "2"]) == 0
        assert "stabbing line" in capsys.readouterr().out

    def test_verify_within_bound(self, ring_file, square_file, capsys):
        assert main(["verify", ring_file, square_file, "2"]) == 0
        assert "within bound" in capsys.readouterr().out

    def test_stab_bound_not_exceeded_exit_1(self, ring_file, square_file, capsys):
        assert main(["stab", ring_file, "2", square_file]) == 1
        assert "bound not exceeded" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["stab", "verify"])
    def test_no_stabbing_line_exit_2(self, tmp_path, square_file, command, capsys):
        # the diagonal traced three times: longer than s = 4, met by every
        # line in at most one component
        path = tmp_path / "diagonal.txt"
        path.write_text("open\n0 0\n1 1\n0 0\n1 1\n")
        args = [str(path), "2", square_file] if command == "stab" else [str(path), square_file, "2"]
        assert main([command, *args]) == 2
        assert "verification failure" in capsys.readouterr().err

    @pytest.mark.parametrize("eps", ["1e6", "1e300", "s", "0.05 s", "0.5", "5"])
    def test_construct_builds_for_every_positive_eps(self, tmp_path, square_file, eps, capsys):
        # A slack of s or more lets any curve pass the length test, so the
        # builder plans its insets from s; it used to build no inset ring and
        # exit 2 with "longest curve 0 < -899995".
        s = s_bound(SQUARE, 3)
        value = {"s": repr(s), "0.05 s": repr(0.05 * s)}.get(eps, eps)
        out = tmp_path / "curve"
        assert main(["construct", square_file, "3", "--eps", value, "--out", str(out), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["multiplicity"]["count"] <= 3
        assert doc["achieved_length"] >= doc["target"] - float(value)
        assert doc["achieved_length"] > 0 and doc["target"] == s

    def test_construct_writes_curve_and_sidecar(self, tmp_path, square_file, capsys):
        out = tmp_path / "curve"
        code = main(
            [
                "construct",
                square_file,
                "2",
                "--eps",
                "0.3",
                "--m",
                "64",
                "--seed",
                "5",
                "--out",
                str(out),
                "--json",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["multiplicity"]["count"] <= 2
        from konvex.formats import parse_polyline

        curve = parse_polyline((tmp_path / "curve.txt").read_text())
        sidecar = json.loads((tmp_path / "curve.json").read_text())
        assert sidecar["achieved_length"] >= sidecar["target"] - 0.3
        assert len(curve) == sidecar["vertices"]

    def test_falsify(self, square_file, capsys):
        assert main(["falsify", square_file, "2", "--trials", "30", "--seed", "2"]) == 0
        assert "violations = 0" in capsys.readouterr().out

    def test_prop1(self, ring_file, capsys):
        assert main(["prop1", ring_file]) == 0
        out = capsys.readouterr().out
        assert "convex = True" in out and "max multiplicity = 2" in out

    def test_svg_command(self, tmp_path, square_file, capsys):
        scene = {"body": "square.txt", "lines": [{"nx": "1", "ny": "0", "c": "0.5"}]}
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(json.dumps(scene))
        out = tmp_path / "fig.svg"
        assert main(["svg", str(scene_path), "--out", str(out)]) == 0
        assert out.exists()

    @pytest.mark.parametrize("nx", ["1e200", "1e400"])
    def test_svg_line_with_huge_coefficients(self, tmp_path, square_file, capsys, nx):
        # the squared normal lies beyond double range
        line = {"nx": nx, "ny": "1e200", "c": "1e199"}
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(json.dumps({"body": square_file, "lines": [line]}))
        out = tmp_path / "fig.svg"
        assert main(["svg", str(scene_path), "--out", str(out)]) == 0
        assert "<line " in out.read_text()

    def test_parse_error_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("nonsense\n")
        assert main(["analyze", str(bad)]) == 1

    @pytest.mark.parametrize(
        "text",
        ["open\n0 0\n1 1e400\n", "open\n0 0\n1e300 1e300\n0 1\n"],
        ids=["beyond-float", "beyond-sweep-bound"],
    )
    def test_analyze_out_of_range_coordinates_exit_1(self, tmp_path, capsys, text):
        path = tmp_path / "huge.txt"
        path.write_text(text)
        assert main(["analyze", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["bound", "{huge_body}", "2"],
            ["construct", "{huge_body}", "3", "--out", "{tmp}/curve"],
            ["falsify", "{huge_body}", "3", "--trials", "5"],
            ["verify", "{ring}", "{huge_body}", "2"],
            ["stab", "{ring}", "2", "{huge_body}"],
            ["verify", "{huge_curve}", "{square}", "2"],
            ["stab", "{huge_curve}", "2", "{square}"],
        ],
        ids=["bound-body", "construct-body", "falsify-body", "verify-body", "stab-body",
             "verify-curve", "stab-curve"],
    )
    def test_coordinates_beyond_double_range_exit_1(
        self, tmp_path, square_file, ring_file, capsys, argv
    ):
        # the triangle is strictly convex, which the int predicates confirm
        # with no float view; metric work then refuses it
        files = {"huge_body": "0 0\n1e400 0\n0 1\n", "huge_curve": "open\n0 0\n1e400 1\n"}
        for name, text in files.items():
            (tmp_path / f"{name}.txt").write_text(text)
        paths = {name: str(tmp_path / f"{name}.txt") for name in files}
        paths.update(square=square_file, ring=ring_file, tmp=str(tmp_path))
        assert main([arg.format(**paths) for arg in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize(
        "body, argv",
        [
            ("0 0\n1e-10 0\n0 1e-10\n", ["falsify", "{body}", "2", "--trials", "5"]),
            ("0 0\n1e-400 0\n0 1e-400\n", ["falsify", "{body}", "2", "--trials", "5"]),
            ("0 0\n1e-400 0\n0 1e-400\n", ["construct", "{body}", "2", "--eps", "0.1",
                                             "--out", "{tmp}/curve"]),
            ("0 0\n1e-10 0\n0 1e-10\n", ["construct", "{body}", "2", "--out", "{tmp}/curve"]),
        ],
        ids=["falsify-below-grid", "falsify-underflow", "construct-underflow",
             "construct-below-grid"],
    )
    def test_bodies_below_the_snap_grid_exit_1(self, tmp_path, capsys, body, argv):
        # every random walk vertex snaps onto one grid point, the float area
        # of the body underflows to 0, or no inset ring fits on the grid
        (tmp_path / "body.txt").write_text(body)
        paths = {"body": str(tmp_path / "body.txt"), "tmp": str(tmp_path)}
        assert main([arg.format(**paths) for arg in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize(
        "scene",
        [
            None,
            {"body": "no-such-body.txt"},
            {"body": "square.txt", "curves": [{"label": "no file"}]},
            [{"body": "square.txt"}],
            {"body": "square.txt", "lines": [{"nx": "abc", "ny": "0", "c": "0"}]},
            {"body": "square.txt", "lines": [{"nx": 0, "ny": 0, "c": float("inf")}]},
            {"body": "square.txt", "annotations": [{"at": [float("nan"), 0], "text": "x"}]},
        ],
        ids=["missing-scene", "missing-body", "curve-without-file", "top-level-list",
             "bad-line-coefficient", "infinite-line-coefficient", "non-finite-annotation"],
    )
    def test_malformed_scene_exit_1(self, tmp_path, square_file, capsys, scene):
        scene_path = tmp_path / "scene.json"
        if scene is not None:
            scene_path.write_text(json.dumps(scene))
        assert main(["svg", str(scene_path), "--out", str(tmp_path / "out.svg")]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_missing_file_exit_1(self, capsys):
        assert main(["bound", "no-such-file.txt", "2"]) == 1

    def test_env_seed(self, square_file, monkeypatch, capsys):
        monkeypatch.setenv("KONVEX_SEED", "123")
        assert main(["falsify", square_file, "2", "--trials", "5", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["evidence"]["seed"] == 123

    def test_non_integer_env_seed_exit_1(self, square_file, monkeypatch, capsys):
        monkeypatch.setenv("KONVEX_SEED", "abc")
        assert main(["falsify", square_file, "2", "--trials", "5"]) == 1
        assert capsys.readouterr().err.startswith("error: KONVEX_SEED")
        # commands without a seed never read the variable
        assert main(["bound", square_file, "2"]) == 0
        assert capsys.readouterr().out.startswith("s = 4.0")
        # an explicit --seed wins over the variable
        assert main(["falsify", square_file, "2", "--trials", "5", "--seed", "4", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["evidence"]["seed"] == 4

    @pytest.mark.parametrize("command", ["falsify", "construct"])
    def test_negative_seed_exit_1(self, square_file, monkeypatch, capsys, tmp_path, command):
        argv = [command, square_file, "3"]
        if command == "construct":
            argv += ["--out", str(tmp_path / "fig")]
        assert main(argv + ["--seed", "-1"]) == 1
        assert capsys.readouterr().err == "error: seed must be non-negative\n"
        monkeypatch.setenv("KONVEX_SEED", "-1")
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: seed must be non-negative\n"
        assert not list(tmp_path.glob("fig*"))


class TestParserReuse:
    """`main` builds its parser once per process; every call parses afresh."""

    def test_consecutive_calls_are_independent(self, square_file, ring_file, capsys):
        assert main(["falsify", square_file, "2", "--trials", "5", "--seed", "4", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["evidence"]["seed"] == 4
        assert main(["bound", square_file, "3"]) == 0
        assert capsys.readouterr().out.startswith("s = 5.414213562")
        assert main(["falsify", square_file, "2", "--trials", "6", "--json"]) == 0
        evidence = json.loads(capsys.readouterr().out)["evidence"]
        assert (evidence["seed"], evidence["trials"]) == (0, 6)
        assert main(["prop1", ring_file]) == 0
        assert capsys.readouterr().out.startswith("convex = True")
        assert main(["bound", square_file, "2", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["s"] == 4.0
        assert cli.build_parser() is cli.build_parser()

    def test_env_seed_is_read_on_every_call(self, square_file, monkeypatch, capsys):
        for seed in ("123", "77"):
            monkeypatch.setenv("KONVEX_SEED", seed)
            assert main(["falsify", square_file, "2", "--trials", "5", "--json"]) == 0
            assert json.loads(capsys.readouterr().out)["evidence"]["seed"] == int(seed)

    def test_rejected_arguments_raise_system_exit(self, square_file, capsys):
        for argv in (["bound", square_file, "two"], ["bound", square_file], ["nosuch"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
        capsys.readouterr()
        assert main(["bound", square_file, "2"]) == 0
        assert capsys.readouterr().out.startswith("s = 4.0")

    def test_import_builds_no_parser(self):
        probe = "import konvex.cli as c; print(c.build_parser.cache_info().currsize)"
        out = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        ).stdout
        assert out.strip() == "0"


# malformed geometry files: `x y` rows over a few coordinates, so that
# repeated points, collinear triples and short rings are common, or a valid
# body at an extreme scale; a quarter of the files get one junk row
_COORDS = st.sampled_from(
    ["0", "1", "2", "-1", "0.5", "1/3", "1e-10", "1e-400", "1e400", "-1e400", "1e200"]
)
_BODIES = [
    "0 0\n1 0\n1 1\n0 1",
    "0 0\n2 0\n1 1",
    "0 0\n1e-10 0\n0 1e-10",
    "0 0\n1e-400 0\n0 1e-400",
    "0 0\n1e200 0\n0 1e200",
]
_JUNK = st.sampled_from(["3/0", "nan inf", "abc 1", "1 2 3", "open", "1e400", ""])


@st.composite
def _geometry_file(draw, headers):
    rows = draw(
        st.one_of(
            st.sampled_from(_BODIES).map(str.splitlines),
            st.lists(st.tuples(_COORDS, _COORDS).map(" ".join), max_size=8),
        )
    )
    if draw(st.integers(0, 3)) == 0:
        rows.insert(draw(st.integers(0, len(rows))), draw(_JUNK))
    return "\n".join(draw(headers) + rows) + "\n"


# scene documents: JSON values of every type where the scene expects an
# object, a list of objects, a file name, a label or a number, next to
# well-formed entries; files that exist (good.txt, a valid curve; curve.txt,
# a fuzzed one; body.txt, the square; the directory itself) or do not
_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(allow_nan=True),
    st.sampled_from(["good.txt", "curve.txt", "body.txt", "missing.txt", "", ".", "1/3", "1e400"]),
)
_JSON = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["file", "label", "at", "text", "nx", "ny", "c"]), inner, max_size=4),
    max_leaves=8,
)
_FILES = st.sampled_from(["good.txt"] * 4 + ["curve.txt", "body.txt", "missing.txt", ".", ""])
_LABELS = st.one_of(st.sampled_from(["a", "b", "<&>\"'", ""]), _JSON_SCALARS, _JSON)
_NUMBERS = st.one_of(st.integers(-2, 2), st.floats(allow_nan=True), _JSON_SCALARS)


def _entries(required: dict, optional: dict | None = None, min_size: int = 0):
    return st.lists(st.fixed_dictionaries(required, optional=optional or {}),
                    min_size=min_size, max_size=3)


_CURVES = _entries({"file": _FILES}, {"label": _LABELS}, min_size=1)
_PARTS = {
    "body": st.one_of(st.sampled_from(["body.txt", "good.txt", "missing.txt", ""]), _JSON),
    "lines": st.one_of(
        _entries({"nx": _NUMBERS, "ny": _NUMBERS, "c": _NUMBERS}, {"label": _LABELS}), _JSON
    ),
    "annotations": st.one_of(
        _entries({"at": st.one_of(st.lists(_NUMBERS, min_size=2, max_size=2), _JSON),
                  "text": _JSON}),
        _JSON,
    ),
}
_SCENES = st.one_of(
    st.fixed_dictionaries({"curves": _CURVES}, optional=_PARTS).map(json.dumps),
    st.fixed_dictionaries({}, optional={**_PARTS, "curves": st.one_of(_CURVES, _JSON)}).map(
        json.dumps
    ),
    _JSON.map(json.dumps),
    st.sampled_from(["", "{", "not json", "[1, 2", "\u0000"]),
)


class TestCliFuzz:
    @given(
        command=st.sampled_from(
            ["bound", "analyze", "verify", "stab", "falsify", "prop1", "construct", "svg"]
        ),
        curve_text=_geometry_file(st.sampled_from([["open"], ["closed"], [], ["ring"]])),
        body_text=_geometry_file(st.just([])),
        r=st.integers(min_value=1, max_value=4),
        eps=st.sampled_from(["0.5", "5", "1e300", "1e-300", "0", "-1", "inf", "nan"]),
    )
    @settings(max_examples=225, deadline=None)
    def test_malformed_files_exit_cleanly(self, command, curve_text, body_text, r, eps):
        with tempfile.TemporaryDirectory() as tmp:
            curve, body = Path(tmp) / "curve.txt", Path(tmp) / "body.txt"
            scene = Path(tmp) / "scene.json"
            curve.write_text(curve_text)
            body.write_text(body_text)
            argv = {
                "bound": ["bound", str(body), str(r)],
                "analyze": ["analyze", str(curve)],
                "verify": ["verify", str(curve), str(body), str(r)],
                "stab": ["stab", str(curve), str(r), str(body)],
                "falsify": ["falsify", str(body), str(r), "--trials", "5"],
                "prop1": ["prop1", str(curve)],
                "construct": ["construct", str(body), str(r), "--eps", eps, "--m", "8",
                              "--retries", "1", "--out", str(Path(tmp) / "built")],
                "svg": ["svg", str(scene), "--out", str(Path(tmp) / "scene.svg")],
            }[command]
            if command == "svg":
                scene.write_text(json.dumps({"body": "body.txt", "curves": [{"file": "curve.txt"}]}))
            assert_clean_exit(argv)

    @given(scene=_SCENES, curve_text=_geometry_file(st.just([])))
    @settings(max_examples=200, deadline=None)
    def test_malformed_scenes_exit_cleanly(self, scene, curve_text):
        with tempfile.TemporaryDirectory() as tmp:
            (Path(tmp) / "curve.txt").write_text(curve_text)
            (Path(tmp) / "good.txt").write_text("open\n0 0\n1 1\n2 0\n")
            (Path(tmp) / "body.txt").write_text("0 0\n1 0\n1 1\n0 1\n")
            path = Path(tmp) / "scene.json"
            path.write_text(scene)
            assert_clean_exit(["svg", str(path), "--out", str(Path(tmp) / "scene.svg")])


def assert_clean_exit(argv: list[str]) -> None:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
