"""The benchmark's three workloads: inputs, one operation, and its check.

Each workload builds its inputs from the benchmark seed and writes them as
files, then exposes a fixed cycle of operations.  An operation goes through
``konvex.cli.main`` exactly as a user's command would; its check runs
afterwards, outside the timed interval, and decides every output exactly.

The default seed 0 reproduces the acceptance-suite seeds: builder seed 1
and oracle seed 1000 + r (criterion 3), walk seeds [404, r, trial]
(criterion 4) and falsify seed 505 + r (criterion 5).

konvex is imported inside the functions, never at module level: the worker
re-imports it for every set-up it times, and the tracer replaces module
attributes, so each call must look its functions up afresh.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

SQUARE_TEXT = "0 0\n1 0\n1 1\n0 1\n"
GON_VERTICES = 40
ORACLE_TRIALS = 100_000
# Below 50 trials `falsify` adds no builder curves (those load `construct`),
# so a call is ~0.15 s of tiny curves and is repeated several times a run.
FALSIFY_TRIALS = 40
FALSIFY_SEEDS = 24


def call_cli(argv: list[str]) -> tuple[int, str]:
    """Run one konvex command in-process; return (exit code, stdout)."""
    from konvex import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            code = exc.code if isinstance(exc.code, int) else 1
    return code, buf.getvalue()


def write_bodies(directory: Path) -> dict[str, Path]:
    """The unit square and a 40-gon, as polygon files.  The 40-gon is the
    same for every benchmark seed, so seeds vary the curves, not the body."""
    import numpy as np

    from konvex.formats import serialize_polygon
    from konvex.random_shapes import random_convex_polygon

    gon = random_convex_polygon(np.random.default_rng(GON_VERTICES), GON_VERTICES)
    paths = {"square": directory / "square.txt", "gon40": directory / "gon40.txt"}
    paths["square"].write_text(SQUARE_TEXT)
    paths["gon40"].write_text(serialize_polygon(gon))
    return paths


def run_command(self, op: "Op", out: Path) -> dict:
    """An operation that is one command: its exit code and standard output."""
    code, stdout = call_cli(op.argv)
    return {"code": code, "stdout": stdout}


@dataclass
class Op:
    """One operation of a workload cycle."""

    label: str
    argv: list[str]
    r: int
    body: Path
    units: int = 1  # work items the operation completes (trials for falsify)
    extra: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# construct: the lower-bound pipeline
# ---------------------------------------------------------------------------


class Construct:
    """`konvex construct` at eps = 0.05 s, then `konvex svg` of the scene,
    then an independent 1e5-line `random_line_oracle` certification."""

    name = "construct"
    # Its calls take 0.7-2.7 s and run mostly in numpy: their times do not
    # follow the probe, and scaling by it would add the probe's noise.
    probe_scaled = False

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        if tiny:
            self.plan = [("square", 2, 32)]
            self.oracle_trials = 2000
        else:
            # m = 96 at r >= 5 keeps every call under ~3 s (n = 182 and 237,
            # against 298 and 397 at m = 160), so a 30 s run repeats each
            # operation three times.
            self.plan = [("square", r, 96 if r >= 5 else 128) for r in (2, 3, 4, 5, 6)]
            self.plan.append(("gon40", 3, 128))
            self.oracle_trials = ORACLE_TRIALS

    def setup(self, directory: Path) -> list[Op]:
        from konvex.formats import parse_polygon
        from konvex.verifier import s_bound

        bodies = write_bodies(directory)
        ops = []
        for body_name, r, m in self.plan:
            eps = 0.05 * s_bound(parse_polygon(bodies[body_name].read_text()), r)
            argv = ["construct", str(bodies[body_name]), str(r), "--eps", repr(eps),
                    "--m", str(m), "--seed", str(1 + self.seed)]
            ops.append(Op(f"{body_name}-r{r}", argv, r, bodies[body_name], extra={"eps": eps}))
        return ops

    def run(self, op: Op, out: Path) -> dict:
        from konvex.formats import parse_polyline
        from konvex.stabbing import random_line_oracle

        code, _ = call_cli(op.argv + ["--out", str(out)])
        if code != 0:
            return {"codes": (code, None)}
        scene = out.with_suffix(".scene.json")
        scene.write_text(json.dumps({
            "body": str(op.body.resolve()),
            "curves": [{"file": str(out.with_suffix(".txt").resolve()), "label": "extremal"}],
        }))
        svg_code, _ = call_cli(["svg", str(scene), "--out", str(out.with_suffix(".svg"))])
        curve = parse_polyline(out.with_suffix(".txt").read_text())
        oracle = random_line_oracle(curve, self.oracle_trials, 1000 + op.r + self.seed)
        return {"codes": (code, svg_code), "oracle": oracle.count}

    def check(self, op: Op, out: Path, result: dict) -> tuple[str | None, int]:
        from konvex.formats import parse_polygon, parse_polyline
        from konvex.geometry import EXTERIOR, contains, polyline_length
        from konvex.verifier import s_bound

        if result["codes"] != (0, 0):
            return f"exit codes {result['codes']}", 0
        body = parse_polygon(op.body.read_text())
        curve = parse_polyline(out.with_suffix(".txt").read_text())
        sidecar = json.loads(out.with_suffix(".json").read_text())
        n = len(curve.vertices)
        floor = s_bound(body, op.r) - op.extra["eps"]
        if sidecar["multiplicity"]["count"] > op.r:
            return f"sidecar count {sidecar['multiplicity']['count']} > r", n
        if result["oracle"] > op.r:
            return f"oracle count {result['oracle']} > r", n
        if sidecar["vertices"] != n:
            return "sidecar vertex count differs from the curve file", n
        if not polyline_length(curve) >= floor:
            return f"length {polyline_length(curve)} < s - eps = {floor}", n
        if any(contains(body, v) == EXTERIOR for v in curve.vertices):
            return "a curve vertex lies outside the body", n
        svg = out.with_suffix(".svg")
        if not svg.is_file() or "<svg" not in svg.read_text():
            return "empty or missing SVG", n
        return None, n


# ---------------------------------------------------------------------------
# stab: the upper-bound direction
# ---------------------------------------------------------------------------


class Stab:
    """`konvex verify <walk> <body> r --json` on over-long interior walks."""

    name = "stab"
    probe_scaled = True  # 0.05-0.2 s calls of pure-Python exact geometry
    WALKS_PER_R = {"square": 12, "gon40": 4}

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.walks = {"square": 1, "gon40": 1} if tiny else self.WALKS_PER_R

    def setup(self, directory: Path) -> list[Op]:
        import numpy as np

        from konvex.formats import parse_polygon, serialize_polyline
        from konvex.geometry import polyline_length
        from konvex.random_shapes import random_walk_polyline
        from konvex.verifier import s_bound

        bodies = write_bodies(directory)
        ops = []
        for r in (2, 3, 4):
            for body_name, count in self.walks.items():
                body = parse_polygon(bodies[body_name].read_text())
                threshold = s_bound(body, r)
                tag = [] if body_name == "square" else [GON_VERTICES]
                trial = 0
                for k in range(count):
                    while True:  # rejection: keep walks longer than s, as criterion 4
                        trial += 1
                        rng = np.random.default_rng([404 + self.seed, r, trial] + tag)
                        walk = random_walk_polyline(rng, body, n_segments=18 + 6 * r)
                        if polyline_length(walk) > threshold:
                            break
                    path = directory / f"walk-{body_name}-r{r}-{k}.txt"
                    path.write_text(serialize_polyline(walk))
                    argv = ["verify", str(path), str(bodies[body_name]), str(r), "--json"]
                    ops.append(Op(f"{body_name}-r{r}", argv, r, bodies[body_name],
                                  extra={"walk": path}))
        return ops

    run = run_command

    def check(self, op: Op, out: Path, result: dict) -> tuple[str | None, int]:
        from konvex.formats import line_from_dict, parse_polyline
        from konvex.stabbing import line_multiplicity

        walk = parse_polyline(op.extra["walk"].read_text())
        n = len(walk.vertices)
        if result["code"] != 0:
            return f"exit code {result['code']}", n
        evidence = json.loads(result["stdout"])["evidence"]
        if evidence["status"] != "stabbed":
            return f"status {evidence['status']} on an over-long walk", n
        reported = evidence["report"]["count"]
        if evidence["report"]["witness"] != evidence["line"]:
            return "report witness differs from the returned line", n
        replayed = line_multiplicity(line_from_dict(evidence["line"]), walk).count
        if replayed < op.r + 1 or replayed != reported:
            return f"replayed count {replayed}, reported {reported}, need >= {op.r + 1}", n
        return None, n


# ---------------------------------------------------------------------------
# falsify: thousands of tiny curves
# ---------------------------------------------------------------------------


class Falsify:
    """`konvex falsify <square> r --trials 40` at r = 3 and r = 5, on 24
    falsify seeds each."""

    name = "falsify"
    probe_scaled = True  # 0.1-0.2 s calls of pure-Python exact geometry

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.plan = [(3, 20, 1)] if tiny else [(r, FALSIFY_TRIALS, FALSIFY_SEEDS) for r in (3, 5)]

    def setup(self, directory: Path) -> list[Op]:
        bodies = write_bodies(directory)
        return [
            Op(f"square-r{r}",
               ["falsify", str(bodies["square"]), str(r), "--trials", str(trials),
                "--seed", str(505 + r + self.seed + 1000 * k), "--json"],
               r, bodies["square"], units=trials)
            for r, trials, seeds in self.plan
            for k in range(seeds)
        ]

    run = run_command

    def check(self, op: Op, out: Path, result: dict) -> tuple[str | None, int]:
        if result["code"] != 0:
            return f"exit code {result['code']}", op.units
        evidence = json.loads(result["stdout"])["evidence"]
        if evidence["trials"] != op.units:
            return f"ran {evidence['trials']} trials, asked for {op.units}", op.units
        if evidence["violations"]:
            return f"{len(evidence['violations'])} violations", op.units
        if not evidence["max_ratio"] < 1.0:
            return f"max_ratio {evidence['max_ratio']} >= 1", op.units
        return None, op.units


WORKLOADS = {cls.name: cls for cls in (Construct, Stab, Falsify)}
