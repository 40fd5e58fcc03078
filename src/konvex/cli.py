"""Command line interface.

Exit codes: 0 success, 1 unusable input (parse or precondition failure),
2 verification failure.  The KONVEX_SEED environment variable overrides the
default seed of the randomized commands.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from .builder import ConstructionParams, build_curve
from .errors import KonvexError, ParseError, PreconditionError, VerificationError
from .formats import (
    multiplicity_report_to_dict,
    parse_polygon,
    parse_polyline,
    serialize_polyline,
    to_json,
)
from .geometry import diameter, perimeter
from .stabbing import find_stabbing_line, max_line_multiplicity
from .svg import emit_svg, load_scene
from .verifier import check_upper_bound, falsify, prop1_check, s_bound


def _seed(args) -> int:
    """--seed when given, else KONVEX_SEED, else 0."""
    if args.seed is not None:
        return args.seed
    raw = os.environ.get("KONVEX_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise PreconditionError(f"KONVEX_SEED must be an integer, got {raw!r}") from None


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _emit(doc, as_json: bool, human: str):
    if as_json:
        print(to_json(doc))
    else:
        print(human)


def cmd_bound(args) -> int:
    body = parse_polygon(_read(args.body))
    s = s_bound(body, args.r)
    p = perimeter(body)
    d, _, _ = diameter(body)
    _emit(
        {"s": s, "perimeter": p, "diameter": d, "r": args.r},
        args.json,
        f"s = {s:.9f}  (p = {p:.9f}, d = {d:.9f}, r = {args.r})",
    )
    return 0


def cmd_analyze(args) -> int:
    poly = parse_polyline(_read(args.polyline))
    report = max_line_multiplicity(poly)
    nx, ny, c = report.witness.unit()
    _emit(
        multiplicity_report_to_dict(report),
        args.json,
        f"max multiplicity = {report.count}  (method {report.method})\n"
        f"witness line: {nx:.9f} x + {ny:.9f} y = {c:.9f}\n"
        f"components: {len(report.components)}",
    )
    return 0


def cmd_stab(args) -> int:
    poly = parse_polyline(_read(args.polyline))
    body = parse_polygon(_read(args.body))
    line, report = find_stabbing_line(poly, args.r, body)
    nx, ny, c = line.unit()
    _emit(
        {"line": line, "report": report},
        args.json,
        f"stabbing line: {nx:.9f} x + {ny:.9f} y = {c:.9f}\n"
        f"verified multiplicity = {report.count} >= r + 1 = {args.r + 1}",
    )
    return 0


def cmd_construct(args) -> int:
    body = parse_polygon(_read(args.body))
    eps = args.eps if args.eps is not None else 0.05 * s_bound(body, args.r)
    params = ConstructionParams(
        r=args.r, eps=eps, m=args.m, seed=_seed(args), max_retries=args.retries
    )
    result = build_curve(body, params)
    out = Path(args.out)
    curve_path = out.with_suffix(".txt")
    sidecar_path = out.with_suffix(".json")
    curve_path.write_text(serialize_polyline(result.curve))
    sidecar_path.write_text(to_json(result))
    _emit(
        result,
        args.json,
        f"constructed curve: length {result.achieved_length:.9f} >= "
        f"{result.target:.9f} - {eps:.9f}\n"
        f"max multiplicity {result.multiplicity.count} <= r = {args.r} "
        f"(retries {result.retries_used})\n"
        f"wrote {curve_path} and {sidecar_path}",
    )
    return 0


def cmd_verify(args) -> int:
    poly = parse_polyline(_read(args.polyline))
    body = parse_polygon(_read(args.body))
    report = check_upper_bound(poly, body, args.r)
    status = report.evidence["status"]
    if status == "within_bound":
        human = (
            f"within bound: length {report.evidence['length']:.9f} <= s = {report.s:.9f}"
        )
    else:
        stab = report.evidence["report"]
        human = (
            f"length {report.evidence['length']:.9f} > s = {report.s:.9f}; "
            f"stabbing line verified with multiplicity {stab.count}"
        )
    _emit(report, args.json, human)
    return 0


def cmd_falsify(args) -> int:
    body = parse_polygon(_read(args.body))
    report = falsify(body, args.r, args.trials, _seed(args))
    ev = report.evidence
    human = (
        f"trials = {ev['trials']}, curves within budget r = {args.r}: {ev['qualifying']}\n"
        f"max length/s ratio = {ev['max_ratio']:.6f}  "
        f"violations = {len(ev['violations'])}"
    )
    _emit(report, args.json, human)
    return 0 if not ev["violations"] else 2


def cmd_prop1(args) -> int:
    poly = parse_polyline(_read(args.polyline))
    result = prop1_check(poly)
    _emit(
        result,
        args.json,
        f"convex = {result.convex}, max multiplicity = {result.max_mult}, "
        f"consistent = {result.consistent}",
    )
    return 0 if result.consistent else 2


def cmd_svg(args) -> int:
    scene = load_scene(args.scene)
    emit_svg(scene, args.out)
    if args.json:
        print(json.dumps({"written": str(args.out)}))
    else:
        print(f"wrote {args.out}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built on first use and shared by every
    `main` call in the process (parsing leaves it unchanged)."""
    parser = argparse.ArgumentParser(
        prog="konvex",
        description="Curve length vs line-stabbing multiplicity in convex bodies",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        cmd = sub.add_parser(name, help=help_text)
        cmd.set_defaults(fn=fn)
        cmd.add_argument("--json", action="store_true", help="machine-readable output")
        return cmd

    cmd = add("bound", cmd_bound, "threshold length s for a body and budget r")
    cmd.add_argument("body")
    cmd.add_argument("r", type=int)

    cmd = add("analyze", cmd_analyze, "maximum line multiplicity of a polyline")
    cmd.add_argument("polyline")

    cmd = add("stab", cmd_stab, "find a verified line meeting the polyline r+1 times")
    cmd.add_argument("polyline")
    cmd.add_argument("r", type=int)
    cmd.add_argument("body")

    cmd = add("construct", cmd_construct, "build an extremal curve inside the body")
    cmd.add_argument("body")
    cmd.add_argument("r", type=int)
    cmd.add_argument("--eps", type=float, default=None, help="length slack (default 0.05 s)")
    cmd.add_argument("--seed", type=int, default=None, help="default: $KONVEX_SEED or 0")
    cmd.add_argument("--out", default="construction", help="output prefix")
    cmd.add_argument("--m", type=int, default=256, help="samples per loop")
    cmd.add_argument("--retries", type=int, default=16)

    cmd = add("verify", cmd_verify, "check a polyline against the threshold")
    cmd.add_argument("polyline")
    cmd.add_argument("body")
    cmd.add_argument("r", type=int)

    cmd = add("falsify", cmd_falsify, "random-curve stress test of the threshold")
    cmd.add_argument("body")
    cmd.add_argument("r", type=int)
    cmd.add_argument("--trials", type=int, default=1000)
    cmd.add_argument("--seed", type=int, default=None, help="default: $KONVEX_SEED or 0")

    cmd = add("prop1", cmd_prop1, "discrete convexity characterization of a ring")
    cmd.add_argument("polyline")

    cmd = add("svg", cmd_svg, "render a scene description to SVG")
    cmd.add_argument("scene")
    cmd.add_argument("--out", required=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 2
    except KonvexError as exc:  # pragma: no cover - safety net
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
