"""Span recorder for the traced benchmark run, and the per-layer metrics
derived from its spans.

Wrappers are installed at every import site: a module that did
``from .stabbing import max_line_multiplicity`` holds its own reference, so
each konvex module's globals are scanned and every reference to a traced
function is replaced.  That includes the defining module's own global,
which is how ``find_stabbing_line`` reaches its enumeration fallback.

Spans live in memory.  Each operation of the benchmark opens a root span
named ``op``; every span records its parent, so self time is a span's
duration minus the durations of its direct children.  High-frequency
functions get a count-only wrapper that increments a counter on the
innermost open span instead of opening a span of their own.  Outside an
operation every wrapper passes straight through, so the benchmark's own
correctness checks are neither traced nor counted.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# (module, function): a span per call, giving calls, busy_s and self_s.
SPANNED = (
    ("stabbing", "max_line_multiplicity"),
    ("stabbing", "random_line_oracle"),
    ("stabbing", "find_stabbing_line"),
    ("stabbing", "projection_witness"),
    ("projections", "projection_length_samples"),
    ("projections", "width_samples"),
    ("geometry", "contains"),
    ("geometry", "convex_hull"),
    ("builder", "build_curve"),
    ("verifier", "falsify"),
    ("verifier", "check_upper_bound"),
    ("random_shapes", "random_walk_polyline"),
    ("random_shapes", "random_star_ring"),
    ("formats", "parse_polygon"),
    ("formats", "parse_polyline"),
    ("formats", "serialize_polyline"),
    ("formats", "to_json"),
    ("svg", "render_svg"),
    ("cli", "main"),
)

# Called thousands of times per operation: counted, not spanned.
COUNTED = (
    ("stabbing", "line_multiplicity"),
    ("projections", "segment_data"),
    ("geometry", "orientation"),
)
COUNTED_PROPERTIES = (("geometry", "Point", "xy"),)

# Functions whose returned string length is reported as output bytes.
SIZED_OUTPUT = ("formats.serialize_polyline", "formats.to_json", "svg.render_svg")

MAX = "stabbing.max_line_multiplicity"
STAB = "stabbing.find_stabbing_line"
BUILD = "builder.build_curve"
REPLAY = "stabbing.line_multiplicity"
ROOT = "op"


def candidate_lines(n: int) -> int:
    """Size of max_line_multiplicity's candidate family for n vertices:
    n(n-1)/2 vertex pairs, each in 9 shifted or rotated copies, plus a
    360-direction fan through every vertex."""
    return 9 * n * (n - 1) // 2 + 360 * n


class Span:
    __slots__ = ("id", "parent", "op", "name", "start", "end", "size", "nbytes", "counts")

    def __init__(self, sid, parent, op, name, size):
        self.id = sid
        self.parent = parent
        self.op = op
        self.name = name
        self.size = size
        self.nbytes = 0
        self.counts = Counter()
        self.start = time.perf_counter()
        self.end = self.start

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory spans of one single-threaded benchmark process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.ops = 0

    def open(self, name: str, size: int | None = None) -> Span:
        parent = self.stack[-1] if self.stack else None
        if parent is None:
            self.ops += 1
        span = Span(
            len(self.spans),
            parent.id if parent else None,
            parent.op if parent else self.ops,
            name,
            size,
        )
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self.stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def count(self, name: str) -> None:
        if self.stack:
            self.stack[-1].counts[name] += 1


def konvex_modules() -> dict[str, object]:
    """Loaded konvex modules by short name ('' for the package itself)."""
    return {
        name.partition(".")[2]: module
        for name, module in list(sys.modules.items())
        if name == "konvex" or name.startswith("konvex.")
    }


def replace_everywhere(module: str, attr: str, make_replacement) -> object:
    """Replace konvex.<module>.<attr> in every konvex module that holds a
    reference to it.  make_replacement receives the original function."""
    modules = konvex_modules()
    original = getattr(modules[module], attr)
    replacement = make_replacement(original)
    for mod in modules.values():
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)
    return replacement


def _spanned(rec: Recorder, name: str, fn):
    size_of = (lambda args: len(args[0].vertices)) if name == MAX else (lambda args: None)
    sized_output = name in SIZED_OUTPUT

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.stack:
            return fn(*args, **kwargs)
        span = rec.open(name, size_of(args))
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(span)
        if sized_output:
            span.nbytes = len(out)
        return out

    return wrapper


def _counted(rec: Recorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.count(name)
        return fn(*args, **kwargs)

    return wrapper


def install(rec: Recorder) -> None:
    """Wrap every traced konvex function at all of its import sites."""
    for module, attr in SPANNED:
        name = f"{module}.{attr}"
        replace_everywhere(module, attr, lambda fn, name=name: _spanned(rec, name, fn))
    for module, attr in COUNTED:
        name = f"{module}.{attr}"
        replace_everywhere(module, attr, lambda fn, name=name: _counted(rec, name, fn))
    modules = konvex_modules()
    for module, cls_name, prop in COUNTED_PROPERTIES:
        cls = getattr(modules[module], cls_name)
        getter = getattr(cls, prop).fget
        setattr(cls, prop, property(_counted(rec, f"{module}.{cls_name}.{prop}", getter)))


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


def metric_table() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order.

    Every count and time is per operation of the workload, so runs that
    complete different numbers of operations stay comparable.
    """
    table = []
    for module, attr in SPANNED:
        base = f"{module}.{attr}"
        table += [
            (f"{base}.calls", "calls/op", "lower"),
            (f"{base}.busy_s", "s/op", "lower"),
            (f"{base}.self_s", "s/op", "lower"),
        ]
    for module, attr in COUNTED:
        table.append((f"{module}.{attr}.calls", "calls/op", "lower"))
    for module, cls_name, prop in COUNTED_PROPERTIES:
        table.append((f"{module}.{cls_name}.{prop}.calls", "calls/op", "lower"))
    table += [(f"{name}.bytes", "bytes/op", "lower") for name in SIZED_OUTPUT]
    table += [
        # computed from each call's vertex count n, not counted in the program
        ("stabbing.candidates", "lines/op", "lower"),
        ("stabbing.screen_evals", "evals/op", "lower"),
        # exact replays per maximum search: attempts per useful result
        ("stabbing.replays_per_max", "ratio", "lower"),
        ("stabbing.fallback_ratio", "ratio", "lower"),
        ("builder.verify_calls_per_build", "ratio", "lower"),
        ("builder.self_s", "s/op", "lower"),
        ("trace.uncovered_share", "ratio", "lower"),
        ("trace.overhead_ops_per_s", "1/s", "higher"),
    ]
    return table


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Per-layer values from the recorded spans (all but the overhead, which
    needs the untraced run)."""
    ops = max(rec.ops, 1)
    spans = rec.spans
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.duration

    def ancestors(span: Span):
        while span.parent is not None:
            span = spans[span.parent]
            yield span

    calls: Counter = Counter()
    busy: Counter = Counter()
    self_time: Counter = Counter()
    nbytes: Counter = Counter()
    counts: Counter = Counter()
    for span in spans:
        calls[span.name] += 1
        busy[span.name] += span.duration
        self_time[span.name] += span.duration - child_time[span.id]
        nbytes[span.name] += span.nbytes
        counts.update(span.counts)

    out: dict[str, float] = {}
    for module, attr in SPANNED:
        name = f"{module}.{attr}"
        out[f"{name}.calls"] = calls[name] / ops
        out[f"{name}.busy_s"] = busy[name] / ops
        out[f"{name}.self_s"] = self_time[name] / ops
    for module, attr in COUNTED:
        name = f"{module}.{attr}"
        out[f"{name}.calls"] = counts[name] / ops
    for module, cls_name, prop in COUNTED_PROPERTIES:
        name = f"{module}.{cls_name}.{prop}"
        out[f"{name}.calls"] = counts[name] / ops
    for name in SIZED_OUTPUT:
        out[f"{name}.bytes"] = nbytes[name] / ops

    maxes = [s for s in spans if s.name == MAX]
    out["stabbing.candidates"] = sum(candidate_lines(s.size) for s in maxes) / ops
    out["stabbing.screen_evals"] = sum(candidate_lines(s.size) * s.size for s in maxes) / ops
    out["stabbing.replays_per_max"] = (
        sum(s.counts[REPLAY] for s in maxes) / len(maxes) if maxes else 0.0
    )
    stabs = [s for s in spans if s.name == STAB]
    fallback_ids = {a.id for s in maxes for a in ancestors(s) if a.name == STAB}
    out["stabbing.fallback_ratio"] = len(fallback_ids) / len(stabs) if stabs else 0.0
    builds = [s for s in spans if s.name == BUILD]
    verify_in_build = [s for s in maxes if any(a.name == BUILD for a in ancestors(s))]
    out["builder.verify_calls_per_build"] = (
        len(verify_in_build) / len(builds) if builds else 0.0
    )
    out["builder.self_s"] = (
        sum(s.duration for s in builds) - sum(s.duration for s in verify_in_build)
    ) / ops
    roots = [s for s in spans if s.parent is None]
    total = sum(s.duration for s in roots)
    out["trace.uncovered_share"] = (
        sum(s.duration - child_time[s.id] for s in roots) / total if total else 0.0
    )
    return out
