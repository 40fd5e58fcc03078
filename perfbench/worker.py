"""One workload in one single-threaded process, as a closed loop.

A single caller runs the workload's fixed cycle of operations, each kind
spread evenly over the cycle, waiting for each before starting the next,
and starts another whole cycle only while it fits in the time budget (at
least three cycles always run).  Every operation is checked after the loop,
outside the timed interval.  The last line of standard output is a JSON
object with the run's end-to-end numbers and, with --trace 1, the
per-layer numbers from the span recorder.

An operation's time is the median wall time of its repetitions in the
run.  On a shared machine other tenants slow the CPU down, by up to 1.7x,
in stretches of a fraction of a second to a few seconds, and the share of
slow stretches changes from minute to minute.  Pure-Python work follows
those stretches; the numpy-heavy `construct` hardly does.  On workloads
marked `probe_scaled`, a fixed pure-Python probe runs between calls for a
tenth of the operation time, and the run's times are scaled by
PROBE_REF_S over the probe's mean time: seconds on a machine where the
probe takes PROBE_REF_S.  The unscaled wall-time figures, and those from
the process's CPU time, are in the record line.

    python3 perfbench/worker.py --workload stab --seed 0 --seconds 10 \
        --trace 0 --work .perfbench_work/stab

Run it from the repository root: konvex is imported from ./src.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import spans
from workloads import WORKLOADS

SETUP_REPEATS = 15
MIN_CYCLES = 3
PROBE_SHARE = 0.1  # seconds of probing per second of operation, on scaled workloads
PROBE_REF_S = 0.003  # the probe's time on the reference machine


def probe() -> float:
    """Wall time of a fixed pure-Python loop of the kind konvex's exact
    geometry runs (Fraction arithmetic, dict updates), in no konvex code."""
    from fractions import Fraction

    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    x = Fraction(1, 3)
    acc = 0
    for i in range(400):
        acc += (x * i + Fraction(i, 7)).numerator % 13
    counts: dict[int, int] = {}
    for i in range(3000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    t = time.perf_counter() - t0
    if enabled:
        gc.enable()
    return t


def probe_for(seconds: float) -> list[float]:
    """Probe times over about `seconds`, and at least one."""
    times = [probe()]
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        times.append(probe())
    return times


def import_konvex(src: Path):
    """Import konvex (and its command line) from src, freshly."""
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "konvex" or n.startswith("konvex.")]:
        del sys.modules[name]
    module = importlib.import_module("konvex.cli")
    if not Path(module.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"konvex was imported from {module.__file__}, not {src}")
    return module


def spread(ops: list) -> list:
    """Order a cycle so that each kind (label) of operation is spread evenly
    over it.  Machine speed drifts during a run; a percentile that falls
    inside one kind must not sample a single stretch of time.  A cycle of
    distinct labels keeps its order."""
    groups: dict[str, list] = {}
    for op in ops:
        groups.setdefault(op.label, []).append(op)
    keyed = [
        ((k + 0.5) / len(group), g, k, op)
        for g, group in enumerate(groups.values())
        for k, op in enumerate(group)
    ]
    return [op for *_, op in sorted(keyed, key=lambda row: row[:3])]


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile (the 'inclusive' method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def timings(ops: list, walls: list[float], passed: list[bool]) -> dict:
    """End-to-end timings of whole cycles of ops, from each call's time
    and check result in call order.  An operation's time is the median of
    its repetitions; only operations whose every repetition passed count as
    work done."""
    typical = [statistics.median(walls[i::len(ops)]) for i in range(len(ops))]
    clean = [all(passed[i::len(ops)]) for i in range(len(ops))]
    by_label: dict[str, list[float]] = {}
    for op, t in zip(ops, typical):
        by_label.setdefault(op.label, []).append(t)
    return {
        "ops_per_s": sum(op.units for op, ok in zip(ops, clean) if ok) / sum(typical),
        "op_p50_s": statistics.median(typical),
        "op_p90_s": quantile(typical, 0.9),
        "op_p50_s_by_label": {label: statistics.median(t) for label, t in by_label.items()},
    }


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool, work: Path,
        patch=None) -> dict:
    """Set up, run and check one workload; return the raw result document.

    patch, if given, is called after the last set-up, before the loop: the
    benchmark's own tests use it to inject faults.
    """
    src = Path.cwd() / "src"
    wl = WORKLOADS[workload](seed, tiny)

    setup_times = []

    def set_up(i: int) -> list:
        directory = work / f"setup{i}"
        directory.mkdir(parents=True, exist_ok=True)
        gc.collect()  # garbage from the previous set-up is not this one's cost
        start = time.perf_counter()
        import_konvex(src)
        ops = wl.setup(directory)
        setup_times.append(time.perf_counter() - start)
        return ops

    # Half the set-ups run before the loop and half after the checks, so
    # their median samples two stretches of the machine's speed.
    for i in range(SETUP_REPEATS // 2 + 1):
        ops = set_up(i)
    ops = spread(ops)

    if patch is not None:
        patch()
    rec = spans.Recorder()
    if trace:
        spans.install(rec)

    out_dir = work / "out"
    out_dir.mkdir(exist_ok=True)
    records = []  # (op, output prefix, wall s, CPU s, result or None, error)
    probes = probe_for(0.0) if wl.probe_scaled else []
    loop_start = time.perf_counter()
    cycles = 0
    while True:
        cycle_start = time.perf_counter()
        for op in ops:
            out = out_dir / f"op{len(records)}"
            root = rec.open(spans.ROOT) if trace else None
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                result, error = wl.run(op, out), None
            except Exception:  # a crashing operation is a failed one; keep going
                result, error = None, traceback.format_exc(limit=3)
            cpu = time.process_time() - c0
            wall = time.perf_counter() - t0
            if root is not None:
                rec.close(root)
            records.append((op, out, wall, cpu, result, error))
            if wl.probe_scaled:
                probes += probe_for(PROBE_SHARE * wall)
        cycles += 1
        cycle = time.perf_counter() - cycle_start
        if cycles >= MIN_CYCLES and time.perf_counter() - loop_start + cycle > seconds:
            break

    failures = []
    sizes: dict[str, set] = {}
    passed = []
    for op, out, _, _, result, error in records:
        n = None
        if error is None:
            try:
                error, n = wl.check(op, out, result)
            except Exception:
                error = traceback.format_exc(limit=3)
        sizes.setdefault(op.label, set()).add(n)
        passed.append(error is None)
        if error is not None:
            failures.append({"op": op.label, "error": error})

    for i in range(SETUP_REPEATS // 2 + 1, SETUP_REPEATS):
        set_up(i)

    walls = [wall for _, _, wall, _, _, _ in records]
    scale = PROBE_REF_S / statistics.fmean(probes) if probes else 1.0

    doc = {
        "workload": workload,
        "seed": seed,
        "attempted": len(records),
        "failed": len(failures),
        "failures": failures[:5],
        "cycles": cycles,
        "ops_per_cycle": len(ops),
        "setup_s": statistics.median(setup_times),
        "setup_runs_s": setup_times,
        **timings(ops, [wall * scale for wall in walls], passed),
        "scale": scale,
        "probe_s": statistics.fmean(probes) if probes else None,
        "wall": timings(ops, walls, passed),
        "cpu": timings(ops, [cpu for _, _, _, cpu, _, _ in records], passed),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sizes": {label: sorted(ns, key=str) for label, ns in sizes.items()},
    }
    if trace:
        doc["layers"] = spans.layer_metrics(rec)
        doc["spans"] = len(rec.spans)
    doc["numpy"] = sys.modules["numpy"].__version__
    return doc


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest inputs, for tests")
    parser.add_argument("--work", type=Path, required=True, help="scratch directory")
    args = parser.parse_args(argv)
    doc = run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny, args.work)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
