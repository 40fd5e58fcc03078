"""konvex benchmark: one workload per invocation.

    python3 perfbench/run.py --workload construct --seed 0 --seconds 30 --trace 0

Run it from the root of a source checkout; it benchmarks the konvex in
./src and exits with status 2, printing no result, when there is none.

The workload runs in its own single-threaded child process (BLAS and
OpenMP pools pinned to one thread).  With --trace 0 the last line of
standard output holds the end-to-end metrics; with --trace 1 the workload
runs twice, untraced and then traced, for half the time each, and the last
line holds the per-layer metrics, including the tracing overhead (traced
minus untraced operations per second).  The line before it is a JSON
record of the machine, the problem sizes, the source size and any failed
checks.  Workload inputs and outputs live in .perfbench_work/ and are
removed afterwards.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import metric_table  # noqa: E402

WORKLOADS = ("construct", "stab", "falsify")
TIME_LIMIT_S = 170.0
BLAS_THREADS = 1
END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("op_p90_s", "s"),
    ("success_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_lines(directory: Path) -> int:
    """Non-blank, non-comment lines of the Python files in a directory."""
    total = 0
    for path in sorted(directory.rglob("*.py")):
        for line in path.read_text().splitlines():
            stripped = line.strip()
            if stripped and not stripped.startswith("#"):
                total += 1
    return total


def machine(numpy_version: str) -> dict:
    nproc = os.cpu_count() or 1
    return {
        "nproc": nproc,
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas_threads": min(BLAS_THREADS, nproc),
    }


def run_worker(args, trace: bool, seconds: float, work: Path, deadline: float) -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(seconds), "--trace", str(int(trace)), "--work", str(work),
    ]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(
        cmd, env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="konvex benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest inputs, for tests")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "konvex" / "__init__.py").is_file():
        print(f"error: no konvex sources under {root / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            plain = run_worker(args, False, args.seconds / 2, work / "plain", deadline)
            doc = run_worker(args, True, args.seconds / 2, work / "traced", deadline)
            runs = [plain, doc]
        else:
            doc = run_worker(args, False, args.seconds, work, deadline)
            runs = [doc]
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    if args.trace:
        layers = dict(doc["layers"])
        layers["trace.overhead_ops_per_s"] = doc["ops_per_s"] - plain["ops_per_s"]
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit, _ in metric_table()}
    else:
        doc["success_ratio"] = (doc["attempted"] - doc["failed"]) / doc["attempted"]
        metrics = {name: {"value": doc[name], "unit": unit} for name, unit in END_TO_END}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(doc["numpy"]),
        "source_lines": {
            "src/konvex": source_lines(root / "src" / "konvex"),
            "tests": source_lines(root / "tests") if (root / "tests").is_dir() else 0,
        },
        "fail_ratio": failed / attempted,
        "runs": [
            {k: r[k] for k in ("attempted", "failed", "failures", "cycles", "ops_per_cycle", "ops_per_s",
                               "scale", "probe_s", "wall", "cpu", "setup_runs_s", "op_p50_s_by_label", "sizes", "spans")
             if k in r}
            for r in runs
        ],
    }
    print(json.dumps({"perfbench": record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
