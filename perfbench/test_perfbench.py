"""Tests of the benchmark itself: metric names and units, the checker's
ability to fail, and the span arithmetic behind the per-layer numbers.

Workload runs happen in subprocesses, because the worker re-imports konvex
and the tracer rewrites its module attributes.
"""

import json
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_per_layer_table_matches_benchmark_json():
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == [
        tuple(row) for row in spans.metric_table()
    ]


def run_with_patch(tmp_path, workload, patch_source):
    """Run a tiny workload in a fresh process with a fault injected after
    set-up; return the worker's result document."""
    script = textwrap.dedent(f"""
        import json, sys
        from pathlib import Path
        sys.path.insert(0, {str(HERE)!r})
        import spans, worker
        {textwrap.indent(textwrap.dedent(patch_source), "        ").strip()}
        doc = worker.run({workload!r}, 0, 0.1, False, True, Path({str(tmp_path)!r}), patch=patch)
        print(json.dumps(doc))
    """)
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_checker_fails_a_stabbing_line_with_too_low_a_count(tmp_path):
    doc = run_with_patch(tmp_path, "stab", """
        def patch():
            def make(find_stabbing_line):
                def stub(poly, r, body):
                    from konvex.geometry import Line
                    from konvex.stabbing import line_multiplicity
                    find_stabbing_line(poly, r, body)
                    miss = Line(1, 0, 100)  # far outside the body: count 0
                    return miss, line_multiplicity(miss, poly)
                return stub
            spans.replace_everywhere("stabbing", "find_stabbing_line", make)
    """)
    assert doc["attempted"] >= 1
    assert doc["failed"] == doc["attempted"]
    assert "replayed count 0" in doc["failures"][0]["error"]


def test_checker_fails_a_falsify_run_reporting_a_violation(tmp_path):
    doc = run_with_patch(tmp_path, "falsify", """
        def patch():
            def make(falsify):
                def stub(body, r, trials, seed=0):
                    report = falsify(body, r, trials, seed)
                    report.evidence["violations"].append(
                        {"trial": 0, "generator": "walk", "ratio": 1.5, "count": r})
                    return report
                return stub
            spans.replace_everywhere("verifier", "falsify", make)
    """)
    assert doc["attempted"] >= 1
    assert doc["failed"] == doc["attempted"]
    assert "exit code 2" in doc["failures"][0]["error"]


def test_scaled_workload_scales_its_times_by_the_probe(tmp_path):
    from worker import PROBE_REF_S

    doc = run_with_patch(tmp_path, "stab", "patch = None")
    assert doc["probe_s"] > 0
    assert doc["scale"] == pytest.approx(PROBE_REF_S / doc["probe_s"])
    for name in ("op_p50_s", "op_p90_s"):
        assert doc[name] == pytest.approx(doc["wall"][name] * doc["scale"])


def test_benchmark_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "stab", "--seed", "0", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_layer_metrics_from_synthetic_spans():
    rec = spans.Recorder()

    def timed(name, start, end, size=None, children=()):
        span = rec.open(name, size)
        span.start = start
        for child in children:
            child()
        rec.close(span)
        span.end = end
        return span

    # op 1: a stab that falls back to the enumeration, with two replays
    def fallback():
        timed(spans.MAX, 2.0, 5.0, size=10,
              children=[lambda: rec.count(spans.REPLAY), lambda: rec.count(spans.REPLAY)])

    timed(spans.ROOT, 0.0, 10.0, children=[
        lambda: timed(spans.STAB, 1.0, 7.0, children=[fallback])])
    # op 2: a build that verifies once
    timed(spans.ROOT, 10.0, 20.0, children=[
        lambda: timed(spans.BUILD, 10.0, 18.0, children=[
            lambda: timed(spans.MAX, 12.0, 16.0, size=4)])])

    m = spans.layer_metrics(rec)
    assert rec.ops == 2
    assert m["stabbing.find_stabbing_line.calls"] == 0.5
    assert m["stabbing.find_stabbing_line.self_s"] == pytest.approx((6.0 - 3.0) / 2)
    assert m["stabbing.max_line_multiplicity.busy_s"] == pytest.approx(7.0 / 2)
    assert m["stabbing.fallback_ratio"] == 1.0
    assert m["stabbing.replays_per_max"] == 1.0
    assert m["stabbing.line_multiplicity.calls"] == 1.0
    assert m["stabbing.candidates"] == (spans.candidate_lines(10) + spans.candidate_lines(4)) / 2
    assert m["builder.verify_calls_per_build"] == 1.0
    assert m["builder.self_s"] == pytest.approx((8.0 - 4.0) / 2)
    assert m["trace.uncovered_share"] == pytest.approx((10.0 - 6.0 + 10.0 - 8.0) / 20.0)


def test_spread_interleaves_kinds_and_keeps_distinct_order():
    from types import SimpleNamespace

    from worker import spread

    def labels(text):
        return "".join(op.label for op in spread([SimpleNamespace(label=c) for c in text]))

    assert labels("abcdef") == "abcdef"
    assert labels("aaaaaabbccc") == "acabacaabca"


def test_timings_take_each_operations_median_repetition():
    from types import SimpleNamespace

    from worker import timings

    ops = [SimpleNamespace(label="a", units=1), SimpleNamespace(label="b", units=10)]
    walls = [3.0, 1.0, 2.0, 5.0, 4.0, 2.0]  # three cycles: a, b, a, b, a, b
    t = timings(ops, walls, [True] * 6)
    assert (t["ops_per_s"], t["op_p50_s"]) == (11 / 5.0, 2.5)
    assert t["op_p50_s_by_label"] == {"a": 3.0, "b": 2.0}
    failed_once = timings(ops, walls, [True, True, True, False, True, True])
    assert failed_once["ops_per_s"] == 1 / 5.0
