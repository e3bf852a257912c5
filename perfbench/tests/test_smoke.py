"""Seconds-long runs of every workload through the benchmark's CLI, with
every oracle on, checking the result line against BENCHMARK.json."""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)


def _run(workload, trace, seconds="1"):
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", seconds, "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr[-3000:]
    return out.stdout, json.loads(out.stdout.strip().splitlines()[-1])


def _check(result, section):
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC[section]}
    for metric in SPEC[section]:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], float)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_run_is_correct_and_complete(workload):
    stdout, result = _run(workload, 0)
    _check(result, "end_to_end")
    for metric in result["metrics"].values():
        assert metric["value"] > 0
    assert "failed_ratio = 0 " in stdout


def test_traced_search_reports_idle_layers_as_zero():
    stdout, result = _run("search", 1, seconds="2")
    _check(result, "per_layer")
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    for idle in ("kb.find_recommendations.ms", "kb.render_segments.count",
                 "store.record.count", "qep.write_plan.count",
                 "store.checkpoint.count"):
        assert metrics[idle] == 0, idle
    assert metrics["core.search_plan.count"] > 0
    assert metrics["core.engine.match_hit_ratio"] < 0.5
    assert "self_ms_by_layer" in stdout
    trace_path = os.path.join(ROOT, ".perfbench", "trace-search.json")
    with open(trace_path) as handle:
        events = json.load(handle)["traceEvents"]
    assert any(e["name"] == "core.search_plan" for e in events)


def test_without_the_program_it_fails_without_a_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(BENCH):
        if name.endswith(".py"):
            (bench / name).write_bytes(open(os.path.join(BENCH, name), "rb").read())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_benchmark_json_matches_the_catalogue():
    import workloads

    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(
        workloads.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(
        workloads.PER_LAYER)
