"""Toy-size smoke test of the benchmark harness, so that it cannot rot.

    python3 -m pytest bench/tests -q

Every workload runs one unit per pass, untraced and traced, and must report
exactly the metrics BENCHMARK.json declares, with no failed unit.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402


def run_bench(script: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--max-units", "1"],
        capture_output=True, text=True, timeout=170, cwd=script.parents[1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_declared_metrics(workload, trace):
    proc = run_bench(BENCH / "run.py", workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert ({k: v["unit"] for k, v in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in declared})


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench(tmp_path / "bench" / "run.py", "plan-paper", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_time_subtracts_direct_children():
    tracer = tracing.Tracer()
    with tracer.span("unit"):
        with tracer.span("outer"):
            time.sleep(0.01)
            with tracer.span("inner"):
                time.sleep(0.02)
    summary = tracer.summary()
    outer, inner = summary["outer"], summary["inner"]
    assert outer["self_s"] == pytest.approx(outer["total_s"]
                                            - inner["total_s"])
    assert summary["unit"]["self_s"] < outer["self_s"]
    assert inner["self_s"] == inner["total_s"]
