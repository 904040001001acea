"""Smoke test of the benchmark harness at tiny sizes; it checks no timings.

Every workload runs one untraced and one traced pass; the test requires
every output check to pass, the printed metrics to match BENCHMARK.json,
the traced functions and the host-speed timer to be restored afterwards,
and a run without the csemri sources to fail without printing a result.
"""

import json
import math
import shutil
import signal
import subprocess
import sys

import pytest

import run

run.import_csemri()  # puts src/ on the path for workloads

import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_names_agree_with_benchmark_json():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert names == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == tracing.PER_LAYER_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.UNITS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_workload_smoke(name, trace, tmp_path):
    result, report = run.run_workload(name, seed=3, seconds=0, trace=trace, smoke=True, out_dir=tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, report["problems"]
    assert result["attempted"] >= 1
    expected = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    if trace:
        assert report["passes"] == 2
        for module_name, attr, *_ in tracing.TARGETS:
            module = sys.modules[module_name]
            assert not hasattr(getattr(module, attr), "__wrapped__"), f"{module_name}.{attr} left wrapped"
        shares = [result["metrics"][f"{layer}.self_share"]["value"] for layer in tracing.LAYERS]
        assert sum(shares) == pytest.approx(1.0)
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert [p.name for p in tmp_path.iterdir() if p.name.startswith("work-")] == []
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0), "host-speed timer left running"
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL


def test_command_line_prints_result_last():
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "identify", "--seed", "2",
         "--seconds", "0", "--trace", "0", "--smoke"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["attempted"] == len(workloads.SMOKE_PROTOCOLS)


def test_fails_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "benchmark", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "certify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
