"""Tiny-size smoke test of the benchmark: every named metric, with its unit.

    python3 -m pytest bench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# The gated workloads plus the one kept runnable for per-layer study.
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["sweep_small_w2"]
# The ten end-to-end figures every untraced run prints, gated or not.
REPORTED_METRICS = {
    "runs_per_s", "cf_call_p50_us", "cf_call_p99_us", "gn_call_p50_us",
    "gn_call_p99_us", "setup_s", "peak_rss_mb", "cf_rmse_over_crlb",
    "cf_large_error_rate", "failed_share",
}


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_emitted_with_its_unit(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if not trace:  # the human-readable report names all ten, with counts
        reported = {line.split()[0] for line in lines[1:-1]}
        assert REPORTED_METRICS <= reported
        assert all(" n=" in line for line in lines[1:-1])


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
