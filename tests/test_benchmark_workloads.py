"""Each workload that BENCHMARK.json declares runs one op through
perfbench/worker.py, untraced, as a benchmark run starts it."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_each_benchmark_workload_runs_one_op(workload):
    # 170 s is run.py's limit for one worker.
    proc = subprocess.run([sys.executable, "perfbench/worker.py", "--workload", workload,
                           "--seed", "5", "--ops", "1"],
                          capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failed"] == 0, result["failures"]
    assert result["warmup_failure"] is None
