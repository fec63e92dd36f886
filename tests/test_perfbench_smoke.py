"""Smoke test of the benchmark harness: one short traced run of ``train-2d``."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_train_2d_traced_run_reports_valid_json():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-2d", "--seed", "0",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert {"correct", "attempted", "failed", "metrics"} <= set(result)
    assert result["attempted"] > 0
    assert result["failed"] == 0
    assert isinstance(result["metrics"], dict) and result["metrics"]
