"""Smoke test of ``scripts/run_exact_verification.py`` at a short horizon."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_exact_verification_script_holds_at_short_horizon():
    proc = subprocess.run(
        [sys.executable, "scripts/run_exact_verification.py", "--horizon", "4",
         "--depth", "3"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "VERDICT: all exact checks hold" in proc.stdout
    assert "histories in" in proc.stdout and "belief classes" in proc.stdout
    assert re.search(r"value invariance, 1D half-size 10 \(horizon 50\): passed=True "
                     r"max_dev=0\.000e\+00 checked=\d+ policy_equivariant=True", proc.stdout)
