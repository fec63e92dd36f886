"""Importing ``equipomdp`` keeps freed heap pages resident: temporaries freed
and allocated again at the same size reuse their pages instead of faulting
them back in, zero-filled, from the kernel."""

import ctypes
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
CYCLES = 20

# Each cycle allocates 100 arrays of 15,000 float64 (120 KB each, under
# glibc's default mmap threshold, 12 MB in all), writes them and frees them.
# With glibc's default thresholds the freed top of the heap goes back to the
# kernel and every cycle faults its 12 MB in again, about 2,900 pages.
CHILD = f"""
import resource
import sys

sys.path.insert(0, sys.argv[1])
import numpy as np
import equipomdp

def cycle():
    arrays = [np.ones(15_000) for _ in range(100)]
    del arrays

cycle()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range({CYCLES}):
    cycle()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(os.name != "posix" or not hasattr(ctypes.CDLL(None), "mallopt"),
                    reason="the C library has no mallopt")
def test_import_keeps_freed_heap_pages_resident():
    proc = subprocess.run([sys.executable, "-c", CHILD, str(SRC)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    faults = int(proc.stdout.split()[-1])
    assert faults / CYCLES < 100, f"{faults} minor faults in {CYCLES} cycles"
