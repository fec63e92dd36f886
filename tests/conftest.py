"""Suite-wide test setup.

BLAS gets one thread: the suite's matrices are small, and a second BLAS
thread only spins beside the test process. ``setdefault`` keeps a value the
caller sets. This runs before any test module imports numpy, which reads
these variables once, at import.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
