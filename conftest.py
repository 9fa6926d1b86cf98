"""Test-suite set-up that must run before numpy loads.

OpenBLAS's thread count can move gemm bits (README, "Threads"), and the
suite's pinned hashes were taken with one BLAS thread, so the suite runs
with one unless the caller's environment names a count.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
