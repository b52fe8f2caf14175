"""Pytest setup shared by ``tests/`` and ``perfbench/tests``.

BLAS runs on one thread, as the benchmark in ``perfbench/`` pins it: the
thread count changes the summation order, so results are bitwise
reproducible only at a fixed one, and on a small host the library's
default thread count makes the small matmuls here slower and erratic.
The variables must be set before numpy first loads, so this file imports
nothing that imports numpy.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
