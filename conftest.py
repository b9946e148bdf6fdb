"""Pytest setup for the whole checkout: one BLAS thread, set before numpy loads.

Unpinned, one receive of the default frame took 10-124 ms per call on a
2-core machine; pinned, 11-15 ms.  ``perfbench/bench.py`` and the CI
workflow pin the threads the same way, so a test run by hand times what
they time.  A value already in the environment is kept.
"""

import os
import sys

for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

# BLAS reads the variables once, when numpy loads; tests/test_thread_pins.py checks this
NUMPY_LOADED_BEFORE_PIN = "numpy" in sys.modules
