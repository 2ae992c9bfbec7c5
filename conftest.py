"""Run the whole suite at one BLAS thread.

pytest loads this file before it collects any test module, so the thread
variables are set before anything imports numpy. A second thread gains the
suite's small products no wall time, doubles its CPU time and changes the
last bits of some results. A test that starts a process at another thread
count passes that process its own variable. The names are
``acgcl.trainer.THREAD_VARIABLES``, which this file cannot import without
importing numpy.
"""

import os

for variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[variable] = "1"
