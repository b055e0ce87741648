"""One BLAS thread for the test run, set before numpy is first imported
(neither pytest nor hypothesis imports it): with two OpenBLAS threads the
first complex ``eigh`` of a run took about 1 s, and the idle worker spins
beside the main thread.  A value already in the environment is kept."""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
