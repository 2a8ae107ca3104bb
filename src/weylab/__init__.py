"""Numerical lab for eigenvalue statistics of randomly perturbed
non-self-adjoint differential operators on the circle.

The API lives in the submodules symbol, domains, discretize, randomness,
quasimode and harness; the command-line tool is weylab.cli.
"""

import os

__version__ = "0.1.0"

# One BLAS thread per process unless the caller chose otherwise: the trials
# already run one process per CPU (harness.WORKERS), and a second thread on a
# dense solve of side a few hundred mostly adds overhead.  Set before the
# submodules import numpy; it has no effect if numpy was imported first.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from . import discretize, domains, harness, quasimode, randomness, symbol
