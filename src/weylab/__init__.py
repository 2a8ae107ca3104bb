"""Numerical lab for eigenvalue statistics of randomly perturbed
non-self-adjoint differential operators on the circle.

The API lives in the submodules symbol, domains, discretize, randomness,
quasimode and harness; the command-line tool is weylab.cli.
"""

__version__ = "0.1.0"

from . import discretize, domains, harness, quasimode, randomness, symbol
