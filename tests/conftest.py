"""Shared fixtures: the four reference symbols used throughout the suite.

F1  xi + e^{ix}                 scalar, first order
F2  xi^2 + i e^{ix}             scalar, second order, roots share a base point
F3  [[xi + e^{ix}, 1], [0, xi - e^{ix}]]   2x2 upper triangular, first order
F4  e^{ix} xi^2                 scalar, homogeneous (classical scaling)
"""

import numpy as np
import pytest

from weylab import symbol


@pytest.fixture(scope="session")
def f1():
    return symbol.scalar_symbol(1, {0: {1: 1.0}, 1: {0: 1.0}})


@pytest.fixture(scope="session")
def f2():
    return symbol.scalar_symbol(2, {0: {1: 1j}, 2: {0: 1.0}})


@pytest.fixture(scope="session")
def f3():
    # terms (alpha, i, j, frequency, coefficient)
    return symbol.MatrixSymbol.from_terms(2, 1, [
        (0, 0, 0, 1, 1.0), (0, 0, 1, 0, 1.0), (0, 1, 1, 1, -1.0),
        (1, 0, 0, 0, 1.0), (1, 1, 1, 0, 1.0)])


@pytest.fixture(scope="session")
def f4():
    return symbol.scalar_symbol(2, {2: {1: 1.0}}, semiclassical=False)


@pytest.fixture()
def rng():
    return np.random.default_rng(20260823)
