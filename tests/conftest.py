"""Shared fixtures: the four reference symbols used throughout the suite.

F1  xi + e^{ix}                 scalar, first order
F2  xi^2 + i e^{ix}             scalar, second order, roots share a base point
F3  [[xi + e^{ix}, 1], [0, xi - e^{ix}]]   2x2 upper triangular, first order
F4  e^{ix} xi^2                 scalar, homogeneous (classical scaling)
"""

import math

# weylab first: it sets one BLAS thread, which only takes effect before
# numpy is imported
from weylab import symbol

import numpy as np
import pytest
from scipy.integrate import quad


@pytest.fixture(scope="session")
def f1():
    # terms (alpha, i, j, frequency, coefficient)
    return symbol.MatrixSymbol.from_terms(1, 1, [(0, 0, 0, 1, 1.0),
                                                 (1, 0, 0, 0, 1.0)])


@pytest.fixture(scope="session")
def f2():
    return symbol.MatrixSymbol.from_terms(1, 2, [(0, 0, 0, 1, 1j),
                                                 (2, 0, 0, 0, 1.0)])


@pytest.fixture(scope="session")
def f3():
    return symbol.MatrixSymbol.from_terms(2, 1, [
        (0, 0, 0, 1, 1.0), (0, 0, 1, 0, 1.0), (0, 1, 1, 1, -1.0),
        (1, 0, 0, 0, 1.0), (1, 1, 1, 0, 1.0)])


@pytest.fixture(scope="session")
def f4():
    return symbol.MatrixSymbol.from_terms(1, 2, [(2, 0, 0, 1, 1.0)])


@pytest.fixture(scope="session")
def f2_gamma_measure():
    """Closed form of F2's Weyl measure on Gamma = [0.1, 0.7] x [-0.5, 0.5].

    F2 = (xi^2 - sin x) + i cos x, so Im p in [-1/2, 1/2] needs |cos x| <= 1/2
    and Re p in [0.1, 0.7] needs xi^2 in [0.1 + sin x, 0.7 + sin x].  On
    [4pi/3, 5pi/3] sin x < -0.7 and no xi qualifies, which leaves
    int_{pi/3}^{2pi/3} 2 (sqrt(0.7 + sin x) - sqrt(0.1 + sin x)) dx.
    """
    value, _ = quad(lambda x: 2.0 * (math.sqrt(0.7 + math.sin(x))
                                     - math.sqrt(0.1 + math.sin(x))),
                    math.pi / 3.0, 2.0 * math.pi / 3.0,
                    epsabs=1e-13, epsrel=1e-13)
    return value


@pytest.fixture()
def rng():
    return np.random.default_rng(20260823)
