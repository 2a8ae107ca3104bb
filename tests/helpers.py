"""Builders the tests share that the package itself has no use for."""

import os

import numpy as np

from weylab import discretize, domains
from weylab.discretize import FourierTruncation, OperatorMatrix, _over_sqrt_2pi
from weylab.errors import NoConvergence
from weylab.symbol import MatrixSymbol


def _padded(coeffs, B):
    """A coefficient array widened with zeros to bandwidth B."""
    pad = B - coeffs.shape[-1] // 2
    return np.pad(coeffs, [(0, 0)] * (coeffs.ndim - 1) + [(pad, pad)])


def perturbed_symbol(sym, draw, delta):
    """The symbol of P + delta Q_omega, its coefficients scaled as
    assemble_perturbation scales them."""
    law = draw.law
    B = max(sym.max_bandwidth(), law.K_q)
    coeffs = _padded(sym.coeffs, B)
    coeffs[law.alpha_min:law.alpha_max + 1] += _padded(
        _over_sqrt_2pi(delta * draw.q), B)
    return MatrixSymbol(sym.n, sym.m, coeffs)


def read_matrix(path):
    """The OperatorMatrix of a save_matrix file: a header (side, n, K, h),
    then one row of 'Re Im' pairs per matrix row."""
    with open(path) as fh:
        side, n, K, h = fh.readline().split()
        pairs = np.array([line.split() for line in fh], dtype=float)
    trunc = FourierTruncation(K=int(K), n=int(n), h=float(h))
    assert pairs.shape == (trunc.side, 2 * trunc.side) and \
        trunc.side == int(side)
    return OperatorMatrix(pairs.view(complex), trunc)


def fail_at_trial(monkeypatch, trial):
    """Make discretize.eigenvalues raise NoConvergence on ``trial``'s solve,
    in whichever process solves it: fork carries the patches to helpers."""
    solving = {}
    perturbed, eigenvalues = (discretize.perturbed_operator,
                              discretize.eigenvalues)

    def perturbed_op(mat, draw, delta):
        solving["trial"] = draw.seed_record.trial
        return perturbed(mat, draw, delta)

    def eigs(mat):
        if solving.get("trial") == trial:
            raise NoConvergence(f"trial {trial}")
        return eigenvalues(mat)
    monkeypatch.setattr(discretize, "perturbed_operator", perturbed_op)
    monkeypatch.setattr(discretize, "eigenvalues", eigs)


def fail_in_helper(monkeypatch, work):
    """Make a helper process, never the parent, raise NoConvergence in
    ``work``: "weyl" for a Weyl measure, "rescaled" for a rescaling-identity
    eigensolve (the only solves of a matrix assembled at h != 1)."""
    parent = os.getpid()
    module, name, hit = {
        "weyl": (domains, "weyl_measure", lambda *args: True),
        "rescaled": (discretize, "eigenvalues",
                     lambda mat: mat.trunc.h != 1.0)}[work]
    real = getattr(module, name)

    def failing(*args):
        if os.getpid() != parent and hit(*args):
            raise NoConvergence(f"{work} in a helper")
        return real(*args)
    monkeypatch.setattr(module, name, failing)
