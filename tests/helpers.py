"""Builders the tests share that the package itself has no use for."""

import itertools
import os
import time

import numpy as np

from weylab import discretize, domains
from weylab.discretize import FourierTruncation, OperatorMatrix, _over_sqrt_2pi
from weylab.errors import NonConvergence
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


def _on_trial_solves(monkeypatch, solve):
    """Send each discretize.eigenvalues call to solve(trial, mat,
    eigenvalues), ``trial`` the trial whose perturbed operator ``mat`` is,
    or None, in whichever process solves it: fork carries the patches to
    helpers."""
    solving = {}
    perturbed, eigenvalues = (discretize.perturbed_operator,
                              discretize.eigenvalues)

    def perturbed_op(mat, draw, delta):
        solving["trial"] = draw.seed_record.trial
        return perturbed(mat, draw, delta)
    monkeypatch.setattr(discretize, "perturbed_operator", perturbed_op)
    monkeypatch.setattr(discretize, "eigenvalues", lambda mat: solve(
        solving.pop("trial", None), mat, eigenvalues))


def fail_at_trial(monkeypatch, trial):
    """Make discretize.eigenvalues raise NonConvergence on ``trial``'s
    solve."""
    def solve(t, mat, eigenvalues):
        if t == trial:
            raise NonConvergence(f"trial {trial}")
        return eigenvalues(mat)
    _on_trial_solves(monkeypatch, solve)


def plant_eigenvalue(monkeypatch, trial, K, z):
    """Add the eigenvalue z to ``trial``'s spectrum whenever it is solved
    at truncation K."""
    def solve(t, mat, eigenvalues):
        eigs = eigenvalues(mat)
        if (t, mat.trunc.K) == (trial, K):
            eigs = np.append(eigs, z)
        return eigs
    _on_trial_solves(monkeypatch, solve)


def fail_in_helper(monkeypatch, work):
    """Make a helper process, never the parent, raise NonConvergence in
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
            raise NonConvergence(f"{work} in a helper")
        return real(*args)
    monkeypatch.setattr(module, name, failing)


def log_trial_solves(monkeypatch, folder, hold=None, fail=None):
    """Touch folder/"K-trial-pid-n" as each trial's eigensolve starts, in
    whichever process makes it.  With hold = (K, K_mark) the parent's solve
    of trial 0 at K first waits until a helper has started a solve at
    K_mark; with fail = (K, trial) a helper's solve of that trial at K
    raises NonConvergence."""
    folder.mkdir()
    parent = os.getpid()
    count = itertools.count()

    def eigs(trial, mat, eigenvalues):
        K, pid = mat.trunc.K, os.getpid()
        if trial is not None:
            (folder / f"{K}-{trial}-{pid}-{next(count)}").touch()
            if pid != parent and (K, trial) == fail:
                raise NonConvergence(f"trial {trial} at K = {K}")
            if pid == parent and hold is not None and (K, trial) == (
                    hold[0], 0):
                deadline = time.monotonic() + 30.0
                while not any(k == hold[1] and p != parent
                              for k, _, p in trial_solves(folder)):
                    if time.monotonic() > deadline:
                        raise TimeoutError(f"no helper solve at K = {hold[1]}")
                    time.sleep(0.01)
        return eigenvalues(mat)
    _on_trial_solves(monkeypatch, eigs)


def trial_solves(folder):
    """(K, trial, pid) of each solve that log_trial_solves logged."""
    return [tuple(int(v) for v in path.name.split("-")[:3])
            for path in folder.iterdir()]
