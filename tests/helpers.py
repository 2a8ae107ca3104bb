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


def full_symbol():
    """n = 3, m = 3, bandwidth 2, every (order, frequency) slice nonzero:
    seeded random coefficients, with 4 I added to A_3 for ellipticity."""
    rng = np.random.default_rng(7)
    coeffs = 0.3 * (rng.normal(size=(4, 3, 3, 5))
                    + 1j * rng.normal(size=(4, 3, 3, 5)))
    coeffs[3, :, :, 2] += 4.0 * np.eye(3)
    return MatrixSymbol(3, 3, coeffs)


def gap_symbol():
    """n = 2, m = 2 with a zero A_1, and an A_0 of frequencies -1 and 2 only
    (its slices 0 and 1 vanish): xi^2 I + C(x) + xi^2 e^{ix} e_12."""
    return MatrixSymbol.from_terms(2, 2, [
        (0, 0, 0, -1, 0.5), (0, 1, 0, 2, 0.3j), (0, 0, 1, -1, -0.2),
        (2, 0, 0, 0, 1.0), (2, 1, 1, 0, 1.0), (2, 0, 1, 1, 0.25)])


def named_symbol(name, request):
    """A fixture symbol (f1-f4), or "full" or "gap" for the builders above."""
    builders = {"full": full_symbol, "gap": gap_symbol}
    if name in builders:
        return builders[name]()
    return request.getfixturevalue(name)


def dense_coefficient_values(sym, x, dx=False):
    """coefficient_values summed over every frequency slice of every order,
    zero or not: the evaluator's reference."""
    x = np.asarray(x, dtype=float)
    B = sym.max_bandwidth()
    lead = (sym.m + 1, sym.n, sym.n) + (1,) * x.ndim
    vals = np.zeros(lead[:3] + x.shape, dtype=complex)
    derivs = np.zeros_like(vals)
    for f in range(-B, B + 1):
        c = sym.coeffs[..., f + B].reshape(lead)
        wave = np.exp(1j * f * x)
        vals += c * wave
        derivs += ((1j * f) * c) * wave
    return (vals, derivs) if dx else vals


def dense_polynomial(A, xi, dxi=False):
    """polynomial summed over every order of A, zero or not."""
    xi = np.asarray(xi)
    shape = np.broadcast_shapes(A.shape[1:], xi.shape)
    p = np.zeros(shape, dtype=complex)
    dp = np.zeros(shape, dtype=complex)
    xipow = np.ones_like(xi)
    for a in range(len(A)):
        p += A[a] * xipow
        if a + 1 < len(A):
            dp += (a + 1) * A[a + 1] * xipow
        xipow = xipow * xi
    return (p, dp) if dxi else p


def pointwise_m_gamma(m_gamma):
    """m_gamma with the coefficients evaluated at every point on its own,
    never shared along a column: each x[k] repeated for each xi[k, ...]."""
    def each_point(sym, domain, x, xi):
        xi = np.asarray(xi)
        xs = np.broadcast_to(np.reshape(x, x.shape + (1,) * (xi.ndim - 1)),
                             xi.shape)
        return m_gamma(sym, domain, xs.ravel(), xi.ravel()).reshape(xi.shape)
    return each_point


def pointwise_split(ij, corners, m_at):
    """domains._split evaluating the 5 new points of each cell in one list,
    bottom, left, centre, right, top, through m_gamma point by point."""
    i, j = 2 * ij[:, 0], 2 * ij[:, 1]
    bottom, left, centre, right, top = m_at(
        np.concatenate([i + 1, i, i + 1, i + 2, i + 1]),
        np.concatenate([j, j + 1, j + 1, j + 1, j + 2])).reshape(5, -1)
    c00, c10, c01, c11 = corners
    child_corners = np.concatenate([
        np.stack([c00, bottom, left, centre]),
        np.stack([bottom, c10, centre, right]),
        np.stack([left, centre, c01, top]),
        np.stack([centre, right, top, c11])], axis=1)
    child_ij = np.concatenate([np.stack([i + a, j + b], axis=1)
                               for a, b in ((0, 0), (1, 0), (0, 1), (1, 1))])
    return domains._mixed(child_ij, child_corners)


def read_matrix(path):
    """The OperatorMatrix of a `weylab assemble` file: a header (side, n,
    K, h), then one row of 'Re Im' pairs per matrix row."""
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
    last = {}       # the latest perturbed operator and its trial
    perturbed, eigenvalues = (discretize.perturbed_operator,
                              discretize.eigenvalues)

    def perturbed_op(mat, draw, delta):
        out = perturbed(mat, draw, delta)
        last.update(mat=out, trial=draw.seed_record.trial)
        return out

    def solved(mat):
        # a perturbed operator built but never solved (the rescaling
        # identity's comparison matrix) names no later solve's trial
        trial = last.get("trial") if last.get("mat") is mat else None
        last.clear()
        return solve(trial, mat, eigenvalues)
    monkeypatch.setattr(discretize, "perturbed_operator", perturbed_op)
    monkeypatch.setattr(discretize, "eigenvalues", solved)


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
