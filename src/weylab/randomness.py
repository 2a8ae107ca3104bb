"""Reproducible sampling of the random Fourier perturbation model.

Coefficients q_{alpha,k}^{i,j} are independent complex Gaussians with
E|q|^2 = sigma(k)^2 = <k>^{-2 rho} (real and imaginary parts independent
N(0, sigma^2/2) each).  A draw is one array ``q[alpha - alpha_min, i, j,
k + K_q]`` for |k| <= K_q.  Sampling is addressable: every coefficient is a
pure function of (seed, experiment, trial, alpha, i, j, k), independent of
evaluation order, so one realization can be reused across runs and across
the dyadic lambda ladder.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
import types
from dataclasses import dataclass
from typing import Mapping

import numpy as np
from scipy.special import ndtri


@dataclass(frozen=True)
class SeedSpec:
    """64-bit master seed plus stream labels for one trial."""

    seed: int
    experiment: str = ""
    trial: int = 0


@dataclass(frozen=True)
class CoefficientLaw:
    alpha_min: int
    alpha_max: int
    n: int
    rho_decay: float
    K_q: int = 32

    def __post_init__(self):
        if self.alpha_min > self.alpha_max or self.alpha_min < 0:
            raise ValueError("need 0 <= alpha_min <= alpha_max")
        if not 1.0 < self.rho_decay < math.inf:
            raise ValueError(f"rho_decay must be finite and exceed 1, not "
                             f"{self.rho_decay!r}")

    def sigma_rule(self, alpha, i, j, k, h):
        """sigma = <k>^{-rho} for every alpha, i, j and h; k may be an array.
        It meets the paper's bounds <k>^{-rho} / C~ <= sigma <= C~ <k>^{-rho}
        for every C~ >= 1: C~ is the paper's constant, not a parameter.
        np.float_power rounds as Python's ** does; np.power can differ."""
        k = np.asarray(k, dtype=float)
        return np.float_power(1.0 + k * k, -self.rho_decay / 2.0)


@dataclass(frozen=True, eq=False)
class PerturbationDraw:
    """One realization omega: ``q[alpha - alpha_min, i, j, k + K_q]``."""

    q: np.ndarray
    seed_record: SeedSpec
    law: CoefficientLaw

    @functools.cached_property
    def coeffs(self) -> Mapping:
        """Read-only (alpha, i, j, k) -> q view, in the array's order."""
        law = self.law
        keys = itertools.product(range(law.alpha_min, law.alpha_max + 1),
                                 range(law.n), range(law.n),
                                 range(-law.K_q, law.K_q + 1))
        return types.MappingProxyType(dict(zip(keys, self.q.ravel().tolist())))


def _unit_normals(spec: SeedSpec, alpha: int, i: int, j: int,
                  count: int) -> np.ndarray:
    """Deterministic standard normals, addressable by position."""
    label = f"weylab|{spec.seed}|{spec.experiment}|{spec.trial}|{alpha}|{i}|{j}"
    digest = hashlib.blake2b(label.encode(), digest_size=16).digest()
    key = int.from_bytes(digest, "little")
    rng = np.random.Generator(np.random.Philox(key=key))
    u = rng.random(count)
    u = np.clip(u, 2.0 ** -53, 1.0 - 2.0 ** -53)
    return ndtri(u)


def sample_draw(law: CoefficientLaw, spec: SeedSpec,
                h: float = 1.0) -> PerturbationDraw:
    """Sample all coefficients with |k| <= K_q for one trial stream."""
    ks = np.arange(-law.K_q, law.K_q + 1)
    sig = law.sigma_rule(law.alpha_min, 0, 0, ks, h)[:, None]
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    q = np.empty((law.alpha_max - law.alpha_min + 1, law.n, law.n, len(ks)),
                 dtype=complex)
    for a, i, j in np.ndindex(q.shape[:3]):
        normals = _unit_normals(spec, law.alpha_min + a, i, j, 2 * len(ks))
        # (Re, Im) pairs scaled as (normal * sigma) / sqrt(2)
        q[a, i, j] = (normals.reshape(-1, 2) * sig * inv_sqrt2).view(complex)[:, 0]
    q.flags.writeable = False
    return PerturbationDraw(q=q, seed_record=spec, law=law)


@dataclass(frozen=True)
class TailReport:
    thresholds: tuple
    fractions: tuple
    bounds: tuple
    c0: float
    sigma_l1: float
    sigma_linf: float


def empirical_tail(law: CoefficientLaw, seed: int, trials: int,
                   thresholds) -> TailReport:
    """Exceedance fractions of sum|q| vs the sub-Gaussian analytic bound.

    The bound constant C0 is unspecified by the theory; it is fitted as the
    smallest value making the bound dominate every observed fraction, and
    reported alongside the curves.
    """
    if trials < 100:
        raise ValueError("need at least 100 trials")
    stats = np.empty(trials)
    for t in range(trials):
        q = sample_draw(law, SeedSpec(seed, "tail", t)).q
        # Python's abs and a left-to-right sum in (alpha, i, j, k) order:
        # np.abs and np.sum round differently
        stats[t] = sum(abs(v) for v in q.ravel().tolist())

    slots = (law.alpha_max - law.alpha_min + 1) * law.n * law.n
    sigmas = np.tile(law.sigma_rule(law.alpha_min, 0, 0,
                                    np.arange(-law.K_q, law.K_q + 1), 1.0),
                     slots)
    l1 = float(np.sum(sigmas))
    linf = float(np.max(sigmas))

    thresholds = tuple(float(x) for x in thresholds)
    fractions = tuple(float(np.mean(stats >= x)) for x in thresholds)

    # smallest C0 with exp(C0*l1/(2*linf) - x^2/(2*linf*l1)) >= fraction
    c0 = 0.0
    for x, f in zip(thresholds, fractions):
        if f > 0.0:
            need = (2.0 * linf / l1) * (math.log(f) + x * x / (2.0 * linf * l1))
            c0 = max(c0, need)
    bounds = tuple(
        min(1.0, math.exp(c0 * l1 / (2.0 * linf) - x * x / (2.0 * linf * l1)))
        for x in thresholds)
    return TailReport(thresholds=thresholds, fractions=fractions,
                      bounds=bounds, c0=c0, sigma_l1=l1, sigma_linf=linf)

