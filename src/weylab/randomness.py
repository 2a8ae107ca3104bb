"""Reproducible sampling of the random Fourier perturbation model.

Coefficients q_{alpha,k}^{i,j} are independent complex Gaussians with
E|q|^2 = sigma(alpha,i,j,k,h)^2 (real and imaginary parts independent
N(0, sigma^2/2) each).  Sampling is addressable: every coefficient is a
pure function of (seed, experiment, trial, alpha, i, j, k), independent
of evaluation order, so one realization can be reused across runs and
across the dyadic lambda ladder.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np
from scipy.special import ndtri

from .errors import BoundViolation

SQRT_2PI = math.sqrt(2.0 * math.pi)


def default_sigma_rule(rho: float) -> Callable:
    """sigma = <k>^{-rho}, independent of alpha, i, j, h."""
    def rule(alpha, i, j, k, h):
        return (1.0 + k * k) ** (-rho / 2.0)
    return rule


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
    c_tilde: float = 1.0
    K_q: int = 32
    sigma_rule: Callable | None = None

    def __post_init__(self):
        if self.alpha_min > self.alpha_max or self.alpha_min < 0:
            raise ValueError("need 0 <= alpha_min <= alpha_max")
        if self.rho_decay <= 1.0:
            raise ValueError("rho_decay must exceed 1")
        if self.c_tilde < 1.0:
            raise ValueError("c_tilde must be >= 1")
        if self.sigma_rule is None:
            object.__setattr__(self, "sigma_rule",
                               default_sigma_rule(self.rho_decay))
        self._validate_rule()

    def _validate_rule(self):
        ks = sorted({0, 1, -1, 2, -3, 5, -8, 13, self.K_q, -self.K_q})
        hs = (1.0, 0.5, 0.1, 0.01)
        for alpha in range(self.alpha_min, self.alpha_max + 1):
            for i in range(self.n):
                for j in range(self.n):
                    for k in ks:
                        for h in hs:
                            s = self.sigma_rule(alpha, i, j, k, h)
                            cap = self.c_tilde * (1.0 + k * k) ** (-self.rho_decay / 2.0)
                            if s < 0 or s > cap * (1.0 + 1e-12):
                                raise BoundViolation(
                                    f"sigma({alpha},{i},{j},{k},h={h}) = {s} "
                                    f"violates the <k>^-rho cap {cap}")
                            if alpha == self.alpha_max:
                                floor = (1.0 + k * k) ** (-self.rho_decay / 2.0) / self.c_tilde
                                if s < floor * (1.0 - 1e-12):
                                    raise BoundViolation(
                                        f"sigma({alpha},{i},{j},{k},h={h}) = {s} "
                                        f"below the top-order floor {floor}")

    def tail_mass(self, cutoff: int | None = None) -> float:
        """Exact bound C~ * sum_{|k| > cutoff} <k>^{-rho} per (alpha, i, j),
        summed over the coefficient slots."""
        slots = (self.alpha_max - self.alpha_min + 1) * self.n * self.n
        return _tail_mass(self.rho_decay, self.c_tilde, slots,
                          self.K_q if cutoff is None else cutoff)


@functools.lru_cache(maxsize=64)
def _tail_mass(rho: float, c_tilde: float, slots: int, cut: int) -> float:
    # sum a long head explicitly, bound the remainder by an integral
    head_k = np.arange(cut + 1, cut + 100001)
    head = 2.0 * np.sum((1.0 + head_k.astype(float) ** 2) ** (-rho / 2.0))
    kmax = cut + 100000
    integral_tail = 2.0 * kmax ** (1.0 - rho) / (rho - 1.0)
    return c_tilde * slots * float(head + integral_tail)


def sigma_of(law: CoefficientLaw, alpha: int, i: int, j: int, k: int,
             h: float) -> float:
    if not law.alpha_min <= alpha <= law.alpha_max:
        raise ValueError(f"alpha={alpha} outside [{law.alpha_min}, {law.alpha_max}]")
    return float(law.sigma_rule(alpha, i, j, k, h))


@dataclass(frozen=True)
class PerturbationDraw:
    """One realization omega of the coefficient family."""

    coeffs: Mapping
    seed_record: SeedSpec
    law: CoefficientLaw
    h: float
    tail_mass: float


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
    coeffs = {}
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    for alpha in range(law.alpha_min, law.alpha_max + 1):
        for i in range(law.n):
            for j in range(law.n):
                normals = _unit_normals(spec, alpha, i, j, 2 * len(ks))
                sig = np.array([law.sigma_rule(alpha, i, j, int(k), h)
                                for k in ks])
                re = normals[0::2] * sig * inv_sqrt2
                im = normals[1::2] * sig * inv_sqrt2
                for idx, k in enumerate(ks):
                    coeffs[(alpha, i, j, int(k))] = complex(re[idx], im[idx])
    return PerturbationDraw(coeffs=coeffs, seed_record=spec, law=law, h=h,
                            tail_mass=law.tail_mass())


def sup_norm_estimate(draw: PerturbationDraw) -> float:
    """sum |q| / sqrt(2*pi); bounds sum_alpha sup_x |Q_alpha^{i,j}(x)|."""
    return sum(abs(q) for q in draw.coeffs.values()) / SQRT_2PI


def coefficient_abs_sum(draw: PerturbationDraw) -> float:
    return sum(abs(q) for q in draw.coeffs.values())


@dataclass(frozen=True)
class TailReport:
    thresholds: tuple
    fractions: tuple
    bounds: tuple
    c0: float
    sigma_l1: float
    sigma_linf: float


def empirical_tail(law: CoefficientLaw, seed: int, trials: int,
                   thresholds, h: float = 1.0,
                   experiment: str = "tail") -> TailReport:
    """Exceedance fractions of sum|q| vs the sub-Gaussian analytic bound.

    The bound constant C0 is unspecified by the theory; it is fitted as the
    smallest value making the bound dominate every observed fraction, and
    reported alongside the curves.
    """
    if trials < 100:
        raise ValueError("need at least 100 trials")
    stats = np.empty(trials)
    for t in range(trials):
        draw = sample_draw(law, SeedSpec(seed, experiment, t), h)
        stats[t] = coefficient_abs_sum(draw)

    sigmas = []
    ks = range(-law.K_q, law.K_q + 1)
    for alpha in range(law.alpha_min, law.alpha_max + 1):
        for i in range(law.n):
            for j in range(law.n):
                sigmas.extend(law.sigma_rule(alpha, i, j, k, h) for k in ks)
    sigmas = np.asarray(sigmas)
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


# -- replay files -----------------------------------------------------------

def save_draw(draw: PerturbationDraw, path) -> None:
    """Text map (alpha, i, j, k, Re, Im), one coefficient per line."""
    with open(path, "w") as fh:
        for (alpha, i, j, k) in sorted(draw.coeffs):
            q = draw.coeffs[(alpha, i, j, k)]
            fh.write(f"{alpha} {i} {j} {k} {q.real!r} {q.imag!r}\n")


def load_draw(path, law: CoefficientLaw, spec: SeedSpec | None = None,
              h: float = 1.0) -> PerturbationDraw:
    coeffs = {}
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            alpha, i, j, k = (int(p) for p in parts[:4])
            coeffs[(alpha, i, j, k)] = complex(float(parts[4]), float(parts[5]))
    return PerturbationDraw(coeffs=coeffs,
                            seed_record=spec or SeedSpec(0, "replayed", 0),
                            law=law, h=h, tail_mass=law.tail_mass())
