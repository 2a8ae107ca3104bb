"""Experiment orchestration: seeded Monte Carlo eigenvalue counts vs the
phase-space (Weyl) prediction, in two modes.

semiclassical: fixed spectral window Gamma, shrinking h, coupling delta
inside the admissible window h^N0 < delta < h^{rho+gamma1+1/2} |ln h|^{-2};
each trial draws a fresh perturbation.

highenergy: fixed unit sector Gamma, growing dilation lambda, classical
(h = 1) assembly with an order-zero-to-alpha1 perturbation; each trajectory
draws ONE realization omega and reuses it across every lambda, which the
addressable sampler makes exact.  The h = 1 matrix does not depend on
lambda, so one eigensolve per trajectory counts every rung, at a truncation
certified on a pilot trajectory.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import discretize, domains, randomness, symbol
from .errors import (DegenerateFit, EmptyWindow, HypothesisViolation,
                     LambdaBelowOne, WindowViolation)

TWO_PI = 2.0 * math.pi

CSV_HEADER = "mode,h_or_lambda,trial,seed,N,W,residual,K,millis"

# Stages of one trial, timed into TrialRecord.stage_ms in this order.
STAGES = ("draw", "assemble", "eigensolve", "count")


# -- configuration -----------------------------------------------------------

@dataclass
class ExperimentConfig:
    sym: symbol.MatrixSymbol
    law: randomness.CoefficientLaw | None
    domains: list
    mode: str                       # "semiclassical" | "highenergy"
    h_list: tuple = ()
    lambda_list: tuple = ()
    trials: int = 20
    gamma1: float = 0.25
    N0: float = 3.0
    delta_override: float | None = None
    seed: int = 0
    c_K: float = 2.0
    calibration_quantile: float = 1.0
    check_truncation: bool = False
    raw: dict = field(default_factory=dict)

    def __post_init__(self):
        self.validate()

    # ------------------------------------------------------------------
    def validate(self):
        if self.mode not in ("semiclassical", "highenergy"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not self.domains:
            raise ValueError("at least one spectral domain is required")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.law is not None and self.law.alpha_max > self.sym.m - 1:
            raise HypothesisViolation(
                f"perturbation order alpha_max={self.law.alpha_max} must stay "
                f"below the operator order m={self.sym.m}")
        if self.mode == "semiclassical":
            if not self.h_list:
                raise ValueError("semiclassical mode needs h_list")
            if any(not 0.0 < h < 1.0 for h in self.h_list):
                raise ValueError("every h must lie in (0, 1)")
            if self.law is None:
                raise ValueError("semiclassical mode needs a perturbation law")
            if self.delta_override is None:
                for h in self.h_list:
                    delta_window(h, self.law.rho_decay, self.gamma1, self.N0)
            self._validate_roots_semiclassical()
        else:
            if not self.lambda_list:
                raise ValueError("highenergy mode needs lambda_list")
            if any(lam < 1.0 for lam in self.lambda_list):
                raise ValueError("every lambda must be >= 1")
            if self.law is None:
                raise ValueError("highenergy mode needs a perturbation law")
            margin = (self.sym.m - self.law.alpha_max
                      - self.law.rho_decay - 0.75)
            if margin <= 0.0:
                raise WindowViolation(
                    f"m - alpha1 - rho - 3/4 = {margin:.3f} must be positive")
            if self.sym.m - self.law.alpha_max <= (self.law.rho_decay
                                                   + self.gamma1 + 0.5):
                raise WindowViolation(
                    "m - alpha1 must exceed rho + gamma1 + 1/2")
            if not isinstance(_undilated(self.domains[0]),
                              domains.AnnularSector):
                raise ValueError("highenergy mode needs an annular-sector "
                                 "domain reaching the origin")
            self._validate_roots_highenergy()

    def _validate_roots_semiclassical(self):
        z = _probe_z(self.domains[0])
        inv = symbol.find_roots(self.sym, z)
        if not inv.roots:
            raise HypothesisViolation(
                f"no phase-space roots at probe z = {z}: the domain is "
                f"outside the symbol's spectral region")
        if inv.degenerate:
            raise HypothesisViolation(
                f"degenerate bracket at probe z = {z} (boundary of the good "
                f"region)")
        if inv.beta != inv.gamma:
            raise HypothesisViolation(
                f"unbalanced root counts beta={inv.beta}, gamma={inv.gamma} "
                f"at probe z = {z}")
        _check_shared_bases(inv)
        for r in inv.roots:
            if abs(r.point.xi) < 1e-9:
                raise HypothesisViolation(
                    f"root at x={r.point.x:.4f} has xi = 0")

    def _validate_roots_highenergy(self):
        z = _probe_z(self.domains[0])
        if abs(z) < 1e-12:
            z = 1.0 + 0.0j
        principal = _principal_part(self.sym)
        inv = symbol.find_roots(principal, z)
        if not inv.roots or inv.degenerate or inv.beta != inv.gamma:
            raise HypothesisViolation(
                f"principal symbol fails the root/bracket requirements at "
                f"probe z = {z}")
        _check_shared_bases(inv)

    # ------------------------------------------------------------------
    def truncation_K(self, h: float, z_sup: float) -> int:
        window = symbol.xi_window(self.sym, z_sup)
        return int(math.ceil(self.c_K * window / h)) + 2 * self.sym.max_bandwidth()

    def echo(self) -> dict:
        if self.raw:
            return self.raw
        return {
            "mode": self.mode,
            "h_list": list(self.h_list),
            "lambda_list": list(self.lambda_list),
            "trials": self.trials,
            "gamma1": self.gamma1,
            "N0": self.N0,
            "delta_override": self.delta_override,
            "seed": self.seed,
            "c_K": self.c_K,
        }


def _undilated(domain):
    while isinstance(domain, domains.Dilated):
        domain = domain.base
    return domain


def _probe_z(domain) -> complex:
    if isinstance(domain, domains.Dilated):
        return domain.lam * _probe_z(domain.base)
    if isinstance(domain, domains.Rectangle):
        return complex(0.5 * (domain.re_min + domain.re_max),
                       0.5 * (domain.im_min + domain.im_max))
    if isinstance(domain, domains.Polygon):
        return complex(np.mean(np.asarray(domain.vertices)))
    if isinstance(domain, domains.AnnularSector):
        mid = 0.5 * (domain.theta_min + domain.theta_max)
        lo = domain.r_in(mid) if domain.r_in is not None else 0.0
        return complex(0.5 * (lo + domain.r_out(mid)) * np.exp(1j * mid))
    raise ValueError(f"unsupported domain type {type(domain).__name__}")


def _check_shared_bases(inv, tol: float = 1e-6):
    """Each plus-root must share its base x with exactly one minus-root, and
    distinct pairs must have distinct bases."""
    plus = [r for r in inv.roots if r.sign == "plus"]
    minus = [r for r in inv.roots if r.sign == "minus"]
    bases = []
    for p in plus:
        match = [q for q in minus
                 if min(abs(q.point.x - p.point.x),
                        TWO_PI - abs(q.point.x - p.point.x)) < tol]
        if len(match) != 1:
            raise HypothesisViolation(
                f"plus-root at x={p.point.x:.4f} does not pair with exactly "
                f"one minus-root at the same base point")
        bases.append(p.point.x)
    for a in range(len(bases)):
        for b in range(a + 1, len(bases)):
            d = abs(bases[a] - bases[b])
            if min(d, TWO_PI - d) < tol:
                raise HypothesisViolation(
                    "two root pairs share the same base point")


def _principal_part(sym: symbol.MatrixSymbol) -> symbol.MatrixSymbol:
    zero = tuple(tuple(symbol.ZERO_TRIG for _ in range(sym.n))
                 for _ in range(sym.n))
    coeffs = tuple(zero for _ in range(sym.m)) + (sym.coeffs[sym.m],)
    return symbol.MatrixSymbol(sym.n, sym.m, coeffs, sym.semiclassical)


# -- delta window -------------------------------------------------------------

def delta_window(h: float, rho_decay: float, gamma1: float,
                 N0: float) -> tuple:
    """(h^N0, h^{rho+gamma1+1/2} (ln 1/h)^{-2}); the admissible coupling range."""
    if not 0.0 < h < 1.0:
        raise ValueError("h must lie in (0, 1)")
    if gamma1 <= 0.0:
        raise ValueError("gamma1 must be positive")
    upper_exp = rho_decay + gamma1 + 0.5
    if N0 <= upper_exp:
        raise ValueError(f"N0 = {N0} must exceed rho + gamma1 + 1/2 = "
                         f"{upper_exp}")
    lower = h ** N0
    upper = h ** upper_exp / math.log(1.0 / h) ** 2
    if lower >= upper:
        raise EmptyWindow(
            f"coupling window ({lower:.3e}, {upper:.3e}) is empty at h={h}")
    return lower, upper


def default_delta(h: float, rho_decay: float, gamma1: float,
                  N0: float) -> float:
    lo, hi = delta_window(h, rho_decay, gamma1, N0)
    return math.sqrt(lo * hi)


# -- records and reports -------------------------------------------------------

@dataclass(frozen=True)
class TrialRecord:
    mode: str
    param: float            # h or lambda
    trial: int
    seed_label: str
    N: int
    W: float
    residual: float         # N - W
    K: int
    millis: float
    eigenvalues: np.ndarray | None = None
    stage_ms: dict = field(default_factory=dict)    # STAGES timed, in ms

    def __post_init__(self):
        if self.N < 0 or self.W < 0.0:
            raise ValueError("N and W must be nonnegative")


@dataclass
class ExperimentReport:
    mode: str
    records: list
    params: tuple
    aggregates: dict          # param -> {mean_N, W, mean_abs_residual, ...}
    envelope_fit: tuple | None      # vs the theoretical envelope scale
    envelope_fit_h: tuple | None    # vs h directly (semiclassical only)
    c_hat: float | None
    coverage: dict
    extras: dict
    config_echo: dict


def _aggregate(records, param) -> dict:
    rows = [r for r in records if r.param == param]
    res = np.array([abs(r.residual) for r in rows])
    Ns = np.array([r.N for r in rows], dtype=float)
    W = rows[0].W
    out = {
        "trials": len(rows),
        "W": W,
        "mean_N": float(np.mean(Ns)),
        "mean_abs_residual": float(np.mean(res)),
        "q50_abs_residual": float(np.quantile(res, 0.5)),
        "q90_abs_residual": float(np.quantile(res, 0.9)),
    }
    out["mean_ratio"] = float(np.mean(Ns) / W) if W > 0 else None
    return out


def _stage_ms(*marks) -> dict:
    """Milliseconds between consecutive perf_counter marks, one per stage."""
    return {s: (b - a) * 1e3 for s, a, b in zip(STAGES, marks, marks[1:])}


def _stage_medians(records, param) -> dict:
    """Median milliseconds per stage over the trials at param that timed it."""
    out = {}
    for stage in STAGES:
        ms = [r.stage_ms[stage] for r in records
              if r.param == param and stage in r.stage_ms]
        if ms:
            out[stage] = float(np.median(ms))
    return out


def fit_power_law(pairs) -> tuple:
    """Least squares of log y on log s; returns (slope, intercept, r_squared)."""
    pairs = [(float(s), float(y)) for s, y in pairs]
    if len(pairs) < 3:
        raise ValueError("need at least 3 pairs")
    if any(s <= 0 or y <= 0 for s, y in pairs):
        raise ValueError("pairs must be positive")
    s = np.log([p[0] for p in pairs])
    y = np.log([p[1] for p in pairs])
    if np.ptp(s) == 0.0:
        raise DegenerateFit("all abscissae equal")
    slope, intercept = np.polyfit(s, y, 1)
    pred = slope * s + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2


# -- semiclassical experiment --------------------------------------------------

def _delta_floor(mat_norm: float) -> float:
    return 1e3 * np.finfo(float).eps * mat_norm


def run_semiclassical(config: ExperimentConfig,
                      keep_eigs: bool = False) -> ExperimentReport:
    sym, law = config.sym, config.law
    gamma = config.domains[0]
    measure = domains.weyl_measure(sym, gamma).value
    z_sup = gamma.bound_radius()

    records = []
    for h in config.h_list:
        K = config.truncation_K(h, z_sup)
        law_h = law
        trunc = discretize.FourierTruncation(K=K, n=sym.n, h=h)
        base = discretize.assemble_operator(sym, trunc)
        if config.delta_override is not None:
            delta = config.delta_override
        else:
            delta = default_delta(h, law.rho_decay, config.gamma1, config.N0)
        if delta != 0.0:
            floor = _delta_floor(float(np.linalg.norm(base.entries, 2)))
            if delta < floor:
                raise EmptyWindow(
                    f"delta = {delta:.3e} is below the rounding floor "
                    f"{floor:.3e} at h = {h}; the intentional perturbation "
                    f"would drown in eigensolver noise")
        if config.check_truncation:
            probe = randomness.sample_draw(
                law_h, randomness.SeedSpec(config.seed, f"sc:{h!r}", 0), h)
            rep = discretize.truncation_convergence(
                sym, h, gamma, probe, delta, [K, 2 * K])
            if not rep.stabilized:
                K = 2 * K
                trunc = discretize.FourierTruncation(K=K, n=sym.n, h=h)
                base = discretize.assemble_operator(sym, trunc)
        W = measure / (TWO_PI * h)
        for trial in range(config.trials):
            t0 = time.perf_counter()
            spec = randomness.SeedSpec(config.seed, f"sc:{h!r}", trial)
            draw = randomness.sample_draw(law_h, spec, h)
            t1 = time.perf_counter()
            mat = discretize.perturbed_operator(base, draw, delta)
            t2 = time.perf_counter()
            eigs = discretize.eigenvalues(mat)
            t3 = time.perf_counter()
            N = int(np.count_nonzero(gamma.contains_many(eigs)))
            t4 = time.perf_counter()
            records.append(TrialRecord(
                mode="semiclassical", param=h, trial=trial,
                seed_label=f"{config.seed}/sc:{h!r}/{trial}",
                N=N, W=W, residual=N - W, K=K, millis=(t4 - t0) * 1e3,
                eigenvalues=eigs if keep_eigs else None,
                stage_ms=_stage_ms(t0, t1, t2, t3, t4)))

    params = tuple(config.h_list)
    aggregates = {h: _aggregate(records, h) for h in params}

    def scale(h):
        return h ** -0.5 * abs(math.log(h)) ** 0.5

    env = env_h = None
    if len(params) >= 3:
        pairs = [(scale(h), max(aggregates[h]["mean_abs_residual"], 1e-12))
                 for h in params]
        env = fit_power_law(pairs)
        pairs_h = [(h, max(aggregates[h]["mean_abs_residual"], 1e-12))
                   for h in params]
        env_h = fit_power_law(pairs_h)

    # envelope calibration at the coarsest h, coverage at finer h
    h_cal = max(params)
    cal = [abs(r.residual) / scale(h_cal) for r in records
           if r.param == h_cal]
    c_hat = float(np.quantile(cal, config.calibration_quantile))
    coverage = {}
    for h in params:
        if h >= h_cal:
            continue
        rows = [r for r in records if r.param == h]
        ok = sum(1 for r in rows if abs(r.residual) <= c_hat * scale(h))
        coverage[h] = ok / len(rows)

    return ExperimentReport(
        mode="semiclassical", records=records, params=params,
        aggregates=aggregates, envelope_fit=env, envelope_fit_h=env_h,
        c_hat=c_hat, coverage=coverage,
        extras={"weyl_measure": measure,
                "delta": {h: (config.delta_override
                              if config.delta_override is not None else
                              default_delta(h, law.rho_decay, config.gamma1,
                                            config.N0))
                          for h in params},
                "stage_ms": {h: _stage_medians(records, h) for h in params}},
        config_echo=config.echo())


# -- high-energy experiment ----------------------------------------------------

# A rung is settled when its eigenvalues at K and at 2K coincide one to one
# within this fraction of the rung's radius.  Integer counts of an unresolved
# truncation often agree by chance; eigenvalue positions do not.
SETTLE_TOL = 1e-8
# Largest truncation the pilot solves while certifying (dense side 2049).
K_CAP = 1024


def _settled(coarse: np.ndarray, fine: np.ndarray, dom) -> bool:
    a = coarse[dom.contains_many(coarse)]
    b = fine[dom.contains_many(fine)]
    if len(a) != len(b):
        return False
    if len(a) == 0:
        return True
    d = np.abs(a[:, None] - b[None, :])
    tol = SETTLE_TOL * dom.bound_radius()
    return bool(d.min(axis=1).max() <= tol and d.min(axis=0).max() <= tol)


def certify_truncation(solve, rungs, K0: int) -> tuple:
    """Smallest K = K0 * 2^j at which the smallest rung is settled.

    ``solve(K)`` returns the pilot trial's eigenvalues at truncation K;
    ``rungs`` are nested domains, smallest first.  K grows only while the
    smallest rung is unsettled: the large eigenvalues are exponentially
    ill-conditioned, so a rung that rounding alone can move is not settled
    by any larger K.  Every rung takes its verdict from the same pair
    (K, 2K).  Returns (K, eigenvalues at K, per-rung verdicts, every K
    solved); if 2K would exceed K_CAP first, every verdict is False.
    """
    K, eigs = K0, solve(K0)
    tried = [K0]
    while 2 * K <= K_CAP:
        finer = solve(2 * K)
        tried.append(2 * K)
        verdicts = [_settled(eigs, finer, dom) for dom in rungs]
        if verdicts[0]:
            return K, eigs, verdicts, tuple(tried)
        K, eigs = 2 * K, finer
    return K, eigs, [False] * len(rungs), tuple(tried)


def _rescaled_symbol(sym: symbol.MatrixSymbol,
                     h: float) -> symbol.MatrixSymbol:
    """lambda^{-1} P in semiclassical form at h = lambda^{-1/m}:
    A_alpha D^alpha / lambda = h^{m - alpha} A_alpha (hD)^alpha."""
    coeffs = tuple(
        tuple(tuple(c.scale(h ** (sym.m - a)) for c in row)
              for row in sym.coeffs[a])
        for a in range(sym.m + 1))
    return symbol.MatrixSymbol(sym.n, sym.m, coeffs, semiclassical=True)


def run_highenergy(config: ExperimentConfig,
                   keep_eigs: bool = False) -> ExperimentReport:
    """Count every rung of the lambda ladder from one eigensolve per trial.

    At h = 1 the matrix of P - Q_omega does not depend on lambda and the
    dilated sectors are nested, so one spectrum per trajectory serves the
    whole ladder.  Its truncation K is certified on the pilot trial 0, and
    the per-rung verdicts go into ``extras["truncation"]`` and the
    aggregates.
    """
    sym, law = config.sym, config.law
    sector = config.domains[0]
    m = sym.m

    lam_sorted = tuple(sorted(config.lambda_list))
    rungs = [domains.dilate(sector, lam) if lam != 1.0 else sector
             for lam in lam_sorted]
    weyl_by_lam = {lam: domains.weyl_measure(sym, dom).value / TWO_PI
                   for lam, dom in zip(lam_sorted, rungs)}

    def draw_of(trial):
        return randomness.sample_draw(
            law, randomness.SeedSpec(config.seed, "he", trial), 1.0)

    def truncation(K, h=1.0):
        return discretize.FourierTruncation(K=K, n=sym.n, h=h)

    t0 = time.perf_counter()
    pilot = draw_of(0)
    K0 = config.truncation_K(1.0, rungs[0].bound_radius())
    K, pilot_eigs, certified, K_tried = certify_truncation(
        lambda k: discretize.eigenvalues(discretize.perturbed_operator(
            discretize.assemble_operator(sym, truncation(k)), pilot, 1.0)),
        rungs, K0)
    trunc = truncation(K)
    base = discretize.assemble_operator(sym, trunc)

    # lambda^{-1} (P - Q) assembled semiclassically at h = lambda^{-1/m},
    # same draw and K, counted in the undilated sector: it equals N in exact
    # arithmetic, so a mismatch exposes a count that rounding can move
    q_pilot = discretize.assemble_perturbation(pilot, trunc, 1.0).entries
    rescaling_ok = {}
    for lam, dom in zip(lam_sorted, rungs):
        h = lam ** (-1.0 / m)
        scaled = discretize.assemble_operator(_rescaled_symbol(sym, h),
                                              truncation(K, h))
        eigs = discretize.eigenvalues(discretize.OperatorMatrix(
            scaled.entries - q_pilot / lam, scaled.trunc,
            provenance=f"rescaled(lambda={lam!r})"))
        rescaling_ok[(lam, 0)] = bool(
            np.count_nonzero(sector.contains_many(eigs))
            == np.count_nonzero(dom.contains_many(pilot_eigs)))
    pilot_ms = (time.perf_counter() - t0) * 1e3

    und = _undilated(sector)
    pieces_by_lam = {}
    for lam in lam_sorted:
        try:
            pieces_by_lam[lam] = domains.dyadic_decompose(lam, und)
        except (ValueError, LambdaBelowOne):
            pass

    records = []
    dyadic_info = {}
    for trial in range(config.trials):
        # the pilot's spectrum comes from certification (pilot_millis)
        stages = {}
        t1 = time.perf_counter()
        if trial == 0:
            eigs = pilot_eigs
        else:
            draw = draw_of(trial)
            t2 = time.perf_counter()
            mat = discretize.perturbed_operator(base, draw, 1.0)
            t3 = time.perf_counter()
            eigs = discretize.eigenvalues(mat)
            stages = _stage_ms(t1, t2, t3, time.perf_counter())
        ms = (time.perf_counter() - t1) * 1e3 / len(lam_sorted)
        for lam, dom in zip(lam_sorted, rungs):
            tc = time.perf_counter()
            N = int(np.count_nonzero(dom.contains_many(eigs)))
            if lam in pieces_by_lam:
                piece_counts = [
                    int(np.count_nonzero(p.contains_many(eigs)))
                    for p in pieces_by_lam[lam].all_pieces()]
                dyadic_info[(lam, trial)] = {
                    "piece_counts": piece_counts,
                    "total": N,
                    "sum_matches": sum(piece_counts) == N,
                }
            W = weyl_by_lam[lam]
            records.append(TrialRecord(
                mode="highenergy", param=float(lam), trial=trial,
                seed_label=f"{config.seed}/he/{trial}",
                N=N, W=W, residual=N - W, K=K, millis=ms,
                eigenvalues=eigs if keep_eigs else None,
                stage_ms={**stages,
                          "count": (time.perf_counter() - tc) * 1e3}))

    params = tuple(float(l) for l in lam_sorted)
    aggregates = {lam: _aggregate(records, lam) for lam in params}
    for lam, ok in zip(params, certified):
        aggregates[lam]["certified"] = ok

    # Fits and relative residuals use certified rungs only: an uncertified
    # count is a truncation artefact.  Per trajectory, the envelope
    # |res| <= C(omega) + C~ lambda^{1/(2m)} sqrt(ln lam); None where fewer
    # certified rungs remain than a fit has parameters.
    fit_rungs = [lam for lam, ok in zip(params, certified) if ok]
    fits = {}
    rel_residuals = {}
    for trial in range(config.trials):
        rows = sorted((r for r in records
                       if r.trial == trial and r.param in fit_rungs),
                      key=lambda r: r.param)
        rel_residuals[trial] = [
            abs(r.residual) / r.W if r.W > 0 else math.inf for r in rows]
        if len(rows) < 2:
            fits[trial] = None
            continue
        b = np.array([r.param ** (1.0 / (2 * m))
                      * math.sqrt(max(math.log(r.param), 1e-12))
                      for r in rows])
        y = np.array([abs(r.residual) for r in rows])
        A = np.vstack([np.ones_like(b), b]).T
        (c_omega, c_tilde), *_ = np.linalg.lstsq(A, y, rcond=None)
        fits[trial] = (float(c_omega), float(c_tilde))

    env = None
    if len(fit_rungs) >= 3:
        pairs = [(lam, max(aggregates[lam]["mean_abs_residual"], 1e-12))
                 for lam in fit_rungs]
        env = fit_power_law(pairs)

    return ExperimentReport(
        mode="highenergy", records=records, params=params,
        aggregates=aggregates, envelope_fit=env, envelope_fit_h=None,
        c_hat=None, coverage={},
        extras={
            "weyl_by_lambda": {str(k): v for k, v in weyl_by_lam.items()},
            "truncation": {
                "K": K, "K_start": K0, "K_tried": list(K_tried),
                "pilot_trial": 0, "settle_tol": SETTLE_TOL,
                "certified": {str(lam): ok
                              for lam, ok in zip(lam_sorted, certified)},
                "pilot_millis": pilot_ms,
                "fit_rungs": fit_rungs,
            },
            "rescaling_identity": {f"{k[0]}/{k[1]}": v
                                   for k, v in rescaling_ok.items()},
            "dyadic": {f"{k[0]}/{k[1]}": v for k, v in dyadic_info.items()},
            "trajectory_fits": fits,
            "relative_residuals": rel_residuals,
            "stage_ms": {lam: _stage_medians(records, lam) for lam in params},
        },
        config_echo=config.echo())


# -- report files --------------------------------------------------------------

def write_report(report: ExperimentReport, out_dir,
                 dump_eigs: bool = False) -> dict:
    """trials.csv + summary.json (+ eigenvalues.csv); returns written paths.

    The millis column is fixed to 0 so identical (config, seed) reruns are
    byte-identical; wall-clock totals live in summary.json instead.
    """
    import os

    os.makedirs(out_dir, exist_ok=True)
    trials_path = os.path.join(out_dir, "trials.csv")
    rows = sorted(report.records, key=lambda r: (r.param, r.trial))
    with open(trials_path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in rows:
            fh.write(f"{r.mode},{r.param!r},{r.trial},{r.seed_label},"
                     f"{r.N},{r.W!r},{r.residual!r},{r.K},0\n")

    summary_path = os.path.join(out_dir, "summary.json")
    summary = {
        "mode": report.mode,
        "params": list(report.params),
        "aggregates": {repr(k): v for k, v in report.aggregates.items()},
        "envelope_fit": report.envelope_fit,
        "envelope_fit_h": report.envelope_fit_h,
        "c_hat": report.c_hat,
        "coverage": {repr(k): v for k, v in report.coverage.items()},
        "extras": _jsonable(report.extras),
        "config": _jsonable(report.config_echo),
        "total_millis": float(sum(r.millis for r in report.records)),
        "versions": _versions(),
    }
    with open(summary_path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")

    written = {"trials": trials_path, "summary": summary_path}
    if dump_eigs:
        eig_path = os.path.join(out_dir, "eigenvalues.csv")
        with open(eig_path, "w") as fh:
            fh.write("mode,h_or_lambda,trial,re,im\n")
            for r in rows:
                if r.eigenvalues is None:
                    continue
                for z in r.eigenvalues:
                    fh.write(f"{r.mode},{r.param!r},{r.trial},"
                             f"{float(z.real)!r},{float(z.imag)!r}\n")
        written["eigenvalues"] = eig_path
    return written


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj


def _versions() -> dict:
    import scipy

    from . import __version__
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "weylab": __version__}


# -- JSON config loading ---------------------------------------------------------

def parse_symbol(spec: dict) -> symbol.MatrixSymbol:
    n = int(spec["n"])
    m = int(spec["m"])
    semiclassical = bool(spec.get("semiclassical", True))
    grids = [[[dict() for _ in range(n)] for _ in range(n)]
             for _ in range(m + 1)]
    for alpha_key, entries in spec["coeffs"].items():
        alpha = int(alpha_key)
        for (i, j, k, re, im) in entries:
            cmap = grids[alpha][int(i)][int(j)]
            cmap[int(k)] = cmap.get(int(k), 0.0) + complex(float(re),
                                                           float(im))
    coeffs = tuple(
        tuple(tuple(symbol.TrigPolynomial(grids[a][i][j])
                    for j in range(n)) for i in range(n))
        for a in range(m + 1))
    return symbol.MatrixSymbol(n, m, coeffs, semiclassical)


def parse_domain(spec: dict):
    kind = spec["type"]
    if kind == "rectangle":
        return domains.Rectangle(spec["re_min"], spec["re_max"],
                                 spec["im_min"], spec["im_max"])
    if kind == "polygon":
        verts = tuple(complex(a, b) for a, b in spec["vertices"])
        return domains.Polygon(verts)
    if kind == "disk":
        c = spec.get("center", (0.0, 0.0))
        return domains.regular_polygon(complex(c[0], c[1]), spec["radius"],
                                       int(spec.get("vertices", 128)))
    if kind == "sector":
        r_out = spec.get("r_out", 1.0)
        r_in = spec.get("r_in")
        return domains.AnnularSector(spec["theta_min"], spec["theta_max"],
                                     r_out, r_in)
    raise ValueError(f"unknown domain type {kind!r}")


def parse_law(spec: dict, n: int) -> randomness.CoefficientLaw:
    return randomness.CoefficientLaw(
        alpha_min=int(spec["alpha_min"]),
        alpha_max=int(spec["alpha_max"]),
        n=n,
        rho_decay=float(spec["rho"]),
        c_tilde=float(spec.get("c_tilde", 1.0)),
        K_q=int(spec.get("K_q", 64)),
    )


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        raw = json.load(fh)
    sym = parse_symbol(raw["symbol"])
    law = (parse_law(raw["perturbation"], sym.n)
           if "perturbation" in raw else None)
    doms = [parse_domain(d) for d in raw.get("domains", [])]
    exp = raw.get("experiment", {})
    return ExperimentConfig(
        sym=sym, law=law, domains=doms,
        mode=exp.get("mode", "semiclassical"),
        h_list=tuple(exp.get("h_list", ())),
        lambda_list=tuple(exp.get("lambda_list", ())),
        trials=int(exp.get("trials", 20)),
        gamma1=float(exp.get("gamma1", 0.25)),
        N0=float(exp.get("N0", 3.0)),
        delta_override=(None if exp.get("delta") is None
                        else float(exp["delta"])),
        seed=int(raw.get("seed", 0)),
        c_K=float(exp.get("c_K", 2.0)),
        calibration_quantile=float(exp.get("calibration_quantile", 1.0)),
        check_truncation=bool(exp.get("check_truncation", False)),
        raw=raw,
    )
