"""Experiment orchestration: seeded Monte Carlo eigenvalue counts vs the
phase-space (Weyl) prediction, in two modes that share one trial path.
_certified_trials solves: it draws omega from each trial's seed address and
solves P - delta Q_omega at a truncation K certified on the stream's first
trials (the pilots, whose spectra at K are reused).  count_records counts:
it turns those spectra and a list of (param, domain, W) into one TrialRecord
per trial and entry, each keeping its trial's spectrum and K.

semiclassical: fixed spectral window Gamma, shrinking h, coupling delta
inside the admissible window h^N0 < delta < h^{rho+gamma1+1/2} |ln h|^{-2};
one stream per h.  K is the first of the candidates sqrt(1.5) apart from
ceil(xi_window / 4h) + 2 bandwidth at which the pilots' eigenvalues in Gamma
settle against ceil(1.5 K), or the partner ceil(1.5 K_count) of the
candidate K_count at which their counts settle, whichever comes first; never
past the rule's ceil(C_K xi_window / h) + 2 bandwidth, where every trial
runs if neither does.  Where the counts stop K, the other trials are solved
at K_count, and the few with an eigenvalue near Gamma's boundary are solved
again at K and counted there.

highenergy: fixed unit sector Gamma, growing dilation lambda, classical
(h = 1) assembly with an order-zero-to-alpha1 perturbation; each trajectory
draws ONE realization omega and reuses it across every lambda, which the
addressable sampler makes exact.  The h = 1 matrix does not depend on
lambda, so one eigensolve per trajectory counts every rung, at a truncation
certified on pilot trajectory 0.  Both modes record K in extras["truncation"].

A config checks only its shape when it is built, so every command loads it;
each Monte-Carlo run first calls its admit method, which makes every refusal
of the run before any trial is drawn: the paper's hypotheses, the run's
memory, and last each coupling's rounding floor or the high-energy sector's
normalization.  It returns the domain and each parameter's rule K and
coupling, which the runs read and never recompute; they refuse nothing.

Each run forks one pool of helpers.  A stream's solves (the pilots' at each
K, then the other trials') go in WORKERS interleaved shares of trial
indices, share 0 in the parent and the others in the helpers; each process
draws a trial from its seed address just before it solves it.  A high-energy
run hands the helpers the rungs' Weyl measures while the parent climbs the
pilot's K ladder.  Its rescaling identity shares the rungs out likewise:
each process compares its rungs' rescaled matrices with trial 0's over
lambda and solves only those that differ bit for bit; the others count
trial 0's spectrum over lambda.
Helpers that the pilots leave idle (fewer pilots than WORKERS) solve the
other trials at the candidate K being checked while the pilots are solved
at larger K; a solve that started before the verdict is kept if that K is
used, and dropped with its result or error if not.  The parent certifies,
counts and records in trial order, so the outputs are byte-identical for
any WORKERS.  A record's stage_ms are work times, in the process that solved
the trial; pilot_millis (the pilots' K ladder) and total_millis (the whole
driver call) are wall times.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import itertools
import json
import math
import multiprocessing
import os
import time
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import discretize, domains, randomness, symbol
from .errors import EmptyWindow, HypothesisViolation, WindowViolation

CSV_HEADER = "mode,h_or_lambda,trial,seed,N,W,residual,K,millis"

# Stages of one trial, timed into TrialRecord.stage_ms in this order.
STAGES = ("draw", "assemble", "eigensolve", "count")

# The rule's truncation K = ceil(C_K xi_window / h) + 2 bandwidth.
C_K = 2.0


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
    raw: dict = field(default_factory=dict)

    def __post_init__(self):
        # one Python float per parameter: a numpy float's repr names another
        # seed stream ("sc:np.float64(0.1)") and prints into the reports
        self.h_list = tuple(map(float, self.h_list))
        self.lambda_list = tuple(map(float, self.lambda_list))
        if self.mode not in ("semiclassical", "highenergy"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not self.domains:
            raise ValueError("at least one spectral domain is required")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        for name, value in (("gamma1", self.gamma1), ("N0", self.N0),
                            ("delta", self.delta_override)):
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, not {value!r}")
        if self.mode == "semiclassical":
            if not self.h_list:
                raise ValueError("semiclassical mode needs h_list")
            if any(not 0.0 < h < 1.0 for h in self.h_list):
                raise ValueError("every h must lie in (0, 1)")
            if len(set(self.h_list)) < len(self.h_list):
                raise ValueError("h_list repeats a value")
            if self.delta_override is not None and self.delta_override < 0:
                raise ValueError(f"delta must be >= 0, not "
                                 f"{self.delta_override!r}")
        else:
            if not self.lambda_list:
                raise ValueError("highenergy mode needs lambda_list")
            if any(not 1.0 <= lam < math.inf for lam in self.lambda_list):
                raise ValueError("every lambda must be finite and >= 1")
            if len(set(self.lambda_list)) < len(self.lambda_list):
                raise ValueError("lambda_list repeats a value")
            if self.delta_override is not None:
                raise ValueError("highenergy mode takes no delta: it counts "
                                 "P - Q_omega at coupling 1")
            if not isinstance(self.domains[0], domains.AnnularSector):
                raise ValueError("highenergy mode needs an annular-sector "
                                 "domain reaching the origin")

    # ------------------------------------------------------------------
    def admit(self) -> tuple:
        """Check the paper's hypotheses for this config's Monte-Carlo run and
        make every refusal of the run, before any trial is drawn, the last
        each h's rounding floor or the high-energy sector's normalization;
        returns the one domain it counts in and {param: (K_rule, delta)}:
        the rule's K and the coupling of each h in config order, or of each
        lambda in increasing order at coupling 1."""
        law = self.require_law()
        if len(self.domains) > 1:
            raise ValueError(f"{self.mode} runs count in one domain, and the "
                             f"config has {len(self.domains)}")
        if law.alpha_max > self.sym.m - 1:
            raise HypothesisViolation(
                f"perturbation order alpha_max={law.alpha_max} must stay "
                f"below the operator order m={self.sym.m}")
        dom = self.domains[0]
        z = dom.probe()
        if self.mode == "semiclassical":
            deltas = [default_delta(h, law.rho_decay, self.gamma1, self.N0)
                      if self.delta_override is None else self.delta_override
                      for h in self.h_list]
            rules = {h: (self.truncation_K(h, dom.bound_radius()), delta)
                     for h, delta in zip(self.h_list, deltas)}
            # one spectrum per trial and h, at the largest K a stream reaches
            spectra, K = len(rules), max(K for K, _ in rules.values())
            sym = self.sym
        else:
            margin = self.sym.m - law.alpha_max - law.rho_decay - 0.75
            if margin <= 0.0:
                raise WindowViolation(f"m - alpha1 - rho - 3/4 = "
                                      f"{margin:.3f} must be positive")
            if self.sym.m - law.alpha_max <= (law.rho_decay + self.gamma1
                                              + 0.5):
                raise WindowViolation(
                    "m - alpha1 must exceed rho + gamma1 + 1/2")
            # the rule's K at each rung, of radius lambda r_out, the largest
            # first: past the cap, no K that the ladder reaches resolves it
            # (and at lambda = 1e308 its Weyl measure overflowed)
            rules = dict(reversed([(lam, (self.truncation_K(
                1.0, lam * dom.bound_radius()), 1.0))
                for lam in sorted(self.lambda_list, reverse=True)]))
            if (K0 := rules[max(rules)][0]) > HE_K_CAP:
                raise ValueError(f"the largest lambda starts the truncation "
                                 f"at K = {K0}, past the cap {HE_K_CAP}")
            # one spectrum per trajectory, which its rungs share, at the cap
            spectra, K = 1, HE_K_CAP
            # roots of the principal part (h -> 0 keeps order m alone), at
            # 1 if the probe is ~0
            sym = _rescaled_symbol(self.sym, 0.0)
            z = 1.0 + 0.0j if abs(z) < 1e-12 else z
        discretize.require_memory(
            self.trials * spectra * self.sym.n * (2 * K + 1) * 16,
            f"{float(self.trials * spectra):.3g} spectra at K = {K} take")
        _validate_roots(sym, z)
        if self.mode == "semiclassical":
            # every h's coupling against its rounding floor; the floor reads
            # the norm at K_rule whatever K is certified
            for h, (K_rule, delta) in rules.items():
                if delta != 0.0:
                    rule_P = discretize.assemble_operator(
                        self.sym, discretize.FourierTruncation(
                            K=K_rule, n=self.sym.n, h=h))
                    floor = 1e3 * np.finfo(float).eps * float(
                        np.linalg.norm(rule_P.entries, 2))
                    if delta < floor:
                        raise EmptyWindow(
                            f"delta = {delta:.3e} is below the rounding "
                            f"floor {floor:.3e} at h = {h}; the intentional "
                            f"perturbation would drown in eigensolver noise")
        else:
            # the dyadic rings need a sector reaching the origin with
            # r_out = 1; decomposing the largest rung refuses any other
            domains.dyadic_decompose(max(rules), dom)
        return dom, rules

    def require_law(self) -> randomness.CoefficientLaw:
        """The perturbation law, which the Monte-Carlo paths need."""
        if self.law is None:
            raise ValueError(f"{self.mode} mode needs a perturbation law")
        return self.law

    # ------------------------------------------------------------------
    def truncation_K(self, h: float, z_sup: float, c_K: float = C_K) -> int:
        """ceil(c_K xi_window / h) + 2 bandwidth."""
        if not 0.0 < h <= 1.0:
            raise ValueError("h must lie in (0, 1]")
        window = symbol.xi_window(self.sym, z_sup)
        if not math.isfinite(window):
            raise ValueError(f"no truncation resolves |z| <= {z_sup!r}")
        return int(math.ceil(c_K * window / h)) + 2 * self.sym.max_bandwidth()

    def echo(self) -> dict:
        """The JSON config, or for a config built in code its fields."""
        return self.raw or {key: getattr(self, key) for key in (
            "mode", "h_list", "lambda_list", "trials", "gamma1", "N0",
            "delta_override", "seed")}


def _check_shared_bases(inv):
    """Each plus-root must share its base x, to 1e-6, with exactly one
    minus-root, and distinct pairs must have distinct bases."""
    plus, minus = ([r.point.x for r in inv.roots if r.sign == sign]
                   for sign in ("plus", "minus"))
    for i, x in enumerate(plus):
        if np.count_nonzero(symbol.circle_distance(x, minus) < 1e-6) != 1:
            raise HypothesisViolation(
                f"plus-root at x={x:.4f} does not pair with exactly "
                f"one minus-root at the same base point")
        if (symbol.circle_distance(x, plus[:i]) < 1e-6).any():
            raise HypothesisViolation(
                "two root pairs share the same base point")


def _validate_roots(sym: symbol.MatrixSymbol, z: complex) -> None:
    """Check sym's root inventory at z against the paper's hypotheses."""
    with np.errstate(over="raise"):
        try:
            inv = symbol.find_roots(sym, z)
        except FloatingPointError as exc:
            raise ValueError(f"the symbol's values overflow near probe z = "
                             f"{z}: its coefficients are too large") from exc
    for failed, what in (
            (not inv.roots, "no phase-space roots (the domain is outside "
                            "the symbol's spectral region)"),
            (inv.degenerate, "degenerate bracket (boundary of the good "
                             "region)"),
            (inv.beta != inv.gamma, f"unbalanced root counts "
                                    f"beta={inv.beta}, gamma={inv.gamma}"),
            (any(abs(r.point.xi) < 1e-9 for r in inv.roots),
             "a root on xi = 0")):
        if failed:
            raise HypothesisViolation(f"{what} at probe z = {z}")
    _check_shared_bases(inv)


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
    eigenvalues: np.ndarray     # the trial's spectrum, shared by its rungs
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
    total_millis: float       # wall time of the driver call


def _aggregate(records, param) -> dict:
    rows = [r for r in records if r.param == param]
    res = np.array([abs(r.residual) for r in rows])
    Ns = np.array([r.N for r in rows], dtype=float)
    W = rows[0].W
    return {
        "trials": len(rows),
        "W": W,
        "mean_N": float(np.mean(Ns)),
        "mean_abs_residual": float(np.mean(res)),
        "q50_abs_residual": float(np.quantile(res, 0.5)),
        "q90_abs_residual": float(np.quantile(res, 0.9)),
        "mean_ratio": float(np.mean(Ns) / W) if W > 0 else None,
    }


def _stage_medians(records, param) -> dict:
    """Median milliseconds per stage over the trials at param."""
    rows = [r.stage_ms for r in records if r.param == param]
    return {s: float(np.median([ms[s] for ms in rows])) for s in STAGES}


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
        raise ValueError("all abscissae equal")
    slope, intercept = np.polyfit(s, y, 1)
    pred = slope * s + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2


# -- truncation certification --------------------------------------------------

# K is the first candidate at which the pilot spectra settle: inside a domain
# their eigenvalues at K and at ceil(growth K) coincide one to one within a
# per-mode fraction of the domain's radius.  Integer counts of an unresolved
# truncation often agree by chance; eigenvalue positions do not.  The
# candidates interleave a per-mode number of chains, each growing by the
# per-mode factor, so that ceil(growth K) is a later candidate.
#
# semiclassical: the first SC_PILOTS trials of each h, from
# K = ceil(SC_C_START xi_window / h) + 2 bandwidth, never beyond the rule's K;
# two chains put the candidates sqrt(1.5) apart.  Between K and 1.5K an
# unresolved truncation moves Gamma's eigenvalues by 4e-3 R or more, and
# rounding at the rule's K by 3e-10 R.  With c_K = (K - 2 bandwidth) h /
# xi_window, sc-weyl's pilots' positions first settle at c_K = 0.66-0.84,
# and would stop K at c_K = 0.79-0.92, where they move by at most 4e-6 R;
# counts change near c_K = 0.5.
SC_PILOTS = 8
SC_C_START = 0.25
SC_GROWTH = 1.5
SC_CHAINS = 2
SC_SETTLE_TOL = 1e-5
# Counts settle before positions do, so the ladder stops at whichever comes
# first: a candidate whose positions settle, or the partner of K_count
# (count_truncation), a candidate at which the pilots' eigenvalues within
# SC_MATCH_BAND R of Gamma match one to one against ceil(1.5 K_count),
# moving by at most mu, with SC_FLAG_SCALE mu at most SC_FLAG_CAP R.  Then
# K is that partner, where the pilots keep their spectra; the other trials
# are solved at K_count, and one with an eigenvalue within SC_FLAG_SCALE mu
# of Gamma's boundary at K_count is solved again at K and counted there.
# On sc-weyl's config K_count stops at c_K = 0.62-0.70 and K at 0.95-1.10,
# where SC_FLAG_SCALE mu is at most 3.1e-3 R and flags 3-13 trials of 192;
# at the candidate below it is 1.4e-2 R or more and flags 73-192, hence the
# cap.  At every matched candidate, each trial whose count differed from
# its count where the positions settle lay within 2.2 mu of the boundary.
SC_MATCH_BAND = 0.05
SC_FLAG_SCALE = 10.0
SC_FLAG_CAP = 1e-2
# highenergy: the pilot trajectory, doubling up to a dense side of 2049.
HE_GROWTH = 2
HE_CHAINS = 1
HE_SETTLE_TOL = 1e-8
HE_K_CAP = 1024


def _movement(coarse: np.ndarray, fine: np.ndarray, near) -> float:
    """The Hausdorff distance between the eigenvalues of coarse and of fine
    that near(z) selects, or inf if their numbers differ."""
    a, b = coarse[near(coarse)], fine[near(fine)]
    if len(a) != len(b):
        return math.inf
    if len(a) == 0:
        return 0.0
    d = np.abs(a[:, None] - b[None, :])
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def certify_truncation(solve, doms, K0: int, growth: float, tol: float,
                       cap: int, chains: int = 1, count: bool = False,
                       fallback: int | None = None) -> tuple:
    """The pilots' truncation decision, taken where they first settle in
    the first domain.

    The candidates interleave ``chains`` chains K, ceil(growth K), ...
    started at ceil(growth^(j / chains) K0), j < chains, duplicates skipped;
    a candidate K is settled against ceil(growth K), the next K of its
    chain.  ``solve(K, checking)`` returns the pilot spectra at truncation
    K, one array per pilot trial, where ``checking`` is the candidate whose
    verdict waits on that solve; every K is solved once, in increasing
    order.  ``doms`` are nested domains, smallest first.  K grows only while
    the smallest domain is unsettled on some pilot: large eigenvalues can be
    exponentially ill-conditioned, so a domain that rounding alone can move
    is not settled by any larger K.  Every domain takes its verdict from the
    same pair (K, ceil(growth K)), and is settled when every pilot is.
    With ``count``, count_truncation is a second rule for the first domain,
    asked of each candidate whose positions do not settle: where it holds,
    the ladder stops, that candidate is K_count, K is its partner and the
    first verdict is True.
    Returns (K, K_count, per-domain verdicts, every K solved, mu): mu is
    count_truncation's mu / R where the counts stop the ladder, and else
    None with K_count = K.  If a candidate's partner would exceed cap
    first, every verdict is False and K is ``fallback``, or the last K
    solved when it is None.
    """
    ladder = set()
    for j in range(chains):
        c = math.ceil(growth ** (j / chains) * K0)
        while c <= cap:
            ladder.add(c)
            c = math.ceil(growth * c)
    ladder = sorted(ladder)
    spectra = {K0: solve(K0, K0)}
    for K in ladder:
        if (finer_K := math.ceil(growth * K)) > cap:
            break
        for k in ladder:
            if max(spectra) < k <= finer_K:
                spectra[k] = solve(k, K)
        verdicts = [all(_movement(a, b, dom.contains_many)
                        <= tol * dom.bound_radius()
                        for a, b in zip(spectra[K], spectra[finer_K]))
                    for dom in doms]
        if verdicts[0]:
            return K, K, verdicts, tuple(spectra), None
        mu = (count_truncation(spectra[K], spectra[finer_K], doms[0])
              if count else None)
        if mu is not None:
            return finer_K, K, [True, *verdicts[1:]], tuple(spectra), mu
    K = max(spectra) if fallback is None else fallback
    return K, K, [False] * len(doms), tuple(spectra), None


def count_truncation(coarse: list, fine: list, dom) -> float | None:
    """mu / R, R dom's bound radius, where the pilots' counts settle
    between two truncations, else None: their eigenvalues within
    SC_MATCH_BAND R of dom, some pilot having one, match one to one between
    ``coarse`` and ``fine`` (one spectrum per pilot each), and mu, the
    largest distance a matched eigenvalue moves, meets SC_FLAG_SCALE mu <=
    SC_FLAG_CAP R."""
    R = dom.bound_radius()

    def near(z):
        return (dom.contains_many(z)
                | (dom.boundary_gap(z) <= SC_MATCH_BAND * R))

    if not any(near(a).any() for a in coarse):
        return None
    mu = max(_movement(a, b, near) for a, b in zip(coarse, fine)) / R
    return mu if SC_FLAG_SCALE * mu <= SC_FLAG_CAP else None


# -- the trial path ------------------------------------------------------------

# Processes that solve one stream's trials: the parent and WORKERS - 1 forked
# helpers, one per CPU this process may run on.  Each process runs one BLAS
# thread (see the package's __init__).  ``taskset -c 0`` gives a serial run.
WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
           else os.cpu_count() or 1)


def _helpers(config: ExperimentConfig):
    """A context giving min(WORKERS, trials) - 1 forked helpers, or None."""
    helpers = min(WORKERS, config.trials) - 1
    # fork, not spawn: helpers start with every module loaded, and no
    # resource tracker starts that could outlive this process.  The pool
    # forks all its helpers on its first submit, before it starts a thread.
    return (ProcessPoolExecutor(helpers,
                                mp_context=multiprocessing.get_context("fork"))
            if helpers else contextlib.nullcontext())


def _submit(pool, fn, *args) -> Future:
    """fn(*args) in one of ``pool``'s helpers, or here and now if None."""
    if pool is not None:
        return pool.submit(fn, *args)
    done = Future()
    done.set_result(fn(*args))
    return done


def _solve(config: ExperimentConfig, stream: str, h: float, delta: float,
           K: int, trials: list) -> list:
    """Spectra of P - delta Q_omega at truncation K, P assembled once, for
    each trial index of seed stream ``stream``: each trial is drawn here,
    just before its solve.  Returns (eigenvalues, draw ms, assemble ms,
    eigensolve ms) per trial, in order.
    """
    mat = discretize.assemble_operator(
        config.sym, discretize.FourierTruncation(K=K, n=config.sym.n, h=h))
    rows = []
    for i, t in enumerate(trials):
        t0 = time.perf_counter()
        d = randomness.sample_draw(
            config.law, randomness.SeedSpec(config.seed, stream, t), h)
        t1 = time.perf_counter()
        perturbed = discretize.perturbed_operator(mat, d, delta)
        if i == len(trials) - 1:
            del mat     # the last solve need not hold P beside its copies
        t2 = time.perf_counter()
        eigs = discretize.eigenvalues(perturbed)
        rows.append((eigs, (t1 - t0) * 1e3, (t2 - t1) * 1e3,
                     (time.perf_counter() - t2) * 1e3))
    return rows


def _shared(pool, fn, args: tuple, items: list, meanwhile=None) -> dict:
    """fn(*args, share) over ``items`` in WORKERS interleaved shares, the
    i-th item in share i mod WORKERS: share 0 here, the others in ``pool``'s
    helpers.  fn gives one row per item of its share; returns item -> row.
    ``meanwhile()``, if given, runs once the helpers' shares are queued."""
    shares = [items[s::WORKERS] for s in range(WORKERS)]
    futures = [_submit(pool, fn, *args, share)
               for share in shares[1:] if share]
    if meanwhile is not None:
        meanwhile()
    rows = fn(*args, shares[0]) if shares[0] else []
    for fut in futures:
        rows += fut.result()
    return dict(zip(itertools.chain.from_iterable(shares), rows))


@dataclass(frozen=True)
class StreamTrials:
    solves: list            # per trial, in order: (spectrum, K, stage ms)
    pilots: int             # the first trials, which certify K
    K: int
    verdicts: list          # per domain, smallest first: settled at K
    K_tried: tuple          # every K the pilots were solved at
    pilot_millis: float     # wall time of the pilots' K ladder
    K_count: int            # the K the non-pilot trials were solved at
    mu: float | None        # count_truncation's mu / R, if counts stop K
    resolved: list          # the trials solved again at K


def _certified_trials(pool, config: ExperimentConfig, stream: str, h: float,
                      delta: float, doms, *, K0: int, cap: int,
                      fallback: int | None, pilots: int, growth: float,
                      chains: int, tol: float,
                      count: bool = False) -> StreamTrials:
    """Solve every trial of one seed stream at a truncation K certified on
    the first ``pilots`` trials; count_records counts the spectra.

    ``doms`` are nested domains, smallest first, on which
    certify_truncation takes K, K_count and mu with K0, growth, tol, cap,
    chains, ``count`` and ``fallback``.  The pilots keep their spectra at
    K.  The other trials are solved at K_count; where the counts stopped
    the ladder (mu is not None), those with an eigenvalue within
    SC_FLAG_SCALE mu of the first domain's boundary are solved again at K,
    and their stage times sum both solves'.  Every solve is shared out with
    ``pool``'s helpers by trial index, and each process draws the trials it
    solves.  While the pilots are solved at a finer K, helpers they leave
    idle solve the non-pilot trials at the candidate K being checked, one
    future each, requeued behind each pilot solve; the verdict cancels
    those not started, and the started ones are collected after the
    parent's share if the non-pilot trials are solved at that K, and
    dropped otherwise.
    """
    pilots = min(pilots, config.trials)
    args = (config, stream, h, delta)       # _solve's arguments before K
    solved = {}     # K -> trial -> _solve's row, per pilot
    # guesses at each candidate K, queued behind the pilots' helper shares
    guesses = {}        # K -> trial -> future

    def guess(K):
        at = guesses.setdefault(K, {})
        at.update((t, pool.submit(_solve, *args, K, [t]))
                  for t in range(pilots, config.trials)
                  if t not in at or at[t].cancelled())

    def cancel_guesses():
        for at in guesses.values():
            for fut in at.values():
                fut.cancel()

    def solve_pilots(K, checking):
        cancel_guesses()        # requeued below if still checking that K
        speculate = None
        if checking in solved and pool is not None and pilots < WORKERS:
            speculate = functools.partial(guess, checking)
        solved[K] = _shared(pool, _solve, (*args, K), list(range(pilots)),
                            speculate)
        return [solved[K][t][0] for t in range(pilots)]

    t0 = time.perf_counter()
    try:
        K, K_count, verdicts, K_tried, mu = certify_truncation(
            solve_pilots, doms, K0, growth, tol, cap, chains, count,
            fallback)
    finally:
        cancel_guesses()
    pilot_ms = (time.perf_counter() - t0) * 1e3

    reused = solved.get(K, {})
    # a guess already started at K_count is kept; any other guess's result
    # or error is dropped, since a serial run never makes that solve
    started = {t: fut for t, fut in guesses.get(K_count, {}).items()
               if not fut.cancelled()}
    rest = _shared(pool, _solve, (*args, K_count), [
        t for t in range(config.trials)
        if t not in reused and t not in started])
    rest.update((t, fut.result()[0]) for t, fut in started.items())
    flagged = [] if mu is None else [
        t for t in sorted(rest) if doms[0].boundary_gap(rest[t][0]).min()
        <= SC_FLAG_SCALE * mu * doms[0].bound_radius()]
    again = _shared(pool, _solve, (*args, K), flagged)

    solves = []
    for trial in range(config.trials):
        eigs, *ms = reused.get(trial) or rest[trial]
        if trial in again:      # both solves' times, the spectrum at K
            eigs, *more = again[trial]
            ms = [a + b for a, b in zip(ms, more)]
        solves.append((eigs, K if trial in reused or trial in again
                       else K_count, ms))
    return StreamTrials(solves, pilots, K, verdicts, K_tried, pilot_ms,
                        K_count, mu, flagged)


def count_records(config: ExperimentConfig, stream: str,
                  trials: StreamTrials, rungs) -> list:
    """One TrialRecord per trial and (param, domain, W) of ``rungs``, trial
    by trial, each counting the trial's spectrum in its domain."""
    records = []
    for trial, (eigs, K, ms) in enumerate(trials.solves):
        for param, dom, W in rungs:
            t0 = time.perf_counter()
            N = int(np.count_nonzero(dom.contains_many(eigs)))
            count_ms = (time.perf_counter() - t0) * 1e3
            records.append(TrialRecord(
                mode=config.mode, param=param, trial=trial,
                seed_label=f"{config.seed}/{stream}/{trial}",
                N=N, W=W, residual=N - W, K=K, eigenvalues=eigs,
                stage_ms=dict(zip(STAGES, (*ms, count_ms)))))
    return records


# -- semiclassical experiment --------------------------------------------------

def run_semiclassical(config: ExperimentConfig) -> ExperimentReport:
    start = time.perf_counter()
    gamma, rules = config.admit()
    weyl = domains.weyl_measure(config.sym, gamma)
    measure = weyl.value

    records = []
    truncation = {}
    with _helpers(config) as pool:
        for h, (K_rule, delta) in rules.items():
            stream = f"sc:{h!r}"
            run = _certified_trials(
                pool, config, stream, h, delta, [gamma],
                K0=min(K_rule, config.truncation_K(
                    h, gamma.bound_radius(), SC_C_START)),
                cap=K_rule, fallback=K_rule, pilots=SC_PILOTS,
                growth=SC_GROWTH, chains=SC_CHAINS, tol=SC_SETTLE_TOL,
                count=True)
            records += count_records(config, stream, run, [
                (h, gamma, measure / (symbol.TWO_PI * h))])
            truncation[h] = {
                "K": run.K, "K_rule": K_rule, "K_tried": list(run.K_tried),
                "pilot_trials": run.pilots, "settle_tol": SC_SETTLE_TOL,
                "certified": run.verdicts[0], "settled_by": (
                    "counts" if run.mu is not None
                    else "positions" if run.verdicts[0] else None),
                "pilot_millis": run.pilot_millis,
                "K_count": run.K_count, "mu": run.mu,
                "match_band": SC_MATCH_BAND, "flag_scale": SC_FLAG_SCALE,
                "flag_cap": SC_FLAG_CAP, "resolved": run.resolved}

    params = tuple(config.h_list)
    aggregates = {h: _aggregate(records, h) for h in params}

    def scale(h):
        return h ** -0.5 * abs(math.log(h)) ** 0.5

    res = {h: max(aggregates[h]["mean_abs_residual"], 1e-12) for h in params}
    env = env_h = None
    if len(params) >= 3:
        env = fit_power_law([(scale(h), res[h]) for h in params])
        env_h = fit_power_law([(h, res[h]) for h in params])

    # envelope calibration at the coarsest h, coverage at finer h
    h_cal = max(params)
    cal = [abs(r.residual) / scale(h_cal) for r in records
           if r.param == h_cal]
    c_hat = float(max(cal))
    coverage = {h: float(np.mean([abs(r.residual) <= c_hat * scale(h)
                                  for r in records if r.param == h]))
                for h in params if h < h_cal}

    return ExperimentReport(
        mode="semiclassical", records=records, params=params,
        aggregates=aggregates, envelope_fit=env, envelope_fit_h=env_h,
        c_hat=c_hat, coverage=coverage,
        extras={"weyl_measure": measure,
                "weyl_measure_bound": weyl.bound,
                "delta": {h: delta for h, (_, delta) in rules.items()},
                "truncation": truncation,
                "stage_ms": {h: _stage_medians(records, h) for h in params},
                "workers": WORKERS},
        config_echo=config.echo(),
        total_millis=(time.perf_counter() - start) * 1e3)


# -- high-energy experiment ----------------------------------------------------

def _rescaled_symbol(sym: symbol.MatrixSymbol,
                     h: float) -> symbol.MatrixSymbol:
    """lambda^{-1} P in semiclassical form at h = lambda^{-1/m}:
    A_alpha D^alpha / lambda = h^{m - alpha} A_alpha (hD)^alpha; at h = 0,
    the principal part (0.0 ** 0 = 1, and the zero orders are never summed)."""
    scale = np.array([h ** (sym.m - a) for a in range(sym.m + 1)])
    return symbol.MatrixSymbol(sym.n, sym.m,
                               sym.coeffs * scale[:, None, None, None])


def rung_weyl(sym: symbol.MatrixSymbol, dom) -> tuple:
    """(W, its bound): the Weyl measure of dom over 2 pi."""
    weyl = domains.weyl_measure(sym, dom)
    return weyl.value / symbol.TWO_PI, weyl.bound / symbol.TWO_PI


def _rescaled_eigs(config: ExperimentConfig, stream: str, K: int,
                   lams) -> list:
    """For each lambda in lams, lambda^{-1} (P - Q) at K, P assembled at
    h = lambda^{-1/m} and Q of the stream's trial 0 at h = 1, drawn here:
    None where it is M / lambda bit for bit, M = P - Q at h = 1 built as
    the trial's solve builds it, and its spectrum elsewhere."""
    sym = config.sym
    at_1 = discretize.FourierTruncation(K=K, n=sym.n, h=1.0)
    Q = discretize.assemble_perturbation(randomness.sample_draw(
        config.law, randomness.SeedSpec(config.seed, stream, 0), 1.0),
        at_1, 1.0).entries
    M = discretize.assemble_operator(sym, at_1).entries - Q
    out = []
    for lam in lams:
        h = lam ** (-1.0 / sym.m)
        scaled = discretize.assemble_operator(
            _rescaled_symbol(sym, h),
            discretize.FourierTruncation(K=K, n=sym.n, h=h))
        mat = discretize.OperatorMatrix(scaled.entries - Q / lam,
                                        scaled.trunc)
        out.append(None if mat.entries.tobytes() == (M / lam).tobytes()
                   else discretize.eigenvalues(mat))
    return out


def run_highenergy(config: ExperimentConfig) -> ExperimentReport:
    """Count every rung of the lambda ladder from one eigensolve per trial.

    At h = 1 the matrix of P - Q_omega does not depend on lambda and the
    dilated sectors are nested, so one spectrum per trajectory serves the
    whole ladder.  Its truncation K is certified on the pilot trial 0, and
    the per-rung verdicts go into ``extras["truncation"]`` and the
    aggregates.
    """
    start = time.perf_counter()
    sector, rules = config.admit()
    sym = config.sym

    params = tuple(rules)
    pieces = {lam: domains.dyadic_decompose(lam, sector) for lam in params}
    rungs = [domains.dilate(sector, lam) for lam in params]
    K0 = rules[params[0]][0]
    with _helpers(config) as pool:
        # the helpers measure the rungs while the pilot climbs its K ladder
        weyls = [_submit(pool, rung_weyl, sym, dom) for dom in rungs]
        run = _certified_trials(
            pool, config, "he", 1.0, 1.0, rungs,
            K0=K0, cap=HE_K_CAP, fallback=None, pilots=1,
            growth=HE_GROWTH, chains=HE_CHAINS, tol=HE_SETTLE_TOL)
        weyls = {str(lam): w.result() for lam, w in zip(params, weyls)}
        records = count_records(config, "he", run, [
            (lam, dom, weyls[str(lam)][0]) for lam, dom in zip(params, rungs)])
        record = {(r.param, r.trial): r for r in records}

        # lambda^{-1} (P - Q) at h = lambda^{-1/m}, same draw and K, counted
        # in the undilated sector: it equals N in exact arithmetic, so a
        # mismatch exposes a count that rounding can move.  Where it is
        # trial 0's matrix M over lambda bit for bit (h exact, as at
        # lambda = 4^k for m = 2), its spectrum is trial 0's over lambda;
        # the other rungs are solved.  The rungs are shared out, compared
        # and solved where they are assembled.
        rescaled = _shared(pool, _rescaled_eigs, (config, "he", run.K),
                           list(params))
        solved = [lam for lam in params if rescaled[lam] is not None]
        rescaling_ok = {f"{lam}/0": bool(np.count_nonzero(
            sector.contains_many(record[lam, 0].eigenvalues / lam
                                 if rescaled[lam] is None else rescaled[lam]))
            == record[lam, 0].N) for lam in params}

    dyadic_info = {}
    for r in records:
        piece_counts = [int(np.count_nonzero(p.contains_many(r.eigenvalues)))
                        for p in pieces[r.param]]
        dyadic_info[f"{r.param}/{r.trial}"] = {
            "piece_counts": piece_counts, "total": r.N,
            "sum_matches": sum(piece_counts) == r.N}

    aggregates = {lam: _aggregate(records, lam) for lam in params}
    for lam, ok in zip(params, run.verdicts):
        aggregates[lam]["certified"] = ok

    # Fits and relative residuals use certified rungs only: an uncertified
    # count is a truncation artefact.  Per trajectory, the envelope
    # |res| <= C(omega) + C~ lambda^{1/(2m)} sqrt(ln lam); None where fewer
    # certified rungs remain than a fit has parameters.
    fit_rungs = [lam for lam, ok in zip(params, run.verdicts) if ok]
    fits = {}
    rel_residuals = {}
    for trial in range(config.trials):
        rows = [record[lam, trial] for lam in fit_rungs]
        rel_residuals[trial] = [
            abs(r.residual) / r.W if r.W > 0 else math.inf for r in rows]
        if len(rows) < 2:
            fits[trial] = None
            continue
        b = np.array([r.param ** (1.0 / (2 * sym.m))
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
            "weyl_by_lambda": {k: W for k, (W, _) in weyls.items()},
            "weyl_bound_by_lambda": {k: b for k, (_, b) in weyls.items()},
            "truncation": {
                "K": run.K, "K_start": K0, "K_tried": list(run.K_tried),
                "pilot_trial": 0, "settle_tol": HE_SETTLE_TOL,
                "certified": {str(lam): ok
                              for lam, ok in zip(params, run.verdicts)},
                "pilot_millis": run.pilot_millis,
                "fit_rungs": fit_rungs,
            },
            "rescaling_identity": rescaling_ok,
            "rescaling_solved": solved,
            "dyadic": dyadic_info,
            "trajectory_fits": fits,
            "relative_residuals": rel_residuals,
            "stage_ms": {lam: _stage_medians(records, lam) for lam in params},
            "workers": WORKERS,
        },
        config_echo=config.echo(),
        total_millis=(time.perf_counter() - start) * 1e3)


# -- report files --------------------------------------------------------------

def write_table(path, header, rows, sep: str = ",") -> None:
    """A plot-ready table: the header's cells, then one line per row, cells
    joined by ``sep``; a float cell is written by repr(float(c)), which
    reads back bit for bit, and any other cell by str.  ``rows`` may be a
    generator: each row is written as it is yielded."""
    with open(path, "w") as fh:
        for row in itertools.chain([header], rows):
            fh.write(sep.join([repr(float(c)) if isinstance(c, float)
                               else str(c) for c in row]) + "\n")


def write_report(report: ExperimentReport, out_dir,
                 dump_eigs: bool = False) -> dict:
    """trials.csv + summary.json (+ eigenvalues.csv); returns written paths.

    The millis column is fixed to 0 so identical (config, seed) reruns are
    byte-identical; wall-clock totals live in summary.json instead.
    """
    os.makedirs(out_dir, exist_ok=True)
    trials_path = os.path.join(out_dir, "trials.csv")
    rows = sorted(report.records, key=lambda r: (r.param, r.trial))
    write_table(trials_path, CSV_HEADER.split(","), (
        (r.mode, r.param, r.trial, r.seed_label, r.N, r.W, r.residual, r.K, 0)
        for r in rows))

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
        "total_millis": report.total_millis,
        "versions": _versions(),
        "blas_threads": _blas_threads(),
    }
    with open(summary_path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")

    written = {"trials": trials_path, "summary": summary_path}
    if dump_eigs:
        eig_path = os.path.join(out_dir, "eigenvalues.csv")
        write_table(eig_path, ("mode", "h_or_lambda", "trial", "re", "im"), (
            (r.mode, r.param, r.trial, z.real, z.imag)
            for r in rows for z in r.eigenvalues))
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


def _blas_threads() -> dict:
    """Threads of each OpenBLAS loaded here (numpy and scipy bring one
    each), asked of the library: the variables that set them act only if
    set before numpy loads.  Empty where /proc/self/maps is missing."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower()})
    except OSError:
        return {}
    threads = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            if (get := getattr(lib, name, None)) is not None:
                threads[os.path.basename(path)] = get()
                break
    return threads


def _versions() -> dict:
    import scipy

    from . import __version__
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "weylab": __version__}


# -- JSON config loading ---------------------------------------------------------

# The keys load_config reads, per block and per domain type; any other key
# is a config error, so that a misspelt one cannot silently run a default.
# "semiclassical" is read and ignored: the mode sets the scaling.
_TOP_KEYS = ("symbol", "perturbation", "domains", "experiment", "seed")
_SYMBOL_KEYS = ("n", "m", "coeffs", "semiclassical")
_LAW_KEYS = ("alpha_min", "alpha_max", "rho", "K_q")
_EXPERIMENT_KEYS = ("mode", "h_list", "lambda_list", "trials", "gamma1", "N0",
                    "delta")
_DOMAIN_KEYS = {"rectangle": ("re_min", "re_max", "im_min", "im_max"),
                "polygon": ("vertices",),
                "disk": ("center", "radius", "vertices"),
                "sector": ("theta_min", "theta_max", "r_out", "r_in")}


def _check_keys(block: str, spec: dict, known) -> None:
    unknown = sorted(set(spec) - set(known))
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r} in {block}")


def _real(value, what: str) -> float:
    """float(value), refusing a JSON boolean, which float() reads as 0 or 1,
    and an integer too large for a float."""
    if isinstance(value, bool):
        raise ValueError(f"{what} must be a number, not {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{what} is too large for a float") from None


def _whole(value, what: str, top: int | None = None) -> int:
    """int(value) for a whole number, in 0..top if ``top`` is given."""
    span = "" if top is None else f" in 0..{top}"
    if not _real(value, what).is_integer() or (
            span and not 0 <= int(value) <= top):
        raise ValueError(f"{what} must be an integer{span}, not {value!r}")
    return int(value)


def parse_symbol(spec: dict) -> symbol.MatrixSymbol:
    _check_keys("symbol", spec, _SYMBOL_KEYS)
    n, m = _whole(spec["n"], "symbol n"), _whole(spec["m"], "symbol m")
    return symbol.MatrixSymbol.from_terms(n, m, (
        (_whole(alpha, "symbol order", m), _whole(i, "symbol slot", n - 1),
         _whole(j, "symbol slot", n - 1), _whole(k, "symbol frequency"),
         complex(_real(re, "symbol entry"), _real(im, "symbol entry")))
        for alpha, entries in spec["coeffs"].items()
        for i, j, k, re, im in entries))


def parse_domain(spec: dict):
    kind = spec["type"]
    if kind not in _DOMAIN_KEYS:
        raise ValueError(f"unknown domain type {kind!r}")
    _check_keys(f"{kind} domain", spec, ("type",) + _DOMAIN_KEYS[kind])
    # only a sector's r_in may be null
    bounds = {k: v if v is None and k == "r_in" else _real(v, f"{kind} {k}")
              for k, v in spec.items() if k not in ("type", "vertices",
                                                    "center")}
    if kind == "rectangle":
        return domains.Rectangle(**bounds)
    if kind == "polygon":
        return domains.Polygon(tuple(complex(_real(a, "polygon vertex"),
                                             _real(b, "polygon vertex"))
                                     for a, b in spec["vertices"]))
    if kind == "disk":
        c = [_real(v, "disk center") for v in spec.get("center", (0.0, 0.0))]
        return domains.regular_polygon(complex(c[0], c[1]), bounds["radius"],
                                       _whole(spec.get("vertices", 128),
                                              "disk vertices"))
    return domains.AnnularSector(**{"r_out": 1.0, **bounds})


def parse_law(spec: dict, n: int) -> randomness.CoefficientLaw:
    _check_keys("perturbation", spec, _LAW_KEYS)
    return randomness.CoefficientLaw(
        alpha_min=_whole(spec["alpha_min"], "perturbation alpha_min"),
        alpha_max=_whole(spec["alpha_max"], "perturbation alpha_max"),
        n=n,
        rho_decay=_real(spec["rho"], "perturbation rho"),
        K_q=_whole(spec.get("K_q", 64), "perturbation K_q"),
    )


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        raw = json.load(fh)
    block = "the config"    # the block being read, named by a type error
    try:
        _check_keys(block, raw, _TOP_KEYS)
        seed = _whole(raw.get("seed", 0), "seed")
        block = "symbol"
        sym = parse_symbol(raw["symbol"])
        block = "perturbation"
        law = (parse_law(raw["perturbation"], sym.n)
               if "perturbation" in raw else None)
        block = "domains"
        doms = [parse_domain(d) for d in raw.get("domains", [])]
        block = "experiment"
        exp = raw.get("experiment", {})
        _check_keys(block, exp, _EXPERIMENT_KEYS)
        fields = dict(
            mode=exp.get("mode", "semiclassical"),
            h_list=tuple(_real(v, "h") for v in exp.get("h_list", ())),
            lambda_list=tuple(_real(v, "lambda")
                              for v in exp.get("lambda_list", ())),
            trials=_whole(exp.get("trials", 20), "experiment trials"),
            gamma1=_real(exp.get("gamma1", 0.25), "gamma1"),
            N0=_real(exp.get("N0", 3.0), "N0"),
            delta_override=(None if exp.get("delta") is None
                            else _real(exp["delta"], "delta")))
    except (TypeError, AttributeError) as exc:
        raise ValueError(f"malformed {block}: {exc}") from exc
    return ExperimentConfig(sym=sym, law=law, domains=doms, seed=seed,
                            raw=raw, **fields)
