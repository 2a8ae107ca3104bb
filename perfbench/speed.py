"""A clock that reads seconds of work at a fixed nominal host speed.

The host this benchmark was tuned on switches between two speed levels about
1.6x apart every few seconds, and CPU time follows wall time, so neither raw
wall time nor CPU time repeats between runs.  ``SpeedClock`` times a small
fixed reference kernel every ``PERIOD`` seconds from a SIGALRM handler, which
Python runs in the main thread between bytecodes, so the probes interleave
with whatever code the workload is in without any hook in that code.  Each
stretch of wall time between two probes is scaled by ``NOMINAL_S / t_kernel``
of the probe that opened it; the probes' own time is left out.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np
import scipy.linalg

# Seconds between probes and the kernel's time at the host's fast level
# (its median over quiet stretches, 1 BLAS thread, OpenBLAS 0.3.30/0.3.31).
PERIOD = 0.25
NOMINAL_S = 6.0e-3

_rng = np.random.default_rng(20261018)
_EIG = _rng.standard_normal((64, 64)) + 1j * _rng.standard_normal((64, 64))
_SMALL = _rng.standard_normal((2, 2)) + 1j * _rng.standard_normal((2, 2))


def kernel() -> float:
    """Seconds for one pass of the reference kernel.

    It mixes the three kinds of work the workloads do: a dense complex
    eigensolve (LAPACK), an interpreter loop, and many tiny numpy calls.
    """
    t0 = time.perf_counter()
    scipy.linalg.eigvals(_EIG)
    acc = 0.0
    for i in range(30000):
        acc += i * 0.5
    for _ in range(200):
        np.linalg.det(_SMALL)
    return time.perf_counter() - t0


class SpeedClock:
    """Nominal-speed seconds since ``start``; probes run until ``stop``."""

    def __init__(self):
        self.probes = []            # measured kernel seconds
        self._acc = 0.0
        self._mark = 0.0
        self._factor = 1.0
        self._running = False

    def _probe(self, *_):
        t0 = time.perf_counter()
        self._acc += (t0 - self._mark) * self._factor
        k = kernel()
        self.probes.append(k)
        self._factor = NOMINAL_S / k
        self._mark = time.perf_counter()
        if self._running:
            signal.setitimer(signal.ITIMER_REAL, PERIOD)

    def start(self):
        self._mark = time.perf_counter()
        self._running = True
        signal.signal(signal.SIGALRM, self._probe)
        self._probe()

    def stop(self):
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def now(self) -> float:
        return self._acc + (time.perf_counter() - self._mark) * self._factor

    def facts(self) -> dict:
        p = self.probes
        return {"kernel_nominal_ms": NOMINAL_S * 1e3,
                "kernel_median_ms": statistics.median(p) * 1e3 if p else None,
                "kernel_min_ms": min(p) * 1e3 if p else None,
                "kernel_max_ms": max(p) * 1e3 if p else None,
                "probes": len(p), "probe_period_s": PERIOD}
