"""The benchmark's checks must be able to fail.

Each check is fed the right value and a deliberately wrong one: W scaled by
1.01, a root moved by 1e-6, a count off by one, a winding sign flipped, a
residual slope of 1.2.  The oracles are held to the figures the benchmark's
README quotes.  Run with ``python3 -m pytest perfbench`` (weylab on the
path, as for the repository's tests).
"""

import json
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks      # noqa: E402
import oracles     # noqa: E402
import spans       # noqa: E402
import workloads   # noqa: E402

TWO_PI = 2.0 * math.pi


def test_oracles_match_quoted_figures():
    assert oracles.f2_rect_measure() == pytest.approx(0.54336, abs=1e-5)
    assert oracles.f1_square_measure() == pytest.approx(2.0943951, abs=1e-7)
    assert oracles.f3_square_measure() == pytest.approx(4.1887902, abs=1e-7)
    for lam in (4.0, 256.0, 4096.0):
        W = oracles.f4_sector_measure(lam) / TWO_PI
        assert W == pytest.approx(math.sqrt(lam) * 2 * (TWO_PI - 0.1) / TWO_PI)


def test_f2_area_against_brute_force():
    # a fine midpoint sum of the count function, independent of quad
    n = 4000
    x = (np.arange(n) + 0.5) * TWO_PI / n
    xi = np.linspace(-2.0, 2.0, 4001)
    xi = 0.5 * (xi[1:] + xi[:-1])
    p = xi[None, :] ** 2 + 1j * np.exp(1j * x[:, None])
    inside = ((p.real >= 0.1) & (p.real <= 0.7)
              & (np.abs(p.imag) <= 0.5))
    brute = inside.sum() * (TWO_PI / n) * (4.0 / 4000)
    assert brute == pytest.approx(oracles.f2_rect_measure(), rel=2e-3)


@pytest.mark.parametrize("z", [0.3 + 0.1j, 0.65 - 0.45j, 0.21 + 0.49j])
def test_f2_roots_solve_the_symbol(z):
    for x, xi, sign in oracles.f2_roots(z):
        assert abs(xi ** 2 + 1j * np.exp(1j * x) - z) < 1e-12
        bracket = 2 * xi * math.sin(x)
        assert (bracket > 0) == (sign == "plus")


@pytest.mark.parametrize("z", [0.1 + 0.3j, -0.35 - 0.45j, 0.02j])
def test_f3_roots_solve_the_symbol(z):
    roots = oracles.f3_roots(z)
    assert len(roots) == 4
    assert sum(s == "plus" for _, _, s in roots) == 2
    for x, xi, _ in roots:
        det = (xi + np.exp(1j * x) - z) * (xi - np.exp(1j * x) - z)
        assert abs(det) < 1e-12


@pytest.mark.parametrize("exact,rel", [
    (oracles.f2_rect_measure(), 1e-3),            # sc-weyl W, F2 measure
    (oracles.f4_sector_measure(256.0) / TWO_PI, 1e-3),   # he-ladder W
    (oracles.f1_square_measure(), 5e-3),
    (oracles.f3_square_measure(), 5e-3),
])
def test_measure_check_rejects_W_scaled_by_1_01(exact, rel):
    assert checks.close(exact * (1 + 0.5 * rel), exact, rel)
    assert not checks.close(exact * 1.01, exact, rel)
    assert not checks.close(float("nan"), exact, rel)


def test_root_check_rejects_a_root_moved_by_1e_6():
    for oracle, z in ((oracles.f2_roots, 0.5 + 0.2j),
                      (oracles.f3_roots, 0.1 - 0.3j)):
        exact = oracle(z)
        assert checks.roots_match(list(reversed(exact)), exact)
        for i in range(len(exact)):
            for dx, dxi in ((1e-6, 0.0), (0.0, 1e-6)):
                moved = list(exact)
                x, xi, s = moved[i]
                moved[i] = (x + dx, xi + dxi, s)
                assert not checks.roots_match(moved, exact)
        flipped = list(exact)
        x, xi, s = flipped[0]
        flipped[0] = (x, xi, "plus" if s == "minus" else "minus")
        assert not checks.roots_match(flipped, exact)
        assert not checks.roots_match(exact[1:], exact)
    # x is compared modulo 2 pi
    x, xi, s = oracles.f2_roots(0.5)[0]
    assert checks.roots_match([(x + TWO_PI, xi, s)], [(x, xi, s)])


def test_winding_check_rejects_a_flipped_sign():
    assert checks.winding_ok(1, 1) and checks.winding_ok(0, 0)
    assert not checks.winding_ok(-1, 1)
    assert not checks.winding_ok(1, -1)


def test_slope_check_rejects_1_2():
    hs = [0.1, 0.07, 0.05, 0.035, 0.025]
    assert oracles.loglog_slope(hs, [3 * h ** 2 for h in hs]) \
        == pytest.approx(2.0)
    assert checks.slope_ok(oracles.loglog_slope(hs, [h ** 2 for h in hs]))
    assert not checks.slope_ok(oracles.loglog_slope(hs,
                                                    [h ** 1.2 for h in hs]))
    assert not checks.slope_ok(1.2)


def _he_rows(counts, lambdas):
    out = []
    for lam, N in zip(lambdas, counts):
        W = oracles.f4_sector_measure(lam) / TWO_PI
        out.append({"N": N, "W": W, "residual": N - W, "K": 160})
    return out


def test_trajectory_check_rejects_a_count_off_by_one():
    lams = workloads.HighEnergyLadder.LAMBDAS
    counts = [3, 7, 15, 29, 57, 144]
    pieces = [[c] for c in counts]
    rows = _he_rows(counts, lams)
    assert workloads.trajectory_ok(lams, rows, pieces)
    # a row whose N moved but whose residual did not
    bad = _he_rows(counts, lams)
    bad[2]["N"] += 1
    assert not workloads.trajectory_ok(lams, bad, pieces)
    # consistent rows, but the dyadic pieces no longer add up
    shifted = list(counts)
    shifted[2] += 1
    assert not workloads.trajectory_ok(lams, _he_rows(shifted, lams), pieces)
    # counts that decrease along nested rungs
    down = [3, 7, 15, 14, 57, 144]
    assert not workloads.trajectory_ok(lams, _he_rows(down, lams),
                                       [[c] for c in down])
    # W scaled by 1.01
    scaled = _he_rows(counts, lams)
    scaled[0]["W"] *= 1.01
    scaled[0]["residual"] = scaled[0]["N"] - scaled[0]["W"]
    assert not workloads.trajectory_ok(lams, scaled, pieces)


def test_resolved_trial_rejects_a_count_off_by_one(tmp_path):
    from weylab.harness import default_delta
    wl = workloads.SemiclassicalWeyl(5, str(tmp_path))
    wl.setup()
    h = 0.1
    K = wl.cfg.truncation_K(h, wl.cfg.domains[0].bound_radius())
    delta = default_delta(h, 1.2, 0.25, 3.0)
    N, eig_sum, trace, side, scale = wl.resolve(h, 0, K, delta)
    summary = {"extras": {"delta": {repr(h): delta}}}
    row = {"N": N, "K": K}
    assert wl._resolve_ok(h, 0, row, summary)
    assert not wl._resolve_ok(h, 0, dict(row, N=N + 1), summary)
    assert not wl._resolve_ok(h, 0, dict(row, N=N - 1), summary)
    # the trace check sees the perturbation: without delta Q it fails
    no_q = oracles.symbol_trace(wl.raw["symbol"]["coeffs"], 1, K, h)
    assert checks.trace_ok(eig_sum, trace, side, scale)
    assert not checks.trace_ok(eig_sum, no_q, side, scale)


def test_sector_and_rectangle_recounts():
    lo, hi = oracles.SECTOR
    assert checks.in_dilated_sector(3.0 + 0.5j, 4.0, lo, hi)
    assert not checks.in_dilated_sector(3.0 + 0.01j, 4.0, lo, hi)
    assert not checks.in_dilated_sector(-4.1, 4.0, lo, hi)
    assert checks.in_dilated_sector(0.0, 4.0, lo, hi)
    assert checks.in_rectangle(0.7 + 0.5j, *oracles.GAMMA_SC)
    assert not checks.in_rectangle(0.7 + 1e-9 + 0.5j, *oracles.GAMMA_SC)


def test_coverage_and_decay():
    res = {0.1: [1.0, -2.0, 0.5], 0.05: [1.0, 2.5, -9.0, 0.1]}
    cov = checks.coverage(res, 0.1)
    s = lambda h: h ** -0.5 * abs(math.log(h)) ** 0.5      # noqa: E731
    c_hat = 2.0 / s(0.1)
    assert cov == {0.05: sum(abs(r) <= c_hat * s(0.05)
                             for r in res[0.05]) / 4}
    assert checks.decayed({4.0: 0.5, 16.0: 0.2, 64.0: 0.1, 256.0: 0.05})
    assert not checks.decayed({4.0: 0.1, 16.0: 0.2, 64.0: 0.2, 256.0: 0.05})


def test_settled_needs_matching_positions():
    inside = lambda z: abs(z) <= 1.0                     # noqa: E731
    a = [0.5, 0.2j, 3.0]
    assert checks.settled(a, [0.2j + 1e-10, 0.5, 5.0], inside, 1.0, 1e-8)
    assert not checks.settled(a, [0.2j + 1e-6, 0.5], inside, 1.0, 1e-8)
    assert not checks.settled(a, [0.2j, 0.5, 0.9], inside, 1.0, 1e-8)


def test_benchmark_json_lists_every_reported_metric():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] \
        == spans.METRICS
    assert [m["name"] for m in bench["end_to_end"]] \
        == ["setup_s", "wall_s", "peak_rss_mb"]
    assert sorted(w["name"] for w in bench["workloads"]) \
        == sorted(workloads.WORKLOADS)
