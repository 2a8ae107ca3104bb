"""Acceptance gate: one pass/fail line per criterion.

Each test prints ``criterion N: PASS/FAIL (detail)`` before asserting, so a
``pytest -v -s tests/test_acceptance.py`` run yields the full scoreboard.
Criterion 4 holds each fixture to the residual rate its symbol implies: O(h^2)
for F1 and F2, whose half-density amplitude solves the first transport
equation exactly, and O(h) for an F3 root whose eigenvector turns with x.
Criterion 8 counts every lambda rung from one eigensolve per trajectory at a
truncation certified on a pilot trajectory, and asks for the decay that the
almost-sure envelope C(omega) + C~ lambda^{1/(2m)} sqrt(ln lambda) implies,
not strict monotonicity that one integer step breaks.
"""

import math
import time

import numpy as np
import pytest

from weylab import discretize, quasimode, symbol
from weylab.discretize import (FourierTruncation, OperatorMatrix,
                               assemble_operator, eigenvalues)
from weylab.domains import AnnularSector, Rectangle, dilate, weyl_measure
from weylab.harness import (ExperimentConfig, fit_power_law, run_highenergy,
                            run_semiclassical, write_report)
from weylab.randomness import (CoefficientLaw, SeedSpec, empirical_tail,
                               sample_draw)

TWO_PI = 2.0 * math.pi


def report(num, ok, detail=""):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)


def small_loop(x0, xi0, r=0.25, n=180):
    t = np.linspace(0.0, TWO_PI, n)
    return [(x0 + r * np.cos(s), xi0 + r * np.sin(s)) for s in t]


def period_box(x0=-1.0, c=2.5, per_edge=300):
    corners = [(x0, -c), (x0 + TWO_PI, -c), (x0 + TWO_PI, c), (x0, c),
               (x0, -c)]
    pts = []
    for (xa, ya), (xb, yb) in zip(corners, corners[1:]):
        for s in np.linspace(0.0, 1.0, per_edge, endpoint=False):
            pts.append((xa + s * (xb - xa), ya + s * (yb - ya)))
    pts.append(corners[0])
    return pts


def shifted(sym, z, h):
    K = int(math.ceil(2 * symbol.xi_window(sym, abs(z)) / h)) \
        + 2 * sym.max_bandwidth()
    t = FourierTruncation(K=K, n=sym.n, h=h)
    mat = assemble_operator(sym, t)
    return OperatorMatrix(mat.entries - z * np.eye(t.side), t)


def f1_symbolic_roots(z):
    """xi + e^{ix} = z: xi = Re z -/+ sqrt(1 - Im z^2), x = arg(z - xi)."""
    s = math.sqrt(1.0 - z.imag ** 2)
    out = []
    for xi in (z.real - s, z.real + s):
        out.append((float(np.angle(z - xi)) % TWO_PI, xi))
    return out


def f2_symbolic_roots(z):
    """xi^2 + i e^{ix} = z: xi^2 = Re z + sqrt(1 - Im z^2) (only positive
    branch in the test box), x = arg(-i (z - xi^2))."""
    s = math.sqrt(1.0 - z.imag ** 2)
    xi = math.sqrt(z.real + s)
    x = float(np.angle(-1j * (z - xi * xi))) % TWO_PI
    return [(x, -xi), (x, xi)]


def test_criterion_1_exact_fixtures(f1, f4):
    t0 = time.time()
    runs = []
    for _ in range(2):
        mat = assemble_operator(f1, FourierTruncation(K=2, n=1, h=0.1))
        runs.append(eigenvalues(mat))
    exact = np.array_equal(runs[0],
                           np.array([-0.2, -0.1, 0.0, 0.1, 0.2],
                                    dtype=complex))
    stable = runs[0].tobytes() == runs[1].tobytes()
    f4_vals = eigenvalues(assemble_operator(f4,
                                            FourierTruncation(K=6, n=1,
                                                              h=1.0)))
    nilpotent = bool(np.all(f4_vals == 0.0))
    dt = time.time() - t0
    ok = exact and stable and nilpotent and dt < 1.0
    report(1, ok, f"exact={exact} nilpotent={nilpotent} bit-stable={stable} "
           f"{dt:.2f}s")
    assert ok


def test_criterion_2_root_bracket_oracle(f1, f2):
    t0 = time.time()
    max_err = 0.0
    balanced = True
    for sym, oracle, re_box, im_box in (
            (f1, f1_symbolic_roots, (-0.4, 0.4), (-0.6, 0.6)),
            (f2, f2_symbolic_roots, (0.2, 0.7), (-0.5, 0.5))):
        for re in np.linspace(*re_box, 20):
            for im in np.linspace(*im_box, 20):
                z = complex(re, im)
                inv = symbol.find_roots(sym, z)
                balanced &= (inv.beta == inv.gamma) and not inv.degenerate
                found = sorted((r.point.x % TWO_PI, r.point.xi)
                               for r in inv.roots)
                for (fx, fxi), (sx, sxi) in zip(found, sorted(oracle(z))):
                    dx = abs(fx - sx)
                    dx = min(dx, TWO_PI - dx)
                    max_err = max(max_err, dx, abs(fxi - sxi))
    windings_ok = True
    for sym, zs in ((f1, (0.1 + 0.2j, -0.3 - 0.4j, 0.0j)),
                    (f2, (0.5 + 0.0j, 0.3 + 0.3j, 0.6 - 0.2j))):
        for z in zs:
            inv = symbol.find_roots(sym, z)
            total = sum(symbol.winding_number(
                sym, z, small_loop(r.point.x, r.point.xi, r=0.2))
                for r in inv.roots)
            boundary = symbol.winding_number(sym, z, period_box())
            windings_ok &= (total == 0 and boundary == 0)
    dt = time.time() - t0
    ok = max_err < 1e-8 and balanced and windings_ok and dt < 30.0
    report(2, ok, f"max root error {max_err:.2e}, beta=gamma {balanced}, "
           f"winding sums zero {windings_ok}, {dt:.1f}s")
    assert ok


def test_criterion_3_weyl_measure_oracle(f1, f4):
    t0 = time.time()
    val = weyl_measure(f1, Rectangle(-0.5, 0.5, -0.5, 0.5)).value
    square_ok = abs(val - TWO_PI / 3.0) / (TWO_PI / 3.0) < 5e-3
    base = AnnularSector(0.05, TWO_PI - 0.05, 1.0)
    ref = weyl_measure(f4, base).value
    homog_ok = True
    for lam in (2.0, 4.0, 8.0):
        scaled = weyl_measure(f4, dilate(base, lam)).value
        homog_ok &= abs(scaled - math.sqrt(lam) * ref) < 1e-2 * scaled
    dt = time.time() - t0
    ok = square_ok and homog_ok and dt < 60.0
    report(3, ok, f"square {val:.6f} vs {TWO_PI / 3.0:.6f}, "
           f"homogeneity {homog_ok}, {dt:.1f}s")
    assert ok


def residual_slope(sym, z, root, inv, hs):
    pairs = []
    for h in hs:
        mat = shifted(sym, z, h)
        q = quasimode.build_quasimode(sym, z, root, h,
                                      8 * (2 * mat.trunc.K + 1),
                                      inventory=inv)
        pairs.append((h, quasimode.residual(mat, q)))
    return fit_power_law(pairs)[0]


def test_criterion_4_quasimode_decay(f1, f2, f3):
    # F1 and F2 have x-independent coefficients at every order >= 1 in xi, so
    # the half-density amplitude solves the first transport equation exactly
    # and the residual is O(h^2): h^2 D^2 a0 for F2, the cutoff alone for F1.
    # An amplitude without the half-density factor is O(h) (F2 slope 1.23).
    # The F3 plus-root at (x, xi) = (0, 1) lies on the branch xi - e^{ix},
    # whose eigenvector (1, -2e^{ix}) turns with x, so there the
    # leading-order mode is only first order.
    t0 = time.time()
    hs = (0.1, 0.07, 0.05, 0.035, 0.025)
    slopes = {}
    for name, sym, z in (("F1", f1, 0.0), ("F2", f2, 0.5)):
        inv = symbol.find_roots(sym, z)
        root = [r for r in inv.roots if r.sign == "plus"][0]
        slopes[name] = residual_slope(sym, z, root, inv, hs)
    inv = symbol.find_roots(f3, 0.0)
    at_base = [r for r in inv.roots if r.sign == "plus"
               and min(r.point.x % TWO_PI, -r.point.x % TWO_PI) < 1e-6
               and abs(r.point.xi - 1.0) < 1e-6]
    assert len(at_base) == 1
    slopes["F3"] = residual_slope(f3, 0.0, at_base[0], inv, hs)
    dt = time.time() - t0
    ok = (slopes["F1"] >= 1.9 and slopes["F2"] >= 1.9
          and 0.9 <= slopes["F3"] <= 1.3 and dt < 120.0)
    report(4, ok, "slopes " + ", ".join(f"{k}={v:.2f}"
                                        for k, v in slopes.items())
           + f" vs F1, F2 >= 1.9 and F3 in [0.9, 1.3], {dt:.1f}s")
    assert ok


def test_criterion_5_variance_law(f2):
    t0 = time.time()
    law = CoefficientLaw(alpha_min=0, alpha_max=0, n=1, rho_decay=1.2,
                         K_q=256)
    z = 0.5
    inv = symbol.find_roots(f2, z)
    proot = [r for r in inv.roots if r.sign == "plus"][0]
    mroot = [r for r in inv.roots if r.sign == "minus"][0]
    pairs = []
    modes = {}
    for h in (0.1, 0.07, 0.05, 0.035, 0.025):
        ep = quasimode.build_quasimode(f2, z, proot, h, 4096, inventory=inv)
        em = quasimode.build_adjoint_quasimode(f2, z, mroot, h, 4096)
        modes[h] = (ep, em)
        pairs.append((h, quasimode.overlap_variance(law, ep, em, h)))
    slope = fit_power_law(pairs)[0]
    slope_ok = abs(slope - 1.9) <= 0.2

    ep, em = modes[0.05]
    prof = quasimode.overlap_profile(0, 0, 0, ep, em, 0.05)
    ks = np.arange(-law.K_q, law.K_q + 1)
    samples = np.empty(1000, dtype=complex)
    for t in range(1000):
        d = sample_draw(law, SeedSpec(123, "var", t), 0.05)
        qs = np.array([d.coeffs[(0, 0, 0, int(k))] for k in ks])
        samples[t] = np.sum(qs * prof[ks % len(prof)])
    ratio = float(np.mean(np.abs(samples) ** 2)) \
        / quasimode.overlap_variance(law, ep, em, 0.05)
    ratio_ok = abs(ratio - 1.0) < 0.1
    dt = time.time() - t0
    ok = slope_ok and ratio_ok and dt < 300.0
    report(5, ok, f"slope {slope:.3f} vs 1.9 +/- 0.2, sampled/deterministic "
           f"{ratio:.3f}, {dt:.1f}s")
    assert ok


def test_criterion_6_tail_bounds():
    t0 = time.time()
    law = CoefficientLaw(alpha_min=0, alpha_max=0, n=1, rho_decay=1.5,
                         K_q=32)
    thresholds = (4.0, 5.0, 6.0, 7.0, 9.0)
    fit = empirical_tail(law, seed=17, trials=1000, thresholds=thresholds)
    fresh = empirical_tail(law, seed=18, trials=1000, thresholds=thresholds)
    l1, linf = fit.sigma_l1, fit.sigma_linf
    worst = -1.0
    ok = True
    for x, frac in zip(thresholds, fresh.fractions):
        bound = min(1.0, math.exp(fit.c0 * l1 / (2 * linf)
                                  - x * x / (2 * linf * l1)))
        se = math.sqrt(max(frac * (1 - frac), 1e-3) / 1000)
        ok &= frac <= bound + 3 * se
        worst = max(worst, frac - bound)
    dt = time.time() - t0
    ok = ok and dt < 60.0
    report(6, ok, f"worst excess over bound {worst:.4f}, C0 {fit.c0:.3f}, "
           f"{dt:.1f}s")
    assert ok


def test_criterion_7_semiclassical_weyl_law(f2):
    t0 = time.time()
    law = CoefficientLaw(alpha_min=0, alpha_max=0, n=1, rho_decay=1.2,
                         K_q=128)
    dom = Rectangle(0.1, 0.7, -0.5, 0.5)
    cfg = ExperimentConfig(sym=f2, law=law, domains=[dom],
                           mode="semiclassical", h_list=(0.1, 0.07, 0.05),
                           trials=200, seed=42)
    rep = run_semiclassical(cfg)
    ratio = rep.aggregates[0.05]["mean_ratio"]
    ratio_ok = 0.85 <= ratio <= 1.15
    cov_ok = all(v >= 0.9 for h, v in rep.coverage.items() if h < 0.1)

    ctrl = ExperimentConfig(sym=f2, law=law, domains=[dom],
                            mode="semiclassical", h_list=(0.05,), trials=1,
                            seed=42, delta_override=0.0)
    ctrl_ratio = run_semiclassical(ctrl).aggregates[0.05]["mean_ratio"]
    ctrl_ok = not (0.85 <= ctrl_ratio <= 1.15)
    dt = time.time() - t0
    ok = ratio_ok and cov_ok and ctrl_ok and dt < 900.0
    report(7, ok, f"mean N/W {ratio:.3f} at h=0.05, coverage "
           f"{ {h: round(v, 2) for h, v in rep.coverage.items()} }, "
           f"control {ctrl_ratio:.2f}, {dt:.0f}s")
    assert ok


def test_criterion_8_highenergy_weyl_law(f4):
    # Every rung is counted from one spectrum per trajectory, at a truncation
    # certified on a pilot trajectory; all four rungs must be certified.  The
    # almost-sure law bounds |N - W| by C(omega) + C~ lambda^{1/(2m)}
    # sqrt(ln lambda), so the relative residual decays along a trajectory up
    # to O(1) integer steps: its largest value over lambda in {64, 256} must
    # fall strictly below its largest over {4, 16}.
    t0 = time.time()
    law = CoefficientLaw(alpha_min=0, alpha_max=0, n=1, rho_decay=1.1,
                         K_q=32)
    cfg = ExperimentConfig(
        sym=f4, law=law,
        domains=[AnnularSector(0.05, TWO_PI - 0.05, 1.0)],
        mode="highenergy", lambda_list=(4.0, 16.0, 64.0, 256.0),
        trials=10, seed=1)
    rep = run_highenergy(cfg)
    certified = rep.extras["truncation"]["certified"]
    certified_ok = len(certified) == 4 and all(certified.values())
    decayed = 0
    rel_final = []
    for t in range(cfg.trials):
        rel = {r.param: abs(r.residual) / r.W
               for r in rep.records if r.trial == t}
        decayed += max(rel[64.0], rel[256.0]) < max(rel[4.0], rel[16.0])
        rel_final.append(rel[256.0])
    decay_ok = decayed >= 8
    final_ok = max(rel_final) < 0.2
    rescale_ok = all(rep.extras["rescaling_identity"].values())
    dt = time.time() - t0
    ok = certified_ok and decay_ok and final_ok and rescale_ok and dt < 1200.0
    report(8, ok, f"K={rep.extras['truncation']['K']} certified "
           f"{certified_ok}, decayed {decayed}/10 (need >= 8), max rel "
           f"residual at lambda=256 {max(rel_final):.3f}, rescaling "
           f"identity {rescale_ok}, {dt:.1f}s")
    assert ok


def test_criterion_9_reproducibility(f2, tmp_path):
    t0 = time.time()
    law = CoefficientLaw(alpha_min=0, alpha_max=0, n=1, rho_decay=1.2,
                         K_q=16)
    blobs = []
    for sub in ("a", "b"):
        cfg = ExperimentConfig(sym=f2, law=law,
                               domains=[Rectangle(0.1, 0.7, -0.5, 0.5)],
                               mode="semiclassical", h_list=(0.1,), trials=3,
                               seed=9)
        write_report(run_semiclassical(cfg), tmp_path / sub)
        blobs.append((tmp_path / sub / "trials.csv").read_bytes())
    bytes_ok = blobs[0] == blobs[1]
    # addressability: one coefficient equals its value in a fresh draw
    spec = SeedSpec(9, "addr", 0)
    a = sample_draw(law, spec, 0.1).coeffs[(0, 0, 0, 5)]
    b = sample_draw(law, spec, 0.1).coeffs[(0, 0, 0, 5)]
    addr_ok = a == b
    dt = time.time() - t0
    ok = bytes_ok and addr_ok and dt < 60.0
    report(9, ok, f"trials.csv byte-identical {bytes_ok}, addressable "
           f"coefficients {addr_ok}, {dt:.1f}s")
    assert ok
