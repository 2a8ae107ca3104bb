import functools
import json
import math
import multiprocessing
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from weylab import discretize, domains, harness, symbol
from weylab.domains import AnnularSector, Rectangle, dilate
from weylab.errors import (EmptyWindow, HypothesisViolation, NonConvergence,
                           WindowViolation)
from weylab.harness import (ExperimentConfig, default_delta, delta_window,
                            fit_power_law, load_config, run_highenergy,
                            run_semiclassical, write_report)
from weylab.randomness import CoefficientLaw, SeedSpec, sample_draw

from helpers import (fail_at_trial, fail_in_helper, log_trial_solves,
                     plant_eigenvalue, trial_solves)


def sc_law(rho=1.2, K_q=16):
    return CoefficientLaw(alpha_min=0, alpha_max=0, n=1, rho_decay=rho,
                          K_q=K_q)


def sc_config(f2, **kw):
    defaults = dict(
        sym=f2, law=sc_law(), domains=[Rectangle(0.1, 0.7, -0.5, 0.5)],
        mode="semiclassical", h_list=(0.1,), trials=2, seed=3)
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def he_config(f4, **kw):
    defaults = dict(
        sym=f4, law=CoefficientLaw(alpha_min=0, alpha_max=0, n=1,
                                   rho_decay=1.1, K_q=16),
        domains=[AnnularSector(0.05, 2 * math.pi - 0.05, 1.0)],
        mode="highenergy", lambda_list=(2.0, 4.0), trials=2, seed=5)
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class TestDeltaWindow:
    def test_window_shape(self):
        lo, hi = delta_window(0.1, 1.2, 0.25, 3.0)
        assert lo == pytest.approx(1e-3)
        assert hi == pytest.approx(0.1 ** 1.95 / math.log(10.0) ** 2)
        assert lo < hi

    def test_default_delta_is_geometric_midpoint(self):
        lo, hi = delta_window(0.1, 1.2, 0.25, 3.0)
        assert default_delta(0.1, 1.2, 0.25, 3.0) == pytest.approx(
            math.sqrt(lo * hi))

    def test_empty_window(self):
        # N0 barely above the upper exponent and a tiny h: the log factor
        # pushes the upper endpoint below the lower one
        with pytest.raises(EmptyWindow):
            delta_window(1e-6, 1.2, 0.25, 1.96)

    def test_n0_must_clear_upper_exponent(self):
        with pytest.raises(ValueError):
            delta_window(0.1, 1.2, 0.25, 1.5)


def refused(monkeypatch, cfg, exc, match):
    """cfg, which constructs, makes its run raise exc before anything is
    assembled or solved."""
    def work(*args):
        raise AssertionError("assembled or solved before the refusal")
    with monkeypatch.context() as mp:
        for name in ("assemble_operator", "assemble_perturbation",
                     "eigenvalues"):
            mp.setattr(discretize, name, work)
        with pytest.raises(exc, match=match):
            (run_semiclassical if cfg.mode == "semiclassical"
             else run_highenergy)(cfg)


class TestConfigValidation:
    def test_f2_semiclassical_accepted(self, f2):
        cfg = sc_config(f2)
        assert cfg.mode == "semiclassical"
        gamma, rules = cfg.admit()
        assert gamma is cfg.domains[0]
        assert rules == {0.1: (cfg.truncation_K(0.1, gamma.bound_radius()),
                               default_delta(0.1, 1.2, 0.25, 3.0))}

    def test_highenergy_rules_in_increasing_lambda(self, f4):
        cfg = he_config(f4, lambda_list=(8.0, 2.0, 4.0))
        sector, rules = cfg.admit()
        assert sector is cfg.domains[0]
        assert rules == {lam: (cfg.truncation_K(1.0, dilate(
            sector, lam).bound_radius()), 1.0) for lam in (2.0, 4.0, 8.0)}
        assert list(rules) == [2.0, 4.0, 8.0]

    def test_f1_rejected_separate_bases(self, f1, monkeypatch):
        # the two roots of F1 live at different base points, violating the
        # shared-base requirement of the semiclassical construction
        refused(monkeypatch, sc_config(
            f1, sym=f1, domains=[Rectangle(-0.2, 0.2, -0.4, 0.4)]),
            HypothesisViolation, "does not pair")

    def test_domain_outside_sigma_rejected(self, f2, monkeypatch):
        refused(monkeypatch, sc_config(
            f2, domains=[Rectangle(4.0, 5.0, 4.0, 5.0)]),
            HypothesisViolation, "no phase-space roots")

    def test_perturbation_order_capped(self, f2, monkeypatch):
        refused(monkeypatch, sc_config(f2, law=CoefficientLaw(
            alpha_min=0, alpha_max=2, n=1, rho_decay=1.2)),
            HypothesisViolation, "alpha_max=2")

    def test_highenergy_window_violation(self, f4, monkeypatch):
        # m - alpha1 - rho - 3/4 <= 0
        refused(monkeypatch, he_config(f4, law=CoefficientLaw(
            alpha_min=0, alpha_max=1, n=1, rho_decay=1.1)),
            WindowViolation, "must be positive")

    def test_highenergy_needs_sector(self, f4):
        with pytest.raises(ValueError):
            he_config(f4, domains=[Rectangle(0.0, 1.0, 0.0, 1.0)])

    # these passed admit, and run_highenergy refused them after it
    @pytest.mark.parametrize("sector, message", [
        (AnnularSector(0.05, 2 * math.pi - 0.05, 1.0, 0.5),
         "dyadic decomposition needs a sector reaching r = 0"),
        (AnnularSector(0.05, 2 * math.pi - 0.05, 2.0),
         "normalize the sector so r_out = 1 first")],
        ids=["r_in", "r_out"])
    def test_admit_refuses_sector_off_the_unit_origin(self, f4, monkeypatch,
                                                      sector, message):
        def work(*args):
            raise AssertionError("assembled or solved before the refusal")
        for name in ("assemble_operator", "assemble_perturbation",
                     "eigenvalues"):
            monkeypatch.setattr(discretize, name, work)
        with pytest.raises(ValueError, match=message):
            he_config(f4, domains=[sector]).admit()

    def test_memory_refusal_counts_each_spectrum_once(self, f2, f4,
                                                      monkeypatch):
        # a high-energy trajectory's rungs share one spectrum, so ten
        # trajectories of six rungs fit where ten spectra do; a semiclassical
        # trial holds one spectrum per h, and its admission assembles the
        # rule's matrix at each h for the rounding floor, so its memory
        # holds ten spectra and the largest of those matrices, of side
        # 2 sc_K + 1: that many spectra more
        sc = sc_config(f2, h_list=(0.1, 0.08))
        sc_K = sc.truncation_K(0.08, sc.domains[0].bound_radius())
        for make, spectrum, room, per_trial in (
                (functools.partial(he_config, f4, lambda_list=(
                    2.0, 4.0, 8.0, 16.0, 32.0, 64.0)),
                 (2 * harness.HE_K_CAP + 1) * 16, 10, 1),
                (functools.partial(sc_config, f2, h_list=(0.1, 0.08)),
                 (2 * sc_K + 1) * 16, 10 + 2 * sc_K + 1, 2)):
            have = {"SC_PHYS_PAGES": room * spectrum, "SC_PAGE_SIZE": 1}
            monkeypatch.setattr(os, "sysconf", have.__getitem__)
            make(trials=room // per_trial).admit()
            refused(monkeypatch, make(trials=room // per_trial + 1),
                    ValueError, "GiB of physical memory")

    def test_truncation_rule(self, f2):
        cfg = sc_config(f2)
        from weylab.symbol import xi_window
        K = cfg.truncation_K(0.1, 1.0)
        assert K == int(math.ceil(2.0 * xi_window(f2, 1.0) / 0.1)) + 2


class TestFit:
    def test_exact_power_law(self):
        pairs = [(s, 3.0 * s ** -0.5) for s in (1.0, 2.0, 4.0, 8.0)]
        slope, intercept, r2 = fit_power_law(pairs)
        assert slope == pytest.approx(-0.5)
        assert math.exp(intercept) == pytest.approx(3.0)
        assert r2 == pytest.approx(1.0)

    def test_degenerate(self):
        with pytest.raises(ValueError, match="all abscissae equal"):
            fit_power_law([(1.0, 1.0), (1.0, 2.0), (1.0, 3.0)])


class TestSemiclassicalRun:
    def test_small_run(self, f2, f2_gamma_measure):
        cfg = sc_config(f2, h_list=(0.1, 0.08), trials=3)
        rep = run_semiclassical(cfg)
        assert rep.mode == "semiclassical"
        assert len(rep.records) == 6
        bound = rep.extras["weyl_measure_bound"]
        assert isinstance(bound, float) and bound > 0.0
        for h in (0.1, 0.08):
            agg = rep.aggregates[h]
            assert agg["trials"] == 3
            assert agg["W"] == pytest.approx(
                rep.extras["weyl_measure"] / (2 * math.pi * h))
            # W +- bound / (2 pi h) holds the closed form
            assert abs(agg["W"] - f2_gamma_measure / (2 * math.pi * h)) \
                <= bound / (2 * math.pi * h)
        # finest-h coverage entry exists relative to the coarsest h
        assert 0.08 in rep.coverage

    def test_delta_floor_guard(self, f2, monkeypatch):
        # every h's floor is checked before the first solve: at delta =
        # 8e-12 the floor is 7.04e-12 at h = 0.05 and 8.83e-12 at h = 0.3,
        # which raised after h = 0.05's 33 solves
        solves = []
        monkeypatch.setattr(harness.discretize, "eigenvalues",
                            lambda mat: solves.append(mat))
        for h_list, delta in (((0.1,), 1e-18), ((0.05, 0.3), 8e-12)):
            cfg = sc_config(f2, h_list=h_list, delta_override=delta)
            # admission alone refuses it, and the run refuses it there
            for admit_or_run in (cfg.admit, functools.partial(
                    run_semiclassical, cfg)):
                with pytest.raises(EmptyWindow,
                                   match=f"at h = {h_list[-1]};"):
                    admit_or_run()
        assert solves == []

    def test_runs_read_admitted_rules(self, f2, f4, monkeypatch):
        # each Monte-Carlo run works on the rule's K and the coupling that
        # admit hands it, and works out neither again: altered, they reach
        # the report
        admit = ExperimentConfig.admit

        def altered(config):
            dom, rules = admit(config)
            return dom, {p: (K + 5, delta * 2) for p, (K, delta)
                         in rules.items()}
        sc, he = sc_config(f2, h_list=(0.1, 0.08)), he_config(f4)
        (_, sc_rules), (_, he_rules) = sc.admit(), he.admit()
        monkeypatch.setattr(ExperimentConfig, "admit", altered)
        # every solve in this process, with the coupling it perturbs by
        monkeypatch.setattr(harness, "WORKERS", 1)
        perturb, couplings = harness.discretize.perturbed_operator, set()
        monkeypatch.setattr(
            harness.discretize, "perturbed_operator",
            lambda mat, d, delta: couplings.add((mat.trunc.h, delta))
            or perturb(mat, d, delta))
        rep = run_semiclassical(sc)
        assert couplings == {(h, 2 * delta)
                             for h, (_, delta) in sc_rules.items()}
        for h, (K_rule, delta) in sc_rules.items():
            assert rep.extras["delta"][h] == 2 * delta
            assert rep.extras["truncation"][h]["K_rule"] == K_rule + 5
            assert all(r.K <= K_rule + 5 for r in rep.records
                       if r.param == h)
        rep = run_highenergy(he)
        assert rep.extras["truncation"]["K_start"] == he_rules[2.0][0] + 5
        assert rep.extras["truncation"]["K_tried"][0] == he_rules[2.0][0] + 5

    def test_trial_reuse_of_stream_labels(self, f2):
        cfg = sc_config(f2, trials=2)
        rep = run_semiclassical(cfg)
        labels = {r.seed_label for r in rep.records}
        assert labels == {"3/sc:0.1/0", "3/sc:0.1/1"}

    def test_quarter_boxes_sum_to_gamma(self, f2, monkeypatch):
        # Gamma's four quarter boxes, with their W, counted from the run's
        # spectra by the one count function, the driver unchanged; each box
        # holds an eigenvalue in some trial
        cfg = sc_config(f2, h_list=(0.1, 0.08), trials=4)
        quarters = [Rectangle(re0, re1, im0, im1)
                    for re0, re1 in ((0.1, 0.4), (0.4, 0.7))
                    for im0, im1 in ((-0.5, 0.0), (0.0, 0.5))]
        weyls = [domains.weyl_measure(f2, q) for q in quarters]
        count = harness.count_records
        streams = []

        def spy(config, stream, trials, rungs):
            streams.append((stream, trials, rungs))
            return count(config, stream, trials, rungs)
        monkeypatch.setattr(harness, "count_records", spy)
        rep = run_semiclassical(cfg)
        assert [s for s, _, _ in streams] == ["sc:0.1", "sc:0.08"]
        held = set()
        for stream, trials, [(h, gamma, W)] in streams:
            assert gamma is cfg.domains[0]
            boxes = count(cfg, stream, trials, [
                (h, q, w.value / (2 * math.pi * h))
                for q, w in zip(quarters, weyls)])
            assert len(boxes) == 4 * cfg.trials
            # W's quadrature error and the boxes' bound their sum's
            assert abs(sum(b.W for b in boxes[:4]) - W) <= (
                rep.extras["weyl_measure_bound"]
                + sum(w.bound for w in weyls)) / (2 * math.pi * h)
            for r in (r for r in rep.records if r.param == h):
                parts = [b for b in boxes if b.trial == r.trial]
                assert [b.W for b in parts] == [b.W for b in boxes[:4]]
                assert sum(b.N for b in parts) == r.N
                assert all(b.K == r.K and b.eigenvalues is r.eigenvalues
                           for b in parts)
                held.update(i for i, b in enumerate(parts) if b.N)
        assert held == {0, 1, 2, 3}


@pytest.fixture(scope="module")
def sc_two_h(f2):
    # criterion 7's law, 12 trials at two h: 8 pilots, and 4 trials solved
    # at K_count and maybe again at K; sample_draw is counted, in one
    # process
    cfg = sc_config(f2, law=sc_law(K_q=128), h_list=(0.1, 0.07), trials=12)
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "WORKERS", 1)
        draw = harness.randomness.sample_draw
        mp.setattr(harness.randomness, "sample_draw",
                   lambda *a: calls.append(a) or draw(*a))
        rep = run_semiclassical(cfg)
    return cfg, rep, len(calls)


def resolve(cfg, h, trial, K, delta):
    """Spectrum of trial's P - delta Q_omega solved afresh at truncation K."""
    draw = sample_draw(cfg.law, SeedSpec(cfg.seed, f"sc:{h!r}", trial), h)
    base = discretize.assemble_operator(
        cfg.sym, discretize.FourierTruncation(K=K, n=1, h=h))
    return discretize.eigenvalues(
        discretize.perturbed_operator(base, draw, delta))


class TestSemiclassicalTruncation:
    def test_truncation_record(self, sc_two_h, tmp_path):
        cfg, rep, draws = sc_two_h
        # a trial is drawn for each solve: the pilots at every K tried
        trunc = rep.extras["truncation"]
        assert draws == sum(
            harness.SC_PILOTS * len(trunc[h]["K_tried"])
            + cfg.trials - harness.SC_PILOTS + len(trunc[h]["resolved"])
            for h in cfg.h_list)
        write_report(rep, tmp_path)
        summary = json.loads((tmp_path / "summary.json").read_text())
        trunc = summary["extras"]["truncation"]
        assert set(trunc) == {repr(h) for h in cfg.h_list}
        for h in cfg.h_list:
            t = trunc[repr(h)]
            assert t == rep.extras["truncation"][h]
            assert set(t) == {"K", "K_rule", "K_tried", "pilot_trials",
                              "settle_tol", "certified", "settled_by",
                              "pilot_millis", "K_count", "mu", "match_band",
                              "flag_scale", "flag_cap", "resolved"}
            # every pilot draw and solve at every K tried is timed in
            # pilot_millis, the wall time of the ladder
            pilots = [r for r in rep.records
                      if r.param == h and r.trial < harness.SC_PILOTS]
            assert t["pilot_millis"] > sum(
                r.stage_ms["draw"] + r.stage_ms["assemble"]
                + r.stage_ms["eigensolve"] for r in pilots)
            assert t["certified"] is True
            assert t["settled_by"] == "counts"
            assert t["pilot_trials"] == harness.SC_PILOTS
            assert t["settle_tol"] == harness.SC_SETTLE_TOL
            assert t["K_rule"] == cfg.truncation_K(
                h, cfg.domains[0].bound_radius())
            assert t["K"] < t["K_rule"]
            tried = t["K_tried"]
            assert all(a < b for a, b in zip(tried, tried[1:]))
            # the pilots' counts stop the ladder at K_count's partner, K;
            # the other trials are counted at K_count unless re-solved at K
            assert (t["match_band"], t["flag_scale"], t["flag_cap"]) == (
                harness.SC_MATCH_BAND, harness.SC_FLAG_SCALE,
                harness.SC_FLAG_CAP)
            assert t["K_count"] in tried
            assert tried[-1] == t["K"] == math.ceil(1.5 * t["K_count"])
            assert 0.0 < t["flag_scale"] * t["mu"] <= t["flag_cap"]
            assert set(t["resolved"]) <= set(range(len(pilots), cfg.trials))
            assert [r.K for r in rep.records if r.param == h] == [
                t["K"] if r.trial < len(pilots) or r.trial in t["resolved"]
                else t["K_count"] for r in rep.records if r.param == h]

    def test_pilots_settle_first_at_K(self, sc_two_h):
        # the pilots first settle at K_count, by their counts: their
        # eigenvalues near Gamma match one to one at K_count and its partner
        # K, moving by mu, though their positions in Gamma do not settle
        # there; at the candidate tried before K_count neither rule holds
        cfg, rep, _ = sc_two_h
        gamma = cfg.domains[0]
        tol = harness.SC_SETTLE_TOL * gamma.bound_radius()

        def inside(eigs):
            return eigs[gamma.contains_many(eigs)]

        def settled(coarse, fine):
            for a, b in zip(map(inside, coarse), map(inside, fine)):
                if len(a) != len(b):
                    return False
                if len(a) == 0:
                    continue
                d = np.abs(a[:, None] - b[None, :])
                if d.min(axis=1).max() > tol or d.min(axis=0).max() > tol:
                    return False
            return True

        for h in cfg.h_list:
            t = rep.extras["truncation"][h]
            delta = rep.extras["delta"][h]

            def pilots(K):
                return [resolve(cfg, h, trial, K, delta)
                        for trial in range(harness.SC_PILOTS)]
            tried = t["K_tried"]
            before = tried[tried.index(t["K_count"]) - 1]
            at, partner = pilots(t["K_count"]), pilots(t["K"])
            assert not settled(at, partner)
            assert harness.count_truncation(at, partner, gamma) == t["mu"]
            at, partner = pilots(before), pilots(math.ceil(1.5 * before))
            assert not settled(at, partner)
            assert harness.count_truncation(at, partner, gamma) is None

    def test_counts_equal_counts_at_rule_K(self, sc_two_h):
        cfg, rep, _ = sc_two_h
        gamma = cfg.domains[0]
        for r in rep.records:
            t = rep.extras["truncation"][r.param]
            eigs = resolve(cfg, r.param, r.trial, t["K_rule"],
                           rep.extras["delta"][r.param])
            assert np.count_nonzero(gamma.contains_many(eigs)) == r.N

    def test_pilot_spectra_equal_fresh_solve(self, sc_two_h):
        # pilots (trials 0..7) keep their spectra from certification; they
        # and the other trials match a fresh solve at K bit for bit
        cfg, rep, _ = sc_two_h
        for r in rep.records:
            eigs = resolve(cfg, r.param, r.trial, r.K,
                           rep.extras["delta"][r.param])
            assert eigs.tobytes() == r.eigenvalues.tobytes()

    def test_trial_near_boundary_resolved_at_K(self, sc_two_h, f2,
                                                monkeypatch):
        # an eigenvalue planted in a non-pilot trial's spectrum at K_count,
        # half the flag radius inside Gamma's left edge, has that trial
        # solved again at K and counted there, with both solves' times
        cfg, rep, _ = sc_two_h
        h, trial = 0.1, harness.SC_PILOTS + 1
        t = rep.extras["truncation"][h]
        delta = rep.extras["delta"][h]
        gamma = cfg.domains[0]
        assert trial not in t["resolved"] and t["K_count"] < t["K"]
        plant_eigenvalue(monkeypatch, trial, t["K_count"], gamma.re_min + 0.5
                         * t["flag_scale"] * t["mu"] * gamma.bound_radius())
        times, solve = {}, harness._solve

        def timed(*args):
            rows, (K, trials) = solve(*args), args[4:]
            times.update((K, row[1:]) for t, row in zip(trials, rows)
                         if t == trial)
            return rows
        monkeypatch.setattr(harness, "_solve", timed)
        monkeypatch.setattr(harness, "WORKERS", 1)
        again = run_semiclassical(sc_config(f2, law=cfg.law, h_list=(h,),
                                            trials=cfg.trials))
        t_again = again.extras["truncation"][h]
        assert (t_again["K_count"], t_again["mu"]) == (t["K_count"], t["mu"])
        assert t_again["resolved"] == sorted(t["resolved"] + [trial])
        before = [r for r in rep.records if r.param == h]
        for old, new in zip(before, again.records):
            if new.trial != trial:
                assert (new.N, new.K, new.eigenvalues.tobytes()) == (
                    old.N, old.K, old.eigenvalues.tobytes())
                continue
            eigs = resolve(cfg, h, trial, t["K"], delta)
            assert new.K == t["K"]
            assert new.eigenvalues.tobytes() == eigs.tobytes()
            assert new.N == np.count_nonzero(gamma.contains_many(eigs))
            assert [new.stage_ms[s] for s in ("draw", "assemble",
                                              "eigensolve")] == [
                a + b for a, b in zip(times[t["K_count"]], times[t["K"]])]

    def test_unsettled_pilots_fall_back_to_rule_K(self, f2, monkeypatch):
        # neither rule holds: zero tolerances for positions and for counts
        monkeypatch.setattr(harness, "SC_SETTLE_TOL", 0.0)
        monkeypatch.setattr(harness, "SC_FLAG_CAP", 0.0)
        cfg = sc_config(f2, trials=3)
        rep = run_semiclassical(cfg)
        t = rep.extras["truncation"][0.1]
        assert t["certified"] is False and t["settled_by"] is None
        assert (t["K_count"], t["mu"], t["resolved"]) == (t["K"], None, [])
        assert t["settle_tol"] == 0.0
        assert t["pilot_trials"] == 3
        assert t["K"] == t["K_rule"]
        assert t["K_tried"][-1] <= t["K_rule"] < math.ceil(
            1.5 * t["K_tried"][-1])
        assert all(r.K == t["K_rule"] for r in rep.records)

    def test_counts_stop_or_fall_back(self, f2):
        # K_q = 16 at seed 3: at h = 0.07 the pilots' positions never settle
        # below the rule's K, but their counts settle at 23 against 35, so
        # the ladder stops there after 6 K and trial 10, near Gamma's
        # boundary at 23, is counted at 35; at h = 0.05 neither rule holds
        # and every trial runs at the rule's K.  Every N is the count at the
        # rule's K.
        cfg = sc_config(f2, h_list=(0.07, 0.05), trials=11)
        rep = run_semiclassical(cfg)
        t = rep.extras["truncation"][0.07]
        assert (t["certified"], t["settled_by"]) == (True, "counts")
        assert t["K_tried"] == [12, 15, 18, 23, 27, 35]
        assert (t["K_count"], t["K"]) == (23, 35)
        assert 10 in t["resolved"]
        t = rep.extras["truncation"][0.05]
        assert (t["certified"], t["settled_by"]) == (False, None)
        assert len(t["K_tried"]) == 10
        assert t["K"] == t["K_count"] == t["K_rule"]
        assert (t["mu"], t["resolved"]) == (None, [])
        assert {r.K for r in rep.records if r.param == 0.05} == {t["K_rule"]}
        gamma = cfg.domains[0]
        K_rule = rep.extras["truncation"][0.07]["K_rule"]
        for r in rep.records:
            if r.param == 0.07:
                eigs = resolve(cfg, 0.07, r.trial, K_rule,
                               rep.extras["delta"][0.07])
                assert np.count_nonzero(gamma.contains_many(eigs)) == r.N


def run_ladder(monkeypatch, K0, cap, growth=harness.SC_GROWTH,
               chains=harness.SC_CHAINS, settle_at=math.inf,
               count_at=math.inf, counts=False, fallback=None):
    """certify_truncation on one synthetic pilot, no eigensolve: its one
    eigenvalue in Gamma moves by 0.1 / K below ``count_at``, by 1e-3 / K
    from there on, and stays put from ``settle_at`` on; with ``counts`` the
    count rule is asked too, and ``fallback`` is passed on.  Returns (the
    result, (K, checking) of every solve, (K, K') of every compared pair)."""
    solves, compared, K_of = [], [], {}
    movement = harness._movement
    gamma = Rectangle(0.1, 0.7, -0.5, 0.5)

    def solve(K, checking):
        solves.append((K, checking))
        drift = 0.0 if K >= settle_at else 1e-3 if K >= count_at else 0.1
        eigs = np.array([0.4 + 0.1j + drift / K])
        K_of[id(eigs)] = K
        return [eigs]

    def compare(coarse, fine, near):
        compared.append((K_of[id(coarse)], K_of[id(fine)]))
        return movement(coarse, fine, near)
    monkeypatch.setattr(harness, "_movement", compare)
    result = harness.certify_truncation(
        solve, [gamma], K0, growth, harness.SC_SETTLE_TOL, cap, chains,
        counts, fallback)
    return result, solves, compared


class TestCandidateLadder:
    def test_semiclassical_candidates(self, monkeypatch):
        (K, K_count, verdicts, tried, mu), solves, compared = run_ladder(
            monkeypatch, 16, 200, settle_at=45)
        assert tried == (16, 20, 24, 30, 36, 45, 54, 68)
        assert (K, K_count, verdicts, mu) == (45, 45, [True], None)
        # each candidate is compared with its own ceil(1.5 c), never with
        # the next candidate; every K is solved once, in increasing order
        assert compared == [(c, math.ceil(1.5 * c))
                            for c in (16, 20, 24, 30, 36, 45)]
        assert [k for k, _ in solves] == list(tried)
        # each solve names the candidate whose verdict waits on it
        assert [c for _, c in solves] == [16, 16, 16, 20, 24, 30, 36, 45]
        # a verdict reads every K solved
        assert set(tried) == {k for pair in compared for k in pair}

    def test_counts_stop_before_positions(self, monkeypatch):
        # from K = 24 the eigenvalue moves by 1e-3 / K: below the count
        # rule's cap from candidate 24 against 36 on, but above the
        # positions' tolerance until 45 against 68.  The count rule stops
        # the ladder at 36, where positions alone climb to 68.
        (K, K_count, verdicts, tried, mu), solves, compared = run_ladder(
            monkeypatch, 16, 200, count_at=24, counts=True)
        assert (K, K_count, verdicts) == (36, 24, [True])
        assert tried == (16, 20, 24, 30, 36)
        # mu / R: the eigenvalue moved by 1e-3 / 24 - 1e-3 / 36
        R = Rectangle(0.1, 0.7, -0.5, 0.5).bound_radius()
        assert mu == pytest.approx((1e-3 / 24 - 1e-3 / 36) / R)
        assert [c for _, c in solves] == [16, 16, 16, 20, 24]
        # each candidate is asked the positions, then the counts
        assert compared == [pair for c in (16, 20, 24)
                            for pair in [(c, math.ceil(1.5 * c))] * 2]
        monkeypatch.undo()
        (K, K_count, verdicts, tried, mu), *_ = run_ladder(
            monkeypatch, 16, 200, count_at=24)
        assert (K, K_count, verdicts, tried[-1], mu) == (
            45, 45, [True], 68, None)

    def test_highenergy_chain_unchanged(self, monkeypatch):
        (K, K_count, verdicts, tried, _), solves, compared = run_ladder(
            monkeypatch, 10, harness.HE_K_CAP, harness.HE_GROWTH,
            harness.HE_CHAINS)
        assert tried == (10, 20, 40, 80, 160, 320, 640)
        assert compared == list(zip(tried, tried[1:]))
        assert solves == [(10, 10)] + [(b, a) for a, b in compared]
        assert (K, K_count, verdicts) == (640, 640, [False])
        assert set(tried) == {k for pair in compared for k in pair}

    # the K after a candidate that settles is its sqrt(1.5) successor's
    # partner, so every K solved is read; only a K0 that settles leaves its
    # successor, solved on the way to ceil(1.5 K0), unread
    @pytest.mark.parametrize("K0, settle_at, unread", [
        (9, 25, set()), (12, 30, set()), (16, 39, set()),
        (16, 16, {20}), (9, 9, {12})])
    def test_every_solve_read(self, monkeypatch, K0, settle_at, unread):
        (K, _, verdicts, tried, _), _, compared = run_ladder(
            monkeypatch, K0, 200, settle_at=settle_at)
        assert verdicts == [True] and K >= settle_at
        assert set(tried) - {k for pair in compared for k in pair} == unread

    def test_duplicates_skipped(self, monkeypatch):
        # from K0 = 2 the chain from ceil(sqrt(1.5) 2) = 3 is the first
        # chain's tail, so the candidates form one chain
        (K, _, verdicts, tried, _), solves, compared = run_ladder(
            monkeypatch, 2, 40)
        assert tried == (2, 3, 5, 8, 12, 18, 27)
        assert [k for k, _ in solves] == list(tried)
        assert compared == list(zip(tried, tried[1:]))
        assert (K, verdicts) == (27, [False])

    @pytest.mark.parametrize("cap", [67, 68, 100, 101, 102])
    def test_cap_gives_up(self, monkeypatch, cap):
        # no partner beyond the cap is solved; K is the last K solved, or
        # the fallback if one is given, and K_count is K
        (K, K_count, verdicts, tried, mu), _, compared = run_ladder(
            monkeypatch, 16, cap)
        assert verdicts == [False]
        assert K == K_count == tried[-1] == compared[-1][1] <= cap
        assert mu is None
        monkeypatch.undo()
        assert run_ladder(monkeypatch, 16, cap, fallback=cap)[0] == (
            cap, cap, [False], tried, None)
        # the candidate after the last one checked has its partner past cap
        last = max(c for c, _ in compared)
        assert math.ceil(1.5 * min(c for c in tried if c > last)) > cap

    def test_guess_kept_across_its_candidate_solves(self, f2, monkeypatch,
                                                    tmp_path):
        # one pilot leaves the helper idle, and the first candidate waits on
        # two pilot solves: a guess started during the first is not queued
        # again for the second, and the outputs equal a serial run's
        monkeypatch.setattr(harness, "SC_PILOTS", 1)
        cfg = sc_config(f2, trials=4)
        monkeypatch.setattr(harness, "WORKERS", 1)
        serial = report_files(run_semiclassical(cfg), tmp_path / "serial")
        tried = serial["summary"]["extras"]["truncation"]["0.1"]["K_tried"]
        assert tried[1:3] == [math.ceil(math.sqrt(1.5) * tried[0]),
                              math.ceil(1.5 * tried[0])]
        queued, requeued_live = {}, []

        class Checked(harness.ProcessPoolExecutor):
            def submit(self, fn, *args):
                fut = super().submit(fn, *args)
                K, trials = args[4:] if fn is harness._solve else (0, ())
                for t in trials:
                    prior = queued.setdefault((K, t), [])
                    if not all(f.cancelled() for f in prior):
                        requeued_live.append((K, t))
                    prior.append(fut)
                return fut
        monkeypatch.setattr(harness, "ProcessPoolExecutor", Checked)
        monkeypatch.setattr(harness, "WORKERS", 2)
        log_trial_solves(monkeypatch, tmp_path / "log",
                         hold=(tried[1], tried[0]))
        out = report_files(run_semiclassical(cfg), tmp_path / "out")
        assert (out["trials"], out["eigenvalues"]) == (serial["trials"],
                                                       serial["eigenvalues"])
        assert any(k == tried[0] and t > 0
                   for k, t, _ in trial_solves(tmp_path / "log"))
        assert len(queued[tried[0], 1]) >= 1 and requeued_live == []
        assert multiprocessing.active_children() == []


@pytest.fixture(scope="module")
def ladder_report(f4):
    # criterion 8's law on a ladder to lambda = 4096: the top rung's
    # eigenvalues are too ill-conditioned for any affordable K
    law = CoefficientLaw(alpha_min=0, alpha_max=0, n=1, rho_decay=1.1,
                         K_q=32)
    lams = (4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0)
    return run_highenergy(he_config(f4, law=law, lambda_list=lams,
                                    trials=1, seed=1))


class TestHighEnergyRun:
    def test_small_run(self, f4):
        cfg = he_config(f4)
        rep = run_highenergy(cfg)
        assert rep.mode == "highenergy"
        assert len(rep.records) == 4
        assert all(v for v in rep.extras["rescaling_identity"].values())
        for info in rep.extras["dyadic"].values():
            assert info["sum_matches"]
        # one omega per trajectory: same label across both lambdas
        labels = {(r.trial, r.seed_label) for r in rep.records}
        assert labels == {(0, "5/he/0"), (1, "5/he/1")}

    def test_counts_read_no_record_order(self, f4, monkeypatch):
        # the rescaling identity, the dyadic pieces and the trajectory fits
        # find each count by its (lambda, trial), so records counted in
        # reverse change none of them; lambda = 10 is solved rescaled
        cfg = he_config(f4, lambda_list=(4.0, 10.0, 16.0), trials=3)
        rep = run_highenergy(cfg)
        assert rep.extras["rescaling_solved"] == [10.0]
        count = harness.count_records
        monkeypatch.setattr(harness, "count_records",
                            lambda *args: count(*args)[::-1])
        again = run_highenergy(cfg)
        assert [(r.param, r.trial, r.N) for r in again.records] == [
            (r.param, r.trial, r.N) for r in rep.records[::-1]]
        for key in ("rescaling_identity", "dyadic", "trajectory_fits",
                    "relative_residuals"):
            assert again.extras[key] == rep.extras[key], key

    def test_certified_counts_match_solve_at_2K(self, f4):
        cfg = he_config(f4, trials=10)
        rep = run_highenergy(cfg)
        trunc = rep.extras["truncation"]
        K = trunc["K"]
        assert all(r.K == K for r in rep.records)
        assert trunc["certified"]["2.0"]
        base = discretize.assemble_operator(
            f4, discretize.FourierTruncation(K=2 * K, n=1, h=1.0))
        for t in range(cfg.trials):
            draw = sample_draw(cfg.law, SeedSpec(cfg.seed, "he", t), 1.0)
            eigs = discretize.eigenvalues(
                discretize.perturbed_operator(base, draw, 1.0))
            for r in rep.records:
                if r.trial == t and trunc["certified"][str(r.param)]:
                    dom = dilate(cfg.domains[0], r.param)
                    assert np.count_nonzero(dom.contains_many(eigs)) == r.N

    def test_ill_conditioned_top_rung_uncertified(self, ladder_report,
                                                  tmp_path):
        rep = ladder_report
        certified = rep.extras["truncation"]["certified"]
        assert certified["4.0"]
        assert not certified["4096.0"]
        assert rep.aggregates[4096.0]["certified"] is False
        write_report(rep, tmp_path)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["extras"]["truncation"]["certified"]["4096.0"] is False
        assert summary["aggregates"]["4096.0"]["certified"] is False

    def test_fits_use_certified_rungs_only(self, f4, ladder_report):
        rep = ladder_report
        certified = rep.extras["truncation"]["certified"]
        fit_rungs = rep.extras["truncation"]["fit_rungs"]
        assert 4096.0 not in fit_rungs
        assert fit_rungs == [lam for lam in rep.params
                             if certified[str(lam)]]
        assert 4096.0 in {r.param for r in rep.records}
        rows = sorted((r for r in rep.records if r.param in fit_rungs),
                      key=lambda r: r.param)
        assert rep.extras["relative_residuals"][0] == [
            abs(r.residual) / r.W for r in rows]
        b = np.array([r.param ** 0.25 * math.sqrt(math.log(r.param))
                      for r in rows])
        A = np.vstack([np.ones_like(b), b]).T
        coef, *_ = np.linalg.lstsq(
            A, np.array([abs(r.residual) for r in rows]), rcond=None)
        assert rep.extras["trajectory_fits"][0] == pytest.approx(tuple(coef))
        assert rep.envelope_fit == pytest.approx(fit_power_law(
            [(lam, rep.aggregates[lam]["mean_abs_residual"])
             for lam in fit_rungs]))
        # one certified rung leaves nothing to fit
        small = run_highenergy(he_config(f4))
        assert small.extras["truncation"]["fit_rungs"] == [2.0]
        assert set(small.extras["trajectory_fits"].values()) == {None}
        assert small.envelope_fit is None

    def test_certification_gives_up_at_cap(self):
        # a spectrum that never settles: every rung uncertified, no solve
        # beyond the cap
        sector = AnnularSector(0.05, 2 * math.pi - 0.05, 1.0)
        rungs = [sector, dilate(sector, 4.0)]
        K, K_count, verdicts, tried, mu = harness.certify_truncation(
            lambda K, _: [np.full(3, 0.5 + 0.1j + 1e-4 * K)], rungs, 10,
            harness.HE_GROWTH, harness.HE_SETTLE_TOL, harness.HE_K_CAP)
        assert verdicts == [False, False]
        assert max(tried) <= harness.HE_K_CAP < 2 * max(tried)
        assert K == K_count == max(tried) and mu is None

    def test_weyl_prefactor_is_classical(self, f4):
        from weylab.domains import dilate, weyl_measure
        cfg = he_config(f4)
        rep = run_highenergy(cfg)
        for lam in cfg.lambda_list:
            quad = weyl_measure(f4, dilate(cfg.domains[0], lam))
            assert rep.aggregates[lam]["W"] == pytest.approx(
                quad.value / (2 * math.pi), rel=1e-9)
            assert {r.W for r in rep.records if r.param == lam} == \
                {rep.aggregates[lam]["W"]}
            assert rep.extras["weyl_bound_by_lambda"][str(lam)] == \
                pytest.approx(quad.bound / (2 * math.pi), rel=1e-9)

    def test_rescaled_pilot_is_trial_0(self, f4, monkeypatch):
        # at lambda = 1 the rescaled matrix is P - Q at h = 1, built by the
        # same operations as trial 0's M, so it is not solved; at lambda =
        # 10 the solved matrix is trial 0's M / 10 up to rounding, and far
        # from trial 1's
        cfg = he_config(f4, trials=3)
        mats = []
        monkeypatch.setattr(discretize, "eigenvalues", lambda mat: (
            mats.append(mat.entries) or np.zeros(0, dtype=complex)))
        K = 24
        harness._solve(cfg, "he", 1.0, 1.0, K, [0, 1])
        assert harness._rescaled_eigs(cfg, "he", K, [1.0, 10.0])[0] is None
        M0, M1, at10 = mats
        atol = 1e-14 * np.abs(M0).max()
        assert np.allclose(at10, M0 / 10.0, rtol=0.0, atol=atol)
        assert not np.allclose(at10, M1 / 10.0, rtol=0.0, atol=atol)

    def test_rescaled_matrix_exact_at_powers_of_4(self, f4, monkeypatch):
        # for m = 2, h = lambda^{-1/2} is a power of 2 at lambda = 4^k, so
        # the rescaled matrix is trial 0's M over lambda bit for bit and is
        # not solved, and the identity checks assembly, not rounding; at
        # lambda = 10 it is M / 10 only up to rounding, and is solved
        cfg = he_config(f4)
        mats = []
        monkeypatch.setattr(discretize, "eigenvalues", lambda mat: (
            mats.append(mat.entries) or np.zeros(0, dtype=complex)))
        K = 24
        harness._solve(cfg, "he", 1.0, 1.0, K, [0])
        at4, _ = harness._rescaled_eigs(cfg, "he", K, [4.0, 10.0])
        M, at10 = mats
        assert at4 is None
        assert at10.tobytes() != (M / 10.0).tobytes()
        assert np.allclose(at10, M / 10.0, rtol=0.0,
                           atol=1e-14 * np.abs(M).max())

    def test_rescaled_spectrum_is_pilot_over_lambda(self, f4):
        # the premise of skipping the solve where the matrices match: at
        # lambda = 4^k the solver's spectrum of M / lambda is trial 0's
        # spectrum over lambda bit for bit, and only lambda = 10 is solved
        cfg = he_config(f4)
        K = 24
        pilot = harness._solve(cfg, "he", 1.0, 1.0, K, [0])[0][0]
        trunc = discretize.FourierTruncation(K=K, n=1, h=1.0)
        M = discretize.perturbed_operator(
            discretize.assemble_operator(f4, trunc),
            sample_draw(cfg.law, SeedSpec(cfg.seed, "he", 0), 1.0), 1.0)
        for lam in (4.0, 16.0):
            eigs = discretize.eigenvalues(
                discretize.OperatorMatrix(M.entries / lam, trunc))
            assert eigs.tobytes() == (pilot / lam).tobytes()
        assert [eigs is None for eigs in harness._rescaled_eigs(
            cfg, "he", K, [4.0, 10.0, 16.0])] == [True, False, True]

    @staticmethod
    def rescaled_solves(monkeypatch, cfg):
        """The run and the h of every eigensolve of a matrix assembled at
        h != 1, which only the rescaling identity makes."""
        monkeypatch.setattr(harness, "WORKERS", 1)
        hs = []
        eigenvalues = discretize.eigenvalues

        def logged(mat):
            if mat.trunc.h != 1.0:
                hs.append(mat.trunc.h)
            return eigenvalues(mat)
        monkeypatch.setattr(discretize, "eigenvalues", logged)
        return run_highenergy(cfg), hs

    def test_rescaled_solve_only_where_matrices_differ(self, f4,
                                                       monkeypatch):
        rep, hs = self.rescaled_solves(
            monkeypatch, he_config(f4, lambda_list=(4.0, 16.0)))
        assert hs == [] and rep.extras["rescaling_solved"] == []
        assert rep.extras["rescaling_identity"] == {"4.0/0": True,
                                                    "16.0/0": True}
        cfg = he_config(f4, lambda_list=(4.0, 10.0))
        rep, hs = self.rescaled_solves(monkeypatch, cfg)
        assert hs == [10.0 ** -0.5] and rep.extras["rescaling_solved"] == [
            10.0]
        # lambda = 10 is counted from its own solve (uncertified here, it
        # counts other than trial 0)
        (eigs,) = harness._rescaled_eigs(
            cfg, "he", rep.extras["truncation"]["K"], [10.0])
        N = next(r.N for r in rep.records if r.param == 10.0)
        assert rep.extras["rescaling_identity"] == {
            "4.0/0": True, "10.0/0": bool(np.count_nonzero(
                cfg.domains[0].contains_many(eigs)) == N)}

    def test_mutated_rescaling_is_solved_and_fails(self, f4, monkeypatch):
        # F4 has one term, of order m, so the rescaled symbol is F4 itself;
        # one that doubles P is not M / lambda: the rung is solved, and its
        # count is not trial 0's
        monkeypatch.setattr(harness, "_rescaled_symbol", lambda sym, h: (
            symbol.MatrixSymbol(sym.n, sym.m, 2 * sym.coeffs)))
        rep, hs = self.rescaled_solves(
            monkeypatch, he_config(f4, lambda_list=(4.0,)))
        assert hs == [0.5] and rep.extras["rescaling_solved"] == [4.0]
        assert rep.extras["rescaling_identity"] == {"4.0/0": False}


class TestEnvelopeSanity:
    def test_mean_residual_exponent_in_band(self, f2):
        # in the converged regime the fitted exponent of mean |N - W| vs h
        # should sit in a broad band around the theoretical -1/2 (the
        # counting jitter floor pushes it toward the shallow end)
        law = CoefficientLaw(alpha_min=0, alpha_max=0, n=1, rho_decay=1.2,
                             K_q=256)
        cfg = ExperimentConfig(sym=f2, law=law,
                               domains=[Rectangle(0.1, 0.7, -0.5, 0.5)],
                               mode="semiclassical",
                               h_list=(0.05, 0.035, 0.025), trials=60,
                               seed=42)
        rep = run_semiclassical(cfg)
        slope = rep.envelope_fit_h[0]
        assert -0.75 <= slope <= -0.25


class TestReports:
    def test_table_cells_read_back(self, tmp_path):
        # the header first, then each row as the generator yields it; a
        # float reads back bit for bit, -0.0's sign included
        floats = [0.1, 1 / 3, -0.0, 5e-324, 1.7976931348623157e308,
                  np.float64(2.5e-8)]
        others = [7, np.int64(-3), "NearPhi", ""]
        path = tmp_path / "table.csv"
        header = [f"c{i}" for i in range(len(floats) + len(others))]
        harness.write_table(path, header,
                            (floats + others for _ in range(2)))
        lines = path.read_text().split("\n")
        assert lines[0] == ",".join(header) and lines[3] == ""
        for line in lines[1:3]:
            cells = line.split(",")
            back = np.array([float(c) for c in cells[:len(floats)]])
            assert back.view(np.uint64).tolist() == \
                np.array(floats).view(np.uint64).tolist()
            assert cells[len(floats):] == ["7", "-3", "NearPhi", ""]

    def test_write_report_files(self, f2, tmp_path):
        rep = run_semiclassical(sc_config(f2, trials=2))
        out = write_report(rep, tmp_path / "out")
        trials = (tmp_path / "out" / "trials.csv").read_text()
        lines = trials.strip().split("\n")
        assert lines[0] == harness.CSV_HEADER
        assert len(lines) == 3
        assert all(line.endswith(",0") for line in lines[1:])
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["mode"] == "semiclassical"
        assert "versions" in summary
        assert summary["blas_threads"] == harness._blas_threads() != {}

    @pytest.mark.parametrize("threads", [1, 2])
    def test_blas_threads_read_from_library(self, threads):
        # each loaded OpenBLAS reports the count it runs, whatever set it
        src = os.path.dirname(os.path.dirname(harness.__file__))
        out = subprocess.run(
            [sys.executable, "-c", "import json; from weylab import harness; "
             "print(json.dumps(harness._blas_threads()))"],
            env=dict(os.environ, PYTHONPATH=src,
                     OPENBLAS_NUM_THREADS=str(threads)),
            capture_output=True, text=True, check=True).stdout
        counts = json.loads(out)
        assert len(counts) >= 1 and set(counts.values()) == {threads}

    def test_rerun_byte_identical(self, f2, tmp_path):
        for sub in ("a", "b"):
            rep = run_semiclassical(sc_config(f2, trials=2))
            write_report(rep, tmp_path / sub)
        a = (tmp_path / "a" / "trials.csv").read_bytes()
        b = (tmp_path / "b" / "trials.csv").read_bytes()
        assert a == b

    @pytest.mark.parametrize("mode", ["semiclassical", "highenergy"])
    def test_stage_timings(self, f2, f4, mode, tmp_path):
        # one trial past the pilots, so the run has trials of both kinds
        if mode == "semiclassical":
            cfg, run = (sc_config(f2, trials=harness.SC_PILOTS + 1),
                        run_semiclassical)
        else:
            cfg, run = he_config(f4), run_highenergy
        start = time.perf_counter()
        rep = run(cfg)
        wall_ms = (time.perf_counter() - start) * 1e3
        write_report(rep, tmp_path)
        summary = json.loads((tmp_path / "summary.json").read_text())
        stage_ms = summary["extras"]["stage_ms"]
        assert set(stage_ms) == {str(p) for p in rep.params}
        for medians in stage_ms.values():
            assert set(medians) == set(harness.STAGES)
            assert all(v >= 0.0 for v in medians.values())
        for r in rep.records:
            assert set(r.stage_ms) == set(harness.STAGES)
            assert all(v >= 0.0 for v in r.stage_ms.values())
        # a trial's records share its draw, assemble and eigensolve times
        trials = {}
        for r in rep.records:
            trials.setdefault(r.seed_label, []).append(r)
        for rows in trials.values():
            assert all(r.stage_ms[s] == rows[0].stage_ms[s] for r in rows
                       for s in ("draw", "assemble", "eigensolve"))
        # total_millis is the driver call's wall time, which holds the
        # pilots' K ladders, themselves wall times
        trunc = summary["extras"]["truncation"]
        runs = trunc.values() if mode == "semiclassical" else [trunc]
        pilot_ms = sum(t["pilot_millis"] for t in runs)
        assert 0.0 < pilot_ms < summary["total_millis"]
        assert summary["total_millis"] == pytest.approx(wall_ms, abs=1.0)

    @pytest.mark.parametrize("mode", ["semiclassical", "highenergy"])
    def test_numpy_float_parameters(self, f2, f4, mode, tmp_path):
        # a numpy h named the seed stream "sc:np.float64(0.1)", and so drew
        # other trials, and printed that repr into the reports
        make, run, key, values = {
            "semiclassical": (functools.partial(sc_config, f2, trials=3),
                              run_semiclassical, "h_list", (0.1, 0.08)),
            "highenergy": (functools.partial(he_config, f4), run_highenergy,
                           "lambda_list", (4.0, 2.0))}[mode]
        python, numpy = (report_files(
            run(make(**{key: tuple(map(kind, values))})), tmp_path / side)
            for side, kind in (("python", float), ("numpy", np.float64)))
        assert numpy["trials"] == python["trials"]
        assert numpy["eigenvalues"] == python["eigenvalues"]
        assert without(numpy["summary"], TIMES) == \
            without(python["summary"], TIMES)

    def test_eigen_dump(self, f2, f4, tmp_path):
        # both drivers at their defaults: every record keeps its spectrum,
        # and the dump holds one row per eigenvalue of every record
        for rep in (run_semiclassical(sc_config(f2, trials=1)),
                    run_highenergy(he_config(f4))):
            write_report(rep, tmp_path, dump_eigs=True)
            lines = (tmp_path / "eigenvalues.csv").read_text().split("\n")
            assert lines[0] == "mode,h_or_lambda,trial,re,im"
            dumped = [complex(float(re), float(im)) for *_, re, im
                      in (line.split(",") for line in lines[1:-1])]
            rows = sorted(rep.records, key=lambda r: (r.param, r.trial))
            assert dumped == [z for r in rows for z in r.eigenvalues]
            assert len(dumped) > 10


# summary.json keys that hold wall or work times, or the library versions
TIMES = ("total_millis", "stage_ms", "pilot_millis", "versions")


def without(obj, keys):
    """obj with every dict entry under one of keys removed, at any depth."""
    if isinstance(obj, dict):
        return {k: without(v, keys) for k, v in obj.items() if k not in keys}
    return obj


def report_files(rep, path):
    """The trials.csv and eigenvalues.csv bytes and the summary of rep."""
    write_report(rep, path, dump_eigs=True)
    return {"trials": (path / "trials.csv").read_bytes(),
            "eigenvalues": (path / "eigenvalues.csv").read_bytes(),
            "summary": json.loads((path / "summary.json").read_text())}


@pytest.fixture(scope="module")
def outputs_by_workers(f2, f4, tmp_path_factory):
    """Report files of one semiclassical and two high-energy runs per
    WORKERS in 1, 2, 3: 3 makes the shares uneven (8 pilots, 12 trials), and
    the single-trajectory run has no helper at all."""
    out = {}
    for workers in (1, 2, 3):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(harness, "WORKERS", workers)
            for mode, rep in (
                    ("sc", run_semiclassical(sc_config(f2, trials=12))),
                    ("he", run_highenergy(he_config(f4, trials=5))),
                    ("he1", run_highenergy(he_config(f4, trials=1)))):
                out[mode, workers] = report_files(
                    rep, tmp_path_factory.mktemp(f"{mode}{workers}"))
    return out


class TestWorkers:
    @pytest.mark.parametrize("mode", ["sc", "he", "he1"])
    @pytest.mark.parametrize("workers", [2, 3])
    def test_outputs_byte_identical(self, outputs_by_workers, mode, workers):
        one, many = (outputs_by_workers[mode, 1],
                     outputs_by_workers[mode, workers])
        assert (one["summary"]["extras"]["workers"],
                many["summary"]["extras"]["workers"]) == (1, workers)
        assert many["trials"] == one["trials"]
        assert many["eigenvalues"] == one["eigenvalues"]
        assert len(one["eigenvalues"].split(b"\n")) > 100
        if mode == "sc":
            # a trial solved again at K, after the others at K_count
            trunc = one["summary"]["extras"]["truncation"]["0.1"]
            assert trunc["resolved"] != [] and trunc["K_count"] < trunc["K"]
        else:
            assert {"weyl_by_lambda", "weyl_bound_by_lambda",
                    "rescaling_identity", "dyadic"} <= set(
                        one["summary"]["extras"])
        assert without(many["summary"], TIMES + ("workers",)) == \
            without(one["summary"], TIMES + ("workers",))

    def test_clean_run_leaves_no_helper(self, f2, monkeypatch):
        monkeypatch.setattr(harness, "WORKERS", 2)
        run_semiclassical(sc_config(f2, trials=harness.SC_PILOTS + 2))
        assert multiprocessing.active_children() == []

    # trial 8 is in the parent's share at 2 workers, trial 9 in the helper's
    @pytest.mark.parametrize("workers,trial", [(1, 9), (2, 8), (2, 9)])
    def test_solver_error_reraised_as_its_type(self, f2, monkeypatch,
                                               workers, trial):
        monkeypatch.setattr(harness, "WORKERS", workers)
        fail_at_trial(monkeypatch, trial)
        with pytest.raises(NonConvergence, match=f"trial {trial}"):
            run_semiclassical(sc_config(f2, trials=harness.SC_PILOTS + 2))
        assert multiprocessing.active_children() == []

    # at 2 workers both Weyl measures run in the helper, and rung 1's
    # rescaling-identity solve: neither rung is a power of 4, so both are
    # solved
    @pytest.mark.parametrize("work", ["weyl", "rescaled"])
    def test_helper_error_in_moved_work(self, f4, monkeypatch, work):
        monkeypatch.setattr(harness, "WORKERS", 2)
        fail_in_helper(monkeypatch, work)
        with pytest.raises(NonConvergence, match=f"{work} in a helper"):
            run_highenergy(he_config(f4, lambda_list=(2.0, 3.0)))
        assert multiprocessing.active_children() == []

    # While the pilot is solved at a finer K, the helper solves trials 1-4
    # at the K being checked.  The pilot's finer solve waits until the
    # helper has started one, so some guess always starts before the verdict.
    def test_error_in_dropped_guess(self, f4, monkeypatch, tmp_path,
                                    outputs_by_workers):
        serial = outputs_by_workers["he", 1]
        K_tried = serial["summary"]["extras"]["truncation"]["K_tried"]
        monkeypatch.setattr(harness, "WORKERS", 2)
        log_trial_solves(monkeypatch, tmp_path / "log", hold=K_tried[1::-1],
                         fail=(K_tried[0], 1))
        rep = run_highenergy(he_config(f4, trials=5))
        assert (K_tried[0], 1) in {
            (k, t) for k, t, _ in trial_solves(tmp_path / "log")}
        out = report_files(rep, tmp_path / "out")
        assert (out["trials"], out["eigenvalues"]) == (serial["trials"],
                                                       serial["eigenvalues"])
        assert without(out["summary"], TIMES + ("workers",)) == \
            without(serial["summary"], TIMES + ("workers",))

    def test_guess_at_certified_K_kept(self, f4, monkeypatch, tmp_path,
                                       outputs_by_workers):
        serial = outputs_by_workers["he", 1]
        trunc = serial["summary"]["extras"]["truncation"]
        monkeypatch.setattr(harness, "WORKERS", 2)
        log_trial_solves(monkeypatch, tmp_path / "log",
                         hold=(trunc["K_tried"][-1], trunc["K"]))
        out = report_files(run_highenergy(he_config(f4, trials=5)),
                           tmp_path / "out")
        assert (out["trials"], out["eigenvalues"]) == (serial["trials"],
                                                       serial["eigenvalues"])
        # every trial solved once at K: the started guesses were kept
        assert sorted(t for k, t, _ in trial_solves(tmp_path / "log")
                      if k == trunc["K"]) == list(range(5))

    def test_error_in_kept_guess_raised(self, f4, monkeypatch, tmp_path,
                                        outputs_by_workers):
        trunc = outputs_by_workers["he", 1]["summary"]["extras"]["truncation"]
        monkeypatch.setattr(harness, "WORKERS", 2)
        log_trial_solves(monkeypatch, tmp_path / "log",
                         hold=(trunc["K_tried"][-1], trunc["K"]),
                         fail=(trunc["K"], 1))
        with pytest.raises(NonConvergence,
                           match=f"trial 1 at K = {trunc['K']}"):
            run_highenergy(he_config(f4, trials=5))
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("run, trials, pools", [
        ("sc", 2, 1), ("he", 2, 1), ("he", 1, 0)])
    def test_one_pool_per_run(self, f2, f4, monkeypatch, run, trials, pools):
        built = []

        class Counted(harness.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                built.append(args)
                super().__init__(*args, **kwargs)
        monkeypatch.setattr(harness, "ProcessPoolExecutor", Counted)
        monkeypatch.setattr(harness, "WORKERS", 2)
        if run == "sc":
            run_semiclassical(sc_config(f2, h_list=(0.1, 0.07),
                                        trials=trials))
        else:
            run_highenergy(he_config(f4, trials=trials))
        assert len(built) == pools
        assert multiprocessing.active_children() == []


def file_config():
    return {
        "symbol": {"n": 1, "m": 2,
                   "coeffs": {"0": [[0, 0, 1, 0.0, 1.0]],
                              "2": [[0, 0, 0, 1.0, 0.0]]}},
        "perturbation": {"alpha_min": 0, "alpha_max": 0, "rho": 1.2,
                         "K_q": 16},
        "domains": [{"type": "rectangle", "re_min": 0.1, "re_max": 0.7,
                     "im_min": -0.5, "im_max": 0.5}],
        "experiment": {"mode": "semiclassical", "h_list": [0.1],
                       "trials": 2},
        "seed": 9,
    }


class TestConfigFile:
    def test_load_config_roundtrip(self, tmp_path):
        raw = file_config()
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        cfg = load_config(path)
        assert cfg.sym.m == 2
        assert cfg.law.K_q == 16
        assert cfg.seed == 9
        assert cfg.h_list == (0.1,)
        assert cfg.echo() == raw

    @pytest.mark.parametrize("block, key, where", [
        (None, "sed", "the config"), ("symbol", "order", "symbol"),
        ("perturbation", "c_K", "perturbation"),
        ("perturbation", "c_tilde", "perturbation"),
        ("experiment", "trails", "experiment"),
        ("experiment", "calibration_quantile", "experiment")])
    def test_unknown_key_rejected(self, tmp_path, block, key, where):
        raw = file_config()
        (raw[block] if block else raw)[key] = 5
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ValueError, match=f"'{key}' in {where}"):
            load_config(path)

    # a negative order or slot used to wrap to the top order or last row,
    # and an order above m raised IndexError
    @pytest.mark.parametrize("order, entry, what", [
        ("-1", [0, 0, 1, 0.0, 1.0], "order"),
        ("0", [-1, 0, 1, 0.0, 1.0], "slot"),
        ("0", [0, 1, 1, 0.0, 1.0], "slot"),
        ("5", [0, 0, 1, 0.0, 1.0], "order")],
        ids=["order-minus-1", "slot-minus-1", "slot-n", "order-5"])
    def test_symbol_index_out_of_range(self, order, entry, what):
        spec = file_config()["symbol"]
        spec["coeffs"][order] = [entry]
        top = 2 if what == "order" else 0
        with pytest.raises(ValueError, match=f"symbol {what} must be an "
                                             f"integer in 0..{top}"):
            harness.parse_symbol(spec)

    def test_unknown_domain_key_rejected(self, tmp_path):
        raw = file_config()
        raw["domains"][0]["radius"] = 1.0      # a disk's key
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ValueError, match="'radius' in rectangle domain"):
            load_config(path)

    def test_parse_domains(self):
        sector = harness.parse_domain(
            {"type": "sector", "theta_min": 0.1, "theta_max": 1.0,
             "r_out": 2.0, "r_in": 1.0})
        assert isinstance(sector, AnnularSector)
        disk = harness.parse_domain({"type": "disk", "radius": 1.0})
        assert disk.contains_many(np.array([0.5])).all()
        with pytest.raises(ValueError):
            harness.parse_domain({"type": "blob"})
