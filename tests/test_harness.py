import json
import math

import numpy as np
import pytest

from weylab import discretize, harness
from weylab.domains import AnnularSector, Rectangle, dilate
from weylab.errors import (DegenerateFit, EmptyWindow, HypothesisViolation,
                           WindowViolation)
from weylab.harness import (ExperimentConfig, default_delta, delta_window,
                            fit_power_law, load_config, run_highenergy,
                            run_semiclassical, write_report)
from weylab.randomness import CoefficientLaw, SeedSpec, sample_draw


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


class TestConfigValidation:
    def test_f2_semiclassical_accepted(self, f2):
        cfg = sc_config(f2)
        assert cfg.mode == "semiclassical"

    def test_f1_rejected_separate_bases(self, f1):
        # the two roots of F1 live at different base points, violating the
        # shared-base requirement of the semiclassical construction
        with pytest.raises(HypothesisViolation):
            sc_config(f1, sym=f1, domains=[Rectangle(-0.2, 0.2, -0.4, 0.4)])

    def test_domain_outside_sigma_rejected(self, f2):
        with pytest.raises(HypothesisViolation):
            sc_config(f2, domains=[Rectangle(4.0, 5.0, 4.0, 5.0)])

    def test_perturbation_order_capped(self, f2):
        with pytest.raises(HypothesisViolation):
            sc_config(f2, law=CoefficientLaw(alpha_min=0, alpha_max=2, n=1,
                                             rho_decay=1.2))

    def test_highenergy_window_violation(self, f4):
        # m - alpha1 - rho - 3/4 <= 0
        with pytest.raises(WindowViolation):
            he_config(f4, law=CoefficientLaw(alpha_min=0, alpha_max=1, n=1,
                                             rho_decay=1.1))

    def test_highenergy_needs_sector(self, f4):
        with pytest.raises(ValueError):
            he_config(f4, domains=[Rectangle(0.0, 1.0, 0.0, 1.0)])

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
        with pytest.raises(DegenerateFit):
            fit_power_law([(1.0, 1.0), (1.0, 2.0), (1.0, 3.0)])


class TestSemiclassicalRun:
    def test_small_run(self, f2):
        cfg = sc_config(f2, h_list=(0.1, 0.08), trials=3)
        rep = run_semiclassical(cfg)
        assert rep.mode == "semiclassical"
        assert len(rep.records) == 6
        for h in (0.1, 0.08):
            agg = rep.aggregates[h]
            assert agg["trials"] == 3
            assert agg["W"] == pytest.approx(
                rep.extras["weyl_measure"] / (2 * math.pi * h))
        # finest-h coverage entry exists relative to the coarsest h
        assert 0.08 in rep.coverage

    def test_delta_floor_guard(self, f2):
        with pytest.raises(EmptyWindow):
            run_semiclassical(sc_config(f2, delta_override=1e-18))

    def test_trial_reuse_of_stream_labels(self, f2):
        cfg = sc_config(f2, trials=2)
        rep = run_semiclassical(cfg)
        labels = {r.seed_label for r in rep.records}
        assert labels == {"3/sc:0.1/0", "3/sc:0.1/1"}


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
        K, _, verdicts, tried = harness.certify_truncation(
            lambda K: np.full(3, 0.5 + 0.1j + 1e-4 * K), rungs, 10)
        assert verdicts == [False, False]
        assert max(tried) <= harness.K_CAP < 2 * max(tried)
        assert K == max(tried)

    def test_weyl_prefactor_is_classical(self, f4):
        from weylab.domains import dilate, weyl_measure
        cfg = he_config(f4)
        rep = run_highenergy(cfg)
        lam = 4.0
        measure = weyl_measure(f4, dilate(cfg.domains[0], lam)).value
        assert rep.aggregates[lam]["W"] == pytest.approx(
            measure / (2 * math.pi), rel=1e-9)


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

    def test_rerun_byte_identical(self, f2, tmp_path):
        for sub in ("a", "b"):
            rep = run_semiclassical(sc_config(f2, trials=2))
            write_report(rep, tmp_path / sub)
        a = (tmp_path / "a" / "trials.csv").read_bytes()
        b = (tmp_path / "b" / "trials.csv").read_bytes()
        assert a == b

    @pytest.mark.parametrize("mode", ["semiclassical", "highenergy"])
    def test_stage_timings(self, f2, f4, mode, tmp_path):
        if mode == "semiclassical":
            rep = run_semiclassical(sc_config(f2, trials=2))
        else:
            rep = run_highenergy(he_config(f4))
        write_report(rep, tmp_path)
        summary = json.loads((tmp_path / "summary.json").read_text())
        stage_ms = summary["extras"]["stage_ms"]
        assert set(stage_ms) == {str(p) for p in rep.params}
        for medians in stage_ms.values():
            assert set(medians) == set(harness.STAGES)
            assert all(v >= 0.0 for v in medians.values())
        for r in rep.records:
            assert all(v >= 0.0 for v in r.stage_ms.values())
            assert "count" in r.stage_ms

    def test_eigen_dump(self, f2, tmp_path):
        rep = run_semiclassical(sc_config(f2, trials=1), keep_eigs=True)
        write_report(rep, tmp_path / "out", dump_eigs=True)
        eigs = (tmp_path / "out" / "eigenvalues.csv").read_text()
        lines = eigs.strip().split("\n")
        assert lines[0] == "mode,h_or_lambda,trial,re,im"
        assert len(lines) > 10


class TestConfigFile:
    def test_load_config_roundtrip(self, tmp_path):
        raw = {
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
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        cfg = load_config(path)
        assert cfg.sym.m == 2
        assert cfg.law.K_q == 16
        assert cfg.seed == 9
        assert cfg.h_list == (0.1,)
        assert cfg.echo() == raw

    def test_parse_domains(self):
        sector = harness.parse_domain(
            {"type": "sector", "theta_min": 0.1, "theta_max": 1.0,
             "r_out": 2.0, "r_in": 1.0})
        assert isinstance(sector, AnnularSector)
        disk = harness.parse_domain({"type": "disk", "radius": 1.0})
        assert disk.contains(0.5)
        with pytest.raises(ValueError):
            harness.parse_domain({"type": "blob"})
