import json
import math
import multiprocessing
import pathlib
import shlex

import numpy as np
import pytest

from weylab import cli, errors, harness, symbol
from weylab.errors import BranchLoss, NonConvergence

from helpers import fail_at_trial, fail_in_helper, read_matrix

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture()
def config_path(tmp_path):
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
    return str(path)


@pytest.fixture()
def he_config_path(tmp_path):
    raw = {
        "symbol": {"n": 1, "m": 2, "semiclassical": False,
                   "coeffs": {"2": [[0, 0, 1, 1.0, 0.0]]}},
        "perturbation": {"alpha_min": 0, "alpha_max": 0, "rho": 1.1,
                         "K_q": 16},
        "domains": [{"type": "sector", "theta_min": 0.05,
                     "theta_max": 6.2331853, "r_out": 1.0}],
        "experiment": {"mode": "highenergy", "lambda_list": [2.0, 4.0],
                       "trials": 2},
        "seed": 5,
    }
    path = tmp_path / "he_config.json"
    path.write_text(json.dumps(raw))
    return str(path)


class TestSubcommands:
    def test_roots(self, config_path, capsys):
        assert cli.main(["roots", "--config", config_path,
                         "--z", "0.5,0.0"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["beta"] == out["gamma"] == 1
        xs = sorted(r["x"] for r in out["roots"])
        assert xs[0] == pytest.approx(xs[1])

    def test_weyl(self, config_path, capsys):
        assert cli.main(["weyl", "--config", config_path,
                         "--domain", "0"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["measure"] > 0.0
        assert 0.0 < out["bound"] <= 1e-3 * out["measure"]
        assert out["evaluations"] > 0
        assert out["prediction"]["0.1"] == pytest.approx(
            out["measure"] / (2 * np.pi * 0.1))

    def test_symbol_scan(self, config_path, tmp_path, capsys):
        rc = cli.main(["symbol-scan", "--config", config_path,
                       "--grid", "4x4", "--zbox", "0.2,0.6,-0.3,0.3",
                       "--out", str(tmp_path / "scan")])
        assert rc == 0
        lines = (tmp_path / "scan" / "region_map.csv").read_text().strip()
        rows = lines.split("\n")
        assert rows[0] == "re,im,region,beta,gamma"
        assert len(rows) == 17

    def test_symbol_scan_through_double_zero(self, config_path, tmp_path):
        # the 3 x 3 grid over [-1, 1]^2 holds z = i, where q_z has a double
        # zero on the boundary of Sigma
        rc = cli.main(["symbol-scan", "--config", config_path,
                       "--grid", "3x3", "--zbox=-1,1,-1,1",
                       "--out", str(tmp_path / "scan")])
        assert rc == 0
        rows = (tmp_path / "scan" / "region_map.csv").read_text().split()
        assert len(rows) == 10
        assert [r.split(",")[2] for r in rows
                if r.startswith("0.0,1.0,")] == ["NearPhi"]

    def test_symbol_scan_writes_failed_points(self, config_path, tmp_path,
                                              monkeypatch, capsys):
        find_roots = symbol.find_roots
        bad = complex(0.4, 0.0)

        def flaky(sym, z):
            if z == bad:
                raise NonConvergence("stalled")
            return find_roots(sym, z)
        monkeypatch.setattr(symbol, "find_roots", flaky)
        rc = cli.main(["symbol-scan", "--config", config_path,
                       "--grid", "3x3", "--zbox=0.2,0.6,-0.3,0.3",
                       "--out", str(tmp_path / "scan")])
        assert rc == 3
        assert "1 of 9 points" in capsys.readouterr().err
        rows = (tmp_path / "scan" / "region_map.csv").read_text().split()
        assert len(rows) == 10
        assert rows[5] == "0.4,0.0,NonConvergence,,"
        assert all(row.split(",")[2] == "InLambda"
                   for row in rows[1:] if row != rows[5])

    def test_assemble_and_reload(self, config_path, tmp_path, capsys):
        out = tmp_path / "mat.txt"
        rc = cli.main(["assemble", "--config", config_path, "--h", "0.2",
                       "--K", "8", "--out", str(out)])
        assert rc == 0
        mat = read_matrix(out)
        assert mat.trunc.K == 8

    def test_spectrum_deterministic(self, config_path, tmp_path):
        args = ["spectrum", "--config", config_path, "--h", "0.1",
                "--delta", "1e-4", "--trial", "1"]
        assert cli.main(args + ["--out", str(tmp_path / "s1")]) == 0
        assert cli.main(args + ["--out", str(tmp_path / "s2")]) == 0
        a = (tmp_path / "s1" / "spectrum.csv").read_bytes()
        b = (tmp_path / "s2" / "spectrum.csv").read_bytes()
        assert a == b

    def test_pseudospec(self, config_path, tmp_path):
        rc = cli.main(["pseudospec", "--config", config_path, "--h", "0.2",
                       "--grid", "0.2:0.6:3,-0.2:0.2:3",
                       "--out", str(tmp_path / "ps")])
        assert rc == 0
        rows = (tmp_path / "ps" / "sigma_min.csv").read_text().strip()
        assert len(rows.split("\n")) == 10

    def test_quasimode(self, config_path, tmp_path):
        rc = cli.main(["quasimode", "--config", config_path,
                       "--z", "0.5,0.0", "--h", "0.1",
                       "--out", str(tmp_path / "qm")])
        assert rc == 0
        table = (tmp_path / "qm" / "quasimode_plus_0.csv").read_text()
        assert table.startswith("x,re0,im0\n")

    def test_mc_semiclassical(self, config_path, tmp_path):
        blobs = []
        for sub in ("mc", "again"):
            rc = cli.main(["mc-semiclassical", "--config", config_path,
                           "--out", str(tmp_path / sub), "--dump-eigs"])
            assert rc == 0
            assert (tmp_path / sub / "summary.json").exists()
            blobs.append([(tmp_path / sub / name).read_bytes()
                          for name in ("trials.csv", "eigenvalues.csv")])
        assert blobs[0] == blobs[1]
        assert len(blobs[0][1].split(b"\n")) > 10

    def test_mc_highenergy(self, he_config_path, tmp_path):
        blobs = []
        for sub in ("he", "again"):
            rc = cli.main(["mc-highenergy", "--config", he_config_path,
                           "--out", str(tmp_path / sub)])
            assert rc == 0
            blobs.append((tmp_path / sub / "trials.csv").read_bytes())
        assert blobs[0] == blobs[1]
        summary = json.loads(
            (tmp_path / "he" / "summary.json").read_text())
        assert summary["mode"] == "highenergy"
        K = summary["extras"]["truncation"]["K"]
        rows = blobs[0].decode().strip().split("\n")[1:]
        assert {int(row.split(",")[7]) for row in rows} == {K}


# the exit code of every package error type: a ValueError is a bad config
# or a violated hypothesis, any other error a numerical failure
EXIT_CODES = {"BandwidthExceeded": 2, "EmptyWindow": 2,
              "HypothesisViolation": 2, "WindowViolation": 2,
              "NonConvergence": 3, "ZeroOnContour": 3, "MultipleEigenvalue": 3,
              "BranchLoss": 3, "CutoffTooWide": 3}


def count_solves(monkeypatch):
    """The matrices passed to discretize.eigenvalues, each still solved."""
    solves = []
    eigenvalues = harness.discretize.eigenvalues
    monkeypatch.setattr(harness.discretize, "eigenvalues",
                        lambda mat: solves.append(mat) or eigenvalues(mat))
    return solves


DELETE = object()


def set_leaf(config_file, path, value):
    """Write value at the path of keys into the JSON config file, or delete
    that leaf for DELETE; returns the new config."""
    raw = json.loads(pathlib.Path(config_file).read_text())
    *outer, last = path
    block = raw
    for key in outer:
        block = block[key]
    if value is DELETE:
        del block[last]
    else:
        block[last] = value
    pathlib.Path(config_file).write_text(json.dumps(raw))
    return raw


class TestExitCodes:
    def test_every_error_type_has_its_code(self, config_path, monkeypatch,
                                           capsys):
        types = {name: t for name, t in vars(errors).items()
                 if isinstance(t, type) and issubclass(t, errors.WeylabError)
                 and t is not errors.WeylabError}
        assert set(types) == set(EXIT_CODES)
        for name, error in types.items():
            def fail(*args, error=error):
                raise error(name)
            monkeypatch.setattr(symbol, "find_roots", fail)
            rc = cli.main(["roots", "--config", config_path, "--z", "0.5,0"])
            assert rc == EXIT_CODES[name], name
            prefix = {2: "config/hypothesis violation",
                      3: "numerical failure"}[rc]
            assert capsys.readouterr().err == f"{prefix}: {name}\n"

    def test_missing_config_is_config_error(self, tmp_path, capsys):
        rc = cli.main(["roots", "--config", str(tmp_path / "nope.json"),
                       "--z", "0,0"])
        assert rc == 2

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli.main(["roots", "--config", str(bad), "--z", "0,0"]) == 2

    def test_unknown_config_key(self, config_path, tmp_path, capsys):
        raw = json.loads(pathlib.Path(config_path).read_text())
        raw["experiment"]["trails"] = 5
        pathlib.Path(config_path).write_text(json.dumps(raw))
        rc = cli.main(["mc-semiclassical", "--config", config_path,
                       "--out", str(tmp_path / "run")])
        assert rc == 2
        assert "'trails' in experiment" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_law_needed_only_by_monte_carlo(self, config_path, tmp_path,
                                            capsys):
        raw = json.loads(pathlib.Path(config_path).read_text())
        del raw["perturbation"]
        pathlib.Path(config_path).write_text(json.dumps(raw))
        assert cli.main(["roots", "--config", config_path,
                         "--z", "0.5,0.0"]) == 0
        assert cli.main(["weyl", "--config", config_path]) == 0
        capsys.readouterr()
        for argv in (["mc-semiclassical", "--out", str(tmp_path / "run")],
                     ["spectrum", "--h", "0.1", "--delta", "2e-4",
                      "--out", str(tmp_path / "spec")]):
            assert cli.main([*argv, "--config", config_path]) == 2
            assert "needs a perturbation law" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_mode_mismatch(self, config_path, tmp_path, capsys):
        rc = cli.main(["mc-highenergy", "--config", config_path,
                       "--out", str(tmp_path / "x")])
        assert rc == 2

    def test_no_plus_root_is_hypothesis_violation(self, config_path,
                                                  tmp_path, capsys):
        rc = cli.main(["quasimode", "--config", config_path, "--z", "5,5",
                       "--h", "0.1", "--out", str(tmp_path / "qm")])
        assert rc == 2

    def test_numerical_failure_maps_to_three(self, config_path, tmp_path,
                                             monkeypatch, capsys):
        def boom(*a, **kw):
            raise BranchLoss("stalled")
        monkeypatch.setattr(cli.quasimode, "build_quasimode", boom)
        rc = cli.main(["quasimode", "--config", config_path, "--z", "0.5,0.0",
                       "--h", "0.1", "--out", str(tmp_path / "qm")])
        assert rc == 3

    def test_helper_solver_failure_maps_to_three(self, config_path, tmp_path,
                                                 monkeypatch, capsys):
        # trial 9 is past the 8 pilots and in the helper's share
        raw = json.loads(pathlib.Path(config_path).read_text())
        raw["experiment"]["trials"] = 10
        pathlib.Path(config_path).write_text(json.dumps(raw))
        monkeypatch.setattr(harness, "WORKERS", 2)
        fail_at_trial(monkeypatch, 9)
        rc = cli.main(["mc-semiclassical", "--config", config_path,
                       "--out", str(tmp_path / "run")])
        assert rc == 3
        assert "trial 9" in capsys.readouterr().err
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("block, key, value", [
        ("experiment", "h_list", 0.1), ("experiment", "h_list", [0.1, None]),
        (None, "experiment", [])],
        ids=["h_list-number", "h_list-null-entry", "experiment-list"])
    def test_malformed_block_maps_to_two(self, config_path, tmp_path,
                                         capsys, block, key, value):
        raw = json.loads(pathlib.Path(config_path).read_text())
        (raw[block] if block else raw)[key] = value
        pathlib.Path(config_path).write_text(json.dumps(raw))
        rc = cli.main(["mc-semiclassical", "--config", config_path,
                       "--out", str(tmp_path / "run")])
        assert rc == 2
        assert "malformed experiment" in capsys.readouterr().err

    # int() used to truncate these (2.7 trials ran 2) or wrap them (an
    # order key "-1" wrote the top order)
    @pytest.mark.parametrize("path, value", [
        (("experiment", "trials"), 2.7), (("seed",), 42.9),
        (("perturbation", "K_q"), 16.5), (("perturbation", "alpha_min"), 0.5),
        (("perturbation", "alpha_max"), 0.5), (("symbol", "n"), 1.5),
        (("symbol", "m"), 2.5),
        (("symbol", "coeffs", "1.5"), [[0, 0, 0, 1.0, 0.0]]),
        (("symbol", "coeffs", "-1"), [[0, 0, 0, 1.0, 0.0]]),
        (("symbol", "coeffs", "2"), [[0.5, 0, 0, 1.0, 0.0]]),
        (("domains", 0), {"type": "disk", "radius": 0.3, "vertices": 12.5})],
        ids=["trials", "seed", "K_q", "alpha_min", "alpha_max", "n", "m",
             "order", "order-minus-1", "slot", "vertices"])
    def test_non_integral_field_maps_to_two(self, config_path, tmp_path,
                                            capsys, path, value):
        set_leaf(config_path, path, value)
        rc = cli.main(["mc-semiclassical", "--config", config_path,
                       "--out", str(tmp_path / "run")])
        assert rc == 2
        assert "must be an integer" in capsys.readouterr().err

    # every range check compares false with NaN, so these ran to the first
    # eigensolve or further
    @pytest.mark.parametrize("block, key, name", [
        ("perturbation", "rho", "rho_decay"), ("experiment", "gamma1", None),
        ("experiment", "N0", None), ("experiment", "delta", None)])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_field_maps_to_two(self, config_path, tmp_path,
                                          capsys, monkeypatch, block, key,
                                          name, value):
        raw = json.loads(pathlib.Path(config_path).read_text())
        raw[block][key] = value
        pathlib.Path(config_path).write_text(json.dumps(raw))
        solves = count_solves(monkeypatch)
        rc = cli.main(["mc-semiclassical", "--config", config_path,
                       "--out", str(tmp_path / "run")])
        assert rc == 2
        assert f"{name or key} must be finite" in capsys.readouterr().err
        assert solves == [] and not (tmp_path / "run").exists()

    # float() and int() read a JSON boolean as 1 or 0, so these ran 1 trial,
    # at delta = 1, at seed 0, with K_q = 1, up to re = 1, or as 0 + 1i
    @pytest.mark.parametrize("path, value", [
        (("experiment", "trials"), True), (("experiment", "delta"), True),
        (("seed",), False), (("perturbation", "K_q"), True),
        (("domains", 0, "re_max"), True),
        (("symbol", "coeffs", "0"), [[0, 0, 1, False, True]])],
        ids=["trials", "delta", "seed", "K_q", "re_max", "symbol-entry"])
    def test_boolean_field_maps_to_two(self, config_path, tmp_path, capsys,
                                       monkeypatch, path, value):
        set_leaf(config_path, path, value)
        solves = count_solves(monkeypatch)
        rc = cli.main(["mc-semiclassical", "--config", config_path,
                       "--out", str(tmp_path / "run")])
        assert rc == 2
        assert "must be a number, not" in capsys.readouterr().err
        assert solves == [] and not (tmp_path / "run").exists()

    # a null bound reached the domain and raised TypeError in validation:
    # exit 1 with a traceback
    @pytest.mark.parametrize("key", ["re_min", "im_max"])
    def test_null_domain_bound_maps_to_two(self, config_path, tmp_path,
                                           capsys, key):
        raw = json.loads(pathlib.Path(config_path).read_text())
        raw["domains"][0][key] = None
        pathlib.Path(config_path).write_text(json.dumps(raw))
        rc = cli.main(["mc-semiclassical", "--config", config_path,
                       "--out", str(tmp_path / "run")])
        assert rc == 2
        assert "malformed domains" in capsys.readouterr().err

    # a negative delta exited 2 as "below the rounding floor" once P was
    # assembled; a high-energy run took any delta, ran at 1 and echoed it
    @pytest.mark.parametrize("config, value, message", [
        ("config_path", -1e-3, "delta must be >= 0"),
        ("he_config_path", 0.5, "highenergy mode takes no delta"),
        ("he_config_path", 0.0, "highenergy mode takes no delta")],
        ids=["negative", "highenergy", "highenergy-zero"])
    def test_misread_delta_maps_to_two(self, request, tmp_path, monkeypatch,
                                       capsys, config, value, message):
        path = pathlib.Path(request.getfixturevalue(config))
        raw = json.loads(path.read_text())
        raw["experiment"]["delta"] = value
        path.write_text(json.dumps(raw))
        solves = count_solves(monkeypatch)
        assembled = []
        monkeypatch.setattr(harness.discretize, "assemble_operator",
                            lambda *args: assembled.append(args))
        rc = cli.main([f"mc-{raw['experiment']['mode']}", "--config",
                       str(path), "--out", str(tmp_path / "run")])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert solves == assembled == [] and not (tmp_path / "run").exists()

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_lambda_maps_to_two(self, he_config_path, tmp_path,
                                           capsys, value):
        raw = json.loads(pathlib.Path(he_config_path).read_text())
        raw["experiment"]["lambda_list"].append(value)
        pathlib.Path(he_config_path).write_text(json.dumps(raw))
        rc = cli.main(["mc-highenergy", "--config", he_config_path,
                       "--out", str(tmp_path / "run")])
        assert rc == 2
        assert "every lambda must be finite" in capsys.readouterr().err

    # these ran every trial and then exited 3, or wrote a repeated value's
    # rows twice
    @pytest.mark.parametrize("config, key, values", [
        ("config_path", "h_list", [0.1, 0.1, 0.1]),
        ("config_path", "h_list", [0.1, 0.1, 0.07]),
        ("he_config_path", "lambda_list", [4, 4, 16])],
        ids=["h-thrice", "h-twice", "lambda-twice"])
    def test_repeated_ladder_value_maps_to_two(self, request, tmp_path,
                                               monkeypatch, capsys, config,
                                               key, values):
        path = pathlib.Path(request.getfixturevalue(config))
        raw = json.loads(path.read_text())
        raw["experiment"][key] = values
        path.write_text(json.dumps(raw))
        solves = count_solves(monkeypatch)
        rc = cli.main([f"mc-{raw['experiment']['mode']}", "--config",
                       str(path), "--out", str(tmp_path / "run")])
        assert rc == 2
        assert f"{key} repeats a value" in capsys.readouterr().err
        assert solves == [] and not (tmp_path / "run").exists()

    # these exited 0 with an empty extras.dyadic, the last two with a
    # sector that has no interior
    @pytest.mark.parametrize("key, value, message", [
        ("r_in", 0.5, "a sector reaching r = 0"),
        ("r_out", 2.0, "so r_out = 1"),
        ("r_in", -0.5, "inner radius must lie in [0, r_out)"),
        ("r_in", 1.0, "inner radius must lie in [0, r_out)")])
    def test_sector_off_the_unit_origin_maps_to_two(
            self, he_config_path, tmp_path, monkeypatch, capsys, key, value,
            message):
        raw = json.loads(pathlib.Path(he_config_path).read_text())
        raw["domains"][0][key] = value
        pathlib.Path(he_config_path).write_text(json.dumps(raw))
        solves = count_solves(monkeypatch)
        rc = cli.main(["mc-highenergy", "--config", he_config_path,
                       "--out", str(tmp_path / "run")])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert solves == [] and not (tmp_path / "run").exists()
        assert multiprocessing.active_children() == []

    # an inverted rectangle counted nothing against W = 0 and exited 0;
    # K_q = 0 put all 1,281 eigenvalues of a high-energy run on one point;
    # a smallest lambda of 2^64 started K past the cap and asked for a
    # 256 GiB matrix; a disk of radius 0 or a polygon with a zero edge
    # divided 0 by 0 in its boundary gap, a negative radius counted in the
    # disk of radius 0.2, and collinear vertices ran the Weyl measure to
    # NonConvergence; 1e308 trials raised MemoryError building the trial
    # list; an integer past the float range (1 followed by 400 zeros)
    # raised OverflowError with exit 1, and a NaN vertex or disk centre
    # exited 2 only from the probe's root scan or the truncation rule, an
    # infinite radius from a NaN vertex, after a RuntimeWarning
    @pytest.mark.parametrize("config, path, value, message", [
        ("config_path", ("domains", 0, "re_min"), 0.8,
         "rectangle needs re_min < re_max"),
        ("config_path", ("domains", 0, "im_max"), -0.5,
         "rectangle needs re_min < re_max"),
        ("he_config_path", ("perturbation", "K_q"), 0, "K_q must be >= 1"),
        ("he_config_path", ("experiment", "lambda_list"), [2.0 ** 64],
         "past the cap 1024"),
        ("config_path", ("domains", 0),
         {"type": "disk", "center": [0.4, 0.0], "radius": 0.0},
         "disk radius must be positive"),
        ("config_path", ("domains", 0),
         {"type": "disk", "center": [0.4, 0.0], "radius": -0.2},
         "disk radius must be positive"),
        ("config_path", ("domains", 0),
         {"type": "polygon", "vertices": [[0.1, -0.3], [0.4, 0.0],
                                          [0.7, 0.3]]},
         "its vertices lie on one line"),
        ("config_path", ("domains", 0),
         {"type": "polygon", "vertices": [[0.1, -0.5], [0.7, -0.5],
                                          [0.7, -0.5], [0.4, 0.5]]},
         "repeats a vertex at consecutive corners"),
        ("config_path", ("experiment", "trials"), 1e308,
         "GiB of physical memory"),
        ("config_path", ("experiment", "trials"), 10 ** 400,
         "experiment trials is too large for a float"),
        ("config_path", ("seed",), 10 ** 400, "seed is too large"),
        ("config_path", ("perturbation", "K_q"), 10 ** 400,
         "perturbation K_q is too large"),
        ("config_path", ("symbol", "coeffs", "0", 0, 2), 10 ** 400,
         "symbol frequency is too large"),
        ("config_path", ("domains", 0),
         {"type": "polygon", "vertices": [[math.nan, 0.5], [0.7, -0.5],
                                          [0.1, -0.5]]},
         "polygon vertex 0 must be finite, not (nan+0.5j)"),
        ("config_path", ("domains", 0),
         {"type": "polygon", "vertices": [[0.1, -0.5], [0.7, -0.5],
                                          [0.4, math.inf]]},
         "polygon vertex 2 must be finite, not (0.4+infj)"),
        ("config_path", ("domains", 0),
         {"type": "disk", "center": [math.nan, 0.0], "radius": 0.2},
         "disk center must be finite, not (nan+0j)"),
        ("config_path", ("domains", 0),
         {"type": "disk", "center": [0.4, 0.0], "radius": math.inf},
         "disk radius must be positive and finite, not inf")],
        ids=["re-inverted", "im-flat", "K_q-zero", "lambda-past-cap",
             "disk-zero", "disk-negative", "polygon-collinear",
             "polygon-repeated", "trials-past-memory", "trials-huge",
             "seed-huge", "K_q-huge", "frequency-huge", "vertex-nan",
             "vertex-inf", "center-nan", "radius-inf"])
    def test_nothing_to_count_maps_to_two(self, request, tmp_path,
                                          monkeypatch, capsys, config, path,
                                          value, message):
        config_file = request.getfixturevalue(config)
        raw = set_leaf(config_file, path, value)
        solves = count_solves(monkeypatch)
        assembled = []
        monkeypatch.setattr(harness.discretize, "assemble_operator",
                            lambda *args: assembled.append(args))
        rc = cli.main([f"mc-{raw['experiment']['mode']}", "--config",
                       config_file, "--out", str(tmp_path / "run")])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert solves == assembled == [] and not (tmp_path / "run").exists()

    # the drivers counted in the first domain and ignored the others
    def test_second_domain_maps_to_two(self, config_path, he_config_path,
                                       tmp_path, monkeypatch, capsys):
        readme = json.loads(pathlib.Path(config_path).read_text())
        readme["perturbation"]["K_q"] = 128
        readme["experiment"].update(h_list=[0.1, 0.07, 0.05], trials=200)
        readme["seed"] = 42
        readme["domains"].append({"type": "rectangle", "re_min": -5.0,
                                  "re_max": -4.0, "im_min": 3.0,
                                  "im_max": 4.0})
        pathlib.Path(config_path).write_text(json.dumps(readme))
        he = json.loads(pathlib.Path(he_config_path).read_text())
        he["domains"].append(dict(he["domains"][0], theta_min=0.5))
        pathlib.Path(he_config_path).write_text(json.dumps(he))
        solves = count_solves(monkeypatch)
        for mode, path in (("semiclassical", config_path),
                           ("highenergy", he_config_path)):
            rc = cli.main([f"mc-{mode}", "--config", path,
                           "--out", str(tmp_path / mode)])
            assert rc == 2
            assert (f"{mode} runs count in one domain, and the config has 2"
                    in capsys.readouterr().err)
            assert solves == [] and not (tmp_path / mode).exists()
        # the Weyl measure of either domain is still there to ask for
        for index in ("0", "1"):
            assert cli.main(["weyl", "--config", config_path,
                             "--domain", index]) == 0
            measure = json.loads(capsys.readouterr().out)["measure"]
            assert (measure == 0.0) == (index == "1")

    def test_helper_failure_in_highenergy_maps_to_three(
            self, he_config_path, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(harness, "WORKERS", 2)
        fail_in_helper(monkeypatch, "rescaled")
        rc = cli.main(["mc-highenergy", "--config", he_config_path,
                       "--out", str(tmp_path / "run")])
        assert rc == 3
        assert "rescaled in a helper" in capsys.readouterr().err
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("index", ["3", "-1"])
    def test_domain_out_of_range_maps_to_two(self, config_path, capsys,
                                             index):
        rc = cli.main(["weyl", "--config", config_path, f"--domain={index}"])
        assert rc == 2
        assert f"--domain {index}" in capsys.readouterr().err

    def test_empty_window_maps_to_two(self, config_path, tmp_path, capsys,
                                      monkeypatch):
        # at delta = 8e-12 the floor is 7.04e-12 at h = 0.05 and 8.83e-12
        # at h = 0.3, which was checked after h = 0.05's 33 solves
        solves = count_solves(monkeypatch)
        for h_list, delta in (([0.1], 1e-18), ([0.05, 0.3], 8e-12)):
            raw = json.loads(pathlib.Path(config_path).read_text())
            raw["experiment"].update(h_list=h_list, delta=delta)
            pathlib.Path(config_path).write_text(json.dumps(raw))
            rc = cli.main(["mc-semiclassical", "--config", config_path,
                           "--out", str(tmp_path / "run")])
            assert rc == 2
            err = capsys.readouterr().err
            assert "rounding floor" in err and f"at h = {h_list[-1]};" in err
        assert solves == [] and not (tmp_path / "run").exists()


# A fixed sample of the config-mutation sweep: one leaf of a config at a
# time takes each of these values or is deleted.  A run may finish, refuse
# its config or fail numerically, but never raise, and a refusal comes
# before any eigensolve
SWEEP_VALUES = [None, True, "x", [], {}, -1, 0, 0.5, math.nan, math.inf,
                1e308, DELETE]
SWEEP_LEAVES = [
    ("config_path", ("experiment", "trials")),
    ("config_path", ("experiment", "h_list", 0)),
    ("config_path", ("symbol", "m")),
    ("config_path", ("perturbation", "rho")),
    ("config_path", ("perturbation", "K_q")),
    ("config_path", ("domains", 0, "re_max")),
    ("config_path", ("seed",)),
    ("config_path", ("symbol", "coeffs", "0", 0, 3)),
    ("he_config_path", ("experiment", "lambda_list", 1)),
    ("he_config_path", ("perturbation", "alpha_max")),
    ("he_config_path", ("domains", 0, "r_out")),
    ("he_config_path", ("domains", 0, "theta_max"))]


@pytest.mark.parametrize("value", SWEEP_VALUES, ids=lambda v: (
    "deleted" if v is DELETE else json.dumps(v)))
@pytest.mark.parametrize("config, path", SWEEP_LEAVES, ids=[
    config[:-len("config_path")] + ".".join(map(str, path))
    for config, path in SWEEP_LEAVES])
def test_config_mutation_sweep(request, tmp_path, monkeypatch, capsys,
                               config, path, value):
    config_file = request.getfixturevalue(config)
    set_leaf(config_file, path, value)
    monkeypatch.setattr(harness, "WORKERS", 1)
    solves = count_solves(monkeypatch)
    mode = "highenergy" if config == "he_config_path" else "semiclassical"
    rc = cli.main([f"mc-{mode}", "--config", config_file,
                   "--out", str(tmp_path / "run")])
    assert rc in (0, 2, 3)
    assert rc != 2 or solves == []


def test_readme_cli_lines_parse():
    """Every `weylab ...` line of the README's CLI block parses."""
    text = README.read_text()
    block = text[text.index("```sh\nweylab "):]
    block = block[:block.index("```", 3)]
    lines = [ln for ln in block.splitlines() if ln.startswith("weylab ")]
    assert len(lines) == 9
    parser = cli.build_parser()
    for line in lines:
        args = parser.parse_args(shlex.split(line, comments=True)[1:])
        assert args.func is not None, line
