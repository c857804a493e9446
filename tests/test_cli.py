import dataclasses
import json
import math
import pickle
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gainlab import cli, shaping
from gainlab.cli import KINDS, RUNNERS, _cell_seed, _fmt, load_config, main, validate
from gainlab.control import GainConfig, NotSettledError
from gainlab.dynamics import NonPositiveInertiaError, SimulationDivergedError, point_mass
from gainlab.noise import PerturbationDivergedError, discretize
from gainlab.retarget import FidelityOverflowError
from gainlab.shaping import ToyShapingProblem
from gainlab.sysid import CmaesAbortedError, FitResult, JitterOverflowError
from oracles import loop_shape_search, per_candidate_objective

VARIANCE_INI = """
[experiment]
kind = variance-check
seed = 11
out = {out}

[plant]
kind = point_mass
mass = 1.0

[grid]
kp = 2, 8
kd = 1, 4

[params]
sigma = 0.5
trials = 10
masses = 1
"""

TPR_INI = """
[experiment]
kind = tpr-sweep
seed = 5
out = {out}

[plant]
kind = point_mass
mass = 1.0

[grid]
kp = 16, 256
kd = 8
[params]
decimations = 1, 10, 25, 50
n_demos = 2
duration = 1.0
base_rate = 500
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestConfigAndValidate:
    def test_load_config_round_trip(self, tmp_path):
        path = write(tmp_path, "c.ini", VARIANCE_INI.format(out=tmp_path / "o"))
        cfg = load_config(path)
        assert cfg.kind == "variance-check"
        assert cfg.seed == 11
        assert list(cfg.grid.kp_values) == [2.0, 8.0]
        assert cfg.params["sigma"] == 0.5
        assert validate(cfg) == []

    def test_unknown_kind_flagged(self, tmp_path):
        cfg = load_config(write(tmp_path, "c.ini",
                                VARIANCE_INI.replace("variance-check", "nonsense")
                                .format(out=tmp_path)))
        findings = validate(cfg)
        assert any("kind" in f for f in findings)

    def test_coarse_dt_flagged(self, tmp_path):
        text = VARIANCE_INI.format(out=tmp_path) + "dt = 0.1\n"
        cfg = load_config(write(tmp_path, "c.ini", text))
        findings = validate(cfg)
        assert any("dt too coarse" in f for f in findings)

    def test_validate_cli_exit_codes(self, tmp_path):
        good = write(tmp_path, "good.ini", VARIANCE_INI.format(out=tmp_path))
        assert main(["validate", "--config", good]) == 0
        bad = write(tmp_path, "bad.ini",
                    VARIANCE_INI.replace("kp = 2, 8", "kp =").format(out=tmp_path))
        assert main(["validate", "--config", bad]) == 1


STATS_INI = """
[experiment]
kind = stats-report
seed = 0
out = {out}

[params]
input = {input}
"""


class TestStatsReportValidation:
    @pytest.mark.parametrize("key,value", [("alternative", "grater"),
                                           ("metric", "succes")])
    def test_unknown_choice_rejected_before_any_work(self, tmp_path, key, value):
        out = tmp_path / "s"
        text = STATS_INI.format(out=out, input=tmp_path / "missing.csv") \
            + f"{key} = {value}\n"
        findings = validate(load_config(write(tmp_path, "s.ini", text)))
        assert len(findings) == 1 and findings[0].startswith(f"params.{key}:")
        assert value in findings[0]
        path = write(tmp_path, "s.ini", text)
        assert main(["validate", "--config", path]) == 1
        assert main(["run", "--config", path]) == 1
        assert not out.exists()

    def test_known_choices_pass(self, tmp_path):
        text = STATS_INI.format(out=tmp_path / "s", input=tmp_path / "in.csv") \
            + "alternative = less\nmetric = error\n"
        assert validate(load_config(write(tmp_path, "s.ini", text))) == []


SHAPE_INI = """
[experiment]
kind = shape-search
seed = 4
out = {out}

[plant]
kind = point_mass
mass = 1.0
torque_limit = 300
torque_rate_limit = 20000

[grid]
kp = {kp}
kd = {kd}

[params]
budget = 4
episodes = 2
eval_episodes = 2
"""


class TestValidateFindings:
    """A bad param is one finding: `validate` and `run` exit 1 before any work."""

    def assert_reported(self, tmp_path, text, key, seed=None):
        # a seed given to `run --seed`, which `validate` does not take
        out = tmp_path / "o"
        path = write(tmp_path, "c.ini", text.format(out=out))
        config, flags = load_config(path), []
        if seed is not None:
            config, flags = dataclasses.replace(config, seed=seed), ["--seed", str(seed)]
        findings = validate(config)
        assert len(findings) == 1 and findings[0].startswith(f"{key}:"), findings
        assert main(["validate", "--config", path]) == (0 if flags else 1)
        assert main(["run", "--config", path, *flags]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("params,key", [
        ("trials = many\n", "params.trials"),
        ("trials = 0\n", "params.trials"),
        # a batch-means standard error needs two trials
        ("trials = 1\n", "params.trials"),
        ("trials = 2, 3\n", "params.trials"),
        ("trials = inf\n", "params.trials"),
        ("masses = heavy\n", "params.masses"),
        ("masses = 1, 0\n", "params.masses"),
        ("masses = ,\n", "params.masses"),
        # the run uses params.masses, not the plant mass, for omega_n
        ("masses = 0.001\ndt = 0.02\n", "params.dt"),
        ("dt = fine\n", "params.dt"),
        ("mode = sampled\n", "params.mode"),
        ("mode = held\n", "params.rate"),
        ("mode = held\nrate = -5\n", "params.rate"),
        # an explicit dt must divide the 1/rate hold, as the run requires
        ("mode = held\nrate = 50\ndt = 0.003\n", "params.dt"),
        # the kd = 1 cells discard their first 10 time constants, 20 s
        ("horizon = -1\n", "params.horizon"),
        ("horizon = 15\n", "params.horizon"),
        ("horizon = long\n", "params.horizon"),
    ])
    def test_variance_check_params(self, tmp_path, params, key):
        text = VARIANCE_INI.replace("trials = 10\n", "").replace("masses = 1\n", "")
        self.assert_reported(tmp_path, text + params, key)

    @pytest.mark.parametrize("kind,line,key", [
        ("noisy-replay", "sigma = -0.05", "params.sigma"),
        ("noisy-replay", "sigma = inf", "params.sigma"),
        ("jitter-scan", "sigma = -0.02", "params.sigma"),
        ("variance-check", "sigma = -0.5", "params.sigma"),
        ("variance-check", "sigma = nan", "params.sigma"),
        ("shape-search", "episodes = 0", "params.episodes"),
        ("shape-search", "eval_episodes = 0", "params.eval_episodes"),
        ("noisy-replay", "decimation = 0", "params.decimation"),
        ("jitter-scan", "decimation = -1", "params.decimation"),
        ("tpr-sweep", "decimations = 1, 0", "params.decimations"),
        ("tpr-sweep", "decimations = often", "params.decimations"),
    ])
    def test_sigma_and_counts(self, tmp_path, kind, line, key):
        self.assert_pinned_reported(tmp_path, kind, line, key)

    @pytest.mark.parametrize("kind,line,key", [
        ("noisy-replay", "base_rate = -500", "params.base_rate"),
        ("noisy-replay", "base_rate = inf", "params.base_rate"),
        ("noisy-replay", "duration = 0", "params.duration"),
        ("noisy-replay", "duration = -1", "params.duration"),
        ("tpr-sweep", "duration = nan", "params.duration"),
        ("jitter-scan", "base_rate = fast", "params.base_rate"),
    ])
    def test_demo_base_rate_and_duration(self, tmp_path, kind, line, key):
        # the demos these kinds replay are sampled at base_rate for duration
        # seconds; a bad value used to fail every cell at run time instead
        self.assert_pinned_reported(tmp_path, kind, line, key)

    @pytest.mark.parametrize("kind,line,key", [
        # each of these used to pass validate and then run with a default, a
        # truncated or cast value, or fail every cell
        ("noisy-replay", "trails = 5", "params.trails"),
        ("noisy-replay", "sigam = 0.3", "params.sigam"),
        ("noisy-replay", "trials = 2.5", "params.trials"),
        ("noisy-replay", "trials = true", "params.trials"),
        ("noisy-replay", "goal_tol = -1", "params.goal_tol"),
        ("tpr-sweep", "decimations = ,", "params.decimations"),
        ("variance-check", "rate = 0", "params.rate"),
        ("jitter-scan", "threshold = nan", "params.threshold"),
        ("jitter-scan", "window = 2.0", "params.window"),  # the demo lasts 1 s
        ("jitter-scan", "window = 0.001", "params.window"),  # under one sample
        ("stats-report", "alpha = 2", "params.alpha"),
        ("stats-report", "region = true", "params.region"),
        ("compliance-probe", "probe_force = 0", "params.probe_force"),
        ("compliance-probe", "settle_time = 0", "params.settle_time"),
        ("sysid-sweep", "sigma0 = 0", "params.sigma0"),
        ("shape-search", "budget = 1.5", "params.budget"),
        # a negative seed failed the run in numpy ("expected non-negative
        # integer"); the kinds that draw nothing reject it as well
        ("tpr-sweep", "seed = -1", "experiment.seed"),
        ("tpr-sweep", "--seed -2", "experiment.seed"),
        ("compliance-probe", "seed = -1", "experiment.seed"),
        ("stats-report", "seed = -1", "experiment.seed"),
    ])
    def test_reproduced_holes(self, tmp_path, kind, line, key):
        self.assert_pinned_reported(tmp_path, kind, line, key)

    def test_stats_report_without_input(self, tmp_path):
        text = STATS_INI.format(out="{out}", input="").replace("input = \n", "region = CO\n")
        self.assert_reported(tmp_path, text, "params.input")

    def assert_pinned_reported(self, tmp_path, kind, line, key):
        # the kind's pinned config, with the line's key set to a bad value: a
        # param, the [experiment] seed, or the `run --seed` flag
        name = line.split(" = ")[0]
        body = "".join(ln for ln in PINNED[kind][0].splitlines(keepends=True)
                       if not ln.startswith(f"{name} ="))
        seed, flag = "seed = 7", None
        if name == "seed":
            seed, line = line, ""
        elif line.startswith("--seed "):
            flag, line = int(line.split()[1]), ""
        text = f"[experiment]\nkind = {kind}\n{seed}\nout = {{out}}\n\n{body}{line}\n"
        self.assert_reported(tmp_path, text, key, seed=flag)

    def test_variance_check_short_horizon_validates_without_warning(self, tmp_path):
        # 30 s is under 20 time constants of the kd = 1 cells, which only the
        # run warns about, and over their 20 s burn-in
        cfg = load_config(write(tmp_path, "c.ini", VARIANCE_INI.format(out=tmp_path / "o")
                                + "horizon = 30\n"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert validate(cfg) == []

    def test_variance_check_dt_fits_the_lightest_listed_mass(self, tmp_path):
        text = VARIANCE_INI.replace("masses = 1\n", "masses = 1, 4\ndt = 0.01\n")
        assert validate(load_config(write(tmp_path, "c.ini",
                                          text.format(out=tmp_path / "o")))) == []

    def test_stats_report_m(self, tmp_path):
        text = STATS_INI.format(out="{out}", input=tmp_path / "in.csv")
        self.assert_reported(tmp_path, text + "m = 0\n", "params.m")

    def test_shape_search_cells(self, tmp_path):
        text = SHAPE_INI.format(out="{out}", kp=16, kd=8)
        self.assert_reported(tmp_path, text + "cells = everything\n", "params.cells")

    def test_non_numeric_grid(self, tmp_path):
        self.assert_reported(tmp_path, VARIANCE_INI.replace("kp = 2, 8", "kp = 2, eight"),
                             "grid")


class TestRunExperiments:
    def test_variance_check_outputs_and_determinism(self, tmp_path):
        out1 = tmp_path / "o1"
        out2 = tmp_path / "o2"
        path = write(tmp_path, "c.ini", VARIANCE_INI.format(out=out1))
        assert main(["run", "--config", path]) == 0
        rows = (out1 / "results.csv").read_text().strip().splitlines()
        assert rows[0] == "kp,kd,mass,sigma,mode,empirical_var,stderr,analytic_var"
        assert len(rows) == 1 + 4  # 2x2 grid, one mass
        assert main(["run", "--config", path, "--out", str(out2)]) == 0
        m1 = json.loads((out1 / "manifest.json").read_text())
        m2 = json.loads((out2 / "manifest.json").read_text())
        assert m1["files"] == m2["files"]
        for name, digest in m1["files"].items():
            assert (out1 / name).exists()

    def test_variance_check_held_default_dt_divides_the_hold(self, tmp_path):
        # the default 0.02/omega_n divides 1/50 s only for kp/m = 2/2 and 8/2
        out = tmp_path / "held"
        text = VARIANCE_INI.replace("masses = 1\n", "masses = 1, 2, 4\nmode = held\n"
                                    "rate = 50\n")
        path = write(tmp_path, "c.ini", text.format(out=out))
        assert main(["run", "--config", path]) == 0
        assert len((out / "results.csv").read_text().strip().splitlines()) == 1 + 12
        # omega_n = sqrt(kp / 1.0)
        assert discretize(GainConfig(kp=1.0, kd=1.0), 1.0, 50.0)[0] == 0.02
        assert discretize(GainConfig(kp=4.0, kd=1.0), 1.0, 50.0)[0] == 0.01
        assert discretize(GainConfig(kp=2.0, kd=1.0), 1.0, 50.0)[0] == 0.02 / 2
        assert discretize(GainConfig(kp=0.5, kd=1.0), 1.0, 50.0)[0] == 0.02
        assert discretize(GainConfig(kp=2.0, kd=1.0), 1.0, None)[0] == 0.02 / math.sqrt(2.0)

    def test_variance_check_unstable_cell_fails_typed(self, tmp_path):
        # Kd*dt/m = 2.86 at the default dt: the step is unstable, and the cell
        # fails before any step instead of overflowing
        out = tmp_path / "unstable"
        text = VARIANCE_INI.replace("kp = 2, 8\nkd = 1, 4", "kp = 16\nkd = 128").replace(
            "masses = 1\n", "masses = 0.05\n")
        path = write(tmp_path, "c.ini", text.format(out=out))
        assert main(["validate", "--config", path]) == 0
        assert main(["run", "--config", path]) == 2
        failures = (out / "failures.csv").read_text().splitlines()
        assert failures[1].startswith("0,PerturbationDivergedError('perturbation step unstable")
        assert "b = Kd*dt/m = 2.862" in failures[1]

    def test_tpr_sweep_protocol_decimations(self, tmp_path):
        out = tmp_path / "tpr"
        path = write(tmp_path, "t.ini", TPR_INI.format(out=out))
        assert main(["run", "--config", path]) == 0
        rows = (out / "results.csv").read_text().strip().splitlines()[1:]
        decs = sorted({int(r.split(",")[2]) for r in rows})
        assert decs == [1, 10, 25, 50]
        assert (out / "heatmap_mse_dec25.csv").exists()

    def test_worker_count_does_not_change_results(self, tmp_path):
        out1, out2 = tmp_path / "w1", tmp_path / "w2"
        path = write(tmp_path, "c.ini", VARIANCE_INI.format(out=out1))
        assert main(["run", "--config", path]) == 0
        assert main(["run", "--config", path, "--out", str(out2),
                     "--workers", "3"]) == 0
        a = json.loads((out1 / "manifest.json").read_text())["files"]
        b = json.loads((out2 / "manifest.json").read_text())["files"]
        assert a == b

    @pytest.mark.parametrize("kp,kd,cells", [
        ("64", "16", ["64,16"]),
        ("16, 64", "8", ["16,8", "64,8"]),
        ("16", "2, 8", ["16,8", "16,2"]),
    ])
    def test_shape_corners_run_once_each(self, tmp_path, kp, kd, cells):
        # on a grid with one Kp or one Kd value some corners coincide
        out = tmp_path / "shape"
        path = write(tmp_path, "s.ini", SHAPE_INI.format(out=out, kp=kp, kd=kd))
        assert main(["run", "--config", path]) == 0
        rows = (out / "results.csv").read_text().strip().splitlines()[1:]
        assert [",".join(r.split(",")[:2]) for r in rows] == cells
        assert len(list(out.glob("ledger_*.csv"))) == len(cells)

    def test_per_cell_failures_land_in_ledger(self, tmp_path):
        # neither cell settles within 0.5 s: every cell raises, the
        # completed (empty) tables still get written, exit code 2
        text = """
[experiment]
kind = compliance-probe
seed = 3
out = {out}

[plant]
kind = point_mass
mass = 1.0

[grid]
kp = 16, 64
kd = 8

[params]
settle_time = 0.5
"""
        out = tmp_path / "probe"
        path = write(tmp_path, "p.ini", text.format(out=out))
        assert main(["run", "--config", path]) == 2
        failures = (out / "failures.csv").read_text().strip().splitlines()
        assert failures[0] == "cell,error"
        assert len(failures) == 3  # both cells failed
        assert all("NotSettledError" in f for f in failures[1:])
        assert (out / "results.csv").exists()

    def test_missing_input_is_runtime_failure(self, tmp_path):
        text = """
[experiment]
kind = stats-report
seed = 0
out = {out}

[params]
input = {missing}
""".format(out=tmp_path / "s", missing=tmp_path / "nope.csv")
        path = write(tmp_path, "s.ini", text)
        assert main(["run", "--config", path]) == 2
        assert (tmp_path / "s" / "failures.csv").exists()


SYSID_INI = """
[experiment]
kind = sysid-sweep
seed = 2
out = {out}

[grid]
kp = 64
kd = 8

[params]
iters = {iters}
"""

# No torque limit: alphas above ~7 make this stiff, light point mass
# overflow inside the rollout loop (3 of the 16 candidates at seed 5).
DIVERGING_SHAPE_INI = """
[experiment]
kind = shape-search
seed = 5
out = {out}

[plant]
kind = point_mass
mass = 0.5

[grid]
kp = 4096
kd = 8

[params]
budget = 16
episodes = 2
eval_episodes = 2
cells = all
"""


class TestRunConfigs:
    """`gainlab run` on one config per job: the shape ledger, the stats
    report and the sysid sidecars and bounds file."""

    def test_shape_single_cell(self, tmp_path):
        out = tmp_path / "shape"
        text = SHAPE_INI.format(out=out, kp=64, kd=16).replace(
            "budget = 4\nepisodes = 2\neval_episodes = 2\n", "budget = 16\ncells = all\n")
        path = write(tmp_path, "s.ini", text.replace("seed = 4", "seed = 1"))
        assert main(["run", "--config", path]) == 0
        ledger = (out / "ledger_kp64_kd16.csv").read_text().strip().splitlines()
        assert ledger[0].split(",") == [
            "trial", "alpha1", "alpha2", "beta", "gamma", "J", "success",
            "viol_pos", "viol_vel", "viol_tau", "viol_taurate"]
        assert len(ledger) == 17

    def test_shape_candidates_diverging_in_the_loop(self, tmp_path):
        # a diverged candidate is ledgered J = -1 with NaN rates, and the
        # ledger equals the one-candidate-at-a-time search's, row for row
        out = tmp_path / "shape"
        path = write(tmp_path, "s.ini", DIVERGING_SHAPE_INI.format(out=out))
        assert main(["run", "--config", path]) == 0
        assert not (out / "failures.csv").exists()
        _, *rows = (out / "ledger_kp4096_kd8.csv").read_text().strip().splitlines()
        seed = _cell_seed(5, 0)
        problem = ToyShapingProblem(point_mass(0.5), GainConfig(kp=4096.0, kd=8.0),
                                    episodes=2, seed=seed)
        want = loop_shape_search(per_candidate_objective(problem), 16, seed=seed)
        assert rows == [",".join(_fmt(v) for v in (
            i, m.alpha, m.alpha, m.beta, m.gamma, j if math.isfinite(j) else -1.0,
            d["success"], d["position"], d["velocity"], d["torque"], d["torque_rate"]))
            for i, ((m, j), d) in enumerate(zip(want.ledger, problem.details, strict=True))]
        diverged = [r for r in rows if r.split(",")[5] == "-1"]
        assert len(diverged) == 3
        assert all(r.split(",")[6:] == ["nan"] * 5 for r in diverged)

    def test_stats_report(self, tmp_path):
        rng = np.random.default_rng(0)
        lines = ["kp,kd,successes,trials"]
        for kd in (2, 32):
            for kp in (16, 1024):
                p = 0.9 if (kp == 16 and kd == 32) else 0.4
                lines.append(f"{kp},{kd},{rng.binomial(100, p)},100")
        sweep = write(tmp_path, "sweep.csv", "\n".join(lines) + "\n")
        out = tmp_path / "stats"
        text = STATS_INI.format(out=out, input=sweep) \
            + "region = CO\nmetric = success\nalternative = greater\nm = 6\n"
        assert main(["run", "--config", write(tmp_path, "s.ini", text)]) == 0
        report = (out / "report.csv").read_text().strip().splitlines()
        assert report[0] == "test,region,statistic,p,alpha_adj,reject"
        assert "barnard_exact" in report[1]
        assert (out / "summary.txt").read_text().startswith("barnard_exact")

    def test_sysid_run_writes_history_sidecars(self, tmp_path):
        out = tmp_path / "sysid"
        path = write(tmp_path, "s.ini", SYSID_INI.format(out=out, iters=5))
        assert main(["run", "--config", path]) == 0
        rows = (out / "results.csv").read_text().strip().splitlines()
        assert rows[0].startswith("kp,kd,final_loss,evals,")
        assert (out / "history_kp64_kd8.csv").exists()

    def test_sysid_bounds_file_narrows_search(self, tmp_path):
        bounds = write(tmp_path, "bounds.ini",
                       "[bounds]\narmature = 0.2, 0.25\n"
                       "viscous_friction = 0.0, 0.1\n")
        out = tmp_path / "sysid_b"
        text = SYSID_INI.format(out=out, iters=5) + f"bounds = {bounds}\n"
        assert main(["run", "--config", write(tmp_path, "s.ini", text)]) == 0
        header, row = (out / "results.csv").read_text().strip().splitlines()
        vals = dict(zip(header.split(","), row.split(",")))
        assert 0.2 <= float(vals["armature"]) <= 0.25
        assert 0.0 <= float(vals["viscous_friction"]) <= 0.1

    def test_sysid_bounds_file_naming_an_unsearched_parameter_fails(self, tmp_path):
        bounds = write(tmp_path, "bounds.ini",
                       "[bounds]\narmature = 0.2, 0.25\nstiffness = 10, 100\n")
        out = tmp_path / "sysid_s"
        text = SYSID_INI.format(out=out, iters=2) + f"bounds = {bounds}\n"
        assert main(["run", "--config", write(tmp_path, "s.ini", text)]) == 2
        assert "'stiffness'" in (out / "failures.csv").read_text()

    def test_unknown_args_fail(self):
        with pytest.raises(SystemExit):
            main(["run"])  # missing --config

    @pytest.mark.parametrize("command", ["sysid", "shape", "stats"])
    def test_only_run_and_validate(self, command, capsys):
        with pytest.raises(SystemExit):
            main([command, "--config", "c.ini"])
        assert f"invalid choice: '{command}'" in capsys.readouterr().err


class TestUnparseableConfig:
    """A config that cannot be loaded is a validation error (exit 1) for
    `run` as for `validate`, and nothing is written."""

    @pytest.mark.parametrize("line", ["masss = 1.0", "mass = nan", "mass = inf",
                                      "torque_limit = -5", "torque_limit = 0",
                                      "viscous_friction = nan"])
    def test_exit_1(self, tmp_path, line):
        out = tmp_path / "o"
        text = VARIANCE_INI.replace("mass = 1.0", line).format(out=out)
        path = write(tmp_path, "c.ini", text)
        assert main(["validate", "--config", path]) == 1
        assert main(["run", "--config", path]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("old,new", [("[params]", "[parms]"), ("seed = 11", "seeed = 3"),
                                         ("kd = 1, 4", "kd = 1, 4\nkpp = 2")])
    def test_unknown_section_or_key_exit_1(self, tmp_path, old, new):
        out = tmp_path / "o"
        path = write(tmp_path, "c.ini", VARIANCE_INI.replace(old, new).format(out=out))
        assert main(["validate", "--config", path]) == 1
        assert main(["run", "--config", path]) == 1
        assert not out.exists()

    def test_missing_file(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.ini")]) == 1

    def test_degenerate_two_link_plant_exit_1(self, tmp_path, capsys):
        # M00 = (m1 + m2) l1^2 + m2 l2^2 - 2 m2 l1 l2 rounds to 0 at q2 = pi
        self.assert_unloadable_two_link(tmp_path, capsys, "1e-20, 1.0", "1.0, 1.0")

    def test_singular_two_link_plant_exit_1(self, tmp_path, capsys):
        # a positive diagonal, but det M = m1 m2 l1^2 l2^2 rounds to 0 at
        # q2 = pi: this plant loaded, and a run that stepped it (a
        # compliance-probe at Kp 16, Kd 8) failed with LinAlgError('Singular matrix')
        self.assert_unloadable_two_link(tmp_path, capsys, "1e-16, 1.0", "0.5, 1.0")

    def assert_unloadable_two_link(self, tmp_path, capsys, masses, lengths):
        out = tmp_path / "o"
        text = VARIANCE_INI.replace("kind = point_mass\nmass = 1.0", "kind = two_link\n"
                                    f"link_masses = {masses}\nlink_lengths = {lengths}")
        path = write(tmp_path, "c.ini", text.format(out=out))
        assert main(["validate", "--config", path]) == 1
        assert main(["run", "--config", path]) == 1
        assert not out.exists()
        assert "cannot parse config: non-positive effective inertia" in capsys.readouterr().err


# One small config per kind, run from inside tmp_path so every input path
# (and with it the manifest's params) is relative. Each case pins the
# manifest's `files` hashes; three of the compliance probe's four cells do
# not settle within 2 s, so its failures.csv is pinned too.
_POINT_MASS = "[plant]\nkind = point_mass\nmass = 1.0\n\n"
PINNED = {
    "tpr-sweep": (_POINT_MASS + """[grid]
kp = 16, 256
kd = 8

[params]
decimations = 1, 10
n_demos = 2
duration = 0.5
""", 0, {
        "heatmap_mse_dec1.csv": "b5956f0080e7f2538251382bc3884bf055f35c3e9d95050c30fde1413ae8aa32",
        "heatmap_mse_dec10.csv": "4a64638daab98c6ec1814ad75bb2eebf26801601226567fc4727755dc3415f82",
        "results.csv": "35bff45c12f4d325f780dcd33b5513c28ec598f830276e4d24b923ab2714e3cb"}),
    "variance-check": (_POINT_MASS + """[grid]
kp = 2, 8
kd = 1, 4

[params]
sigma = 0.5
trials = 5
masses = 1, 2
""", 0, {
        "heatmap_rel_err.csv": "2bb483852d75235179d85acf1c9ad39bd53b0e853ae68e58d27fa0bb07b77571",
        "results.csv": "96adcffa2701ffa649383bc04d87caa19460e4e5af6810858684b2bc6762fb3f"}),
    "noisy-replay": (_POINT_MASS + """[grid]
kp = 16, 256
kd = 8

[params]
duration = 0.5
trials = 3
""", 0, {
        "heatmap_goal_rate.csv": "535f24a66dd06ca6ffd6cab01769ff50a57ac03c5fbaf53da1db1626d0c8e383",
        "heatmap_rms_deviation.csv": "472dbd62b9a37212b54f28bf1388967fc6d1806ae76edd5d0272beeba1c82a52",
        "results.csv": "0ae22b0f9b5804cc2c3414b9b426704aab728d52c72d35e89eff805dbc9381f0"}),
    "sysid-sweep": ("""[grid]
kp = 64
kd = 8, 16

[params]
iters = 2
bounds = bounds.ini
""", 0, {
        "heatmap_final_loss.csv": "a695fa87969128ee680132417a7745f279725d963e0fa9862a952631a733299a",
        "history_kp64_kd16.csv": "b81d5bb44d3bae8c24bd0c392470e3158f996963d9e766bd560e7b2eaf500761",
        "history_kp64_kd8.csv": "aaa92b4919af34cf20e6a31caae7fb26e9b7b18331cbff6a712589ff8a19b51e",
        "results.csv": "c4132eb4af37dfbe43ec39232e9ea48025d67749d1660b5bedf954d6f5f2e4b3"}),
    "shape-search": ("""[plant]
kind = point_mass
mass = 1.0
torque_limit = 300
torque_rate_limit = 20000

[grid]
kp = 16, 1024
kd = 2, 128

[params]
budget = 4
episodes = 2
eval_episodes = 2
""", 0, {
        "ledger_kp1024_kd128.csv": "df5d9b1bbe86c8e103be6f1ddbcfd3ddf8d4110cfdeb8b58bf3e7c8fd4f5e0e1",
        "ledger_kp1024_kd2.csv": "70f315914357d23649905ce01a408291a52a5ff7e98d0daed7e1e13fbd6b3d91",
        "ledger_kp16_kd128.csv": "c62c4e245a553982261752fbc18e91c3e972d7dc18d5c5395d75b072b1dcb797",
        "ledger_kp16_kd2.csv": "28b5f7f98433a212b2c8d3dfedb9f7d1fbd52b4c136782cc05c614ce134c811f",
        "results.csv": "3b3b13b349ea3422b63454b12a4a019d4d3cb7bacdca42182f197d4414aedda0"}),
    "stats-report": (_POINT_MASS + """[params]
input = sweep.csv
region = SO
metric = error
alternative = greater
""", 0, {
        "report.csv": "fcb8d782d2f1bc23ee71bddce64aa17e1a5b0198e87843a09b3e96898884777a",
        "summary.txt": "b723e91720dd49e87303c2380dda0ca88fc8a326e057eca2bdee27583c2351f2"}),
    "compliance-probe": (_POINT_MASS + """[grid]
kp = 16, 256
kd = 1, 40

[params]
settle_time = 2.0
""", 2, {
        "failures.csv": "8ad65b7299d92608670a43663ec5d1df0031b027cc55fd07fd0afb791425544c",
        "heatmap_k_eff.csv": "f940d353a8adffcf983ce80f0b27d8ddd3c156475b2c8c12347d547da3ae08cb",
        "results.csv": "8e62b9741891b1113439f8c330656789496a47be207941338d2b07e8676ed0ca"}),
    "jitter-scan": (_POINT_MASS + """[grid]
kp = 16, 256
kd = 8

[params]
duration = 1.0
window = 0.5
""", 0, {
        "heatmap_max_std.csv": "d9a52dbb1cce7f8a82445d5f15a2bd42d2ccbbf6e86bc6ffa205eb992a8f8eff",
        "results.csv": "e27638de63588c438f51ec4eec83c7b6dedfc78447c94db42ec238859c8f402b"}),
}

PINNED_INPUTS = {
    "bounds.ini": "[bounds]\narmature = 0.2, 0.25\n",
    # SO holds two cells (an even-length median), its complement five
    "sweep.csv": "kp,kd,successes,trials,error\n16,2,3,10,0.011\n"
                 "1024,2,4,10,0.012\n16,128,9,10,0.009\n1024,128,5,10,0.04\n"
                 "1024,64,5,10,0.045\n16,32,3,10,0.013\n1024,32,4,10,0.05\n",
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("kind", KINDS)
def test_every_kind_has_pinned_manifest_files(kind, workers, tmp_path, monkeypatch):
    text, rc, files = PINNED[kind]  # a kind with no pinned case fails here
    monkeypatch.chdir(tmp_path)
    for name, content in PINNED_INPUTS.items():
        (tmp_path / name).write_text(content)
    (tmp_path / "c.ini").write_text(
        f"[experiment]\nkind = {kind}\nseed = 7\nout = out\n\n{text}")
    assert main(["run", "--config", "c.ini", "--workers", str(workers)]) == rc
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["files"] == files


# The two-link arm's paths: a gravity-compensated replay (tpr_joint and the
# tracking law add g(q)) and the sinusoidal excitation of sysid-sweep.
_TWO_LINK = "[plant]\nkind = two_link\nlink_masses = 1.0, 0.8\nlink_lengths = 0.5, 0.4\n"
PINNED_TWO_LINK = {
    "tpr-sweep": (_TWO_LINK + """gravity_enabled = true

[grid]
kp = 64, 512
kd = 8

[params]
decimations = 1, 10
n_demos = 2
duration = 0.5
""", {
        "heatmap_mse_dec1.csv": "9bf03b2353e79bb8deed4c80a48c0b7bc63777df49679ee00115ef2d365ac265",
        "heatmap_mse_dec10.csv": "a0b2a0e3715fc9db26f5b64b96f5bd3830a0fcbaa9a0728149526789656e1f1f",
        "results.csv": "8f25008959f49f276697b7e66ba8f041a00ea74cc57e964eb55bb7e519a7d267"}),
    "sysid-sweep": (_TWO_LINK + """
[grid]
kp = 64
kd = 8, 16

[params]
iters = 2
""", {
        "heatmap_final_loss.csv": "1bc7ac7fdc425b602dce9e36ad27e7298767cb95c24dd41418f712bfb38c091c",
        "history_kp64_kd16.csv": "b4a7910ca51689696d36bd8240db0f5d19e36ded7dfab852d0aad0b29e2d1b02",
        "history_kp64_kd8.csv": "368a35aa65ad6d271e312918733380d0205c409bac7b66832c6c8686f918515a",
        "results.csv": "39be2b08979337d2f868a74c7f7d1eb9f830b4e1585fa0c19414bc0887ce7df0"}),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("kind", sorted(PINNED_TWO_LINK))
def test_two_link_manifest_files_pinned(kind, workers, tmp_path, monkeypatch):
    text, files = PINNED_TWO_LINK[kind]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.ini").write_text(
        f"[experiment]\nkind = {kind}\nseed = 7\nout = out\n\n{text}")
    assert main(["run", "--config", "c.ini", "--workers", str(workers)]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["files"] == files


# Budget 40 gives each shape-search branch two CMA-ES generations, which the
# branches run in lockstep; the ledgers keep their branch-major rows.
MULTI_GENERATION_SHAPE = PINNED["shape-search"][0].replace(
    "kp = 16, 1024\nkd = 2, 128", "kp = 16, 1024\nkd = 8").replace("budget = 4", "budget = 40")


@pytest.mark.parametrize("workers", [1, 2])
def test_multi_generation_shape_ledgers_pinned(workers, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.ini").write_text(
        f"[experiment]\nkind = shape-search\nseed = 7\nout = out\n\n{MULTI_GENERATION_SHAPE}")
    assert main(["run", "--config", "c.ini", "--workers", str(workers)]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["files"] == {
        "ledger_kp1024_kd8.csv": "186849f9c5447b4ecbf6aba437d9967201c6090c3c8db566de09c5b8c3cc21fe",
        "ledger_kp16_kd8.csv": "54ae33c496141d05db64d4641550f61d969e575984ad1b7c7179a655cd429f37",
        "results.csv": "aa5ce48451b27cef7daf77db1b35a12fbf63d0b787e6497c99d66059761d0400"}


# The same search on a 2-joint chain: each lane's one alpha scales both
# joints' actions.
CHAIN_SHAPE = MULTI_GENERATION_SHAPE.replace("kind = point_mass\nmass = 1.0",
                                             "kind = chain\nmass = 1.0, 0.5")


@pytest.mark.parametrize("workers", [1, 2])
def test_chain_shape_ledgers_pinned(workers, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.ini").write_text(
        f"[experiment]\nkind = shape-search\nseed = 7\nout = out\n\n{CHAIN_SHAPE}")
    assert main(["run", "--config", "c.ini", "--workers", str(workers)]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["files"] == {
        "ledger_kp1024_kd8.csv": "a539055377b9556aeda2c35ae5607e9bb39d2d7b189be653c8eb4374abb08a66",
        "ledger_kp16_kd8.csv": "7e37e63737592792f167d5611e4545f2b895986e70783db594f399b6c295bcc8",
        "results.csv": "aa5ce48451b27cef7daf77db1b35a12fbf63d0b787e6497c99d66059761d0400"}


# Four cells each, so that --workers 3 hands out uneven slices of 2, 1 and 1
# jobs.
SLICED = {
    "shape-search": PINNED["shape-search"][0],
    "noisy-replay": PINNED["noisy-replay"][0].replace("kd = 8", "kd = 8, 24"),
}


@pytest.mark.parametrize("kind", sorted(SLICED))
def test_pool_slices_write_the_one_process_manifest(kind, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.ini").write_text(
        f"[experiment]\nkind = {kind}\nseed = 7\nout = w1\n\n{SLICED[kind]}")
    assert main(["run", "--config", "c.ini"]) == 0
    assert main(["run", "--config", "c.ini", "--out", "w3", "--workers", "3"]) == 0
    assert len((tmp_path / "w1" / "results.csv").read_text().splitlines()) == 5
    assert (tmp_path / "w1" / "manifest.json").read_text() == \
        (tmp_path / "w3" / "manifest.json").read_text()


def _fails_the_list_holding_job_1(jobs):
    """A list-of-jobs cell that raises outside any one cell when its list
    holds job 1 (a pool task pickles it by name)."""
    if any(index == 1 for *_, index in jobs):
        raise RuntimeError("no cell of this list ran")
    return [([{"kp": kp, "kd": kd, "k_eff": kp}], {}) for _, kp, kd, _, _ in jobs]


@pytest.mark.parametrize("workers,failed", [(1, [0, 1, 2, 3, 4]), (3, [0, 1])])
def test_a_raising_slice_fails_its_own_jobs(workers, failed, tmp_path, monkeypatch):
    # five cells at --workers 3 make the slices [0, 1], [2, 3] and [4]
    monkeypatch.setitem(RUNNERS, "compliance-probe", dataclasses.replace(
        RUNNERS["compliance-probe"], cell=_fails_the_list_holding_job_1))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.ini").write_text(
        "[experiment]\nkind = compliance-probe\nseed = 7\nout = out\n\n"
        f"{_POINT_MASS}[grid]\nkp = 16, 32, 64, 128, 256\nkd = 8\n")
    assert main(["run", "--config", "c.ini", "--workers", str(workers)]) == 2
    assert (tmp_path / "out" / "failures.csv").read_text() == "cell,error\n" + "".join(
        f"{i},RuntimeError('no cell of this list ran')\n" for i in failed)
    rows = (tmp_path / "out" / "results.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == \
        [kp for i, kp in enumerate(["16", "32", "64", "128", "256"]) if i not in failed]


def _list_lengths(jobs):
    """A list-of-jobs cell whose rows record the length of its list."""
    return [([{"kp": kp, "kd": kd, "k_eff": len(jobs)}], {}) for _, kp, kd, _, _ in jobs]


@pytest.mark.parametrize("n_cells,workers,sizes", [
    (5, 4, [2, 1, 1, 1]), (7, 3, [3, 2, 2]), (5, 2, [3, 2]), (2, 4, [1, 1])])
def test_pool_slices_differ_by_at_most_one_job(n_cells, workers, sizes, tmp_path,
                                               monkeypatch):
    # min(workers, jobs) slices in job order, the first ones one job longer
    monkeypatch.setitem(RUNNERS, "compliance-probe", dataclasses.replace(
        RUNNERS["compliance-probe"], cell=_list_lengths))
    monkeypatch.chdir(tmp_path)
    kps = ", ".join(str(16 * 2 ** i) for i in range(n_cells))
    (tmp_path / "c.ini").write_text(
        "[experiment]\nkind = compliance-probe\nseed = 7\nout = out\n\n"
        f"{_POINT_MASS}[grid]\nkp = {kps}\nkd = 8\n")
    assert main(["run", "--config", "c.ini", "--workers", str(workers)]) == 0
    rows = (tmp_path / "out" / "results.csv").read_text().splitlines()[1:]
    assert [int(row.split(",")[2]) for row in rows] == [n for n in sizes for _ in range(n)]


def test_shape_searches_hold_at_most_shape_lanes(tmp_path, monkeypatch):
    # four cells of 32 lanes a generation (one generation per branch): a
    # 64-lane cap makes two searches of two cells, with the same outputs
    monkeypatch.chdir(tmp_path)
    config = PINNED["shape-search"][0].replace("budget = 4", "budget = 16")
    (tmp_path / "c.ini").write_text(
        f"[experiment]\nkind = shape-search\nseed = 7\nout = one\n\n{config}")
    assert main(["run", "--config", "c.ini"]) == 0
    lanes, rollout = [], shaping.rollout

    def counted(problem, mappings, episodes=None):
        pairs = [(problem, mappings)] if isinstance(problem, ToyShapingProblem) \
            else zip(problem, mappings)
        lanes.append(sum(len(ms) * len(episodes or p.episodes) for p, ms in pairs))
        return rollout(problem, mappings, episodes)

    monkeypatch.setattr(shaping, "rollout", counted)
    monkeypatch.setattr(cli, "_SHAPE_LANES", 64)
    assert main(["run", "--config", "c.ini", "--out", "split"]) == 0
    # two 64-lane generations, and one 2-lane goal-rate rollout per cell
    assert sorted(lanes) == [2, 2, 2, 2, 64, 64]
    assert (tmp_path / "one" / "manifest.json").read_text() == \
        (tmp_path / "split" / "manifest.json").read_text()


EXCEPTIONS = [SimulationDivergedError(212), NonPositiveInertiaError("M(q) not positive"),
              NotSettledError("velocity norm 1e-3"), PerturbationDivergedError("trial 0"),
              FidelityOverflowError("fidelity MSE overflows"),
              JitterOverflowError("velocity std overflows"),
              CmaesAbortedError(FitResult(x=np.array([0.5]), params={"armature": 0.5},
                                          loss=math.inf, history=np.array([math.inf]),
                                          n_evals=4))]


@pytest.mark.parametrize("exc", EXCEPTIONS, ids=lambda e: type(e).__name__)
def test_exceptions_survive_pickling(exc):
    # a pool worker's failed cell reaches failures.csv through pickle
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc) and repr(back) == repr(exc) and back.args == exc.args
    assert back.__dict__.keys() == exc.__dict__.keys()
    for key, value in exc.__dict__.items():
        got = getattr(back, key)
        if key == "result":
            assert (got.params, got.loss, got.n_evals) == (value.params, value.loss, value.n_evals)
            assert np.array_equal(got.x, value.x) and np.array_equal(got.history, value.history)
        else:
            assert got == value


# A noisy-replay grid with one diverging cell: the stiff loop (Kp dt^2 / m =
# 200) is held by stiction until a noisy command exceeds it. The hashes were
# recorded with one gain setting per rollout; the batched gain stack must fail
# only cell 1, with the same error text, at any worker count.
DIVERGING_REPLAY = """[plant]
kind = point_mass
mass = 1.0
static_friction = 320
dynamic_friction_ratio = 0.5

[grid]
kp = 16, 50000000
kd = 1

[params]
duration = 0.5
trials = 5
sigma = 0.001
"""


@pytest.mark.parametrize("workers", [1, 2])
def test_noisy_replay_diverging_cell_pinned(workers, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.ini").write_text(
        f"[experiment]\nkind = noisy-replay\nseed = 7\nout = out\n\n{DIVERGING_REPLAY}")
    assert main(["run", "--config", "c.ini", "--workers", str(workers)]) == 2
    assert (tmp_path / "out" / "failures.csv").read_text() == \
        "cell,error\n1,SimulationDivergedError('non-finite state at step 172')\n"
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["files"] == {
        "failures.csv": "8c2a97cb2dfcb167e28b2a7af78c3ac8fdd73f592c2ebd88b0b8b6ce7a41c4b2",
        "heatmap_goal_rate.csv": "d6e048a14b33979d349b93e8525cd3ef4893050f4e065bbdcdb01ddb4eadf262",
        "heatmap_rms_deviation.csv":
            "d6e048a14b33979d349b93e8525cd3ef4893050f4e065bbdcdb01ddb4eadf262",
        "results.csv": "bcb5fd5b66dfca86b33eac7de78e72729f6372bfd144637e08319a15605b7c8b"}


@pytest.mark.parametrize("workers", [1, 2])
def test_noisy_replay_overflowing_deviation_fails_its_cell(workers, tmp_path, monkeypatch):
    # at Kp = 2e6 the trials grow huge but stay finite: the deviation from the
    # clean replay overflows, which fails the cell typed, naming the trial
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.ini").write_text(
        "[experiment]\nkind = noisy-replay\nseed = 7\nout = out\n\n"
        + DIVERGING_REPLAY.replace("50000000", "2000000"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", "c.ini", "--workers", str(workers)]) == 2
    _, failure = (tmp_path / "out" / "failures.csv").read_text().splitlines()
    assert failure.startswith("1,PerturbationDivergedError('trial 0: deviation from the clean "
                              "replay overflows")
    assert (tmp_path / "out" / "results.csv").read_text() == \
        "kp,kd,goal_rate,rms_deviation\n16,1,0,0\n"


# The stiff cell's replay stays finite but ends so far from its demo that the
# squared error overflows: the cell fails typed instead of writing mse = inf.
OVERFLOWING_TPR = """[plant]
kind = point_mass
mass = 1.0

[grid]
kp = 16, 2000000
kd = 1

[params]
decimations = 10
n_demos = 1
duration = 0.5
"""


@pytest.mark.parametrize("workers", [1, 2])
def test_tpr_sweep_overflowing_fidelity_fails_its_cell(workers, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.ini").write_text(
        f"[experiment]\nkind = tpr-sweep\nseed = 7\nout = out\n\n{OVERFLOWING_TPR}")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", "c.ini", "--workers", str(workers)]) == 2
    assert (tmp_path / "out" / "failures.csv").read_text() == (
        "cell,error\n1,FidelityOverflowError('fidelity MSE against the source demo "
        "overflows (overflow encountered in square)')\n")
    assert (tmp_path / "out" / "results.csv").read_text() == \
        "kp,kd,decimation,mse,goal_reached\n16,1,10,0.00124624008,1\n"


# The stiff cell's replay stays finite, but the spread of its tail velocity
# overflows: the cell fails typed instead of writing max_std = inf.
OVERFLOWING_JITTER = OVERFLOWING_TPR.replace("decimations = 10\nn_demos = 1\n",
                                             "decimation = 10\nwindow = 0.1\n")


@pytest.mark.parametrize("workers", [1, 2])
def test_jitter_scan_overflowing_std_fails_its_cell(workers, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.ini").write_text(
        f"[experiment]\nkind = jitter-scan\nseed = 7\nout = out\n\n{OVERFLOWING_JITTER}")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", "c.ini", "--workers", str(workers)]) == 2
    assert (tmp_path / "out" / "failures.csv").read_text() == (
        "cell,error\n1,JitterOverflowError('velocity std over the 0.1 s tail window "
        "overflows (overflow encountered in square)')\n")
    assert (tmp_path / "out" / "results.csv").read_text() == \
        "kp,kd,max_std,flagged\n16,1,0.00143510403,0\n"


# Valid values small enough for a run to take milliseconds, per param key.
# Every key of every kind's params table needs an entry here.
TINY = {
    "n_demos": ["1", "2"], "decimations": ["1", "1, 5"], "decimation": ["1", "5"],
    "duration": ["0.2", "0.5"], "base_rate": ["100", "200"], "goal_tol": ["0.05", "1"],
    "masses": ["1", "0.05, 2"], "sigma": ["0", "0.3"], "trials": ["1", "3"],
    "mode": ["continuous-limit", "held"], "rate": ["10", "50"], "dt": ["0", "0.01"],
    "horizon": ["0", "30"], "bounds": ["", "{dir}/bounds.ini"], "sigma0": ["0.5", "3"],
    "iters": ["1", "2"], "budget": ["1", "4"], "episodes": ["1", "2"],
    "eval_episodes": ["1", "2"], "cells": ["corners", "all"], "input": ["{dir}/sweep.csv"],
    # XX labels no row of the input, which only the run can see
    "region": ["CO", "SU", "XX"], "metric": ["success", "error"],
    "alternative": ["greater", "less"], "alpha": ["0.05", "0.5"], "m": ["1", "3"],
    "probe_force": ["1", "-2"], "settle_time": ["0.5", "2"],
    "window": ["0.1", "0.3"], "threshold": ["0", "0.04"],
}
EDGE = ["0", "-1", "inf", "-inf", "nan", "text", "true", "2.5", ","]
# Params whose default makes a run slow: always written, tiny or edge.
COSTLY = {"trials", "iters", "budget", "episodes", "eval_episodes", "n_demos", "duration",
          "settle_time"}
# The failures a run may end in after a clean validate: the typed physical
# ones (a search aborts when every candidate's rollout diverges; validate
# has no stability margin yet), and a path param naming no file, which only
# the run opens (see test_missing_input_is_runtime_failure).
RUN_TIME = ("PerturbationDivergedError(", "SimulationDivergedError(", "NotSettledError(",
            "CmaesAbortedError('no candidate in a generation had a finite loss')",
            "FileNotFoundError(")
SWEEP_WITH_REGIONS = ("kp,kd,successes,trials,error,region\n16,2,3,10,0.011,CU\n"
                      "1024,2,4,10,0.012,SU\n16,128,9,10,0.009,CO\n1024,128,5,10,0.04,SO\n"
                      "16,32,3,10,0.013,CU\n1024,32,4,10,0.05,SO\n")


@st.composite
def tiny_configs(draw):
    """A one-cell config of any kind: each table param absent (when cheap),
    tiny or an edge value, maybe one misspelled key."""
    kind = draw(st.sampled_from(KINDS))
    lines = []
    for key in RUNNERS[kind].params:
        how = draw(st.sampled_from(["tiny"] * 6 + ["edge"] + ["absent"] * (key not in COSTLY)))
        if how != "absent":
            lines.append(f"{key} = {draw(st.sampled_from(TINY[key] if how == 'tiny' else EDGE))}")
    if draw(st.integers(0, 7)) == 0:
        key = draw(st.sampled_from(sorted(RUNNERS[kind].params)))
        lines.append(f"{key}{key[-1]} = 1")
    plant = f"[plant]\nkind = point_mass\nmass = {draw(st.sampled_from(['0.05', '1']))}\n"
    grid = (f"[grid]\nkp = {draw(st.sampled_from(['2', '16', '256']))}\n"
            f"kd = {draw(st.sampled_from(['1', '8', '128']))}\n")
    return kind, f"{plant}\n{grid}\n[params]\n" + "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None, derandomize=True)
@given(tiny_configs())
def test_validate_agrees_with_run(case):
    """validate neither raises nor warns. A finding means run exits 1 and
    writes nothing; otherwise run exits 0, or 2 only on a RUN_TIME failure
    or a stats region that labels no input row, and two runs write equal
    manifests."""
    kind, body = case
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "sweep.csv").write_text(SWEEP_WITH_REGIONS)
        (Path(tmp) / "bounds.ini").write_text(PINNED_INPUTS["bounds.ini"])
        text = f"[experiment]\nkind = {kind}\nseed = 3\nout = {tmp}/o1\n\n{body}"
        path = write(Path(tmp), "c.ini", text.replace("{dir}", tmp))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            findings = validate(load_config(path))
        rc = main(["run", "--config", path])
        if findings:
            assert rc == 1 and not (Path(tmp) / "o1").exists(), findings
            return
        assert rc in (0, 2)
        if rc == 2:
            _, *failed = (Path(tmp) / "o1" / "failures.csv").read_text().splitlines()
            # the stats region may label no row, as only the input file shows
            absent = re.search(r"region '(.*)' must be a non-empty proper subset", failed[0])
            absent = absent is not None and absent[1] not in ("CO", "SO", "CU", "SU")
            assert absent or all(f.split(",", 1)[1].startswith(RUN_TIME) for f in failed), failed
        assert main(["run", "--config", path, "--out", f"{tmp}/o2"]) == rc
        # a run that fails before its cells (exit 2) writes no manifest
        first, second = (Path(tmp) / o / "manifest.json" for o in ("o1", "o2"))
        assert first.exists() == second.exists() and (first.exists() or rc == 2)
        if first.exists():
            assert first.read_text() == second.read_text()


def test_readme_params_table_lists_each_kinds_params():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = readme.split("| kind | key | default | check |\n", 1)[1].split("\n\n", 1)[0]
    keys = {}
    for row in rows.splitlines()[1:]:  # past the | --- | line
        kind, key = (cell.strip().strip("`") for cell in row.split("|")[1:3])
        keys.setdefault(kind, set()).add(key)
    assert keys == {kind: set(spec.params) for kind, spec in RUNNERS.items()}
