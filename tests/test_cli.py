import json

import numpy as np
import pytest

from gainlab import shaping
from gainlab.cli import load_config, main, validate

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
        cfg = load_config(VARIANCE_INI.replace("variance-check", "nonsense")
                          .format(out=tmp_path))
        findings = validate(cfg)
        assert any("kind" in f for f in findings)

    def test_coarse_dt_flagged(self, tmp_path):
        text = VARIANCE_INI.format(out=tmp_path) + "dt = 0.1\n"
        cfg = load_config(text)
        findings = validate(cfg)
        assert any("dt too coarse" in f for f in findings)

    def test_validate_cli_exit_codes(self, tmp_path):
        good = write(tmp_path, "good.ini", VARIANCE_INI.format(out=tmp_path))
        assert main(["validate", "--config", good]) == 0
        bad = write(tmp_path, "bad.ini",
                    VARIANCE_INI.replace("kp = 2, 8", "kp =").format(out=tmp_path))
        assert main(["validate", "--config", bad]) == 1


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

    def test_per_cell_failures_land_in_ledger(self, tmp_path):
        # jitter window longer than the rollout: every cell raises, the
        # completed (empty) tables still get written, exit code 2
        text = """
[experiment]
kind = jitter-scan
seed = 3
out = {out}

[plant]
kind = point_mass
mass = 1.0

[grid]
kp = 16, 64
kd = 8

[params]
duration = 1.0
window = 2.0
"""
        out = tmp_path / "jit"
        path = write(tmp_path, "j.ini", text.format(out=out))
        assert main(["run", "--config", path]) == 2
        failures = (out / "failures.csv").read_text().strip().splitlines()
        assert failures[0] == "cell,error"
        assert len(failures) == 3  # both cells failed
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


class TestPassthroughs:
    def test_shape_single_cell(self, tmp_path):
        out = tmp_path / "shape"
        rc = main(["shape", "--gains", "64,16", "--budget", "16",
                   "--seed", "1", "--out", str(out)])
        assert rc == 0
        ledger = (out / "ledger_kp64_kd16.csv").read_text().strip().splitlines()
        assert ledger[0].split(",") == [
            "trial", "alpha1", "alpha2", "beta", "gamma", "J", "success",
            "viol_pos", "viol_vel", "viol_tau", "viol_taurate"]
        assert len(ledger) == 17

    def test_shape_objective_error_fails_the_cell(self, tmp_path, monkeypatch):
        # a raising evaluation scores -inf in the ledger but adds no detail
        # row; the cell must fail instead of pairing later rows wrongly
        original = shaping.ToyShapingProblem.evaluate
        calls = []

        def evaluate(self, mapping, episodes=None):
            calls.append(mapping)
            if len(calls) == 3:
                raise RuntimeError("injected evaluation failure")
            return original(self, mapping, episodes)

        monkeypatch.setattr(shaping.ToyShapingProblem, "evaluate", evaluate)
        out = tmp_path / "shape"
        rc = main(["shape", "--gains", "64,16", "--budget", "16",
                   "--seed", "1", "--out", str(out)])
        assert rc == 2
        assert len(calls) == 16
        failures = (out / "failures.csv").read_text().strip().splitlines()
        assert failures[0] == "cell,error"
        assert len(failures) == 2 and "ValueError" in failures[1]
        assert not (out / "ledger_kp64_kd16.csv").exists()

    def test_stats_report(self, tmp_path):
        rng = np.random.default_rng(0)
        lines = ["kp,kd,successes,trials"]
        for kd in (2, 32):
            for kp in (16, 1024):
                p = 0.9 if (kp == 16 and kd == 32) else 0.4
                lines.append(f"{kp},{kd},{rng.binomial(100, p)},100")
        sweep = write(tmp_path, "sweep.csv", "\n".join(lines) + "\n")
        out = tmp_path / "stats"
        rc = main(["stats", "--input", sweep, "--region", "CO",
                   "--metric", "success", "--alternative", "greater",
                   "--m", "6", "--out", str(out)])
        assert rc == 0
        report = (out / "report.csv").read_text().strip().splitlines()
        assert report[0] == "test,region,statistic,p,alpha_adj,reject"
        assert "barnard_exact" in report[1]
        assert (out / "summary.txt").read_text().startswith("barnard_exact")

    def test_sysid_passthrough_writes_history_sidecars(self, tmp_path):
        grid = write(tmp_path, "grid.ini", "[grid]\nkp = 64\nkd = 8\n")
        out = tmp_path / "sysid"
        rc = main(["sysid", "--grid", grid, "--iters", "5", "--seed", "2",
                   "--out", str(out)])
        assert rc == 0
        rows = (out / "results.csv").read_text().strip().splitlines()
        assert rows[0].startswith("kp,kd,final_loss,evals,")
        assert (out / "history_kp64_kd8.csv").exists()

    def test_sysid_bounds_file_narrows_search(self, tmp_path):
        grid = write(tmp_path, "grid.ini", "[grid]\nkp = 64\nkd = 8\n")
        bounds = write(tmp_path, "bounds.ini",
                       "[bounds]\narmature = 0.2, 0.25\n"
                       "viscous_friction = 0.0, 0.1\n")
        out = tmp_path / "sysid_b"
        rc = main(["sysid", "--grid", grid, "--bounds", bounds, "--iters", "5",
                   "--seed", "2", "--out", str(out)])
        assert rc == 0
        header, row = (out / "results.csv").read_text().strip().splitlines()
        vals = dict(zip(header.split(","), row.split(",")))
        assert 0.2 <= float(vals["armature"]) <= 0.25
        assert 0.0 <= float(vals["viscous_friction"]) <= 0.1

    def test_unknown_args_fail(self):
        with pytest.raises(SystemExit):
            main(["run"])  # missing --config
