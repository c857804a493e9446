import json
import math

import numpy as np
import pytest

from gainlab import shaping
from gainlab.cli import KINDS, _default_dt, load_config, main, validate

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
        findings = validate(load_config(text))
        assert len(findings) == 1 and findings[0].startswith(f"params.{key}:")
        assert value in findings[0]
        path = write(tmp_path, "s.ini", text)
        assert main(["validate", "--config", path]) == 1
        assert main(["run", "--config", path]) == 1
        assert not out.exists()

    def test_known_choices_pass(self, tmp_path):
        text = STATS_INI.format(out=tmp_path / "s", input=tmp_path / "in.csv") \
            + "alternative = less\nmetric = error\n"
        assert validate(load_config(text)) == []


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

    def assert_reported(self, tmp_path, text, key):
        out = tmp_path / "o"
        findings = validate(load_config(text.format(out=out)))
        assert len(findings) == 1 and findings[0].startswith(f"{key}:"), findings
        path = write(tmp_path, "c.ini", text.format(out=out))
        assert main(["validate", "--config", path]) == 1
        assert main(["run", "--config", path]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("params,key", [
        ("trials = many\n", "params.trials"),
        ("trials = 0\n", "params.trials"),
        ("trials = 2, 3\n", "params.trials"),
        ("trials = inf\n", "params.trials"),
        ("masses = heavy\n", "params.masses"),
        ("masses = 1, 0\n", "params.masses"),
        # the run uses params.masses, not the plant mass, for omega_n
        ("masses = 0.001\ndt = 0.02\n", "params.dt"),
        ("dt = fine\n", "params.dt"),
        ("mode = sampled\n", "params.mode"),
        ("mode = held\n", "params.rate"),
        ("mode = held\nrate = -5\n", "params.rate"),
    ])
    def test_variance_check_params(self, tmp_path, params, key):
        text = VARIANCE_INI.replace("trials = 10\n", "").replace("masses = 1\n", "")
        self.assert_reported(tmp_path, text + params, key)

    def test_variance_check_dt_fits_the_lightest_listed_mass(self, tmp_path):
        text = VARIANCE_INI.replace("masses = 1\n", "masses = 1, 4\ndt = 0.01\n")
        assert validate(load_config(text.format(out=tmp_path / "o"))) == []

    def test_stats_report_m(self, tmp_path):
        text = STATS_INI.format(out="{out}", input=tmp_path / "in.csv")
        self.assert_reported(tmp_path, text + "m = 0\n", "params.m")

    def test_shape_search_cells(self, tmp_path):
        text = SHAPE_INI.format(out="{out}", kp=16, kd=8)
        self.assert_reported(tmp_path, text + "cells = everything\n", "params.cells")

    def test_non_numeric_grid(self, tmp_path):
        self.assert_reported(tmp_path, VARIANCE_INI.replace("kp = 2, 8", "kp = 2, eight"),
                             "grid")

    @pytest.mark.parametrize("text", ["[grid]\nkp = 64, abc\nkd = 8\n",
                                      "[grid]\nkp = 64\n",
                                      "[gains]\nkp = 64\nkd = 8\n"])
    def test_malformed_sysid_grid_file(self, tmp_path, text):
        grid = write(tmp_path, "grid.ini", text)
        out = tmp_path / "sysid"
        assert main(["sysid", "--grid", grid, "--iters", "2", "--seed", "1",
                     "--out", str(out)]) == 1
        assert not out.exists()


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
        assert _default_dt(1.0, 50.0) == 0.02
        assert _default_dt(2.0, 50.0) == 0.01
        assert _default_dt(math.sqrt(2.0), 50.0) == 0.02 / 2
        assert _default_dt(math.sqrt(0.5), 50.0) == 0.02
        assert _default_dt(math.sqrt(2.0), None) == 0.02 / math.sqrt(2.0)

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

    def test_shape_objective_error_keeps_the_other_candidates(
            self, tmp_path, monkeypatch):
        # a raising evaluation is ledgered as J = -1 with NaN rates; the
        # other 15 candidates keep the rows of an uninjected run
        argv = ["shape", "--gains", "64,16", "--budget", "16", "--seed", "1"]
        clean = tmp_path / "clean"
        assert main(argv + ["--out", str(clean)]) == 0
        original = shaping.ToyShapingProblem.evaluate
        calls = []

        def evaluate(self, mapping, episodes=None):
            calls.append(mapping)
            if len(calls) == 3:
                raise RuntimeError("injected evaluation failure")
            return original(self, mapping, episodes)

        monkeypatch.setattr(shaping.ToyShapingProblem, "evaluate", evaluate)
        out = tmp_path / "shape"
        assert main(argv + ["--out", str(out)]) == 0
        assert not (out / "failures.csv").exists()
        name = "ledger_kp64_kd16.csv"
        ledger = (out / name).read_text().strip().splitlines()
        expected = (clean / name).read_text().strip().splitlines()
        assert len(ledger) == 17
        header = ledger[0].split(",")
        row3 = dict(zip(header, ledger[3].split(",")))
        assert row3["trial"] == "2" and row3["J"] == "-1"
        assert [row3[k] for k in ("success", "viol_pos", "viol_vel", "viol_tau",
                                  "viol_taurate")] == ["nan"] * 5
        assert ledger[:3] + ledger[4:] == expected[:3] + expected[4:]

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
