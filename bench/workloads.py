"""The three benchmark workloads: inputs generated from a seed, and output checks.

Each workload is one or more ``gainlab run`` configs. Only the config seed
and the generated input values depend on the benchmark seed; the amount of
work (grid, iterations, budget, trials, margins) is fixed, so run time does
not depend on the seed. Each workload's ``why`` records the reason it was
chosen.
"""

from __future__ import annotations

import csv
import math
import os

import numpy as np

# Work sizes; none of them depends on the seed.
SHAPE_BUDGET = 16  # one whole CMA-ES generation (lambda=4) per branch
STATS_TRIALS = 40  # per cell: CO pools 13 x 40 = 520 vs 36 x 40 = 1440

_EXPERIMENT = """[experiment]
kind = {kind}
seed = {seed}
out = out
"""

SHAPE = _EXPERIMENT + """
[plant]
kind = point_mass
mass = 1.0
torque_limit = 300
torque_rate_limit = 20000

[params]
budget = {budget}
episodes = 6
eval_episodes = 6
cells = corners
"""

REPLAY = _EXPERIMENT + """
[plant]
kind = two_link
link_masses = 1.0, 0.8
link_lengths = 0.5, 0.4

[grid]
kp = 16, 512
kd = 2, 24

[params]
decimation = 10
sigma = 0.05
trials = 5
"""

STATS = _EXPERIMENT + """
[plant]
kind = point_mass
mass = 1.0

[params]
input = {input}
region = {region}
metric = {metric}
alternative = greater
alpha = 0.05
m = {m}
"""

# Default 7x7 grid and the regime split used by demo 06 (m = 1).
_KP = [16.0 * 2.0 ** i for i in range(7)]
_KD = [2.0 * 2.0 ** i for i in range(7)]


def _regime(kp: float, kd: float) -> str:
    return ("C" if kp < 128.0 else "S") + ("O" if kd / (2.0 * math.sqrt(kp)) >= 1.0 else "U")


def _sweep_csv(seed: int) -> str:
    """7x7 sweep with demo 06's effect sizes: CO succeeds 85.1% vs 39.0%,
    SO errors 0.043 vs 0.010 (lognormal spread 0.25)."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(6,)))
    lines = ["kp,kd,successes,trials,error"]
    for kd in _KD:
        for kp in _KP:
            reg = _regime(kp, kd)
            p = 0.851 if reg == "CO" else 0.390
            err = (0.043 if reg == "SO" else 0.010) * float(rng.lognormal(0.0, 0.25))
            lines.append(f"{kp:g},{kd:g},{int(rng.binomial(STATS_TRIALS, p))},"
                         f"{STATS_TRIALS},{err:.9g}")
    return "\n".join(lines) + "\n"


class Workload:
    """A named set of configs plus the checks its outputs must pass.

    For the traced run, ``named_layers`` are the layers the workload was
    chosen for, ``required`` the wrapped functions it must reach, and
    ``untouched`` the layers it must not call at all.
    """

    def __init__(self, name: str, why: str, workers: int, cells: int,
                 named_layers: tuple[str, ...], required: tuple[str, ...],
                 untouched: tuple[str, ...]):
        self.name = name
        self.why = why
        self.workers = workers
        self.cells = cells  # cells attempted per run
        self.named_layers = named_layers
        self.required = required
        self.untouched = untouched

    def write_inputs(self, work_dir: str, seed: int) -> list[str]:
        """Write the run's config files (and input files) and return the
        config paths, relative to the checkout root."""
        raise NotImplementedError

    def check(self, out_dirs: list[str]) -> list[str]:
        """Workload-specific findings on one run's outputs; empty means ok."""
        raise NotImplementedError


def _write(path: str, text: str) -> str:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _rows(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class Shape(Workload):
    def write_inputs(self, work_dir, seed):
        text = SHAPE.format(kind="shape-search", seed=seed, budget=SHAPE_BUDGET)
        return [_write(os.path.join(work_dir, "shape.ini"), text)]

    def check(self, out_dirs):
        (out,) = out_dirs
        findings = []
        rows = _rows(os.path.join(out, "results.csv"))
        if len(rows) != self.cells:
            findings.append(f"shape: {len(rows)} result rows, expected {self.cells}")
        for r in rows:
            cell = f"kp={r['kp']} kd={r['kd']}"
            ledger = _rows(os.path.join(
                out, f"ledger_kp{float(r['kp']):g}_kd{float(r['kd']):g}.csv"))
            if len(ledger) != SHAPE_BUDGET:
                findings.append(f"shape {cell}: ledger has {len(ledger)} rows, "
                                f"expected {SHAPE_BUDGET}")
            bad = [x["J"] for x in ledger
                   if not (float(x["J"]) == -1.0 or 0.0 <= float(x["J"]) <= 2.0)]
            if bad:
                findings.append(f"shape {cell}: J outside {{-1}} u [0, 2]: {bad[:3]}")
        return findings


class Replay(Workload):
    def write_inputs(self, work_dir, seed):
        text = REPLAY.format(kind="noisy-replay", seed=seed)
        return [_write(os.path.join(work_dir, "replay.ini"), text)]

    def check(self, out_dirs):
        (out,) = out_dirs
        findings = []
        rows = _rows(os.path.join(out, "results.csv"))
        if len(rows) != self.cells:
            findings.append(f"replay: {len(rows)} result rows, expected {self.cells}")
        for r in rows:
            cell = f"kp={r['kp']} kd={r['kd']}"
            if not 0.0 <= float(r["goal_rate"]) <= 1.0:
                findings.append(f"replay {cell}: goal_rate {r['goal_rate']} not in [0, 1]")
            rms = float(r["rms_deviation"])
            if not (math.isfinite(rms) and rms > 0.0):
                findings.append(f"replay {cell}: rms_deviation {rms} not finite and > 0")
        return findings


class Stats(Workload):
    REPORTS = (("CO", "success", 6), ("SO", "error", 3))

    def write_inputs(self, work_dir, seed):
        sweep = _write(os.path.join(work_dir, "sweep.csv"), _sweep_csv(seed))
        return [_write(os.path.join(work_dir, f"stats_{metric}.ini"),
                       STATS.format(kind="stats-report", seed=seed, input=sweep,
                                    region=region, metric=metric, m=m))
                for region, metric, m in self.REPORTS]

    def check(self, out_dirs):
        findings = []
        for out, (region, metric, _) in zip(out_dirs, self.REPORTS):
            rows = _rows(os.path.join(out, "report.csv"))
            if len(rows) != 1:
                findings.append(f"stats {metric}: {len(rows)} report rows, expected 1")
                continue
            (r,) = rows
            if r["region"] != region:
                findings.append(f"stats {metric}: tested region {r['region']}, not {region}")
            if not 0.0 <= float(r["p"]) <= 1.0:
                findings.append(f"stats {metric}: p {r['p']} not in [0, 1]")
            if r["reject"] != "1":
                findings.append(f"stats {metric}: H0 not rejected at the paper "
                                f"effect sizes (p={r['p']}, alpha_adj={r['alpha_adj']})")
        return findings


WORKLOADS = {
    "shape": Shape(
        "shape",
        why="Most of its time is in ToyShapingProblem.evaluate and the decoupled "
            "stepper (4 lanes x 6 episodes x 1200 steps, constraint counting every "
            "step), so it is the workload where a batched rollout kernel should show "
            "its gain. It is also the only workload that exercises the cli process "
            "pool.",
        workers=2, cells=4, named_layers=("shaping", "dynamics"),
        required=("shaping.shape_search", "shaping.evaluate", "shaping.map_action",
                  "shaping.constrained_objective", "sysid.cmaes_minimize",
                  "dynamics.advance"),
        untouched=("stats", "retarget", "noise", "control")),
    "replay": Replay(
        "replay",
        why="It runs the generic dynamics.simulate/step path with State allocation "
            "(closed-form M(q)), the path a decoupled-plant kernel bypasses. It also "
            "covers retarget, noise and control. Prediction for a decoupled-plant "
            "kernel: no change here.",
        workers=1, cells=4,
        named_layers=("dynamics", "control", "retarget", "noise"),
        required=("noise.noisy_openloop_replay", "retarget.replay", "retarget.tpr_joint",
                  "retarget.make_demo", "dynamics.simulate", "dynamics.step",
                  "dynamics.mass_matrix", "dynamics.gravity_torque", "control.pd_torque"),
        untouched=("stats", "shaping", "sysid")),
    "stats": Stats(
        "stats",
        why="It touches no rollout code. A faster Barnard test should move it "
            "(wall_s and peak_rss_mb), and a rollout kernel should leave it flat.",
        workers=1, cells=2, named_layers=("stats",),
        required=("cli.read_sweep_csv", "stats.region_test", "stats.barnard_exact",
                  "stats.mannwhitney_u", "stats.logistic_fit", "stats.ols_log_fit"),
        untouched=("dynamics", "sysid", "shaping", "retarget", "noise")),
}


NOT_A_WORKLOAD = (
    "Tier-1 test-suite wall time is deliberately not a workload: one pass takes "
    "about 10 minutes, and a measurement repeats each workload about 20 times.")


def common_findings(out_dirs: list[str], exit_codes: list[int]) -> tuple[list[str], int]:
    """Checks every workload shares: exit 0, no failures.csv, a manifest.

    Returns (findings, failed cells); a failed run with no per-cell ledger
    counts as one failed cell.
    """
    findings, failed = [], 0
    for out, rc in zip(out_dirs, exit_codes):
        fail_path = os.path.join(out, "failures.csv")
        if os.path.exists(fail_path):
            n = len(_rows(fail_path))
            failed += max(1, n)
            findings.append(f"{out}: failures.csv with {n} failed cells")
        elif rc != 0:
            failed += 1
        if rc != 0:
            findings.append(f"{out}: gainlab run exited {rc}")
        if not os.path.exists(os.path.join(out, "manifest.json")):
            findings.append(f"{out}: no manifest.json")
    return findings, failed


def manifest_bytes(out_dirs: list[str]) -> bytes:
    """The run's manifests, concatenated in config order."""
    parts = []
    for out in out_dirs:
        path = os.path.join(out, "manifest.json")
        with open(path, "rb") as fh:
            parts.append(fh.read())
    return b"".join(parts)
