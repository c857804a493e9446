"""Config-driven experiment runner with deterministic, manifested outputs.

One INI config describes one experiment: an ``[experiment]`` section
(kind, seed, out), a ``[plant]`` section, a ``[grid]`` section (kp/kd
lists), and a ``[params]`` section of kind-specific knobs. ``RUNNERS``
holds one entry per kind. Seven kinds are gain-grid sweeps, all run by
``_run_grid`` from their entry's cell function, cell list (grid cells,
cells x masses, or corners), results.csv columns, long-format heatmaps
(``kp,kd,value`` with Kd as the outer loop) and per-cell sidecars;
``stats-report`` has no cells. Every run writes a manifest of content
hashes; identical config+seed reruns produce byte-identical payloads
regardless of the worker count.

Subcommands: ``run``, ``validate``, plus direct passthroughs ``sysid``,
``shape``, and ``stats``. Exit codes: 0 success, 1 validation error,
2 runtime failure.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import hashlib
import json
import math
import os
import sys
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import control, dynamics, noise, retarget, shaping, stats, sysid
from .control import GainConfig, GainGrid, default_grid
from .dynamics import PlantParams
from .shaping import ToyShapingProblem

WORKERS_ENV = "GAINLAB_WORKERS"


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    seed: int
    out: str
    plant: PlantParams
    grid: GainGrid | None  # None = unparseable/empty; validate() reports it
    params: dict = field(default_factory=dict)


def _parse_value(text: str):
    text = text.strip()
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    if "," in text:
        return [float(v) for v in text.split(",") if v.strip()]
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def _read_ini(source) -> configparser.ConfigParser:
    """Parse INI text, or the file at a path (a string with no newline)."""
    text = str(source)
    if "\n" not in text:
        with open(text) as fh:
            text = fh.read()
    cp = configparser.ConfigParser()
    cp.read_string(text)
    return cp


def _parse_grid(cp: configparser.ConfigParser, missing=None) -> GainGrid | None:
    """The [grid] kp/kd lists, or ``missing`` without a [grid] section;
    None unless both lists are non-empty, numeric and strictly increasing."""
    if not cp.has_section("grid"):
        return missing
    try:
        kp, kd = ([float(v) for v in cp["grid"].get(axis, "").split(",") if v.strip()]
                  for axis in ("kp", "kd"))
        return GainGrid(kp_values=np.array(kp), kd_values=np.array(kd))
    except ValueError:
        return None


def load_config(source) -> ExperimentConfig:
    """Parse an experiment config from a path or INI string."""
    cp = _read_ini(source)
    exp = cp["experiment"] if cp.has_section("experiment") else {}
    kind = exp.get("kind", "")
    seed = int(exp.get("seed", 0))
    out = exp.get("out", "out")
    plant = dynamics.load_plant(dict(cp["plant"])) if cp.has_section("plant") \
        else dynamics.point_mass(1.0)
    grid = _parse_grid(cp, missing=default_grid())
    params = {}
    if cp.has_section("params"):
        params = {k: _parse_value(v) for k, v in cp["params"].items()}
    return ExperimentConfig(kind=kind, seed=seed, out=out, plant=plant,
                            grid=grid, params=params)


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def validate(config: ExperimentConfig) -> list[str]:
    """Schema and cross-field checks; findings are the output, not errors."""
    findings = []
    p = config.params
    if config.kind not in KINDS:
        findings.append(f"experiment.kind: unknown kind {config.kind!r}; "
                        f"expected one of {', '.join(KINDS)}")
    if config.grid is None:
        findings.append("grid: must be non-empty with strictly increasing axes")
    choices = RUNNERS[config.kind].choices if config.kind in KINDS else {}
    for key, allowed in choices.items():
        if key in p and p[key] not in allowed:
            findings.append(f"params.{key}: unknown value {p[key]!r}; "
                            f"expected one of {', '.join(allowed)}")
    for key in ("trials", "budget", "n_demos", "iters", "m"):
        if key in p and not (_finite(p[key]) and p[key] >= 1):
            findings.append(f"params.{key}: must be a number >= 1, not {p[key]!r}")
    if config.kind == "variance-check":
        try:
            m_min = min(_masses(config))
        except (TypeError, ValueError):  # not numbers, or an empty list
            m_min = math.nan
        dt = p.get("dt", 0.0)
        if not m_min > 0:
            findings.append(f"params.masses: must be numbers > 0, not {p.get('masses')!r}")
        elif not (_finite(dt) and dt >= 0):
            findings.append(f"params.dt: must be a number >= 0, not {dt!r}")
        elif dt and config.grid is not None:
            kp_max = config.grid.kp_values[-1]
            wn_dt = math.sqrt(kp_max / m_min) * dt
            if wn_dt >= 0.1:
                findings.append(f"params.dt: dt too coarse for Kp={kp_max:g}, "
                                f"m={m_min:g} (omega_n*dt = {wn_dt:.3f} >= 0.1)")
        rate = p.get("rate")
        if p.get("mode") == noise.HELD and not (_finite(rate) and rate > 0):
            findings.append("params.rate: mode = held needs a rate > 0")
    return findings


def _cell_seed(root: int, index: int) -> int:
    return int(np.random.SeedSequence(root, spawn_key=(index,)).generate_state(1)[0])


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, str):
        return v
    return f"{float(v):.9g}"


def _csv(rows: list[dict], columns: list[str]) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(row[c]) for c in columns))
    return "\n".join(lines) + "\n"


def _heatmap(rows: list[dict], value_key: str, grid: GainGrid) -> str:
    """kp,kd,value over the rows holding value_key; a cell with several
    such rows gets their maximum."""
    by_cell = {}
    for r in rows:
        if value_key in r:
            cell, v = (r["kp"], r["kd"]), r[value_key]
            by_cell[cell] = max(by_cell.get(cell, v), v)
    out = [{"kp": kp, "kd": kd, "value": by_cell[(kp, kd)]}
           for kp, kd in grid.cells() if (kp, kd) in by_cell]
    return _csv(out, ["kp", "kd", "value"])


# ---------------------------------------------------------------------------
# Experiment kinds: cell functions and the table that runs them


def _masses(cfg: ExperimentConfig) -> list[float]:
    """variance-check's masses: params.masses, else the plant's lightest."""
    m = cfg.params.get("masses", float(np.min(cfg.plant.mass)))
    return [float(v) for v in (m if isinstance(m, list) else [m])]


def _decimations(cfg: ExperimentConfig) -> list[int]:
    d = cfg.params.get("decimations", [1, 10, 25, 50])
    return [int(v) for v in (d if isinstance(d, list) else [d])]


def _demos(cfg: ExperimentConfig, n: int,
           default_duration: float) -> list[retarget.TorqueDemo]:
    """n random point-to-point demos, all seeded from the config seed."""
    p = cfg.params
    duration = float(p.get("duration", default_duration))
    base_rate = float(p.get("base_rate", 500.0))
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(0,)))
    demos = []
    for _ in range(n):
        q0 = rng.uniform(-0.8, 0.8, size=cfg.plant.n_joints)
        qf = rng.uniform(-0.8, 0.8, size=cfg.plant.n_joints)
        pos, vel, acc = retarget.quintic_reference(q0, qf, 0.75 * duration)
        ctrl = retarget.computed_torque_tracker(cfg.plant, pos, vel, acc)
        goal = retarget.TaskGoal(q_goal=qf, tol=float(p.get("goal_tol", 0.05)))
        demos.append(retarget.make_demo(cfg.plant, ctrl, duration, base_rate,
                                        q0=q0, goal=goal, reference=pos))
    return demos


def _default_dt(wn: float, rate: float | None) -> float:
    """0.02/omega_n; with a hold rate, the largest dt <= that dividing 1/rate."""
    dt = 0.02 / wn
    if rate is None:
        return dt
    delta = 1.0 / rate
    if abs(round(delta / dt) * dt - delta) <= 1e-9 * delta:  # simulate_perturbation's test
        return dt
    return delta / math.ceil(delta / dt)


def _variance_cell(job):
    cfg, kp, kd, masses, index = job
    mass = masses[index % len(masses)]
    p = cfg.params
    sigma = float(p.get("sigma", 0.1))
    trials = int(p.get("trials", 100))
    mode = str(p.get("mode", noise.CONTINUOUS))
    wn = math.sqrt(kp / mass)
    rate = float(p["rate"]) if mode == noise.HELD else None
    dt = float(p.get("dt", 0.0)) or _default_dt(wn, rate)
    zeta = kd / (2.0 * math.sqrt(mass * kp))
    tc = noise.time_constant(wn, zeta)
    horizon = float(p.get("horizon", 0.0)) or 60.0 * tc
    spec = noise.NoiseSpec(sigma=sigma, mode=mode, rate=rate,
                           seed=_cell_seed(cfg.seed, index))
    est = noise.simulate_perturbation(GainConfig(kp=kp, kd=kd), mass, spec,
                                      dt=dt, horizon=horizon, n_trials=trials)
    rel_err = abs(est.value - est.analytic) / est.analytic if est.analytic else 0.0
    return [{"kp": kp, "kd": kd, "mass": mass, "sigma": sigma, "mode": mode,
             "empirical_var": est.value, "stderr": est.stderr,
             "analytic_var": est.analytic, "rel_err": rel_err}], {}


def _tpr_cell(job):
    cfg, kp, kd, demos, _ = job
    gains = GainConfig(kp=kp, kd=kd, gravity_comp=cfg.plant.gravity_enabled)
    rows = []
    for dec in _decimations(cfg):
        mses, reached = [], []
        for demo in demos:
            rd = retarget.tpr_joint(demo, gains, plant=cfg.plant)
            _, rep = retarget.replay(rd, dec, cfg.plant, source=demo)
            mses.append(rep.mse)
            reached.append(rep.goal_reached)
        mse = float(np.mean(mses))
        rows.append({"kp": kp, "kd": kd, "decimation": dec, "mse": mse,
                     f"mse_dec{dec}": mse, "goal_reached": float(np.mean(reached))})
    return rows, {}


def _noisy_cell(job):
    cfg, kp, kd, (demo,), index = job
    p = cfg.params
    decimation = int(p.get("decimation", 10))
    sigma = float(p.get("sigma", 0.05))
    trials = int(p.get("trials", 20))
    gains = GainConfig(kp=kp, kd=kd, gravity_comp=cfg.plant.gravity_enabled)
    rd = retarget.tpr_joint(demo, gains, plant=cfg.plant)
    rate = rd.command_rate / decimation
    spec = noise.NoiseSpec(sigma=sigma, mode=noise.HELD, rate=rate,
                           seed=_cell_seed(cfg.seed, index))
    res = noise.noisy_openloop_replay(rd, cfg.plant, spec, trials,
                                      decimation=decimation)
    return [{"kp": kp, "kd": kd, "goal_rate": res.goal_rate,
             "rms_deviation": res.rms_deviation}], {}


PSI_COLUMNS = sysid.FROZEN_GAIN_PARAMS + sysid.FREE_PARAMS


def _load_bounds(path) -> sysid.SysidBounds:
    """[bounds] section: one `name = lower, upper` line per parameter."""
    defaults = {n: (lo, hi) for n, lo, hi in sysid.SysidBounds.default().params}
    for name, value in _read_ini(path)["bounds"].items():
        lo, hi = (float(v) for v in value.split(","))
        defaults[name] = (lo, hi)
    return sysid.SysidBounds(params=tuple((n, lo, hi)
                                          for n, (lo, hi) in defaults.items()))


def _sysid_cell(job):
    cfg, kp, kd, _, index = job
    p = cfg.params
    gains = GainConfig(kp=kp, kd=kd)
    bounds = _load_bounds(p["bounds"]) if p.get("bounds") \
        else sysid.SysidBounds.default()
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(index,)))
    hidden = {n: rng.uniform(lo, hi)
              for n, lo, hi in bounds.subset(sysid.FREE_PARAMS).params}
    hidden_plant, _ = sysid._apply_params(cfg.plant, gains, hidden)
    reference = sysid.excite(hidden_plant, gains)
    cmaes_cfg = sysid.CmaesConfig(sigma0=float(p.get("sigma0", 3.0)),
                                  max_iter=int(p.get("iters", 200)),
                                  seed=_cell_seed(cfg.seed, index))
    fit = sysid.identify(reference, gains, bounds, cmaes_cfg, cfg.plant)
    row = {"kp": kp, "kd": kd, "final_loss": fit.loss, "evals": fit.n_evals}
    row.update({name: fit.params.get(name, float("nan")) for name in PSI_COLUMNS})
    history = _csv([{"iter": i, "best_loss": v} for i, v in enumerate(fit.history)],
                   ["iter", "best_loss"])
    return [row], {f"history_kp{kp:g}_kd{kd:g}.csv": history}


def _shape_cell(job):
    cfg, kp, kd, _, index = job
    p = cfg.params
    budget = int(p.get("budget", 200))
    gains = GainConfig(kp=kp, kd=kd)
    problem = ToyShapingProblem(plant=cfg.plant, gains=gains,
                                episodes=int(p.get("episodes", 8)),
                                seed=_cell_seed(cfg.seed, index))
    space = shaping.SearchSpace(n_groups=1, alpha_low=1e-3, alpha_high=30.0)
    result = shaping.shape_search(problem, space, budget,
                                  seed=_cell_seed(cfg.seed, index))
    ledger_rows = []
    for trial, ((mapping, j), detail) in enumerate(
            zip(result.ledger, problem.details, strict=True)):
        alphas = list(mapping.alpha) + [mapping.alpha[-1]] * (2 - mapping.alpha.size)
        ledger_rows.append({
            "trial": trial, "alpha1": alphas[0], "alpha2": alphas[1],
            "beta": mapping.beta, "gamma": mapping.gamma,
            "J": j if math.isfinite(j) else -1.0,
            "success": detail["success"], "viol_pos": detail["position"],
            "viol_vel": detail["velocity"], "viol_tau": detail["torque"],
            "viol_taurate": detail["torque_rate"]})
    final_rate = problem.goal_rate(result.best, n_episodes=int(p.get("eval_episodes", 100)))
    summary = {"kp": kp, "kd": kd, "best_J": result.objective,
               "goal_rate": final_rate, "alpha": float(result.best.alpha[0]),
               "beta": result.best.beta, "gamma": result.best.gamma}
    ledger_csv = _csv(ledger_rows, ["trial", "alpha1", "alpha2", "beta", "gamma",
                                    "J", "success", "viol_pos", "viol_vel",
                                    "viol_tau", "viol_taurate"])
    return [summary], {f"ledger_kp{kp:g}_kd{kd:g}.csv": ledger_csv}


def _compliance_cell(job):
    cfg, kp, kd, _, _ = job
    p = cfg.params
    gains = GainConfig(kp=kp, kd=kd, gravity_comp=cfg.plant.gravity_enabled)
    n = cfg.plant.n_joints
    probe = np.full(n, float(p.get("probe_force", 1.0)))
    k_eff = control.effective_stiffness(cfg.plant, gains, probe,
                                        settle_time=float(p.get("settle_time", 8.0)))
    return [{"kp": kp, "kd": kd, "k_eff": k_eff}], {}


def _jitter_cell(job):
    cfg, kp, kd, (demo,), index = job
    p = cfg.params
    decimation = int(p.get("decimation", 10))
    sigma = float(p.get("sigma", 0.02))
    gains = GainConfig(kp=kp, kd=kd, gravity_comp=cfg.plant.gravity_enabled)
    rd = retarget.tpr_joint(demo, gains, plant=cfg.plant)
    commands = rd.q_des[::decimation]
    rng = noise.trial_rng(_cell_seed(cfg.seed, index), 0)
    pert = rng.normal(0.0, sigma, size=commands.shape)
    traj, _ = retarget.replay(rd, decimation, cfg.plant, command_noise=pert)
    report = sysid.jitter_detect(traj, window=float(p.get("window", 2.0)),
                                 threshold=float(p.get("threshold", 0.04)))
    return [{"kp": kp, "kd": kd, "max_std": report.max_std,
             "flagged": report.flagged}], {}


def read_sweep_csv(path) -> list[stats.SweepOutcome]:
    """Load SweepOutcome rows: kp,kd,successes,trials[,error][,region]."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    header = [h.strip() for h in lines[0].split(",")]
    idx = {name: header.index(name) for name in header}
    rows = []
    for ln in lines[1:]:
        parts = [v.strip() for v in ln.split(",")]
        err = float(parts[idx["error"]]) if "error" in idx else None
        region = parts[idx["region"]] if "region" in idx else None
        rows.append(stats.SweepOutcome(
            kp=float(parts[idx["kp"]]), kd=float(parts[idx["kd"]]),
            successes=int(parts[idx["successes"]]), trials=int(parts[idx["trials"]]),
            scalar_error=err, region=region))
    return rows


def run_stats_report(cfg: ExperimentConfig, workers: int = 1):
    p = cfg.params
    outcomes = read_sweep_csv(p["input"])
    if outcomes and outcomes[0].region is None:
        m_eff = float(np.min(cfg.plant.mass))
        outcomes = stats.label_outcomes(outcomes, m_eff, cfg.grid.stiffness_split)
    region = str(p.get("region", "CO"))
    metric = str(p.get("metric", "success"))
    alternative = str(p.get("alternative", "greater"))
    alpha = float(p.get("alpha", 0.05))
    m = int(p.get("m", 1))
    report = stats.region_test(outcomes, region, metric, alternative=alternative,
                               alpha=alpha, m=m)
    rows = [{"test": report.test, "region": report.region,
             "statistic": report.statistic, "p": report.p_value,
             "alpha_adj": report.alpha_adj, "reject": report.reject}]
    lines = [f"{report.test}: region {report.region} vs complement "
             f"({metric}, alternative={alternative})",
             f"  statistic = {report.statistic:.6g}",
             f"  p = {report.p_value:.6g}, alpha_adj = {report.alpha_adj:.6g} "
             f"(alpha={alpha:g}, m={m})",
             f"  reject H0: {report.reject}"]
    for k, v in sorted(report.detail.items()):
        lines.append(f"  {k} = {v:.6g}")
    if metric == "success":
        fit = stats.logistic_fit(outcomes)
        lines.append("logistic regression on (log2 Kp, log2 Kd):")
    else:
        fit = stats.ols_log_fit(outcomes)
        lines.append("OLS on log error vs (log2 Kp, log2 Kd):")
    for name, c, se in zip(("intercept", "beta_kp", "beta_kd"), fit.coef, fit.stderr):
        lines.append(f"  {name} = {c:+.4f} (se {se:.4f})")
    files = {"report.csv": _csv(rows, ["test", "region", "statistic", "p",
                                       "alpha_adj", "reject"]),
             "summary.txt": "\n".join(lines) + "\n"}
    return files, []


def _run_grid(kind: str, cfg: ExperimentConfig, workers: int):
    """Run the kind's cell on every job; return ({filename: text}, failures).

    A failed cell adds (job index, error) to the failures and no rows.
    Results are gathered in job order, so the files are identical
    regardless of the worker count.
    """
    spec = RUNNERS[kind]
    shared = spec.shared(cfg)
    jobs = [(cfg, kp, kd, shared, i) for i, (kp, kd) in enumerate(spec.cells(cfg))]
    results, failures = [], []

    def collect(i, call):
        try:
            results.append(call())
        except Exception as exc:
            failures.append((i, repr(exc)))

    if workers <= 1 or len(jobs) <= 1:
        for i, job in enumerate(jobs):
            collect(i, lambda: spec.cell(job))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for i, future in enumerate([pool.submit(spec.cell, job) for job in jobs]):
                collect(i, future.result)
    rows = [row for cell_rows, _ in results for row in cell_rows]
    files = {"results.csv": _csv(rows, spec.columns)}
    for key in spec.heatmaps(cfg):
        files[f"heatmap_{key}.csv"] = _heatmap(rows, key, cfg.grid)
    for _, sidecars in results:
        files.update(sidecars)
    return files, failures


@dataclass(frozen=True)
class _Kind:
    """One kind; ``runner(kind, cfg, workers)`` returns ({name: text}, failures).

    A grid kind's ``cell`` gets a job ``(cfg, kp, kd, shared(cfg), index)``
    per ``cells(cfg)`` entry and returns (rows, {sidecar name: text}). The
    rows' ``columns`` go to results.csv and each row key in ``heatmaps(cfg)``
    to heatmap_<key>.csv. ``choices`` maps a param to its allowed values.
    """

    cell: Callable | None = None
    columns: tuple[str, ...] = ()
    heatmaps: Callable = lambda cfg: ()
    cells: Callable = lambda cfg: list(cfg.grid.cells())
    shared: Callable = lambda cfg: None
    choices: dict = field(default_factory=dict)
    runner: Callable = _run_grid


RUNNERS = {
    "tpr-sweep": _Kind(
        _tpr_cell, ("kp", "kd", "decimation", "mse", "goal_reached"),
        heatmaps=lambda cfg: [f"mse_dec{d}" for d in _decimations(cfg)],
        shared=lambda cfg: _demos(cfg, int(cfg.params.get("n_demos", 5)), 2.0)),
    "variance-check": _Kind(
        _variance_cell, ("kp", "kd", "mass", "sigma", "mode", "empirical_var",
                         "stderr", "analytic_var"),
        heatmaps=lambda cfg: ["rel_err"],  # worst over the masses
        cells=lambda cfg: [c for c in cfg.grid.cells() for _ in _masses(cfg)],
        shared=_masses, choices={"mode": (noise.CONTINUOUS, noise.HELD)}),
    "noisy-replay": _Kind(
        _noisy_cell, ("kp", "kd", "goal_rate", "rms_deviation"),
        heatmaps=lambda cfg: ["goal_rate", "rms_deviation"],
        shared=lambda cfg: _demos(cfg, 1, 2.0)),
    "sysid-sweep": _Kind(
        _sysid_cell, ("kp", "kd", "final_loss", "evals", *PSI_COLUMNS),
        heatmaps=lambda cfg: ["final_loss"]),
    "shape-search": _Kind(
        _shape_cell, ("kp", "kd", "best_J", "goal_rate", "alpha", "beta", "gamma"),
        # every grid cell, or the regime corners once each (CO, SO, CU, SU)
        cells=lambda cfg: list(cfg.grid.cells() if cfg.params.get("cells") == "all"
                               else dict.fromkeys(cfg.grid.corners().values())),
        choices={"cells": ("corners", "all")}),
    "stats-report": _Kind(
        runner=lambda kind, cfg, workers: run_stats_report(cfg, workers),
        choices={"metric": ("success", "error"), "alternative": ("greater", "less")}),
    "compliance-probe": _Kind(_compliance_cell, ("kp", "kd", "k_eff"),
                              heatmaps=lambda cfg: ["k_eff"]),
    "jitter-scan": _Kind(
        _jitter_cell, ("kp", "kd", "max_std", "flagged"),
        heatmaps=lambda cfg: ["max_std"], shared=lambda cfg: _demos(cfg, 1, 6.0)),
}
KINDS = tuple(RUNNERS)


# ---------------------------------------------------------------------------
# Entry points


def run(config: ExperimentConfig, workers: int | None = None) -> int:
    findings = validate(config)
    if findings:
        for f in findings:
            print(f"validation: {f}", file=sys.stderr)
        return 1
    if workers is None:
        workers = int(os.environ.get(WORKERS_ENV, "1"))
    os.makedirs(config.out, exist_ok=True)
    try:
        files, failures = RUNNERS[config.kind].runner(config.kind, config,
                                                      max(1, workers))
    except Exception as exc:
        with open(os.path.join(config.out, "failures.csv"), "w") as fh:
            fh.write("cell,error\n-1," + repr(exc).replace(",", ";") + "\n")
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2
    if failures:
        files["failures.csv"] = _csv(
            [{"cell": i, "error": err.replace(",", ";")} for i, err in failures],
            ["cell", "error"])
    hashes = {}
    for name, text in sorted(files.items()):
        path = os.path.join(config.out, name)
        with open(path, "w") as fh:
            fh.write(text)
        hashes[name] = hashlib.sha256(text.encode()).hexdigest()
    manifest = {
        "kind": config.kind,
        "seed": config.seed,
        "grid": {"kp": [float(v) for v in config.grid.kp_values],
                 "kd": [float(v) for v in config.grid.kd_values]},
        "params": {k: v for k, v in sorted(config.params.items())},
        "files": hashes,
    }
    with open(os.path.join(config.out, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for i, err in failures:
        print(f"cell {i} failed: {err}", file=sys.stderr)
    return 2 if failures else 0


def _cmd_run(args) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    if args.out is not None:
        config = dataclasses.replace(config, out=args.out)
    return run(config, workers=args.workers)


def _cmd_validate(args) -> int:
    try:
        config = load_config(args.config)
    except Exception as exc:
        print(f"validation: cannot parse config: {exc}", file=sys.stderr)
        return 1
    findings = validate(config)
    for f in findings:
        print(f"validation: {f}")
    return 1 if findings else 0


def _cmd_sysid(args) -> int:
    grid = _parse_grid(_read_ini(args.grid)) if args.grid else default_grid()
    params = {"iters": args.iters, "sigma0": args.sigma0}
    if args.bounds:
        params["bounds"] = args.bounds
    config = ExperimentConfig(kind="sysid-sweep", seed=args.seed, out=args.out,
                              plant=dynamics.point_mass(1.0), grid=grid,
                              params=params)
    return run(config, workers=args.workers)


def _cmd_shape(args) -> int:
    kp, kd = (float(v) for v in args.gains.split(","))
    grid = GainGrid(kp_values=np.array([kp]), kd_values=np.array([kd]))
    plant = dynamics.point_mass(1.0, torque_limit=300.0, torque_rate_limit=2e4)
    config = ExperimentConfig(kind="shape-search", seed=args.seed, out=args.out,
                              plant=plant, grid=grid,
                              params={"budget": args.budget, "cells": "all"})
    return run(config, workers=args.workers)


def _cmd_stats(args) -> int:
    params = {"input": args.input, "region": args.region, "metric": args.metric,
              "alternative": args.alternative, "alpha": args.alpha, "m": args.m}
    config = ExperimentConfig(kind="stats-report", seed=0, out=args.out,
                              plant=dynamics.point_mass(1.0),
                              grid=default_grid(), params=params)
    return run(config)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="gainlab",
                                     description="gain-grid experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--workers", type=int, default=None)
    p_run.set_defaults(fn=_cmd_run)

    p_val = sub.add_parser("validate", help="validate a config without running")
    p_val.add_argument("--config", required=True)
    p_val.set_defaults(fn=_cmd_validate)

    p_sys = sub.add_parser("sysid", help="per-cell self-identification sweep")
    p_sys.add_argument("--grid", default=None)
    p_sys.add_argument("--bounds", default=None,
                       help="INI with a [bounds] section of `name = lo, hi` "
                            "lines overriding the standard table")
    p_sys.add_argument("--iters", type=int, default=200)
    p_sys.add_argument("--sigma0", type=float, default=3.0)
    p_sys.add_argument("--seed", type=int, required=True)
    p_sys.add_argument("--out", default="out")
    p_sys.add_argument("--workers", type=int, default=None)
    p_sys.set_defaults(fn=_cmd_sysid)

    p_shape = sub.add_parser("shape", help="shaping search for one gain cell")
    p_shape.add_argument("--gains", required=True, help="kp,kd")
    p_shape.add_argument("--budget", type=int, default=200)
    p_shape.add_argument("--seed", type=int, required=True)
    p_shape.add_argument("--out", default="out")
    p_shape.add_argument("--workers", type=int, default=None)
    p_shape.set_defaults(fn=_cmd_shape)

    p_stats = sub.add_parser("stats", help="region test on a sweep CSV")
    p_stats.add_argument("--input", required=True)
    p_stats.add_argument("--region", default="CO")
    p_stats.add_argument("--metric", default="success",
                         choices=RUNNERS["stats-report"].choices["metric"])
    p_stats.add_argument("--alternative", default="greater",
                         choices=RUNNERS["stats-report"].choices["alternative"])
    p_stats.add_argument("--alpha", type=float, default=0.05)
    p_stats.add_argument("--m", type=int, default=1)
    p_stats.add_argument("--out", default="out")
    p_stats.set_defaults(fn=_cmd_stats)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
