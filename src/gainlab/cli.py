"""Config-driven experiment runner with deterministic, manifested outputs.

One INI config describes one experiment: an ``[experiment]`` section
(kind, seed, out), a ``[plant]`` section, a ``[grid]`` section (kp/kd
lists), and a ``[params]`` section of kind-specific knobs. Every run
writes per-cell CSVs, long-format heatmap tables (``kp,kd,value`` with Kd
as the outer loop), and a manifest of content hashes; identical
config+seed reruns produce byte-identical payloads regardless of the
worker count.

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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import control, dynamics, noise, retarget, shaping, stats, sysid
from .control import GainConfig, GainGrid, default_grid
from .dynamics import PlantParams
from .shaping import ToyShapingProblem

KINDS = ("tpr-sweep", "variance-check", "noisy-replay", "sysid-sweep",
         "shape-search", "stats-report", "compliance-probe", "jitter-scan")

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


def load_config(source) -> ExperimentConfig:
    """Parse an experiment config from a path or INI string."""
    cp = configparser.ConfigParser()
    text = str(source)
    if "\n" in text:
        cp.read_string(text)
    else:
        with open(text) as fh:
            cp.read_string(fh.read())
    exp = cp["experiment"] if cp.has_section("experiment") else {}
    kind = exp.get("kind", "")
    seed = int(exp.get("seed", 0))
    out = exp.get("out", "out")
    plant = dynamics.load_plant(dict(cp["plant"])) if cp.has_section("plant") \
        else dynamics.point_mass(1.0)
    if cp.has_section("grid"):
        kp = [float(v) for v in cp["grid"].get("kp", "").split(",") if v.strip()]
        kd = [float(v) for v in cp["grid"].get("kd", "").split(",") if v.strip()]
        try:
            grid = GainGrid(kp_values=np.array(kp), kd_values=np.array(kd))
        except ValueError:
            grid = None
    else:
        grid = default_grid()
    params = {}
    if cp.has_section("params"):
        params = {k: _parse_value(v) for k, v in cp["params"].items()}
    return ExperimentConfig(kind=kind, seed=seed, out=out, plant=plant,
                            grid=grid, params=params)


def validate(config: ExperimentConfig) -> list[str]:
    """Schema and cross-field checks; findings are the output, not errors."""
    findings = []
    if config.kind not in KINDS:
        findings.append(f"experiment.kind: unknown kind {config.kind!r}; "
                        f"expected one of {', '.join(KINDS)}")
    if config.grid is None:
        findings.append("grid: must be non-empty with strictly increasing axes")
    if config.kind == "variance-check" and config.grid is not None:
        dt = config.params.get("dt")
        if dt:
            m_min = float(np.min(config.plant.mass))
            wn_max = math.sqrt(config.grid.kp_values[-1] / m_min)
            if wn_max * float(dt) >= 0.1:
                findings.append(
                    f"params.dt: dt too coarse for Kp={config.grid.kp_values[-1]:g}, "
                    f"m={m_min:g} (omega_n*dt = {wn_max * float(dt):.3f} >= 0.1)")
    for key in ("trials", "budget", "n_demos", "iters"):
        v = config.params.get(key)
        if v is not None and int(v) < 1:
            findings.append(f"params.{key}: must be >= 1")
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
    by_cell = {(r["kp"], r["kd"]): r[value_key] for r in rows}
    out = [{"kp": kp, "kd": kd, "value": by_cell[(kp, kd)]}
           for kp, kd in grid.cells() if (kp, kd) in by_cell]
    return _csv(out, ["kp", "kd", "value"])


def _workers(override: int | None) -> int:
    if override is not None:
        return max(1, override)
    return max(1, int(os.environ.get(WORKERS_ENV, "1")))


def _map_cells(fn, args_list, workers: int):
    """Run fn over jobs; returns (results aligned to jobs, failures).

    Failed cells leave None in the results and an (index, error) entry in
    the failure ledger; results are gathered by job index so the output
    is identical regardless of the worker count.
    """
    results = [None] * len(args_list)
    failures = []
    if workers <= 1 or len(args_list) <= 1:
        for i, a in enumerate(args_list):
            try:
                results[i] = fn(a)
            except Exception as exc:
                failures.append((i, repr(exc)))
        return results, failures
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = {pool.submit(fn, a): i for i, a in enumerate(args_list)}
        for fut, i in futures.items():
            try:
                results[i] = fut.result()
            except Exception as exc:
                failures.append((i, repr(exc)))
    failures.sort()
    return results, failures


# ---------------------------------------------------------------------------
# Experiment runners: each returns {filename: text}


def _variance_cell(job):
    cfg, kp, kd, mass, index = job
    p = cfg.params
    sigma = float(p.get("sigma", 0.1))
    trials = int(p.get("trials", 100))
    mode = str(p.get("mode", noise.CONTINUOUS))
    wn = math.sqrt(kp / mass)
    dt = float(p.get("dt", 0.0)) or 0.02 / wn
    zeta = kd / (2.0 * math.sqrt(mass * kp))
    tc = noise.time_constant(wn, zeta)
    horizon = float(p.get("horizon", 0.0)) or 60.0 * tc
    rate = float(p["rate"]) if mode == noise.HELD else None
    spec = noise.NoiseSpec(sigma=sigma, mode=mode, rate=rate,
                           seed=_cell_seed(cfg.seed, index))
    est = noise.simulate_perturbation(GainConfig(kp=kp, kd=kd), mass, spec,
                                      dt=dt, horizon=horizon, n_trials=trials)
    return {"kp": kp, "kd": kd, "mass": mass, "sigma": sigma, "mode": mode,
            "empirical_var": est.value, "stderr": est.stderr,
            "analytic_var": est.analytic}


def run_variance_check(cfg: ExperimentConfig, workers: int = 1):
    masses = cfg.params.get("masses", [float(np.min(cfg.plant.mass))])
    if not isinstance(masses, list):
        masses = [float(masses)]
    jobs = []
    index = 0
    for kp, kd in cfg.grid.cells():
        for mass in masses:
            jobs.append((cfg, kp, kd, float(mass), index))
            index += 1
    results, failures = _map_cells(_variance_cell, jobs, workers)
    rows = [r for r in results if r is not None]
    files = {"results.csv": _csv(rows, ["kp", "kd", "mass", "sigma", "mode",
                                        "empirical_var", "stderr", "analytic_var"])}
    worst = {}
    for r in rows:
        rel = abs(r["empirical_var"] - r["analytic_var"]) / r["analytic_var"] \
            if r["analytic_var"] else 0.0
        key = (r["kp"], r["kd"])
        worst[key] = max(worst.get(key, 0.0), rel)
    hm = [{"kp": kp, "kd": kd, "value": worst[(kp, kd)]}
          for kp, kd in cfg.grid.cells() if (kp, kd) in worst]
    files["heatmap_rel_err.csv"] = _csv(hm, ["kp", "kd", "value"])
    return files, failures


def _random_demo(cfg: ExperimentConfig, rng: np.random.Generator,
                 duration: float, base_rate: float) -> retarget.TorqueDemo:
    n = cfg.plant.n_joints
    q0 = rng.uniform(-0.8, 0.8, size=n)
    qf = rng.uniform(-0.8, 0.8, size=n)
    pos, vel, acc = retarget.quintic_reference(q0, qf, 0.75 * duration)
    ctrl = retarget.computed_torque_tracker(cfg.plant, pos, vel, acc)
    goal = retarget.TaskGoal(q_goal=qf, tol=float(cfg.params.get("goal_tol", 0.05)))
    return retarget.make_demo(cfg.plant, ctrl, duration, base_rate, q0=q0,
                              goal=goal, reference=pos)


def _tpr_cell(job):
    cfg, kp, kd, demos, decimations = job
    gains = GainConfig(kp=kp, kd=kd, gravity_comp=cfg.plant.gravity_enabled)
    rows = []
    for dec in decimations:
        mses, reached = [], []
        for demo in demos:
            rd = retarget.tpr_joint(demo, gains, plant=cfg.plant)
            _, rep = retarget.replay(rd, int(dec), cfg.plant, source=demo)
            mses.append(rep.mse)
            reached.append(rep.goal_reached)
        rows.append({"kp": kp, "kd": kd, "decimation": int(dec),
                     "mse": float(np.mean(mses)),
                     "goal_reached": float(np.mean(reached))})
    return rows


def run_tpr_sweep(cfg: ExperimentConfig, workers: int = 1):
    p = cfg.params
    decimations = p.get("decimations", [1, 10, 25, 50])
    if not isinstance(decimations, list):
        decimations = [decimations]
    n_demos = int(p.get("n_demos", 5))
    duration = float(p.get("duration", 2.0))
    base_rate = float(p.get("base_rate", 500.0))
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(0,)))
    demos = [_random_demo(cfg, rng, duration, base_rate) for _ in range(n_demos)]
    jobs = [(cfg, kp, kd, demos, decimations) for kp, kd in cfg.grid.cells()]
    nested, failures = _map_cells(_tpr_cell, jobs, workers)
    rows = [r for cell_rows in nested if cell_rows for r in cell_rows]
    files = {"results.csv": _csv(rows, ["kp", "kd", "decimation", "mse",
                                        "goal_reached"])}
    for dec in decimations:
        sub = [r for r in rows if r["decimation"] == int(dec)]
        files[f"heatmap_mse_dec{int(dec)}.csv"] = _heatmap(sub, "mse", cfg.grid)
    return files, failures


def _noisy_cell(job):
    cfg, kp, kd, demo, index = job
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
    return {"kp": kp, "kd": kd, "goal_rate": res.goal_rate,
            "rms_deviation": res.rms_deviation}


def run_noisy_replay(cfg: ExperimentConfig, workers: int = 1):
    p = cfg.params
    duration = float(p.get("duration", 2.0))
    base_rate = float(p.get("base_rate", 500.0))
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(0,)))
    demo = _random_demo(cfg, rng, duration, base_rate)
    jobs = [(cfg, kp, kd, demo, i) for i, (kp, kd) in enumerate(cfg.grid.cells())]
    results, failures = _map_cells(_noisy_cell, jobs, workers)
    rows = [r for r in results if r is not None]
    return {
        "results.csv": _csv(rows, ["kp", "kd", "goal_rate", "rms_deviation"]),
        "heatmap_goal_rate.csv": _heatmap(rows, "goal_rate", cfg.grid),
        "heatmap_rms_deviation.csv": _heatmap(rows, "rms_deviation", cfg.grid),
    }, failures


PSI_COLUMNS = ("stiffness", "damping", "armature", "static_friction",
               "dynamic_friction_ratio", "viscous_friction")


def _load_bounds(path) -> sysid.SysidBounds:
    """[bounds] section: one `name = lower, upper` line per parameter."""
    cp = configparser.ConfigParser()
    with open(path) as fh:
        cp.read_string(fh.read())
    defaults = {n: (lo, hi) for n, lo, hi in sysid.SysidBounds.default().params}
    for name, value in cp["bounds"].items():
        lo, hi = (float(v) for v in value.split(","))
        defaults[name] = (lo, hi)
    return sysid.SysidBounds(params=tuple((n, lo, hi)
                                          for n, (lo, hi) in defaults.items()))


def _sysid_cell(job):
    cfg, kp, kd, index = job
    p = cfg.params
    gains = GainConfig(kp=kp, kd=kd)
    bounds = _load_bounds(p["bounds"]) if p.get("bounds") \
        else sysid.SysidBounds.default()
    free = {n: (lo, hi) for n, lo, hi in bounds.params
            if n in sysid.FREE_PARAMS}
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(index,)))
    hidden = {name: rng.uniform(lo, hi) for name, (lo, hi) in free.items()}
    hidden_plant, _ = sysid._apply_params(cfg.plant, gains, hidden)
    proto = sysid.ExcitationProtocol()
    reference = sysid.excite(hidden_plant, gains)
    cmaes_cfg = sysid.CmaesConfig(sigma0=float(p.get("sigma0", 3.0)),
                                  max_iter=int(p.get("iters", 200)),
                                  seed=_cell_seed(cfg.seed, index))
    fit = sysid.identify(reference, gains, bounds, cmaes_cfg, cfg.plant,
                         protocol=proto)
    row = {"kp": kp, "kd": kd, "final_loss": fit.loss, "evals": fit.n_evals}
    row.update({name: fit.params.get(name, float("nan")) for name in PSI_COLUMNS})
    history = _csv([{"iter": i, "best_loss": v} for i, v in enumerate(fit.history)],
                   ["iter", "best_loss"])
    return row, (f"history_kp{kp:g}_kd{kd:g}.csv", history)


def run_sysid_sweep(cfg: ExperimentConfig, workers: int = 1):
    jobs = [(cfg, kp, kd, i) for i, (kp, kd) in enumerate(cfg.grid.cells())]
    results, failures = _map_cells(_sysid_cell, jobs, workers)
    results = [r for r in results if r is not None]
    rows = [r for r, _ in results]
    files = {"results.csv": _csv(rows, ["kp", "kd", "final_loss", "evals",
                                        *PSI_COLUMNS]),
             "heatmap_final_loss.csv": _heatmap(rows, "final_loss", cfg.grid)}
    for _, (name, text) in results:
        files[name] = text
    return files, failures


def _shape_cell(job):
    cfg, kp, kd, index = job
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
    return summary, (f"ledger_kp{kp:g}_kd{kd:g}.csv", ledger_csv)


def run_shape_search(cfg: ExperimentConfig, workers: int = 1):
    which = cfg.params.get("cells", "corners")
    if which == "all":
        cells = list(cfg.grid.cells())
    else:
        cells = list(cfg.grid.corners().values())
    jobs = [(cfg, kp, kd, i) for i, (kp, kd) in enumerate(cells)]
    results, failures = _map_cells(_shape_cell, jobs, workers)
    results = [r for r in results if r is not None]
    rows = [r for r, _ in results]
    files = {"results.csv": _csv(rows, ["kp", "kd", "best_J", "goal_rate",
                                        "alpha", "beta", "gamma"])}
    for _, (name, text) in results:
        files[name] = text
    return files, failures


def _compliance_cell(job):
    cfg, kp, kd, _ = job
    p = cfg.params
    gains = GainConfig(kp=kp, kd=kd, gravity_comp=cfg.plant.gravity_enabled)
    n = cfg.plant.n_joints
    probe = np.full(n, float(p.get("probe_force", 1.0)))
    k_eff = control.effective_stiffness(cfg.plant, gains, probe,
                                        settle_time=float(p.get("settle_time", 8.0)))
    return {"kp": kp, "kd": kd, "k_eff": k_eff}


def run_compliance_probe(cfg: ExperimentConfig, workers: int = 1):
    jobs = [(cfg, kp, kd, i) for i, (kp, kd) in enumerate(cfg.grid.cells())]
    results, failures = _map_cells(_compliance_cell, jobs, workers)
    rows = [r for r in results if r is not None]
    return {"results.csv": _csv(rows, ["kp", "kd", "k_eff"]),
            "heatmap_k_eff.csv": _heatmap(rows, "k_eff", cfg.grid)}, failures


def _jitter_cell(job):
    cfg, kp, kd, demo, index = job
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
    return {"kp": kp, "kd": kd, "max_std": report.max_std,
            "flagged": report.flagged}


def run_jitter_scan(cfg: ExperimentConfig, workers: int = 1):
    p = cfg.params
    duration = float(p.get("duration", 6.0))
    base_rate = float(p.get("base_rate", 500.0))
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(0,)))
    demo = _random_demo(cfg, rng, duration, base_rate)
    jobs = [(cfg, kp, kd, demo, i) for i, (kp, kd) in enumerate(cfg.grid.cells())]
    results, failures = _map_cells(_jitter_cell, jobs, workers)
    rows = [r for r in results if r is not None]
    return {"results.csv": _csv(rows, ["kp", "kd", "max_std", "flagged"]),
            "heatmap_max_std.csv": _heatmap(rows, "max_std", cfg.grid)}, failures


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


def run_stats_report(cfg: ExperimentConfig, workers: int = 1) -> dict:
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


RUNNERS = {
    "variance-check": run_variance_check,
    "tpr-sweep": run_tpr_sweep,
    "noisy-replay": run_noisy_replay,
    "sysid-sweep": run_sysid_sweep,
    "shape-search": run_shape_search,
    "stats-report": run_stats_report,
    "compliance-probe": run_compliance_probe,
    "jitter-scan": run_jitter_scan,
}


# ---------------------------------------------------------------------------
# Entry points


def run(config: ExperimentConfig, workers: int | None = None) -> int:
    findings = validate(config)
    if findings:
        for f in findings:
            print(f"validation: {f}", file=sys.stderr)
        return 1
    os.makedirs(config.out, exist_ok=True)
    try:
        files, failures = RUNNERS[config.kind](config, workers=_workers(workers))
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
    if failures:
        for i, err in failures:
            print(f"cell {i} failed: {err}", file=sys.stderr)
        return 2
    return 0


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


def _grid_from_file(path) -> GainGrid:
    cp = configparser.ConfigParser()
    with open(path) as fh:
        cp.read_string(fh.read())
    kp = [float(v) for v in cp["grid"]["kp"].split(",") if v.strip()]
    kd = [float(v) for v in cp["grid"]["kd"].split(",") if v.strip()]
    return GainGrid(kp_values=np.array(kp), kd_values=np.array(kd))


def _cmd_sysid(args) -> int:
    grid = _grid_from_file(args.grid) if args.grid else default_grid()
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
                         choices=["success", "error"])
    p_stats.add_argument("--alternative", default="greater",
                         choices=["greater", "less"])
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
