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

Subcommands: ``run`` and ``validate``, each on one ``--config`` file.
Exit codes: 0 success, 1 validation error (a finding, or a config that
cannot be parsed), 2 runtime failure.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import functools
import hashlib
import itertools
import json
import math
import os
import sys
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from numpy.random import SeedSequence, default_rng

from . import control, dynamics, noise, retarget, shaping, stats, sysid
from .control import GainConfig, GainGrid, default_grid
from .dynamics import PlantParams
from .shaping import ToyShapingProblem


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


def _read_ini(path) -> configparser.ConfigParser:
    """Parse the INI file at ``path``."""
    cp = configparser.ConfigParser()
    with open(path) as fh:
        cp.read_file(fh)
    return cp


def _parse_grid(cp: configparser.ConfigParser) -> GainGrid | None:
    """The [grid] kp/kd lists, or the default grid without a [grid] section;
    None unless both lists are non-empty, positive, numeric and strictly increasing."""
    if not cp.has_section("grid"):
        return default_grid()
    try:
        kp, kd = ([float(v) for v in cp["grid"].get(axis, "").split(",") if v.strip()]
                  for axis in ("kp", "kd"))
        grid = GainGrid(kp_values=np.array(kp), kd_values=np.array(kd))
    except ValueError:
        return None
    return grid if np.all(grid.kp_values > 0) and np.all(grid.kd_values > 0) else None


_SECTIONS = {"experiment": {"kind", "seed", "out"}, "plant": None, "grid": {"kp", "kd"},
             "params": None}  # None: dynamics.load_plant or validate checks the keys


def load_config(path) -> ExperimentConfig:
    """Parse the experiment config file at ``path``."""
    cp = _read_ini(path)
    for name in cp.sections():
        if name not in _SECTIONS:
            raise ValueError(f"unknown section [{name}]")
        unknown = set(cp[name]) - _SECTIONS[name] if _SECTIONS[name] else set()
        if unknown:
            raise ValueError(f"[{name}]: unknown key {min(unknown)!r}")
    exp = cp["experiment"] if cp.has_section("experiment") else {}
    kind = exp.get("kind", "")
    seed = int(exp.get("seed", 0))
    out = exp.get("out", "out")
    plant = dynamics.load_plant(dict(cp["plant"])) if cp.has_section("plant") \
        else dynamics.point_mass(1.0)
    grid = _parse_grid(cp)
    params = {}
    if cp.has_section("params"):
        params = {k: _parse_value(v) for k, v in cp["params"].items()}
    return ExperimentConfig(kind=kind, seed=seed, out=out, plant=plant,
                            grid=grid, params=params)


def _params(config: ExperimentConfig) -> tuple[dict, list[str]]:
    """The kind's params, each checked and cast, a default for each one not
    given, and one finding per unknown key or failed check."""
    table = RUNNERS[config.kind].params
    findings = [f"params.{key}: unknown param; expected one of {', '.join(table)}"
                for key in config.params if key not in table]
    params = {}
    for key, (default, check) in table.items():
        value = config.params[key] if key in config.params \
            else default(config) if callable(default) else default
        try:
            params[key] = check(value)
        except ValueError as exc:
            findings.append(f"params.{key}: {exc}")
    return params, findings


def validate(config: ExperimentConfig) -> list[str]:
    """Schema and cross-field checks; findings are the output, not errors."""
    findings = []
    if config.kind not in KINDS:
        findings.append(f"experiment.kind: unknown kind {config.kind!r}; "
                        f"expected one of {', '.join(KINDS)}")
    if config.seed < 0:
        findings.append("experiment.seed: must be an integer >= 0")
    if config.grid is None:
        findings.append("grid: must be non-empty with positive, strictly increasing axes")
    if config.kind in KINDS:
        params, param_findings = _params(config)
        findings += param_findings
        if not findings:  # the cross-field rules assume each param passed its check
            try:
                RUNNERS[config.kind].rules(dataclasses.replace(config, params=params))
            except ValueError as exc:  # its message starts with the param at fault
                findings.append(f"params.{str(exc).split()[0]}: {exc}")
    return findings


def _cell_seed(root: int, index: int) -> int:
    return int(SeedSequence(root, spawn_key=(index,)).generate_state(1)[0])


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


def _each(cell: Callable) -> Callable:
    """The list-of-jobs form of a one-job cell: its outcome per job, the
    exception that failed a job in that job's slot."""
    @functools.wraps(cell)  # pickled by name, as a pool task
    def cells(jobs: list) -> list:
        out = []
        for job in jobs:
            try:
                out.append(cell(job))
            except Exception as exc:
                out.append(exc)
        return out
    return cells


def _demos(cfg: ExperimentConfig, n: int) -> list[retarget.TorqueDemo]:
    """n random point-to-point demos, all seeded from the config seed."""
    p = cfg.params
    duration, base_rate = p["duration"], p["base_rate"]
    rng = default_rng(SeedSequence(cfg.seed, spawn_key=(0,)))
    demos = []
    for _ in range(n):
        q0 = rng.uniform(-0.8, 0.8, size=cfg.plant.n_joints)
        qf = rng.uniform(-0.8, 0.8, size=cfg.plant.n_joints)
        pos, vel, acc = retarget.quintic_reference(q0, qf, 0.75 * duration)
        ctrl = retarget.computed_torque_tracker(cfg.plant, pos, vel, acc)
        goal = retarget.TaskGoal(q_goal=qf, tol=p["goal_tol"])
        demos.append(retarget.make_demo(cfg.plant, ctrl, duration, base_rate,
                                        q0=q0, goal=goal, reference=pos))
    return demos


@_each
def _variance_cell(job):
    cfg, kp, kd, _, index = job
    p = cfg.params
    mass, sigma, mode = p["masses"][index % len(p["masses"])], p["sigma"], p["mode"]
    spec = noise.NoiseSpec(sigma=sigma, rate=p["rate"] if mode == "held" else None,
                           seed=_cell_seed(cfg.seed, index))
    est = noise.simulate_perturbation(GainConfig(kp=kp, kd=kd), mass, spec, p["trials"],
                                      dt=p["dt"] or None, horizon=p["horizon"] or None)
    rel_err = abs(est.value - est.analytic) / est.analytic if est.analytic else 0.0
    return [{"kp": kp, "kd": kd, "mass": mass, "sigma": sigma, "mode": mode,
             "empirical_var": est.value, "stderr": est.stderr,
             "analytic_var": est.analytic, "rel_err": rel_err}], {}


@_each
def _tpr_cell(job):
    cfg, kp, kd, demos, _ = job
    gains = GainConfig(kp=kp, kd=kd, gravity_comp=cfg.plant.gravity_enabled)
    retargeted = [retarget.tpr_joint(demo, gains, plant=cfg.plant) for demo in demos]
    rows = []
    for dec in cfg.params["decimations"]:
        mses, reached = [], []
        for demo, rd in zip(demos, retargeted):
            _, rep = retarget.replay(rd, dec, cfg.plant, source=demo)
            mses.append(rep.mse)
            reached.append(rep.goal_reached)
        mse = float(np.mean(mses))
        rows.append({"kp": kp, "kd": kd, "decimation": dec, "mse": mse,
                     f"mse_dec{dec}": mse, "goal_reached": float(np.mean(reached))})
    return rows, {}


def _noisy_cells(jobs):
    """Every job's cell as one lane of one gain stack (see noise.noisy_openloop_replay)."""
    cfg, _, _, (demo,), _ = jobs[0]
    p = cfg.params
    _, kps, kds, _, indices = zip(*jobs)
    gains = GainConfig(kp=np.array(kps)[:, None], kd=np.array(kds)[:, None],
                       gravity_comp=cfg.plant.gravity_enabled)
    rd = retarget.tpr_joint(demo, gains, plant=cfg.plant)
    outcomes = noise.noisy_openloop_replay(rd, cfg.plant, p["sigma"],
                                           [_cell_seed(cfg.seed, i) for i in indices],
                                           p["trials"], decimation=p["decimation"])
    return [res if isinstance(res, Exception) else
            ([{"kp": kp, "kd": kd, "goal_rate": res.goal_rate,
               "rms_deviation": res.rms_deviation}], {})
            for kp, kd, res in zip(kps, kds, outcomes, strict=True)]


def _load_bounds(path) -> sysid.SysidBounds:
    """[bounds] section: one `name = lower, upper` line per searched parameter."""
    defaults = {n: (lo, hi) for n, lo, hi in sysid.SysidBounds.default().params}
    for name, value in _read_ini(path)["bounds"].items():
        if name not in defaults:
            raise ValueError(f"bounds: {name!r} is not identified; "
                             f"expected one of {', '.join(defaults)}")
        lo, hi = (float(v) for v in value.split(","))
        defaults[name] = (lo, hi)
    return sysid.SysidBounds(params=tuple((n, lo, hi)
                                          for n, (lo, hi) in defaults.items()))


@_each
def _sysid_cell(job):
    cfg, kp, kd, _, index = job
    p = cfg.params
    gains = GainConfig(kp=kp, kd=kd)
    bounds = _load_bounds(p["bounds"]) if p["bounds"] else sysid.SysidBounds.default()
    rng = default_rng(SeedSequence(cfg.seed, spawn_key=(index,)))
    hidden = {n: rng.uniform(lo, hi) for n, lo, hi in bounds.params}
    reference = sysid.excite(dataclasses.replace(cfg.plant, **hidden), gains)
    cmaes_cfg = sysid.CmaesConfig(sigma0=p["sigma0"], max_iter=p["iters"],
                                  seed=_cell_seed(cfg.seed, index))
    fit = sysid.identify(reference, gains, bounds, cmaes_cfg, cfg.plant)
    # the gains are not fitted: stiffness and damping are the cell's kp and kd
    row = {"kp": kp, "kd": kd, "final_loss": fit.loss, "evals": fit.n_evals,
           "stiffness": kp, "damping": kd, **fit.params}
    history = _csv([{"iter": i, "best_loss": v} for i, v in enumerate(fit.history)],
                   ["iter", "best_loss"])
    return [row], {f"history_kp{kp:g}_kd{kd:g}.csv": history}


# Lanes of one lockstep shape search. A cell's generation rolls out 16 lanes
# per episode (4 branches of 4 candidates), and the rollout's limit records
# take 38.4 kB per lane and joint: one search over all 49 cells of the
# default grid would hold 240 MB of them. 768 lanes (6 cells at 8 episodes)
# keep most of the speed of one wide stack.
_SHAPE_LANES = 768


def _shape_cells(jobs):
    """Every job's cell through lockstep shape searches (see
    shaping.shape_search), each over as many cells as _SHAPE_LANES lanes
    hold (at least one): each generation of a search's live branches is
    one rollout, and so are its cells' random draws. A cell whose best
    mapping diverges on the goal episodes fails alone."""
    cfg = jobs[0][0]
    p = cfg.params
    per_search = max(1, _SHAPE_LANES // (16 * p["episodes"]))
    if len(jobs) > per_search:
        return [outcome for i in range(0, len(jobs), per_search)
                for outcome in _shape_cells(jobs[i:i + per_search])]
    _, kps, kds, _, indices = zip(*jobs)
    seeds = tuple(_cell_seed(cfg.seed, i) for i in indices)
    problems = [ToyShapingProblem(plant=cfg.plant, gains=GainConfig(kp=kp, kd=kd),
                                  episodes=p["episodes"], seed=seed)
                for kp, kd, seed in zip(kps, kds, seeds)]
    scored = [[] for _ in problems]  # each cell's mappings in call order, as its details

    def objective(mapping_lists):
        for cell, mappings in zip(scored, mapping_lists):
            cell.extend(mappings)
        return [problem.record(results) for problem, results
                in zip(problems, shaping.rollout(problems, mapping_lists))]

    searches = shaping.shape_search(objective, p["budget"], seed=seeds)
    outcomes = []
    for kp, kd, problem, mappings, result in zip(kps, kds, problems, scored, searches,
                                                  strict=True):
        try:
            final_rate = problem.goal_rate(result.best, n_episodes=p["eval_episodes"])
        except Exception as exc:
            outcomes.append(exc)
            continue
        # the branches share their objective calls: pair each ledger entry with its row
        details = {id(m): d for m, d in zip(mappings, problem.details, strict=True)}
        ledger_rows = []
        for trial, (mapping, j) in enumerate(result.ledger):
            detail = details[id(mapping)]
            ledger_rows.append({  # alpha1 and alpha2 both hold the one alpha
                "trial": trial, "alpha1": mapping.alpha, "alpha2": mapping.alpha,
                "beta": mapping.beta, "gamma": mapping.gamma,
                "J": j if math.isfinite(j) else -1.0,
                "success": detail["success"], "viol_pos": detail["position"],
                "viol_vel": detail["velocity"], "viol_tau": detail["torque"],
                "viol_taurate": detail["torque_rate"]})
        summary = {"kp": kp, "kd": kd, "best_J": result.objective,
                   "goal_rate": final_rate, "alpha": result.best.alpha,
                   "beta": result.best.beta, "gamma": result.best.gamma}
        ledger_csv = _csv(ledger_rows, ["trial", "alpha1", "alpha2", "beta", "gamma",
                                        "J", "success", "viol_pos", "viol_vel",
                                        "viol_tau", "viol_taurate"])
        outcomes.append(([summary], {f"ledger_kp{kp:g}_kd{kd:g}.csv": ledger_csv}))
    return outcomes


@_each
def _compliance_cell(job):
    cfg, kp, kd, _, _ = job
    p = cfg.params
    gains = GainConfig(kp=kp, kd=kd, gravity_comp=cfg.plant.gravity_enabled)
    probe = np.full(cfg.plant.n_joints, p["probe_force"])
    k_eff = control.effective_stiffness(cfg.plant, gains, probe, settle_time=p["settle_time"])
    return [{"kp": kp, "kd": kd, "k_eff": k_eff}], {}


@_each
def _jitter_cell(job):
    cfg, kp, kd, (demo,), index = job
    p = cfg.params
    gains = GainConfig(kp=kp, kd=kd, gravity_comp=cfg.plant.gravity_enabled)
    rd = retarget.tpr_joint(demo, gains, plant=cfg.plant)
    commands = rd.q_des[::p["decimation"]]
    rng = noise.trial_rng(_cell_seed(cfg.seed, index), 0)
    pert = rng.normal(0.0, p["sigma"], size=commands.shape)
    traj, _ = retarget.replay(rd, p["decimation"], cfg.plant, command_noise=pert)
    report = sysid.jitter_detect(traj, window=p["window"], threshold=p["threshold"])
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


def run_stats_report(cfg: ExperimentConfig):
    p = cfg.params
    outcomes = read_sweep_csv(p["input"])
    if outcomes and outcomes[0].region is None:
        m_eff = float(np.min(cfg.plant.mass))
        outcomes = stats.label_outcomes(outcomes, m_eff, cfg.grid.stiffness_split)
    region, metric, alternative, alpha, m = (
        p[key] for key in ("region", "metric", "alternative", "alpha", "m"))
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
    regardless of the worker count. One process hands the cell every job
    in one list; a pool of w workers hands each of min(w, jobs) workers
    one contiguous slice, the slices' sizes differing by at most one job,
    so a batched kind stays batched. An error outside any one cell fails
    the jobs of its list or slice.
    """
    spec = RUNNERS[kind]
    shared = spec.shared(cfg)
    jobs = [(cfg, kp, kd, shared, i) for i, (kp, kd) in enumerate(spec.cells(cfg))]

    def outcomes(call, n):
        try:
            return call()
        except Exception as exc:  # an error outside any one cell fails the n jobs
            return [exc] * n

    if workers <= 1 or len(jobs) <= 1:
        done = outcomes(lambda: spec.cell(jobs), len(jobs))
    else:
        n = min(workers, len(jobs))
        size, extra = divmod(len(jobs), n)
        slices = [jobs[i * size + min(i, extra):(i + 1) * size + min(i + 1, extra)]
                  for i in range(n)]
        with ProcessPoolExecutor(max_workers=len(slices)) as pool:
            futures = [pool.submit(spec.cell, part) for part in slices]
            done = [o for f, part in zip(futures, slices) for o in outcomes(f.result, len(part))]
    results = [o for o in done if not isinstance(o, Exception)]
    failures = [(i, repr(o)) for i, o in enumerate(done) if isinstance(o, Exception)]
    rows = [row for cell_rows, _ in results for row in cell_rows]
    files = {"results.csv": _csv(rows, spec.columns)}
    for key in spec.heatmaps(cfg):
        files[f"heatmap_{key}.csv"] = _heatmap(rows, key, cfg.grid)
    for _, sidecars in results:
        files.update(sidecars)
    return files, failures


def _check(test: Callable, desc: str, cast: Callable = float) -> Callable:
    """A param check: ``cast(value)`` if ``test(value)``, else ValueError."""
    def check(value):
        if not test(value):
            raise ValueError(f"must be {desc}, not {value!r}")
        return cast(value)
    return check


def _number(test: Callable, desc: str, cast: Callable = float) -> Callable:
    """A param check: a finite number, not a bool, that passes ``test``."""
    return _check(lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)
                  and math.isfinite(v) and test(v), desc, cast)


_COUNT = _number(lambda v: v >= 1 and v == int(v), "an integer >= 1", int)
_POSITIVE = _number(lambda v: v > 0, "a number > 0")
_NONNEGATIVE = _number(lambda v: v >= 0, "a number >= 0")
_TEXT = _check(lambda v: isinstance(v, (str, int, float)) and not isinstance(v, bool), "text", str)


def _choice(*allowed: str) -> Callable:
    return _check(lambda v: v in allowed, f"one of {', '.join(allowed)}", str)


def _listed(check: Callable) -> Callable:
    """A param check: one value or a non-empty list, each passing ``check``."""
    return _check(lambda v: v != [], "a value or a non-empty list",
                  lambda v: [check(x) for x in (v if isinstance(v, list) else [v])])


def _demo_params(duration: float) -> dict:
    """The params ``_demos`` reads, for demos of ``duration`` seconds by default."""
    return {"duration": (duration, _POSITIVE), "base_rate": (500.0, _POSITIVE),
            "goal_tol": (0.05, _POSITIVE)}


def _variance_rules(cfg: ExperimentConfig):
    """Raise unless the run can discretize every (cell, mass) as given."""
    p = cfg.params
    held = p["mode"] == "held"
    if held and p["rate"] is None:
        raise ValueError("rate must be > 0 when mode = held")
    for (kp, kd), mass in itertools.product(cfg.grid.cells(), p["masses"]):
        noise.discretize(GainConfig(kp=kp, kd=kd), mass, p["rate"] if held else None,
                         p["dt"] or None, p["horizon"] or None)


@dataclass(frozen=True)
class _Kind:
    """One kind; ``runner(kind, cfg, workers)`` returns ({name: text}, failures).

    ``params`` maps each param to (default, check): a default may be a
    function of the config, and a check returns the value the run reads or
    raises ValueError. The runner's cfg holds the resolved params, and
    ``rules(cfg)`` raises ValueError, naming the param first, on a
    combination of them the run cannot take. A grid kind's ``cell`` gets
    a list of jobs ``(cfg, kp, kd, shared(cfg), index)``, one per
    ``cells(cfg)`` entry (all of them, or a pool worker's slice), and
    returns one outcome per job: (rows, {sidecar name: text}), or the
    exception that failed that job's cell. ``noisy-replay`` runs its list
    as one batch, and ``shape-search`` as lockstep searches of at most
    ``_SHAPE_LANES`` lanes; ``@_each`` gives the other kinds' one-job
    functions this form. The rows' ``columns`` go to results.csv and each
    row key in ``heatmaps(cfg)`` to heatmap_<key>.csv.
    """

    cell: Callable | None = None
    columns: tuple[str, ...] = ()
    heatmaps: Callable = lambda cfg: ()
    cells: Callable = lambda cfg: list(cfg.grid.cells())
    shared: Callable = lambda cfg: None
    params: dict = field(default_factory=dict)
    rules: Callable = lambda cfg: None
    runner: Callable = _run_grid


RUNNERS = {
    "tpr-sweep": _Kind(
        _tpr_cell, ("kp", "kd", "decimation", "mse", "goal_reached"),
        heatmaps=lambda cfg: [f"mse_dec{d}" for d in cfg.params["decimations"]],
        shared=lambda cfg: _demos(cfg, cfg.params["n_demos"]),
        params={"n_demos": (5, _COUNT), "decimations": ([1, 10, 25, 50], _listed(_COUNT)),
                **_demo_params(2.0)}),
    "variance-check": _Kind(
        _variance_cell, ("kp", "kd", "mass", "sigma", "mode", "empirical_var",
                         "stderr", "analytic_var"),
        heatmaps=lambda cfg: ["rel_err"],  # worst over the masses
        cells=lambda cfg: [c for c in cfg.grid.cells() for _ in cfg.params["masses"]],
        params={"masses": (lambda cfg: float(np.min(cfg.plant.mass)), _listed(_POSITIVE)),
                "sigma": (0.1, _NONNEGATIVE),
                # a batch-means standard error needs two trials
                "trials": (100, _number(lambda v: v >= 2 and v == int(v), "an integer >= 2",
                                        int)),
                "mode": ("continuous-limit", _choice("continuous-limit", "held")),
                "rate": (None, lambda v: v if v is None else _POSITIVE(v)),
                "dt": (0.0, _NONNEGATIVE), "horizon": (0.0, _number(lambda v: True, "a number"))},
        rules=_variance_rules),
    "noisy-replay": _Kind(
        _noisy_cells, ("kp", "kd", "goal_rate", "rms_deviation"),
        heatmaps=lambda cfg: ["goal_rate", "rms_deviation"],
        shared=lambda cfg: _demos(cfg, 1),
        params={"decimation": (10, _COUNT), "sigma": (0.05, _NONNEGATIVE),
                "trials": (20, _COUNT), **_demo_params(2.0)}),
    "sysid-sweep": _Kind(
        _sysid_cell, ("kp", "kd", "final_loss", "evals", "stiffness", "damping",
                      *sysid.FREE_PARAMS),
        heatmaps=lambda cfg: ["final_loss"],
        params={"bounds": ("", _TEXT), "sigma0": (3.0, _POSITIVE), "iters": (200, _COUNT)}),
    "shape-search": _Kind(
        _shape_cells, ("kp", "kd", "best_J", "goal_rate", "alpha", "beta", "gamma"),
        # every grid cell, or the regime corners once each (CO, SO, CU, SU)
        cells=lambda cfg: list(cfg.grid.cells() if cfg.params["cells"] == "all"
                               else dict.fromkeys(cfg.grid.corners().values())),
        params={"budget": (200, _COUNT), "episodes": (8, _COUNT),
                "eval_episodes": (100, _COUNT), "cells": ("corners", _choice("corners", "all"))}),
    "stats-report": _Kind(
        runner=lambda kind, cfg, workers: run_stats_report(cfg),
        params={"input": (None, _TEXT), "region": ("CO", _TEXT),
                "metric": ("success", _choice("success", "error")),
                "alternative": ("greater", _choice("greater", "less")),
                "alpha": (0.05, _number(lambda v: 0 < v < 1, "a number in (0, 1)")),
                "m": (1, _COUNT)}),
    "compliance-probe": _Kind(
        _compliance_cell, ("kp", "kd", "k_eff"), heatmaps=lambda cfg: ["k_eff"],
        params={"probe_force": (1.0, _number(lambda v: v != 0, "a number != 0")),
                "settle_time": (8.0, _POSITIVE)}),
    "jitter-scan": _Kind(
        _jitter_cell, ("kp", "kd", "max_std", "flagged"),
        heatmaps=lambda cfg: ["max_std"], shared=lambda cfg: _demos(cfg, 1),
        params={"decimation": (10, _COUNT), "sigma": (0.02, _NONNEGATIVE),
                "window": (2.0, _POSITIVE), "threshold": (0.04, _NONNEGATIVE),
                **_demo_params(6.0)},
        # the replay holds as many samples as its demo, round(duration * base_rate)
        rules=lambda cfg: sysid.jitter_window(
            round(cfg.params["duration"] * cfg.params["base_rate"]), cfg.params["base_rate"],
            cfg.params["window"])),
}
KINDS = tuple(RUNNERS)


# ---------------------------------------------------------------------------
# Entry points


def run(config: ExperimentConfig, workers: int = 1) -> int:
    findings = validate(config)
    if findings:
        for f in findings:
            print(f"validation: {f}", file=sys.stderr)
        return 1
    resolved = dataclasses.replace(config, params=_params(config)[0])
    os.makedirs(config.out, exist_ok=True)
    try:
        files, failures = RUNNERS[config.kind].runner(config.kind, resolved, max(1, workers))
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="gainlab",
                                     description="gain-grid experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--workers", type=int, default=1)

    p_val = sub.add_parser("validate", help="validate a config without running")
    p_val.add_argument("--config", required=True)

    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
    except Exception as exc:
        print(f"validation: cannot parse config: {exc}", file=sys.stderr)
        return 1
    if args.command == "validate":
        findings = validate(config)
        for f in findings:
            print(f"validation: {f}")
        return 1 if findings else 0
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    if args.out is not None:
        config = dataclasses.replace(config, out=args.out)
    try:
        return run(config, workers=args.workers)
    except Exception as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
