"""Acceptance criteria, one test per criterion, each printing pass/fail.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import itertools
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from gainlab import dynamics, noise, retarget, shaping, stats, sysid
from gainlab.cli import ToyShapingProblem
from gainlab.control import GainConfig, default_grid
from gainlab.dynamics import point_mass, two_link
from gainlab.noise import NoiseSpec, crandall_oracle, predict_variance
from gainlab.stats import SweepOutcome, barnard_exact, bonferroni
from oracles import brute_force_barnard


def report(num: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {status}: {description}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} failed: {description} {detail}"


def test_criterion_1_theorem_monte_carlo():
    """Monte Carlo variance matches sigma^2 Kp/(2 Kd) within 5%; mass pairs
    agree within 3 sigma; runtime < 5 min."""
    t0 = time.time()
    worst = 0.0
    mass_gap_ok = True
    for kp, kd in itertools.product((2.0, 8.0, 32.0), (1.0, 4.0, 16.0)):
        per_mass = {}
        for idx, m in enumerate((1.0, 10.0)):
            wn = math.sqrt(kp / m)
            zeta = kd / (2.0 * math.sqrt(m * kp))
            dt = 0.02 / wn
            horizon = 100.0 * noise.time_constant(wn, zeta)
            est = noise.simulate_perturbation(
                GainConfig(kp=kp, kd=kd), m,
                NoiseSpec(sigma=1.0, seed=12345 + idx), dt=dt,
                horizon=horizon, n_trials=200)
            worst = max(worst, abs(est.value - est.analytic) / est.analytic)
            per_mass[m] = est
        band = 3.0 * math.hypot(per_mass[1.0].stderr, per_mass[10.0].stderr)
        if abs(per_mass[1.0].value - per_mass[10.0].value) > band:
            mass_gap_ok = False
    elapsed = time.time() - t0
    report(1, "Theorem reproduction: empirical variance within 5% and "
              "mass-independent within 3 sigma",
           worst <= 0.05 and mass_gap_ok and elapsed < 300.0,
           f"worst rel err {worst:.2%}, {elapsed:.0f}s")


def test_criterion_2_crandall_consistency():
    """sigma_n^2 = wn^4 sigma^2 in the oscillator formula reproduces the
    variance prediction to 1e-12 relative over 100 random draws."""
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(100):
        kp = float(rng.uniform(0.5, 1000.0))
        kd = float(rng.uniform(0.5, 500.0))
        m = float(rng.uniform(0.05, 50.0))
        sigma = float(rng.uniform(1e-3, 3.0))
        wn = math.sqrt(kp / m)
        zeta = kd / (2.0 * math.sqrt(m * kp))
        chained = crandall_oracle(wn, zeta, wn**2 * sigma)
        direct = predict_variance(GainConfig(kp=kp, kd=kd), sigma).var_pos[0]
        worst = max(worst, abs(chained - direct) / direct)
    report(2, "Crandall proof-chain identity to 1e-12 relative",
           worst <= 1e-12, f"worst rel err {worst:.2e}")


def _random_two_link_demo(arm, rng):
    q0 = rng.uniform(-0.8, 0.8, 2)
    qf = rng.uniform(-0.8, 0.8, 2)
    pos, vel, acc = retarget.quintic_reference(q0, qf, 1.5)
    ctrl = retarget.computed_torque_tracker(arm, pos, vel, acc)
    goal = retarget.TaskGoal(q_goal=qf, tol=0.05)
    return retarget.make_demo(arm, ctrl, 2.0, 500.0, q0=q0, goal=goal,
                              reference=pos)


def test_criterion_3_tpr_fidelity():
    """Base-rate replay exact on the linear plant at the 4 grid corners;
    2-link 25x decimation keeps MSE < 1e-3 and goal-reach >= 90% over 20
    randomized demos; runtime < 10 min."""
    t0 = time.time()
    plant = point_mass(1.0)
    pos, vel, acc = retarget.quintic_reference([0.0], [0.8], 1.5)
    ctrl = retarget.computed_torque_tracker(plant, pos, vel, acc)
    demo = retarget.make_demo(plant, ctrl, 2.0, 500.0, reference=pos,
                              goal=retarget.TaskGoal([0.8], 0.05))
    linear_ok = True
    for kp, kd in default_grid().corners().values():
        rd = retarget.tpr_joint(demo, GainConfig(kp=kp, kd=kd))
        _, rep = retarget.replay(rd, 1, plant, source=demo)
        linear_ok &= rep.mse < 1e-6

    arm = two_link(link_masses=(1.0, 0.8), link_lengths=(0.5, 0.4))
    rng = np.random.default_rng(33)
    demos = [_random_two_link_demo(arm, rng) for _ in range(20)]
    # the paper's four representative regime configurations
    configs = [(16.0, 24.0), (512.0, 24.0), (16.0, 2.0), (512.0, 2.0)]
    worst_mse = 0.0
    reached = 0
    total = 0
    for kp, kd in configs:
        gains = GainConfig(kp=kp, kd=kd)
        mses = []
        for d in demos:
            rd = retarget.tpr_joint(d, gains)
            _, rep = retarget.replay(rd, 25, arm, source=d)
            mses.append(rep.mse)
            reached += rep.goal_reached
            total += 1
        worst_mse = max(worst_mse, float(np.mean(mses)))
    rate = reached / total
    elapsed = time.time() - t0
    report(3, "TPR fidelity: exact base-rate replay, 25x decimation "
              "MSE < 1e-3 and goal-reach >= 90%",
           linear_ok and worst_mse < 1e-3 and rate >= 0.90 and elapsed < 600.0,
           f"worst mean MSE {worst_mse:.2e}, goal rate {rate:.2%}, {elapsed:.0f}s")


def test_criterion_4_attenuation_ordering():
    """Under matched held noise the compliant-overdamped corner shows
    strictly lower open-loop RMS deviation than the stiff-underdamped
    corner on all 10 seeded replays."""
    plant = point_mass(1.0)
    pos, vel, acc = retarget.quintic_reference([0.0], [0.8], 1.5)
    ctrl = retarget.computed_torque_tracker(plant, pos, vel, acc)
    demo = retarget.make_demo(plant, ctrl, 2.0, 500.0, reference=pos,
                              goal=retarget.TaskGoal([0.8], 0.05))
    corners = default_grid().corners()
    rms = {}
    for name in ("CO", "SU"):
        kp, kd = corners[name]
        rd = retarget.tpr_joint(demo, GainConfig(kp=kp, kd=kd))
        vals = []
        for seed in range(10):
            res = noise.noisy_openloop_replay(rd, plant, sigma=0.05, seed=seed,
                                              n_trials=1, decimation=10)
            vals.append(res.rms_deviation)
        rms[name] = np.array(vals)
    ok = bool(np.all(rms["CO"] < rms["SU"]))
    report(4, "noise attenuation ordering CO < SU on every seeded replay", ok,
           f"CO max {rms['CO'].max():.2e} vs SU min {rms['SU'].min():.2e}")


def test_criterion_5_sysid_self_identification():
    """CMA-ES (200 iters, sigma0=3.0) recovers 10 random hidden plants to
    trajectory error < 1e-6 with non-increasing loss history; < 10 min."""
    t0 = time.time()
    gains = GainConfig(kp=512.0, kd=24.0)
    bounds = sysid.SysidBounds.default()
    base = point_mass(1.5)
    rng = np.random.default_rng(20250810)
    worst = 0.0
    monotone = True
    for i in range(10):
        hidden_params = {
            "armature": rng.uniform(0.0, 0.5),
            "static_friction": rng.uniform(0.01, 1.0),
            "dynamic_friction_ratio": rng.uniform(0.0, 1.0),
            "viscous_friction": rng.uniform(0.0, 1.0),
        }
        hidden = replace(base, **hidden_params)
        ref = sysid.excite(hidden, gains)
        fit = sysid.identify(ref, gains, bounds,
                             sysid.CmaesConfig(sigma0=3.0, max_iter=200,
                                               seed=100 + i), base)
        resim = sysid.resimulate(fit, gains, base)
        worst = max(worst, sysid.trajectory_error(ref, resim))
        monotone &= bool(np.all(np.diff(fit.history) <= 0.0))
    elapsed = time.time() - t0
    report(5, "sysid self-identification: trajectory error < 1e-6 on 10 "
              "hidden plants, monotone loss history",
           worst < 1e-6 and monotone and elapsed < 600.0,
           f"worst traj err {worst:.2e}, {elapsed:.0f}s")


def test_criterion_6_statistics_oracles():
    """Barnard vs brute force <= 1e-3 on all margins <= 8; exact MWU p;
    Bonferroni levels; generative recovery; region rejections at the
    paper's effect sizes."""
    worst_gap = 0.0
    for n1 in range(1, 9):
        for n2 in range(1, 9):
            for a in range(n1 + 1):
                for c in range(n2 + 1):
                    p = barnard_exact(a, n1 - a, c, n2 - c, side="greater")
                    oracle = brute_force_barnard(a, n1 - a, c, n2 - c,
                                                 side="greater")
                    worst_gap = max(worst_gap, abs(p - oracle))
    barnard_ok = worst_gap <= 1e-3

    _, p_mwu = stats.mannwhitney_u([1, 2, 3], [4, 5, 6], side="less")
    mwu_ok = p_mwu == pytest.approx(0.05, abs=1e-12)

    bonf_ok = (bonferroni(0.05, 6) == pytest.approx(0.05 / 6, abs=1e-12)
               and bonferroni(0.05, 3) == pytest.approx(0.05 / 3, abs=1e-12)
               and abs(bonferroni(0.05, 6) - 0.0083) < 5e-5
               and abs(bonferroni(0.05, 3) - 0.017) < 5e-4)

    rng = np.random.default_rng(61)
    beta_true = np.array([0.2, -0.2, 0.3])
    rows = []
    cells = list(default_grid().cells())
    for kp, kd in cells:
        eta = beta_true @ [1.0, math.log2(kp), math.log2(kd)]
        p = 1.0 / (1.0 + math.exp(-eta))
        rows.append(SweepOutcome(kp=kp, kd=kd,
                                 successes=int(rng.binomial(10_000, p)),
                                 trials=10_000))
    lfit = stats.logistic_fit(rows)
    logistic_ok = bool(np.all(np.abs(lfit.coef - beta_true) <= 0.02))

    orows = []
    for kp, kd in cells:
        log_e = 0.3 * math.log2(kp) + 0.1 * math.log2(kd) + rng.normal(0, 0.01)
        orows.append(SweepOutcome(kp=kp, kd=kd, successes=0, trials=1,
                                  scalar_error=math.exp(log_e)))
    ofit = stats.ols_log_fit(orows)
    ols_ok = bool(np.all(np.abs(ofit.coef[1:] - [0.3, 0.1]) <= 0.02))

    def regime(kp, kd):
        return ("C" if kp < 128.0 else "S") + \
            ("O" if kd / (2.0 * math.sqrt(kp)) >= 1.0 else "U")

    srows = [SweepOutcome(kp=kp, kd=kd,
                          successes=int(round(100 * (0.851 if regime(kp, kd) == "CO"
                                                     else 0.390))),
                          trials=100, region=regime(kp, kd))
             for kp, kd in cells]
    rep_s = stats.region_test(srows, "CO", "success", "greater", 0.05, 6)

    erows = [SweepOutcome(kp=kp, kd=kd, successes=50, trials=100,
                          scalar_error=(0.043 if regime(kp, kd) == "SO"
                                        else 0.010)
                          * float(rng.lognormal(0.0, 0.25)),
                          region=regime(kp, kd))
             for kp, kd in cells]
    rep_e = stats.region_test(erows, "SO", "error", "greater", 0.05, 3)
    region_ok = rep_s.reject and rep_e.reject

    ok = barnard_ok and mwu_ok and bonf_ok and logistic_ok and ols_ok and region_ok
    report(6, "statistics oracles: Barnard<=1e-3 vs brute force, exact MWU, "
              "Bonferroni, generative recovery, region rejections",
           ok, f"barnard gap {worst_gap:.1e}, mwu p {p_mwu:.4f}")


def test_criterion_7_constrained_objective_ranking():
    """Feasible J in [1,2], infeasible in [0,1), total dominance, over an
    exhaustive lattice of success and violation rates."""
    feas, infeas = [], []
    grid = np.linspace(0.0, 1.0, 11)
    for s in grid:
        for combo in itertools.product((0.0, 0.1, 0.2, 0.5, 1.0), repeat=4):
            viol = dict(zip(shaping.CONSTRAINTS, combo))
            j = shaping.constrained_objective(float(s), viol)
            feasible = all(v <= shaping.ALLOWED_RATES[c] for c, v in viol.items())
            (feas if feasible else infeas).append(j)
    ok = (min(feas) >= 1.0 and max(feas) <= 2.0
          and min(infeas) >= 0.0 and max(infeas) < 1.0
          and min(feas) > max(infeas))
    report(7, "constrained-objective feasible/infeasible dominance", ok,
           f"min feasible {min(feas):.3f} > max infeasible {max(infeas):.3f}")


def test_criterion_8_jitter_detector():
    """Settled (tail std 0.001) vs oscillating (0.675) classified with zero
    errors at the 0.04 rad/s threshold."""
    rng = np.random.default_rng(8)
    errors = 0
    n_each = 50
    for i in range(n_each):
        lead = np.zeros(100)
        settled_tail = rng.normal(0.0, 0.001, size=100)
        qd = np.concatenate([lead, settled_tail])
        t = np.arange(qd.size) / 50.0
        z = np.zeros((qd.size, 1))
        traj = dynamics.Trajectory(sample_rate=50.0, t=t, q=z,
                                   q_dot=qd[:, None], q_des=z, tau=z)
        errors += sysid.jitter_detect(traj).flagged  # false positive
        phase = rng.uniform(0.0, 2 * math.pi)
        osc_tail = 0.675 * math.sqrt(2.0) * np.sin(
            2 * math.pi * 7.0 * np.arange(100) / 50.0 + phase)
        qd = np.concatenate([lead, osc_tail])
        traj = dynamics.Trajectory(sample_rate=50.0, t=t, q=z,
                                   q_dot=qd[:, None], q_des=z, tau=z)
        errors += not sysid.jitter_detect(traj).flagged  # false negative
    report(8, "jitter detector separates settled vs oscillating tails "
              "with zero errors", errors == 0, f"{errors} errors in {2 * n_each}")


def test_criterion_9_shaping_existence():
    """shape_search finds a feasible mapping with >= 99% goal reach on the
    1-DOF plant in every corner gain regime."""
    plant = point_mass(1.0, torque_limit=300.0, torque_rate_limit=2e4)
    space = shaping.SearchSpace(n_groups=1, alpha_low=1e-3, alpha_high=30.0)
    rates = {}
    feasible = {}
    for name, (kp, kd) in default_grid().corners().items():
        problem = ToyShapingProblem(plant, GainConfig(kp=kp, kd=kd),
                                    episodes=6, seed=42)
        result = shaping.shape_search(problem, space, budget=160, seed=7)
        feasible[name] = result.objective >= 1.0
        rates[name] = problem.goal_rate(result.best, n_episodes=100)
    ok = all(feasible.values()) and all(r >= 0.99 for r in rates.values())
    detail = ", ".join(f"{k}: {v:.2f}" for k, v in rates.items())
    report(9, "shaping search reaches >= 99% goal rate in all corner regimes",
           ok, detail)
