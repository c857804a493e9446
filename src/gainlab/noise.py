"""Gain-dependent attenuation of stochastic action errors.

The perturbation of a PD-tracked trajectory under i.i.d. position-target
errors delta_a obeys

    m dq_dd + Kd dq_d + Kp dq = Kp delta_a(t),

a second-order system driven through the stiffness. For white-noise
errors of intensity sigma^2 the steady-state position error variance is
sigma^2 Kp / (2 Kd) -- independent of the mass. The classical mean-square
response E[y^2] = sigma_n^2 / (4 zeta omega_n^3) of the unit-coefficient
oscillator supplies the closed-form chain, and a seeded Monte Carlo
integrator verifies it. Per-trial noise streams derive from the root seed
by trial index, so results are reproducible regardless of scheduling.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .control import GainConfig
from .dynamics import PlantParams, SimulationDivergedError
from .retarget import RetargetedDemo, replay

class PerturbationDivergedError(RuntimeError):
    """Perturbation dynamics unstable at their step, or diverged on the run;
    or a noisy replay trial whose deviation from the clean replay overflows."""


@dataclass(frozen=True)
class NoiseSpec:
    """Action noise of :func:`simulate_perturbation`.

    ``sigma`` is the noise intensity in rad*s^(1/2): per-step draws have
    variance sigma^2/delta for hold interval delta. A ``rate`` (Hz) holds
    each draw for 1/rate s; None is the continuous limit, a draw per step.
    """

    sigma: float
    rate: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError("sigma must be non-negative")
        if self.rate is not None and not self.rate > 0:
            raise ValueError("a hold rate must be positive")


@dataclass(frozen=True)
class VariancePrediction:
    """Theorem-level steady-state variance and attenuation factor."""

    var_pos: np.ndarray
    attenuation_factor: np.ndarray


def predict_variance(gains: GainConfig, sigma: float) -> VariancePrediction:
    """Steady-state position error variance sigma^2 Kp / (2 Kd) per joint
    (bounded: GainConfig has Kd > 0)."""
    ratio = gains.kp / (2.0 * gains.kd)
    return VariancePrediction(var_pos=sigma**2 * ratio,
                              attenuation_factor=np.sqrt(ratio))


def crandall_oracle(omega_n: float, zeta: float, sigma_n: float) -> float:
    """Mean-square response sigma_n^2 / (4 zeta omega_n^3) of the driven oscillator."""
    if not (zeta > 0 and omega_n > 0):
        raise ValueError("zeta and omega_n must be positive")
    return sigma_n**2 / (4.0 * zeta * omega_n**3)


def time_constant(omega_n: float, zeta: float) -> float:
    """Slowest decay time: 1/(zeta wn) when zeta <= 1, else slow-pole based."""
    if zeta <= 1.0:
        return 1.0 / (zeta * omega_n)
    # slow pole omega_n*(zeta - sqrt(zeta^2 - 1)), without the cancellation
    return (zeta + math.sqrt(zeta * zeta - 1.0)) / omega_n


def trial_rng(root_seed: int, trial: int) -> np.random.Generator:
    """Per-trial stream derived from the root seed by trial index only."""
    return np.random.default_rng(np.random.SeedSequence(root_seed, spawn_key=(trial,)))


@dataclass(frozen=True)
class VarianceEstimate:
    """Empirical steady-state variance with a batch-means standard error."""

    value: float
    stderr: float
    n_trials: int
    analytic: float


def discretize(gains: GainConfig, m: float, rate: float | None = None,
               dt: float | None = None, horizon: float | None = None):
    """(dt, hold, n_steps, burn) of a :func:`simulate_perturbation` run: dt
    (0.02/omega_n, cut to divide 1/rate), the steps per draw, the steps in
    the horizon (60 time constants) and in the 10-time-constant burn-in.
    ValueError, its message starting with the argument at fault, unless 0 <
    omega_n*dt < 0.1, dt divides 1/rate and a step follows the burn-in."""
    kp, kd = (float(np.atleast_1d(g)[0]) for g in (gains.kp, gains.kd))
    if not m > 0:
        raise ValueError("m must be positive")
    omega_n = math.sqrt(kp / m)
    tau_c = time_constant(omega_n, kd / (2.0 * math.sqrt(m * kp)))
    explicit = dt is not None
    dt = dt if explicit else 0.02 / omega_n
    if not 0 < omega_n * dt < 0.1:
        raise ValueError(f"dt too coarse for Kp={kp:g}, m={m:g} (omega_n*dt = "
                         f"{omega_n * dt:.3f}, not in (0, 0.1))")
    delta = dt if rate is None else 1.0 / rate
    hold = int(round(delta / dt))
    if abs(hold * dt - delta) > 1e-9 * delta:
        if explicit:
            raise ValueError(f"dt = {dt:g} s does not divide the hold 1/rate = {delta:g} s")
        hold = math.ceil(delta / dt)
        dt = delta / hold
    n_steps = int(round((60.0 * tau_c if horizon is None else horizon) / dt))
    burn = int(round(10.0 * tau_c / dt))
    if n_steps <= burn:
        raise ValueError(f"horizon {horizon:g} s leaves no step after the {10.0 * tau_c:.4g} "
                         f"s burn-in at Kp={kp:g}, Kd={kd:g}, m={m:g}")
    return dt, hold, n_steps, burn


def simulate_perturbation(gains: GainConfig, m: float, noise: NoiseSpec, n_trials: int, *,
                          dt=None, horizon=None) -> VarianceEstimate:
    """Monte Carlo steady-state variance of the perturbation dynamics.

    Integrates m dq_dd + Kd dq_d + Kp dq = Kp delta_a with semi-implicit
    Euler on the :func:`discretize` step (``dt`` and ``horizon`` default
    there), or raises ``PerturbationDivergedError`` if that step is not
    stable; delta_a is redrawn every 1/rate (else dt) = delta with variance
    sigma^2/delta. The per-trial time averages of dq^2 after the burn-in
    give the estimate, its standard error from batch means across trials
    (which needs two).
    """
    if n_trials < 2:
        raise ValueError("n_trials must be >= 2")
    dt, hold, n_steps, burn = discretize(gains, m, noise.rate, dt, horizon)
    kp, kd = (float(np.atleast_1d(g)[0]) for g in (gains.kp, gains.kd))
    c_kp = dt * kp / m
    c_kd = dt * kd / m
    # a = c_kp*dt, b = c_kd: the step matrix has trace 2 - a - b and determinant
    # 1 - b, so by the Jury criterion it is stable iff 0 < b < 2 and 0 < a < 4 - 2b
    if not (0 < c_kd < 2 and 0 < c_kp * dt < 4 - 2 * c_kd):
        raise PerturbationDivergedError(f"perturbation step unstable: a = Kp*dt^2/m = "
                                        f"{c_kp * dt:.4g}, b = Kd*dt/m = {c_kd:.4g}")
    if n_steps < 2 * burn:
        warnings.warn(f"horizon {n_steps * dt:.1f} s covers < 20 time constants "
                      f"(burn-in {burn * dt:.1f} s)", stacklevel=2)
    step_sigma = noise.sigma / math.sqrt(dt if noise.rate is None else 1.0 / noise.rate)
    analytic = noise.sigma**2 * kp / (2.0 * kd)

    rngs = [trial_rng(noise.seed, i) for i in range(n_trials)]
    q = np.zeros(n_trials)
    v = np.zeros(n_trials)
    acc = np.zeros(n_trials)
    guard = 1e6 * (1.0 + analytic + noise.sigma**2)
    n_draws = -(-n_steps // hold)
    chunk_draws = 4096
    step_idx = 0
    for start in range(0, n_draws, chunk_draws):
        m_draws = min(chunk_draws, n_draws - start)
        block = np.stack([r.normal(0.0, step_sigma, size=m_draws) for r in rngs],
                         axis=1)
        for i in range(m_draws):
            draw = block[i]
            for _ in range(min(hold, n_steps - step_idx)):
                v += c_kp * (draw - q) - c_kd * v
                q += dt * v
                if step_idx >= burn:
                    acc += q * q
                step_idx += 1
        if not np.all(np.isfinite(q)) or np.max(np.abs(q)) > guard:
            raise PerturbationDivergedError(
                f"perturbation diverged by step {step_idx} (|dq| > {guard:.1e})")
    trial_means = acc / (n_steps - burn)
    value = float(np.mean(trial_means))
    stderr = float(np.std(trial_means, ddof=1) / math.sqrt(n_trials))
    return VarianceEstimate(value=value, stderr=stderr, n_trials=n_trials,
                            analytic=analytic)


@dataclass(frozen=True)
class NoisyReplayResult:
    """Open-loop replay under held action noise, aggregated over trials."""

    goal_rate: float
    rms_deviation: float
    per_trial_rms: np.ndarray
    clean_goal_reached: bool


def noisy_openloop_replay(retargeted: RetargetedDemo, plant: PlantParams,
                          sigma: float, seed, n_trials: int, decimation: int = 1):
    """Replay held commands with i.i.d. per-command noise, per trial.

    Each kept command of trial i is offset by a draw of std ``sigma`` (rad)
    from ``trial_rng(seed, i)``. Reports the goal-reach rate and the mean
    (over trials) RMS joint-position deviation from the clean replay.

    Lane-stacked gains (``retargeted.gains.lanes == (B,)``, say one lane per
    cell of a gain grid) take a sequence of B seeds, one per lane, and give
    a list of B outcomes. The clean replays and the trials of every lane
    run as lanes of one :func:`replay`. An outcome is the lane's
    ``NoisyReplayResult``, or the ``SimulationDivergedError`` of its first
    diverged run in clean-then-trial order, or else a
    ``PerturbationDivergedError`` naming the first trial whose deviation
    overflows. One gain setting takes one seed and raises that error.
    """
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    gains = retargeted.gains
    seeds = list(seed) if gains.lanes else [seed]
    if len(seeds) != (gains.lanes[0] if gains.lanes else 1):
        raise ValueError(f"expected one seed per gain lane, got {len(seeds)} for {gains.lanes}")
    # one run per (lane, clean or trial), lane-major: a lane's clean replay, then its trials
    runs = 1 + n_trials
    q_des = retargeted.q_des if gains.lanes else retargeted.q_des[:, None]  # (T, lanes, n)
    shape = q_des[::decimation, 0].shape
    command_noise = [e for s in seeds for e in [None] + [
        trial_rng(s, trial).normal(0.0, sigma, size=shape) for trial in range(n_trials)]]
    kp, kd = (np.repeat(np.atleast_2d(g), runs, axis=0) for g in (gains.kp, gains.kd))
    stacked = dataclasses.replace(retargeted, gains=dataclasses.replace(gains, kp=kp, kd=kd),
                                  q_des=np.repeat(q_des, runs, axis=1))
    out = replay(stacked, decimation, plant, command_noise=command_noise)
    results = [_noisy_result(out[i:i + runs]) for i in range(0, len(out), runs)]
    if gains.lanes:
        return results
    if isinstance(results[0], Exception):
        raise results[0]
    return results[0]


def _noisy_result(runs: list):
    """One lane's result from its clean replay and trials, or the error of
    its first failed run."""
    for run in runs:
        if isinstance(run, SimulationDivergedError):
            return run
    (clean_traj, clean_rep), *trials = runs
    rms = np.empty(len(trials))
    for trial, (traj, _) in enumerate(trials):
        m = min(traj.n_samples, clean_traj.n_samples)
        try:
            with np.errstate(over="raise", invalid="raise"):
                rms[trial] = math.sqrt(float(np.mean((traj.q[:m] - clean_traj.q[:m]) ** 2)))
        except FloatingPointError as exc:
            return PerturbationDivergedError(
                f"trial {trial}: deviation from the clean replay overflows ({exc})")
    reached = sum(rep.goal_reached for _, rep in trials)
    return NoisyReplayResult(goal_rate=reached / len(trials),
                             rms_deviation=float(np.mean(rms)),
                             per_trial_rms=rms,
                             clean_goal_reached=clean_rep.goal_reached)
