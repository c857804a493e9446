"""Gain-dependent system identification and divergence metrics.

The excitation protocol drives the closed loop with a sinusoidal position
reference (amplitude 0.1 rad, two periods over 4 s, logged at 50 Hz) and
the fit minimizes the sum of spectral MSE losses on joint positions and
velocities: per channel, the mean over frequency bins of the squared
magnitude of the DFT difference (unnormalized forward transform, direct
O(N^2) evaluation -- N is 200 here). The optimizer is a from-scratch
(mu/mu_w, lambda) CMA-ES searching a normalized [0,1]^n box mapped to the
parameter bounds, with boundary clamping plus a quadratic distance
penalty. Also here: trajectory/NN divergence metrics and the tail-window
jitter detector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import dynamics
from .control import GainConfig, track
from .dynamics import PlantParams, Trajectory


class CmaesAbortedError(RuntimeError):
    """A whole generation evaluated to NaN; carries the partial result."""

    def __init__(self, result: "FitResult"):
        super().__init__("all candidates in a generation evaluated to NaN")
        self.result = result


@dataclass(frozen=True)
class SysidBounds:
    """Ordered (name, lower, upper) box for the searched parameters."""

    params: tuple[tuple[str, float, float], ...]

    def __post_init__(self):
        for name, lo, hi in self.params:
            if not lo < hi:
                raise ValueError(f"bound for {name!r} must have lower < upper")

    @classmethod
    def default(cls) -> "SysidBounds":
        return cls(params=(
            ("stiffness", 1.0, 1024.0),
            ("damping", 1.0, 1024.0),
            ("armature", 0.0, 0.5),
            ("static_friction", 0.01, 1.0),
            ("dynamic_friction_ratio", 0.0, 1.0),
            ("viscous_friction", 0.0, 1.0),
        ))

    def subset(self, names) -> "SysidBounds":
        table = {n: (n, lo, hi) for n, lo, hi in self.params}
        return SysidBounds(params=tuple(table[n] for n in names))

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _, _ in self.params)

    @property
    def lower(self) -> np.ndarray:
        return np.array([lo for _, lo, _ in self.params])

    @property
    def upper(self) -> np.ndarray:
        return np.array([hi for _, _, hi in self.params])

    @property
    def dim(self) -> int:
        return len(self.params)


@dataclass(frozen=True)
class CmaesConfig:
    """CMA-ES settings; popsize None means 4 + floor(3 ln n)."""

    popsize: int | None = None
    sigma0: float = 3.0
    max_iter: int = 200
    seed: int = 0
    penalty_weight: float = 100.0

    def __post_init__(self):
        if self.popsize is not None and self.popsize < 4:
            raise ValueError("popsize must be >= 4")
        if not self.sigma0 > 0:
            raise ValueError("sigma0 must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass(frozen=True)
class FitResult:
    """Best point of a bounded search with its best-so-far loss history."""

    x: np.ndarray
    params: dict
    loss: float
    history: np.ndarray
    n_evals: int


def cmaes_minimize(objective, bounds: SysidBounds, config: CmaesConfig = CmaesConfig()) -> FitResult:
    """Minimize a black-box objective over the bounds box with CMA-ES.

    Standard (mu/mu_w, lambda) covariance matrix adaptation with the
    published default weights and learning rates, run in normalized
    [0,1]^n coordinates. Samples falling outside the box are evaluated at
    the clamped point with a quadratic distance penalty added. NaN losses
    rank last; a generation of only NaNs aborts. Deterministic given the
    seed.
    """
    n = bounds.dim
    lo, hi = bounds.lower, bounds.upper
    span = hi - lo
    lam = config.popsize or 4 + int(3 * math.log(n))
    mu = lam // 2
    w = math.log(mu + 0.5) - np.log(np.arange(1, mu + 1))
    w = w / w.sum()
    mu_eff = 1.0 / np.sum(w**2)
    c_sigma = (mu_eff + 2.0) / (n + mu_eff + 5.0)
    d_sigma = 1.0 + 2.0 * max(0.0, math.sqrt((mu_eff - 1.0) / (n + 1.0)) - 1.0) + c_sigma
    c_c = (4.0 + mu_eff / n) / (n + 4.0 + 2.0 * mu_eff / n)
    c_1 = 2.0 / ((n + 1.3) ** 2 + mu_eff)
    c_mu = min(1.0 - c_1, 2.0 * (mu_eff - 2.0 + 1.0 / mu_eff) / ((n + 2.0) ** 2 + mu_eff))
    chi_n = math.sqrt(n) * (1.0 - 1.0 / (4.0 * n) + 1.0 / (21.0 * n**2))

    rng = np.random.default_rng(config.seed)
    mean = np.full(n, 0.5)
    sigma = config.sigma0
    C = np.eye(n)
    p_sigma = np.zeros(n)
    p_c = np.zeros(n)

    best_loss = math.inf
    best_x = lo + mean * span
    history = []
    n_evals = 0

    for gen in range(config.max_iter):
        C = (C + C.T) / 2.0
        eigvals, B = np.linalg.eigh(C)
        eigvals = np.maximum(eigvals, 1e-20)
        D = np.sqrt(eigvals)
        z = rng.standard_normal((lam, n))
        y = z @ (B * D).T
        xs = mean + sigma * y
        losses = np.empty(lam)
        for i in range(lam):
            clamped = np.clip(xs[i], 0.0, 1.0)
            dist2 = float(np.sum((xs[i] - clamped) ** 2))
            val = objective(lo + clamped * span)
            n_evals += 1
            val = math.inf if (val is None or math.isnan(val)) else float(val)
            # penalty shapes the ranking; the reported best is the raw
            # objective at the in-box point actually evaluated
            losses[i] = val + config.penalty_weight * dist2
            if val < best_loss:
                best_loss = val
                best_x = lo + clamped * span
        if np.all(np.isnan(losses)) or not np.any(np.isfinite(losses)):
            result = FitResult(x=best_x, params=dict(zip(bounds.names, best_x)),
                               loss=best_loss, history=np.array(history),
                               n_evals=n_evals)
            raise CmaesAbortedError(result)
        order = np.argsort(losses, kind="stable")
        y_sel = y[order[:mu]]
        y_w = w @ y_sel
        mean = mean + sigma * y_w

        inv_sqrt = (B / D) @ B.T
        p_sigma = (1.0 - c_sigma) * p_sigma \
            + math.sqrt(c_sigma * (2.0 - c_sigma) * mu_eff) * (inv_sqrt @ y_w)
        norm_ps = np.linalg.norm(p_sigma)
        h_sigma = norm_ps / math.sqrt(1.0 - (1.0 - c_sigma) ** (2 * (gen + 1))) \
            < (1.4 + 2.0 / (n + 1.0)) * chi_n
        p_c = (1.0 - c_c) * p_c \
            + h_sigma * math.sqrt(c_c * (2.0 - c_c) * mu_eff) * y_w
        rank_mu = (y_sel * w[:, None]).T @ y_sel
        C = ((1.0 - c_1 - c_mu) * C
             + c_1 * (np.outer(p_c, p_c) + (1.0 - h_sigma) * c_c * (2.0 - c_c) * C)
             + c_mu * rank_mu)
        sigma = sigma * math.exp(c_sigma / d_sigma * (norm_ps / chi_n - 1.0))
        sigma = min(max(sigma, 1e-20), 1e8)
        history.append(best_loss)

    return FitResult(x=best_x, params=dict(zip(bounds.names, best_x)),
                     loss=best_loss, history=np.array(history), n_evals=n_evals)


# ---------------------------------------------------------------------------
# Excitation and spectral loss


@dataclass(frozen=True)
class ExcitationProtocol:
    """Sinusoidal reference settings for identification runs."""

    amplitude: float = 0.1
    duration: float = 4.0
    log_rate: float = 50.0
    physics_rate: float = 100.0


def excite(plant: PlantParams, gains: GainConfig, amplitude: float = 0.1,
           duration: float = 4.0, log_rate: float = 50.0,
           physics_rate: float = 100.0, q0=None) -> Trajectory:
    """Drive the closed loop with the sinusoidal reference and log it.

    The reference is applied uniformly across joints with zero-order hold
    at ``log_rate``; physics runs at ``physics_rate``. The returned
    trajectory holds exactly ``duration * log_rate`` samples.
    """
    if amplitude < 0:
        raise ValueError("amplitude must be non-negative")
    if not duration > 0:
        raise ValueError("duration must be positive")
    spc = int(round(physics_rate / log_rate))
    if spc < 1 or abs(spc - physics_rate / log_rate) > 1e-9:
        raise ValueError("log_rate must divide physics_rate")
    n_cmd = int(round(duration * log_rate))
    start = dynamics.rest_state(plant, q=q0)
    # sin(pi*c/50) with c the 50 Hz command index == sin(pi*t) in seconds,
    # i.e. a 2 s period, two full periods over the default duration.
    commands = np.array([start.q + amplitude * math.sin(math.pi * (c / log_rate))
                         for c in range(n_cmd)])
    traj, _ = track(plant, gains, commands, spc, 1.0 / physics_rate,
                    start.q, start.q_dot, n_cmd * spc)
    logged = slice(0, n_cmd * spc, spc)
    return Trajectory(sample_rate=log_rate, t=np.arange(n_cmd) / log_rate,
                      q=traj.q[logged], q_dot=traj.q_dot[logged],
                      q_des=traj.q_des[logged], tau=traj.tau[logged])


_DFT_CACHE: dict[int, np.ndarray] = {}


def _dft_matrix(n: int) -> np.ndarray:
    W = _DFT_CACHE.get(n)
    if W is None:
        k = np.arange(n)
        W = np.exp(-2j * math.pi * np.outer(k, k) / n)
        _DFT_CACHE[n] = W
    return W


def spectral_mse(a, b, include_dc: bool = True) -> float:
    """Mean over frequency bins of |DFT(a) - DFT(b)|^2, summed over channels.

    Uses the unnormalized forward transform evaluated directly (O(N^2)).
    The DC bin captures steady-state offset and is included by default.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"signal shapes differ: {a.shape} vs {b.shape}")
    if a.ndim == 1:
        a = a[:, None]
        b = b[:, None]
    n = a.shape[0]
    W = _dft_matrix(n)
    diff = W @ (a - b)
    power = np.abs(diff) ** 2
    if not include_dc:
        power = power[1:]
    return float(np.sum(np.mean(power, axis=0)))


# ---------------------------------------------------------------------------
# Identification against a reference trajectory

FROZEN_GAIN_PARAMS = ("stiffness", "damping")
FREE_PARAMS = ("armature", "static_friction", "dynamic_friction_ratio",
               "viscous_friction")


def _apply_params(base: PlantParams, gains: GainConfig, params: dict) -> tuple[PlantParams, GainConfig]:
    n = base.n_joints
    plant_kw = {}
    for name in FREE_PARAMS:
        if name in params:
            plant_kw[name] = np.full(n, params[name])
    plant = replace(base, **plant_kw) if plant_kw else base
    g = gains
    if "stiffness" in params or "damping" in params:
        g = GainConfig(kp=params.get("stiffness", gains.kp),
                       kd=params.get("damping", gains.kd),
                       gravity_comp=gains.gravity_comp,
                       gravity_comp_scale=gains.gravity_comp_scale)
    return plant, g


def identification_loss(reference: Trajectory, plant: PlantParams,
                        gains: GainConfig, protocol: ExcitationProtocol) -> float:
    """Sum of spectral MSE on positions and velocities vs the reference."""
    try:
        sim = excite(plant, gains, amplitude=protocol.amplitude,
                     duration=protocol.duration, log_rate=protocol.log_rate,
                     physics_rate=protocol.physics_rate, q0=reference.q[0])
    except dynamics.SimulationDivergedError:
        return math.inf
    return spectral_mse(reference.q, sim.q) + spectral_mse(reference.q_dot, sim.q_dot)


def identify(reference: Trajectory, gains: GainConfig, bounds: SysidBounds,
             config: CmaesConfig, base_plant: PlantParams,
             protocol: ExcitationProtocol = ExcitationProtocol(),
             fit_gains: bool = False) -> FitResult:
    """Fit plant parameters so the simulated excitation matches ``reference``.

    By default stiffness/damping stay frozen at the commanded gains and
    the four actuator parameters are searched; ``fit_gains`` unfreezes
    them. Simulation failures count as +inf loss.
    """
    names = (FROZEN_GAIN_PARAMS + FREE_PARAMS) if fit_gains else FREE_PARAMS
    box = bounds.subset([n for n in names if n in bounds.names])

    def objective(x: np.ndarray) -> float:
        params = dict(zip(box.names, x))
        plant, g = _apply_params(base_plant, gains, params)
        return identification_loss(reference, plant, g, protocol)

    result = cmaes_minimize(objective, box, config)
    full = dict(zip(box.names, result.x))
    if not fit_gains:
        full["stiffness"] = float(np.atleast_1d(gains.kp)[0])
        full["damping"] = float(np.atleast_1d(gains.kd)[0])
    return FitResult(x=result.x, params=full, loss=result.loss,
                     history=result.history, n_evals=result.n_evals)


def resimulate(fit: FitResult, gains: GainConfig, base_plant: PlantParams,
               protocol: ExcitationProtocol = ExcitationProtocol(),
               q0=None) -> Trajectory:
    """Run the excitation under a fitted parameter set."""
    plant, g = _apply_params(base_plant, gains, fit.params)
    return excite(plant, g, amplitude=protocol.amplitude,
                  duration=protocol.duration, log_rate=protocol.log_rate,
                  physics_rate=protocol.physics_rate, q0=q0)


# ---------------------------------------------------------------------------
# Divergence metrics


def trajectory_error(a: Trajectory, b: Trajectory) -> float:
    """Mean over samples of ||dq||^2 + ||dq_dot||^2 between matched rollouts."""
    if a.n_samples != b.n_samples or a.n_joints != b.n_joints:
        raise ValueError("trajectories must match in length and joint count")
    if abs(a.sample_rate - b.sample_rate) > 1e-9 * a.sample_rate:
        raise ValueError("trajectories must share a sample rate")
    dq = np.sum((a.q - b.q) ** 2, axis=1)
    dv = np.sum((a.q_dot - b.q_dot) ** 2, axis=1)
    return float(np.mean(dq + dv))


def nn_error(policy, a: Trajectory, b: Trajectory) -> float:
    """RMS over samples of ||policy(s_a) - policy(s_b)||.

    ``policy(q, q_dot) -> action`` is evaluated per sample on both state
    trajectories; a constant policy therefore scores zero.
    """
    if a.n_samples != b.n_samples:
        raise ValueError("trajectories must have equal length")
    sq = 0.0
    for k in range(a.n_samples):
        d = np.asarray(policy(a.q[k], a.q_dot[k])) - np.asarray(policy(b.q[k], b.q_dot[k]))
        sq += float(np.sum(d * d))
    return math.sqrt(sq / a.n_samples)


@dataclass(frozen=True)
class JitterReport:
    """Tail-window velocity-dispersion verdict."""

    flagged: bool
    max_std: float
    per_joint_std: np.ndarray


def jitter_detect(traj: Trajectory, window: float = 2.0,
                  threshold: float = 0.04) -> JitterReport:
    """Flag sustained oscillation in the rollout tail.

    Computes the per-joint standard deviation of joint velocity over the
    final ``window`` seconds and flags when the maximum strictly exceeds
    ``threshold`` (default 0.04 rad/s).
    """
    n_win = int(round(window * traj.sample_rate))
    if traj.n_samples <= n_win:
        raise ValueError(f"trajectory ({traj.n_samples} samples) not longer "
                         f"than the {window} s window ({n_win} samples)")
    tail = traj.q_dot[-n_win:]
    per_joint = np.std(tail, axis=0)
    max_std = float(np.max(per_joint))
    return JitterReport(flagged=max_std > threshold, max_std=max_std,
                        per_joint_std=per_joint)
