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


class JitterOverflowError(RuntimeError):
    """A finite rollout whose tail-window velocity spread overflows."""


class CmaesAbortedError(RuntimeError):
    """No candidate of a generation had a finite loss; carries the partial
    result."""

    def __init__(self, result: "FitResult"):
        super().__init__("no candidate in a generation had a finite loss")
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

    @property
    def popsize(self) -> int:
        """CMA-ES's population size over this box, 4 + floor(3 ln dim)."""
        return 4 + int(3 * math.log(self.dim))


@dataclass(frozen=True)
class CmaesConfig:
    """CMA-ES settings; the population size is the box's ``popsize``."""

    sigma0: float = 3.0
    max_iter: int = 200
    seed: int = 0
    penalty_weight: float = 100.0

    def __post_init__(self):
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


def cmaes_minimize(objective, bounds: SysidBounds,
                   config: CmaesConfig | tuple[CmaesConfig, ...] = CmaesConfig()):
    """Minimize a black-box objective over the bounds box with CMA-ES.

    Standard (mu/mu_w, lambda) covariance matrix adaptation with the
    published default weights and learning rates, run in normalized
    [0,1]^n coordinates, in ask/tell form: ``objective(X) -> losses``
    scores a whole generation at once, X holding its lambda in-box points
    as rows. Samples falling outside the box are evaluated at the clamped
    point with a quadratic distance penalty added. NaN (or None) losses
    rank last as +inf; a generation with no finite loss aborts with
    ``CmaesAbortedError``. Returns the ``FitResult``. Deterministic given
    the seed.

    Given a tuple of k configs, runs k searches over the box in lockstep
    and returns their k outcomes in config order: a ``FitResult``, or the
    ``CmaesAbortedError`` of a search that aborted while the others went
    on. ``objective(Xs) -> loss lists`` then scores one generation of
    every search at once: ``Xs`` holds a point array per search (None once
    it has stopped), and the objective returns a loss list per live
    search, in order. Each search draws from its own seed's generator, so
    its outcome equals its one-config run bitwise.
    """
    lone = isinstance(config, CmaesConfig)
    configs = (config,) if lone else config
    n = bounds.dim
    lo, hi = bounds.lower, bounds.upper
    span = hi - lo
    lam = bounds.popsize

    def search(config):
        # one run: yields each generation's points, is sent their losses
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
            clamped = np.clip(xs, 0.0, 1.0)
            points = lo + clamped * span
            values = yield points
            if len(values) != lam:
                raise ValueError(f"objective returned {len(values)} losses for {lam} points")
            losses = np.empty(lam)
            for i, val in enumerate(values):
                dist2 = float(np.sum((xs[i] - clamped[i]) ** 2))
                n_evals += 1
                val = math.inf if (val is None or math.isnan(val)) else float(val)
                # penalty shapes the ranking; the reported best is the raw
                # objective at the in-box point actually evaluated
                losses[i] = val + config.penalty_weight * dist2
                if val < best_loss:
                    best_loss = val
                    best_x = points[i]
            if not np.any(np.isfinite(losses)):
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

    searches = [search(c) for c in configs]
    points = [next(s) for s in searches]
    outcomes = [None] * len(searches)
    while live := [i for i, X in enumerate(points) if X is not None]:
        losses = [objective(points[0])] if lone else objective(points)
        if len(losses) != len(live):
            raise ValueError(f"objective returned {len(losses)} loss lists "
                             f"for {len(live)} live searches")
        for i, values in zip(live, losses):
            try:
                points[i] = searches[i].send(values)
            except StopIteration as done:
                outcomes[i], points[i] = done.value, None
            except CmaesAbortedError as aborted:
                outcomes[i], points[i] = aborted, None
    if not lone:
        return outcomes
    if isinstance(outcomes[0], CmaesAbortedError):
        raise outcomes[0]
    return outcomes[0]


# ---------------------------------------------------------------------------
# Excitation and spectral loss


# the identification run: a sinusoidal reference of this amplitude (rad)
# and duration (s), commanded and logged at the log rate (Hz) over physics
# at the physics rate (Hz)
EXCITE_AMPLITUDE = 0.1
EXCITE_DURATION = 4.0
EXCITE_LOG_RATE = 50.0
EXCITE_PHYSICS_RATE = 100.0


def excite(plant: PlantParams, gains: GainConfig, q0=None):
    """Drive the closed loop with the sinusoidal reference and log it.

    The reference is applied uniformly across joints with zero-order hold
    at ``EXCITE_LOG_RATE``; physics runs at ``EXCITE_PHYSICS_RATE``. The
    returned trajectory holds exactly ``EXCITE_DURATION * EXCITE_LOG_RATE``
    samples. A lane-stacked plant (``plant.lanes == (B,)``) runs as B lanes
    of one rollout and gives a list of B entries: a trajectory, or the
    ``SimulationDivergedError`` of a lane that diverged.
    """
    spc = int(round(EXCITE_PHYSICS_RATE / EXCITE_LOG_RATE))
    n_cmd = int(round(EXCITE_DURATION * EXCITE_LOG_RATE))
    q0, q_dot0 = dynamics._start_state(plant, 0.0 if q0 is None else q0, 0.0)
    # sin(pi*c/50) with c the 50 Hz command index == sin(pi*t) in seconds,
    # i.e. a 2 s period, two full periods over the duration.
    commands = np.array([q0 + EXCITE_AMPLITUDE * math.sin(math.pi * (c / EXCITE_LOG_RATE))
                         for c in range(n_cmd)])
    tracked = track(plant, gains, commands, spc, 1.0 / EXCITE_PHYSICS_RATE, q0, q_dot0,
                    n_cmd * spc)
    logged = slice(0, n_cmd * spc, spc)
    t = np.arange(n_cmd) / EXCITE_LOG_RATE

    def log(traj):
        return Trajectory(sample_rate=EXCITE_LOG_RATE, t=t, q=traj.q[logged],
                          q_dot=traj.q_dot[logged], q_des=traj.q_des[logged],
                          tau=traj.tau[logged])

    if not plant.lanes:
        return log(tracked)
    return [traj if isinstance(traj, dynamics.SimulationDivergedError) else log(traj)
            for traj in tracked]


_DFT_CACHE: dict[int, np.ndarray] = {}


def _dft_matrix(n: int) -> np.ndarray:
    W = _DFT_CACHE.get(n)
    if W is None:
        k = np.arange(n)
        W = np.exp(-2j * math.pi * np.outer(k, k) / n)
        _DFT_CACHE[n] = W
    return W


def spectral_mse(a, b) -> float:
    """Mean over frequency bins of |DFT(a) - DFT(b)|^2, summed over channels.

    Uses the unnormalized forward transform evaluated directly (O(N^2)).
    The DC bin, which captures steady-state offset, is one of the bins.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"signal shapes differ: {a.shape} vs {b.shape}")
    if a.ndim == 1:
        a = a[:, None]
        b = b[:, None]
    n = a.shape[0]
    if n < 1:
        raise ValueError(f"a {n}-sample signal leaves no frequency bin to average")
    W = _dft_matrix(n)
    diff = W @ (a - b)
    power = np.abs(diff) ** 2
    return float(np.sum(np.mean(power, axis=0)))


# ---------------------------------------------------------------------------
# Identification against a reference trajectory

FREE_PARAMS = ("armature", "static_friction", "dynamic_friction_ratio",
               "viscous_friction")


def _spectral_loss(reference: Trajectory, sim: Trajectory) -> float:
    """Spectral MSE on positions plus velocities; +inf if either overflows."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            return spectral_mse(reference.q, sim.q) + spectral_mse(reference.q_dot, sim.q_dot)
    except FloatingPointError:
        return math.inf


def identify(reference: Trajectory, gains: GainConfig, bounds: SysidBounds,
             config: CmaesConfig, base_plant: PlantParams) -> FitResult:
    """Fit plant parameters so the simulated excitation matches ``reference``.

    The gains stay at their commanded values; CMA-ES searches the four
    actuator parameters ``FREE_PARAMS`` within ``bounds``. Each generation
    is one excitation with a lane per candidate. A diverged lane and
    overflowing spectra count as +inf loss.
    """
    box = bounds.subset(FREE_PARAMS)

    def objective(X: np.ndarray) -> list[float]:
        # parameter columns as (lambda, 1) per-lane fields
        plants = replace(base_plant, **dict(zip(box.names, X.T[:, :, None])))
        sims = excite(plants, gains, q0=reference.q[0])
        return [math.inf if isinstance(sim, dynamics.SimulationDivergedError)
                else _spectral_loss(reference, sim) for sim in sims]

    return cmaes_minimize(objective, box, config)


def resimulate(fit: FitResult, gains: GainConfig, base_plant: PlantParams) -> Trajectory:
    """Run the excitation under a fitted parameter set and the given gains."""
    return excite(replace(base_plant, **fit.params), gains)


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


def jitter_window(n_samples: int, sample_rate: float, window: float) -> int:
    """Samples in the final ``window`` seconds of an ``n_samples`` rollout
    at ``sample_rate``; ValueError unless at least one and fewer than
    ``n_samples``."""
    n_win = int(round(window * sample_rate))
    if not 1 <= n_win < n_samples:
        raise ValueError(f"window {window} s ({n_win} samples) must hold a sample and "
                         f"be shorter than the trajectory ({n_samples} samples)")
    return n_win


def jitter_detect(traj: Trajectory, window: float = 2.0,
                  threshold: float = 0.04) -> JitterReport:
    """Flag sustained oscillation in the rollout tail.

    Computes the per-joint standard deviation of joint velocity over the
    final ``window`` seconds (see :func:`jitter_window`) and flags when
    the maximum strictly exceeds ``threshold`` (default 0.04 rad/s). A
    tail whose std overflows raises ``JitterOverflowError``.
    """
    n_win = jitter_window(traj.n_samples, traj.sample_rate, window)
    tail = traj.q_dot[-n_win:]
    try:
        with np.errstate(over="raise", invalid="raise"):
            per_joint = np.std(tail, axis=0)
    except FloatingPointError as exc:
        raise JitterOverflowError(
            f"velocity std over the {window} s tail window overflows ({exc})") from None
    max_std = float(np.max(per_joint))
    return JitterReport(flagged=max_std > threshold, max_std=max_std,
                        per_joint_std=per_joint)
