"""Torque-to-Position Retargeting (TPR) and zero-order-hold replay.

A torque-command demonstration recorded at a high base rate is converted
into position targets for arbitrary diagonal gains via

    q_des(t) = q(t) + Kp^-1 (tau(t) + Kd q_dot(t)),

the algebraic inverse of the PD law, so replaying the targets through the
same gains reproduces the original torques on matched states. Replay
subsamples the targets by an integer decimation factor and holds each
command over the skipped physics steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import control, dynamics
from .control import GainConfig
from .dynamics import PlantParams, Trajectory, _as_vector


class FidelityOverflowError(RuntimeError):
    """A finite replay so far off its source demo that the fidelity MSE
    overflows."""


@dataclass(frozen=True)
class TaskGoal:
    """Goal-reach proxy for success: final q within tol of q_goal (norm)."""

    q_goal: np.ndarray
    tol: float = 0.05

    def __post_init__(self):
        object.__setattr__(self, "q_goal", _as_vector(self.q_goal))

    def reached(self, q) -> bool:
        # a norm that overflows to inf exceeds every tol, as the exact one does
        with np.errstate(over="ignore"):
            return bool(np.linalg.norm(_as_vector(q, self.q_goal.size) - self.q_goal)
                        <= self.tol)


@dataclass(frozen=True)
class TorqueDemo:
    """Torque-level demonstration at ``base_rate`` Hz."""

    base_rate: float
    traj: Trajectory
    goal: TaskGoal
    torque_saturated: bool = False

    def __post_init__(self):
        if not self.base_rate > 0:
            raise ValueError("base_rate must be positive")
        if not np.all(np.isfinite(self.traj.tau)):
            raise ValueError("demo torques must be finite")


@dataclass(frozen=True)
class RetargetedDemo:
    """Position-target commands produced by TPR, one per demo sample at
    ``base_rate``: ``q_des`` is (T, n) for one gain setting, or (T, B, n)
    with a column per lane for lane-stacked gains (``gains.lanes == (B,)``)."""

    gains: GainConfig
    base_rate: float
    q_des: np.ndarray
    goal: TaskGoal
    q0: np.ndarray
    q_dot0: np.ndarray

    @property
    def n_commands(self) -> int:
        return self.q_des.shape[0]


@dataclass(frozen=True)
class FidelityReport:
    """Joint-position MSE against the source demo plus goal outcome."""

    mse: float
    goal_reached: bool


def tpr_joint(demo: TorqueDemo, gains: GainConfig, plant: PlantParams | None = None) -> RetargetedDemo:
    """Retarget a torque demo to position targets for ``gains``.

    When the replay controller compensates gravity, the gravity torque at
    the recorded states is excluded from tau on both sides of the
    identity (requires ``plant``). Lane-stacked gains give one target
    column per lane, each equal to its one-gain call.
    """
    traj = demo.traj
    n = traj.n_joints
    g = gains.expand(n)
    tau = traj.tau.copy()
    if g.gravity_comp:
        if plant is None:
            raise ValueError("gravity-compensating gains need the plant for g(q)")
        tau = tau - dynamics.gravity_torque(plant, traj.q)
    # (T, 1, n) samples against (B, n) gain rows: one (T, n) column per lane
    q, q_dot, tau = (a[:, None] if g.lanes else a for a in (traj.q, traj.q_dot, tau))
    q_des = q + (tau + g.kd * q_dot) / g.kp
    return RetargetedDemo(
        gains=g, base_rate=demo.base_rate, q_des=q_des, goal=demo.goal,
        q0=traj.q[0].copy(), q_dot0=traj.q_dot[0].copy())


@dataclass(frozen=True)
class TaskSpaceDemo:
    """Recorded task-space channels: per-axis pose, velocity, and wrench.

    Orientation axes carry small-angle error channels; the recording law
    is F = Kp0 (x_des - x) - Kd0 x_dot per axis.
    """

    x: np.ndarray
    x_dot: np.ndarray
    wrench: np.ndarray

    def __post_init__(self):
        for name in ("x", "x_dot", "wrench"):
            a = np.asarray(getattr(self, name), dtype=float)
            if a.ndim == 1:
                a = a[:, None]
            object.__setattr__(self, name, a)
        if self.x.shape != self.x_dot.shape or self.x.shape != self.wrench.shape:
            raise ValueError("x, x_dot, wrench must share a shape")


def synth_task_demo(x: np.ndarray, x_des: np.ndarray, x_dot: np.ndarray,
                    recording_gains: GainConfig) -> TaskSpaceDemo:
    """Build a task-space demo whose wrench follows the recording law."""
    g = recording_gains.expand(np.atleast_2d(x).shape[-1] if np.asarray(x).ndim > 1 else 1)
    wrench = g.kp * (np.asarray(x_des) - np.asarray(x)) - g.kd * np.asarray(x_dot)
    return TaskSpaceDemo(x=x, x_dot=x_dot, wrench=wrench)


def tpr_task(demo: TaskSpaceDemo, gains_task: GainConfig) -> np.ndarray:
    """Per-axis task-space retargets x_des = x + Kp'^-1 (F + Kd' x_dot),
    one row per sample."""
    g = gains_task.expand(demo.x.shape[1])
    return demo.x + (demo.wrench + g.kd * demo.x_dot) / g.kp


def replay(retargeted: RetargetedDemo, decimation: int, plant: PlantParams,
           source: TorqueDemo | None = None, command_noise=None):
    """Replay retargeted commands with zero-order hold at a decimated rate.

    Physics steps run at the demo base rate; each kept command is held for
    ``decimation`` steps and tracked by :func:`control.track` (torques
    clamped to the plant limit, no rate limit). ``command_noise`` (the shape
    of the kept command array) perturbs each held command; a list of
    entries (``None`` for a clean lane) replays as lanes of one ``track``
    call. Lane-stacked gains replay each lane's own command column, and a
    list then holds one (C, n) entry per gain lane. When ``track`` makes
    lanes the result is a list of (trajectory, report) pairs, with a
    diverged lane's ``SimulationDivergedError`` in its slot. The fidelity
    MSE is computed against ``source`` when given; a replay whose MSE
    overflows gets a ``FidelityOverflowError`` (raised for one lane, in its
    slot for several).
    """
    if decimation < 1 or int(decimation) != decimation:
        raise ValueError("decimation must be a positive integer")
    decimation = int(decimation)
    commands = retargeted.q_des[::decimation]
    many = isinstance(command_noise, list)
    lanes = command_noise if many else [command_noise]
    # a list's entries pair with the gain lanes' command columns, if any
    columns = list(np.moveaxis(commands, 1, 0)) if many and retargeted.gains.lanes \
        else [commands] * len(lanes)
    if len(columns) != len(lanes) or any(e is not None and e.shape != c.shape
                                         for c, e in zip(columns, lanes)):
        raise ValueError("command_noise must match the kept command array")
    stacked = np.stack([c if e is None else c + e for c, e in zip(columns, lanes)], axis=1)
    runs = control.track(plant, retargeted.gains, stacked if many else stacked[:, 0],
                         decimation, 1.0 / retargeted.base_rate, retargeted.q0,
                         retargeted.q_dot0, retargeted.n_commands - 1)
    out = []
    for traj in runs if isinstance(runs, list) else [runs]:
        if isinstance(traj, dynamics.SimulationDivergedError):
            out.append(traj)
            continue
        mse = float("nan")
        if source is not None:
            m = min(traj.n_samples, source.traj.n_samples)
            try:
                with np.errstate(over="raise", invalid="raise"):
                    mse = float(np.mean((traj.q[:m] - source.traj.q[:m]) ** 2))
            except FloatingPointError as exc:
                error = FidelityOverflowError(
                    f"fidelity MSE against the source demo overflows ({exc})")
                if not isinstance(runs, list):
                    raise error from None
                out.append(error)
                continue
        reached = retargeted.goal.reached(traj.q[-1])
        out.append((traj, FidelityReport(mse=mse, goal_reached=reached)))
    return out if isinstance(runs, list) else out[0]


# ---------------------------------------------------------------------------
# Scripted demo generation (stands in for teleoperated demonstrations)


def quintic_reference(q0, qf, duration: float):
    """Minimum-jerk quintic from q0 to qf with zero boundary vel/acc.

    Returns pos(t), vel(t), acc(t) callables, clamped beyond [0, duration].
    A float t (as :func:`dynamics.simulate` passes) is evaluated in Python
    floats, bitwise as numpy evaluates a float64 scalar (both take s**k
    from libm's pow); an array t is evaluated on numpy, whose vectorized
    powers may differ from the scalar ones in the last bit. A ``duration``
    that is not finite and positive raises ``ValueError``.
    """
    q0 = np.atleast_1d(np.asarray(q0, dtype=float))
    qf = _as_vector(qf, q0.size)
    dq = qf - q0
    T = float(duration)
    if not 0 < T < math.inf:
        raise ValueError(f"duration must be finite and positive, not {duration!r}")

    def _s(t):
        """(t / T clamped to [0, 1], whether 0 < t < T)."""
        if isinstance(t, (float, int)):
            return min(max(0.0, t / T), 1.0), 0.0 < t < T
        return np.clip(t / T, 0.0, 1.0), (t > 0.0) & (t < T)

    def pos(t):
        s = _s(t)[0]
        return q0 + dq * (10 * s**3 - 15 * s**4 + 6 * s**5)

    def vel(t):
        s, inside = _s(t)
        return dq * (30 * s**2 - 60 * s**3 + 30 * s**4) / T * inside

    def acc(t):
        s, inside = _s(t)
        return dq * (60 * s - 180 * s**2 + 120 * s**3) / T**2 * inside

    return pos, vel, acc


def computed_torque_tracker(plant: PlantParams, pos, vel, acc):
    """Inverse-dynamics tracker of a smooth reference.

    tau = M(q)(acc_ref + kp e + kd e_dot) + C(q,qd) qd + g(q) with kp = 2500,
    kd = 100; exact on a friction-free plant, so tracking error stays at
    integrator scale.
    """
    kp_fb, kd_fb = 2500.0, 100.0

    def controller(q, q_dot, t: float) -> np.ndarray:
        e = pos(t) - q
        e_dot = vel(t) - q_dot
        M = dynamics.mass_matrix(plant, q)
        qdd_cmd = acc(t) + kp_fb * e + kd_fb * e_dot
        return (M @ qdd_cmd + dynamics.coriolis_torque(plant, q, q_dot)
                + dynamics.gravity_torque(plant, q))

    return controller


def demo_samples(duration: float, base_rate: float) -> int:
    """The samples of a ``duration`` s demo at ``base_rate`` Hz,
    round(duration * base_rate); ValueError, naming the param at fault
    first, unless base_rate is finite and positive and that count is
    finite and at least one."""
    if not 0 < base_rate < math.inf:
        raise ValueError(f"base_rate must be finite and positive, not {base_rate!r}")
    samples = duration * base_rate
    if not 0.5 < samples < math.inf:  # round(samples) >= 1 exactly when samples > 0.5
        raise ValueError(f"duration {duration!r} s at base_rate {base_rate!r} Hz must "
                         f"round to at least one sample and finitely many")
    return int(round(samples))


def make_demo(plant: PlantParams, controller, duration: float, base_rate: float,
              q0=None, goal: TaskGoal | None = None,
              reference=None) -> TorqueDemo:
    """Record a torque demo from a scripted torque-level controller.

    ``controller(q, q_dot, t) -> tau``. Torques beyond the plant limit are
    clamped before application and the demo is flagged. The recorded
    ``q_des`` channel holds ``reference(t)`` when a reference is supplied
    and q otherwise. The demo starts at rest at ``q0`` (default 0) and
    holds exactly ``round(duration * base_rate)`` samples (see
    :func:`demo_samples`).
    """
    n_steps = demo_samples(duration, base_rate)
    dt = 1.0 / base_rate
    q0 = np.zeros(plant.n_joints) if q0 is None else q0
    saturated = False
    low, high = -plant.torque_limit, plant.torque_limit

    def torque_fn(q, q_dot, k, t):
        nonlocal saturated
        tau = _as_vector(controller(q, q_dot, t), plant.n_joints)
        clipped = np.minimum(np.maximum(tau, low), high)
        if (clipped != tau).any():
            saturated = True
        return clipped, q if reference is None else reference(t)

    traj = dynamics.simulate(plant, q0, np.zeros(plant.n_joints), torque_fn, dt, n_steps)
    if goal is None:
        goal = TaskGoal(q_goal=traj.q[-1])
    # drop the trailing state sample so the demo holds duration*base_rate records
    traj = Trajectory(sample_rate=base_rate, t=traj.t[:-1], q=traj.q[:-1],
                      q_dot=traj.q_dot[:-1], q_des=traj.q_des[:-1], tau=traj.tau[:-1])
    return TorqueDemo(base_rate=base_rate, traj=traj, goal=goal,
                      torque_saturated=saturated)
