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

import hashlib
from dataclasses import dataclass, field

import numpy as np

from . import control, dynamics
from .control import GainConfig
from .dynamics import PlantParams, State, Trajectory, _as_vector


@dataclass(frozen=True)
class TaskGoal:
    """Goal-reach proxy for success: final q within tol of q_goal (norm)."""

    q_goal: np.ndarray
    tol: float = 0.05

    def __post_init__(self):
        object.__setattr__(self, "q_goal", _as_vector(self.q_goal))

    def reached(self, q) -> bool:
        return bool(np.linalg.norm(_as_vector(q, self.q_goal.size) - self.q_goal)
                    <= self.tol)


@dataclass(frozen=True)
class TorqueDemo:
    """Torque-level demonstration at ``base_rate`` Hz."""

    base_rate: float
    traj: Trajectory
    goal: TaskGoal
    gravity_comp_recorded: bool = False
    torque_saturated: bool = False

    def __post_init__(self):
        if not self.base_rate > 0:
            raise ValueError("base_rate must be positive")
        if not np.all(np.isfinite(self.traj.tau)):
            raise ValueError("demo torques must be finite")

    def content_hash(self) -> str:
        h = hashlib.sha256()
        for a in (self.traj.t, self.traj.q, self.traj.q_dot, self.traj.tau):
            h.update(np.ascontiguousarray(a).tobytes())
        return h.hexdigest()[:16]


@dataclass(frozen=True)
class RetargetedDemo:
    """Position-target commands produced by TPR for one gain setting."""

    gains: GainConfig
    base_rate: float
    command_rate: float
    q_des: np.ndarray
    goal: TaskGoal
    q0: np.ndarray
    q_dot0: np.ndarray
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        ratio = self.base_rate / self.command_rate
        if abs(ratio - round(ratio)) > 1e-9:
            raise ValueError("command_rate must divide base_rate")

    @property
    def n_commands(self) -> int:
        return self.q_des.shape[0]


@dataclass(frozen=True)
class FidelityReport:
    """Joint-position MSE against the source demo plus goal outcome."""

    mse: float
    goal_reached: bool
    final_error: float


def tpr_joint(demo: TorqueDemo, gains: GainConfig, plant: PlantParams | None = None) -> RetargetedDemo:
    """Retarget a torque demo to position targets for ``gains``.

    When the replay controller compensates gravity, the gravity torque at
    the recorded states is excluded from tau on both sides of the
    identity (requires ``plant``); the choice is stored in provenance.
    """
    traj = demo.traj
    n = traj.n_joints
    g = gains.expand(n)
    tau = traj.tau.copy()
    gravity_excluded = False
    if g.gravity_comp:
        if plant is None:
            raise ValueError("gravity-compensating gains need the plant for g(q)")
        grav = np.array([dynamics.gravity_torque(plant, q) for q in traj.q])
        tau = tau - g.gravity_comp_scale * grav
        gravity_excluded = True
    q_des = traj.q + (tau + g.kd * traj.q_dot) / g.kp
    return RetargetedDemo(
        gains=g, base_rate=demo.base_rate, command_rate=demo.base_rate,
        q_des=q_des, goal=demo.goal, q0=traj.q[0].copy(), q_dot0=traj.q_dot[0].copy(),
        provenance={"source": demo.content_hash(), "gravity_excluded": gravity_excluded,
                    "space": "joint"})


@dataclass(frozen=True)
class TaskSpaceDemo:
    """Recorded task-space channels: per-axis pose, velocity, and wrench.

    Orientation axes carry small-angle error channels; the recording law
    is F = Kp0 (x_des - x) - Kd0 x_dot per axis.
    """

    base_rate: float
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


def synth_task_demo(base_rate: float, x: np.ndarray, x_des: np.ndarray,
                    x_dot: np.ndarray, recording_gains: GainConfig) -> TaskSpaceDemo:
    """Build a task-space demo whose wrench follows the recording law."""
    g = recording_gains.expand(np.atleast_2d(x).shape[-1] if np.asarray(x).ndim > 1 else 1)
    wrench = g.kp * (np.asarray(x_des) - np.asarray(x)) - g.kd * np.asarray(x_dot)
    return TaskSpaceDemo(base_rate=base_rate, x=x, x_dot=x_dot, wrench=wrench)


def tpr_task(demo: TaskSpaceDemo, gains_task: GainConfig) -> RetargetedDemo:
    """Per-axis task-space retargeting: x_des = x + Kp'^-1 (F + Kd' x_dot)."""
    n = demo.x.shape[1]
    g = gains_task.expand(n)
    x_des = demo.x + (demo.wrench + g.kd * demo.x_dot) / g.kp
    return RetargetedDemo(
        gains=g, base_rate=demo.base_rate, command_rate=demo.base_rate,
        q_des=x_des, goal=TaskGoal(q_goal=demo.x[-1]),
        q0=demo.x[0].copy(), q_dot0=demo.x_dot[0].copy(),
        provenance={"space": "task"})


def replay(retargeted: RetargetedDemo, decimation: int, plant: PlantParams,
           source: TorqueDemo | None = None,
           command_noise: np.ndarray | None = None) -> tuple[Trajectory, FidelityReport]:
    """Replay retargeted commands with zero-order hold at a decimated rate.

    Physics steps run at the demo base rate; each kept command is held for
    ``decimation * (base_rate / command_rate)`` steps and tracked by
    :func:`control.track` (torques clamped to the plant limit, no rate
    limit). ``command_noise`` (same shape as the kept command array)
    perturbs each held command. The fidelity MSE is computed against
    ``source`` when given.
    """
    if decimation < 1 or int(decimation) != decimation:
        raise ValueError("decimation must be a positive integer")
    decimation = int(decimation)
    if retargeted.provenance.get("space") == "task":
        raise ValueError("task-space retargets are not replayable (no task-space plant)")
    commands = retargeted.q_des[::decimation]
    if command_noise is not None:
        if command_noise.shape != commands.shape:
            raise ValueError("command_noise must match the kept command array")
        commands = commands + command_noise
    base_per_command = int(round(retargeted.base_rate / retargeted.command_rate))
    traj, final = control.track(plant, retargeted.gains, commands,
                                decimation * base_per_command, 1.0 / retargeted.base_rate,
                                retargeted.q0, retargeted.q_dot0,
                                retargeted.n_commands * base_per_command - 1)
    if source is not None:
        m = min(traj.n_samples, source.traj.n_samples)
        mse = float(np.mean((traj.q[:m] - source.traj.q[:m]) ** 2))
    else:
        mse = float("nan")
    reached = retargeted.goal.reached(final.q)
    final_err = float(np.linalg.norm(final.q - retargeted.goal.q_goal))
    return traj, FidelityReport(mse=mse, goal_reached=reached, final_error=final_err)


# ---------------------------------------------------------------------------
# Scripted demo generation (stands in for teleoperated demonstrations)


def quintic_reference(q0, qf, duration: float):
    """Minimum-jerk quintic from q0 to qf with zero boundary vel/acc.

    Returns pos(t), vel(t), acc(t) callables, clamped beyond [0, duration].
    """
    q0 = np.atleast_1d(np.asarray(q0, dtype=float))
    qf = _as_vector(qf, q0.size)
    dq = qf - q0
    T = float(duration)

    def _s(t):
        s = np.clip(t / T, 0.0, 1.0)
        return s

    def pos(t):
        s = _s(t)
        return q0 + dq * (10 * s**3 - 15 * s**4 + 6 * s**5)

    def vel(t):
        s = _s(t)
        inside = (t > 0.0) & (t < T) if np.ndim(t) else (0.0 < t < T)
        return dq * (30 * s**2 - 60 * s**3 + 30 * s**4) / T * inside

    def acc(t):
        s = _s(t)
        inside = (t > 0.0) & (t < T) if np.ndim(t) else (0.0 < t < T)
        return dq * (60 * s - 180 * s**2 + 120 * s**3) / T**2 * inside

    return pos, vel, acc


def computed_torque_tracker(plant: PlantParams, pos, vel, acc,
                            kp_fb: float = 2500.0, kd_fb: float = 100.0):
    """Inverse-dynamics tracker of a smooth reference.

    tau = M(q)(acc_ref + kp e + kd e_dot) + C(q,qd) qd + g(q); exact on a
    friction-free plant, so tracking error stays at integrator scale.
    """

    def controller(state: State, t: float) -> np.ndarray:
        e = pos(t) - state.q
        e_dot = vel(t) - state.q_dot
        M = dynamics.mass_matrix(plant, state.q)
        qdd_cmd = acc(t) + kp_fb * e + kd_fb * e_dot
        return (M @ qdd_cmd + dynamics.coriolis_torque(plant, state.q, state.q_dot)
                + dynamics.gravity_torque(plant, state.q))

    return controller


def make_demo(plant: PlantParams, controller, duration: float, base_rate: float,
              q0=None, goal: TaskGoal | None = None,
              reference=None) -> TorqueDemo:
    """Record a torque demo from a scripted torque-level controller.

    ``controller(state, t) -> tau``. Torques beyond the plant limit are
    clamped before application and the demo is flagged. The recorded
    ``q_des`` channel holds the reference when one is supplied. The demo
    holds exactly ``round(duration * base_rate)`` samples.
    """
    if not duration > 0:
        raise ValueError("duration must be positive")
    dt = 1.0 / base_rate
    n_steps = int(round(duration * base_rate))
    state0 = dynamics.rest_state(plant, q=q0)
    saturated = False

    def torque_fn(state, k):
        nonlocal saturated
        tau = _as_vector(controller(state, state.t), plant.n_joints)
        clipped = np.clip(tau, -plant.torque_limit, plant.torque_limit)
        if np.any(clipped != tau):
            saturated = True
        return clipped

    q_des_fn = None
    if reference is not None:
        q_des_fn = lambda state, k: reference(state.t)
    traj, final = dynamics.simulate(plant, state0, torque_fn, dt, n_steps,
                                    q_des_fn=q_des_fn)
    # drop the trailing state sample so the demo holds duration*base_rate records
    traj = Trajectory(sample_rate=base_rate, t=traj.t[:-1], q=traj.q[:-1],
                      q_dot=traj.q_dot[:-1], q_des=traj.q_des[:-1], tau=traj.tau[:-1])
    if goal is None:
        goal = TaskGoal(q_goal=final.q.copy())
    return TorqueDemo(base_rate=base_rate, traj=traj, goal=goal,
                      torque_saturated=saturated)
