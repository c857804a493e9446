"""Gain-parameterized PD/impedance controllers and gain-regime tools.

The PD law tau = Kp (q_des - q) + Kd (q_dot_des - q_dot) [+ g(q)] acts as
a virtual spring-damper: at rest under a constant external torque the
displacement satisfies tau_ext = Kp (q - q_des). Per-joint second-order
parameters omega_n = sqrt(Kp/m), zeta = Kd / (2 sqrt(m Kp)) classify each
gain cell into the compliant/stiff x overdamped/underdamped quadrants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dynamics
from .dynamics import PlantParams, State, Trajectory, _as_vector

REGIMES = ("CO", "SO", "CU", "SU")


class NotSettledError(RuntimeError):
    """Compliance probe did not reach steady state within settle_time."""


@dataclass(frozen=True)
class GainConfig:
    """Diagonal joint stiffness/damping gains.

    ``gravity_comp_scale`` scales the compensation term; 1.0 is perfect
    compensation, 0.0 reproduces an uncompensated controller even when
    ``gravity_comp`` is set.
    """

    kp: np.ndarray
    kd: np.ndarray
    gravity_comp: bool = False
    gravity_comp_scale: float = 1.0

    def __post_init__(self):
        kp = np.atleast_1d(np.asarray(self.kp, dtype=float))
        kd = np.atleast_1d(np.asarray(self.kd, dtype=float))
        if kd.size == 1 and kp.size > 1:
            kd = np.full(kp.size, kd[0])
        if kp.size == 1 and kd.size > 1:
            kp = np.full(kd.size, kp[0])
        if kp.shape != kd.shape:
            raise ValueError("kp and kd must have matching shapes")
        if np.any(kp <= 0) or np.any(kd <= 0):
            raise ValueError("gains must be positive elementwise")
        object.__setattr__(self, "kp", kp)
        object.__setattr__(self, "kd", kd)

    @property
    def n_joints(self) -> int:
        return self.kp.size

    def expand(self, n: int) -> "GainConfig":
        """Broadcast scalar gains to n joints."""
        if self.n_joints == n:
            return self
        if self.n_joints != 1:
            raise ValueError(f"cannot expand {self.n_joints}-joint gains to {n}")
        return GainConfig(kp=np.full(n, self.kp[0]), kd=np.full(n, self.kd[0]),
                          gravity_comp=self.gravity_comp,
                          gravity_comp_scale=self.gravity_comp_scale)


def pd_torque(gains: GainConfig, state: State, q_des, q_dot_des=None,
              gravity_term=None) -> np.ndarray:
    """PD control torque; q_dot_des defaults to zero (deploy-style -Kd*q_dot)."""
    n = state.n_joints
    g = gains.expand(n)
    q_des = _as_vector(q_des, n)
    qd_des = np.zeros(n) if q_dot_des is None else _as_vector(q_dot_des, n)
    tau = g.kp * (q_des - state.q) + g.kd * (qd_des - state.q_dot)
    if g.gravity_comp and gravity_term is not None:
        tau = tau + g.gravity_comp_scale * _as_vector(gravity_term, n)
    return tau


def limit_torque(plant: PlantParams, tau, tau_prev, dt: float) -> np.ndarray:
    """Clamp to +-torque_limit, then rate-limit against the previous torque."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    n = plant.n_joints
    tau = np.clip(_as_vector(tau, n), -plant.torque_limit, plant.torque_limit)
    tau_prev = _as_vector(tau_prev, n)
    max_delta = plant.torque_rate_limit * dt
    return tau_prev + np.clip(tau - tau_prev, -max_delta, max_delta)


def track(plant: PlantParams, gains: GainConfig, commands, hold: int, dt: float,
          q0, q_dot0, n_steps: int) -> tuple[Trajectory, State]:
    """Track zero-order-held position commands with the PD law.

    Command c is held over physics steps [c*hold, (c+1)*hold), the last
    one to the end. The torque is :func:`pd_torque` toward the held
    command (plus gravity compensation when ``gains.gravity_comp``),
    clamped to the plant's torque limit. Returns the trajectory in
    :func:`dynamics.simulate`'s layout (n_steps+1 samples) and the final
    state. The two-link arm runs through ``simulate``; the diagonal plants
    step State-free through :func:`dynamics.decoupled_stepper`. A
    floating-point overflow or invalid operation at step k raises
    ``SimulationDivergedError(step_index=k)``.
    """
    start = State(q=q0, q_dot=q_dot0)
    g = gains.expand(plant.n_joints)
    last = len(commands) - 1
    if plant.kind == dynamics.TWO_LINK:
        def q_des_fn(state, k):
            return commands[min(k // hold, last)]

        def torque_fn(state, k):
            grav = dynamics.gravity_torque(plant, state.q)
            tau = pd_torque(g, state, q_des_fn(state, k), gravity_term=grav)
            return np.clip(tau, -plant.torque_limit, plant.torque_limit)

        return dynamics.simulate(plant, start, torque_fn, dt, n_steps, q_des_fn=q_des_fn)

    advance = dynamics.decoupled_stepper(plant)
    comp = g.gravity_comp_scale * dynamics.gravity_torque(plant, start.q) \
        if g.gravity_comp else None
    shape = (n_steps + 1, plant.n_joints)
    rec_q, rec_qd, rec_qdes, rec_tau = (np.empty(shape) for _ in range(4))
    q, qd = start.q, start.q_dot
    cmd, tau = q, np.zeros(plant.n_joints)
    k = 0
    try:
        with np.errstate(over="raise", invalid="raise"):
            for k in range(n_steps):
                cmd = commands[min(k // hold, last)]
                # 0.0 - qd, not -qd: pd_torque's signed zeros
                tau = g.kp * (cmd - q) + g.kd * (0.0 - qd)
                if comp is not None:
                    tau = tau + comp
                tau = np.clip(tau, -plant.torque_limit, plant.torque_limit)
                rec_q[k], rec_qd[k], rec_qdes[k], rec_tau[k] = q, qd, cmd, tau
                q, qd = advance(q, qd, tau, dt)
    except FloatingPointError as exc:
        raise dynamics.SimulationDivergedError(step_index=k) from exc
    if not (np.all(np.isfinite(q)) and np.all(np.isfinite(qd))):
        raise dynamics.SimulationDivergedError(step_index=n_steps)
    rec_q[n_steps], rec_qd[n_steps], rec_qdes[n_steps], rec_tau[n_steps] = q, qd, cmd, tau
    # t accumulates dt per step, as simulate's State.t does
    t = np.concatenate(([0.0], np.cumsum(np.full(n_steps, dt))))
    traj = Trajectory(sample_rate=1.0 / dt, t=t, q=rec_q, q_dot=rec_qd,
                      q_des=rec_qdes, tau=rec_tau)
    return traj, State(q=q, q_dot=qd, t=float(t[-1]))


@dataclass(frozen=True)
class GainRegime:
    """Per-joint natural frequency, damping ratio, and quadrant labels."""

    omega_n: np.ndarray
    zeta: np.ndarray
    labels: tuple[str, ...]

    @property
    def label(self) -> str:
        return self.labels[0] if len(set(self.labels)) == 1 else "mixed"


def classify_regime(gains: GainConfig, m_eff, stiffness_split: float) -> GainRegime:
    """Quadrant from (zeta >= 1 -> overdamped, Kp >= split -> stiff)."""
    m = np.atleast_1d(np.asarray(m_eff, dtype=float))
    if np.any(m <= 0):
        raise ValueError("m_eff must be positive")
    g = gains.expand(max(gains.n_joints, m.size))
    if m.size == 1:
        m = np.full(g.n_joints, m[0])
    omega_n = np.sqrt(g.kp / m)
    zeta = g.kd / (2.0 * np.sqrt(m * g.kp))
    labels = tuple(
        ("S" if kp >= stiffness_split else "C") + ("O" if z >= 1.0 else "U")
        for kp, z in zip(g.kp, zeta))
    return GainRegime(omega_n=omega_n, zeta=zeta, labels=labels)


def _median(values) -> float:
    """np.median of a 1-D sequence, bitwise, from a sort: np.median's first
    call in a process imports numpy.ma (~13 ms)."""
    s = np.sort(np.asarray(values, dtype=float))
    mid = s.size // 2
    med = s[mid] if s.size % 2 else (s[mid - 1] + s[mid]) / 2
    return float(s[-1] if np.isnan(s[-1]) else med)  # NaN sorts last


@dataclass(frozen=True)
class GainGrid:
    """Log-spaced Kp x Kd grid; cells enumerate row-major, Kd outer."""

    kp_values: np.ndarray
    kd_values: np.ndarray

    def __post_init__(self):
        kp = np.asarray(self.kp_values, dtype=float)
        kd = np.asarray(self.kd_values, dtype=float)
        for name, v in (("kp_values", kp), ("kd_values", kd)):
            if v.size == 0 or np.any(np.diff(v) <= 0):
                raise ValueError(f"{name} must be non-empty and strictly increasing")
        object.__setattr__(self, "kp_values", kp)
        object.__setattr__(self, "kd_values", kd)

    @property
    def n_cells(self) -> int:
        return self.kp_values.size * self.kd_values.size

    def cells(self):
        """Yield (kp, kd) pairs; Kd outer, Kp inner (the CSV row order)."""
        for kd in self.kd_values:
            for kp in self.kp_values:
                yield float(kp), float(kd)

    def config(self, kp: float, kd: float, **kw) -> GainConfig:
        return GainConfig(kp=kp, kd=kd, **kw)

    @property
    def stiffness_split(self) -> float:
        """Geometric median of the Kp axis (median in log space)."""
        return float(np.exp(_median(np.log(self.kp_values))))

    def corners(self) -> dict[str, tuple[float, float]]:
        """Regime-corner cells: compliant=low Kp, overdamped=high Kd."""
        kp_lo, kp_hi = self.kp_values[0], self.kp_values[-1]
        kd_lo, kd_hi = self.kd_values[0], self.kd_values[-1]
        return {"CO": (kp_lo, kd_hi), "SO": (kp_hi, kd_hi),
                "CU": (kp_lo, kd_lo), "SU": (kp_hi, kd_lo)}


def default_grid() -> GainGrid:
    """7x7 grid: Kp log2-spaced over [16, 1024], Kd over [2, 128]."""
    return GainGrid(kp_values=16.0 * 2.0 ** np.arange(7),
                    kd_values=2.0 * 2.0 ** np.arange(7))


def effective_stiffness(plant: PlantParams, gains: GainConfig, probe_force,
                        settle_time: float, policy=None, dt: float = 1e-3,
                        q0=None, vel_tol: float = 1e-8) -> float:
    """Measure K_eff = |F| / |dx| under a constant probe torque.

    Simulates the closed loop (PD on ``q_des`` from ``policy``, default
    holding the start pose) with a constant external torque until
    ``settle_time``, then requires the velocity norm to be below
    ``vel_tol``. ``policy(state) -> q_des`` lets scripted reactive
    policies change the composed-loop stiffness.
    """
    n = plant.n_joints
    probe = _as_vector(probe_force, n)
    if not np.any(probe != 0.0):
        raise ValueError("probe_force must be non-zero")
    start = dynamics.rest_state(plant, q=q0)
    q_ref = start.q.copy()

    def q_des_of(state):
        return q_ref if policy is None else _as_vector(policy(state), n)

    def torque_fn(state, k):
        grav = dynamics.gravity_torque(plant, state.q)
        return pd_torque(gains, state, q_des_of(state), gravity_term=grav)

    n_steps = int(round(settle_time / dt))
    _, final = dynamics.simulate(plant, start, torque_fn, dt, n_steps,
                                 f_ext_fn=lambda s, k: probe)
    if np.linalg.norm(final.q_dot) > vel_tol:
        raise NotSettledError(
            f"velocity norm {np.linalg.norm(final.q_dot):.3e} > {vel_tol:.1e} "
            f"after {settle_time} s")
    dx = np.linalg.norm(final.q - start.q)
    if dx == 0.0:
        raise NotSettledError("no displacement under probe force")
    return float(np.linalg.norm(probe) / dx)
