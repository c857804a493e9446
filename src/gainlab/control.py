"""Gain-parameterized PD/impedance controllers and gain-regime tools.

The PD law tau = Kp (q_des - q) - Kd q_dot [+ g(q)] acts as
a virtual spring-damper: at rest under a constant external torque the
displacement satisfies tau_ext = Kp (q - q_des). Per-joint second-order
parameters omega_n = sqrt(Kp/m), zeta = Kd / (2 sqrt(m Kp)) classify each
gain cell into the compliant/stiff x overdamped/underdamped quadrants.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import dynamics
from .dynamics import PlantParams, _as_vector

REGIMES = ("CO", "SO", "CU", "SU")


class NotSettledError(RuntimeError):
    """Compliance probe did not reach steady state within settle_time."""


@dataclass(frozen=True)
class GainConfig:
    """Diagonal joint stiffness/damping gains.

    ``kp`` and ``kd`` are (n,) per-joint gains (a scalar is one joint), or
    (B, n) or (B, 1) rows for a stack of B gain settings, one per lane (see
    ``lanes``); either broadcasts against the other. ``gravity_comp`` adds
    the plant's g(q) to the PD torque.
    """

    kp: np.ndarray
    kd: np.ndarray
    gravity_comp: bool = False

    def __post_init__(self):
        kp, kd = (np.atleast_1d(np.asarray(g, dtype=float)) for g in (self.kp, self.kd))
        if kp.ndim > 2 or kd.ndim > 2:
            raise ValueError("gains must be (n,) or (B, n) arrays")
        try:
            kp, kd = (np.array(g) for g in np.broadcast_arrays(kp, kd))
        except ValueError:
            raise ValueError("kp and kd must have matching shapes") from None
        if np.any(kp <= 0) or np.any(kd <= 0):
            raise ValueError("gains must be positive elementwise")
        object.__setattr__(self, "kp", kp)
        object.__setattr__(self, "kd", kd)

    @property
    def lanes(self) -> tuple[int, ...]:
        """() for one gain setting, (B,) for a stack of B."""
        return self.kp.shape[:-1]

    @property
    def n_joints(self) -> int:
        return self.kp.shape[-1]

    def expand(self, n: int) -> "GainConfig":
        """Broadcast one-joint gains to n joints, lane by lane."""
        if self.n_joints == n:
            return self
        if self.n_joints != 1:
            raise ValueError(f"cannot expand {self.n_joints}-joint gains to {n}")
        return dataclasses.replace(self, kp=np.repeat(self.kp, n, axis=-1),
                                   kd=np.repeat(self.kd, n, axis=-1))


def pd_torque(gains: GainConfig, q, q_dot, q_des, gravity_term=None) -> np.ndarray:
    """PD control torque toward a zero velocity target (deploy-style -Kd*q_dot).

    Arrays are (n,) or (B, n) lane stacks; one gain setting broadcasts over
    the lanes, and lane-stacked gains act lane by lane.
    """
    # 0.0 - q_dot, not -q_dot: a resting joint gives +0.0, as a zero target does
    tau = gains.kp * (q_des - q) + gains.kd * (0.0 - q_dot)
    if gains.gravity_comp and gravity_term is not None:
        tau = tau + gravity_term
    return tau


def track(plant: PlantParams, gains: GainConfig, commands, hold: int, dt: float,
          q0, q_dot0, n_steps: int):
    """Track zero-order-held position commands with the PD law.

    ``commands`` is (C, n), or (C, B, n) for B lanes from one start state;
    a lane-stacked plant (``plant.lanes == (B,)``) or lane-stacked gains
    (``gains.lanes == (B,)``) also make B lanes, and (C, n) commands then
    drive every lane. The command, plant and gain lane counts must agree.
    Command c is held over physics steps [c*hold, (c+1)*hold), the last
    one to the end; the torque is :func:`pd_torque` toward it (plus gravity
    compensation when ``gains.gravity_comp``), clamped to the torque limit.
    This is the ``torque_fn`` of one :func:`dynamics.simulate` call, which
    returns the trajectory (the command logged as q_des), or a list with one
    entry per lane, a diverged lane's ``SimulationDivergedError`` in its slot.
    """
    commands = np.asarray(commands, dtype=float)
    g = gains.expand(plant.n_joints)
    lanes = {commands.shape[1:-1], g.lanes, plant.lanes} - {()}
    if len(lanes) > 1:
        raise ValueError(f"command, gain and plant lane counts differ: {commands.shape[1:-1]}, "
                         f"{g.lanes}, {plant.lanes}")
    last = len(commands) - 1

    def torque_fn(q, q_dot, k, t):
        cmd = commands[min(k // hold, last)]
        grav = dynamics.gravity_torque(plant, q) if g.gravity_comp else None
        tau = pd_torque(g, q, q_dot, cmd, gravity_term=grav)
        return np.minimum(np.maximum(tau, -plant.torque_limit), plant.torque_limit), cmd

    shape = next(iter(lanes), ()) + (plant.n_joints,)  # every lane starts at one state
    return dynamics.simulate(plant, np.broadcast_to(q0, shape), np.broadcast_to(q_dot0, shape),
                             torque_fn, dt, n_steps)


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


# compliance probe: physics step (s) and the settled velocity-norm bound
PROBE_DT = 1e-3
PROBE_VEL_TOL = 1e-8


def effective_stiffness(plant: PlantParams, gains: GainConfig, probe_force,
                        settle_time: float, policy=None) -> float:
    """Measure K_eff = |F| / |dx| under a constant probe torque.

    Simulates the closed loop from rest at q = 0 (PD on ``q_des`` from
    ``policy``, default holding the start pose) with a constant external
    torque for ``settle_time`` at ``PROBE_DT`` steps, then requires the
    velocity norm to be below ``PROBE_VEL_TOL``. ``policy(q, q_dot) ->
    q_des`` lets scripted reactive policies change the composed-loop
    stiffness.
    """
    n = plant.n_joints
    probe = _as_vector(probe_force, n)
    if not np.any(probe != 0.0):
        raise ValueError("probe_force must be non-zero")
    q_ref = np.zeros(n)

    def torque_fn(q, q_dot, k, t):
        q_des = q_ref if policy is None else _as_vector(policy(q, q_dot), n)
        grav = dynamics.gravity_torque(plant, q)
        return pd_torque(gains, q, q_dot, q_des, gravity_term=grav) + probe, q_des

    n_steps = int(round(settle_time / PROBE_DT))
    traj = dynamics.simulate(plant, q_ref, np.zeros(n), torque_fn, PROBE_DT, n_steps)
    q_end, qd_end = traj.q[-1], traj.q_dot[-1]
    if np.linalg.norm(qd_end) > PROBE_VEL_TOL:
        raise NotSettledError(
            f"velocity norm {np.linalg.norm(qd_end):.3e} > {PROBE_VEL_TOL:.1e} "
            f"after {settle_time} s")
    dx = np.linalg.norm(q_end - q_ref)
    if dx == 0.0:
        raise NotSettledError("no displacement under probe force")
    return float(np.linalg.norm(probe) / dx)
