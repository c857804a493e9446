"""Closed-loop plant models and integrators.

Three plants cover the testbed: a 1-DOF point mass, a decoupled N-joint
chain (diagonal inertia, no coupling), and a planar 2-link arm with
configuration-dependent inertia, Coriolis terms, and gravity. All share
the rigid-body form

    M(q) q_dd + C(q, q_dot) q_dot + g(q) = tau + tau_friction + tau_ext

Plants and states are immutable; stepping returns new states, so
independent simulations are safe to run in parallel.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass

import numpy as np

GRAVITY = 9.81

# |q_dot| at or below this counts as stuck for stiction purposes (rad/s).
STICTION_VEL_EPS = 1e-4

POINT_MASS = "point_mass"
CHAIN = "chain"
TWO_LINK = "two_link"

_KINDS = (POINT_MASS, CHAIN, TWO_LINK)


class SimulationDivergedError(RuntimeError):
    """Non-finite state encountered while stepping."""

    def __init__(self, step_index: int):
        super().__init__(f"non-finite state at step {step_index}")
        self.step_index = step_index


class NonPositiveInertiaError(ValueError):
    """Effective inertia lost positive-definiteness (invalid parameters)."""


def _as_vector(x, n: int | None = None) -> np.ndarray:
    v = np.atleast_1d(np.asarray(x, dtype=float)).copy()
    if v.ndim != 1:
        raise ValueError(f"expected 1-D vector, got shape {v.shape}")
    if n is not None and v.size == 1 and n > 1:
        v = np.full(n, v[0])
    if n is not None and v.size != n:
        raise ValueError(f"expected length {n}, got {v.size}")
    return v


@dataclass(frozen=True)
class PlantParams:
    """Simulated actuator/plant parameters.

    ``mass`` is the per-joint mass or link inertia (kg or kg*m^2); armature
    is added rotor inertia reflected to the joint. For the two-link arm,
    ``link_masses``/``link_lengths`` define the closed-form dynamics and
    ``mass`` is unused. Friction follows a declared law (see
    :func:`friction_torque`); the stiction threshold is
    ``STICTION_VEL_EPS``.
    """

    kind: str
    mass: np.ndarray
    armature: np.ndarray
    static_friction: np.ndarray
    dynamic_friction_ratio: np.ndarray
    viscous_friction: np.ndarray
    gravity_enabled: bool = False
    link_masses: np.ndarray | None = None
    link_lengths: np.ndarray | None = None
    torque_limit: float = math.inf
    torque_rate_limit: float = 990.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown plant kind {self.kind!r}")
        n = self.n_joints
        for name in ("mass", "armature", "static_friction",
                     "dynamic_friction_ratio", "viscous_friction"):
            object.__setattr__(self, name, _as_vector(getattr(self, name), n))
        if self.kind == TWO_LINK:
            if self.link_masses is None or self.link_lengths is None:
                raise ValueError("two_link plant needs link_masses and link_lengths")
            object.__setattr__(self, "link_masses", _as_vector(self.link_masses, 2))
            object.__setattr__(self, "link_lengths", _as_vector(self.link_lengths, 2))
            if np.any(self.link_masses <= 0) or np.any(self.link_lengths <= 0):
                raise ValueError("link masses and lengths must be positive")
        elif np.any(self.mass <= 0):
            raise ValueError("mass/inertia must be positive")
        if np.any(self.armature < 0):
            raise ValueError("armature must be non-negative")
        if np.any(self.static_friction < 0) or np.any(self.viscous_friction < 0):
            raise ValueError("friction coefficients must be non-negative")
        if np.any((self.dynamic_friction_ratio < 0) | (self.dynamic_friction_ratio > 1)):
            raise ValueError("dynamic_friction_ratio must lie in [0, 1]")
        if not self.torque_rate_limit > 0:
            raise ValueError("torque_rate_limit must be positive")

    @property
    def n_joints(self) -> int:
        if self.kind == POINT_MASS:
            return 1
        if self.kind == TWO_LINK:
            return 2
        return np.atleast_1d(np.asarray(self.mass)).size


def point_mass(mass: float = 1.0, **kw) -> PlantParams:
    """1-DOF point mass; gravity (if enabled) is a constant load m*G."""
    return _make_plant(POINT_MASS, mass, **kw)


def chain(masses, **kw) -> PlantParams:
    """Decoupled N-joint chain: diagonal inertia, no cross-coupling."""
    return _make_plant(CHAIN, masses, **kw)


def two_link(link_masses=(1.0, 1.0), link_lengths=(1.0, 1.0), **kw) -> PlantParams:
    """Planar 2R arm, point masses at the link tips."""
    kw.setdefault("mass", np.asarray(link_masses, dtype=float))
    return PlantParams(kind=TWO_LINK, link_masses=np.asarray(link_masses, dtype=float),
                       link_lengths=np.asarray(link_lengths, dtype=float),
                       **_fill_defaults(kw, 2))


def _fill_defaults(kw: dict, n: int) -> dict:
    out = dict(kw)
    out.setdefault("armature", np.zeros(n))
    out.setdefault("static_friction", np.zeros(n))
    out.setdefault("dynamic_friction_ratio", np.zeros(n))
    out.setdefault("viscous_friction", np.zeros(n))
    return out


def _make_plant(kind: str, mass, **kw) -> PlantParams:
    m = np.atleast_1d(np.asarray(mass, dtype=float))
    return PlantParams(kind=kind, mass=m, **_fill_defaults(kw, m.size))


@dataclass(frozen=True)
class State:
    """Joint positions/velocities at time t. Immutable."""

    q: np.ndarray
    q_dot: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "q", _as_vector(self.q))
        object.__setattr__(self, "q_dot", _as_vector(self.q_dot, self.q.size))
        if not (np.all(np.isfinite(self.q)) and np.all(np.isfinite(self.q_dot))):
            raise ValueError("state must be finite")

    @property
    def n_joints(self) -> int:
        return self.q.size


def rest_state(plant: PlantParams, q=None, t: float = 0.0) -> State:
    n = plant.n_joints
    q0 = np.zeros(n) if q is None else _as_vector(q, n)
    return State(q=q0, q_dot=np.zeros(n), t=t)


# ---------------------------------------------------------------------------
# Rigid-body terms


def mass_matrix(plant: PlantParams, q: np.ndarray) -> np.ndarray:
    """Inertia matrix M(q) including armature on the diagonal."""
    n = plant.n_joints
    if plant.kind == TWO_LINK:
        m1, m2 = plant.link_masses
        l1, l2 = plant.link_lengths
        c2 = math.cos(q[1])
        m11 = (m1 + m2) * l1**2 + m2 * l2**2 + 2.0 * m2 * l1 * l2 * c2
        m12 = m2 * l2**2 + m2 * l1 * l2 * c2
        m22 = m2 * l2**2
        M = np.array([[m11, m12], [m12, m22]])
    else:
        M = np.diag(plant.mass)
    M = M + np.diag(plant.armature)
    return M


def coriolis_torque(plant: PlantParams, q: np.ndarray, q_dot: np.ndarray) -> np.ndarray:
    """C(q, q_dot) q_dot. Zero for the decoupled plants; Christoffel form for 2R."""
    if plant.kind != TWO_LINK:
        return np.zeros(plant.n_joints)
    m2 = plant.link_masses[1]
    l1, l2 = plant.link_lengths
    h = -m2 * l1 * l2 * math.sin(q[1])
    qd1, qd2 = q_dot
    return np.array([h * qd2 * qd1 + h * (qd1 + qd2) * qd2, -h * qd1 * qd1])


def gravity_torque(plant: PlantParams, q: np.ndarray) -> np.ndarray:
    """g(q); zero when gravity is disabled.

    Point mass/chain: constant load mass*G (vertical prismatic axis).
    Two-link: planar 2R closed form with angles from the horizontal.
    """
    n = plant.n_joints
    if not plant.gravity_enabled:
        return np.zeros(n)
    if plant.kind == TWO_LINK:
        m1, m2 = plant.link_masses
        l1, l2 = plant.link_lengths
        c1 = math.cos(q[0])
        c12 = math.cos(q[0] + q[1])
        return np.array([
            (m1 + m2) * GRAVITY * l1 * c1 + m2 * GRAVITY * l2 * c12,
            m2 * GRAVITY * l2 * c12,
        ])
    return plant.mass * GRAVITY


def friction_torque(plant: PlantParams, q_dot: np.ndarray, tau_net: np.ndarray) -> np.ndarray:
    """Joint friction torque.

    Moving joints (|q_dot| > STICTION_VEL_EPS) see Coulomb drag at the
    dynamic level -sign(q_dot)*(ratio*static); joints inside the stiction
    band instead oppose the net non-friction torque up to the static
    level (stiction clamp). Viscous drag -viscous*q_dot acts in both
    regimes, keeping the law continuous at the band edge when the dry
    level vanishes.
    """
    q_dot = _as_vector(q_dot, plant.n_joints)
    tau_net = _as_vector(tau_net, plant.n_joints)
    moving = np.abs(q_dot) > STICTION_VEL_EPS
    dyn = plant.dynamic_friction_ratio * plant.static_friction
    tau_f = np.where(
        moving,
        -np.sign(q_dot) * dyn,
        -np.clip(tau_net, -plant.static_friction, plant.static_friction),
    )
    return tau_f - plant.viscous_friction * q_dot


def forward_dynamics(plant: PlantParams, state: State, tau, f_ext=None) -> np.ndarray:
    """Solve M(q) q_dd + C q_dot + g = tau + tau_friction + tau_ext for q_dd."""
    n = plant.n_joints
    tau = _as_vector(tau, n)
    fe = np.zeros(n) if f_ext is None else _as_vector(f_ext, n)
    M = mass_matrix(plant, state.q)
    if plant.kind == TWO_LINK:
        if np.linalg.eigvalsh(M).min() <= 0:
            raise NonPositiveInertiaError("inertia matrix not positive definite")
    elif np.any(np.diag(M) <= 0):
        raise NonPositiveInertiaError("non-positive effective inertia")
    tau_net = tau + fe - coriolis_torque(plant, state.q, state.q_dot) \
        - gravity_torque(plant, state.q)
    rhs = tau_net + friction_torque(plant, state.q_dot, tau_net)
    if plant.kind == TWO_LINK:
        return np.linalg.solve(M, rhs)
    return rhs / np.diag(M)


# ---------------------------------------------------------------------------
# Integrators

SEMI_IMPLICIT = "semi-implicit-euler"
RK4 = "rk4"


def step(plant: PlantParams, state: State, tau, dt: float,
         integrator: str = SEMI_IMPLICIT, f_ext=None) -> State:
    """Advance one physics step with torque held constant over the step.

    Semi-implicit Euler updates q_dot then q; dry friction enters it as a
    velocity impulse clamped so it can stop, but never reverse, a joint
    within the step (keeps the scheme passive and realizes stiction
    exactly). RK4 integrates the plain forward dynamics, intended for the
    smooth (dry-friction-free) cases.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    n = plant.n_joints
    tau = _as_vector(tau, n)
    fe = np.zeros(n) if f_ext is None else _as_vector(f_ext, n)
    if integrator == SEMI_IMPLICIT and plant.kind != TWO_LINK:
        q_new, qd_new = decoupled_stepper(plant)(state.q, state.q_dot, tau + fe, dt)
    elif integrator == SEMI_IMPLICIT:
        q, qd = state.q, state.q_dot
        M = mass_matrix(plant, q)
        m_eff = np.diag(M)
        if np.any(m_eff <= 0):
            raise NonPositiveInertiaError("non-positive effective inertia")
        smooth = tau + fe - coriolis_torque(plant, q, qd) - gravity_torque(plant, q) \
            - plant.viscous_friction * qd
        v_cand = qd + dt * np.linalg.solve(M, smooth)
        dry = np.where(np.abs(qd) > STICTION_VEL_EPS,
                       plant.dynamic_friction_ratio * plant.static_friction,
                       plant.static_friction)
        dv = np.minimum(np.abs(v_cand), dt * dry / m_eff)
        qd_new = v_cand - np.sign(v_cand) * dv
        q_new = q + dt * qd_new
    elif integrator == RK4:
        def deriv(q, qd):
            s = State(q=q, q_dot=qd, t=state.t)
            return qd, forward_dynamics(plant, s, tau, fe)

        k1q, k1v = deriv(state.q, state.q_dot)
        k2q, k2v = deriv(state.q + 0.5 * dt * k1q, state.q_dot + 0.5 * dt * k1v)
        k3q, k3v = deriv(state.q + 0.5 * dt * k2q, state.q_dot + 0.5 * dt * k2v)
        k4q, k4v = deriv(state.q + dt * k3q, state.q_dot + dt * k3v)
        q_new = state.q + dt / 6.0 * (k1q + 2 * k2q + 2 * k3q + k4q)
        qd_new = state.q_dot + dt / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v)
    else:
        raise ValueError(f"unknown integrator {integrator!r}")
    if not (np.all(np.isfinite(q_new)) and np.all(np.isfinite(qd_new))):
        raise SimulationDivergedError(step_index=int(round(state.t / dt)))
    return State(q=q_new, q_dot=qd_new, t=state.t + dt)


def kinetic_energy(plant: PlantParams, state: State) -> float:
    M = mass_matrix(plant, state.q)
    return 0.5 * float(state.q_dot @ M @ state.q_dot)


def decoupled_stepper(plant: PlantParams):
    """Allocation-free semi-implicit stepper for the diagonal plants.

    Returns ``advance(q, q_dot, tau, dt) -> (q, q_dot)``, the
    semi-implicit integrator of :func:`step` for these plants; hot loops
    call it directly to sidestep the State wrapper.
    """
    if plant.kind == TWO_LINK:
        raise ValueError("decoupled_stepper covers point_mass and chain only")
    m_eff = plant.mass + plant.armature
    if np.any(m_eff <= 0):
        raise NonPositiveInertiaError("non-positive effective inertia")
    visc = plant.viscous_friction
    static = plant.static_friction
    dyn = plant.dynamic_friction_ratio * plant.static_friction
    grav = plant.mass * GRAVITY if plant.gravity_enabled else np.zeros(plant.n_joints)

    def advance(q, q_dot, tau, dt):
        smooth = tau - grav - visc * q_dot
        v_cand = q_dot + dt * smooth / m_eff
        dry = np.where(np.abs(q_dot) > STICTION_VEL_EPS, dyn, static)
        dv = np.minimum(np.abs(v_cand), dt * dry / m_eff)
        qd_new = v_cand - np.sign(v_cand) * dv
        return q + dt * qd_new, qd_new

    return advance


# ---------------------------------------------------------------------------
# Trajectories


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled (t, q, q_dot, q_des, tau) records.

    Arrays are (n_samples,) for t and (n_samples, n_joints) otherwise.
    ``f_ext`` is an optional external-force channel of the same shape.
    """

    sample_rate: float
    t: np.ndarray
    q: np.ndarray
    q_dot: np.ndarray
    q_des: np.ndarray
    tau: np.ndarray
    f_ext: np.ndarray | None = None

    def __post_init__(self):
        if not self.sample_rate > 0:
            raise ValueError("sample_rate must be positive")
        t = np.asarray(self.t, dtype=float)
        object.__setattr__(self, "t", t)
        n = t.size
        for name in ("q", "q_dot", "q_des", "tau"):
            a = np.asarray(getattr(self, name), dtype=float)
            if a.ndim == 1:
                a = a[:, None]
            if a.shape[0] != n:
                raise ValueError(f"{name} has {a.shape[0]} rows, expected {n}")
            object.__setattr__(self, name, a)
        if self.f_ext is not None:
            fe = np.asarray(self.f_ext, dtype=float)
            if fe.ndim == 1:
                fe = fe[:, None]
            object.__setattr__(self, "f_ext", fe)
        if n > 1:
            dt = np.diff(t)
            if np.any(dt <= 0):
                raise ValueError("t must be strictly increasing")
            if not np.allclose(dt, 1.0 / self.sample_rate, rtol=1e-9, atol=1e-12):
                raise ValueError("t spacing must be uniform at 1/sample_rate")

    @property
    def n_samples(self) -> int:
        return self.t.size

    @property
    def n_joints(self) -> int:
        return self.q.shape[1]

    def to_csv(self) -> str:
        n = self.n_joints
        cols = (["t"]
                + [f"q{i}" for i in range(n)]
                + [f"qd{i}" for i in range(n)]
                + [f"qdes{i}" for i in range(n)]
                + [f"tau{i}" for i in range(n)])
        blocks = [self.t[:, None], self.q, self.q_dot, self.q_des, self.tau]
        if self.f_ext is not None:
            cols += [f"fext{i}" for i in range(n)]
            blocks.append(self.f_ext)
        data = np.hstack(blocks)
        buf = io.StringIO()
        buf.write(",".join(cols) + "\n")
        for row in data:
            buf.write(",".join(f"{v:.9g}" for v in row) + "\n")
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text_or_path) -> "Trajectory":
        if "\n" not in str(text_or_path):
            with open(text_or_path) as fh:
                text = fh.read()
        else:
            text = text_or_path
        lines = [ln for ln in text.strip().splitlines() if ln]
        header = lines[0].split(",")
        n = sum(1 for c in header if c.startswith("q") and not c.startswith("qd"))
        data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        t = data[:, 0]
        sample_rate = 1.0 / (t[1] - t[0]) if t.size > 1 else 1.0
        # round to avoid drift from 9-sig-digit serialization
        sample_rate = float(np.round(sample_rate, 6))
        k = 1
        parts = {}
        for name in ("q", "q_dot", "q_des", "tau"):
            parts[name] = data[:, k:k + n]
            k += n
        f_ext = data[:, k:k + n] if data.shape[1] > k else None
        return cls(sample_rate=sample_rate, t=t, f_ext=f_ext, **parts)


def simulate(plant: PlantParams, state0: State, torque_fn, dt: float, n_steps: int,
             integrator: str = SEMI_IMPLICIT, f_ext_fn=None,
             q_des_fn=None) -> tuple[Trajectory, State]:
    """Run a closed-loop simulation and record it at the physics rate.

    ``torque_fn(state, k)`` supplies the applied torque for step k;
    ``q_des_fn(state, k)`` (optional) the logged position target;
    ``f_ext_fn(state, k)`` (optional) an external torque. The trajectory
    holds n_steps+1 samples including the initial state; the torque logged
    with the final sample is the last applied one. A floating-point
    overflow or invalid operation at step k raises
    ``SimulationDivergedError(step_index=k)``.
    """
    n = plant.n_joints
    t = np.empty(n_steps + 1)
    q = np.empty((n_steps + 1, n))
    qd = np.empty((n_steps + 1, n))
    qdes = np.empty((n_steps + 1, n))
    tau = np.empty((n_steps + 1, n))
    fext = np.empty((n_steps + 1, n)) if f_ext_fn is not None else None
    s = state0
    last_tau = np.zeros(n)
    k = 0
    try:
        with np.errstate(over="raise", invalid="raise"):
            for k in range(n_steps + 1):
                t[k], q[k], qd[k] = s.t, s.q, s.q_dot
                if k == n_steps:
                    qdes[k] = qdes[k - 1] if n_steps else s.q
                    tau[k] = last_tau
                    if fext is not None:
                        fext[k] = fext[k - 1] if n_steps else 0.0
                    break
                tk = _as_vector(torque_fn(s, k), n)
                fe = _as_vector(f_ext_fn(s, k), n) if f_ext_fn is not None else None
                qdes[k] = _as_vector(q_des_fn(s, k), n) if q_des_fn is not None else s.q
                tau[k] = tk
                if fext is not None:
                    fext[k] = fe
                last_tau = tk
                s = step(plant, s, tk, dt, integrator=integrator, f_ext=fe)
    except FloatingPointError as exc:
        raise SimulationDivergedError(step_index=k) from exc
    traj = Trajectory(sample_rate=1.0 / dt, t=t, q=q, q_dot=qd, q_des=qdes,
                      tau=tau, f_ext=fext)
    return traj, s


# ---------------------------------------------------------------------------
# Config loading


def load_plant(source) -> PlantParams:
    """Build a PlantParams from a flat key-value config.

    ``source`` is a path, an INI string with a [plant] section, or a
    mapping. Keys: kind, mass, armature, static_friction,
    dynamic_friction_ratio, viscous_friction, gravity_enabled,
    link_masses, link_lengths, torque_limit, torque_rate_limit.
    """
    if isinstance(source, dict):
        section = dict(source)
    else:
        cp = configparser.ConfigParser()
        text = str(source)
        if "\n" in text or "=" in text:
            cp.read_string(text)
        else:
            with open(text) as fh:
                cp.read_string(fh.read())
        if not cp.has_section("plant"):
            raise ValueError("config has no [plant] section")
        section = dict(cp["plant"])
    kind = section.pop("kind", POINT_MASS)
    kw = {}
    for key, val in section.items():
        if key == "gravity_enabled":
            kw[key] = str(val).strip().lower() in ("1", "true", "yes", "on")
        elif key in ("torque_limit", "torque_rate_limit"):
            kw[key] = float(val)
        else:
            kw[key] = np.array([float(v) for v in str(val).split(",")])
    if kind == TWO_LINK:
        return two_link(link_masses=kw.pop("link_masses", (1.0, 1.0)),
                        link_lengths=kw.pop("link_lengths", (1.0, 1.0)), **kw)
    mass = kw.pop("mass", 1.0)
    if kind == POINT_MASS:
        return point_mass(float(np.atleast_1d(mass)[0]), **kw)
    return chain(mass, **kw)
