"""Closed-loop plant models and the semi-implicit integrator.

Three plants cover the testbed: a 1-DOF point mass, a decoupled N-joint
chain (diagonal inertia, no coupling), and a planar 2-link arm with
configuration-dependent inertia, Coriolis terms, and gravity. All share
the rigid-body form

    M(q) q_dd + C(q, q_dot) q_dot + g(q) = tau + tau_friction

A state is a pair of (n,) arrays (q, q_dot), or of (B, n) stacks of B
lanes, and a plant may carry its armature and friction per lane (see
``PlantParams.lanes``). Plants are immutable and stepping returns new
arrays, so independent simulations are safe to run in parallel.
:func:`simulate`, one :func:`step` per physics step, is the one recorded
closed loop.
"""

from __future__ import annotations

import functools
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

    def __reduce__(self):  # rebuilt from the index, not from the message
        return type(self), (self.step_index,)


class NonPositiveInertiaError(ValueError):
    """A two-link plant whose M(q) is not positive definite, or too close
    to singular to step, at some q (raised when the plant is built)."""


# a two-link M(q) must keep det M above this fraction of (trace M)^2, about
# the ratio of its smallest eigenvalue to its largest (see PlantParams)
MIN_INERTIA_RATIO = 1e-8

# PlantParams fields that may differ between the lanes of one plant
LANE_FIELDS = ("armature", "static_friction", "dynamic_friction_ratio",
               "viscous_friction")


def _as_lanes(x, n: int) -> np.ndarray:
    """A per-joint field as (n,), or as (B, n) when given one row per lane
    (a (B, 1) column broadcasts to every joint)."""
    v = np.asarray(x, dtype=float)
    if v.ndim < 2:
        return _as_vector(v, n)
    if v.ndim != 2 or v.shape[1] not in (1, n):
        raise ValueError(f"expected shape (B, {n}) or (B, 1), got {v.shape}")
    return np.repeat(v, n, axis=1) if v.shape[1] < n else v.copy()


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
    :func:`decoupled_stepper`); the stiction threshold is
    ``STICTION_VEL_EPS``. The armature and friction fields default to 0;
    a scalar broadcasts to every joint. Given as (B, n) (or (B, 1))
    arrays they describe a stack of B plants, one per lane, that differ
    only in those fields; :func:`step` and :func:`simulate` run such a
    stack as B lanes. A two-link plant whose M(q) is too close to singular
    at q2 = 0 or pi (det M at or below ``MIN_INERTIA_RATIO`` (trace M)^2)
    in some lane raises ``NonPositiveInertiaError``.
    """

    kind: str
    mass: np.ndarray
    armature: np.ndarray = 0.0
    static_friction: np.ndarray = 0.0
    dynamic_friction_ratio: np.ndarray = 0.0
    viscous_friction: np.ndarray = 0.0
    gravity_enabled: bool = False
    link_masses: np.ndarray | None = None
    link_lengths: np.ndarray | None = None
    torque_limit: float = math.inf
    torque_rate_limit: float = 990.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown plant kind {self.kind!r}")
        n = self.n_joints
        object.__setattr__(self, "mass", _as_vector(self.mass, n))
        for name in LANE_FIELDS:
            object.__setattr__(self, name, _as_lanes(getattr(self, name), n))
        if len({getattr(self, name).shape[:-1] for name in LANE_FIELDS} - {()}) > 1:
            raise ValueError("per-lane fields must share one lane count")
        if self.kind == TWO_LINK:
            if self.link_masses is None or self.link_lengths is None:
                raise ValueError("two_link plant needs link_masses and link_lengths")
            object.__setattr__(self, "link_masses", _as_vector(self.link_masses, 2))
            object.__setattr__(self, "link_lengths", _as_vector(self.link_lengths, 2))
            if np.any(self.link_masses <= 0) or np.any(self.link_lengths <= 0):
                raise ValueError("link masses and lengths must be positive")
        elif np.any(self.mass <= 0):
            raise ValueError("mass/inertia must be positive")
        links = ("link_masses", "link_lengths") if self.kind == TWO_LINK else ()
        if not all(np.all(np.isfinite(getattr(self, name)))
                   for name in ("mass", *LANE_FIELDS, *links)):
            raise ValueError("plant parameters must be finite")
        if not self.torque_limit > 0:  # infinity means no limit
            raise ValueError("torque_limit must be positive")
        if np.any(self.armature < 0):
            raise ValueError("armature must be non-negative")
        if np.any(self.static_friction < 0) or np.any(self.viscous_friction < 0):
            raise ValueError("friction coefficients must be non-negative")
        if np.any((self.dynamic_friction_ratio < 0) | (self.dynamic_friction_ratio > 1)):
            raise ValueError("dynamic_friction_ratio must lie in [0, 1]")
        if not self.torque_rate_limit > 0:
            raise ValueError("torque_rate_limit must be positive")
        if self.kind == TWO_LINK:
            m1, m2 = self.link_masses
            l1, l2 = self.link_lengths
            # the closed forms' plant constants, each associated as in its closed
            # form, so that M, C q_dot and g round as the whole expressions do
            for name, value in {"_m00": (m1 + m2) * l1**2 + m2 * l2**2,
                                "_m00_c2": 2.0 * m2 * l1 * l2, "_m11": m2 * l2**2,
                                "_m01_c2": m2 * l1 * l2, "_h_s2": -m2 * l1 * l2,
                                "_g_c1": (m1 + m2) * GRAVITY * l1,
                                "_g_c12": m2 * GRAVITY * l2}.items():
                object.__setattr__(self, name, value)
            # det M(q) is smallest at q2 = pi (m1 m2 l1^2 l2^2 without armature)
            # and trace M(q) largest at q2 = 0, with trace M(pi) >= 0.17 trace
            # M(0): an arm that passes at both keeps det M / (trace M)^2, a lower
            # bound on its eigenvalue ratio, above 0.029 MIN_INERTIA_RATIO at
            # every q2, far above rounding, so the step's solve never meets a
            # singular M (q2 = 0 and pi, each over every lane)
            M = mass_matrix(self, np.array([[[0.0, 0.0]], [[0.0, np.pi]]]))
            det = M[..., 0, 0] * M[..., 1, 1] - M[..., 0, 1] ** 2
            if np.any(det <= MIN_INERTIA_RATIO * (M[..., 0, 0] + M[..., 1, 1]) ** 2):
                raise NonPositiveInertiaError(
                    f"non-positive effective inertia at q2 = 0 or q2 = pi: det M(q) is "
                    f"not above {MIN_INERTIA_RATIO:g} (trace M(q))^2")
        # the stepper's constants, derived once
        object.__setattr__(self, "_dry_moving",
                           self.dynamic_friction_ratio * self.static_friction)
        if self.kind != TWO_LINK:
            object.__setattr__(self, "_m_eff", self.mass + self.armature)
            object.__setattr__(self, "_gravity", self.mass * GRAVITY if self.gravity_enabled
                               else np.zeros(n))

    @property
    def lanes(self) -> tuple[int, ...]:
        """() for one plant, (B,) for a stack of B plants."""
        return max(getattr(self, name).shape[:-1] for name in LANE_FIELDS)

    @property
    def n_joints(self) -> int:
        if self.kind == POINT_MASS:
            return 1
        if self.kind == TWO_LINK:
            return 2
        return np.atleast_1d(np.asarray(self.mass)).size


def point_mass(mass: float = 1.0, **kw) -> PlantParams:
    """1-DOF point mass; gravity (if enabled) is a constant load m*G."""
    return PlantParams(kind=POINT_MASS, mass=mass, **kw)


def chain(masses, **kw) -> PlantParams:
    """Decoupled N-joint chain: diagonal inertia, no cross-coupling."""
    return PlantParams(kind=CHAIN, mass=masses, **kw)


def two_link(link_masses=(1.0, 1.0), link_lengths=(1.0, 1.0), **kw) -> PlantParams:
    """Planar 2R arm, point masses at the link tips."""
    kw.setdefault("mass", link_masses)
    return PlantParams(kind=TWO_LINK, link_masses=link_masses, link_lengths=link_lengths,
                       **kw)


# ---------------------------------------------------------------------------
# Rigid-body terms


def mass_matrix(plant: PlantParams, q: np.ndarray) -> np.ndarray:
    """Inertia matrix M(q) including armature on the diagonal; (B, n, n)
    for lanes of q or of the plant."""
    arm = plant.armature
    if plant.kind == TWO_LINK:
        c2 = np.cos(q[..., 1])
        m00 = plant._m00 + plant._m00_c2 * c2 + arm[..., 0]
        M = np.empty(np.shape(m00) + (2, 2))
        M[..., 0, 0] = m00
        M[..., 0, 1] = M[..., 1, 0] = plant._m11 + plant._m01_c2 * c2
        M[..., 1, 1] = plant._m11 + arm[..., 1]
        return M
    n = plant.n_joints
    M = np.zeros(arm.shape + (n,))
    M[..., np.arange(n), np.arange(n)] = plant.mass + arm
    return M


def coriolis_torque(plant: PlantParams, q: np.ndarray, q_dot: np.ndarray) -> np.ndarray:
    """C(q, q_dot) q_dot. Zero for the decoupled plants; Christoffel form for 2R."""
    if plant.kind != TWO_LINK:
        return np.zeros(plant.n_joints)
    h = plant._h_s2 * np.sin(q[..., 1])
    qd1, qd2 = q_dot[..., 0], q_dot[..., 1]
    out = np.empty(np.shape(q_dot))
    out[..., 0] = h * qd2 * qd1 + h * (qd1 + qd2) * qd2
    out[..., 1] = -h * qd1 * qd1
    return out


def gravity_torque(plant: PlantParams, q: np.ndarray) -> np.ndarray:
    """g(q); zero when gravity is disabled.

    Point mass/chain: constant load mass*G (vertical prismatic axis).
    Two-link: planar 2R closed form with angles from the horizontal.
    """
    if not plant.gravity_enabled:
        return np.zeros(plant.n_joints)
    if plant.kind == TWO_LINK:
        c1 = np.cos(q[..., 0])
        c12 = np.cos(q[..., 0] + q[..., 1])
        out = np.empty(np.shape(q))
        out[..., 0] = plant._g_c1 * c1 + plant._g_c12 * c12
        out[..., 1] = plant._g_c12 * c12
        return out
    return plant.mass * GRAVITY


# ---------------------------------------------------------------------------
# Integrator


def step(plant: PlantParams, q, q_dot, tau, dt: float):
    """Advance one physics step with torque held constant over the step,
    on (n,) arrays or (B, n) stacks of B lanes; returns the new (q, q_dot).
    The armature and friction of a lane-stacked plant enter lane by lane,
    elementwise, so lane i equals plant i stepped alone bitwise. The
    result is not checked: :func:`simulate` detects a diverged lane.

    Semi-implicit Euler updates q_dot then q. Friction: viscous drag
    -viscous*q_dot always acts; dry friction is the dynamic level
    ratio*static on moving joints (|q_dot| > STICTION_VEL_EPS) and the
    static level inside the stiction band. It enters as a velocity impulse
    clamped so it can stop, but never reverse, a joint within the step
    (keeps the scheme passive and realizes stiction exactly).
    """
    if not 0 < dt < math.inf:
        raise ValueError("dt must be finite and positive")
    return _advance(plant, q, q_dot, tau, dt)


def _advance(plant: PlantParams, q, q_dot, tau, dt: float):
    """:func:`step` without the dt check."""
    if plant.kind == TWO_LINK:
        M = mass_matrix(plant, q)
        m_eff = np.diagonal(M, axis1=-2, axis2=-1)  # positive: see PlantParams
        smooth = tau - coriolis_torque(plant, q, q_dot)
        if plant.gravity_enabled:  # g(q) is 0 without, and x - 0.0 is x bitwise
            smooth = smooth - gravity_torque(plant, q)
        smooth = smooth - plant.viscous_friction * q_dot
        v_cand = q_dot + dt * np.linalg.solve(M, smooth[..., None])[..., 0]
    else:
        m_eff = plant._m_eff
        v_cand = q_dot + dt * (tau - plant._gravity - plant.viscous_friction * q_dot) / m_eff
    dry = np.where(np.abs(q_dot) > STICTION_VEL_EPS, plant._dry_moving, plant.static_friction)
    dv = np.minimum(np.abs(v_cand), dt * dry / m_eff)
    qd_new = v_cand - np.sign(v_cand) * dv
    return q + dt * qd_new, qd_new


def decoupled_stepper(plant: PlantParams):
    """``advance(q, q_dot, tau, dt) -> (q, q_dot)``: :func:`step` bound to
    ``plant``, without the dt check, for loops that own their records
    (the shaping episode). The name predates the two-link arm."""
    return functools.partial(_advance, plant)


# ---------------------------------------------------------------------------
# Trajectories


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled (t, q, q_dot, q_des, tau) records.

    Arrays are (n_samples,) for t and (n_samples, n_joints) otherwise.
    """

    sample_rate: float
    t: np.ndarray
    q: np.ndarray
    q_dot: np.ndarray
    q_des: np.ndarray
    tau: np.ndarray

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


def _start_state(plant: PlantParams, q0, q_dot0):
    """(q0, q_dot0) as finite (n,) vectors or (B, n) lane stacks (see
    :func:`_as_lanes`; a scalar broadcasts to every joint); the state every
    rollout starts from."""
    n = plant.n_joints
    q, q_dot = _as_lanes(q0, n), _as_lanes(q_dot0, n)
    if not (np.all(np.isfinite(q)) and np.all(np.isfinite(q_dot))):
        raise ValueError("state must be finite")
    return q, q_dot


def _park(state, mask):
    """``state`` with the lanes in ``mask`` set to zero."""
    return tuple(np.where(mask.reshape((-1,) + (1,) * (s.ndim - 1)), 0, s) for s in state)


def _finite_lanes(state) -> np.ndarray:
    """Per lane, whether every array of ``state`` is finite there."""
    return np.logical_and.reduce([np.isfinite(s).reshape(len(s), -1).all(axis=1)
                                  for s in state])


def _run_lanes(step, state, n_steps: int):
    """Run ``state = step(k, state)`` for k < n_steps over a tuple of lane
    stacks (arrays whose first axis is the lane; ``step`` must not modify
    them) and return (state, {lane: SimulationDivergedError}).

    Each lane diverges on its own. On a floating-point error at step k,
    step k is re-run with the diverged lanes re-parked at zero (a parked
    lane that its inputs drive to diverge again leaves the live ones
    alone); if that still raises, the live lanes are halved: step k is
    re-run on each half with every other lane parked, and each half that
    raises is halved again, down to single lanes. Lanes are independent
    elementwise, so a group raises if and only if one of its lanes raises
    alone, and d diverged lanes of L cost O(d log L) step calls, not one
    per live lane. A lane that raises alone diverged at step k, or at k-1
    if it entered step k non-finite (``np.linalg.solve`` overflows
    silently), and is parked while the others go on. A lane non-finite at
    the end diverged at step n_steps-1: each index is the one the lane
    raises alone. ``step`` may write row k of records outside the state
    (``simulate``'s trajectory, the shaping episode's limit records): step
    k may run more than once, and its last call, the one the loop goes on
    from, is the one kept.
    """
    lanes = np.arange(len(state[0]))
    dead, errors = np.zeros(lanes.size, dtype=bool), {}
    k = 0
    with np.errstate(over="raise", invalid="raise"):
        while k < n_steps:
            try:
                for k in range(k, n_steps):
                    state = step(k, state)
                break
            except FloatingPointError:
                if dead.any():
                    try:
                        state = step(k, _park(state, dead))
                        k += 1
                        continue
                    except FloatingPointError:
                        pass
                finite = _finite_lanes(state)
                for i in _raising(step, k, state, lanes[~dead]):
                    dead[i] = True
                    errors[i] = SimulationDivergedError(step_index=k - (not finite[i]))
                if dead.all():
                    break
                state = step(k, _park(state, dead))
                k += 1
    for i in lanes[~_finite_lanes(state)].tolist():
        errors.setdefault(i, SimulationDivergedError(step_index=n_steps - 1))
    return state, errors


def _raising(step, k: int, state, group) -> list[int]:
    """The lanes of ``group``, which raises at step k, that raise alone.

    Module level, not a closure in :func:`_run_lanes`: a recursive closure
    is a reference cycle, which would keep ``step`` and the records it
    holds alive until the cyclic collector runs.
    """
    if group.size == 1:
        return group.tolist()
    found = []
    for half in np.array_split(group, 2):
        try:
            step(k, _park(state, ~np.isin(np.arange(len(state[0])), half)))
        except FloatingPointError:
            found += _raising(step, k, state, half)
    return found


def simulate(plant: PlantParams, q0, q_dot0, torque_fn, dt: float, n_steps: int):
    """Run a closed-loop simulation and record it at the physics rate.

    ``q0`` and ``q_dot0`` are (n,) start states or (B, n) stacks of B
    lanes; a lane-stacked plant (``plant.lanes == (B,)``) also makes B
    lanes. ``torque_fn(q, q_dot, k, t)`` gets the state entering step k
    ((n,) arrays for one lane, (B, n) stacks for B) and its time t (dt
    accumulated step by step from 0, not k*dt) and returns (tau, q_des):
    the applied torque and the logged position target. The trajectory
    holds n_steps+1 samples including the start state; the final state is
    its last row, logged with the last applied torque and target (the
    start state and zero torque at n_steps = 0). B lanes give a list with
    one entry per lane.
    Each lane runs on its own (see :func:`_run_lanes`): a lane that
    diverges (a floating-point overflow or invalid operation at step k, or
    a non-finite torque or new state at step k with no such error) gets the
    ``SimulationDivergedError(step_index=k)`` it would raise alone in its
    slot, and a single lane raises it. A ``dt`` that is not finite
    and positive raises ``ValueError`` before any step.
    """
    if not 0 < dt < math.inf:
        raise ValueError("dt must be finite and positive")
    q0, q_dot0 = _start_state(plant, q0, q_dot0)
    lanes = np.broadcast_shapes(q0.shape[:-1], q_dot0.shape[:-1], plant.lanes)
    stack = lanes or (1,)  # a single lane runs as a stack of one
    # lane-major records, so each lane's trajectory is contiguous
    rec_q, rec_qd, rec_qdes, rec_tau = (np.empty(stack + (n_steps + 1, plant.n_joints))
                                        for _ in range(4))
    step_q, step_qd, step_qdes, step_tau = (np.moveaxis(r, -2, 0)
                                            for r in (rec_q, rec_qd, rec_qdes, rec_tau))
    t = np.concatenate(([0.0], np.cumsum(np.full(n_steps, dt))))  # accumulated, not k*dt
    times = t.tolist()

    def advance(k, state):
        q, qd = state
        # the state first: a torque that raises leaves it recorded for the
        # divergence index below
        step_q[k], step_qd[k] = q, qd
        tau, q_des = torque_fn(q, qd, k, times[k]) if lanes else \
            torque_fn(q[0], qd[0], k, times[k])
        step_qdes[k], step_tau[k] = q_des, tau
        return step(plant, q, qd, tau, dt)

    start = tuple(np.broadcast_to(v, stack + (plant.n_joints,)) for v in (q0, q_dot0))
    (step_q[n_steps], step_qd[n_steps]), diverged = _run_lanes(advance, start, n_steps)
    for i, err in diverged.items():
        # a NaN torque goes non-finite with no floating-point error: the lane
        # diverged at the first step up to its index (later rows are parked or
        # unwritten) whose torque or new state is non-finite
        finite = (np.isfinite(rec_tau[i, :-1]) & np.isfinite(rec_q[i, 1:])
                  & np.isfinite(rec_qd[i, 1:])).all(axis=1)
        bad = np.flatnonzero(~finite[:err.step_index + 1])
        if bad.size:
            diverged[i] = SimulationDivergedError(step_index=int(bad[0]))
    # the final row repeats the last applied target and torque
    step_qdes[n_steps] = step_qdes[n_steps - 1] if n_steps else q0
    step_tau[n_steps] = step_tau[n_steps - 1] if n_steps else 0.0

    def lane(i):
        return diverged.get(i) or Trajectory(sample_rate=1.0 / dt, t=t, q=rec_q[i],
                                             q_dot=rec_qd[i], q_des=rec_qdes[i],
                                             tau=rec_tau[i])

    if lanes:
        return [lane(i) for i in range(lanes[0])]
    if diverged:
        raise diverged[0]
    return lane(0)


# ---------------------------------------------------------------------------
# Config loading


def load_plant(section) -> PlantParams:
    """Build a PlantParams from a flat key-value mapping of strings, such
    as an INI [plant] section. Keys: kind, mass, armature, static_friction,
    dynamic_friction_ratio, viscous_friction, gravity_enabled,
    link_masses, link_lengths, torque_limit, torque_rate_limit.
    """
    section = dict(section)
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
