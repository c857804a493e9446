import gc
import math
import weakref
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from gainlab import dynamics, retarget
from gainlab.control import GainConfig, pd_torque
from gainlab.dynamics import (GRAVITY, NonPositiveInertiaError, Trajectory, chain, point_mass,
                              two_link)
from oracles import (State, forward_dynamics, friction_torque, inline_coriolis_torque,
                     inline_gravity_torque, inline_mass_matrix, inline_two_link_advance,
                     kinetic_energy, loop_run_lanes, rk4_step, state_make_demo, state_simulate,
                     two_link_step, two_link_terms)


def make_gravity_arm(link_masses=(1.0, 0.5), link_lengths=(0.5, 0.4), **kw):
    kw.setdefault("gravity_enabled", True)
    return two_link(link_masses=link_masses, link_lengths=link_lengths, **kw)


# ---------------------------------------------------------------------------
# Independent Lagrangian oracle for the 2-link arm.
#
# Energies come from tip-position kinematics only; all Lagrangian
# derivatives are taken by central finite differences. No inertia,
# Coriolis, or gravity closed form is reused.


def _tip_positions(arm, q):
    l1, l2 = arm.link_lengths
    p1 = l1 * np.array([math.cos(q[0]), math.sin(q[0])])
    p2 = p1 + l2 * np.array([math.cos(q[0] + q[1]), math.sin(q[0] + q[1])])
    return p1, p2


def _tip_jacobians(arm, q, h=1e-6):
    J1 = np.zeros((2, 2))
    J2 = np.zeros((2, 2))
    for j in range(2):
        dq = np.zeros(2)
        dq[j] = h
        p1p, p2p = _tip_positions(arm, q + dq)
        p1m, p2m = _tip_positions(arm, q - dq)
        J1[:, j] = (p1p - p1m) / (2 * h)
        J2[:, j] = (p2p - p2m) / (2 * h)
    return J1, J2


def _lagrangian(arm, q, qd):
    m1, m2 = arm.link_masses
    J1, J2 = _tip_jacobians(arm, q)
    v1 = J1 @ qd
    v2 = J2 @ qd
    T = 0.5 * m1 * v1 @ v1 + 0.5 * m2 * v2 @ v2 + 0.5 * np.sum(arm.armature * qd**2)
    V = 0.0
    if arm.gravity_enabled:
        p1, p2 = _tip_positions(arm, q)
        V = GRAVITY * (m1 * p1[1] + m2 * p2[1])
    return T - V


def lagrangian_oracle_accel(arm, q, qd, tau, h=1e-4):
    """q_dd from d/dt(dL/dqd) - dL/dq = tau, all by finite differences.

    The kinetic energy is quadratic in qd, so the inner central
    differences are exact up to roundoff; the outer steps use a larger h
    to keep that roundoff from being amplified.
    """

    def momentum(q, qd):
        p = np.zeros(2)
        for i in range(2):
            d = np.zeros(2)
            d[i] = h
            p[i] = (_lagrangian(arm, q, qd + d) - _lagrangian(arm, q, qd - d)) / (2 * h)
        return p

    M = np.zeros((2, 2))
    for j in range(2):
        d = np.zeros(2)
        d[j] = h
        M[:, j] = (momentum(q, qd + d) - momentum(q, qd - d)) / (2 * h)
    dp_dq = np.zeros((2, 2))
    dL_dq = np.zeros(2)
    for j in range(2):
        d = np.zeros(2)
        d[j] = h
        dp_dq[:, j] = (momentum(q + d, qd) - momentum(q - d, qd)) / (2 * h)
        dL_dq[j] = (_lagrangian(arm, q + d, qd) - _lagrangian(arm, q - d, qd)) / (2 * h)
    rhs = tau - dp_dq @ qd + dL_dq
    return np.linalg.solve(M, rhs)


class TestForwardDynamics:
    def test_equilibrium_point_mass(self):
        p = point_mass(1.0)
        qdd = forward_dynamics(p, [0.0], [0.0], tau=[0.0])
        assert_allclose(qdd, [0.0])

    def test_newtons_law(self):
        p = point_mass(2.0)
        qdd = forward_dynamics(p, [0.0], [0.0], tau=[4.0])
        assert_allclose(qdd, [2.0])

    def test_armature_adds_inertia(self):
        p = point_mass(1.0, armature=1.0)
        qdd = forward_dynamics(p, [0.0], [0.0], tau=[4.0])
        assert_allclose(qdd, [2.0])

    @pytest.mark.parametrize("gravity", [False, True])
    def test_two_link_matches_lagrangian_oracle(self, gravity):
        arm = two_link(link_masses=(1.2, 0.7), link_lengths=(0.6, 0.45),
                       armature=[0.05, 0.02], gravity_enabled=gravity)
        rng = np.random.default_rng(3)
        for _ in range(10):
            q = rng.uniform(-math.pi, math.pi, 2)
            qd = rng.uniform(-2.0, 2.0, 2)
            tau = rng.uniform(-5.0, 5.0, 2)
            got = forward_dynamics(arm, q, qd, tau)
            want = lagrangian_oracle_accel(arm, q, qd, tau)
            rel = np.linalg.norm(got - want) / max(1.0, np.linalg.norm(want))
            assert rel < 1e-6

    def test_external_torque_channel(self):
        p = point_mass(1.0)
        qdd = forward_dynamics(p, [0.0], [0.0], tau=[1.0], f_ext=[2.0])
        assert_allclose(qdd, [3.0])


class TestFriction:
    def test_zero_friction_zero_vector(self):
        p = chain([1.0, 1.0])
        assert_allclose(friction_torque(p, [1.0, -2.0], [0.5, 0.5]),
                        [0.0, 0.0])

    def test_moving_joint_law(self):
        p = point_mass(1.0, static_friction=0.5, dynamic_friction_ratio=0.4,
                       viscous_friction=0.1)
        tau_f = friction_torque(p, [1.0], [0.0])
        assert_allclose(tau_f, [-0.3])

    def test_stiction_holds_below_limit(self):
        p = point_mass(1.0, static_friction=0.5)
        assert_allclose(friction_torque(p, [0.0], [0.3]), [-0.3])

    def test_stiction_saturates(self):
        p = point_mass(1.0, static_friction=0.5)
        assert_allclose(friction_torque(p, [0.0], [0.8]), [-0.5])


class TestStep:
    def test_zero_dynamics_leave_the_state_unchanged(self):
        p = point_mass(1.0)
        for step in (dynamics.step, rk4_step):
            q1, qd1 = step(p, [0.3], [0.0], [0.0], 1e-3)
            assert_allclose(q1, [0.3])
            assert_allclose(qd1, [0.0])

    def test_rk4_energy_conservation(self):
        # Undamped oscillation driven by the plant's own conservative
        # force (gravity pendulum); a torque held over the step cannot
        # conserve energy by construction, so the oracle runs on the
        # smooth internal dynamics.
        arm = make_gravity_arm()
        m1, m2 = arm.link_masses
        l1, l2 = arm.link_lengths

        def energy(q, qd):
            y1 = l1 * math.sin(q[0])
            y2 = y1 + l2 * math.sin(q[0] + q[1])
            return (kinetic_energy(arm, q, qd)
                    + GRAVITY * (m1 * y1 + m2 * y2))

        q, qd = np.array([0.4, -0.2]), np.zeros(2)
        e0 = energy(q, qd)
        scale = abs(e0) + kinetic_energy(arm, q, qd) + 1.0
        for _ in range(1000):
            q, qd = rk4_step(arm, q, qd, [0.0, 0.0], 1e-3)
            assert abs(energy(q, qd) - e0) / scale < 1e-6

    def test_integrator_convergence_orders(self):
        # Damped oscillator realized with in-plant smooth forces
        # (pendulum gravity + viscous friction). Richardson ratios give
        # the observed order; semi-implicit >= 1 and RK4 >= 4.
        arm = make_gravity_arm(viscous_friction=[0.3, 0.2])
        horizon = 0.5

        def final_q(dt, integ):
            q, qd = np.array([0.5, -0.3]), np.array([0.4, 0.1])
            for _ in range(int(round(horizon / dt))):
                q, qd = integ(arm, q, qd, [0.0, 0.0], dt)
            return q

        ref = final_q(6.25e-5, rk4_step)
        orders = {}
        for integ in (dynamics.step, rk4_step):
            dts = [2e-3, 1e-3, 5e-4]
            sols = [final_q(dt, integ) for dt in dts]
            e = [np.linalg.norm(sol - ref) for sol in sols]
            orders[integ] = math.log2(e[0] / e[1])
            # both step sizes must keep shrinking the error
            assert e[2] < e[1] < e[0]
        # Richardson estimates approach the nominal order from below as
        # dt -> 0; allow the usual measurement slack.
        assert orders[dynamics.step] >= 1.0 - 0.03
        assert orders[rk4_step] >= 4.0 - 0.03

    def test_semi_implicit_and_rk4_converge_to_same_trajectory(self):
        arm = make_gravity_arm(viscous_friction=[0.3, 0.2])

        def final_q(dt, integ):
            q, qd = np.array([0.5, -0.3]), np.zeros(2)
            for _ in range(int(round(0.5 / dt))):
                q, qd = integ(arm, q, qd, [0.0, 0.0], dt)
            return q

        gap_coarse = np.linalg.norm(final_q(2e-3, dynamics.step) - final_q(2e-3, rk4_step))
        gap_fine = np.linalg.norm(final_q(2.5e-4, dynamics.step) - final_q(2.5e-4, rk4_step))
        assert gap_fine < gap_coarse / 4.0

    def test_nonfinite_state_raises_with_step_index(self):
        p = point_mass(1.0)
        with pytest.raises(dynamics.SimulationDivergedError) as err:
            dynamics.simulate(p, [0.0], [0.0], lambda *a: ([1e308], [0.0]), 1e3, 1)
        assert err.value.step_index == 0

    def test_dt_must_be_positive(self):
        p = point_mass(1.0)
        with pytest.raises(ValueError):
            dynamics.step(p, [0.0], [0.0], [0.0], 0.0)


@st.composite
def diagonal_plants_with_velocity(draw):
    """A point mass or chain without gravity, any friction, and a start
    velocity."""
    kind = draw(st.sampled_from([point_mass, chain]))
    n = 1 if kind is point_mass else draw(st.integers(1, 4))

    def vector(lo, hi):
        return draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n))

    mass = vector(0.05, 5.0)
    plant = kind(mass[0] if kind is point_mass else mass,
                 armature=vector(0.0, 0.5), static_friction=vector(0.0, 2.0),
                 dynamic_friction_ratio=vector(0.0, 1.0),
                 viscous_friction=vector(0.0, 5.0))
    return plant, np.array(vector(-5.0, 5.0))


class TestInvariants:
    def test_decoupled_chain_reduces_to_point_masses_bitwise(self):
        masses = [1.0, 2.5, 0.7]
        ch = chain(masses, viscous_friction=[0.1, 0.2, 0.0],
                   static_friction=[0.3, 0.0, 0.1],
                   dynamic_friction_ratio=[0.5, 0.0, 1.0])
        rng = np.random.default_rng(7)
        taus = rng.normal(scale=2.0, size=(200, 3))
        q_chain, qd_chain = np.zeros(3), np.zeros(3)
        singles = []
        for j in range(3):
            pj = point_mass(masses[j], viscous_friction=ch.viscous_friction[j],
                            static_friction=ch.static_friction[j],
                            dynamic_friction_ratio=ch.dynamic_friction_ratio[j])
            singles.append((pj, np.zeros(1), np.zeros(1)))
        for k in range(200):
            q_chain, qd_chain = dynamics.step(ch, q_chain, qd_chain, taus[k], 1e-3)
            for j, (pj, qj, qdj) in enumerate(singles):
                qj, qdj = dynamics.step(pj, qj, qdj, [taus[k, j]], 1e-3)
                singles[j] = (pj, qj, qdj)
                assert q_chain[j] == qj[0]
                assert qd_chain[j] == qdj[0]

    def test_two_link_inertia_spd_on_random_grid(self):
        arm = two_link(link_masses=(1.5, 0.4), link_lengths=(0.7, 0.3),
                       armature=[0.01, 0.01])
        rng = np.random.default_rng(11)
        for _ in range(50):
            q = rng.uniform(-math.pi, math.pi, 2)
            M = dynamics.mass_matrix(arm, q)
            assert_allclose(M, M.T)
            assert np.all(np.linalg.eigvalsh(M) > 0)

    @pytest.mark.parametrize("friction", [
        dict(),
        dict(viscous_friction=0.8),
        dict(static_friction=0.9, dynamic_friction_ratio=0.7),
        dict(static_friction=1.0, dynamic_friction_ratio=0.3,
             viscous_friction=0.5),
    ])
    def test_passivity_kinetic_energy_nonincreasing(self, friction):
        p = point_mass(1.0, **friction)
        q, qd = np.zeros(1), np.array([1.3])
        ke = kinetic_energy(p, q, qd)
        for _ in range(2000):
            q, qd = dynamics.step(p, q, qd, [0.0], 1e-3)
            ke_next = kinetic_energy(p, q, qd)
            assert ke_next <= ke + 1e-9
            ke = ke_next

    @settings(deadline=None, derandomize=True, max_examples=30)
    @given(plant_and_velocity=diagonal_plants_with_velocity())
    def test_passivity_generated_plants(self, plant_and_velocity):
        p, q_dot = plant_and_velocity
        q = np.zeros(p.n_joints)
        ke = kinetic_energy(p, q, q_dot)
        for _ in range(2000):
            q, q_dot = dynamics.step(p, q, q_dot, np.zeros(p.n_joints), 1e-3)
            ke_next = kinetic_energy(p, q, q_dot)
            assert ke_next <= ke + 1e-9
            ke = ke_next

    def test_determinism_across_runs(self):
        arm = make_gravity_arm(viscous_friction=[0.1, 0.1])
        rng = np.random.default_rng(13)
        taus = rng.normal(size=(100, 2))

        def run():
            q, qd = np.array([0.2, 0.1]), np.zeros(2)
            out = []
            for k in range(100):
                q, qd = dynamics.step(arm, q, qd, taus[k], 1e-3)
                out.append(q)
            return np.array(out)

        assert np.array_equal(run(), run())

    def test_fast_stepper_matches_step_bitwise(self):
        p = chain([1.0, 2.5], armature=[0.1, 0.0], static_friction=[0.5, 0.2],
                  dynamic_friction_ratio=[0.4, 0.9], viscous_friction=[0.1, 0.3])
        advance = dynamics.decoupled_stepper(p)
        rng = np.random.default_rng(5)
        q, qd = rng.normal(size=2), rng.normal(size=2)
        q_fast, qd_fast = q.copy(), qd.copy()
        for _ in range(500):
            tau = rng.normal(scale=2.0, size=2)
            q, qd = dynamics.step(p, q, qd, tau, 1e-3)
            q_fast, qd_fast = advance(q_fast, qd_fast, tau, 1e-3)
            assert np.array_equal(q, q_fast)
            assert np.array_equal(qd, qd_fast)


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


_angles = st.floats(-1e3, 1e3, allow_nan=False)
_positive = st.floats(0.05, 5.0)


@st.composite
def two_link_arms(draw, friction=False):
    kw = dict(gravity_enabled=draw(st.booleans()),
              armature=draw(st.lists(st.floats(0.0, 0.5), min_size=2, max_size=2)))
    if friction:
        kw.update(static_friction=draw(st.floats(0.0, 2.0)),
                  dynamic_friction_ratio=draw(st.floats(0.0, 1.0)),
                  viscous_friction=draw(st.floats(0.0, 1.0)))
    return two_link(link_masses=draw(st.lists(_positive, min_size=2, max_size=2)),
                    link_lengths=draw(st.lists(_positive, min_size=2, max_size=2)), **kw)


def _lanes(draw, n_lanes, scale):
    return np.array(draw(st.lists(st.lists(st.floats(-scale, scale), min_size=2, max_size=2),
                                  min_size=n_lanes, max_size=n_lanes)))


class TestLaneKernelFacts:
    """The machine-dependent facts the two-link lane kernel's bitwise
    equality with the one-state path rests on. SIMD dispatch differs by
    machine, so these are checked, not assumed."""

    @settings(deadline=None, derandomize=True, max_examples=200)
    @given(x=st.lists(_angles, min_size=1, max_size=40))
    def test_array_cos_sin_equal_math(self, x):
        a = np.array(x)
        for f, mf in ((np.cos, math.cos), (np.sin, math.sin)):
            want = np.array([mf(v) for v in x])
            assert np.array_equal(_bits(f(a)), _bits(want))
            assert np.array_equal(_bits(f(a[::-1])), _bits(want[::-1]))
            assert all(f(v) == mf(v) for v in a)

    @settings(deadline=None, derandomize=True, max_examples=100)
    @given(data=st.data(), arm=two_link_arms(), n_lanes=st.integers(1, 12))
    def test_stacked_solve_equals_per_matrix_solves(self, data, arm, n_lanes):
        q = _lanes(data.draw, n_lanes, 4.0)
        rhs = _lanes(data.draw, n_lanes, 1e3)
        M = dynamics.mass_matrix(arm, q)
        x = np.linalg.solve(M, rhs[..., None])[..., 0]
        for i in range(n_lanes):
            assert np.array_equal(_bits(x[i]), _bits(np.linalg.solve(M[i], rhs[i])))


class TestLaneKernel:
    """decoupled_stepper's two-link advance against the one-state scalar
    closed forms of tests/oracles.py, bit for bit."""

    @settings(deadline=None, derandomize=True, max_examples=100)
    @given(data=st.data(), arm=two_link_arms(), n_lanes=st.integers(1, 8))
    def test_rigid_body_terms_per_lane(self, data, arm, n_lanes):
        q = _lanes(data.draw, n_lanes, 4.0)
        qd = _lanes(data.draw, n_lanes, 20.0)
        M = dynamics.mass_matrix(arm, q)
        cor = dynamics.coriolis_torque(arm, q, qd)
        grav = np.broadcast_to(dynamics.gravity_torque(arm, q), q.shape)
        for i in range(n_lanes):
            want = two_link_terms(arm, q[i], qd[i])
            for got, ref in zip((M[i], cor[i], grav[i]), want):
                assert np.array_equal(_bits(got), _bits(ref))

    @settings(deadline=None, derandomize=True, max_examples=100)
    @given(data=st.data(), arm=two_link_arms(friction=True), n_lanes=st.integers(1, 8),
           dt=st.sampled_from([1e-3, 2e-3, 1e-2]))
    def test_advance_lanes_equal_one_state_steps(self, data, arm, n_lanes, dt):
        q = _lanes(data.draw, n_lanes, 4.0)
        qd = _lanes(data.draw, n_lanes, 5.0)
        qd[::3, 1] = 0.0  # inside the stiction band
        tau = _lanes(data.draw, n_lanes, 50.0)
        advance = dynamics.decoupled_stepper(arm)
        q_new, qd_new = advance(q, qd, tau, dt)
        for i in range(n_lanes):
            want_q, want_qd = two_link_step(arm, q[i], qd[i], tau[i], dt)
            assert np.array_equal(_bits(q_new[i]), _bits(want_q))
            assert np.array_equal(_bits(qd_new[i]), _bits(want_qd))
            one_q, one_qd = dynamics.step(arm, q[i], qd[i], tau[i], dt)
            assert np.array_equal(_bits(one_q), _bits(want_q))
            assert np.array_equal(_bits(one_qd), _bits(want_qd))


class TestLaneStackedPlant:
    """A plant with per-lane armature and friction steps each lane as its
    own plant would alone, bit for bit."""

    ROWS = {"armature": [[0.0], [0.3], [0.05]],
            "static_friction": [[0.4], [0.0], [0.1]],
            "dynamic_friction_ratio": [[0.5], [1.0], [0.0]],
            "viscous_friction": [[0.2], [0.0], [0.9]]}

    @pytest.mark.parametrize("plant", [point_mass(1.5, gravity_enabled=True),
                                       chain([1.0, 0.4]),
                                       two_link(link_masses=(1.0, 0.8),
                                                link_lengths=(0.5, 0.4),
                                                gravity_enabled=True)],
                             ids=["point_mass", "chain", "two_link"])
    def test_lanes_equal_separate_plants(self, plant):
        stack = replace(plant, **self.ROWS)
        assert stack.lanes == (3,) and plant.lanes == ()
        rng = np.random.default_rng(2)
        n = plant.n_joints
        q, qd, tau = rng.normal(size=(3, n)), rng.normal(size=(3, n)), rng.normal(size=(3, n))
        qd[1] = 0.0  # inside the stiction band
        M = dynamics.mass_matrix(stack, q)
        q_new, qd_new = dynamics.decoupled_stepper(stack)(q, qd, tau, 1e-2)
        for i in range(3):
            alone = replace(plant, **{k: v[i][0] for k, v in self.ROWS.items()})
            assert np.array_equal(_bits(M[i]), _bits(dynamics.mass_matrix(alone, q[i])))
            want_q, want_qd = dynamics.decoupled_stepper(alone)(q[i], qd[i], tau[i], 1e-2)
            assert np.array_equal(_bits(q_new[i]), _bits(want_q))
            assert np.array_equal(_bits(qd_new[i]), _bits(want_qd))

    def test_lane_shapes_validated(self):
        with pytest.raises(ValueError, match="one lane count"):
            chain([1.0, 1.0], armature=np.zeros((3, 1)), viscous_friction=np.zeros((2, 2)))
        with pytest.raises(ValueError, match="expected shape"):
            chain([1.0, 1.0], armature=np.zeros((3, 3)))
        with pytest.raises(ValueError):
            point_mass(1.0, armature=[[0.1], [-0.1]])
        assert chain([1.0, 1.0], armature=[[0.1], [0.2]]).armature.tolist() == \
            [[0.1, 0.1], [0.2, 0.2]]


# plant, start q, goal q
LOOP_PLANTS = {
    "point_mass": (point_mass(1.5, gravity_enabled=True, viscous_friction=0.2,
                              static_friction=0.3, dynamic_friction_ratio=0.5),
                   [0.1], [0.6]),
    "chain": (chain([1.0, 0.4], armature=[0.05, 0.0], viscous_friction=[0.1, 0.3]),
              [0.1, -0.2], [0.5, 0.3]),
    "two_link": (two_link(link_masses=(1.0, 0.8), link_lengths=(0.5, 0.4),
                          gravity_enabled=True), [-0.4, 0.6], [0.3, -0.2]),
}


def _clamped(plant, clamp, peak):
    """The plant, or the plant with a torque limit at 80% of ``peak``."""
    return replace(plant, torque_limit=0.8 * peak) if clamp else plant


class TestSimulateMatchesStatePath:
    """dynamics.simulate and retarget.make_demo against the State path they
    replaced (tests/oracles.py), bit for bit: records, the final row, the
    saturation flag and every divergence step index."""

    FIELDS = ("t", "q", "q_dot", "q_des", "tau")

    def assert_same(self, got, want):
        for f in self.FIELDS:
            assert np.array_equal(_bits(getattr(got, f)), _bits(getattr(want, f))), f

    @pytest.mark.parametrize("clamp", [False, True], ids=["free", "clamped"])
    @pytest.mark.parametrize("name", list(LOOP_PLANTS))
    def test_make_demo(self, name, clamp):
        plant, q0, qf = LOOP_PLANTS[name]
        pos, vel, acc = retarget.quintic_reference(q0, qf, 0.75)
        free = retarget.make_demo(plant, retarget.computed_torque_tracker(plant, pos, vel, acc),
                                  1.0, 500.0, q0=q0)
        plant = _clamped(plant, clamp, np.max(np.abs(free.traj.tau)))
        ctrl = retarget.computed_torque_tracker(plant, pos, vel, acc)
        for reference in (pos, None):
            demo = retarget.make_demo(plant, ctrl, 1.0, 500.0, q0=q0, reference=reference)
            want, final, saturated = state_make_demo(plant, ctrl, 1.0, 500.0, q0=q0,
                                                     reference=reference)
            self.assert_same(demo.traj, want)
            assert np.array_equal(_bits(demo.goal.q_goal), _bits(final.q))
            assert demo.torque_saturated is saturated is clamp

    @pytest.mark.parametrize("n_steps", [0, 1, 400])
    @pytest.mark.parametrize("clamp", [False, True], ids=["free", "clamped"])
    @pytest.mark.parametrize("name", list(LOOP_PLANTS))
    def test_pd_loop(self, name, clamp, n_steps):
        plant, q0, qf = LOOP_PLANTS[name]
        plant = _clamped(plant, clamp, 200.0 * np.max(np.abs(np.subtract(qf, q0))))
        gains = GainConfig(kp=200.0, kd=12.0, gravity_comp=True)
        qf = np.asarray(qf)
        seen_new, seen_old = [], []

        def torque(q, q_dot):
            tau = pd_torque(gains, q, q_dot, qf, gravity_term=dynamics.gravity_torque(plant, q))
            return np.clip(tau, -plant.torque_limit, plant.torque_limit)

        def torque_fn(q, q_dot, k, t):
            seen_new.append((k, t))
            return torque(q, q_dot), qf

        def state_torque_fn(state, k):
            seen_old.append((k, state.t))
            return torque(state.q, state.q_dot)

        got = dynamics.simulate(plant, q0, np.zeros(plant.n_joints), torque_fn, 1e-3, n_steps)
        want, final = state_simulate(plant, State(q=q0, q_dot=np.zeros(plant.n_joints)),
                                     state_torque_fn, 1e-3, n_steps,
                                     q_des_fn=lambda state, k: qf)
        self.assert_same(got, want)
        assert np.array_equal(_bits(got.q[-1]), _bits(final.q))
        assert np.array_equal(_bits(got.q_dot[-1]), _bits(final.q_dot))
        assert got.t[-1] == final.t
        assert seen_new == seen_old
        if clamp and n_steps:
            assert np.max(np.abs(got.tau)) == plant.torque_limit

    LIGHT_ARM = two_link(link_masses=(1.0, 0.8), link_lengths=(0.5, 0.4),
                         gravity_enabled=True)

    @pytest.mark.parametrize("plant, kp, kd, dt", [
        (point_mass(1.0), 1e6, 1.0, 1e-2),
        (chain([1.0, 0.4]), 4e4, 1.0, 2e-2),
        (LIGHT_ARM, 512.0, 24.0, 1e-2),
    ], ids=["point_mass", "chain", "two_link"])
    def test_unstable_pd_diverges_at_the_same_step(self, plant, kp, kd, dt):
        gains = GainConfig(kp=kp, kd=kd)
        n = plant.n_joints
        with pytest.raises(dynamics.SimulationDivergedError) as got:
            dynamics.simulate(plant, np.full(n, 0.1), np.zeros(n),
                              lambda q, q_dot, k, t: (pd_torque(gains, q, q_dot, 0.0), 0.0),
                              dt, 400)
        with pytest.raises(dynamics.SimulationDivergedError) as want:
            state_simulate(plant, State(q=np.full(n, 0.1), q_dot=np.zeros(n)),
                           lambda state, k: pd_torque(gains, state.q, state.q_dot, 0.0), dt, 400)
        assert isinstance(want.value.__cause__, FloatingPointError)
        assert got.value.step_index == want.value.step_index > 0

    def test_silent_solve_overflow_diverges_at_the_same_step(self):
        # np.linalg.solve overflows without a floating-point error, so the
        # State path caught this step by its finiteness check, not errstate
        arm, n = self.LIGHT_ARM, 2

        def kick(k):
            return np.array([1e308, -1e308]) if k == 7 else np.zeros(n)

        with pytest.raises(dynamics.SimulationDivergedError) as got:
            dynamics.simulate(arm, [0.2, -0.1], np.zeros(n),
                              lambda q, q_dot, k, t: (kick(k), q), 1e-3, 20)
        with pytest.raises(dynamics.SimulationDivergedError) as want:
            state_simulate(arm, State(q=[0.2, -0.1], q_dot=np.zeros(n)),
                           lambda state, k: kick(k), 1e-3, 20)
        assert want.value.__cause__ is None
        assert got.value.step_index == want.value.step_index == 7


def _simulate_alone(*args):
    try:
        return dynamics.simulate(*args)
    except dynamics.SimulationDivergedError as exc:
        return exc


class TestSimulateLanes:
    """A lane of a stacked simulate call equals its one-lane call bitwise:
    records and final row, or the step its divergence is reported at."""

    PLANTS = {"point_mass": point_mass(1.0, static_friction=0.3, dynamic_friction_ratio=0.5,
                                       gravity_enabled=True),
              "chain": chain([1.0, 0.4]),
              "two_link": two_link(link_masses=(1.0, 0.8), link_lengths=(0.5, 0.4),
                                   gravity_enabled=True)}
    DT = 0.02

    @staticmethod
    def torque_fn(kp, target):
        # elementwise in the lanes and conditioned on the state: PD toward
        # target with a sin(q) term and damping that switches on the sign
        # of q_dot; at dt = 0.02 a lane's kp of 1e4 or more is unstable
        def fn(q, q_dot, k, t):
            damping = np.where(q_dot > 0.0, 2.0, 1.0)
            return kp * (target - q) - damping * q_dot + 0.5 * np.sin(q), target

        return fn

    @settings(max_examples=100, deadline=None, print_blob=True)
    @given(data=st.data(), name=st.sampled_from(list(PLANTS)),
           stacked=st.sampled_from(["start", "plant", "both"]))
    def test_every_lane_equals_its_one_lane_call(self, data, name, stacked):
        base = self.PLANTS[name]
        n = base.n_joints
        n_lanes = data.draw(st.integers(1, 4), label="lanes")
        n_steps = data.draw(st.integers(0, 60), label="n_steps")

        def lane_rows(lo, hi, cols):
            return np.array(data.draw(st.lists(
                st.lists(st.floats(lo, hi), min_size=cols, max_size=cols),
                min_size=n_lanes, max_size=n_lanes)))

        kp = 10.0 ** lane_rows(0.0, 10.0, 1)
        target, q0, qd0 = (lane_rows(-1.0, 1.0, n) for _ in range(3))
        armature, visc = lane_rows(0.0, 0.5, 1), lane_rows(0.0, 1.0, 1)
        if stacked == "start":  # one plant for every lane
            armature, visc = np.repeat(armature[:1], n_lanes, 0), np.repeat(visc[:1], n_lanes, 0)
            plant = replace(base, armature=armature[0, 0], viscous_friction=visc[0, 0])
        else:
            plant = replace(base, armature=armature, viscous_friction=visc)
        if stacked == "plant":  # one start state for every lane
            q0, qd0 = np.repeat(q0[:1], n_lanes, 0), np.repeat(qd0[:1], n_lanes, 0)
            start = (q0[0], qd0[0])
        else:
            start = (q0, qd0)
        got = dynamics.simulate(plant, *start, self.torque_fn(kp, target), self.DT, n_steps)
        assert len(got) == n_lanes
        for i, lane in enumerate(got):
            one = replace(base, armature=armature[i, 0], viscous_friction=visc[i, 0])
            alone = _simulate_alone(one, q0[i], qd0[i], self.torque_fn(kp[i], target[i]),
                                    self.DT, n_steps)
            if isinstance(alone, dynamics.SimulationDivergedError):
                assert isinstance(lane, dynamics.SimulationDivergedError), i
                assert lane.step_index == alone.step_index, i
                continue
            assert isinstance(lane, Trajectory), (i, lane)
            for f in ("t", "q", "q_dot", "q_des", "tau"):
                assert np.array_equal(_bits(getattr(lane, f)), _bits(getattr(alone, f))), f


class TestSilentNonFiniteTorque:
    """A NaN torque makes the state NaN without a floating-point error, so
    only the records show the step it entered at."""

    @staticmethod
    def torque_fn(nan_lane):
        def fn(q, q_dot, k, t):
            tau = -4.0 * q - q_dot
            if k == 3:
                tau[nan_lane] = math.nan  # the lane's row, or the one joint of one lane
            return tau, q

        return fn

    def test_one_lane_reports_the_step_the_nan_entered(self):
        with pytest.raises(dynamics.SimulationDivergedError) as err:
            dynamics.simulate(point_mass(1.0), [0.5], [0.0], self.torque_fn(0), 0.01, 10)
        assert err.value.step_index == 3

    def test_only_the_nan_lane_diverges_in_a_stack(self):
        q0 = np.array([[0.5], [0.2], [-0.3]])
        got = dynamics.simulate(point_mass(1.0), q0, np.zeros((3, 1)), self.torque_fn(1),
                                0.01, 10)
        assert isinstance(got[1], dynamics.SimulationDivergedError)
        assert got[1].step_index == 3
        for i in (0, 2):
            alone = dynamics.simulate(point_mass(1.0), q0[i], [0.0],
                                      lambda q, q_dot, k, t: (-4.0 * q - q_dot, q), 0.01, 10)
            assert np.array_equal(got[i].q, alone.q) and np.array_equal(got[i].tau, alone.tau)


class TestRunLanes:
    def test_a_parked_lane_diverging_again_costs_one_step_call(self):
        # lane 1 grows by 1e300 a step: it overflows at step 1 and, parked
        # at zero and restarted from 1, again at steps 3 and 5
        gain, calls = np.array([1.0, 1e300]), []

        def step(k, state):
            calls.append(k)
            (x,) = state
            return (x * gain + 1.0,)

        (x,), errors = dynamics._run_lanes(step, (np.ones(2),), 6)
        assert list(errors) == [1] and errors[1].step_index == 1
        assert x.tolist() == [7.0, 1.0]
        # each step once; step 1 also once per lane alone and once with lane
        # 1 parked; steps 3 and 5 once more each, with lane 1 re-parked
        assert calls == [0, 1, 1, 1, 1, 2, 3, 3, 4, 5, 5]

    def test_a_divergence_leaves_no_cycle_holding_the_step(self):
        # the step, and the records it writes, is freed as soon as the run
        # returns, not at the cyclic collector's next pass: finding lane 0 by
        # halving must not tie the step into a reference cycle
        def step(k, state):
            (x,) = state
            return (x * np.array([1e300, 1.0]),)

        freed = weakref.ref(step)
        gc.disable()
        try:
            _, errors = dynamics._run_lanes(step, (np.array([1e10, 1.0]),), 3)
            del step
            assert freed() is None
        finally:
            gc.enable()
        assert list(errors) == [0] and errors[0].step_index == 0


class TestTorqueOverflowIndex:
    """simulate's records start as uninitialized memory, here NaN. A torque
    that overflows at step k from a finite state diverges its lane at step
    k: the state entering step k is recorded before the torque is taken,
    so the index fix-up never reads a row that no call wrote."""

    @pytest.mark.parametrize("lanes", [False, True])
    def test_the_raising_step_is_the_index(self, lanes, monkeypatch):
        empty = np.empty

        def nan_empty(*args, **kwargs):
            out = empty(*args, **kwargs)
            if out.dtype.kind == "f":
                out.fill(np.nan)
            return out

        monkeypatch.setattr(np, "empty", nan_empty)

        def torque_fn(q, q_dot, k, t):
            # every lane overflows at step 3 unless parked at zero, so no
            # step-3 call completes
            return q * (1e300 if k == 3 else 0.0) * 1e300, np.zeros_like(q)

        q0, qd0 = (np.ones((3, 1)), np.zeros((3, 1))) if lanes else ([1.0], [0.0])
        if lanes:
            errors = dynamics.simulate(point_mass(1.0), q0, qd0, torque_fn, 0.01, 6)
        else:
            with pytest.raises(dynamics.SimulationDivergedError) as error:
                dynamics.simulate(point_mass(1.0), q0, qd0, torque_fn, 0.01, 6)
            errors = [error.value]
        assert [e.step_index for e in errors] == [3] * len(errors)


@st.composite
def lane_events(draw, n_steps):
    """Per lane, None or (kind, step) for its first divergence, and
    whether, once parked, it overflows again."""
    n_lanes = draw(st.integers(1, 64))
    kind_step = st.sampled_from([None]) | st.tuples(
        st.sampled_from(["overflow", "silent"]), st.integers(0, n_steps - 1))
    events = draw(st.lists(kind_step, min_size=n_lanes, max_size=n_lanes))
    # a parked lane holds 0 and grows by one a step: at most every
    # fourth step from its overflow on overflows it again
    again = draw(st.lists(st.booleans(), min_size=n_lanes, max_size=n_lanes))
    return events, again


class TestRunLanesHalvingMatchesLoopOracle:
    """Halving the raising group finds the diverged lanes that re-running the
    step once per live lane finds: equal errors, step indices and final
    state. Each lane overflows at its own step, goes infinite there without
    a floating-point error (and raises entering the next step, so it
    diverged one step earlier), or never diverges. A parked lane restarts
    from zero and may overflow again later. With one lane diverging per
    step, halving costs fewer step calls from 8 lanes on."""

    N_STEPS = 40

    @settings(max_examples=100, deadline=None, print_blob=True)
    @given(lanes=lane_events(N_STEPS))
    # a lane silent at step 11 raises at step 12, as the lane overflowing there
    @example(lanes=([None] * 5 + [("overflow", 12), None, ("silent", 11)], [False] * 8))
    def test_errors_state_and_step_calls(self, lanes):
        events, again = lanes
        n_lanes = len(events)
        overflow, silent = (np.array([e[1] if e and e[0] == kind else -1 for e in events])
                            for kind in ("overflow", "silent"))

        def counted(calls):
            def step(k, state):
                calls.append(k)
                (x,) = state
                # x - x raises on an infinite x; 1e308 overflows any x >= 1
                y = (x + 1.0) + (x - x)
                burst = (k == overflow) | (np.array(again) & (k > overflow)
                                           & (k % 4 == 0) & (overflow >= 0))
                return (np.where(k == silent, np.inf, y * np.where(burst, 1e308, 1.0)),)
            return step

        new_calls, old_calls = [], []
        start = (np.ones(n_lanes),)
        (got,), got_errors = dynamics._run_lanes(counted(new_calls), start, self.N_STEPS)
        (want,), want_errors = loop_run_lanes(counted(old_calls), start, self.N_STEPS)
        assert np.array_equal(got, want, equal_nan=True)
        assert {i: e.step_index for i, e in got_errors.items()} == \
            {i: e.step_index for i, e in want_errors.items()}
        # the step each diverging lane raises at: a silent lane's infinity
        # raises entering the next step, so one silent at the last raises at none
        raising = [k + (kind == "silent") for kind, k in filter(None, events)
                   if k + (kind == "silent") < self.N_STEPS]
        if n_lanes >= 8 and got_errors and len(set(raising)) == len(raising):
            assert len(new_calls) < len(old_calls)


class TestValidation:
    def test_bad_mass_rejected(self):
        with pytest.raises(ValueError):
            point_mass(0.0)

    def test_bad_friction_ratio_rejected(self):
        with pytest.raises(ValueError):
            point_mass(1.0, dynamic_friction_ratio=1.5)

    @pytest.mark.parametrize("make,kw", [
        (point_mass, {"mass": math.nan}),
        (chain, {"masses": [1.0, math.inf]}),
        (point_mass, {"armature": math.inf}),
        (point_mass, {"armature": [[0.1], [math.nan]]}),
        (point_mass, {"static_friction": math.inf}),
        (point_mass, {"dynamic_friction_ratio": math.nan}),
        (point_mass, {"viscous_friction": math.nan}),
        (two_link, {"link_masses": (1.0, math.nan)}),
        (two_link, {"link_lengths": (math.inf, 1.0)}),
    ])
    def test_non_finite_parameters_rejected(self, make, kw):
        with pytest.raises(ValueError, match="must be finite"):
            make(**kw)

    @pytest.mark.parametrize("limit", [-5.0, 0.0, math.nan, -math.inf])
    def test_torque_limit_must_be_positive(self, limit):
        with pytest.raises(ValueError, match="torque_limit"):
            point_mass(1.0, torque_limit=limit)
        assert point_mass(1.0, torque_limit=math.inf).torque_limit == math.inf

    @pytest.mark.parametrize("n_steps", [0, 3])
    @pytest.mark.parametrize("dt", [0.0, -1e-3, math.inf, math.nan])
    def test_dt_must_be_finite_and_positive(self, dt, n_steps):
        calls = []

        def torque_fn(q, q_dot, k, t):
            calls.append(k)
            return [0.0], [0.0]

        with pytest.raises(ValueError, match="dt must be finite and positive"):
            dynamics.simulate(point_mass(1.0), [0.0], [0.0], torque_fn, dt, n_steps)
        assert calls == []

    def test_state_must_be_finite(self):
        p = point_mass(1.0)
        with pytest.raises(ValueError, match="state must be finite"):
            dynamics.simulate(p, [math.nan], [0.0], lambda *a: ([0.0], [0.0]), 1e-3, 1)

    def test_dimension_mismatch_rejected(self):
        p = chain([1.0, 1.0])
        with pytest.raises(ValueError):
            forward_dynamics(p, np.zeros(2), np.zeros(2), tau=[1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            dynamics.step(p, np.zeros(2), np.zeros(2), [1.0, 2.0, 3.0], 1e-3)
        with pytest.raises(ValueError):
            dynamics.simulate(p, [0.0, 0.0, 0.0], [0.0, 0.0, 0.0],
                              lambda *a: ([0.0], [0.0]), 1e-3, 1)


class TestInertiaCheckedAtConstruction:
    """A two-link plant checks M(q) once, at q2 = 0 and pi (det M is
    smallest at pi, trace M largest at 0), in every lane: det M must lie
    above MIN_INERTIA_RATIO (trace M)^2."""

    def test_degenerate_arm_raises(self):
        # M00(pi) = (m1 + m2) l1^2 + m2 l2^2 - 2 m2 l1 l2 rounds to 0
        with pytest.raises(NonPositiveInertiaError, match="q2 = pi"):
            two_link(link_masses=(1e-20, 1.0), link_lengths=(1.0, 1.0))

    def test_singular_arm_raises(self):
        # a positive diagonal (M00 = 0.25, M11 = 1 at q2 = pi), but
        # det M = m1 m2 l1^2 l2^2 = 2.5e-17 rounds away: this arm was built,
        # and its step's solve raised LinAlgError('Singular matrix')
        with pytest.raises(NonPositiveInertiaError, match="det M"):
            two_link(link_masses=(1e-16, 1.0), link_lengths=(0.5, 1.0))

    def test_one_bad_lane_raises(self):
        arm = dict(link_masses=(1e-20, 1.0), link_lengths=(1.0, 1.0))
        good = [[0.1, 0.0], [0.2, 0.1]]
        two_link(**arm, armature=good)
        with pytest.raises(NonPositiveInertiaError):
            two_link(**arm, armature=good[:1] + [[0.0, 0.3]] + good[1:])

    @settings(max_examples=200, deadline=None, print_blob=True)
    @given(log_m1=st.floats(-25.0, 1.0), log_m2=st.floats(-2.0, 1.0),
           lengths=st.lists(st.sampled_from([0.5, 1.0]) | st.floats(0.1, 2.0),
                            min_size=2, max_size=2),
           armature=st.lists(st.lists(st.just(0.0) | st.floats(0.0, 0.5), min_size=2,
                                      max_size=2), min_size=1, max_size=3),
           q2=st.just(math.pi) | st.floats(-10.0, 10.0))
    def test_a_built_arm_has_positive_inertia_at_every_q2(self, log_m1, log_m2, lengths,
                                                           armature, q2):
        masses = (10.0**log_m1, 10.0**log_m2)
        try:
            arm = two_link(link_masses=masses, link_lengths=lengths, armature=armature)
        except NonPositiveInertiaError:
            event("rejected")
            # exact: some lane's M at q2 = 0 or pi, from the scalar oracle, is
            # too close to singular
            Ms = [two_link_terms(SimpleNamespace(
                link_masses=masses, link_lengths=lengths, armature=np.array(a),
                gravity_enabled=False), [0.0, q2_end], [0.0, 0.0])[0]
                for a in armature for q2_end in (0.0, math.pi)]
            assert any(M[0, 0] * M[1, 1] - M[0, 1] ** 2
                       <= dynamics.MIN_INERTIA_RATIO * (M[0, 0] + M[1, 1]) ** 2 for M in Ms)
            return
        event("built")
        q = np.array([0.3, q2])
        diag, worst = (np.diagonal(dynamics.mass_matrix(arm, x), axis1=-2, axis2=-1)
                       for x in (q, np.array([0.3, math.pi])))
        assert np.all(diag[:, 0] >= worst[:, 0]) and np.array_equal(diag[:, 1], worst[:, 1])
        assert np.all(diag > 0)  # the check the step once made
        # and M(q) stays invertible in floating point: the step's solve
        # raises no LinAlgError
        q_new, _ = dynamics.step(arm, q, np.zeros(2), np.zeros(2), 1e-3)
        assert q_new.shape == (len(armature), 2)


class TestArmTermsMatchInlineOracles:
    """A two-link plant derives its closed forms' constants once, when it is
    built: M(q), C(q, q_dot) q_dot, g(q) and the step equal the forms that
    rebuild every constant on each call, bitwise and in shape."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(masses=st.lists(st.floats(0.05, 5.0), min_size=2, max_size=2),
           lengths=st.lists(st.floats(0.05, 2.0), min_size=2, max_size=2),
           gravity=st.booleans(), lanes=st.sampled_from([(), (3, 2), (1, 2), (4, 1)]),
           seed=st.integers(0, 2**32 - 1))
    def test_terms_and_step(self, masses, lengths, gravity, lanes, seed):
        rng = np.random.default_rng(seed)
        arm = rng.uniform(0.0, 0.5, lanes) if lanes else rng.uniform(0.0, 0.5)
        plant = two_link(link_masses=masses, link_lengths=lengths, armature=arm,
                         viscous_friction=rng.uniform(0.0, 1.0), static_friction=0.1,
                         gravity_enabled=gravity)
        # (B, 2) matches the plant's lanes (one lane for an unstacked plant);
        # (2, 1, 2) is the shape the inertia check evaluates M at
        B = lanes[0] if lanes else 1
        for shape in ((2,), (B, 2), (2, 1, 2)):
            q = rng.uniform(-4.0, 4.0, shape)
            q.reshape(-1, 2)[0, 1] = math.pi  # where det M is smallest
            q_dot, tau = rng.uniform(-3.0, 3.0, shape), rng.uniform(-5.0, 5.0, shape)
            for got, want in (
                    (dynamics.mass_matrix(plant, q), inline_mass_matrix(plant, q)),
                    (dynamics.coriolis_torque(plant, q, q_dot),
                     inline_coriolis_torque(plant, q, q_dot)),
                    (dynamics.gravity_torque(plant, q), inline_gravity_torque(plant, q)),
                    *zip(dynamics.step(plant, q, q_dot, tau, 1e-3),
                         inline_two_link_advance(plant, q, q_dot, tau, 1e-3))):
                assert got.shape == want.shape and np.array_equal(got, want)

    def test_replaced_plant_derives_its_own(self):
        # a hidden plant is the config's plant with fields replaced (as the
        # sysid sweep builds it); it must not keep the old plant's constants
        base = make_gravity_arm(armature=[[0.1, 0.2], [0.0, 0.3]])
        hidden = replace(base, link_masses=(2.0, 0.3), link_lengths=(0.7, 0.2),
                         armature=[[0.05], [0.4]])
        q = np.array([[0.4, -1.2], [2.0, math.pi]])
        q_dot = np.array([[0.5, -0.7], [1.5, 0.2]])
        for got, want in ((dynamics.mass_matrix(hidden, q), inline_mass_matrix(hidden, q)),
                          (dynamics.coriolis_torque(hidden, q, q_dot),
                           inline_coriolis_torque(hidden, q, q_dot)),
                          (dynamics.gravity_torque(hidden, q), inline_gravity_torque(hidden, q))):
            assert got.shape == want.shape and np.array_equal(got, want)
        assert not np.array_equal(dynamics.mass_matrix(base, q), dynamics.mass_matrix(hidden, q))


class TestTrajectoryIO:
    def test_nonuniform_spacing_rejected(self):
        t = np.array([0.0, 0.01, 0.03])
        with pytest.raises(ValueError):
            Trajectory(sample_rate=100.0, t=t, q=np.zeros((3, 1)),
                       q_dot=np.zeros((3, 1)), q_des=np.zeros((3, 1)),
                       tau=np.zeros((3, 1)))

    def test_plant_config_loading(self):
        p = dynamics.load_plant({"kind": "chain", "mass": "1.0, 2.0",
                                 "armature": "0.1, 0.0", "static_friction": "0.2, 0.2",
                                 "gravity_enabled": "true", "torque_limit": "50.0"})
        assert p.kind == dynamics.CHAIN
        assert p.n_joints == 2
        assert_allclose(p.mass, [1.0, 2.0])
        assert_allclose(p.armature, [0.1, 0.0])
        assert p.gravity_enabled
        assert p.torque_limit == 50.0
