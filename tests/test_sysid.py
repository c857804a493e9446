import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gainlab import dynamics, sysid
from gainlab.control import GainConfig
from gainlab.dynamics import Trajectory, point_mass
from gainlab.sysid import (CmaesConfig, ExcitationProtocol, SysidBounds,
                           cmaes_minimize, excite, identify, jitter_detect,
                           nn_error, spectral_mse, trajectory_error)


class TestExcite:
    def test_protocol_sample_count(self):
        traj = excite(point_mass(1.0), GainConfig(kp=64.0, kd=8.0))
        assert traj.n_samples == 200
        assert traj.sample_rate == 50.0

    def test_reference_starts_at_q0(self):
        traj = excite(point_mass(1.0), GainConfig(kp=64.0, kd=8.0), q0=[0.4])
        assert_allclose(traj.q_des[0], [0.4])
        assert_allclose(traj.q[0], [0.4])

    def test_reference_period_two_seconds(self):
        # sin(pi t): quarter period peak at t = 0.5 s (sample 25 at 50 Hz)
        traj = excite(point_mass(1.0), GainConfig(kp=64.0, kd=8.0),
                      amplitude=0.1)
        assert traj.q_des[25, 0] == pytest.approx(0.1, abs=1e-9)
        assert traj.q_des[100, 0] == pytest.approx(0.0, abs=1e-9)

    def test_zero_amplitude_settles_to_q0(self):
        plant = point_mass(1.0, viscous_friction=0.5)
        traj = excite(plant, GainConfig(kp=64.0, kd=8.0), amplitude=0.0,
                      q0=[0.2])
        assert_allclose(traj.q[-1], [0.2], atol=1e-9)
        assert_allclose(traj.q_des, 0.2)

    def test_two_link_path_matches_contract(self):
        arm = dynamics.two_link()
        traj = excite(arm, GainConfig(kp=100.0, kd=20.0), duration=1.0)
        assert traj.n_samples == 50
        assert traj.n_joints == 2

    @pytest.mark.parametrize("plant,gains", [
        (dynamics.two_link(link_masses=(1.0, 0.8), link_lengths=(0.5, 0.4)),
         GainConfig(kp=512.0, kd=24.0)),
        (point_mass(1.0), GainConfig(kp=1e6, kd=1.0)),
    ], ids=["two_link", "point_mass"])
    def test_divergence_raises_without_warnings(self, plant, gains):
        # identification_loss scores a diverged candidate as +inf only if
        # the overflow surfaces as SimulationDivergedError
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(dynamics.SimulationDivergedError) as err:
                excite(plant, gains)
            assert sysid.identification_loss(excite(plant, GainConfig(kp=64.0, kd=8.0)),
                                             plant, gains, ExcitationProtocol()) == math.inf
        assert 0 <= err.value.step_index < 400


class TestSpectralMse:
    def test_identical_signals_zero(self):
        a = np.sin(np.linspace(0, 7, 64))
        assert spectral_mse(a, a) == 0.0

    def test_impulse_against_zero(self):
        n = 64
        a = np.zeros(n)
        a[5] = 1.0
        assert spectral_mse(a, np.zeros(n)) == pytest.approx(1.0, rel=1e-12)

    def test_parseval_identity(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=100)
        b = rng.normal(size=100)
        a -= a.mean()
        b -= b.mean()
        n = len(a)
        # mean over bins of |dDFT|^2 equals N * time-domain MSE
        time_mse = float(np.mean((a - b) ** 2))
        assert spectral_mse(a, b) == pytest.approx(n * time_mse, rel=1e-10)

    def test_direct_dft_matches_numpy_fft(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=200)
        b = rng.normal(size=200)
        via_fft = float(np.mean(np.abs(np.fft.fft(a) - np.fft.fft(b)) ** 2))
        assert spectral_mse(a, b) == pytest.approx(via_fft, rel=1e-10)

    def test_pseudo_metric_properties(self):
        rng = np.random.default_rng(10)
        a = rng.normal(size=50)
        b = rng.normal(size=50)
        assert spectral_mse(a, b) >= 0.0
        assert spectral_mse(a, b) == pytest.approx(spectral_mse(b, a))
        assert spectral_mse(a, a) == 0.0

    def test_dc_bin_flag(self):
        a = np.ones(16)
        b = np.zeros(16)
        with_dc = spectral_mse(a, b, include_dc=True)
        without = spectral_mse(a, b, include_dc=False)
        assert with_dc > 0.0
        assert without == pytest.approx(0.0, abs=1e-20)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            spectral_mse(np.zeros(4), np.zeros(5))


class TestCmaes:
    def test_sphere_6d(self):
        bounds = SysidBounds(params=tuple((f"x{i}", -5.0, 5.0) for i in range(6)))
        res = cmaes_minimize(lambda x: float(np.sum(x**2)), bounds,
                             CmaesConfig(seed=1))
        assert res.loss < 1e-8
        assert res.n_evals <= 200 * (4 + int(3 * math.log(6)))

    def test_rosenbrock_2d(self):
        bounds = SysidBounds(params=(("x", -2.048, 2.048), ("y", -2.048, 2.048)))

        def rosen(v):
            return float((1 - v[0]) ** 2 + 100 * (v[1] - v[0] ** 2) ** 2)

        res = cmaes_minimize(rosen, bounds, CmaesConfig(seed=3, max_iter=334))
        assert res.n_evals <= 2010
        assert res.loss < 1e-6

    def test_seeded_determinism(self):
        bounds = SysidBounds(params=tuple((f"x{i}", -1.0, 1.0) for i in range(3)))

        def f(x):
            return float(np.sum((x - 0.2) ** 2))

        a = cmaes_minimize(f, bounds, CmaesConfig(seed=11, max_iter=40))
        b = cmaes_minimize(f, bounds, CmaesConfig(seed=11, max_iter=40))
        assert np.array_equal(a.x, b.x)
        assert a.loss == b.loss
        assert np.array_equal(a.history, b.history)

    def test_best_history_nonincreasing(self):
        bounds = SysidBounds(params=tuple((f"x{i}", -3.0, 3.0) for i in range(4)))
        res = cmaes_minimize(lambda x: float(np.sum(np.abs(x))), bounds,
                             CmaesConfig(seed=5, max_iter=60))
        assert np.all(np.diff(res.history) <= 0.0)

    def test_all_nan_generation_aborts_with_history(self):
        bounds = SysidBounds(params=(("x", 0.0, 1.0),))
        with pytest.raises(sysid.CmaesAbortedError) as exc:
            cmaes_minimize(lambda x: float("nan"), bounds,
                           CmaesConfig(seed=2, max_iter=5))
        assert exc.value.result.n_evals > 0

    def test_optimum_on_boundary_still_found(self):
        bounds = SysidBounds(params=(("x", 0.0, 1.0), ("y", 0.0, 1.0)))
        res = cmaes_minimize(lambda v: float(np.sum(v)), bounds,
                             CmaesConfig(seed=4, max_iter=120))
        assert res.loss < 1e-6


class TestIdentify:
    def test_loss_at_truth_is_tiny(self):
        hidden = point_mass(1.5, armature=0.1, viscous_friction=0.2)
        gains = GainConfig(kp=512.0, kd=24.0)
        ref = excite(hidden, gains)
        loss = sysid.identification_loss(ref, hidden, gains, ExcitationProtocol())
        assert loss < 1e-12

    def test_self_identification_known_plant(self):
        hidden = point_mass(1.5, armature=0.1, viscous_friction=0.2)
        gains = GainConfig(kp=512.0, kd=24.0)
        ref = excite(hidden, gains)
        base = point_mass(1.5)
        fit = identify(ref, gains, SysidBounds.default(),
                       CmaesConfig(seed=2), base)
        assert fit.loss < 1e-6
        resim = sysid.resimulate(fit, gains, base)
        assert float(np.mean((resim.q - ref.q) ** 2)) < 1e-8
        assert np.all(np.diff(fit.history) <= 0.0)

    def test_unmodeled_disturbance_leaves_finite_residual(self):
        # torque ripple the model class cannot express: residual loss is
        # finite and reported; no regime-ordering claim is made
        hidden = point_mass(1.0, viscous_friction=0.3)
        gains = GainConfig(kp=512.0, kd=24.0)
        proto = ExcitationProtocol()
        clean = excite(hidden, gains)
        ripple = 0.05 * np.sin(37.0 * clean.t)[:, None]
        ref = Trajectory(sample_rate=clean.sample_rate, t=clean.t,
                         q=clean.q + 0.001 * np.sin(29.0 * clean.t)[:, None],
                         q_dot=clean.q_dot + ripple, q_des=clean.q_des,
                         tau=clean.tau)
        fit = identify(ref, gains, SysidBounds.default(),
                       CmaesConfig(seed=6, max_iter=40), point_mass(1.0),
                       protocol=proto)
        assert math.isfinite(fit.loss)
        assert fit.loss > 1e-8


class TestTrajectoryError:
    def _traj(self, q, qd):
        n = len(q)
        t = np.arange(n) / 50.0
        z = np.zeros((n, np.shape(q)[1] if np.ndim(q) > 1 else 1))
        return Trajectory(sample_rate=50.0, t=t, q=q, q_dot=qd, q_des=z, tau=z)

    def test_identical_zero(self):
        a = self._traj(np.random.default_rng(0).normal(size=(10, 2)),
                       np.zeros((10, 2)))
        assert trajectory_error(a, a) == 0.0

    def test_constant_offset_formula(self):
        q = np.zeros((8, 2))
        a = self._traj(q, np.zeros((8, 2)))
        q2 = q.copy()
        q2[:, 0] += 0.3
        b = self._traj(q2, np.zeros((8, 2)))
        assert trajectory_error(a, b) == pytest.approx(0.09)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        a = self._traj(rng.normal(size=(12, 1)), rng.normal(size=(12, 1)))
        b = self._traj(rng.normal(size=(12, 1)), rng.normal(size=(12, 1)))
        assert trajectory_error(a, b) == pytest.approx(trajectory_error(b, a))

    def test_mismatch_rejected(self):
        a = self._traj(np.zeros((5, 1)), np.zeros((5, 1)))
        b = self._traj(np.zeros((6, 1)), np.zeros((6, 1)))
        with pytest.raises(ValueError):
            trajectory_error(a, b)


class TestNnError:
    def _pair(self):
        rng = np.random.default_rng(2)
        n = 15
        t = np.arange(n) / 50.0
        z = np.zeros((n, 2))
        a = Trajectory(sample_rate=50.0, t=t, q=rng.normal(size=(n, 2)),
                       q_dot=rng.normal(size=(n, 2)), q_des=z, tau=z)
        b = Trajectory(sample_rate=50.0, t=t, q=rng.normal(size=(n, 2)),
                       q_dot=rng.normal(size=(n, 2)), q_des=z, tau=z)
        return a, b

    def test_identical_trajectories(self):
        a, _ = self._pair()
        pol = lambda q, qd: 2.0 * q - qd
        assert nn_error(pol, a, a) == 0.0

    def test_constant_policy(self):
        a, b = self._pair()
        assert nn_error(lambda q, qd: np.array([1.0, -1.0]), a, b) == 0.0

    def test_linear_policy_identity(self):
        a, b = self._pair()
        K = np.array([[1.0, 0.5, -0.2, 0.0], [0.0, 2.0, 0.1, -1.0]])

        def pol(q, qd):
            return K @ np.concatenate([q, qd])

        sa = np.hstack([a.q, a.q_dot])
        sb = np.hstack([b.q, b.q_dot])
        direct = math.sqrt(np.mean(np.sum(((sa - sb) @ K.T) ** 2, axis=1)))
        assert nn_error(pol, a, b) == pytest.approx(direct, rel=1e-12)


class TestJitterDetect:
    def _traj_with_tail(self, qd_tail, rate=50.0, lead=1.0):
        n_lead = int(lead * rate)
        qd = np.concatenate([np.zeros(n_lead), qd_tail])
        n = len(qd)
        t = np.arange(n) / rate
        z = np.zeros((n, 1))
        return Trajectory(sample_rate=rate, t=t, q=z, q_dot=qd[:, None],
                          q_des=z, tau=z)

    def test_constant_velocity_tail_not_flagged(self):
        traj = self._traj_with_tail(np.full(100, 0.5))
        rep = jitter_detect(traj, window=2.0, threshold=0.04)
        assert not rep.flagged
        assert rep.max_std == 0.0

    def test_paper_separation_values(self):
        rng = np.random.default_rng(3)
        settled = self._traj_with_tail(rng.normal(0.0, 0.001, size=100))
        osc = self._traj_with_tail(
            0.675 * math.sqrt(2.0) * np.sin(2 * math.pi * 7 *
                                            np.arange(100) / 50.0))
        assert not jitter_detect(settled).flagged
        assert jitter_detect(osc).flagged

    def test_strict_threshold_boundary(self):
        tail = np.array([-1.0, 1.0] * 50)  # std exactly 1.0
        traj = self._traj_with_tail(tail)
        rep = jitter_detect(traj, window=2.0, threshold=1.0)
        assert rep.max_std == pytest.approx(1.0)
        assert not rep.flagged

    def test_invariant_to_constant_velocity_shift(self):
        rng = np.random.default_rng(4)
        tail = rng.normal(0.0, 0.03, size=100)
        r0 = jitter_detect(self._traj_with_tail(tail))
        r1 = jitter_detect(self._traj_with_tail(tail + 5.0))
        assert r0.max_std == pytest.approx(r1.max_std)
        assert r0.flagged == r1.flagged

    def test_too_short_rejected(self):
        traj = self._traj_with_tail(np.zeros(10), lead=0.0)
        with pytest.raises(ValueError):
            jitter_detect(traj, window=2.0)
