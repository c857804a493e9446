import itertools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from gainlab import dynamics, sysid
from gainlab.control import GainConfig
from gainlab.dynamics import Trajectory, chain, point_mass, two_link
from gainlab.sysid import (CmaesConfig, JitterOverflowError, SysidBounds, cmaes_minimize,
                           excite, identify, jitter_detect, nn_error, spectral_mse,
                           trajectory_error)
from oracles import identification_loss, loop_cmaes_minimize, loop_identify

# the light 2R arm diverges at Kp=512, Kd=24 unless its armature is >~0.1
LIGHT_ARM = dict(link_masses=(1.0, 0.8), link_lengths=(0.5, 0.4))


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
        traj = excite(point_mass(1.0), GainConfig(kp=64.0, kd=8.0))
        assert traj.q_des[25, 0] == pytest.approx(0.1, abs=1e-9)
        assert traj.q_des[100, 0] == pytest.approx(0.0, abs=1e-9)

    def test_two_link_path_matches_contract(self):
        arm = dynamics.two_link()
        traj = excite(arm, GainConfig(kp=100.0, kd=20.0))
        assert traj.n_samples == 200
        assert traj.n_joints == 2

    @pytest.mark.parametrize("plant", [
        point_mass(1.5, static_friction=0.3, dynamic_friction_ratio=0.5),
        chain([1.0, 0.4, 2.0], viscous_friction=[0.2, 0.0, 0.5]),
        two_link(**LIGHT_ARM, gravity_enabled=True, static_friction=0.1),
    ], ids=["point_mass", "chain", "two_link"])
    def test_lane_stacked_plant_equals_separate_plants(self, plant):
        # per-lane armature and friction (B, 1) columns: lane i is plant i
        # excited alone, bitwise
        rows = {"armature": [[0.3], [0.1], [0.5]], "static_friction": [[0.2], [0.0], [0.6]],
                "dynamic_friction_ratio": [[0.5], [1.0], [0.1]],
                "viscous_friction": [[0.0], [0.7], [0.3]]}
        gains = GainConfig(kp=200.0, kd=20.0, gravity_comp=True)
        stacked = excite(replace(plant, **rows), gains, q0=[0.1] * plant.n_joints)
        assert len(stacked) == 3
        for i, lane in enumerate(stacked):
            one = replace(plant, **{k: v[i][0] for k, v in rows.items()})
            alone = excite(one, gains, q0=[0.1] * plant.n_joints)
            for name in ("t", "q", "q_dot", "q_des", "tau"):
                assert np.array_equal(getattr(lane, name), getattr(alone, name)), (i, name)

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
            assert identification_loss(excite(plant, GainConfig(kp=64.0, kd=8.0)),
                                       plant, gains) == math.inf
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

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            spectral_mse(np.zeros(4), np.zeros(5))

    def test_empty_signal_has_no_bins(self):
        with pytest.raises(ValueError, match="0-sample"):
            spectral_mse(np.ones(0), np.zeros(0))
        assert spectral_mse(np.ones(1), np.zeros(1)) == 1.0


# 0 or at least 1e-6 in magnitude, so no squared difference underflows
_samples = st.floats(-1e3, 1e3).map(lambda x: 0.0 if abs(x) < 1e-6 else x)


@st.composite
def signal_pairs(draw):
    n = draw(st.integers(1, 64))
    shape = (n,) if draw(st.booleans()) else (n, draw(st.integers(1, 3)))
    size = int(np.prod(shape))
    a, b = (np.reshape(draw(st.lists(_samples, min_size=size, max_size=size)), shape)
            for _ in range(2))
    return a, b


class TestSpectralMseProperties:
    @settings(deadline=None, derandomize=True, max_examples=200)
    @given(pair=signal_pairs())
    def test_parseval_with_dc(self, pair):
        # with the DC bin, (1/N) sum_k |dDFT_k|^2 = sum_n d_n^2 per channel
        a, b = pair
        assert_allclose(spectral_mse(a, b), np.sum((a - b) ** 2), rtol=1e-12)

    @settings(deadline=None, derandomize=True, max_examples=200)
    @given(pair=signal_pairs())
    def test_symmetric(self, pair):
        a, b = pair
        assert spectral_mse(a, b) == spectral_mse(b, a)


def rowwise(f):
    """The batch objective that scores each row of X with ``f``, in order."""
    return lambda X: [f(x) for x in X]


class TestCmaes:
    def test_sphere_6d(self):
        bounds = SysidBounds(params=tuple((f"x{i}", -5.0, 5.0) for i in range(6)))
        res = cmaes_minimize(rowwise(lambda x: float(np.sum(x**2))), bounds,
                             CmaesConfig(seed=1))
        assert res.loss < 1e-8
        assert res.n_evals <= 200 * (4 + int(3 * math.log(6)))

    def test_rosenbrock_2d(self):
        bounds = SysidBounds(params=(("x", -2.048, 2.048), ("y", -2.048, 2.048)))

        def rosen(v):
            return float((1 - v[0]) ** 2 + 100 * (v[1] - v[0] ** 2) ** 2)

        res = cmaes_minimize(rowwise(rosen), bounds, CmaesConfig(seed=3, max_iter=334))
        assert res.n_evals <= 2010
        assert res.loss < 1e-6

    def test_seeded_determinism(self):
        bounds = SysidBounds(params=tuple((f"x{i}", -1.0, 1.0) for i in range(3)))

        def f(x):
            return float(np.sum((x - 0.2) ** 2))

        a = cmaes_minimize(rowwise(f), bounds, CmaesConfig(seed=11, max_iter=40))
        b = cmaes_minimize(rowwise(f), bounds, CmaesConfig(seed=11, max_iter=40))
        assert np.array_equal(a.x, b.x)
        assert a.loss == b.loss
        assert np.array_equal(a.history, b.history)

    def test_best_history_nonincreasing(self):
        bounds = SysidBounds(params=tuple((f"x{i}", -3.0, 3.0) for i in range(4)))
        res = cmaes_minimize(rowwise(lambda x: float(np.sum(np.abs(x)))), bounds,
                             CmaesConfig(seed=5, max_iter=60))
        assert np.all(np.diff(res.history) <= 0.0)

    def test_all_nan_generation_aborts_with_history(self):
        bounds = SysidBounds(params=(("x", 0.0, 1.0),))
        with pytest.raises(sysid.CmaesAbortedError) as exc:
            cmaes_minimize(rowwise(lambda x: float("nan")), bounds,
                           CmaesConfig(seed=2, max_iter=5))
        assert exc.value.result.n_evals > 0

    def test_optimum_on_boundary_still_found(self):
        bounds = SysidBounds(params=(("x", 0.0, 1.0), ("y", 0.0, 1.0)))
        res = cmaes_minimize(rowwise(lambda v: float(np.sum(v))), bounds,
                             CmaesConfig(seed=4, max_iter=120))
        assert res.loss < 1e-6


def _sphere(x):
    return float(np.sum((x - 0.3) ** 2))


def _rosen(v):
    return float((1 - v[0]) ** 2 + 100 * (v[1] - v[0] ** 2) ** 2)


def _holes(x):
    # NaN, None and +inf regions, so candidates rank last in every way
    s = float(np.sum(x))
    if s > 1.5:
        return float("nan")
    if s < -2.0:
        return None
    if x[0] > 1.8:
        return math.inf
    return _sphere(x)


def _plateau(x):
    # zero on a whole diamond: ties that only candidate order breaks
    return float(max(0.0, np.sum(np.abs(x)) - 3.0))


class TestCmaesMatchesLoopOracle:
    """One objective call per generation gives the per-candidate loop's
    FitResult exactly."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("f,dim", [(_sphere, 3), (_rosen, 2), (_holes, 2), (_plateau, 2)],
                             ids=["sphere", "rosenbrock", "nan-none-inf", "plateau"])
    def test_fit_result_fields(self, f, dim, seed):
        bounds = SysidBounds(params=tuple((f"x{i}", -2.0, 2.0) for i in range(dim)))
        cfg = CmaesConfig(seed=seed, max_iter=30, sigma0=0.8 + seed)
        calls = []

        def batch(X):
            calls.append(X.shape)
            return [f(x) for x in X]

        got = cmaes_minimize(batch, bounds, cfg)
        want = loop_cmaes_minimize(f, bounds, cfg)
        assert np.array_equal(got.x, want.x)
        assert got.params == want.params
        assert got.loss == want.loss
        assert np.array_equal(got.history, want.history)
        assert got.n_evals == want.n_evals
        lam = 4 + int(3 * math.log(dim))
        assert calls == [(lam, dim)] * 30

    def test_aborted_partial_results_match(self):
        bounds = SysidBounds(params=(("x", 0.0, 1.0), ("y", 0.0, 1.0)))
        cfg = CmaesConfig(seed=5, max_iter=20)

        def late_nan(x):  # finite for the first few generations only
            late_nan.calls += 1
            return float("nan") if late_nan.calls > 18 else _sphere(x)

        late_nan.calls = 0
        with pytest.raises(sysid.CmaesAbortedError, match="no candidate") as got:
            cmaes_minimize(lambda X: [late_nan(x) for x in X], bounds, cfg)
        late_nan.calls = 0
        with pytest.raises(sysid.CmaesAbortedError) as want:
            loop_cmaes_minimize(late_nan, bounds, cfg)
        a, b = got.value.result, want.value.result
        assert np.array_equal(a.x, b.x) and a.loss == b.loss
        assert np.array_equal(a.history, b.history) and a.n_evals == b.n_evals == 18 + 6


def _fits_equal(a, b):
    return (np.array_equal(a.x, b.x) and a.params == b.params and a.loss == b.loss
            and np.array_equal(a.history, b.history) and a.n_evals == b.n_evals)


class TestLockstepCmaesMatchesLoneRuns:
    """k searches in lockstep: each outcome equals the search's lone
    per-candidate run bitwise, a chosen search aborting at a chosen
    generation while the others go on, and each objective call sees a
    point array for exactly the searches still running."""

    @settings(max_examples=60, deadline=None, print_blob=True)
    @given(data=st.data(), k=st.integers(1, 4), dim=st.integers(2, 3))
    def test_outcomes_equal_lone_runs(self, data, k, dim):
        bounds = SysidBounds(params=tuple((f"x{i}", -2.0, 2.0) for i in range(dim)))
        configs = tuple(CmaesConfig(
            seed=data.draw(st.integers(0, 2**32 - 1)),
            popsize=data.draw(st.sampled_from([None, 4, 5, 9])),
            max_iter=data.draw(st.integers(1, 6)),
            sigma0=data.draw(st.floats(0.05, 4.0))) for _ in range(k))
        # per search: its function and the generation (if any) that scores all NaN
        fs = [data.draw(st.sampled_from([_sphere, _rosen, _holes, _plateau])) for _ in configs]
        aborts = [data.draw(st.none() | st.integers(0, c.max_iter - 1)) for c in configs]
        lams = [c.popsize or 4 + int(3 * math.log(dim)) for c in configs]

        def lone(i):
            calls = itertools.count()

            def f(x):
                return math.nan if next(calls) // lams[i] == aborts[i] else fs[i](x)

            try:
                return loop_cmaes_minimize(f, bounds, configs[i])
            except sysid.CmaesAbortedError as exc:
                return exc

        want = [lone(i) for i in range(k)]
        n_gens = [len(w.result.history) + 1 if isinstance(w, sysid.CmaesAbortedError)
                  else c.max_iter for w, c in zip(want, configs)]
        gens = [0] * k

        def lockstep(Xs):
            assert len(Xs) == k
            losses = []
            for i, X in enumerate(Xs):
                assert (X is not None) == (gens[i] < n_gens[i])
                if X is not None:
                    assert X.shape == (lams[i], dim)
                    losses.append([math.nan if gens[i] == aborts[i] else fs[i](x) for x in X])
                    gens[i] += 1
            return losses

        got = cmaes_minimize(lockstep, bounds, configs)
        assert gens == n_gens
        assert len(got) == k
        for g, w in zip(got, want):
            assert type(g) is type(w)
            if isinstance(w, sysid.CmaesAbortedError):
                g, w = g.result, w.result
            assert _fits_equal(g, w)

    def test_loss_list_count_must_match_live_searches(self):
        bounds = SysidBounds(params=(("x", 0.0, 1.0),))
        configs = (CmaesConfig(seed=1), CmaesConfig(seed=2))
        with pytest.raises(ValueError, match="1 loss lists for 2 live searches"):
            cmaes_minimize(lambda Xs: [[0.0] * len(Xs[0])], bounds, configs)


class TestIdentifyMatchesLoopOracle:
    """A generation as lanes of one excitation gives the per-candidate
    loop's FitResult exactly, diverging candidates included."""

    CASES = {
        "point_mass": (point_mass(1.5, armature=0.1, static_friction=0.3,
                                  viscous_friction=0.2),
                       point_mass(1.5), GainConfig(kp=512.0, kd=24.0)),
        "chain": (chain([1.0, 0.5], armature=0.1, static_friction=0.2,
                        dynamic_friction_ratio=0.5, viscous_friction=0.3),
                  chain([1.0, 0.5]), GainConfig(kp=[100.0, 25.0], kd=[20.0, 10.0])),
        # m_eff = 1e-4 + armature: candidates with armature below ~1e-3
        # overflow; between ~1.5e-3 and ~4e-3 they grow without overflowing
        # and are rarely drawn
        "point_mass_diverging": (point_mass(1e-4, armature=0.3), point_mass(1e-4),
                                 GainConfig(kp=64.0, kd=0.4)),
        "two_link_diverging": (two_link(**LIGHT_ARM, armature=0.3), two_link(**LIGHT_ARM),
                               GainConfig(kp=512.0, kd=24.0)),
    }

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_fit_result_fields(self, case, seed, monkeypatch):
        hidden, base, gains = self.CASES[case]
        ref = excite(hidden, gains)
        cfg = CmaesConfig(seed=seed, max_iter=6)
        want = loop_identify(ref, gains, SysidBounds.default(), cfg, base)
        # the losses identify's objective hands to CMA-ES, generation by generation
        scored = []
        minimize = sysid.cmaes_minimize
        monkeypatch.setattr(sysid, "cmaes_minimize", lambda objective, *args: minimize(
            lambda X: scored.extend(objective(X)) or scored[-len(X):], *args))
        got = identify(ref, gains, SysidBounds.default(), cfg, base)
        assert _fits_equal(got, want)
        # a diverged lane scores +inf, and the other lanes of its generation go on
        assert (math.inf in scored) == case.endswith("diverging")


class TestIdentify:
    def test_loss_at_truth_is_tiny(self):
        hidden = point_mass(1.5, armature=0.1, viscous_friction=0.2)
        gains = GainConfig(kp=512.0, kd=24.0)
        ref = excite(hidden, gains)
        loss = identification_loss(ref, hidden, gains)
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
        clean = excite(hidden, gains)
        ripple = 0.05 * np.sin(37.0 * clean.t)[:, None]
        ref = Trajectory(sample_rate=clean.sample_rate, t=clean.t,
                         q=clean.q + 0.001 * np.sin(29.0 * clean.t)[:, None],
                         q_dot=clean.q_dot + ripple, q_des=clean.q_des,
                         tau=clean.tau)
        fit = identify(ref, gains, SysidBounds.default(),
                       CmaesConfig(seed=6, max_iter=40), point_mass(1.0))
        assert math.isfinite(fit.loss)
        assert fit.loss > 1e-8


class TestOverflowingSpectra:
    """A light point mass whose excitation grows to 1e61-1e220 without
    overflowing inside the rollout: its spectra overflow, and the loss is
    +inf with no warning (pytest turns any RuntimeWarning into an error)."""

    GAINS = GainConfig(kp=512.0, kd=24.0)

    def _reference(self):
        return excite(point_mass(0.01, armature=0.3), self.GAINS)

    @pytest.mark.parametrize("armature", [0.05, 0.07])
    def test_identification_loss_is_inf(self, armature):
        loss = identification_loss(self._reference(),
                                   point_mass(0.01, armature=armature),
                                   self.GAINS)
        assert loss == math.inf

    def test_growing_but_representable_loss_stays_finite(self):
        loss = identification_loss(self._reference(), point_mass(0.01, armature=0.1),
                                   self.GAINS)
        assert loss == pytest.approx(3.53e128, rel=1e-3)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_identify_scores_overflowing_lanes_inf(self, seed, monkeypatch):
        bounds = {n: (lo, hi) for n, lo, hi in SysidBounds.default().params}
        bounds["armature"] = (0.04, 0.12)
        bounds = SysidBounds(params=tuple((n, lo, hi) for n, (lo, hi) in bounds.items()))
        ref, cfg = self._reference(), CmaesConfig(seed=seed, max_iter=4)
        want = loop_identify(ref, self.GAINS, bounds, cfg, point_mass(0.01))
        lane_losses = []
        loss = sysid._spectral_loss
        monkeypatch.setattr(sysid, "_spectral_loss",
                            lambda *args: lane_losses.append(loss(*args)) or lane_losses[-1])
        got = identify(ref, self.GAINS, bounds, cfg, point_mass(0.01))
        assert _fits_equal(got, want)
        assert math.inf in lane_losses and math.isfinite(got.loss)


class TestResimulate:
    def test_two_joint_fit_resimulates_under_its_own_gains(self):
        # per-joint gains: the fit's re-simulation must keep Kp=[100, 25] and
        # Kd=[20, 10] rather than spreading one joint's gains over both
        gains = GainConfig(kp=[100.0, 25.0], kd=[20.0, 10.0])
        hidden = chain([1.0, 0.5], armature=0.1, static_friction=0.2,
                       dynamic_friction_ratio=0.5, viscous_friction=0.3)
        base = chain([1.0, 0.5])
        ref = excite(hidden, gains)
        fit = identify(ref, gains, SysidBounds.default(),
                       CmaesConfig(seed=1, max_iter=5), base)
        fitted = chain([1.0, 0.5], **{n: fit.params[n] for n in sysid.FREE_PARAMS})
        resim = sysid.resimulate(fit, gains, base)
        direct = excite(fitted, gains)
        for name in ("t", "q", "q_dot", "q_des", "tau"):
            assert np.array_equal(getattr(resim, name), getattr(direct, name)), name
        loss = spectral_mse(ref.q, resim.q) + spectral_mse(ref.q_dot, resim.q_dot)
        assert loss == fit.loss


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

    def test_overflowing_std_fails_typed_without_warnings(self):
        # a finite tail whose squared deviations overflow
        traj = self._traj_with_tail(np.array([-1e200, 1e200] * 50))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(JitterOverflowError, match="overflow"):
                jitter_detect(traj, window=2.0)

    def test_window_under_one_sample_rejected(self):
        # round(0.005 s * 50 Hz) = 0 samples: no tail to take the std of
        traj = self._traj_with_tail(np.zeros(100))
        with pytest.raises(ValueError, match="must hold a sample"):
            jitter_detect(traj, window=0.005)
