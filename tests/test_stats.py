import itertools
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from gainlab import stats
from gainlab.stats import (SweepOutcome, barnard_exact, bonferroni,
                           logistic_fit, mannwhitney_u, ols_log_fit,
                           region_test)
from oracles import (brute_force_barnard, dense_barnard, full_table_barnard,
                     loop_mannwhitney_u, normal_approx_mwu_p,
                     three_call_log_binom_coef)


class TestLogisticFit:
    def _cells(self):
        return [(kp, kd) for kd in (2.0, 8.0, 32.0, 128.0)
                for kp in (16.0, 64.0, 256.0, 1024.0)]

    def _full_grid(self):
        from gainlab.control import default_grid

        return list(default_grid().cells())

    def test_generative_recovery(self):
        rng = np.random.default_rng(15)
        beta_true = np.array([0.0, -0.2, 0.3])
        rows = []
        for kp, kd in self._full_grid():
            eta = beta_true @ [1.0, math.log2(kp), math.log2(kd)]
            p = 1.0 / (1.0 + math.exp(-eta))
            n = 10_000
            rows.append(SweepOutcome(kp=kp, kd=kd,
                                     successes=int(rng.binomial(n, p)),
                                     trials=n))
        fit = logistic_fit(rows)
        assert fit.converged
        assert_allclose(fit.coef, beta_true, atol=0.02)

    def test_constant_success_null_model(self):
        rows = [SweepOutcome(kp=kp, kd=kd, successes=70, trials=100)
                for kp, kd in self._cells()]
        fit = logistic_fit(rows)
        assert abs(fit.coef[1]) < 2 * fit.stderr[1]
        assert abs(fit.coef[2]) < 2 * fit.stderr[2]

    def test_monotone_table_sign_pattern(self):
        # success falls with Kp, rises with Kd -> beta_kp < 0 < beta_kd
        rows = []
        for kp, kd in self._cells():
            p = 0.1 + 0.8 * (math.log2(kd) - 1) / 6 * (10 - math.log2(kp)) / 6
            rows.append(SweepOutcome(kp=kp, kd=kd,
                                     successes=int(round(100 * p)), trials=100))
        fit = logistic_fit(rows)
        assert fit.coef[1] < 0 < fit.coef[2]

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(16)
        rows = [SweepOutcome(kp=kp, kd=kd,
                             successes=int(rng.integers(10, 90)), trials=100)
                for kp, kd in self._cells()]
        fit1 = logistic_fit(rows)
        fit2 = logistic_fit(rows[::-1])
        assert_allclose(fit1.coef, fit2.coef, atol=1e-9)

    def test_perfect_separation_flagged(self):
        rows = [SweepOutcome(kp=kp, kd=kd,
                             successes=100 if kp < 100 else 0, trials=100)
                for kp, kd in self._cells()]
        with pytest.warns(UserWarning):
            fit = logistic_fit(rows)
        assert fit.separation_flag

    def test_needs_three_cells(self):
        rows = [SweepOutcome(kp=16.0, kd=2.0, successes=5, trials=10),
                SweepOutcome(kp=32.0, kd=2.0, successes=5, trials=10)]
        with pytest.raises(ValueError):
            logistic_fit(rows)


class TestBarnard:
    def test_equal_proportions_large_p(self):
        assert barnard_exact(5, 5, 5, 5, side="greater") >= 0.5

    def test_extreme_table_small_p_vs_oracle(self):
        p = barnard_exact(10, 0, 0, 10, side="greater")
        assert p < 1e-4
        oracle = brute_force_barnard(10, 0, 0, 10, side="greater")
        assert p == pytest.approx(oracle, abs=1e-6)

    def test_mirror_consistency(self):
        p_fwd = barnard_exact(8, 2, 3, 7, side="greater")
        p_mirror = barnard_exact(3, 7, 8, 2, side="less")
        assert p_fwd == pytest.approx(p_mirror, abs=1e-9)

    def test_small_margin_sweep_vs_oracle(self):
        # margins <= 5 here; the full <= 8 sweep runs in the acceptance suite
        for n1, n2 in itertools.product((2, 3, 5), repeat=2):
            for a in range(n1 + 1):
                for c in range(n2 + 1):
                    p = barnard_exact(a, n1 - a, c, n2 - c, side="greater")
                    oracle = brute_force_barnard(a, n1 - a, c, n2 - c,
                                                 side="greater")
                    assert p == pytest.approx(oracle, abs=1e-3), (a, n1, c, n2)

    def test_monotone_in_evidence(self):
        # adding a success to the favored group never increases p
        for y in range(5):
            p_lo = barnard_exact(y, 5 - y, 2, 4, side="greater")
            p_hi = barnard_exact(y + 1, 4 - y, 2, 4, side="greater")
            assert p_hi <= p_lo + 1e-12

    def test_degenerate_margins_rejected(self):
        with pytest.raises(ValueError):
            barnard_exact(0, 0, 3, 4)

    def test_p_in_unit_interval(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            n1, n2 = rng.integers(1, 12, size=2)
            a = int(rng.integers(0, n1 + 1))
            c = int(rng.integers(0, n2 + 1))
            for side in ("greater", "less"):
                p = barnard_exact(a, int(n1 - a), c, int(n2 - c), side=side)
                assert 0.0 <= p <= 1.0


def assert_matches_dense(a, b, c, d, side):
    p = barnard_exact(a, b, c, d, side=side)
    p_dense = dense_barnard(a, b, c, d, side=side)
    if p_dense == 0.0:
        assert p == 0.0, (a, b, c, d, side)
    else:
        assert abs(p - p_dense) <= 1e-12 * p_dense, (a, b, c, d, side, p, p_dense)


class TestBarnardMatchesDenseOracle:
    """The run/prefix-sum tail against the dense region-matrix product."""

    @pytest.mark.parametrize("side", ["greater", "less"])
    def test_every_table_with_margins_up_to_8(self, side):
        for n1, n2 in itertools.product(range(1, 9), repeat=2):
            for a in range(n1 + 1):
                for c in range(n2 + 1):
                    assert_matches_dense(a, n1 - a, c, n2 - c, side)

    @pytest.mark.parametrize("side", ["greater", "less"])
    def test_random_tables_with_margins_up_to_60(self, side):
        rng = np.random.default_rng(23)
        for _ in range(150):
            n1, n2 = (int(n) for n in rng.integers(1, 61, size=2))
            a = int(rng.integers(0, n1 + 1))
            c = int(rng.integers(0, n2 + 1))
            assert_matches_dense(a, n1 - a, c, n2 - c, side)

    @pytest.mark.parametrize("side", ["greater", "less"])
    def test_bench_sized_table(self, side):
        # CO pools 13 cells x 40 trials against 36 x 40
        assert_matches_dense(443, 77, 562, 878, side)

    def test_large_region_table(self):
        # 1300 vs 3600 pooled trials, a close call (p of a few percent)
        assert_matches_dense(546, 754, 1404, 2196, "greater")

    def test_mirror_pair(self):
        # the paper's CO effect: 85.1% against 39.0%
        assert_matches_dense(85, 15, 39, 61, "greater")
        assert_matches_dense(39, 61, 85, 15, "less")
        assert barnard_exact(85, 15, 39, 61, side="greater") == pytest.approx(
            barnard_exact(39, 61, 85, 15, side="less"), rel=1e-12)


margins = st.integers(min_value=1, max_value=30)


@st.composite
def tables(draw):
    n1, n2 = draw(margins), draw(margins)
    a = draw(st.integers(min_value=0, max_value=n1))
    c = draw(st.integers(min_value=0, max_value=n2))
    return a, n1 - a, c, n2 - c


class TestBarnardProperties:
    @settings(deadline=None, derandomize=True, max_examples=60)
    @given(table=tables(), side=st.sampled_from(["greater", "less"]))
    def test_p_in_unit_interval(self, table, side):
        assert 0.0 <= barnard_exact(*table, side=side) <= 1.0

    @settings(deadline=None, derandomize=True, max_examples=60)
    @given(table=tables())
    def test_success_moved_into_group_1_never_raises_p(self, table):
        a, b, c, d = table
        assume(b > 0)
        p_lo = barnard_exact(a, b, c, d, side="greater")
        p_hi = barnard_exact(a + 1, b - 1, c, d, side="greater")
        assert p_hi <= p_lo + 1e-12

    @settings(deadline=None, derandomize=True, max_examples=60)
    @given(table=tables())
    def test_mirror_symmetry(self, table):
        a, b, c, d = table
        assert barnard_exact(a, b, c, d, side="greater") == pytest.approx(
            barnard_exact(c, d, a, b, side="less"), abs=1e-9)


class TestLogBinomCoef:
    def test_equals_three_call_form_bitwise(self):
        for n in range(2001):
            assert np.array_equal(stats._log_binom_coef(n), three_call_log_binom_coef(n)), n


def assert_equals_full_table(a, b, c, d, side):
    p = barnard_exact(a, b, c, d, side=side)
    assert p == full_table_barnard(a, b, c, d, side=side), (a, b, c, d, side, p)


@st.composite
def wide_tables(draw):
    n1, n2 = draw(st.integers(1, 300)), draw(st.integers(1, 300))
    a = draw(st.integers(min_value=0, max_value=n1))
    c = draw(st.integers(min_value=0, max_value=n2))
    return a, n1 - a, c, n2 - c


class TestBarnardMatchesFullTableOracle:
    """Building only the region's pmf columns, in blocks of grid rows and
    of y1 rows, leaves every p-value bitwise that of the full tables."""

    @pytest.mark.parametrize("side", ["greater", "less"])
    def test_bench_sized_table(self, side):
        assert_equals_full_table(443, 77, 562, 878, side)

    def test_large_region_table(self):
        assert_equals_full_table(546, 754, 1404, 2196, "greater")

    @pytest.mark.parametrize("table,side", [((0, 37, 52, 0), "greater"),
                                            ((37, 0, 0, 52), "less")])
    def test_region_of_every_cell(self, table, side):
        _, rows, start, stop = stats._region_runs(table[0], table[2], 37, 52, side)
        assert rows.tolist() == list(range(38))
        assert (start == 0).all() and (stop == 53).all()
        assert_equals_full_table(*table, side)

    # the observed cell alone: (y1, y2) = (37, 0), and (0, 52) at the head
    # of the reversed y2 axis
    @pytest.mark.parametrize("table,side", [((37, 0, 0, 52), "greater"),
                                            ((0, 37, 52, 0), "less")])
    def test_region_of_one_cell(self, table, side):
        _, rows, start, stop = stats._region_runs(table[0], table[2], 37, 52, side)
        assert (rows.tolist(), start.tolist(), stop.tolist()) == ([table[0]], [0], [1])
        assert_equals_full_table(*table, side)

    @pytest.mark.parametrize("n1", [62, 63, 64])
    @pytest.mark.parametrize("side", ["greater", "less"])
    def test_margins_around_a_block_of_y1_rows(self, n1, side):
        n2 = 1023
        assert stats._BLOCK_BYTES // (8 * (n2 + 1)) == 64  # y1 rows per block
        assert_equals_full_table(n1 // 2, n1 - n1 // 2, n2 // 3, n2 - n2 // 3, side)

    @pytest.mark.parametrize("grid_rows", [1, 7, 2000, 2001, 2002])
    def test_grid_blocks_of_any_row_count(self, monkeypatch, grid_rows):
        a, b, c, d = 85, 15, 39, 61
        _, rows, _, stop = stats._region_runs(a, c, a + b, c + d, "greater")
        monkeypatch.setattr(stats, "_BLOCK_BYTES", grid_rows * 8 * (stop.max() + 2 * len(rows)))
        assert_equals_full_table(a, b, c, d, "greater")

    @settings(deadline=None, derandomize=True, max_examples=60)
    @given(table=wide_tables(), side=st.sampled_from(["greater", "less"]))
    def test_equals_full_table_oracle(self, table, side):
        assert_equals_full_table(*table, side)

    def test_bench_sized_table_peak_memory(self):
        tracemalloc.start()
        try:
            barnard_exact(443, 77, 562, 878)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6, peak


@st.composite
def tie_free_samples(draw):
    """Two samples with n1, n2 >= 10 and n1*n2 <= 400, as a random split of
    distinct values (every rank arrangement, so every U, can be drawn)."""
    n1 = draw(st.integers(10, 40))
    n2 = draw(st.integers(10, 400 // n1))
    pooled = np.array(draw(st.permutations(range(n1 + n2))), dtype=float) / 7.0
    return pooled[:n1], pooled[n1:]


class TestMannWhitney:
    def test_hand_enumeration_example(self):
        u, p = mannwhitney_u([1, 2, 3], [4, 5, 6], side="less")
        assert u == 0.0
        assert p == pytest.approx(1.0 / math.comb(6, 3))
        assert p == pytest.approx(0.05)

    def test_identical_samples(self):
        x = [1.0, 2.0, 2.0, 3.0]
        for side in ("less", "greater"):
            _, p = mannwhitney_u(x, list(x), side=side)
            assert p >= 0.5

    def test_exact_agrees_with_normal_approx_on_borderline(self):
        # same tie-free data at n1*n2 = 400: the library takes the exact
        # branch; the hand-computed normal approximation must agree
        rng = np.random.default_rng(18)
        x = rng.normal(0.0, 1.0, size=20)
        y = rng.normal(0.8, 1.0, size=20)
        u_exact, p_exact = mannwhitney_u(x, y, side="less")
        u_norm, p_norm = normal_approx_mwu_p(x, y, side="less")
        assert u_exact == u_norm
        assert p_exact == pytest.approx(p_norm, abs=0.01)

    @settings(max_examples=200, deadline=None, print_blob=True)
    @given(pair=tie_free_samples(), side=st.sampled_from(["less", "greater"]))
    def test_exact_agrees_with_normal_approx_at_large_n(self, pair, side):
        # every U for n1, n2 >= 10 with n1*n2 <= 400 (the exact branch):
        # the worst gap is 0.0043, at 10 x 10
        x, y = pair
        u_exact, p_exact = mannwhitney_u(x, y, side=side)
        u_norm, p_norm = normal_approx_mwu_p(x, y, side=side)
        assert u_exact == u_norm
        assert abs(p_exact - p_norm) <= 0.01

    def test_greater_less_relationship(self):
        x = [0.1, 0.5, 0.9]
        y = [0.2, 0.4, 1.3]
        _, p_less = mannwhitney_u(x, y, side="less")
        _, p_greater = mannwhitney_u(x, y, side="greater")
        assert p_less + p_greater >= 1.0  # overlap at the observed U

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            mannwhitney_u([], [1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_sample_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            mannwhitney_u([0.1, bad], [0.2, 0.3])
        with pytest.raises(ValueError, match="finite"):
            mannwhitney_u([0.1, 0.4], [bad])

    @settings(max_examples=300, deadline=None, print_blob=True)
    @given(x=st.lists(st.integers(0, 6), min_size=1, max_size=30),
           y=st.lists(st.integers(0, 6), min_size=1, max_size=30),
           scale=st.sampled_from([1.0, 0.1, 3.7]),
           side=st.sampled_from(["less", "greater"]))
    def test_midranks_match_the_loop_oracle(self, x, y, scale, side):
        # small integer supports give ties (and, now and then, a tie-free
        # draw on the exact branch); U and p must be bit for bit the loop's
        x = np.array(x) * scale
        y = np.array(y) * scale
        assert mannwhitney_u(x, y, side=side) == loop_mannwhitney_u(x, y, side=side)


class TestOlsLogFit:
    def _cells(self):
        return [(kp, kd) for kd in (2.0, 8.0, 32.0, 128.0)
                for kp in (16.0, 64.0, 256.0, 1024.0)]

    def test_generative_recovery(self):
        rng = np.random.default_rng(19)
        rows = []
        for kp, kd in self._cells():
            log_e = 0.3 * math.log2(kp) + 0.1 * math.log2(kd) \
                + rng.normal(0.0, 0.01)
            rows.append(SweepOutcome(kp=kp, kd=kd, successes=0, trials=1,
                                     scalar_error=math.exp(log_e)))
        fit = ols_log_fit(rows)
        assert_allclose(fit.coef[1:], [0.3, 0.1], atol=0.02)

    def test_constant_error_zero_slopes(self):
        rows = [SweepOutcome(kp=kp, kd=kd, successes=0, trials=1,
                             scalar_error=0.42) for kp, kd in self._cells()]
        fit = ols_log_fit(rows)
        assert_allclose(fit.coef[1:], [0.0, 0.0], atol=1e-12)

    def test_monotone_error_sign_pattern(self):
        rows = [SweepOutcome(kp=kp, kd=kd, successes=0, trials=1,
                             scalar_error=1e-3 * kp**0.25 * kd**0.4)
                for kp, kd in self._cells()]
        fit = ols_log_fit(rows)
        assert fit.coef[1] > 0 and fit.coef[2] > 0

    def test_duplication_invariance_of_point_estimates(self):
        rng = np.random.default_rng(20)
        rows = [SweepOutcome(kp=kp, kd=kd, successes=0, trials=1,
                             scalar_error=float(rng.uniform(0.01, 1.0)))
                for kp, kd in self._cells()]
        fit1 = ols_log_fit(rows)
        fit2 = ols_log_fit(rows + rows)
        assert_allclose(fit2.coef, fit1.coef, atol=1e-12)

    def test_rank_deficiency_rejected(self):
        rows = [SweepOutcome(kp=16.0, kd=kd, successes=0, trials=1,
                             scalar_error=0.1) for kd in (2.0, 4.0, 8.0)]
        with pytest.raises(ValueError):
            ols_log_fit(rows)

    def test_nonpositive_error_rejected(self):
        rows = [SweepOutcome(kp=kp, kd=kd, successes=0, trials=1,
                             scalar_error=0.0) for kp, kd in self._cells()]
        with pytest.raises(ValueError):
            ols_log_fit(rows)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_error_must_be_finite_and_non_negative(self, bad):
        with pytest.raises(ValueError, match="scalar_error"):
            SweepOutcome(kp=16.0, kd=2.0, successes=0, trials=1, scalar_error=bad)


class TestBonferroni:
    def test_paper_six_tasks(self):
        assert bonferroni(0.05, 6) == pytest.approx(0.0083333333, abs=1e-9)

    def test_paper_three_conditions(self):
        assert bonferroni(0.05, 3) == pytest.approx(0.0166666667, abs=1e-9)

    def test_single_comparison_unchanged(self):
        assert bonferroni(0.05, 1) == 0.05

    def test_m_validation(self):
        with pytest.raises(ValueError):
            bonferroni(0.05, 0)


def make_grid_outcomes(success_fn, error_fn=None, trials=100):
    rows = []
    for kd in (2.0, 8.0, 32.0, 128.0):
        for kp in (16.0, 64.0, 256.0, 1024.0):
            s = int(round(trials * success_fn(kp, kd)))
            e = None if error_fn is None else error_fn(kp, kd)
            rows.append(SweepOutcome(kp=kp, kd=kd, successes=s, trials=trials,
                                     scalar_error=e))
    return stats.label_outcomes(rows, m_eff=1.0, stiffness_split=128.0)


class TestRegionTest:
    def test_identical_cells_not_rejected(self):
        rows = make_grid_outcomes(lambda kp, kd: 0.5)
        rep = region_test(rows, "CO", "success", alternative="greater",
                          alpha=0.05, m=6)
        assert not rep.reject
        assert rep.p_value >= 0.5

    def test_co_success_rejection_at_paper_effect_size(self):
        rng = np.random.default_rng(21)

        def success(kp, kd):
            regime = ("C" if kp < 128.0 else "S") + \
                ("O" if kd / (2 * math.sqrt(kp)) >= 1.0 else "U")
            base = 0.851 if regime == "CO" else 0.390
            return float(np.clip(rng.normal(base, 0.02), 0.0, 1.0))

        rows = make_grid_outcomes(success)
        rep = region_test(rows, "CO", "success", alternative="greater",
                          alpha=0.05, m=6)
        assert rep.alpha_adj == pytest.approx(0.05 / 6)
        assert rep.reject

    def test_so_error_rejection_at_paper_effect_size(self):
        rng = np.random.default_rng(22)

        def error(kp, kd):
            regime = ("C" if kp < 128.0 else "S") + \
                ("O" if kd / (2 * math.sqrt(kp)) >= 1.0 else "U")
            base = 0.043 if regime == "SO" else 0.010
            return float(base * rng.lognormal(0.0, 0.3))

        rows = make_grid_outcomes(lambda kp, kd: 0.5, error_fn=error)
        rep = region_test(rows, "SO", "error", alternative="greater",
                          alpha=0.05, m=3)
        assert rep.alpha_adj == pytest.approx(0.05 / 3)
        assert rep.reject

    def test_decisions_deterministic(self):
        rows = make_grid_outcomes(lambda kp, kd: 0.6 if kp < 100 else 0.3)
        reps = [region_test(rows, "CO", "success", "greater", 0.05, 6)
                for _ in range(3)]
        assert len({r.p_value for r in reps}) == 1

    def test_empty_region_rejected(self):
        rows = make_grid_outcomes(lambda kp, kd: 0.5)
        with pytest.raises(ValueError):
            region_test(rows, "XX", "success")

    @pytest.mark.parametrize("metric", ["success", "error"])
    def test_unknown_alternative_rejected(self, metric):
        rows = make_grid_outcomes(lambda kp, kd: 0.5, error_fn=lambda kp, kd: 0.1)
        with pytest.raises(ValueError, match="alternative"):
            region_test(rows, "CO", metric, alternative="grater")

    def test_error_metric_requires_errors(self):
        rows = make_grid_outcomes(lambda kp, kd: 0.5)
        with pytest.raises(ValueError):
            region_test(rows, "CO", "error")


def test_region_tests_do_not_import_numpy_ma():
    # np.median and a plain np.unique import numpy.ma on first use (~13 ms)
    code = """
import sys
from gainlab import stats
from gainlab.control import default_grid
rows = [stats.SweepOutcome(kp=kp, kd=kd, successes=int(kp) % 7, trials=10,
                           scalar_error=kp / kd) for kp, kd in default_grid().cells()]
rows = stats.label_outcomes(rows, 1.0, default_grid().stiffness_split)
stats.region_test(rows, "SO", "error")
stats.region_test(rows, "CO", "success")
stats.ols_log_fit(rows)
stats.logistic_fit(rows)
assert "numpy.ma" not in sys.modules, "numpy.ma imported"
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(stats.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
