"""Hypothesis-testing pipeline for gain-grid sweep outcomes.

Implements the pieces end to end: binomial logistic regression fit by
iteratively reweighted least squares on (log2 Kp, log2 Kd), one-sided
Barnard's exact unconditional test (score statistic, nuisance maximized
over a 2001-point grid with golden-section refinement; each tail sums the
rejection region's per-row runs against a cumulative group-2 pmf, built
only at the r region rows and below the widest run's stop w, so a G-point
grid costs O(n1*n2 + G*(r + w)) time and one byte-budgeted block of tables
in memory), one-sided
Mann-Whitney U (exact by enumeration for small tie-free samples, normal
approximation with tie and continuity corrections otherwise), OLS on
log-transformed errors, and the Bonferroni correction. All operations are
pure functions of their inputs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .control import GainConfig, _median, classify_regime

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
BARNARD_GRID = 2001  # interior nuisance-grid points of barnard_exact
# Byte budget of one block of barnard_exact's float64 tables: small enough
# that a block and its temporaries stay in cache, large enough that every
# table with margins up to 8 takes its whole nuisance grid in one block.
_BLOCK_BYTES = 1 << 19


@dataclass(frozen=True)
class SweepOutcome:
    """Per-gain-cell result record."""

    kp: float
    kd: float
    successes: int
    trials: int
    scalar_error: float | None = None
    region: str | None = None

    def __post_init__(self):
        if not 0 <= self.successes <= self.trials:
            raise ValueError("need 0 <= successes <= trials")
        if self.scalar_error is not None and not 0 <= self.scalar_error < math.inf:
            raise ValueError(f"scalar_error must be finite and non-negative, "
                             f"not {self.scalar_error!r}")


def label_outcomes(outcomes, m_eff: float, stiffness_split: float):
    """Attach regime labels (CO/SO/CU/SU) computed from the gains."""
    out = []
    for o in outcomes:
        regime = classify_regime(GainConfig(kp=o.kp, kd=o.kd), m_eff, stiffness_split)
        out.append(SweepOutcome(kp=o.kp, kd=o.kd, successes=o.successes,
                                trials=o.trials, scalar_error=o.scalar_error,
                                region=regime.label))
    return out


@dataclass(frozen=True)
class RegressionFit:
    """Coefficients (intercept, beta_kp, beta_kd) with standard errors."""

    coef: np.ndarray
    stderr: np.ndarray
    converged: bool = True
    separation_flag: bool = False
    n_iter: int = 0


def _design(outcomes) -> np.ndarray:
    return np.array([[1.0, math.log2(o.kp), math.log2(o.kd)] for o in outcomes])


def logistic_fit(outcomes) -> RegressionFit:
    """Binomial logistic regression of cell successes on log2 gains.

    IRLS with cell-level binomial likelihood; converged when the largest
    coefficient change drops below 1e-10 (at most 100 iterations).
    Perfect separation is flagged (coefficients still reported).
    """
    outcomes = list(outcomes)
    cells = {(o.kp, o.kd) for o in outcomes}
    if len(cells) < 3:
        raise ValueError("need at least 3 distinct gain cells")
    if any(o.trials == 0 for o in outcomes):
        raise ValueError("every cell needs trials > 0")
    X = _design(outcomes)
    y = np.array([o.successes for o in outcomes], dtype=float)
    n = np.array([o.trials for o in outcomes], dtype=float)
    beta = np.zeros(3)
    converged = False
    it = 0
    H = np.eye(3)
    for it in range(1, 101):
        eta = X @ beta
        p = 1.0 / (1.0 + np.exp(-np.clip(eta, -500, 500)))
        p = np.clip(p, 1e-12, 1.0 - 1e-12)
        w = n * p * (1.0 - p)
        g = X.T @ (y - n * p)
        H = (X * w[:, None]).T @ X
        try:
            delta = np.linalg.solve(H, g)
        except np.linalg.LinAlgError:
            break
        beta = beta + delta
        if np.max(np.abs(delta)) < 1e-10:
            converged = True
            break
    separation = (not converged and float(np.linalg.norm(beta)) > 1e2) \
        or float(np.linalg.norm(beta)) > 1e3
    if separation:
        warnings.warn("possible perfect separation in logistic fit", stacklevel=2)
    with np.errstate(invalid="ignore"):
        cov = np.linalg.pinv(H)
        se = np.sqrt(np.maximum(np.diag(cov), 0.0))
    return RegressionFit(coef=beta, stderr=se, converged=converged,
                         separation_flag=separation, n_iter=it)


def ols_log_fit(outcomes) -> RegressionFit:
    """OLS of log(scalar_error) on (1, log2 Kp, log2 Kd)."""
    outcomes = list(outcomes)
    if any(o.scalar_error is None or o.scalar_error <= 0 for o in outcomes):
        raise ValueError("every row needs scalar_error > 0")
    X = _design(outcomes)
    if np.linalg.matrix_rank(X) < 3:
        raise ValueError("rank-deficient design (need variation in both gains)")
    y = np.log([o.scalar_error for o in outcomes])
    beta, *_ = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ beta
    dof = len(outcomes) - 3
    if dof > 0:
        s2 = float(resid @ resid) / dof
        cov = s2 * np.linalg.inv(X.T @ X)
        se = np.sqrt(np.diag(cov))
    else:
        se = np.full(3, np.nan)
    return RegressionFit(coef=beta, stderr=se)


# ---------------------------------------------------------------------------
# Barnard's exact unconditional test


def _score_statistic(y1, n1, y2, n2):
    """Standardized difference of proportions with pooled variance."""
    p1 = y1 / n1
    p2 = y2 / n2
    pooled = (y1 + y2) / (n1 + n2)
    var = pooled * (1.0 - pooled) * (1.0 / n1 + 1.0 / n2)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(var > 0, (p1 - p2) / np.sqrt(np.where(var > 0, var, 1.0)), 0.0)
    return t


def _binom_pmf_table(n: int, ks: np.ndarray, logc: np.ndarray,
                     pis: np.ndarray) -> np.ndarray:
    """(len(pis), len(ks)) binomial(n, pi) pmf values at the counts ``ks``.

    ``logc`` holds log C(n, k) for each entry of ``ks``.
    """
    with np.errstate(divide="ignore"):
        out = np.multiply.outer(np.log(pis), ks)
        out += np.multiply.outer(np.log1p(-pis), n - ks)
    out += logc
    return np.exp(out, out=out)


def _log_binom_coef(n: int) -> np.ndarray:
    """log C(n, k) for k = 0..n."""
    lg = [math.lgamma(k + 1) for k in range(n + 1)]
    return np.array([lg[n] - lg[k] - lg[n - k] for k in range(n + 1)])


def _region_runs(a: int, c: int, n1: int, n2: int, side: str):
    """The rejection region of the observed table, run-length encoded.

    Returns (ks2, rows, start, stop): the group-2 counts in the order the
    runs read them (reversed for 'less'), and per group-1 count y1 the
    runs [start, stop) of ``ks2`` indices, in row-major order. The score
    statistic is evaluated in blocks of y1 rows, so no full-size table of
    it or of its mask exists.
    """
    t_obs = float(_score_statistic(np.array(a, dtype=float), n1,
                                   np.array(c, dtype=float), n2))
    tol = 1e-12 * max(1.0, abs(t_obs))
    ks2 = np.arange(n2 + 1) if side == "greater" else np.arange(n2, -1, -1)
    step = max(1, _BLOCK_BYTES // (8 * (n2 + 1)))
    rows, start, stop = [], [], []
    for lo in range(0, n1 + 1, step):
        T = _score_statistic(np.arange(lo, min(lo + step, n1 + 1))[:, None], n1, ks2, n2)
        padded = np.zeros((len(T), n2 + 3), dtype=np.int8)
        padded[:, 1:-1] = (T >= t_obs - tol) if side == "greater" else (T <= t_obs + tol)
        edges = np.diff(padded, axis=1)  # +1 at a run's start, -1 at its stop
        r, s = np.nonzero(edges > 0)
        rows.append(r + lo)
        start.append(s)
        stop.append(np.nonzero(edges < 0)[1])
    return ks2, np.concatenate(rows), np.concatenate(start), np.concatenate(stop)


def barnard_exact(a: int, b: int, c: int, d: int, side: str = "greater") -> float:
    """One-sided Barnard's exact test on a 2x2 table.

    Group 1 has ``a`` successes and ``b`` failures, group 2 has ``c`` and
    ``d``. ``side='greater'`` tests the alternative p1 > p2 ('less' the
    reverse) using the score statistic; the p-value maximizes the tail
    probability over the nuisance success probability on a uniform grid
    of ``BARNARD_GRID`` interior points followed by one golden-section
    refinement pass.

    The rejection region is run-length encoded per group-1 count y1 into
    runs [start, stop) of group-2 counts, so the tail at pi is
    sum over runs of P(y1) * (C(stop - 1) - C(start - 1)), where C is the
    cumulative group-2 pmf. This holds for any region; the score
    statistic's region is convex in Barnard's sense, and with the y2 axis
    reversed for 'less' each row is one prefix (start = 0), so no tail
    needs a subtraction. A tail reads C only below the widest run's stop
    w and P only at the r region rows, so only those columns are built.
    Cost is O(n1*n2 + G*(r + w)) time for G grid points, instead of the
    O(n1*n2*G) of summing the region as a dense matrix. Memory is O(r)
    for the runs plus one block of tables: the statistic is built in
    blocks of y1 rows and the pmf tables in blocks of grid rows, each
    sized to the byte budget ``_BLOCK_BYTES``, so every table with
    w + 2r <= 32 takes its whole grid in one block.
    """
    if min(a, b, c, d) < 0:
        raise ValueError("counts must be non-negative")
    n1, n2 = a + b, c + d
    if n1 == 0 or n2 == 0:
        raise ValueError("both group margins must be positive")
    if side not in ("greater", "less"):
        raise ValueError("side must be 'greater' or 'less'")
    ks2, rows, start, stop = _region_runs(a, c, n1, n2, side)
    ks2 = ks2[:stop.max()]
    logc2 = _log_binom_coef(n2)[ks2]
    logc1 = _log_binom_coef(n1)[rows]
    inner = np.nonzero(start > 0)[0]
    block = max(1, _BLOCK_BYTES // (8 * (len(ks2) + 2 * len(rows))))

    def tail(pis: np.ndarray) -> np.ndarray:
        out = np.empty(len(pis))
        for lo in range(0, len(pis), block):
            chunk = pis[lo:lo + block]
            cum2 = _binom_pmf_table(n2, ks2, logc2, chunk)
            np.cumsum(cum2, axis=1, out=cum2)
            seg = cum2[:, stop - 1]
            seg[:, inner] -= cum2[:, start[inner] - 1]
            del cum2  # free it before the group-1 table is built: peak memory
            b1 = _binom_pmf_table(n1, rows, logc1, chunk)
            out[lo:lo + block] = np.einsum("pr,pr->p", b1, seg)
        return out

    def tail_at(pi: float) -> float:
        return float(tail(np.array([pi]))[0])

    grid = np.linspace(0.0, 1.0, BARNARD_GRID + 2)[1:-1]
    tails = tail(grid)
    k = int(np.argmax(tails))
    p_best = float(tails[k])

    lo = grid[k - 1] if k > 0 else 0.0
    hi = grid[k + 1] if k < len(grid) - 1 else 1.0
    x1 = hi - GOLDEN * (hi - lo)
    x2 = lo + GOLDEN * (hi - lo)
    f1, f2 = tail_at(x1), tail_at(x2)
    for _ in range(60):
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + GOLDEN * (hi - lo)
            f2 = tail_at(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - GOLDEN * (hi - lo)
            f1 = tail_at(x1)
    p_best = max(p_best, f1, f2)
    return float(min(1.0, p_best))


# ---------------------------------------------------------------------------
# Mann-Whitney U


def _mwu_exact_counts(n: int, m: int) -> np.ndarray:
    """Null distribution counts of U over 0..n*m (no ties)."""
    prev = [np.ones(1) for _ in range(m + 1)]
    for i in range(1, n + 1):
        row = [np.ones(1)]
        for j in range(1, m + 1):
            out = np.zeros(i * j + 1)
            shifted = prev[j]
            out[j:j + len(shifted)] += shifted
            out[:len(row[j - 1])] += row[j - 1]
            row.append(out)
        prev = row
    return prev[m]


def _norm_sf(z: float) -> float:
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def mannwhitney_u(x, y, side: str = "less") -> tuple[float, float]:
    """One-sided Mann-Whitney U test; returns (U_x, p).

    ``side='less'`` tests the alternative that x is stochastically smaller
    than y (small U_x is evidence), 'greater' the reverse. Exact
    enumeration when len(x)*len(y) <= 400 and the pooled sample is
    tie-free; otherwise a normal approximation with tie and continuity
    corrections.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size == 0 or y.size == 0:
        raise ValueError("both samples must be non-empty")
    if side not in ("less", "greater"):
        raise ValueError("side must be 'less' or 'greater'")
    n1, n2 = x.size, y.size
    pooled = np.concatenate([x, y])
    if not np.all(np.isfinite(pooled)):
        raise ValueError("samples must be finite")
    # value k of the sorted distinct values spans 1-based ranks
    # cumsum[k] - counts[k] + 1 .. cumsum[k]; its midrank is their mean
    _, inverse, t_counts = np.unique(pooled, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(t_counts) - (t_counts - 1) / 2.0)[inverse]
    u_x = float(np.sum(ranks[:n1]) - n1 * (n1 + 1) / 2.0)
    has_ties = t_counts.size < pooled.size
    if n1 * n2 <= 400 and not has_ties:
        counts = _mwu_exact_counts(n1, n2)
        total = counts.sum()
        u_int = int(round(u_x))
        if side == "less":
            p = counts[:u_int + 1].sum() / total
        else:
            p = counts[u_int:].sum() / total
        return u_x, float(min(1.0, p))
    mean = n1 * n2 / 2.0
    nt = n1 + n2
    tie_term = float(np.sum(t_counts**3 - t_counts)) / (nt * (nt - 1.0))
    var = n1 * n2 / 12.0 * ((nt + 1.0) - tie_term)
    if var <= 0:
        return u_x, 1.0
    sd = math.sqrt(var)
    if side == "less":
        z = (u_x - mean + 0.5) / sd
        p = 1.0 - _norm_sf(z)
    else:
        z = (u_x - mean - 0.5) / sd
        p = _norm_sf(z)
    return u_x, float(min(1.0, max(0.0, p)))


def bonferroni(alpha: float, m: int) -> float:
    """Adjusted level alpha / m."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return alpha / m


# ---------------------------------------------------------------------------
# Region-level hypothesis tests


@dataclass(frozen=True)
class StatsReport:
    """One test outcome: statistic, raw p, adjusted level, decision."""

    test: str
    region: str
    metric: str
    statistic: float
    p_value: float
    alpha: float
    m_comparisons: int
    alpha_adj: float
    reject: bool
    detail: dict = field(default_factory=dict)


def region_test(outcomes, region: str, metric: str, alternative: str = "greater",
                alpha: float = 0.05, m: int = 1) -> StatsReport:
    """Pool a gain region against its complement and test one-sided.

    ``metric='success'`` dispatches Barnard's exact test on the pooled
    2x2 counts; ``metric='error'`` a Mann-Whitney U on the per-cell
    scalar errors. ``alternative`` states the direction for the region
    relative to the complement ('greater' means larger success
    probability / larger error).
    """
    if alternative not in ("greater", "less"):
        raise ValueError(f"alternative must be 'greater' or 'less', not {alternative!r}")
    outcomes = list(outcomes)
    inside = [o for o in outcomes if o.region == region]
    outside = [o for o in outcomes if o.region != region]
    if not inside or not outside:
        raise ValueError(f"region {region!r} must be a non-empty proper subset")
    alpha_adj = bonferroni(alpha, m)
    if metric == "success":
        s_in = sum(o.successes for o in inside)
        n_in = sum(o.trials for o in inside)
        s_out = sum(o.successes for o in outside)
        n_out = sum(o.trials for o in outside)
        p = barnard_exact(s_in, n_in - s_in, s_out, n_out - s_out, side=alternative)
        stat = float(_score_statistic(np.array(float(s_in)), n_in,
                                      np.array(float(s_out)), n_out))
        detail = {"region_rate": s_in / n_in, "complement_rate": s_out / n_out}
        name = "barnard_exact"
    elif metric == "error":
        e_in = [o.scalar_error for o in inside]
        e_out = [o.scalar_error for o in outside]
        if any(e is None for e in e_in + e_out):
            raise ValueError("error metric needs scalar_error on every cell")
        stat, p = mannwhitney_u(e_in, e_out, side=alternative)
        detail = {"region_median": _median(e_in), "complement_median": _median(e_out)}
        name = "mannwhitney_u"
    else:
        raise ValueError("metric must be 'success' or 'error'")
    return StatsReport(test=name, region=region, metric=metric, statistic=stat,
                       p_value=p, alpha=alpha, m_comparisons=m,
                       alpha_adj=alpha_adj, reject=p < alpha_adj, detail=detail)
