"""Small statistical helpers shared by the samplers and reports.  The
scipy modules they need load on first use: importing scipy.stats (which
imports scipy.integrate) takes about half a second, and most runs never
call them."""
from __future__ import annotations

import math
import warnings

import numpy as np


def batch_means_se(x: np.ndarray) -> float:
    """Standard error of the mean of a (possibly autocorrelated) trace,
    estimated from means of min(32, sqrt(n)) consecutive batches."""
    x = np.asarray(x, dtype=float)
    n = x.size
    if n < 2:
        return math.inf
    n_batches = max(2, min(32, int(math.sqrt(n))))
    usable = (n // n_batches) * n_batches
    if usable < 2 * n_batches:
        return float(x.std(ddof=1) / math.sqrt(n))
    means = x[:usable].reshape(n_batches, -1).mean(axis=1)
    return float(means.std(ddof=1) / math.sqrt(n_batches))


def integrated_autocorr_time(x: np.ndarray) -> float:
    """IACT of a trace via batch means: n * Var(mean) / Var(x), floored at 1."""
    x = np.asarray(x, dtype=float)
    v = x.var(ddof=1) if x.size >= 4 else 0.0
    if v == 0:
        return 1.0
    se = batch_means_se(x)
    return max(1.0, x.size * se * se / v)


def effective_sample_size(x: np.ndarray) -> float:
    return np.asarray(x).size / integrated_autocorr_time(np.asarray(x, dtype=float))


def wilson_interval(successes: int, trials: int, confidence: float = 0.99):
    """Wilson score interval for a binomial proportion."""
    from scipy import stats as _st

    if trials == 0:
        return 0.0, 1.0
    z = _st.norm.ppf(0.5 + confidence / 2.0)
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def ks_pvalue(a: np.ndarray, b: np.ndarray):
    """Asymptotic p-value of the two-sample Kolmogorov-Smirnov test."""
    from scipy import stats as _st

    return _st.ks_2samp(a, b, method="asymp").pvalue


# the gates of every check, written once; the rules below read them when called
RESIDUAL_LIMIT = 4.0  # a balance residual passes below this many SEs
BOUND_SLACK = 3.0  # an estimate may pass its bound by this many SEs
KS_LEVEL = 0.01  # family-wise level of one check's KS tests


def within(value: float, bound: float, se: float) -> bool:
    """value <= bound + BOUND_SLACK * se; a lower bound is within(-value, -bound, se)."""
    return value <= bound + BOUND_SLACK * se


def ks_family(p_values: np.ndarray) -> tuple[float, bool]:
    """The Bonferroni threshold KS_LEVEL / p_values.size, and whether any p-value is below it."""
    threshold = KS_LEVEL / p_values.size
    return threshold, bool((p_values < threshold).any())


def quad(f, lo: float, hi: float, limit: int) -> float:
    """Adaptive quadrature of f over [lo, hi], by scipy.integrate.quad;
    raises its IntegrationWarning (a divergent or inaccurate integral)."""
    from scipy import integrate as _int

    with warnings.catch_warnings():
        warnings.simplefilter("error", _int.IntegrationWarning)
        return _int.quad(f, lo, hi, limit=limit)[0]


def weighted_ratio_estimate(weights: np.ndarray, values: np.ndarray):
    """Self-normalized estimate sum(w v)/sum(w) with its delta-method SE."""
    weights = np.asarray(weights, dtype=float)
    values = np.asarray(values, dtype=float)
    wsum = weights.sum()
    est = float(weights @ values / wsum)
    resid = weights * (values - est)
    se = float(np.sqrt(np.sum(resid * resid)) / wsum)
    return est, se
