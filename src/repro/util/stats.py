"""Statistics used throughout the reliability analysis.

The paper reports Poisson-counted error rates with 95% confidence
intervals below 10% of the value (beam, Section 4.2) and binomial
proportions with 1.96% worst-case error bars (injection, Section 6).
This module provides exactly those estimators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy import stats as sps

__all__ = [
    "CountEstimate",
    "anytime_proportion_ci",
    "poisson_ci",
    "proportion_ci",
    "required_events_for_relative_ci",
    "two_proportion_z",
    "wilson_ci",
    "half_width_for_proportion",
]


@dataclass(frozen=True)
class CountEstimate:
    """A rate estimate with a two-sided confidence interval."""

    value: float
    lower: float
    upper: float
    confidence: float = 0.95

    def relative_half_width(self) -> float:
        """CI half-width as a fraction of the point estimate."""
        if self.value == 0:
            return math.inf
        return (self.upper - self.lower) / 2.0 / self.value


def poisson_ci(events: int, confidence: float = 0.95) -> CountEstimate:
    """Exact (Garwood) CI for a Poisson count.

    Returns the interval on the *count*; divide by exposure to get a
    rate interval, which is how the beam FIT CIs are built.
    """
    if events < 0:
        raise ValueError("events must be non-negative")
    if not 0 < confidence < 1:
        raise ValueError("confidence must be in (0, 1)")
    alpha = 1.0 - confidence
    lower = 0.0 if events == 0 else sps.chi2.ppf(alpha / 2, 2 * events) / 2.0
    upper = sps.chi2.ppf(1 - alpha / 2, 2 * (events + 1)) / 2.0
    return CountEstimate(float(events), float(lower), float(upper), confidence)


def wilson_ci(successes: int, trials: int, confidence: float = 0.95) -> CountEstimate:
    """Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes must be within [0, trials]")
    z = sps.norm.ppf(0.5 + confidence / 2.0)
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    # At p = 0 (or 1) the bound equals p exactly; rounding can leave it a
    # few ulp past p, so clamp the interval to always contain the estimate.
    lower = min(max(0.0, center - half), p)
    upper = max(min(1.0, center + half), p)
    return CountEstimate(p, lower, upper, confidence)


def proportion_ci(successes: int, trials: int, confidence: float = 0.95) -> CountEstimate:
    """Normal-approximation (Wald) CI for a proportion.

    This is the estimator behind the paper's "worst case statistical
    error bars at 95% confidence level ... at most 1.96%" claim for
    10,000 injections (half-width = 1.96 * sqrt(p(1-p)/n) <= 0.98%,
    i.e. a 1.96% full width at p = 0.5).
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes must be within [0, trials]")
    z = sps.norm.ppf(0.5 + confidence / 2.0)
    p = successes / trials
    half = z * math.sqrt(p * (1 - p) / trials)
    return CountEstimate(p, max(0.0, p - half), min(1.0, p + half), confidence)


def anytime_proportion_ci(
    successes: int, trials: int, confidence: float = 0.95
) -> CountEstimate:
    """Anytime-valid confidence interval for a binomial proportion.

    A Wilson interval is only valid at a *pre-registered* sample size;
    checking it at many sample sizes (as ``repro-inspect``'s
    convergence curves do) inflates the error rate.  This interval uses the
    law-of-the-iterated-logarithm "stitched" boundary for bounded
    variables (Howard et al., 2021, eq. (11) specialised to the [0, 1]
    case), which holds *simultaneously at every sample size*: a
    campaign may peek after every record and stop the first time the
    interval is narrow enough without biasing the coverage guarantee.

    The price of anytime validity is width: the half-width carries an
    extra ``log log n`` factor over the fixed-n interval, so early
    stopping on this interval is conservative, never optimistic.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes must be within [0, trials]")
    if not 0 < confidence < 1:
        raise ValueError("confidence must be in (0, 1)")
    alpha = 1.0 - confidence
    n = float(trials)
    p = successes / trials
    # Stitched LIL boundary for 1/2-sub-Gaussian increments (any
    # variable bounded in [0, 1]); valid uniformly over n >= 1.
    half = 1.7 * math.sqrt((math.log(math.log(2 * max(n, 2.0))) + 0.72 * math.log(5.2 / alpha)) / n)
    return CountEstimate(p, max(0.0, p - half), min(1.0, p + half), confidence)


def two_proportion_z(
    successes_a: int, trials_a: int, successes_b: int, trials_b: int
) -> tuple[float, float]:
    """Pooled two-proportion z-test: ``(z, two_sided_p_value)``.

    The cross-shard drift detector's primitive: is shard A's outcome
    rate compatible with the rest of the campaign's?  Under H0 (both
    samples share one proportion) the pooled statistic is ~N(0, 1).
    Degenerate pools (all successes or none, or an empty sample) carry
    no evidence either way and return ``(0.0, 1.0)``.
    """
    for successes, trials in ((successes_a, trials_a), (successes_b, trials_b)):
        if trials < 0 or not 0 <= successes <= max(trials, 0):
            raise ValueError("successes must be within [0, trials]")
    if trials_a == 0 or trials_b == 0:
        return 0.0, 1.0
    pooled = (successes_a + successes_b) / (trials_a + trials_b)
    if pooled <= 0.0 or pooled >= 1.0:
        return 0.0, 1.0
    se = math.sqrt(pooled * (1.0 - pooled) * (1.0 / trials_a + 1.0 / trials_b))
    z = (successes_a / trials_a - successes_b / trials_b) / se
    return float(z), float(2.0 * sps.norm.sf(abs(z)))


def half_width_for_proportion(trials: int, p: float = 0.5, confidence: float = 0.95) -> float:
    """Worst-case (or given-p) Wald half width for ``trials`` samples."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    z = sps.norm.ppf(0.5 + confidence / 2.0)
    return float(z * math.sqrt(p * (1 - p) / trials))


def required_events_for_relative_ci(
    relative_half_width: float, confidence: float = 0.95
) -> int:
    """Poisson events needed so the CI half-width <= fraction of the mean.

    Normal approximation: n >= (z / w)^2, so a 10% relative CI at 95%
    confidence needs ~385 events.  (The paper quotes "more than 100
    SDC/DUE for each benchmark" for its sub-10% intervals — its actual
    per-benchmark counts are in the public logs and exceed this
    threshold; 100 events alone give ~±20%.)
    """
    if relative_half_width <= 0:
        raise ValueError("relative_half_width must be positive")
    z = float(sps.norm.ppf(0.5 + confidence / 2.0))
    return int(math.ceil((z / relative_half_width) ** 2))

