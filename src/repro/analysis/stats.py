"""Statistics helpers for logical-error-rate estimates.

Besides the original summary helpers (:func:`wilson_interval`,
:func:`relative_reduction`, :func:`geometric_mean`), this module hosts the
:class:`StoppingRule` that drives every logical-error-rate estimate:
sampling proceeds in fixed deterministic chunks (:mod:`repro.parallel`) and
stops as soon as the Wilson score interval around the observed error
fraction is tight enough — ``halfwidth / estimate <= target_rse`` — or the
shot budget ``max_shots`` is exhausted.  A fixed-shot run is a rule with no
``target_rse``: it always consumes ``max_shots``.  With zero observed errors the relative error is
undefined (:func:`relative_error` returns ``inf``), so a run can only stop
on the budget, never on a spuriously "precise" zero estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "wilson_interval",
    "wilson_halfwidth",
    "relative_error",
    "normal_quantile",
    "z_for_confidence",
    "StoppingRule",
    "relative_reduction",
    "geometric_mean",
]


def wilson_interval(successes: int, trials: int, *, z: float = 1.96) -> tuple[float, float]:
    """Wilson score confidence interval for a binomial proportion.

    Well defined for every ``0 <= successes <= trials`` with ``trials > 0``
    — in particular ``successes=0`` yields ``(0.0, upper > 0)``, which is
    what lets the stopping rule reason about runs that have not yet observed
    a single logical error.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    proportion = successes / trials
    denominator = 1 + z * z / trials
    centre = (proportion + z * z / (2 * trials)) / denominator
    spread = (
        z
        * math.sqrt(proportion * (1 - proportion) / trials + z * z / (4 * trials * trials))
        / denominator
    )
    return max(0.0, centre - spread), min(1.0, centre + spread)


def wilson_halfwidth(successes: int, trials: int, *, z: float = 1.96) -> float:
    """Half the width of the Wilson interval (a robust standard-error proxy)."""
    low, high = wilson_interval(successes, trials, z=z)
    return (high - low) / 2.0


def relative_error(successes: int, trials: int, *, z: float = 1.96) -> float:
    """Wilson half-width relative to the point estimate (``inf`` at zero).

    This is the quantity the adaptive engine drives below ``target_rse``.
    With ``successes == 0`` the point estimate is 0 and no finite precision
    statement about the *relative* error is possible, so the result is
    ``inf`` — the stopping rule then keeps sampling until ``max_shots``.
    """
    if trials <= 0:
        return math.inf
    proportion = successes / trials
    if proportion <= 0.0:
        return math.inf
    return wilson_halfwidth(successes, trials, z=z) / proportion


# Acklam's rational approximation of the standard normal quantile function
# (relative error < 1.15e-9 over the full open interval).  scipy is not a
# dependency of this repo, and 1e-9 is far below any Monte-Carlo resolution.
_A = (
    -3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
    1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00,
)
_B = (
    -5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
    6.680131188771972e01, -1.328068155288572e01,
)
_C = (
    -7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
    -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00,
)
_D = (
    7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
    3.754408661907416e00,
)
_P_LOW = 0.02425


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF ``Phi^{-1}(p)`` for ``0 < p < 1``."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    if p < _P_LOW:
        q = math.sqrt(-2 * math.log(p))
        return (
            ((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]
        ) / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1)
    if p > 1 - _P_LOW:
        return -normal_quantile(1 - p)
    q = p - 0.5
    r = q * q
    return (
        (((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5])
        * q
        / (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1)
    )


def z_for_confidence(confidence: float) -> float:
    """Two-sided normal critical value for a confidence level (0.95 -> 1.96)."""
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    return normal_quantile(0.5 + confidence / 2.0)


@dataclass(frozen=True)
class StoppingRule:
    """When to stop chunked Monte-Carlo sampling of a binomial rate.

    ``max_shots`` bounds the total sample size (it also fixes the
    deterministic chunk layout — see :func:`repro.parallel.sample_and_decode`).
    ``target_rse`` is the Wilson relative-error target; ``None`` disables
    precision stopping and the rule degenerates to the fixed budget.
    """

    max_shots: int
    target_rse: float | None = None
    z: float = 1.96

    def __post_init__(self) -> None:
        if self.max_shots < 0:
            raise ValueError(f"max_shots must be >= 0, got {self.max_shots}")
        if self.target_rse is not None and self.target_rse <= 0:
            raise ValueError(f"target_rse must be positive, got {self.target_rse}")

    def converged(self, errors: int, shots: int) -> bool:
        """True when the precision target is met (never on zero errors)."""
        if self.target_rse is None or shots <= 0 or errors <= 0:
            return False
        return relative_error(errors, shots, z=self.z) <= self.target_rse


def relative_reduction(optimised: float, baseline: float) -> float:
    """Fractional reduction ``1 - optimised / baseline`` (0 when baseline is 0)."""
    if baseline <= 0:
        return 0.0
    return 1.0 - optimised / baseline


def geometric_mean(values: list[float]) -> float:
    """Geometric mean of positive values (zeros are clipped to 1e-12)."""
    if not values:
        raise ValueError("geometric_mean needs at least one value")
    total = sum(math.log(max(value, 1e-12)) for value in values)
    return math.exp(total / len(values))
