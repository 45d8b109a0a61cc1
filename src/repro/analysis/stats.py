"""Trial statistics: means and confidence intervals over repeated seeds.

The paper reports single-session numbers; a simulation can afford
repetition.  These helpers aggregate per-seed results into a mean with a
Student-t confidence interval, so EXPERIMENTS.md claims like "5.3 %
average saving" carry an uncertainty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from ..errors import ExperimentError

__all__ = ["TrialStats", "trial_statistics"]


@dataclass(frozen=True)
class TrialStats:
    """Aggregate of one metric over repeated trials.

    Attributes:
        mean: Sample mean.
        std: Sample standard deviation (ddof=1; 0 for a single trial).
        ci_low / ci_high: Student-t confidence interval bounds (equal to
            the mean for a single trial).
        n: Number of trials.
        confidence: The interval's confidence level.
    """

    mean: float
    std: float
    ci_low: float
    ci_high: float
    n: int
    confidence: float

    @property
    def half_width(self) -> float:
        """The +/- half-width of the interval."""
        return (self.ci_high - self.ci_low) / 2.0

    def contains(self, value: float) -> bool:
        """True when *value* lies inside the interval."""
        return self.ci_low <= value <= self.ci_high

    def __str__(self) -> str:
        if self.n == 1:
            return f"{self.mean:.2f} (single trial)"
        return (
            f"{self.mean:.2f} +/- {self.half_width:.2f} "
            f"({int(self.confidence * 100)}% CI, n={self.n})"
        )


def trial_statistics(
    values: Sequence[float], confidence: float = 0.95
) -> TrialStats:
    """Mean and Student-t confidence interval of repeated trials.

    Needs scipy (the ``test`` extra) for the t quantile; it is imported
    here, not at module level, so the CLI runs on a numpy-only install.
    """
    if not values:
        raise ExperimentError("trial_statistics needs at least one value")
    if not 0.0 < confidence < 1.0:
        raise ExperimentError(f"confidence must be in (0, 1), got {confidence}")
    n = len(values)
    mean = sum(values) / n
    if n == 1:
        return TrialStats(
            mean=mean, std=0.0, ci_low=mean, ci_high=mean, n=1, confidence=confidence
        )
    variance = sum((v - mean) ** 2 for v in values) / (n - 1)
    std = math.sqrt(variance)
    sem = std / math.sqrt(n)
    from scipy import stats as scipy_stats

    t_crit = float(scipy_stats.t.ppf(0.5 + confidence / 2.0, df=n - 1))
    return TrialStats(
        mean=mean,
        std=std,
        ci_low=mean - t_crit * sem,
        ci_high=mean + t_crit * sem,
        n=n,
        confidence=confidence,
    )
