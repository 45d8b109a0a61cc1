"""Top-level simulation configuration.

A :class:`SimulationConfig` bundles the knobs common to every experiment:
the sampling tick, session duration, and the random seed.  Experiment
drivers build one, hand it to :class:`repro.kernel.engine.Session`,
and record it alongside results so every run is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .errors import ConfigError

__all__ = ["SimulationConfig", "DEFAULT_TICK_SECONDS", "DEFAULT_DURATION_SECONDS"]

#: The ondemand governor's sampling period on the Nexus 5 era kernels.
DEFAULT_TICK_SECONDS = 0.020

#: The paper's gaming sessions last two minutes (section 6).
DEFAULT_DURATION_SECONDS = 120.0


@dataclass(frozen=True)
class SimulationConfig:
    """Immutable configuration for one simulation session.

    Attributes:
        tick_seconds: Length of one simulation tick (the governor sampling
            period).  All policies observe and act once per tick.
        duration_seconds: Total simulated wall-clock time.
        seed: Seed for every stochastic workload in the session.  Two runs
            with equal config and seed are bit-identical.
        warmup_seconds: Initial span excluded from metric summaries, so
            cold-start transients (all cores online at boot) do not skew
            two-minute averages.
        label: Free-form tag recorded in summaries.
    """

    tick_seconds: float = DEFAULT_TICK_SECONDS
    duration_seconds: float = DEFAULT_DURATION_SECONDS
    seed: int = 0
    warmup_seconds: float = 0.0
    label: str = field(default="")

    def __post_init__(self) -> None:
        if self.tick_seconds <= 0:
            raise ConfigError(f"tick_seconds must be positive, got {self.tick_seconds!r}")
        if self.duration_seconds <= 0:
            raise ConfigError(
                f"duration_seconds must be positive, got {self.duration_seconds!r}"
            )
        if self.warmup_seconds < 0:
            raise ConfigError(
                f"warmup_seconds must be non-negative, got {self.warmup_seconds!r}"
            )
        if self.warmup_seconds >= self.duration_seconds:
            raise ConfigError(
                "warmup_seconds must be shorter than duration_seconds "
                f"({self.warmup_seconds!r} >= {self.duration_seconds!r})"
            )
        if self.tick_seconds > self.duration_seconds:
            raise ConfigError(
                "tick_seconds must not exceed duration_seconds "
                f"({self.tick_seconds!r} > {self.duration_seconds!r})"
            )

    @property
    def total_ticks(self) -> int:
        """Number of whole ticks in the session."""
        return int(self.duration_seconds / self.tick_seconds)

    @property
    def warmup_ticks(self) -> int:
        """Number of initial ticks excluded from summaries."""
        return int(self.warmup_seconds / self.tick_seconds)

    def with_seed(self, seed: int) -> "SimulationConfig":
        """Return a copy with a different seed (for repeated trials)."""
        return replace(self, seed=seed)

    def with_duration(self, duration_seconds: float) -> "SimulationConfig":
        """Return a copy with a different session duration."""
        return replace(self, duration_seconds=duration_seconds)

    def with_label(self, label: str) -> "SimulationConfig":
        """Return a copy tagged with *label*."""
        return replace(self, label=label)


def short_session(seconds: float = 10.0, seed: int = 0) -> SimulationConfig:
    """Convenience constructor for quick test sessions."""
    return SimulationConfig(duration_seconds=seconds, seed=seed)
