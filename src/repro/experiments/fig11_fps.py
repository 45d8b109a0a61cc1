"""Figure 11: average FPS reached and FPS ratio per game.

Section 6.2's headlines: the default policy always reaches a higher FPS;
MobiCore's FPS stays in the acceptable 15-20 band (section 5.1); on
average MobiCore delivers ~22% fewer FPS.

Sessions come from :func:`~repro.experiments.game_eval.run_games`, i.e.
the declarative games x seeds x policies scenario matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..analysis.report import render_table
from ..config import SimulationConfig
from ..runner.runner import SessionRunner
from ..errors import ExperimentError
from .common import GAME_NAMES
from .game_eval import mean_rows, run_games

__all__ = ["GameFpsRow", "Fig11Result", "run"]

#: The floor of section 5.1's acceptable gaming band ("most of the games
#: were running between 15 and 20 FPS though the gaming experience was
#: unaffected").
ACCEPTABLE_FPS_LOW = 15.0


@dataclass(frozen=True)
class GameFpsRow:
    """One game's seed-averaged FPS figures."""

    game: str
    android_fps: float
    mobicore_fps: float

    @property
    def ratio(self) -> float:
        if self.android_fps <= 0:
            raise ExperimentError("non-positive baseline FPS")
        return self.mobicore_fps / self.android_fps


@dataclass(frozen=True)
class Fig11Result:
    """Per-game FPS comparison (Figure 11's bars)."""

    rows: List[GameFpsRow]

    def row(self, game: str) -> GameFpsRow:
        for row in self.rows:
            if row.game == game:
                return row
        raise ExperimentError(f"no game {game!r} in the figure")

    @property
    def mean_ratio(self) -> float:
        """Paper: ~0.78 (22% fewer FPS)."""
        return sum(row.ratio for row in self.rows) / len(self.rows)

    def default_always_higher(self) -> bool:
        """The default policy reaches a higher FPS in every game."""
        return all(row.android_fps >= row.mobicore_fps for row in self.rows)

    def mobicore_in_acceptable_band(self) -> bool:
        """MobiCore's per-game FPS stays at or above the 15 FPS floor."""
        return all(row.mobicore_fps >= ACCEPTABLE_FPS_LOW - 0.5 for row in self.rows)

    def render(self) -> str:
        rows = [
            (r.game, f"{r.android_fps:.1f}", f"{r.mobicore_fps:.1f}", f"{r.ratio:.2f}")
            for r in self.rows
        ]
        return (
            "Figure 11: average FPS and FPS ratio\n"
            + render_table(("game", "android", "mobicore", "ratio"), rows)
            + f"\nmean ratio: {self.mean_ratio:.2f}"
        )


def run(
    config: Optional[SimulationConfig] = None,
    seeds: Sequence[int] = (1, 2, 3),
    runner: Optional[SessionRunner] = None,
) -> Fig11Result:
    """Seed-averaged gaming FPS per game under both policies."""
    sessions = run_games(config, seeds, runner=runner)
    rows = []
    for game in GAME_NAMES:
        per_seed = sessions[game]
        rows.append(
            GameFpsRow(
                game=game,
                android_fps=mean_rows(per_seed, lambda r: r.baseline.mean_fps),
                mobicore_fps=mean_rows(per_seed, lambda r: r.candidate.mean_fps),
            )
        )
    return Fig11Result(rows=rows)
