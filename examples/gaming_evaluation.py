#!/usr/bin/env python
"""The full section 6 gaming evaluation: all five games, both policies.

Regenerates the content of Figures 10-13 in one run and writes each
session's per-tick trace to CSV (the "kernel app log file" of
section 3.1) for inspection.

Run:  python examples/gaming_evaluation.py [output-dir]
"""

import pathlib
import sys

from repro import (
    AndroidDefaultPolicy,
    MobiCorePolicy,
    Platform,
    Session,
    SimulationConfig,
    game_workload,
    nexus5_spec,
    summarize,
)
from repro.analysis.report import render_table

GAMES = ("Real Racing 3", "Subway Surf", "Badland", "Angry Birds", "Asphalt 8")


def run_session(game: str, policy_name: str, config, out_dir: pathlib.Path):
    platform = Platform.from_spec(nexus5_spec())
    policy = (
        AndroidDefaultPolicy()
        if policy_name == "android"
        else MobiCorePolicy.for_platform(platform)
    )
    result = Session(platform, game_workload(game), policy, config).run()
    slug = game.lower().replace(" ", "-")
    trace_path = out_dir / f"{slug}-{policy_name}.csv"
    trace_path.write_text(result.trace.to_csv())
    return summarize(result)


def main() -> None:
    out_dir = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else pathlib.Path("game_traces")
    out_dir.mkdir(parents=True, exist_ok=True)
    config = SimulationConfig(duration_seconds=120.0, seed=1, warmup_seconds=4.0)

    print("Running five games x two policies x 2-minute sessions ...")
    rows = []
    savings = []
    for game in GAMES:
        android = run_session(game, "android", config, out_dir)
        mobicore = run_session(game, "mobicore", config, out_dir)
        saving = mobicore.power_saving_percent(android)
        savings.append(saving)
        rows.append(
            (
                game,
                f"{android.mean_power_mw:.0f}",
                f"{mobicore.mean_power_mw:.0f}",
                f"{saving:+.1f}%",
                f"{android.mean_fps:.1f}",
                f"{mobicore.mean_fps:.1f}",
                f"{android.mean_online_cores:.2f}",
                f"{mobicore.mean_online_cores:.2f}",
            )
        )

    print()
    print(
        render_table(
            (
                "game",
                "P and",
                "P mob",
                "saving",
                "fps and",
                "fps mob",
                "cores and",
                "cores mob",
            ),
            rows,
        )
    )
    print(f"\nmean power saving: {sum(savings) / len(savings):+.1f}% (paper: 5.3%)")
    print(f"per-tick traces written to {out_dir}/ (and = Android default, mob = MobiCore)")


if __name__ == "__main__":
    main()
