"""Trace replay fidelity: a captured trace reproduces the original session."""

import pytest

from repro.config import SimulationConfig
from repro.kernel.engine import Session
from repro.policies.android_default import AndroidDefaultPolicy
from repro.soc.catalog import nexus5_spec
from repro.soc.platform import Platform
from repro.workloads.base import WorkloadContext
from repro.workloads.games import game_workload
from repro.workloads.traces import DemandTrace, TraceWorkload

CFG = SimulationConfig(duration_seconds=6.0, seed=9, warmup_seconds=1.0)


def run(workload):
    platform = Platform.from_spec(nexus5_spec())
    return Session(
        platform, workload, AndroidDefaultPolicy(), CFG, pin_uncore_max=True
    ).run()


class TestReplayFidelity:
    def test_replayed_session_is_bit_identical(self, opp_table):
        """Capture a game's demand, replay it: the whole session trace
        (power, frequencies, cores, FPS-free columns) matches."""
        context = WorkloadContext(
            num_cores=4, opp_table=opp_table, dt_seconds=CFG.tick_seconds, seed=CFG.seed
        )
        captured = DemandTrace.capture(
            game_workload("Angry Birds"), context, ticks=CFG.total_ticks
        )

        original = run(game_workload("Angry Birds"))
        replayed = run(TraceWorkload(captured))

        for a, b in zip(original.trace.records, replayed.trace.records):
            assert a.frequencies_khz == b.frequencies_khz
            assert a.online_mask == b.online_mask
            assert a.power_mw == pytest.approx(b.power_mw, abs=1e-6)
            assert a.global_util_percent == pytest.approx(
                b.global_util_percent, abs=1e-9
            )

    def test_csv_round_tripped_trace_still_replays(self, opp_table):
        context = WorkloadContext(
            num_cores=4, opp_table=opp_table, dt_seconds=CFG.tick_seconds, seed=CFG.seed
        )
        captured = DemandTrace.capture(
            game_workload("Badland"), context, ticks=CFG.total_ticks
        )
        parsed = DemandTrace.from_csv(captured.to_csv())

        direct = run(TraceWorkload(captured))
        roundtripped = run(TraceWorkload(parsed))
        # CSV stores cycles to 0.1; power stays equal to float display noise
        assert roundtripped.mean_power_mw == pytest.approx(
            direct.mean_power_mw, rel=1e-4
        )

    def test_replay_is_policy_independent_input(self, opp_table):
        """The same trace drives different policies -- the controlled-
        variable property the A/B harness relies on."""
        from repro.core.mobicore import MobiCorePolicy

        context = WorkloadContext(
            num_cores=4, opp_table=opp_table, dt_seconds=CFG.tick_seconds, seed=CFG.seed
        )
        captured = DemandTrace.capture(
            game_workload("Badland"), context, ticks=CFG.total_ticks
        )
        platform = Platform.from_spec(nexus5_spec())
        mobicore = Session(
            platform,
            TraceWorkload(captured),
            MobiCorePolicy.for_platform(platform),
            CFG,
            pin_uncore_max=True,
        ).run()
        baseline = run(TraceWorkload(captured))
        assert mobicore.mean_power_mw < baseline.mean_power_mw
