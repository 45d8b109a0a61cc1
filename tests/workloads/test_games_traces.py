"""The five game workloads."""

import pytest

from repro.errors import WorkloadError
from repro.workloads.base import WorkloadContext
from repro.workloads.games import GAME_PROFILES, GameProfile, game_workload

DT = 0.02


@pytest.fixture
def context(opp_table):
    return WorkloadContext(num_cores=4, opp_table=opp_table, dt_seconds=DT, seed=7)


class TestGameCatalog:
    def test_five_games(self):
        assert len(GAME_PROFILES) == 5

    def test_paper_titles(self):
        for name in (
            "Real Racing 3",
            "Subway Surf",
            "Badland",
            "Angry Birds",
            "Asphalt 8",
        ):
            assert game_workload(name).name == name

    def test_unknown_game_rejected(self):
        with pytest.raises(WorkloadError):
            game_workload("Doom")

    def test_real_racing_is_steady(self):
        profile = GAME_PROFILES["Real Racing 3"]
        assert profile.burst_start_prob == 0.0

    def test_subway_surf_is_burstiest(self):
        burstiness = {
            name: profile.burst_start_prob * profile.burst_add_percent
            for name, profile in GAME_PROFILES.items()
        }
        assert max(burstiness, key=burstiness.get) == "Subway Surf"

    def test_fps_ceilings_in_games_band(self, opp_table):
        """Every game's one-core-at-fmax FPS ceiling sits near 15-23."""
        fmax_cps = opp_table.max_frequency_khz * 1000.0
        for profile in GAME_PROFILES.values():
            ceiling = fmax_cps / profile.frame_cost_cycles
            assert 15.0 <= ceiling <= 25.0


class TestGameWorkload:
    def test_tasks_are_render_plus_workers(self, context):
        workload = game_workload("Badland")
        workload.prepare(context)
        tasks = workload.tasks()
        assert tasks[0].name.endswith("render")
        assert len(tasks) == 1 + GAME_PROFILES["Badland"].worker_count

    def test_render_demand_constant(self, context):
        workload = game_workload("Badland")
        workload.prepare(context)
        first = workload.demand(0)[0]
        second = workload.demand(1)[0]
        assert first.cycles == pytest.approx(second.cycles)

    def test_execution_drives_fps(self, context):
        workload = game_workload("Badland")
        workload.prepare(context)
        cost = workload.profile.frame_cost_cycles
        for tick in range(100):
            workload.record_execution(tick, {0: cost * 20 * DT})
        assert workload.metrics()["mean_fps"] == pytest.approx(20.0, abs=0.5)

    def test_metrics(self, context):
        workload = game_workload("Angry Birds")
        workload.prepare(context)
        workload.record_execution(0, {0: 1e7})
        metrics = workload.metrics()
        assert "mean_fps" in metrics and "completed_frames" in metrics

    def test_seeded_determinism(self, opp_table):
        def demands(seed):
            workload = game_workload("Subway Surf")
            workload.prepare(WorkloadContext(4, opp_table, DT, seed))
            return [
                tuple((d.task.task_id, d.cycles) for d in workload.demand(t))
                for t in range(50)
            ]

        assert demands(1) == demands(1)
        assert demands(1) != demands(2)

    def test_validation(self):
        with pytest.raises(WorkloadError):
            GameProfile(name="bad", frame_cost_cycles=1e8, worker_count=-1,
                        worker_mean_percent=10.0)
