"""Property-based frame accounting."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.frames import FramePipeline


class TestFrameConservation:
    @settings(max_examples=40, deadline=None)
    @given(
        executed=st.lists(
            st.floats(min_value=0.0, max_value=5e7), min_size=1, max_size=60
        ),
        cost=st.floats(min_value=1e5, max_value=1e7),
    )
    def test_frames_never_exceed_cycles_over_cost(self, executed, cost):
        """Completed frames equal executed cycles // cost, cumulatively."""
        pipeline = FramePipeline(frame_cost_cycles=cost, target_fps=60.0)
        for cycles in executed:
            pipeline.record(cycles, 0.02)
        total = sum(executed)
        assert pipeline.completed_frames <= total / cost + 1e-9
        assert pipeline.completed_frames >= total / cost - 1.0

    @settings(max_examples=40, deadline=None)
    @given(
        executed=st.lists(
            st.floats(min_value=0.0, max_value=5e7), min_size=1, max_size=60
        )
    )
    def test_mean_fps_never_exceeds_target(self, executed):
        pipeline = FramePipeline(frame_cost_cycles=1e5, target_fps=60.0)
        for cycles in executed:
            pipeline.record(cycles, 0.02)
        assert pipeline.mean_fps <= 60.0
