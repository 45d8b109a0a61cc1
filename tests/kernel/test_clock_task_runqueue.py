"""Clock and task primitives."""

import pytest

from repro.errors import ConfigError, WorkloadError
from repro.kernel.clock import SimClock
from repro.kernel.task import Task, TaskDemand


class TestSimClock:
    def test_starts_at_zero(self):
        clock = SimClock(0.02)
        assert clock.tick == 0
        assert clock.now_seconds == 0.0

    def test_advance(self):
        clock = SimClock(0.02)
        clock.advance()
        clock.advance(4)
        assert clock.tick == 5
        assert clock.now_seconds == pytest.approx(0.1)

    def test_cannot_go_backwards(self):
        with pytest.raises(ConfigError):
            SimClock(0.02).advance(0)

    def test_reset(self):
        clock = SimClock(0.02)
        clock.advance(10)
        clock.reset()
        assert clock.tick == 0


class TestTask:
    def test_defaults(self):
        task = Task(0, "render")
        assert not task.parallel
        assert task.weight == 1.0

    def test_negative_id_rejected(self):
        with pytest.raises(WorkloadError):
            Task(-1, "x")

    def test_zero_weight_rejected(self):
        with pytest.raises(WorkloadError):
            Task(0, "x", weight=0.0)

    def test_demand_non_negative(self):
        with pytest.raises(Exception):
            TaskDemand(Task(0, "x"), -1.0)

