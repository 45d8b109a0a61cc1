"""Utilization accounting and the delta signal."""

import pytest

from repro.errors import MeterError, UnitsError
from repro.kernel.procstat import ProcStat


class TestTickUtilization:
    def test_global_averages_online_only(self):
        stat = ProcStat()
        stat.record(0, (100.0, 50.0, 0.0, 0.0), (True, True, False, False))
        assert stat.per_core_percent == (100.0, 50.0, 0.0, 0.0)
        assert stat.global_percent == pytest.approx(75.0)

    def test_all_offline_is_zero(self):
        stat = ProcStat()
        stat.record(0, (0.0,), (False,))
        assert stat.global_percent == 0.0


class TestProcStat:
    def test_record_and_latest(self):
        stat = ProcStat()
        assert stat.record(0, [10.0, 20.0], [True, True]) == pytest.approx(15.0)
        assert stat.tick == 0
        assert stat.global_percent == pytest.approx(15.0)
        assert stat.delta_global_percent() == 0.0

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(MeterError):
            ProcStat().record(0, [10.0], [True, True])

    def test_out_of_range_percent_rejected(self):
        with pytest.raises(Exception):
            ProcStat().record(0, [120.0], [True])

    @pytest.mark.parametrize("values", [[float("nan"), 50.0], [50.0, float("nan")]])
    def test_nan_percent_rejected_in_any_slot(self, values):
        with pytest.raises(UnitsError):
            ProcStat().record(0, values, [True, True])

    def test_delta_between_last_two(self):
        stat = ProcStat()
        stat.record(0, [20.0], [True])
        stat.record(1, [35.0], [True])
        assert stat.delta_global_percent() == pytest.approx(15.0)

    def test_delta_zero_before_two_ticks(self):
        stat = ProcStat()
        assert stat.delta_global_percent() == 0.0
        stat.record(0, [20.0], [True])
        assert stat.delta_global_percent() == 0.0

    def test_reset(self):
        stat = ProcStat()
        stat.record(0, [10.0], [True])
        stat.record(1, [30.0], [True])
        stat.reset()
        assert stat.tick is None
        assert stat.per_core_percent == ()
        assert stat.global_percent == 0.0
        assert stat.delta_global_percent() == 0.0
