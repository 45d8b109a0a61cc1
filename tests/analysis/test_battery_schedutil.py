"""The schedutil extension baseline."""

import pytest

from repro.errors import GovernorError
from repro.governors.base import GovernorInput
from repro.governors.schedutil import SchedutilGovernor


def observe(opp_table, load, current):
    return GovernorInput(
        load_percent=load, current_khz=current, opp_table=opp_table, dt_seconds=0.02
    )


class TestSchedutil:
    def test_idle_goes_to_fmin(self, opp_table):
        governor = SchedutilGovernor(down_rate_limit_s=0.0)
        assert governor.select(
            observe(opp_table, 0.0, opp_table.max_frequency_khz)
        ) == opp_table.min_frequency_khz

    def test_full_load_at_fmax_stays(self, opp_table):
        governor = SchedutilGovernor()
        assert governor.select(
            observe(opp_table, 100.0, opp_table.max_frequency_khz)
        ) == opp_table.max_frequency_khz

    def test_headroom_margin(self, opp_table):
        """At 60% of fmax-normalised utilization the target is 75% fmax."""
        governor = SchedutilGovernor(margin=1.25, down_rate_limit_s=0.0)
        fmax = opp_table.max_frequency_khz
        chosen = governor.select(observe(opp_table, 60.0, fmax))
        assert chosen == opp_table.ceil(fmax * 0.75).frequency_khz

    def test_frequency_invariance(self, opp_table):
        """Equal demand observed at different OPPs converges to one target."""
        governor = SchedutilGovernor(down_rate_limit_s=0.0)
        fmax = opp_table.max_frequency_khz
        # 50% busy at fmax == 100% busy at fmax/2: same fmax-normalised util
        at_fmax = governor.select(observe(opp_table, 50.0, fmax))
        governor.reset()
        half = opp_table.ceil(fmax / 2).frequency_khz
        at_half = governor.select(
            observe(opp_table, 50.0 * fmax / half, half)
        )
        assert at_fmax == at_half

    def test_down_rate_limit(self, opp_table):
        governor = SchedutilGovernor(down_rate_limit_s=0.05)
        current = opp_table.max_frequency_khz
        first = governor.select(observe(opp_table, 10.0, current))
        assert first == current  # rate limited
        for _ in range(3):
            current = governor.select(observe(opp_table, 10.0, current))
        assert current < opp_table.max_frequency_khz

    def test_bad_margin(self):
        with pytest.raises(GovernorError):
            SchedutilGovernor(margin=0.9)
