"""Session-level governor behaviour: the section 2.2.1 taxonomy, measured.

Each stock governor's qualitative description is checked on full
simulated sessions: ondemand is reliable but power-hungry, conservative
is smoother, interactive is the most aggressive, powersave/performance
bound the range.
"""

import pytest

from repro.config import SimulationConfig
from repro.kernel.engine import Session
from repro.policies.android_default import AndroidDefaultPolicy
from repro.soc.catalog import nexus5_spec
from repro.soc.platform import Platform
from repro.workloads.busyloop import BusyLoopApp
from repro.workloads.synthetic import SineWorkload, StepWorkload

CFG = SimulationConfig(duration_seconds=10.0, seed=4, warmup_seconds=2.0)


def run(governor_name, workload):
    platform = Platform.from_spec(nexus5_spec())
    policy = AndroidDefaultPolicy(governor_name=governor_name, enable_hotplug=False)
    return Session(platform, workload, policy, CFG, pin_uncore_max=False).run()


@pytest.fixture(scope="module")
def sine_sessions():
    return {
        name: run(name, SineWorkload(40.0, 20.0, period_seconds=4.0))
        for name in ("ondemand", "conservative", "interactive", "powersave",
                     "performance", "schedutil")
    }


class TestPowerOrdering:
    def test_performance_is_the_ceiling(self, sine_sessions):
        top = sine_sessions["performance"].mean_power_mw
        for name, session in sine_sessions.items():
            assert session.mean_power_mw <= top + 1.0, name

    def test_powersave_is_the_floor(self, sine_sessions):
        bottom = sine_sessions["powersave"].mean_power_mw
        for name, session in sine_sessions.items():
            assert session.mean_power_mw >= bottom - 1.0, name

    def test_dynamic_governors_sit_between(self, sine_sessions):
        floor = sine_sessions["powersave"].mean_power_mw
        ceiling = sine_sessions["performance"].mean_power_mw
        for name in ("ondemand", "conservative", "interactive", "schedutil"):
            assert floor < sine_sessions[name].mean_power_mw < ceiling

    def test_schedutil_undercuts_ondemand(self, sine_sessions):
        """No jump-to-max waste: the modern governor is cheaper."""
        assert (
            sine_sessions["schedutil"].mean_power_mw
            < sine_sessions["ondemand"].mean_power_mw
        )


class TestResponsiveness:
    def test_powersave_starves_the_demand(self, sine_sessions):
        """Pinning fmin cannot execute a 40% fmax-relative load."""
        executed = sine_sessions["powersave"].trace.mean_scaled_load_percent()
        wanted = sine_sessions["performance"].trace.mean_scaled_load_percent()
        assert executed < wanted * 0.6

    def test_dynamic_governors_deliver_the_work(self, sine_sessions):
        wanted = sine_sessions["performance"].trace.mean_scaled_load_percent()
        for name in ("ondemand", "interactive", "conservative", "schedutil"):
            delivered = sine_sessions[name].trace.mean_scaled_load_percent()
            assert delivered >= wanted * 0.95, name

    def test_interactive_reaches_higher_frequencies_on_bursts(self):
        """'a much more aggressive CPU speed scaling' than conservative."""
        bursts = lambda: StepWorkload([(0.4, 10.0), (0.16, 85.0)])
        interactive = run("interactive", bursts())
        conservative = run("conservative", bursts())
        assert interactive.mean_frequency_khz > conservative.mean_frequency_khz

    def test_conservative_changes_frequency_in_small_steps(self):
        """Smooth stepping: no tick jumps more than ~2 ladder steps."""
        session = run("conservative", SineWorkload(40.0, 25.0, period_seconds=4.0))
        table = nexus5_spec().opp_table
        previous = None
        for frequency in session.trace.buffer.frequencies()[:, 0].tolist():
            index = table.index_of(frequency)
            if previous is not None:
                assert abs(index - previous) <= 2
            previous = index

    def test_ondemand_jumps_straight_to_fmax(self):
        """The defining ondemand behaviour, visible in a session trace."""
        session = run("ondemand", BusyLoopApp(95.0))
        table = nexus5_spec().opp_table
        frequencies = session.trace.buffer.frequencies()[:, 0].tolist()
        first_max = frequencies.index(table.max_frequency_khz)
        assert first_max <= 3  # reaches fmax within the first few ticks
