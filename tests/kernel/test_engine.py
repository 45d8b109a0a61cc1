"""The engine split: KernelStack lifecycle and the incremental Session."""

import pytest

from repro.errors import ExperimentError
from repro.kernel.engine import KernelStack, Session
from repro.policies.android_default import AndroidDefaultPolicy
from repro.policies.base import PolicyDecision
from repro.policies.static import StaticPolicy
from repro.soc.catalog import nexus5_spec
from repro.soc.platform import Platform
from repro.workloads.busyloop import BusyLoopApp


def fresh_session(config, policy=None, workload=None):
    platform = Platform.from_spec(nexus5_spec())
    return Session(
        platform,
        workload if workload is not None else BusyLoopApp(40.0),
        policy if policy is not None else AndroidDefaultPolicy(),
        config,
        pin_uncore_max=False,
    )


class TestKernelStack:
    def test_apply_routes_to_every_mechanism(self, platform):
        stack = KernelStack(platform)
        stack.apply(
            PolicyDecision(
                target_frequencies_khz=[960_000] * 4,
                online_mask=[True, True, False, False],
                quota=0.5,
            )
        )
        assert list(platform.topology.online_mask) == [True, True, False, False]
        assert all(
            core.frequency_khz == 960_000 for core in platform.topology.online_cores
        )
        assert stack.bandwidth.quota == 0.5

    def test_reset_zeroes_transition_counters(self, platform, tiny_config):
        stack = KernelStack(platform)
        session = Session(
            platform,
            BusyLoopApp(40.0),
            AndroidDefaultPolicy(),
            tiny_config,
            pin_uncore_max=False,
            stack=stack,
        )
        session.run()
        assert stack.dvfs_transitions > 0
        stack.reset()
        assert stack.dvfs_transitions == 0
        assert stack.hotplug_transitions == 0

    def test_reset_restores_boot_state(self, platform):
        stack = KernelStack(platform)
        stack.apply(
            PolicyDecision(online_mask=[True, False, False, False], quota=0.25)
        )
        stack.reset()
        assert all(platform.topology.online_mask)
        assert stack.bandwidth.quota == 1.0


class TestSessionStepping:
    def test_step_auto_starts(self, tiny_config):
        session = fresh_session(tiny_config)
        assert not session.started
        session.step()
        assert session.started
        assert session.result().trace.buffer.scalar("tick").tolist() == [0.0]
        assert session.ticks_run == 1

    def test_finished_after_all_ticks_and_step_raises(self, tiny_config):
        session = fresh_session(tiny_config)
        for _ in range(tiny_config.total_ticks):
            session.step()
        assert session.finished
        with pytest.raises(ExperimentError):
            session.step()

    def test_result_before_start_raises(self, tiny_config):
        session = fresh_session(tiny_config)
        with pytest.raises(ExperimentError):
            session.result()

    def test_stepping_equals_run(self, short_config):
        """Driving tick by tick is the same computation as run()."""
        stepped = fresh_session(short_config)
        while not stepped.finished:
            stepped.step()
        ran = fresh_session(short_config)
        a, b = stepped.result(), ran.run()
        assert a.trace.to_csv() == b.trace.to_csv()
        assert a.dvfs_transitions == b.dvfs_transitions
        assert a.hotplug_transitions == b.hotplug_transitions

    def test_restart_resets_tick_counter(self, tiny_config):
        session = fresh_session(tiny_config)
        session.run()
        session.start()
        assert session.ticks_run == 0
        assert not session.finished


class TestPerSessionAccounting:
    def test_second_run_counts_its_own_transitions(self, short_config):
        """Regression: transition counters used to accumulate across
        runs, so a reused session reported ever-growing churn."""
        session = fresh_session(short_config)
        first = session.run()
        second = session.run()
        assert first.dvfs_transitions > 0
        assert second.dvfs_transitions == first.dvfs_transitions
        assert second.hotplug_transitions == first.hotplug_transitions

    def test_results_keep_their_own_cpuidle(self, tiny_config):
        """Each run's result holds its own residency ledger, not an alias
        of the live stack's."""
        session = fresh_session(tiny_config, policy=StaticPolicy(2, 960_000))
        first = session.run()
        second = session.run()
        assert first.cpuidle is not second.cpuidle
        assert first.cpuidle.total_seconds == second.cpuidle.total_seconds
