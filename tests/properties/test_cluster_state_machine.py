"""Stateful property test: the cluster under arbitrary operation sequences.

A hypothesis rule-based machine performs random hotplug and DVFS
operations on a one-domain topology and checks the structural invariants
after every step: core 0 online, at least one core online, every
frequency a table entry, utilization consistent with the online mask.
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.errors import HotplugError
from repro.soc.catalog import nexus5_spec
from repro.soc.power_model import CpuPowerModel
from repro.soc.topology import CpuTopology

SPEC = nexus5_spec()
TABLE = SPEC.opp_table
MODEL = CpuPowerModel(SPEC.power_params, TABLE)


class ClusterMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.cluster = CpuTopology(SPEC.cluster_specs())

    @rule(count=st.integers(min_value=1, max_value=4))
    def set_online_count(self, count):
        self.cluster.set_online_count(count)

    @rule(
        mask=st.tuples(
            st.just(True), st.booleans(), st.booleans(), st.booleans()
        )
    )
    def set_online_mask(self, mask):
        self.cluster.set_online_mask(list(mask))

    @rule(
        core_id=st.integers(min_value=0, max_value=3),
        frequency=st.sampled_from(TABLE.frequencies_khz),
    )
    def set_core_frequency(self, core_id, frequency):
        self.cluster.core(core_id).set_frequency(frequency)

    @rule(frequency=st.sampled_from(TABLE.frequencies_khz))
    def global_dvfs(self, frequency):
        self.cluster.set_all_frequencies(frequency)

    @rule(
        core_id=st.integers(min_value=0, max_value=3),
        busy=st.floats(min_value=0.0, max_value=1.0),
    )
    def account_busy(self, core_id, busy):
        core = self.cluster.core(core_id)
        if core.is_online:
            core.account(busy)
        else:
            core.account(0.0)

    @rule()
    def reject_core0_offline(self):
        with pytest.raises(HotplugError):
            self.cluster.set_online_mask([False, True, True, True])

    @rule()
    def reset(self):
        self.cluster.reset()

    @invariant()
    def core0_always_online(self):
        assert self.cluster.core(0).is_online

    @invariant()
    def at_least_one_online(self):
        assert self.cluster.online_count >= 1

    @invariant()
    def frequencies_are_table_entries(self):
        for frequency in self.cluster.frequencies_khz:
            assert frequency in TABLE

    @invariant()
    def offline_cores_report_zero_busy(self):
        for core in self.cluster.cores:
            if not core.is_online:
                assert core.busy_fraction == 0.0

    @invariant()
    def utilization_within_bounds(self):
        assert 0.0 <= self.cluster.global_utilization_percent() <= 100.0

    @invariant()
    def power_model_always_evaluates(self):
        breakdown = MODEL.breakdown(self.cluster)
        assert breakdown.total_mw >= MODEL.params.platform_base_mw


TestClusterMachine = ClusterMachine.TestCase
TestClusterMachine.settings = settings(
    max_examples=30, stateful_step_count=30, deadline=None
)
