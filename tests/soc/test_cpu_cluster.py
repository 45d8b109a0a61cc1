"""Online mask, DVFS, and aggregate views of a one-domain topology."""

import pytest

from repro.errors import HotplugError
from repro.soc.cpu_cluster import CpuCluster
from repro.soc.topology import CpuTopology


@pytest.fixture
def cluster(spec):
    return CpuTopology(spec.cluster_specs())


class TestConstruction:
    def test_boots_all_online(self, cluster):
        assert cluster.online_count == 4
        assert all(cluster.online_mask)

    def test_zero_cores_rejected(self, opp_table):
        with pytest.raises(HotplugError):
            CpuCluster(0, "cpu", opp_table, 1.0, ())

    def test_core_lookup(self, cluster):
        assert cluster.core(2).core_id == 2
        with pytest.raises(HotplugError):
            cluster.core(4)


class TestOnlineMask:
    def test_set_online_count(self, cluster):
        cluster.set_online_count(2)
        assert cluster.online_mask == [True, True, False, False]

    def test_count_out_of_range(self, cluster):
        with pytest.raises(HotplugError):
            cluster.set_online_count(0)
        with pytest.raises(HotplugError):
            cluster.set_online_count(5)

    def test_mask_must_keep_core0(self, cluster):
        with pytest.raises(HotplugError):
            cluster.set_online_mask([False, True, True, True])

    def test_mask_length_checked(self, cluster):
        with pytest.raises(HotplugError):
            cluster.set_online_mask([True, True])

    def test_mask_returns_latency(self, cluster):
        latency = cluster.set_online_mask([True, True, False, False])
        assert latency > 0.0
        # applying the same mask again is free
        assert cluster.set_online_mask([True, True, False, False]) == 0.0

    def test_arbitrary_mask(self, cluster):
        cluster.set_online_mask([True, False, True, False])
        assert cluster.online_count == 2
        assert [c.core_id for c in cluster.online_cores] == [0, 2]


class TestFrequencies:
    def test_global_dvfs(self, cluster):
        cluster.set_all_frequencies(960_000)
        assert cluster.frequencies_khz == [960_000] * 4

    def test_mean_online_frequency_ignores_offline(self, cluster):
        cluster.set_all_frequencies(300_000)
        cluster.core(0).set_frequency(2_265_600)
        cluster.set_online_mask([True, True, False, False])
        expected = (2_265_600 + 300_000) / 2
        assert cluster.mean_online_frequency_khz() == pytest.approx(expected)


class TestAggregates:
    def test_total_capacity_counts_online_only(self, cluster):
        cluster.set_all_frequencies(300_000)
        full = cluster.total_capacity_cycles(0.02)
        cluster.set_online_count(2)
        assert cluster.total_capacity_cycles(0.02) == pytest.approx(full / 2)

    def test_max_capacity_is_all_cores_at_fmax(self, cluster, opp_table):
        expected = 4 * opp_table.max_frequency_khz * 1000 * 0.02
        assert cluster.max_capacity_cycles(0.02) == pytest.approx(expected)
        cluster.set_online_count(1)  # max capacity ignores the mask
        assert cluster.max_capacity_cycles(0.02) == pytest.approx(expected)

    def test_global_utilization_averages_online(self, cluster):
        for core in cluster.cores:
            core.account(0.5)
        assert cluster.global_utilization_percent() == pytest.approx(50.0)
        cluster.set_online_count(2)
        cluster.core(0).account(1.0)
        cluster.core(1).account(0.0)
        assert cluster.global_utilization_percent() == pytest.approx(50.0)

    def test_per_core_utilization(self, cluster):
        cluster.core(0).account(0.25)
        utils = cluster.per_core_utilization_percent()
        assert utils[0] == pytest.approx(25.0)
        assert utils[3] == pytest.approx(0.0)

    def test_reset_restores_boot_state(self, cluster, opp_table):
        cluster.set_online_count(1)
        cluster.set_all_frequencies(opp_table.max_frequency_khz)
        cluster.core(0).account(1.0)
        cluster.reset()
        assert cluster.online_count == 4
        assert cluster.frequencies_khz == [opp_table.min_frequency_khz] * 4
        assert cluster.global_utilization_percent() == 0.0
