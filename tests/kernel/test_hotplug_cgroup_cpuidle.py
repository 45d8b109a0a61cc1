"""Hotplug mechanism, bandwidth controller, and cpuidle accounting."""

import pytest

from repro.errors import BandwidthError, HotplugError, UnitsError
from repro.kernel.cgroup import CpuBandwidthController
from repro.kernel.cpuidle import CpuidleStats
from repro.kernel.hotplug import HotplugSubsystem
from repro.soc.core_state import CoreState
from repro.soc.topology import CpuTopology


@pytest.fixture
def cluster(spec):
    return CpuTopology(spec.cluster_specs())


class TestHotplugSubsystem:
    def test_apply_mask_without_mpdecision(self, cluster):
        hotplug = HotplugSubsystem(cluster, mpdecision_enabled=False)
        effective = hotplug.apply_mask([True, True, False, False])
        assert effective == [True, True, False, False]

    def test_mpdecision_vetoes_offline(self, cluster):
        """Section 2.2.2: mpdecision protects the phone from offlining."""
        hotplug = HotplugSubsystem(cluster, mpdecision_enabled=True)
        effective = hotplug.apply_mask([True, False, False, False])
        assert effective == [True, True, True, True]
        assert hotplug.vetoed_offline_requests == 3

    def test_mpdecision_allows_onlining(self, cluster):
        hotplug = HotplugSubsystem(cluster, mpdecision_enabled=False)
        hotplug.apply_mask([True, False, False, False])
        hotplug.set_mpdecision(True)
        effective = hotplug.apply_mask([True, True, True, True])
        assert effective == [True, True, True, True]

    def test_disable_mpdecision_enables_dcs(self, cluster):
        """The paper's adb-shell step: disable mpdecision, then offline."""
        hotplug = HotplugSubsystem(cluster, mpdecision_enabled=True)
        hotplug.apply_mask([True, False, False, False])
        assert cluster.online_count == 4
        hotplug.set_mpdecision(False)
        hotplug.apply_mask([True, False, False, False])
        assert cluster.online_count == 1

    def test_apply_count(self, cluster):
        hotplug = HotplugSubsystem(cluster, mpdecision_enabled=False)
        hotplug.apply_count(3)
        assert cluster.online_count == 3
        with pytest.raises(HotplugError):
            hotplug.apply_count(0)

    def test_latency_accumulates(self, cluster):
        hotplug = HotplugSubsystem(cluster, mpdecision_enabled=False)
        hotplug.apply_count(1)
        hotplug.apply_count(4)
        assert hotplug.transition_latency_seconds > 0.0
        assert hotplug.transition_count == 6

    def test_wrong_mask_length(self, cluster):
        hotplug = HotplugSubsystem(cluster)
        with pytest.raises(HotplugError):
            hotplug.apply_mask([True])


class TestBandwidthController:
    def test_full_quota_by_default(self):
        assert CpuBandwidthController().quota == 1.0

    def test_set_and_clamp_to_floor(self):
        controller = CpuBandwidthController(min_quota=0.5)
        assert controller.set_quota(0.75) == pytest.approx(0.75)
        assert controller.set_quota(0.2) == pytest.approx(0.5)

    def test_illegal_quota_rejected(self):
        controller = CpuBandwidthController()
        with pytest.raises(BandwidthError):
            controller.set_quota(0.0)
        with pytest.raises(BandwidthError):
            controller.set_quota(1.5)

    def test_quota_us_view(self):
        controller = CpuBandwidthController(period_us=100_000)
        controller.set_quota(0.9)
        assert controller.quota_us == 90_000

    def test_update_count(self):
        controller = CpuBandwidthController()
        controller.set_quota(0.9)
        controller.set_quota(0.9)
        controller.expand_full()
        assert controller.update_count == 2

    def test_reset(self):
        controller = CpuBandwidthController()
        controller.set_quota(0.5)
        controller.reset()
        assert controller.quota == 1.0
        assert controller.update_count == 0


class TestCpuidleStats:
    def test_partial_busy_splits_residency(self, cluster):
        stats = CpuidleStats(4)
        cluster.core(0).account(0.25)
        stats.record(cluster, 1.0)
        assert stats.residency_seconds(0, CoreState.ACTIVE) == pytest.approx(0.25)
        assert stats.residency_seconds(0, CoreState.IDLE) == pytest.approx(0.75)

    def test_offline_residency(self, cluster):
        stats = CpuidleStats(4)
        cluster.set_online_count(2)
        stats.record(cluster, 2.0)
        assert stats.residency_seconds(3, CoreState.OFFLINE) == pytest.approx(2.0)
        assert stats.residency_fraction(3, CoreState.OFFLINE) == pytest.approx(1.0)

    def test_fleet_fraction(self, cluster):
        stats = CpuidleStats(4)
        cluster.set_online_count(2)
        stats.record(cluster, 1.0)
        assert stats.fleet_fraction(CoreState.OFFLINE) == pytest.approx(0.5)

    def test_size_mismatch_rejected(self, cluster):
        stats = CpuidleStats(2)
        with pytest.raises(Exception):
            stats.record(cluster, 1.0)

    @pytest.mark.parametrize("dt", [0.0, -1.0, float("nan")])
    def test_non_positive_dt_rejected(self, cluster, dt):
        with pytest.raises(UnitsError):
            CpuidleStats(4).record(cluster, dt)

    def test_reset(self, cluster):
        stats = CpuidleStats(4)
        stats.record(cluster, 1.0)
        stats.reset()
        assert stats.total_seconds == 0.0
        assert stats.fleet_fraction(CoreState.IDLE) == 0.0
