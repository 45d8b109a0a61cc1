"""Cluster-aware topology: ClusterSpec, CpuTopology, hetero platforms."""

import pytest

from repro.errors import HotplugError, PlatformError, UnitsError
from repro.soc import ClusterSpec, CpuTopology, Platform
from repro.soc.battery import RailTopology
from repro.soc.catalog import (
    big_a15_cluster,
    galaxy_s6_spec,
    get_phone_spec,
    little_a7_cluster,
    nexus5_spec,
    odroid_xu3_spec,
)


@pytest.fixture
def little():
    return little_a7_cluster()


@pytest.fixture
def big():
    return big_a15_cluster()


@pytest.fixture
def topology(little, big):
    return CpuTopology((little, big))


class TestClusterSpec:
    def test_validation(self, little):
        import dataclasses

        with pytest.raises(PlatformError):
            dataclasses.replace(little, name="")
        with pytest.raises(PlatformError):
            dataclasses.replace(little, num_cores=0)
        with pytest.raises(UnitsError):
            dataclasses.replace(little, ipc_scale=0.0)

    def test_throughput_scales_with_ipc(self, little, big):
        assert little.max_throughput_ips == pytest.approx(
            4 * little.opp_table.max_frequency_khz * 1000.0 * 0.6
        )
        assert big.max_throughput_ips > little.max_throughput_ips

    def test_freq_range_label(self, little):
        assert little.freq_range_label() == "300.0-1200.0 MHz"


class TestCpuTopology:
    def test_global_core_ids(self, topology):
        assert len(topology) == 8
        assert [core.core_id for core in topology.cores] == list(range(8))
        assert topology.cluster_ids == (0, 0, 0, 0, 1, 1, 1, 1)
        assert topology.cluster_id_of(3) == 0
        assert topology.cluster_id_of(4) == 1
        assert topology.is_heterogeneous

    def test_single_cluster_is_homogeneous(self, little):
        topology = CpuTopology((little,))
        assert not topology.is_heterogeneous
        assert topology.num_clusters == 1

    def test_core_lookup_out_of_range(self, topology):
        with pytest.raises(Exception):
            topology.core(8)

    def test_boot_core_must_stay_online(self, topology):
        with pytest.raises(HotplugError):
            topology.set_online_mask([False] + [True] * 7)

    def test_non_boot_cluster_may_fully_offline(self, topology):
        topology.set_online_mask([True] * 4 + [False] * 4)
        assert topology.online_count == 4
        assert topology.online_count_in(1) == 0
        assert topology.online_count_in(0) == 4

    def test_set_online_count_lowest_ids_first(self, topology):
        topology.set_online_count(5)
        assert list(topology.online_mask) == [True] * 5 + [False] * 3

    def test_ipc_scaled_capacity(self, topology):
        little_core = topology.core(0)
        big_core = topology.core(4)
        little_core.set_frequency(1_000_000)
        big_core.set_frequency(1_000_000)
        assert big_core.capacity_cycles(0.02) > little_core.capacity_cycles(0.02)
        assert little_core.capacity_cycles(0.02) == pytest.approx(
            1_000_000 * 1000.0 * 0.02 * 0.6
        )

    def test_set_all_frequencies_clamps_per_domain(self, topology):
        # 300 MHz exists on little but sits below big's whole ladder.
        topology.set_all_frequencies(300_000)
        assert topology.core(0).frequency_khz == 300_000
        assert (
            topology.core(4).frequency_khz
            == topology.clusters[1].opp_table.min_frequency_khz
        )

    def test_max_frequency_is_fastest_domain(self, topology, big):
        assert topology.max_frequency_khz == big.opp_table.max_frequency_khz

    def test_max_capacity_sums_domains(self, topology, little, big):
        dt = 0.02
        expected = (
            4 * little.opp_table.max_frequency_khz * 1000.0 * dt * 0.6
            + 4 * big.opp_table.max_frequency_khz * 1000.0 * dt * 1.0
        )
        assert topology.max_capacity_cycles(dt) == pytest.approx(expected)

    def test_reset(self, topology):
        topology.set_online_count(2)
        topology.reset()
        assert topology.online_count == len(topology)


class TestHeteroPlatformSpec:
    def test_from_clusters_primary_fields(self):
        spec = odroid_xu3_spec()
        assert spec.num_cores == 8
        assert spec.is_heterogeneous
        # Legacy fields mirror the primary (fastest) domain.
        assert spec.opp_table is spec.clusters[1].opp_table
        assert spec.power_params is spec.clusters[1].power_params

    def test_from_clusters_core_count_mismatch(self):
        import dataclasses

        spec = odroid_xu3_spec()
        with pytest.raises(PlatformError):
            dataclasses.replace(spec, num_cores=6)

    def test_non_primary_platform_base_rejected(self, little, big):
        import dataclasses

        from repro.soc.platform import PlatformSpec

        base = odroid_xu3_spec()
        leaky_little = dataclasses.replace(
            little,
            power_params=dataclasses.replace(
                little.power_params, platform_base_mw=100.0
            ),
        )
        with pytest.raises(PlatformError):
            PlatformSpec.from_clusters(
                name=base.name,
                soc=base.soc,
                release_year=base.release_year,
                clusters=(leaky_little, big),
                gpu=base.gpu,
                memory=base.memory,
                thermal=base.thermal,
            )

    def test_single_cluster_synthesis_shares_objects(self):
        spec = nexus5_spec()
        (cluster,) = spec.cluster_specs()
        assert cluster.opp_table is spec.opp_table
        assert cluster.power_params is spec.power_params
        assert cluster.ipc_scale == 1.0
        assert not spec.is_heterogeneous

    def test_spec_rows_render_cluster_layout(self):
        hetero = dict(galaxy_s6_spec().spec_rows())
        assert hetero["CPU"] == "4× Cortex-A53 + 4× Cortex-A57"
        assert "Freq. (little)" in hetero
        assert "Freq. (big)" in hetero
        legacy = dict(nexus5_spec().spec_rows())
        assert legacy["Freq. max"] == "2265.6 MHz"


class TestHeteroPlatform:
    def test_topology_and_rails(self):
        platform = Platform.from_spec(odroid_xu3_spec())
        assert len(platform.topology) == 8
        assert [rail.name for rail in platform.rails] == ["vdd-little", "vdd-big"]
        assert not platform.allows_per_core_dvfs
        assert not platform.domain_allows_per_core_dvfs(0)

    def test_power_breakdown_combines_domains(self):
        platform = Platform.from_spec(odroid_xu3_spec())
        platform.topology.set_online_mask([True] * 4 + [False] * 4)
        idle_little = platform.power_breakdown()
        platform.reset()
        all_on = platform.power_breakdown()
        assert len(all_on.per_core_mw) == 8
        # The big cluster's leakage dominates: powering it down must cut
        # CPU-attributable power.
        assert idle_little.cpu_mw < all_on.cpu_mw
        # The platform base is drawn exactly once, from the primary domain.
        assert all_on.base_mw == platform.spec.power_params.platform_base_mw

    def test_catalog_lookup(self):
        assert get_phone_spec("Odroid-XU3").is_heterogeneous
        assert get_phone_spec("Galaxy S6").is_heterogeneous
        assert not get_phone_spec("Nexus 5").is_heterogeneous
        assert odroid_xu3_spec().clusters[0].rail_topology is RailTopology.SHARED
