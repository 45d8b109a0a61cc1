"""The Figure 1 phone fleet catalog."""

import pytest

from repro.errors import PlatformError
from repro.soc.catalog import (
    PHONE_CATALOG,
    fleet_specs,
    get_phone_spec,
    nexus5_spec,
)
from repro.soc.platform import Platform


class TestCatalog:
    def test_six_phones(self):
        assert len(PHONE_CATALOG) == 6

    def test_paper_fleet_present(self):
        for name in (
            "Nexus S",
            "Motorola mb810",
            "Galaxy S II",
            "Nexus 4",
            "Nexus 5",
            "LG G3",
        ):
            assert get_phone_spec(name).name == name

    def test_unknown_phone_rejected(self):
        with pytest.raises(PlatformError):
            get_phone_spec("iPhone")

    def test_each_name_resolves_once(self):
        for name in ("Nexus 5", "Galaxy S II", "Odroid-XU3"):
            assert get_phone_spec(name) is get_phone_spec(name)
        with pytest.raises(PlatformError):
            get_phone_spec("iPhone")

    def test_fleet_sorted_by_year(self):
        years = [spec.release_year for spec in fleet_specs()]
        assert years == sorted(years)

    def test_core_counts_match_history(self):
        by_name = {spec.name: spec for spec in fleet_specs()}
        assert by_name["Nexus S"].num_cores == 1
        assert by_name["Galaxy S II"].num_cores == 2
        assert by_name["Nexus 5"].num_cores == 4

    def test_every_spec_boots(self):
        for spec in fleet_specs():
            platform = Platform.from_spec(spec)
            assert platform.topology.online_count == spec.num_cores


def full_stress_power(spec) -> float:
    platform = Platform.from_spec(spec)
    for core in platform.topology.cores:
        core.set_frequency(spec.opp_table.max_frequency_khz)
        core.account(1.0)
    return platform.power_breakdown().total_mw


class TestFleetCalibration:
    def test_fleet_full_stress_anchors(self):
        """Nexus S and Nexus 5 hit the section 1.2 numbers."""
        assert full_stress_power(get_phone_spec("Nexus S")) == pytest.approx(
            980.6, rel=0.01
        )
        assert full_stress_power(get_phone_spec("Nexus 5")) == pytest.approx(
            2403.82, rel=0.01
        )

    def test_power_grows_with_core_count(self):
        """Figure 1's headline: ~linear growth with cores."""
        powers = {
            spec.name: full_stress_power(spec) for spec in fleet_specs()
        }
        assert powers["Nexus S"] < powers["Galaxy S II"] < powers["Nexus 4"]
        assert powers["Nexus 4"] < powers["Nexus 5"] < powers["LG G3"]

    def test_nexus5_140_percent_over_nexus_s(self):
        ratio = full_stress_power(get_phone_spec("Nexus 5")) / full_stress_power(
            get_phone_spec("Nexus S")
        )
        assert 100.0 * (ratio - 1.0) == pytest.approx(140.0, abs=15.0)


class TestNexus5Variants:
    def test_default_is_unthrottled(self):
        spec = nexus5_spec()
        assert spec.thermal.throttle_temp_c == float("inf")

    def test_throttled_variant(self):
        spec = nexus5_spec(throttled=True)
        assert spec.thermal.throttle_temp_c < 50.0
        assert spec.thermal.release_temp_c < spec.thermal.throttle_temp_c

    def test_spec_rows_render(self):
        rows = dict(nexus5_spec().spec_rows())
        assert rows["SoC"] == "Snapdragon 800 (MSM8974)"
        assert rows["OS"].startswith("Android 6.0")
