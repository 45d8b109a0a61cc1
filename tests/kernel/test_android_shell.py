"""The sysfs control plane over a live session."""

import pytest

from repro.config import SimulationConfig
from repro.errors import ConfigError
from repro.kernel.android_shell import build_sysfs
from repro.kernel.engine import Session
from repro.policies.static import StaticPolicy
from repro.soc.catalog import nexus5_spec
from repro.soc.platform import Platform
from repro.workloads.synthetic import ConstantWorkload


@pytest.fixture
def shell():
    platform = Platform.from_spec(nexus5_spec())
    session = Session(
        platform,
        ConstantWorkload(20.0),
        StaticPolicy(4, 960_000),
        SimulationConfig(duration_seconds=2.0),
        pin_uncore_max=False,
    )
    return session, build_sysfs(session)


class TestReads:
    def test_online_and_frequency(self, shell):
        session, tree = shell
        assert tree.read("/sys/devices/system/cpu/cpu0/online") == "1"
        session.platform.topology.core(1).set_frequency(960_000)
        assert (
            tree.read("/sys/devices/system/cpu/cpu1/cpufreq/scaling_cur_freq")
            == "960000"
        )

    def test_thermal_millidegrees(self, shell):
        _, tree = shell
        assert tree.read("/sys/class/thermal/thermal_zone0/temp") == "24000"

    def test_quota_view(self, shell):
        session, tree = shell
        session.stack.bandwidth.set_quota(0.9)
        assert tree.read("/sys/fs/cgroup/cpu/cpu.cfs_quota_us") == "90000"

    def test_path_listing(self, shell):
        _, tree = shell
        cpu0 = tree.list("sys/devices/system/cpu/cpu0")
        assert "/sys/devices/system/cpu/cpu0/online" in cpu0
        assert len(cpu0) == 5


class TestWrites:
    def test_offline_a_core(self, shell):
        session, tree = shell
        session.stack.hotplug.set_mpdecision(False)
        tree.write("/sys/devices/system/cpu/cpu3/online", "0")
        assert not session.platform.topology.core(3).is_online

    def test_mpdecision_blocks_offline_until_disabled(self, shell):
        """The paper's adb-shell sequence: disable mpdecision first."""
        session, tree = shell
        session.stack.hotplug.set_mpdecision(True)
        tree.write("/sys/devices/system/cpu/cpu3/online", "0")
        assert session.platform.topology.core(3).is_online  # vetoed
        tree.write("/sys/module/mpdecision/enabled", "0")
        tree.write("/sys/devices/system/cpu/cpu3/online", "0")
        assert not session.platform.topology.core(3).is_online

    def test_setspeed_quantises(self, shell):
        session, tree = shell
        tree.write("/sys/devices/system/cpu/cpu0/cpufreq/scaling_setspeed", "961000")
        assert session.platform.topology.core(0).frequency_khz == 1_036_800

    def test_scaling_limits(self, shell):
        session, tree = shell
        tree.write("/sys/devices/system/cpu/cpu0/cpufreq/scaling_max_freq", "960000")
        tree.write("/sys/devices/system/cpu/cpu0/cpufreq/scaling_setspeed", "2265600")
        assert session.platform.topology.core(0).frequency_khz == 960_000

    def test_quota_write(self, shell):
        session, tree = shell
        tree.write("/sys/fs/cgroup/cpu/cpu.cfs_quota_us", "80000")
        assert session.stack.bandwidth.quota == pytest.approx(0.8)

    def test_bad_boolean_rejected(self, shell):
        _, tree = shell
        with pytest.raises(ConfigError):
            tree.write("/sys/devices/system/cpu/cpu1/online", "maybe")

    def test_read_only_paths(self, shell):
        _, tree = shell
        with pytest.raises(ConfigError):
            tree.write("/sys/class/thermal/thermal_zone0/temp", "0")
        with pytest.raises(ConfigError):
            tree.write("/proc/stat/global_util", "0")


class TestSessionInteraction:
    def test_shell_settings_survive_a_static_session(self, shell):
        """Writes then a session: the static policy re-pins, but the
        run executes with the shell's quota in effect initially."""
        session, tree = shell
        tree.write("/sys/fs/cgroup/cpu/cpu.cfs_quota_us", "85000")
        result = session.run()  # run() resets the controller to 1.0
        assert result.mean_power_mw > 0
        assert session.stack.bandwidth.quota == 1.0
