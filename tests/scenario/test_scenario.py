"""Scenario documents: schema validation, JSON round trips, cache identity."""

import pytest

from repro.config import SimulationConfig
from repro.errors import RegistryError, ScenarioError
from repro.faults import FaultPlan, ThermalThrottleFault
from repro.runner.spec import TraceRequest
from repro.scenario import (
    PLATFORM_REGISTRY,
    POLICY_REGISTRY,
    WORKLOAD_REGISTRY,
    Scenario,
)

#: Required factory params for entries whose factories have no defaults.
REQUIRED_POLICY_PARAMS = {"static": {"online_count": 2, "frequency_khz": 960_000}}
REQUIRED_WORKLOAD_PARAMS = {"game": {"title": "Badland"}}


class TestSchema:
    def test_defaults_build_a_valid_scenario(self):
        scenario = Scenario()
        scenario.validate()
        assert scenario.policy == "android-default"

    def test_non_string_component_rejected(self):
        with pytest.raises(ScenarioError, match="'policy' must be a string"):
            Scenario(policy=3)

    def test_empty_component_rejected(self):
        with pytest.raises(ScenarioError, match="non-empty"):
            Scenario(workload="")

    def test_params_accept_mappings_and_normalise_order(self):
        a = Scenario(workload_params={"b": 1, "a": 2})
        b = Scenario(workload_params=(("a", 2), ("b", 1)))
        assert a == b
        assert a.workload_params == (("a", 2), ("b", 1))

    def test_duplicate_param_names_rejected(self):
        with pytest.raises(ScenarioError, match="duplicate parameter"):
            Scenario(policy_params=(("x", 1), ("x", 2)))

    def test_non_primitive_param_rejected(self):
        with pytest.raises(ScenarioError, match="JSON primitives"):
            Scenario(workload_params={"x": object()})

    def test_bad_config_type_rejected(self):
        with pytest.raises(ScenarioError, match="SimulationConfig"):
            Scenario(config={"duration_seconds": 5.0})

    def test_unknown_payload_field_rejected(self):
        with pytest.raises(ScenarioError, match="unknown scenario field"):
            Scenario.from_payload({"policyy": "mobicore"})

    def test_unknown_config_field_rejected(self):
        with pytest.raises(ScenarioError, match="unknown config field"):
            Scenario.from_payload({"config": {"durationn": 5.0}})

    def test_unknown_trace_field_rejected(self):
        with pytest.raises(ScenarioError, match="unknown trace field"):
            Scenario.from_payload({"trace": {"ring": 10}})
        with pytest.raises(ScenarioError, match="unknown trace field"):
            Scenario.from_payload({"trace": {"profile": True}})

    def test_invalid_json_is_typed(self):
        with pytest.raises(ScenarioError, match="not valid JSON"):
            Scenario.from_json("{nope")

    def test_missing_file_is_typed(self, tmp_path):
        with pytest.raises(ScenarioError, match="cannot read"):
            Scenario.load(tmp_path / "missing.json")

    def test_unknown_names_surface_at_validate_not_construction(self):
        scenario = Scenario(policy="not-a-policy")
        with pytest.raises(RegistryError, match="unknown policy"):
            scenario.validate()


class TestRoundTrip:
    def full_scenario(self):
        return Scenario(
            platform="Nexus 4",
            policy="mobicore",
            workload="busyloop",
            policy_params={"use_dcs": False},
            workload_params={"target_load_percent": 35.0},
            config=SimulationConfig(duration_seconds=8.0, seed=3, warmup_seconds=1.0),
            pin_uncore_max=False,
            label="round-trip",
            trace=TraceRequest(categories=("policy",), ring_capacity=64),
            faults=FaultPlan.of(
                ThermalThrottleFault(at_seconds=2.0, duration_seconds=1.0)
            ),
        )

    def test_full_scenario_round_trips(self):
        scenario = self.full_scenario()
        again = Scenario.from_json(scenario.to_json())
        assert again == scenario

    def test_file_round_trip(self, tmp_path):
        scenario = self.full_scenario()
        path = tmp_path / "scenario.json"
        path.write_text(scenario.to_json(), encoding="utf-8")
        assert Scenario.load(path) == scenario

    def test_with_seed_derives_a_sibling(self):
        scenario = Scenario().with_seed(7)
        assert scenario.config.seed == 7
        assert Scenario().config.seed == 0

    def test_describe_names_the_grid_point(self):
        text = self.full_scenario().describe()
        assert "busyloop" in text and "mobicore" in text and "seed=3" in text


class TestCacheIdentity:
    """Every registered name survives Scenario -> JSON -> Scenario -> spec."""

    @pytest.mark.parametrize("policy", POLICY_REGISTRY.names())
    def test_policy_names_round_trip_to_same_cache_key(self, policy):
        scenario = Scenario(
            policy=policy, policy_params=REQUIRED_POLICY_PARAMS.get(policy, {})
        )
        direct = scenario.compile()
        again = Scenario.from_json(scenario.to_json()).compile()
        assert again.cache_key() == direct.cache_key()

    @pytest.mark.parametrize("workload", WORKLOAD_REGISTRY.names())
    def test_workload_names_round_trip_to_same_cache_key(self, workload):
        scenario = Scenario(
            workload=workload,
            workload_params=REQUIRED_WORKLOAD_PARAMS.get(workload, {}),
        )
        direct = scenario.compile()
        again = Scenario.from_json(scenario.to_json()).compile()
        assert again.cache_key() == direct.cache_key()

    @pytest.mark.parametrize("platform", PLATFORM_REGISTRY.names())
    def test_platform_names_round_trip_to_same_cache_key(self, platform):
        scenario = Scenario(platform=platform, policy="mobicore")
        direct = scenario.compile()
        again = Scenario.from_json(scenario.to_json()).compile()
        assert again.cache_key() == direct.cache_key()

    def test_param_order_does_not_change_cache_key(self):
        a = Scenario(workload_params={"num_threads": 2, "target_load_percent": 30.0})
        b = Scenario(workload_params={"target_load_percent": 30.0, "num_threads": 2})
        assert a.compile().cache_key() == b.compile().cache_key()

    def test_label_is_not_part_of_the_cache_key(self):
        plain = Scenario().compile()
        labelled = Scenario(label="tagged").compile()
        assert labelled.cache_key() == plain.cache_key()

    def test_faults_fork_the_cache_key(self):
        plan = FaultPlan.of(ThermalThrottleFault(at_seconds=1.0, duration_seconds=1.0))
        clean = Scenario().compile()
        faulted = Scenario(faults=plan).compile()
        assert faulted.cache_key() != clean.cache_key()
