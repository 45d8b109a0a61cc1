"""FactoryRef and SessionSpec: portability, resolution, content address."""

import dataclasses

import pytest

from repro.config import SimulationConfig
from repro.errors import RunnerError
from repro.policies.static import StaticPolicy
from repro.runner import (
    CACHE_FORMAT_VERSION,
    KEY_SCHEMA_VERSION,
    FactoryRef,
    SessionSpec,
)
from repro.soc.catalog import nexus5_spec
from repro.workloads.busyloop import BusyLoopApp


STATIC = FactoryRef.to("repro.policies.static:StaticPolicy", 2, 960_000)
BUSY = FactoryRef.to("repro.workloads.busyloop:BusyLoopApp", 40.0)


def make_spec(**overrides):
    values = dict(platform="Nexus 5", policy=STATIC, workload=BUSY)
    values.update(overrides)
    return SessionSpec(**values)


class TestFactoryRef:
    def test_resolves_to_a_fresh_instance(self):
        policy = STATIC.resolve()
        assert isinstance(policy, StaticPolicy)
        assert STATIC.resolve() is not policy

    def test_ref_is_itself_a_factory(self):
        workload = BUSY()
        assert isinstance(workload, BusyLoopApp)

    def test_kwargs_are_sorted_for_stable_hashing(self):
        a = FactoryRef.to("m.o:f", x=1, y=2)
        b = FactoryRef.to("m.o:f", y=2, x=1)
        assert a == b

    def test_kwargs_normalise_on_every_constructor_path(self):
        # The direct constructor used to bypass .to()'s sorting, so refs
        # built with different kwarg orders hashed to different cache
        # addresses.  Normalisation now happens in __post_init__.
        a = FactoryRef("m.o:f", kwargs=(("y", 2), ("x", 1)))
        b = FactoryRef("m.o:f", kwargs=(("x", 1), ("y", 2)))
        assert a == b
        assert a.kwargs == (("x", 1), ("y", 2))
        assert a.payload() == b.payload()

    def test_kwarg_order_does_not_change_spec_cache_key(self):
        spec_a = make_spec(workload=FactoryRef("m.o:f", kwargs=(("y", 2), ("x", 1))))
        spec_b = make_spec(workload=FactoryRef("m.o:f", kwargs=(("x", 1), ("y", 2))))
        assert spec_a.cache_key() == spec_b.cache_key()

    def test_duplicate_kwarg_names_rejected(self):
        with pytest.raises(RunnerError, match="duplicate kwarg"):
            FactoryRef("m.o:f", kwargs=(("x", 1), ("x", 2)))

    def test_target_must_have_module_and_attr(self):
        with pytest.raises(RunnerError):
            FactoryRef.to("repro.policies.static.StaticPolicy")
        with pytest.raises(RunnerError):
            FactoryRef.to(":StaticPolicy")

    def test_arguments_must_be_primitives(self):
        with pytest.raises(RunnerError):
            FactoryRef.to("m.o:f", object())
        with pytest.raises(RunnerError):
            FactoryRef.to("m.o:f", option=object())

    def test_unresolvable_targets_fail_cleanly(self):
        with pytest.raises(RunnerError):
            FactoryRef.to("no.such.module:thing").resolve()
        with pytest.raises(RunnerError):
            FactoryRef.to("repro.policies.static:NoSuchPolicy").resolve()


class TestPortability:
    def test_named_platform_and_refs_are_portable(self):
        assert make_spec().is_portable

    def test_lambda_factory_is_not_portable(self):
        assert not make_spec(policy=lambda: StaticPolicy(4, 960_000)).is_portable

    def test_live_platform_spec_is_not_portable(self):
        assert not make_spec(platform=nexus5_spec()).is_portable

    def test_non_portable_spec_has_no_cache_identity(self):
        spec = make_spec(workload=lambda: BusyLoopApp(40.0))
        with pytest.raises(RunnerError):
            spec.cache_key()

    def test_non_portable_spec_still_resolves(self):
        spec = make_spec(platform=nexus5_spec())
        assert spec.resolve_platform_spec().name == "Nexus 5"
        assert isinstance(spec.build_policy(), StaticPolicy)


class TestCacheKey:
    def test_key_is_stable_across_equal_specs(self):
        assert make_spec().cache_key() == make_spec().cache_key()

    def test_payload_covers_every_config_field(self):
        payload = make_spec().cache_payload()
        # Keys hash the *key schema* version, decoupled from the entry
        # file format so format bumps never re-address existing entries.
        assert payload["version"] == KEY_SCHEMA_VERSION
        for field in dataclasses.fields(SimulationConfig):
            assert field.name in payload["config"]

    def test_key_schema_and_entry_format_are_decoupled(self):
        # Bumping CACHE_FORMAT_VERSION (v3 columns) must not have moved
        # any content address: addresses still hash schema version 2.
        assert KEY_SCHEMA_VERSION == 2
        assert CACHE_FORMAT_VERSION == 3

    @pytest.mark.parametrize(
        "variant",
        [
            lambda spec: dataclasses.replace(spec, platform="Nexus S"),
            lambda spec: dataclasses.replace(spec, pin_uncore_max=False),
            lambda spec: dataclasses.replace(
                spec, config=dataclasses.replace(spec.config, seed=7)
            ),
            lambda spec: dataclasses.replace(
                spec, config=dataclasses.replace(spec.config, warmup_seconds=9.0)
            ),
            lambda spec: dataclasses.replace(
                spec,
                policy=FactoryRef.to("repro.policies.static:StaticPolicy", 4, 960_000),
            ),
        ],
    )
    def test_any_field_change_changes_the_key(self, variant):
        base = make_spec()
        assert variant(base).cache_key() != base.cache_key()

    def test_platform_ref_and_name_hash_differently(self):
        by_ref = make_spec(
            platform=FactoryRef.to("repro.soc.catalog:nexus5_spec")
        )
        assert by_ref.is_portable
        assert by_ref.cache_key() != make_spec().cache_key()
