"""Scalar-vs-batched parity: the vectorized engine is bit-identical.

The scalar :class:`~repro.kernel.engine.Session` is the live oracle
(the same role ``_legacy_tracing`` plays for the columnar recorder): a
:class:`~repro.kernel.batch_engine.BatchSession` must reproduce its
:class:`~repro.metrics.summary.SessionSummary` exactly — ``==`` on every
field, floats bit for bit, per the contract in ``docs/NUMERICS.md`` —
for every registered policy x workload pair, whether the member
vectorizes or takes the internal scalar fallback.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SimulationConfig
from repro.errors import BatchError
from repro.kernel.batch_engine import BatchSession, batch_compatibility_key
from repro.kernel.engine import Session
from repro.metrics.summary import summarize
from repro.runner.spec import SessionSpec, TraceRequest
from repro.faults import FaultPlan, ThermalThrottleFault
from repro.scenario import (
    POLICY_REGISTRY,
    WORKLOAD_REGISTRY,
    platform_ref,
    policy_ref,
    workload_ref,
)

PLATFORM = "Nexus 5"

#: Required factory parameters for entries without usable defaults.
POLICY_PARAMS = {"static": {"online_count": 2, "frequency_khz": 1_190_400}}
WORKLOAD_PARAMS = {"game": {"title": "Badland"}}

CONFIG = SimulationConfig(duration_seconds=2.0, seed=3, warmup_seconds=0.4)

PAIRS = [
    (policy, workload)
    for policy in POLICY_REGISTRY.names()
    for workload in WORKLOAD_REGISTRY.names()
]

#: Policies the vector program implements.  ``energy-aware`` is a
#: cross-frequency-domain placement policy and is scalar by design
#: (same deliberate fallback as multi-cluster platform specs).
VECTOR_POLICIES = [
    name for name in POLICY_REGISTRY.names() if name != "energy-aware"
]


def make_spec(policy_name, workload_name, config=CONFIG, **spec_kwargs):
    """A registry-wired spec for one policy x workload pair."""
    return SessionSpec(
        platform=platform_ref(PLATFORM),
        policy=policy_ref(
            policy_name, platform=PLATFORM, **POLICY_PARAMS.get(policy_name, {})
        ),
        workload=workload_ref(
            workload_name, **WORKLOAD_PARAMS.get(workload_name, {})
        ),
        config=config,
        **spec_kwargs,
    )


def scalar_summary(spec):
    """The oracle: one scalar Session run, summarized."""
    from repro.soc.platform import Platform

    return summarize(
        Session(
            Platform.from_spec(spec.resolve_platform_spec()),
            spec.build_workload(),
            spec.build_policy(),
            spec.config,
            pin_uncore_max=spec.pin_uncore_max,
        ).run()
    )


def assert_identical(expected, got, context=""):
    """Field-by-field bit-identity between two summaries."""
    for spec_field in dataclasses.fields(expected):
        a = getattr(expected, spec_field.name)
        b = getattr(got, spec_field.name)
        assert a == b, f"{context}{spec_field.name}: scalar={a!r} batch={b!r}"


class TestRegistryPairParity:
    @pytest.mark.parametrize("policy_name,workload_name", PAIRS)
    def test_batch_summary_bit_identical(self, policy_name, workload_name):
        spec = make_spec(policy_name, workload_name)
        batch = BatchSession([spec])
        assert_identical(
            scalar_summary(spec),
            batch.run()[0],
            context=f"{policy_name}/{workload_name} ",
        )

    @pytest.mark.parametrize("policy_name", VECTOR_POLICIES)
    def test_busyloop_pairs_vectorize(self, policy_name):
        # The whole point of the batch engine: the sweep-shaped pairs
        # must actually take the vector path, not the fallback.
        batch = BatchSession([make_spec(policy_name, "busyloop")])
        assert batch.vectorized_count == 1
        assert batch.fallback_count == 0

    def test_non_busyloop_pairs_fall_back(self):
        batch = BatchSession([make_spec("mobicore", "geekbench")])
        assert batch.vectorized_count == 0
        assert batch.fallback_positions == (0,)

    def test_energy_aware_falls_back_by_design(self):
        # The placement policy reasons across frequency domains; the
        # single-table vector program leaves it to the scalar oracle.
        batch = BatchSession([make_spec("energy-aware", "busyloop")])
        assert batch.vectorized_count == 0
        assert batch.fallback_positions == (0,)


class TestMixedBatch:
    def test_mixed_members_in_spec_order(self):
        specs = []
        for index, policy_name in enumerate(VECTOR_POLICIES):
            specs.append(
                make_spec(
                    policy_name,
                    "busyloop",
                    config=SimulationConfig(
                        duration_seconds=2.0, seed=index, warmup_seconds=0.2
                    ),
                )
            )
        # A fallback member wedged in the middle must not shift anyone.
        specs.insert(
            2,
            make_spec(
                "android-default",
                "geekbench",
                config=SimulationConfig(
                    duration_seconds=2.0, seed=9, warmup_seconds=0.2
                ),
            ),
        )
        batch = BatchSession(specs)
        assert batch.vectorized_count == len(specs) - 1
        assert batch.fallback_count == 1
        results = batch.run()
        assert len(results) == len(specs)
        for index, spec in enumerate(specs):
            assert_identical(
                scalar_summary(spec), results[index], context=f"spec[{index}] "
            )


class TestCompatibilityKey:
    def test_plain_spec_is_batchable(self):
        assert batch_compatibility_key(make_spec("mobicore", "busyloop")) is not None

    def test_varying_seed_keeps_the_key(self):
        a = make_spec(
            "mobicore", "busyloop", config=SimulationConfig(seed=1, duration_seconds=2.0)
        )
        b = make_spec(
            "race-to-idle",
            "busyloop",
            config=SimulationConfig(seed=2, duration_seconds=2.0),
        )
        assert batch_compatibility_key(a) == batch_compatibility_key(b)

    def test_traced_spec_is_rejected(self):
        spec = make_spec("mobicore", "busyloop", trace=TraceRequest())
        assert batch_compatibility_key(spec) is None

    def test_faulted_spec_is_rejected(self):
        plan = FaultPlan(
            (ThermalThrottleFault(at_seconds=0.5, duration_seconds=0.5, steps=2),)
        )
        spec = make_spec("mobicore", "busyloop", faults=plan)
        assert batch_compatibility_key(spec) is None

    def test_differing_timing_keys_differ(self):
        a = make_spec(
            "mobicore", "busyloop", config=SimulationConfig(duration_seconds=2.0)
        )
        b = make_spec(
            "mobicore", "busyloop", config=SimulationConfig(duration_seconds=4.0)
        )
        assert batch_compatibility_key(a) != batch_compatibility_key(b)

    def test_incompatible_specs_raise(self):
        a = make_spec(
            "mobicore", "busyloop", config=SimulationConfig(duration_seconds=2.0)
        )
        b = make_spec(
            "mobicore", "busyloop", config=SimulationConfig(duration_seconds=4.0)
        )
        with pytest.raises(BatchError):
            BatchSession([a, b])

    def test_empty_batch_raises(self):
        with pytest.raises(BatchError):
            BatchSession([])

    def test_traced_member_raises(self):
        with pytest.raises(BatchError):
            BatchSession([make_spec("mobicore", "busyloop", trace=TraceRequest())])


class TestBatchParityProperty:
    """Hypothesis sweep over the vectorizable parameter space.

    Each example builds a three-member batch — same platform and
    timing, randomized policy, busy-loop intensity, thread count, idle
    gap, and seeds — and checks bit-identical summaries against three
    scalar oracle runs (the contract ``docs/NUMERICS.md`` documents).
    """

    @settings(max_examples=20, deadline=None)
    @given(
        policy_name=st.sampled_from(VECTOR_POLICIES),
        target=st.floats(min_value=0.0, max_value=100.0),
        threads=st.integers(min_value=0, max_value=6),
        idle_gap=st.sampled_from([0.0, 0.04, 0.25]),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_random_sweep_points_bit_identical(
        self, policy_name, target, threads, idle_gap, seed
    ):
        config = SimulationConfig(
            duration_seconds=1.0, seed=seed, warmup_seconds=0.2
        )
        specs = [
            SessionSpec(
                platform=platform_ref(PLATFORM),
                policy=policy_ref(
                    policy_name,
                    platform=PLATFORM,
                    **POLICY_PARAMS.get(policy_name, {}),
                ),
                workload=workload_ref(
                    "busyloop",
                    target_load_percent=min(100.0, target + 7.0 * position),
                    num_threads=threads,
                    idle_gap_seconds=idle_gap,
                ),
                config=config,
            )
            for position in range(3)
        ]
        batch = BatchSession(specs)
        assert batch.fallback_count == 0
        results = batch.run()
        for position, spec in enumerate(specs):
            assert_identical(
                scalar_summary(spec),
                results[position],
                context=f"{policy_name} member[{position}] ",
            )
