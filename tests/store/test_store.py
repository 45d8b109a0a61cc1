"""ExperimentStore: backfill migration, queries, merge, sharding, gc.

The store is a *view* over the v3 result cache: the acceptance bar is
that opening a warm cache as a store recomputes nothing and reads back
bit-identical summaries, that the sqlite index and a raw blob scan can
never disagree, and that shard stores merge into exactly the rows an
unsharded run would have produced.
"""

import json

import pytest

from repro.config import SimulationConfig
from repro.errors import RunnerError, StoreError
from repro.runner import SessionRunner, SessionSpec
from repro.runner.cache import ResultCache
from repro.scenario import (
    Scenario,
    ScenarioMatrix,
    policy_ref,
    shard_scenarios,
    workload_ref,
)
from repro.scenario.compile import compile_scenario
from repro.store import (
    AXIS_COLUMNS,
    QUERYABLE_COLUMNS,
    ExperimentStore,
    StoreQuery,
    index_row_from_document,
)

from ..runner.test_cache_columns import add_column_blob

CFG = SimulationConfig(duration_seconds=2.0, seed=0, warmup_seconds=0.5)


def sweep_specs(seeds=(0, 1), policies=("android-default", "mobicore")):
    """A small real policy x seed grid (cheap 2 s sessions)."""
    specs = []
    for seed in seeds:
        for policy in policies:
            kwargs = {"platform": "Nexus 5"} if policy == "mobicore" else {}
            specs.append(
                SessionSpec(
                    platform="Nexus 5",
                    policy=policy_ref(policy, **kwargs),
                    workload=workload_ref("busyloop", target_load_percent=40.0),
                    config=CFG.with_seed(seed),
                )
            )
    return specs


@pytest.fixture
def warm_cache(tmp_path):
    """A v3 cache populated by a real runner, plus what it computed."""
    runner = SessionRunner(jobs=1, cache_dir=tmp_path)
    specs = sweep_specs()
    summaries = runner.run(specs)
    return tmp_path, specs, summaries


class TestWarmCacheMigration:
    """Satellite: a warm v3 cache opens as a store with zero recomputes."""

    def test_backfill_indexes_every_entry_without_recompute(self, warm_cache):
        root, specs, summaries = warm_cache
        with ExperimentStore(root) as store:
            assert store.counters.backfilled == len(specs)
            assert store.counters.ingests == 0
            assert len(store) == len(specs)
            assert set(store.keys()) == {spec.cache_key() for spec in specs}

    def test_backfilled_summaries_are_bit_identical(self, warm_cache):
        root, specs, summaries = warm_cache
        with ExperimentStore(root) as store:
            by_key = {
                spec.cache_key(): summary
                for spec, summary in zip(specs, summaries)
            }
            read = store.summaries()
        assert len(read) == len(specs)
        # summaries() orders by key; every row must equal the live result
        # field for field (dataclass equality covers every float bit).
        for spec_key, summary in zip(sorted(by_key), read):
            assert summary == by_key[spec_key]

    def test_store_backed_rerun_recomputes_nothing(self, warm_cache):
        root, specs, summaries = warm_cache
        runner = SessionRunner(jobs=1, store_dir=root)
        assert runner.run(specs) == summaries
        assert runner.last_stats.sessions_executed == 0
        assert runner.last_stats.cache_hits == len(specs)
        assert runner.last_stats.store_hits == len(specs)

    def test_backfill_is_lazy_not_repeated(self, warm_cache):
        root, specs, _ = warm_cache
        with ExperimentStore(root):
            pass
        with ExperimentStore(root) as again:
            assert again.counters.backfilled == 0
            assert len(again) == len(specs)


class TestLiveIngest:
    def test_store_dir_runner_indexes_as_it_caches(self, tmp_path):
        runner = SessionRunner(jobs=1, store_dir=tmp_path)
        specs = sweep_specs(seeds=(0,))
        runner.run(specs)
        assert runner.store.counters.ingests == len(specs)
        rows = runner.store.query(StoreQuery(columns=AXIS_COLUMNS))
        assert {row["policy"] for row in rows} == {"android-default", "mobicore"}
        assert {row["platform"] for row in rows} == {"Nexus 5"}
        assert {row["workload"] for row in rows} == {"busyloop"}
        assert {row["seed"] for row in rows} == {0}
        assert {row["fault_plan"] for row in rows} == {""}

    def test_store_dir_and_cache_dir_are_mutually_exclusive(self, tmp_path):
        with pytest.raises(RunnerError):
            SessionRunner(cache_dir=tmp_path / "a", store_dir=tmp_path / "b")

    def test_index_row_requires_summary_and_spec(self):
        with pytest.raises(StoreError):
            index_row_from_document("deadbeef", {"version": 3})


class TestQuery:
    @pytest.fixture
    def store(self, warm_cache):
        root, _, _ = warm_cache
        with ExperimentStore(root) as store:
            yield store

    def test_query_equals_blob_scan(self, store):
        for query in (
            StoreQuery(),
            StoreQuery(policy="mobicore"),
            StoreQuery(seed=1),
            StoreQuery(columns=QUERYABLE_COLUMNS),
        ):
            assert store.query(query) == store.scan(query)

    def test_axis_filters_compose(self, store):
        rows = store.query(StoreQuery(policy="mobicore", seed=1))
        assert len(rows) == 1
        assert rows[0]["policy"] == "mobicore"
        assert rows[0]["seed"] == 1

    def test_projection_controls_columns(self, store):
        rows = store.query(StoreQuery(columns=("key", "energy_mj")))
        assert rows and all(set(row) == {"key", "energy_mj"} for row in rows)

    def test_unknown_column_is_a_typed_error(self):
        with pytest.raises(StoreError):
            StoreQuery(columns=("key", "no_such_column"))

    def test_non_int_seed_is_a_typed_error(self):
        with pytest.raises(StoreError):
            StoreQuery(seed="zero")

    def test_rows_come_back_in_key_order(self, store):
        keys = [row["key"] for row in store.query(StoreQuery(columns=("key",)))]
        assert keys == sorted(keys)


class TestMerge:
    def split_stores(self, tmp_path):
        """Two single-policy shard stores plus their union's specs."""
        specs = sweep_specs()
        halves = (specs[0::2], specs[1::2])
        roots = (tmp_path / "shard0", tmp_path / "shard1")
        for root, half in zip(roots, halves):
            SessionRunner(jobs=1, store_dir=root).run(half)
        return roots, specs

    def test_merge_unions_shards(self, tmp_path):
        (left, right), specs = self.split_stores(tmp_path)
        with ExperimentStore(tmp_path / "merged") as merged:
            assert merged.merge(left) == 2
            assert merged.merge(right) == 2
            assert set(merged.keys()) == {spec.cache_key() for spec in specs}

    def test_merge_is_idempotent(self, tmp_path):
        (left, _), _ = self.split_stores(tmp_path)
        with ExperimentStore(tmp_path / "merged") as merged:
            assert merged.merge(left) == 2
            assert merged.merge(left) == 0

    def test_checksum_conflict_is_a_typed_error(self, tmp_path):
        (left, right), _ = self.split_stores(tmp_path)
        with ExperimentStore(left) as store:
            key = store.keys()[0]
        # Forge a conflicting entry in a third store: same cache key,
        # different summary payload (checksum recomputed so the entry
        # itself is valid — only the cross-store claim is inconsistent).
        from repro.runner.cache import summary_checksum

        evil_root = tmp_path / "evil"
        evil_root.mkdir()
        document = json.loads((left / f"{key}.json").read_text())
        document["summary"]["mean_power_mw"] += 1.0
        document["checksum"] = summary_checksum(document["summary"])
        (evil_root / f"{key}.json").write_text(
            json.dumps(document, sort_keys=True)
        )
        with ExperimentStore(tmp_path / "merged") as merged:
            merged.merge(left)
            with pytest.raises(StoreError):
                merged.merge(evil_root)

    def test_merge_copies_blobs_not_just_rows(self, tmp_path):
        (left, _), _ = self.split_stores(tmp_path)
        with ExperimentStore(tmp_path / "merged") as merged:
            merged.merge(left)
            # scan() reads blobs only: rows present there prove the
            # entry files came across, not merely index rows.
            assert merged.scan() == merged.query(StoreQuery())


class TestShardedSweepParity:
    """The acceptance gate: shard 0/2 + 1/2 merged == unsharded, row for row."""

    def matrix(self):
        return ScenarioMatrix(
            base=Scenario(
                platform="Nexus 5",
                workload="busyloop",
                workload_params={"target_load_percent": 40.0},
                config=CFG,
            ),
            axes={
                "seed": (0, 1),
                "policy": ("android-default", "mobicore"),
            },
        )

    def test_shards_partition_the_expansion_exactly(self):
        scenarios = self.matrix().expand()
        shards = [shard_scenarios(scenarios, i, 3) for i in range(3)]
        flattened = [
            scenario for index in range(len(scenarios))
            for scenario in [scenarios[index]]
        ]
        assert sorted(
            (scenario.describe() for shard in shards for scenario in shard)
        ) == sorted(scenario.describe() for scenario in flattened)
        assert sum(len(shard) for shard in shards) == len(scenarios)

    def test_round_robin_interleaves_the_fast_axis(self):
        # A 3-value fast axis over 2 shards: round-robin gives each
        # shard a mix of seeds (a contiguous split would not).  When
        # the shard count divides the fast axis, slices alias instead —
        # the partition stays exact either way.
        matrix = ScenarioMatrix(
            base=self.matrix().base,
            axes={"policy": ("android-default", "mobicore"), "seed": (0, 1, 2)},
        )
        scenarios = matrix.expand()
        for index in range(2):
            shard = shard_scenarios(scenarios, index, 2)
            assert len({scenario.config.seed for scenario in shard}) == 3

    def test_merged_shard_stores_equal_the_unsharded_store(self, tmp_path):
        scenarios = self.matrix().expand()
        specs = [compile_scenario(scenario) for scenario in scenarios]

        SessionRunner(jobs=1, store_dir=tmp_path / "unsharded").run(specs)
        for index in range(2):
            shard = shard_scenarios(scenarios, index, 2)
            SessionRunner(jobs=1, store_dir=tmp_path / f"shard{index}").run(
                [compile_scenario(scenario) for scenario in shard]
            )
        with ExperimentStore(tmp_path / "merged") as merged:
            merged.merge(tmp_path / "shard0")
            merged.merge(tmp_path / "shard1")
            merged_rows = merged.query(StoreQuery(columns=QUERYABLE_COLUMNS))
            merged_summaries = merged.summaries()
        with ExperimentStore(tmp_path / "unsharded") as reference:
            assert merged_rows == reference.query(
                StoreQuery(columns=QUERYABLE_COLUMNS)
            )
            assert merged_summaries == reference.summaries()


class TestGc:
    def test_clean_store_gc_removes_nothing(self, warm_cache):
        root, _, _ = warm_cache
        with ExperimentStore(root) as store:
            report = store.gc()
        assert report.removed_files == 0
        assert report.pruned_rows == 0

    def test_orphan_blob_and_stale_temp_are_swept(self, warm_cache):
        root, _, _ = warm_cache
        (root / ("ab" * 32 + ".npz")).write_bytes(b"orphan")
        (root / ".deadbeef0000.12345.tmp").write_bytes(b"partial")
        with ExperimentStore(root) as store:
            report = store.gc()
        assert len(report.dangling_blobs) == 1
        assert len(report.stale_temp) == 1
        assert not list(root.glob("*.npz"))
        assert not list(root.glob(".*.tmp"))

    def test_blob_of_a_vanished_v3_entry_is_swept(self, tmp_path):
        spec = sweep_specs(seeds=(0,), policies=("android-default",))[0]
        SessionRunner(jobs=1, cache_dir=tmp_path).run([spec])
        cache = ResultCache(tmp_path)
        key = spec.cache_key()
        add_column_blob(cache, key)
        with ExperimentStore(tmp_path) as store:
            assert store.query(StoreQuery(columns=("has_columns",)))[0]["has_columns"]
        cache.path(key).unlink()
        with ExperimentStore(tmp_path) as store:
            report = store.gc()
            assert report.dangling_blobs == (cache.columns_path(key).name,)
            assert key not in store
        assert not cache.columns_path(key).exists()

    def test_vanished_entry_prunes_its_index_row(self, warm_cache):
        root, specs, _ = warm_cache
        with ExperimentStore(root) as store:
            victim = store.keys()[0]
        (root / f"{victim}.json").unlink()
        with ExperimentStore(root) as store:
            assert victim in store  # the stale row is still indexed...
            report = store.gc()
            assert report.pruned_rows == 1
            assert victim not in store  # ...until gc prunes it.
            assert len(store) == len(specs) - 1

    def test_corrupt_columns_entry_leaves_no_dangling_blob(self, tmp_path):
        """Quarantine a v3-with-columns entry; gc finds no orphan.

        Damage the entry of a run that carries a column blob (as an
        older writer left it), let the cache quarantine it (entry *and*
        sibling ``.npz`` move), then assert the store's gc sweep sees
        nothing dangling left behind.
        """
        spec = sweep_specs(seeds=(0,), policies=("android-default",))[0]
        SessionRunner(jobs=1, cache_dir=tmp_path).run([spec])
        cache = ResultCache(tmp_path)
        key = spec.cache_key()
        add_column_blob(cache, key)
        assert cache.columns_path(key).exists()

        entry = cache.path(key)
        entry.write_text(entry.read_text()[:-20])  # truncate: corrupt
        assert cache.quarantine(key) is not None
        assert not cache.columns_path(key).exists()

        with ExperimentStore(tmp_path) as store:
            report = store.gc()
            assert report.dangling_blobs == ()
            assert key not in store
        # The quarantined pair is swept (corpses are disposable)...
        assert len(report.quarantined) == 2
        # ...and nothing in the root references the vanished run.
        assert not list(tmp_path.glob("*.npz"))


class TestStoreMetricsBridge:
    """A store-backed runner feeds the repro_store_* counter families."""

    def test_live_ingests_reach_the_registry(self, tmp_path):
        from repro.obs.metrics_plane import MetricsRegistry

        registry = MetricsRegistry()
        runner = SessionRunner(jobs=1, store_dir=tmp_path, metrics=registry)
        specs = sweep_specs(seeds=(0,))
        runner.run(specs)
        assert registry.get("repro_store_ingests_total").value() == len(specs)
        # A fresh store on the same dir backfills nothing, so that
        # family stays zero — the runs were indexed live.
        assert registry.get("repro_store_backfilled_total").value() == 0

    def test_all_store_families_are_declared(self, tmp_path):
        from repro.obs.metrics_plane import MetricsRegistry

        registry = MetricsRegistry()
        runner = SessionRunner(jobs=1, store_dir=tmp_path, metrics=registry)
        runner.run(sweep_specs(seeds=(0,), policies=("android-default",)))
        exported = registry.names()
        for family in (
            "repro_store_ingests_total",
            "repro_store_backfilled_total",
            "repro_store_queries_total",
            "repro_store_merged_rows_total",
            "repro_store_gc_removed_total",
        ):
            assert family in exported
