"""Cache format v3: older column blobs, v2 read-migration, runner telemetry."""

import dataclasses
import hashlib
import io
import json

import numpy as np

from repro.config import SimulationConfig
from repro.kernel.trace_buffer import SCALAR_COLUMNS
from repro.runner import (
    FactoryRef,
    ResultCache,
    SessionRunner,
    SessionSpec,
    execute_spec_full,
    summary_checksum,
    summary_to_dict,
)
from repro.runner.cache import READABLE_VERSIONS

CFG = SimulationConfig(duration_seconds=2.0, seed=0, warmup_seconds=0.5)


def busyloop_spec(**overrides):
    values = dict(
        platform="Nexus 5",
        policy=FactoryRef.to("repro.policies.static:StaticPolicy", 2, 960_000),
        workload=FactoryRef.to("repro.workloads.busyloop:BusyLoopApp", 40.0),
        config=CFG,
        pin_uncore_max=False,
    )
    values.update(overrides)
    return SessionSpec(**values)


def add_column_blob(cache, key):
    """Give *key*'s entry the column blob a version-3 writer used to add.

    The blob is a compressed ``.npz`` of the four column blocks, and the
    entry references it by file name, size and sha256; the summary
    checksum does not cover the reference.
    """
    stream = io.BytesIO()
    np.savez_compressed(
        stream,
        scalars=np.zeros((3, len(SCALAR_COLUMNS))),
        frequencies_khz=np.full((3, 4), 960_000, dtype=np.int64),
        online_mask=np.ones((3, 4), dtype=bool),
        busy_fractions=np.zeros((3, 4)),
    )
    blob = stream.getvalue()
    cache.columns_path(key).write_bytes(blob)
    path = cache.path(key)
    document = json.loads(path.read_text())
    document["columns"] = {
        "file": cache.columns_path(key).name,
        "bytes": len(blob),
        "checksum": hashlib.sha256(blob).hexdigest(),
    }
    path.write_text(json.dumps(document, sort_keys=True))


def rewrite_as_v2(cache, key):
    """Rewrite *key*'s entry as a pre-columnar version-2 document."""
    path = cache.path(key)
    document = json.loads(path.read_text())
    document["version"] = 2
    document.pop("columns", None)
    path.write_text(json.dumps(document, sort_keys=True))
    cache.columns_path(key).unlink(missing_ok=True)


class TestV2Migration:
    def test_v2_entry_is_a_verified_hit(self, tmp_path):
        spec = busyloop_spec()
        warm = SessionRunner(jobs=1, cache_dir=tmp_path)
        first = warm.run([spec])
        cache = ResultCache(tmp_path)
        rewrite_as_v2(cache, spec.cache_key())

        lookup = cache.lookup(spec.cache_key())
        assert lookup.hit and lookup.version == 2

        cold = SessionRunner(jobs=1, cache_dir=tmp_path)
        assert cold.run([spec]) == first
        assert cold.last_stats.cache_hits == 1
        assert cold.last_stats.sessions_executed == 0

    def test_unknown_future_version_is_a_miss_not_corrupt(self, tmp_path):
        spec = busyloop_spec()
        SessionRunner(jobs=1, cache_dir=tmp_path).run([spec])
        cache = ResultCache(tmp_path)
        path = cache.path(spec.cache_key())
        document = json.loads(path.read_text())
        document["version"] = 99
        path.write_text(json.dumps(document))
        assert cache.lookup(spec.cache_key()).status == "miss"

    def test_readable_versions_pin(self):
        assert READABLE_VERSIONS == {2, 3}


class TestColumnBlobs:
    """Entries an older writer stored with a ``.npz`` column blob beside them."""

    def test_v3_entry_with_blob_is_a_verified_hit(self, tmp_path):
        spec = busyloop_spec()
        first = SessionRunner(jobs=1, cache_dir=tmp_path).run([spec])
        cache = ResultCache(tmp_path)
        key = spec.cache_key()
        add_column_blob(cache, key)

        lookup = cache.lookup(key)
        assert lookup.hit and lookup.version == 3
        cold = SessionRunner(jobs=1, cache_dir=tmp_path)
        assert cold.run([spec]) == first
        assert cold.last_stats.cache_hits == 1
        assert cold.last_stats.sessions_executed == 0

    def test_quarantine_moves_blob_with_entry(self, tmp_path):
        spec = busyloop_spec()
        SessionRunner(jobs=1, cache_dir=tmp_path).run([spec])
        cache = ResultCache(tmp_path)
        key = spec.cache_key()
        add_column_blob(cache, key)
        cache.quarantine(key)
        assert not cache.path(key).exists()
        assert not cache.columns_path(key).exists()
        assert (cache.quarantine_root / f"{key}.npz").exists()


class TestTraceTelemetry:
    def test_execution_reports_trace_memory(self):
        execution = execute_spec_full(busyloop_spec())
        assert execution.trace_bytes > 0
        assert execution.peak_recorder_bytes >= execution.trace_bytes

    def test_runner_stats_accumulate_trace_bytes(self):
        runner = SessionRunner(jobs=1)
        runner.run([busyloop_spec(), busyloop_spec(config=dataclasses.replace(CFG, seed=5))])
        stats = runner.last_stats
        single = execute_spec_full(busyloop_spec())
        assert stats.trace_bytes == 2 * single.trace_bytes
        assert stats.peak_recorder_bytes == single.peak_recorder_bytes

    def test_cache_hits_record_no_trace_bytes(self, tmp_path):
        spec = busyloop_spec()
        SessionRunner(jobs=1, cache_dir=tmp_path).run([spec])
        cold = SessionRunner(jobs=1, cache_dir=tmp_path)
        cold.run([spec])
        assert cold.last_stats.trace_bytes == 0
        assert cold.last_stats.peak_recorder_bytes == 0


class TestStoreChecksums:
    def test_store_records_summary_checksum(self, tmp_path):
        spec = busyloop_spec()
        execution = execute_spec_full(spec)
        cache = ResultCache(tmp_path)
        cache.store(spec.cache_key(), execution.summary, spec.cache_payload())
        document = json.loads(cache.path(spec.cache_key()).read_text())
        assert document["version"] == 3
        assert document["checksum"] == summary_checksum(
            summary_to_dict(execution.summary)
        )
