"""Columnar per-tick exporters: CSV sync gate, JSONL, counter tracks."""

import json

import pytest

from repro.kernel.tracing import TraceRecorder
from repro.obs import (
    TICK_CSV_COLUMNS,
    columns_chrome_events,
    columns_to_chrome_trace,
    ticks_to_csv,
    ticks_to_jsonl,
    validate_chrome_trace,
)


@pytest.fixture
def recorder():
    recorder = TraceRecorder(warmup_ticks=1)
    for tick in range(4):
        recorder.record_tick(
            tick,
            tick * 0.02,
            (300_000, 400_000),
            (True, tick % 2 == 0),
            (0.5, 0.25),
            60.0 + tick,
            0.9,
            1500.0 + tick,
            900.0 + tick,
            31.0 + tick,
            10.0,
            0.0,
            30.0 if tick else None,
            55.0,
        )
    return recorder


class TestCsv:
    def test_matches_recorder_export_byte_for_byte(self, recorder):
        # The recorder's export is this writer over the recorder's buffer.
        assert ticks_to_csv(recorder.buffer) == recorder.to_csv()

    def test_header_row(self, recorder):
        first = ticks_to_csv(recorder.buffer).splitlines()[0]
        assert first == ",".join(TICK_CSV_COLUMNS)


class TestJsonl:
    def test_one_parseable_object_per_tick(self, recorder):
        lines = ticks_to_jsonl(recorder.buffer).strip().splitlines()
        assert len(lines) == 4
        docs = [json.loads(line) for line in lines]
        assert [d["tick"] for d in docs] == [0, 1, 2, 3]
        assert docs[0]["fps"] is None and docs[1]["fps"] == 30.0
        assert docs[2]["online_count"] == 2 and docs[1]["online_count"] == 1

    def test_session_tag_labels_every_line(self, recorder):
        lines = ticks_to_jsonl(recorder.buffer, session="s0").strip().splitlines()
        assert all(json.loads(line)["session"] == "s0" for line in lines)

    def test_untagged_lines_omit_the_session_key(self, recorder):
        assert "session" not in json.loads(
            ticks_to_jsonl(recorder.buffer).splitlines()[0]
        )


class TestChromeCounters:
    def test_document_validates(self, recorder):
        document = columns_to_chrome_trace([("game", recorder.buffer)])
        validate_chrome_trace(document)

    def test_counter_tracks_and_timestamps(self, recorder):
        events = columns_chrome_events(recorder.buffer, pid=3, label="game")
        metadata, counters = events[0], events[1:]
        assert metadata["ph"] == "M" and metadata["args"] == {"name": "game"}
        assert {e["name"] for e in counters} == {
            "power_mw",
            "cpu_power_mw",
            "util_percent",
            "scaled_load_percent",
            "quota",
            "temperature_c",
            "online_cores",
        }
        assert all(e["ph"] == "C" and e["pid"] == 3 for e in counters)
        # 4 ticks at 20 ms: microsecond timestamps 0, 20000, 40000, 60000.
        assert sorted({e["ts"] for e in counters}) == [0, 20_000, 40_000, 60_000]

    def test_multi_session_document_gets_one_pid_each(self, recorder):
        document = columns_to_chrome_trace(
            [("a", recorder.buffer), ("b", recorder.buffer)]
        )
        validate_chrome_trace(document)
        assert {e["pid"] for e in document["traceEvents"]} == {0, 1}
