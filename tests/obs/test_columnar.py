"""The columnar per-tick CSV exporter and its sync gate."""

import pytest

from repro.kernel.tracing import TraceRecorder
from repro.obs import TICK_CSV_COLUMNS, ticks_to_csv


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
