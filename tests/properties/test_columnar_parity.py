"""Property parity: the columnar recorder is bit-identical to the legacy one.

Random tick streams go through both the frozen pre-refactor
:class:`~repro.kernel._legacy_tracing.LegacyTraceRecorder` and the
columnar :class:`~repro.kernel.tracing.TraceRecorder`; every summary
statistic and the CSV export must match **exactly** (``==`` on floats,
not approx) — the refactor's core contract, written down as prose in
``docs/NUMERICS.md``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel._legacy_tracing import LegacyTickRecord, LegacyTraceRecorder
from repro.kernel.tracing import TraceRecorder

finite = st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
)


@st.composite
def tick_streams(draw):
    cores = draw(st.integers(min_value=1, max_value=4))
    count = draw(st.integers(min_value=1, max_value=40))
    warmup = draw(st.integers(min_value=0, max_value=count - 1))
    rows = []
    tick = -1
    for _ in range(count):
        tick += draw(st.integers(min_value=1, max_value=3))
        rows.append(
            (
                tick,
                tick * 0.02,
                tuple(
                    draw(st.integers(min_value=100_000, max_value=3_000_000))
                    for _ in range(cores)
                ),
                tuple(draw(st.booleans()) for _ in range(cores)),
                tuple(
                    draw(st.floats(min_value=0.0, max_value=1.0)) for _ in range(cores)
                ),
                draw(st.floats(min_value=0.0, max_value=100.0)),
                draw(st.floats(min_value=0.0, max_value=1.0)),
                draw(finite),
                draw(finite),
                draw(st.floats(min_value=-20.0, max_value=150.0)),
                draw(finite),
                draw(finite),
                draw(st.one_of(st.none(), st.floats(min_value=0.0, max_value=240.0))),
                draw(st.floats(min_value=0.0, max_value=100.0)),
            )
        )
    return rows, warmup


def summaries(recorder, tick_seconds=0.02):
    return (
        recorder.mean_power_mw(),
        recorder.mean_cpu_power_mw(),
        recorder.mean_online_cores(),
        recorder.mean_frequency_khz(),
        recorder.mean_global_util_percent(),
        recorder.mean_scaled_load_percent(),
        recorder.mean_quota(),
        recorder.mean_fps(),
        recorder.max_temperature_c(),
        recorder.energy_mj(tick_seconds),
    )


class TestColumnarParity:
    @settings(max_examples=60, deadline=None)
    @given(stream=tick_streams())
    def test_summaries_and_csv_bit_identical(self, stream):
        rows, warmup = stream
        legacy = LegacyTraceRecorder(warmup_ticks=warmup)
        columnar = TraceRecorder(warmup_ticks=warmup)
        for row in rows:
            legacy.append(LegacyTickRecord(*row))
            columnar.record_tick(*row)
        assert summaries(columnar) == summaries(legacy)
        assert columnar.to_csv() == legacy.to_csv()

    @settings(max_examples=30, deadline=None)
    @given(stream=tick_streams())
    def test_rows_match_legacy_records(self, stream):
        rows, warmup = stream
        legacy = LegacyTraceRecorder(warmup_ticks=warmup)
        columnar = TraceRecorder(warmup_ticks=warmup)
        for row in rows:
            legacy.append(LegacyTickRecord(*row))
            columnar.record_tick(*row)
        buffer = columnar.buffer
        online_counts = buffer.online_counts()
        mean_frequencies = buffer.mean_online_frequencies()
        assert len(buffer) == len(legacy.records)
        for index, theirs in enumerate(legacy.records):
            ours = buffer.row(index)
            assert ours[0] == theirs.tick
            assert ours[2] == tuple(theirs.frequencies_khz)
            assert ours[3] == tuple(theirs.online_mask)
            assert ours[4] == tuple(theirs.busy_fractions)
            assert ours[12] == theirs.fps
            assert online_counts[index] == theirs.online_count
            assert mean_frequencies[index] == theirs.mean_online_frequency_khz
