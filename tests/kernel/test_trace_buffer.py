"""TraceBuffer: staged columnar appends, derived columns, rows."""

import numpy as np
import pytest

from repro.errors import TraceError
from repro.kernel.trace_buffer import (
    FLUSH_TICKS,
    SCALAR_COLUMNS,
    TraceBuffer,
    sequential_sum,
)


def row_args(tick, cores=2, fps=None, online=None):
    """One synthetic tick's append() arguments."""
    online = tuple(online) if online is not None else (True,) * cores
    return dict(
        tick=tick,
        time_seconds=tick * 0.02,
        frequencies_khz=tuple(300_000 + 100_000 * (tick + c) for c in range(cores)),
        online_mask=online,
        busy_fractions=tuple(0.1 * (c + 1) for c in range(cores)),
        global_util_percent=50.0 + tick,
        quota=1.0,
        power_mw=1000.0 + tick,
        cpu_power_mw=600.0 + tick,
        temperature_c=30.0 + 0.1 * tick,
        backlog_cycles=float(tick),
        dropped_cycles=0.0,
        fps=fps,
        scaled_load_percent=40.0 + tick,
    )


def filled(n=5, cores=2, online=None):
    buffer = TraceBuffer(num_cores=cores)
    for tick in range(n):
        buffer.append(**row_args(tick, cores=cores, online=online))
    return buffer


class TestSequentialSum:
    def test_empty_is_zero(self):
        assert sequential_sum(np.empty(0)) == 0.0

    def test_matches_python_sum_bit_for_bit(self):
        rng = np.random.default_rng(7)
        values = rng.uniform(0.0, 2000.0, size=4097)
        assert sequential_sum(values) == sum(values.tolist())


class TestAppend:
    def test_capacity_must_be_positive(self):
        with pytest.raises(TraceError, match="capacity"):
            TraceBuffer(capacity=0)

    def test_out_of_order_tick_rejected(self):
        buffer = filled(3)
        with pytest.raises(TraceError, match="out-of-order tick 2 after 2"):
            buffer.append(**row_args(2))

    def test_len_counts_staged_and_flushed(self):
        buffer = filled(5)
        assert len(buffer) == 5
        buffer.flush()
        assert len(buffer) == 5

    def test_growth_past_initial_capacity(self):
        buffer = TraceBuffer(num_cores=2, capacity=2)
        for tick in range(FLUSH_TICKS + 10):
            buffer.append(**row_args(tick))
        assert len(buffer) == FLUSH_TICKS + 10
        assert buffer.scalar("tick")[-1] == FLUSH_TICKS + 9

    def test_inconsistent_core_width_rejected(self):
        buffer = TraceBuffer()
        buffer.append(**row_args(0, cores=2))
        buffer.append(**row_args(1, cores=3))
        with pytest.raises(TraceError, match="per-core column width"):
            buffer.flush()

    def test_mutating_caller_scratch_lists_never_alters_history(self):
        # The aliasing regression: the engine reuses its per-core scratch
        # state between ticks; recorded history must be a value snapshot.
        buffer = TraceBuffer(num_cores=2)
        freqs, online, busy = [300_000, 400_000], [True, False], [0.5, 0.0]
        args = row_args(0)
        args.update(frequencies_khz=freqs, online_mask=online, busy_fractions=busy)
        buffer.append(**args)
        freqs[0], online[1], busy[0] = 999_999, True, 0.99
        assert buffer.row(0)[2] == (300_000, 400_000)
        assert buffer.row(0)[3] == (True, False)
        assert buffer.row(0)[4] == (0.5, 0.0)


class TestColumns:
    def test_unknown_scalar_rejected(self):
        with pytest.raises(TraceError, match="unknown scalar column 'bogus'"):
            filled().scalar("bogus")

    def test_scalar_values_and_start_offset(self):
        buffer = filled(5)
        assert buffer.scalar("power_mw").tolist() == [1000.0 + t for t in range(5)]
        assert buffer.scalar("power_mw", start=3).tolist() == [1003.0, 1004.0]

    def test_fps_column_holds_nan_for_none(self):
        buffer = TraceBuffer(num_cores=2)
        buffer.append(**row_args(0, fps=30.0))
        buffer.append(**row_args(1, fps=None))
        column = buffer.scalar("fps")
        assert column[0] == 30.0 and np.isnan(column[1])

    def test_every_scalar_column_is_addressable(self):
        buffer = filled(3)
        for name in SCALAR_COLUMNS:
            assert len(buffer.scalar(name)) == 3

    def test_per_core_blocks(self):
        buffer = filled(4, cores=3)
        assert buffer.frequencies().shape == (4, 3)
        assert buffer.online().dtype == bool
        assert buffer.busy(start=2).shape == (2, 3)

    def test_empty_buffer_columns_are_empty(self):
        buffer = TraceBuffer()
        assert len(buffer.scalar("tick")) == 0
        assert buffer.frequencies().size == 0
        assert buffer.num_cores is None
        assert buffer.last_tick is None
        assert buffer.nbytes == 0 and buffer.capacity_bytes == 0


class TestDerivedColumns:
    def test_online_counts_and_mean_frequencies(self):
        buffer = TraceBuffer(num_cores=2)
        args = row_args(0)
        args.update(frequencies_khz=(400_000, 600_000), online_mask=(True, True))
        buffer.append(**args)
        args = row_args(1)
        args.update(frequencies_khz=(400_000, 600_000), online_mask=(False, True))
        buffer.append(**args)
        assert buffer.online_counts().tolist() == [2, 1]
        assert buffer.mean_online_frequencies().tolist() == [500_000.0, 600_000.0]

    def test_all_cores_offline_means_zero_frequency(self):
        buffer = filled(2, online=(False, False))
        assert buffer.mean_online_frequencies().tolist() == [0.0, 0.0]

    def test_derived_cache_tracks_buffer_growth(self):
        buffer = filled(2)
        assert len(buffer.online_counts()) == 2
        buffer.append(**row_args(2))
        assert len(buffer.online_counts()) == 3


class TestRows:
    def test_row_roundtrips_append_arguments(self):
        buffer = TraceBuffer(num_cores=2)
        args = row_args(4, fps=42.5)
        buffer.append(**args)
        assert buffer.row(0) == tuple(args.values())

    def test_negative_index_addresses_from_the_end(self):
        buffer = filled(5)
        assert buffer.row(-1)[0] == 4

    def test_out_of_range_rejected(self):
        with pytest.raises(TraceError, match="row 5 out of range for 5"):
            filled(5).row(5)

    def test_iter_rows_covers_every_tick(self):
        assert [row[0] for row in filled(6).iter_rows()] == list(range(6))
