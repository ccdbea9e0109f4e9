"""Tests for the incremental writer: open()/write_batch()/finish()."""

import tracemalloc

import numpy as np
import pytest

from repro.core import (
    BullionReader,
    BullionWriter,
    Field,
    LogicalType,
    Schema,
    Table,
    WriterOptions,
)
from repro.core.table import concat_tables
from repro.iosim import SimulatedStorage
from repro.quantization import FloatFormat, QuantizationPolicy


def _table(n=1037):
    rng = np.random.default_rng(11)
    return Table(
        {
            "i": rng.integers(-1000, 1000, n).astype(np.int64),
            "f": rng.normal(size=n),
            "s": [f"r{i}".encode() for i in range(n)],
            "l": [
                rng.integers(0, 9, i % 4).astype(np.int64) for i in range(n)
            ],
        }
    )


def _stream_write(table, split, **opts):
    dev = SimulatedStorage()
    writer = BullionWriter(dev, options=WriterOptions(**opts)).open()
    for start in range(0, table.num_rows, split):
        writer.write_batch(table.slice(start, min(start + split, table.num_rows)))
    writer.finish()
    return dev, writer


class TestByteIdenticalToOneShot:
    @pytest.mark.parametrize("split", [1, 7, 100, 256, 999])
    def test_any_batching_matches_one_shot(self, split):
        table = _table()
        opts = dict(rows_per_page=64, rows_per_group=256)
        one = SimulatedStorage()
        BullionWriter(one, options=WriterOptions(**opts)).write(table)
        dev, _w = _stream_write(table, split, **opts)
        assert dev.raw_bytes() == one.raw_bytes()

    def test_quantized_batching_matches_one_shot(self):
        table = _table(400)
        opts = dict(
            rows_per_page=50,
            rows_per_group=100,
            quantization=QuantizationPolicy(default=FloatFormat.FP16),
        )
        one = SimulatedStorage()
        BullionWriter(one, options=WriterOptions(**opts)).write(table)
        dev, _w = _stream_write(table, 33, **opts)
        assert dev.raw_bytes() == one.raw_bytes()

    def test_schema_enforced_per_batch(self):
        schema = Schema([Field("a", LogicalType.parse("int64"))])
        writer = BullionWriter(SimulatedStorage(), schema=schema).open()
        writer.write_batch(Table({"a": np.arange(5, dtype=np.int64)}))
        with pytest.raises(ValueError, match="mismatch"):
            writer.write_batch(Table({"b": np.arange(5, dtype=np.int64)}))

    def test_mismatched_batch_columns_rejected(self):
        writer = BullionWriter(SimulatedStorage()).open()
        writer.write_batch(Table({"a": np.arange(5, dtype=np.int64)}))
        with pytest.raises(ValueError, match="do not match"):
            writer.write_batch(Table({"z": np.arange(5, dtype=np.int64)}))


class TestBoundedMemory:
    def test_never_holds_more_than_one_group_of_encoded_pages(self):
        """The acceptance criterion, asserted via instrumentation."""
        table = _table(4096)
        rows_per_page, rows_per_group = 64, 512
        dev, writer = _stream_write(
            table, 300, rows_per_page=rows_per_page, rows_per_group=rows_per_group
        )
        stats = writer.stats
        pages_per_group = (
            rows_per_group // rows_per_page
        ) * table.num_columns
        assert 0 < stats.peak_encoded_pages_held <= pages_per_group
        # the streaming writer is stricter still: one chunk at a time
        assert stats.peak_encoded_pages_held == rows_per_group // rows_per_page
        assert stats.groups_flushed == 8
        assert stats.pages_written > 0
        assert stats.peak_encoded_payload_bytes > 0

    def test_buffered_rows_bounded_by_group_plus_batch(self):
        table = _table(4096)
        _dev, writer = _stream_write(
            table, 300, rows_per_page=64, rows_per_group=512
        )
        assert writer.stats.peak_buffered_rows < 512 + 300

    def test_streaming_pipeline_peaks_below_one_shot(self):
        """Generating and writing batch by batch allocates less at peak
        than building the whole table and writing it in one call — and
        writes the same bytes."""
        rows, batch = 60_000, 4_096
        opts = WriterOptions(rows_per_page=1_024, rows_per_group=8_192)

        def batches():
            rng = np.random.default_rng(0)
            for start in range(0, rows, batch):
                n = min(batch, rows - start)
                yield Table({
                    "id": rng.integers(0, 10**9, n).astype(np.int64),
                    "score": rng.normal(size=n),
                    "weight": rng.random(n).astype(np.float32),
                })

        def one_shot(dev):
            table = concat_tables(list(batches()))
            BullionWriter(dev, options=opts).write(table)

        def streaming(dev):
            writer = BullionWriter(dev, options=opts).open()
            for part in batches():
                writer.write_batch(part)
            writer.finish()

        peaks, files = [], []
        for write in (one_shot, streaming):
            dev = SimulatedStorage()
            tracemalloc.start()
            try:
                write(dev)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            files.append(dev.raw_bytes())
        assert files[0] == files[1]
        assert peaks[1] < peaks[0], peaks


class TestLifecycle:
    def test_write_batch_auto_opens(self):
        dev = SimulatedStorage()
        writer = BullionWriter(dev)
        writer.write_batch(Table({"a": np.arange(3, dtype=np.int64)}))
        footer = writer.finish()
        assert footer.num_rows == 3

    def test_double_finish_rejected(self):
        writer = BullionWriter(SimulatedStorage())
        writer.write(Table({"a": np.arange(3, dtype=np.int64)}))
        with pytest.raises(RuntimeError):
            writer.finish()

    def test_write_after_finish_rejected(self):
        writer = BullionWriter(SimulatedStorage())
        writer.write(Table({"a": np.arange(3, dtype=np.int64)}))
        with pytest.raises(RuntimeError):
            writer.write_batch(Table({"a": np.arange(3, dtype=np.int64)}))

    def test_finish_without_batches_writes_valid_empty_file(self):
        dev = SimulatedStorage()
        footer = BullionWriter(dev).open().finish()
        assert footer.num_rows == 0
        reader = BullionReader(dev)
        assert reader.num_rows == 0
        assert reader.verify()

    def test_finish_without_batches_with_schema_keeps_columns(self):
        schema = Schema(
            [
                Field("a", LogicalType.parse("int64")),
                Field("f", LogicalType.parse("float")),
            ]
        )
        dev = SimulatedStorage()
        writer = BullionWriter(dev, schema=schema)
        writer.open()
        footer = writer.finish()
        assert footer.num_columns == 2
        out = BullionReader(dev).project(["a", "f"])
        assert out.num_rows == 0
        assert out.column("a").dtype == np.int64
        assert out.column("f").dtype == np.float32

    def test_late_list_probe_still_infers_list_type(self):
        """A first batch with only empty lists must not lock in BINARY."""
        dev = SimulatedStorage()
        writer = BullionWriter(
            dev, options=WriterOptions(rows_per_page=4, rows_per_group=8)
        ).open()
        writer.write_batch(
            Table({"l": [np.zeros(0, dtype=np.int64) for _ in range(3)]})
        )
        writer.write_batch(Table({"l": [np.array([1, 2], dtype=np.int64)]}))
        writer.finish()
        got = BullionReader(dev).project(["l"]).column("l")
        assert np.array_equal(np.asarray(got[3]), [1, 2])


class TestEmptyAndTinyTables:
    """Empty-table and single-row round trips as first-class cases."""

    def test_empty_table_all_kinds_roundtrip_with_dtypes(self):
        table = Table(
            {
                "i": np.zeros(0, dtype=np.int64),
                "i32": np.zeros(0, dtype=np.int32),
                "f64": np.zeros(0, dtype=np.float64),
                "f32": np.zeros(0, dtype=np.float32),
                "b": np.zeros(0, dtype=np.bool_),
                "s": [],
            }
        )
        dev = SimulatedStorage()
        BullionWriter(dev).write(table)
        reader = BullionReader(dev)
        out = reader.project(list(table.columns))
        assert out.num_rows == 0
        assert out.column("i").dtype == np.int64
        assert out.column("i32").dtype == np.int32
        assert out.column("f64").dtype == np.float64
        assert out.column("f32").dtype == np.float32
        assert out.column("b").dtype == np.bool_
        assert out.column("s") == []
        assert reader.verify()

    def test_empty_file_has_one_empty_group(self):
        dev = SimulatedStorage()
        footer = BullionWriter(dev).write(Table({"a": np.zeros(0, np.int64)}))
        assert footer.num_rows == 0
        assert BullionReader(dev).footer.num_row_groups == 1
        assert footer.page(0).n_values == 0

    def test_single_row_all_kinds(self):
        table = Table(
            {
                "i": np.array([-5], dtype=np.int64),
                "f": np.array([1.5], dtype=np.float64),
                "s": [b"only"],
                "l": [np.array([9, 8], dtype=np.int64)],
            }
        )
        dev = SimulatedStorage()
        BullionWriter(dev).write(table)
        assert BullionReader(dev).project(list(table.columns)).equals(table)

    def test_single_row_streaming_matches(self):
        table = Table({"a": np.array([7], dtype=np.int64), "s": [b"x"]})
        one = SimulatedStorage()
        BullionWriter(one).write(table)
        dev, _w = _stream_write(table, 1)
        assert dev.raw_bytes() == one.raw_bytes()


class TestBatchKindConsistency:
    def test_dtype_drift_between_batches_rejected(self):
        writer = BullionWriter(SimulatedStorage()).open()
        writer.write_batch(Table({"x": np.arange(5, dtype=np.int64)}))
        with pytest.raises(ValueError, match="kind"):
            writer.write_batch(Table({"x": np.array([1.5, 2.5, 3.5])}))

    def test_array_vs_list_drift_rejected(self):
        writer = BullionWriter(SimulatedStorage()).open()
        writer.write_batch(Table({"x": np.arange(5, dtype=np.int64)}))
        with pytest.raises(ValueError, match="kind"):
            writer.write_batch(Table({"x": [b"oops"]}))

    def test_same_dtype_batches_accepted(self):
        writer = BullionWriter(SimulatedStorage()).open()
        writer.write_batch(Table({"x": np.arange(5, dtype=np.int64)}))
        writer.write_batch(Table({"x": np.arange(5, dtype=np.int64)}))
        assert writer.finish().num_rows == 10
