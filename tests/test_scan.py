"""Tests for the Scan read path: lazy batches, pruning, parallel fetch."""

import numpy as np
import pytest

from repro.core import (
    BullionReader,
    BullionWriter,
    Table,
    TieredChunkCache,
    WriterOptions,
    delete_rows,
)
from repro.expr import col
from repro.iosim import SimulatedStorage
from repro.quantization import FloatFormat, QuantizationPolicy


def fixture_tables():
    """All the shapes the writer/reader round-trip suite exercises."""
    rng = np.random.default_rng(3)
    n = 300
    yield "primitives", Table(
        {
            "i64": rng.integers(-(10**9), 10**9, n).astype(np.int64),
            "i32": rng.integers(-100, 100, n).astype(np.int32),
            "f64": rng.normal(size=n),
            "f32": rng.normal(size=n).astype(np.float32),
            "b": rng.random(n) < 0.3,
            "s": [f"row{i}".encode() for i in range(n)],
        }
    )
    yield "lists", Table(
        {
            "li": [
                rng.integers(0, 100, int(rng.integers(0, 6))).astype(np.int64)
                for _ in range(100)
            ],
            "lf": [rng.normal(size=3).astype(np.float32) for _ in range(100)],
            "lb": [[b"a", b"bb"][: i % 3] for i in range(100)],
        }
    )
    yield "empty", Table({"a": np.zeros(0, dtype=np.int64), "s": []})
    yield "single", Table({"a": np.array([7], dtype=np.int64), "s": [b"x"]})


def _write(table, **opts):
    dev = SimulatedStorage()
    BullionWriter(dev, options=WriterOptions(**opts)).write(table)
    return dev


class TestScanProjectEquivalence:
    @pytest.mark.parametrize(
        "name,table", list(fixture_tables()), ids=lambda v: v if isinstance(v, str) else ""
    )
    def test_scan_equals_project_on_fixtures(self, name, table):
        dev = _write(table, rows_per_page=32, rows_per_group=64)
        reader = BullionReader(dev)
        columns = list(table.columns)
        projected = reader.project(columns)
        scanned = reader.scan(columns, max_workers=4).to_table()
        assert scanned.equals(projected)
        assert projected.equals(table)

    def test_parallel_and_serial_scans_agree(self):
        table = Table({"x": np.arange(5000, dtype=np.int64)})
        dev = _write(table, rows_per_page=100, rows_per_group=200)
        reader = BullionReader(dev)
        serial = reader.scan(["x"], max_workers=0).to_table()
        parallel = reader.scan(["x"], max_workers=8).to_table()
        assert serial.equals(parallel)
        assert serial.equals(table)

    def test_quantization_widening_in_scan(self):
        rng = np.random.default_rng(5)
        table = Table({"y": rng.normal(size=400).astype(np.float32)})
        dev = SimulatedStorage()
        BullionWriter(
            dev,
            options=WriterOptions(
                rows_per_page=100,
                rows_per_group=200,
                quantization=QuantizationPolicy(default=FloatFormat.FP16),
            ),
        ).write(table)
        out = (
            BullionReader(dev)
            .scan(["y"], widen_quantized=True)
            .to_table()
        )
        assert out.column("y").dtype == np.float32
        assert np.allclose(out.column("y"), table.column("y"), atol=1e-3)


class TestBatching:
    def test_batch_size_exact_across_group_boundaries(self):
        table = Table({"x": np.arange(1000, dtype=np.int64)})
        dev = _write(table, rows_per_page=64, rows_per_group=128)
        batches = list(BullionReader(dev).scan(["x"], batch_size=300))
        assert [b.num_rows for b in batches] == [300, 300, 300, 100]
        assert np.array_equal(
            np.concatenate([b.column("x") for b in batches]), table.column("x")
        )

    def test_default_batches_are_row_groups(self):
        table = Table({"x": np.arange(1000, dtype=np.int64)})
        dev = _write(table, rows_per_page=100, rows_per_group=200)
        batches = list(BullionReader(dev).scan(["x"]))
        assert [b.num_rows for b in batches] == [200] * 5

    def test_bad_batch_size_rejected(self):
        table = Table({"x": np.arange(10, dtype=np.int64)})
        dev = _write(table)
        with pytest.raises(ValueError, match="positive"):
            list(BullionReader(dev).scan(["x"], batch_size=0))

    def test_scan_is_lazy(self):
        table = Table({"x": np.arange(1000, dtype=np.int64)})
        dev = _write(table, rows_per_page=100, rows_per_group=100)
        dev.stats.reset()
        reader = BullionReader(dev)
        after_open = dev.stats.bytes_read
        scan = reader.scan(["x"], max_workers=0)
        assert dev.stats.bytes_read == after_open  # nothing fetched yet
        next(iter(scan))
        assert dev.stats.bytes_read > after_open
        # a serial consumer that stops early reads far less than the file
        assert dev.stats.bytes_read - after_open < dev.size / 5


class TestPredicatePruning:
    def _file(self):
        # x ascends, so each 100-row group has tight disjoint min/max
        table = Table({"x": np.arange(1000, dtype=np.int64)})
        return _write(table, rows_per_page=100, rows_per_group=100), table

    def test_pruned_scan_matches_pruned_project(self):
        dev, _table = self._file()
        reader = BullionReader(dev)
        scan = reader.scan(["x"], where=col("x").between(250, 449))
        assert scan.row_groups == [2, 3, 4]
        kept = reader.project(["x"], row_groups=scan.row_groups)
        assert scan.to_table().equals(kept.slice(50, 250))

    def test_pruning_skips_data_io(self):
        dev, _table = self._file()
        reader = BullionReader(dev)
        dev.stats.reset()
        before = dev.stats.bytes_read
        out = reader.scan(["x"], where=col("x") >= 900).to_table()
        assert np.array_equal(out.column("x"), np.arange(900, 1000))
        assert dev.stats.bytes_read - before < dev.size / 5

    def test_all_groups_pruned_yields_typed_empty(self):
        dev, _table = self._file()
        reader = BullionReader(dev)
        out = reader.scan(["x"], where=col("x") >= 10**9).to_table()
        assert out.num_rows == 0
        assert out.column("x").dtype == np.int64

    def test_predicate_intersects_explicit_groups(self):
        dev, _table = self._file()
        reader = BullionReader(dev)
        scan = reader.scan(
            ["x"],
            where=col("x").between(250, 449),
            row_groups=[0, 3, 9],
        )
        assert scan.row_groups == [3]


class TestDeletionInteraction:
    def test_scan_drops_deleted_rows(self):
        table = Table({"x": np.arange(1000, dtype=np.int64)})
        dev = _write(table, rows_per_page=100, rows_per_group=200)
        delete_rows(dev, range(150, 350))
        reader = BullionReader(dev)
        out = reader.scan(["x"], max_workers=4).to_table()
        assert out.num_rows == 800
        assert not np.isin(np.arange(150, 350), out.column("x")).any()
        assert out.equals(reader.project(["x"]))

    def test_scan_can_keep_deleted_rows(self):
        table = Table({"x": np.arange(400, dtype=np.int64)})
        dev = _write(table, rows_per_page=100, rows_per_group=200)
        delete_rows(dev, range(100))
        reader = BullionReader(dev)
        out = reader.scan(["x"], drop_deleted=False).to_table()
        assert out.num_rows == 400

    def test_batched_scan_with_deletions(self):
        table = Table({"x": np.arange(1000, dtype=np.int64)})
        dev = _write(table, rows_per_page=100, rows_per_group=200)
        delete_rows(dev, range(0, 1000, 2))  # every other row
        batches = list(BullionReader(dev).scan(["x"], batch_size=64))
        seen = np.concatenate([b.column("x") for b in batches])
        assert np.array_equal(seen, np.arange(1, 1000, 2))
        assert all(b.num_rows == 64 for b in batches[:-1])


class TestChunkCache:
    def test_repeat_scans_hit_cache(self):
        table = Table({"x": np.arange(1000, dtype=np.int64)})
        dev = _write(table, rows_per_page=100, rows_per_group=200)
        reader = BullionReader(dev)
        reader.scan(["x"], max_workers=0).to_table()
        dev.stats.reset()
        before = dev.stats.bytes_read
        reader.scan(["x"], max_workers=0).to_table()
        assert dev.stats.bytes_read == before  # served from cache
        assert reader.chunk_cache.stats.memory_hits >= 5

    def test_cache_capacity_evicts(self):
        # the entry cap a reader's private cache is sized by
        cache = TieredChunkCache(max_entries=2)
        cache.put((0, 0), b"a")
        cache.put((0, 1), b"b")
        cache.put((0, 2), b"c")
        assert cache.get((0, 0)) is None
        assert cache.get((0, 2)) == b"c"
        assert len(cache) == 2
        assert cache.stats.memory_evictions == 1
        assert (cache.stats.misses, cache.stats.memory_hits) == (1, 1)

    def test_invalidate_cache_forces_reread(self):
        table = Table({"x": np.arange(200, dtype=np.int64)})
        dev = _write(table, rows_per_page=100, rows_per_group=200)
        reader = BullionReader(dev)
        reader.project(["x"])
        reader.invalidate_cache()
        dev.stats.reset()
        reader.project(["x"])
        assert dev.stats.bytes_read > 0


class TestEmptyProjectionDtypes:
    """The _concat satellite fix: empty columns keep their types."""

    def test_empty_float_and_string_columns(self):
        table = Table(
            {
                "f": np.zeros(0, dtype=np.float64),
                "f32": np.zeros(0, dtype=np.float32),
                "s": [],
            }
        )
        dev = _write(table)
        out = BullionReader(dev).project(["f", "f32", "s"])
        assert out.column("f").dtype == np.float64
        assert out.column("f32").dtype == np.float32
        assert isinstance(out.column("s"), list) and out.column("s") == []


class TestDuplicateProjection:
    def test_duplicate_column_parallel_matches_serial(self):
        table = Table({"a": np.arange(500, dtype=np.int64)})
        dev = _write(table, rows_per_page=50, rows_per_group=100)
        reader = BullionReader(dev)
        par = list(reader.scan(["a", "a"], max_workers=4))
        ser = list(reader.scan(["a", "a"], max_workers=0))
        assert len(par) == len(ser)
        for p, s in zip(par, ser):
            assert p.equals(s)
