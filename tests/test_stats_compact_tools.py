"""Tests for footer statistics, row-group pruning, compaction, tools."""

import numpy as np
import pytest

from repro.core import (
    BullionReader,
    BullionWriter,
    Table,
    WriterOptions,
    delete_rows,
)
from repro.core.compact import compact, merge
from repro.expr import col
from repro.iosim import SimulatedStorage
from repro.tools import describe, inspect_file


def _file(presorted=True, n=1000, stats=True):
    rng = np.random.default_rng(13)
    score = rng.random(n)
    if presorted:
        score = np.sort(score)[::-1]
    table = Table(
        {
            "score": score,
            "id": np.arange(n, dtype=np.int64),
            "tag": [b"t%d" % (i % 5) for i in range(n)],
        }
    )
    dev = SimulatedStorage()
    BullionWriter(
        dev,
        options=WriterOptions(
            rows_per_page=100, rows_per_group=100, collect_statistics=stats
        ),
    ).write(table)
    return dev, table


class TestChunkStats:
    def test_stats_recorded_for_numeric(self):
        dev, table = _file()
        footer = BullionReader(dev).footer
        col = footer.find_column("score")
        stats = footer.chunk_stats(col, 0)
        rg = table.column("score")[:100]
        assert stats is not None
        assert stats.min_value == pytest.approx(float(rg.min()))
        assert stats.max_value == pytest.approx(float(rg.max()))

    def test_no_stats_for_bytes(self):
        dev, _t = _file()
        footer = BullionReader(dev).footer
        assert footer.chunk_stats(footer.find_column("tag"), 0) is None

    def test_stats_optional(self):
        dev, _t = _file(stats=False)
        footer = BullionReader(dev).footer
        assert footer.chunk_stats(footer.find_column("score"), 0) is None

    def test_prune_on_presorted_selects_prefix(self):
        dev, table = _file(presorted=True)
        reader = BullionReader(dev)
        kept = reader.prune_row_groups_expr(col("score") >= 0.9)
        assert kept == list(range(len(kept)))  # a prefix of the groups
        assert len(kept) < reader.footer.num_row_groups / 2

    def test_prune_on_unsorted_keeps_most(self):
        dev, _t = _file(presorted=False)
        reader = BullionReader(dev)
        kept = reader.prune_row_groups_expr(col("score") >= 0.9)
        assert len(kept) == reader.footer.num_row_groups

    def test_prune_correctness(self):
        """Pruning must never lose qualifying rows."""
        dev, table = _file(presorted=True)
        reader = BullionReader(dev)
        kept = reader.prune_row_groups_expr(col("score") >= 0.7)
        got = reader.project(["score"], row_groups=kept)
        got_scores = np.asarray(got.column("score"))
        expected = np.asarray(table.column("score"))
        assert (got_scores >= 0.7).sum() == (expected >= 0.7).sum()

    def test_prune_max_value(self):
        dev, _t = _file(presorted=True)
        reader = BullionReader(dev)
        kept = reader.prune_row_groups_expr(col("score") <= 0.1)
        assert kept  # the tail groups
        assert kept[-1] == reader.footer.num_row_groups - 1


class TestCompaction:
    def test_compact_reclaims_deleted_rows(self):
        dev, table = _file()
        delete_rows(dev, range(100, 300))
        target = SimulatedStorage()
        report = compact(dev, target)
        assert report.rows_in == 1000
        assert report.rows_out == 800
        assert report.bytes_out < report.bytes_in
        out = BullionReader(target).project(["id"])
        keep = np.ones(1000, dtype=bool)
        keep[100:300] = False
        assert np.array_equal(out.column("id"), np.arange(1000)[keep])
        assert BullionReader(target).footer.deleted_count() == 0

    def test_merge_files(self):
        dev1, t1 = _file(n=200)
        dev2, t2 = _file(n=300)
        target = SimulatedStorage()
        report = merge([dev1, dev2], target)
        assert report.rows_out == 500
        out = BullionReader(target).project(["id"])
        assert list(out.column("id")) == list(range(200)) + list(range(300))

    def test_merge_mismatched_rejected(self):
        dev1, _ = _file(n=100)
        dev2 = SimulatedStorage()
        BullionWriter(dev2).write(Table({"other": np.zeros(5, dtype=np.int64)}))
        with pytest.raises(ValueError, match="different columns"):
            merge([dev1, dev2], SimulatedStorage())

    def test_merge_empty_rejected(self):
        with pytest.raises(ValueError):
            merge([], SimulatedStorage())


class TestInspector:
    def test_inspect_file_structure(self):
        dev, _t = _file()
        report = inspect_file(dev)
        assert report.num_rows == 1000
        assert report.num_columns == 3
        assert report.checksums_valid
        assert report.data_bytes < report.file_bytes
        by_name = {c.name: c for c in report.columns}
        assert by_name["id"].encodings == {"fixed_bit_width": 10}
        assert by_name["score"].n_pages == 10

    def test_inspect_tracks_deletions(self):
        dev, _t = _file()
        delete_rows(dev, [1, 2, 3])
        report = inspect_file(dev)
        assert report.deleted_rows == 3
        assert report.checksums_valid

    def test_describe_renders(self):
        dev, _t = _file()
        text = describe(dev)
        assert "bullion file" in text
        assert "fixed_bit_width" in text
        assert "rows: 1,000" in text

    def test_inspect_detects_corruption(self):
        dev, _t = _file()
        footer = BullionReader(dev).footer
        page = footer.page(0)
        dev.corrupt(page.offset + 20, b"\xff\xff")
        assert not inspect_file(dev).checksums_valid
