"""Tests for the multimodal dual-table layout (§2.5, Fig 7)."""

import numpy as np
import pytest

from repro.core.table import Table
from repro.iosim import SimulatedStorage
from repro.multimodal import (
    MediaReader,
    MediaWriter,
    MultimodalDataset,
    contiguous_run_stats,
    reorder_columns,
    sort_rows_by_quality,
)
from repro.workloads.multimodal_gen import MultimodalConfig, generate_samples


class TestMediaFile:
    def test_roundtrip_random_access(self):
        dev = SimulatedStorage()
        w = MediaWriter(dev, field_names=["id", "video"], block_records=4)
        for i in range(10):
            w.append({"id": bytes([i]), "video": bytes([i]) * 50})
        refs = w.close()
        r = MediaReader(dev)
        for i in (0, 3, 4, 9):
            rec = r.read_record(refs[i])
            assert rec["id"] == bytes([i])
            assert rec["video"] == bytes([i]) * 50

    def test_scan_order(self):
        dev = SimulatedStorage()
        w = MediaWriter(dev, field_names=["v"], block_records=3)
        for i in range(7):
            w.append({"v": bytes([i])})
        refs = w.close()
        r = MediaReader(dev)
        values = [r.read_record(ref)["v"] for ref in refs]
        assert values == [bytes([i]) for i in range(7)]

    def test_missing_field_rejected(self):
        w = MediaWriter(SimulatedStorage(), field_names=["a", "b"])
        with pytest.raises(ValueError, match="missing"):
            w.append({"a": b"x"})

    def test_bad_magic(self):
        dev = SimulatedStorage()
        dev.append(b"nope" * 10)
        with pytest.raises(ValueError, match="magic"):
            MediaReader(dev)

    def test_row_format_walk_cost(self):
        """Row orientation: later records in a block cost a payload walk."""
        dev = SimulatedStorage()
        w = MediaWriter(dev, field_names=["v"], block_records=8)
        for i in range(8):
            w.append({"v": bytes(100)})
        refs = w.close()
        r = MediaReader(dev)
        dev.stats.reset()
        r.read_record(refs[7])
        assert dev.stats.bytes_read > 800  # whole block payload read


class TestQualityReordering:
    def test_sort_rows_by_quality(self):
        table = Table(
            {
                "q": np.array([0.1, 0.9, 0.5]),
                "name": [b"lo", b"hi", b"mid"],
            }
        )
        out, order = sort_rows_by_quality(table, "q")
        assert list(out.column("q")) == [0.9, 0.5, 0.1]
        assert out.column("name") == [b"hi", b"mid", b"lo"]
        assert list(order) == [1, 2, 0]

    def test_reorder_columns_puts_hot_first(self):
        table = Table({"a": np.zeros(2), "b": np.zeros(2), "c": np.zeros(2)})
        out = reorder_columns(table, ["c", "a"])
        assert list(out.columns) == ["c", "a", "b"]

    def test_reorder_missing_hot_column(self):
        with pytest.raises(KeyError):
            reorder_columns(Table({"a": np.zeros(2)}), ["zz"])

    def test_contiguous_run_stats(self):
        runs, mean = contiguous_run_stats(np.array([0, 1, 2, 10, 11, 50]))
        assert runs == 3
        assert mean == 2.0
        assert contiguous_run_stats(np.array([], dtype=np.int64)) == (0, 0.0)


class TestMultimodalDataset:
    @pytest.fixture(scope="class")
    def samples(self):
        return generate_samples(MultimodalConfig(n_samples=400, seed=3))

    def _build(self, samples, presort):
        ds = MultimodalDataset(
            presort_by_quality=presort, rows_per_page=64, rows_per_group=64
        )
        ds.ingest(samples)
        return ds

    def test_presort_reduces_runs_and_bytes(self, samples):
        sorted_ds = self._build(samples, presort=True)
        unsorted_ds = self._build(samples, presort=False)
        thr = 0.55
        rep_s = sorted_ds.train_epoch(thr)
        rep_u = unsorted_ds.train_epoch(thr)
        assert rep_s.samples_read == rep_u.samples_read
        assert rep_s.selected_runs < rep_u.selected_runs
        assert rep_s.meta.bytes_read < rep_u.meta.bytes_read

    def test_inline_highlights_avoid_media_io(self, samples):
        ds = self._build(samples, presort=True)
        inline = ds.train_epoch(0.5, use_inline_highlights=True)
        bounced = ds.train_epoch(0.5, use_inline_highlights=False)
        assert inline.media.reads == 0
        assert bounced.media.reads >= bounced.samples_read
        assert bounced.media.seeks > 0

    def test_modelled_time_favors_inline(self, samples):
        ds = self._build(samples, presort=True)
        inline = ds.train_epoch(0.5, use_inline_highlights=True)
        bounced = ds.train_epoch(0.5, use_inline_highlights=False)
        assert inline.modelled_time() < bounced.modelled_time()

    def test_full_video_lookup(self, samples):
        ds = self._build(samples, presort=True)
        video = ds.lookup_full_video(0)
        assert len(video) == MultimodalConfig().video_bytes

    def test_threshold_one_selects_nothing(self, samples):
        ds = self._build(samples, presort=True)
        rep = ds.train_epoch(1.1)
        assert rep.samples_read == 0
