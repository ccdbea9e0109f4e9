"""Multi-file reads of a pinned snapshot: scans and loader epochs that
cross file boundaries."""

import numpy as np
import pytest

from repro.catalog import (
    CatalogTable,
    DirectoryCatalogStore,
    MemoryCatalogStore,
)
from repro.core import Table, WriterOptions
from repro.core.dataset import LoaderOptions


def _table(n=1000):
    rng = np.random.default_rng(19)
    return Table(
        {
            "x": np.arange(n, dtype=np.int64),
            "y": rng.normal(size=n).astype(np.float32),
        }
    )


_OPTS = WriterOptions(rows_per_page=50, rows_per_group=100)


def _pin(table, n_files=4, store=None):
    """``table`` as ``n_files`` consecutive row slices, one file each,
    committed together; the snapshot pinned."""
    cat = CatalogTable.create(store or MemoryCatalogStore())
    txn = cat.transaction()
    step = -(-table.num_rows // n_files)
    for lo in range(0, table.num_rows, step):
        txn.append(table.slice(lo, lo + step), options=_OPTS)
    txn.commit()
    return cat.pin()


class TestShardedWrite:
    def test_shards_concatenate_to_original(self):
        table = _table()
        snap = _pin(table, n_files=3)
        parts = [
            snap._reader_for(f.file_id).project(["x", "y"])
            for f in snap.snapshot.files
        ]
        assert [p.num_rows for p in parts] == [334, 334, 332]
        merged = np.concatenate([p.column("x") for p in parts])
        assert np.array_equal(merged, table.column("x"))

    def test_file_backed_shards(self, tmp_path):
        table = _table(400)
        store = DirectoryCatalogStore(str(tmp_path))
        snap = _pin(table, n_files=2, store=store)
        data = [p for p in tmp_path.rglob("*") if p.is_file()
                and any(f.file_id in p.name for f in snap.snapshot.files)]
        assert len(data) == 2
        got = np.concatenate([b.column("x") for b in snap.scan(["x"])])
        assert np.array_equal(got, table.column("x"))

    def test_scan_chains_across_shards(self):
        table = _table()
        snap = _pin(table, n_files=3)
        seen = np.concatenate(
            [b.column("x") for b in snap.scan(["x"], batch_size=128)]
        )
        assert np.array_equal(seen, table.column("x"))


class TestShardedLoader:
    def test_batches_cover_all_shards_in_order(self):
        table = _table()
        loader = _pin(table).loader(["x"], LoaderOptions(batch_size=128))
        assert loader.num_shards == 4
        seen = np.concatenate([np.asarray(b.column("x")) for b in loader])
        assert np.array_equal(seen, table.column("x"))

    def test_batches_span_shard_boundaries(self):
        # 250-row files with 300-row batches force cross-file carry
        loader = _pin(_table()).loader(["x"], LoaderOptions(batch_size=300))
        assert [b.num_rows for b in loader] == [300, 300, 300, 100]

    def test_drop_last_across_shards(self):
        loader = _pin(_table()).loader(
            ["x"], LoaderOptions(batch_size=300, drop_last=True)
        )
        assert [b.num_rows for b in loader] == [300, 300, 300]

    def test_shuffle_covers_all_rows_and_reshuffles(self):
        loader = _pin(_table()).loader(
            ["x"], LoaderOptions(batch_size=200, shuffle_row_groups=True)
        )
        epoch1 = np.concatenate([np.asarray(b.column("x")) for b in loader])
        epoch2 = np.concatenate([np.asarray(b.column("x")) for b in loader])
        assert sorted(epoch1) == list(range(1000))
        assert sorted(epoch2) == list(range(1000))
        assert not np.array_equal(epoch1, epoch2)

    def test_shuffle_order_is_a_function_of_the_seed(self):
        snap = _pin(_table())

        def epoch(seed):
            loader = snap.loader(["x"], LoaderOptions(
                batch_size=200, shuffle_row_groups=True, seed=seed
            ))
            return np.concatenate([np.asarray(b.column("x")) for b in loader])

        assert np.array_equal(epoch(3), epoch(3))
        assert not np.array_equal(epoch(3), epoch(4))

    def test_single_storage_still_works(self):
        loader = _pin(_table(500), n_files=1).loader(
            ["x"], LoaderOptions(batch_size=200)
        )
        assert [b.num_rows for b in loader] == [200, 200, 100]

    def test_missing_column_rejected_on_any_shard(self):
        with pytest.raises(KeyError, match="not in file"):
            _pin(_table(100), n_files=2).loader(["nope"])


class TestRegressionFixes:
    def test_sharded_scan_batches_exact_across_shards(self):
        # file boundary at 250; batches must still be exactly 300
        batches = _pin(_table()).scan(["x"], batch_size=300)
        sizes = [b.num_rows for b in batches]
        assert sizes == [300, 300, 300, 100]
