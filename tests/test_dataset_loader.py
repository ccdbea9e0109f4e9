"""Tests for the batch-oriented training data loader (``snap.loader``)."""

import numpy as np
import pytest

from repro.catalog import CatalogTable, MemoryCatalogStore
from repro.core import Table, WriterOptions
from repro.core.dataset import LoaderOptions
from repro.expr import col
from repro.quantization import FloatFormat, QuantizationPolicy


def _file(n=1000, quantization=None):
    """One 1000-row file (groups of 200) in a catalog table."""
    rng = np.random.default_rng(23)
    table = Table(
        {
            "x": np.arange(n, dtype=np.int64),
            "y": rng.normal(size=n).astype(np.float32),
        }
    )
    cat = CatalogTable.create(MemoryCatalogStore())
    cat.append(table, options=WriterOptions(
        rows_per_page=100, rows_per_group=200, quantization=quantization
    ))
    return cat, table


class TestLoader:
    def test_batches_cover_all_rows_in_order(self):
        cat, table = _file()
        loader = cat.pin().loader(["x"], LoaderOptions(batch_size=128))
        seen = np.concatenate([np.asarray(b.column("x")) for b in loader])
        assert np.array_equal(seen, table.column("x"))

    def test_batch_sizes(self):
        cat, _t = _file(n=1000)
        batches = list(cat.pin().loader(["x"], LoaderOptions(batch_size=300)))
        assert [b.num_rows for b in batches] == [300, 300, 300, 100]

    def test_drop_last(self):
        cat, _t = _file(n=1000)
        batches = list(cat.pin().loader(
            ["x"], LoaderOptions(batch_size=300, drop_last=True)
        ))
        assert [b.num_rows for b in batches] == [300, 300, 300]

    def test_shuffle_permutes_groups_per_epoch(self):
        cat, table = _file(n=1000)
        loader = cat.pin().loader(
            ["x"], LoaderOptions(batch_size=200, shuffle_row_groups=True)
        )
        epoch1 = np.concatenate([np.asarray(b.column("x")) for b in loader])
        epoch2 = np.concatenate([np.asarray(b.column("x")) for b in loader])
        assert sorted(epoch1) == list(range(1000))
        assert sorted(epoch2) == list(range(1000))
        assert not np.array_equal(epoch1, epoch2)  # reshuffled

    def test_deleted_rows_excluded(self):
        cat, _t = _file(n=1000)
        cat.delete((col("x") >= 50) & (col("x") < 150))
        loader = cat.pin().loader(["x"], LoaderOptions(batch_size=100))
        seen = np.concatenate([np.asarray(b.column("x")) for b in loader])
        assert len(seen) == 900
        assert not np.isin(np.arange(50, 150), seen).any()

    def test_widen_quantized(self):
        policy = QuantizationPolicy(default=FloatFormat.FP16)
        cat, table = _file(quantization=policy)
        loader = cat.pin().loader(
            ["y"], LoaderOptions(batch_size=500, widen_quantized=True)
        )
        batch = next(iter(loader))
        assert batch.column("y").dtype == np.float32
        assert np.allclose(
            batch.column("y"), table.column("y")[:500], atol=1e-3
        )

    def test_missing_column_rejected(self):
        cat, _t = _file()
        with pytest.raises(KeyError, match="not in file"):
            cat.pin().loader(["nope"])


@pytest.mark.parametrize("where", [None, col("v") >= 0])
def test_num_rows_counts_live_rows(where):
    """``num_rows`` is what an epoch yields: deleted rows are not in
    it, with or without a loader filter."""
    cat = CatalogTable.create(MemoryCatalogStore())
    cat.append(Table({"v": np.arange(100, dtype=np.int64)}))
    cat.delete(col("v") < 30)
    loader = cat.pin().loader(["v"], LoaderOptions(where=where))
    assert sum(b.num_rows for b in loader) == 70
    assert loader.num_rows == 70


class TestInputsCheckedUpFront:
    """A bad batch size, seed or filter fails where it is given, with a
    typed error, not at the first batch or the first epoch."""

    BAD_BATCH_SIZES = [
        (0, ValueError), (-3, ValueError), (2.5, TypeError),
        (True, TypeError), ("8", TypeError),
    ]

    @pytest.mark.parametrize("size,error", BAD_BATCH_SIZES)
    def test_loader_options_reject_batch_size(self, size, error):
        with pytest.raises(error, match="batch_size"):
            LoaderOptions(batch_size=size)

    @pytest.mark.parametrize("seed,error", [
        (-1, ValueError), (1.0, TypeError), (False, TypeError),
    ])
    def test_loader_options_reject_seed(self, seed, error):
        with pytest.raises(error, match="seed"):
            LoaderOptions(seed=seed, shuffle_row_groups=True)

    @pytest.mark.parametrize("size,error", BAD_BATCH_SIZES)
    def test_scans_reject_batch_size_when_called(self, size, error):
        cat, _table = _file(200)
        with cat.pin() as pin:
            reader = pin._reader_for(pin.snapshot.files[0].file_id)
            with pytest.raises(error, match="batch_size"):
                reader.scan(["x"], batch_size=size)
            with pytest.raises(error, match="batch_size"):
                pin.scan(["x"], batch_size=size)
            with pytest.raises(error, match="batch_size"):
                pin.read(["x"], batch_size=size)

    @pytest.mark.parametrize("where", [
        "nope > 1", "x > 1 and nope < 2", col("nope") == 3,
    ])
    def test_loader_rejects_a_bad_filter_at_construction(self, where):
        cat, _table = _file(200)
        with cat.pin() as pin:
            with pytest.raises(KeyError):
                pin.loader(["x"], LoaderOptions(where=where))

    def test_loader_rejects_a_filter_on_a_list_column(self):
        cat = CatalogTable.create(MemoryCatalogStore())
        cat.append(Table({
            "x": np.arange(4, dtype=np.int64),
            "l": [np.arange(k, dtype=np.int64) for k in range(4)],
        }))
        with cat.pin() as pin:
            with pytest.raises(ValueError, match="list column"):
                pin.loader(["x"], LoaderOptions(where=col("l") > 1))
