"""The read path has one scan loop and one rule for threads.

*Rule*: a read overlaps I/O on threads only when the device under the
reader really waits per request (a sleeping wrapper anywhere in the
storage stack); memory-speed devices fetch inline, and ``max_workers
<= 1`` forces serial everywhere. The scan's look-ahead, the query
engine's per-file fan-out and the training loader all follow it.

*Loop*: filtered and unfiltered, serial and threaded scans are one
pipeline, so every cell of where x deletions x projection x workers x
device must produce the same tables, the same ``ScanStats`` and the
same number of object-store requests.
"""

import dataclasses
import threading

import numpy as np
import pytest

from repro.catalog import CatalogTable, DirectoryCatalogStore, MemoryCatalogStore
from repro.core import (
    BullionReader,
    BullionWriter,
    LoaderOptions,
    Table,
    TrainingDataLoader,
    WriterOptions,
    delete_rows,
)
from repro.expr import col, evaluate
from repro.iosim import FileStorage, ObjectStorage, SeekModel, SimulatedStorage

N_ROWS, ROWS_PER_GROUP = 600, 100

#: a round trip long enough that look-ahead fetches really are in
#: flight together
_SLOW = SeekModel(
    seek_latency_s=0.0, bandwidth_bytes_per_s=1e9, request_latency_s=0.002
)


def _table(lo=0, n=N_ROWS):
    rng = np.random.default_rng(lo + 1)
    return Table({
        "a": np.arange(lo, lo + n, dtype=np.int64),
        "b": rng.normal(size=n),
        "s": [b"row%d" % (i % 7) for i in range(n)],
    })


def _write(dev, table=None):
    BullionWriter(
        dev,
        options=WriterOptions(rows_per_page=50, rows_per_group=ROWS_PER_GROUP),
    ).write(table if table is not None else _table())
    return dev


class _ThreadLog:
    """``jitter_fn`` that records which threads issued requests."""

    def __init__(self):
        self.idents = set()

    def __call__(self, op, offset, nbytes):
        self.idents.add(threading.get_ident())
        return 0.0


class SleepingStore(MemoryCatalogStore):
    """Memory store whose data files sit behind a sleeping object store."""

    def __init__(self):
        super().__init__("sleeping")
        self.log = _ThreadLog()

    def open_data(self, file_id):
        return ObjectStorage(
            super().open_data(file_id),
            model=_SLOW,
            jitter_fn=self.log,
            sleep=True,
        )


def _catalog(store, n_files=4):
    table = CatalogTable.create(store)
    for k in range(n_files):
        table.append(
            _table(k * N_ROWS),
            options=WriterOptions(
                rows_per_page=50, rows_per_group=ROWS_PER_GROUP
            ),
        )
    return table


@pytest.fixture
def no_pools(monkeypatch):
    """Any attempt to build a thread pool on the read path fails."""

    def refuse(*args, **kwargs):
        raise AssertionError("the read path started a thread pool")

    monkeypatch.setattr("repro.core.reader.ThreadPoolExecutor", refuse)
    monkeypatch.setattr("repro.query.engine.ThreadPoolExecutor", refuse)


# ---------------------------------------------------------------------------
# (a) the thread rule
# ---------------------------------------------------------------------------

class TestMemorySpeedDevicesStartNoThread:
    @pytest.mark.parametrize("backend", ["simulated", "file"])
    @pytest.mark.parametrize("where", [None, col("b") > 0.0])
    def test_multi_group_scan(self, tmp_path, no_pools, backend, where):
        dev = (
            SimulatedStorage()
            if backend == "simulated"
            else FileStorage(tmp_path / "f.bullion")
        )
        reader = BullionReader(_write(dev))
        assert not reader.waits_per_request
        before = threading.active_count()
        scan = reader.scan(["a", "b"], where=where, max_workers=4)
        for _batch in scan:
            assert threading.active_count() == before
        assert scan.stats.groups_scanned == N_ROWS // ROWS_PER_GROUP

    @pytest.mark.parametrize("backend", ["memory", "directory"])
    def test_multi_file_query(self, tmp_path, no_pools, backend):
        store = (
            MemoryCatalogStore()
            if backend == "memory"
            else DirectoryCatalogStore(str(tmp_path / "tbl"))
        )
        table = _catalog(store)
        with table.pin() as snap:
            # sum() is never metadata-answerable: every file decodes
            result = snap.query(["count", "sum(a)"], max_workers=4)
        assert result.stats.files_decoded == 4
        assert result.rows[0]["sum(a)"] == sum(range(4 * N_ROWS))

    def test_training_loader_epoch(self, no_pools):
        devs = [_write(SimulatedStorage(), _table(k * N_ROWS)) for k in range(3)]
        loader = TrainingDataLoader(
            devs, ["a", "b"], LoaderOptions(batch_size=128, scan_workers=4)
        )
        assert sum(b.num_rows for b in loader) == 3 * N_ROWS


class TestSleepingDevicesOverlap:
    def _object(self, log):
        sim = _write(SimulatedStorage())
        return ObjectStorage(sim, model=_SLOW, jitter_fn=log, sleep=True)

    @pytest.mark.parametrize("where", [None, col("b") > 0.0])
    def test_multi_group_scan_fetches_from_pool_threads(self, where):
        log = _ThreadLog()
        reader = BullionReader(self._object(log), chunk_cache_size=0)
        assert reader.waits_per_request
        log.idents.clear()  # drop the footer open
        out = reader.scan(["a", "b"], where=where, max_workers=4).to_table()
        assert out.num_rows > 0
        # group 0 inline on this thread, the rest from the look-ahead
        assert threading.get_ident() in log.idents
        assert len(log.idents) > 1

    def test_one_group_scan_needs_no_pool(self, no_pools):
        log = _ThreadLog()
        reader = BullionReader(self._object(log))
        out = reader.scan(
            ["a", "b"], where=col("b") > 0.0, row_groups=[2], max_workers=4
        ).to_table()
        assert out.num_rows > 0
        assert log.idents == {threading.get_ident()}

    def test_multi_file_query_fans_out(self):
        store = SleepingStore()
        table = _catalog(store)
        with table.pin() as snap:
            store.log.idents.clear()
            result = snap.query(["sum(a)"], max_workers=4)
        assert result.rows[0]["sum(a)"] == sum(range(4 * N_ROWS))
        # footers open on the coordinator; files decode on the pool
        assert len(store.log.idents - {threading.get_ident()}) > 1

    def test_training_loader_epoch_overlaps(self):
        store = SleepingStore()
        table = _catalog(store, n_files=2)
        with table.pin() as snap:
            store.log.idents.clear()
            loader = snap.loader(["a"], LoaderOptions(batch_size=256))
            assert sum(b.num_rows for b in loader) == 2 * N_ROWS
        assert len(store.log.idents) > 1

    def test_max_workers_zero_starts_none(self, no_pools):
        store = SleepingStore()
        table = _catalog(store, n_files=2)
        me = {threading.get_ident()}
        with table.pin() as snap:
            store.log.idents.clear()
            for reader in snap.readers():
                reader.scan(["a", "b"], max_workers=0).to_table()
            snap.query(["sum(a)"], max_workers=0)
            loader = snap.loader(
                ["a"], LoaderOptions(batch_size=256, scan_workers=0)
            )
            assert sum(b.num_rows for b in loader) == 2 * N_ROWS
        assert store.log.idents == me


# ---------------------------------------------------------------------------
# (b) one loop: every cell agrees
# ---------------------------------------------------------------------------

WHERES = {
    "none": None,
    "some-rows": (col("a") >= 150) & (col("b") > 0.0),
    # bytes carry no zone maps: every group is scanned, none survives
    "no-rows": col("s") == b"nope",
    "all-pruned": col("a") < 0,
}
PROJECTIONS = {
    "plain": ["a", "b", "s"],
    "residual-only": ["s"],
    "duplicate": ["b", "b", "a"],
    "empty": [],
}


@pytest.mark.parametrize("projection", sorted(PROJECTIONS))
@pytest.mark.parametrize("deletions", [False, True], ids=["clean", "deleted"])
@pytest.mark.parametrize("where", sorted(WHERES))
def test_every_cell_of_the_scan_loop_agrees(where, deletions, projection):
    base = _write(SimulatedStorage())
    if deletions:
        # group 0 partly, group 1 entirely, group 2 partly deleted
        delete_rows(base, range(50, 250))
    columns, expr = PROJECTIONS[projection], WHERES[where]

    cells = {}
    for sleep in (False, True):
        for workers in (0, 4):
            inner = SimulatedStorage()
            inner._buf = bytearray(base.raw_bytes())
            obj = ObjectStorage(inner, model=_SLOW, sleep=sleep)
            scan = BullionReader(obj).scan(
                columns, where=expr, max_workers=workers
            )
            batches = list(scan)
            cells[(sleep, workers)] = (
                batches,
                dataclasses.asdict(scan.stats),
                obj.request_count,
            )

    ref_batches, ref_stats, ref_requests = cells[(False, 0)]
    for cell, (batches, stats, requests) in cells.items():
        assert len(batches) == len(ref_batches), cell
        for got, want in zip(batches, ref_batches):
            assert got.equals(want), cell
        assert stats == ref_stats, cell
        assert requests == ref_requests, cell

    # ... and the reference cell is right: brute force in memory
    full = _table()
    keep = np.ones(N_ROWS, dtype=bool)
    if deletions:
        keep[50:250] = False
    if expr is not None:
        keep &= evaluate(expr, full.columns)
    got = BullionReader(base).scan(columns, where=expr).to_table()
    want = Table({name: full.column(name) for name in columns}).take_mask(keep)
    assert got.equals(want)
    if columns:
        assert ref_stats["rows_matched"] == int(keep.sum())
    # unfiltered scans yield every group, filtered ones skip empty groups
    if expr is None:
        assert len(ref_batches) == N_ROWS // ROWS_PER_GROUP
    else:
        assert all(b.num_rows for b in ref_batches if columns)
