"""The read path has one scan loop and one rule for threads.

*Rule*: a read overlaps I/O on threads only when the device under the
reader really waits per request (a sleeping wrapper anywhere in the
storage stack); memory-speed devices fetch inline, and one fetch thread
(``repro.core.reader._FETCH_THREADS``) forces serial everywhere. Every
read — a file's scan, a query, a training loader epoch — is one batch
loop that keeps one batch's fetches in flight, so all follow it.

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
def one_group_batches(monkeypatch):
    """Every batch of the read loop holds one row group, so a read of
    several groups has several batches and fetches one ahead."""
    monkeypatch.setattr("repro.core.reader._BATCH_BYTES", 1)


@pytest.fixture
def no_pools(monkeypatch):
    """Any attempt to build a thread pool on the read path fails (scans
    and queries take theirs from ``repro.core.reader.fetch_pool``)."""

    def refuse(*args, **kwargs):
        raise AssertionError("the read path started a thread pool")

    monkeypatch.setattr("repro.core.reader.ThreadPoolExecutor", refuse)


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
        scan = reader.scan(["a", "b"], where=where)
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
            result = snap.query(["count", "sum(a)"])
        assert result.stats.files_decoded == 4
        assert result.rows[0]["sum(a)"] == sum(range(4 * N_ROWS))

    def test_training_loader_epoch(self, no_pools):
        with _catalog(MemoryCatalogStore(), n_files=3).pin() as snap:
            loader = snap.loader(
                ["a", "b"], LoaderOptions(batch_size=128)
            )
            assert sum(b.num_rows for b in loader) == 3 * N_ROWS


class TestSleepingDevicesOverlap:
    def _object(self, log):
        sim = _write(SimulatedStorage())
        return ObjectStorage(sim, model=_SLOW, jitter_fn=log, sleep=True)

    @pytest.mark.parametrize("where", [None, col("b") > 0.0])
    def test_multi_group_scan_fetches_from_pool_threads(
        self, where, one_group_batches
    ):
        log = _ThreadLog()
        reader = BullionReader(self._object(log), chunk_cache_size=0)
        assert reader.waits_per_request
        log.idents.clear()  # drop the footer open
        out = reader.scan(["a", "b"], where=where).to_table()
        assert out.num_rows > 0
        # batch 0 inline on this thread, the rest from the look-ahead
        assert threading.get_ident() in log.idents
        assert len(log.idents) > 1

    def test_one_batch_scan_spreads_its_reads_over_the_pool(self):
        log = _ThreadLog()
        reader = BullionReader(self._object(log), chunk_cache_size=0)
        log.idents.clear()  # drop the footer open
        scan = reader.scan(["a", "b"], where=col("b") > 0.0)
        assert scan.to_table().num_rows > 0
        # one batch, so nothing is fetched ahead: the other threads
        # carry the batch's own ranged reads (one per group's chunk)
        assert len(log.idents - {threading.get_ident()}) > 1

    def test_one_group_scan_needs_no_pool(self, no_pools):
        log = _ThreadLog()
        reader = BullionReader(self._object(log))
        out = reader.scan(
            ["a", "b"], where=col("b") > 0.0, row_groups=[2]
        ).to_table()
        assert out.num_rows > 0
        assert log.idents == {threading.get_ident()}

    def test_multi_file_query_fans_out(self):
        store = SleepingStore()
        table = _catalog(store)
        with table.pin() as snap:
            store.log.idents.clear()
            result = snap.query(["sum(a)"])
        assert result.rows[0]["sum(a)"] == sum(range(4 * N_ROWS))
        # footers open on the coordinator; files decode on the pool
        assert len(store.log.idents - {threading.get_ident()}) > 1

    def test_multi_file_query_fetches_ahead(self, one_group_batches):
        store = SleepingStore()
        table = _catalog(store)
        with table.pin() as snap:
            store.log.idents.clear()
            result = snap.query(["sum(a)"])
        assert result.rows[0]["sum(a)"] == sum(range(4 * N_ROWS))
        # footers and batch 0 on the coordinator (one file, one run);
        # later batches' filter chunks from the look-ahead
        assert threading.get_ident() in store.log.idents
        assert len(store.log.idents) > 1

    def test_training_loader_epoch_overlaps(self, one_group_batches):
        store = SleepingStore()
        table = _catalog(store, n_files=2)
        with table.pin() as snap:
            store.log.idents.clear()
            loader = snap.loader(["a"], LoaderOptions(batch_size=256))
            assert sum(b.num_rows for b in loader) == 2 * N_ROWS
        assert len(store.log.idents) > 1

    def test_a_read_fetches_one_batch_ahead_never_two(self, one_group_batches):
        """With one group per batch, a consumer holding batch ``k``'s
        table has requested no chunk of batch ``k + 2`` or later."""
        requests = []

        class LoggingStore(MemoryCatalogStore):
            def open_data(self, file_id):
                def note(op, offset, nbytes):
                    requests.append((file_id, offset))
                    return 0.0

                return ObjectStorage(
                    super().open_data(file_id), model=_SLOW,
                    jitter_fn=note, sleep=True,
                )

        table = _catalog(LoggingStore(), n_files=2)
        with table.pin() as snap:
            files = [f.file_id for f in snap.snapshot.files]
            # batch of each chunk's first byte: files in order, each
            # file's groups in order (the chunk index is column-major)
            batch_at = {}
            for k, file_id in enumerate(files):
                index = snap._reader_for(file_id).file_index
                n = len(index.rows)
                for i, offset in enumerate(index.chunks["offset"].tolist()):
                    batch_at[(file_id, offset)] = k * n + i % n
            requests.clear()
            held = []
            for k, _table in enumerate(snap.scan(["a", "b"])):
                held.append(max(
                    (batch_at[r] for r in list(requests) if r in batch_at),
                    default=-1,
                ))
                assert held[-1] <= k + 1, (k, held)
        assert len(held) == len(batch_at) // 3 == 2 * N_ROWS // ROWS_PER_GROUP

    def test_a_one_group_pinned_read_starts_no_pool(self, no_pools):
        store = SleepingStore()
        table = _catalog(store, n_files=2)
        with table.pin() as snap:
            store.log.idents.clear()
            # the zone maps leave one group of one file to read
            got = snap.read(["a", "b"], where=col("a") < ROWS_PER_GROUP // 2)
        assert got.num_rows == ROWS_PER_GROUP // 2
        assert store.log.idents == {threading.get_ident()}

    def test_the_consumer_never_waits_behind_a_blocked_pool(self):
        """A fetch the consumer hands to the pool and no thread has
        started runs on the consumer: a task blocked on a flight the
        consumer leads cannot hold up the consumer's own reads."""
        from concurrent.futures import ThreadPoolExecutor

        from repro.core.reader import _start

        release = threading.Event()
        with ThreadPoolExecutor(max_workers=1) as pool:
            blocked = pool.submit(release.wait, 5.0)
            got = _start(pool, [(release.set,), (len, "ab")])()
            assert blocked.result() is True  # released, not timed out
        assert got == [None, 2]

    def test_one_fetch_thread_starts_none(self, no_pools, serial_fetch):
        store = SleepingStore()
        table = _catalog(store, n_files=2)
        me = {threading.get_ident()}
        with table.pin() as snap:
            store.log.idents.clear()
            for f in snap.snapshot.files:
                snap._reader_for(f.file_id).scan(["a", "b"]).to_table()
            snap.query(["sum(a)"])
            loader = snap.loader(["a"], LoaderOptions(batch_size=256))
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
def test_every_cell_of_the_scan_loop_agrees(
    where, deletions, projection, monkeypatch
):
    from repro.core import reader
    base = _write(SimulatedStorage())
    if deletions:
        # group 0 partly, group 1 entirely, group 2 partly deleted
        delete_rows(base, range(50, 250))
    columns, expr = PROJECTIONS[projection], WHERES[where]

    cells = {}
    for sleep in (False, True):
        for workers in (1, 4):
            monkeypatch.setattr(reader, "_FETCH_THREADS", workers)
            inner = SimulatedStorage()
            inner._buf = bytearray(base.raw_bytes())
            obj = ObjectStorage(inner, model=_SLOW, sleep=sleep)
            scan = BullionReader(obj).scan(columns, where=expr)
            batches = list(scan)
            cells[(sleep, workers)] = (
                batches,
                dataclasses.asdict(scan.stats),
                obj.request_count,
            )

    ref_batches, ref_stats, ref_requests = cells[(False, 1)]
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
