"""Transactional catalog: commits, races, time travel, pinned reads."""

import json
import os
import threading

import numpy as np
import pytest

from repro.catalog import (
    CatalogTable,
    CommitConflict,
    DirectoryCatalogStore,
    MemoryCatalogStore,
    Snapshot,
)
from repro.core import (
    BullionReader,
    LoaderOptions,
    Table,
    WriterOptions,
)
from repro.expr import col


def _table(start, n, seed=None):
    rng = np.random.default_rng(0 if seed is None else seed)
    return Table(
        {
            "id": np.arange(start, start + n, dtype=np.int64),
            "score": rng.random(n).astype(np.float32),
        }
    )


def _opts():
    return WriterOptions(rows_per_page=64, rows_per_group=256)


class FakeClock:
    """Deterministic ms clock so as_of() tests are exact."""

    def __init__(self, start=1_000):
        self.now = start

    def __call__(self):
        return self.now


@pytest.fixture
def table():
    return CatalogTable.create(MemoryCatalogStore(), clock=FakeClock())


# -- basics -----------------------------------------------------------------

def test_create_and_append(table):
    assert table.current_snapshot().snapshot_id == 0
    snap = table.append(_table(0, 500), options=_opts())
    assert snap.snapshot_id == 1
    assert snap.parent_id == 0
    assert snap.operation == "append"
    assert snap.live_rows == 500
    assert snap.summary["rows_added"] == 500
    got = table.read(["id"])
    assert np.array_equal(got.column("id"), np.arange(500))


def test_create_twice_rejected():
    store = MemoryCatalogStore()
    CatalogTable.create(store)
    with pytest.raises(FileExistsError):
        CatalogTable.create(store)


def test_open_empty_store_rejected():
    with pytest.raises(FileNotFoundError):
        CatalogTable(MemoryCatalogStore())


def test_manifest_carries_footer_stats(table):
    table.append(_table(0, 300), options=_opts())
    table.delete(col("id") <= 49)
    entry = table.current_snapshot().files[0]
    storage = table.store.open_data(entry.file_id)
    reader = BullionReader(storage)
    assert entry.row_count == reader.num_rows == 300
    assert entry.deleted_count == reader.footer.deleted_count() == 50
    assert entry.live_rows == reader.live_rows == 250
    assert entry.byte_size == storage.size
    assert entry.schema_fingerprint == reader.schema_fingerprint()


def test_schema_fingerprint_mismatch_rejected(table):
    table.append(_table(0, 100), options=_opts())
    other = Table({"clicks": np.arange(10, dtype=np.int64)})
    with pytest.raises(ValueError, match="fingerprint"):
        table.append(other, options=_opts())


def test_empty_transaction_rejected(table):
    with pytest.raises(ValueError, match="empty transaction"):
        table.transaction().commit()


def test_no_match_delete_and_compact_stage_nothing(table):
    table.append(_table(0, 100), options=_opts())
    txn = table.transaction()
    assert txn.delete(col("id") >= 10**9) == 0
    assert txn.compact(min_deleted_fraction=0.9).bytes_in == 0
    with pytest.raises(ValueError, match="empty transaction"):
        txn.commit()  # nothing staged: no no-op snapshot in the log
    txn.abort()
    # in a multi-op transaction the empty mutations leave no trace
    txn = table.transaction()
    txn.append(_table(100, 100), options=_opts())
    assert txn.delete(col("id") >= 10**9) == 0
    snap = txn.commit()
    assert snap.operation == "append"
    assert "rows_deleted" not in snap.summary


def test_add_shards_commits_atomically(table):
    snap = table.add_shards(_table(0, 1000), rows_per_shard=256,
                            options=_opts())
    assert len(snap.files) == 4
    assert snap.operation == "add-shards"
    assert snap.summary["shards_added"] == 4
    got = table.read(["id"], batch_size=100)
    assert np.array_equal(got.column("id"), np.arange(1000))


# -- concurrency ------------------------------------------------------------

def test_two_racing_writers_both_commit(table):
    """Two transactions from the same base: the loser replays, nothing
    is lost."""
    t1 = table.transaction()
    t2 = table.transaction()
    t1.append(_table(0, 100), options=_opts())
    t2.append(_table(100, 100), options=_opts())
    s1 = t1.commit()
    s2 = t2.commit()  # detects moved HEAD, replays on top
    assert s1.snapshot_id == 1
    assert s2.snapshot_id == 2
    assert table.stats.conflicts >= 1
    assert s2.live_rows == 200
    assert set(np.asarray(table.read(["id"]).column("id"))) == set(range(200))


def test_threaded_appends_no_lost_updates(table):
    n_threads, commits_each, rows = 4, 5, 50
    barrier = threading.Barrier(n_threads)
    errors = []

    def writer(k):
        try:
            barrier.wait()
            for i in range(commits_each):
                start = (k * commits_each + i) * rows
                table.append(_table(start, rows), options=_opts())
        except Exception as exc:  # surfaced below
            errors.append(exc)

    threads = [
        threading.Thread(target=writer, args=(k,)) for k in range(n_threads)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    head = table.current_snapshot()
    total = n_threads * commits_each
    assert head.snapshot_id == total  # every commit landed, no gaps
    assert head.live_rows == total * rows
    ids = np.sort(np.asarray(table.read(["id"]).column("id")))
    assert np.array_equal(ids, np.arange(total * rows))
    # every committed snapshot references only fully-written files
    for snap in table.history():
        for f in snap.files:
            assert BullionReader(table.store.open_data(f.file_id)).verify()


def test_delete_aborts_when_files_appended_concurrently(table):
    table.append(_table(0, 200), options=_opts())
    txn = table.transaction()
    assert txn.delete(col("id") <= 99) == 100
    # a racing append commits rows the delete's predicate never saw;
    # replaying would leave them live, so the delete must abort
    table.append(_table(0, 50), options=_opts())
    with pytest.raises(CommitConflict, match="added concurrently"):
        txn.commit()
    assert table.current_snapshot().live_rows == 250


def test_conflicting_replace_aborts_and_cleans_up(table):
    table.append(_table(0, 500), options=_opts())
    table.delete(col("id") <= 99)
    t1 = table.transaction()
    t2 = table.transaction()
    t1.compact()
    t2.compact()
    t1.commit()
    t2_staged = set(t2._staged_ids)
    assert t2_staged <= set(table.store.list_data())
    with pytest.raises(CommitConflict):
        t2.commit()  # its input file was compacted away by t1
    assert table.stats.aborts == 1
    # t2's staged output was deleted, nothing leaked
    assert not (t2_staged & set(table.store.list_data()))


def test_abort_deletes_staged_files(table):
    txn = table.transaction()
    txn.append(_table(0, 100), options=_opts())
    staged = set(table.store.list_data())
    assert staged
    txn.abort()
    assert table.store.list_data() == []
    with pytest.raises(RuntimeError):
        txn.commit()


def test_compacting_fully_deleted_file_drops_it(table):
    table.append(_table(0, 200), options=_opts())
    table.append(_table(200, 200), options=_opts())
    # first file 100% dead by the copy + scrub route: float statistics
    # cannot rule out NaN, so the score arm keeps the verdict at MAYBE
    # (an ALWAYS delete would drop the file before compact() sees it)
    table.delete((col("id") <= 199) & (col("score") >= 0.0))
    assert sorted(f.live_rows for f in table.current_snapshot().files) == [0, 200]
    snap, report = table.compact()
    assert len(snap.files) == 1  # no empty rewrite committed
    assert report.rows_in == 200 and report.rows_out == 0
    assert all(f.row_count > 0 for f in snap.files)
    got = np.asarray(table.read(["id"]).column("id"))
    assert np.array_equal(got, np.arange(200, 400))


# -- time travel ------------------------------------------------------------

def test_scan_pinned_snapshot_is_immutable_across_delete_and_compact(table):
    table.append(_table(0, 400), options=_opts())
    pinned_id = table.current_snapshot().snapshot_id
    raw_before = {
        f.file_id: table.store.open_data(f.file_id).raw_bytes()
        for f in table.current_snapshot().files
    }
    before = table.read(["id", "score"], snapshot_id=pinned_id)

    table.delete(col("id").between(100, 299))
    table.compact()

    # the pinned snapshot's files were never touched: byte-identical
    for fid, raw in raw_before.items():
        assert table.store.open_data(fid).raw_bytes() == raw
    after = table.read(["id", "score"], snapshot_id=pinned_id)
    assert after.equals(before)
    # while HEAD sees the deletion
    head_ids = np.asarray(table.read(["id"]).column("id"))
    assert len(head_ids) == 200
    assert not ((head_ids >= 100) & (head_ids < 300)).any()


def test_as_of_time_travel():
    clock = FakeClock(start=1_000)
    table = CatalogTable.create(MemoryCatalogStore(), clock=clock)
    clock.now = 2_000
    table.append(_table(0, 100), options=_opts())
    clock.now = 3_000
    table.append(_table(100, 100), options=_opts())
    assert table.as_of(2_500).live_rows == 100
    assert table.as_of(3_000).live_rows == 200
    assert table.as_of(10_000).live_rows == 200
    with pytest.raises(LookupError):
        table.as_of(500)
    got = table.read(["id"], as_of=2_500)
    assert np.array_equal(got.column("id"), np.arange(100))


def test_timestamps_strictly_increase_under_frozen_clock(table):
    for i in range(3):
        table.append(_table(i * 10, 10), options=_opts())
    stamps = [s.timestamp_ms for s in table.history()]
    assert stamps == sorted(stamps)
    assert len(set(stamps)) == len(stamps)


# -- pinned loaders ---------------------------------------------------------

def test_loader_reproducible_at_pinned_snapshot_while_ingest_continues(table):
    table.append(_table(0, 600), options=_opts())
    with table.pin() as pinned:
        loader = pinned.loader(
            ["id"],
            LoaderOptions(batch_size=128, shuffle_row_groups=True, seed=3),
        )
        epoch1 = np.concatenate(
            [np.asarray(b.column("id")) for b in loader]
        )
        # ingest keeps committing between epochs
        table.append(_table(600, 300), options=_opts())
        table.delete(col("id") <= 99)
        epoch2 = np.concatenate(
            [np.asarray(b.column("id")) for b in loader]
        )
    assert np.array_equal(np.sort(epoch1), np.arange(600))
    assert np.array_equal(np.sort(epoch2), np.arange(600))
    # HEAD sees both the ingest and the delete
    assert table.current_snapshot().live_rows == 800


def test_scan_batches_span_file_boundaries(table):
    for i in range(3):
        table.append(_table(i * 100, 100), options=_opts())
    batches = list(table.scan(["id"], batch_size=70))
    assert [b.num_rows for b in batches] == [70, 70, 70, 70, 20]
    assert np.array_equal(
        np.concatenate([np.asarray(b.column("id")) for b in batches]),
        np.arange(300),
    )


def test_released_pin_rejects_reads(table):
    table.append(_table(0, 10), options=_opts())
    pinned = table.pin()
    pinned.release()
    with pytest.raises(RuntimeError):
        pinned.readers()


# -- directory store --------------------------------------------------------

def test_directory_store_roundtrip(tmp_path):
    root = str(tmp_path / "tbl")
    table = CatalogTable.create(DirectoryCatalogStore(root))
    table.append(_table(0, 500), options=_opts())
    table.delete(col("id") <= 99)
    table.compact()
    got = np.asarray(table.read(["id"]).column("id"))
    assert np.array_equal(got, np.arange(100, 500))
    # a second handle over the same directory sees the same log
    reopened = CatalogTable(DirectoryCatalogStore(root))
    assert [s.snapshot_id for s in reopened.history()] == [0, 1, 2, 3]
    assert np.array_equal(
        np.asarray(reopened.read(["id"]).column("id")), got
    )


#: a manifest exactly as the writer before compact manifests emitted it
#: (``json.dumps(doc, indent=1, sort_keys=True)``)
INDENTED_MANIFEST = b"""{
 "files": [
  {
   "byte_size": 551,
   "column_stats": {
    "id": {
     "kind": "int",
     "max": 4.0,
     "min": 0.0
    },
    "score": {
     "kind": "float",
     "max": 1.0,
     "min": 0.0
    }
   },
   "deleted_count": 0,
   "file_id": "f-00000000",
   "row_count": 5,
   "schema_fingerprint": 17188738825430989916
  }
 ],
 "operation": "append",
 "parent_id": 0,
 "snapshot_id": 1,
 "summary": {
  "rows_added": 5
 },
 "timestamp_ms": 1002
}"""


def test_indented_manifest_still_loads():
    snap = Snapshot.from_json(INDENTED_MANIFEST)
    assert (snap.snapshot_id, snap.parent_id, snap.operation) == (1, 0, "append")
    (entry,) = snap.files
    assert entry.file_id == "f-00000000" and entry.row_count == 5
    assert entry.schema_fingerprint == 17188738825430989916
    assert entry.column_stats["score"].max_value == 1.0
    # today's form is the same document without the whitespace
    compact = snap.to_json()
    assert b"\n" not in compact and b": " not in compact
    assert len(compact) < len(INDENTED_MANIFEST)
    assert json.loads(compact) == json.loads(INDENTED_MANIFEST)
    assert Snapshot.from_json(compact) == snap


def test_table_with_indented_manifests_reads_and_commits(tmp_path):
    """A directory whose whole log is in the old form opens, reads and
    takes new commits."""
    root = str(tmp_path / "tbl")
    table = CatalogTable.create(DirectoryCatalogStore(root))
    table.append(_table(0, 500), options=_opts())
    table.delete(col("id") <= 99)
    snapshots = os.path.join(root, "snapshots")
    for name in os.listdir(snapshots):
        path = os.path.join(snapshots, name)
        with open(path, "rb") as fh:
            doc = json.loads(fh.read())
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, indent=1, sort_keys=True))
    reopened = CatalogTable(DirectoryCatalogStore(root))
    assert [s.snapshot_id for s in reopened.history()] == [0, 1, 2]
    reopened.append(_table(500, 10), options=_opts())
    got = np.asarray(reopened.read(["id"]).column("id"))
    assert np.array_equal(got, np.arange(100, 510))


def test_directory_store_reopen_can_append(tmp_path):
    """A fresh handle's file-id counter must skip ids already on disk."""
    root = str(tmp_path / "tbl")
    table = CatalogTable.create(DirectoryCatalogStore(root))
    table.append(_table(0, 100), options=_opts())
    reopened = CatalogTable(DirectoryCatalogStore(root))
    reopened.append(_table(100, 100), options=_opts())
    got = np.sort(np.asarray(reopened.read(["id"]).column("id")))
    assert np.array_equal(got, np.arange(200))


def test_direct_staging_path_commits(table):
    """new_data_file()+add_file() alone is a committable transaction."""
    from repro.core import BullionWriter

    txn = table.transaction()
    file_id, storage = txn.new_data_file()
    BullionWriter(storage, options=_opts()).write(_table(0, 100))
    txn.add_file(storage, file_id)
    snap = txn.commit()
    assert snap.operation == "add-files"
    assert snap.live_rows == 100


def test_directory_store_commit_cas(tmp_path):
    store = DirectoryCatalogStore(str(tmp_path / "tbl"))
    assert store.put_metadata("snap-0000000001.json", b"first")
    assert not store.put_metadata("snap-0000000001.json", b"second")
    assert store.read_metadata("snap-0000000001.json") == b"first"


# -- CLI --------------------------------------------------------------------

def test_inspect_catalog_cli(tmp_path, capsys):
    from repro.tools.inspect import main

    root = str(tmp_path / "tbl")
    table = CatalogTable.create(DirectoryCatalogStore(root))
    table.append(_table(0, 300), options=_opts())
    table.delete(col("id") <= 49)

    assert main(["catalog", "log", root]) == 0
    out = capsys.readouterr().out
    assert "append" in out and "delete" in out and "rows_deleted=50" in out

    assert main(["catalog", "snapshot", root, "2"]) == 0
    out = capsys.readouterr().out
    assert "operation: delete" in out and "250 live" in out

    assert main(["catalog", "files", root]) == 0
    out = capsys.readouterr().out
    assert "data files of snapshot 2" in out
