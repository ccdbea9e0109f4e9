"""`Transaction.delete` acts on the tri-state verdict: what each verdict
costs in storage operations, and what happens to a dropped file after.
"""

import numpy as np
import pytest

from repro.catalog import (
    AddColumn,
    CatalogTable,
    CommitConflict,
    DirectoryCatalogStore,
    MaintenancePolicy,
    MaintenanceService,
    MemoryCatalogStore,
)
from repro.core import Table, WriterOptions
from repro.expr import VectorEvalError, col, evaluate


class LedgerStore(MemoryCatalogStore):
    """Counts what a mutation did to storage since the last `reset`."""

    def __init__(self):
        super().__init__()
        self.reset()

    def reset(self):
        self.opened = []
        self.created = []
        self.puts = []

    def open_data(self, file_id):
        self.opened.append(file_id)
        return super().open_data(file_id)

    def create_data(self, file_id):
        self.created.append(file_id)
        return super().create_data(file_id)

    def put_metadata(self, name, data):
        ok = super().put_metadata(name, data)
        if ok:
            self.puts.append(name)
        return ok

    def data_bytes_written(self):
        return sum(
            super(LedgerStore, self).open_data(fid).stats.bytes_written
            for fid in self.list_data()
        )


def _batch(start, n=100):
    ts = np.arange(start, start + n, dtype=np.int64)
    return Table({
        "ts": ts,
        "user": ts % 7,
        "score": (ts % 10).astype(np.float64),
    })


def _opts():
    return WriterOptions(rows_per_page=16, rows_per_group=32)


@pytest.fixture
def store():
    return LedgerStore()


@pytest.fixture
def table(store):
    t = CatalogTable.create(store)
    for k in range(4):  # ts 0..99, 100..199, 200..299, 300..399
        t.append(_batch(100 * k), options=_opts())
    store.reset()
    return t


def _ts(table, **kw):
    return np.sort(np.asarray(table.read(["ts"], **kw).column("ts")))


# -- (a) what each verdict costs -----------------------------------------

def test_always_delete_is_one_manifest_put(table, store):
    before = table.current_snapshot()
    written = store.data_bytes_written()
    snap = table.delete(col("ts") < 200)  # files 0 and 1, whole
    assert store.opened == [] and store.created == []
    assert store.data_bytes_written() == written
    assert store.puts == [f"snap-{snap.snapshot_id:010d}.json"]
    assert snap.operation == "delete"
    assert snap.summary == {"rows_deleted": 200, "files_dropped": 2}
    assert [f.file_id for f in snap.files] == [
        f.file_id for f in before.files[2:]
    ]
    np.testing.assert_array_equal(_ts(table), np.arange(200, 400))


def _erase(table):
    """One maintenance cycle that only erases deletion vectors."""
    return MaintenanceService(table, MaintenancePolicy(
        compact_deleted_fraction=2.0, rollup_small_file_rows=0,
    )).run_once()


def test_maybe_delete_copies_exactly_its_victims(table, store):
    before = table.current_snapshot()
    # file 0 whole (ALWAYS), file 1 cut at 150 (MAYBE), files 2-3 NEVER
    snap = table.delete(col("ts") < 150)
    victim = before.files[1].file_id
    assert store.opened == [victim]
    assert store.created == []  # the victims are the entry's vector
    assert snap.summary == {"rows_deleted": 150, "files_dropped": 1}
    kept = {f.file_id for f in snap.files}
    assert before.files[0].file_id not in kept and victim in kept
    (entry,) = [f for f in snap.files if f.file_id == victim]
    assert (entry.row_count, entry.deleted_count) == (100, 50)
    assert entry.deletion_vector == (0, 50)
    np.testing.assert_array_equal(_ts(table), np.arange(150, 400))
    # the erase job copies exactly the victims' file, scrubbed
    store.reset()
    assert _erase(table).files_erased == 1
    assert store.opened[0] == victim and len(store.created) == 1
    (copy,) = [
        f for f in table.current_snapshot().files
        if f.file_id == store.created[0]
    ]
    assert (copy.row_count, copy.deleted_count) == (100, 50)
    assert copy.deletion_vector == ()
    np.testing.assert_array_equal(_ts(table), np.arange(150, 400))


def test_maybe_file_row_groups_follow_the_footer_verdict(table, store):
    # groups of file 1 hold ts 100-131, 132-163, 164-195, 196-199; the
    # filter takes group 0 whole (ALWAYS: not decoded), cuts group 1
    # (MAYBE) and cannot reach groups 2-3 (NEVER). A filter column that
    # decodes is a chunk fetch: count them through the opened storage.
    victim = table.current_snapshot().files[1].file_id
    storage = MemoryCatalogStore.open_data(store, victim)
    storage.stats.reset()
    snap = table.delete((col("ts") >= 100) & (col("ts") < 140))
    assert store.opened == [victim]
    assert snap.summary == {"rows_deleted": 40}  # nothing dropped
    # the footer and group 1's ts chunk — and no read for group 0
    assert storage.stats.reads == 2
    np.testing.assert_array_equal(
        _ts(table), np.r_[np.arange(0, 100), np.arange(140, 400)]
    )
    # the whole-file copy is the erase job's: one read
    storage.stats.reset()
    _erase(table)
    assert storage.stats.reads == 1
    np.testing.assert_array_equal(
        _ts(table), np.r_[np.arange(0, 100), np.arange(140, 400)]
    )


def test_upsert_whose_keys_miss_every_key_range_opens_nothing(table, store):
    keys = np.arange(1000, 1050, dtype=np.int64)
    batch = Table({
        "ts": keys, "user": keys % 7, "score": np.zeros(50),
    })
    snap = table.upsert(batch, "ts", options=_opts())
    assert store.opened == []
    assert len(store.created) == 1  # the batch itself
    assert snap.summary == {"rows_upserted": 50, "rows_replaced": 0}
    assert len(_ts(table)) == 450


def test_upsert_opens_only_files_holding_a_key(table, store):
    before = table.current_snapshot()
    keys = np.array([105, 310, 350], dtype=np.int64)  # files 1 and 3
    batch = Table({
        "ts": keys, "user": keys % 7, "score": np.full(3, -1.0),
    })
    snap = table.upsert(batch, "ts", options=_opts())
    assert sorted(store.opened) == sorted(
        [before.files[1].file_id, before.files[3].file_id]
    )
    assert snap.summary == {"rows_upserted": 3, "rows_replaced": 3}
    got = table.read(["ts", "score"])
    assert len(got.column("ts")) == 400
    scores = dict(zip(got.column("ts").tolist(), got.column("score").tolist()))
    assert [scores[k] for k in keys.tolist()] == [-1.0] * 3


def test_upsert_is_one_snapshot_where_delete_then_append_is_two(table):
    keys = np.array([105, 310], dtype=np.int64)
    batch = Table({"ts": keys, "user": keys % 7, "score": np.full(2, -1.0)})
    other = CatalogTable.create(MemoryCatalogStore())
    for k in range(4):
        other.append(_batch(100 * k), options=_opts())
    head = table.current_snapshot().snapshot_id
    assert table.upsert(batch, "ts", options=_opts()).snapshot_id == head + 1
    other.delete(col("ts").isin(keys.tolist()))
    # the window an upsert never opens: old rows gone, new ones missing
    assert other.current_snapshot().live_rows == 398
    assert other.append(batch, options=_opts()).snapshot_id == head + 2
    for t in (table, other):
        got = t.read(["ts", "score"])
        order = np.argsort(np.asarray(got.column("ts")))
        scores = np.asarray(got.column("score"))[order]
        np.testing.assert_array_equal(
            np.asarray(got.column("ts"))[order], np.arange(400)
        )
        assert list(scores[keys]) == [-1.0, -1.0]


def test_no_match_stages_nothing(table, store):
    head = table.current_snapshot().snapshot_id
    assert table.delete(col("ts") >= 1000).snapshot_id == head
    assert store.opened == [] and store.puts == []
    txn = table.transaction()
    assert txn.delete(col("ts") >= 1000) == 0
    with pytest.raises(ValueError, match="nothing staged"):
        txn.commit()
    txn.abort()


def test_fully_dead_file_is_left_to_compaction(table, store):
    # score stats cannot rule out NaN, so this is the MAYBE route
    table.delete((col("ts") < 100) & (col("score") >= 0.0))
    dead = [f for f in table.current_snapshot().files if f.live_rows == 0]
    assert len(dead) == 1
    store.reset()
    head = table.current_snapshot().snapshot_id
    # its stats still say ALWAYS, but no live row is left to delete
    assert table.delete(col("ts") < 100).snapshot_id == head
    assert store.opened == [] and store.puts == []


def test_always_needs_every_column_to_be_known(table, store):
    # the ts arm alone proves the OR; the typo'd arm must still raise,
    # as it does for scan(where=...), rather than drop files quietly
    head = table.current_snapshot().snapshot_id
    with pytest.raises(KeyError):
        table.delete((col("ts") >= 0) | (col("usr") == 3))
    assert table.current_snapshot().snapshot_id == head
    assert store.created == []
    # an evolved table answers from its schema log, without opening
    table.evolve(AddColumn("extra", "int64"))
    store.reset()
    with pytest.raises(KeyError):
        table.delete((col("ts") >= 0) | (col("usr") == 3))
    assert store.opened == []


def _score_table(dtype):
    """Two files of a narrow float ``score``: one constant at
    dtype(0.1) — its statistics decide every predicate alone — and one
    that mixes it with other values, which has to be read."""
    tenth = dtype(0.1)
    t = CatalogTable.create(LedgerStore())
    ts = np.arange(64, dtype=np.int64)
    t.append(Table({"ts": ts, "score": np.full(64, tenth, dtype=dtype)}),
             options=_opts())
    mixed = np.where(ts % 3 == 0, tenth, (ts % 5).astype(dtype) / dtype(4))
    mixed[7] = np.nan
    t.append(Table({"ts": ts + 64, "score": mixed.astype(dtype)}),
             options=_opts())
    return t


@pytest.mark.parametrize("dtype", [np.float32, np.float16],
                         ids=lambda d: d.__name__)
@pytest.mark.parametrize("where", [
    col("score") != 0.1,
    ~(col("score") <= 0.1),
    ~col("score").isin([0.1]),
    col("score") == 0.1,
    col("score") > 0.1,
    ~(col("score") > 0.1),
    col("score").isin([0.1, 0.5]),
], ids=repr)
def test_float_literal_deletes_do_not_depend_on_the_layout(dtype, where):
    # 0.1 is a literal neither dtype can hold. The statistics (exact
    # float64 images) and the row evaluator must give it one meaning,
    # or the constant file — decided by statistics, dropped unread —
    # and the mixed file — decided row by row — delete differently.
    t = _score_table(dtype)
    everything = t.read(["ts", "score"])
    ts, score = everything.column("ts"), everything.column("score")
    want = evaluate(where, {"score": score})
    # as real numbers: dtype(0.1) is not 0.1 (float32 rounds it up,
    # float16 down)
    tenth = score == dtype(0.1)
    if where == (col("score") != 0.1):
        assert want.all()
    if where == (col("score") == 0.1):
        assert not want.any()
    if where == (col("score") > 0.1):
        assert (want[tenth] == (float(dtype(0.1)) > 0.1)).all()
    np.testing.assert_array_equal(
        np.sort(t.read(["ts"], where=where).column("ts")), ts[want]
    )
    before = t.current_snapshot()
    snap = t.delete(where)
    if want.any():
        assert snap.summary["rows_deleted"] == int(want.sum())
    else:
        assert snap.snapshot_id == before.snapshot_id
    np.testing.assert_array_equal(_ts(t), ts[~want])


def test_type_errors_surface_where_rows_are_evaluated(store):
    # a number against a string column cannot be evaluated; the error
    # comes from the row evaluator, so an extent the statistics decide
    # alone — pruned, or now dropped — does not raise it
    t = CatalogTable.create(store)
    for k in range(2):
        ts = np.arange(100 * k, 100 * k + 100, dtype=np.int64)
        t.append(Table({"ts": ts, "tag": [b"t%d" % (v % 3) for v in ts]}),
                 options=_opts())
    bad = col("tag") == 5
    head = t.current_snapshot().snapshot_id
    # file 1 straddles ts 150: it is read, and the delete raises whole
    with pytest.raises(VectorEvalError, match="string column"):
        t.delete((col("ts") < 150) | bad)
    assert t.current_snapshot().snapshot_id == head
    # the ts arm proves every group of file 0 and clears file 1 on
    # its own (file 0 is opened all the same: "tag" has no statistics,
    # so the manifest cannot vouch for the column)
    snap = t.delete((col("ts") < 100) | ((col("ts") < 0) & bad))
    assert snap.summary == {"rows_deleted": 100}
    np.testing.assert_array_equal(_ts(t), np.arange(100, 200))


def test_append_then_delete_in_one_transaction_drops_the_staged_file(
    table, store
):
    txn = table.transaction()
    entry = txn.append(_batch(400), options=_opts())
    assert txn.delete(col("ts") >= 400) == 100
    snap = txn.commit()
    assert entry.file_id not in snap.file_ids()
    assert entry.file_id not in table.store.list_data()  # swept at commit
    np.testing.assert_array_equal(_ts(table), np.arange(0, 400))


# -- (c) lifecycle of a dropped file --------------------------------------

def test_pinned_reader_keeps_a_dropped_file_until_its_snapshot_expires(
    table, store
):
    dropped = table.current_snapshot().files[0].file_id
    maintenance = MaintenanceService(
        table,
        MaintenancePolicy(
            keep_snapshots=0,
            compact_deleted_fraction=2.0,
            rollup_small_file_rows=0,
        ),
    )
    with table.pin() as pinned:
        table.delete(col("ts") < 100)
        assert dropped not in table.current_snapshot().file_ids()
        np.testing.assert_array_equal(_ts(table), np.arange(100, 400))
        # the pin still reads the dropped file's rows ...
        got = np.sort(np.asarray(pinned.read(["ts"]).column("ts")))
        np.testing.assert_array_equal(got, np.arange(0, 400))
        # ... and GC leaves the file alone while the snapshot is pinned
        maintenance.run_once()
        assert dropped in table.store.list_data()
        got = np.sort(np.asarray(pinned.read(["ts"]).column("ts")))
        np.testing.assert_array_equal(got, np.arange(0, 400))
    # released: the pre-delete snapshot expires and the bytes go
    report = maintenance.run_once()
    assert dropped not in table.store.list_data()
    assert report.data_files_deleted >= 1
    np.testing.assert_array_equal(_ts(table), np.arange(100, 400))


def test_dropped_file_survives_while_a_retained_snapshot_names_it(table):
    dropped = table.current_snapshot().files[0].file_id
    before = table.current_snapshot().snapshot_id
    table.delete(col("ts") < 100)
    maintenance = MaintenanceService(
        table,
        MaintenancePolicy(
            keep_snapshots=10,
            compact_deleted_fraction=2.0,
            rollup_small_file_rows=0,
        ),
    )
    maintenance.run_once()
    assert dropped in table.store.list_data()
    np.testing.assert_array_equal(
        _ts(table, snapshot_id=before), np.arange(0, 400)
    )


def test_append_racing_an_always_delete_aborts_it(table, store):
    txn = table.transaction()
    assert txn.delete(col("ts") < 100) == 100
    table.append(_batch(50, 10), options=_opts())  # rows the delete never saw
    with pytest.raises(CommitConflict, match="added concurrently"):
        txn.commit()
    assert len(_ts(table)) == 410  # nothing was dropped


def test_compaction_racing_an_always_delete_aborts_it(table):
    table.delete((col("ts") < 10) & (col("score") >= 0.0))  # file 0 scrubbed
    txn = table.transaction()
    assert txn.delete(col("ts") < 100) == 90
    table.compact()  # replaces the file the delete means to drop
    with pytest.raises(CommitConflict, match="replaced by a concurrent"):
        txn.commit()
    np.testing.assert_array_equal(_ts(table), np.arange(10, 400))


# -- tentpole (3): a drop must not orphan the schema of a legacy table ----

def test_emptying_a_table_without_schema_log_keeps_its_last_file(store):
    # the choice: the last file of a never-evolved table takes a
    # deletion vector of every row instead of being dropped, so the
    # table keeps a footer to bootstrap evolve() from and to check
    # appends against. Recording version 0 at the drop would turn a
    # delete into a schema-log migration of the table (every later
    # manifest and append changes shape); one kept file in a rare case
    # does not.
    t = CatalogTable.create(store)
    for k in range(3):
        t.append(_batch(100 * k), options=_opts())
    store.reset()
    snap = t.delete(col("ts") >= 0)
    assert snap.summary == {"rows_deleted": 300, "files_dropped": 2}
    assert len(store.opened) == 1 and len(store.created) == 0
    assert [(f.row_count, f.live_rows) for f in snap.files] == [(100, 0)]
    assert len(_ts(t)) == 0
    _erase(t)  # the scrubbed copy is the erase job's, and it stays
    assert len(store.created) == 1
    assert [
        (f.row_count, f.live_rows) for f in t.current_snapshot().files
    ] == [(100, 0)]
    assert len(_ts(t)) == 0
    # append still checks the layout against the table's ...
    with pytest.raises(ValueError, match="fingerprint"):
        t.append(Table({"other": np.arange(3, dtype=np.int64)}))
    # ... and evolve() still finds version 0
    t.evolve(AddColumn("extra", "int64"))
    schema = t.current_schema()
    assert schema.names() == ["ts", "user", "score", "extra"]
    batch = _batch(900, 5)
    t.append(Table({**batch.columns, "extra": np.arange(5, dtype=np.int64)}))
    np.testing.assert_array_equal(_ts(t), np.arange(900, 905))


def test_emptying_an_evolved_table_drops_every_file(store):
    t = CatalogTable.create(store)
    t.append(_batch(0), options=_opts())
    t.evolve(AddColumn("extra", "int64"))
    store.reset()
    snap = t.delete(col("ts") >= 0)
    assert store.opened == [] and store.created == []
    assert snap.files == () and snap.summary["files_dropped"] == 1
    assert t.current_schema().names() == ["ts", "user", "score", "extra"]
    batch = _batch(900, 5)
    t.append(Table({**batch.columns, "extra": np.arange(5, dtype=np.int64)}))
    np.testing.assert_array_equal(_ts(t), np.arange(900, 905))


# -- real files: the drop leaves no data-directory trace ------------------

def test_directory_store_always_delete_touches_no_data_file(tmp_path):
    store = DirectoryCatalogStore(str(tmp_path / "t"))
    t = CatalogTable.create(store)
    for k in range(3):
        t.append(_batch(100 * k), options=_opts())
    data_dir = tmp_path / "t" / "data"
    before = {p.name: p.stat().st_mtime_ns for p in data_dir.iterdir()}
    snap = t.delete(col("ts") < 200)
    assert {p.name: p.stat().st_mtime_ns for p in data_dir.iterdir()} == before
    assert snap.summary == {"rows_deleted": 200, "files_dropped": 2}
    reopened = CatalogTable(DirectoryCatalogStore(str(tmp_path / "t")))
    np.testing.assert_array_equal(_ts(reopened), np.arange(200, 300))
