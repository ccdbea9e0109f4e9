"""Deletes restage manifest entries with deletion vectors; the erase job
scrubs the bytes.

A ``MAYBE`` delete writes a manifest and nothing else. Every read path
— scan, query, loader, rewrite — masks an entry's vector as it masks the
footer's, a commit conflicts when a file's entry changed under it, a
build that cannot apply vectors refuses the snapshot, and the erase job
writes exactly the bytes one copy + §2.1 scrub of the vector writes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import (
    CatalogStore,
    CatalogTable,
    CommitConflict,
    MaintenancePolicy,
    MaintenanceService,
    MemoryCatalogStore,
)
from repro.catalog import snapshot as snapshot_module
from repro.catalog.schema_evolution import CatalogMetadataError
from repro.catalog.snapshot import DataFile, decode_runs, encode_runs
from repro.core import LoaderOptions, Table, WriterOptions, delete_rows
from repro.expr import col
from repro.iosim import SimulatedStorage

from test_fs_seam import COMMIT_STEPS, RecordingDirectory


def _opts():
    return WriterOptions(rows_per_page=16, rows_per_group=64)


def _batch(start, n=200, seed=0):
    rng = np.random.default_rng([seed, start])
    ts = np.arange(start, start + n, dtype=np.int64)
    return Table({
        "ts": ts,
        "user": rng.integers(0, 8, n).astype(np.int64),
        "clicks": rng.integers(-50, 50, n).astype(np.int64),
    })


def _erase_only():
    return MaintenancePolicy(
        compact_deleted_fraction=2.0, rollup_small_file_rows=0,
        writer_options=_opts(),
    )


def _ts(table, **kw):
    return np.sort(np.asarray(table.read(["ts"], **kw).column("ts")))


def test_runs_round_trip():
    for rows in ([], [0], [3, 4, 5, 9], list(range(100)), [0, 2, 4, 99]):
        runs = encode_runs(rows)
        assert decode_runs(runs, 100).tolist() == rows
    assert encode_runs(range(0, 2000)) == (0, 2000)  # a retention cut
    for bad in ((0, 0), (5, 3, 6, 1), (-1, 2), (99, 2), (1, 2, 3)):
        with pytest.raises(ValueError):
            decode_runs(bad, 100)


@st.composite
def _vector_and_victims(draw):
    """A file's vector and the rows a delete adds to it: a retention
    prefix, runs, scattered rows, and runs starting where a vector run
    ends (adjacent), each possibly empty."""
    n = draw(st.integers(1, 400))

    def rows():
        out = set(draw(st.sets(st.integers(0, n - 1), max_size=20)))
        for start, length in draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(1, 60)), max_size=4
        )):
            out.update(range(start, min(n, start + length)))
        return out

    old = set(range(draw(st.integers(0, n)))) if draw(st.booleans()) else set()
    old |= rows()
    new = rows()
    runs = encode_runs(sorted(old))
    for start, length in zip(runs[::2], runs[1::2]):
        if start + length < n and draw(st.booleans()):
            new.update(range(start + length, min(n, start + length + 3)))
    return n, sorted(old), sorted(new)


@given(_vector_and_victims())
@settings(max_examples=300, deadline=None)
def test_with_deleted_merges_runs_as_union1d_merges_rows(case):
    n, old, new = case
    entry = DataFile(
        file_id="f", row_count=n, deleted_count=len(old) + 2, byte_size=1,
        schema_fingerprint=0, deletion_vector=encode_runs(old),
    )
    got = entry.with_deleted(np.asarray(new, dtype=np.int64))
    want = np.union1d(np.asarray(old, dtype=np.int64), new)
    assert got.deletion_vector == encode_runs(want)
    assert decode_runs(got.deletion_vector, n).tolist() == want.tolist()
    assert got.deleted_count == entry.deleted_count + len(want) - len(old)


def test_a_maybe_delete_writes_only_the_manifest():
    fs = RecordingDirectory()
    table = CatalogTable.create(CatalogStore(fs))
    table.append(_batch(0), options=_opts())
    fs.log.clear()
    snap = table.delete(col("user") == 3)
    # the file was opened and closed; no data file was created, written
    # or synced: one manifest commit
    assert [s for s in fs.log if s != ("close", "data")] == COMMIT_STEPS[2:]
    (entry,) = snap.files
    assert entry.deleted_count == len(entry.vector_rows()) > 0
    assert snap.required_features == ("deletion_vectors",)


def test_a_table_that_never_deletes_writes_no_feature():
    table = CatalogTable.create(MemoryCatalogStore())
    table.append(_batch(0), options=_opts())
    table.delete(col("ts") < 0)  # nothing matches: no snapshot
    for snap in table.history():
        raw = table.store.read_metadata(f"snap-{snap.snapshot_id:010d}.json")
        assert b"required_features" not in raw and b"deletion_vector" not in raw


def test_a_build_without_vectors_refuses_a_snapshot_with_one(monkeypatch):
    store = MemoryCatalogStore()
    table = CatalogTable.create(store)
    table.append(_batch(0), options=_opts())
    table.delete(col("user") == 3)
    monkeypatch.setattr(snapshot_module, "KNOWN_FEATURES", frozenset())
    with pytest.raises(CatalogMetadataError, match="deletion_vectors"):
        CatalogTable(store).current_snapshot()
    # once the erase job scrubbed every vector, it reads the table again
    monkeypatch.undo()
    MaintenanceService(table, _erase_only()).run_once()
    monkeypatch.setattr(snapshot_module, "KNOWN_FEATURES", frozenset())
    head = CatalogTable(store).current_snapshot()
    assert head.required_features == () and head.live_rows == 200 - sum(
        1 for u in _batch(0).column("user") if u == 3
    )


def test_two_deletes_of_one_file_from_one_base_conflict():
    table = CatalogTable.create(MemoryCatalogStore())
    table.append(_batch(0), options=_opts())
    first, second = table.transaction(), table.transaction()
    assert first.delete(col("ts") < 10) == 10
    assert second.delete(col("ts") >= 190) == 10
    first.commit()
    with pytest.raises(CommitConflict, match="replaced by a concurrent"):
        second.commit()
    np.testing.assert_array_equal(_ts(table), np.arange(10, 200))


def test_a_rewrite_racing_a_delete_of_its_file_conflicts():
    """Maintenance made its rewrite from the entry before the delete
    added rows to its vector: committing it would bring them back."""
    table = CatalogTable.create(MemoryCatalogStore())
    table.append(_batch(0), options=_opts())
    table.delete(col("ts") < 10)
    file_id = table.current_snapshot().files[0].file_id
    for stage, ts in (
        (lambda t: t.rewrite([file_id]), 100), (lambda t: t.erase([file_id]), 101)
    ):
        txn = table.transaction()
        stage(txn)
        table.delete(col("ts") == ts)
        with pytest.raises(CommitConflict, match="replaced by a concurrent"):
            txn.commit()
    np.testing.assert_array_equal(
        _ts(table), np.setdiff1d(np.arange(10, 200), [100, 101])
    )


def test_rewrites_of_files_with_vectors_resurrect_no_row():
    table = CatalogTable.create(MemoryCatalogStore())
    for k in range(3):
        table.append(_batch(200 * k), options=_opts())
    table.delete(col("ts").isin([5, 6, 250, 599]))
    table.delete(col("ts").between(300, 349))
    want = np.setdiff1d(np.arange(600), [5, 6, 250, 599, *range(300, 350)])
    np.testing.assert_array_equal(_ts(table), want)
    ids = [f.file_id for f in table.current_snapshot().files]
    with table.transaction() as txn:  # roll the first two up
        txn.rewrite(ids[:2], _opts())
        txn.commit()
    np.testing.assert_array_equal(_ts(table), want)
    table.compact(options=_opts())  # and compact the rest
    np.testing.assert_array_equal(_ts(table), want)
    assert all(not f.deletion_vector for f in table.current_snapshot().files)
    assert table.current_snapshot().live_rows == len(want)


def test_the_erase_job_writes_the_bytes_one_scrub_of_the_vector_writes():
    store = MemoryCatalogStore()
    table = CatalogTable.create(store)
    for k in range(3):
        table.append(_batch(200 * k), options=_opts())
    table.delete(col("user") == 2)
    table.delete(col("ts").between(150, 260))  # a second vector on file 0
    head = table.current_snapshot()
    sources = {
        f.file_id: (store.open_data(f.file_id).raw_bytes(), f.vector_rows())
        for f in head.files if f.deletion_vector
    }
    assert len(sources) == 3
    report = MaintenanceService(table, _erase_only()).run_once()
    assert report.files_erased == 3 and not report.skipped
    after = table.current_snapshot()
    assert after.operation == "erase" and after.required_features == ()
    new = [f for f in after.files if f.file_id not in head.file_ids()]
    assert len(new) == 3
    for entry, (raw, rows) in zip(new, sources.values()):
        copy = SimulatedStorage()  # the copy + §2.1 scrub, by hand
        copy.append(raw)
        delete_rows(copy, rows)
        assert store.open_data(entry.file_id).raw_bytes() == copy.raw_bytes()
        assert entry.deleted_count == len(rows) and not entry.deletion_vector
    assert after.live_rows == head.live_rows


def test_maintenance_erases_only_what_it_does_not_rewrite():
    table = CatalogTable.create(MemoryCatalogStore())
    for k in range(4):
        table.append(_batch(200 * k), options=_opts())
    table.delete(col("ts") < 100)  # file 0: half gone, compacted
    table.delete(col("ts").isin([300, 500, 700]))  # files 1-3: erased
    service = MaintenanceService(table, MaintenancePolicy(
        compact_deleted_fraction=0.25, rollup_small_file_rows=0,
        writer_options=_opts(),
    ))
    jobs = service.plan()
    assert [j.kind for j in jobs] == ["compact", "erase", "expire"]
    assert len(jobs[1].file_ids) == 3 and not set(jobs[0].file_ids) & set(
        jobs[1].file_ids
    )
    report = service.run_once()
    assert (report.files_compacted, report.files_erased) == (1, 3)
    assert all(not f.deletion_vector for f in table.current_snapshot().files)
    np.testing.assert_array_equal(
        _ts(table), np.setdiff1d(np.arange(100, 800), [300, 500, 700])
    )


class _Shadow:
    def __init__(self):
        self.rows = {}  # ts -> (user, clicks)

    def put(self, table):
        for ts, user, clicks in zip(
            *(np.asarray(table.column(c)).tolist()
              for c in ("ts", "user", "clicks"))
        ):
            self.rows[ts] = (user, clicks)

    def delete(self, keep):
        self.rows = {t: r for t, r in self.rows.items() if keep(t, *r)}


def _check(table, shadow):
    live = sorted(shadow.rows.items())
    ts = np.array([t for t, _ in live], dtype=np.int64)
    users = np.array([r[0] for _, r in live], dtype=np.int64)
    clicks = np.array([r[1] for _, r in live], dtype=np.int64)
    got = table.read(["ts", "user", "clicks"])
    order = np.argsort(np.asarray(got.column("ts")))
    for name, want in (("ts", ts), ("user", users), ("clicks", clicks)):
        np.testing.assert_array_equal(np.asarray(got.column(name))[order], want)
    row = table.query(
        ["count", "sum(clicks)", "min(clicks)", "max(clicks)"]
    ).rows[0]
    assert row["count(*)"] == len(ts)
    if len(ts):
        assert (row["sum(clicks)"], row["min(clicks)"], row["max(clicks)"]) == (
            clicks.sum(), clicks.min(), clicks.max()
        )
    grouped = table.query(["count", "sum(clicks)"], group_by=["user"]).rows
    assert {r["user"]: (r["count(*)"], r["sum(clicks)"]) for r in grouped} == {
        int(u): (int((users == u).sum()), int(clicks[users == u].sum()))
        for u in np.unique(users)
    }
    filtered = table.query(["count"], where=col("user") == 3).rows[0]
    assert filtered["count(*)"] == int((users == 3).sum())
    with table.pin() as pin:
        loader = pin.loader(["ts"], LoaderOptions(batch_size=64))
        assert loader.num_rows == len(ts)
        epoch = [np.asarray(b.column("ts")) for b in loader]
        got_ts = np.sort(np.concatenate(epoch)) if epoch else ts[:0]
        np.testing.assert_array_equal(got_ts, ts)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_seeded_history_reads_as_its_shadow(seed):
    rng = np.random.default_rng(seed)
    table = CatalogTable.create(MemoryCatalogStore())
    shadow, next_ts = _Shadow(), 0
    service = MaintenanceService(table, MaintenancePolicy(
        rollup_small_file_rows=300, rollup_target_rows=800,
        compact_deleted_fraction=0.4, keep_snapshots=2,
        writer_options=_opts(),
    ))
    for step in range(24):
        op = rng.choice(["append", "delete", "retain", "upsert", "maintain"],
                        p=[0.3, 0.25, 0.15, 0.15, 0.15])
        if op == "append" or not shadow.rows:
            batch = _batch(next_ts, int(rng.integers(50, 250)), seed)
            next_ts += batch.num_rows
            table.append(batch, options=_opts())
            shadow.put(batch)
        elif op == "delete":
            user = int(rng.integers(0, 8))
            table.delete(col("user") == user)
            shadow.delete(lambda t, u, c: u != user)
        elif op == "retain":
            cutoff = int(rng.integers(0, next_ts))
            table.delete(col("ts") < cutoff)
            shadow.delete(lambda t, u, c: t >= cutoff)
        elif op == "upsert":
            keys = np.sort(rng.choice(
                np.array(sorted(shadow.rows)), min(20, len(shadow.rows)),
                replace=False,
            ))
            batch = _batch(0, len(keys), seed + step)
            batch = Table({**batch.columns, "ts": keys.astype(np.int64)})
            table.upsert(batch, "ts", options=_opts())
            shadow.put(batch)
        else:
            report = service.run_once()
            assert not report.skipped, report.skipped
        _check(table, shadow)
    service.run_once()
    _check(table, shadow)
    assert all(not f.deletion_vector for f in table.current_snapshot().files)
