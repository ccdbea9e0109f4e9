"""MaintenanceService: roll-ups, threshold compaction, snapshot GC."""

import numpy as np
import pytest

from repro.catalog import (
    CatalogTable,
    DirectoryCatalogStore,
    MaintenancePolicy,
    MaintenanceService,
    MemoryCatalogStore,
)
from repro.core import Table, WriterOptions
from repro.expr import col


def _table(start, n):
    return Table(
        {
            "id": np.arange(start, start + n, dtype=np.int64),
            "score": np.linspace(0.0, 1.0, n).astype(np.float32),
        }
    )


def _opts():
    return WriterOptions(rows_per_page=64, rows_per_group=256)


def _service(table, **overrides):
    policy = MaintenancePolicy(
        rollup_small_file_rows=1024,
        rollup_target_rows=4096,
        compact_deleted_fraction=0.25,
        keep_snapshots=2,
        writer_options=_opts(),
        **overrides,
    )
    return MaintenanceService(table, policy)


@pytest.fixture
def table():
    return CatalogTable.create(MemoryCatalogStore())


# -- planning ---------------------------------------------------------------

def test_plan_flags_small_files_for_rollup(table):
    for i in range(4):
        table.append(_table(i * 100, 100), options=_opts())
    jobs = _service(table).plan()
    rollups = [j for j in jobs if j.kind == "rollup"]
    assert len(rollups) == 1
    assert len(rollups[0].file_ids) == 4


def test_plan_flags_high_deleted_fraction_for_compaction(table):
    table.append(_table(0, 1000), options=_opts())
    table.delete(col("id") <= 399)  # 40% deleted
    jobs = _service(table).plan()
    kinds = {j.kind for j in jobs}
    assert "compact" in kinds
    compact_job = next(j for j in jobs if j.kind == "compact")
    assert "40%" in compact_job.reason


def test_keep_snapshots_zero_expires_all_but_head(table):
    for i in range(3):
        table.append(_table(i * 100, 100), options=_opts())
    policy = MaintenancePolicy(keep_snapshots=0, writer_options=_opts())
    jobs = MaintenanceService(table, policy).plan()
    expire = next(j for j in jobs if j.kind == "expire")
    assert set(expire.snapshot_ids) == {0, 1, 2}  # HEAD (3) survives


def test_plan_respects_compaction_threshold(table):
    table.append(_table(0, 1000), options=_opts())
    table.delete(col("id") <= 99)  # only 10% deleted
    jobs = _service(table).plan()
    assert not [j for j in jobs if j.kind == "compact"]


# -- execution --------------------------------------------------------------

def test_rollup_merges_small_files_and_preserves_rows(table):
    for i in range(5):
        table.append(_table(i * 200, 200), options=_opts())
    before = np.sort(np.asarray(table.read(["id"]).column("id")))
    report = _service(table).run_once()
    assert report.files_merged == 5
    head = table.current_snapshot()
    assert len(head.files) == 1
    assert head.operation == "rollup"
    after = np.sort(np.asarray(table.read(["id"]).column("id")))
    assert np.array_equal(before, after)


def test_compaction_reclaims_bytes_after_deletes(table):
    table.append(_table(0, 2000), options=_opts())
    bytes_before = table.current_snapshot().total_bytes
    table.delete(col("id") <= 999)
    report = _service(table).run_once()
    assert report.files_compacted == 1
    assert report.bytes_reclaimed > 0
    head = table.current_snapshot()
    assert head.total_bytes < bytes_before
    assert head.files[0].deleted_count == 0
    got = np.asarray(table.read(["id"]).column("id"))
    assert np.array_equal(got, np.arange(1000, 2000))


def test_expire_drops_old_snapshots_and_orphan_files(table):
    for i in range(5):
        table.append(_table(i * 100, 100), options=_opts())
    table.delete(col("id") <= 49)
    svc = _service(table)
    report = svc.run_once()
    assert report.snapshots_expired > 0
    retained = [s.snapshot_id for s in table.history()]
    assert len(retained) <= 2 + report.jobs_run  # maintenance commits add ids
    # every surviving data file is referenced by a retained snapshot
    referenced = set()
    for snap in table.history():
        referenced |= snap.file_ids()
    assert set(table.store.list_data()) <= referenced | table.pinned_file_ids()


def test_gc_refuses_files_held_by_pinned_reader(table):
    table.append(_table(0, 500), options=_opts())
    pinned = table.pin()  # pin the pre-maintenance snapshot
    pinned_files = pinned.snapshot.file_ids()
    table.delete(col("id") <= 249)
    table.compact()
    for i in range(3):
        table.append(_table(1000 + i * 10, 10), options=_opts())

    svc = _service(table, snapshot_ttl_ms=None)
    svc.run_once()
    # the pinned snapshot's metadata and data files survived
    assert pinned.snapshot.snapshot_id in [
        s.snapshot_id for s in table.history()
    ]
    assert pinned_files <= set(table.store.list_data())
    got = np.asarray(pinned.read(["id"]).column("id"))
    assert np.array_equal(got, np.arange(500))

    pinned.release()
    svc.run_once()
    remaining = [s.snapshot_id for s in table.history()]
    assert pinned.snapshot.snapshot_id not in remaining
    assert not (pinned_files & set(table.store.list_data()))


def test_gc_grace_period_spares_young_orphans(table):
    """gc_grace_ms protects files staged by writers in other processes
    (invisible to this handle's in-flight set): young orphans survive."""
    for i in range(5):
        table.append(_table(i * 100, 100), options=_opts())
    orphan = table.store.new_file_id()
    table.store.create_data(orphan)  # as if staged elsewhere
    _service(table, gc_grace_ms=10 * 60 * 1000).run_once()
    assert orphan in table.store.list_data()
    _service(table).run_once()  # no grace: orphan is collected
    assert orphan not in table.store.list_data()


def test_gc_spares_files_staged_by_open_transactions(table):
    table.append(_table(0, 100), options=_opts())
    txn = table.transaction()
    txn.append(_table(100, 100), options=_opts())
    staged = set(txn._staged_ids)
    _service(table).run_once()
    assert staged <= set(table.store.list_data())
    txn.commit()
    assert table.current_snapshot().live_rows == 200


def test_maintenance_runs_on_directory_store(tmp_path):
    table = CatalogTable.create(
        DirectoryCatalogStore(str(tmp_path / "tbl"))
    )
    for i in range(4):
        table.append(_table(i * 250, 250), options=_opts())
    table.delete(col("id").between(500, 999))
    report = _service(table).run_once()
    assert report.jobs_run > 0
    assert report.bytes_reclaimed > 0
    got = np.sort(np.asarray(table.read(["id"]).column("id")))
    assert np.array_equal(got, np.arange(500))


def test_background_service_start_stop(table):
    for i in range(3):
        table.append(_table(i * 100, 100), options=_opts())
    svc = _service(table)
    svc.start(interval_s=0.01)
    try:
        deadline = 200
        while svc.cycles == 0 and deadline:
            deadline -= 1
            import time

            time.sleep(0.01)
    finally:
        svc.stop()
    assert svc.cycles > 0
    assert svc.last_report is not None
    # a second start after stop is allowed
    svc.start(interval_s=0.01)
    svc.stop()


def test_every_compaction_path_writes_the_same_bytes(table):
    """Maintenance, ``Transaction.compact``, core ``compact`` and a
    one-file ``merge`` are one rewrite loop: the same file in, the same
    bytes out."""
    from repro.core.compact import compact, merge
    from repro.iosim import SimulatedStorage

    other = CatalogTable.create(MemoryCatalogStore())
    for t in (table, other):
        t.append(_table(0, 2000), options=_opts())
        t.delete(col("id") <= 999)
    source = table.store.open_data(table.current_snapshot().files[0].file_id)

    assert _service(table).run_once().files_compacted == 1
    other.compact(options=_opts())
    outputs = [
        t.store.open_data(t.current_snapshot().files[0].file_id).raw_bytes()
        for t in (table, other)
    ]
    for rewrite_file in (compact, lambda src, dst, o: merge([src], dst, o)):
        target = SimulatedStorage()
        rewrite_file(source, target, _opts())
        outputs.append(target.raw_bytes())
    assert all(out == outputs[0] for out in outputs[1:])
    got = np.asarray(table.read(["id"]).column("id"))
    assert np.array_equal(got, np.arange(1000, 2000))


def test_generalized_compact_and_merge_accept_file_storage(tmp_path):
    """Satellite: core compact()/merge() run on FileStorage backends."""
    from repro.core import BullionReader, BullionWriter, delete_rows
    from repro.core.compact import compact, merge
    from repro.iosim import FileStorage

    src = FileStorage(str(tmp_path / "src.bullion"))
    BullionWriter(src, options=_opts()).write(_table(0, 500))
    delete_rows(src, range(0, 100))
    dst = FileStorage(str(tmp_path / "dst.bullion"))
    report = compact(src, dst)
    assert report.rows_out == 400
    assert report.bytes_reclaimed > 0
    assert np.array_equal(
        np.asarray(BullionReader(dst).read_column("id")),
        np.arange(100, 500),
    )

    parts = []
    for i in range(2):
        part = FileStorage(str(tmp_path / f"part{i}.bullion"))
        BullionWriter(part, options=_opts()).write(_table(i * 50, 50))
        parts.append(part)
    merged = FileStorage(str(tmp_path / "merged.bullion"))
    merge(parts, merged)
    assert np.array_equal(
        np.asarray(BullionReader(merged).read_column("id")),
        np.arange(100),
    )
