"""Instrumentation wiring tests: every layer publishes to the default
registry, and the global view reconciles *exactly* with per-call stats.

All assertions use snapshot/delta against the process-wide registry, so
they compose with whatever other tests ran in the same process.
"""

import json

import numpy as np
import pytest

from repro.catalog import CatalogTable, MemoryCatalogStore
from repro.catalog.maintenance import (
    MaintenanceJob,
    MaintenancePolicy,
    MaintenanceReport,
    MaintenanceService,
)
from repro.core import (
    BullionReader,
    BullionWriter,
    Table,
    WriterOptions,
)
from repro.catalog import CatalogStats
from repro.core.chunk_cache import TieredChunkCache, TierStats
from repro.core.reader import ScanStats
from repro.core.writer import WriterStats
from repro.expr import col
from repro.iosim import InstrumentedStorage, IOStats, SimulatedStorage
from repro.obs import metrics as obs_metrics, trace as obs_trace
from repro.obs.families import STANDARD_FAMILIES
from repro.query import QueryStats, aggregate_reader

REG = obs_metrics.default_registry()

#: every per-call stats class; each derives from ``Counters``
STATS_CLASSES = (
    ScanStats,
    QueryStats,
    WriterStats,
    TierStats,
    IOStats,
    CatalogStats,
    MaintenanceReport,
)


def _assert_reconciles(delta, stats_objects):
    """Registry delta == summed per-call value, for every declared
    family child of ``type(stats_objects[0])``."""
    cls = type(stats_objects[0])
    assert cls.families, f"{cls.__name__} declares no families"
    for fld, (fam, labels) in cls.families.items():
        expected = sum(getattr(s, fld) for s in stats_objects)
        got = delta.value(fam.name, **labels)
        assert got == expected, (
            f"{cls.__name__}.{fld} -> {fam.name}{labels}: "
            f"registry {got} != per-call {expected}"
        )


@pytest.fixture(autouse=True)
def _obs_state():
    """Metrics on, tracing off, restored afterwards."""
    was_enabled = obs_metrics.enabled()
    was_tracing = obs_trace.enabled()
    obs_metrics.set_enabled(True)
    obs_trace.disable()
    yield
    obs_metrics.set_enabled(was_enabled)
    if was_tracing:
        obs_trace.enable()
    else:
        obs_trace.disable()


def _write_file(storage, n_rows=400, rows_per_group=100):
    writer = BullionWriter(
        storage,
        options=WriterOptions(
            rows_per_page=rows_per_group // 2, rows_per_group=rows_per_group
        ),
    )
    writer.open()
    writer.write_batch(
        Table({
            "x": np.arange(n_rows, dtype=np.int64),
            "y": np.arange(n_rows, dtype=np.float64) * 0.5,
        })
    )
    writer.finish()
    return writer


# ---------------------------------------------------------------------------
# storage + reader + writer layers
# ---------------------------------------------------------------------------

class TestInstrumentedStorage:
    def test_write_and_read_ops_counted(self):
        st = InstrumentedStorage(SimulatedStorage("obs-st"))
        assert st.backend == "memory"
        before = REG.snapshot()
        st.append(b"a" * 100)
        st.append(b"b" * 28)
        st.pread(0, 64)
        st.pread(64, 64)
        st.pread(100, 28)
        st.sync()  # SimulatedStorage has no sync: must be a silent no-op
        d = REG.delta(before)
        assert d.value("storage_write_ops_total", backend="memory") == 2
        assert d.value("storage_write_bytes_total", backend="memory") == 128
        assert d.value("storage_read_ops_total", backend="memory") == 3
        assert d.value("storage_read_bytes_total", backend="memory") == 156
        assert d.value("storage_read_seconds", backend="memory") == 3
        assert d.value("storage_io_bytes", backend="memory", op="read") == 3
        assert d.value("storage_io_bytes", backend="memory", op="write") == 2
        assert d.value("storage_sync_ops_total", backend="memory") == 0

    def test_disabled_switch_stops_publication(self):
        st = InstrumentedStorage(SimulatedStorage("obs-off"))
        st.append(b"x" * 10)
        before = REG.snapshot()
        obs_metrics.set_enabled(False)
        st.pread(0, 10)
        st.append(b"y")
        obs_metrics.set_enabled(True)
        d = REG.delta(before)
        assert d.value("storage_read_ops_total", backend="memory") == 0
        assert d.value("storage_write_ops_total", backend="memory") == 0
        # the inner backend's own accounting is unaffected by the switch
        assert st.stats.reads == 1

    def test_full_file_roundtrip_through_wrapper(self):
        st = InstrumentedStorage(SimulatedStorage("obs-rt"))
        before = REG.snapshot()
        _write_file(st, n_rows=200, rows_per_group=100)
        total = sum(
            b.num_rows for b in BullionReader(st).scan(["x", "y"])
        )
        assert total == 200
        d = REG.delta(before)
        assert d.value("storage_write_ops_total", backend="memory") > 0
        assert d.value("storage_read_ops_total", backend="memory") > 0
        written = d.value("storage_write_bytes_total", backend="memory")
        assert written == st.size  # append-only file: bytes == size


class TestReaderInstrumentation:
    def test_cache_hits_misses_and_chunk_latency(self):
        storage = SimulatedStorage("obs-cache")
        _write_file(storage, n_rows=200, rows_per_group=100)
        reader = BullionReader(storage)
        before = REG.snapshot()
        reader.project(["x"])  # 2 groups -> 2 cold fetches
        reader.project(["x"])  # same chunks -> 2 cache hits
        d = REG.delta(before)
        assert d.value("cache_tier_misses_total") == 2
        assert d.value("cache_tier_hits_total", tier="memory") == 2
        assert d.value("scan_chunk_fetch_seconds", backend="memory") == 2

    def test_cache_evictions_counted(self):
        storage = SimulatedStorage("obs-evict")
        _write_file(storage, n_rows=400, rows_per_group=100)
        reader = BullionReader(storage, chunk_cache_size=2)
        before = REG.snapshot()
        reader.project(["x", "y"])  # 8 chunks through a 2-slot LRU
        d = REG.delta(before)
        assert d.value("cache_tier_evictions_total", tier="memory") == 6
        assert reader.chunk_cache.stats.memory_evictions == 6

    def test_reader_open_counted(self):
        storage = SimulatedStorage("obs-open")
        _write_file(storage, n_rows=100, rows_per_group=100)
        before = REG.snapshot()
        BullionReader(storage)
        BullionReader(storage)
        assert REG.delta(before).value("scan_files_opened_total") == 2


class TestWriterInstrumentation:
    def test_flush_and_encode_timings_and_counts(self):
        before = REG.snapshot()
        writer = _write_file(
            SimulatedStorage("obs-writer"), n_rows=300, rows_per_group=100
        )
        d = REG.delta(before)
        assert d.value("writer_groups_flushed_total") == 3
        _assert_reconciles(d, [writer.stats])
        assert (
            d.value("writer_pages_written_total") == writer.stats.pages_written
        )
        assert d.value("writer_flush_seconds") == 3  # one obs per flush
        # one observation per column chunk (3 groups x 2 columns), each
        # covering both of the chunk's pages
        assert d.value("writer_encode_seconds") == 6
        assert writer.stats.pages_written == 12
        assert d.sum("writer_flush_seconds") >= d.sum("writer_encode_seconds")


# ---------------------------------------------------------------------------
# per-call stats publish through their declared families
# ---------------------------------------------------------------------------

class TestStatsMirrors:
    def test_scan_stats_bump_publishes_once(self):
        before = REG.snapshot()
        stats = ScanStats()
        stats.bump(rows_scanned=10, groups_scanned=1)
        stats.bump(rows_scanned=5)
        d = REG.delta(before)
        assert stats.rows_scanned == 15
        assert d.value("scan_rows_scanned_total") == 15
        assert d.value("scan_groups_scanned_total") == 1

    def test_unmirrored_stats_stay_out_of_the_registry(self):
        before = REG.snapshot()
        stats = ScanStats.unmirrored()
        stats.bump(rows_scanned=1000, files_scanned=3)
        d = REG.delta(before)
        assert stats.rows_scanned == 1000
        assert d.value("scan_rows_scanned_total") == 0
        assert d.value("scan_files_scanned_total") == 0

    def test_disabled_switch_keeps_per_call_stats(self):
        before = REG.snapshot()
        obs_metrics.set_enabled(False)
        stats = ScanStats()
        stats.bump(rows_scanned=7)
        obs_metrics.set_enabled(True)
        assert stats.rows_scanned == 7
        assert REG.delta(before).value("scan_rows_scanned_total") == 0

    def test_every_declared_family_is_standard(self):
        for cls in STATS_CLASSES:
            for fld, (fam, labels) in cls.families.items():
                assert fam.name in STANDARD_FAMILIES, (cls, fld)
                assert fam.kind == "counter", (cls, fld)
                assert tuple(labels) == fam.label_names, (cls, fld)
        # both layers that publish their own series declare none
        assert IOStats.families == {} and CatalogStats.families == {}

    def test_merge_publishes_nothing(self):
        a, b = QueryStats(), QueryStats()
        b.bump(files_total=2, groups_decoded=3)
        b.scan.bump(chunks_fetched=5, rows_scanned=7)
        before = REG.snapshot()
        a.merge(b)
        a.merge(b)
        d = REG.delta(before)
        assert (a.files_total, a.groups_decoded) == (4, 6)
        assert (a.scan.chunks_fetched, a.scan.rows_scanned) == (10, 14)
        for cls in (QueryStats, ScanStats):
            for fam, labels in cls.families.values():
                assert d.value(fam.name, **labels) == 0, fam.name

    def test_reset_zeroes_nested_fields_in_place(self):
        q = QueryStats()
        nested = q.scan
        q.bump(files_total=1)
        nested.bump(rows_scanned=3)
        q.reset()
        assert q == QueryStats() and q.scan is nested
        io = IOStats(reads=2, bytes_read=9, write_seeks=1)
        io.reset()
        assert io == IOStats()
        report = MaintenanceReport(rows_deleted=3, skipped=["x"])
        report.reset()
        assert report == MaintenanceReport()

    def test_tier_stats_reconcile_per_tier(self, tmp_path):
        """Every TieredChunkCache event — per-tier hits and evictions,
        misses, spills, single-flight waits, rejected spill files —
        lands in the registry exactly as in ``cache.stats``."""
        cache = TieredChunkCache(
            200, disk_bytes=250, disk_dir=str(tmp_path), name="obs-tier"
        )
        before = REG.snapshot()
        for k in range(4):  # 4 x 100 B through a 200 B memory tier
            assert cache.claim_many([("k", k)]) == ([None], [0], [])  # mine
            cache.fulfill(("k", k), bytes([k]) * 100)
        assert cache.claim_many([("k", 9)]) == ([None], [0], [])  # mine
        _values, mine, waits = cache.claim_many([("k", 9)])
        assert not mine and len(waits) == 1  # single-flight
        cache.abandon(("k", 9))
        assert cache.get(("k", 3)) is not None  # memory hit
        assert cache.get(("k", 1)) is not None  # disk hit, promoted
        assert cache.get(("nope",)) is None  # miss
        # corrupt a spill file: the next lookup rejects it
        (victim,) = [k for k in cache._disk if k != ("k", 1)]
        with open(tmp_path / cache._spill_name(victim), "r+b") as f:
            f.write(b"XXXX")
        assert cache.get(victim) is None
        s = cache.stats
        d = REG.delta(before)
        assert s.memory_hits and s.disk_hits and s.misses
        assert s.memory_evictions and s.disk_evictions and s.spills
        assert s.singleflight_waits == 1 and s.checksum_failures == 1
        _assert_reconciles(d, [s])


# ---------------------------------------------------------------------------
# satellite fix: inner-scan pruning surfaced in QueryStats
# ---------------------------------------------------------------------------

class TestQueryStatsPruningRegression:
    """A metadata-eligible query used to drop zone-map-pruned groups
    from ``QueryStats`` entirely: ``TriState.NEVER`` groups were
    skipped with a bare ``continue``, so a query that pruned 3 of 4
    groups reported ``groups_total == 1`` and zero pruning."""

    def _reader(self):
        storage = SimulatedStorage("obs-prune")
        _write_file(storage, n_rows=400, rows_per_group=100)
        return BullionReader(storage)

    def test_decode_query_reports_pruned_groups(self):
        res = aggregate_reader(
            self._reader(), ["sum(y)"], where=col("x") >= 300
        )
        s = res.stats
        assert res.scalar("sum(y)") == pytest.approx(sum(0.5 * x for x in range(300, 400)))
        assert s.scan.groups_total == 4
        assert s.scan.groups_pruned == 3
        assert s.scan.rows_pruned == 300
        assert s.groups_decoded == 1 and s.files_decoded == 1
        # the cross-path invariant the engine documents
        assert s.scan.groups_total == (
            s.scan.groups_pruned + s.groups_meta_answered + s.scan.groups_scanned
        )

    def test_footer_answered_query_reports_pruned_groups(self):
        res = aggregate_reader(
            self._reader(), ["count"], where=col("x") >= 300
        )
        s = res.stats
        assert res.scalar("count") == 100
        assert s.files_footer_answered == 1
        assert s.scan.groups_total == 4
        assert s.scan.groups_pruned == 3
        assert s.scan.rows_pruned == 300
        assert s.groups_meta_answered == 1
        assert s.data_chunks_fetched == 0
        assert s.scan.groups_total == (
            s.scan.groups_pruned + s.groups_meta_answered + s.scan.groups_scanned
        )


# ---------------------------------------------------------------------------
# catalog layers: commits + maintenance
# ---------------------------------------------------------------------------

def _table(lo, n=300):
    return Table({
        "ts": np.arange(lo, lo + n, dtype=np.int64),
        "v": np.linspace(0.0, 1.0, n),
    })


_OPTS = WriterOptions(rows_per_page=50, rows_per_group=100)


class TestCommitInstrumentation:
    def test_clean_commit_counts_one_attempt(self):
        cat = CatalogTable.create(MemoryCatalogStore("obs-commit"))
        before = REG.snapshot()
        txn = cat.transaction()
        txn.append(_table(0), options=_OPTS)
        txn.commit()
        d = REG.delta(before)
        assert d.value("catalog_commit_attempts_total") == 1
        assert d.value("catalog_commit_conflicts_total") == 0
        assert d.value("catalog_commit_replays_total") == 0
        assert d.value("catalog_commits_total", operation="append") == 1
        assert d.value("catalog_commit_seconds") == 1

    def test_conflicted_commit_counts_replay(self):
        cat = CatalogTable.create(MemoryCatalogStore("obs-conflict"))
        t1 = cat.transaction()
        t2 = cat.transaction()  # same base snapshot: guaranteed race
        t1.append(_table(0), options=_OPTS)
        t2.append(_table(1000), options=_OPTS)
        t1.commit()
        before = REG.snapshot()
        t2.commit()
        d = REG.delta(before)
        assert d.value("catalog_commit_attempts_total") == 2
        assert d.value("catalog_commit_conflicts_total") == 1
        assert d.value("catalog_commit_replays_total") == 1
        assert d.value("catalog_commits_total", operation="append") == 1

    def test_abort_counted(self):
        cat = CatalogTable.create(MemoryCatalogStore("obs-abort"))
        txn = cat.transaction()
        txn.append(_table(0), options=_OPTS)
        before = REG.snapshot()
        txn.abort()
        assert REG.delta(before).value("catalog_commit_aborts_total") == 1


class TestMaintenanceInstrumentation:
    def test_cycle_jobs_and_reclamation_counted(self):
        cat = CatalogTable.create(MemoryCatalogStore("obs-maint"))
        for k in range(3):
            cat.append(_table(k * 300), options=_OPTS)
        service = MaintenanceService(
            cat, MaintenancePolicy(keep_snapshots=1)
        )
        before = REG.snapshot()
        report = service.run_once()
        d = REG.delta(before)
        assert d.value("maintenance_cycles_total") == 1
        assert d.value("maintenance_cycle_seconds") == 1
        assert report.jobs_run >= 2  # rollup + expire
        assert d.value("maintenance_jobs_run_total", kind="rollup") == 1
        assert d.value("maintenance_jobs_run_total", kind="expire") == 1
        assert (
            d.value("maintenance_snapshots_expired_total")
            == report.snapshots_expired
            > 0
        )
        # rollup merges three small files into one: reclamation is
        # strictly positive; the counter is clamped-at-zero per job, so
        # it can only exceed the raw report
        assert report.bytes_reclaimed > 0
        assert (
            d.value("maintenance_bytes_reclaimed_total")
            >= report.bytes_reclaimed
        )
        assert d.value("catalog_commits_total", operation="rollup") == 1
        _assert_reconciles(d, [report])
        # the merged-away originals stay referenced by the pre-rollup
        # HEAD for one cycle (the expire job was planned before the
        # rollup committed); the NEXT cycle expires it and GC deletes
        report2 = service.run_once()
        d2 = REG.delta(before)
        assert report2.data_files_deleted > 0
        assert (
            d2.value("maintenance_files_deleted_total")
            == report2.data_files_deleted
        )
        _assert_reconciles(d2, [report, report2])

    def test_pinned_snapshot_refusal_counted(self):
        """The plan() pass already sidesteps snapshots pinned at plan
        time, so the refusal counter covers the race where a reader
        pins between planning and execution — drive the executor with
        a stale plan to reproduce that window deterministically."""
        cat = CatalogTable.create(MemoryCatalogStore("obs-pin"))
        for k in range(2):
            cat.append(_table(k * 300), options=_OPTS)
        service = MaintenanceService(
            cat, MaintenancePolicy(keep_snapshots=1)
        )
        stale = MaintenanceJob(kind="expire", snapshot_ids=(1,))
        report = MaintenanceReport()
        with cat.pin(snapshot_id=1):
            before = REG.snapshot()
            service._run_expire(stale, report)
            d = REG.delta(before)
        assert report.skipped == ["expire: snapshot 1 is pinned"]
        assert report.snapshots_expired == 0
        assert (
            d.value("maintenance_gc_refusals_total", reason="pinned") == 1
        )
        # once unpinned, the same job goes through
        before = REG.snapshot()
        service._run_expire(stale, report)
        assert report.snapshots_expired == 1
        assert (
            REG.delta(before).value("maintenance_snapshots_expired_total")
            == 1
        )


# ---------------------------------------------------------------------------
# the acceptance flow: registry export reconciles with per-call stats
# ---------------------------------------------------------------------------

class TestEndToEndReconciliation:
    def test_flow_counters_reconcile_exactly(self, tmp_path):
        """Ingest -> commit -> pruned scan -> aggregate query ->
        maintenance cycle. The registry delta for every declared
        ``scan_*`` / ``query_*`` family must equal the summed per-call
        ScanStats/QueryStats — no silent counts, no double counts —
        and the traced flow exports a correctly nested Chrome trace."""
        tracer = obs_trace.default_tracer()
        tracer.reset()
        obs_trace.enable()
        before = REG.snapshot()

        # ingest + commit: three 300-row files, 100-row groups
        cat = CatalogTable.create(MemoryCatalogStore("obs-e2e"))
        for k in range(3):
            cat.append(_table(k * 300), options=_OPTS)

        # pruned scan: manifest stats drop two files unopened
        scan_stats = ScanStats()
        with cat.pin() as snap:
            rows = sum(
                b.num_rows
                for b in snap.scan(
                    ["ts", "v"], where=col("ts") >= 600, scan_stats=scan_stats
                )
            )
            assert rows == 300
            assert scan_stats.files_pruned == 2
            assert scan_stats.rows_pruned == 600

            # aggregate query: one MAYBE file decodes, two files pruned
            res = snap.query(
                ["count", "sum(v)"], where=col("ts") < 250, max_workers=1
            )
            assert res.scalar("count") == 250

        # reconcile BEFORE maintenance: the rollup job re-reads the
        # source files internally, so its scan counters (correctly) have
        # no caller-visible ScanStats to reconcile against
        delta = REG.delta(before)

        # maintenance: rollup the three small files, expire history
        service = MaintenanceService(cat, MaintenancePolicy(keep_snapshots=1))
        report = service.run_once()
        assert report.jobs_run >= 1

        obs_trace.disable()

        # exact reconciliation, field by field, for both classes
        q = res.stats
        _assert_reconciles(delta, [scan_stats, q.scan])
        _assert_reconciles(delta, [q])

        # the registry export speaks both formats
        text = REG.export_text()
        assert "# TYPE scan_rows_scanned_total counter" in text
        snap_path = tmp_path / "registry.json"
        REG.write_snapshot(snap_path)
        loaded = obs_metrics.load_snapshot(json.loads(snap_path.read_text()))
        assert loaded.value("scan_rows_scanned_total") == REG.snapshot().value(
            "scan_rows_scanned_total"
        )

        # Chrome trace: spans exported, and nesting is correct
        chrome_path = tmp_path / "flow.trace.json"
        tracer.export_chrome(chrome_path)
        payload = json.loads(chrome_path.read_text())
        events = payload["traceEvents"]
        names = {e["name"] for e in events}
        assert {
            "catalog.commit",
            "writer.flush_group",
            "scan.file",
            "query.snapshot",
            "query.file",
            "maintenance.cycle",
            "maintenance.job",
        } <= names
        by_name = {}
        for e in events:
            by_name.setdefault(e["name"], []).append(e)

        def contains(parent, child):
            return (
                parent["ts"] <= child["ts"] + 1e-6
                and child["ts"] + child["dur"]
                <= parent["ts"] + parent["dur"] + 1e-3
            )

        (qsnap,) = by_name["query.snapshot"]
        assert all(contains(qsnap, qf) for qf in by_name["query.file"])
        (cycle,) = by_name["maintenance.cycle"]
        assert all(contains(cycle, j) for j in by_name["maintenance.job"])
        # parent ids agree with interval containment (JSONL side)
        recs = {r.sid: r for r in tracer.records()}
        qsnap_rec = next(
            r for r in recs.values() if r.name == "query.snapshot"
        )
        for r in recs.values():
            if r.name == "query.file":
                assert r.parent == qsnap_rec.sid
