"""Fast-path isolation under schema evolution.

The per-file resolver must not tax tables that never needed it: a
homogeneous snapshot (no evolution, or every file already at the
current schema) keeps the zero-file-open guarantee of
``test_query_fastpath``. And when a snapshot *is* heterogeneous, a
file missing the aggregated column degrades gracefully — typed fills
and a decode fallback, never a crash — while files that do carry the
column stay on their metadata paths.
"""

import numpy as np

from repro.catalog import (
    AddColumn,
    CatalogTable,
    MemoryCatalogStore,
    RenameColumn,
)
from repro.core import Table, WriterOptions
from repro.core.reader import ScanStats
from repro.expr import col
from repro.obs import metrics as obs_metrics
from test_query_fastpath import CountingCatalogStore

OPTS = WriterOptions(rows_per_page=25, rows_per_group=50)
REG = obs_metrics.default_registry()


def _evolved_catalog():
    """File A at schema 0 (ts, v); file B at schema 1 after
    ``AddColumn(clicks:int64) + AddColumn(score:double)``."""
    store = CountingCatalogStore()
    cat = CatalogTable.create(store)
    cat.append(
        Table({
            "ts": np.arange(100, dtype=np.int64),
            "v": np.linspace(0.0, 1.0, 100),
        }),
        options=OPTS,
    )
    cat.evolve(AddColumn("clicks", "int64"), AddColumn("score", "double"))
    cat.append(
        Table({
            "ts": np.arange(100, 200, dtype=np.int64),
            "v": np.linspace(1.0, 2.0, 100),
            "clicks": np.arange(100, dtype=np.int64) + 5,
            "score": np.linspace(10.0, 20.0, 100),
        }),
        options=OPTS,
    )
    return store, cat


class TestHomogeneousStaysZeroOpen:
    def test_never_evolved_table(self):
        """Legacy tables route around the resolver entirely."""
        store = CountingCatalogStore()
        cat = CatalogTable.create(store)
        for k in range(3):
            cat.append(
                Table({
                    "ts": np.arange(k * 100, (k + 1) * 100, dtype=np.int64),
                    "v": np.linspace(0.0, 1.0, 100),
                }),
                options=OPTS,
            )
        store.begin_run()
        with cat.pin() as snap:
            assert snap.current_schema() is None
            res = snap.query(["count", "min(ts)", "max(ts)", "min(v)"])
        assert store.opened == [], "manifest-only query opened a file"
        assert res.rows[0]["count(*)"] == 300
        assert res.stats.files_meta_answered == 3

    def test_evolved_but_all_files_current(self):
        """Once every file is at the current schema, resolution is the
        identity again: metadata fast paths reopen, zero file opens —
        new columns included."""
        store, cat = _evolved_catalog()
        # drop file A (schema 0); only the schema-1 file remains
        cat.delete(col("ts") < 100)
        cat.compact()
        store.begin_run()
        with cat.pin() as snap:
            assert snap.current_schema() is not None
            assert all(
                f.schema_id == snap.snapshot.current_schema_id
                for f in snap.snapshot.files
            )
            res = snap.query(
                ["count", "min(ts)", "min(clicks)", "max(score)"]
            )
        assert store.opened == [], "homogeneous evolved snapshot opened a file"
        row = res.rows[0]
        assert row["count(*)"] == 100
        assert row["min(clicks)"] == 5
        assert row["max(score)"] == 20.0

    def test_rename_only_evolution_stays_zero_open(self):
        """A rename changes no bytes; stats resolve through the log and
        the manifest still answers alone."""
        store, cat = _evolved_catalog()
        cat.evolve(RenameColumn("v", "value"))
        store.begin_run()
        with cat.pin() as snap:
            res = snap.query(["count", "min(value)", "max(value)"])
        assert store.opened == [], "rename forced a file open"
        assert res.rows[0]["min(value)"] == 0.0
        assert res.rows[0]["max(value)"] == 2.0


class TestHeterogeneousGracefulFallback:
    def test_plain_count_stays_manifest_only(self):
        """Row counts don't care about layout: zero opens even when the
        snapshot mixes schemas."""
        store, cat = _evolved_catalog()
        store.begin_run()
        with cat.pin() as snap:
            res = snap.query(["count"])
        assert store.opened == []
        assert res.rows[0]["count(*)"] == 200

    def test_min_on_missing_int_column_decodes_only_that_file(self):
        """min(clicks): file B answers from metadata; file A has no
        stats for ``clicks`` so only it opens — and its int fills (0)
        participate, matching the documented int-fill semantics."""
        store, cat = _evolved_catalog()
        store.begin_run()
        with cat.pin() as snap:
            res = snap.query(["min(clicks)", "max(clicks)"])
        opened_once = {s.name for s, _base in store.opened}
        assert len(opened_once) == 1, (
            f"expected exactly the schema-0 file to open, got {opened_once}"
        )
        assert res.rows[0]["min(clicks)"] == 0  # fill value from file A
        assert res.rows[0]["max(clicks)"] == 104
        assert res.stats.files_meta_answered == 1

    def test_sum_on_missing_float_column_skips_nan_fills(self):
        """sum/mean(score): file A contributes NaN fills, which the
        engine's NaN-skip semantics exclude — the answer equals file
        B's alone, with no crash on the schema-0 file."""
        store, cat = _evolved_catalog()
        with cat.pin() as snap:
            res = snap.query(["sum(score)", "count(score)", "mean(score)"])
        row = res.rows[0]
        assert row["count(score)"] == 100  # NaN fills never count
        assert row["sum(score)"] == np.sum(np.linspace(10.0, 20.0, 100))
        assert row["mean(score)"] == row["sum(score)"] / 100

    def test_filter_on_missing_column_prunes_conservatively(self):
        """A predicate on a column file A lacks: manifest stats are
        absent there, so the classifier must say MAYBE (never a wrong
        prune) and the decode path evaluates the fills."""
        store, cat = _evolved_catalog()
        with cat.pin() as snap:
            res = snap.query(["count"], where=col("clicks") >= 5)
            forced = snap.query(
                ["count"], where=col("clicks") >= 5, use_metadata=False
            )
        # file A fills clicks=0 (all rows fail); file B has clicks>=5
        assert res.rows[0]["count(*)"] == 100
        assert forced.rows[0]["count(*)"] == 100

    def test_count_bytes_column_absent_from_old_file(self):
        """count(tag) where the old file predates the bytes column:
        b"" fills count like any string value — graceful, no crash."""
        store = CountingCatalogStore()
        cat = CatalogTable.create(store)
        cat.append(
            Table({"ts": np.arange(50, dtype=np.int64)}), options=OPTS
        )
        cat.evolve(AddColumn("tag", "string"))
        cat.append(
            Table({
                "ts": np.arange(50, 100, dtype=np.int64),
                "tag": [b"x"] * 50,
            }),
            options=OPTS,
        )
        with cat.pin() as snap:
            res = snap.query(["count(tag)"])
            forced = snap.query(["count(tag)"], use_metadata=False)
        assert res.rows[0]["count(tag)"] == 100
        assert forced.rows[0]["count(tag)"] == 100


class TestOldSchemaChunkCounts:
    """An old-schema file is read through ``ResolvedReader``, whose
    inner scan fetches the chunks. Those fetches must reach the
    caller's ``ScanStats`` (and the registry, once) exactly as a plain
    file's do — otherwise ``data_chunks_fetched == 0`` would claim
    zero data I/O for a query that decoded every row."""

    def _table(self, evolved):
        cat = CatalogTable.create(MemoryCatalogStore())
        cat.append(
            Table({
                "ts": np.arange(300, dtype=np.int64),
                "v": np.linspace(0.0, 1.0, 300),
            }),
            options=WriterOptions(rows_per_page=50, rows_per_group=100),
        )
        if evolved:
            cat.evolve(AddColumn("extra", "int64"))
        return cat

    def _counts(self, evolved, where):
        cat = self._table(evolved)
        before = REG.snapshot()
        scan_stats = ScanStats()
        rows = sum(
            b.num_rows
            for b in cat.scan(["ts", "v"], where=where, scan_stats=scan_stats)
        )
        res = cat.query(["count", "sum(v)"], where=where)
        fetched = REG.delta(before).value("scan_chunks_fetched_total")
        assert rows == res.scalar("count")
        return rows, scan_stats, res.stats, fetched

    def test_added_column_is_filled_not_fetched(self):
        plain, evolved = ScanStats(), ScanStats()
        self._table(False).read(["ts", "v"], scan_stats=plain)
        out = self._table(True).read(["ts", "v", "extra"], scan_stats=evolved)
        assert out.num_rows == 300
        assert evolved.chunks_fetched == plain.chunks_fetched > 0

    def test_evolved_counts_equal_plain(self, serial_fetch):
        # (where, rows matched, chunks the scan fetches, and the query)
        cases = [
            # group 0 NEVER, 1 MAYBE, 2 ALWAYS
            (col("ts") >= 150, 150, 4, 4),
            # group 1 MAYBE and emptied by the filter: its ``ts`` chunk
            # is never fetched (late materialization)
            (col("v") == 0.5, 0, 1, 1),
        ]
        for where, rows, chunks, query_chunks in cases:
            plain_rows, plain_scan, plain_query, plain_fetched = self._counts(
                False, where
            )
            old_rows, old_scan, old_query, old_fetched = self._counts(
                True, where
            )
            assert plain_rows == old_rows == rows
            assert plain_scan.chunks_fetched == chunks
            assert old_scan == plain_scan  # every counter
            for stats in (plain_scan, old_scan):
                assert stats.groups_total == (
                    stats.groups_pruned + stats.groups_scanned
                )
            assert plain_query.data_chunks_fetched == query_chunks
            assert (
                old_query.data_chunks_fetched
                == plain_query.data_chunks_fetched
            )
            # published once: registry delta == scan + query counts
            assert old_fetched == plain_fetched == chunks + query_chunks
