"""Property-style tests: pushdown must never change scan results.

The contract of the three-layer predicate pushdown (catalog file
pruning -> footer zone maps -> decode-time filtering) is that it is a
pure optimization: ``scan(where=e)`` returns byte-identical rows to
reading everything and filtering in memory. These tests throw
randomized tables (all dtypes, NaN/inf, quantized columns, deletion
vectors, multi-shard catalogs) and randomized expressions at that
contract.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.catalog import CatalogTable, MemoryCatalogStore
from repro.core import (
    BullionReader,
    BullionWriter,
    LoaderOptions,
    ScanStats,
    Table,
    TrainingDataLoader,
    WriterOptions,
)
from repro.expr import Expr, all_of, any_of, col, evaluate
from repro.iosim import SimulatedStorage
from repro.quantization import FloatFormat, QuantizationPolicy


# ---------------------------------------------------------------------------
# randomized generators
# ---------------------------------------------------------------------------

def _random_table(rng, n, quantized=False):
    """A table exercising every filterable dtype, plus NaN/inf/big ints."""
    i64 = rng.integers(-(10**9), 10**9, n).astype(np.int64)
    # sprinkle values at the float64 precision boundary
    big_at = rng.integers(0, n, max(1, n // 50))
    i64[big_at] = 2**53 + rng.integers(-3, 4, len(big_at))
    f64 = rng.normal(size=n)
    f64[rng.random(n) < 0.05] = np.nan
    f64[rng.random(n) < 0.02] = np.inf
    f64[rng.random(n) < 0.02] = -np.inf
    cols = {
        "i64": i64,
        "i32": rng.integers(-50, 50, n).astype(np.int32),
        "f64": f64,
        "f32": rng.normal(size=n).astype(np.float32),
        "flag": rng.random(n) < 0.3,
        "tag": [f"t{int(v)}".encode() for v in rng.integers(0, 8, n)],
    }
    if quantized:
        cols["q16"] = rng.normal(size=n).astype(np.float32)
        cols["qb"] = (rng.normal(size=n) * 4).astype(np.float32)
    return Table(cols)


def _random_leaf(rng, table):
    name = rng.choice(["i64", "i32", "f64", "f32", "flag", "tag"])
    values = table.columns[name]
    if name == "tag":
        choices = [b"t0", b"t3", b"t7", b"zzz"]
        if rng.random() < 0.5:
            return col(name) == choices[rng.integers(0, len(choices))]
        k = rng.integers(1, 4)
        return col(name).isin([choices[i] for i in range(k)])
    if name == "flag":
        return col(name) == bool(rng.random() < 0.5)
    arr = np.asarray(values, dtype=np.float64)
    finite = arr[np.isfinite(arr)]
    if len(finite) == 0:
        pivot = 0.0
    else:
        pivot = float(rng.choice(finite))
    if name.startswith("i") and rng.random() < 0.7:
        pivot = int(pivot)
    op = rng.choice(["==", "!=", "<", "<=", ">", ">="])
    return getattr(col(name), {
        "==": "__eq__", "!=": "__ne__", "<": "__lt__",
        "<=": "__le__", ">": "__gt__", ">=": "__ge__",
    }[op])(pivot)


def _random_expr(rng, table, depth=2):
    if depth == 0 or rng.random() < 0.4:
        return _random_leaf(rng, table)
    kind = rng.random()
    if kind < 0.1:
        from repro.expr import Not

        return Not(_random_expr(rng, table, depth - 1))
    combine = all_of if kind < 0.6 else any_of
    return combine(
        _random_expr(rng, table, depth - 1),
        _random_expr(rng, table, depth - 1),
    )


def _expected(read_plain: Table, read_widened: Table, expr: Expr) -> Table:
    """Brute force: evaluate over fully-materialized widened columns."""
    mask = evaluate(expr, read_widened.columns)
    return read_plain.take_mask(mask)


def _assert_tables_equal(a: Table, b: Table):
    assert set(a.columns) == set(b.columns)
    for name in a.columns:
        va, vb = a.columns[name], b.columns[name]
        if isinstance(va, np.ndarray):
            assert va.dtype == np.asarray(vb).dtype, name
            np.testing.assert_array_equal(va, vb, err_msg=name)
        else:
            assert list(va) == list(vb), name


# ---------------------------------------------------------------------------
# single-file scans
# ---------------------------------------------------------------------------

class TestScanMatchesBruteForce:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("workers", [0, 4])
    def test_randomized(self, seed, workers):
        rng = np.random.default_rng(seed)
        table = _random_table(rng, 700)
        dev = SimulatedStorage()
        BullionWriter(
            dev, options=WriterOptions(rows_per_page=32, rows_per_group=128)
        ).write(table)
        reader = BullionReader(dev)
        names = list(table.columns)
        plain = reader.project(names)
        widened = reader.project(names, widen_quantized=True)
        for _case in range(6):
            expr = _random_expr(rng, table)
            got = reader.scan(
                names, where=expr, max_workers=workers
            ).to_table()
            _assert_tables_equal(got, _expected(plain, widened, expr))

    @pytest.mark.parametrize("seed", range(4))
    def test_with_deletion_vectors(self, seed):
        from repro.core import delete_rows

        rng = np.random.default_rng(100 + seed)
        table = _random_table(rng, 500)
        dev = SimulatedStorage()
        BullionWriter(
            dev, options=WriterOptions(rows_per_page=25, rows_per_group=100)
        ).write(table)
        doomed = np.flatnonzero(rng.random(500) < 0.2)
        delete_rows(dev, doomed)
        reader = BullionReader(dev)
        names = list(table.columns)
        plain = reader.project(names)  # deletion-filtered
        widened = reader.project(names, widen_quantized=True)
        for _case in range(5):
            expr = _random_expr(rng, table)
            got = reader.scan(names, where=expr).to_table()
            _assert_tables_equal(got, _expected(plain, widened, expr))

    @pytest.mark.parametrize("seed", range(3))
    def test_quantized_columns(self, seed):
        rng = np.random.default_rng(200 + seed)
        table = _random_table(rng, 400, quantized=True)
        policy = QuantizationPolicy(
            assignments={"q16": FloatFormat.FP16, "qb": FloatFormat.BF16},
            default=FloatFormat.FP32,
        )
        dev = SimulatedStorage()
        BullionWriter(
            dev,
            options=WriterOptions(
                rows_per_page=50, rows_per_group=100, quantization=policy
            ),
        ).write(table)
        reader = BullionReader(dev)
        names = list(table.columns)
        plain = reader.project(names)
        widened = reader.project(names, widen_quantized=True)
        for _case in range(4):
            base = _random_expr(rng, table)
            # force a quantized filter column into every expression
            pivot = float(rng.normal())
            q = col("q16") > pivot if rng.random() < 0.5 else col("qb") <= pivot
            expr = base & q
            got = reader.scan(names, where=expr).to_table()
            _assert_tables_equal(got, _expected(plain, widened, expr))

    def test_batches_respect_batch_size(self):
        rng = np.random.default_rng(7)
        table = _random_table(rng, 600)
        dev = SimulatedStorage()
        BullionWriter(
            dev, options=WriterOptions(rows_per_page=32, rows_per_group=64)
        ).write(table)
        reader = BullionReader(dev)
        expr = col("i32") >= 0
        batches = list(
            reader.scan(["i64", "tag"], where=expr, batch_size=37)
        )
        assert all(b.num_rows == 37 for b in batches[:-1])
        total = sum(b.num_rows for b in batches)
        assert total == int((np.asarray(table.columns["i32"]) >= 0).sum())


class TestPushdownLayersActuallySkip:
    def _sorted_file(self, n=4000, rows_per_group=500):
        dev = SimulatedStorage()
        table = Table(
            {
                "ts": np.arange(n, dtype=np.int64),
                "v": np.linspace(0.0, 1.0, n),
                "blob": [b"x" * 40 for _ in range(n)],
            }
        )
        BullionWriter(
            dev,
            options=WriterOptions(rows_per_page=100, rows_per_group=rows_per_group),
        ).write(table)
        return dev, table

    def test_zone_maps_prune_groups_without_io(self):
        dev, _table = self._sorted_file()
        reader = BullionReader(dev)
        scan = reader.scan(["ts", "v"], where=col("ts") < 400)
        assert scan.row_groups == [0]
        out = scan.to_table()
        assert out.num_rows == 400
        assert scan.stats.groups_pruned == 7
        assert scan.stats.rows_pruned == 3500

    def test_late_materialization_skips_residual_chunks(self):
        dev, _table = self._sorted_file()
        reader = BullionReader(dev)
        # one group survives the ts zone maps, but the stats-free blob
        # conjunct (strings carry no zone maps) kills every row at
        # decode time — the v chunk must never be fetched
        stats = ScanStats()
        scan = reader.scan(
            ["ts", "v", "blob"],
            where=(col("ts") >= 900) & (col("ts") < 1000)
            & (col("blob") == b"nope"),
            scan_stats=stats,
        )
        assert scan.to_table().num_rows == 0
        assert stats.groups_empty == stats.groups_scanned == 1
        assert stats.chunks_skipped == 1  # the v chunk, never fetched

    def test_always_groups_read_like_an_unfiltered_scan(self):
        # ts < 1200 takes groups 0-1 whole (ALWAYS) and cuts group 2
        # (MAYBE). An ALWAYS group fetches its projection in the one
        # request an unfiltered scan would issue, and decodes no filter
        # column the projection does not hold; the MAYBE group still
        # goes filter-first.
        dev, table = self._sorted_file()
        reader = BullionReader(dev, chunk_cache_size=0)
        dev.stats.reset()
        reader.scan(["v", "blob"], row_groups=[0, 1]).to_table()
        unfiltered_reads = dev.stats.reads

        reader = BullionReader(dev, chunk_cache_size=0)
        dev.stats.reset()
        stats = ScanStats()
        out = reader.scan(
            ["v", "blob"], where=col("ts") < 1000, scan_stats=stats
        ).to_table()
        assert dev.stats.reads == unfiltered_reads
        assert stats.chunks_fetched == 4  # v + blob per group, never ts
        assert stats.rows_matched == out.num_rows == 1000
        np.testing.assert_array_equal(
            out.column("v"), np.asarray(table.column("v"))[:1000]
        )

        stats = ScanStats()
        out = reader.scan(
            ["ts", "v"], where=col("ts") < 1200, scan_stats=stats
        ).to_table()
        assert (stats.groups_scanned, stats.groups_pruned) == (3, 5)
        np.testing.assert_array_equal(out.column("ts"), np.arange(1200))

    def test_always_groups_still_apply_the_deletion_vector(self):
        from repro.core import delete_rows

        dev, _table = self._sorted_file()
        delete_rows(dev, [3, 499, 500, 777])
        reader = BullionReader(dev)
        out = reader.scan(["ts"], where=col("ts") < 1000).to_table()
        want = np.setdiff1d(np.arange(1000), [3, 499, 500, 777])
        np.testing.assert_array_equal(out.column("ts"), want)
        # a fully deleted ALWAYS group yields no batch, like any
        # filtered group without survivors
        delete_rows(dev, np.arange(500, 1000))
        stats = ScanStats()
        batches = list(BullionReader(dev).scan(
            ["ts"], where=col("ts") < 1000, scan_stats=stats
        ))
        assert len(batches) == 1 and stats.groups_empty == 1

    def test_missing_stats_conservatively_scan(self):
        dev = SimulatedStorage()
        n = 300
        table = Table({"a": np.arange(n, dtype=np.int64)})
        BullionWriter(
            dev,
            options=WriterOptions(
                rows_per_page=50, rows_per_group=100,
                collect_statistics=False,
            ),
        ).write(table)
        reader = BullionReader(dev)
        scan = reader.scan(["a"], where=col("a") < 0)
        assert scan.stats.groups_pruned == 0  # nothing provable
        assert scan.to_table().num_rows == 0  # still exact

    def test_nan_only_groups_are_never_pruned(self):
        dev = SimulatedStorage()
        vals = np.concatenate(
            [np.full(100, np.nan), np.arange(100) / 100.0]
        )
        BullionWriter(
            dev, options=WriterOptions(rows_per_page=50, rows_per_group=100)
        ).write(Table({"x": vals}))
        reader = BullionReader(dev)
        # != matches the NaN rows; the NaN-only group has no stats and
        # must be scanned
        scan = reader.scan(["x"], where=col("x") != 0.5)
        out = scan.to_table()
        assert out.num_rows == 199  # everything but the exact 0.5 row
        assert scan.stats.groups_pruned == 0

    def test_inf_rows_are_not_lost_to_pruning(self):
        dev = SimulatedStorage()
        vals = np.concatenate(
            [np.linspace(0, 1, 100), np.array([np.inf] * 4 + [5.0] * 96)]
        )
        BullionWriter(
            dev, options=WriterOptions(rows_per_page=50, rows_per_group=100)
        ).write(Table({"x": vals}))
        reader = BullionReader(dev)
        out = reader.scan(["x"], where=col("x") >= 10.0).to_table()
        assert out.num_rows == 4
        assert np.all(np.isinf(out.column("x")))

    def test_int64_boundary_rows_survive_pruning(self):
        # regression: float64-rounded stats must not prune the group
        # holding 2**53 + 1
        dev = SimulatedStorage()
        vals = np.concatenate(
            [
                np.arange(100, dtype=np.int64),
                np.full(100, 2**53 + 1, dtype=np.int64),
            ]
        )
        BullionWriter(
            dev, options=WriterOptions(rows_per_page=50, rows_per_group=100)
        ).write(Table({"x": vals}))
        reader = BullionReader(dev)
        out = reader.scan(["x"], where=col("x") == 2**53 + 1).to_table()
        assert out.num_rows == 100
        out = reader.scan(["x"], where=col("x") > 2**53).to_table()
        assert out.num_rows == 100

    def test_filter_on_list_column_rejected(self):
        dev = SimulatedStorage()
        BullionWriter(dev).write(
            Table({"l": [np.arange(3, dtype=np.int64)] * 10})
        )
        reader = BullionReader(dev)
        with pytest.raises(ValueError, match="list column"):
            reader.scan(["l"], where=col("l") == 1)

    def test_missing_filter_column_raises(self):
        dev = SimulatedStorage()
        BullionWriter(dev).write(Table({"a": np.arange(5, dtype=np.int64)}))
        with pytest.raises(KeyError):
            BullionReader(dev).scan(["a"], where=col("nope") > 1)


# ---------------------------------------------------------------------------
# catalog-level pruning
# ---------------------------------------------------------------------------

def _build_catalog(rng, n_files=5, rows=400, quantized=False):
    cat = CatalogTable.create(MemoryCatalogStore())
    tables = []
    for k in range(n_files):
        t = _random_table(rng, rows, quantized=quantized)
        # shift ids so files cover disjoint ranges (prunable)
        t.columns["i64"] = np.arange(
            k * rows, (k + 1) * rows, dtype=np.int64
        )
        tables.append(t)
        cat.append(
            t,
            options=WriterOptions(rows_per_page=25, rows_per_group=100),
        )
    return cat, tables


class TestCatalogPushdown:
    @pytest.mark.parametrize("seed", range(4))
    def test_multi_file_scan_matches_brute_force(self, seed):
        rng = np.random.default_rng(300 + seed)
        cat, tables = _build_catalog(rng)
        names = list(tables[0].columns)
        with cat.pin() as snap:
            plain = snap.read(names)
            widened = snap.read(names, widen_quantized=True)
            for _case in range(6):
                expr = _random_expr(rng, tables[0])
                got = snap.read(names, where=expr)
                _assert_tables_equal(
                    got, _expected(plain, widened, expr)
                )

    @pytest.mark.parametrize("evolved", [False, True])
    @pytest.mark.parametrize(
        "bad, error", [("seq == 1", ValueError), ("nope == 1", KeyError)]
    )
    def test_pruning_every_file_keeps_a_bad_filter_bad(
        self, evolved, bad, error
    ):
        """A filter on a list column, or on a name the table lacks,
        fails whether or not the manifest prunes every file — checked
        against the current schema on an evolved table, else against
        the first file's footer."""
        from repro.catalog import AddColumn

        cat = CatalogTable.create(MemoryCatalogStore())
        for k in range(3):
            cat.append(Table({
                "ts": np.arange(10 * k, 10 * k + 10, dtype=np.int64),
                "seq": [np.arange(i % 3, dtype=np.int64) for i in range(10)],
            }))
        if evolved:
            cat.evolve(AddColumn("extra", "int64"))
        with cat.pin() as snap:
            for where in (bad, f"ts > 1000 and {bad}"):
                with pytest.raises(error):
                    snap.read(["ts"], where=where)
            with pytest.raises(KeyError):
                snap.read(["ts", "nope"], where="ts > 1000")
            assert snap.read(["ts", "seq"], where="ts > 1000").num_rows == 0

    def test_file_pruning_skips_opens(self):
        rng = np.random.default_rng(42)
        cat, _tables = _build_catalog(rng)
        stats = ScanStats()
        expr = (col("i64") >= 850) & (col("i64") < 900)
        with cat.pin() as snap:
            kept, pruned = snap.prune_files(expr)
            assert len(kept) == 1 and len(pruned) == 4
            out = snap.read(names := ["i64", "f64"], where=expr,
                            scan_stats=stats)
            assert out.num_rows == 50
            # pruned files were never opened by this pinned snapshot
            assert len(snap._reader_cache) == 1
        assert stats.files_pruned == 4
        assert stats.files_scanned == 1
        assert names == ["i64", "f64"]

    def test_one_scan_skips_at_all_three_layers(self):
        cat, _tables = _build_catalog(np.random.default_rng(7))
        stats = ScanStats()
        # rows 150..249 of file 0: the manifest prunes files 1-4, zone
        # maps prune groups 0 and 3, groups 1 and 2 filter at decode
        out = cat.read(
            ["i64", "f64"], where=col("i64").between(150, 249),
            scan_stats=stats,
        )
        assert out.num_rows == 100
        assert stats.files_pruned == 4
        assert stats.groups_pruned == 2
        assert stats.rows_scanned == 200 and stats.rows_matched == 100

    def test_late_materialization_reads_only_the_filter_column(self):
        cat, _tables = _build_catalog(np.random.default_rng(8))
        columns = ["i64", "i32", "f64", "f32"]
        files = [
            cat.store.open_data(f.file_id)
            for f in cat.current_snapshot().files
        ]

        def bytes_read(names, **kw):
            before = sum(dev.stats.bytes_read for dev in files)
            out = cat.read(names, **kw)
            return out, sum(dev.stats.bytes_read for dev in files) - before

        stats = ScanStats()
        # strings carry no zone maps: every group decodes its tag chunk,
        # and no group has a survivor to fetch the projection for
        out, filtered = bytes_read(
            columns, where=col("tag") == b"absent", scan_stats=stats
        )
        assert out.num_rows == 0
        assert stats.groups_pruned == 0
        assert stats.chunks_skipped == stats.groups_empty * len(columns) > 0
        _tags, tags_only = bytes_read(["tag"])
        _full, full = bytes_read(columns)
        assert filtered == tags_only < full, (filtered, tags_only, full)

    def test_multishard_commit_carries_stats(self):
        rng = np.random.default_rng(5)
        cat = CatalogTable.create(MemoryCatalogStore())
        t = _random_table(rng, 900)
        t.columns["i64"] = np.arange(900, dtype=np.int64)
        cat.add_shards(t, rows_per_shard=300)
        snap = cat.current_snapshot()
        assert len(snap.files) == 3
        for f in snap.files:
            assert f.column_stats and "i64" in f.column_stats
        with cat.pin() as pinned:
            kept, pruned = pinned.prune_files(col("i64") < 300)
            assert len(kept) == 1 and len(pruned) == 2

    def test_scan_after_delete_expr(self):
        rng = np.random.default_rng(11)
        cat, tables = _build_catalog(rng, n_files=3)
        names = list(tables[0].columns)
        expr = (col("i32") >= 0) & (col("f32") > 0.0)
        # delete exactly what scan(where=expr) returns
        with cat.pin() as snap:
            to_die = snap.read(names, where=expr)
        cat.delete(expr)
        with cat.pin() as snap:
            after = snap.read(names)
        assert after.num_rows == sum(
            t.num_rows for t in tables
        ) - to_die.num_rows
        # none of the remaining rows match the expression
        with cat.pin() as snap:
            assert snap.read(names, where=expr).num_rows == 0

    def test_delete_takes_the_text_form(self):
        rng = np.random.default_rng(13)
        cat, _tables = _build_catalog(rng, n_files=2)
        head = cat.delete("i64 >= 100 and i64 <= 199")
        assert head.summary["rows_deleted"] == 100
        with cat.pin() as snap:
            out = snap.read(["i64"])
            assert not np.isin(
                np.arange(100, 200), np.asarray(out.column("i64"))
            ).any()

    def test_loader_with_where(self):
        rng = np.random.default_rng(17)
        cat, tables = _build_catalog(rng, n_files=2)
        expr = col("i32") > 0
        with cat.pin() as snap:
            loader = snap.loader(
                ["i64", "i32"],
                LoaderOptions(batch_size=64, where=expr),
            )
            rows = sum(b.num_rows for b in loader)
            expected = snap.read(["i64", "i32"], where=expr).num_rows
        assert rows == expected

    def test_empty_filtered_scan_keeps_widened_dtype(self):
        rng = np.random.default_rng(29)
        table = _random_table(rng, 200, quantized=True)
        policy = QuantizationPolicy(
            assignments={"qb": FloatFormat.BF16}, default=FloatFormat.FP32
        )
        dev = SimulatedStorage()
        BullionWriter(
            dev,
            options=WriterOptions(
                rows_per_page=50, rows_per_group=100, quantization=policy
            ),
        ).write(table)
        reader = BullionReader(dev)
        nothing = col("i64") > 10**17
        empty = reader.scan(
            ["qb"], where=nothing, widen_quantized=True
        ).to_table()
        some = reader.scan(["qb"], widen_quantized=True).to_table()
        assert empty.num_rows == 0
        assert empty.column("qb").dtype == some.column("qb").dtype

    def test_delete_with_unknown_column_raises_and_aborts(self):
        rng = np.random.default_rng(31)
        cat, _tables = _build_catalog(rng, n_files=2)
        before = cat.current_snapshot()
        with pytest.raises(KeyError):
            cat.delete(col("no_such_column") > 0)
        assert cat.current_snapshot().snapshot_id == before.snapshot_id
        # nothing staged leaked: every data file is still referenced
        referenced = set()
        for s in cat.history():
            referenced |= s.file_ids()
        assert set(cat.store.list_data()) == referenced

    def test_loader_where_prunes_files_before_opening(self):
        rng = np.random.default_rng(37)
        cat, _tables = _build_catalog(rng, n_files=5)
        expr = col("i64") < 400  # only the first file can match
        with cat.pin() as snap:
            loader = snap.loader(
                ["i64"], LoaderOptions(batch_size=64, where=expr)
            )
            rows = sum(b.num_rows for b in loader)
            assert rows == 400
            assert len(snap._reader_cache) == 1  # 4 files never opened

    def test_maintenance_retention_filter(self):
        from repro.catalog import MaintenancePolicy, MaintenanceService

        rng = np.random.default_rng(23)
        cat, _tables = _build_catalog(rng, n_files=3)
        horizon = col("i64") < 400  # exactly the first file's ids
        service = MaintenanceService(
            cat,
            MaintenancePolicy(
                retention_filter=horizon,
                keep_snapshots=100,  # keep expiry out of this test
            ),
        )
        jobs = service.plan()
        retention = [j for j in jobs if j.kind == "retention"]
        assert len(retention) == 1
        assert len(retention[0].file_ids) == 1  # manifest-pruned plan
        report = service.run_once()
        assert report.rows_deleted == 400
        with cat.pin() as snap:
            assert snap.read(["i64"], where=horizon).num_rows == 0
            assert snap.read(["i64"]).num_rows == 800
        # steady state: every matching row gone, stats prune the plan
        assert not [j for j in service.plan() if j.kind == "retention"]
        report = service.run_once()
        assert report.rows_deleted == 0


# ---------------------------------------------------------------------------
# where= at the public boundary: text is parsed, anything else is typed
# ---------------------------------------------------------------------------

# one reader per entry point: (catalog, where) -> matching row count
def _pinned(read):
    def entry(cat, where):
        with cat.pin() as snap:
            return read(snap, where)

    return entry


def _count(result):
    return result.rows[0]["count(*)"]


def _rows(batches):
    return sum(b.num_rows for b in batches)


WHERE_ENTRIES = {
    "PinnedSnapshot.scan": _pinned(
        lambda snap, where: _rows(snap.scan(["i64"], where=where))
    ),
    "PinnedSnapshot.read": _pinned(
        lambda snap, where: snap.read(["i64"], where=where).num_rows
    ),
    "PinnedSnapshot.query": _pinned(
        lambda snap, where: _count(snap.query("count", where=where))
    ),
    "CatalogTable.scan": lambda cat, where: _rows(
        cat.scan(["i64"], where=where)
    ),
    "CatalogTable.read": lambda cat, where: cat.read(
        ["i64"], where=where
    ).num_rows,
    "CatalogTable.query": lambda cat, where: _count(
        cat.query("count", where=where)
    ),
    "BullionReader.scan": _pinned(
        lambda snap, where: sum(
            _rows(reader.scan(["i64"], where=where))
            for reader in snap.readers()
        )
    ),
    "LoaderOptions.where": _pinned(
        lambda snap, where: _rows(
            snap.loader(["i64"], LoaderOptions(batch_size=64, where=where))
        )
    ),
}


class TestWhereBoundary:
    """Every public read entry takes ``where`` as an ``Expr`` or its
    text form, and rejects other types with ``TypeError`` on the spot
    (it used to die frames later: ``'str' object has no attribute
    'columns'``)."""

    TEXT = "i64 >= 100 and i64 < 450"
    EXPR = (col("i64") >= 100) & (col("i64") < 450)
    ROWS = 350

    @pytest.fixture(scope="class")
    def cat(self):
        cat, _tables = _build_catalog(np.random.default_rng(41), n_files=2)
        return cat

    @pytest.mark.parametrize("entry", sorted(WHERE_ENTRIES))
    def test_text_is_parsed(self, cat, entry):
        read = WHERE_ENTRIES[entry]
        assert read(cat, self.TEXT) == read(cat, self.EXPR) == self.ROWS

    @pytest.mark.parametrize("entry", sorted(WHERE_ENTRIES))
    @pytest.mark.parametrize(
        "bad",
        [
            3,
            b"i64 > 3",
            # the retired ``Predicate`` range shape: no longer duck-typed
            SimpleNamespace(column="i64", min_value=0, max_value=9),
            ["i64 > 3"],
        ],
        ids=["int", "bytes", "legacy-predicate", "list"],
    )
    def test_other_types_raise_type_error(self, cat, entry, bad):
        with pytest.raises(TypeError, match="where must be"):
            WHERE_ENTRIES[entry](cat, bad)

    @pytest.mark.parametrize("entry", sorted(WHERE_ENTRIES))
    def test_unparsable_text_raises_parse_error(self, cat, entry):
        from repro.expr import ParseError

        with pytest.raises(ParseError):
            WHERE_ENTRIES[entry](cat, "i64 >>> 3")

    @pytest.mark.parametrize(
        "bad", [None, 3, b"i64 > 3"], ids=["none", "int", "bytes"]
    )
    def test_delete_rejects_other_types(self, cat, bad):
        with pytest.raises(TypeError):
            cat.delete(bad)

    def test_loader_options_store_the_parsed_expression(self):
        assert LoaderOptions(where=self.TEXT).where == self.EXPR
