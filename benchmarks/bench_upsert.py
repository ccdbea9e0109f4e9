"""Keyed upsert vs delete+append, and the price of an evolved scan.

Two claims the ISSUE-7 ingestion path makes measurable on the
latency-modelled backend:

* ``upsert(batch, key=…)`` finds its victim files through manifest
  key-range pruning — a batch whose keys cluster in one of N files
  opens that file only, and lands as **one** atomic snapshot where
  delete + append takes two (with a window where the deleted rows are
  gone but their replacements not yet visible);
* reading a heterogeneous snapshot through the per-file resolver
  (rename + widen + fill) costs a bounded constant factor over the
  identical homogeneous scan, and metadata-only aggregation stays at
  zero file opens on both.
"""

import time

import numpy as np
from reporting import report

from repro.catalog import (
    AddColumn,
    CatalogTable,
    MemoryCatalogStore,
    RenameColumn,
    WidenColumn,
)
from repro.core import ScanStats, Table, WriterOptions
from repro.expr import col
from repro.iosim import LatencyModelledStorage, SeekModel

N_FILES = 8
ROWS_PER_FILE = 8_192
OPTS = WriterOptions(rows_per_page=512, rows_per_group=2_048)
MODEL = SeekModel(seek_latency_s=1e-3, bandwidth_bytes_per_s=5e8)


class LatencyModelledCatalogStore(MemoryCatalogStore):
    """Memory store whose data files charge modelled device time."""

    def __init__(self) -> None:
        super().__init__("latency-catalog")
        self.opened: list[LatencyModelledStorage] = []

    def open_data(self, file_id: str):
        wrapper = LatencyModelledStorage(
            super().open_data(file_id), MODEL, sleep=False
        )
        self.opened.append(wrapper)
        return wrapper

    def begin_run(self) -> None:
        self.opened = []

    def elapsed_s(self) -> float:
        return sum(w.elapsed_s for w in self.opened)


def _build(store) -> CatalogTable:
    cat = CatalogTable.create(store)
    rng = np.random.default_rng(0)
    for k in range(N_FILES):
        lo = k * ROWS_PER_FILE
        cat.append(
            Table({
                "id": np.arange(lo, lo + ROWS_PER_FILE, dtype=np.int64),
                "score": rng.random(ROWS_PER_FILE),
                "n": np.arange(ROWS_PER_FILE, dtype=np.int32),
                "payload": [b"x" * 64] * ROWS_PER_FILE,
            }),
            options=OPTS,
        )
    return cat


def _batch(keys: np.ndarray) -> Table:
    rng = np.random.default_rng(1)
    return Table({
        "id": keys,
        "score": rng.random(len(keys)),
        "n": np.arange(len(keys), dtype=np.int32),
        "payload": [b"fresh" * 8] * len(keys),
    })


def test_bench_upsert_vs_delete_append():
    keys = np.arange(100, 1100, dtype=np.int64)  # clustered in file 0

    # -- one atomic upsert ------------------------------------------
    store_a = LatencyModelledCatalogStore()
    cat_a = _build(store_a)
    base_snap = cat_a.current_snapshot().snapshot_id
    store_a.begin_run()
    t0 = time.perf_counter()
    cat_a.upsert(_batch(keys), key="id")
    upsert_wall = time.perf_counter() - t0
    upsert_io = store_a.elapsed_s()
    upsert_opens = len(store_a.opened)
    upsert_commits = cat_a.current_snapshot().snapshot_id - base_snap
    summary = cat_a.current_snapshot().summary

    # -- delete then append (two transactions) ---------------------
    store_b = LatencyModelledCatalogStore()
    cat_b = _build(store_b)
    base_snap = cat_b.current_snapshot().snapshot_id
    store_b.begin_run()
    t0 = time.perf_counter()
    cat_b.delete(col("id").isin(keys.tolist()))
    cat_b.append(_batch(keys), options=OPTS)
    da_wall = time.perf_counter() - t0
    da_io = store_b.elapsed_s()
    da_opens = len(store_b.opened)
    da_commits = cat_b.current_snapshot().snapshot_id - base_snap

    # both end at the same live state
    assert (
        cat_a.current_snapshot().live_rows
        == cat_b.current_snapshot().live_rows
        == N_FILES * ROWS_PER_FILE
    )
    assert upsert_commits == 1 and da_commits == 2
    # key-range pruning: only the victim file (plus the replacement
    # write) is touched, not all N
    assert upsert_opens < N_FILES

    # the tracked lines hold counts and modelled time only; wall-clock
    # goes to the JSON artifact
    report("upsert_vs_delete_append", [
        f"table: {N_FILES} files x {ROWS_PER_FILE:,} rows, keyed by 'id'; "
        f"batch: {len(keys):,} keys clustered in one file",
        f"upsert:        {upsert_commits} commit, {upsert_opens} file opens, "
        f"modelled I/O {upsert_io * 1e3:7.1f} ms "
        f"(rows_replaced={summary.get('rows_replaced')})",
        f"delete+append: {da_commits} commits, {da_opens} file opens, "
        f"modelled I/O {da_io * 1e3:7.1f} ms",
        "upsert is atomic: no snapshot exists with the old rows deleted "
        "but the replacements missing",
    ], data={
        "upsert_wall_ms": upsert_wall * 1e3,
        "delete_append_wall_ms": da_wall * 1e3,
    })


def test_bench_evolved_scan_overhead():
    # homogeneous: every file already at the (never-evolved) layout
    plain_store = LatencyModelledCatalogStore()
    plain = _build(plain_store)

    # evolved: same files, then rename + widen + add — all files now
    # read through the per-file resolver
    evolved_store = LatencyModelledCatalogStore()
    evolved = _build(evolved_store)
    evolved.evolve(
        RenameColumn("score", "quality"),
        WidenColumn("n", "int64"),
        AddColumn("clicks", "int64"),
    )

    cols_plain = ["id", "score", "n"]
    cols_evolved = ["id", "quality", "n", "clicks"]

    def timed_scan(cat, columns):
        best = None
        rows = 0
        for _ in range(3):
            stats = ScanStats.unmirrored()
            t0 = time.perf_counter()
            with cat.pin() as snap:
                rows = sum(
                    b.num_rows for b in snap.scan(columns, scan_stats=stats)
                )
            dt = time.perf_counter() - t0
            best = dt if best is None else min(best, dt)
        return best, rows, stats

    plain_t, plain_rows, plain_stats = timed_scan(plain, cols_plain)
    evolved_t, evolved_rows, evolved_stats = timed_scan(evolved, cols_evolved)
    assert plain_rows == evolved_rows == N_FILES * ROWS_PER_FILE
    # the added column is filled, never fetched: the evolved scan reads
    # exactly the plain scan's chunks
    assert evolved_stats.chunks_fetched == plain_stats.chunks_fetched

    # metadata fast path must stay zero-open on both
    plain_store.begin_run()
    evolved_store.begin_run()
    with plain.pin() as snap:
        res_p = snap.query(["count", "min(id)", "max(score)"])
    with evolved.pin() as snap:
        res_e = snap.query(["count", "min(id)", "max(quality)"])
    assert plain_store.opened == [] and evolved_store.opened == []
    assert (
        res_p.rows[0]["max(score)"] == res_e.rows[0]["max(quality)"]
    )

    report("evolved_scan_overhead", [
        f"table: {N_FILES} files x {ROWS_PER_FILE:,} rows",
        f"homogeneous scan: {len(cols_plain)} columns, "
        f"{plain_stats.chunks_fetched} chunks fetched",
        f"evolved scan:     {len(cols_evolved)} columns via "
        f"rename+widen+fill, {evolved_stats.chunks_fetched} chunks fetched "
        "(the added column is filled, not fetched)",
        "metadata aggregation: zero file opens on both "
        "(renamed column included)",
    ], data={
        "plain_scan_ms": plain_t * 1e3,
        "evolved_scan_ms": evolved_t * 1e3,
        "overhead": evolved_t / plain_t,
        "chunks_fetched": plain_stats.chunks_fetched,
    })
