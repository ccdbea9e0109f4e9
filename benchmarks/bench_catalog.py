"""Catalog control plane: commit throughput and maintenance reclaim.

Two claims the ISSUE-3 subsystem makes measurable:

* optimistic-concurrency commits make progress under contention —
  N threads hammering the same table all land their snapshots (no
  lost updates), with conflict-replays counted rather than failing;
* the maintenance service turns many small deletion-scrubbed ingest
  files into few training-sized files and *reports the bytes it
  reclaims*, with scans before/after returning identical live rows.
"""

import threading
import time

import numpy as np
from reporting import report

from repro.catalog import (
    CatalogTable,
    MaintenancePolicy,
    MaintenanceService,
    MemoryCatalogStore,
)
from repro.core import Table, WriterOptions
from repro.expr import col

OPTS = WriterOptions(rows_per_page=256, rows_per_group=1024)


def _batch(start, n):
    rng = np.random.default_rng(start)
    return Table(
        {
            "id": np.arange(start, start + n, dtype=np.int64),
            "score": rng.random(n).astype(np.float32),
        }
    )


def test_bench_commit_throughput_under_contention():
    n_threads, commits_each, rows = 4, 10, 500
    table = CatalogTable.create(MemoryCatalogStore())
    barrier = threading.Barrier(n_threads)

    def writer(k):
        barrier.wait()
        for i in range(commits_each):
            start = (k * commits_each + i) * rows
            table.append(_batch(start, rows), options=OPTS)

    threads = [
        threading.Thread(target=writer, args=(k,))
        for k in range(n_threads)
    ]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - t0

    head = table.current_snapshot()
    total = n_threads * commits_each
    assert head.snapshot_id == total  # no lost updates, no id gaps
    assert head.live_rows == total * rows
    lines = [
        f"writers: {n_threads} threads x {commits_each} commits "
        f"({rows} rows each)",
        f"committed snapshots: {head.snapshot_id} "
        f"(every commit landed, contiguous ids)",
        f"aborts: {table.stats.aborts} (conflicts are replayed)",
    ]
    # replays and wall clock follow thread timing: JSON only, so the
    # tracked results file is the same on every run
    report("catalog_commit_contention", lines, data={
        "conflict_replays": table.stats.conflicts,
        "wall_ms": elapsed * 1e3,
        "commits_per_s": total / elapsed,
    })


def test_bench_maintenance_rollup_reclaims_bytes():
    table = CatalogTable.create(MemoryCatalogStore())
    n_files, rows = 12, 1_000
    for i in range(n_files):
        table.append(_batch(i * rows, rows), options=OPTS)
    # GDPR-ish deletes scatter dead rows across every file
    table.delete(col("id").between(200, 3_199))
    head = table.current_snapshot()
    bytes_before = head.total_bytes
    files_before = len(head.files)
    live_before = np.sort(np.asarray(table.read(["id"]).column("id")))

    service = MaintenanceService(
        table,
        MaintenancePolicy(
            rollup_small_file_rows=2 * rows,
            rollup_target_rows=8 * rows,
            compact_deleted_fraction=0.2,
            keep_snapshots=2,
            writer_options=OPTS,
        ),
    )
    t0 = time.perf_counter()
    mreport = service.run_once()
    elapsed = time.perf_counter() - t0

    head = table.current_snapshot()
    live_after = np.sort(np.asarray(table.read(["id"]).column("id")))
    assert np.array_equal(live_before, live_after)
    assert mreport.bytes_reclaimed > 0
    assert len(head.files) < files_before
    lines = [
        f"ingest: {n_files} files x {rows:,} rows, then "
        f"{mreport.jobs_planned} maintenance jobs",
        f"files:  {files_before} -> {len(head.files)} "
        f"(merged {mreport.files_merged}, "
        f"compacted {mreport.files_compacted})",
        f"bytes:  {bytes_before:,} -> {head.total_bytes:,} at HEAD; "
        f"{mreport.bytes_reclaimed:,} reclaimed incl. expired files "
        f"({mreport.snapshots_expired} snapshots, "
        f"{mreport.data_files_deleted} data files GC'd)",
        "live rows identical before/after: True",
    ]
    report(
        "catalog_maintenance_rollup", lines, data={"wall_ms": elapsed * 1e3}
    )
