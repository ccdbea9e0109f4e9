"""Per-request fixed work of the serving path: the per-file tax probe.

``test_bench_per_request_fixed_work`` sends a fixed set of cold,
grouped and filtered-scan requests over the many-small-files serving
shape on real files, and the same requests over the same rows written
as one file. CPU per request on the many files over CPU per request on
the one is the per-file tax that CI gates on.
"""

import statistics
import threading
import time

import numpy as np
from reporting import report

from repro.catalog import CatalogTable, DirectoryCatalogStore
from repro.core import ScanStats, Table
from repro.expr import col

#: the serving shape: micro-batch files of the six-column event table
PROBE_FILES = 100
PROBE_ROWS = 2_000
PROBE_USERS = 5_000
PROBE_WARMUP = 3
PROBE_REQUESTS = 30


def _probe_table(root: str, one_file: bool = False) -> CatalogTable:
    """100 files x 2,000 rows on real files, one append each; with
    ``one_file``, the same rows in one append (the per-file tax's
    reference)."""
    cat = CatalogTable.create(DirectoryCatalogStore(root))
    rng = np.random.default_rng(0)
    n = PROBE_ROWS
    batches = [
        {
            "ts": np.arange(k * n, (k + 1) * n, dtype=np.int64),
            "user": rng.integers(0, PROBE_USERS, n, dtype=np.int64),
            "v": rng.standard_normal(n),
            "score": rng.random(n, dtype=np.float32),
            "region": rng.integers(0, 8, n).astype(np.int32),
            "clicks": rng.integers(0, 100, n, dtype=np.int64),
        }
        for k in range(PROBE_FILES)
    ]
    if one_file:
        batches = [{
            name: np.concatenate([b[name] for b in batches])
            for name in batches[0]
        }]
    for batch in batches:
        cat.append(Table(batch))
    return cat


def _cold(snap, i):
    res = snap.query(["count", "sum(v)"], where=col("v") > -1.0 + i * 1e-6)
    return res.rows[0]["count(*)"], res.stats.files_decoded, res.stats.scan


def _grouped(snap, i):
    res = snap.query(
        ["count", "sum(v)"],
        where=col("v") > -1.0 + i * 1e-6,
        group_by=["region"],
    )
    assert len(res.rows) == 8
    matched = sum(r["count(*)"] for r in res.rows)
    return matched, res.stats.files_decoded, res.stats.scan


def _scan(snap, i):
    stats = ScanStats()
    table = snap.read(
        ["ts", "v", "clicks"],
        where=col("user") == (i * 997) % PROBE_USERS,
        scan_stats=stats,
    )
    return table.num_rows, stats.files_scanned, stats


def _cpu_ms_per_request(snap, send) -> tuple[float, float, tuple]:
    """Median wall and thread-CPU ms of one request after the warm-up,
    and what the requests returned (rows matched, files, chunks)."""
    for i in range(PROBE_WARMUP):
        send(snap, i)
    wall, cpu = [], []
    matched = chunks = 0
    for i in range(PROBE_REQUESTS):
        t0, c0 = time.perf_counter(), time.thread_time()
        rows, files, scan_stats = send(snap, i)
        cpu.append(time.thread_time() - c0)
        wall.append(time.perf_counter() - t0)
        matched += rows
        chunks += scan_stats.chunks_fetched
    return (
        1e3 * statistics.median(wall), 1e3 * statistics.median(cpu),
        (matched, files, chunks),
    )


def _requests_per_s(snap, send, threads: int) -> float:
    """Aggregate requests/s of ``threads`` threads, each sending the
    same ``PROBE_REQUESTS`` requests on one pin."""

    def client():
        for i in range(PROBE_REQUESTS):
            send(snap, i)

    workers = [threading.Thread(target=client) for _ in range(threads)]
    t0 = time.perf_counter()
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    return threads * PROBE_REQUESTS / (time.perf_counter() - t0)


def test_bench_per_request_fixed_work(tmp_path):
    """Per-request cost of the serving path, on a fixed amount of work.

    The table is the ``serve_mixed`` shape (many small files, where
    per-file fixed costs dominate) held under one pin, so each request
    pays exactly the query engine and the scan: no server, no wire, no
    admission. Each class runs the same requests in the same order on
    every run — a count of work, not a time box — and reports the
    median wall and thread-CPU milliseconds of one request in
    ``BENCH_query_aggregate_throughput.json`` only; the tracked
    results file holds the deterministic counts. The same requests
    over the same rows as one file give the per-file tax: CPU per
    request on the many files over CPU per request on the one. Each
    class then sends the same requests from one thread and from two at
    once: its requests/s and its two-thread/one-thread ratio (how much
    of a second core a server's two workers get) go to the JSON file
    too.
    """
    cat = _probe_table(str(tmp_path / "files"))
    reference = _probe_table(str(tmp_path / "one"), one_file=True)
    classes = {
        "cold": ("count, sum(v) where v > x", _cold),
        "grouped": ("count, sum(v) where v > x group by region", _grouped),
        "scan": ("ts, v, clicks where user == u", _scan),
    }
    lines = [
        f"table: {PROBE_FILES} files x {PROBE_ROWS:,} rows on FileStorage, "
        f"one held pin; {PROBE_REQUESTS} requests per class after "
        f"{PROBE_WARMUP} warm-up; reference: the same rows as one file",
        "",
        f"{'class':8} {'request':42} {'files/req':>9} {'chunks':>7} "
        f"{'rows matched':>13}",
    ]
    data = {}
    with cat.pin() as snap, reference.pin() as one:
        for name, (label, send) in classes.items():
            wall, cpu, (matched, files, chunks) = _cpu_ms_per_request(
                snap, send
            )
            _wall, one_cpu, (one_matched, one_files, _chunks) = (
                _cpu_ms_per_request(one, send)
            )
            assert files == PROBE_FILES and 0 < matched
            assert one_files == 1 and one_matched == matched
            data[name] = {
                "request": label,
                "wall_ms_p50": wall,
                "cpu_ms_p50": cpu,
                "one_file_cpu_ms_p50": one_cpu,
                "per_file_tax": cpu / one_cpu,
                "requests": PROBE_REQUESTS,
                "rows_matched": matched,
                "chunks_fetched": chunks,
            }
            lines.append(
                f"{name:8} {label:42} {files:>9} {chunks:>7,} {matched:>13,}"
            )
            print(
                f"{name}: {wall:.2f} ms wall, {cpu:.2f} ms CPU per request "
                f"(median); one file {one_cpu:.2f} ms CPU: per-file tax "
                f"{cpu / one_cpu:.2f}x"
            )
        for name, (_label, send) in classes.items():
            one, two = (_requests_per_s(snap, send, n) for n in (1, 2))
            data[name].update(
                rps_1_thread=one, rps_2_threads=two, thread_scaling=two / one
            )
            print(
                f"{name}: {one:.1f} requests/s on 1 thread, {two:.1f} on 2 "
                f"({two / one:.2f}x)"
            )
    report("query_aggregate_throughput", lines, data=data)
