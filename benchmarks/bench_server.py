"""Serving layer: closed-loop load, warm vs cold, 1/4/16 clients.

Two claims the ISSUE-10 serving layer makes measurable:

* a warm server answers repeat plans from the result cache without
  touching storage at all — zero manifest reads, zero footer opens,
  and a warm p99 far below a cold p50 (every cold request carries a
  distinct predicate, so it always misses the cache and pays the full
  decode);
* the admission-controlled worker pool holds that gap under client
  concurrency: the same cells run with 1, 4 and 16 closed-loop
  clients, each pacing itself to an offered target QPS and reporting
  what it actually achieved.
"""

import math
import threading
import time

import numpy as np
from reporting import report

from repro.catalog import CatalogTable, MemoryCatalogStore
from repro.core import Table
from repro.server import BullionServer, ServerClient, TableService

N_FILES, ROWS = 4, 20_000
DURATION_S = 1.2
COLD_QPS, WARM_QPS = 40.0, 400.0
CLIENT_COUNTS = (1, 4, 16)
WARM_PLAN = {"aggregates": ["count", "sum(v)"], "where": "region >= 1"}


class CountingCatalogStore(MemoryCatalogStore):
    """Counts manifest reads and data-file opens between phases."""

    def __init__(self) -> None:
        super().__init__("bench-server")
        self.meta_reads = 0
        self.data_opens = 0

    def read_metadata(self, name: str) -> bytes:
        self.meta_reads += 1
        return super().read_metadata(name)

    def open_data(self, file_id: str):
        self.data_opens += 1
        return super().open_data(file_id)

    def begin_phase(self) -> None:
        self.meta_reads = 0
        self.data_opens = 0


def _build():
    store = CountingCatalogStore()
    table = CatalogTable.create(store)
    rng = np.random.default_rng(7)
    for k in range(N_FILES):
        lo = k * ROWS
        table.append(Table({
            "ts": np.arange(lo, lo + ROWS, dtype=np.int64),
            "v": rng.normal(size=ROWS),
            "region": rng.integers(0, 5, size=ROWS).astype(np.int32),
        }))
    return store, table


def _client_loop(host, port, plans, interval_s, barrier, out, errors):
    try:
        with ServerClient(host, port, timeout=60.0) as c:
            barrier.wait()
            start = time.perf_counter()
            for i, plan in enumerate(plans):
                wake = start + i * interval_s
                now = time.perf_counter()
                if wake > now:
                    time.sleep(wake - now)
                t0 = time.perf_counter()
                c.query(
                    "events",
                    plan["aggregates"],
                    where=plan["where"],
                    deadline_ms=60_000,
                )
                out.append(time.perf_counter() - t0)
    except BaseException as exc:  # pragma: no cover - diagnostics
        errors.append(exc)


def _run_cell(server, n_clients, qps_total, plans_for):
    """Closed-loop cell: each client paces itself to its QPS share."""
    per_client_qps = qps_total / n_clients
    requests_each = max(2, math.ceil(DURATION_S * per_client_qps))
    interval_s = 1.0 / per_client_qps
    barrier = threading.Barrier(n_clients + 1)
    latencies, errors, threads = [], [], []
    for k in range(n_clients):
        plans = [plans_for(k, i) for i in range(requests_each)]
        t = threading.Thread(
            target=_client_loop,
            args=(server.host, server.port, plans, interval_s,
                  barrier, latencies, errors),
            daemon=True,
        )
        t.start()
        threads.append(t)
    barrier.wait()
    t0 = time.perf_counter()
    for t in threads:
        t.join(timeout=120.0)
    elapsed = time.perf_counter() - t0
    assert not errors, f"client failed: {errors[0]!r}"
    total = n_clients * requests_each
    assert len(latencies) == total
    ms = np.sort(np.asarray(latencies)) * 1e3
    return {
        "clients": n_clients,
        "requests": total,
        "offered_qps": round(qps_total, 1),
        "achieved_qps": round(total / elapsed, 1),
        "p50_ms": round(float(np.percentile(ms, 50)), 3),
        "p99_ms": round(float(np.percentile(ms, 99)), 3),
    }


def test_bench_server_closed_loop_warm_vs_cold():
    store, table = _build()
    service = TableService(
        {"events": table},
        workers=8,
        max_queue=64,
        queue_timeout_s=30.0,
        default_deadline_s=60.0,
    )
    server = BullionServer(service)
    cold_seq = iter(range(10**6))

    def cold_plan(_k, _i):
        # a never-repeated predicate constant: always a result-cache
        # miss, so every request pays the full scan + aggregate
        c = next(cold_seq)
        return {
            "aggregates": ["count", "sum(v)"],
            "where": f"v > {c / 1000 - 4.0}",
        }

    def warm_plan(_k, _i):
        return WARM_PLAN

    def warm_up():
        with ServerClient(server.host, server.port, timeout=60.0) as c:
            c.query("events", WARM_PLAN["aggregates"],
                    where=WARM_PLAN["where"], deadline_ms=60_000)

    cells = {}
    try:
        # open every footer once so "cold" isolates the decode cost,
        # not first-contact metadata parsing
        warm_up()
        for n in CLIENT_COUNTS:
            cells[f"cold/{n}"] = _run_cell(server, n, COLD_QPS, cold_plan)
        # untimed: the warm plan's result is cached again however many
        # cold results the fixed-size result cache took in meanwhile
        warm_up()
        store.begin_phase()
        for n in CLIENT_COUNTS:
            cells[f"warm/{n}"] = _run_cell(server, n, WARM_QPS, warm_plan)
        warm_manifest_reads = store.meta_reads
        warm_footer_opens = store.data_opens
    finally:
        server.close()

    # the headline claims, re-checked in CI from BENCH_server.json
    assert warm_manifest_reads == 0, "warm phase re-read a manifest"
    assert warm_footer_opens == 0, "warm phase re-opened a footer"
    for n in CLIENT_COUNTS:
        cold, warm = cells[f"cold/{n}"], cells[f"warm/{n}"]
        assert warm["p99_ms"] < cold["p50_ms"], (
            f"{n} clients: warm p99 {warm['p99_ms']}ms not below "
            f"cold p50 {cold['p50_ms']}ms"
        )

    lines = [
        f"table: {N_FILES} files x {ROWS:,} rows; server: 8 workers, "
        f"queue 64; closed-loop clients, {DURATION_S:.1f}s cells",
        f"cold = unique predicate per request (always a result-cache "
        f"miss, offered {COLD_QPS:.0f} QPS total)",
        f"warm = one repeated plan (result-cache hit, offered "
        f"{WARM_QPS:.0f} QPS total)",
        "",
        "cell      clients    offered   achieved    p50 ms    p99 ms",
    ]
    for name in cells:
        r = cells[name]
        lines.append(
            f"{name:<12}{r['clients']:>5}{r['offered_qps']:>11.1f}"
            f"{r['achieved_qps']:>11.1f}{r['p50_ms']:>10.3f}"
            f"{r['p99_ms']:>10.3f}"
        )
    lines += [
        "",
        f"warm-phase manifest reads: {warm_manifest_reads}, "
        f"footer opens: {warm_footer_opens} (metadata parsed once "
        f"for the life of the server)",
    ]
    report("server", lines, data={
        "schema": "bench_server/v1",
        "table": {"files": N_FILES, "rows_per_file": ROWS},
        "targets": {"cold_qps": COLD_QPS, "warm_qps": WARM_QPS},
        "cells": cells,
        "warm_manifest_reads": warm_manifest_reads,
        "warm_footer_opens": warm_footer_opens,
    })
