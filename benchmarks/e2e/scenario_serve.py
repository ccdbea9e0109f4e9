"""``serve_mixed``: analytics and feature tenants call the server and
wait for each reply.

Closed loop: two clients, each sending its next request only after the
previous reply, so there is no open-loop schedule to fall behind. The
wire codec, admission, the five server caches, the query engine, file
pruning and per-file fixed costs dominate; the codecs do little (tiny
chunks) and the working set fits every cache. Client 0 also commits an
in-process append every 50th slot so result and pin caches see real
invalidation.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np

import datagen
from common import (
    Context,
    Deadline,
    ScenarioResult,
    end_to_end,
    median,
    ratio,
)
from wrappers import live_bytes, make_store

TABLE = "events"
CLIENTS = 2
SCAN_COLUMNS = ["ts", "v", "clicks"]
WARM_PLAN = {"aggregates": ["count", "sum(v)"], "where": "region >= 1"}

#: request classes and how many of each a 20-request block holds
#: (30/15/20/10/15/10 %). Blocks are shuffled, not drawn, so every
#: run sends the same mix however few requests the clock allows.
MIX = (
    ("query_cold", 6),
    ("query_group", 3),
    ("query_warm", 4),
    ("query_meta", 2),
    ("scan_range", 3),
    ("scan_filter", 2),
)


@dataclass(frozen=True)
class Scale:
    files: int
    rows: int
    warmup: int
    #: timed requests per client when the phase is not time-boxed
    requests: int | None
    min_requests: int
    append_every: int
    #: keep every n-th reply of each class for verification and the
    #: replay probes
    keep_every: int


# 100 files, not the issue's 300: at ~8 requests/s the issue's table
# gives a dozen samples per class in the seconds the driver allows.
# Per-file fixed costs still set scan_filter and query_cold.
FULL = Scale(files=100, rows=2000, warmup=20, requests=None,
             min_requests=60, append_every=50, keep_every=10)
MINI = Scale(files=12, rows=1000, warmup=10, requests=100,
             min_requests=100, append_every=40, keep_every=5)


def schedule(rng: np.random.Generator, client: int, total_rows: int):
    """An endless seeded stream of ``(class, request doc)``.

    Cold and grouped queries carry a constant no other request uses, so
    they can never hit the result cache; the warm plan and the metadata
    query repeat verbatim.
    """
    block = [name for name, count in MIX for _ in range(count)]
    span = max(1, total_rows // 50)  # a 2% ts range
    i = 0
    while True:
        if i % len(block) == 0:
            order = rng.permutation(len(block))
        kind = block[int(order[i % len(block)])]
        unique = -1.0 + (2 * i + client) * 1e-6
        if kind == "query_cold":
            doc = {"aggregates": ["count", "sum(v)"],
                   "where": f"v > {unique:.6f}"}
        elif kind == "query_group":
            doc = {"aggregates": ["count", "sum(v)"],
                   "where": f"v > {unique:.6f}", "group_by": ["region"]}
        elif kind == "query_warm":
            doc = dict(WARM_PLAN)
        elif kind == "query_meta":
            doc = {"aggregates": ["count", "min(ts)", "max(ts)"]}
        elif kind == "scan_range":
            lo = int(rng.integers(0, total_rows - span))
            doc = {"columns": SCAN_COLUMNS,
                   "where": f"ts >= {lo} and ts < {lo + span}"}
        else:
            user = int(rng.integers(0, datagen.N_USERS))
            doc = {"columns": SCAN_COLUMNS, "where": f"user == {user}"}
        yield kind, doc
        i += 1


def send(client, doc: dict):
    """One request through ``ServerClient``; returns its reply."""
    if "columns" in doc:
        return client.scan(TABLE, doc["columns"], where=doc["where"])
    return client.query(
        TABLE, doc["aggregates"], where=doc.get("where"),
        group_by=doc.get("group_by"),
    )


class _Client(threading.Thread):
    """One closed-loop tenant: warm up, wait at the barrier, then send
    until the deadline, recording each round trip."""

    def __init__(self, k, ctx, scale, server, table, requests, barrier,
                 deadline, append_rng, next_ts):
        super().__init__(name=f"e2e-client-{k}", daemon=True)
        self.k = k
        self.ctx = ctx
        self.scale = scale
        self.server = server
        self.table = table
        self.requests = requests
        self.barrier = barrier
        self.deadline = deadline
        self.append_rng = append_rng
        #: where the next appended batch starts (only client 0 appends)
        self.next_ts = next_ts
        self.latencies: dict[str, list[float]] = {n: [] for n, _c in MIX}
        self.kept: list = []
        self.appends = 0
        self.done = 0
        self.error: BaseException | None = None
        self.finished_at = 0.0

    def run(self) -> None:
        from repro.server import ServerClient

        try:
            with ServerClient(
                self.server.host, self.server.port, timeout=120.0,
                default_deadline_ms=120_000,
            ) as client:
                for _ in range(self.scale.warmup):
                    send(client, next(self.requests)[1])
                self.barrier.wait()
                self._timed(client)
        except BaseException as exc:
            self.error = exc
            self.barrier.abort()
        finally:
            self.finished_at = time.perf_counter()

    def _timed(self, client) -> None:
        ctx, scale = self.ctx, self.scale
        while not self.deadline.done(self.done):
            slot = self.done
            if self.k == 0 and slot and slot % scale.append_every == 0:
                self._append()
            kind, doc = next(self.requests)
            with ctx.span(f"serve.{kind}", op=f"c{self.k}-{slot}"):
                t0 = time.perf_counter()
                reply = send(client, doc)
                self.latencies[kind].append(time.perf_counter() - t0)
            # every n-th reply of each class, so that rare classes are
            # verified and replayed too
            if (len(self.latencies[kind]) - 1) % scale.keep_every == 0:
                self.kept.append((kind, doc, reply))
            self.done += 1
            if ctx.traced and self.k == 0 and slot % 20 == 0:
                _trim_program_trace()

    def _append(self) -> None:
        from repro.core import Table

        batch = datagen.narrow_batch(
            self.append_rng, self.scale.rows, self.next_ts
        )
        self.next_ts += self.scale.rows
        with self.ctx.span("serve.append", op=f"commit-{self.appends}"):
            self.table.append(Table(batch))
        self.appends += 1


def _trim_program_trace() -> None:
    """The program's tracer keeps every span; drop them as we go so a
    traced run's memory stays flat."""
    from repro.obs import trace

    trace.reset()


def run(ctx: Context) -> ScenarioResult:
    from repro.catalog import CatalogTable
    from repro.core import Table
    from repro.server import BullionServer, TableService

    scale = FULL if ctx.full else MINI
    res = ScenarioResult()

    # -- set-up: build the table, start the server ----------------------
    t0 = time.perf_counter()
    rng = np.random.default_rng([ctx.seed, 2])
    store = make_store(ctx.subdir("serve"), ctx.recorder)
    table = CatalogTable.create(store)
    raw_bytes = 0
    for k in range(scale.files):
        batch = datagen.narrow_batch(rng, scale.rows, k * scale.rows)
        raw_bytes += datagen.raw_nbytes(batch)
        table.append(Table(batch))
    total_rows = scale.files * scale.rows
    service = TableService(
        {TABLE: table}, workers=2, max_queue=16, queue_timeout_s=60.0,
        default_deadline_s=120.0,
    )
    server = BullionServer(service)
    res.setup_s = time.perf_counter() - t0

    registry_before = _registry_snapshot()
    deadline = Deadline(ctx.seconds, scale.min_requests, scale.requests)
    # the clock starts when the last client finishes its warm-up
    barrier = threading.Barrier(CLIENTS + 1, action=deadline.start)
    clients = [
        _Client(
            k, ctx, scale, server, table,
            schedule(np.random.default_rng([ctx.seed, 2, 10 + k]), k,
                     total_rows),
            barrier, deadline,
            np.random.default_rng([ctx.seed, 2, 20 + k]), total_rows,
        )
        for k in range(CLIENTS)
    ]
    try:
        for c in clients:
            c.start()
        try:
            barrier.wait()  # warm-up done on every client
        except threading.BrokenBarrierError:
            pass
        with ctx.timed_phase():
            t_phase = time.perf_counter()
            for c in clients:
                c.join()
        res.timed_s = max(c.finished_at for c in clients) - t_phase
        if ctx.traced:
            res.io = store.tally.snapshot()
        for c in clients:
            if c.error is not None:
                raise c.error

        done = sum(c.done for c in clients)
        res.detail["serve.rps"] = ratio(done, res.timed_s)
        res.samples["serve.rps"] = done
        latencies = {
            kind: [s for c in clients for s in c.latencies[kind]]
            for kind, _count in MIX
        }
        for kind in ("query_cold", "query_warm", "scan_range", "scan_filter"):
            res.detail[f"serve.{kind}_p50_ms"] = 1e3 * median(latencies[kind])
            res.samples[f"serve.{kind}_p50_ms"] = len(latencies[kind])
        res.attempted += done
        # sizes read now, so space and write cost cover client 0's
        # commits under load as well as the table build
        raw_bytes = raw_bytes * clients[0].next_ts // total_rows
        end_to_end(
            res,
            op_s=[s for samples in latencies.values() for s in samples],
            space_ratio=ratio(
                live_bytes(table.current_snapshot()), raw_bytes
            ),
            write_amp=ratio(store.bytes_written(), raw_bytes),
        )
        kept = [item for c in clients for item in c.kept]
        _verify(res, store, kept)
        if ctx.traced:
            import probes

            res.layers.update(probes.serve_layers(
                ctx, store, server, latencies, kept,
                _registry_snapshot().delta(registry_before),
            ))
    finally:
        server.close()
    return res


def _registry_snapshot():
    from repro.obs import default_registry

    return default_registry().snapshot()


def canonical_plan(doc: dict) -> dict:
    from repro.server import protocol

    if "columns" in doc:
        return protocol.canonical_scan_plan(doc)
    return protocol.canonical_query_plan(doc)


def _verify(res: ScenarioResult, store, kept) -> None:
    """Every kept reply's raw frames must equal the single-threaded
    library replay of the same plan on the reply's snapshot id."""
    from repro.catalog import CatalogTable, DirectoryCatalogStore
    from repro.server import protocol

    fresh = CatalogTable(DirectoryCatalogStore(store.root))
    pins: dict = {}
    try:
        for kind, doc, reply in kept:
            sid = reply.snapshot_id
            pin = pins.get(sid)
            if pin is None:
                pin = pins[sid] = fresh.pin(snapshot_id=sid)
            plan = canonical_plan(doc)
            if "columns" in doc:
                same = reply.raw_frames == protocol.replay_scan_frames(
                    pin, sid, plan
                )
            else:
                same = reply.raw == protocol.replay_query_frame(
                    pin, sid, plan
                )
            res.verify(same, f"serve {kind} reply differs from replay: {doc}")
    finally:
        for pin in pins.values():
            pin.release()
