"""Concurrency differential harness (the PR's core guarantee).

N client threads fire randomized scan and query plans at a live server
while a writer thread commits a seeded, finite schedule of appends,
keyed upserts, deletes and compactions, paced against the clients'
progress.  Every response is recorded as raw frame bytes along
with the snapshot id the server chose.  Afterwards, each recorded
``(snapshot_id, canonical plan)`` pair is replayed single-threaded on
a fresh :class:`PinnedSnapshot` through the same payload builders —
the replay bytes must equal the served bytes **exactly**.

That byte-identity is only a meaningful oracle because commits are
copy-on-write (a pinned snapshot's files are immutable by
construction) and the wire format is canonical (one logical response
has one byte representation).  Any torn read, stale cache entry,
cross-request state bleed or non-deterministic iteration order in the
server shows up as a byte diff.
"""

from __future__ import annotations

import random
import threading

import numpy as np
import pytest

from repro.catalog import CatalogTable, CommitConflict, MemoryCatalogStore
from repro.expr import parse as parse_expr
from repro.core.table import Table
from repro.server import BullionServer, ServerClient, TableService
from repro.server import protocol

ROWS_PER_FILE = 60
REQUESTS_PER_CLIENT = 8
#: mutations the writer attempts per run, however long the clients
#: take; each adds at most one file, so no machine ever serves more
#: than ``2 + MUTATIONS`` live files
MUTATIONS = 24

WHERE_POOL = (
    None,
    "region >= 2",
    "v > 0.0",
    "region = 1 and v > -0.5",
    "ts < 90",
)
AGG_POOL = (
    ["count"],
    ["count", "sum(region)"],
    ["min(v)", "max(v)"],
    ["sum(v)", "mean(v)"],
)
COLUMN_POOL = (["ts"], ["ts", "v"], ["v", "region"], ["ts", "v", "region"])


def _batch(lo: int, rng) -> Table:
    return Table({
        "ts": np.arange(lo, lo + ROWS_PER_FILE, dtype=np.int64),
        "v": rng.normal(size=ROWS_PER_FILE),
        "region": rng.integers(0, 5, size=ROWS_PER_FILE).astype(np.int32),
    })


def _build():
    store = MemoryCatalogStore()
    table = CatalogTable.create(store)
    rng = np.random.default_rng(11)
    for k in range(2):
        table.append(_batch(k * ROWS_PER_FILE, rng))
    return store, table


class _Writer(threading.Thread):
    """Commits ``MUTATIONS`` seeded mutations, paced by the clients.

    Mutation ``k`` is due once the clients have finished ``k /
    MUTATIONS`` of their requests (``progress()`` of
    ``total_requests``), so commits land all through the run on a
    fast machine and a slow one alike — and a slow one does not get a
    bigger table and a harder test for being slow.
    """

    def __init__(self, table: CatalogTable, progress, total_requests: int):
        super().__init__(name="differential-writer", daemon=True)
        self.table = table
        self.progress = progress
        self.total_requests = total_requests
        self.stop = threading.Event()
        self.commits = 0
        self.error = None

    def run(self) -> None:
        rng = np.random.default_rng(23)
        pyrng = random.Random(23)
        next_lo = 2 * ROWS_PER_FILE
        try:
            for k in range(MUTATIONS):
                while self.progress() * MUTATIONS < k * self.total_requests:
                    if self.stop.wait(0.002):
                        return
                op = pyrng.choice(("append", "upsert", "delete", "compact"))
                try:
                    if op == "append":
                        self.table.append(_batch(next_lo, rng))
                        next_lo += ROWS_PER_FILE
                    elif op == "upsert":
                        head = self.table.current_snapshot()
                        hi = sum(f.row_count for f in head.files)
                        keys = rng.choice(
                            max(hi, 1), size=min(10, max(hi, 1)),
                            replace=False,
                        ).astype(np.int64)
                        self.table.upsert(
                            Table({
                                "ts": np.sort(keys),
                                "v": rng.normal(size=keys.size),
                                "region": rng.integers(
                                    0, 5, size=keys.size
                                ).astype(np.int32),
                            }),
                            key="ts",
                        )
                    elif op == "delete":
                        lo = int(rng.integers(0, max(next_lo, 1)))
                        self.table.delete(
                            parse_expr(f"ts >= {lo} and ts < {lo + 7}")
                        )
                    else:
                        self.table.compact(min_deleted_fraction=0.01)
                    self.commits += 1
                except (CommitConflict, ValueError):
                    # conflicting writer or empty upsert window: the
                    # race itself is the point, losing it is fine
                    continue
        except BaseException as exc:  # pragma: no cover - diagnostics
            self.error = exc


class _Client(threading.Thread):
    """One tenant: randomized plans, every response byte-recorded."""

    def __init__(self, host, port, seed, requests):
        super().__init__(name=f"differential-client-{seed}", daemon=True)
        self.host, self.port = host, port
        self.seed = seed
        self.requests = requests
        self.records = []
        self.error = None

    def run(self) -> None:
        try:
            rng = random.Random(self.seed)
            with ServerClient(self.host, self.port, timeout=60.0) as c:
                for _ in range(self.requests):
                    if rng.random() < 0.5:
                        doc = {
                            "aggregates": rng.choice(AGG_POOL),
                            "where": rng.choice(WHERE_POOL),
                        }
                        if rng.random() < 0.4:
                            doc["group_by"] = ["region"]
                        reply = c.query(
                            "events",
                            doc["aggregates"],
                            where=doc["where"],
                            group_by=doc.get("group_by"),
                        )
                        self.records.append((
                            "query",
                            reply.snapshot_id,
                            protocol.canonical_query_plan(doc),
                            [reply.raw],
                        ))
                    else:
                        doc = {
                            "columns": rng.choice(COLUMN_POOL),
                            "where": rng.choice(WHERE_POOL),
                            "batch_size": rng.choice(
                                (None, 32, 77, 256)
                            ),
                        }
                        reply = c.scan(
                            "events",
                            doc["columns"],
                            where=doc["where"],
                            batch_size=doc["batch_size"],
                        )
                        self.records.append((
                            "scan",
                            reply.snapshot_id,
                            protocol.canonical_scan_plan(doc),
                            reply.raw_frames,
                        ))
        except BaseException as exc:  # pragma: no cover - diagnostics
            self.error = exc


@pytest.mark.parametrize("n_clients", [1, 4, 16])
def test_concurrent_serving_is_byte_identical_to_replay(n_clients):
    _store, table = _build()
    service = TableService(
        {"events": table},
        workers=4,
        # closed-loop clients: at most n_clients requests exist at
        # once, so admission can never reject one that merely waits
        max_queue=n_clients,
        queue_timeout_s=60.0,
        default_deadline_s=60.0,
    )
    server = BullionServer(service)
    clients = [
        _Client(
            server.host, server.port, seed=100 + i,
            requests=REQUESTS_PER_CLIENT,
        )
        for i in range(n_clients)
    ]
    writer = _Writer(
        table,
        progress=lambda: sum(len(c.records) for c in clients),
        total_requests=REQUESTS_PER_CLIENT * n_clients,
    )
    try:
        writer.start()
        for c in clients:
            c.start()
        for c in clients:
            c.join(timeout=120.0)
            assert not c.is_alive(), "client thread wedged"
    finally:
        writer.stop.set()
        writer.join(timeout=120.0)
        server.close()
    assert writer.error is None, f"writer crashed: {writer.error!r}"
    for c in clients:
        assert c.error is None, f"{c.name} failed: {c.error!r}"

    # single-threaded replay of every (snapshot_id, plan) pair; the
    # server stack is closed, so this is the plain library path
    records = [r for c in clients for r in c.records]
    assert len(records) == REQUESTS_PER_CLIENT * n_clients
    sids = {sid for _k, sid, _p, _f in records}
    for kind, sid, plan, frames in records:
        pin = table.pin(snapshot_id=sid)
        try:
            if kind == "query":
                assert frames == [
                    protocol.replay_query_frame(pin, sid, plan)
                ]
            else:
                assert frames == protocol.replay_scan_frames(
                    pin, sid, plan
                )
        finally:
            pin.release()
    if max(sids) > min(sids):
        # the harness only proves something if writers really landed
        # commits while clients were reading
        assert writer.commits > 0
