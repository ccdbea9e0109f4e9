"""Chaos suite: disconnects, deadlines, faults, saturation, leaks.

Every failure mode the serving layer claims to contain, provoked for
real against a live server:

* a client that vanishes mid-scan-stream — the server notices between
  frames, abandons the stream, releases its pin lease and worker slot,
  and accounts the request as ``cancelled``;
* a deadline that expires while a chunk fetch is sleeping inside the
  modelled object store — surfaces as a typed ``deadline_exceeded``
  frame as soon as the fetch returns;
* an injected storage fault (``ObjectStorageError`` ⊂ ``OSError``) —
  a typed ``io_error`` response, the connection and server survive;
* a saturated worker pool — typed ``server_busy`` rejections, never
  unbounded queueing;
* and after all of it: file descriptors and threads return to
  baseline, and the request/response/connection counters reconcile
  exactly.
"""

from __future__ import annotations

import os
import socket
import threading
import time

import numpy as np
import pytest

from repro.catalog import CatalogTable, DirectoryCatalogStore, MemoryCatalogStore
from repro.core.table import Table
from repro.iosim.storage import ObjectStorage, ObjectStorageError, SeekModel
from repro.obs.metrics import default_registry
from repro.server import (
    BullionServer,
    DeadlineExceeded,
    IOFault,
    ServerBusy,
    ServerClient,
    TableService,
)
#: fast model so un-jittered requests don't slow the suite
_FAST_MODEL = SeekModel(
    seek_latency_s=0.0, bandwidth_bytes_per_s=1e9, request_latency_s=0.0
)


class ChaosCatalogStore(MemoryCatalogStore):
    """Memory store whose reads go through a faultable object store."""

    def __init__(self) -> None:
        super().__init__("chaos")
        self.get_jitter_s = 0.0
        self.fail_gets = False

    def open_data(self, file_id: str):
        inner = super().open_data(file_id)
        return ObjectStorage(
            inner,
            model=_FAST_MODEL,
            jitter_fn=lambda op, off, n: self.get_jitter_s,
            fault_fn=self._fault,
            sleep=True,
        )

    def _fault(self, op: str, offset: int, nbytes: int) -> None:
        if self.fail_gets and op == "GET":
            raise ObjectStorageError("injected storage fault")


def _build(store, n_files=2, rows=4000):
    table = CatalogTable.create(store)
    rng = np.random.default_rng(5)
    for k in range(n_files):
        lo = k * rows
        table.append(Table({
            "ts": np.arange(lo, lo + rows, dtype=np.int64),
            "v": rng.normal(size=rows),
        }))
    return table


def _wait_for(predicate, timeout=20.0, what="condition"):
    end = time.monotonic() + timeout
    while time.monotonic() < end:
        if predicate():
            return
        time.sleep(0.01)
    raise AssertionError(f"timed out waiting for {what}")


def _value(name: str, **labels) -> float:
    return default_registry().snapshot().value(name, **labels)


# ---------------------------------------------------------------------------
# client disconnect mid-stream
# ---------------------------------------------------------------------------

def test_client_disconnect_mid_stream_cancels_and_releases():
    store = ChaosCatalogStore()
    # enough rows that the response stream cannot fit in socket
    # buffers: the server must still be producing when the client dies
    table = _build(store, rows=20_000)
    service = TableService(
        {"events": table}, workers=1, max_queue=0, queue_timeout_s=0.2
    )
    server = BullionServer(service)
    try:
        base_cancelled = _value("server_requests_cancelled_total")
        victim = ServerClient(server.host, server.port, timeout=30.0)
        victim._send({
            "op": "scan",
            "table": "events",
            "columns": ["ts", "v"],
            "batch_size": 16,  # hundreds of frames: can't all buffer
        })
        victim._read()  # header
        victim._read()  # one batch arrives fine
        # vanish without a goodbye (RST, not FIN, via SO_LINGER 0)
        victim.sock.setsockopt(
            socket.SOL_SOCKET,
            socket.SO_LINGER,
            b"\x01\x00\x00\x00\x00\x00\x00\x00",
        )
        victim.close()
        _wait_for(
            lambda: _value("server_requests_cancelled_total")
            > base_cancelled,
            what="the server to notice the disconnect",
        )
        # the single worker slot came back: a fresh request succeeds
        with ServerClient(server.host, server.port, timeout=30.0) as c:
            reply = c.query("events", ["count"], deadline_ms=60_000)
            assert reply.rows[0]["count(*)"] == 40_000
        assert _value("server_inflight_requests_current") == 0
    finally:
        server.close()


# ---------------------------------------------------------------------------
# deadline expiry inside a chunk fetch
# ---------------------------------------------------------------------------

def test_deadline_expires_inside_slow_chunk_fetch():
    store = ChaosCatalogStore()
    table = _build(store)
    service = TableService({"events": table}, workers=2, max_queue=2)
    server = BullionServer(service)
    try:
        with ServerClient(server.host, server.port, timeout=60.0) as c:
            # warm pass opens the footers while storage is fast
            c.query("events", ["count"], deadline_ms=60_000)
            base = _value("server_deadline_expirations_total")
            store.get_jitter_s = 0.2  # every GET now sleeps 200ms
            with pytest.raises(DeadlineExceeded):
                c.scan(
                    "events",
                    ["ts", "v"],
                    batch_size=64,
                    deadline_ms=100,
                )
            assert _value("server_deadline_expirations_total") > base
            store.get_jitter_s = 0.0
            # the connection survived the mid-stream error frame
            assert c.ping()["ok"] is True
    finally:
        server.close()


# ---------------------------------------------------------------------------
# injected storage faults
# ---------------------------------------------------------------------------

def test_storage_fault_is_a_typed_io_error_and_server_survives():
    store = ChaosCatalogStore()
    table = _build(store)
    service = TableService({"events": table}, workers=2, max_queue=2)
    server = BullionServer(service)
    try:
        with ServerClient(server.host, server.port, timeout=60.0) as c:
            base = _value(
                "server_request_errors_total", code="io_error"
            )
            store.fail_gets = True
            with pytest.raises(IOFault):
                c.scan("events", ["ts"], deadline_ms=60_000)
            assert (
                _value("server_request_errors_total", code="io_error")
                > base
            )
            store.fail_gets = False
            # same connection, same server: next request is fine
            reply = c.query("events", ["count"], deadline_ms=60_000)
            assert reply.rows[0]["count(*)"] == 8000
    finally:
        server.close()


# ---------------------------------------------------------------------------
# worker-pool saturation
# ---------------------------------------------------------------------------

def test_saturation_yields_typed_server_busy():
    store = ChaosCatalogStore()
    # big enough that the held scan outlives the saturation probe even
    # if the kernel buffers generously
    table = _build(store, rows=20_000)
    service = TableService(
        {"events": table},
        workers=1,
        max_queue=0,
        queue_timeout_s=0.2,
        default_deadline_s=60.0,
    )
    server = BullionServer(service)
    try:
        store.get_jitter_s = 0.05  # keep the one worker busy a while
        slow = ServerClient(server.host, server.port, timeout=60.0)
        slow._send({
            "op": "scan",
            "table": "events",
            "columns": ["ts", "v"],
            "batch_size": 32,
        })
        slow._read()  # the stream started: the worker slot is held
        _wait_for(
            lambda: _value("server_inflight_requests_current") >= 1,
            what="the slow scan to occupy the worker",
        )
        base = _value(
            "server_requests_rejected_total", reason="queue_full"
        )
        with ServerClient(server.host, server.port, timeout=30.0) as c:
            with pytest.raises(ServerBusy):
                c.query("events", ["count"])
            # the rejection is observable and typed
            assert (
                _value(
                    "server_requests_rejected_total",
                    reason="queue_full",
                )
                > base
            )
            # non-admitted ops still work while saturated
            assert c.ping()["ok"] is True
        store.get_jitter_s = 0.0
        slow.close()
    finally:
        server.close()


# ---------------------------------------------------------------------------
# leak + reconciliation sweep
# ---------------------------------------------------------------------------

def _fd_count() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="needs /proc"
)
def test_no_leaked_fds_or_threads_and_counters_reconcile(tmp_path):
    store = DirectoryCatalogStore(str(tmp_path / "tbl"))
    # enough rows that the rude client's reply cannot fit in socket
    # buffers: "cancelled" is only observable while the server is
    # still streaming when the RST lands
    table = _build(store, n_files=2, rows=20_000)
    threads_before = threading.active_count()
    fds_before = _fd_count()
    reg = default_registry()
    base = reg.snapshot()

    service = TableService(
        {"events": table}, workers=2, max_queue=2, queue_timeout_s=0.2
    )
    server = BullionServer(service)
    # a mixed workload: successes, typed errors, one rude disconnect
    with ServerClient(server.host, server.port, timeout=30.0) as c:
        c.query("events", ["count", "sum(v)"])
        c.scan("events", ["ts"], where="ts < 200", batch_size=64)
        with pytest.raises(Exception):
            c.query("nope", ["count"])
        with pytest.raises(Exception):
            c.query("events", ["frobnicate(v)"])
    rude = ServerClient(server.host, server.port, timeout=30.0)
    rude._send({
        "op": "scan",
        "table": "events",
        "columns": ["ts", "v"],
        "batch_size": 8,
    })
    rude._read()
    rude.sock.setsockopt(
        socket.SOL_SOCKET,
        socket.SO_LINGER,
        b"\x01\x00\x00\x00\x00\x00\x00\x00",
    )
    rude.close()
    _wait_for(
        lambda: reg.delta(base).value("server_requests_cancelled_total")
        >= 1,
        what="the cancelled request to be accounted",
    )
    server.close()

    # -- leaks ----------------------------------------------------------
    _wait_for(
        lambda: threading.active_count() == threads_before,
        what="server threads to exit",
    )
    assert _fd_count() == fds_before, "file descriptors leaked"

    # -- exact reconciliation ------------------------------------------
    delta = reg.delta(base)
    ops = ("ping", "health", "metrics", "tables", "snapshot", "scan",
           "query", "unknown", "http")
    requests = sum(
        delta.value("server_requests_total", op=op) for op in ops
    )
    responses = sum(
        delta.value("server_responses_total", outcome=o)
        for o in ("ok", "error", "rejected", "cancelled")
    )
    assert requests == responses > 0
    assert delta.value(
        "server_connections_opened_total"
    ) == delta.value("server_connections_closed_total")
    assert delta.value("server_connections_current") == 0
    assert delta.value("server_inflight_requests_current") == 0
    assert delta.value("server_queued_requests_current") == 0
