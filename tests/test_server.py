"""Serving layer: protocol, caches and server integration.

Covers the wire codec round-trips (bit-exact, including NaN and raw
bytes), plan canonicalization (spelling variants collapse to one cache
key), the admission controller and deadline primitives in isolation,
and a live server end-to-end: every op, typed errors, time travel, the
result cache and the HTTP probe surface.
"""

from __future__ import annotations

import json
import math
import socket
import threading
import urllib.request

import numpy as np
import pytest

from repro.catalog import CatalogTable, MemoryCatalogStore
from repro.core.table import Table
from repro.server import (
    AdmissionController,
    BullionServer,
    Deadline,
    ServerBusy,
    ServerClient,
    TableService,
    protocol,
)
from repro.server.protocol import (
    BadPlan,
    BadRequest,
    DeadlineExceeded,
    ProtocolError,
    UnknownSnapshot,
    UnknownTable,
)


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

def build_table(n_files=3, rows=120, seed=0):
    store = MemoryCatalogStore()
    table = CatalogTable.create(store)
    rng = np.random.default_rng(seed)
    for k in range(n_files):
        lo = k * rows
        table.append(Table({
            "ts": np.arange(lo, lo + rows, dtype=np.int64),
            "v": rng.normal(size=rows),
            "region": rng.integers(0, 5, size=rows).astype(np.int32),
        }))
    return store, table


@pytest.fixture()
def served():
    _store, table = build_table()
    service = TableService({"events": table}, workers=2, max_queue=4)
    server = BullionServer(service)
    client = ServerClient(server.host, server.port, timeout=30.0)
    try:
        yield server, client, table
    finally:
        client.close()
        server.close()


# ---------------------------------------------------------------------------
# framing + codecs
# ---------------------------------------------------------------------------

def test_frame_roundtrip_over_socketpair():
    a, b = socket.socketpair()
    try:
        payload = protocol.dumps_canonical({"op": "ping", "n": 1})
        protocol.send_frame(a, payload)
        assert protocol.read_frame(b) == payload
        a.close()
        assert protocol.read_frame(b) is None  # clean EOF
    finally:
        b.close()


def test_frame_rejects_oversize_header():
    a, b = socket.socketpair()
    try:
        a.sendall((protocol.MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
        with pytest.raises(ProtocolError):
            protocol.read_frame(b)
    finally:
        a.close()
        b.close()


def test_canonical_json_is_deterministic():
    one = protocol.dumps_canonical({"b": 1, "a": [1, 2]})
    two = protocol.dumps_canonical({"a": [1, 2], "b": 1})
    assert one == two == b'{"a":[1,2],"b":1}'


def test_table_codec_bit_exact_roundtrip():
    rng = np.random.default_rng(3)
    table = Table({
        "f": rng.normal(size=17),
        "i": rng.integers(-(2**40), 2**40, size=17),
        "s": [f"row-{k}".encode() for k in range(17)],
    })
    doc = protocol.encode_table(table)
    # the doc must survive canonical JSON, not just Python round-trip
    back = protocol.decode_table(
        json.loads(protocol.dumps_canonical(doc))
    )
    assert list(back.columns) == list(table.columns)  # order preserved
    assert back.equals(table)
    assert back.column("f").tobytes() == table.column("f").tobytes()


def test_table_codec_preserves_nan_and_inf_bits():
    values = np.array([math.nan, math.inf, -math.inf, -0.0])
    back = protocol.decode_table(
        protocol.encode_table(Table({"x": values}))
    )
    assert back.column("x").tobytes() == values.tobytes()


def test_scalar_codec_escapes():
    row = {"a": float("nan"), "b": b"\x00\xff", "c": 7, "d": None}
    wire = protocol.encode_query_rows([row])
    protocol.dumps_canonical(wire)  # NaN must be representable
    (back,) = protocol.decode_query_rows(
        json.loads(protocol.dumps_canonical(wire))
    )
    assert math.isnan(back["a"])
    assert back["b"] == b"\x00\xff"
    assert back["c"] == 7 and back["d"] is None


# ---------------------------------------------------------------------------
# plan canonicalization
# ---------------------------------------------------------------------------

def test_query_plan_spelling_variants_share_a_key():
    base = protocol.canonical_query_plan(
        {"aggregates": ["count", "sum(v)"], "where": "region >= 2"}
    )
    spaced = protocol.canonical_query_plan({
        "aggregates": ["count", "sum( v )"],
        "where": protocol.expr_from_doc(base["where"]).to_dict(),
    })
    assert protocol.plan_key("query", 3, base) == protocol.plan_key(
        "query", 3, spaced
    )
    # a different snapshot is a different key
    assert protocol.plan_key("query", 4, base) != protocol.plan_key(
        "query", 3, base
    )


def test_bad_plans_are_typed():
    with pytest.raises(BadPlan):
        protocol.canonical_query_plan({"aggregates": []})
    with pytest.raises(BadPlan):
        protocol.canonical_query_plan(
            {"aggregates": ["frobnicate(v)"]}
        )
    with pytest.raises(BadPlan):
        protocol.canonical_scan_plan({"columns": ["a"], "where": 7})
    with pytest.raises(BadPlan):
        protocol.canonical_scan_plan({"columns": ["a"], "batch_size": 0})
    with pytest.raises(BadPlan):
        protocol.canonical_scan_plan({"columns": []})


# ---------------------------------------------------------------------------
# deadline + admission primitives
# ---------------------------------------------------------------------------

def test_deadline_expires_and_raises():
    assert Deadline(None).remaining() is None
    assert not Deadline(None).expired()
    d = Deadline(0.0)
    assert d.expired()
    with pytest.raises(DeadlineExceeded):
        d.check()
    Deadline(60.0).check()  # plenty of time: no raise


def test_admission_rejects_when_full_and_recovers():
    ctl = AdmissionController(workers=1, max_queue=0, queue_timeout_s=0.05)
    ctl.acquire()
    with pytest.raises(ServerBusy) as exc:
        ctl.acquire()
    assert exc.value.reason == "queue_full"
    ctl.release()
    ctl.acquire()  # slot is back
    ctl.release()
    assert ctl.stats() == {"inflight": 0, "queued": 0}


def test_admission_queue_timeout_reason():
    ctl = AdmissionController(workers=1, max_queue=4, queue_timeout_s=0.05)
    ctl.acquire()
    with pytest.raises(ServerBusy) as exc:
        ctl.acquire()
    assert exc.value.reason == "queue_timeout"
    ctl.release()


def test_admission_queued_request_gets_the_freed_slot():
    ctl = AdmissionController(workers=1, max_queue=2, queue_timeout_s=5.0)
    ctl.acquire()
    got = threading.Event()

    def waiter():
        ctl.acquire()
        got.set()
        ctl.release()

    thread = threading.Thread(target=waiter)
    thread.start()
    ctl.release()
    assert got.wait(5.0), "queued request never admitted"
    thread.join(5.0)


# ---------------------------------------------------------------------------
# server integration
# ---------------------------------------------------------------------------

def test_simple_ops(served):
    _server, client, table = served
    assert client.ping(echo="x")["echo"] == "x"
    health = client.health()
    assert health["status"] == "serving" and health["tables"] == ["events"]
    (entry,) = client.tables()
    assert entry["rows"] == 360 and entry["files"] == 3
    head = table.current_snapshot().snapshot_id
    info = client.snapshot("events")
    assert info["snapshot_id"] == head and info["rows"] == 360


def test_query_matches_library_and_caches(served):
    _server, client, table = served
    reply = client.query(
        "events", ["count", "sum(region)"], where="region >= 2"
    )
    pin = table.pin(snapshot_id=reply.snapshot_id)
    try:
        expect = pin.query(
            ["count", "sum(region)"],
            where=protocol.expr_from_doc(
                protocol.canonical_query_plan(
                    {"aggregates": ["count"], "where": "region >= 2"}
                )["where"]
            ),
        ).rows
        assert reply.rows == expect
        # spelling variant: same canonical plan, so identical bytes
        again = client.query(
            "events", ["count", "sum( region )"], where="region >= 2"
        )
        assert again.raw == reply.raw
    finally:
        pin.release()


def test_scan_matches_library_bytes(served):
    _server, client, table = served
    reply = client.scan(
        "events", ["ts", "v"], where="region = 1", batch_size=50
    )
    pin = table.pin(snapshot_id=reply.snapshot_id)
    try:
        plan = protocol.canonical_scan_plan({
            "columns": ["ts", "v"],
            "where": "region = 1",
            "batch_size": 50,
        })
        assert reply.raw_frames == protocol.replay_scan_frames(
            pin, reply.snapshot_id, plan
        )
    finally:
        pin.release()
    # and a second identical scan replays the same bytes (plan cache)
    again = client.scan(
        "events", ["ts", "v"], where="region = 1", batch_size=50
    )
    assert again.raw_frames == reply.raw_frames


def test_time_travel_snapshots(served):
    _server, client, table = served
    old = table.current_snapshot().snapshot_id
    table.append(Table({
        "ts": np.arange(1000, 1050, dtype=np.int64),
        "v": np.zeros(50),
        "region": np.full(50, 9, dtype=np.int32),
    }))
    head = client.query("events", ["count"])
    assert head.rows[0]["count(*)"] == 410
    past = client.query("events", ["count"], snapshot_id=old)
    assert past.rows[0]["count(*)"] == 360
    ts = table.snapshot(old).timestamp_ms
    as_of = client.query("events", ["count"], as_of=ts)
    assert as_of.snapshot_id == old


def test_typed_errors_over_the_wire(served):
    _server, client, _table = served
    with pytest.raises(UnknownTable):
        client.query("nope", ["count"])
    with pytest.raises(UnknownSnapshot):
        client.query("events", ["count"], snapshot_id=999)
    with pytest.raises(BadRequest, match="non-negative"):
        client.query("events", ["count"], snapshot_id=-1)
    with pytest.raises(BadPlan):
        client.query("events", ["frobnicate(v)"])
    with pytest.raises(BadPlan):
        client.scan("events", ["no_such_column"])
    # the connection survives every typed error
    assert client.ping()["ok"] is True


def test_a_bad_filter_fails_alike_when_every_file_is_pruned():
    """Each bad scan filter gets the same typed error whether or not
    the manifest prunes every file: never an empty reply."""
    table = CatalogTable.create(MemoryCatalogStore())
    for k in range(3):
        table.append(Table({
            "ts": np.arange(10 * k, 10 * k + 10, dtype=np.int64),
            "seq": [np.arange(i % 3, dtype=np.int64) for i in range(10)],
        }))
    server = BullionServer(TableService({"events": table}, workers=1))
    try:
        with ServerClient(server.host, server.port, timeout=30.0) as client:
            for bad in ("nope == 1", "seq == 1"):
                errors = []
                for where in (bad, f"ts > 1000 and {bad}"):
                    with pytest.raises(protocol.ServerError) as exc:
                        client.scan("events", ["ts"], where=where)
                    errors.append(type(exc.value))
                assert errors[0] is errors[1]
            with pytest.raises(BadPlan):
                client.scan("events", ["ts"], where="ts > 1000 and nope == 1")
            assert client.ping()["ok"] is True
    finally:
        server.close()


def test_unknown_op_and_bad_frames(served):
    server, _client, _table = served
    with socket.create_connection(
        (server.host, server.port), timeout=10
    ) as sock:
        protocol.send_frame(
            sock, protocol.dumps_canonical({"op": "dance"})
        )
        doc = protocol.loads(protocol.read_frame(sock))
        assert doc["error"]["code"] == "bad_request"
        # non-JSON payload: typed error, then the server drops the
        # stream (framing can no longer be trusted)
        protocol.send_frame(sock, b"\x00not json")
        doc = protocol.loads(protocol.read_frame(sock))
        assert doc["error"]["code"] == "bad_request"
        assert protocol.read_frame(sock) is None


def test_http_probe_surface(served):
    server, _client, _table = served
    base = f"http://{server.host}:{server.port}"
    with urllib.request.urlopen(base + "/health", timeout=10) as resp:
        doc = json.loads(resp.read())
        assert resp.status == 200 and doc["status"] == "serving"
    with urllib.request.urlopen(base + "/metrics", timeout=10) as resp:
        text = resp.read().decode()
        assert "server_requests_total" in text
    with pytest.raises(urllib.error.HTTPError):
        urllib.request.urlopen(base + "/nope", timeout=10)


def test_metrics_op_reports_server_families(served):
    _server, client, _table = served
    client.query("events", ["count"])
    text = client.metrics_text()
    assert 'server_requests_total{op="query"}' in text


def test_server_close_is_idempotent_and_joins_threads():
    _store, table = build_table(n_files=1, rows=10)
    own_pool = table.reader_provider
    before = threading.active_count()
    service = TableService({"t": table}, workers=1, max_queue=1)
    server = BullionServer(service)
    assert table.reader_provider is not own_pool
    with ServerClient(server.host, server.port) as client:
        client.ping()
    server.close()
    server.close()
    assert threading.active_count() == before
    # the service restored the table's own reader pool on close
    assert table.reader_provider is own_pool
