"""Wire protocol for the scan/query server.

Length-prefixed JSON frames over a byte stream: each frame is a 4-byte
big-endian payload length followed by that many bytes of canonical
JSON.  *Canonical* means ``sort_keys`` + compact separators + ASCII —
one logical payload has exactly one byte representation, which is what
lets the differential harness assert that a server response is
**byte-identical** to a single-threaded :class:`PinnedSnapshot` replay
of the same ``(snapshot_id, plan)`` pair.

Payload conventions:

* every request is one object with an ``"op"`` key;
* a single-frame response carries ``"ok": true`` (or an ``"error"``
  object with a typed ``code``);
* a scan response is a frame *stream*: one header frame, one frame per
  batch (``{"batch": …}``), then ``{"end": true, …}``; a typed error
  frame may replace any of them (deadline expiry mid-stream).

Column values travel as raw little-endian bytes (base64) plus a dtype
string, so numpy arrays round-trip bit-exactly — floats never pass
through decimal text.  Scalar values in query rows use a small JSON
escape scheme (``{"$b": …}`` for bytes, ``{"$f": …}`` for non-finite
floats) that is reversible and canonical.

The replay helpers at the bottom rebuild response frames from a pinned
snapshot through the *same* builders the server uses — the shared code
path is the point: the differential tests compare bytes produced by
one encoder fed by two execution paths (concurrent server vs
single-threaded library).
"""

from __future__ import annotations

import base64
import json
import math
import struct

import numpy as np

from repro.core.table import Table
from repro.encodings.base import EncodingError, RaggedColumn

__all__ = [
    "MAX_FRAME_BYTES",
    "ProtocolError",
    "ServerError",
    "BadRequest",
    "BadPlan",
    "UnknownTable",
    "UnknownSnapshot",
    "DeadlineExceeded",
    "ServerBusy",
    "IOFault",
    "ERROR_TYPES",
    "error_for",
    "dumps_canonical",
    "loads",
    "read_frame",
    "send_frame",
    "encode_table",
    "decode_table",
    "jsonify_value",
    "dejsonify_value",
    "canonical_query_plan",
    "canonical_scan_plan",
    "plan_key",
    "expr_from_doc",
    "query_payload",
    "encode_query_rows",
    "scan_payload_iter",
    "replay_query_frame",
    "replay_scan_frames",
]

#: Upper bound on a single frame; a peer announcing more is treated as
#: a protocol violation (garbage or a non-protocol client), not an
#: allocation request.
MAX_FRAME_BYTES = 256 << 20

_LEN = struct.Struct("!I")

#: operations the server understands (used for metric label hygiene)
KNOWN_OPS = (
    "ping",
    "health",
    "metrics",
    "tables",
    "snapshot",
    "scan",
    "query",
)


class ProtocolError(ValueError):
    """Malformed frame or payload on the wire."""


# ---------------------------------------------------------------------------
# typed errors (server-side raise, client-side re-raise)
# ---------------------------------------------------------------------------

class ServerError(Exception):
    """Base of every typed error the server reports to a client."""

    code = "internal"

    def __init__(self, message: str, code: str | None = None):
        super().__init__(message)
        if code is not None:
            self.code = code

    def payload(self) -> dict:
        return {
            "ok": False,
            "error": {"code": self.code, "message": str(self)},
        }


class BadRequest(ServerError):
    """Structurally invalid request (missing/ill-typed fields)."""

    code = "bad_request"


class BadPlan(ServerError):
    """Well-formed request naming an unexecutable plan."""

    code = "bad_plan"


class UnknownTable(ServerError):
    code = "unknown_table"


class UnknownSnapshot(ServerError):
    code = "unknown_snapshot"


class DeadlineExceeded(ServerError):
    code = "deadline_exceeded"


class ServerBusy(ServerError):
    """Admission control refused the request (pool + queue full)."""

    code = "server_busy"

    def __init__(self, message: str, reason: str = "queue_full"):
        super().__init__(message)
        self.reason = reason


class IOFault(ServerError):
    """A storage backend failed mid-request (fault injection, EIO)."""

    code = "io_error"


ERROR_TYPES = {
    cls.code: cls
    for cls in (
        ServerError,
        BadRequest,
        BadPlan,
        UnknownTable,
        UnknownSnapshot,
        DeadlineExceeded,
        ServerBusy,
        IOFault,
    )
}


def error_for(code: str, message: str) -> ServerError:
    """Rebuild the typed exception for an error payload (client side)."""
    cls = ERROR_TYPES.get(code, ServerError)
    err = cls(message)
    err.code = code
    return err


# ---------------------------------------------------------------------------
# framing
# ---------------------------------------------------------------------------

def dumps_canonical(doc) -> bytes:
    """One logical payload → exactly one byte string."""
    return json.dumps(
        doc,
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=True,
        allow_nan=False,
    ).encode("utf-8")


def loads(payload: bytes) -> dict:
    try:
        doc = json.loads(payload)
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"frame is not JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ProtocolError(
            f"frame must be a JSON object, got {type(doc).__name__}"
        )
    return doc


def _recv_exact(sock, n: int) -> bytes | None:
    """Read exactly ``n`` bytes; None on clean EOF at a boundary."""
    parts = []
    got = 0
    while got < n:
        chunk = sock.recv(min(n - got, 1 << 20))
        if not chunk:
            if got == 0:
                return None
            raise ConnectionError(
                f"peer closed mid-frame ({got}/{n} bytes)"
            )
        parts.append(chunk)
        got += len(chunk)
    return b"".join(parts)


def read_frame(sock, counter=None) -> bytes | None:
    """One frame's payload bytes, or None when the peer closed cleanly.

    ``counter(n)`` (optional) is called with the total bytes consumed —
    the server feeds ``server_bytes_received_total``.
    """
    header = _recv_exact(sock, _LEN.size)
    if header is None:
        return None
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {length} bytes exceeds the {MAX_FRAME_BYTES} cap"
        )
    payload = _recv_exact(sock, length) if length else b""
    if payload is None:
        raise ConnectionError("peer closed between header and payload")
    if counter is not None:
        counter(_LEN.size + length)
    return payload


def send_frame(sock, payload: bytes, counter=None) -> None:
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"refusing to send a {len(payload)}-byte frame"
        )
    sock.sendall(_LEN.pack(len(payload)) + payload)
    if counter is not None:
        counter(_LEN.size + len(payload))


# ---------------------------------------------------------------------------
# column / table codec (bit-exact)
# ---------------------------------------------------------------------------

def _b64e(raw: bytes) -> str:
    return base64.b64encode(raw).decode("ascii")


def _b64d(text: str) -> bytes:
    try:
        return base64.b64decode(text, validate=True)
    except (ValueError, TypeError) as exc:
        raise ProtocolError(f"bad base64 column data: {exc}") from None


def _encode_column(values) -> dict:
    if isinstance(values, np.ndarray):
        doc = {"k": "nd", "dt": values.dtype.str, "b": _b64e(values.tobytes())}
        if values.ndim != 1:
            doc["shape"] = list(values.shape)
        return doc
    if isinstance(values, list) and values and isinstance(values[0], np.ndarray):
        values = RaggedColumn.from_rows(values)
    if isinstance(values, RaggedColumn):
        values = values.compact()  # rows back to back: offsets say it all
        return {
            "k": "rag",
            "dt": values.values.dtype.str,
            "b": _b64e(values.values.tobytes()),
            "o": _b64e(values.offsets().astype("<i8").tobytes()),
        }
    if isinstance(values, list):
        if all(isinstance(v, (bytes, bytearray)) for v in values):
            return {"k": "by", "v": [_b64e(bytes(v)) for v in values]}
    raise ProtocolError(
        f"cannot encode column values of type {type(values).__name__}"
    )


def _decode_column(doc: dict):
    kind = doc.get("k")
    if kind == "nd":
        arr = np.frombuffer(_b64d(doc["b"]), dtype=np.dtype(doc["dt"]))
        shape = doc.get("shape")
        arr = arr.copy()  # frombuffer views are read-only
        if shape is not None:
            arr = arr.reshape(shape)
        return arr
    if kind == "rag":
        try:
            return RaggedColumn.from_offsets(
                np.frombuffer(_b64d(doc["b"]), dtype=np.dtype(doc["dt"])),
                np.frombuffer(_b64d(doc["o"]), dtype="<i8"),
            )
        except EncodingError as exc:
            raise ProtocolError(f"bad list column: {exc}") from None
    if kind == "by":
        return [_b64d(v) for v in doc["v"]]
    raise ProtocolError(f"unknown column kind {kind!r}")


def encode_table(table: Table) -> dict:
    """A batch as JSON: explicit column order + bit-exact payloads."""
    return {
        "cols": [
            [name, _encode_column(values)]
            for name, values in table.columns.items()
        ],
        "rows": table.num_rows,
    }


def decode_table(doc: dict) -> Table:
    try:
        cols = doc["cols"]
    except (KeyError, TypeError):
        raise ProtocolError("batch frame lacks 'cols'") from None
    return Table({name: _decode_column(col) for name, col in cols})


# ---------------------------------------------------------------------------
# scalar value codec (query rows)
# ---------------------------------------------------------------------------

def jsonify_value(v):
    """One query-row scalar → canonical JSON-able value."""
    if v is None or isinstance(v, bool):
        return v
    if isinstance(v, (bytes, bytearray)):
        return {"$b": _b64e(bytes(v))}
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        v = float(v)
        if not math.isfinite(v):
            return {"$f": repr(v)}
        return v
    if isinstance(v, str):
        return v
    raise ProtocolError(f"cannot encode scalar {type(v).__name__}")


def dejsonify_value(v):
    if isinstance(v, dict):
        if "$b" in v:
            return _b64d(v["$b"])
        if "$f" in v:
            return float(v["$f"])
        raise ProtocolError(f"unknown scalar escape {sorted(v)}")
    return v


def encode_query_rows(rows: list[dict]) -> list[dict]:
    return [
        {name: jsonify_value(value) for name, value in row.items()}
        for row in rows
    ]


def decode_query_rows(rows: list[dict]) -> list[dict]:
    return [
        {name: dejsonify_value(value) for name, value in row.items()}
        for row in rows
    ]


# ---------------------------------------------------------------------------
# plan canonicalization (cache keys + replay inputs)
# ---------------------------------------------------------------------------

def _normalize_where(where_doc):
    """Round-trip a wire ``where`` through the AST → canonical form."""
    if where_doc is None:
        return None
    from repro.expr import Expr, parse

    try:
        if isinstance(where_doc, str):
            return parse(where_doc).to_dict()
        if isinstance(where_doc, dict):
            return Expr.from_dict(where_doc).to_dict()
    except (KeyError, ValueError, TypeError) as exc:
        raise BadPlan(f"bad where expression: {exc}") from None
    raise BadPlan(
        f"where must be an expression object or string, "
        f"got {type(where_doc).__name__}"
    )


def expr_from_doc(where_doc):
    """The executable :class:`Expr` for a canonical ``where`` doc."""
    if where_doc is None:
        return None
    from repro.expr import Expr

    return Expr.from_dict(where_doc)


def canonical_query_plan(doc: dict) -> dict:
    """Normalize a query request into its canonical plan document.

    The same logical plan — reordered keys, ``"sum( v )"`` spelling
    variants, string vs AST filters — maps to one document, so the
    result cache keys on meaning, not spelling.
    """
    from repro.query.plan import PlanError, QueryPlan

    aggregates = doc.get("aggregates")
    if not isinstance(aggregates, list) or not aggregates:
        raise BadPlan("query needs a non-empty 'aggregates' list")
    group_by = doc.get("group_by") or []
    if isinstance(group_by, str):
        group_by = [group_by]
    if not isinstance(group_by, list) or not all(
        isinstance(g, str) for g in group_by
    ):
        raise BadPlan("group_by must be a list of column names")
    try:
        plan = QueryPlan.build(aggregates, group_by=group_by)
    except PlanError as exc:
        raise BadPlan(str(exc)) from None
    return {
        "aggregates": [a.name for a in plan.aggregates],
        "group_by": list(plan.group_by),
        "where": _normalize_where(doc.get("where")),
    }


def canonical_scan_plan(doc: dict) -> dict:
    columns = doc.get("columns")
    if (
        not isinstance(columns, list)
        or not columns
        or not all(isinstance(c, str) for c in columns)
    ):
        raise BadPlan("scan needs a non-empty 'columns' list of names")
    batch_size = doc.get("batch_size")
    if batch_size is not None and (
        not isinstance(batch_size, int)
        or isinstance(batch_size, bool)
        or batch_size <= 0
    ):
        raise BadPlan("batch_size must be a positive integer")
    return {
        "columns": list(columns),
        "batch_size": batch_size,
        "where": _normalize_where(doc.get("where")),
        "widen": bool(doc.get("widen_quantized", False)),
    }


def plan_key(kind: str, snapshot_id: int, plan: dict) -> bytes:
    """The ``(snapshot_id, canonical plan)`` cache key."""
    return dumps_canonical([kind, snapshot_id, plan])


# ---------------------------------------------------------------------------
# response payload builders (shared by server and replay)
# ---------------------------------------------------------------------------

def query_payload(snapshot_id: int, wire_rows: list[dict]) -> dict:
    return {
        "ok": True,
        "op": "query",
        "snapshot_id": snapshot_id,
        "rows": wire_rows,
    }


def scan_payload_iter(pin, snapshot_id: int, plan: dict):
    """The scan response frames for one canonical plan over one pin."""
    columns = plan["columns"]
    where = expr_from_doc(plan["where"])
    scan_kwargs: dict = {}
    if where is not None:
        scan_kwargs["where"] = where
    if plan.get("widen"):
        scan_kwargs["widen_quantized"] = True
    yield {
        "ok": True,
        "op": "scan",
        "snapshot_id": snapshot_id,
        "columns": list(columns),
    }
    batches = 0
    rows = 0
    for batch in pin.scan(
        columns, batch_size=plan.get("batch_size"), **scan_kwargs
    ):
        batches += 1
        rows += batch.num_rows
        yield {"batch": encode_table(batch)}
    yield {"end": True, "batches": batches, "rows": rows}


# ---------------------------------------------------------------------------
# single-threaded replay (the differential oracle)
# ---------------------------------------------------------------------------

def replay_query_frame(pin, snapshot_id: int, plan: dict) -> bytes:
    """The exact response bytes the server must have sent for
    ``(snapshot_id, plan)`` — computed on the library path."""
    result = pin.query(
        plan["aggregates"],
        where=expr_from_doc(plan["where"]),
        group_by=plan["group_by"] or None,
    )
    return dumps_canonical(
        query_payload(snapshot_id, encode_query_rows(result.rows))
    )


def replay_scan_frames(pin, snapshot_id: int, plan: dict) -> list[bytes]:
    """Every scan frame's bytes, via the library path, in order."""
    return [
        dumps_canonical(payload)
        for payload in scan_payload_iter(pin, snapshot_id, plan)
    ]
