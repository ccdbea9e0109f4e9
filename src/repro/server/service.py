"""Request execution for the scan/query server.

:class:`TableService` is the transport-independent half of the server:
it owns the open :class:`~repro.catalog.table.CatalogTable` handles and
every cache in :mod:`repro.server.cache`, admits requests through a
bounded worker pool, and turns request documents into response payload
dicts (or, for scans, a lazy payload stream).  :mod:`repro.server.net`
wraps it in sockets; the tests drive it directly.

Concurrency model
-----------------

* Readers are immutable after construction and pins are refcounted, so
  any number of requests share one reader/pin freely; the caches are
  the only mutable shared state and each is internally locked.
* Admission control bounds the number of *executing* scan/query
  requests (``workers``) plus a bounded wait queue (``max_queue``);
  beyond that, requests fail fast with a typed ``server_busy`` error
  rather than queueing unboundedly — the paper's "serve many tenants
  predictably" stance.
* Deadlines are cooperative: :class:`Deadline` is checked at batch
  boundaries and before/after cache and I/O steps.  A deadline that
  expires inside a chunk fetch surfaces as soon as that fetch returns.

Cache invalidation is event-driven, not polled: the service registers
a :func:`repro.core.chunk_cache.add_mutation_listener` hook, so the
writer-finish and deletion-scrub call sites that announce an in-place
mutation also invalidate exactly the affected pooled readers, cached
pins and results — fingerprint keys make a stale read structurally
impossible, this layer makes it *cheap*.
"""

from __future__ import annotations

import threading
import time

from repro.core import chunk_cache as core_chunk_cache
from repro.core.chunk_cache import storage_identity
from repro.obs import metrics as obs_metrics
from repro.obs import families as fam
from repro.expr import VectorEvalError
from repro.query.plan import PlanError

from repro.server import protocol
from repro.server.cache import (
    RESULT_CACHE_ENTRIES,
    KeyedCache,
    PinCache,
    ServerReaderPool,
)
from repro.server.protocol import (
    BadPlan,
    BadRequest,
    DeadlineExceeded,
    ServerBusy,
    UnknownSnapshot,
    UnknownTable,
)

__all__ = ["Deadline", "AdmissionController", "TableService"]


class Deadline:
    """Cooperative per-request deadline on the monotonic clock."""

    __slots__ = ("_expires_at",)

    def __init__(self, seconds: float | None):
        self._expires_at = (
            None if seconds is None else time.monotonic() + max(0.0, seconds)
        )

    def remaining(self) -> float | None:
        if self._expires_at is None:
            return None
        return self._expires_at - time.monotonic()

    def expired(self) -> bool:
        rem = self.remaining()
        return rem is not None and rem <= 0

    def check(self) -> None:
        if self.expired():
            if obs_metrics.enabled():
                fam.SERVER_DEADLINE_EXPIRED.inc()
            raise DeadlineExceeded("request deadline exceeded")


class AdmissionController:
    """Bounded worker pool + bounded wait queue (fail-fast beyond).

    ``acquire`` returns once the request holds one of the ``workers``
    execution slots.  At most ``max_queue`` requests wait for a slot at
    a time; a request that would overflow the queue, or that waits
    longer than ``queue_timeout_s``, is rejected with a typed
    ``server_busy`` error naming the reason.
    """

    def __init__(
        self,
        workers: int,
        max_queue: int,
        queue_timeout_s: float = 5.0,
    ) -> None:
        self.workers = max(1, workers)
        self.max_queue = max(0, max_queue)
        self.queue_timeout_s = queue_timeout_s
        self._cond = threading.Condition()
        self._inflight = 0
        self._queued = 0

    def acquire(self, deadline: Deadline | None = None) -> None:
        with self._cond:
            if self._inflight < self.workers:
                self._inflight += 1
                self._publish()
                return
            if self._queued >= self.max_queue:
                self._reject("queue_full")
            self._queued += 1
            self._publish()
            try:
                timeout = self.queue_timeout_s
                rem = deadline.remaining() if deadline is not None else None
                if rem is not None:
                    timeout = min(timeout, max(0.0, rem))
                end = time.monotonic() + timeout
                while self._inflight >= self.workers:
                    wait = end - time.monotonic()
                    if wait <= 0 or not self._cond.wait(wait):
                        if wait <= 0:
                            self._reject("queue_timeout")
                self._inflight += 1
            finally:
                self._queued -= 1
                self._publish()

    def release(self) -> None:
        with self._cond:
            self._inflight = max(0, self._inflight - 1)
            self._publish()
            self._cond.notify()

    def stats(self) -> dict:
        with self._cond:
            return {"inflight": self._inflight, "queued": self._queued}

    def _reject(self, reason: str):
        if obs_metrics.enabled():
            fam.SERVER_REJECTED.labels(reason=reason).inc()
        raise ServerBusy(
            f"server at capacity ({self.workers} workers, "
            f"{self.max_queue} queued)",
            reason=reason,
        )

    def _publish(self) -> None:
        # caller holds the condition's lock
        if obs_metrics.enabled():
            fam.SERVER_INFLIGHT.set(self._inflight)
            fam.SERVER_QUEUED.set(self._queued)


class _TableState:
    """Everything the service holds open for one served table."""

    def __init__(self, name: str, table) -> None:
        self.name = name
        self.table = table
        self.prior_provider = table.reader_provider
        self.pool = ServerReaderPool(
            table.store,
            chunk_cache=table.chunk_cache,
            reader_options=table.reader_options,
        )
        table.reader_provider = self.pool
        self.pins = PinCache(table)
        self.results = KeyedCache(
            RESULT_CACHE_ENTRIES,
            fam.SERVER_RESULT_CACHE_HITS,
            fam.SERVER_RESULT_CACHE_MISSES,
            "results",
        )

    def close(self) -> None:
        self.results.clear()
        self.pins.close()
        self.table.reader_provider = self.prior_provider
        self.pool.close()


class TableService:
    """Multi-tenant scan/query execution over open catalog tables.

    ``tables`` maps served name → :class:`CatalogTable`.  The service
    installs itself as each table's ``reader_provider`` (restored on
    :meth:`close`), so *every* pin taken through the service shares one
    footer parse per file.
    """

    def __init__(
        self,
        tables: dict,
        *,
        workers: int = 4,
        max_queue: int = 8,
        queue_timeout_s: float = 5.0,
        default_deadline_s: float | None = 30.0,
    ) -> None:
        if not tables:
            raise ValueError("serve at least one table")
        self.admission = AdmissionController(
            workers, max_queue, queue_timeout_s
        )
        self.default_deadline_s = default_deadline_s
        self._tables = {
            name: _TableState(name, table) for name, table in tables.items()
        }
        self._started_at = time.monotonic()
        self._closed = False
        core_chunk_cache.add_mutation_listener(self._on_mutation)

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        core_chunk_cache.remove_mutation_listener(self._on_mutation)
        for state in self._tables.values():
            state.close()

    def __enter__(self) -> "TableService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- invalidation ---------------------------------------------------
    def _on_mutation(self, storage) -> None:
        """An in-place mutation (scrub) hit ``storage``: evict exactly
        the pooled reader, pins and results that touch it."""
        identity = storage_identity(storage)
        for state in self._tables.values():
            file_id = state.pool.file_for_identity(identity)
            if file_id is not None:
                for cache in (state.pool, state.pins, state.results):
                    cache.invalidate([file_id])
                state.table.invalidate_files([file_id])

    # -- request plumbing ----------------------------------------------
    def deadline_for(self, doc: dict) -> Deadline:
        ms = doc.get("deadline_ms")
        if ms is None:
            return Deadline(self.default_deadline_s)
        if not isinstance(ms, (int, float)) or isinstance(ms, bool) or ms <= 0:
            raise BadRequest("deadline_ms must be a positive number")
        return Deadline(float(ms) / 1000.0)

    def _state(self, doc: dict) -> _TableState:
        name = doc.get("table")
        if not isinstance(name, str):
            raise BadRequest("request needs a 'table' name")
        state = self._tables.get(name)
        if state is None:
            raise UnknownTable(f"no table named {name!r} is served")
        return state

    def _resolve_snapshot_id(self, state: _TableState, doc: dict) -> int:
        sid = doc.get("snapshot_id")
        as_of = doc.get("as_of")
        if sid is not None and as_of is not None:
            raise BadRequest("pass at most one of snapshot_id/as_of")
        try:
            if sid is not None:
                if not isinstance(sid, int) or isinstance(sid, bool):
                    raise BadRequest("snapshot_id must be an integer")
                return state.table.snapshot(sid).snapshot_id
            if as_of is not None:
                if not isinstance(as_of, int) or isinstance(as_of, bool):
                    raise BadRequest("as_of must be a millisecond timestamp")
                return state.table.as_of(as_of).snapshot_id
            return state.table.current_snapshot().snapshot_id
        except (FileNotFoundError, LookupError) as exc:
            raise UnknownSnapshot(str(exc)) from None

    def _acquire_pin(self, state: _TableState, snapshot_id: int):
        try:
            return state.pins.acquire(snapshot_id)
        except (FileNotFoundError, LookupError) as exc:
            raise UnknownSnapshot(str(exc)) from None

    # -- simple ops -----------------------------------------------------
    def ping(self, doc: dict) -> dict:
        payload = {"ok": True, "op": "ping"}
        if "echo" in doc:
            payload["echo"] = doc["echo"]
        return payload

    def health(self) -> dict:
        admission = self.admission.stats()
        return {
            "ok": True,
            "op": "health",
            "status": "serving",
            "tables": sorted(self._tables),
            "inflight": admission["inflight"],
            "queued": admission["queued"],
            "uptime_seconds": round(
                time.monotonic() - self._started_at, 3
            ),
        }

    def metrics_text(self) -> str:
        return obs_metrics.default_registry().export_text()

    def tables(self) -> dict:
        out = []
        for name in sorted(self._tables):
            state = self._tables[name]
            try:
                snap = state.table.current_snapshot()
            except (FileNotFoundError, RuntimeError):
                out.append({"name": name})
                continue
            out.append({
                "name": name,
                "snapshot_id": snap.snapshot_id,
                "files": len(snap.files),
                "rows": sum(f.row_count for f in snap.files),
            })
        return {"ok": True, "op": "tables", "tables": out}

    def snapshot_info(self, doc: dict) -> dict:
        state = self._state(doc)
        sid = self._resolve_snapshot_id(state, doc)
        snap = state.table.snapshot(sid)
        return {
            "ok": True,
            "op": "snapshot",
            "table": state.name,
            "snapshot_id": snap.snapshot_id,
            "parent_id": snap.parent_id,
            "operation": snap.operation,
            "timestamp_ms": snap.timestamp_ms,
            "files": len(snap.files),
            "rows": sum(f.row_count for f in snap.files),
        }

    # -- query ----------------------------------------------------------
    def query(self, doc: dict, deadline: Deadline) -> dict:
        """One aggregation request → its full response payload.

        Results are cached on ``(snapshot_id, canonical plan)``; a hit
        re-serves the stored wire rows without pinning anything.
        """
        state = self._state(doc)
        plan = protocol.canonical_query_plan(doc)
        sid = self._resolve_snapshot_id(state, doc)
        deadline.check()
        key = protocol.plan_key("query", sid, plan)
        wire_rows = state.results.get(key)
        if wire_rows is None:
            pin = self._acquire_pin(state, sid)
            try:
                result = pin.query(
                    plan["aggregates"],
                    where=protocol.expr_from_doc(plan["where"]),
                    group_by=plan["group_by"] or None,
                )
                deadline.check()
                wire_rows = protocol.encode_query_rows(result.rows)
                state.results.put(key, wire_rows, pin.snapshot.file_ids())
            except (PlanError, VectorEvalError) as exc:
                raise BadPlan(str(exc)) from None
            finally:
                state.pins.release(sid, pin)
        deadline.check()
        return protocol.query_payload(sid, wire_rows)

    # -- scan ------------------------------------------------------------
    def scan(self, doc: dict, deadline: Deadline, checkpoint=None):
        """One scan request → ``(snapshot_id, payload iterator)``.

        The iterator yields the header payload, one payload per batch
        and the end payload — lazily, so a slow client never buffers
        the whole result.  ``checkpoint()`` (optional) runs between
        payloads; the transport uses it to detect a gone client.  The
        snapshot is pinned from the iterator's first step until it is
        exhausted *or* closed early (disconnect, deadline, error).
        """
        state = self._state(doc)
        plan = protocol.canonical_scan_plan(doc)
        sid = self._resolve_snapshot_id(state, doc)
        deadline.check()
        return sid, self._scan_payloads(
            state, sid, plan, deadline, checkpoint
        )

    def _scan_payloads(self, state, sid, plan, deadline, checkpoint):
        pin = self._acquire_pin(state, sid)
        try:
            it = protocol.scan_payload_iter(pin, sid, plan)
            try:
                for payload in it:
                    deadline.check()
                    if checkpoint is not None:
                        checkpoint()
                    if "batch" in payload:
                        if obs_metrics.enabled():
                            fam.SERVER_SCAN_BATCHES.inc()
                    elif "end" in payload and obs_metrics.enabled():
                        fam.SERVER_SCAN_ROWS.inc(payload["rows"])
                    yield payload
            except (PlanError, VectorEvalError, KeyError) as exc:
                raise BadPlan(str(exc)) from None
            finally:
                it.close()
        finally:
            state.pins.release(sid, pin)
