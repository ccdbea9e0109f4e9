"""Canonical metric families and :class:`Counters`, the per-call stats base.

Every metric the built-in instrumentation emits is declared here, in
one place, so the naming-convention lint test and the ARCHITECTURE.md
inventory have a single source of truth.  Names follow
``<subsystem>_<noun>_<unit>`` (see :func:`repro.obs.metrics.validate_metric_name`).

:class:`Counters` is the one way a per-call stats dataclass counts an
event: ``bump(**deltas)`` adds to its fields and, when instrumentation
is enabled, to the registry families its class declares.  ``merge()``
and ``reset()`` never publish, so each event reaches the registry
exactly once, at its origin, and registry totals reconcile exactly
with the summed per-call stats.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import ClassVar

from repro.obs import metrics as _m

__all__ = ["Counters", "STANDARD_FAMILIES", "backend_label"]

_REG = _m.default_registry()


@dataclass
class Counters:
    """Base for the per-call stats dataclasses.

    ``families`` maps a field to the name of a family declared in this
    module, or to ``(name, {label: value})`` for a labelled one; fields
    it does not name (peaks, held bytes) stay plain attributes.  The
    base normalizes it to ``{field: (family, labels)}`` and resolves
    each child counter once, when the subclass is defined.
    """

    families: ClassVar[dict] = {}
    _children: ClassVar[dict] = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls.families = {
            fld: (_REG.get(spec[0]), spec[1])
            if isinstance(spec, tuple)
            else (_REG.get(spec), {})
            for fld, spec in cls.families.items()
        }
        cls._children = {
            fld: fam.labels(**labels)
            for fld, (fam, labels) in cls.families.items()
        }

    def bump(self, tally: "dict | None" = None, /, **deltas: int) -> None:
        """Add ``deltas`` to the fields and publish the declared ones:
        now, or, given a ``tally`` dict, by adding them to it for one
        later :meth:`publish` of a whole batch."""
        children = self._children if _m.enabled() else {}
        for name, n in deltas.items():
            if n:
                setattr(self, name, getattr(self, name) + n)
                if tally is not None:
                    tally[name] = tally.get(name, 0) + n
                elif name in children:
                    children[name].inc(n)

    def publish(self, deltas: dict) -> None:
        """Add ``deltas`` to the registry families this class declares."""
        children = self._children if _m.enabled() else {}
        for name, n in deltas.items():
            if n and name in children:
                children[name].inc(n)

    def merge(self, other: "Counters") -> None:
        """Add ``other`` field by field, nested ``Counters`` included.
        Publishes nothing: ``other`` published at its own origin."""
        for f in fields(self):
            mine = getattr(self, f.name)
            if isinstance(mine, Counters):
                mine.merge(getattr(other, f.name))
            else:
                setattr(self, f.name, mine + getattr(other, f.name))

    def reset(self) -> None:
        """Zero every field, nested ``Counters`` in place."""
        fresh = type(self)()
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, Counters):
                value.reset()
            else:
                setattr(self, f.name, getattr(fresh, f.name))

    @classmethod
    def unmirrored(cls):
        """An instance that never publishes: for an inner call whose
        counts the wrapping layer folds into its own stats."""
        stats = cls()
        stats._children = {}
        return stats


# --- Per-call stats counters (fed by Counters.bump) ---------------------
# ``ScanStats.groups_total`` publishes as ``scan_groups_considered_total``
# (not ``scan_groups_total_total``); ``QueryStats.files_total`` likewise.
for _name, _help in (
    ("scan_files_scanned_total", "Files scanned"),
    ("scan_files_pruned_total", "Files pruned from manifest stats"),
    ("scan_groups_considered_total", "Candidate row groups before pruning"),
    ("scan_groups_pruned_total", "Row groups pruned by zone maps"),
    ("scan_groups_scanned_total", "Row groups whose filter columns decoded"),
    ("scan_groups_empty_total", "Scanned row groups with no match"),
    ("scan_rows_pruned_total", "Rows in pruned files and row groups"),
    ("scan_rows_scanned_total", "Rows whose filter columns decoded"),
    ("scan_rows_matched_total", "Rows surviving the exact filter"),
    ("scan_chunks_fetched_total", "Data chunks fetched"),
    ("scan_chunks_skipped_total", "Residual chunks never fetched"),
    ("query_files_considered_total", "Files a query considered"),
    ("query_files_pruned_total", "Files proven empty of matches"),
    ("query_files_meta_answered_total", "Files answered from the manifest"),
    ("query_files_footer_answered_total", "Files answered from zone maps"),
    ("query_files_decoded_total", "Files that fetched a data chunk"),
    ("query_groups_meta_answered_total", "Row groups answered from stats"),
    ("query_groups_decoded_total", "Row groups decoded"),
    ("query_rows_from_metadata_total", "Rows answered without decoding"),
    ("writer_groups_flushed_total", "Row groups flushed"),
    ("writer_pages_written_total", "Pages written"),
):
    _REG.counter(_name, _help)

# --- Cache / reader -----------------------------------------------------
READER_OPENS = _REG.counter(
    "scan_files_opened_total", "BullionReader constructions (footer reads)"
)
CHUNK_FETCH_SECONDS = _REG.histogram(
    "scan_chunk_fetch_seconds",
    "Latency of one raw chunk fetch (cache miss included)",
    labels=("backend",),
)

# --- Object store (ObjectStorage backend) -------------------------------
OBJECT_REQUESTS = _REG.counter(
    "objectstore_requests_total",
    "Ranged GET / PUT requests issued to the modelled object store",
    labels=("op",),
)
OBJECT_REQUEST_BYTES = _REG.counter(
    "objectstore_request_bytes_total",
    "Bytes moved by object-store requests",
    labels=("op",),
)
OBJECT_REQUEST_SECONDS = _REG.histogram(
    "objectstore_request_seconds",
    "Modelled per-request cost (fixed latency + bandwidth + jitter)",
    labels=("op",),
)

# --- Coalescing fetch planner -------------------------------------------
SCAN_COALESCED_REQUESTS = _REG.counter(
    "scan_coalesced_requests_total",
    "Ranged reads issued by the chunk-fetch coalescing planner",
)
SCAN_COALESCED_CHUNKS = _REG.counter(
    "scan_coalesced_chunks_total",
    "Chunks served out of coalesced ranged reads",
)
SCAN_COALESCE_WASTE_BYTES = _REG.counter(
    "scan_coalesce_waste_bytes_total",
    "Gap bytes fetched by coalescing and discarded after slicing",
)

# --- Tiered chunk cache (repro.core.chunk_cache) ------------------------
CACHE_TIER_HITS = _REG.counter(
    "cache_tier_hits_total",
    "TieredChunkCache lookups served per tier",
    labels=("tier",),
)
CACHE_TIER_MISSES = _REG.counter(
    "cache_tier_misses_total",
    "TieredChunkCache lookups that fell through to the backend",
)
CACHE_TIER_EVICTIONS = _REG.counter(
    "cache_tier_evictions_total",
    "TieredChunkCache LRU evictions per tier",
    labels=("tier",),
)
CACHE_SPILLS = _REG.counter(
    "cache_spills_total",
    "Memory-tier entries spilled to the disk tier",
)
CACHE_SPILL_BYTES = _REG.counter(
    "cache_spill_bytes_total",
    "Bytes spilled from the memory tier to the disk tier",
)
CACHE_SINGLEFLIGHT_WAITS = _REG.counter(
    "cache_singleflight_waits_total",
    "Lookups that blocked on another thread's in-flight fetch",
)
CACHE_CHECKSUM_FAILURES = _REG.counter(
    "cache_checksum_failures_total",
    "Disk-tier entries rejected (truncated or corrupt spill file)",
)
CACHE_TIER_BYTES = _REG.gauge(
    "cache_tier_bytes",
    "Bytes currently resident per cache tier",
    labels=("cache", "tier"),
)

# --- Writer timings -----------------------------------------------------
WRITER_FLUSH_SECONDS = _REG.histogram(
    "writer_flush_seconds", "Row-group flush latency (encode + append)"
)
WRITER_ENCODE_SECONDS = _REG.histogram(
    "writer_encode_seconds", "Column chunk encode latency (all its pages)"
)

# --- Query timings ------------------------------------------------------
QUERY_SECONDS = _REG.histogram(
    "query_aggregate_seconds", "End-to-end aggregate query latency"
)

# --- Catalog / transactions ---------------------------------------------
COMMIT_ATTEMPTS = _REG.counter(
    "catalog_commit_attempts_total", "CAS commit attempts (one per loop turn)"
)
COMMIT_CONFLICTS = _REG.counter(
    "catalog_commit_conflicts_total", "CAS attempts lost to a concurrent commit"
)
COMMIT_REPLAYS = _REG.counter(
    "catalog_commit_replays_total",
    "Conflicts revalidated and replayed against the new base snapshot",
)
COMMITS = _REG.counter(
    "catalog_commits_total", "Transactions committed", labels=("operation",)
)
COMMIT_ABORTS = _REG.counter(
    "catalog_commit_aborts_total", "Transactions aborted"
)
COMMIT_SECONDS = _REG.histogram(
    "catalog_commit_seconds", "Commit latency including conflict replays"
)

# --- Maintenance --------------------------------------------------------
MAINT_CYCLES = _REG.counter(
    "maintenance_cycles_total", "run_once invocations"
)
MAINT_CYCLE_SECONDS = _REG.histogram(
    "maintenance_cycle_seconds", "Full maintenance cycle latency"
)
MAINT_JOBS_RUN = _REG.counter(
    "maintenance_jobs_run_total", "Jobs executed", labels=("kind",)
)
MAINT_JOBS_SKIPPED = _REG.counter(
    "maintenance_jobs_skipped_total", "Jobs planned but skipped", labels=("kind",)
)
MAINT_BYTES_RECLAIMED = _REG.counter(
    "maintenance_bytes_reclaimed_total", "Bytes deleted by expiry GC"
)
MAINT_FILES_DELETED = _REG.counter(
    "maintenance_files_deleted_total", "Data files deleted by expiry GC"
)
MAINT_SNAPSHOTS_EXPIRED = _REG.counter(
    "maintenance_snapshots_expired_total", "Snapshots expired"
)
MAINT_GC_REFUSALS = _REG.counter(
    "maintenance_gc_refusals_total",
    "Expiry candidates refused (pinned snapshot or gc-grace)",
    labels=("reason",),
)

# --- Serving layer (repro.server) ---------------------------------------
SERVER_REQUESTS = _REG.counter(
    "server_requests_total",
    "Requests received (wire frames and HTTP probes), by operation",
    labels=("op",),
)
SERVER_RESPONSES = _REG.counter(
    "server_responses_total",
    "Requests finished, partitioned by outcome (ok/error/rejected/cancelled)",
    labels=("outcome",),
)
SERVER_REQUEST_SECONDS = _REG.histogram(
    "server_request_seconds",
    "End-to-end request latency on the server (parse to last byte)",
    labels=("op",),
)
SERVER_REJECTED = _REG.counter(
    "server_requests_rejected_total",
    "Requests refused by admission control, by reason",
    labels=("reason",),
)
SERVER_ERRORS = _REG.counter(
    "server_request_errors_total",
    "Typed error responses sent, by error code",
    labels=("code",),
)
SERVER_CANCELLED = _REG.counter(
    "server_requests_cancelled_total",
    "Requests abandoned because the client disconnected mid-response",
)
SERVER_DEADLINE_EXPIRED = _REG.counter(
    "server_deadline_expirations_total",
    "Requests that hit their deadline before completing",
)
SERVER_INFLIGHT = _REG.gauge(
    "server_inflight_requests_current",
    "scan/query requests currently executing",
)
SERVER_QUEUED = _REG.gauge(
    "server_queued_requests_current",
    "scan/query requests waiting for a worker slot",
)
SERVER_CONNS_OPENED = _REG.counter(
    "server_connections_opened_total", "Client connections accepted"
)
SERVER_CONNS_CLOSED = _REG.counter(
    "server_connections_closed_total", "Client connections torn down"
)
SERVER_CONNS = _REG.gauge(
    "server_connections_current", "Client connections currently open"
)
SERVER_BYTES_SENT = _REG.counter(
    "server_bytes_sent_total", "Payload bytes written to clients"
)
SERVER_BYTES_RECEIVED = _REG.counter(
    "server_bytes_received_total", "Payload bytes read from clients"
)
SERVER_SCAN_BATCHES = _REG.counter(
    "server_scan_batches_total", "Scan batch frames streamed to clients"
)
SERVER_SCAN_ROWS = _REG.counter(
    "server_scan_rows_total", "Rows streamed to clients in scan batches"
)
SERVER_RESULT_CACHE_HITS = _REG.counter(
    "server_result_cache_hits_total",
    "Query results served from the (snapshot_id, plan) result cache",
)
SERVER_RESULT_CACHE_MISSES = _REG.counter(
    "server_result_cache_misses_total",
    "Query results computed because the result cache missed",
)
SERVER_PIN_CACHE_HITS = _REG.counter(
    "server_pin_cache_hits_total",
    "Requests that reused a cached pinned snapshot",
)
SERVER_PIN_CACHE_MISSES = _REG.counter(
    "server_pin_cache_misses_total",
    "Requests that had to pin a snapshot afresh",
)
SERVER_FOOTER_CACHE_HITS = _REG.counter(
    "server_footer_cache_hits_total",
    "Reader-pool lookups served without re-reading a footer",
)
SERVER_FOOTER_CACHE_MISSES = _REG.counter(
    "server_footer_cache_misses_total",
    "Reader-pool lookups that opened a file (footer read)",
)
SERVER_POOLED_READERS = _REG.gauge(
    "server_pooled_readers_current",
    "Open BullionReaders held by server reader pools",
)

#: Every family above, for the lint test and the docs inventory.
STANDARD_FAMILIES = tuple(sorted(f.name for f in _REG.families()))


def backend_label(storage) -> str:
    """A low-cardinality backend label for a storage object.

    Class-derived (``file``, ``memory``, ``object``), never the file
    name — per-file labels would explode label cardinality.
    """
    cls = type(storage).__name__
    return {
        "FileStorage": "file",
        "SimulatedStorage": "memory",
        "ObjectStorage": "object",
    }.get(cls, cls.lower().removesuffix("storage") or "unknown")
