"""Unified observability layer: metrics registry + span tracer.

Every subsystem keeps per-call stats objects (``ScanStats``,
``QueryStats``, ``WriterStats``, ``TierStats``, ``IOStats``,
``CatalogStats``, ``MaintenanceReport``) that are born and die with a
single call or handle.  This package adds the process-wide view on top:

``repro.obs.metrics``
    A thread-safe :class:`Registry` of counters, gauges and fixed-bucket
    histograms with labeled families, snapshot/delta semantics for
    tests, and Prometheus-text + JSON exports.

``repro.obs.trace``
    A span tracer — ``with trace.span("scan.file", file_id=...):`` —
    with nested spans, per-span attributes, near-zero overhead when
    disabled, and exporters to JSON-lines and Chrome
    ``chrome://tracing`` trace-event format.

``repro.obs.families``
    The canonical metric families (named ``<subsystem>_<noun>_<unit>``)
    and :class:`~repro.obs.families.Counters`, the base every per-call
    stats class derives from: one ``bump(**deltas)`` counts an event
    for the caller and publishes it to the families the class declares.

Instrumentation in the core/catalog/query layers honours a single
process-wide switch: :func:`set_enabled` / :func:`enabled`.  Metrics
default to **on** (counter bumps at group/file granularity are
negligible); tracing defaults to **off** and is enabled separately via
``trace.enable()``.
"""

from repro.obs.metrics import (
    Counter,
    DURATION_BUCKETS,
    Gauge,
    Histogram,
    Registry,
    RegistrySnapshot,
    SIZE_BUCKETS,
    default_registry,
    enabled,
    set_enabled,
)
from repro.obs import families
from repro.obs import trace
from repro.obs.trace import span

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Registry",
    "RegistrySnapshot",
    "DURATION_BUCKETS",
    "SIZE_BUCKETS",
    "default_registry",
    "enabled",
    "set_enabled",
    "families",
    "trace",
    "span",
]
