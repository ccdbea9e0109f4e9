"""Serving layer: a concurrent multi-tenant scan/query server.

The paper's workloads end at a serving tier — many tenants issuing
scans and aggregations against shared tables while ingest keeps
committing (§1, §2.4).  This package is that tier for the repro:

* :mod:`repro.server.protocol` — length-prefixed canonical-JSON wire
  protocol, bit-exact column codecs, plan canonicalization, and the
  single-threaded replay oracle the differential tests diff against;
* :mod:`repro.server.cache` — one lease cache behind the pooled
  readers (one footer parse per file) and the pinned snapshots, and
  a keyed result cache; committed files are immutable, so none of
  them invalidates;
* :mod:`repro.server.service` — request execution: admission control,
  cooperative deadlines, cache orchestration;
* :mod:`repro.server.net` — the TCP transport plus an HTTP ``/health``
  + ``/metrics`` probe surface;
* :mod:`repro.server.client` — the synchronous Python client;
* :mod:`repro.server.cli` — the ``repro-serve`` console entry point.
"""

from repro.server.client import QueryReply, ScanReply, ServerClient
from repro.server.net import BullionServer, ClientGone
from repro.server.protocol import (
    BadPlan,
    BadRequest,
    DeadlineExceeded,
    IOFault,
    ProtocolError,
    ServerBusy,
    ServerError,
    UnknownSnapshot,
    UnknownTable,
)
from repro.server.service import AdmissionController, Deadline, TableService

__all__ = [
    "BullionServer",
    "ClientGone",
    "ServerClient",
    "QueryReply",
    "ScanReply",
    "TableService",
    "AdmissionController",
    "Deadline",
    "ProtocolError",
    "ServerError",
    "BadRequest",
    "BadPlan",
    "UnknownTable",
    "UnknownSnapshot",
    "DeadlineExceeded",
    "ServerBusy",
    "IOFault",
]
