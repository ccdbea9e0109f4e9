"""Storage substrate: one protocol, pluggable backends.

The paper's I/O claims (deletion rewrite cost, metadata pread counts,
multimodal seek behaviour) are about *bytes moved and seeks issued*.
Every Bullion/baseline file in this repo is read and written through
the :class:`Storage` protocol, with three backends:

* :class:`SimulatedStorage` — byte-accurate in-memory block device
  that counts operations and models seek/bandwidth costs (the default
  for tests and benchmarks; see DESIGN.md §3 substitutions),
* :class:`FileStorage` — a real local file via ``os.pread``, for
  running against an actual filesystem,
* :class:`LatencyModelledStorage` — wraps either backend and charges
  (optionally sleeps) modelled device time per operation,
* :class:`ObjectStorage` — an S3-like modelled object store over any
  inner backend where each ranged GET/PUT pays a fixed round trip, so
  request *count* is the bottleneck the read path must engineer down.
"""

from repro.iosim.blockdev import IOStats, SeekModel, SimulatedStorage
from repro.iosim.storage import (
    DEFAULT_MAX_REQUEST_BYTES,
    OBJECT_STORE_MODEL,
    FileStorage,
    InstrumentedStorage,
    LatencyModelledStorage,
    ObjectRequest,
    ObjectStorage,
    ObjectStorageError,
    Storage,
    StorageWrapper,
    waits_per_request,
)

__all__ = [
    "Storage",
    "StorageWrapper",
    "waits_per_request",
    "SimulatedStorage",
    "FileStorage",
    "InstrumentedStorage",
    "LatencyModelledStorage",
    "ObjectStorage",
    "ObjectRequest",
    "ObjectStorageError",
    "OBJECT_STORE_MODEL",
    "DEFAULT_MAX_REQUEST_BYTES",
    "IOStats",
    "SeekModel",
]
