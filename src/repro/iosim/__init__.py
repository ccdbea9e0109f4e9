"""Storage substrate: one file protocol, one directory interface.

The paper's I/O claims (deletion rewrite cost, metadata pread counts,
multimodal seek behaviour) are about *bytes moved and seeks issued*.
Every Bullion/baseline file in this repo is read and written through
the :class:`Storage` protocol: :class:`SimulatedStorage` (a
byte-accurate in-memory device that counts operations and models
seek/bandwidth cost — the default for tests and benchmarks) or
:class:`FileStorage` (a real file via ``os.pread``), optionally under
the wrappers :class:`LatencyModelledStorage` (charges or sleeps
modelled device time), :class:`ObjectStorage` (an S3-like store where
each ranged GET/PUT pays a round trip, so request *count* is the
bottleneck) and :class:`InstrumentedStorage` (publishes to
:mod:`repro.obs`). File *names* — create, open, link, unlink, list,
directory fsync — go through one :class:`Directory` interface with an
:class:`OSDirectory` and a :class:`MemoryDirectory` backend: the seam
every durable effect crosses.
"""

from repro.iosim.blockdev import IOStats, SeekModel, SimulatedStorage
from repro.iosim.directory import Directory, MemoryDirectory, OSDirectory
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
    "Directory",
    "OSDirectory",
    "MemoryDirectory",
]
