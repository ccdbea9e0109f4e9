"""Pluggable storage backends behind one positional-I/O protocol.

Every Bullion read/write path talks to a :class:`Storage` — the small
pread/pwrite/append/sync/close surface the paper's design assumes
(§2.3: footer pread, coalesced per-chunk preads; §2.1: in-place page
pwrites). :mod:`repro.iosim` lists the backends and wrappers; each
class below documents its own model.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from typing import Callable, Protocol, runtime_checkable

from repro.iosim.blockdev import IOStats, SeekModel
from repro.obs import metrics as obs_metrics


@runtime_checkable
class Storage(Protocol):
    """Positional-I/O device surface shared by all backends."""

    name: str
    stats: IOStats

    @property
    def size(self) -> int: ...
    def pread(self, offset: int, length: int) -> bytes: ...
    def pwrite(self, offset: int, data: bytes) -> None: ...
    def append(self, data: bytes) -> int: ...
    def truncate(self, size: int) -> None: ...
    def sync(self) -> None: ...
    def close(self) -> None: ...


class FileStorage:
    """Real local-file backend: ``os.pread``/``os.pwrite`` on one fd.

    Keeps the same counters and seek accounting as the simulator so
    code that reports ``storage.stats`` works unchanged. Positional
    syscalls are thread-safe, so a parallel scan may fetch chunks from
    several worker threads at once.
    """

    def __init__(
        self,
        path: str,
        name: str | None = None,
        create: bool = True,
        readonly: bool = False,
    ) -> None:
        self.path = os.fspath(path)
        self.name = name or os.path.basename(self.path)
        self.stats = IOStats()
        self.readonly = readonly
        if readonly:
            flags = os.O_RDONLY  # inspectable without write permission
        else:
            flags = os.O_RDWR | (os.O_CREAT if create else 0)
        self._closed = True  # stays True if os.open raises
        self._fd = os.open(self.path, flags, 0o644)
        self._closed = False
        self._size = os.fstat(self._fd).st_size
        self._read_cursor: int | None = None
        self._write_cursor: int | None = None
        self._lock = threading.Lock()

    # -- lifecycle ----------------------------------------------------
    def close(self) -> None:
        if not self._closed:
            os.close(self._fd)
            self._closed = True

    def sync(self) -> None:
        """Flush written bytes to disk (fsync)."""
        if not self._closed:
            os.fsync(self._fd)

    def __enter__(self) -> "FileStorage":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # best-effort fd cleanup
        try:
            self.close()
        except OSError:
            pass

    # -- geometry -----------------------------------------------------
    def __len__(self) -> int:
        return self._size

    @property
    def size(self) -> int:
        return self._size

    def truncate(self, size: int) -> None:
        """Shrink or grow (zero-filled) the file, uncounted."""
        if self.readonly:
            raise ValueError(f"storage {self.name!r} opened read-only")
        os.ftruncate(self._fd, size)
        self._size = size

    # -- I/O ----------------------------------------------------------
    def pread(self, offset: int, length: int) -> bytes:
        if offset < 0 or length < 0:
            raise ValueError("negative offset/length")
        if offset + length > self._size:
            raise ValueError(
                f"pread [{offset}, {offset + length}) beyond file "
                f"size {self._size}"
            )
        data = os.pread(self._fd, length, offset)
        with self._lock:
            seek = self._read_cursor != offset
            self.stats.bump(reads=1, bytes_read=len(data), read_seeks=seek)
            self._read_cursor = offset + len(data)
        return data

    def pwrite(self, offset: int, data: bytes) -> None:
        if offset < 0:
            raise ValueError("negative offset")
        if self.readonly:
            raise ValueError(f"storage {self.name!r} opened read-only")
        n = os.pwrite(self._fd, data, offset)
        while n < len(data):  # a short write: finish it
            n += os.pwrite(self._fd, memoryview(data)[n:], offset + n)
        with self._lock:
            end = offset + len(data)
            self._size = max(self._size, end)
            seek = self._write_cursor != offset
            self.stats.bump(writes=1, bytes_written=len(data), write_seeks=seek)
            self._write_cursor = end
        # os.pwrite past EOF leaves a hole, not zeros we must fake:
        # POSIX defines holes to read back as zeros, matching the
        # simulator's zero-fill semantics.

    def append(self, data: bytes) -> int:
        with self._lock:
            offset = self._size
        self.pwrite(offset, data)
        return offset

    # -- escape hatches for tests -------------------------------------
    def raw_bytes(self) -> bytes:
        """Uncounted full snapshot (test assertions only)."""
        return os.pread(self._fd, self._size, 0)

    def corrupt(self, offset: int, data: bytes) -> None:
        """Uncounted direct mutation (failure-injection tests)."""
        os.pwrite(self._fd, data, offset)
        self._size = max(self._size, offset + len(data))


class StorageWrapper:
    """Forwarding base for wrappers over another :class:`Storage`.

    Identity, geometry, lifecycle and the test escape hatches read
    through to :attr:`inner`; a subclass adds the ``pread``/``pwrite``/
    ``append`` it times, charges or counts. ``close``/``sync`` reach
    the inner backend, so a wrapped ``FileStorage`` still fsyncs
    before a commit and gives its fd back.
    """

    #: ``True`` on a layer that sleeps out a modelled cost per request
    #: — what :func:`waits_per_request` looks for
    sleep = False

    def __init__(self, inner: Storage) -> None:
        self.inner = inner

    @property
    def name(self) -> str:
        return self.inner.name

    @property
    def stats(self) -> IOStats:
        return self.inner.stats

    @property
    def size(self) -> int:
        return self.inner.size

    def __len__(self) -> int:
        return self.inner.size

    def truncate(self, size: int) -> None:
        self.inner.truncate(size)

    def close(self) -> None:
        self.inner.close()

    def sync(self) -> None:
        self.inner.sync()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- test escape hatches, when the backend has them
    def raw_bytes(self) -> bytes:
        return self.inner.raw_bytes()

    def corrupt(self, offset: int, data: bytes) -> None:
        self.inner.corrupt(offset, data)


def waits_per_request(storage) -> bool:
    """Whether a read from this wrapper stack really blocks per request.

    True when any layer (walking ``.inner``, like
    :func:`~repro.core.chunk_cache.storage_identity`) sleeps out its
    modelled cost. It is the one question the read path asks before
    overlapping I/O on threads: a device that waits leaves the GIL
    free for other fetches, a memory-speed one only adds hand-offs.
    """
    while storage is not None:
        if getattr(storage, "sleep", False):
            return True
        storage = getattr(storage, "inner", None)
    return False


class LatencyModelledStorage(StorageWrapper):
    """Wrap any backend and charge per-op time under a :class:`SeekModel`.

    Each operation costs ``seek_latency`` when non-contiguous plus
    ``bytes / bandwidth``. The cost accumulates in :attr:`elapsed_s`;
    with ``sleep=True`` it is also slept out, so concurrent readers
    genuinely overlap their modelled device time — the property the
    parallel-scan benchmark measures.
    """

    def __init__(
        self,
        inner: Storage,
        model: SeekModel | None = None,
        sleep: bool = False,
    ) -> None:
        super().__init__(inner)
        self.model = model or SeekModel()
        self.sleep = sleep
        self.elapsed_s = 0.0
        self._read_cursor: int | None = None
        self._write_cursor: int | None = None
        self._lock = threading.Lock()

    def _charge(self, cursor_attr: str, offset: int, nbytes: int) -> None:
        with self._lock:
            cost = self.model.request_cost(
                nbytes, seeked=getattr(self, cursor_attr) != offset
            )
            setattr(self, cursor_attr, offset + nbytes)
            self.elapsed_s += cost
        if self.sleep:
            time.sleep(cost)

    def pread(self, offset: int, length: int) -> bytes:
        data = self.inner.pread(offset, length)
        self._charge("_read_cursor", offset, len(data))
        return data

    def pwrite(self, offset: int, data: bytes) -> None:
        self.inner.pwrite(offset, data)
        self._charge("_write_cursor", offset, len(data))

    def append(self, data: bytes) -> int:
        offset = self.inner.append(data)
        self._charge("_write_cursor", offset, len(data))
        return offset


#: S3-in-the-same-region-ish defaults: ~25 ms to first byte per
#: request, ~100 MB/s per stream, no seek penalty (objects have no
#: heads to move) — the regime where request count dominates cost.
OBJECT_STORE_MODEL = SeekModel(
    seek_latency_s=0.0,
    bandwidth_bytes_per_s=100e6,
    request_latency_s=0.025,
)

#: S3's practical sweet spot for ranged GETs (8–16 MiB parts).
DEFAULT_MAX_REQUEST_BYTES = 8 << 20


@dataclass(frozen=True)
class ObjectRequest:
    """One logged object-store request (the replayable access trace)."""

    op: str  # "GET" | "PUT"
    offset: int
    nbytes: int
    cost_s: float


class ObjectStorageError(OSError):
    """An injected per-request fault from :class:`ObjectStorage`."""


class ObjectStorage(StorageWrapper):
    """An S3-like object store modelled in process over any backend.

    The cost model is :class:`SeekModel.request_cost` with a dominant
    ``request_latency_s`` term and zero seek penalty: **every request
    pays a fixed round trip**, so the measurable bottleneck of a read
    path is how *many* ``pread``\\ s it issues, not how many bytes they
    move — exactly the regime the ranged-get coalescing planner and
    the tiered chunk cache are built to win in.

    * ``max_request_bytes`` caps one ranged GET; longer preads are
      split into several requests, each paying the fixed latency (the
      reader's coalescing planner reads this attribute and never plans
      a run it would split).
    * ``jitter_fn`` (→ extra seconds) and ``fault_fn`` (may raise) are
      invoked per request, for robustness experiments: injected
      failures surface as :class:`ObjectStorageError` before any byte
      moves.
    * Every request lands in :attr:`requests` — the replayable log the
      ``repro-inspect scan --backend object`` subcommand prints — and,
      when instrumentation is on, in the ``objectstore_*`` metric
      families. Modelled time accumulates in :attr:`elapsed_s`
      (optionally slept out with ``sleep=True``).
    """

    def __init__(
        self,
        inner: Storage,
        model: SeekModel | None = None,
        *,
        max_request_bytes: int = DEFAULT_MAX_REQUEST_BYTES,
        jitter_fn: Callable[[str, int, int], float] | None = None,
        fault_fn: Callable[[str, int, int], None] | None = None,
        sleep: bool = False,
    ) -> None:
        from repro.obs import families as _fam

        if max_request_bytes <= 0:
            raise ValueError("max_request_bytes must be positive")
        super().__init__(inner)
        self.model = model or OBJECT_STORE_MODEL
        self.max_request_bytes = max_request_bytes
        self.jitter_fn = jitter_fn
        self.fault_fn = fault_fn
        self.sleep = sleep
        self.elapsed_s = 0.0
        self.requests: list[ObjectRequest] = []
        self._lock = threading.Lock()
        self._get_ops = _fam.OBJECT_REQUESTS.labels(op="get")
        self._put_ops = _fam.OBJECT_REQUESTS.labels(op="put")
        self._get_bytes = _fam.OBJECT_REQUEST_BYTES.labels(op="get")
        self._put_bytes = _fam.OBJECT_REQUEST_BYTES.labels(op="put")
        self._get_secs = _fam.OBJECT_REQUEST_SECONDS.labels(op="get")
        self._put_secs = _fam.OBJECT_REQUEST_SECONDS.labels(op="put")

    # -- accounting -----------------------------------------------------
    @property
    def request_count(self) -> int:
        with self._lock:
            return len(self.requests)

    def bytes_moved(self, op: str | None = None) -> int:
        with self._lock:
            return sum(
                r.nbytes for r in self.requests if op is None or r.op == op
            )

    def reset_accounting(self) -> None:
        with self._lock:
            self.requests = []
            self.elapsed_s = 0.0

    def _request(self, op: str, offset: int, nbytes: int) -> None:
        """Charge (and log) one request; may raise an injected fault."""
        if self.fault_fn is not None:
            self.fault_fn(op, offset, nbytes)
        cost = self.model.request_cost(nbytes, seeked=False)
        if self.jitter_fn is not None:
            cost += max(0.0, self.jitter_fn(op, offset, nbytes))
        with self._lock:
            self.elapsed_s += cost
            self.requests.append(ObjectRequest(op, offset, nbytes, cost))
        if obs_metrics.enabled():
            if op == "GET":
                self._get_ops.inc()
                self._get_bytes.inc(nbytes)
                self._get_secs.observe(cost)
            else:
                self._put_ops.inc()
                self._put_bytes.inc(nbytes)
                self._put_secs.observe(cost)
        if self.sleep:
            time.sleep(cost)

    # -- I/O ------------------------------------------------------------
    def pread(self, offset: int, length: int) -> bytes:
        """One or more ranged GETs covering ``[offset, offset+length)``.

        Ranges longer than ``max_request_bytes`` split into several
        requests, each paying the fixed per-request latency — which is
        why the coalescing planner caps its runs at this size.
        """
        if length <= self.max_request_bytes:
            self._request("GET", offset, length)
            return self.inner.pread(offset, length)
        parts = []
        pos = offset
        end = offset + length
        while pos < end:
            n = min(self.max_request_bytes, end - pos)
            self._request("GET", pos, n)
            parts.append(self.inner.pread(pos, n))
            pos += n
        return b"".join(parts)

    def pwrite(self, offset: int, data: bytes) -> None:
        self._request("PUT", offset, len(data))
        self.inner.pwrite(offset, data)

    def append(self, data: bytes) -> int:
        self._request("PUT", self.inner.size, len(data))
        return self.inner.append(data)


class InstrumentedStorage(StorageWrapper):
    """Wrap any backend; publish its I/O into the metrics registry.

    Counts preads/pwrites/appends/syncs, bytes moved, request-size
    distribution and per-op latency histograms, all labeled by backend
    *kind* (``file``, ``memory``, ``latency`` — class-derived, never
    the file name, to keep label cardinality bounded). The inner
    backend's own :class:`IOStats` keep counting unchanged; this
    wrapper adds the process-wide view. Honours the global
    :func:`repro.obs.set_enabled` switch per operation.
    """

    def __init__(self, inner: Storage, backend: str | None = None) -> None:
        from repro.obs import families as _fam  # circular-free, heavy names

        super().__init__(inner)
        self.backend = backend or _fam.backend_label(inner)
        lbl = {"backend": self.backend}
        self._read_ops = _fam.STORAGE_READ_OPS.labels(**lbl)
        self._read_bytes = _fam.STORAGE_READ_BYTES.labels(**lbl)
        self._read_secs = _fam.STORAGE_READ_SECONDS.labels(**lbl)
        self._write_ops = _fam.STORAGE_WRITE_OPS.labels(**lbl)
        self._write_bytes = _fam.STORAGE_WRITE_BYTES.labels(**lbl)
        self._write_secs = _fam.STORAGE_WRITE_SECONDS.labels(**lbl)
        self._sync_ops = _fam.STORAGE_SYNC_OPS.labels(**lbl)
        self._sync_secs = _fam.STORAGE_SYNC_SECONDS.labels(**lbl)
        self._read_size = _fam.STORAGE_IO_SIZE_BYTES.labels(
            backend=self.backend, op="read"
        )
        self._write_size = _fam.STORAGE_IO_SIZE_BYTES.labels(
            backend=self.backend, op="write"
        )

    def pread(self, offset: int, length: int) -> bytes:
        if not obs_metrics.enabled():
            return self.inner.pread(offset, length)
        t0 = time.perf_counter()
        data = self.inner.pread(offset, length)
        self._read_secs.observe(time.perf_counter() - t0)
        self._read_ops.inc()
        self._read_bytes.inc(len(data))
        self._read_size.observe(len(data))
        return data

    def _observe_write(self, nbytes: int, t0: float) -> None:
        self._write_secs.observe(time.perf_counter() - t0)
        self._write_ops.inc()
        self._write_bytes.inc(nbytes)
        self._write_size.observe(nbytes)

    def pwrite(self, offset: int, data: bytes) -> None:
        if not obs_metrics.enabled():
            self.inner.pwrite(offset, data)
            return
        t0 = time.perf_counter()
        self.inner.pwrite(offset, data)
        self._observe_write(len(data), t0)

    def append(self, data: bytes) -> int:
        if not obs_metrics.enabled():
            return self.inner.append(data)
        t0 = time.perf_counter()
        offset = self.inner.append(data)
        self._observe_write(len(data), t0)
        return offset

    def sync(self) -> None:
        # a memory device has nothing to flush: no sync to count
        if self.backend == "memory" or not obs_metrics.enabled():
            self.inner.sync()
            return
        t0 = time.perf_counter()
        self.inner.sync()
        self._sync_secs.observe(time.perf_counter() - t0)
        self._sync_ops.inc()
