"""Benchmark-side wrappers that measure the storage and catalog layers
from outside.

* :class:`CountingStore` — a ``DirectoryCatalogStore`` that remembers
  the files it created (their own ``IOStats`` count the bytes) and the
  manifest bytes it was asked to publish. It adds no per-operation
  work, so it is used in the untraced run too: ``write_amp`` needs it.
* :class:`TimedStorage` / :class:`TimedStore` — counts and wall time
  for every ``pread/pwrite/append/truncate/sync`` and metadata call,
  each recorded as a span. Installed in the traced run only.
* :class:`ObjectStoreMixin` — serves ``open_data`` through a sleeping
  ``ObjectStorage`` and keeps the wrappers for request accounting.

Every wrapper keeps an ``inner`` attribute and forwards ``name``, so
``repro.core.storage_identity`` resolves to the same file path and
chunk-cache keys are unchanged (``test_e2e_smoke`` asserts identical
``TierStats`` with and without the wrapper).
"""

from __future__ import annotations

import threading
import time

from repro.catalog import DirectoryCatalogStore
from repro.iosim import ObjectStorage


def live_bytes(snapshot) -> int:
    """Bytes of the data files a snapshot references."""
    return sum(f.byte_size for f in snapshot.files)


class CountingStore(DirectoryCatalogStore):
    """Directory store that can say how many bytes went through it."""

    def __init__(self, root: str) -> None:
        super().__init__(root)
        self.created: list = []
        self.metadata_puts = 0
        self.metadata_bytes = 0

    def create_data(self, file_id: str):
        storage = super().create_data(file_id)
        self.created.append(storage)
        return storage

    def put_metadata(self, name: str, data: bytes) -> bool:
        won = super().put_metadata(name, data)
        if won:
            self.metadata_puts += 1
            self.metadata_bytes += len(data)
        return won

    def data_bytes_written(self) -> int:
        """Bytes written to data files so far (closed files included:
        a ``FileStorage`` keeps its ``IOStats`` after ``close``)."""
        return sum(s.stats.bytes_written for s in self.created)

    def bytes_written(self) -> int:
        return self.data_bytes_written() + self.metadata_bytes


class IOTally:
    """Counts and seconds per storage operation, shared by every
    :class:`TimedStorage` one store hands out."""

    OPS = ("pread", "pwrite", "append", "truncate", "sync")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.count = dict.fromkeys(self.OPS, 0)
        self.seconds = dict.fromkeys(self.OPS, 0.0)
        self.bytes_read = 0
        self.bytes_written = 0

    def add(self, op: str, seconds: float, nread: int = 0, nwritten: int = 0):
        with self._lock:
            self.count[op] += 1
            self.seconds[op] += seconds
            self.bytes_read += nread
            self.bytes_written += nwritten

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "count": dict(self.count),
                "seconds": dict(self.seconds),
                "bytes_read": self.bytes_read,
                "bytes_written": self.bytes_written,
            }


class TimedStorage:
    """A ``Storage`` that times and counts what passes through it."""

    def __init__(self, inner, tally: IOTally, recorder) -> None:
        self.inner = inner
        self._tally = tally
        self._recorder = recorder

    # -- identity and geometry: forwarded unchanged ----------------------
    @property
    def name(self) -> str:
        return self.inner.name

    @property
    def stats(self):
        return self.inner.stats

    @property
    def size(self) -> int:
        return self.inner.size

    def __len__(self) -> int:
        return self.inner.size

    def __getattr__(self, attr):
        # anything else a backend exposes (max_request_bytes, path,
        # raw_bytes, ...) reads through to it
        return getattr(self.inner, attr)

    # -- timed operations -------------------------------------------------
    def pread(self, offset: int, length: int) -> bytes:
        with self._recorder.span("iosim.pread"):
            t0 = time.perf_counter()
            data = self.inner.pread(offset, length)
            self._tally.add("pread", time.perf_counter() - t0, nread=len(data))
        return data

    def pwrite(self, offset: int, data: bytes) -> None:
        with self._recorder.span("iosim.pwrite"):
            t0 = time.perf_counter()
            self.inner.pwrite(offset, data)
            self._tally.add(
                "pwrite", time.perf_counter() - t0, nwritten=len(data)
            )

    def append(self, data: bytes) -> int:
        with self._recorder.span("iosim.pwrite"):
            t0 = time.perf_counter()
            offset = self.inner.append(data)
            self._tally.add(
                "append", time.perf_counter() - t0, nwritten=len(data)
            )
        return offset

    def truncate(self, size: int) -> None:
        t0 = time.perf_counter()
        self.inner.truncate(size)
        self._tally.add("truncate", time.perf_counter() - t0)

    def sync(self) -> None:
        inner_sync = getattr(self.inner, "sync", None)
        if inner_sync is None:
            return
        with self._recorder.span("iosim.sync"):
            t0 = time.perf_counter()
            inner_sync()
            self._tally.add("sync", time.perf_counter() - t0)

    def close(self) -> None:
        inner_close = getattr(self.inner, "close", None)
        if inner_close is not None:
            inner_close()


class TimedStore(CountingStore):
    """:class:`CountingStore` whose data files are :class:`TimedStorage`
    and whose metadata calls are spans."""

    def __init__(self, root: str, recorder) -> None:
        super().__init__(root)
        self.recorder = recorder
        self.tally = IOTally()

    def _wrap(self, storage):
        return TimedStorage(storage, self.tally, self.recorder)

    def create_data(self, file_id: str):
        return self._wrap(super().create_data(file_id))

    def open_data(self, file_id: str):
        return self._wrap(super().open_data(file_id))

    def put_metadata(self, name: str, data: bytes) -> bool:
        with self.recorder.span("catalog.put_metadata"):
            return super().put_metadata(name, data)

    def read_metadata(self, name: str) -> bytes:
        with self.recorder.span("catalog.read_metadata"):
            return super().read_metadata(name)

    def sync_data(self) -> None:
        with self.recorder.span("iosim.sync"):
            t0 = time.perf_counter()
            super().sync_data()
            self.tally.add("sync", time.perf_counter() - t0)


class ObjectStoreMixin:
    """Serve ``open_data`` through a sleeping ``ObjectStorage``.

    Mixed in *before* the store class. A :class:`TimedStorage` (when
    the store is timed) goes around the object wrapper, so the time it
    records includes the modelled round trip a reader waits for.
    """

    object_sleep = True

    def open_data(self, file_id: str):
        wrapper = ObjectStorage(
            DirectoryCatalogStore.open_data(self, file_id),
            sleep=self.object_sleep,
        )
        self.opened.append(wrapper)
        wrap = getattr(self, "_wrap", None)
        return wrap(wrapper) if wrap is not None else wrapper

    def begin_epoch(self) -> None:
        self.opened = []

    def requests(self) -> int:
        return sum(w.request_count for w in self.opened)

    def bytes_moved(self) -> int:
        return sum(w.bytes_moved() for w in self.opened)

    def modelled_s(self) -> float:
        return sum(w.elapsed_s for w in self.opened)


class ObjectCountingStore(ObjectStoreMixin, CountingStore):
    def __init__(self, root: str) -> None:
        super().__init__(root)
        self.opened: list = []


class ObjectTimedStore(ObjectStoreMixin, TimedStore):
    def __init__(self, root: str, recorder) -> None:
        super().__init__(root, recorder)
        self.opened: list = []


def make_store(root: str, recorder, *, object_store: bool = False):
    """The store a scenario builds its table in: counting only when
    untraced, timed when a recorder is given."""
    if object_store:
        if recorder is None:
            return ObjectCountingStore(root)
        return ObjectTimedStore(root, recorder)
    if recorder is None:
        return CountingStore(root)
    return TimedStore(root, recorder)
