"""Open readers, shared: a refcounted lease cache and the reader pool.

* :class:`LeaseCache` — a refcounted ``key → resource`` cache for
  things that must be *closed*: shared by every concurrent holder,
  LRU-evicted only while idle, and closed exactly once.
* :class:`ReaderPool` — one open :class:`BullionReader` per data
  *file*, shared by every pin that reads it.

A committed catalog file is immutable, and a new snapshot means new
keys (see :mod:`repro.core.chunk_cache`): the pool keys on ``file_id``
alone, and no entry ever goes stale, so neither cache has an
``invalidate``. An entry leaves by capacity eviction or :meth:`close`.

Every :class:`~repro.catalog.CatalogTable` reads through a pool of
capacity 0: the live pins of one table handle share each file's reader
(footer parsed once, one private chunk cache), and a reader closes on
its last release, so no idle reader outlives the pins that used it.
The serving layer swaps in a larger pool that keeps idle readers (see
:mod:`repro.server.cache`).
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.core.reader import BullionReader
from repro.obs import metrics as obs_metrics

__all__ = ["LeaseCache", "ReaderPool"]


def _inc(family) -> None:
    if family is not None and obs_metrics.enabled():
        family.inc()


class _Entry:
    __slots__ = ("resource", "close", "refs")

    def __init__(self, resource, close) -> None:
        self.resource = resource
        self.close = close
        self.refs = 0


class LeaseCache:
    """Refcounted ``key → resource`` cache, LRU over idle entries only.

    ``acquire(key)`` returns the shared resource — opened through
    :meth:`_open` on a miss — and must be paired with one
    ``release(key, resource)``.  A resource is never closed under a
    holder: idle entries past ``capacity`` are closed least recently
    used first, and when every entry is busy the cache overflows
    instead; an entry outlived by :meth:`close` while held *drains*,
    and closes on its last release.
    Every opened resource is closed exactly once.

    ``hits``/``misses`` are counter families and ``gauge`` a gauge
    family to publish to; None publishes nothing.
    """

    def __init__(
        self,
        capacity: int,
        label: str,
        *,
        hits=None,
        misses=None,
        gauge=None,
    ) -> None:
        self._capacity = capacity
        self.label = label
        self._hits = hits
        self._misses = misses
        self._gauge = gauge
        self._lock = threading.Lock()
        #: key → entry, least recently acquired first
        self._live: OrderedDict[object, _Entry] = OrderedDict()
        #: entries dropped from ``_live`` that some holder still uses
        self._draining: list[_Entry] = []
        self._closed = False

    def _open(self, key):
        """``(resource, close)`` for a missed key: the resource and the
        zero-argument callable that closes it."""
        raise NotImplementedError

    def acquire(self, key):
        with self._lock:
            entry = self._hold_locked(key)
        if entry is not None:
            _inc(self._hits)
            return entry.resource
        _inc(self._misses)
        # open outside the lock: a footer or manifest read can be slow
        # (object store) and must not serialize unrelated acquires
        fresh = _Entry(*self._open(key))
        closable = [fresh]
        try:
            with self._lock:
                entry = self._hold_locked(key)
                if entry is None:  # else another thread opened it first
                    entry = self._live[key] = fresh
                    fresh.refs = 1
                    closable = self._settle_locked()
        finally:
            _close_all(closable)
        return entry.resource

    def release(self, key, resource) -> None:
        with self._lock:
            entry = self._live.get(key)
            if entry is None or entry.resource is not resource:
                entry = next(
                    (e for e in self._draining if e.resource is resource),
                    None,
                )
            if entry is not None:
                entry.refs = max(0, entry.refs - 1)
            closable = self._settle_locked()
        _close_all(closable)

    def close(self) -> None:
        with self._lock:
            self._closed = True
            self._draining.extend(self._live.values())
            self._live.clear()
            closable = self._settle_locked()
        _close_all(closable)

    def __len__(self) -> int:
        with self._lock:
            return len(self._live)

    def _hold_locked(self, key) -> _Entry | None:
        if self._closed:
            raise RuntimeError(f"{self.label} cache is closed")
        entry = self._live.get(key)
        if entry is not None:
            entry.refs += 1
            self._live.move_to_end(key)
        return entry

    def _settle_locked(self) -> list[_Entry]:
        """The entries to close now: drained ones, then idle LRU
        victims while the cache is over capacity."""
        closable = [e for e in self._draining if e.refs <= 0]
        self._draining = [e for e in self._draining if e.refs > 0]
        excess = len(self._live) - self._capacity
        if excess > 0:
            idle = [k for k, e in self._live.items() if e.refs <= 0]
            closable.extend(self._live.pop(k) for k in idle[:excess])
        if self._gauge is not None and obs_metrics.enabled():
            self._gauge.set(len(self._live) + len(self._draining))
        return closable


def _close_all(entries) -> None:
    for entry in entries:
        entry.close()


class ReaderPool(LeaseCache):
    """Shared ``file_id → BullionReader`` pool over one catalog store.

    The ``reader_provider`` of :class:`~repro.catalog.PinnedSnapshot`
    (``acquire(file_id)``, ``release(file_id, reader)``): storage is
    opened and the footer parsed only on a miss, and closing an entry
    closes that storage. ``capacity`` idle readers stay open (0: none).
    """

    def __init__(
        self,
        store,
        *,
        capacity: int = 0,
        chunk_cache=None,
        reader_options: dict | None = None,
        **families,
    ) -> None:
        super().__init__(capacity, "readers", **families)
        self._store = store
        self._chunk_cache = chunk_cache
        self._reader_options = dict(reader_options or {})

    def _open(self, file_id: str):
        storage = self._store.open_data(file_id)
        try:
            reader = BullionReader(
                storage,
                chunk_cache=self._chunk_cache,
                **self._reader_options,
            )
        except BaseException:
            storage.close()
            raise
        return reader, storage.close
