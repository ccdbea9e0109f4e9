"""Server-side caches: two mechanisms, three instances.

The serving layer's performance model is "parse metadata once, then
never again until it actually changes":

* :class:`~repro.catalog.readers.LeaseCache` — the catalog's
  refcounted cache of resources that must be *closed*. Two instances:

  - :class:`ServerReaderPool` — one open :class:`BullionReader` per
    *file*, shared across every pin and request, with up to
    ``READER_POOL_CAPACITY`` idle readers kept: footers are read once
    per file for the life of the server.
  - :class:`PinCache` — one :class:`PinnedSnapshot` per snapshot id.
    A cached pin means repeat requests re-read **zero** manifests.

* :class:`KeyedCache` — a locked LRU of plain values, used for the
  query *result* cache (``(snapshot_id, plan) → wire rows``).

Every entry of either mechanism is tagged with file ids (a reader with
its own, a pin or a result with its snapshot's), so ``invalidate`` by
mutated file is exact: only entries that touch the file are dropped.
In-place mutations (compliance scrubs) arrive through the
:func:`repro.core.chunk_cache.notify_mutation` listener in
:mod:`repro.server.service`, which maps the mutated device back to its
pooled file.  Sizes are constants: one value each was ever in use.

Every structure is thread-safe and publishes hit/miss/invalidation
counters to the ``server_*`` families in :mod:`repro.obs.families`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.catalog.readers import LeaseCache, ReaderPool, _inc
from repro.obs import families as fam

__all__ = ["ServerReaderPool", "PinCache", "KeyedCache"]

READER_POOL_CAPACITY = 128
PIN_CACHE_ENTRIES = 4
RESULT_CACHE_ENTRIES = 256


class ServerReaderPool(ReaderPool):
    """The serving layer's :class:`ReaderPool`: it keeps
    ``READER_POOL_CAPACITY`` idle readers and publishes the ``server_*``
    footer-cache families."""

    def __init__(
        self, store, *, chunk_cache=None, reader_options: dict | None = None
    ) -> None:
        super().__init__(
            store,
            capacity=READER_POOL_CAPACITY,
            chunk_cache=chunk_cache,
            reader_options=reader_options,
            hits=fam.SERVER_FOOTER_CACHE_HITS,
            misses=fam.SERVER_FOOTER_CACHE_MISSES,
            invalidations=fam.SERVER_CACHE_INVALIDATIONS,
            gauge=fam.SERVER_POOLED_READERS,
        )


class PinCache(LeaseCache):
    """Shared ``snapshot_id → PinnedSnapshot`` cache for one table."""

    def __init__(self, table) -> None:
        super().__init__(
            PIN_CACHE_ENTRIES,
            "pins",
            hits=fam.SERVER_PIN_CACHE_HITS,
            misses=fam.SERVER_PIN_CACHE_MISSES,
            invalidations=fam.SERVER_CACHE_INVALIDATIONS,
        )
        self._table = table

    def _open(self, snapshot_id: int):
        pin = self._table.pin(snapshot_id=snapshot_id)
        return pin, pin.release, frozenset(pin.snapshot.file_ids())


# ---------------------------------------------------------------------------
# keyed LRU (the result cache)
# ---------------------------------------------------------------------------

class KeyedCache:
    """Locked LRU of ``key → value`` with per-entry file-id tags.

    ``hits``/``misses`` name the ``server_*`` counter families to feed;
    ``invalidate`` drops exactly the entries tagged with an affected
    file (the snapshot's file set at insert time).
    """

    def __init__(self, capacity: int, hits, misses, label: str):
        self._capacity = capacity
        self._lock = threading.Lock()
        self._entries: OrderedDict[bytes, tuple[object, frozenset]] = (
            OrderedDict()
        )
        self._hits = hits
        self._misses = misses
        self.label = label

    def get(self, key: bytes):
        with self._lock:
            hit = self._entries.get(key)
            if hit is None:
                _inc(self._misses)
                return None
            self._entries.move_to_end(key)
        _inc(self._hits)
        return hit[0]

    def put(self, key: bytes, value, file_ids=()) -> None:
        with self._lock:
            self._entries[key] = (value, frozenset(file_ids))
            self._entries.move_to_end(key)
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)

    def invalidate(self, file_ids) -> int:
        file_ids = set(file_ids)
        with self._lock:
            stale = [
                key
                for key, (_v, tags) in self._entries.items()
                if tags & file_ids
            ]
            for key in stale:
                del self._entries[key]
        if stale:
            _inc(
                fam.SERVER_CACHE_INVALIDATIONS, len(stale), cache=self.label
            )
        return len(stale)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
