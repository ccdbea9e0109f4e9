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

No entry ever goes stale, so no cache here has an ``invalidate``: a
committed file is immutable and a new snapshot means new keys (see
:mod:`repro.core.chunk_cache`) — a file id, a snapshot id and a
``(snapshot_id, plan)`` pair each name one fixed answer forever.
Entries leave by LRU eviction or on close.  Sizes are constants: one
value each was ever in use.

Every structure is thread-safe and publishes hit/miss counters to the
``server_*`` families in :mod:`repro.obs.families`.
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
        )
        self._table = table

    def _open(self, snapshot_id: int):
        pin = self._table.pin(snapshot_id=snapshot_id)
        return pin, pin.release


# ---------------------------------------------------------------------------
# keyed LRU (the result cache)
# ---------------------------------------------------------------------------

class KeyedCache:
    """Locked LRU of ``key → value``.

    ``hits``/``misses`` name the ``server_*`` counter families to feed.
    """

    def __init__(self, capacity: int, hits, misses):
        self._capacity = capacity
        self._lock = threading.Lock()
        self._entries: OrderedDict[bytes, object] = OrderedDict()
        self._hits = hits
        self._misses = misses

    def get(self, key: bytes):
        with self._lock:
            hit = self._entries.get(key)
            if hit is None:
                _inc(self._misses)
                return None
            self._entries.move_to_end(key)
        _inc(self._hits)
        return hit

    def put(self, key: bytes, value) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
