"""The chunk cache: tiered, shareable, with single-flight dedup.

Every :class:`~repro.core.reader.BullionReader` caches raw chunk bytes
in a :class:`TieredChunkCache` — a small private one by default, or
one the caller creates and shares across readers. On local devices
a miss costs one cheap ``pread``; on an object store every miss is a
paid round trip, so the cache is load-bearing infrastructure with
three properties:

**Byte budgets and tiers.**  A memory tier holds raw chunk bytes under
an LRU byte budget; evictions optionally *spill* to a bounded
local-disk tier (cheap capacity between RAM and the remote store).
A key names immutable bytes, so a victim whose spill file is still in
the disk tier is not written again: a disk hit is promoted to memory
and later evicted without costing a second write.
Disk entries carry a content checksum and the serialized key, so a
truncated or corrupted spill file — crash, concurrent trim, cosmic ray
— is detected on read, deleted, and reported as a miss: the caller
refetches from the backend and never sees bad bytes.

**Correct sharing.**  Entries are keyed by
``(storage identity, file fingerprint, column, row group)``.  The
identity pins the backing device (path for files, object identity for
in-memory devices); the fingerprint is a hash of the file's footer
bytes, which cover the Merkle root, stats and deletion state.

**No invalidation.**  A committed data file is immutable, and a new
snapshot means new cache keys: the catalog scrubs and rewrites only
staged copies and opens committed files read-only, so nothing a
snapshot names ever changes under a reader, and no cache in the
system — this one, the catalog's reader pools and snapshot indexes,
the server's pins and results — has an ``invalidate`` path.  Entries
of files that left every snapshot age out of their LRU.  The
fingerprint in these keys covers the one case outside the catalog: a
raw file scrubbed in place (:func:`repro.core.deletion.delete_rows`)
gets a new footer, so a reader opened after the scrub never meets the
old chunks in a shared cache.

**Single-flight.**  Concurrent requests for one in-flight chunk
coalesce onto a shared flight: exactly one caller fetches from the
backend while the rest block on its event (counted as
``cache_singleflight_waits_total``).  If the leader fails, a waiter
retries the claim and becomes the new leader — a thundering herd on a
hot chunk resolves to exactly one upstream fetch, never zero.
"""

from __future__ import annotations

import os
import struct
import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.iosim.directory import OSDirectory, read_file, write_file
from repro.obs import families as _fam
from repro.obs import metrics as obs_metrics
from repro.util.hashing import hash_bytes

__all__ = [
    "TieredChunkCache",
    "TierStats",
    "storage_identity",
]

#: Spill-file layout: magic, payload checksum, key length, key, payload.
_SPILL_MAGIC = b"SPL1"
_SPILL_HEADER = struct.Struct("<4sQI")

_DEFAULT_MEMORY_BYTES = 64 << 20


def _spill_head(key_bytes: bytes, raw: bytes) -> bytes:
    """Everything a spill file holds before its payload ``raw``."""
    header = _SPILL_HEADER.pack(_SPILL_MAGIC, hash_bytes(raw), len(key_bytes))
    return header + key_bytes


@dataclass
class TierStats(_fam.Counters):
    """Counters for one :class:`TieredChunkCache`."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    memory_evictions: int = 0
    disk_evictions: int = 0
    spills: int = 0
    spill_bytes: int = 0
    singleflight_waits: int = 0
    checksum_failures: int = 0

    families = {
        "memory_hits": ("cache_tier_hits_total", {"tier": "memory"}),
        "disk_hits": ("cache_tier_hits_total", {"tier": "disk"}),
        "misses": "cache_tier_misses_total",
        "memory_evictions": ("cache_tier_evictions_total", {"tier": "memory"}),
        "disk_evictions": ("cache_tier_evictions_total", {"tier": "disk"}),
        "spills": "cache_spills_total",
        "spill_bytes": "cache_spill_bytes_total",
        "singleflight_waits": "cache_singleflight_waits_total",
        "checksum_failures": "cache_checksum_failures_total",
    }

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits


class _Flight:
    """One in-flight backend fetch that waiters can block on."""

    __slots__ = ("event", "value", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.value: bytes | None = None
        self.error: BaseException | None = None


class TieredChunkCache:
    """Byte-budgeted memory tier spilling to a bounded disk tier.

    Keys are arbitrary hashable tuples; readers use
    ``(storage identity, file fingerprint, col_idx, row_group)``.
    ``memory_bytes`` bounds the memory tier; ``disk_bytes > 0`` (with a
    ``disk_dir``) enables the spill tier.  ``max_entries`` additionally
    caps the memory tier by entry count — how a reader sizes its
    private cache; ``max_entries=0`` admits nothing (an uncached
    reader: every lookup is a miss, single-flight still dedups).

    Thread-safe.  Counters publish to the process-wide
    ``cache_tier_*`` metric families.
    """

    def __init__(
        self,
        memory_bytes: int = _DEFAULT_MEMORY_BYTES,
        *,
        disk_bytes: int = 0,
        disk_dir: str | None = None,
        max_entries: int | None = None,
        name: str = "chunks",
    ) -> None:
        if disk_bytes > 0 and disk_dir is None:
            raise ValueError("disk_bytes > 0 requires disk_dir")
        self.name = name
        self.memory_bytes = memory_bytes
        self.disk_bytes = disk_bytes
        self.disk_dir = disk_dir
        self.max_entries = max_entries
        self.stats = TierStats()
        self._mem: OrderedDict[tuple, bytes] = OrderedDict()
        self._mem_bytes = 0
        #: key -> spill-file payload size (LRU order, oldest first)
        self._disk: OrderedDict[tuple, int] = OrderedDict()
        self._disk_bytes = 0
        self._flights: dict[tuple, _Flight] = {}
        self._lock = threading.Lock()
        self._spill_dir = OSDirectory(disk_dir) if disk_bytes > 0 else None

    # -- introspection --------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._mem)

    @property
    def memory_used(self) -> int:
        return self._mem_bytes

    @property
    def disk_used(self) -> int:
        return self._disk_bytes

    def _publish_gauges(self) -> None:
        # called under self._lock
        if not obs_metrics.enabled():
            return
        _fam.CACHE_TIER_BYTES.labels(cache=self.name, tier="memory").set(
            self._mem_bytes
        )
        if self.disk_bytes > 0:
            _fam.CACHE_TIER_BYTES.labels(cache=self.name, tier="disk").set(
                self._disk_bytes
            )

    # -- lookup ---------------------------------------------------------
    def get(self, key: tuple) -> bytes | None:
        """Memory tier, then disk tier, else ``None`` (a miss)."""
        counts = {}
        with self._lock:
            raw = self._lookup_locked(key, counts)
            self.stats.bump(**counts, misses=raw is None)
            return raw

    def _lookup_locked(self, key: tuple, tally: dict) -> bytes | None:
        raw = self._mem.get(key)
        if raw is not None:
            self._mem.move_to_end(key)
            tally["memory_hits"] = tally.get("memory_hits", 0) + 1
            return raw
        if key in self._disk:
            raw = self._disk_read_locked(key)
            if raw is not None:
                # promote back into memory (it is hot again)
                tally["disk_hits"] = tally.get("disk_hits", 0) + 1
                self._put_memory_locked(key, raw)
                return raw
        return None

    # -- insert ---------------------------------------------------------
    def put(self, key: tuple, raw: bytes) -> None:
        with self._lock:
            self._put_memory_locked(key, raw)

    def _put_memory_locked(self, key: tuple, raw: bytes) -> None:
        if self.max_entries == 0:
            return  # uncached: never admitted, so nothing to evict
        old = self._mem.pop(key, None)
        if old is not None:
            self._mem_bytes -= len(old)
        self._mem[key] = raw
        self._mem_bytes += len(raw)
        while self._mem and (
            self._mem_bytes > self.memory_bytes
            or (
                self.max_entries is not None
                and len(self._mem) > self.max_entries
            )
        ):
            victim_key, victim = self._mem.popitem(last=False)
            self._mem_bytes -= len(victim)
            self.stats.bump(memory_evictions=1)
            if (
                self.disk_bytes > 0
                and len(victim) <= self.disk_bytes
                and victim_key not in self._disk
            ):
                self._spill_locked(victim_key, victim)
        self._publish_gauges()

    # -- disk tier ------------------------------------------------------
    @staticmethod
    def _spill_name(key: tuple) -> str:
        return f"{hash_bytes(repr(key).encode()):016x}.chunk"

    def _spill_locked(self, key: tuple, raw: bytes) -> None:
        blob = _spill_head(repr(key).encode(), raw) + raw
        name = self._spill_name(key)
        try:
            self._spill_dir.unlink(name)  # an earlier cache's leftover
            write_file(self._spill_dir, name, blob)
        except OSError:
            return  # disk tier is best-effort; a failed spill is a miss
        self._disk[key] = len(raw)
        self._disk_bytes += len(raw)
        self.stats.bump(spills=1, spill_bytes=len(raw))
        while self._disk and self._disk_bytes > self.disk_bytes:
            victim_key, nbytes = self._disk.popitem(last=False)
            self._disk_bytes -= nbytes
            self.stats.bump(disk_evictions=1)
            self._unlink_quiet(victim_key)

    def _disk_read_locked(self, key: tuple) -> bytes | None:
        """Read + verify a spill entry; corrupt/truncated → drop, miss."""
        expected = self._disk.get(key)
        key_bytes = repr(key).encode()
        try:
            blob = read_file(self._spill_dir, self._spill_name(key))
        except OSError:
            blob = b""
        raw = blob[_SPILL_HEADER.size + len(key_bytes) :]
        if len(raw) != expected or not blob.startswith(
            _spill_head(key_bytes, raw)
        ):
            self._disk.pop(key, None)
            if expected is not None:
                self._disk_bytes -= expected
            self._unlink_quiet(key)
            self.stats.bump(checksum_failures=1)
            return None
        self._disk.move_to_end(key)
        return raw

    def _unlink_quiet(self, key: tuple) -> None:
        try:
            self._spill_dir.unlink(self._spill_name(key))
        except OSError:
            pass

    # -- single-flight ---------------------------------------------------
    def claim_many(
        self, keys: list, tally: dict | None = None
    ) -> tuple[list, list, list]:
        """Resolve every key under one lock, counted in one
        :meth:`TierStats.bump` (into ``tally``, if given): each key's
        cached bytes (None unless a hit, in either tier), the positions
        the caller now leads — it MUST later :meth:`fulfill` or
        :meth:`abandon` each — and ``(position, flight)`` per key
        another thread is fetching: block on ``flight.event`` and claim
        again if its ``error`` is set."""
        counts: dict = {}
        mine, waits = [], []
        memory = self._mem
        with self._lock:
            # the memory tier in one pass (all of a warm read) ...
            values = list(map(memory.get, keys))
            missed = values.count(None)
            if missed < len(keys):
                counts["memory_hits"] = len(keys) - missed
                for key, raw in zip(keys, values):
                    if raw is not None:
                        memory.move_to_end(key)
            # ... then the disk tier, else a flight to lead or wait on
            for i, key in enumerate(keys if missed else ()):
                if values[i] is not None:
                    continue
                raw = values[i] = self._lookup_locked(key, counts)
                if raw is not None:
                    continue
                flight = self._flights.get(key)
                if flight is not None:
                    waits.append((i, flight))
                else:
                    self._flights[key] = _Flight()
                    mine.append(i)
            if mine:
                counts["misses"] = len(mine)
            if waits:
                counts["singleflight_waits"] = len(waits)
            self.stats.bump(tally, **counts)
        return values, mine, waits

    def fulfill(self, key: tuple, raw: bytes) -> None:
        """Leader path: publish fetched bytes and wake all waiters."""
        with self._lock:
            self._put_memory_locked(key, raw)
            flight = self._flights.pop(key, None)
        if flight is not None:
            flight.value = raw
            flight.event.set()

    def abandon(self, key: tuple, error: BaseException | None = None) -> None:
        """Leader path on failure: wake waiters so one can retry."""
        with self._lock:
            flight = self._flights.pop(key, None)
        if flight is not None:
            flight.error = error or RuntimeError("fetch abandoned")
            flight.event.set()

    def clear(self) -> None:
        with self._lock:
            self._mem.clear()
            self._mem_bytes = 0
            for key in list(self._disk):
                self._unlink_quiet(key)
            self._disk.clear()
            self._disk_bytes = 0
            self._publish_gauges()


# ---------------------------------------------------------------------------
# cache keys: storage identity + file fingerprint
# ---------------------------------------------------------------------------

def storage_identity(storage) -> str:
    """A stable identity for the device underneath any wrapper stack.

    File-backed devices identify by absolute path (every fresh
    ``FileStorage`` over one file shares entries); in-memory devices by
    object identity (the catalog's memory store hands out the *same*
    ``SimulatedStorage`` per file id, so identity is stable exactly as
    long as the bytes are reachable).
    """
    base = storage
    while hasattr(base, "inner"):
        base = base.inner
    path = getattr(base, "path", None)
    if path is not None:
        return f"file:{os.path.abspath(path)}"
    return f"mem:{id(base):x}"
