"""Metadata / result-cache behaviour, proven at the storage layer.

A counting catalog store records every manifest read
(``read_metadata``) and every file open (``open_data`` — each open
costs one footer parse).  The serving layer's contract:

* repeat queries and scans on a warm server do **zero** manifest reads
  and **zero** file opens — metadata is parsed once per (snapshot,
  file) for the life of the server;
* a committed snapshot invalidates nothing retroactively: the next
  HEAD request reads exactly the new snapshot's manifest and opens
  exactly the new file, while requests pinned to old snapshots keep
  hitting their caches;
* an in-place compliance scrub (:func:`repro.core.deletion.delete_rows`
  fires :func:`repro.core.chunk_cache.notify_mutation`) invalidates
  exactly the entries whose snapshot references the mutated file —
  entries for snapshots that never saw the file survive untouched —
  and the recomputed response is byte-identical to a fresh library
  replay.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.catalog import CatalogTable, MemoryCatalogStore
from repro.core.chunk_cache import storage_identity
from repro.core.deletion import delete_rows
from repro.obs import families as fam
from repro.core.table import Table
from repro.iosim import StorageWrapper
from repro.obs.metrics import default_registry
from repro.server import BullionServer, ServerClient, TableService
from repro.server import cache as cache_mod
from repro.server import protocol
from repro.server.cache import KeyedCache, PinCache, ServerReaderPool


class CountingCatalogStore(MemoryCatalogStore):
    """Counts manifest reads and data-file opens between phases."""

    def __init__(self) -> None:
        super().__init__("counting")
        self.meta_reads = 0
        self.data_opens = 0

    def read_metadata(self, name: str) -> bytes:
        self.meta_reads += 1
        return super().read_metadata(name)

    def open_data(self, file_id: str):
        self.data_opens += 1
        return super().open_data(file_id)

    def begin_phase(self) -> None:
        self.meta_reads = 0
        self.data_opens = 0


def _batch(lo: int, n: int, seed: int) -> Table:
    rng = np.random.default_rng(seed)
    return Table({
        "ts": np.arange(lo, lo + n, dtype=np.int64),
        "v": rng.normal(size=n),
        "region": rng.integers(0, 5, size=n).astype(np.int32),
    })


def _serve(store, table, **kwargs):
    service = TableService({"events": table}, workers=2, **kwargs)
    server = BullionServer(service)
    client = ServerClient(server.host, server.port, timeout=30.0)
    return server, client


def test_warm_repeat_requests_read_no_metadata():
    store = CountingCatalogStore()
    table = CatalogTable.create(store)
    for k in range(3):
        table.append(_batch(k * 100, 100, seed=k))
    server, client = _serve(store, table)
    try:
        # cold pass: parse everything once
        client.query("events", ["count", "sum(v)"], where="region >= 1")
        client.scan("events", ["ts", "v"], where="region = 2")
        reg = default_registry()
        store.begin_phase()
        base = reg.snapshot()
        for _ in range(5):
            client.query(
                "events", ["count", "sum(v)"], where="region >= 1"
            )
            client.scan("events", ["ts", "v"], where="region = 2")
        assert store.meta_reads == 0, "warm queries re-read a manifest"
        assert store.data_opens == 0, "warm queries re-read a footer"
        delta = reg.delta(base)
        assert delta.value("server_result_cache_hits_total") == 5
        assert delta.value("server_footer_cache_misses_total") == 0
    finally:
        client.close()
        server.close()


def test_commit_costs_exactly_the_new_metadata():
    store = CountingCatalogStore()
    table = CatalogTable.create(store)
    table.append(_batch(0, 100, seed=0))
    table.append(_batch(100, 100, seed=1))
    server, client = _serve(store, table)
    try:
        old = client.query("events", ["sum(v)"])
        old_sid = old.snapshot_id
        table.append(_batch(200, 100, seed=2))  # the racing committer
        store.begin_phase()
        head = client.query("events", ["sum(v)"])
        assert head.snapshot_id == old_sid + 1
        # commit already cached the new snapshot document in the
        # table handle, so the only storage touch is the pin-time
        # existence check — and never a re-read of the old manifests
        assert store.meta_reads == 1
        # exactly the new file's footer; the old readers stay pooled
        assert store.data_opens == 1
        # the old snapshot's entry was not invalidated by the commit
        store.begin_phase()
        past = client.query("events", ["sum(v)"], snapshot_id=old_sid)
        assert past.raw == old.raw
        assert store.meta_reads == 0 and store.data_opens == 0
    finally:
        client.close()
        server.close()


def test_scrub_invalidates_exactly_the_affected_entries():
    store = CountingCatalogStore()
    table = CatalogTable.create(store)
    s1 = table.append(_batch(0, 100, seed=0))
    s2 = table.append(_batch(100, 100, seed=1))
    (file_b,) = sorted(s2.file_ids() - s1.file_ids())
    server, client = _serve(store, table)
    try:
        reg = default_registry()
        old = client.query(
            "events", ["sum(ts)"], snapshot_id=s1.snapshot_id
        )
        head = client.query("events", ["sum(ts)"])
        assert head.snapshot_id == s2.snapshot_id

        # compliance scrub, outside the catalog: rows 0-2 of file B
        storage = store.open_data(file_b)
        base = reg.snapshot()
        store.begin_phase()
        delete_rows(storage, [0, 1, 2])
        delta = reg.delta(base)
        assert (
            delta.value(
                "server_cache_invalidations_total", cache="readers"
            )
            == 1
        )
        assert (
            delta.value(
                "server_cache_invalidations_total", cache="results"
            )
            == 1  # only the head entry references file B
        )

        # the S1 entry survived: cache hit, zero storage traffic,
        # byte-identical to the pre-scrub response
        store.begin_phase()
        past = client.query(
            "events", ["sum(ts)"], snapshot_id=s1.snapshot_id
        )
        assert past.raw == old.raw
        assert store.meta_reads == 0 and store.data_opens == 0

        # the head entry was dropped: recomputed with exactly one
        # file re-opened (the scrubbed one), and byte-identical to a
        # fresh library replay through an independent table handle
        store.begin_phase()
        fresh = client.query("events", ["sum(ts)"])
        assert store.data_opens == 1
        assert fresh.raw != head.raw, "scrub must change the answer"
        replica = CatalogTable(store)
        pin = replica.pin(snapshot_id=s2.snapshot_id)
        try:
            plan = protocol.canonical_query_plan(
                {"aggregates": ["sum(ts)"]}
            )
            assert fresh.raw == protocol.replay_query_frame(
                pin, s2.snapshot_id, plan
            )
        finally:
            pin.release()
    finally:
        client.close()
        server.close()


def test_mutation_of_unknown_storage_is_a_noop():
    store = CountingCatalogStore()
    table = CatalogTable.create(store)
    table.append(_batch(0, 50, seed=0))
    server, client = _serve(store, table)
    try:
        warm = client.query("events", ["sum(ts)"])
        # scrub a file the server never opened (a different store)
        other = MemoryCatalogStore("other")
        other_table = CatalogTable.create(other)
        snap = other_table.append(_batch(0, 50, seed=9))
        (fid,) = snap.file_ids()
        delete_rows(other.open_data(fid), [0])
        store.begin_phase()
        again = client.query("events", ["sum(ts)"])
        assert again.raw == warm.raw
        assert store.meta_reads == 0 and store.data_opens == 0
    finally:
        client.close()
        server.close()


# ---------------------------------------------------------------------------
# cache structures in isolation
# ---------------------------------------------------------------------------

def test_reader_pool_shares_footers_and_drains_busy_entries():
    store = CountingCatalogStore()
    table = CatalogTable.create(store)
    snap = table.append(_batch(0, 50, seed=0))
    (fid,) = snap.file_ids()
    store.begin_phase()
    pool = ServerReaderPool(store)
    r1 = pool.acquire(fid)
    r2 = pool.acquire(fid)
    assert r1 is r2 and store.data_opens == 1
    # invalidate while busy: the entry drains instead of vanishing
    # under its holders, and the next acquire opens afresh
    assert pool.invalidate([fid]) == 1
    r3 = pool.acquire(fid)
    assert r3 is not r1 and store.data_opens == 2
    pool.release(fid, r3)
    pool.release(fid, r1)
    pool.release(fid, r2)
    assert len(pool) == 1
    identity = storage_identity(store.open_data(fid))
    assert pool.file_for_identity(identity) == fid
    pool.close()


class _Ledger:
    """Counts opens and closes of the resources behind a LeaseCache;
    closing one resource twice fails at the second close."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.opened = 0
        self.closed = 0
        #: set to a ``threading.Barrier`` to hold every open until
        #: that many threads are inside one
        self.gate = None

    def open(self) -> None:
        with self._lock:
            self.opened += 1
        if self.gate is not None:
            self.gate.wait(timeout=10)

    def close(self, resource) -> None:
        with self._lock:
            assert not resource.closed, "closed twice"
            resource.closed = True
            self.closed += 1


class _LedgerStorage(StorageWrapper):
    closed = False

    def __init__(self, inner, ledger) -> None:
        super().__init__(inner)
        self._ledger = ledger

    def pread(self, offset: int, size: int) -> bytes:
        if self.closed:
            raise ValueError("read of a closed storage")
        return self.inner.pread(offset, size)

    def close(self) -> None:
        self._ledger.close(self)


class _LedgerStore(MemoryCatalogStore):
    ledger = None  # set once the table is built

    def open_data(self, file_id: str):
        storage = super().open_data(file_id)
        if self.ledger is None:
            return storage
        self.ledger.open()
        return _LedgerStorage(storage, self.ledger)


class _LedgerPin:
    closed = False

    def __init__(self, pin, ledger) -> None:
        self._pin = pin
        self._ledger = ledger
        self.snapshot = pin.snapshot

    def release(self) -> None:
        self._ledger.close(self)
        self._pin.release()


class _LedgerTable:
    def __init__(self, table, ledger) -> None:
        self._table = table
        self._ledger = ledger

    def pin(self, snapshot_id: int):
        self._ledger.open()
        pin = self._table.pin(snapshot_id=snapshot_id)
        return _LedgerPin(pin, self._ledger)


class _Harness:
    """One LeaseCache instance of capacity 2 over four keys, oldest
    first; ``newest_file`` tags the last key and no other."""

    def __init__(self, kind: str, monkeypatch) -> None:
        monkeypatch.setattr(cache_mod, "READER_POOL_CAPACITY", 2)
        monkeypatch.setattr(cache_mod, "PIN_CACHE_ENTRIES", 2)
        self.kind = kind
        self.ledger = _Ledger()
        store = _LedgerStore("lease")
        table = CatalogTable.create(store)
        files, seen = [], set()
        snaps = [table.append(_batch(k * 10, 10, seed=k)) for k in range(4)]
        for snap in snaps:
            (new,) = snap.file_ids() - seen
            files.append(new)
            seen.add(new)
        self.newest_file = files[-1]
        if kind == "readers":
            store.ledger = self.ledger
            # uncached readers: every use reaches the storage
            self.cache = ServerReaderPool(
                store, reader_options={"chunk_cache_size": 0}
            )
            self.keys = files
        else:
            self.cache = PinCache(_LedgerTable(table, self.ledger))
            self.keys = [s.snapshot_id for s in snaps]

    def usable(self, resource) -> bool:
        """Can a holder still use ``resource``, i.e. is it not closed?"""
        if self.kind == "pins":
            return not resource.closed
        try:
            resource.project(["ts"])
        except ValueError:
            return False
        return True


@pytest.fixture(params=["readers", "pins"])
def lease(request, monkeypatch):
    """A harness whose cache is closed — and whose every opened
    resource is checked to be closed exactly once — after the test."""
    harness = _Harness(request.param, monkeypatch)
    yield harness
    harness.cache.close()
    assert harness.ledger.opened == harness.ledger.closed


def test_lease_hit_shares_the_resource(lease):
    cache, ledger, key = lease.cache, lease.ledger, lease.keys[0]
    first = cache.acquire(key)
    assert cache.acquire(key) is first
    assert ledger.opened == 1
    cache.release(key, first)
    cache.release(key, first)
    assert ledger.closed == 0 and len(cache) == 1  # idle, still cached
    assert cache.acquire(key) is first and ledger.opened == 1
    cache.release(key, first)


def test_lease_racing_misses_leave_one_survivor(lease):
    cache, ledger, key = lease.cache, lease.ledger, lease.keys[0]
    ledger.gate = threading.Barrier(2)  # both threads are mid-open
    got = []
    threads = [
        threading.Thread(target=lambda: got.append(cache.acquire(key)))
        for _ in range(2)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
        assert not t.is_alive()
    ledger.gate = None
    assert len(got) == 2 and got[0] is got[1]
    # the loser's redundant resource was closed, once; the survivor lives
    assert (ledger.opened, ledger.closed) == (2, 1)
    assert lease.usable(got[0])
    for resource in got:
        cache.release(key, resource)
    assert ledger.closed == 1 and len(cache) == 1


def test_lease_invalidate_while_held_drains(lease):
    cache, ledger, key = lease.cache, lease.ledger, lease.keys[-1]
    held = cache.acquire(key)
    assert cache.invalidate([lease.newest_file]) == 1
    assert ledger.closed == 0 and lease.usable(held)
    fresh = cache.acquire(key)  # the next acquire opens afresh
    assert fresh is not held and ledger.opened == 2
    cache.release(key, held)  # last release of the drained entry
    assert ledger.closed == 1 and not lease.usable(held)
    cache.release(key, fresh)
    assert ledger.closed == 1 and lease.usable(fresh)
    # an idle entry is closed by the invalidation itself
    assert cache.invalidate([lease.newest_file]) == 1
    assert ledger.closed == 2 and len(cache) == 0
    assert cache.invalidate([lease.newest_file]) == 0


def test_lease_lru_evicts_idle_entries_only(lease):
    cache, ledger = lease.cache, lease.ledger
    k0, k1, k2, k3 = lease.keys
    held = {k: cache.acquire(k) for k in (k0, k1, k2)}
    # capacity is 2 and all three are busy: overflow, nothing closed
    assert len(cache) == 3 and ledger.closed == 0
    assert all(lease.usable(r) for r in held.values())
    cache.release(k0, held[k0])  # the only idle entry goes at once
    assert len(cache) == 2 and ledger.closed == 1
    cache.release(k1, held[k1])
    cache.release(k2, held[k2])
    assert len(cache) == 2 and ledger.closed == 1
    cache.release(k3, cache.acquire(k3))  # evicts k1, the LRU idle one
    assert len(cache) == 2 and ledger.closed == 2
    opened = ledger.opened
    cache.release(k2, cache.acquire(k2))
    assert ledger.opened == opened, "k2 was more recent than k1"
    cache.release(k1, cache.acquire(k1))
    assert ledger.opened == opened + 1


def test_lease_close_with_holders_closes_on_last_release(lease):
    cache, ledger = lease.cache, lease.ledger
    k0, k1 = lease.keys[:2]
    held = cache.acquire(k0)
    cache.release(k1, cache.acquire(k1))
    cache.close()
    assert ledger.closed == 1 and lease.usable(held)  # only the idle one
    with pytest.raises(RuntimeError, match="closed"):
        cache.acquire(k0)
    cache.release(k0, held)
    assert ledger.closed == 2 and not lease.usable(held)


def test_lease_stress_never_closes_under_a_holder(lease):
    """More threads than cores, a short switch interval: a resource is
    usable for as long as it is held, whatever the others invalidate."""
    cache, keys = lease.cache, lease.keys
    errors = []

    def worker(seed: int) -> None:
        rng = np.random.default_rng(seed)
        try:
            for _ in range(150):
                key = keys[int(rng.integers(len(keys)))]
                resource = cache.acquire(key)
                try:
                    if rng.integers(8) == 0:
                        cache.invalidate([lease.newest_file])
                    assert lease.usable(resource)
                finally:
                    cache.release(key, resource)
        except BaseException as exc:  # noqa: BLE001 — reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=worker, args=(seed,)) for seed in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors
    assert len(cache) <= 2  # everything is idle, so capacity holds


def test_keyed_cache_invalidates_by_file_tag():
    cache = KeyedCache(
        8,
        fam.SERVER_RESULT_CACHE_HITS,
        fam.SERVER_RESULT_CACHE_MISSES,
        "results",
    )
    cache.put(b"a", 1, file_ids={"f1"})
    cache.put(b"b", 2, file_ids={"f1", "f2"})
    cache.put(b"c", 3, file_ids={"f3"})
    assert cache.invalidate({"f1"}) == 2
    assert cache.get(b"a") is None and cache.get(b"b") is None
    assert cache.get(b"c") == 3
    cache.clear()
    assert len(cache) == 0


def test_keyed_cache_lru_eviction():
    cache = KeyedCache(
        2,
        fam.SERVER_RESULT_CACHE_HITS,
        fam.SERVER_RESULT_CACHE_MISSES,
        "results",
    )
    cache.put(b"a", 1)
    cache.put(b"b", 2)
    assert cache.get(b"a") == 1  # refresh a
    cache.put(b"c", 3)  # evicts b, the least recently used
    assert cache.get(b"b") is None
    assert cache.get(b"a") == 1 and cache.get(b"c") == 3
