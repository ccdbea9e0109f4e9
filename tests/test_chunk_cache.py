"""TieredChunkCache: byte budgets, disk spill, crash consistency,
single-flight, and fingerprint-keyed sharing across readers.

The disk tier's failure contract is the load-bearing part: a spill
file that was truncated, corrupted, or clobbered must surface as a
*miss* (refetch from the backend) — never as bad bytes.
"""

import threading

import numpy as np
import pytest

from repro.core import (
    BullionReader,
    BullionWriter,
    Table,
    TieredChunkCache,
    WriterOptions,
    delete_rows,
    storage_identity,
)
from repro.iosim import FileStorage, SimulatedStorage


def _cache(tmp_path=None, memory_bytes=1 << 20, disk_bytes=0, **kw):
    return TieredChunkCache(
        memory_bytes,
        disk_bytes=disk_bytes,
        disk_dir=str(tmp_path / "spill") if tmp_path else None,
        **kw,
    )


class TestMemoryTier:
    def test_byte_budget_evicts_lru(self):
        cache = _cache(memory_bytes=100)
        cache.put(("a",), b"x" * 40)
        cache.put(("b",), b"y" * 40)
        cache.get(("a",))  # a is now most-recent
        cache.put(("c",), b"z" * 40)  # 120 bytes: evict LRU = b
        assert cache.get(("b",)) is None
        assert cache.get(("a",)) == b"x" * 40
        assert cache.get(("c",)) == b"z" * 40
        assert cache.memory_used == 80
        assert cache.stats.memory_evictions == 1

    def test_oversized_entry_does_not_wedge(self):
        cache = _cache(memory_bytes=10)
        cache.put(("big",), b"x" * 100)
        assert cache.memory_used == 0  # immediately evicted
        assert cache.get(("big",)) is None

    def test_replacement_does_not_leak_budget(self):
        cache = _cache(memory_bytes=100)
        for _ in range(10):
            cache.put(("k",), b"a" * 60)
        assert cache.memory_used == 60
        assert len(cache) == 1

    def test_entry_cap_matches_legacy_contract(self):
        cache = _cache(max_entries=2)
        cache.put((0, 0), b"a")
        cache.put((0, 1), b"b")
        cache.put((0, 2), b"c")
        assert cache.get((0, 0)) is None
        assert cache.get((0, 2)) == b"c"
        assert len(cache) == 2


class TestLegacyShim:
    """What the retired per-reader ``ChunkCache`` shim promised, now
    held by the private ``TieredChunkCache`` a reader builds itself."""

    @staticmethod
    def _dev():
        dev = SimulatedStorage()
        BullionWriter(
            dev, options=WriterOptions(rows_per_page=100, rows_per_group=200)
        ).write(Table({"x": np.arange(1000, dtype=np.int64)}))
        return dev

    def test_byte_budget_on_the_legacy_cache(self):
        # a private cache is bounded by entries *and* by bytes
        cache = BullionReader(self._dev(), chunk_cache_size=3).chunk_cache
        assert isinstance(cache, TieredChunkCache)
        assert (cache.max_entries, cache.memory_bytes) == (3, 64 << 20)
        assert cache.disk_bytes == 0

    def test_capacity_zero_disables(self):
        dev = self._dev()
        reader = BullionReader(dev, chunk_cache_size=0)
        reader.scan(["x"], max_workers=0).to_table()
        first = dev.stats.bytes_read
        reader.scan(["x"], max_workers=0).to_table()
        assert dev.stats.bytes_read > first  # nothing was kept
        stats = reader.chunk_cache.stats
        assert len(reader.chunk_cache) == 0
        assert (stats.misses, stats.hits, stats.memory_evictions) == (10, 0, 0)


class TestDiskSpill:
    def test_eviction_spills_and_disk_hit_promotes(self, tmp_path):
        cache = _cache(tmp_path, memory_bytes=100, disk_bytes=1 << 20)
        cache.put(("a",), b"x" * 80)
        cache.put(("b",), b"y" * 80)  # evicts a -> spills to disk
        assert cache.stats.spills == 1
        assert cache.disk_used == 80
        assert cache.get(("a",)) == b"x" * 80  # disk hit
        assert cache.stats.disk_hits == 1
        # promoted back to memory: a second get is a memory hit
        assert cache.get(("a",)) == b"x" * 80
        assert cache.stats.memory_hits >= 1

    def test_cyclic_scan_spills_each_key_once(self, tmp_path):
        """A working set twice the memory budget, read in a cycle: LRU
        never hits in memory and every disk hit is promoted and evicted
        again — but a victim whose spill file is still in the disk tier
        is not written a second time."""
        cache = _cache(tmp_path, memory_bytes=400, disk_bytes=1 << 20)
        payloads = {(i,): bytes([i]) * 100 for i in range(8)}
        for key, raw in payloads.items():
            cache.put(key, raw)
        for _ in range(2):
            for key, raw in payloads.items():
                assert cache.get(key) == raw  # checksum-verified on read
        assert (cache.stats.memory_hits, cache.stats.disk_hits) == (0, 16)
        assert cache.stats.spills == len(payloads)
        assert cache.stats.spill_bytes == 800
        assert cache.disk_used == 800
        # the rule follows the disk tier's index, not history: a
        # corrupted spill file is still a miss, and once dropped the
        # key spills afresh
        for f in (tmp_path / "spill").iterdir():
            f.write_bytes(f.read_bytes()[:-1] + b"\xff")
        assert cache.get((0,)) is None
        assert cache.stats.checksum_failures == 1
        cache.put((0,), payloads[(0,)])
        for key in [(4,), (5,), (6,), (7,)]:  # push (0,) out of memory
            cache.put(key, payloads[key])
        assert cache.stats.spills == len(payloads) + 1
        assert cache.get((0,)) == payloads[(0,)]

    def test_disk_budget_bounded(self, tmp_path):
        cache = _cache(tmp_path, memory_bytes=50, disk_bytes=100)
        for i in range(5):
            cache.put((i,), bytes([i]) * 40)
        assert cache.disk_used <= 100
        assert cache.stats.disk_evictions > 0

    def test_clear_removes_spill_files(self, tmp_path):
        cache = _cache(tmp_path, memory_bytes=10, disk_bytes=1 << 20)
        cache.put(("a",), b"x" * 50)
        spill_dir = tmp_path / "spill"
        assert list(spill_dir.iterdir())
        cache.clear()
        assert not list(spill_dir.iterdir())
        assert cache.disk_used == 0


class TestDiskCrashConsistency:
    """Truncated/corrupt spill files -> miss + refetch, never bad bytes."""

    def _spilled(self, tmp_path):
        cache = _cache(tmp_path, memory_bytes=10, disk_bytes=1 << 20)
        cache.put(("k", 1), b"payload-bytes" * 10)
        (spill_file,) = (tmp_path / "spill").iterdir()
        return cache, spill_file

    def test_truncated_spill_is_a_miss(self, tmp_path):
        cache, spill_file = self._spilled(tmp_path)
        spill_file.write_bytes(spill_file.read_bytes()[:20])
        assert cache.get(("k", 1)) is None
        assert cache.stats.checksum_failures == 1
        assert not spill_file.exists()  # the bad entry was dropped
        assert cache.disk_used == 0

    def test_corrupted_spill_is_a_miss(self, tmp_path):
        cache, spill_file = self._spilled(tmp_path)
        blob = bytearray(spill_file.read_bytes())
        blob[-1] ^= 0xFF  # flip a payload bit
        spill_file.write_bytes(bytes(blob))
        assert cache.get(("k", 1)) is None
        assert cache.stats.checksum_failures == 1

    def test_deleted_spill_is_a_miss(self, tmp_path):
        cache, spill_file = self._spilled(tmp_path)
        spill_file.unlink()
        assert cache.get(("k", 1)) is None
        assert cache.stats.checksum_failures == 1

    def test_corrupt_spill_refetches_good_bytes_end_to_end(self, tmp_path):
        """A reader over a corrupted disk tier silently refetches from
        the backend and the scan still verifies against the file's own
        page checksums."""
        dev = SimulatedStorage()
        table = Table({"x": np.arange(400, dtype=np.int64)})
        BullionWriter(
            dev, options=WriterOptions(rows_per_page=100, rows_per_group=200)
        ).write(table)
        cache = TieredChunkCache(
            1,  # every entry immediately spills
            disk_bytes=1 << 20,
            disk_dir=str(tmp_path / "spill"),
        )
        reader = BullionReader(dev, chunk_cache=cache)
        assert np.array_equal(
            reader.scan(["x"], max_workers=0).to_table().column("x"),
            table.column("x"),
        )
        # smash every spill file, then re-scan through the same cache
        for f in (tmp_path / "spill").iterdir():
            f.write_bytes(b"garbage")
        out = reader.scan(["x"], max_workers=0).to_table()
        assert np.array_equal(out.column("x"), table.column("x"))
        assert cache.stats.checksum_failures > 0
        assert reader.verify()


def _fetch_through(cache, key, fetch):
    """The single-flight protocol as ``BullionReader`` drives it: at
    most one live ``fetch`` per key, waiters re-claim when it fails."""
    while True:
        values, mine, waits = cache.claim_many([key])
        if mine:
            try:
                raw = fetch()
            except BaseException as exc:
                cache.abandon(key, exc)
                raise
            cache.fulfill(key, raw)
            return raw
        if not waits:
            return values[0]
        flight = waits[0][1]
        flight.event.wait(30)
        if flight.error is None:
            return flight.value


class TestSingleFlight:
    def test_concurrent_fetchers_coalesce_to_one(self):
        cache = _cache()
        n_threads = 8
        fetches = []
        barrier = threading.Barrier(n_threads)
        results = []

        def fetch():
            fetches.append(1)
            return b"the-bytes"

        def worker():
            barrier.wait()
            results.append(_fetch_through(cache, ("hot",), fetch))

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(fetches) == 1
        assert results == [b"the-bytes"] * n_threads
        assert cache.stats.misses == 1
        assert (
            cache.stats.hits + cache.stats.singleflight_waits == n_threads - 1
        )

    def test_leader_failure_promotes_a_waiter(self):
        cache = _cache()
        release = threading.Event()
        attempts = []

        def failing_fetch():
            attempts.append("leader")
            release.wait(5)
            raise OSError("backend 500")

        def good_fetch():
            attempts.append("waiter")
            return b"recovered"

        leader_err = []

        def leader():
            try:
                _fetch_through(cache, ("k",), failing_fetch)
            except OSError as exc:
                leader_err.append(exc)

        t1 = threading.Thread(target=leader)
        t1.start()
        while not attempts:  # leader holds the flight
            pass
        got = []
        t2 = threading.Thread(
            target=lambda: got.append(
                _fetch_through(cache, ("k",), good_fetch)
            )
        )
        t2.start()
        release.set()
        t1.join()
        t2.join()
        assert leader_err  # the leader saw its own error
        assert got == [b"recovered"]  # the waiter retried and won
        assert attempts == ["leader", "waiter"]

    def test_claim_fulfill_contract(self):
        cache = _cache()
        assert cache.claim_many([("k",)]) == ([None], [0], [])  # mine
        values, mine, waits = cache.claim_many([("k",)])
        assert values == [None] and not mine
        (position, flight), = waits  # in flight: wait
        assert position == 0
        cache.fulfill(("k",), b"v")
        assert flight.value == b"v" and flight.event.is_set()
        assert cache.claim_many([("k",)]) == ([b"v"], [], [])  # hit


class TestSharingAndInvalidation:
    def _write(self, dev, n=400):
        BullionWriter(
            dev, options=WriterOptions(rows_per_page=100, rows_per_group=200)
        ).write(Table({"x": np.arange(n, dtype=np.int64)}))

    def test_second_reader_hits_first_readers_entries(self):
        dev = SimulatedStorage()
        self._write(dev)
        cache = _cache()
        r1 = BullionReader(dev, chunk_cache=cache)
        r1.scan(["x"], max_workers=0).to_table()
        reads_before = dev.stats.reads
        r2 = BullionReader(dev, chunk_cache=cache)  # fresh reader, same file
        out = r2.scan(["x"], max_workers=0).to_table()
        # only the footer open hit the device; all chunks came shared
        assert dev.stats.reads == reads_before + 1
        assert np.array_equal(out.column("x"), np.arange(400))

    def test_fingerprint_isolates_mutated_file(self):
        """In-place deletion changes the footer fingerprint, so a new
        reader over the mutated file can never be served the old
        chunks — without any explicit invalidation."""
        dev = SimulatedStorage()
        self._write(dev)
        cache = _cache()
        r1 = BullionReader(dev, chunk_cache=cache)
        before = r1.scan(["x"], max_workers=0).to_table()
        assert before.num_rows == 400
        delete_rows(dev, range(100))
        r2 = BullionReader(dev, chunk_cache=cache)
        assert r2.fingerprint != r1.fingerprint
        after = r2.scan(["x"], max_workers=0).to_table()
        assert after.num_rows == 300
        assert after.column("x").min() == 100

    def test_invalidate_prefix_scopes_to_one_storage(self):
        cache = _cache()
        cache.put(("dev-a", 1, 0, 0), b"a")
        cache.put(("dev-b", 1, 0, 0), b"b")
        dropped = cache.invalidate_prefix(("dev-a",))
        assert dropped == 1
        assert cache.get(("dev-a", 1, 0, 0)) is None
        assert cache.get(("dev-b", 1, 0, 0)) == b"b"

    def test_storage_identity_file_vs_memory(self, tmp_path):
        path = tmp_path / "t.bln"
        fs1 = FileStorage(str(path))
        fs2 = FileStorage(str(path))
        try:
            assert storage_identity(fs1) == storage_identity(fs2)
        finally:
            fs1.close()
            fs2.close()
        m1, m2 = SimulatedStorage(), SimulatedStorage()
        assert storage_identity(m1) != storage_identity(m2)
        assert storage_identity(m1) == storage_identity(m1)

    def test_reader_invalidate_cache_on_shared_cache(self):
        dev = SimulatedStorage()
        self._write(dev)
        cache = _cache()
        reader = BullionReader(dev, chunk_cache=cache)
        reader.scan(["x"], max_workers=0).to_table()
        assert len(cache) > 0
        reader.invalidate_cache()
        assert len(cache) == 0

    def test_rejects_disk_budget_without_dir(self):
        with pytest.raises(ValueError):
            TieredChunkCache(1 << 20, disk_bytes=1 << 20)
