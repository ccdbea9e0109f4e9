"""ObjectStorage backend: cost model, request accounting, coalescing.

The modelled object store charges a fixed round trip per request, so
these tests pin the property the read path engineers against: request
*count* — not bytes — is what the planner and the tiered cache reduce,
and results stay byte-identical under every configuration.
"""

import threading

import numpy as np
import pytest

from repro.catalog import CatalogTable, MemoryCatalogStore
from repro.core import (
    BullionReader,
    BullionWriter,
    Table,
    TieredChunkCache,
    WriterOptions,
)
from repro.expr import col
from repro.iosim import (
    OBJECT_STORE_MODEL,
    IOStats,
    ObjectRequest,
    ObjectStorage,
    ObjectStorageError,
    SeekModel,
    SimulatedStorage,
)


def _bullion_device(n_rows=1000, n_cols=2, rows_per_group=200):
    dev = SimulatedStorage()
    cols = {
        f"c{i}": np.arange(n_rows, dtype=np.int64) * (i + 1)
        for i in range(n_cols)
    }
    BullionWriter(
        dev,
        options=WriterOptions(
            rows_per_page=rows_per_group // 2, rows_per_group=rows_per_group
        ),
    ).write(Table(cols))
    return dev


def _object_copy(dev, **kwargs):
    inner = SimulatedStorage()
    inner._buf = bytearray(dev.raw_bytes())
    return ObjectStorage(inner, **kwargs)


class TestCostModel:
    def test_request_latency_term(self):
        model = SeekModel(
            seek_latency_s=0.0,
            bandwidth_bytes_per_s=100e6,
            request_latency_s=0.025,
        )
        assert model.request_cost(0, seeked=False) == pytest.approx(0.025)
        assert model.request_cost(100_000_000, seeked=False) == pytest.approx(
            1.025
        )

    def test_default_request_latency_is_zero(self):
        # the historical local-device model: every existing bench
        # number must be unchanged by the new term
        model = SeekModel()
        assert model.request_latency_s == 0.0
        assert model.request_cost(1000) == pytest.approx(
            model.seek_latency_s + 1000 / model.bandwidth_bytes_per_s
        )

    def test_iostats_modelled_time_includes_requests(self):
        stats = IOStats(reads=10, bytes_read=1000, read_seeks=0)
        model = SeekModel(
            seek_latency_s=0.0,
            bandwidth_bytes_per_s=1e9,
            request_latency_s=0.01,
        )
        assert stats.modelled_time(model) == pytest.approx(
            10 * 0.01 + 1000 / 1e9
        )


class TestObjectStorage:
    def test_round_trip_and_request_log(self):
        obj = ObjectStorage(SimulatedStorage())
        obj.append(b"hello world")
        assert obj.pread(0, 5) == b"hello"
        assert obj.pread(6, 5) == b"world"
        assert [r.op for r in obj.requests] == ["PUT", "GET", "GET"]
        assert obj.requests[1] == ObjectRequest(
            "GET", 0, 5, OBJECT_STORE_MODEL.request_cost(5, seeked=False)
        )
        assert obj.request_count == 3
        assert obj.bytes_moved("GET") == 10
        assert obj.bytes_moved() == 21

    def test_large_range_splits_into_capped_requests(self):
        obj = ObjectStorage(SimulatedStorage(), max_request_bytes=1 << 10)
        obj.append(b"x" * 2500)  # one PUT (writes are not capped)
        data = obj.pread(0, 2500)
        assert data == b"x" * 2500
        gets = [r for r in obj.requests if r.op == "GET"]
        assert [(r.offset, r.nbytes) for r in gets] == [
            (0, 1024),
            (1024, 1024),
            (2048, 452),
        ]

    def test_elapsed_accumulates_per_request(self):
        model = SeekModel(
            seek_latency_s=0.0,
            bandwidth_bytes_per_s=1e6,
            request_latency_s=0.5,
        )
        obj = ObjectStorage(
            SimulatedStorage(), model, max_request_bytes=100
        )
        obj.append(b"a" * 250)
        obj.pread(0, 250)  # 3 capped GETs
        # 4 requests x 0.5 s + 500 bytes / 1 MB/s
        assert obj.elapsed_s == pytest.approx(4 * 0.5 + 500 / 1e6)
        obj.reset_accounting()
        assert obj.elapsed_s == 0.0 and obj.request_count == 0

    def test_jitter_adds_seconds(self):
        obj = ObjectStorage(
            SimulatedStorage(),
            SeekModel(0.0, 1e9, 0.01),
            jitter_fn=lambda op, off, n: 0.1,
        )
        obj.append(b"abc")
        assert obj.requests[0].cost_s == pytest.approx(0.01 + 3 / 1e9 + 0.1)

    def test_fault_injection_raises_before_any_byte_moves(self):
        calls = []

        def fail_second(op, offset, nbytes):
            calls.append(op)
            if len(calls) == 2:
                raise ObjectStorageError("injected 503")

        obj = ObjectStorage(SimulatedStorage(), fault_fn=fail_second)
        obj.append(b"payload")
        with pytest.raises(ObjectStorageError):
            obj.pread(0, 7)
        # the failed request was not logged and moved no bytes
        assert [r.op for r in obj.requests] == ["PUT"]
        assert obj.inner.stats.reads == 0

    def test_passthrough_surface(self):
        inner = SimulatedStorage("obj-dev")
        obj = ObjectStorage(inner)
        obj.append(b"0123456789")
        assert obj.name == "obj-dev"
        assert obj.size == len(obj) == 10
        assert obj.stats is inner.stats
        obj.corrupt(0, b"X")
        assert obj.raw_bytes()[:1] == b"X"
        obj.truncate(5)
        assert obj.size == 5

    def test_rejects_nonpositive_cap(self):
        with pytest.raises(ValueError):
            ObjectStorage(SimulatedStorage(), max_request_bytes=0)


class TestCoalescing:
    def test_coalescing_halves_data_requests(self):
        dev = _bullion_device(n_rows=1000, n_cols=4, rows_per_group=200)
        naive = _object_copy(dev)
        BullionReader(naive, chunk_cache_size=0, coalesce_gap=-1).scan(
            ["c0", "c1", "c2", "c3"], max_workers=0
        ).to_table()
        coalesced = _object_copy(dev)
        BullionReader(coalesced, chunk_cache_size=0).scan(
            ["c0", "c1", "c2", "c3"], max_workers=0
        ).to_table()
        # 5 groups x 4 cols: 20 per-chunk GETs naive, 5 runs coalesced
        # (+1 footer open each)
        assert naive.request_count == 21
        assert coalesced.request_count == 6
        assert naive.request_count >= 2 * coalesced.request_count

    def test_results_byte_identical_across_configs(self):
        dev = _bullion_device(n_rows=1000, n_cols=3, rows_per_group=200)
        expected = BullionReader(dev).scan(["c0", "c2"]).to_table()
        for kwargs in (
            {"coalesce_gap": -1},
            {"coalesce_gap": 0},
            {"coalesce_gap": 1 << 20},
        ):
            for workers in (0, 4):
                got = BullionReader(
                    _object_copy(dev), chunk_cache_size=0, **kwargs
                ).scan(["c0", "c2"], max_workers=workers).to_table()
                assert got.equals(expected), (kwargs, workers)

    def test_gap_merges_non_adjacent_extents(self):
        # project a strict subset of columns: their chunks are NOT
        # adjacent (the skipped column sits between), so gap=0 cannot
        # merge them but a generous gap can
        dev = _bullion_device(n_rows=400, n_cols=3, rows_per_group=400)
        tight = _object_copy(dev)
        BullionReader(tight, chunk_cache_size=0).scan(
            ["c0", "c2"], max_workers=0
        ).to_table()
        wide = _object_copy(dev)
        BullionReader(wide, chunk_cache_size=0, coalesce_gap=1 << 20).scan(
            ["c0", "c2"], max_workers=0
        ).to_table()
        data_gets = lambda o: sum(1 for r in o.requests if r.op == "GET") - 1
        assert data_gets(tight) == 2  # c0 and c2 separately
        assert data_gets(wide) == 1  # one run spanning the c1 gap
        # the over-read is bounded by the gap: c1's chunk bytes
        assert wide.bytes_moved("GET") > tight.bytes_moved("GET")

    def test_runs_respect_storage_request_cap(self):
        dev = _bullion_device(n_rows=2000, n_cols=2, rows_per_group=500)
        obj = _object_copy(dev, max_request_bytes=4096)
        BullionReader(obj, chunk_cache_size=0).scan(
            ["c0", "c1"], max_workers=0
        ).to_table()
        # the planner caps runs at the storage's max ranged-get size,
        # so no logged request was ever split by the backend
        assert all(r.nbytes <= 4096 for r in obj.requests if r.op == "GET")

    def test_single_metadata_round_trip_at_open(self):
        dev = _bullion_device(n_rows=200, n_cols=2, rows_per_group=100)
        obj = _object_copy(dev)
        BullionReader(obj)
        assert obj.request_count == 1  # tail + footer in one ranged GET


class ObjectCatalogStore(MemoryCatalogStore):
    """Memory store whose data files sit behind a (non-sleeping)
    object store; counts the requests and opens of one run."""

    def __init__(self):
        super().__init__("object")
        self.opened: list[ObjectStorage] = []

    def open_data(self, file_id):
        obj = ObjectStorage(super().open_data(file_id))
        self.opened.append(obj)
        return obj

    def requests(self):
        return sum(obj.request_count for obj in self.opened)


class TestWarmCatalogScan:
    def test_warm_scan_fetches_no_data_from_the_store(self, tmp_path):
        """A filtered multi-file scan through one tiered cache whose
        memory tier is smaller than the working set: the warm scan sends
        the store only its footer reads, the disk tier serves the
        spilled chunks, and every configuration returns the same rows."""
        store = ObjectCatalogStore()
        cat = CatalogTable.create(store)
        rng = np.random.default_rng(7)
        for k in range(6):
            cat.append(
                Table({
                    "ts": np.arange(k * 2048, (k + 1) * 2048, dtype=np.int64),
                    "score": rng.random(2048),
                    "clicks": rng.integers(0, 100, 2048, dtype=np.int64),
                    "payload": [b"x" * 48] * 2048,
                }),
                options=WriterOptions(rows_per_page=256, rows_per_group=512),
            )
        cache = TieredChunkCache(
            64 << 10, disk_bytes=16 << 20, disk_dir=str(tmp_path / "spill"),
            name="warm-scan-test",
        )
        runs = {}
        for label, chunk_cache, options in (
            ("naive", None, {"chunk_cache_size": 0, "coalesce_gap": -1}),
            ("cold", cache, {"coalesce_gap": 0}),
            ("warm", cache, {"coalesce_gap": 0}),
        ):
            table = CatalogTable(
                store, chunk_cache=chunk_cache, reader_options=options
            )
            store.opened = []
            out = table.read(
                ["ts", "score", "clicks", "payload"], where=col("ts") < 4096
            )
            runs[label] = (out, store.requests(), len(store.opened))
        naive, _cold, warm = runs["naive"], runs["cold"], runs["warm"]
        assert naive[0].num_rows == 4096
        assert all(out.equals(naive[0]) for out, _r, _o in runs.values())
        assert warm[1] == warm[2] == 2  # one footer read per kept file
        assert warm[1] <= 0.25 * naive[1]
        assert cache.stats.spills > 0 and cache.stats.disk_hits > 0
        assert cache.stats.checksum_failures == 0


class TestThunderingHerd:
    def test_one_backend_fetch_per_hot_chunk(self):
        """N threads scanning the same table through one shared cache:
        every (column, group) chunk is fetched from the backend exactly
        once — the single-flight guarantee — and every thread still
        gets byte-identical results."""
        n_threads = 8
        dev = _bullion_device(n_rows=1000, n_cols=2, rows_per_group=200)
        expected = BullionReader(dev).scan(["c0", "c1"]).to_table()
        obj = _object_copy(dev)
        cache = TieredChunkCache(64 << 20, name="herd-test")
        # per-chunk requests (coalescing off) so the request log counts
        # backend fetches chunk-for-chunk
        readers = [
            BullionReader(obj, chunk_cache=cache, coalesce_gap=-1)
            for _ in range(n_threads)
        ]
        opens = obj.request_count  # n_threads footer reads
        barrier = threading.Barrier(n_threads)
        results: list = [None] * n_threads
        errors: list = []

        def scan(i, reader):
            try:
                barrier.wait()
                results[i] = reader.scan(
                    ["c0", "c1"], max_workers=2
                ).to_table()
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=scan, args=(i, r))
            for i, r in enumerate(readers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        n_chunks = 5 * 2  # 5 groups x 2 columns
        assert obj.request_count - opens == n_chunks
        assert cache.stats.misses == n_chunks
        assert (
            cache.stats.hits + cache.stats.singleflight_waits
            == n_threads * n_chunks - n_chunks
        )
        for res in results:
            assert res is not None and res.equals(expected)
