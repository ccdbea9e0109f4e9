"""Object-store scan: ranged-get coalescing + the tiered chunk cache.

On the modelled object store every request costs a fixed round trip
(25 ms) regardless of size, so request *count* — not bytes — dominates
a scan's wall-clock. This bench replays one pruned multi-file catalog
scan through :class:`~repro.iosim.ObjectStorage` in four
configurations:

* **naive** — no cache, coalescing off: one GET per chunk, the
  pre-optimization baseline;
* **coalesced** — the prefetch planner merges adjacent chunk extents
  into single ranged GETs (and the footer+tail into one request);
* **coalesced + tiered cache, cold** — first scan through a shared
  :class:`~repro.core.TieredChunkCache` whose small memory tier spills
  to a bounded disk tier;
* **warm** — the same scan again: every data chunk comes from the
  cache (memory or promoted from disk), so the backend sees only the
  per-file footer reads.

Acceptance bars asserted here: coalescing alone cuts requests >=2x;
the warm scan issues zero data GETs (backend requests == file opens)
and <=25% of the naive request count; warm modelled wall-clock is
>=5x faster than naive; results are byte-identical across all four
configurations.
"""

import numpy as np
from reporting import report

from repro.catalog import CatalogTable, MemoryCatalogStore
from repro.core import Table, TieredChunkCache, WriterOptions
from repro.expr import col
from repro.iosim import OBJECT_STORE_MODEL, ObjectStorage

N_FILES = 6
# the shape keeps the footer under the reader's 4 KiB speculative
# tail read, so opening a file costs exactly one metadata GET
ROWS_PER_FILE = 2_048
ROWS_PER_GROUP = 512
ROWS_PER_PAGE = 256
N_GROUPS = ROWS_PER_FILE // ROWS_PER_GROUP


class ObjectCatalogStore(MemoryCatalogStore):
    """Memory store whose data files are served through ObjectStorage.

    Every ``open_data`` wraps the (stable, per-file) inner device in a
    fresh accounting wrapper and remembers it, so a run's request
    count, bytes moved and modelled elapsed time are sums over the
    wrappers it opened — and a file pruned from manifest stats
    contributes exactly zero requests.
    """

    def __init__(self) -> None:
        super().__init__("object-catalog")
        self.opened: list[ObjectStorage] = []

    def open_data(self, file_id: str):
        wrapper = ObjectStorage(super().open_data(file_id))
        self.opened.append(wrapper)
        return wrapper

    def begin_run(self) -> None:
        self.opened = []

    def requests(self) -> int:
        return sum(w.request_count for w in self.opened)

    def gets(self) -> int:
        return sum(
            1 for w in self.opened for r in w.requests if r.op == "GET"
        )

    def bytes_moved(self) -> int:
        return sum(w.bytes_moved() for w in self.opened)

    def elapsed_s(self) -> float:
        return sum(w.elapsed_s for w in self.opened)


def _build_table(store) -> None:
    rng = np.random.default_rng(7)
    cat = CatalogTable.create(store)
    for k in range(N_FILES):
        lo = k * ROWS_PER_FILE
        ids = np.arange(lo, lo + ROWS_PER_FILE, dtype=np.int64)
        cat.append(
            Table(
                {
                    "ts": ids,  # sorted: manifest ranges prune whole files
                    "score": rng.random(ROWS_PER_FILE),
                    "value": rng.normal(size=ROWS_PER_FILE).astype(
                        np.float32
                    ),
                    "clicks": rng.integers(
                        0, 100, ROWS_PER_FILE, dtype=np.int64
                    ),
                    "weight": rng.random(ROWS_PER_FILE),
                    "payload": [b"x" * 48] * ROWS_PER_FILE,
                }
            ),
            options=WriterOptions(
                rows_per_page=ROWS_PER_PAGE, rows_per_group=ROWS_PER_GROUP
            ),
        )


def test_bench_object_store_scan(tmp_path):
    store = ObjectCatalogStore()
    _build_table(store)
    columns = ["ts", "score", "value", "clicks", "weight", "payload"]
    # covers files 0 and 1 exactly: the other four never open
    where = col("ts") < 2 * ROWS_PER_FILE

    cache = TieredChunkCache(
        64 << 10,  # small memory tier: forces spilling...
        disk_bytes=16 << 20,  # ...into the bounded disk tier
        disk_dir=str(tmp_path / "spill"),
        name="bench",
    )
    configs = [
        ("naive", None, {"chunk_cache_size": 0, "coalesce_gap": -1}),
        ("coalesced", None, {"chunk_cache_size": 0, "coalesce_gap": 0}),
        ("tiered cold", cache, {"coalesce_gap": 0}),
        ("tiered warm", cache, {"coalesce_gap": 0}),
    ]
    results = {}
    for label, chunk_cache, reader_options in configs:
        cat = CatalogTable(
            store, chunk_cache=chunk_cache, reader_options=reader_options
        )
        store.begin_run()
        with cat.pin() as snap:
            out = snap.read(columns, where=where)
        results[label] = {
            "out": out,
            "requests": store.requests(),
            "opens": len(store.opened),
            "bytes": store.bytes_moved(),
            "elapsed_s": store.elapsed_s(),
        }

    naive, coal = results["naive"], results["coalesced"]
    cold, warm = results["tiered cold"], results["tiered warm"]

    # correctness first: identical rows under every configuration
    assert naive["out"].num_rows == 2 * ROWS_PER_FILE
    for label in ("coalesced", "tiered cold", "tiered warm"):
        assert results[label]["out"].equals(naive["out"]), label

    # coalescing alone: >=2x fewer requests, no cache involved
    assert naive["requests"] >= 2 * coal["requests"], (
        naive["requests"],
        coal["requests"],
    )
    # warm cache: the backend sees only the per-file footer reads
    warm_data_gets = warm["requests"] - warm["opens"]
    assert warm_data_gets == 0, f"{warm_data_gets} warm data GETs"
    assert warm["requests"] <= 0.25 * naive["requests"]
    # the disk tier actually participated: spilled cold, read back warm
    assert cache.stats.spills > 0
    assert cache.stats.disk_hits > 0
    assert cache.stats.checksum_failures == 0
    # combined modelled wall-clock: >=5x over the naive baseline
    speedup = naive["elapsed_s"] / warm["elapsed_s"]
    assert speedup >= 5.0, f"warm speedup {speedup:.1f}x < 5x"

    lines = [
        f"table: {N_FILES} files x {ROWS_PER_FILE:,} rows "
        f"(groups of {ROWS_PER_GROUP}), {len(columns)} columns; "
        f"filter keeps 2 files ({2 * ROWS_PER_FILE:,} rows)",
        f"object store model: "
        f"{OBJECT_STORE_MODEL.request_latency_s * 1e3:.0f} ms/request, "
        f"{OBJECT_STORE_MODEL.bandwidth_bytes_per_s / 1e6:.0f} MB/s",
        "",
        f"{'configuration':16} {'requests':>9} {'bytes':>12} "
        f"{'modelled':>11} {'vs naive':>9}",
    ]
    for label in ("naive", "coalesced", "tiered cold", "tiered warm"):
        r = results[label]
        lines.append(
            f"{label:16} {r['requests']:>9,} {r['bytes']:>12,} "
            f"{r['elapsed_s'] * 1e3:>9.1f}ms "
            f"{naive['elapsed_s'] / r['elapsed_s']:>8.1f}x"
        )
    s = cache.stats
    lines += [
        "",
        f"coalescing alone: "
        f"{naive['requests'] / coal['requests']:.1f}x fewer requests",
        f"warm scan: {warm_data_gets} data GETs "
        f"({warm['opens']} footer reads only), "
        f"{warm['requests'] / naive['requests']:.1%} of naive requests",
        f"tiered cache: {s.memory_hits:,} memory hits, "
        f"{s.disk_hits:,} disk hits, {s.spills:,} spills "
        f"({s.spill_bytes:,} bytes spilled, "
        f"{cache.disk_used:,} bytes on disk)",
        f"warm modelled speedup over naive: {speedup:.1f}x",
    ]
    report(
        "object_store",
        lines,
        data={
            label: {
                k: v for k, v in r.items() if k != "out"
            }
            for label, r in results.items()
        }
        | {
            "coalesce_request_reduction": naive["requests"]
            / coal["requests"],
            "warm_speedup": speedup,
            "cache": {
                "memory_hits": s.memory_hits,
                "disk_hits": s.disk_hits,
                "misses": s.misses,
                "spills": s.spills,
                "spill_bytes": s.spill_bytes,
            },
        },
    )
