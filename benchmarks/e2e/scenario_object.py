"""``object_epochs``: the same filtered read, epoch after epoch, from a
modelled object store where every request really sleeps its round trip.

Wall-clock is set by request count and cache tiering, not CPU: the
object-store model, ranged-GET coalescing and the tiered chunk cache
dominate; decode is small. The working set is larger than the cache's
memory tier and smaller than its disk tier.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass

import numpy as np

import datagen
from common import (
    Context,
    Deadline,
    ScenarioResult,
    end_to_end,
    median,
    ratio,
)
from wrappers import live_bytes, make_store

COLUMNS = ["ts", "v", "score", "clicks"]
WHERE = "clicks < 50"


@dataclass(frozen=True)
class Scale:
    files: int
    rows: int
    rows_per_group: int
    rows_per_page: int
    memory_bytes: int
    disk_bytes: int
    cold_epochs: int
    #: warm epochs to run when the phase is not time-boxed
    warm_epochs: int | None
    min_warm_epochs: int


FULL = Scale(files=16, rows=65536, rows_per_group=8192, rows_per_page=1024,
             memory_bytes=8 << 20, disk_bytes=256 << 20,
             cold_epochs=1, warm_epochs=None, min_warm_epochs=2)
# three files of 16 Ki rows: ~0.7 MB projected, so the memory tier is
# shrunk to keep it smaller than the working set, as at full size
MINI = Scale(files=3, rows=16384, rows_per_group=4096, rows_per_page=1024,
             memory_bytes=256 << 10, disk_bytes=64 << 20,
             cold_epochs=1, warm_epochs=3, min_warm_epochs=3)


def run(ctx: Context) -> ScenarioResult:
    from repro.catalog import CatalogTable, DirectoryCatalogStore
    from repro.core import Table, TieredChunkCache, WriterOptions
    from repro.expr import parse

    scale = FULL if ctx.full else MINI
    res = ScenarioResult()
    where = parse(WHERE)

    # -- set-up -----------------------------------------------------------
    t0 = time.perf_counter()
    rng = np.random.default_rng([ctx.seed, 4])
    store = make_store(ctx.subdir("object"), ctx.recorder, object_store=True)
    writer = CatalogTable.create(store)
    options = WriterOptions(
        rows_per_page=scale.rows_per_page, rows_per_group=scale.rows_per_group
    )
    raw_bytes = 0
    for k in range(scale.files):
        batch = datagen.narrow_batch(rng, scale.rows, k * scale.rows)
        raw_bytes += datagen.raw_nbytes(batch)
        writer.append(Table(batch), options=options)
    space_ratio = ratio(
        live_bytes(writer.current_snapshot()), raw_bytes
    )
    write_amp = ratio(store.bytes_written(), raw_bytes)
    cache = TieredChunkCache(
        scale.memory_bytes,
        disk_bytes=scale.disk_bytes,
        disk_dir=ctx.subdir("object-spill"),
        name="e2e",
    )
    table = CatalogTable(
        store, chunk_cache=cache, reader_options={"coalesce_gap": 0}
    )
    res.setup_s = time.perf_counter() - t0

    # -- timed phase: cold epochs, then warm ones --------------------------
    epochs: list[dict] = []

    def epoch(kind: str) -> None:
        if kind == "cold":
            cache.clear()
        store.begin_epoch()
        before = dataclasses.asdict(cache.stats)
        with ctx.span(f"object.{kind}_epoch", op=f"{kind}-{len(epochs)}"):
            t1 = time.perf_counter()
            with table.pin() as snap:
                out = snap.read(COLUMNS, where=where)
            seconds = time.perf_counter() - t1
        after = dataclasses.asdict(cache.stats)
        epochs.append({
            "kind": kind,
            "seconds": seconds,
            "table": out,
            "requests": store.requests(),
            "bytes": store.bytes_moved(),
            "modelled_s": store.modelled_s(),
            "tiers": {k: after[k] - before[k] for k in after},
        })

    deadline = Deadline(
        ctx.seconds, scale.min_warm_epochs, scale.warm_epochs
    )
    with ctx.timed_phase():
        t_phase = time.perf_counter()
        deadline.start()
        for _ in range(scale.cold_epochs):
            epoch("cold")
        warm = 0
        while not deadline.done(warm):
            epoch("warm")
            warm += 1
        res.timed_s = time.perf_counter() - t_phase
    if ctx.traced:
        res.io = store.tally.snapshot()

    cold_s = [e["seconds"] for e in epochs if e["kind"] == "cold"]
    warm_s = [e["seconds"] for e in epochs if e["kind"] == "warm"]
    res.detail["object.cold_epoch_s"] = median(cold_s)
    res.detail["object.warm_epoch_s"] = median(warm_s)
    res.samples["object.cold_epoch_s"] = len(cold_s)
    res.samples["object.warm_epoch_s"] = len(warm_s)
    end_to_end(
        res, op_s=cold_s + warm_s,
        space_ratio=space_ratio, write_amp=write_amp,
    )

    # -- verification: every epoch equals an uncached direct read ----------
    direct = CatalogTable(DirectoryCatalogStore(store.root))
    with direct.pin() as snap:
        want = snap.read(COLUMNS, where=where)
    for n, e in enumerate(epochs):
        res.op(
            e["table"].equals(want),
            f"object {e['kind']} epoch {n} differs from the direct read",
        )
        del e["table"]

    if ctx.traced:
        import probes

        res.layers.update(
            probes.object_layers(cache, epochs, store.root, COLUMNS)
        )
    return res

