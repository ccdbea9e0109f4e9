"""Per-layer micro-measurements taken in the traced run.

Each probe times a layer's *public* function on real data from the
scenario that calls it (one row group, one file, one batch), after the
scenario's timed phase. Times are medians of a few repeats; counts come
from the stats objects the program already returns.
"""

from __future__ import annotations

import time

import numpy as np

from common import Context, median, percentile, ratio

MB = 1e6


def timed(fn, repeats: int = 5) -> float:
    """Median wall seconds of ``fn()`` over ``repeats`` calls."""
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return median(samples)


def _nbytes(values) -> int:
    if isinstance(values, np.ndarray):
        return values.nbytes
    return sum(v.nbytes for v in values)


def codec_throughput(prefix: str, encoding, values) -> dict:
    """Encode/decode MB/s (raw bytes) of one codec on one real chunk."""
    from repro.encodings import decode_blob, encode_blob

    blob = encode_blob(values, encoding)
    raw_mb = _nbytes(values) / MB
    return {
        f"{prefix}.encode_mb_per_s": ratio(
            raw_mb, timed(lambda: encode_blob(values, encoding), 3)
        ),
        f"{prefix}.decode_mb_per_s": ratio(
            raw_mb, timed(lambda: decode_blob(blob), 5)
        ),
    }


def footer_bytes(storage, reader) -> int:
    """Serialized footer length: file size minus footer offset minus
    the 8-byte length+magic tail."""
    return storage.size - reader.footer.file_offset - 8


# ---------------------------------------------------------------------------
# train_wide_scan: encodings, quantization, core.footer, core.reader
# ---------------------------------------------------------------------------

def train_layers(store, table, columns, names, sample) -> dict:
    from repro.catalog import CatalogTable, DirectoryCatalogStore
    from repro.core import BullionReader, LoaderOptions, ScanStats
    from repro.core.schema import STORAGE_DTYPES
    from repro.encodings import (
        FixedBitWidth,
        ListEncoding,
        SparseListDelta,
    )
    from repro.expr import col
    from repro.quantization import FloatFormat, dequantize, quantize

    out: dict = {}
    float_a, float_b, int_name, seq_name = list(sample)

    # codecs on one real row group of the columns that use them. The
    # float features are stored as BF16/FP8 bit patterns, which the
    # writer packs with fixed_bit_width like any small integer; `list`
    # is the Parquet-style layout sparse_list_delta is compared with.
    out.update(codec_throughput(
        "encodings.fixed_bit_width", FixedBitWidth(), sample[int_name]
    ))
    out.update(codec_throughput(
        "encodings.sparse_list_delta", SparseListDelta(), sample[seq_name]
    ))
    out.update(codec_throughput(
        "encodings.list", ListEncoding(), sample[seq_name]
    ))

    for label, fmt, name in (
        ("bf16", FloatFormat.BF16, float_b),
        ("fp8", FloatFormat.FP8_E4M3, float_a),
    ):
        stored = quantize(sample[name], fmt)
        out[f"quantization.dequantize_mb_per_s.{label}"] = ratio(
            sample[name].nbytes / MB, timed(lambda: dequantize(stored, fmt))
        )

    # a plain (uninstrumented) handle on the same directory, so probe
    # I/O stays out of the workload's iosim counts
    plain = DirectoryCatalogStore(store.root)
    file_id = table.current_snapshot().files[0].file_id
    storage = plain.open_data(file_id)
    try:
        reader = BullionReader(storage, chunk_cache_size=0)
        stored_bytes = fp32_bytes = 0
        by_name = {c.name: c for c in reader.footer.physical_columns()}
        for name in names["float"]:
            prim = by_name[name].type.primitive
            stored_bytes += np.dtype(STORAGE_DTYPES[prim]).itemsize
            fp32_bytes += 4
        out["quantization.bytes_saved_ratio"] = 1.0 - ratio(
            stored_bytes, fp32_bytes
        )
        out["core.footer.bytes"] = footer_bytes(storage, reader)
        out["core.footer.open_us"] = 1e6 * timed(
            lambda: BullionReader(storage, chunk_cache_size=0), 9
        )

        def scan(where=None, stats=None):
            return reader.scan(
                columns, where=where, widen_quantized=True,
                scan_stats=stats,
            ).to_table()

        rows = reader.num_rows
        plain_s = timed(scan, 3)
        out["core.reader.scan_mrows_per_s"] = ratio(rows / 1e6, plain_s)
        always = col("ts") >= 0  # provably ALWAYS from every zone map
        out["core.reader.always_where_penalty"] = ratio(
            timed(lambda: scan(always), 3), plain_s
        )
        stats = ScanStats.unmirrored()
        scan(stats=stats)
        out["core.reader.chunks_fetched"] = stats.chunks_fetched
    finally:
        storage.close()

    # fresh handle, nothing cached: how long until the first batch
    def first_batch():
        fresh = CatalogTable(DirectoryCatalogStore(store.root))
        with fresh.pin() as snap:
            loader = snap.loader(
                columns, LoaderOptions(batch_size=1024, widen_quantized=True)
            )
            batches = iter(loader)
            next(batches)
            batches.close()

    out["core.footer.first_batch_ms"] = 1e3 * timed(first_batch, 3)
    return out


# ---------------------------------------------------------------------------
# serve_mixed: server, query, expr, narrow-file footer and reader costs
# ---------------------------------------------------------------------------

def family_total(snapshot, name: str) -> float:
    """Sum of a metric family's samples (all label values) in a
    registry snapshot or delta; 0 when the family never fired."""
    fam = snapshot.data.get(name)
    if fam is None:
        return 0.0
    return float(sum(
        s for s in fam["samples"].values() if not isinstance(s, dict)
    ))


def hit_ratio(snapshot, stem: str) -> float:
    hits = family_total(snapshot, f"{stem}_hits_total")
    misses = family_total(snapshot, f"{stem}_misses_total")
    return ratio(hits, hits + misses)


def _wire_replay(ctx: Context, doc: dict, reply) -> tuple:
    """Re-run the wire codec over one captured reply: seconds spent
    decoding it, seconds re-encoding it, its payload bytes, its rows."""
    from repro.server import protocol

    with ctx.span("replay.wire"):
        t0 = time.perf_counter()
        if "columns" in doc:
            nbytes = sum(len(f) for f in reply.raw_frames)
            payloads = [protocol.loads(f) for f in reply.raw_frames]
            tables = [
                protocol.decode_table(p["batch"])
                for p in payloads if "batch" in p
            ]
            t1 = time.perf_counter()
            for table in tables:
                protocol.dumps_canonical(
                    {"batch": protocol.encode_table(table)}
                )
            rows = reply.rows
        else:
            nbytes = len(reply.raw)
            decoded = protocol.decode_query_rows(
                protocol.loads(reply.raw)["rows"]
            )
            t1 = time.perf_counter()
            protocol.dumps_canonical(protocol.query_payload(
                reply.snapshot_id, protocol.encode_query_rows(decoded)
            ))
            rows = len(decoded)
        return t1 - t0, time.perf_counter() - t1, nbytes, rows


def serve_layers(ctx: Context, store, server, latencies, kept, registry):
    from repro.catalog import CatalogTable
    from repro.core import BullionReader, ScanStats
    from repro.expr import evaluate, parse
    from repro.server import ServerClient, protocol

    out: dict = {}

    with ServerClient(server.host, server.port) as client:
        out["server.ping_p50_us"] = 1e6 * timed(client.ping, 200)

    # the kept plans again, straight through the library on the same
    # snapshot ids: what the reply costs without a server in the way
    table = CatalogTable(store)
    library: dict[str, list[float]] = {}
    storage: dict[str, list[float]] = {}
    wire: dict[str, list[float]] = {}
    scan_decode_s = scan_encode_s = 0.0
    wire_bytes = wire_rows = 0
    query_stats = []
    scan_stats = ScanStats.unmirrored()
    pins: dict = {}
    recorder = ctx.recorder
    try:
        for n, (kind, doc, reply) in enumerate(kept):
            sid = reply.snapshot_id
            pin = pins.get(sid)
            if pin is None:
                pin = pins[sid] = table.pin(snapshot_id=sid)
            where = parse(doc["where"]) if doc.get("where") else None
            first_span = len(recorder.spans)
            with ctx.span("replay.library", op=f"replay-{n}"):
                t0 = time.perf_counter()
                if "columns" in doc:
                    pin.read(doc["columns"], where=where,
                             scan_stats=scan_stats)
                else:
                    result = pin.query(
                        doc["aggregates"], where=where,
                        group_by=doc.get("group_by"),
                    )
                    query_stats.append((kind, result.stats))
                library.setdefault(kind, []).append(time.perf_counter() - t0)
            storage.setdefault(kind, []).append(sum(
                s[5] - s[4] for s in recorder.spans[first_span:]
                if s[2].startswith("iosim.")
            ))
            decode_s, encode_s, nbytes, rows = _wire_replay(ctx, doc, reply)
            wire.setdefault(kind, []).append(decode_s + encode_s)
            if "columns" in doc:  # batches: where the codec's bytes are
                scan_decode_s += decode_s
                scan_encode_s += encode_s
                wire_bytes += nbytes
                wire_rows += rows
    finally:
        for pin in pins.values():
            pin.release()

    out["server.wire_encode_ms_per_mb"] = ratio(
        1e3 * scan_encode_s, wire_bytes / MB
    )
    out["server.wire_decode_ms_per_mb"] = ratio(
        1e3 * scan_decode_s, wire_bytes / MB
    )
    out["server.wire_bytes_per_row"] = ratio(wire_bytes, wire_rows)
    for kind in ("query_cold", "scan_filter", "scan_range"):
        client_ms = 1e3 * median(latencies[kind])
        library_ms = 1e3 * median(library.get(kind, [0.0]))
        wire_ms = 1e3 * median(wire.get(kind, [0.0]))
        out[f"server.overhead_ratio.{kind}"] = ratio(client_ms, library_ms)
        if kind != "scan_range":
            # round trip = library (storage inside it) + wire + residual
            out[f"server.residual_ms.{kind}"] = (
                client_ms - library_ms - wire_ms
            )
    out["server.query_cold_p90_ms"] = 1e3 * percentile(
        latencies["query_cold"], 90
    )
    out["server.scan_filter_p90_ms"] = 1e3 * percentile(
        latencies["scan_filter"], 90
    )
    out["server.result_cache_hit_ratio"] = hit_ratio(
        registry, "server_result_cache"
    )
    out["server.plan_cache_hit_ratio"] = hit_ratio(
        registry, "server_plan_cache"
    )
    out["server.pin_cache_hit_ratio"] = hit_ratio(registry, "server_pin_cache")
    out["server.footer_cache_hit_ratio"] = hit_ratio(
        registry, "server_footer_cache"
    )
    out["server.rejected"] = family_total(
        registry, "server_requests_rejected_total"
    )

    # query: the same replays, read per class
    out["query.cold_ms"] = 1e3 * median(library.get("query_cold", [0.0]))
    out["query.meta_ms"] = 1e3 * median(library.get("query_meta", [0.0]))
    group_rows = sum(
        st.scan.rows_scanned for k, st in query_stats if k == "query_group"
    )
    out["query.group_mrows_per_s"] = ratio(
        group_rows / 1e6, sum(library.get("query_group", []))
    )
    files_total = sum(st.files_total for _k, st in query_stats)
    out["query.files_meta_answered_ratio"] = ratio(
        sum(st.files_meta_answered for _k, st in query_stats), files_total
    )
    out["query.groups_decoded"] = sum(
        st.groups_decoded for _k, st in query_stats
    )
    out["core.reader.groups_pruned_ratio"] = ratio(
        scan_stats.groups_pruned, scan_stats.groups_total
    )

    # expr: parse, evaluate, prune
    texts = [doc["where"] for _k, doc, _r in kept if doc.get("where")]
    t0 = time.perf_counter()
    exprs = [parse(text) for text in texts]
    out["expr.parse_us"] = ratio(1e6 * (time.perf_counter() - t0), len(texts))
    with table.pin() as pin:
        files = pin.snapshot.files
        t0 = time.perf_counter()
        for expr in exprs:
            pin.prune_files(expr)
        out["expr.prune_us_per_file"] = ratio(
            1e6 * (time.perf_counter() - t0), len(exprs) * len(files)
        )
        batch = pin.read(["ts", "user", "v"], where=parse(
            f"ts < {files[0].row_count * min(4, len(files))}"
        ))
    predicate = parse("v > 0.25 and user < 2500")
    out["expr.eval_mrows_per_s"] = ratio(
        batch.num_rows / 1e6, timed(lambda: evaluate(predicate, batch.columns))
    )

    # one small file by itself: what every one of the N files costs
    storage_obj = store.open_data(files[0].file_id)
    try:
        out["core.footer.open_us_narrow"] = 1e6 * timed(
            lambda: BullionReader(storage_obj, chunk_cache_size=0), 21
        )
        reader = BullionReader(storage_obj, chunk_cache_size=0)
        out["core.reader.small_file_us"] = 1e6 * timed(
            lambda: reader.scan(["ts", "v", "clicks"]).to_table(), 21
        )
    finally:
        storage_obj.close()
    return out


# ---------------------------------------------------------------------------
# ingest_churn: catalog, core.writer, cascading, core.deletion
# ---------------------------------------------------------------------------

def ingest_layers(
    ctx: Context, store, table, scale, *, warm_commit_s, commit_s, append_s,
    upsert_s, retention_s, maintain_s, commits, manifest_bytes,
    retention_bytes, maintenance_bytes, io,
) -> dict:
    import datagen
    from repro.catalog import CatalogTable, DirectoryCatalogStore
    from repro.cascading import choose_encoding
    from repro.core import BullionReader, Table, delete_rows, write_table
    from repro.encodings import Trivial
    from repro.iosim import SimulatedStorage

    out: dict = {}
    out["catalog.commit_p50_ms"] = 1e3 * median(commit_s)
    # commit cost against live file count over the warm-up, where the
    # k-th commit publishes a manifest of k files
    files = np.arange(1, len(warm_commit_s) + 1)
    slope = np.polyfit(files, np.asarray(warm_commit_s), 1)[0]
    out["catalog.commit_ms_per_100_files"] = 1e3 * 100 * float(slope)
    out["catalog.manifest_bytes_per_commit"] = ratio(manifest_bytes, commits)
    out["catalog.fsyncs_per_commit"] = ratio(io["count"]["sync"], commits)
    out["catalog.pin_us"] = 1e6 * timed(lambda: table.pin().release(), 21)
    plain = DirectoryCatalogStore(store.root)
    out["catalog.snapshot_load_ms"] = 1e3 * timed(
        lambda: CatalogTable(plain).current_snapshot(), 5
    )
    out["catalog.upsert_p50_ms"] = 1e3 * median(upsert_s)
    out["catalog.retention_delete_p50_ms"] = 1e3 * median(retention_s)
    out["catalog.retention_bytes_copied"] = retention_bytes
    out["catalog.maintenance_s"] = median(maintain_s)
    out["catalog.maintenance_bytes_rewritten"] = maintenance_bytes
    out["catalog.append_max_ms"] = 1e3 * max(append_s)
    snapshot = table.current_snapshot()
    out["catalog.files_live"] = len(snapshot.files)

    # one workload batch through the writer, off the real disk
    rng = np.random.default_rng([ctx.seed, 3, 99])
    batch = datagen.narrow_batch(rng, scale.batch_rows, 0)
    sizes = {}
    for policy, repeats in (("auto", 5), ("cascade", 2)):
        def write():
            storage = SimulatedStorage(policy)
            write_table(storage, Table(batch), encoding_policy=policy)
            sizes[policy] = storage.size

        out[f"core.writer.mrows_per_s.{policy}"] = ratio(
            scale.batch_rows / 1e6, timed(write, repeats)
        )
    out["core.writer.bytes_per_row"] = ratio(sizes["auto"], scale.batch_rows)
    out["cascading.bytes_vs_auto_ratio"] = ratio(
        sizes["cascade"], sizes["auto"]
    )
    out["cascading.select_ms_per_chunk"] = 1e3 * median([
        timed(lambda values=values: choose_encoding(values), 1)
        for values in batch.values()
    ])
    out.update(codec_throughput("encodings.trivial", Trivial(), batch["v"]))

    # the §2.1 scrub on an in-memory copy of one live file
    victim = max(snapshot.files, key=lambda f: f.live_rows)
    source = plain.open_data(victim.file_id)
    try:
        image = source.pread(0, source.size)
    finally:
        source.close()
    copy = SimulatedStorage("scrub")
    copy.append(image)
    reader = BullionReader(copy)
    out["core.checksum.verify_ms_per_mb"] = ratio(
        1e3 * timed(reader.verify, 3), len(image) / MB
    )
    rows = np.flatnonzero(~reader.footer.deletion_bitmap())[::50]
    t0 = time.perf_counter()
    report = delete_rows(copy, rows)
    out["core.deletion.delete_rows_ms"] = 1e3 * (time.perf_counter() - t0)
    out["core.deletion.bytes_written_per_row"] = ratio(
        report.bytes_written, report.rows_deleted
    )
    out["core.deletion.pages_rewritten"] = report.pages_rewritten
    out["core.deletion.merkle_nodes_recomputed"] = (
        report.merkle_nodes_recomputed
    )
    return out


# ---------------------------------------------------------------------------
# object_epochs: core.chunk_cache and the object-store request counts
# ---------------------------------------------------------------------------

def object_layers(cache, epochs, store_root, columns) -> dict:
    from repro.catalog import CatalogTable, DirectoryCatalogStore
    from repro.core import BullionReader

    out: dict = {}
    cold = [e for e in epochs if e["kind"] == "cold"]
    warm = [e for e in epochs if e["kind"] == "warm"]

    def tier_sum(which, key):
        return sum(e["tiers"][key] for e in which)

    lookups = sum(
        tier_sum(warm, k) for k in ("memory_hits", "disk_hits", "misses")
    )
    out["core.chunk_cache.mem_hit_ratio"] = ratio(
        tier_sum(warm, "memory_hits"), lookups
    )
    out["core.chunk_cache.disk_hit_ratio"] = ratio(
        tier_sum(warm, "disk_hits"), lookups
    )
    out["core.chunk_cache.spills"] = tier_sum(epochs, "spills")
    out["core.chunk_cache.spill_bytes"] = tier_sum(epochs, "spill_bytes")
    key = ("e2e-probe", 0, 0, 0)
    cache.put(key, bytes(64 << 10))
    out["core.chunk_cache.get_us"] = 1e6 * timed(lambda: cache.get(key), 101)

    out["iosim.requests_cold"] = median([e["requests"] for e in cold])
    out["iosim.requests_warm"] = median([e["requests"] for e in warm])
    out["iosim.modelled_s_cold"] = median([e["modelled_s"] for e in cold])

    # bytes a cold epoch moved over the bytes of the chunks it projected
    plain = DirectoryCatalogStore(store_root)
    projected = 0
    for f in CatalogTable(plain).current_snapshot().files:
        storage = plain.open_data(f.file_id)
        try:
            footer = BullionReader(storage).footer
            for name in columns:
                idx = footer.find_column(name)
                projected += sum(
                    footer.chunk(idx, g).size
                    for g in range(footer.num_row_groups)
                )
        finally:
            storage.close()
    out["iosim.read_amplification"] = ratio(
        median([e["bytes"] for e in cold]), projected
    )
    out["iosim.always_where_request_ratio"] = _always_where_requests(
        store_root
    )
    return out


def _always_where_requests(store_root) -> float:
    """Object-store requests of one uncached read of three adjacent
    columns with a filter every zone map proves ALWAYS true, over the
    same read with no filter. Late materialization fetches the filter
    chunk first and the rest after, which splits a run the planner
    would have coalesced into one request."""
    import wrappers
    from repro.catalog import CatalogTable
    from repro.expr import col

    def requests(where) -> int:
        store = wrappers.ObjectCountingStore(store_root)
        store.object_sleep = False
        table = CatalogTable(store, reader_options={"chunk_cache_size": 0})
        with table.pin() as snap:
            snap.read(["ts", "user", "v"], where=where)
        return store.requests()

    return ratio(requests(col("ts") >= 0), requests(None))
