"""Streaming dataset engine: writer memory and parallel scan time.

Two claims the ISSUE-1 refactor makes measurable:

* the incremental writer (``open() -> write_batch() -> finish()``)
  keeps peak memory bounded by one row group while producing files
  byte-identical to the one-shot path — tracked both by ``tracemalloc``
  over the whole generate+write pipeline and by the writer's own
  instrumentation counters;
* the ``Scan`` read path overlaps chunk fetches across a thread pool,
  so on a latency-modelled device (seek latency + bandwidth slept out
  per operation) a parallel scan finishes in a fraction of the serial
  wall-clock.
"""

import time
import tracemalloc

import numpy as np
from reporting import report

from repro.core import BullionReader, BullionWriter, Table, WriterOptions
from repro.iosim import LatencyModelledStorage, SeekModel, SimulatedStorage

N_ROWS = 120_000
BATCH_ROWS = 4_096
ROWS_PER_GROUP = 8_192
ROWS_PER_PAGE = 1_024


def _batch(rng, n):
    return Table(
        {
            "id": rng.integers(0, 10**9, n).astype(np.int64),
            "score": rng.normal(size=n),
            "weight": rng.random(n).astype(np.float32),
        }
    )


def _options():
    return WriterOptions(
        rows_per_page=ROWS_PER_PAGE, rows_per_group=ROWS_PER_GROUP
    )


def _batches(rng):
    for start in range(0, N_ROWS, BATCH_ROWS):
        yield _batch(rng, min(BATCH_ROWS, N_ROWS - start))


def test_bench_streaming_vs_one_shot_writer_memory():
    from repro.core.table import concat_tables

    # one-shot: the whole table must exist before write() can start
    tracemalloc.start()
    rng = np.random.default_rng(0)
    table = concat_tables(list(_batches(rng)))
    one_dev = SimulatedStorage()
    BullionWriter(one_dev, options=_options()).write(table)
    _, one_shot_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    del table

    # streaming: generate and write one batch at a time
    tracemalloc.start()
    rng = np.random.default_rng(0)
    stream_dev = SimulatedStorage()
    writer = BullionWriter(stream_dev, options=_options()).open()
    for batch in _batches(rng):
        writer.write_batch(batch)
    writer.finish()
    _, streaming_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    assert stream_dev.raw_bytes() == one_dev.raw_bytes()
    stats = writer.stats
    assert stats.peak_buffered_rows <= ROWS_PER_GROUP + BATCH_ROWS
    assert streaming_peak < one_shot_peak
    # tracemalloc peaks move by a few bytes run to run: they go to the
    # JSON artifact, the tracked lines hold the writer's own counters
    lines = [
        f"rows: {N_ROWS:,} x 3 columns, "
        f"groups of {ROWS_PER_GROUP:,}, batches of {BATCH_ROWS:,}",
        "streaming pipeline peak below one-shot: True",
        f"writer peak buffered rows:      {stats.peak_buffered_rows:>8,} "
        f"(bound: group + one batch)",
        f"writer peak encoded pages held: {stats.peak_encoded_pages_held:>8,} "
        f"(of {stats.pages_written:,} written)",
        f"writer peak encoded bytes held: "
        f"{stats.peak_encoded_payload_bytes:>8,}",
        "output byte-identical to one-shot: True",
    ]
    report("streaming_writer_memory", lines, data={
        "one_shot_peak_bytes": one_shot_peak,
        "streaming_peak_bytes": streaming_peak,
    })


def test_bench_parallel_vs_serial_scan():
    # a latency-modelled device that actually sleeps per operation:
    # 2 ms per seek, 500 MB/s sequential — chunk fetches dominated by
    # seek latency, which a thread pool can overlap
    rng = np.random.default_rng(1)
    n = 60_000
    # a wide-ish table scanned through a sparse projection, the §2.3
    # ML shape: the projected chunks are scattered, so every fetch
    # pays the seek latency a thread pool can overlap
    table = Table(
        {
            f"feat{i}": rng.normal(size=n).astype(np.float32)
            for i in range(12)
        }
    )
    base = SimulatedStorage()
    BullionWriter(
        base, options=WriterOptions(rows_per_page=512, rows_per_group=4_096)
    ).write(table)
    model = SeekModel(seek_latency_s=2e-3, bandwidth_bytes_per_s=5e8)
    columns = ["feat0", "feat4", "feat8", "feat11"]

    def timed_scan(max_workers):
        dev = LatencyModelledStorage(base, model, sleep=True)
        # fresh reader per run: no cross-run chunk-cache pollution
        reader = BullionReader(dev, chunk_cache_size=0)
        t0 = time.perf_counter()
        out = reader.scan(columns, max_workers=max_workers).to_table()
        return time.perf_counter() - t0, out

    serial_s, serial_table = timed_scan(0)
    parallel_s, parallel_table = timed_scan(8)
    assert parallel_table.equals(serial_table)
    assert parallel_s < serial_s
    n_chunks = len(columns) * BullionReader(base).footer.num_row_groups
    # the tracked lines hold counts; measured times go to the JSON
    lines = [
        f"rows: {n:,}, columns: {len(columns)}, "
        f"chunk fetches: {n_chunks} "
        f"(seek {model.seek_latency_s * 1e3:.0f} ms, "
        f"{model.bandwidth_bytes_per_s / 1e9:.1f} GB/s)",
        "parallel scan (workers=8) faster than serial (workers=0): True",
        "tables equal: True",
    ]
    report("parallel_scan", lines, data={
        "serial_ms": serial_s * 1e3,
        "parallel_ms": parallel_s * 1e3,
        "speedup": serial_s / parallel_s,
    })
