"""Fig 5 — metadata parsing overhead in feature projection.

Paper: extracting one column's metadata from a file with N feature
columns costs Parquet time linear in N (52 ms at 10k columns, C++),
while Bullion stays flat under 2 ms (1.2 ms at 10k). Reproduction: the
same experiment over the thrift-like baseline footer vs the flat
Bullion footer; absolute numbers differ (Python vs C++) but the shape —
linear vs flat, orders of magnitude apart at 10k+ columns — is the
claim under test.
"""

import struct
import time

import numpy as np
import pytest
from reporting import report

from repro.baseline import ParquetLikeWriter, parse_metadata
from repro.core.footer import FooterView
from repro.core.table import Table
from repro.core.writer import BullionWriter, WriterOptions
from repro.iosim import SimulatedStorage

FEATURE_COUNTS = [1000, 5000, 10000, 20000]
ROWS = 8


def _make_table(n_cols):
    rng = np.random.default_rng(n_cols)
    return Table(
        {
            f"f_{i}": rng.integers(0, 100, ROWS).astype(np.int64)
            for i in range(n_cols)
        }
    )


def _parquet_footer(n_cols) -> bytes:
    dev = SimulatedStorage()
    meta = ParquetLikeWriter(dev).write(_make_table(n_cols))
    tail = dev.pread(dev.size - 8, 8)
    (footer_len,) = struct.unpack_from("<I", tail, 0)
    return dev.pread(dev.size - 8 - footer_len, footer_len)


def _bullion_footer(n_cols) -> bytes:
    dev = SimulatedStorage()
    BullionWriter(
        dev, options=WriterOptions(rows_per_page=ROWS, rows_per_group=ROWS)
    ).write(_make_table(n_cols))
    tail = dev.pread(dev.size - 8, 8)
    (footer_len,) = struct.unpack_from("<I", tail, 0)
    return dev.pread(dev.size - 8 - footer_len, footer_len)


def _parquet_extract(footer_bytes, name):
    meta = parse_metadata(footer_bytes)  # the full deserialization
    for col in meta.row_groups[0].columns:
        if col.path_in_schema == name:
            return col.data_page_offset
    raise KeyError(name)


def _bullion_extract(footer_bytes, name):
    view = FooterView(footer_bytes)  # header probe only
    idx = view.find_column(name)  # binary map scan
    return view.chunk(idx, 0).offset  # offsets array probe


def _best_of(fn, *args, reps=3):
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def test_bench_parquet_parse_10k(benchmark):
    footer = _parquet_footer(10000)
    offset = benchmark.pedantic(
        _parquet_extract, args=(footer, "f_5000"), rounds=3, iterations=1
    )
    assert offset > 0


def test_bench_bullion_lookup_10k(benchmark):
    footer = _bullion_footer(10000)
    offset = benchmark(_bullion_extract, footer, "f_5000")
    assert offset > 0


@pytest.mark.parametrize("n_cols", [1000, 20000])
def test_bench_bullion_lookup_is_flat(benchmark, n_cols):
    footer = _bullion_footer(n_cols)
    benchmark(_bullion_extract, footer, f"f_{n_cols // 2}")


def test_bench_fig5_full_sweep(benchmark):
    """Regenerate the whole figure and check its shape."""
    results = []
    for n in FEATURE_COUNTS:
        pq_footer, bu_footer = _parquet_footer(n), _bullion_footer(n)
        pq = _best_of(_parquet_extract, pq_footer, f"f_{n // 2}")
        bu = _best_of(_bullion_extract, bu_footer, f"f_{n // 2}")
        results.append((n, pq * 1e3, bu * 1e3, len(pq_footer), len(bu_footer)))

    # the benchmarked op: the 10k-column Bullion lookup
    footer = _bullion_footer(10000)
    benchmark(_bullion_extract, footer, "f_5000")

    # parquet cost grows ~linearly (>=8x from 1k to 20k)
    assert results[-1][1] / results[0][1] > 8
    # bullion stays flat: under 2 ms everywhere and under 10x spread
    assert all(bu < 2.0 for _n, _pq, bu, _pb, _bb in results)
    # and the gap at 10k columns is orders of magnitude
    n10k = results[2]
    assert n10k[1] / n10k[2] > 100

    paper = {1000: (5.0, 0.9), 5000: (26.0, 1.0), 10000: (52.0, 1.2),
             20000: (104.0, 1.6)}  # ms, eyeballed from Fig 5 + text
    # the tracked lines hold sizes and the paper's numbers; measured
    # times go to the JSON artifact
    lines = ["#features  parquet_footer_B  bullion_footer_B  "
             "paper_parquet_ms  paper_bullion_ms"]
    for n, _pq, _bu, pq_bytes, bu_bytes in results:
        pp, pb = paper[n]
        lines.append(
            f"{n:9d}  {pq_bytes:16d}  {bu_bytes:16d}  {pp:16.1f}  {pb:16.1f}"
        )
    lines.append(
        "shape check passed: parquet linear in #features, bullion flat "
        "<2ms, >100x apart at 10k"
    )
    report("fig5_metadata", lines, data={
        str(n): {"parquet_ms": pq, "bullion_ms": bu, "ratio": pq / bu}
        for n, pq, bu, _pb, _bb in results
    })
