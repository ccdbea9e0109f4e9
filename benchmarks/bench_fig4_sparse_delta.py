"""Fig 3/4 — delta encoding for long-sequence sparse features.

Paper: ``clk_seq_cids`` (256-element ``list<int64>`` vectors sorted by
uid/time) exhibits sliding-window overlap; Bullion's delta format
(<delta bit> <delta range> <head> <tail>, bulk zstd'd) yields
"substantial storage savings" over the plain list encoding.
Reproduction: measure encoded sizes of plain / plain+zlib / sparse
delta on the Fig 3 workload, plus encode/decode throughput.
"""

import numpy as np
from reporting import report

from repro.encodings import (
    Chunked,
    ListEncoding,
    SparseListDelta,
    decode_blob,
    encode_blob,
)
from repro.workloads import SlidingWindowConfig, generate_click_sequences, overlap_profile

CONFIG = SlidingWindowConfig(
    n_users=40, events_per_user=25, window_size=256, seed=5
)


def _rows():
    rows, _uids = generate_click_sequences(CONFIG)
    return rows


def test_bench_sparse_delta_encode(benchmark):
    rows = _rows()
    blob = benchmark(encode_blob, rows, SparseListDelta())

    plain = encode_blob(rows, ListEncoding())
    plain_zlib = encode_blob(rows, ListEncoding(values_child=Chunked()))
    raw = sum(r.nbytes for r in rows)
    profile = overlap_profile(rows)
    lines = [
        f"workload: {len(rows)} rows x {CONFIG.window_size} int64 "
        f"(mean overlap {profile['mean_overlap_fraction']:.2f}, "
        f"identical {profile['identical_fraction']:.2f})",
        f"raw:                   {raw:>10,} B  1.00x",
        f"list (plain):          {len(plain):>10,} B  {raw/len(plain):5.1f}x",
        f"list + zlib bulk:      {len(plain_zlib):>10,} B  "
        f"{raw/len(plain_zlib):5.1f}x",
        f"sparse delta (Fig 4):  {len(blob):>10,} B  {raw/len(blob):5.1f}x",
        "paper: 'substantial storage savings with its optimized encoding "
        "scheme for sparse features'",
    ]
    # the paper's shape: sparse delta must beat both plain and zlib
    assert len(blob) < len(plain) / 5
    assert len(blob) < len(plain_zlib)
    report(
        "fig4_sparse_delta",
        lines,
        data={
            "raw_bytes": raw,
            "plain_bytes": len(plain),
            "plain_zlib_bytes": len(plain_zlib),
            "sparse_delta_bytes": len(blob),
        },
    )


def test_bench_sparse_delta_decode(benchmark):
    rows = _rows()
    blob = encode_blob(rows, SparseListDelta())
    out = benchmark(decode_blob, blob)
    assert len(out) == len(rows)
    assert np.array_equal(out[-1], rows[-1])


def test_bench_plain_list_baseline(benchmark):
    rows = _rows()
    blob = benchmark(encode_blob, rows, ListEncoding(values_child=Chunked()))
    assert len(blob) > 0
