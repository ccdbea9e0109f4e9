"""Codec kernel throughput scoreboard: MB/s encode + decode per codec.

``bench_table2_encodings.py`` reproduces the paper's compression-ratio
table; this bench measures the *speed* of the same catalog's
vectorized encode/decode kernels on paper workload shapes (small-range
ints, zipf-skewed ids, sorted ids, runs, time-series floats, decimal
floats, URL-like strings, sparse bools, §2.2 sliding-window click
sequences from :mod:`repro.workloads.sparse`), so a regression in a hot
loop shows up in CI rather than in a production scan. Throughput is
min-of-``repeats`` wall time over the *raw* (decoded) bytes, so ratios
and MB/s are comparable across codecs. Two artifacts are published:

* ``benchmarks/results/codecs.txt`` — the human-readable scoreboard;
* ``BENCH_codecs.json`` (repo root) — the machine-readable trajectory
  file (schema ``bench_codecs/v1``) that CI's encode/decode floors read.

CI runs at scale 0.25 with 2 repeats; ``CODEC_BENCH_SCALE`` and
``CODEC_BENCH_REPEATS`` set both for a local run (the page-sized
click-window rows are 4,096 rows at scale 1.0).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass

import numpy as np
from reporting import registry_snapshot_dict, report

from repro.encodings import decode_blob, encode_blob


CI_SCALE = float(os.environ.get("CODEC_BENCH_SCALE", "0.25"))
CI_REPEATS = int(os.environ.get("CODEC_BENCH_REPEATS", "2"))

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
JSON_PATH = os.path.join(REPO_ROOT, "BENCH_codecs.json")


@dataclass(frozen=True)
class CodecBenchResult:
    """One scoreboard row: a (codec, dtype, distribution) cell."""

    codec: str
    dtype: str
    distribution: str
    n_values: int
    raw_bytes: int
    encoded_bytes: int
    ratio: float
    encode_mb_s: float
    decode_mb_s: float


def _raw_bytes(values) -> int:
    if isinstance(values, np.ndarray):
        return values.nbytes
    if values and isinstance(values[0], np.ndarray):
        return sum(v.nbytes for v in values)
    return sum(len(v) for v in values if v is not None)


#: window lengths of the §2.2 click-sequence rows: a short feature and
#: the paper's 256-id ``clk_seq_cids``
CLICK_WINDOWS = (32, 256)


def _click_windows(scale: float, window: int):
    from repro.workloads.sparse import (
        SlidingWindowConfig,
        generate_click_sequences,
    )

    # page-sized: 4,096 rows at scale 1.0 (the writer's default page),
    # 1,024 at the CI scale. A list codec pays a fixed cost per page for
    # its sub-columns; on a 96-row page that is all the bench would see
    config = SlidingWindowConfig(
        n_users=max(4, int(128 * scale)),
        events_per_user=32,
        window_size=window,
        seed=7,
    )
    rows, _uids = generate_click_sequences(config)
    return rows


def scoreboard_workloads(scale: float = 1.0):
    """(codec name, encoding factory, dtype, distribution, data) rows.

    ``scale`` multiplies the value counts; at 1.0 a cell stays under a
    second for vectorized kernels.
    """
    from repro.encodings import (
        ALP,
        Chimp,
        Delta,
        Dictionary,
        FastBP128,
        FastPFOR,
        FixedBitWidth,
        FrameOfReference,
        FSST,
        Gorilla,
        Huffman,
        ListEncoding,
        Pseudodecimal,
        RLE,
        Roaring,
        SparseBool,
        SparseListDelta,
        Trivial,
        Varint,
        ZigZag,
    )

    rng = np.random.default_rng(2025)
    n_int = max(256, int(65536 * scale))
    n_float = max(256, int(16384 * scale))
    n_str = max(64, int(4000 * scale))
    n_bool = max(1024, int(262144 * scale))

    small = rng.integers(0, 64, n_int).astype(np.int64)
    zipf = np.minimum(rng.zipf(1.5, n_int), 10**6).astype(np.int64)
    signed = rng.integers(-(10**6), 10**6, n_int).astype(np.int64)
    sorted_ids = np.sort(rng.integers(0, 10**12, n_int)).astype(np.int64)
    runs = np.repeat(
        rng.integers(0, 8, max(1, n_int // 32)), 32
    ).astype(np.int64)[:n_int]
    outliers = np.where(
        rng.random(n_int) < 0.05,
        rng.integers(10**6, 10**9, n_int),
        rng.integers(0, 100, n_int),
    ).astype(np.int64)
    series = 20.0 + np.cumsum(rng.normal(0, 0.01, n_float))
    series32 = series.astype(np.float32)
    decimals = np.round(rng.uniform(-1000, 1000, n_float), 2)
    sparse_bools = rng.random(n_bool) < 0.005
    dense_bools = rng.random(n_bool) < 0.6
    urls = [
        f"https://ads.example.com/c?cid={int(rng.integers(0, 400))}"
        f"&uid={int(rng.integers(0, 1000))}".encode()
        for _ in range(n_str)
    ]
    click_rows = []
    for window in CLICK_WINDOWS:
        rows = _click_windows(scale, window)
        distribution = f"click_windows_w{window}"
        click_rows += [
            ("list", ListEncoding, "list<int64>", distribution, rows),
            (
                "sparse_list_delta",
                SparseListDelta,
                "list<int64>",
                distribution,
                rows,
            ),
        ]

    return [
        ("trivial", Trivial, "int64", "signed", signed),
        ("fixed_bit_width", FixedBitWidth, "int64", "small", small),
        ("varint", Varint, "int64", "small", small),
        ("varint", Varint, "int64", "outliers", outliers),
        ("zigzag", ZigZag, "int64", "signed", signed),
        ("rle", RLE, "int64", "runs", runs),
        ("dictionary", Dictionary, "int64", "small", small),
        ("dictionary", Dictionary, "bytes", "urls", urls),
        ("delta", Delta, "int64", "sorted_ids", sorted_ids),
        ("for", FrameOfReference, "int64", "signed", signed),
        ("huffman", Huffman, "int64", "small", small),
        ("huffman", Huffman, "int64", "zipf", zipf),
        ("fastpfor", FastPFOR, "int64", "small", small),
        ("fastpfor", FastPFOR, "int64", "outliers", outliers),
        ("fastbp128", FastBP128, "int64", "small", small),
        ("sparse_bool", SparseBool, "bool", "sparse", sparse_bools),
        ("roaring", Roaring, "bool", "sparse", sparse_bools),
        ("roaring", Roaring, "bool", "dense", dense_bools),
        ("fsst", FSST, "bytes", "urls", urls),
        ("gorilla", Gorilla, "float64", "timeseries", series),
        ("gorilla", Gorilla, "float32", "timeseries", series32),
        ("chimp", Chimp, "float64", "timeseries", series),
        ("chimp", Chimp, "float32", "timeseries", series32),
        ("pseudodecimal", Pseudodecimal, "float64", "decimals", decimals),
        ("alp", ALP, "float64", "decimals", decimals),
    ] + click_rows


def _best_seconds(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return max(best, 1e-9)


def run_scoreboard(scale: float, repeats: int) -> list[CodecBenchResult]:
    results = []
    for name, factory, dtype, distribution, data in scoreboard_workloads(
        scale
    ):
        encoding = factory()
        raw = _raw_bytes(data)
        blob = encode_blob(data, encoding)  # warm-up + blob for decode
        enc_s = _best_seconds(lambda: encode_blob(data, encoding), repeats)
        decode_blob(blob)
        dec_s = _best_seconds(lambda: decode_blob(blob), repeats)
        results.append(
            CodecBenchResult(
                codec=name,
                dtype=dtype,
                distribution=distribution,
                n_values=len(data),
                raw_bytes=raw,
                encoded_bytes=len(blob),
                ratio=round(raw / len(blob), 3),
                encode_mb_s=round(raw / enc_s / 1e6, 2),
                decode_mb_s=round(raw / dec_s / 1e6, 2),
            )
        )
    return results


def format_scoreboard(results: list[CodecBenchResult]) -> list[str]:
    lines = [
        f"{'codec':18s} {'dtype':11s} {'distribution':18s} "
        f"{'ratio':>7s} {'enc MB/s':>9s} {'dec MB/s':>9s}"
    ]
    for r in results:
        lines.append(
            f"{r.codec:18s} {r.dtype:11s} {r.distribution:18s} "
            f"{r.ratio:6.1f}x {r.encode_mb_s:9.1f} {r.decode_mb_s:9.1f}"
        )
    return lines


def test_codec_scoreboard():
    results = run_scoreboard(scale=CI_SCALE, repeats=CI_REPEATS)
    assert results, "scoreboard produced no rows"
    # sanity floor: every cell must actually move data
    for row in results:
        assert row.encode_mb_s > 0 and row.decode_mb_s > 0, row
        assert row.encoded_bytes > 0, row
    report("codecs", format_scoreboard(results))
    # richer schema than the generic bench_report/v1 file report() just
    # wrote at the same path — but with the same embedded "metrics" key,
    # so `repro-inspect metrics BENCH_codecs.json` works on both
    payload = {
        "schema": "bench_codecs/v1",
        "unit": "MB/s over raw (decoded) bytes, min-of-repeats",
        "rows": [asdict(r) for r in results],
        "metrics": registry_snapshot_dict(),
    }
    with open(JSON_PATH, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
