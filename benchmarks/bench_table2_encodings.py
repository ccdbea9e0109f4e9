"""Table 2 — the catalog of column encoding schemes.

Paper: a catalog of 20+ encodings "found in existing storage systems
and formats" unified behind Bullion's modular interface. Reproduction:
run every scheme of the catalog on its natural workload and report its
compression ratio; every scheme that exists to save bytes must save
them. Codec speed (encode and decode MB/s on paper workload shapes) is
the codec scoreboard's to measure: ``bench_codecs.py``.
"""

import numpy as np
from reporting import report

from repro.encodings import (
    ALP,
    BitShuffle,
    Chimp,
    Chunked,
    Constant,
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
    MainlyConstant,
    Nullable,
    Pseudodecimal,
    RLE,
    Roaring,
    Sentinel,
    SparseBool,
    SparseListDelta,
    Trivial,
    Varint,
    ZigZag,
    catalog,
    decode_blob,
    encode_blob,
)

RNG = np.random.default_rng(6)


def _raw_bytes(values):
    if isinstance(values, np.ndarray):
        return values.nbytes
    if values and isinstance(values[0], np.ndarray):
        return sum(v.nbytes for v in values)
    return sum(len(v) for v in values if v is not None)


def _workloads():
    n = 20000
    small = RNG.integers(0, 64, n).astype(np.int64)
    runs = np.resize(
        np.repeat(RNG.integers(0, 8, 400), RNG.integers(10, 100, 400)), n
    ).astype(np.int64)
    sorted_ids = np.sort(RNG.integers(0, 10**9, n)).astype(np.int64)
    signed = RNG.integers(-(10**6), 10**6, n).astype(np.int64)
    decimals = np.round(RNG.uniform(0, 1000, n // 4), 2)
    gauss = RNG.normal(size=n // 4)
    series = 20.0 + np.cumsum(RNG.normal(0, 0.01, n // 4))
    sparse_bools = RNG.random(n) < 0.01
    urls = [f"https://x.com/watch?v={i % 300}".encode() for i in range(3000)]
    nullable = np.ma.MaskedArray(small[:4000], mask=RNG.random(4000) < 0.2)
    mostly = np.where(RNG.random(n) < 0.02, signed, 7).astype(np.int64)
    window = list(RNG.integers(0, 10**6, 256))
    windows = []
    for _ in range(100):
        window = ([int(RNG.integers(0, 10**6))] + window)[:256]
        windows.append(np.array(window, dtype=np.int64))
    return [
        ("trivial", Trivial(), signed),
        ("fixed_bit_width", FixedBitWidth(), small),
        ("varint", Varint(), small),
        ("zigzag", ZigZag(), signed),
        ("rle", RLE(), runs),
        ("dictionary", Dictionary(), small),
        ("delta", Delta(), sorted_ids),
        ("for", FrameOfReference(), signed),
        ("huffman", Huffman(), small),
        ("fastpfor", FastPFOR(), small),
        ("fastbp128", FastBP128(), small),
        ("constant", Constant(), np.full(n, 3, dtype=np.int64)),
        ("mainly_constant", MainlyConstant(), mostly),
        ("nullable", Nullable(), nullable),
        ("sentinel", Sentinel(), nullable),
        ("sparse_bool", SparseBool(), sparse_bools),
        ("roaring", Roaring(), sparse_bools),
        ("bitshuffle", BitShuffle(), small),
        ("chunked", Chunked(), runs),
        ("fsst", FSST(), urls),
        ("gorilla", Gorilla(), series),
        ("chimp", Chimp(), series),
        ("pseudodecimal", Pseudodecimal(), decimals),
        ("alp", ALP(), decimals),
        ("list", ListEncoding(), windows),
        ("sparse_list_delta", SparseListDelta(), windows),
    ]


#: schemes that shape the layout (nulls, lists, the raw fallback) rather
#: than the size: the paper claims no compression for them
_LAYOUT_ONLY = frozenset({"trivial", "nullable", "sentinel", "list"})


def test_bench_catalog_table(benchmark):
    ratios = {
        name: _raw_bytes(data) / len(encode_blob(data, encoding))
        for name, encoding, data in _workloads()
    }
    benchmark(encode_blob, RNG.integers(0, 64, 20000).astype(np.int64),
              FixedBitWidth())
    lines = ["encoding            ratio"] + [
        f"{name:18s}  {ratio:6.1f}x" for name, ratio in ratios.items()
    ]
    report("table2_encodings", lines, data={"ratios": ratios})
    # the whole catalog, 20+ schemes as the paper has it
    assert sorted(ratios) == sorted(catalog()) and len(ratios) >= 20
    for name, ratio in ratios.items():
        if name not in _LAYOUT_ONLY:
            assert ratio > 1.0, (name, ratio)


def test_bench_encode_fixed_bit_width(benchmark):
    data = RNG.integers(0, 64, 100000).astype(np.int64)
    benchmark(encode_blob, data, FixedBitWidth())


def test_bench_decode_fixed_bit_width(benchmark):
    data = RNG.integers(0, 64, 100000).astype(np.int64)
    blob = encode_blob(data, FixedBitWidth())
    benchmark(decode_blob, blob)


def test_bench_encode_fastbp128(benchmark):
    data = RNG.integers(0, 1000, 100000).astype(np.int64)
    benchmark(encode_blob, data, FastBP128())


def test_bench_decode_rle_cascade(benchmark):
    data = np.resize(
        np.repeat(RNG.integers(0, 8, 400), RNG.integers(10, 100, 400)), 100000
    ).astype(np.int64)
    blob = encode_blob(data, RLE(values_child=Dictionary()))
    benchmark(decode_blob, blob)
