"""§2.6 — cascading encoding selection and the recursion-depth ablation.

Paper: composable encodings "achieve superior data compression compared
to static, single-encoding approaches", selection needs sampling +
heuristics, and "current implementations, such as BtrBlocks,
pragmatically limit recursion to one or two levels". Reproduction:
cascade-selected vs best-static-single vs trivial across representative
ML columns, plus the depth 0/1/2 ablation DESIGN.md calls out.
"""

import numpy as np
from reporting import report

from repro.cascading import COLD_STORAGE, select_encoding
from repro.cascading.objective import raw_size_bytes
from repro.encodings import encode_blob

RNG = np.random.default_rng(21)


def _columns():
    n = 12000
    window = list(RNG.integers(0, 10**6, 128))
    windows = []
    for _ in range(150):
        window = ([int(RNG.integers(0, 10**6))] + window)[:128]
        windows.append(np.array(window, dtype=np.int64))
    return {
        "categorical_runs": np.resize(
            np.repeat(RNG.integers(0, 12, 300), RNG.integers(5, 80, 300)), n
        ).astype(np.int64),
        "sorted_ids": np.sort(RNG.integers(0, 10**9, n)).astype(np.int64),
        "small_ints": RNG.integers(0, 50, n).astype(np.int64),
        "prices": np.round(RNG.uniform(0, 999, n // 2), 2),
        "gaussian": RNG.normal(size=n // 2),
        "urls": [f"https://a.b/item/{i % 500}".encode() for i in range(4000)],
        "rare_flags": RNG.random(n) < 0.01,
        "clk_seq_cids": windows,
    }


def test_bench_selector_on_int_column(benchmark):
    data = _columns()["categorical_runs"]
    result = benchmark(select_encoding, data)
    assert result.best.encoded_bytes > 0


def test_bench_cascade_vs_static(benchmark):
    columns = _columns()
    lines = [
        "sizes, not winners, are the evidence: the objective is timed, so "
        "near-tied winners differ from run to run",
        "column            raw_B      cascade_B  winner                    static_best_B  gain",
    ]
    total_cascade, total_static, total_raw = 0, 0, 0
    for name, data in columns.items():
        result = select_encoding(data, weights=COLD_STORAGE)
        blob = encode_blob(data, result.encoding)
        # best *non-composed* scheme = depth-0 selection
        static = select_encoding(data, weights=COLD_STORAGE, max_depth=0)
        static_blob = encode_blob(data, static.encoding)
        raw = raw_size_bytes(data)
        total_cascade += len(blob)
        total_static += len(static_blob)
        total_raw += raw
        lines.append(
            f"{name:16s}  {raw:>9,}  {len(blob):>9,}  "
            f"{result.description:24s}  {len(static_blob):>13,}  "
            f"{len(static_blob) / len(blob):4.1f}x"
        )
    benchmark(select_encoding, columns["small_ints"], weights=COLD_STORAGE)
    lines.append(
        f"{'TOTAL':16s}  {total_raw:>9,}  {total_cascade:>9,}  "
        f"{'':24s}  {total_static:>13,}  "
        f"{total_static / total_cascade:4.1f}x"
    )
    lines.append(
        "paper: composable encodings 'achieve superior data compression "
        "compared to static, single-encoding approaches'"
    )
    report(
        "cascading_vs_static",
        lines,
        data={"total_cascade": total_cascade, "total_static": total_static},
    )
    assert total_cascade <= total_static  # cascade never loses overall


def test_bench_recursion_depth_ablation(benchmark):
    columns = _columns()
    lines = ["depth  total_encoded_B   note"]
    totals = {}
    for depth in (0, 1, 2):
        total = 0
        for data in columns.values():
            result = select_encoding(
                data, weights=COLD_STORAGE, max_depth=depth
            )
            total += len(encode_blob(data, result.encoding))
        totals[depth] = total
    benchmark(
        select_encoding,
        columns["categorical_runs"],
        weights=COLD_STORAGE,
        max_depth=2,
    )
    notes = {
        0: "single encodings only",
        1: "one composition level",
        2: "two levels (BtrBlocks' pragmatic bound)",
    }
    for depth, total in totals.items():
        lines.append(f"{depth}      {total:>14,}   {notes[depth]}")
    gain_01 = totals[0] / totals[1]
    gain_12 = totals[1] / totals[2]
    lines.append(
        f"depth 0->1 gain {gain_01:4.2f}x; depth 1->2 gain {gain_12:4.2f}x "
        "(diminishing returns -> the paper's 1-2 level pragmatism)"
    )
    report("cascading_depth_ablation", lines)
    assert totals[1] <= totals[0]
    assert totals[2] <= totals[1] * 1.01  # depth 2 never meaningfully worse
    assert gain_01 > gain_12 * 0.9  # first level buys (at least) the most
