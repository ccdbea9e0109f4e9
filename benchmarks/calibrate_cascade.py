"""Calibrate the cascade objective's cost table (paper §2.6, §3).

The selector prices a candidate scheme by the size of one trial encode
plus write and read seconds per raw MB looked up in
``src/repro/cascading/costs.py``. This script measures those seconds
once. For every description a value kind's candidate heuristics can
emit (enumerated over every branch, as ``tests/test_cascade_costs.py``
checks), it times encode and decode on what the selector sees — the
``take_sample`` of each column — of a seeded corpus:

* the codec scoreboard's inputs (``bench_codecs.scoreboard_workloads``);
* a Table 1 ads table and an event log (``repro.workloads``);
* a constant and a mainly-constant copy of each scalar column (and of
  the list values below), for the schemes only such columns propose.

A scheme is timed on the corpus columns whose statistics propose it
(on the copies that do when no corpus column does, on every column of
its kind when none does); each timing is the best of
``--repeats``, and the row is the median over those columns, rounded
to two significant figures. A ``list(<inner>)`` composite is priced as
its parts: the ``list`` row (the list framing: ``list(trivial)`` less
``trivial`` on the flattened values) plus the inner ``int`` scheme
timed on what it encodes there, the flattened values of the
``list<int64>`` columns (the ``list_int.values`` rows).

    python benchmarks/calibrate_cascade.py            # print the table
    python benchmarks/calibrate_cascade.py --write    # rewrite costs.py

Run it on an otherwise idle machine. The table is committed, so no
selection reads a clock.
"""

from __future__ import annotations

import argparse
import itertools
import os
import statistics
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
sys.path.insert(0, HERE)

from bench_codecs import scoreboard_workloads  # noqa: E402

from repro.cascading import (  # noqa: E402
    TRAINING_READS,
    candidate_encodings,
    candidate_fingerprint,
)
from repro.cascading.objective import (  # noqa: E402
    LIST_VALUES,
    raw_size_bytes,
)
from repro.cascading.stats import (  # noqa: E402
    SAMPLE_SIZE,
    ColumnStats,
    collect_stats,
    take_sample,
)
from repro.encodings import (  # noqa: E402
    Kind,
    ListEncoding,
    Trivial,
    decode_blob,
    encode_blob,
)
from repro.encodings.lists import normalize_list_column  # noqa: E402

COSTS_PATH = os.path.join(REPO_ROOT, "src", "repro", "cascading", "costs.py")

#: the deepest level any candidate heuristic branches on
MAX_DEPTH = 2


def scheme_universe(kind: Kind) -> dict:
    """Every fixed description ``kind``'s heuristics emit, with one
    encoding for it: each threshold the ``_*_candidates`` functions
    test is taken on both sides, at every depth. The empty sample keeps
    the list branch's inner selection (``list(<inner>)``) from running."""
    out: dict = {}
    for n_unique, n_sampled, non_negative, sorted_fraction, run, mode, \
            decimal, overlap, depth in itertools.product(
                (1, 100, 300, 100_000), (800, SAMPLE_SIZE), (True, False),
                (0.0, 1.0), (1.0, 2.0, 5.0), (0.0, 0.9), (0.0, 1.0),
                (0.0, 0.5), range(MAX_DEPTH + 1)):
        stats = ColumnStats(
            kind=kind, n=n_sampled, n_sampled=n_sampled, n_unique=n_unique,
            non_negative=non_negative, sorted_fraction=sorted_fraction,
            avg_run_length=run, mode_fraction=mode,
            decimal_fraction=decimal, window_overlap=overlap,
        )
        for encoding, description in candidate_encodings(
            (), stats, depth, TRAINING_READS
        ):
            out.setdefault(description, encoding)
    return out


def corpus() -> list:
    """Seeded columns of every value kind (never the e2e scenarios')."""
    from repro.workloads.ads import (
        AdsDataConfig,
        build_ads_schema,
        generate_ads_table,
    )
    from repro.workloads.events import EventLogConfig, generate_event_log

    columns = []
    seen = set()
    for _, _, dtype, distribution, data in scoreboard_workloads(0.25):
        if (dtype, distribution) not in seen:
            seen.add((dtype, distribution))
            columns.append(data)
    # one physical column per Table 1 type
    ads = generate_ads_table(
        build_ads_schema(1e-5), AdsDataConfig(rows=1500, seed=11)
    )
    columns += list(ads.columns.values())
    log = generate_event_log(EventLogConfig(seed=3))
    columns += [log.uid, log.timestamp, log.event_type, log.item_id]
    return columns


def constant_copies(columns: list) -> list:
    """A constant and a mainly-constant copy of each scalar column."""
    rng = np.random.default_rng(5)
    out = []
    for data in columns:
        if isinstance(data, np.ndarray) or (
            data and isinstance(data[0], bytes)
        ):
            constant = [data[0]] * len(data)
            mostly = [
                data[0] if keep else value
                for keep, value in zip(rng.random(len(data)) < 0.9, data)
            ]
            if isinstance(data, np.ndarray):
                constant = np.asarray(constant, dtype=data.dtype)
                mostly = np.asarray(mostly, dtype=data.dtype)
            out += [constant, mostly]
    return out


def best_seconds(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def seconds_per_mb(sample, encoding, repeats: int):
    """(write, read) seconds per raw MB of ``sample``; None when the
    scheme does not apply to it."""
    try:
        blob = encode_blob(sample, encoding)
        decode_blob(blob)
    except Exception:
        return None
    mb = raw_size_bytes(sample) / 1e6
    write = best_seconds(lambda: encode_blob(sample, encoding), repeats)
    read = best_seconds(lambda: decode_blob(blob), repeats)
    return write / mb, read / mb


def two_figures(x: float) -> float:
    return float(f"{x:.2g}")


def by_kind(columns: list) -> dict:
    out: dict = {}
    for data in columns:
        if len(data):
            sample = take_sample(data)
            out.setdefault(collect_stats(sample).kind, []).append(sample)
    return out


def price(universe: dict, samples: list, copies: list, repeats: int) -> dict:
    """description -> (write, read) s/MB: the median over the samples
    whose statistics propose the scheme; over the constant copies that
    propose it when no sample does, over every sample when none does."""

    def proposing(description, pool):
        return [
            s for s in pool
            if description in candidate_fingerprint(collect_stats(s))
        ]

    rows = {}
    for description, encoding in sorted(universe.items()):
        pool = (
            proposing(description, samples)
            or proposing(description, copies)
            or samples
        )
        timed = [
            t for t in (seconds_per_mb(s, encoding, repeats) for s in pool)
            if t is not None
        ]
        if not timed:
            raise SystemExit(f"no corpus column encodes {description!r}")
        rows[description] = tuple(
            two_figures(statistics.median(t[i] for t in timed))
            for i in (0, 1)
        )
    return rows


def calibrate(repeats: int) -> dict:
    columns = corpus()
    samples, copies = by_kind(columns), by_kind(constant_copies(columns))
    table = {
        kind.value: price(
            scheme_universe(kind), samples[kind], copies.get(kind, []),
            repeats,
        )
        for kind in sorted(samples, key=lambda kind: kind.value)
    }
    lists = samples[Kind.LIST_INT]
    table[Kind.LIST_INT.value]["list"] = _list_framing(lists, repeats)
    values = [
        normalize_list_column(s, Kind.LIST_INT).values for s in lists
    ]
    table[LIST_VALUES] = price(
        scheme_universe(Kind.INT), by_kind(values)[Kind.INT],
        by_kind(constant_copies(values))[Kind.INT], repeats,
    )
    return table


def _list_framing(samples, repeats: int) -> tuple:
    """What ``list(trivial)`` costs beyond ``trivial`` on its values."""
    framing = []
    for sample in samples:
        flat = normalize_list_column(sample, Kind.LIST_INT).values
        whole = seconds_per_mb(sample, ListEncoding(), repeats)
        inner = seconds_per_mb(flat, Trivial(), repeats)
        if whole and inner:
            framing.append([max(0.0, w - i) for w, i in zip(whole, inner)])
    return tuple(
        two_figures(statistics.median(f[i] for f in framing)) for i in (0, 1)
    )


HEADER = '''"""Write and read seconds per raw MB of every candidate scheme, by
value kind and description: the cascade objective's time terms
(:func:`repro.cascading.objective.scheme_cost`).

Generated by ``python benchmarks/calibrate_cascade.py --write`` on a
2-core x86-64 box under CPython 3.11: the median over a seeded corpus
of the best of {repeats} timings on the selector's sample, two
significant figures. A ``list(<inner>)`` composite costs the
``list_int`` ``list`` row (the list framing) plus its inner scheme's
``list_int.values`` row (an ``int`` scheme timed on the flattened
values of list columns). Re-run the script when a
codec's speed changes, and commit what it writes.
"""

#: kind -> description -> (write s/MB, read s/MB)
SCHEME_COSTS = {{
'''


def render(table: dict, repeats: int) -> str:
    lines = [HEADER.format(repeats=repeats)]
    for kind, rows in table.items():
        lines.append(f"    {kind!r}: {{\n")
        for description, (write, read) in sorted(rows.items()):
            lines.append(f"        {description!r}: ({write!r}, {read!r}),\n")
        lines.append("    },\n")
    lines.append("}\n")
    return "".join(lines)


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--repeats", type=int, default=7,
                   help="timings per (scheme, column); the best is kept")
    p.add_argument("--write", action="store_true",
                   help=f"rewrite {os.path.relpath(COSTS_PATH, REPO_ROOT)}")
    args = p.parse_args(argv)
    text = render(calibrate(args.repeats), args.repeats)
    if args.write:
        with open(COSTS_PATH, "w") as f:
            f.write(text)
        print(f"wrote {COSTS_PATH}", file=sys.stderr)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
