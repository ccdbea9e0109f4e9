"""The cascade objective reads a committed cost table, not a clock.

A selection is a pure function of the values: a cascade file written
twice — in this process or another — is the same bytes. Skipping the
candidates whose time terms alone reach the best objective so far
picks exactly what scoring every candidate picks, and every scheme
description a candidate heuristic can emit has a row to be priced by.
"""

import hashlib
import itertools
import os
import re
import subprocess
import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.cascading
from repro.cascading import (
    BALANCED,
    COLD_STORAGE,
    TRAINING_READS,
    CostWeights,
    candidate_encodings,
    candidate_fingerprint,
    collect_stats,
    score_candidate,
    select_encoding,
    take_sample,
)
from repro.cascading.objective import scheme_cost
from repro.cascading.stats import SAMPLE_SIZE, ColumnStats
from repro.core import BullionWriter, Table, WriterOptions
from repro.encodings import Kind
from repro.iosim import SimulatedStorage

HERE = os.path.dirname(os.path.abspath(__file__))


def _table() -> Table:
    rng = np.random.default_rng(44)
    n = 6000
    return Table({
        "ts": np.arange(n, dtype=np.int64) + 10**12,
        "user": rng.integers(0, 300, n).astype(np.int64),
        "v": rng.standard_normal(n),
        "price": np.round(rng.uniform(0, 500, n), 2),
        "tag": [b"tag-%d" % (i % 37) for i in range(n)],
        "flag": rng.random(n) < 0.02,
        "ids": [
            np.arange(i, i + 16, dtype=np.int64) * 7 for i in range(n)
        ],
    })


def _cascade_file_digest() -> str:
    dev = SimulatedStorage()
    BullionWriter(
        dev, options=WriterOptions(encoding_policy="cascade")
    ).write(_table())
    return hashlib.sha256(dev.pread(0, dev.size)).hexdigest()


def test_a_cascade_file_written_twice_is_the_same_bytes():
    first = _cascade_file_digest()
    assert _cascade_file_digest() == first
    src = os.path.join(os.path.dirname(HERE), "src")
    fresh = subprocess.run(
        [sys.executable, "-c",
         "from test_cascade_costs import _cascade_file_digest as d; "
         "print(d())"],
        env={**os.environ, "PYTHONPATH": os.pathsep.join([HERE, src])},
        capture_output=True, text=True, check=True,
    )
    assert fresh.stdout.strip() == first


def test_no_clock_is_read_in_the_package():
    package = os.path.dirname(repro.cascading.__file__)
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as f:
                text = f.read()
            assert not re.search(
                r"^\s*(import time|from time )|perf_counter|monotonic",
                text, re.M,
            ), name


# -- pruned selection == exhaustive selection under the table ------------

def _column(kind: str, seed: int, n: int, domain: int, runs: int):
    rng = np.random.default_rng(seed)
    if kind == "int":
        base = rng.integers(-domain, domain, n)
        return np.repeat(base, runs)[:n].astype(np.int64)
    if kind == "sorted":
        return np.sort(rng.integers(0, domain, n)).astype(np.int64)
    if kind == "float":
        return np.repeat(np.round(rng.normal(size=n), domain % 4), runs)[:n]
    if kind == "bytes":
        return [b"v%d" % v for v in rng.integers(0, domain, n)]
    if kind == "bool":
        return np.repeat(rng.random(n) < 1 / (1 + domain % 50), runs)[:n]
    stream = rng.integers(0, domain, n + 64)  # list<int64> windows
    steps = np.cumsum(rng.integers(0, runs + 1, n // 8))
    return [stream[o : o + 32] for o in steps.tolist() if o + 32 <= len(stream)]


def _exhaustive(values, weights, depth):
    """Score every candidate, cheapest time terms first (the order the
    pruned loop walks), and keep the first with the least objective."""
    stats = collect_stats(values)
    sample = take_sample(values)

    def time_terms(candidate):
        write, read = scheme_cost(stats.kind, candidate[1])
        return weights.combine(0.0, read, write)

    scored = [
        score_candidate(sample, encoding, weights, description)
        for encoding, description in sorted(
            candidate_encodings(values, stats, depth, weights), key=time_terms
        )
    ]
    return min((s for s in scored if s is not None), key=lambda s: s.objective)


@given(
    kind=st.sampled_from(["int", "sorted", "float", "bytes", "bool", "list"]),
    seed=st.integers(0, 2**16),
    n=st.integers(1, 5000),
    domain=st.sampled_from([1, 2, 7, 200, 5000, 10**9]),
    runs=st.sampled_from([1, 2, 9]),
    weights=st.sampled_from([
        TRAINING_READS, BALANCED, COLD_STORAGE,
        CostWeights(size=0.0, read=1.0, write=1.0),
        CostWeights(size=1.0, read=0.0, write=0.0),
    ]),
    depth=st.integers(0, 2),
)
@settings(max_examples=120, deadline=None)
def test_pruned_selection_is_exhaustive_selection(
    kind, seed, n, domain, runs, weights, depth
):
    values = _column(kind, seed, n, domain, runs)
    if len(values) == 0:
        return
    pruned = select_encoding(values, weights=weights, max_depth=depth)
    best = _exhaustive(values, weights, depth)
    assert pruned.description == best.description
    assert pruned.best.objective == best.objective
    assert pruned.best.encoded_bytes == best.encoded_bytes


# -- every description the heuristics emit is priced ---------------------

def _descriptions(kind: Kind, depths=range(3)) -> set:
    """Every description the ``_*_candidates`` heuristics emit for
    ``kind``: each threshold they test, taken on both sides, at every
    depth. The fingerprint keeps the list branch's inner selection from
    running; its ``list(<inner>)`` is checked apart."""
    out = set()
    for (n_unique, n_sampled, non_negative, sorted_fraction, run, mode,
         decimal, overlap, depth) in itertools.product(
            (1, 100, 300, 100_000), (800, SAMPLE_SIZE), (True, False),
            (0.0, 1.0), (1.0, 2.0, 5.0), (0.0, 0.9), (0.0, 1.0),
            (0.0, 0.5), depths):
        stats = ColumnStats(
            kind=kind, n=n_sampled, n_sampled=n_sampled, n_unique=n_unique,
            non_negative=non_negative, sorted_fraction=sorted_fraction,
            avg_run_length=run, mode_fraction=mode,
            decimal_fraction=decimal, window_overlap=overlap,
        )
        out.update(candidate_fingerprint(stats, depth))
    return out


def test_every_candidate_description_has_a_cost_row():
    emitted = {kind: _descriptions(kind) for kind in Kind}
    # the grid reaches the branches it is meant to
    assert {"constant", "zigzag(varint)", "varint", "huffman",
            "rle(dictionary, varint)", "rle(zigzag, varint)",
            "dictionary(rle)", "mainly_constant",
            "chunked(fastbp128)"} <= emitted[Kind.INT]
    assert {"pseudodecimal", "gorilla", "chimp",
            "chunked(bitshuffle)"} <= emitted[Kind.FLOAT]
    assert "sparse_list_delta(chunked)" in emitted[Kind.LIST_INT]
    for kind, descriptions in emitted.items():
        for description in descriptions:
            write, read = scheme_cost(kind, description)
            assert write > 0 and read > 0, (kind, description)
    # a list<int64> column's inner selection may pick any int scheme
    for inner in emitted[Kind.INT]:
        write, read = scheme_cost(Kind.LIST_INT, f"list({inner})")
        assert write > 0 and read > 0, inner
