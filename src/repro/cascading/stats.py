"""Sampling-based column statistics for encoding selection.

§2.6: "the search space for optimal encoding combinations grows
significantly as the catalog expands, requiring systems like Procella
and BtrBlocks to employ sampling-based distribution analysis and
heuristic approaches for encoding selection."

``take_sample`` is the one sampler: at most ``SAMPLE_SIZE`` values as
``SAMPLE_RUNS`` contiguous runs spread evenly from the first row to the
last (BtrBlocks' shape). Runs keep what the heuristics key on —
sortedness, run length, the overlap of consecutive list rows — which a
strided sample destroys, while spreading them lets a column that
changes half way through show it. ``collect_stats`` turns a sample into
the signals the selector's heuristics branch on; it encodes nothing, so
the writer also uses it alone, once per row group, to ask whether a
decision made earlier in the file still stands.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.encodings.base import Kind, infer_kind, join_values

SAMPLE_SIZE = 4096
SAMPLE_RUNS = 8


@dataclass
class ColumnStats:
    """Distribution fingerprint of a (sampled) column."""

    kind: Kind
    n: int
    n_sampled: int
    n_unique: int = 0
    min_value: float = 0.0
    max_value: float = 0.0
    non_negative: bool = True
    avg_run_length: float = 1.0
    sorted_fraction: float = 0.0  # fraction of non-decreasing steps
    mode_fraction: float = 0.0  # share of the most frequent value
    decimal_fraction: float = 0.0  # floats that are short decimals
    avg_byte_length: float = 0.0  # BYTES only
    true_fraction: float = 0.0  # BOOL only
    avg_list_length: float = 0.0  # LIST_* only
    window_overlap: float = 0.0  # LIST_INT: consecutive-row overlap


def take_sample(values, limit: int = SAMPLE_SIZE):
    """At most ``limit`` values: contiguous runs, first row to last.

    A column that fits is returned whole. Otherwise the runs are equal,
    disjoint and in row order; the first starts at row 0 and the last
    ends at the last row.
    """
    n = len(values)
    if n <= limit:
        return values
    run = max(1, limit // SAMPLE_RUNS)
    n_runs = min(SAMPLE_RUNS, limit)
    parts = [
        values[start : start + run]
        for start in (
            (n - run) * i // max(1, n_runs - 1) for i in range(n_runs)
        )
    ]
    return join_values(parts)


def collect_stats(values) -> ColumnStats:
    kind = infer_kind(values)
    n = len(values)
    sample = take_sample(values)
    stats = ColumnStats(kind=kind, n=n, n_sampled=len(sample))
    if len(sample) == 0:
        return stats
    if kind == Kind.INT:
        arr = np.asarray(sample, dtype=np.int64)
        _numeric_stats(stats, arr)
    elif kind == Kind.FLOAT:
        arr = np.asarray(sample, dtype=np.float64)
        _numeric_stats(stats, arr)
        finite = arr[np.isfinite(arr)]
        if len(finite):
            rounded = np.round(finite, 6)
            stats.decimal_fraction = float(
                (rounded == finite).mean()
            )
    elif kind == Kind.BOOL:
        arr = np.asarray(sample)
        stats.true_fraction = float(arr.mean())
        stats.n_unique = int(len(np.unique(arr)))
        runs = 1 + int(np.count_nonzero(arr[1:] != arr[:-1]))
        stats.avg_run_length = len(arr) / runs
    elif kind == Kind.BYTES:
        lengths = [len(b) for b in sample if b is not None]
        stats.avg_byte_length = float(np.mean(lengths)) if lengths else 0.0
        stats.n_unique = len(set(sample))
        counts: dict = {}
        for item in sample:
            counts[item] = counts.get(item, 0) + 1
        stats.mode_fraction = max(counts.values()) / len(sample)
    elif kind in (Kind.LIST_INT, Kind.LIST_FLOAT):
        lengths = [len(row) for row in sample]
        stats.avg_list_length = float(np.mean(lengths)) if lengths else 0.0
        if kind == Kind.LIST_INT:
            stats.window_overlap = _window_overlap(sample)
    return stats


def _numeric_stats(stats: ColumnStats, arr: np.ndarray) -> None:
    finite = arr[np.isfinite(arr)] if arr.dtype.kind == "f" else arr
    if len(finite) == 0:
        return
    stats.min_value = float(finite.min())
    stats.max_value = float(finite.max())
    stats.non_negative = stats.min_value >= 0
    uniq, counts = np.unique(finite, return_counts=True)
    stats.n_unique = int(len(uniq))
    stats.mode_fraction = float(counts.max() / len(finite))
    if len(arr) > 1:
        diffs = np.diff(arr)
        stats.sorted_fraction = float((diffs >= 0).mean())
        runs = 1 + int(np.count_nonzero(arr[1:] != arr[:-1]))
        stats.avg_run_length = len(arr) / runs


def _window_overlap(rows, probe: int = 32) -> float:
    """Mean Jaccard-ish overlap of consecutive list rows (Fig 3 signal)."""
    overlaps = []
    prev = None
    for row in rows[:probe]:
        cur = np.asarray(row)
        if prev is not None and len(prev) and len(cur):
            inter = len(np.intersect1d(prev, cur))
            overlaps.append(inter / max(len(prev), len(cur)))
        prev = cur
    return float(np.mean(overlaps)) if overlaps else 0.0
