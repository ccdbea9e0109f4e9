"""Seeded, vectorized generators for the benchmark's table shapes.

Every generator takes a ``numpy.random.Generator`` and returns plain
numpy columns (``list[np.ndarray]`` of views for ``list<int64>``), so
the program under test only ever sees generated inputs. There are no
per-value Python loops: sliding-window list columns are views into one
id stream at cumulative offsets, which is also what makes consecutive
rows overlap the way §2.2's ``SparseListDelta`` expects.

``repro.workloads.generate_ads_table`` is not used: it took 245 s and
7 GB for 900 columns x 16k rows when the issue was sized.
"""

from __future__ import annotations

import numpy as np

#: distinct users in the narrow tables; a ``user == u`` delete touches
#: about rows/N_USERS rows of every file
N_USERS = 5000

#: window length of the sliding-window ``list<int64>`` columns
WINDOW = 32


def narrow_batch(rng: np.random.Generator, rows: int, ts0: int) -> dict:
    """One batch of the six-column event table.

    ``ts`` is the global row number (sorted, unique, so it doubles as
    the upsert key and makes manifest ranges prune whole files).
    """
    return {
        "ts": np.arange(ts0, ts0 + rows, dtype=np.int64),
        "user": rng.integers(0, N_USERS, rows, dtype=np.int64),
        "v": rng.standard_normal(rows),
        "score": rng.random(rows, dtype=np.float32),
        "region": rng.integers(0, 8, rows).astype(np.int32),
        "clicks": rng.integers(0, 100, rows, dtype=np.int64),
    }


def sliding_windows(
    rng: np.random.Generator, rows: int, window: int = WINDOW
) -> list[np.ndarray]:
    """``rows`` windows over one id stream, each advanced 0-2 ids.

    Row ``i`` is ``stream[off_i : off_i + window]`` with
    ``off = cumsum(step)``: a few old ids fall off the head and as many
    new ones enter at the tail, the paper's Fig 4 pattern.
    """
    offsets = np.cumsum(rng.integers(0, 3, rows))
    stream = rng.integers(
        0, 1 << 40, int(offsets[-1]) + window, dtype=np.int64
    )
    return [stream[o : o + window] for o in offsets.tolist()]


def wide_column_names(n_features: int, n_seq: int) -> dict:
    """Names of the wide table's columns, by role."""
    n_float = n_features // 3
    return {
        "float": [f"f{i:04d}" for i in range(n_float)],
        "int": [f"i{i:04d}" for i in range(n_features - n_float)],
        "seq": [f"seq{i}" for i in range(n_seq)],
    }


def wide_int_widths(n_int: int) -> np.ndarray:
    """Bit width of each int feature: fixed per column position, so
    every file of one table packs a column at the same width."""
    return 1 + (np.arange(n_int) * 7) % 40


def wide_batch(
    rng: np.random.Generator,
    rows: int,
    ts0: int,
    n_features: int,
    n_seq: int,
) -> dict:
    """One batch of the wide sparse-feature training table.

    A third of the scalar features are ``float32`` (stored quantized by
    the writer's policy), two thirds ``int64`` of mixed bit width, plus
    ``n_seq`` sliding-window ``list<int64>`` columns, ``ts`` and
    ``label``.
    """
    names = wide_column_names(n_features, n_seq)
    cols: dict = {
        "ts": np.arange(ts0, ts0 + rows, dtype=np.int64),
        "label": rng.integers(0, 2, rows, dtype=np.int64),
    }
    floats = rng.standard_normal((len(names["float"]), rows), dtype=np.float32)
    for name, values in zip(names["float"], floats):
        cols[name] = values
    widths = wide_int_widths(len(names["int"]))
    for name, width in zip(names["int"], widths.tolist()):
        cols[name] = rng.integers(0, 1 << width, rows, dtype=np.int64)
    for name in names["seq"]:
        cols[name] = sliding_windows(rng, rows)
    return cols


def raw_nbytes(columns: dict) -> int:
    """Bytes of user data in a batch: numpy ``nbytes``, list columns
    summed over their rows."""
    total = 0
    for values in columns.values():
        if isinstance(values, np.ndarray):
            total += values.nbytes
        else:
            total += sum(v.nbytes for v in values)
    return total
