"""``RaggedColumn`` against the ``list`` of row arrays it stands for.

Every operation the codecs, ``Table`` and the wire use is run on random
columns — empty rows, zero rows, rows that overlap and rows out of
buffer order, ``int64`` and ``float32`` — and compared with the same
operation on the plain ``list[np.ndarray]`` oracle.
"""

import json

import numpy as np
import pytest

from repro.core import Table
from repro.core.table import concat_tables, rebatch
from repro.encodings import EncodingError, RaggedColumn
from repro.encodings.base import join_values
from repro.server.protocol import ProtocolError, decode_table, encode_table

DTYPES = [np.int64, np.float32]


def _random(rng, n_rows, dtype, n_values=40):
    """A column whose rows overlap and jump around the buffer, and the
    oracle built row by row from the same three arrays."""
    values = (rng.normal(size=n_values) * 1000).astype(dtype)
    lens = rng.integers(0, 7, n_rows)
    lens[rng.random(n_rows) < 0.2] = 0
    starts = rng.integers(0, n_values - 6, n_rows)
    col = RaggedColumn(values, starts, lens)
    rows = [values[s : s + k].copy() for s, k in zip(starts, lens)]
    return col, rows


def _same(col, rows):
    assert isinstance(col, RaggedColumn) and len(col) == len(rows)
    got = list(col)
    for g, w in zip(got, rows):
        assert type(g) is np.ndarray and g.dtype == w.dtype
        assert g.tobytes() == np.asarray(w).tobytes()


CASES = [(seed, n, dt) for seed in range(6) for n in (0, 1, 33) for dt in DTYPES]


@pytest.mark.parametrize("seed,n,dtype", CASES)
def test_sequence_behaviour(seed, n, dtype):
    rng = np.random.default_rng([seed, n])
    col, rows = _random(rng, n, dtype)
    _same(col, rows)
    assert bool(col) == bool(rows)
    for i in list(range(n)) + [-k for k in range(1, n + 1)]:
        assert np.array_equal(col[i], rows[i])
        assert not col[i].flags.writeable
        assert np.array_equal(col[np.int64(i)], rows[i])
    with pytest.raises(IndexError):
        col[n]
    for a, b in [(0, n), (1, n - 1), (n // 2, n), (0, 0), (-3, None), (None, -1)]:
        _same(col[a:b], rows[a:b])
        assert col[a:b].values is col.values  # zero-copy
    _same(col[::2], rows[::2])
    if rows:
        assert np.array_equal(np.concatenate(col), np.concatenate(rows))
    assert sum(len(r) for r in col) == sum(len(r) for r in rows)


@pytest.mark.parametrize("seed,n,dtype", CASES)
def test_mask_compact_equals(seed, n, dtype):
    rng = np.random.default_rng([seed, n, 1])
    col, rows = _random(rng, n, dtype)
    mask = rng.random(n) < 0.5
    _same(col[mask], [r for r, k in zip(rows, mask) if k])
    assert col[mask].values is col.values  # a gather of starts and lens only
    order = rng.permutation(n)
    _same(col[order], [rows[i] for i in order])
    packed = col.compact()
    _same(packed, rows)
    assert len(packed.values) == sum(len(r) for r in rows)
    assert np.array_equal(packed.starts, packed.offsets()[:-1])
    assert packed.compact() is packed
    assert not packed.values.flags.writeable
    assert col.equals(rows) and col.equals(packed) and packed.equals(col)
    assert col.equals([r.tolist() for r in rows])
    if n:
        assert not col.equals(rows[:-1])
        bumped = [r.copy() for r in rows]
        bumped[0] = np.append(bumped[0], dtype(1))
        assert not col.equals(bumped)
    assert not col.equals([b"x"] * n) or n == 0
    cast = col.astype(np.float64)
    _same(cast, [r.astype(np.float64) for r in rows])
    assert col.astype(dtype) is col


@pytest.mark.parametrize("seed,n,dtype", CASES)
def test_concat_same_and_different_buffers(seed, n, dtype):
    rng = np.random.default_rng([seed, n, 2])
    col, rows = _random(rng, n, dtype)
    other, other_rows = _random(rng, 9, dtype)
    empty = RaggedColumn(np.zeros(0, np.int64), [], [])
    # slices of one buffer, in and out of order
    half = n // 2
    _same(RaggedColumn.concat([col[:half], col[half:]]), rows)
    _same(RaggedColumn.concat([col[half:], col[:half]]), rows[half:] + rows[:half])
    # different buffers, an empty part of another dtype among them
    joined = join_values([col, empty, other, col])
    _same(joined, rows + other_rows + rows)
    assert not joined.values.flags.writeable
    assert join_values([col]) is col
    # a plain list among the parts: the caller's container wins
    mixed = join_values([col, other_rows])
    assert isinstance(mixed, list) and len(mixed) == n + 9


def test_concat_of_a_short_slice_leaves_the_long_buffer_behind():
    values = np.arange(100_000, dtype=np.int64)
    col = RaggedColumn.from_offsets(values, np.arange(0, 100_001, 10))
    tail = col[-3:]
    joined = RaggedColumn.concat([tail, tail])
    assert len(joined.values) == 60
    # the re-batcher's carry therefore stays small however long the stream
    chunks = (Table({"l": col}) for _ in range(4))
    sizes = [len(b.column("l").values) for b in rebatch(chunks, 7_000)]
    assert max(sizes) <= 2 * len(values)


@pytest.mark.parametrize("seed,n,dtype", CASES)
def test_table_ops_and_wire_round_trip(seed, n, dtype):
    rng = np.random.default_rng([seed, n, 3])
    col, rows = _random(rng, n, dtype)
    table = Table({"x": np.arange(n), "l": col})
    assert table.equals(Table({"x": np.arange(n), "l": rows}))
    assert Table({"x": np.arange(n), "l": rows}).equals(table)
    mask = rng.random(n) < 0.5
    _same(table.take_mask(mask).column("l"), [r for r, k in zip(rows, mask) if k])
    _same(table.slice(1, n).column("l"), rows[1:n])
    _same(concat_tables([table, table]).column("l"), rows + rows)
    batches = list(rebatch(iter([table, table, table]), 5))
    assert all(isinstance(b.column("l"), RaggedColumn) for b in batches)
    if n:
        _same(join_values([b.column("l") for b in batches]), rows * 3)
    # wire: bit-exact, two base64 fields, whatever the row layout was
    doc = json.loads(json.dumps(encode_table(table)))
    (_x, _xdoc), (_l, ldoc) = doc["cols"]
    assert sorted(ldoc) == ["b", "dt", "k", "o"] and ldoc["k"] == "rag"
    back = decode_table(doc)
    _same(back.column("l"), rows)
    assert back.column("l").values.dtype == np.dtype(dtype)
    # a plain list of row arrays is normalised on the way out
    plain = json.loads(json.dumps(encode_table(Table({"l": rows}))))
    if n:
        assert plain["cols"][0][1]["k"] == "rag"
        _same(decode_table(plain).column("l"), rows)


@pytest.mark.parametrize(
    "starts,lens",
    [
        ([-1], [1]),
        ([0], [-1]),
        ([8], [3]),
        ([11], [0]),
        ([0, 1], [1]),
        ([1 << 62], [1 << 62]),
        ([[0]], [[1]]),
    ],
    ids=["negative-start", "negative-len", "overrun", "start-past-end",
         "unequal", "wraps-int64", "two-d"],
)
def test_bad_rows_raise(starts, lens):
    with pytest.raises(EncodingError):
        RaggedColumn(np.arange(10), starts, lens)


def test_bad_offsets_rows_and_wire_raise():
    for offsets in ([], [0, 5, 3, 8], [0, 9], [-1, 2]):
        with pytest.raises(EncodingError):
            RaggedColumn.from_offsets(np.arange(8), offsets)
    with pytest.raises(EncodingError):
        RaggedColumn(np.zeros((2, 2)), [0], [1])
    with pytest.raises(EncodingError):
        RaggedColumn.from_rows([np.zeros((2, 2))])
    # ids stay ids next to Python's float64 ``[]``
    col = RaggedColumn.from_rows([[], np.array([1 << 60]), []])
    assert col.values.dtype == np.int64 and col[1][0] == 1 << 60
    good = encode_table(Table({"l": RaggedColumn.from_offsets(np.arange(8), [0, 3, 8])}))
    bad = json.loads(json.dumps(good))
    bad["cols"][0][1]["o"] = encode_table(
        Table({"o": np.array([0, 5, 3, 12], dtype="<i8")})
    )["cols"][0][1]["b"]
    with pytest.raises(ProtocolError, match="bad list column"):
        decode_table(bad)
