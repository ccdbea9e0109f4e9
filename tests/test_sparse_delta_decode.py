"""Flat-buffer decode of the Fig-4 sparse-list codec.

``SparseListDelta.decode`` has three assembly paths, picked per
base-to-base segment from the size columns: append runs (zero-copy
windows over the bulk stream), prepend runs (windows over the bulk
laid out back to front) and the generic flat buffer. The per-row
decoder they replaced is kept here as the reference oracle: every
shape the encoder emits, and random valid payloads it never would,
must decode to the same rows.
"""

import numpy as np
import pytest

from repro.catalog import CatalogTable, MemoryCatalogStore
from repro.core import LoaderOptions, Table, WriterOptions
from repro.encodings import (
    EncodingError,
    RaggedColumn,
    SparseListDelta,
    Trivial,
    Varint,
    decode_blob,
    encode_blob,
)
from repro.encodings.base import decode_child, encode_child
from repro.util.bitio import ByteReader, ByteWriter


# -- reference oracle: the per-row decoder this PR replaced -----------------

def _reference_decode(payload: bytes) -> list[np.ndarray]:
    reader = ByteReader(payload)
    n = reader.read_u64()
    flags = np.unpackbits(
        np.frombuffer(reader.read_blob(), dtype=np.uint8), bitorder="little"
    )[:n].astype(bool)
    starts = decode_child(reader)
    ends = decode_child(reader)
    heads = decode_child(reader)
    tails = decode_child(reader)
    bulk = np.asarray(decode_child(reader), dtype=np.int64)
    rows: list[np.ndarray] = []
    pos = 0
    prev = None
    for i in range(n):
        head_len = int(heads[i])
        if not flags[i]:
            cur = bulk[pos : pos + head_len]
            pos += head_len
        else:
            tail_len = int(tails[i])
            head = bulk[pos : pos + head_len]
            pos += head_len
            tail = bulk[pos : pos + tail_len]
            pos += tail_len
            cur = np.concatenate(
                (head, prev[int(starts[i]) : int(ends[i])], tail)
            )
        rows.append(cur)
        prev = cur
    return rows


def _payload(flags, starts, ends, heads, tails, bulk, size_child=Varint):
    """Serialise hand-picked Fig-4 columns the way ``encode`` does.

    ``size_child=Trivial`` stores the size columns as raw int64, the
    only way to smuggle a negative size past the varint encoder.
    """
    writer = ByteWriter()
    writer.write_u64(len(flags))
    writer.write_blob(
        np.packbits(np.asarray(flags, dtype=bool), bitorder="little").tobytes()
    )
    for column in (starts, ends, heads, tails):
        encode_child(writer, np.asarray(column, dtype=np.int64), size_child())
    encode_child(writer, np.asarray(bulk, dtype=np.int64), Trivial())
    return writer.getvalue()


def _decode(payload: bytes) -> list[np.ndarray]:
    # the classmethod, not decode_blob: decode_blob would turn a stray
    # IndexError into EncodingError and hide a missing check
    return SparseListDelta.decode(ByteReader(payload))


def _assert_same(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert isinstance(g, np.ndarray) and g.dtype == np.int64
        assert g.ndim == 1
        assert not g.flags.writeable
        assert np.array_equal(g, w)


# -- shapes the encoder emits ------------------------------------------------

def _fresh(rng, n, width):
    return [rng.integers(0, 1 << 40, width, dtype=np.int64) for _ in range(n)]


def _tail_append(rng, n, width):
    """Ids fall off the front, new ones append (Fig 4 row 4)."""
    offsets = np.cumsum(rng.integers(0, 3, n))
    stream = rng.integers(0, 1 << 40, int(offsets[-1]) + width, dtype=np.int64)
    return [stream[o : o + width] for o in offsets.tolist()]


def _head_insert(rng, n, width):
    """New ids enter at the head, the oldest drop (Fig 4 row 2)."""
    return [row[::-1].copy() for row in _tail_append(rng, n, width)]


def _identical(rng, n, width):
    return [rng.integers(0, 1 << 40, width, dtype=np.int64)] * n


def _ragged(rng, n, width):
    """A window that grows and shrinks at both ends."""
    stream = rng.integers(0, 1 << 40, 4 * n + 4 * width, dtype=np.int64)
    lo, hi = 2 * n, 2 * n + width
    rows = []
    for _ in range(n):
        lo += int(rng.integers(-2, 3))
        hi = max(lo, hi + int(rng.integers(-2, 3)))
        rows.append(stream[lo:hi])
    return rows


def _mixed(rng, n, width):
    """Every pattern in one page, re-anchoring between them, with
    empty rows in the seams."""
    rows: list[np.ndarray] = []
    makers = (_tail_append, _head_insert, _fresh, _ragged, _identical)
    while len(rows) < n:
        maker = makers[int(rng.integers(len(makers)))]
        rows.extend(maker(rng, int(rng.integers(1, 12)), width))
        if rng.random() < 0.3:
            rows.append(np.zeros(0, dtype=np.int64))
    return rows[:n]


def _with_empty_rows(rng, n, width):
    rows = _tail_append(rng, n, width)
    for i in rng.integers(0, n, max(1, n // 5)).tolist():
        rows[i] = np.zeros(0, dtype=np.int64)
    return rows


SHAPES = {
    "fresh": _fresh,
    "identical": _identical,
    "head_insert": _head_insert,
    "tail_append": _tail_append,
    "mixed": _mixed,
    "empty_rows": _with_empty_rows,
    "ragged": _ragged,
}


@pytest.mark.parametrize("width", [1, 32, 256])
@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("n", [1, 2, 97])
def test_decode_matches_reference(shape, width, n):
    rng = np.random.default_rng([n, width, sorted(SHAPES).index(shape)])
    rows = SHAPES[shape](rng, n, width)
    payload = SparseListDelta().encode(rows)
    got = _decode(payload)
    _assert_same(got, _reference_decode(payload))
    _assert_same(got, rows)


def test_zero_rows():
    decoded = _decode(SparseListDelta().encode([]))
    assert isinstance(decoded, RaggedColumn) and len(decoded) == 0


def test_single_row_is_read_only():
    (row,) = decode_blob(encode_blob([np.arange(5)], SparseListDelta()))
    assert row.dtype == np.int64 and not row.flags.writeable
    with pytest.raises(ValueError):
        row[0] = 7


# -- valid payloads the encoder never emits ----------------------------------

def _random_payload(rng, n, max_len):
    """Random well-formed Fig-4 columns: any range of the previous row,
    any head and tail, bases anywhere, biased towards the run shapes so
    all three assembly paths and their seams are hit."""
    flags = rng.random(n) < 0.85
    flags[0] = False
    starts = np.zeros(n, dtype=np.int64)
    ends = np.zeros(n, dtype=np.int64)
    heads = np.zeros(n, dtype=np.int64)
    tails = np.zeros(n, dtype=np.int64)
    prev_len = 0
    mode = 0
    for i in range(n):
        if not flags[i]:
            heads[i] = rng.integers(0, max_len + 1)
            prev_len = int(heads[i])
            mode = int(rng.integers(3))  # the segment's flavour
            continue
        a, b = sorted(rng.integers(0, prev_len + 1, 2).tolist())
        h, t = rng.integers(0, 4, 2).tolist()
        if mode == 0:  # append run
            b, h = prev_len, 0
        elif mode == 1:  # prepend run
            a, t = 0, 0
        if rng.random() < 0.05:  # break the run mid-segment
            mode = 2
        starts[i], ends[i], heads[i], tails[i] = a, b, h, t
        prev_len = h + (b - a) + t
    bulk = rng.integers(-(1 << 62), 1 << 62, int((heads + tails).sum()))
    return _payload(flags, starts, ends, heads, tails, bulk)


@pytest.mark.parametrize("seed", range(40))
def test_random_valid_payloads_match_reference(seed):
    rng = np.random.default_rng(seed)
    payload = _random_payload(
        rng, int(rng.integers(1, 80)), int(rng.integers(0, 40))
    )
    _assert_same(_decode(payload), _reference_decode(payload))


def test_surplus_bulk_is_ignored():
    payload = _payload([0, 1], [0, 1], [0, 2], [2, 0], [0, 1], [5, 6, 7, 99])
    _assert_same(_decode(payload), [np.array([5, 6]), np.array([6, 7])])


# -- the five corruption checks, on every assembly path ----------------------

# base [1 2 3] then two delta rows, as (flags, starts, ends, heads, tails, bulk)
TEMPLATES = {
    # [2 3 4], [3 4 5]
    "append_run": (
        [0, 1, 1], [0, 1, 1], [0, 3, 3], [3, 0, 0], [0, 1, 1], [1, 2, 3, 4, 5],
    ),
    # [9 1 2], [8 9 1]
    "prepend_run": (
        [0, 1, 1], [0, 0, 0], [0, 2, 2], [3, 1, 1], [0, 0, 0], [1, 2, 3, 9, 8],
    ),
    # [9 2 4], [8 2 5]
    "generic": (
        [0, 1, 1], [0, 1, 1], [0, 2, 2], [3, 1, 1], [0, 1, 1],
        [1, 2, 3, 9, 4, 8, 5],
    ),
}
FLAGS, STARTS, ENDS, HEADS, TAILS, BULK = range(6)


def _corrupt(template, column, row, value):
    columns = [list(c) for c in TEMPLATES[template]]
    columns[column][row] = value
    return columns


@pytest.mark.parametrize("template", sorted(TEMPLATES))
class TestCorruptionChecks:
    def test_template_is_valid(self, template):
        payload = _payload(*TEMPLATES[template])
        _assert_same(_decode(payload), _reference_decode(payload))

    def test_delta_row_without_base(self, template):
        columns = _corrupt(template, FLAGS, 0, 1)
        with pytest.raises(EncodingError, match="without a base"):
            _decode(_payload(*columns))

    @pytest.mark.parametrize("column", [HEADS, TAILS])
    def test_negative_size(self, template, column):
        columns = _corrupt(template, column, 2, -1)
        with pytest.raises(EncodingError, match="negative segment size"):
            _decode(_payload(*columns, size_child=Trivial))

    @pytest.mark.parametrize(
        "column,value",
        [(ENDS, 4), (ENDS, 1 << 40), (STARTS, None), (STARTS, -1)],
        ids=["end-past-prev", "end-huge", "start-past-end", "start-negative"],
    )
    def test_range_outside_previous_row(self, template, column, value):
        if value is None:
            value = TEMPLATES[template][ENDS][2] + 1
        columns = _corrupt(template, column, 2, value)
        with pytest.raises(EncodingError, match="corrupt overlap range"):
            _decode(_payload(*columns, size_child=Trivial))

    def test_range_outside_an_empty_previous_row(self, template):
        columns = _corrupt(template, HEADS, 0, 0)
        with pytest.raises(EncodingError, match="corrupt overlap range"):
            _decode(_payload(*columns))

    def test_truncated_bulk(self, template):
        columns = [list(c) for c in TEMPLATES[template]]
        columns[BULK] = columns[BULK][:-1]
        with pytest.raises(EncodingError, match="truncated bulk"):
            _decode(_payload(*columns))

    @pytest.mark.parametrize("column", [HEADS, TAILS])
    def test_size_column_length_mismatch(self, template, column):
        columns = [list(c) for c in TEMPLATES[template]]
        columns[column] = columns[column][:-1]
        with pytest.raises(EncodingError, match="corrupt size columns"):
            _decode(_payload(*columns))


def test_sizes_that_wrap_the_bulk_total():
    # four base rows of 2**62 ids each: the int64 total wraps to zero
    payload = _payload([0] * 4, [0] * 4, [0] * 4, [1 << 62] * 4, [0] * 4, [])
    with pytest.raises(EncodingError, match="truncated bulk"):
        _decode(payload)


# -- through the loader -------------------------------------------------------

def _u64_sum(values) -> int:
    return int(np.add.reduce(np.asarray(values).astype(np.uint64)))


def test_loader_shuffled_epoch_matches_generator_checksum():
    rng = np.random.default_rng(15)
    table = CatalogTable.create(MemoryCatalogStore())
    options = WriterOptions(
        rows_per_page=64,
        rows_per_group=256,
        encodings={"seq": SparseListDelta()},
    )
    want_rows, want_sum, want_ts = 0, 0, 0
    for k in range(2):
        seq = _tail_append(rng, 700, 32)
        ts = np.arange(k * 700, (k + 1) * 700, dtype=np.int64)
        table.append(Table({"ts": ts, "seq": seq}), options=options)
        want_rows += len(seq)
        want_ts += int(ts.sum())
        want_sum = (want_sum + _u64_sum(np.concatenate(seq))) % (1 << 64)
    with table.pin() as snap:
        loader = snap.loader(
            ["ts", "seq"],
            LoaderOptions(batch_size=100, shuffle_row_groups=True, seed=4),
        )
        orders = []
        for _epoch in range(2):
            rows, got_sum, order = 0, 0, []
            for batch in loader:
                seq = batch.column("seq")
                assert len(seq) == batch.num_rows
                assert all(r.dtype == np.int64 and len(r) == 32 for r in seq)
                rows += batch.num_rows
                order.extend(batch.column("ts").tolist())
                got_sum = (got_sum + _u64_sum(np.concatenate(seq))) % (1 << 64)
            assert (rows, got_sum, sum(order)) == (want_rows, want_sum, want_ts)
            orders.append(order)
        assert orders[0] != sorted(orders[0])  # the groups really moved
