"""The batched list decode: same values as before, same errors.

``SparseListDelta.decode_pages`` hands the size sub-columns of a chunk
to ``Varint.decode_pages`` in one call, and list columns come back as
one ``RaggedColumn``. Three contracts:

* decoded values (and, after a scrub, file bytes) are sha-identical to
  what the per-page, per-row decoder produced at the commit before the
  container existed — the digests below were computed there;
* varint pages decoded together equal the scalar LEB128 decoder page
  by page, and every page is held to its own count and bytes;
* a damaged page raises the error it raised before, whichever path —
  batched or page by page — it goes down, and never borrows a value
  from its neighbour.
"""

import hashlib

import numpy as np
import pytest

from repro.core import (
    BullionReader,
    BullionWriter,
    Field,
    LogicalType,
    Schema,
    Table,
    WriterOptions,
    delete_rows,
)
from repro.core.page import frame_page
from repro.encodings import (
    EncodingError,
    ListEncoding,
    RaggedColumn,
    SparseListDelta,
    Trivial,
    Varint,
    decode_blob,
    encode_blob,
)
from repro.iosim import SimulatedStorage
from repro.util.bitio import ByteReader, ByteWriter
from repro.util.varint import decode_varint, encode_varint

from test_chunk_decode import (
    GOOD_PAGE,
    GOOD_ROWS,
    _eight_page_sparse_chunk,
)
from test_sparse_delta_decode import (
    BULK,
    ENDS,
    FLAGS,
    HEADS,
    STARTS,
    TAILS,
    _fresh,
    _head_insert,
    _mixed,
    _ragged,
    _tail_append,
    _with_empty_rows,
)

# -- (b) sha-identical to the decoder this replaced ---------------------------

SHAPES = {
    "append": _tail_append,
    "prepend": _head_insert,
    "generic": _ragged,
    "mixed": _mixed,
    "reanchored": _fresh,
    "empty_rows": _with_empty_rows,
}
CODECS = {"sparse_list_delta": SparseListDelta, "list": ListEncoding}

#: sha256 over, in order, one-row and 32-row pages x compliance levels
#: 1 and 2 x (decoded column, column after ``delete_rows`` with deleted
#: slots kept, file bytes after the scrub, live rows); computed at the
#: parent commit, where a list column was a ``list`` of row arrays
GOLDEN = {
    "append/list": "541c31b6c33f",
    "append/sparse_list_delta": "6da25fe6f852",
    "empty_rows/list": "84ee3d6e31a0",
    "empty_rows/sparse_list_delta": "7a25f7bf5722",
    "generic/list": "fb40b3df16be",
    "generic/sparse_list_delta": "eb64ae3849fa",
    "mixed/list": "cd34148aee24",
    "mixed/sparse_list_delta": "2127ad82e1e5",
    "prepend/list": "ff3ff22a928b",
    "prepend/sparse_list_delta": "1e05d77c77fe",
    "reanchored/list": "42b77638420f",
    "reanchored/sparse_list_delta": "e26d4df5cbaf",
}


def _rows_digest(h, column) -> None:
    for row in column:
        row = np.asarray(row)
        assert row.dtype == np.int64
        h.update(len(row).to_bytes(8, "little"))
        h.update(row.tobytes())


def _shape_digest(shape: str, codec: str) -> str:
    h = hashlib.sha256()
    for rows_per_page in (1, 32):
        for level in (1, 2):
            rng = np.random.default_rng(
                [sorted(SHAPES).index(shape), rows_per_page]
            )
            n = 8 * 32 - 5
            rows = SHAPES[shape](rng, n, 12)
            dev = SimulatedStorage()
            BullionWriter(
                dev,
                None,
                WriterOptions(
                    rows_per_page=rows_per_page,
                    rows_per_group=4 * 32,
                    compliance_level=level,
                    encodings={"seq": CODECS[codec]()},
                ),
            ).write(Table({"seq": rows}))
            _rows_digest(h, BullionReader(dev).read_column("seq"))
            delete_rows(dev, [0, 1, 2, 33, 64, 65, 130, n - 1])
            reader = BullionReader(dev)
            _rows_digest(
                h, reader.project(["seq"], drop_deleted=False).column("seq")
            )
            h.update(dev.pread(0, dev.size))
            _rows_digest(h, reader.project(["seq"]).column("seq"))
    return h.hexdigest()[:12]


@pytest.mark.parametrize("codec", sorted(CODECS))
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_decoded_values_and_scrubbed_bytes_match_the_parent(shape, codec):
    assert _shape_digest(shape, codec) == GOLDEN[f"{shape}/{codec}"]


def test_zero_row_file_decodes_to_an_empty_ragged_column():
    dev = SimulatedStorage()
    schema = Schema([
        Field("seq", LogicalType.parse("list<int64>")),
        Field("emb", LogicalType.parse("list<float>")),
    ])
    options = WriterOptions(encodings={"seq": SparseListDelta()})
    BullionWriter(dev, schema, options).write(Table({"seq": [], "emb": []}))
    table = BullionReader(dev).project(["seq", "emb"])
    for name, dtype in (("seq", np.int64), ("emb", np.float32)):
        column = table.column(name)
        assert isinstance(column, RaggedColumn) and len(column) == 0
        assert column.values.dtype == dtype


# -- varint pages decoded together ---------------------------------------------

def _count_prefix(count: int) -> bytes:
    return count.to_bytes(8, "little")


def _scalar_streams(streams, counts):
    """Stream by stream, integer by integer: the oracle."""
    out = []
    for data, count in zip(streams, counts):
        pos = 0
        for _ in range(count):
            value, pos = decode_varint(data, pos)
            out.append(value)
    return np.array(out, dtype=np.uint64)


def _decode_pages(streams, counts):
    readers = [ByteReader(_count_prefix(c) + s) for s, c in zip(streams, counts)]
    return Varint.decode_pages(readers)


@pytest.mark.parametrize("seed", range(30))
def test_varint_pages_match_the_scalar_decoder(seed):
    """Even seeds: every stream holds its integers and nothing else, so
    the pages are joined and decoded as one stream. Odd seeds: surplus
    integers and trailing continuation bytes, so each is decoded alone."""
    rng = np.random.default_rng(seed)
    streams, counts = [], []
    for _ in range(int(rng.integers(1, 9))):
        bits = rng.integers(0, 65, int(rng.integers(seed % 2 == 0, 40)))
        values = [int(rng.integers(0, 1 << 63)) >> (63 - b) if b else 0 for b in bits]
        if rng.random() < 0.3:
            values.append((1 << 64) - 1)
        data = b"".join(encode_varint(v) for v in values)
        count = len(values)
        surplus = rng.random() if seed % 2 else 1.0
        if surplus < 0.25 and values:  # whole integers left over
            count -= int(rng.integers(0, len(values)))
        elif surplus < 0.5:  # the stream ends inside an integer
            data += b"\x80" * int(rng.integers(1, 4))
        streams.append(data)
        counts.append(count)
    got = _decode_pages(streams, counts)
    assert got.dtype == np.int64
    assert np.array_equal(got.astype(np.uint64), _scalar_streams(streams, counts))


def test_varint_page_too_short_raises_whatever_its_neighbours_hold():
    one = encode_varint(5)
    with pytest.raises(ValueError, match="truncated varint stream"):
        _decode_pages([one * 4, one * 2, one * 4], [3, 3, 3])
    with pytest.raises(ValueError, match="truncated"):
        _decode_pages([one + b"\x80"], [2])
    with pytest.raises(ValueError, match="longer than 64 bits"):
        _decode_pages([b"\x80" * 10 + b"\x01", one], [1, 1])
    assert _decode_pages([b"", one, b""], [0, 1, 0]).tolist() == [5]
    # a joined stream may not lend a page's surplus to its neighbour
    assert _decode_pages([one * 3, one * 1], [2, 1]).tolist() == [5, 5, 5]
    with pytest.raises(ValueError, match="truncated varint stream"):
        _decode_pages([one * 3, one * 1], [2, 2])


# -- (c) corruption through the batched path ----------------------------------

def _varint_blob(values, declare=None, trailer=b"") -> bytes:
    """A varint blob whose count field may lie and whose stream may run
    on past its last integer."""
    stream = b"".join(encode_varint(int(v)) for v in values)
    count = len(values) if declare is None else declare
    return bytes([Varint.id]) + _count_prefix(count) + stream + trailer


def _page(columns, size_blobs=None) -> bytes:
    """A 3-row sparse_list_delta blob from Fig-4 columns; ``size_blobs``
    replaces chosen size columns by ready-made blobs."""
    size_blobs = size_blobs or {}
    writer = ByteWriter()
    writer.write_u64(len(columns[FLAGS]))
    writer.write_blob(
        np.packbits(np.asarray(columns[FLAGS], dtype=bool), bitorder="little").tobytes()
    )
    for index in (STARTS, ENDS, HEADS, TAILS):
        writer.write_blob(
            size_blobs.get(index, _varint_blob(columns[index]))
        )
    writer.write_blob(encode_blob(np.asarray(columns[BULK], dtype=np.int64), Trivial()))
    return bytes([SparseListDelta.id]) + writer.getvalue()


def _chunk(pages, replaced: dict) -> bytes:
    pages = list(pages)
    for index, blob in replaced.items():
        pages[index] = frame_page(blob, 3)
    return b"".join(pages)


def _rows(column):
    return [row.tolist() for row in column]


def test_hand_built_varint_pages_decode_in_place():
    reader, col_idx, ptype, pages = _eight_page_sparse_chunk()
    raw = _chunk(pages, {3: _page(GOOD_PAGE), 4: _page(GOOD_PAGE)})
    assert _rows(reader._decode_column(raw, col_idx, 0, ptype)) == GOOD_ROWS * 8


@pytest.mark.parametrize("column", [STARTS, ENDS, HEADS, TAILS])
def test_a_neighbour_cannot_make_up_for_a_short_size_column(column):
    """Page 3 holds n - 1 values, page 4 holds n + 1: the chunk total is
    right and every page is wrong."""
    reader, col_idx, ptype, pages = _eight_page_sparse_chunk()
    values = GOOD_PAGE[column]
    # honest counts: the pages leave the batched path and fail page by page
    raw = _chunk(pages, {
        3: _page(GOOD_PAGE, {column: _varint_blob(values[:-1])}),
        4: _page(GOOD_PAGE, {column: _varint_blob(values + [1])}),
    })
    with pytest.raises(EncodingError, match="corrupt size columns"):
        reader._decode_column(raw, col_idx, 0, ptype)
    # lying counts: both declare n, so they are decoded together, and the
    # short stream is held to its own bytes
    raw = _chunk(pages, {
        3: _page(GOOD_PAGE, {column: _varint_blob(values[:-1], declare=3)}),
        4: _page(GOOD_PAGE, {column: _varint_blob(values + [1], declare=3)}),
    })
    with pytest.raises(ValueError, match="truncated varint stream"):
        reader._decode_column(raw, col_idx, 0, ptype)


@pytest.mark.parametrize(
    "trailer",
    [b"\x80", b"\xff\xff", b"\x01", b"\x05\x06\x07", b"\x85"],
    ids=["continuation", "two-continuations", "one-more", "three-more",
         "continuation-with-payload"],
)
@pytest.mark.parametrize("column", [STARTS, ENDS, HEADS, TAILS])
def test_surplus_varint_bytes_stay_in_their_page(column, trailer):
    """Bytes after a page's last size value are skipped, as they always
    were, and never become part of the next page's first value."""
    reader, col_idx, ptype, pages = _eight_page_sparse_chunk()
    blob = _varint_blob(GOOD_PAGE[column], trailer=trailer)
    raw = _chunk(pages, {
        3: _page(GOOD_PAGE, {column: blob}),
        4: _page(GOOD_PAGE),
    })
    assert _rows(reader._decode_column(raw, col_idx, 0, ptype)) == GOOD_ROWS * 8
    # alone, the page decodes the same
    assert _rows(decode_blob(_page(GOOD_PAGE, {column: blob}))) == GOOD_ROWS


def test_corrupt_child_of_an_empty_page_still_raises():
    writer = ByteWriter()
    writer.write_u64(0)
    writer.write_blob(b"")
    for _ in range(5):
        writer.write_blob(b"\xf7junk")
    with pytest.raises(EncodingError, match="unknown encoding id"):
        SparseListDelta.decode(ByteReader(writer.getvalue()))


def test_absurd_varint_counts_are_truncation_not_overflow():
    one = encode_varint(5)
    for counts in ([(1 << 64) - 1], [(1 << 64) - 1, 1], [1 << 62] * 4):
        with pytest.raises(ValueError, match="truncated varint stream"):
            _decode_pages([one] * len(counts), counts)
    for n in (1, 3):
        readers = [ByteReader(b"\xff" * 8 + one) for _ in range(n)]
        with pytest.raises(ValueError, match="truncated"):
            Varint.decode_pages(readers)
