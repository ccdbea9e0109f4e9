"""Chunk-at-a-time decode against the per-page decoder it replaced.

``BullionReader._decode_column`` walks a chunk's page headers once and
hands every run of same-codec pages to the codec in one call
(``decode_blobs`` -> ``Encoding.decode_pages``). The per-page loop it
replaced — ``_decode_chunk`` + ``_concat`` + ``_cast_to_storage`` as
they stood before — is kept here as the reference oracle: every column
shape the writer accepts must come back with the same values, dtype and
container type, before and after in-place deletions. The oracle builds a
depth-1 numeric list column the way the old reader did, row by row into
a ``list`` of arrays; the reader's ``RaggedColumn`` must hold exactly
those rows.

The second half is the corruption contract at chunk granularity: a
damaged chunk raises ``BullionFormatError``/``EncodingError`` (both
``ValueError``) or returns a column of the footer's row count — never a
crash class, never a neighbour page's values.
"""

import struct

import numpy as np
import pytest

from repro.core import (
    BullionReader,
    BullionWriter,
    Field,
    LogicalType,
    Primitive,
    Schema,
    Table,
    WriterOptions,
    delete_rows,
)
from repro.core.page import PAGE_HEADER_SIZE, PageHeader, frame_page
from repro.core.reader import BullionFormatError
from repro.core.table import widen_quantized
from repro.core.schema import STORAGE_DTYPES
from repro.encodings import (
    RLE,
    Dictionary,
    EncodingError,
    FixedBitWidth,
    Kind,
    ListEncoding,
    RaggedColumn,
    SparseListDelta,
    Trivial,
    Varint,
    catalog,
    decode_blob,
    encode_blob,
)
from repro.iosim import SimulatedStorage
from repro.quantization import FloatFormat, QuantizationPolicy
from repro.util.bitio import ByteReader

# the Fig-4 row generators, payload builder and corruption templates of
# the blob-level decoder tests, reused here at chunk granularity
from test_sparse_delta_decode import (
    BULK,
    ENDS,
    FLAGS,
    HEADS,
    STARTS,
    TAILS,
    TEMPLATES,
    _head_insert,
    _payload,
    _ragged,
    _tail_append,
)


# -- reference oracle: the per-page decoder this PR replaced ----------------

def _ref_decode_chunk(reader, raw, col_idx, rg):
    footer = reader.footer
    chunk = footer.chunk(col_idx, rg)
    values_parts = []
    pos = 0
    page_row = footer.row_group(rg).row_start
    for pid in range(chunk.first_page, chunk.first_page + chunk.n_pages):
        header = PageHeader.unpack(raw, pos)
        payload = raw[
            pos + PAGE_HEADER_SIZE : pos + PAGE_HEADER_SIZE + header.payload_len
        ]
        values = decode_blob(payload)
        meta = footer.page(pid)
        if header.n_values != meta.n_values:
            values = reader._re_expand(values, pid, page_row, meta.n_values)
        values_parts.append(values)
        pos += PAGE_HEADER_SIZE + header.alloc_len
        page_row += meta.n_values
    return values_parts


def _ref_concat(parts, ptype):
    flat = [v for part in parts for v in part]
    if not flat:
        if ptype.list_depth > 0 or ptype.primitive in (
            Primitive.STRING,
            Primitive.BINARY,
        ):
            return []
        return np.zeros(0, dtype=STORAGE_DTYPES[ptype.primitive])
    if isinstance(flat[0], np.ndarray) and ptype.list_depth == 0:
        return np.concatenate(flat)
    if len(flat) == 1 and isinstance(flat[0], list):
        return flat[0]
    out = []
    for v in flat:
        out.extend(v)
    return out


def _ref_cast_to_storage(values, ptype):
    prim = ptype.primitive
    if ptype.list_depth > 0:
        if prim in (Primitive.STRING, Primitive.BINARY):
            return values
        dtype = np.dtype(STORAGE_DTYPES.get(prim, np.int64))
        if ptype.list_depth == 1 and isinstance(values, list):
            return [
                v
                if type(v) is np.ndarray and v.dtype == dtype
                else np.asarray(v).astype(dtype, copy=False)
                for v in values
            ]
        return values
    if prim in (Primitive.STRING, Primitive.BINARY):
        return values
    dtype = STORAGE_DTYPES[prim]
    arr = np.asarray(values)
    if arr.dtype != dtype:
        if dtype in (np.uint16, np.uint8):
            arr = arr.astype(np.int64).astype(dtype)
        else:
            arr = arr.astype(dtype)
    return arr


def _ref_decode_column(reader, raw, col_idx, rg, ptype):
    parts = _ref_decode_chunk(reader, raw, col_idx, rg)
    return _ref_cast_to_storage(_ref_concat([parts], ptype), ptype)


# -- comparison: values, dtype and container type ----------------------------

def _assert_same(got, want):
    if isinstance(got, RaggedColumn):
        # the oracle's rows, one array each, are what the buffer stands for
        assert isinstance(want, list)
        assert all(type(row) is np.ndarray for row in want)
        got = list(got)
    assert type(got) is type(want)
    if isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()  # NaN payloads included
    elif isinstance(want, list):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _assert_same(g, w)
    else:
        assert got == want


def _chunks(reader):
    """(name, col_idx, group, ptype, raw bytes) of every chunk."""
    footer = reader.footer
    for name in reader.column_names():
        col_idx = footer.find_column(name)
        ptype = footer.column_type(col_idx)
        for g in range(footer.num_row_groups):
            raw = reader._fetch_chunks([(col_idx, g)])[(col_idx, g)]
            yield name, col_idx, g, ptype, raw


def _is_ragged(ptype) -> bool:
    """Depth-1 numeric lists are one buffer; nothing else is."""
    return ptype.list_depth == 1 and ptype.primitive not in (
        Primitive.STRING, Primitive.BINARY,
    )


def _check_file(dev) -> BullionReader:
    """Every chunk, and every whole column with widening on and off."""
    reader = BullionReader(dev)
    want: dict = {}
    for name, col_idx, g, ptype, raw in _chunks(reader):
        ref = _ref_decode_column(reader, raw, col_idx, g, ptype)
        got = reader._decode_column(raw, col_idx, g, ptype)
        assert isinstance(got, RaggedColumn) == _is_ragged(ptype)
        _assert_same(got, ref)
        want.setdefault(name, (ptype, []))[1].append(ref)
    for widen in (False, True):
        table = reader.project(
            list(want), drop_deleted=False, widen_quantized=widen
        )
        for name, (ptype, parts) in want.items():
            ref = _ref_cast_to_storage(_ref_concat([parts], ptype), ptype)
            if widen:
                ref = widen_quantized(ref, ptype)
            assert isinstance(table.column(name), RaggedColumn) == _is_ragged(ptype)
            _assert_same(table.column(name), ref)
    return reader


def _write(columns, schema=None, **options) -> SimulatedStorage:
    dev = SimulatedStorage()
    BullionWriter(dev, schema, WriterOptions(**options)).write(Table(columns))
    return dev


def _page_payloads(raw) -> list[bytes]:
    out, pos = [], 0
    while pos < len(raw):
        header = PageHeader.unpack(raw, pos)
        out.append(raw[pos + PAGE_HEADER_SIZE :][: header.payload_len])
        pos += PAGE_HEADER_SIZE + header.alloc_len
    return out


# -- every physical type ------------------------------------------------------

def _sample(rng, prim, depth, n):
    def leaf(m):
        if prim in (Primitive.STRING, Primitive.BINARY):
            return [
                bytes(rng.integers(97, 123, int(rng.integers(0, 6)), dtype=np.uint8))
                for _ in range(m)
            ]
        dtype = np.dtype(STORAGE_DTYPES[prim])
        if dtype == np.bool_:
            return rng.random(m) < 0.3
        if dtype.kind == "f":
            return rng.normal(size=m).astype(dtype)
        info = np.iinfo(dtype)
        return rng.integers(
            max(info.min, -1000), min(info.max, 1000), m
        ).astype(dtype)

    if depth == 0:
        return leaf(n)
    if depth == 1:
        return [leaf(int(rng.integers(0, 5))) for _ in range(n)]
    return [
        [leaf(int(rng.integers(0, 4))) for _ in range(int(rng.integers(0, 3)))]
        for _ in range(n)
    ]


#: what the writer refuses today (probed at the parent commit)
_REFUSED = {
    (Primitive.STRING, 2), (Primitive.BINARY, 2), (Primitive.BOOL, 1),
}
TYPES = [
    (prim, depth)
    for prim in Primitive
    for depth in (0, 1, 2)
    if (prim, depth) not in _REFUSED
]


@pytest.mark.parametrize(
    "prim,depth", TYPES, ids=[f"{p.type_name}-{d}" for p, d in TYPES]
)
def test_every_primitive_and_list_depth(prim, depth):
    rng = np.random.default_rng([int(prim), depth])
    ltype = LogicalType.of(prim)
    for _ in range(depth):
        ltype = LogicalType.list_(ltype)
    # 3-page group, then a 1-page group with a short page
    dev = _write(
        {"x": _sample(rng, prim, depth, 50)},
        Schema([Field("x", ltype)]),
        rows_per_page=16,
        rows_per_group=48,
    )
    _check_file(dev)


def test_empty_group_keeps_every_type():
    schema = Schema([
        Field("i", LogicalType.parse("int64")),
        Field("f", LogicalType.parse("float")),
        Field("h", LogicalType.parse("bfloat16")),
        Field("s", LogicalType.parse("string")),
        Field("l", LogicalType.parse("list<int64>")),
    ])
    dev = _write(
        {
            "i": np.zeros(0, np.int64), "f": np.zeros(0, np.float32),
            "h": np.zeros(0, np.uint16), "s": [], "l": [],
        },
        schema,
    )
    reader = _check_file(dev)
    assert reader.footer.num_row_groups == 1 and reader.num_rows == 0
    table = reader.project(["i", "f", "h", "s", "l"])
    assert table.column("h").dtype == np.uint16 and table.column("s") == []


# -- fixed_bit_width: widths, page counts, bases ------------------------------

WIDTHS = [0, 1, 8, 10, 16, 29, 32, 57, 58, 63, 64]
PAGE_ROWS = 64


def _width_page(rng, width, n, base):
    """``n`` values whose range is exactly ``width`` bits above ``base``."""
    if width == 0:
        return np.full(n, base, dtype=np.int64)
    span = (1 << width) - 1
    offsets = rng.integers(0, span, n, dtype=np.uint64, endpoint=True)
    offsets[0], offsets[-1] = 0, span
    return (offsets + np.uint64(base % (1 << 64))).astype(np.int64)


def _width_base(width):
    # centred, so that wide pages still fit int64 and bases go negative
    return -(1 << (width - 1)) if width else -7


def _fbw_header(payload):
    assert payload[0] == FixedBitWidth.id
    return struct.unpack_from("<qBQ", payload, 1)


@pytest.mark.parametrize("short_last_page", [False, True], ids=["full", "short"])
@pytest.mark.parametrize("pages", [1, 2, 8])
@pytest.mark.parametrize("width", WIDTHS)
def test_fixed_bit_width_chunks(width, pages, short_last_page):
    rng = np.random.default_rng([width, pages])
    sizes = [PAGE_ROWS] * pages
    if short_last_page:
        sizes[-1] = PAGE_ROWS - 23
    values = np.concatenate(
        [_width_page(rng, width, n, _width_base(width)) for n in sizes]
    )
    dev = _write(
        {"x": values}, rows_per_page=PAGE_ROWS, rows_per_group=PAGE_ROWS * 8
    )
    reader = _check_file(dev)
    (_name, _c, _g, _pt, raw), = _chunks(reader)
    headers = [_fbw_header(p) for p in _page_payloads(raw)]
    assert [(w, n) for _b, w, n in headers] == [(width, n) for n in sizes]
    assert np.array_equal(reader.read_column("x"), values)


def test_pages_of_one_chunk_with_different_widths_and_bases():
    rng = np.random.default_rng(18)
    hi, lo = np.iinfo(np.int64).max, np.iinfo(np.int64).min
    pages = [
        _width_page(rng, 10, PAGE_ROWS, -500),
        _width_page(rng, 29, PAGE_ROWS, 10**12),
        _width_page(rng, 0, PAGE_ROWS, -3),
        _width_page(rng, 64, PAGE_ROWS, lo),          # int64 extremes
        _width_page(rng, 10, PAGE_ROWS, hi - 1023),   # against the top
        _width_page(rng, 58, PAGE_ROWS, lo),          # against the bottom
        _width_page(rng, 10, PAGE_ROWS, 0),
        _width_page(rng, 29, PAGE_ROWS - 9, -(10**15)),
    ]
    values = np.concatenate(pages)
    dev = _write(
        {"x": values}, rows_per_page=PAGE_ROWS, rows_per_group=PAGE_ROWS * 8
    )
    reader = _check_file(dev)
    (_name, _c, _g, _pt, raw), = _chunks(reader)
    widths = [_fbw_header(p)[1] for p in _page_payloads(raw)]
    assert widths == [10, 29, 0, 64, 10, 58, 10, 29]
    assert np.array_equal(reader.read_column("x"), values)


# -- quantized storage, widened and not ---------------------------------------

def test_quantized_columns_widen_on_and_off():
    rng = np.random.default_rng(4)
    n = 8 * PAGE_ROWS - 5
    names = {
        "e4m3": FloatFormat.FP8_E4M3, "e5m2": FloatFormat.FP8_E5M2,
        "bf16": FloatFormat.BF16, "fp16": FloatFormat.FP16,
    }
    dev = _write(
        {name: rng.normal(size=n).astype(np.float32) for name in names},
        rows_per_page=PAGE_ROWS,
        rows_per_group=PAGE_ROWS * 4,
        quantization=QuantizationPolicy(assignments=names),
    )
    reader = _check_file(dev)
    stored = reader.project(list(names))
    assert [stored.column(c).dtype for c in names] == [
        np.uint8, np.uint8, np.uint16, np.float16
    ]
    wide = reader.project(list(names), widen_quantized=True)
    assert all(wide.column(c).dtype == np.float32 for c in names)


# -- sparse_list_delta across page boundaries ---------------------------------

_WINDOWS = {"append": _tail_append, "prepend": _head_insert, "generic": _ragged}


def _windows(rng, n, width, flavour):
    """``n`` sliding-window rows of one segment flavour."""
    return _WINDOWS[flavour](rng, n, width)


def _mixed_sparse_rows(rng, n):
    """Segments of every flavour, of lengths coprime to the page size,
    with empty rows in some seams."""
    rows: list = []
    while len(rows) < n:
        flavour = sorted(_WINDOWS)[int(rng.integers(3))]
        rows.extend(_windows(rng, int(rng.integers(5, 41)), 12, flavour))
        if rng.random() < 0.3:
            rows.append(np.zeros(0, dtype=np.int64))
    return rows[:n]


@pytest.mark.parametrize("seed", range(6))
def test_sparse_list_delta_segments_across_pages(seed):
    rng = np.random.default_rng(seed)
    rows = _mixed_sparse_rows(rng, 8 * 32 - 7)
    dev = _write(
        {"seq": rows},
        rows_per_page=32,
        rows_per_group=8 * 32,
        encodings={"seq": SparseListDelta()},
    )
    reader = _check_file(dev)
    got = reader.read_column("seq")
    assert len(got) == len(rows)
    for g, w in zip(got, rows):
        assert g.dtype == np.int64 and np.array_equal(g, w)


def test_sparse_list_delta_pure_append_chunk_is_views_of_one_buffer():
    rng = np.random.default_rng(1)
    rows = _windows(rng, 8 * 32, 16, "append")
    dev = _write(
        {"seq": rows},
        rows_per_page=32,
        rows_per_group=8 * 32,
        encodings={"seq": SparseListDelta()},
    )
    got = _check_file(dev).read_column("seq")
    assert len({id(r.base) for r in got}) == 1
    # windows of the id stream, not copies: fewer ids held than rows show
    assert isinstance(got, RaggedColumn) and len(got.values) < got.lens.sum()


def _bulk_ids(reader) -> int:
    """Ids held by the bulk sub-columns of the file's one chunk."""
    (_name, _col_idx, _g, _ptype, raw), = _chunks(reader)
    total = 0
    for payload in _page_payloads(raw):
        blob_reader = ByteReader(payload, 1)
        blob_reader.read_u64()
        for _ in range(5):
            blob_reader.read_blob()
        total += len(decode_blob(blob_reader.read_blob()))
    return total


@pytest.mark.parametrize("flavour,extra", [("prepend", 0), ("mixed", 1)])
def test_sparse_list_delta_chunk_buffer_holds_the_bulk_once(flavour, extra):
    """A chunk of prepend runs is its bulk ids, reordered; a mixed chunk
    is its bulk ids plus the rows no run covers, written once each."""
    rng = np.random.default_rng(2)
    if flavour == "mixed":
        rows = _mixed_sparse_rows(rng, 8 * 32)
    else:
        rows = _windows(rng, 8 * 32, 16, flavour)
    dev = _write(
        {"seq": rows},
        rows_per_page=32,
        rows_per_group=8 * 32,
        encodings={"seq": SparseListDelta()},
    )
    reader = _check_file(dev)
    got = reader.read_column("seq")
    bulk = _bulk_ids(reader)
    assert bulk < got.lens.sum()
    if extra:
        assert bulk < len(got.values) <= bulk + got.lens.sum()
    else:
        assert len(got.values) == bulk


# -- mixed codecs in one chunk ------------------------------------------------

def _mixed_pages(rng):
    return [
        np.full(PAGE_ROWS, 7, dtype=np.int64),
        rng.integers(0, 1 << 50, PAGE_ROWS, dtype=np.int64),
        np.arange(PAGE_ROWS, dtype=np.int64) * 1000,
        np.repeat(rng.integers(0, 9, PAGE_ROWS // 16), 16).astype(np.int64),
        np.full(PAGE_ROWS, 7, dtype=np.int64),
        rng.integers(0, 4, PAGE_ROWS, dtype=np.int64),
        rng.integers(0, 1 << 50, PAGE_ROWS, dtype=np.int64),
        np.full(PAGE_ROWS - 11, 3, dtype=np.int64),
    ]


def test_cascade_written_chunk():
    # the selector picks per page (which codec depends on its clock, so
    # only the decode is asserted)
    values = np.concatenate(_mixed_pages(np.random.default_rng(9)))
    dev = _write(
        {"x": values},
        rows_per_page=PAGE_ROWS,
        rows_per_group=PAGE_ROWS * 8,
        encoding_policy="cascade",
    )
    assert np.array_equal(_check_file(dev).read_column("x"), values)


def test_mixed_codec_chunk_runs():
    """Runs of one, two and three pages, the same codec twice apart."""
    pages = _mixed_pages(np.random.default_rng(9))
    codecs = [
        FixedBitWidth(), FixedBitWidth(), Varint(), RLE(),
        FixedBitWidth(), Trivial(), Trivial(), Trivial(),
    ]
    values = np.concatenate(pages)
    dev = _write(
        {"x": values}, rows_per_page=PAGE_ROWS, rows_per_group=PAGE_ROWS * 8
    )
    reader = BullionReader(dev)
    (_name, col_idx, g, ptype, _raw), = _chunks(reader)
    raw = b"".join(
        frame_page(encode_blob(page, codec), len(page))
        for page, codec in zip(pages, codecs)
    )
    assert [p[0] for p in _page_payloads(raw)] == [c.id for c in codecs]
    got = reader._decode_column(raw, col_idx, g, ptype)
    _assert_same(got, _ref_decode_column(reader, raw, col_idx, g, ptype))
    assert np.array_equal(got, values)


# -- the §2.1 interplay: masked-in-place and compacted pages -------------------

def _deletable_file(level):
    rng = np.random.default_rng(21)
    n = 8 * PAGE_ROWS
    columns = {
        "packed": rng.integers(-50, 10**6, n).astype(np.int64),
        "runs": np.repeat(rng.integers(0, 5, n // 8), 8).astype(np.int64),
        "vint": rng.integers(0, 10**5, n).astype(np.int64),
        "dict": rng.integers(1, 6, n).astype(np.int64) * 1000,
        "score": rng.normal(size=n),
        "tag": [f"t{i % 9}".encode() for i in range(n)],
        "ids": [rng.integers(0, 99, int(rng.integers(0, 5))) for _ in range(n)],
        "seq": _windows(rng, n, 8, "append"),
    }
    dev = _write(
        columns,
        rows_per_page=PAGE_ROWS,
        rows_per_group=4 * PAGE_ROWS,
        compliance_level=level,
        encodings={
            "runs": RLE(), "vint": Varint(), "dict": Dictionary(),
            "seq": SparseListDelta(),
        },
    )
    return dev, n


@pytest.mark.parametrize("level", [1, 2])
def test_same_file_after_delete_rows(level):
    dev, n = _deletable_file(level)
    _check_file(dev)
    # two pages of the first group and one of the second lose rows; the
    # pages between them stay untouched in the same chunks
    victims = [1, 2, 3, 70, 71, PAGE_ROWS * 2 + 5, PAGE_ROWS * 5, n - 1]
    report = delete_rows(dev, victims)
    reader = _check_file(dev)
    footer = reader.footer
    compacted = 0
    for _name, col_idx, g, _ptype, raw in _chunks(reader):
        chunk = footer.chunk(col_idx, g)
        pos = 0
        for pid in range(chunk.first_page, chunk.first_page + chunk.n_pages):
            header = PageHeader.unpack(raw, pos)
            compacted += header.n_values != footer.page(pid).n_values
            pos += PAGE_HEADER_SIZE + header.alloc_len
    if level == 2:
        assert report.pages_rewritten > 0
        assert compacted > 0, "no page went through _re_expand"
    else:
        assert report.pages_rewritten == 0 and compacted == 0
    # a second round hits already-compacted pages and their neighbours
    delete_rows(dev, [4, 69, 72, PAGE_ROWS * 5 + 1])
    reader = _check_file(dev)
    assert reader.project(["packed"]).num_rows == n - len(victims) - 4


def test_level_zero_file_decodes_and_refuses_deletes():
    dev, _n = _deletable_file(0)
    _check_file(dev)
    with pytest.raises(ValueError, match="no deletion support"):
        delete_rows(dev, [1])


# -- deterministic guards: one kernel run, one assembly, per chunk -------------

def _count_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_same_width_chunk_enters_the_unpack_kernel_once(monkeypatch):
    from repro.encodings import bitpack

    rng = np.random.default_rng(2)
    values = np.concatenate(
        [_width_page(rng, 29, PAGE_ROWS, -5) for _ in range(8)]
    )
    dev = _write(
        {"x": values}, rows_per_page=PAGE_ROWS, rows_per_group=PAGE_ROWS * 8
    )
    reader = BullionReader(dev)
    calls = _count_calls(monkeypatch, bitpack, "unpack_bits_rows")
    assert np.array_equal(reader.read_column("x"), values)
    assert len(calls) == 1


def test_sparse_chunk_enters_assembly_once(monkeypatch):
    from repro.encodings import sparse_delta

    rng = np.random.default_rng(3)
    rows = _mixed_sparse_rows(rng, 8 * 32)
    dev = _write(
        {"seq": rows},
        rows_per_page=32,
        rows_per_group=8 * 32,
        encodings={"seq": SparseListDelta()},
    )
    reader = BullionReader(dev)
    calls = _count_calls(monkeypatch, sparse_delta, "_assemble")
    assert len(reader.read_column("seq")) == len(rows)
    assert len(calls) == 1


# -- the LIST_INT row contract -------------------------------------------------

LIST_INT_CODECS = sorted(
    name for name, cls in catalog().items() if Kind.LIST_INT in cls.kinds
)


@pytest.mark.parametrize("n", [0, 1, 97])
@pytest.mark.parametrize("name", LIST_INT_CODECS)
def test_list_int_codecs_return_int64_ndarray_rows(name, n):
    """``_cast_to_storage`` casts the buffer, never a row: every
    LIST_INT codec must hand back a ``RaggedColumn`` of ``int64`` whose
    rows are ``ndarray`` views."""
    assert {"list", "sparse_list_delta"} <= set(LIST_INT_CODECS)
    cls = catalog()[name]
    rng = np.random.default_rng(n)
    rows = [
        rng.integers(-5, 1 << 33, int(rng.integers(0, 6))).astype(np.int64)
        for _ in range(n)
    ]
    if n > 1:
        rows[0] = rows[n // 2] = rows[-1] = np.zeros(0, dtype=np.int64)
    payload = cls().encode(rows)
    for decoded in (
        cls.decode(ByteReader(payload)),
        cls.decode_pages([ByteReader(payload)]),
        cls.decode_pages([ByteReader(payload), ByteReader(payload)])[n:],
    ):
        assert isinstance(decoded, RaggedColumn) and len(decoded) == n
        assert decoded.values.dtype == np.int64
        for got, want in zip(decoded, rows):
            assert type(got) is np.ndarray and got.dtype == np.int64
            assert np.array_equal(got, want)


# -- corruption at chunk granularity -------------------------------------------

def _decode_or_fail_cleanly(reader, raw, col_idx, g, ptype):
    """Decode may raise ValueError or return a whole column; any other
    exception type propagates and fails the test."""
    try:
        values = reader._decode_column(bytes(raw), col_idx, g, ptype)
    except ValueError:
        return None  # BullionFormatError / EncodingError: the contract
    assert len(values) == reader.footer.row_group(g).n_rows
    return values


def _corruption_targets():
    rng = np.random.default_rng(5)
    n = 8 * 32
    dev = _write(
        {
            "packed": rng.integers(-9, 10**6, n).astype(np.int64),
            "seq": _mixed_sparse_rows(rng, n),
            "tag": [f"t{i % 9}".encode() for i in range(n)],
        },
        rows_per_page=32,
        rows_per_group=n,
        encodings={"seq": SparseListDelta()},
    )
    reader = BullionReader(dev)
    return reader, {name: rest for name, *rest in _chunks(reader)}


def _header_offsets(raw, fixed_bit_width):
    """Byte offsets of the page headers, plus — for a fixed_bit_width
    chunk — of each payload's id byte and 17-byte codec header."""
    offsets, pos = [], 0
    while pos < len(raw):
        header = PageHeader.unpack(raw, pos)
        span = PAGE_HEADER_SIZE + (1 + 17 if fixed_bit_width else 0)
        offsets.extend(range(pos, pos + span))
        pos += PAGE_HEADER_SIZE + header.alloc_len
    return offsets


@pytest.mark.parametrize("column", ["packed", "seq", "tag"])
def test_chunk_truncated_at_every_prefix(column):
    reader, chunks = _corruption_targets()
    col_idx, g, ptype, raw = chunks[column]
    for cut in range(len(raw)):
        assert _decode_or_fail_cleanly(
            reader, raw[:cut], col_idx, g, ptype
        ) is None, f"a {cut}-byte prefix of {len(raw)} decoded"


@pytest.mark.parametrize("column", ["packed", "seq", "tag"])
def test_bit_flips_and_stomps_in_the_headers(column):
    reader, chunks = _corruption_targets()
    col_idx, g, ptype, raw = chunks[column]
    rng = np.random.default_rng(11)
    offsets = _header_offsets(raw, fixed_bit_width=column == "packed")
    for off in offsets:
        for bit in range(8):
            damaged = bytearray(raw)
            damaged[off] ^= 1 << bit
            _decode_or_fail_cleanly(reader, damaged, col_idx, g, ptype)
        for stomp in (0x00, 0xFF, int(rng.integers(1, 255))):
            damaged = bytearray(raw)
            damaged[off] = stomp
            _decode_or_fail_cleanly(reader, damaged, col_idx, g, ptype)
    for _ in range(200):  # several header bytes at once
        damaged = bytearray(raw)
        for off in rng.choice(offsets, int(rng.integers(2, 6)), replace=False):
            damaged[int(off)] = int(rng.integers(0, 256))
        _decode_or_fail_cleanly(reader, damaged, col_idx, g, ptype)


def test_corrupt_alloc_len_is_a_format_error_naming_the_page():
    """At the parent commit this escaped as ``struct.error``."""
    dev = _write(
        {"a": np.arange(100, dtype=np.int64)},
        rows_per_page=10, rows_per_group=50,
    )
    footer = BullionReader(dev).footer
    chunk = footer.chunk(footer.find_column("a"), 1)
    dev.pwrite(chunk.offset, struct.pack("<I", 0xFFFFFF00))
    reader = BullionReader(dev)
    for read in (
        lambda: reader.project(["a"]),
        lambda: reader.scan(["a"], where="a >= 0").to_table(),
    ):
        with pytest.raises(
            BullionFormatError, match=r"column 0 row group 1 page 5\b"
        ):
            read()
    # an empty allocation stays a typed error too
    dev.pwrite(chunk.offset, struct.pack("<I", 0))
    with pytest.raises(ValueError):
        BullionReader(dev).project(["a"])


# the five corruption checks of tests/test_sparse_delta_decode.py, built
# by hand and placed in page 3 of 8

def _sparse_payload(*columns, **kwargs):
    return bytes([SparseListDelta.id]) + _payload(*columns, **kwargs)


# base [1 2 3] then [9 2 4], [8 2 5]
GOOD_PAGE = TEMPLATES["generic"]
GOOD_ROWS = [[1, 2, 3], [9, 2, 4], [8, 2, 5]]


def _eight_page_sparse_chunk():
    """A real 8-page sparse_list_delta chunk of 3-row pages, as
    (reader, col_idx, ptype, framed pages)."""
    rows = [np.array(r, dtype=np.int64) for r in GOOD_ROWS] * 8
    dev = _write(
        {"seq": rows}, rows_per_page=3, rows_per_group=24,
        encodings={"seq": SparseListDelta()},
    )
    reader = BullionReader(dev)
    (_name, col_idx, _g, ptype, raw), = _chunks(reader)
    return reader, col_idx, ptype, [
        frame_page(payload, 3) for payload in _page_payloads(raw)
    ]


def _with_page(pages, index, columns, **kwargs):
    pages = list(pages)
    pages[index] = frame_page(_sparse_payload(*columns, **kwargs), 3)
    return b"".join(pages)


def _damaged(column, row, value):
    columns = [list(c) for c in GOOD_PAGE]
    columns[column][row] = value
    return columns


def test_hand_built_page_is_valid_in_place():
    reader, col_idx, ptype, pages = _eight_page_sparse_chunk()
    raw = _with_page(pages, 3, GOOD_PAGE)
    got = reader._decode_column(raw, col_idx, 0, ptype)
    _assert_same(got, _ref_decode_column(reader, raw, col_idx, 0, ptype))
    assert [r.tolist() for r in got] == GOOD_ROWS * 8


@pytest.mark.parametrize(
    "columns,kwargs,message",
    [
        (_damaged(FLAGS, 0, 1), {}, "without a base"),
        (_damaged(HEADS, 2, -1), {"size_child": Trivial}, "negative segment size"),
        (_damaged(TAILS, 2, -1), {"size_child": Trivial}, "negative segment size"),
        (_damaged(ENDS, 2, 4), {}, "corrupt overlap range"),
        (_damaged(STARTS, 2, -1), {"size_child": Trivial}, "corrupt overlap range"),
        (_damaged(ENDS, 1, 1 << 40), {}, "corrupt overlap range"),
        ([c[:-1] if i == HEADS else c for i, c in enumerate(GOOD_PAGE)], {},
         "corrupt size columns"),
        ([c[:-1] if i == STARTS else c for i, c in enumerate(GOOD_PAGE)], {},
         "corrupt size columns"),
        ([c[:-1] if i == BULK else c for i, c in enumerate(GOOD_PAGE)], {},
         "truncated bulk"),
    ],
    ids=[
        "no-base", "negative-head", "negative-tail", "end-past-prev",
        "start-negative", "end-huge", "short-heads", "short-starts",
        "short-bulk",
    ],
)
def test_sparse_corruption_in_page_three_of_eight(columns, kwargs, message):
    reader, col_idx, ptype, pages = _eight_page_sparse_chunk()
    raw = _with_page(pages, 3, columns, **kwargs)
    with pytest.raises(EncodingError, match=message):
        reader._decode_column(raw, col_idx, 0, ptype)


def test_first_row_of_a_page_cannot_reach_into_the_previous_page():
    """A delta row first in its page has no predecessor, even though the
    previous page's last row is long enough to cover its range."""
    reader, col_idx, ptype, pages = _eight_page_sparse_chunk()
    columns = ([1, 1, 1], [0, 1, 1], [2, 2, 2], [1, 1, 1], [0, 1, 1],
               [9, 9, 4, 8, 5])
    with pytest.raises(EncodingError, match="without a base"):
        reader._decode_column(_with_page(pages, 3, columns), col_idx, 0, ptype)


def test_short_bulk_is_not_covered_by_the_next_pages_surplus():
    reader, col_idx, ptype, pages = _eight_page_sparse_chunk()
    short = [c[:-1] if i == BULK else c for i, c in enumerate(GOOD_PAGE)]
    surplus = [c + [77] if i == BULK else c for i, c in enumerate(GOOD_PAGE)]
    # surplus ids alone are ignored, page by page ...
    raw = _with_page(pages, 4, surplus)
    got = reader._decode_column(raw, col_idx, 0, ptype)
    assert [r.tolist() for r in got] == GOOD_ROWS * 8
    # ... and never lent to the page before
    pages[4] = frame_page(_sparse_payload(*surplus), 3)
    with pytest.raises(EncodingError, match="truncated bulk"):
        reader._decode_column(_with_page(pages, 3, short), col_idx, 0, ptype)


# -- a compacted page that is not an array ------------------------------------

@pytest.mark.parametrize("column", ["ids", "tag"])
def test_compacted_page_of_a_list_or_bytes_column_is_a_format_error(column):
    """Only the RLE masker compacts a page, and RLE holds ints and bools:
    a list or bytes page whose header counts fewer values than the footer
    is damage, not something to re-align through the deletion vector."""
    rng = np.random.default_rng(8)
    dev = _write(
        {
            "ids": [rng.integers(0, 99, 3) for _ in range(6)],
            "tag": [b"t%d" % i for i in range(6)],
        },
        rows_per_page=3, rows_per_group=6, compliance_level=1,
    )
    delete_rows(dev, [4])  # level 1: the vector says so, the page is whole
    reader = BullionReader(dev)
    col_idx, g, ptype, raw = {n: rest for n, *rest in _chunks(reader)}[column]
    first, second = _page_payloads(raw)
    # page two re-encoded without its deleted row, header count 2 of 3
    if column == "ids":
        short = encode_blob(decode_blob(second)[[0, 2]], ListEncoding())
    else:
        short = encode_blob([b"t3", b"t5"], Trivial())
    damaged = frame_page(first, 3) + frame_page(short, 2)
    with pytest.raises(BullionFormatError, match="compacted"):
        reader._decode_column(damaged, col_idx, g, ptype)
    assert len(reader._decode_column(raw, col_idx, g, ptype)) == 6
