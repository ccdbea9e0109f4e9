"""BullionWriter: serialize tables into the Bullion file layout.

File layout::

    magic "BULN"
    row group 0: column 0 pages, column 1 pages, ...   (column-contiguous
    row group 1: ...                                    within each group)
    footer (see repro.core.footer)
    u32 footer_len | magic "BULN"

Column-contiguous layout inside a row group means a projection reads
each requested column's chunk with one coalesced ``pread`` (the paper's
§2.3 access path, and the same rationale as Meta Alpha's "coalesced
reads").

The writer is *incremental*: ``open()`` stamps the magic,
``write_batch(table)`` buffers rows and flushes one fully-encoded row
group at a time, and ``finish()`` assembles the footer from the
:class:`~repro.core.footer.FooterBuilder`'s accumulated metadata. At
no point does more than one row group's raw rows — and the encoded
pages of at most one column chunk — live in writer memory; a chunk's
pages are encoded by one codec call (``Encoding.encode_pages``) and
written by one append. :class:`WriterStats` instruments exactly that.
``write()``/``write_table()`` are thin one-shot wrappers and produce
byte-identical files to any sequence of ``write_batch`` calls carrying
the same rows.
"""

from __future__ import annotations

import struct
import time
from dataclasses import dataclass, field as dc_field

import numpy as np

from repro.cascading import (
    candidate_fingerprint,
    choose_encoding,
    collect_stats,
    take_sample,
)
from repro.core.chunk_cache import notify_mutation
from repro.core.footer import (
    MAGIC,
    ChunkMeta,
    ChunkStats,
    FooterBuilder,
    FooterView,
    PageMeta,
)
from repro.core.page import frame_page
from repro.core.schema import (
    QUANTIZED_FORMATS,
    STORAGE_DTYPES,
    Field,
    PhysicalColumn,
    PhysicalType,
    Primitive,
    Schema,
)
from repro.core.table import (
    Table,
    fill_column,
    validate_against_schema,
    widen_quantized,
)
from repro.encodings import (
    Encoding,
    EncodingError,
    ListEncoding,
    SparseBool,
    Trivial,
    encode_blob,
)
from repro.encodings.base import RaggedColumn, join_values
from repro.encodings.bitpack import FixedBitWidth
from repro.iosim import Storage
from repro.obs import metrics as obs_metrics, trace as obs_trace
from repro.obs.families import (
    WRITER_ENCODE_SECONDS,
    WRITER_FLUSH_SECONDS,
    Counters,
)
from repro.util.hashing import hash_bytes

#: compliance levels of §2.1
LEVEL_PLAIN = 0  # standard format, no upgraded deletion support
LEVEL_DELETION_VECTOR = 1  # query-time filtering only
LEVEL_IN_PLACE = 2  # deletion vectors + in-place scrubbing


@dataclass
class WriterOptions:
    """Knobs for file layout and encoding selection."""

    rows_per_page: int = 4096
    rows_per_group: int = 65536
    compliance_level: int = LEVEL_IN_PLACE
    #: per-column encoding overrides (physical column name -> Encoding)
    encodings: dict[str, Encoding] = dc_field(default_factory=dict)
    #: fallback policy: "auto" (type-driven defaults), "trivial", or
    #: "cascade": run the §2.6 selector once per column per file, on a
    #: sample of runs from the first row group, and reuse the winner for
    #: every page; select again only at a later row group whose sample
    #: statistics cross a selector threshold, or on a page the winner
    #: cannot encode
    encoding_policy: str = "auto"
    #: slack appended to each page so in-place updates have headroom
    page_padding: int = 0
    #: record per-(column, row-group) min/max for predicate pruning
    collect_statistics: bool = True
    #: §2.4 storage quantization applied at write time: float columns
    #: are narrowed per the policy and their physical type recorded in
    #: the footer, so readers can widen transparently
    quantization: "object | None" = None  # QuantizationPolicy

    def __post_init__(self) -> None:
        if self.rows_per_page <= 0 or self.rows_per_group <= 0:
            raise ValueError("page/group sizes must be positive")
        if self.rows_per_group % self.rows_per_page:
            raise ValueError("rows_per_group must be a multiple of rows_per_page")
        if self.compliance_level not in (0, 1, 2):
            raise ValueError("compliance level must be 0, 1 or 2")


@dataclass
class WriterStats(Counters):
    """Streaming-writer instrumentation (the bounded-memory evidence).

    ``peak_encoded_pages_held`` / ``peak_encoded_payload_bytes`` track
    the most encoded-page state alive at once — the streaming writer
    encodes, hashes and appends each column chunk before touching the
    next, so the peak stays at one chunk's pages (< one row group)
    regardless of file size. ``peak_buffered_rows`` bounds the raw-row
    staging buffer.
    """

    groups_flushed: int = 0
    pages_written: int = 0
    peak_buffered_rows: int = 0
    peak_encoded_pages_held: int = 0
    peak_encoded_payload_bytes: int = 0

    families = {
        "groups_flushed": "writer_groups_flushed_total",
        "pages_written": "writer_pages_written_total",
    }


_INT_PRIMS = {
    Primitive.INT64,
    Primitive.INT32,
    Primitive.INT16,
    Primitive.INT8,
    Primitive.BFLOAT16,  # stored as uint16 payloads
    Primitive.FLOAT8_E4M3,
    Primitive.FLOAT8_E5M2,
}


def default_encoding(column: PhysicalColumn) -> Encoding:
    """Type-driven default scheme (the "auto" policy)."""
    ptype = column.type
    if ptype.list_depth > 0:
        return ListEncoding()
    if ptype.primitive == Primitive.BOOL:
        return SparseBool()
    if ptype.primitive in _INT_PRIMS:
        return FixedBitWidth()
    return Trivial()  # floats, strings, binary


def _to_encodable(values, column: PhysicalColumn):
    """Coerce storage values to what the encoding layer accepts."""
    if (
        column.type.list_depth > 0
        or not isinstance(values, np.ndarray)
        or column.type.primitive not in _INT_PRIMS
        or values.dtype == np.int64
    ):
        return values
    if values.dtype == np.bool_:
        raise ValueError(f"bool array for int column {column.name}")
    return values.astype(np.int64)


class BullionWriter:
    """Incremental writer: ``open() -> write_batch(table)* -> finish()``.

    ``write(table)`` remains the one-shot convenience path.
    """

    def __init__(
        self,
        storage: Storage,
        schema: Schema | None = None,
        options: WriterOptions | None = None,
    ) -> None:
        self._storage = storage
        self._schema = schema
        self._options = options or WriterOptions()
        self.stats = WriterStats()
        self._state = "new"  # new -> open -> finished
        self._builder: FooterBuilder | None = None
        self._columns: list[PhysicalColumn] | None = None
        self._source_columns: list[PhysicalColumn] | None = None
        self._logical_fields: list[Field] | None = None
        #: staged raw fragments per physical column name (quantization
        #: and encoding happen at flush time)
        self._buffer: dict[str, list] = {}
        self._buffered_rows = 0
        self._column_order: list[str] | None = None
        #: per-column value kind from the first batch (np dtype or None
        #: for list-kind columns) — later batches must match exactly
        self._batch_kinds: dict[str, object] = {}
        #: "cascade" decisions, for the life of the file: physical column
        #: name -> (winner, the candidate fingerprint it was chosen under)
        self._cascade: dict[str, tuple[Encoding, tuple]] = {}

    # -- incremental API -----------------------------------------------
    def open(self) -> "BullionWriter":
        """Stamp the file magic and ready the footer builder."""
        if self._state != "new":
            raise RuntimeError(f"open() on a writer in state {self._state!r}")
        self._state = "open"
        self._builder = FooterBuilder(self._options.compliance_level)
        self._storage.append(MAGIC)
        return self

    def write_batch(self, table: Table) -> None:
        """Stage a batch of rows; flush every completed row group.

        Batches need not align to row-group boundaries — rows are cut
        into exact ``rows_per_group`` groups internally, so the file
        bytes depend only on the concatenated row stream, never on how
        it was batched.
        """
        if self._state == "new":
            self.open()
        if self._state != "open":
            raise RuntimeError("write_batch() after finish()")
        self._ingest_batch(table)
        while self._buffered_rows >= self._options.rows_per_group:
            self._resolve_columns_once()
            self._flush_group(self._take_rows(self._options.rows_per_group))

    def finish(self) -> FooterView:
        """Flush the trailing partial group and write the footer."""
        if self._state == "new":
            self.open()
        if self._state != "open":
            raise RuntimeError("finish() called twice")
        builder = self._builder
        assert builder is not None
        self._resolve_columns_once()
        if self._buffered_rows > 0 or builder.num_groups == 0:
            self._flush_group(self._take_rows(self._buffered_rows))
        assert self._columns is not None and self._logical_fields is not None
        footer_data = builder.finish(self._columns, self._logical_fields)
        footer_bytes = footer_data.serialize()
        footer_offset = self._storage.append(footer_bytes)
        self._storage.append(struct.pack("<I", len(footer_bytes)) + MAGIC)
        self._state = "finished"
        # the device's contents changed: drop any process-cache entries
        # keyed to its previous life (e.g. a recycled storage object)
        notify_mutation(self._storage)
        return FooterView(footer_bytes, file_offset=footer_offset)

    # -- one-shot wrapper ----------------------------------------------
    def write(self, table: Table) -> FooterView:
        self.open()
        self.write_batch(table)
        return self.finish()

    # -- batch staging / column resolution ------------------------------
    def _ingest_batch(self, table: Table) -> None:
        if self._schema is not None:
            validate_against_schema(table, self._schema)
        if self._column_order is None:
            self._column_order = list(table.columns)
            self._buffer = {name: [] for name in self._column_order}
            self._batch_kinds = {
                name: _value_kind(v) for name, v in table.columns.items()
            }
        elif set(table.columns) != set(self._column_order):
            raise ValueError(
                f"batch columns {sorted(table.columns)} do not match "
                f"first batch {sorted(self._column_order)}"
            )
        else:
            # dtype drift between batches would otherwise be silently
            # coerced into the first batch's storage type
            for name in self._column_order:
                kind = _value_kind(table.columns[name])
                if kind != self._batch_kinds[name]:
                    raise ValueError(
                        f"column {name!r}: batch value kind {kind} does "
                        f"not match first batch {self._batch_kinds[name]}"
                    )
        for name in self._column_order:
            self._buffer[name].append(table.columns[name])
        self._buffered_rows += table.num_rows
        self.stats.peak_buffered_rows = max(
            self.stats.peak_buffered_rows, self._buffered_rows
        )

    def _resolve_columns_once(self) -> None:
        """Lock in the physical column set just before the first flush.

        Deferring resolution to the first flush lets schema-less type
        inference probe every fragment staged so far — a first batch
        whose list column happens to be empty no longer mis-infers the
        column as binary.
        """
        if self._columns is not None:
            return
        if self._schema is not None:
            columns = self._schema.physical_columns()
            logical_fields = list(self._schema.fields)
        elif self._column_order is not None:
            columns = [
                PhysicalColumn(
                    name, _infer_from_fragments(self._buffer[name]), name
                )
                for name in self._column_order
            ]
            logical_fields = [Field(c.name, _logical_for(c)) for c in columns]
        else:
            columns, logical_fields = [], []
        self._source_columns = columns
        if self._options.quantization is not None:
            columns = [
                _quantized_column(c, self._options.quantization)
                for c in columns
            ]
        self._columns = columns
        self._logical_fields = logical_fields
        self._buffer = {c.name: self._buffer.get(c.name, []) for c in columns}

    def _quantize_group(self, values: dict[str, object]) -> dict[str, object]:
        """Narrow float columns per the §2.4 policy (no-op without one).

        Decided against the *source* column types: a natively-f16
        column is stored as-is, while an f32/f64 feature the policy
        maps to a narrower format is converted element-wise (so the
        result is independent of how rows were batched).
        """
        policy = self._options.quantization
        if policy is None:
            return values
        from repro.quantization import quantize

        assert self._source_columns is not None and self._columns is not None
        out: dict[str, object] = {}
        for src, col in zip(self._source_columns, self._columns):
            v = values[src.name]
            if _is_plain_float(src):
                fmt = policy.format_for(src.name)
                if col.type.primitive != src.type.primitive or _is_tf32(fmt):
                    v = quantize(np.asarray(v), fmt)
            out[src.name] = v
        return out

    # -- row staging ----------------------------------------------------
    def _take_rows(self, n: int) -> dict[str, object]:
        """Remove and return exactly ``n`` rows from the staging buffer."""
        assert self._columns is not None
        out: dict[str, object] = {}
        for col in self._columns:
            fragments = self._buffer[col.name]
            taken: list = []
            need = n
            while need > 0:
                frag = fragments[0]
                if len(frag) <= need:
                    taken.append(fragments.pop(0))
                    need -= len(frag)
                else:
                    taken.append(frag[:need])
                    fragments[0] = frag[need:]
                    need = 0
            if not taken:
                out[col.name] = fill_column(col.type)
            else:
                out[col.name] = join_values(taken)
        self._buffered_rows -= n
        return out

    # -- group flush -----------------------------------------------------
    def _flush_group(self, values: dict[str, object]) -> None:
        obs_on = obs_metrics.enabled()
        flush_t0 = time.perf_counter() if obs_on else 0.0
        with obs_trace.span("writer.flush_group"):
            self._flush_group_inner(values, obs_on)
        if obs_on:
            WRITER_FLUSH_SECONDS.observe(time.perf_counter() - flush_t0)

    def _flush_group_inner(
        self, values: dict[str, object], obs_on: bool
    ) -> None:
        opts = self._options
        storage = self._storage
        builder = self._builder
        stats = self.stats
        assert builder is not None and self._columns is not None
        values = self._quantize_group(values)
        n_rows = len(next(iter(values.values()))) if values else 0
        builder.begin_row_group()
        for c, column in enumerate(self._columns):
            col_values = values[column.name]
            _check_int_range(column, col_values)
            chunk_offset = storage.size
            first_page = builder.next_page_index
            if n_rows == 0:
                # explicit empty-group path: one empty page per column
                # keeps chunk/page indices well-formed for readers
                page_slices = [(0, 0)]
            else:
                page_slices = [
                    (pos, min(pos + opts.rows_per_page, n_rows))
                    for pos in range(0, n_rows, opts.rows_per_page)
                ]
            encoding = self._chunk_encoding(column, col_values)
            encodable = _to_encodable(col_values, column)
            pages = [encodable[lo:hi] for lo, hi in page_slices]
            t0 = time.perf_counter() if obs_on else 0.0
            blobs = self._encode_chunk(column, encoding, pages)
            if obs_on:
                WRITER_ENCODE_SECONDS.observe(time.perf_counter() - t0)
            # the chunk's encoded pages are held until its one append
            stats.peak_encoded_pages_held = max(
                stats.peak_encoded_pages_held, len(blobs)
            )
            stats.peak_encoded_payload_bytes = max(
                stats.peak_encoded_payload_bytes, sum(map(len, blobs))
            )
            framed = [
                frame_page(blob, hi - lo, opts.page_padding)
                for blob, (lo, hi) in zip(blobs, page_slices)
            ]
            offset = storage.append(b"".join(framed))
            for blob, page, (lo, hi) in zip(blobs, framed, page_slices):
                builder.add_page(
                    PageMeta(
                        offset=offset,
                        alloc_len=len(blob) + opts.page_padding,
                        n_values=hi - lo,
                    ),
                    hash_bytes(blob),
                )
                offset += len(page)
            stats.bump(pages_written=len(blobs))
            del blobs, framed  # nothing encoded survives the chunk
            # quantized payloads do not sort like the floats they hold
            # (a negative bf16 is a large uint16): zone maps take the
            # widened values, exactly what the row filter compares
            chunk_stats = (
                _numeric_chunk_stats(widen_quantized(col_values, column.type))
                if opts.collect_statistics
                else None
            )
            builder.add_chunk(
                c,
                ChunkMeta(
                    offset=chunk_offset,
                    size=storage.size - chunk_offset,
                    first_page=first_page,
                    n_pages=builder.next_page_index - first_page,
                ),
                chunk_stats,
            )
        builder.end_row_group(n_rows)
        stats.bump(groups_flushed=1)

    def _chunk_encoding(self, column: PhysicalColumn, col_values) -> Encoding:
        """The scheme for one column chunk, decided before its pages."""
        opts = self._options
        if column.name in opts.encodings:
            return opts.encodings[column.name]
        if opts.encoding_policy == "trivial":
            if column.type.list_depth > 0:
                return ListEncoding()
            return Trivial()
        if opts.encoding_policy != "cascade" or len(col_values) == 0:
            return default_encoding(column)
        sample = _to_encodable(take_sample(col_values), column)
        decided = self._cascade.get(column.name)
        if decided is not None and decided[1] == candidate_fingerprint(
            collect_stats(sample)
        ):
            return decided[0]
        return self._select(column, sample)

    def _encode_chunk(
        self, column: PhysicalColumn, encoding: Encoding, pages: list
    ) -> list[bytes]:
        """Self-describing blobs of a chunk's pages, one codec call."""
        try:
            payloads = encoding.encode_pages(pages)
        except EncodingError:
            if column.name not in self._cascade:
                raise
        else:
            return [bytes([encoding.id]) + payload for payload in payloads]
        # a reused cascade winner met a page it cannot hold (``Constant``
        # on a second value, ``Varint`` on a negative): page by page, it
        # decides again on the first such page, and the new winner goes on
        blobs = []
        for page in pages:
            try:
                blobs.append(encode_blob(page, encoding))
            except EncodingError:
                encoding = self._select(column, page)
                blobs.append(encode_blob(page, encoding))
        return blobs

    def _select(self, column: PhysicalColumn, values) -> Encoding:
        """Run the cascade selector; its winner is the column's decision."""
        result = choose_encoding(values)
        self._cascade[column.name] = (
            result.encoding,
            candidate_fingerprint(result.stats),
        )
        return result.encoding


def _check_int_range(column: PhysicalColumn, values) -> None:
    """Reject integers outside the column's storage type.

    The cast to storage would wrap them silently (``2**64 - 1`` reads
    back as -1 from int64, ``2**40`` as 0 from int32) while the zone
    map keeps the true value, so a metadata answer and a decoded one
    would differ. Only a dtype the storage type cannot hold pays for a
    min/max; a list column's rows are looked at for their dtype alone.
    """
    storage = np.dtype(STORAGE_DTYPES.get(column.type.primitive, object))
    if storage.kind != "i":  # quantized payloads, bools, floats, bytes
        return
    depth = column.type.list_depth
    if isinstance(values, RaggedColumn) or depth == 0:
        leaves = [getattr(values, "values", values)]
    else:
        leaves = values if depth == 1 else [x for row in values for x in row]
    if {getattr(leaf, "dtype", None) for leaf in leaves} <= {storage}:
        return
    info = np.iinfo(storage)
    for leaf in map(np.asarray, leaves):
        if leaf.dtype.kind not in "iuf" or leaf.size == 0:
            continue
        lo, hi = leaf.min().item(), leaf.max().item()
        if lo < info.min or hi > info.max:
            raise ValueError(
                f"column {column.name!r} holds {hi if hi > info.max else lo},"
                f" outside the {storage} range [{info.min}, {info.max}]"
            )


def _value_kind(values):
    """Comparable batch-consistency key: np dtype, or None for lists."""
    return values.dtype if isinstance(values, np.ndarray) else None


def _infer_from_fragments(fragments: list) -> PhysicalType:
    """Infer a column's physical type from its staged fragments.

    Array fragments are determined by dtype alone; list-kind fragments
    are ambiguous until one holds a non-empty probe value, so keep
    scanning and fall back to the last (empty-driven) guess only when
    no fragment resolves — the same answer the one-shot writer gives
    for an all-empty column.
    """
    from repro.core.table import infer_physical_type

    guess: PhysicalType | None = None
    for frag in fragments:
        if isinstance(frag, (np.ndarray, RaggedColumn)):
            return infer_physical_type(frag)
        if len(frag) == 0:
            continue
        guess = infer_physical_type(frag)
        if any(v is not None and len(v) for v in frag):
            return guess
    if guess is not None:
        return guess
    # nothing but empty fragments: match one-shot inference on empties
    probe = next((f for f in fragments if not isinstance(f, np.ndarray)), None)
    if probe is not None:
        return infer_physical_type(probe)
    return infer_physical_type(np.zeros(0, dtype=np.int64))


def _is_tf32(fmt) -> bool:
    from repro.quantization import FloatFormat

    return fmt == FloatFormat.TF32


def _quantized_column(column: PhysicalColumn, policy) -> PhysicalColumn:
    """Physical column after §2.4 narrowing (pure type mapping)."""
    if not _is_plain_float(column):
        return column
    from repro.quantization import FloatFormat

    fmt = policy.format_for(column.name)
    fmt_to_primitive = {fmt: p for p, fmt in QUANTIZED_FORMATS.items()} | {
        FloatFormat.FP64: Primitive.FLOAT64,
        FloatFormat.FP32: Primitive.FLOAT32,
        FloatFormat.TF32: Primitive.FLOAT32,  # stored in 32 bits
    }
    prim = fmt_to_primitive[fmt]
    if prim == column.type.primitive and fmt != FloatFormat.TF32:
        return column
    return PhysicalColumn(
        column.name, PhysicalType(prim, 0), column.source_field
    )


def _is_plain_float(column: PhysicalColumn) -> bool:
    return column.type.list_depth == 0 and column.type.primitive in (
        Primitive.FLOAT32,
        Primitive.FLOAT64,
    )


def _numeric_chunk_stats(values) -> ChunkStats | None:
    """min/max of a numeric depth-0 slice (None for other kinds).

    Only NaN is excluded from float stats — ±inf values are ordered
    and must widen the bounds, or a ``col >= t`` filter could prune a
    group whose only match is ``inf`` (a wrong result, not a missed
    skip). All-NaN and empty slices carry no stats; the interval
    evaluator conservatively keeps such chunks, and treats every float
    interval as possibly-NaN (stats never see NaN rows).
    """
    if not isinstance(values, np.ndarray) or len(values) == 0:
        return None
    if values.dtype == np.bool_ or not (
        np.issubdtype(values.dtype, np.integer)
        or np.issubdtype(values.dtype, np.floating)
    ):
        return None
    if np.issubdtype(values.dtype, np.floating):
        comparable = values[~np.isnan(values)]
        if len(comparable) == 0:
            return None
        return ChunkStats(float(comparable.min()), float(comparable.max()))
    return ChunkStats(float(values.min()), float(values.max()))


def _logical_for(column: PhysicalColumn):
    from repro.core.schema import LogicalType

    t = LogicalType.of(column.type.primitive)
    for _ in range(column.type.list_depth):
        t = LogicalType.list_(t)
    return t


def write_table(
    storage: Storage,
    table: Table,
    schema: Schema | None = None,
    **option_kwargs,
) -> FooterView:
    """Convenience wrapper: one-shot write with keyword options."""
    return BullionWriter(
        storage, schema, WriterOptions(**option_kwargs)
    ).write(table)
