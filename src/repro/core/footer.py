"""The Bullion footer: a flat, zero-deserialization binary layout.

Paper §2.3: "Bullion adopts a compact metadata layout that enables
direct metadata access from the footer, allowing for immediate buffer
value reads *without deserialization*. This binary format is reminiscent
of Cap'n Proto and FlatBuffers. To access columns in Bullion files, the
process begins with a pread() of the footer, followed by a binary map
scan to find column indices. Byte ranges for each column are identified
via an offsets array, followed by a targeted pread() for data
retrieval."

Concretely (all little-endian, offsets relative to footer start):

===========  ========================================================
header       magic, version, num_rows, num_cols, num_rgs, num_pages,
             compliance level, then 9 section (offset, length) pairs
colmap       num_cols x (u64 name_hash, u32 col_idx), sorted by hash
coldesc      num_cols x (u8 primitive, u8 list_depth, u16 flags,
             u32 encoding_hint)
chunkindex   col-major num_cols*num_rgs x (u64 offset, u64 size,
             u32 first_page, u32 n_pages)
pageindex    num_pages x (u64 offset, u32 alloc_len, u32 n_values)
rgindex      num_rgs x (u64 row_start, u32 n_rows, u32 first_page)
delvec       u32 n_deleted + row bitmap (paper: "metadata in the file
             footer to indicate which rows are marked for deletion")
checksums    num_pages leaf hashes + num_rgs group hashes + root (the
             Fig 2 Merkle tree, at fixed offsets for in-place update)
schema       names + logical types; ONLY touched when the full schema
             is requested — projection never parses it
===========  ========================================================

:class:`FooterView` answers column lookups with O(log n_cols) fixed-
offset ``struct.unpack_from`` probes and never materializes per-column
objects — this is what keeps Fig 5's Bullion line flat while the
Parquet-style footer (``repro.baseline``) deserializes everything.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass, field

import numpy as np

from repro.core.schema import (
    Field,
    LogicalType,
    PhysicalColumn,
    PhysicalType,
    Primitive,
    Schema,
)
from repro.util.bitio import ByteWriter
from repro.util.hashing import combine_hashes, hash64

MAGIC = b"BULN"
FOOTER_MAGIC = b"BFTR"
VERSION = 1

_HEADER_FMT = "<4sIQIIIB3x"
_HEADER_SIZE = struct.calcsize(_HEADER_FMT)  # 32
_N_SECTIONS = 9
_SECTION_FMT = "<" + "QQ" * _N_SECTIONS
_SECTION_SIZE = struct.calcsize(_SECTION_FMT)  # 144
HEADER_TOTAL = _HEADER_SIZE + _SECTION_SIZE

_COLMAP_FMT = "<QI"
_COLMAP_SIZE = struct.calcsize(_COLMAP_FMT)  # 12
_COLDESC_FMT = "<BBHI"
_COLDESC_SIZE = struct.calcsize(_COLDESC_FMT)  # 8
_CHUNK_FMT = "<QQII"
_CHUNK_SIZE = struct.calcsize(_CHUNK_FMT)  # 24
_PAGE_FMT = "<QII"
_PAGE_SIZE = struct.calcsize(_PAGE_FMT)  # 16
_RG_FMT = "<QII"
_RG_SIZE = struct.calcsize(_RG_FMT)  # 16

(
    SEC_COLMAP,
    SEC_COLDESC,
    SEC_CHUNKINDEX,
    SEC_PAGEINDEX,
    SEC_RGINDEX,
    SEC_DELVEC,
    SEC_CHECKSUMS,
    SEC_SCHEMA,
    SEC_STATS,
) = range(_N_SECTIONS)


@dataclass
class ChunkMeta:
    """One (column, row-group) data extent."""

    offset: int
    size: int
    first_page: int
    n_pages: int


@dataclass
class PageMeta:
    offset: int
    alloc_len: int
    n_values: int


@dataclass
class RowGroupMeta:
    row_start: int
    n_rows: int
    first_page: int


_STATS_FMT = "<Bxxxxxxxdd"  # has_stats flag (8-byte aligned), min, max
_STATS_SIZE = struct.calcsize(_STATS_FMT)  # 24


#: the index sections as numpy record types (:meth:`FooterView.table`)
CHUNK_DTYPE = np.dtype([("offset", "<u8"), ("size", "<u8"),
                        ("first_page", "<u4"), ("n_pages", "<u4")])
PAGE_DTYPE = np.dtype([("offset", "<u8"), ("alloc_len", "<u4"),
                       ("n_values", "<u4")])
RG_DTYPE = np.dtype([("row_start", "<u8"), ("n_rows", "<u4"),
                     ("first_page", "<u4")])
STATS_DTYPE = np.dtype([("has", "u1"), ("pad", "V7"), ("min", "<f8"),
                        ("max", "<f8")])


@dataclass(frozen=True)
class ChunkStats:
    """min/max of one (column, row-group) extent, for predicate pruning."""

    min_value: float
    max_value: float


@dataclass
class FooterData:
    """Everything the writer knows, pre-serialization."""

    num_rows: int
    compliance_level: int
    columns: list[PhysicalColumn]
    logical_fields: list[Field]
    chunks: dict[tuple[int, int], ChunkMeta]  # (col_idx, rg) -> meta
    pages: list[PageMeta]
    row_groups: list[RowGroupMeta]
    page_hashes: list[int]
    group_hashes: list[int]
    root_hash: int
    encoding_hints: list[int] = field(default_factory=list)
    #: optional (col_idx, rg) -> ChunkStats for numeric columns
    chunk_stats: dict[tuple[int, int], "ChunkStats"] = field(
        default_factory=dict
    )

    def serialize(self) -> bytes:
        num_cols = len(self.columns)
        num_rgs = len(self.row_groups)
        num_pages = len(self.pages)
        hints = self.encoding_hints or [0] * num_cols

        colmap = ByteWriter()
        entries = sorted(
            (hash64(col.name), idx) for idx, col in enumerate(self.columns)
        )
        for h, idx in entries:
            colmap.write(struct.pack(_COLMAP_FMT, h, idx))

        coldesc = ByteWriter()
        for idx, col in enumerate(self.columns):
            coldesc.write(
                struct.pack(
                    _COLDESC_FMT,
                    int(col.type.primitive),
                    col.type.list_depth,
                    0,
                    hints[idx],
                )
            )

        chunkindex = ByteWriter()
        for c in range(num_cols):
            for g in range(num_rgs):
                meta = self.chunks[(c, g)]
                chunkindex.write(
                    struct.pack(
                        _CHUNK_FMT,
                        meta.offset,
                        meta.size,
                        meta.first_page,
                        meta.n_pages,
                    )
                )

        pageindex = ByteWriter()
        for p in self.pages:
            pageindex.write(
                struct.pack(_PAGE_FMT, p.offset, p.alloc_len, p.n_values)
            )

        rgindex = ByteWriter()
        for rg in self.row_groups:
            rgindex.write(
                struct.pack(_RG_FMT, rg.row_start, rg.n_rows, rg.first_page)
            )

        delvec = ByteWriter()
        delvec.write_u32(0)  # deleted-row count
        delvec.write(b"\x00" * ((self.num_rows + 7) // 8))

        checks = ByteWriter()
        for h in self.page_hashes:
            checks.write_u64(h)
        for h in self.group_hashes:
            checks.write_u64(h)
        checks.write_u64(self.root_hash)

        schema = ByteWriter()
        schema.write_u32(len(self.logical_fields))
        for f in self.logical_fields:
            name = f.name.encode()
            type_str = str(f.type).encode()
            schema.write_u16(len(name))
            schema.write(name)
            schema.write_u16(len(type_str))
            schema.write(type_str)
        schema.write_u32(num_cols)
        for col in self.columns:
            name = col.name.encode()
            schema.write_u16(len(name))
            schema.write(name)
            schema.write_u8(int(col.type.primitive))
            schema.write_u8(col.type.list_depth)
            src = col.source_field.encode()
            schema.write_u16(len(src))
            schema.write(src)

        stats = ByteWriter()
        if self.chunk_stats:
            for c in range(num_cols):
                for g in range(num_rgs):
                    entry = self.chunk_stats.get((c, g))
                    if entry is None:
                        stats.write(struct.pack(_STATS_FMT, 0, 0.0, 0.0))
                    else:
                        stats.write(
                            struct.pack(
                                _STATS_FMT, 1, entry.min_value, entry.max_value
                            )
                        )

        sections = [
            colmap.getvalue(),
            coldesc.getvalue(),
            chunkindex.getvalue(),
            pageindex.getvalue(),
            rgindex.getvalue(),
            delvec.getvalue(),
            checks.getvalue(),
            schema.getvalue(),
            stats.getvalue(),
        ]
        offsets = []
        pos = HEADER_TOTAL
        for sec in sections:
            offsets.append((pos, len(sec)))
            pos += len(sec)
        header = struct.pack(
            _HEADER_FMT,
            FOOTER_MAGIC,
            VERSION,
            self.num_rows,
            num_cols,
            num_rgs,
            num_pages,
            self.compliance_level,
        )
        header += struct.pack(
            _SECTION_FMT, *(x for pair in offsets for x in pair)
        )
        return header + b"".join(sections)


class FooterError(ValueError):
    """Raised on malformed or corrupt footers."""


class FooterBuilder:
    """Incremental footer assembly for the streaming writer.

    The one-shot writer used to accumulate every ``PageMeta`` and page
    payload before building the Merkle tree and ``FooterData`` in one
    go. The builder instead ingests metadata group by group: page
    *hashes* (never payloads) accumulate as Merkle leaves, each group's
    node hash is folded as the group closes, and :meth:`finish` derives
    the root and emits ``FooterData`` — so a writer's live state is
    O(metadata), not O(data).
    """

    def __init__(self, compliance_level: int) -> None:
        self.compliance_level = compliance_level
        self.pages: list[PageMeta] = []
        self.page_hashes: list[int] = []
        self.group_hashes: list[int] = []
        self.row_groups: list[RowGroupMeta] = []
        self.chunks: dict[tuple[int, int], ChunkMeta] = {}
        self.chunk_stats: dict[tuple[int, int], ChunkStats] = {}
        self.num_rows = 0
        self._group_first_page: int | None = None

    @property
    def num_groups(self) -> int:
        return len(self.row_groups)

    @property
    def next_page_index(self) -> int:
        return len(self.pages)

    def begin_row_group(self) -> int:
        """Open the next row group; returns its starting row."""
        if self._group_first_page is not None:
            raise FooterError("previous row group not closed")
        self._group_first_page = len(self.pages)
        return self.num_rows

    def add_page(self, meta: PageMeta, payload_hash: int) -> None:
        if self._group_first_page is None:
            raise FooterError("add_page outside a row group")
        self.pages.append(meta)
        self.page_hashes.append(payload_hash)

    def add_chunk(
        self,
        col_idx: int,
        meta: ChunkMeta,
        stats: ChunkStats | None = None,
    ) -> None:
        if self._group_first_page is None:
            raise FooterError("add_chunk outside a row group")
        g = len(self.row_groups)
        self.chunks[(col_idx, g)] = meta
        if stats is not None:
            self.chunk_stats[(col_idx, g)] = stats

    def end_row_group(self, n_rows: int) -> None:
        first = self._group_first_page
        if first is None:
            raise FooterError("no row group open")
        self.row_groups.append(RowGroupMeta(self.num_rows, n_rows, first))
        self.group_hashes.append(combine_hashes(self.page_hashes[first:]))
        self.num_rows += n_rows
        self._group_first_page = None

    def finish(
        self,
        columns: list[PhysicalColumn],
        logical_fields: list[Field],
    ) -> FooterData:
        if self._group_first_page is not None:
            raise FooterError("row group still open at finish")
        return FooterData(
            num_rows=self.num_rows,
            compliance_level=self.compliance_level,
            columns=columns,
            logical_fields=logical_fields,
            chunks=self.chunks,
            pages=self.pages,
            row_groups=self.row_groups,
            page_hashes=self.page_hashes,
            group_hashes=self.group_hashes,
            root_hash=combine_hashes(self.group_hashes),
            chunk_stats=self.chunk_stats,
        )


@functools.cache
def _physical_type(prim: int, depth: int) -> PhysicalType:
    """One shared instance per type: equal types compare by identity."""
    return PhysicalType(Primitive(prim), depth)


class FooterView:
    """Lazy, probe-based view over serialized footer bytes.

    Construction parses only the fixed 176-byte header. Every other
    answer is a fixed-offset ``struct.unpack_from`` — the "immediate
    buffer value reads without deserialization" of §2.3.
    """

    def __init__(self, data: bytes, file_offset: int = 0) -> None:
        if len(data) < HEADER_TOTAL:
            raise FooterError(f"footer too small ({len(data)} bytes)")
        (
            magic,
            version,
            self.num_rows,
            self.num_columns,
            self.num_row_groups,
            self.num_pages,
            self.compliance_level,
        ) = struct.unpack_from(_HEADER_FMT, data, 0)
        if magic != FOOTER_MAGIC:
            raise FooterError(f"bad footer magic {magic!r}")
        if version != VERSION:
            raise FooterError(f"unsupported footer version {version}")
        sections = struct.unpack_from(_SECTION_FMT, data, _HEADER_SIZE)
        self._sections = [
            (sections[2 * i], sections[2 * i + 1]) for i in range(_N_SECTIONS)
        ]
        self._data = data
        self.file_offset = file_offset

    # -- column lookup (the Fig 5 hot path) ----------------------------
    def find_column(self, name: str) -> int:
        """Binary-search the sorted hash map; O(log n) probes."""
        target = hash64(name)
        base, _length = self._sections[SEC_COLMAP]
        lo, hi = 0, self.num_columns
        while lo < hi:
            mid = (lo + hi) // 2
            h = struct.unpack_from("<Q", self._data, base + mid * _COLMAP_SIZE)[0]
            if h < target:
                lo = mid + 1
            else:
                hi = mid
        while lo < self.num_columns:
            h, idx = struct.unpack_from(
                _COLMAP_FMT, self._data, base + lo * _COLMAP_SIZE
            )
            if h != target:
                break
            return idx  # hash collisions are resolved by the caller rarely
        raise KeyError(f"column {name!r} not in file")

    def column_type(self, col_idx: int) -> PhysicalType:
        base, _ = self._sections[SEC_COLDESC]
        prim, depth, _flags, _hint = struct.unpack_from(
            _COLDESC_FMT, self._data, base + col_idx * _COLDESC_SIZE
        )
        return _physical_type(prim, depth)

    def chunk(self, col_idx: int, rg: int) -> ChunkMeta:
        base, _ = self._sections[SEC_CHUNKINDEX]
        pos = base + (col_idx * self.num_row_groups + rg) * _CHUNK_SIZE
        offset, size, first_page, n_pages = struct.unpack_from(
            _CHUNK_FMT, self._data, pos
        )
        return ChunkMeta(offset, size, first_page, n_pages)

    def table(self, section: int, dtype: np.dtype) -> np.ndarray:
        """One fixed-width index section as a record array over the
        footer bytes (no copy); empty when the section is."""
        base, length = self._sections[section]
        return np.frombuffer(
            self._data, dtype=dtype, count=length // dtype.itemsize,
            offset=base,
        )

    def page(self, page_id: int) -> PageMeta:
        base, _ = self._sections[SEC_PAGEINDEX]
        offset, alloc_len, n_values = struct.unpack_from(
            _PAGE_FMT, self._data, base + page_id * _PAGE_SIZE
        )
        return PageMeta(offset, alloc_len, n_values)

    def page_counts(self, first: int, n: int) -> list[int]:
        """``n_values`` of ``n`` pages from ``first``, in one read."""
        start = self._sections[SEC_PAGEINDEX][0] + first * _PAGE_SIZE
        entries = self._data[start : start + n * _PAGE_SIZE]
        return [count for _o, _a, count in struct.iter_unpack(_PAGE_FMT, entries)]

    def row_group(self, rg: int) -> RowGroupMeta:
        base, _ = self._sections[SEC_RGINDEX]
        row_start, n_rows, first_page = struct.unpack_from(
            _RG_FMT, self._data, base + rg * _RG_SIZE
        )
        return RowGroupMeta(row_start, n_rows, first_page)

    def pages_per_group(self) -> list[int]:
        counts = []
        for g in range(self.num_row_groups):
            start = self.row_group(g).first_page
            end = (
                self.row_group(g + 1).first_page
                if g + 1 < self.num_row_groups
                else self.num_pages
            )
            counts.append(end - start)
        return counts

    def chunk_stats(self, col_idx: int, rg: int) -> "ChunkStats | None":
        """Per-chunk min/max for predicate pruning (None when absent)."""
        base, length = self._sections[SEC_STATS]
        if length == 0:
            return None
        pos = base + (col_idx * self.num_row_groups + rg) * _STATS_SIZE
        has_stats, min_value, max_value = struct.unpack_from(
            _STATS_FMT, self._data, pos
        )
        if not has_stats:
            return None
        return ChunkStats(min_value, max_value)

    def column_stats_range(self, col_idx: int) -> "ChunkStats | None":
        """File-level [min, max] of one column, folded over its chunks.

        The aggregation writers publish into catalog manifests for
        file-level pruning. Chunks without stats are skipped: for a
        numeric column those are empty or all-NaN chunks, and NaN rows
        are already outside every interval (the evaluator's
        ``maybe_nan`` handles them). Returns ``None`` when no chunk
        carries stats — such a file is never pruned.
        """
        found: ChunkStats | None = None
        for g in range(self.num_row_groups):
            stats = self.chunk_stats(col_idx, g)
            if stats is None:
                continue
            if found is None:
                found = stats
            else:
                found = ChunkStats(
                    min(found.min_value, stats.min_value),
                    max(found.max_value, stats.max_value),
                )
        return found

    # -- deletion vector ------------------------------------------------
    def deleted_count(self) -> int:
        base, _ = self._sections[SEC_DELVEC]
        return struct.unpack_from("<I", self._data, base)[0]

    def deletion_bitmap(self):
        """Boolean array over all rows (numpy-unpacked once)."""
        base, length = self._sections[SEC_DELVEC]
        raw = self._data[base + 4 : base + length]
        bits = np.unpackbits(
            np.frombuffer(raw, dtype=np.uint8), bitorder="little"
        )
        return bits[: self.num_rows].astype(np.bool_)

    def delvec_file_range(self) -> tuple[int, int]:
        """Absolute device byte range of the deletion-vector section."""
        base, length = self._sections[SEC_DELVEC]
        return self.file_offset + base, length

    # -- checksums (Merkle tree, fixed offsets) -------------------------
    def page_hash(self, page_id: int) -> int:
        base, _ = self._sections[SEC_CHECKSUMS]
        return struct.unpack_from("<Q", self._data, base + page_id * 8)[0]

    def group_hash(self, rg: int) -> int:
        base, _ = self._sections[SEC_CHECKSUMS]
        pos = base + (self.num_pages + rg) * 8
        return struct.unpack_from("<Q", self._data, pos)[0]

    def root_hash(self) -> int:
        base, _ = self._sections[SEC_CHECKSUMS]
        pos = base + (self.num_pages + self.num_row_groups) * 8
        return struct.unpack_from("<Q", self._data, pos)[0]

    def checksum_file_offsets(self) -> tuple[int, int, int]:
        """(pages_base, groups_base, root) absolute device offsets."""
        base, _ = self._sections[SEC_CHECKSUMS]
        pages_base = self.file_offset + base
        groups_base = pages_base + self.num_pages * 8
        root = groups_base + self.num_row_groups * 8
        return pages_base, groups_base, root

    # -- schema (cold path; parsed only on request) ----------------------
    def schema(self) -> Schema:
        base, _ = self._sections[SEC_SCHEMA]
        pos = base
        (n_fields,) = struct.unpack_from("<I", self._data, pos)
        pos += 4
        fields = []
        for _ in range(n_fields):
            (name_len,) = struct.unpack_from("<H", self._data, pos)
            pos += 2
            name = self._data[pos : pos + name_len].decode()
            pos += name_len
            (type_len,) = struct.unpack_from("<H", self._data, pos)
            pos += 2
            type_str = self._data[pos : pos + type_len].decode()
            pos += type_len
            fields.append(Field(name, LogicalType.parse(type_str)))
        return Schema(fields)

    def schema_fingerprint(self) -> int:
        """Order-sensitive 64-bit fingerprint of the physical layout.

        Two files share a fingerprint iff they have the same physical
        columns, in the same order, with the same types — the catalog's
        manifest-level compatibility check for append/merge.
        """
        desc = ";".join(
            f"{c.name}:{c.type}" for c in self.physical_columns()
        )
        return hash64(desc)

    def physical_columns(self) -> list[PhysicalColumn]:
        base, _ = self._sections[SEC_SCHEMA]
        pos = base
        (n_fields,) = struct.unpack_from("<I", self._data, pos)
        pos += 4
        for _ in range(n_fields):  # skip logical fields
            (name_len,) = struct.unpack_from("<H", self._data, pos)
            pos += 2 + name_len
            (type_len,) = struct.unpack_from("<H", self._data, pos)
            pos += 2 + type_len
        (n_cols,) = struct.unpack_from("<I", self._data, pos)
        pos += 4
        out = []
        for _ in range(n_cols):
            (name_len,) = struct.unpack_from("<H", self._data, pos)
            pos += 2
            name = self._data[pos : pos + name_len].decode()
            pos += name_len
            prim = self._data[pos]
            depth = self._data[pos + 1]
            pos += 2
            (src_len,) = struct.unpack_from("<H", self._data, pos)
            pos += 2
            src = self._data[pos : pos + src_len].decode()
            pos += src_len
            out.append(
                PhysicalColumn(name, PhysicalType(Primitive(prim), depth), src)
            )
        return out
