"""Deletion compliance: the paper's hybrid in-place + vector scheme.

§2.1: "Bullion introduces a hybrid approach ... It performs in-place
updates to physically remove data, yet also uses deletion vectors to
efficiently indicate which rows have had this update performed to them
... This process must adhere to a key criterion: the post-update page
dimensions do not exceed their initial size."

Per-encoding maskers (exactly the paper's five cases):

* **Bit-packed / fixed width** — "Since the encoded values have a fixed
  size, it is straightforward to map bits in a bitmap to the encoded
  data elements, in order to mask deleted data": the slot's bits are
  zeroed in place, no decode.
* **Varint** — "it suffices to retain the MSB (continuation bit) of
  each byte unchanged, while masking out the remaining 7 bits": byte
  stream length and alignment preserved.
* **RLE** — "directly masking deleted elements is insufficient as it
  may lead to enlarged data post-re-encoding ... Instead, a deletion
  vector can be used": survivors are re-encoded compactly (provably no
  larger) and the vector restores alignment at read time.
* **Dictionary** — "a default mask value entry within the dictionary,
  enabling efficient deletion by simply updating the integer code in
  the data pages to reference this mask entry": codes are rewritten to
  the reserved ``MASK_CODE`` slot.
* **FOR-delta and nested schemes** — generic decode/mask/re-encode that
  replaces deleted values with a neighbour (delta 0 / offset base), so
  the re-encoded page cannot grow; falls back to vector-only if an
  exotic cascade would.

Compliance levels (§2.1): 0 = plain rewrite-the-file; 1 = deletion
vector only; 2 = vector + in-place scrub + incremental Merkle update.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from repro.core.chunk_cache import notify_mutation
from repro.core.compact import check_row_ids, rewrite
from repro.core.footer import FooterView
from repro.core.page import FLAG_COMPACTED, PAGE_HEADER_SIZE, PageHeader
from repro.core.reader import BullionReader
from repro.core.writer import (
    LEVEL_DELETION_VECTOR,
    LEVEL_IN_PLACE,
    LEVEL_PLAIN,
    WriterOptions,
)
from repro.encodings import decode_blob, encoding_by_id
from repro.encodings.base import ByteReader, RaggedColumn
from repro.encodings.bitpack import FixedBitWidth
from repro.encodings.dictionary import MASK_CODE, Dictionary
from repro.encodings.nullable import SparseBool
from repro.encodings.rle import RLE
from repro.encodings.roaring import Roaring
from repro.encodings.trivial import Trivial
from repro.encodings.varint_enc import Varint
from repro.iosim import Storage
from repro.util.bitio import set_packed_values
from repro.util.hashing import combine_hashes, hash_bytes

_TRIVIAL_TAG_INT = 0
_TRIVIAL_TAG_FLOAT = 1
_TRIVIAL_TAG_BYTES = 2
_TRIVIAL_TAG_BOOL = 3


@dataclass
class MaskResult:
    """Outcome of masking one page."""

    payload: bytes
    n_values: int  # values now stored in the page
    compacted: bool = False


class MaskError(Exception):
    """In-place masking impossible; caller falls back to vector-only."""


# ---------------------------------------------------------------------------
# per-encoding maskers: (payload, positions, prev_deleted_mask) -> MaskResult
# `positions` are indices among the *stored* slots of the page.
# ---------------------------------------------------------------------------

def _mask_trivial(payload: bytes, positions: np.ndarray, _prev) -> MaskResult:
    buf = bytearray(payload)
    tag = buf[1]
    # layout: id u8 | tag u8 | [float dtype u8] | count u64 | slots
    if tag == _TRIVIAL_TAG_FLOAT:
        base, itemsize = 3 + 8, {0: 8, 1: 4, 2: 2}[buf[2]]
    elif tag in (_TRIVIAL_TAG_INT, _TRIVIAL_TAG_BOOL, _TRIVIAL_TAG_BYTES):
        base, itemsize = 2 + 8, 8 if tag == _TRIVIAL_TAG_INT else 1
    else:
        raise MaskError(f"unknown trivial tag {tag}")
    (count,) = struct.unpack_from("<Q", buf, base - 8)
    if tag == _TRIVIAL_TAG_BYTES:
        lengths = np.frombuffer(
            bytes(buf[base : base + 4 * count]), dtype=np.uint32
        )
        data_base = base + 4 * count
        starts = data_base + np.concatenate(
            ([0], np.cumsum(lengths.astype(np.int64))[:-1])
        )
        for idx in positions:
            s = int(starts[idx])
            buf[s : s + int(lengths[idx])] = b"\x00" * int(lengths[idx])
    else:
        slots = np.frombuffer(buf, np.uint8, count * itemsize, base)
        slots.reshape(count, itemsize)[positions] = 0
    return MaskResult(bytes(buf), count)


def _mask_fixed_bit_width(payload: bytes, positions: np.ndarray, _prev) -> MaskResult:
    buf = bytearray(payload)
    # layout: id u8 | base i64 | width u8 | count u64 | packed bits
    width = buf[9]
    (count,) = struct.unpack_from("<Q", buf, 10)
    packed_off = 1 + 8 + 1 + 8
    packed = buf[packed_off:]
    set_packed_values(packed, positions, width, 0)
    buf[packed_off:] = packed
    return MaskResult(bytes(buf), count)


def _mask_varint(payload: bytes, positions: np.ndarray, _prev) -> MaskResult:
    buf = bytearray(payload)
    (count,) = struct.unpack_from("<Q", buf, 1)
    stream_off = 1 + 8
    raw = np.frombuffer(bytes(buf[stream_off:]), dtype=np.uint8)
    term = np.flatnonzero((raw & 0x80) == 0)
    if len(term) < count:
        raise MaskError("corrupt varint stream")
    ends = term[:count] + 1
    starts = np.concatenate(([0], ends[:-1]))
    for idx in positions:
        s, e = int(starts[idx]), int(ends[idx])
        for b in range(s, e):
            buf[stream_off + b] &= 0x80  # keep MSB, zero 7-bit payload
    return MaskResult(bytes(buf), count)


def _mask_dictionary(payload: bytes, positions: np.ndarray, _prev) -> MaskResult:
    # layout: id u8 | tag u8 | dict blob (u32 len) | codes blob (u32 len)
    reader = ByteReader(payload, offset=2)
    dict_len = reader.read_u32()
    reader.read(dict_len)
    codes_len_off = reader.pos
    codes_len = reader.read_u32()
    codes_off = reader.pos
    codes_blob = payload[codes_off : codes_off + codes_len]
    if codes_blob[0] != FixedBitWidth.id:
        raise MaskError("dictionary codes not bit-packed; cannot mask in place")
    buf = bytearray(codes_blob)
    base = struct.unpack_from("<q", buf, 1)[0]
    width = buf[9]
    (count,) = struct.unpack_from("<Q", buf, 10)
    target = MASK_CODE - base
    if target < 0 or (width and target >= (1 << width)) or (width == 0 and target != 0):
        raise MaskError("mask code not representable at this bit width")
    packed_off = 1 + 8 + 1 + 8
    packed = buf[packed_off:]
    set_packed_values(packed, positions, width, target)
    buf[packed_off:] = packed
    out = bytearray(payload)
    out[codes_off : codes_off + codes_len] = buf
    return MaskResult(bytes(out), count)


def _mask_rle(payload: bytes, positions: np.ndarray, prev_deleted) -> MaskResult:
    values = decode_blob(payload)
    keep = np.ones(len(values), dtype=np.bool_)
    keep[positions] = False
    survivors = values[keep]
    new_payload = _reencode_same(payload, survivors)
    if len(new_payload) > len(payload):
        raise MaskError("re-encoded RLE page grew (pathological)")
    return MaskResult(new_payload, len(survivors), compacted=True)


def _mask_generic(payload: bytes, positions: np.ndarray, _prev) -> MaskResult:
    """Decode, overwrite deleted slots with a neighbour value, re-encode.

    Using the previous surviving value keeps deltas at zero and FOR
    offsets within the block's existing range, so the page cannot grow
    for the delta-family encodings.
    """
    values = decode_blob(payload)
    if isinstance(values, (list, RaggedColumn)):
        # list column page: scrub by replacing deleted rows with empties
        if isinstance(values, RaggedColumn):
            lens = values.lens.copy()
            lens[positions] = 0
            out_rows = RaggedColumn(values.values, values.starts, lens)
        else:  # bytes, list<bytes>, list<list<int>>
            out_rows = list(values)
            for p in positions:
                item = out_rows[int(p)]
                out_rows[int(p)] = (
                    b"" if isinstance(item, (bytes, bytearray)) else []
                )
        new_payload = _reencode_same(payload, out_rows)
        if len(new_payload) > len(payload):
            raise MaskError("list page re-encode grew the page")
        return MaskResult(new_payload, len(out_rows))
    if not isinstance(values, np.ndarray):
        raise MaskError("generic masking requires array or list values")
    # one forward fill: each slot takes the index of the last survivor
    # at or before it; a deleted prefix takes the first survivor
    keep = np.ones(len(values), dtype=np.bool_)
    keep[positions] = False
    donor = np.maximum.accumulate(np.where(keep, np.arange(len(values)), -1))
    if keep.any():
        donor[donor < 0] = np.argmax(keep)
        out = values[donor]
    else:
        out = np.zeros_like(values)
    new_payload = _reencode_same(payload, out)
    if len(new_payload) > len(payload):
        raise MaskError("generic re-encode grew the page")
    return MaskResult(new_payload, len(out))


def _reencode_same(payload: bytes, values) -> bytes:
    """Re-encode with the same top-level scheme (default parameters)."""
    cls = encoding_by_id(payload[0])
    return bytes([cls.id]) + cls().encode(values)


def _mask_bool(payload: bytes, positions: np.ndarray, _prev) -> MaskResult:
    """Mask boolean pages by clearing bits — provably never grows.

    In positions mode, removing set bits shortens the delta-varint
    stream (varint(a+b) <= varint(a) + varint(b)); in bitmap mode the
    size is fixed.
    """
    values = decode_blob(payload)
    out = values.copy()
    out[positions] = False
    new_payload = _reencode_same(payload, out)
    if len(new_payload) > len(payload):
        raise MaskError("bool page re-encode grew (unexpected)")
    return MaskResult(new_payload, len(out))


_MASKERS = {
    Trivial.id: _mask_trivial,
    FixedBitWidth.id: _mask_fixed_bit_width,
    Varint.id: _mask_varint,
    Dictionary.id: _mask_dictionary,
    RLE.id: _mask_rle,
    SparseBool.id: _mask_bool,
    Roaring.id: _mask_bool,
}


def mask_page_payload(
    payload: bytes, positions: np.ndarray, prev_deleted: np.ndarray | None = None
) -> MaskResult:
    """Scrub ``positions`` (stored-slot indices) from an encoded page."""
    masker = _MASKERS.get(payload[0], _mask_generic)
    return masker(payload, np.asarray(positions, dtype=np.int64), prev_deleted)


# ---------------------------------------------------------------------------
# file-level deletion
# ---------------------------------------------------------------------------

@dataclass
class DeletionReport:
    """What one delete_rows call touched (the §2.1 cost accounting)."""

    rows_deleted: int
    pages_rewritten: int = 0
    pages_vector_only: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    merkle_nodes_recomputed: int = 0
    fallbacks: list[str] = field(default_factory=list)


def delete_rows(
    storage: Storage,
    rows,
    level: int | None = None,
) -> DeletionReport:
    """Compliantly delete global row ids from a Bullion file in place.

    Level 2 reads and rewrites only the affected pages plus the footer's
    deletion-vector and checksum words — never the whole file.
    """
    rows = np.unique(np.asarray(list(rows), dtype=np.int64))
    read0 = storage.stats.bytes_read
    written0 = storage.stats.bytes_written
    reader = BullionReader(storage)
    footer = reader.footer
    if level is None:
        level = footer.compliance_level
    check_row_ids(rows, footer.num_rows)
    if level == LEVEL_PLAIN:
        raise ValueError(
            "compliance level 0 files have no deletion support; "
            "use rewrite_without_rows() (full rewrite) instead"
        )
    report = DeletionReport(rows_deleted=len(rows))

    prev_bitmap = footer.deletion_bitmap()
    new_bitmap = prev_bitmap.copy()
    new_bitmap[rows] = True

    # 1. persist the deletion vector (levels 1 and 2)
    delvec_off, delvec_len = footer.delvec_file_range()
    packed = np.packbits(new_bitmap, bitorder="little").tobytes()
    payload = struct.pack("<I", int(new_bitmap.sum())) + packed
    payload = payload.ljust(delvec_len, b"\x00")[:delvec_len]
    storage.pwrite(delvec_off, payload)

    if level == LEVEL_DELETION_VECTOR:
        report.bytes_read = storage.stats.bytes_read - read0
        report.bytes_written = storage.stats.bytes_written - written0
        notify_mutation(storage)
        return report

    # 2. in-place scrub of every affected page (all columns of the rows)
    changed_leaves: dict[int, int] = {}
    for g in range(footer.num_row_groups):
        rg = footer.row_group(g)
        in_rg = rows[(rows >= rg.row_start) & (rows < rg.row_start + rg.n_rows)]
        if len(in_rg) == 0:
            continue
        local_rows = in_rg - rg.row_start
        for col_idx in range(footer.num_columns):
            chunk = footer.chunk(col_idx, g)
            page_row = 0
            for pid in range(chunk.first_page, chunk.first_page + chunk.n_pages):
                meta = footer.page(pid)
                page_rows = local_rows[
                    (local_rows >= page_row)
                    & (local_rows < page_row + meta.n_values)
                ]
                if len(page_rows) == 0:
                    page_row += meta.n_values
                    continue
                local = page_rows - page_row
                global_start = rg.row_start + page_row
                prev_local = prev_bitmap[
                    global_start : global_start + meta.n_values
                ]
                # translate row index -> stored slot index (compacted pages)
                raw = storage.pread(meta.offset, PAGE_HEADER_SIZE + meta.alloc_len)
                header = PageHeader.unpack(raw)
                page_payload = raw[
                    PAGE_HEADER_SIZE : PAGE_HEADER_SIZE + header.payload_len
                ]
                if header.n_values != meta.n_values:
                    kept_rows = np.flatnonzero(~prev_local)
                    slot_of = {int(r): s for s, r in enumerate(kept_rows)}
                    slots = np.array(
                        [slot_of[int(r)] for r in local if int(r) in slot_of],
                        dtype=np.int64,
                    )
                else:
                    fresh = ~prev_local[local]
                    slots = local[fresh]
                if len(slots) == 0:
                    page_row += meta.n_values
                    continue
                try:
                    result = mask_page_payload(page_payload, slots, prev_local)
                except MaskError as exc:
                    report.pages_vector_only += 1
                    report.fallbacks.append(f"page {pid}: {exc}")
                    page_row += meta.n_values
                    continue
                if len(result.payload) > meta.alloc_len:
                    report.pages_vector_only += 1
                    report.fallbacks.append(
                        f"page {pid}: masked payload exceeds allocation"
                    )
                    page_row += meta.n_values
                    continue
                new_header = PageHeader(
                    alloc_len=meta.alloc_len,
                    payload_len=len(result.payload),
                    n_values=result.n_values,
                    flags=header.flags
                    | (FLAG_COMPACTED if result.compacted else 0),
                )
                framed = (
                    new_header.pack()
                    + result.payload
                    + b"\x00" * (meta.alloc_len - len(result.payload))
                )
                storage.pwrite(meta.offset, framed)
                changed_leaves[pid] = hash_bytes(result.payload)
                report.pages_rewritten += 1
                page_row += meta.n_values

    # 3. incremental Merkle maintenance (Fig 2)
    if changed_leaves:
        pages_base, groups_base, root_off = footer.checksum_file_offsets()
        leaf = {
            pid: footer.page_hash(pid) for pid in range(footer.num_pages)
        }
        leaf.update(changed_leaves)
        for pid, h in changed_leaves.items():
            storage.pwrite(pages_base + pid * 8, struct.pack("<Q", h))
        ppg = footer.pages_per_group()
        group_hashes = []
        start = 0
        touched_groups = set()
        for pid in changed_leaves:
            pos = 0
            for g, count in enumerate(ppg):
                if pid < pos + count:
                    touched_groups.add(g)
                    break
                pos += count
        for g, count in enumerate(ppg):
            if g in touched_groups:
                h = combine_hashes([leaf[p] for p in range(start, start + count)])
            else:
                h = footer.group_hash(g)
            group_hashes.append(h)
            start += count
        for g in touched_groups:
            storage.pwrite(groups_base + g * 8, struct.pack("<Q", group_hashes[g]))
        root = combine_hashes(group_hashes)
        storage.pwrite(root_off, struct.pack("<Q", root))
        report.merkle_nodes_recomputed = (
            len(changed_leaves) + len(touched_groups) + 1
        )

    report.bytes_read = storage.stats.bytes_read - read0
    report.bytes_written = storage.stats.bytes_written - written0
    # the file's bytes (and footer fingerprint) just changed under any
    # process-wide chunk cache: reclaim the orphaned entries promptly
    notify_mutation(storage)
    return report


def rewrite_without_rows(
    storage: Storage, rows, target: Storage
) -> DeletionReport:
    """Level-0 baseline: read everything, rewrite the whole file.

    This is the "delete requests causing rewriting of hundreds of
    petabytes per month" path the paper's hybrid scheme displaces; the
    deletion-compliance benchmark compares its I/O against
    :func:`delete_rows`. It runs compaction's rewrite loop, so rows
    already deleted stay gone and quantized columns keep their layout.
    """
    rows = np.unique(np.asarray(list(rows), dtype=np.int64))
    read0 = storage.stats.bytes_read
    options = WriterOptions(compliance_level=LEVEL_PLAIN)
    rewrite([storage], target, options, drop=rows)
    return DeletionReport(
        rows_deleted=len(rows),
        bytes_read=storage.stats.bytes_read - read0,
        bytes_written=target.stats.bytes_written,
    )
