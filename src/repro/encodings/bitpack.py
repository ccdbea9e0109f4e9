"""FixedBitWidth encoding: uniform-width bit packing.

"Compresses integer data using a uniform bit width for all values,
optimized for cases with known value ranges" (Table 2). We store the
column minimum as a base so signed/offset data packs tightly; with
``base == 0`` the layout degenerates to classic bit-packing, and the
deletion path can scrub a single slot in place because every slot has
the same fixed width (paper §2.1, "Bit-Packed Encoding").
"""

from __future__ import annotations

import struct

import numpy as np

from repro.encodings.base import Encoding, Kind, as_int64, register
from repro.util.bitio import (
    ByteReader,
    pack_bits_rows,
    unpack_bits_rows,
)

#: page header: base i64, width u8, count u64
_HEADER = struct.Struct("<qBQ")


@register
class FixedBitWidth(Encoding):
    """Bit-pack int64 values as ``width``-bit offsets from a base."""

    id = 1
    name = "fixed_bit_width"
    kinds = frozenset({Kind.INT})

    def __init__(self, fixed_base: int | None = None) -> None:
        """``fixed_base`` pins the subtracted base (e.g. 0 so that the
        dictionary mask code 0 stays representable for in-place deletes).
        """
        self._fixed_base = fixed_base

    def encode(self, values) -> bytes:
        return self.encode_pages([values])[0]

    def encode_pages(self, pages) -> list[bytes]:
        """Pages of one length — all full pages of a chunk — stack into
        one ``(k, rows)`` block: each page's base is its row minimum,
        its width the bit length of its row maximum, and one kernel run
        packs every page of a width. A short last page is a block of
        one.
        """
        out: list = [None] * len(pages)
        by_length: dict[int, list[int]] = {}
        for i, page in enumerate(pages):
            by_length.setdefault(len(page), []).append(i)
        for count, index in by_length.items():
            block = as_int64(np.array([pages[i] for i in index]))
            if count == 0:
                for i in index:
                    out[i] = _HEADER.pack(self._fixed_base or 0, 0, 0)
                continue
            bases = block.min(axis=1)
            if self._fixed_base is not None:
                if int(bases.min()) < self._fixed_base:
                    raise ValueError(
                        f"values below fixed base {self._fixed_base} cannot "
                        "be bit-packed"
                    )
                bases[:] = self._fixed_base
            offsets = (block - bases[:, None]).astype(np.uint64)
            bases = bases.tolist()
            # a handful of pages: plain ints group them faster than numpy
            by_width: dict[int, list[int]] = {}
            for row, high in enumerate(offsets.max(axis=1).tolist()):
                by_width.setdefault(high.bit_length(), []).append(row)
            for width, rows in by_width.items():
                packed = pack_bits_rows(
                    offsets if len(rows) == len(index) else offsets[rows], width
                )
                for row, bits in zip(rows, packed):
                    header = _HEADER.pack(bases[row], width, count)
                    out[index[row]] = header + bits.tobytes()
        return out

    @classmethod
    def decode(cls, reader: ByteReader) -> np.ndarray:
        return cls.decode_pages([reader])

    @classmethod
    def decode_pages(cls, readers: list[ByteReader]) -> np.ndarray:
        """Pages that agree on ``(width, count)`` — all of a typical
        chunk — are unpacked by one kernel run over their payloads,
        viewed where they lie; the per-page bases are added by
        broadcast, in place.
        """
        batches = {}  # (width, count) -> [(page index, base, packed bits)]
        for i, reader in enumerate(readers):
            base, width, count = reader.unpack(_HEADER)
            # the view bounds ``count`` by the payload before it sizes
            # anything
            packed = reader.view((width * count + 7) // 8)
            batches.setdefault((width, count), []).append((i, base, packed))
        parts: list = [None] * len(readers)
        for (width, count), pages in batches.items():
            index, bases, packed = zip(*pages)
            block = unpack_bits_rows(packed, width, count).view(np.int64)
            block += np.array(bases, dtype=np.int64)[:, None]
            if len(batches) == 1:
                return block.reshape(-1)
            for i, row in zip(index, block):
                parts[i] = row
        return np.concatenate(parts)
