"""FixedBitWidth encoding: uniform-width bit packing.

"Compresses integer data using a uniform bit width for all values,
optimized for cases with known value ranges" (Table 2). We store the
column minimum as a base so signed/offset data packs tightly; with
``base == 0`` the layout degenerates to classic bit-packing, and the
deletion path can scrub a single slot in place because every slot has
the same fixed width (paper §2.1, "Bit-Packed Encoding").
"""

from __future__ import annotations

import numpy as np

from repro.encodings.base import Encoding, Kind, as_int64, register
from repro.util.bitio import (
    ByteReader,
    ByteWriter,
    min_bit_width,
    pack_bits,
    unpack_bits_rows,
)


@register
class FixedBitWidth(Encoding):
    """Bit-pack int64 values as ``width``-bit offsets from a base."""

    id = 1
    name = "fixed_bit_width"
    kinds = frozenset({Kind.INT})

    #: payload layout constants, shared with the in-place deletion masker
    HEADER_FMT_SIZE = 8 + 1 + 8  # base i64, width u8, count u64

    def __init__(self, fixed_base: int | None = None) -> None:
        """``fixed_base`` pins the subtracted base (e.g. 0 so that the
        dictionary mask code 0 stays representable for in-place deletes).
        """
        self._fixed_base = fixed_base

    def encode(self, values) -> bytes:
        values = as_int64(values)
        writer = ByteWriter()
        if len(values) == 0:
            writer.write_i64(self._fixed_base or 0)
            writer.write_u8(0)
            writer.write_u64(0)
            return writer.getvalue()
        base = (
            int(values.min()) if self._fixed_base is None else self._fixed_base
        )
        if self._fixed_base is not None and int(values.min()) < base:
            raise ValueError(
                f"values below fixed base {base} cannot be bit-packed"
            )
        offsets = (values.astype(np.int64) - base).astype(np.uint64)
        width = min_bit_width(offsets)
        writer.write_i64(base)
        writer.write_u8(width)
        writer.write_u64(len(values))
        writer.write(pack_bits(offsets, width))
        return writer.getvalue()

    @classmethod
    def decode(cls, reader: ByteReader) -> np.ndarray:
        return cls.decode_pages([reader])

    @classmethod
    def decode_pages(cls, readers: list[ByteReader]) -> np.ndarray:
        """Pages that agree on ``(width, count)`` — all of a typical
        chunk — are unpacked by one kernel run over the stacked
        payloads; the per-page bases are added by broadcast, in place.
        """
        batches = {}  # (width, count) -> [(page index, base, packed bits)]
        for i, reader in enumerate(readers):
            base, width, count = (
                reader.read_i64(), reader.read_u8(), reader.read_u64()
            )
            # the read bounds ``count`` by the payload before it sizes
            # anything
            packed = reader.read((width * count + 7) // 8)
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
