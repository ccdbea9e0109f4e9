"""Trivial encoding: "stores data directly in its original format".

The universal fallback and the default leaf of every cascade. For BYTES
it stores a delta-friendly offsets array plus the concatenated payload;
for arrays it dumps the raw little-endian buffer.
"""

from __future__ import annotations

import numpy as np

from repro.encodings.base import (
    Encoding,
    EncodingError,
    Kind,
    as_bytes_list,
    float_dtype_code,
    float_dtype_from_code,
    join_values,
    register,
)
from repro.util.bitio import ByteReader, ByteWriter

# payload sub-format tags
_TAG_INT = 0
_TAG_FLOAT = 1
_TAG_BYTES = 2
_TAG_BOOL = 3


@register
class Trivial(Encoding):
    """Identity encoding for every value kind."""

    id = 0
    name = "trivial"
    kinds = frozenset({Kind.INT, Kind.FLOAT, Kind.BYTES, Kind.BOOL})

    def encode(self, values) -> bytes:
        writer = ByteWriter()
        if isinstance(values, np.ndarray):
            if values.dtype == np.bool_:
                writer.write_u8(_TAG_BOOL)
                writer.write_u64(len(values))
                writer.write_array(values.astype(np.uint8))
            elif np.issubdtype(values.dtype, np.integer):
                writer.write_u8(_TAG_INT)
                writer.write_u64(len(values))
                writer.write_array(values.astype(np.int64, copy=False))
            elif np.issubdtype(values.dtype, np.floating):
                writer.write_u8(_TAG_FLOAT)
                writer.write_u8(float_dtype_code(values.dtype))
                writer.write_u64(len(values))
                writer.write_array(values)
            else:
                raise EncodingError(f"unsupported dtype {values.dtype}")
        else:
            items = as_bytes_list(values)
            writer.write_u8(_TAG_BYTES)
            writer.write_u64(len(items))
            lengths = np.fromiter(
                (len(b) for b in items), dtype=np.uint32, count=len(items)
            )
            writer.write_array(lengths)
            writer.write(b"".join(items))
        return writer.getvalue()

    @classmethod
    def decode(cls, reader: ByteReader):
        return cls.decode_pages([reader])

    @classmethod
    def decode_pages(cls, readers: list[ByteReader]):
        """Array pages are viewed where they lie and copied once, into
        the joined column; bytes pages join as lists."""
        parts = [cls.decode_view(reader) for reader in readers]
        if not isinstance(parts[0], np.ndarray):
            return join_values(parts)
        return np.concatenate(parts)

    @staticmethod
    def decode_view(reader: ByteReader):
        """One page: an array viewing the payload, or a bytes list."""
        tag = reader.read_u8()
        if tag == _TAG_INT:
            count = reader.read_u64()
            return reader.view_array(np.int64, count)
        if tag == _TAG_FLOAT:
            dtype = float_dtype_from_code(reader.read_u8())
            count = reader.read_u64()
            return reader.view_array(dtype, count)
        if tag == _TAG_BOOL:
            count = reader.read_u64()
            return reader.view_array(np.uint8, count).astype(np.bool_)
        if tag == _TAG_BYTES:
            count = reader.read_u64()
            lengths = reader.read_array(np.uint32, count)
            payload = reader.read(int(lengths.sum()))
            out = []
            pos = 0
            for length in lengths:
                out.append(payload[pos : pos + int(length)])
                pos += int(length)
            return out
        raise EncodingError(f"bad trivial payload tag {tag}")
