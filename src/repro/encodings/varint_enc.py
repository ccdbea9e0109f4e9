"""Varint (LEB128) and ZigZag encodings.

Varint: "uses fewer bytes for smaller values" — unsigned only, matching
Parquet/Protobuf semantics. ZigZag maps signed integers onto unsigned
ones ("efficiently handling both positive and negative numbers") and
then delegates to a child encoding, Varint by default; this is the first
example of the composable sub-column pattern of §2.6.
"""

from __future__ import annotations

import numpy as np

from repro.encodings.base import (
    Encoding,
    EncodingError,
    Kind,
    as_int64,
    decode_child,
    encode_child,
    register,
)
from repro.util.bitio import ByteReader, ByteWriter
from repro.util.varint import (
    decode_varint_array,
    encode_varint_array,
    zigzag_decode,
    zigzag_encode,
)


@register
class Varint(Encoding):
    """LEB128 byte stream over non-negative int64 values."""

    id = 2
    name = "varint"
    kinds = frozenset({Kind.INT})

    def encode(self, values) -> bytes:
        values = np.asarray(values)
        if not np.issubdtype(values.dtype, np.integer):
            raise EncodingError(f"varint expects integers, got {values.dtype}")
        if np.issubdtype(values.dtype, np.signedinteger):
            if len(values) and int(values.min()) < 0:
                raise EncodingError("varint requires non-negative values; "
                                    "wrap in zigzag for signed data")
        writer = ByteWriter()
        writer.write_u64(len(values))
        writer.write(encode_varint_array(values.astype(np.uint64)))
        return writer.getvalue()

    @classmethod
    def decode(cls, reader: ByteReader) -> np.ndarray:
        count = reader.read_u64()
        data = reader.read(reader.remaining())
        values, used = decode_varint_array(data, count)
        # rewind unused suffix so nested readers stay aligned
        reader._pos -= len(data) - used
        return values.astype(np.int64)

    @classmethod
    def decode_pages(cls, readers: list[ByteReader]) -> np.ndarray:
        """Several payloads, each yielding the count it declares out of
        its own bytes: joined, they take one kernel call if every stream
        holds exactly its integers; if not, each takes the kernel alone."""
        if len(readers) == 1:
            return cls.decode(readers[0])
        counts = [reader.read_u64() for reader in readers]
        streams = [reader.view(reader.remaining()) for reader in readers]
        sizes = [len(stream) for stream in streams]
        if all(sizes):
            raw = np.frombuffer(b"".join(streams), dtype=np.uint8)
            if sizes == counts and raw.max() < 0x80:
                return raw.astype(np.int64)  # one byte each
            ends = np.cumsum(sizes)
            held = np.add.reduceat(raw < 0x80, ends - sizes, dtype=np.int64)
            if held.tolist() == counts and (raw[ends - 1] < 0x80).all():
                streams, counts = [raw], [sum(counts)]
        parts = [decode_varint_array(s, c)[0] for s, c in zip(streams, counts)]
        return np.concatenate(parts).astype(np.int64)


@register
class ZigZag(Encoding):
    """Signed -> unsigned zigzag mapping over a child encoding."""

    id = 3
    name = "zigzag"
    kinds = frozenset({Kind.INT})

    def __init__(self, child: Encoding | None = None) -> None:
        self._child = child if child is not None else Varint()

    def encode(self, values) -> bytes:
        values = as_int64(values)
        mapped = zigzag_encode(values)  # uint64; child must accept unsigned
        writer = ByteWriter()
        encode_child(writer, mapped, self._child)
        return writer.getvalue()

    @classmethod
    def decode(cls, reader: ByteReader) -> np.ndarray:
        mapped = decode_child(reader)
        return zigzag_decode(mapped.astype(np.uint64))
