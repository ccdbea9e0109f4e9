"""Chunked general-purpose block compression.

Table 2: "applies zstd compression to fixed-size chunks (256KB) of raw
data, particularly effective for ML datasets with local patterns."

Substitution note (see DESIGN.md): zstd is not available offline, so the
block codec is stdlib ``zlib``. The structure — fixed-size chunks of a
child-encoded byte stream, independently decompressible — is identical;
only the constant-factor ratio/speed differ.

Chunked is a *wrapper* encoding: it first encodes its child blob, then
compresses the child's bytes. That is exactly how the paper positions
general-purpose compression at the bottom of a cascade ("formats should
not apply general-purpose block compression by default" — but it stays
available where it wins, e.g. cold features).
"""

from __future__ import annotations

import zlib

from repro.encodings.base import (
    Encoding,
    Kind,
    decode_blob,
    encode_blob,
    register,
)
from repro.encodings.trivial import Trivial
from repro.util.bitio import ByteReader, ByteWriter

DEFAULT_CHUNK_SIZE = 256 * 1024
DEFAULT_LEVEL = 6


@register
class Chunked(Encoding):
    """zlib-compressed fixed-size chunks over a child-encoded blob."""

    id = 14
    name = "chunked"
    kinds = frozenset(
        {Kind.INT, Kind.FLOAT, Kind.BYTES, Kind.BOOL}
    )

    def __init__(
        self,
        child: Encoding | None = None,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        level: int = DEFAULT_LEVEL,
    ) -> None:
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        self._child = child if child is not None else Trivial()
        self._chunk_size = chunk_size
        self._level = level

    def encode(self, values) -> bytes:
        inner = encode_blob(values, self._child)
        writer = ByteWriter()
        writer.write_u32(self._chunk_size)
        writer.write_u64(len(inner))
        n_chunks = (len(inner) + self._chunk_size - 1) // self._chunk_size
        writer.write_u32(n_chunks)
        for i in range(n_chunks):
            chunk = inner[i * self._chunk_size : (i + 1) * self._chunk_size]
            writer.write_blob(zlib.compress(chunk, self._level))
        return writer.getvalue()

    @classmethod
    def decode(cls, reader: ByteReader):
        return decode_blob(cls.inflate(reader))

    @staticmethod
    def inflate(reader: ByteReader) -> bytes:
        """The child blob: every zlib chunk inflated, then joined."""
        reader.read_u32()  # chunk_size (layout info only)
        reader.read_u64()  # uncompressed length (sanity/meta)
        n_chunks = reader.read_u32()
        parts = [zlib.decompress(reader.read_blob()) for _ in range(n_chunks)]
        return parts[0] if n_chunks == 1 else b"".join(parts)
