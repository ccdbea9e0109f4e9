"""Avro-like row-oriented media file (paper §1, §2.5).

"we adopt a hybrid storage architecture: leveraging columnar storage
for structured metadata and embeddings, while utilizing Avro — a
row-oriented binary format with schema support — for chunked storage of
large media objects (e.g., video and audio content)."

The structural essentials of an Avro object container file are kept:
a JSON-ish header with the record schema, then a sequence of blocks,
each ``(record_count, byte_length, records..., 16-byte sync marker)``.
Records are field-length-prefixed in schema order. Random access is by
``(block_offset, index_in_block)`` references, which is exactly the
``video lookup`` pointer the Fig 7 meta table stores.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

from repro.iosim import SimulatedStorage

MEDIA_MAGIC = b"Obj\x01"
SYNC_SIZE = 16
DEFAULT_BLOCK_RECORDS = 16


@dataclass(frozen=True)
class MediaRef:
    """Pointer to one record: the meta table's video-lookup handle."""

    block_offset: int
    index_in_block: int
    approx_bytes: int


class MediaWriter:
    """Append records (dicts of bytes fields) in blocks."""

    def __init__(
        self,
        storage: SimulatedStorage,
        field_names: list[str],
        block_records: int = DEFAULT_BLOCK_RECORDS,
        sync_seed: bytes = b"\x42" * SYNC_SIZE,
    ) -> None:
        self._storage = storage
        self._fields = list(field_names)
        self._block_records = block_records
        self._sync = sync_seed[:SYNC_SIZE].ljust(SYNC_SIZE, b"\x00")
        header = MEDIA_MAGIC + _encode_header(self._fields) + self._sync
        storage.append(header)
        self._pending: list[dict[str, bytes]] = []
        self._refs: list[MediaRef] = []

    def append(self, record: dict[str, bytes]) -> None:
        missing = [f for f in self._fields if f not in record]
        if missing:
            raise ValueError(f"record missing fields {missing}")
        self._pending.append(record)
        if len(self._pending) >= self._block_records:
            self._flush_block()

    def close(self) -> list[MediaRef]:
        """Flush and return one MediaRef per appended record, in order."""
        if self._pending:
            self._flush_block()
        return list(self._refs)

    def _flush_block(self) -> None:
        payload_parts = []
        sizes = []
        for record in self._pending:
            body = b"".join(
                struct.pack("<I", len(record[f])) + record[f]
                for f in self._fields
            )
            payload_parts.append(body)
            sizes.append(len(body))
        payload = b"".join(payload_parts)
        block = (
            struct.pack("<II", len(self._pending), len(payload))
            + payload
            + self._sync
        )
        offset = self._storage.append(block)
        for i, size in enumerate(sizes):
            self._refs.append(MediaRef(offset, i, size))
        self._pending = []


class MediaReader:
    """Random access by :class:`MediaRef` (the meta table's join key)."""

    def __init__(self, storage: SimulatedStorage) -> None:
        self._storage = storage
        head = storage.pread(0, 4 + 4)
        if head[:4] != MEDIA_MAGIC:
            raise ValueError(f"bad media magic {head[:4]!r}")
        (schema_len,) = struct.unpack_from("<I", head, 4)
        schema_raw = storage.pread(8, schema_len)
        self._fields = json.loads(schema_raw.decode())["fields"]

    def read_record(self, ref: MediaRef) -> dict[str, bytes]:
        """Seek to the block and walk to the record (counts real I/O)."""
        head = self._storage.pread(ref.block_offset, 8)
        count, payload_len = struct.unpack("<II", head)
        if ref.index_in_block >= count:
            raise IndexError("record index beyond block")
        payload = self._storage.pread(ref.block_offset + 8, payload_len)
        pos = 0
        for _ in range(ref.index_in_block):  # row format: walk predecessors
            for _f in self._fields:
                (flen,) = struct.unpack_from("<I", payload, pos)
                pos += 4 + flen
        record = {}
        for f in self._fields:
            (flen,) = struct.unpack_from("<I", payload, pos)
            pos += 4
            record[f] = payload[pos : pos + flen]
            pos += flen
        return record


def _encode_header(fields: list[str]) -> bytes:
    schema = json.dumps({"type": "record", "fields": fields}).encode()
    return struct.pack("<I", len(schema)) + schema
