"""On-device page framing.

A page is the unit of encoding, checksumming and in-place deletion:

====================  =================================================
header (16 bytes)     u32 alloc_len — payload area size, fixed at write
                      u32 payload_len — used bytes (may shrink after a
                      compacting deletion, never grows)
                      u32 n_values — values currently stored (may shrink
                      when a deletion drops rows instead of masking)
                      u32 flags — bit 0: COMPACTED
payload               self-describing encoding blob + padding
====================  =================================================

The "post-update page dimensions do not exceed their initial size"
criterion of §2.1 maps to ``payload_len <= alloc_len`` being an
invariant for the page's whole life.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

PAGE_HEADER_FMT = "<IIII"
#: ``PAGE_HEADER.unpack_from(raw, pos)`` is ``(alloc_len, payload_len,
#: n_values, flags)``
PAGE_HEADER = struct.Struct(PAGE_HEADER_FMT)
PAGE_HEADER_SIZE = PAGE_HEADER.size

FLAG_COMPACTED = 1


@dataclass
class PageHeader:
    alloc_len: int
    payload_len: int
    n_values: int
    flags: int = 0

    def pack(self) -> bytes:
        if self.payload_len > self.alloc_len:
            raise ValueError(
                f"page payload {self.payload_len} exceeds allocation "
                f"{self.alloc_len}"
            )
        return struct.pack(
            PAGE_HEADER_FMT,
            self.alloc_len,
            self.payload_len,
            self.n_values,
            self.flags,
        )

    @staticmethod
    def unpack(data: bytes, offset: int = 0) -> "PageHeader":
        return PageHeader(*PAGE_HEADER.unpack_from(data, offset))


def frame_page(payload: bytes, n_values: int, padding: int = 0) -> bytes:
    """Header + payload + optional slack bytes (``PageHeader.pack``'s
    layout, without building one per page)."""
    if padding < 0:
        raise ValueError(f"page padding {padding} is negative")
    size = len(payload)
    header = PAGE_HEADER.pack(size + padding, size, n_values, 0)
    return header + payload + bytes(padding)
