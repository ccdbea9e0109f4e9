"""LEB128 variable-length integers and zigzag mapping.

The paper's Varint encoding uses the "widely adopted LEB128 algorithm
... each byte holds 7 bits of the integer plus a continuation bit"
(§2.1). The deletion path relies on exactly this framing: masking an
encoded integer keeps every continuation MSB and zeroes the 7-bit
payloads, so the byte stream keeps its length and alignment.

``encode_varint_array``/``decode_varint_array`` are batch versions with
numpy-vectorized hot paths (the SFVInt-style "decode many at once"
kernels the paper cites [64]).
"""

from __future__ import annotations

import numpy as np

_MASK7 = np.uint64(0x7F)


def encode_varint(value: int) -> bytes:
    """LEB128-encode one unsigned integer (< 2**64)."""
    if value < 0:
        raise ValueError("varint encodes unsigned integers; zigzag first")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_varint(data: bytes, offset: int = 0) -> tuple[int, int]:
    """Decode one LEB128 integer; returns ``(value, next_offset)``."""
    result = 0
    shift = 0
    pos = offset
    while True:
        if pos >= len(data):
            raise ValueError("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 63:
            raise ValueError("varint longer than 64 bits")


def encode_varint_array(values: np.ndarray) -> bytes:
    """LEB128-encode an array of unsigned integers, vectorized.

    Strategy: compute each value's byte length, allocate the exact
    output, then scatter the 7-bit groups with numpy fancy indexing.
    """
    values = np.asarray(values, dtype=np.uint64)
    n = len(values)
    if n == 0:
        return b""
    # byte length of each varint = ceil(bit_length / 7), min 1
    lengths = np.ones(n, dtype=np.int64)
    tmp = values >> np.uint64(7)
    while tmp.any():
        lengths += (tmp > 0).astype(np.int64)
        tmp = tmp >> np.uint64(7)
    total = int(lengths.sum())
    out = np.zeros(total, dtype=np.uint8)
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    max_len = int(lengths.max())
    remaining = values.copy()
    for k in range(max_len):
        active = lengths > k
        positions = starts[active] + k
        chunk = (remaining[active] & _MASK7).astype(np.uint8)
        has_more = lengths[active] > (k + 1)
        out[positions] = chunk | (has_more.astype(np.uint8) << 7)
        remaining = remaining >> np.uint64(7)
    return out.tobytes()


def decode_varint_array(data: bytes, count: int) -> tuple[np.ndarray, int]:
    """Decode ``count`` LEB128 integers; returns ``(values, bytes_used)``.

    Vectorized: find terminator bytes (MSB clear) to delimit integers,
    then accumulate 7-bit groups per integer.
    """
    if count == 0:
        return np.zeros(0, dtype=np.uint64), 0
    raw = np.frombuffer(data, dtype=np.uint8)
    if len(raw) >= count and raw[:count].max() < 0x80:
        return raw[:count].astype(np.uint64), count  # one byte each
    term_positions = np.flatnonzero(raw < 0x80)
    if len(term_positions) < count:
        raise ValueError(
            f"truncated varint stream: {len(term_positions)} terminators, "
            f"need {count}"
        )
    ends = term_positions[:count] + 1
    starts = np.concatenate(([0], ends[:-1]))
    lengths = ends - starts
    max_len = int(lengths.max())
    if max_len > 10:
        raise ValueError("varint longer than 64 bits")
    values = raw[starts].astype(np.uint64) & _MASK7
    for k in range(1, max_len):
        active = lengths > k
        chunk = raw[starts[active] + k].astype(np.uint64) & _MASK7
        values[active] |= chunk << np.uint64(7 * k)
    return values, int(ends[-1])


def zigzag_encode(values: np.ndarray) -> np.ndarray:
    """Map signed int64 -> unsigned uint64 (0,-1,1,-2 -> 0,1,2,3)."""
    values = np.asarray(values, dtype=np.int64)
    return ((values << 1) ^ (values >> 63)).astype(np.uint64)


def zigzag_decode(values: np.ndarray) -> np.ndarray:
    """Inverse of :func:`zigzag_encode`."""
    values = np.asarray(values, dtype=np.uint64)
    return ((values >> np.uint64(1)).astype(np.int64)) ^ -(
        (values & np.uint64(1)).astype(np.int64)
    )
