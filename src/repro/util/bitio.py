"""Byte-stream helpers and vectorized bit packing.

``ByteWriter``/``ByteReader`` are tiny framing helpers used by every
encoding payload: fixed-width scalars, length-prefixed blobs and numpy
arrays. ``pack_bits``/``unpack_bits`` implement fixed-bit-width packing
(the workhorse behind FixedBitWidth, FOR, dictionary codes and the
FastPFOR/FastBP128 kernels): byte-aligned widths are a dtype view, the
rest run through the phase-strided kernels of :func:`pack_bits_rows`
and :func:`unpack_bits_rows`, each of which takes the same-width pages
of a whole chunk in one run. The inner loops stay in C.
"""

from __future__ import annotations

import struct

import numpy as np


class ByteWriter:
    """Append-only binary buffer with struct-style typed writes."""

    def __init__(self) -> None:
        self._parts: list[bytes] = []

    def write(self, data: bytes) -> None:
        self._parts.append(bytes(data))

    def write_u8(self, value: int) -> None:
        self._parts.append(struct.pack("<B", value))

    def write_u16(self, value: int) -> None:
        self._parts.append(struct.pack("<H", value))

    def write_u32(self, value: int) -> None:
        self._parts.append(struct.pack("<I", value))

    def write_u64(self, value: int) -> None:
        self._parts.append(struct.pack("<Q", value))

    def write_i64(self, value: int) -> None:
        self._parts.append(struct.pack("<q", value))

    def write_f64(self, value: float) -> None:
        self._parts.append(struct.pack("<d", value))

    def write_blob(self, data: bytes) -> None:
        """Length-prefixed (u32) byte blob."""
        self.write_u32(len(data))
        self.write(data)

    def write_array(self, values: np.ndarray) -> None:
        """Raw little-endian dump of a numpy array (caller tracks dtype)."""
        arr = np.ascontiguousarray(values)
        if arr.dtype.byteorder == ">":
            arr = arr.astype(arr.dtype.newbyteorder("<"))
        self._parts.append(arr.tobytes())

    def getvalue(self) -> bytes:
        return b"".join(self._parts)

    def __len__(self) -> int:
        return sum(len(p) for p in self._parts)


class ByteReader:
    """Sequential reader over a bytes-like object."""

    __slots__ = ("_data", "_pos")

    def __init__(self, data: bytes, offset: int = 0) -> None:
        self._data = data
        self._pos = offset

    @property
    def pos(self) -> int:
        return self._pos

    def remaining(self) -> int:
        return len(self._data) - self._pos

    def view(self, n: int):
        """The next ``n`` bytes, not copied when the buffer is a
        memoryview."""
        if n < 0 or self._pos + n > len(self._data):
            raise ValueError(
                f"read of {n} bytes at offset {self._pos} exceeds "
                f"buffer of {len(self._data)} bytes"
            )
        out = self._data[self._pos : self._pos + n]
        self._pos += n
        return out

    def read(self, n: int) -> bytes:
        return bytes(self.view(n))

    def unpack(self, layout: struct.Struct) -> tuple:
        """The fields of a fixed header, in one call."""
        fields = layout.unpack_from(self._data, self._pos)
        self._pos += layout.size
        return fields

    def _unpack(self, fmt: str, size: int):
        value = struct.unpack_from(fmt, self._data, self._pos)[0]
        self._pos += size
        return value

    def read_u8(self) -> int:
        return self._unpack("<B", 1)

    def read_u16(self) -> int:
        return self._unpack("<H", 2)

    def read_u32(self) -> int:
        return self._unpack("<I", 4)

    def read_u64(self) -> int:
        return self._unpack("<Q", 8)

    def read_i64(self) -> int:
        return self._unpack("<q", 8)

    def read_f64(self) -> float:
        return self._unpack("<d", 8)

    def read_blob(self) -> bytes:
        return self.read(self.read_u32())

    def view_array(self, dtype, count: int) -> np.ndarray:
        """``count`` values where they lie (read-only when the buffer
        is), for a caller that copies them on anyway."""
        dt = np.dtype(dtype)
        return np.frombuffer(self.view(dt.itemsize * count), dtype=dt)

    def read_array(self, dtype, count: int) -> np.ndarray:
        return self.view_array(dtype, count).copy()


def min_bit_width(values: np.ndarray) -> int:
    """Smallest bit width able to represent every (unsigned) value.

    An all-zero or empty array needs width 0 (a valid degenerate pack).
    """
    if len(values) == 0:
        return 0
    max_value = int(values.max())
    if max_value < 0:
        raise ValueError("min_bit_width requires non-negative values")
    return int(max_value).bit_length()


#: widths whose packed layout is a plain little-endian unsigned array
_ALIGNED_DTYPES = {8: "<u1", 16: "<u2", 32: "<u4", 64: "<u8"}


def pack_bits(values: np.ndarray, width: int) -> bytes:
    """Pack non-negative integers into ``width`` bits each (LSB-first).

    Layout: value ``i`` occupies bits ``[i*width, (i+1)*width)`` of the
    output bit stream; within a value, bit 0 is the value's LSB. This
    fixed layout is what lets the deletion path mask individual slots
    without decoding the page (see :mod:`repro.core.deletion`). The
    one-row case of :func:`pack_bits_rows`.
    """
    values = np.asarray(values, dtype=np.uint64)
    return pack_bits_rows(values[None, :], width)[0].tobytes()


#: below 2 KiB of output the phase pass's ~20 fixed vector ops cost more
#: than they save over bit expansion
_PHASED_PACK_MIN_BITS = 16384


def pack_bits_rows(matrix: np.ndarray, width: int) -> np.ndarray:
    """Pack a ``(k, count)`` matrix into ``k`` independent LSB-first
    streams of ``width`` bits per value: the inverse of
    :func:`unpack_bits_rows`, so a chunk's same-width pages cost one run.

    Widths 8/16/32/64 are a dtype cast. From ``_PHASED_PACK_MIN_BITS``
    of output the rest run phase-strided: phase ``r`` of every 8-value
    period lands in one 64-bit lane at one shift (spilling into the next
    lane when it straddles two), a lane being one contiguous row of a
    ``(lanes, periods)`` array, so a phase is a shift and an OR over all
    rows; one transpose turns lanes into bytes. Smaller inputs expand
    each value's low bytes to bits and pack the first ``width``.
    """
    matrix = np.asarray(matrix, dtype=np.uint64)
    k, count = matrix.shape
    n_bytes = (width * count + 7) // 8
    if width > 64:
        raise ValueError(f"bit width {width} exceeds 64")
    if width == 0 or count == 0 or k == 0:
        return np.zeros((k, n_bytes), dtype=np.uint8)
    if width in _ALIGNED_DTYPES:
        return matrix.astype(_ALIGNED_DTYPES[width]).view(np.uint8)
    if k * count * width < _PHASED_PACK_MIN_BITS:
        if width < 8:
            shifts = np.arange(width, dtype=np.uint8)
            bits = (matrix.astype(np.uint8)[:, :, None] >> shifts) & np.uint8(1)
        else:
            low = (
                np.ascontiguousarray(matrix, dtype="<u8")
                .view(np.uint8)
                .reshape(k, count, 8)[:, :, : (width + 7) // 8]
            )
            bits = np.unpackbits(low, axis=2, count=width, bitorder="little")
        return np.packbits(
            bits.reshape(k, count * width), axis=1, bitorder="little"
        )
    periods = (count + 7) // 8
    if count % 8:
        matrix = np.pad(matrix, ((0, 0), (0, periods * 8 - count)))
    # phases[r]: value r of every period of every row
    phases = matrix.reshape(k * periods, 8).T
    lanes = np.zeros(((width + 7) // 8, k * periods), dtype=np.uint64)
    part = np.empty(k * periods, dtype=np.uint64)
    for r in range(8):
        lane, shift = divmod(r * width, 64)
        np.left_shift(phases[r], np.uint64(shift), out=part)
        lanes[lane] |= part
        if shift + width > 64:
            np.right_shift(phases[r], np.uint64(64 - shift), out=part)
            lanes[lane + 1] |= part
    period_bytes = np.ascontiguousarray(lanes.T).astype("<u8", copy=False)
    return (
        period_bytes.view(np.uint8)[:, :width]
        .reshape(k, periods * width)[:, :n_bytes]
    )


def unpack_bits(data: bytes, width: int, count: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`; returns uint64 array of ``count``.

    The one-row case of :func:`unpack_bits_rows`.
    """
    return unpack_bits_rows([data], width, count)[0]


def unpack_bits_rows(rows, width: int, count: int) -> np.ndarray:
    """Unpack ``k`` independent LSB-first streams of ``count`` values
    of ``width`` bits each into one ``(k, count)`` uint64 array.

    ``rows`` is a sequence of bytes-like buffers; each must hold its
    whole stream (surplus bytes are ignored). One ``join`` lays them
    back to back, so each step below is one vector op over all of them:
    a chunk's same-width pages cost one copy and one kernel run.

    Widths 8/16/32/64 are a dtype view (the stream is a little-endian
    array). Other widths up to 57 run phase-strided: the bit layout
    repeats every 8 values (one ``width``-byte period), so phase ``r``
    of every period shares one byte offset and one sub-byte shift, and
    the up to 64 bits from that byte on hold the whole value. One
    gather takes every period's 8 (unaligned) uint64 windows, one shift
    and one mask finish: 3 vector ops, no per-value work. A window may
    run on into the next row's bytes; the mask drops them.
    """
    k = len(rows)
    if width == 0 or count == 0 or k == 0:
        return np.zeros((k, count), dtype=np.uint64)
    if width > 64:
        raise ValueError(f"bit width {width} exceeds 64")
    n_bytes = (width * count + 7) // 8
    periods = (count + 7) // 8
    for row in rows:
        if len(row) < n_bytes:
            raise ValueError(
                f"bit buffer too small: have {len(row) * 8} bits, "
                f"need {width * count}"
            )
    # the tail pads the last row's windows, which reach past its end
    tail = bytes(periods * width + 8 - n_bytes)
    rows = [memoryview(row)[:n_bytes] for row in rows]
    stacked = np.frombuffer(b"".join([*rows, tail]), dtype=np.uint8)
    if width <= 57 and width not in _ALIGNED_DTYPES:
        # windows[i, p, j]: bytes j..j+7 of period p of row i, one word
        windows = np.ndarray(
            (k, periods, width), "<u8", stacked, strides=(n_bytes, width, 1)
        )
        first_bit = np.arange(0, 8 * width, width)
        out = windows[:, :, first_bit >> 3]
        out >>= (first_bit & 7).astype(np.uint64)
        out &= np.uint64((1 << width) - 1)
        return out.reshape(k, periods * 8)[:, :count]
    stacked = stacked[: k * n_bytes].reshape(k, n_bytes)
    if width in _ALIGNED_DTYPES:
        return stacked.view(_ALIGNED_DTYPES[width]).astype(np.uint64)
    # widths 58..63: pad each value's bits to 64 and view the bytes as
    # uint64 — one C pass instead of a multiply-accumulate per bit. Row
    # by row: the 64-bytes-per-value scratch only pays while it fits in
    # cache.
    out = np.empty((k, count), dtype=np.uint64)
    for i in range(k):
        bits = np.unpackbits(stacked[i], bitorder="little")
        padded = np.zeros((count, 64), dtype=np.uint8)
        padded[:, :width] = bits[: width * count].reshape(count, width)
        out[i] = np.packbits(padded.reshape(-1), bitorder="little").view("<u8")
    return out


def bit_lengths(values: np.ndarray) -> np.ndarray:
    """Per-element ``int.bit_length`` over a uint64 array (int64 out).

    Successive halving: six shift/compare rounds classify all 64
    possible widths, whole-array.
    """
    widths = np.zeros(len(values), dtype=np.int64)
    v = np.asarray(values, dtype=np.uint64).copy()
    for shift in (32, 16, 8, 4, 2, 1):
        big = v >= (np.uint64(1) << np.uint64(shift))
        widths[big] += shift
        v[big] >>= np.uint64(shift)
    widths[v > 0] += 1
    return widths


def le_bit_windows(data: bytes) -> np.ndarray:
    """Little-endian 64-bit window starting at every byte offset.

    ``out[j]`` holds bytes ``j..j+7`` as one uint64 (zero-padded past
    the end), so the ``width <= 57`` bits at any bit position ``p`` are
    ``(out[p >> 3] >> (p & 7)) & ((1 << width) - 1)`` — the whole-array
    gather behind the batch unpack paths.
    """
    raw = np.frombuffer(data, dtype=np.uint8)
    n = len(raw)
    padded = np.zeros(n + 8, dtype=np.uint64)
    padded[:n] = raw
    windows = np.zeros(n + 1, dtype=np.uint64)
    for k in range(8):
        windows |= padded[k : k + n + 1] << np.uint64(8 * k)
    return windows


def le_bit_windows32(data: bytes) -> np.ndarray:
    """32-bit variant of :func:`le_bit_windows` for fields <= 25 bits.

    Half the memory traffic of the 64-bit windows; callers keep the
    whole gather pipeline in uint32.
    """
    raw = np.frombuffer(data, dtype=np.uint8)
    n = len(raw)
    padded = np.zeros(n + 4, dtype=np.uint32)
    padded[:n] = raw
    windows = padded[: n + 1].copy()
    for k in range(1, 4):
        windows |= padded[k : k + n + 1] << np.uint32(8 * k)
    return windows


def scatter_varwidth_lsb(
    values: np.ndarray, widths: np.ndarray, bit_starts: np.ndarray,
    total_bytes: int,
) -> bytes:
    """Write LSB-first bit fields at arbitrary bit offsets, whole-array.

    Field ``i`` puts the low ``widths[i]`` bits of ``values[i]`` (LSB
    first) at bit position ``bit_starts[i]``; untouched bits are zero.
    Fields may be non-contiguous (block codecs pad each miniblock to a
    byte boundary) but must not overlap.
    """
    values = np.asarray(values, dtype=np.uint64)
    widths = np.asarray(widths, dtype=np.int64)
    total_bits = int(widths.sum())
    if total_bits == 0:
        return bytes(total_bytes)
    bits = np.zeros(total_bytes * 8, dtype=np.uint8)
    offset = np.arange(total_bits, dtype=np.int64) - np.repeat(
        np.cumsum(widths) - widths, widths
    )
    slots = np.repeat(np.asarray(bit_starts, dtype=np.int64), widths) + offset
    bits[slots] = (
        np.repeat(values, widths) >> offset.astype(np.uint64)
    ) & np.uint64(1)
    return np.packbits(bits, bitorder="little").tobytes()


def pack_varwidth_msb(values, widths) -> tuple[bytes, int]:
    """Concatenate variable-width MSB-first bit fields, whole-array.

    Field ``i`` contributes the low ``widths[i]`` bits of ``values[i]``,
    most-significant bit first, with no padding between fields; the byte
    stream is the big-endian ``np.packbits`` of the concatenation. This
    is exactly the layout the streaming bit writers (Huffman, Gorilla,
    Chimp) produce one bit at a time — here every field lands via one
    repeat/arange scatter. Returns ``(payload, total_bits)``.
    """
    values = np.asarray(values, dtype=np.uint64)
    widths = np.asarray(widths, dtype=np.int64)
    total_bits = int(widths.sum())
    if total_bits == 0:
        return b"", 0
    starts = np.repeat(np.cumsum(widths) - widths, widths)
    offset = np.arange(total_bits, dtype=np.int64) - starts
    shift = (np.repeat(widths, widths) - 1 - offset).astype(np.uint64)
    bits = ((np.repeat(values, widths) >> shift) & np.uint64(1)).astype(np.uint8)
    return np.packbits(bits, bitorder="big").tobytes(), total_bits


class BitWindowReader:
    """Sequential MSB-first bit reader over a byte payload.

    Precomputes a big-endian 64-bit window at every *byte* offset, so a
    read of up to 64 bits at any bit position costs two list lookups and
    a couple of integer ops — no per-bit work. This is the decode-side
    companion of :func:`pack_varwidth_msb`, used by the codecs whose bit
    streams carry sequential state (Gorilla/Chimp) and therefore cannot
    be decoded as one whole-array transform.
    """

    __slots__ = ("_win", "_next", "total_bits", "pos")

    def __init__(self, data: bytes, total_bits: int) -> None:
        if total_bits > 8 * len(data):
            raise ValueError(
                f"bit stream claims {total_bits} bits but payload has "
                f"only {8 * len(data)}"
            )
        raw = np.frombuffer(data, dtype=np.uint8)
        n = len(raw) + 1
        padded = np.zeros(n + 8, dtype=np.uint64)
        padded[: len(raw)] = raw
        win = np.zeros(n, dtype=np.uint64)
        for k in range(8):
            win |= padded[k : k + n] << np.uint64(8 * (7 - k))
        self._win = win.tolist()
        self._next = padded[8 : 8 + n].tolist()
        self.total_bits = total_bits
        self.pos = 0

    def peek64(self, pos: int) -> int:
        """The 64 bits starting at bit ``pos`` (zero-padded past the end)."""
        byte_idx = pos >> 3
        shift = pos & 7
        if shift == 0:
            return self._win[byte_idx]
        return (
            (self._win[byte_idx] << shift) & 0xFFFFFFFFFFFFFFFF
        ) | (self._next[byte_idx] >> (8 - shift))

    def take(self, width: int) -> int:
        """Read ``width`` (1..64) bits MSB-first; raises past the end."""
        pos = self.pos
        if width < 0 or pos + width > self.total_bits:
            raise ValueError(
                f"bit read of {width} at {pos} exceeds {self.total_bits}"
            )
        self.pos = pos + width
        if width == 0:
            return 0
        return self.peek64(pos) >> (64 - width)


def set_packed_values(
    buf: bytearray, indices: np.ndarray, width: int, value: int
) -> None:
    """Overwrite many packed-bit slots at once (vectorized scrub).

    Used by deletion-compliance masking: a page encoded with a fixed bit
    width can have individual slots scrubbed without touching its
    neighbours, so the page size is trivially unchanged. The
    read-modify-write is one ``unpackbits``/scatter/``packbits`` pass
    over the buffer, for a whole batch of rows at once.
    """
    if width == 0 or len(indices) == 0:
        return
    if value < 0 or value >= (1 << width):
        raise ValueError(f"value {value} does not fit in {width} bits")
    indices = np.asarray(indices, dtype=np.int64)
    bits = np.unpackbits(
        np.frombuffer(bytes(buf), dtype=np.uint8), bitorder="little"
    )
    slots = (indices[:, None] * width + np.arange(width)[None, :]).ravel()
    value_bits = (
        (np.uint64(value) >> np.arange(width, dtype=np.uint64))
        & np.uint64(1)
    ).astype(np.uint8)
    bits[slots] = np.tile(value_bits, len(indices))
    buf[:] = np.packbits(bits, bitorder="little").tobytes()
