"""Gorilla and Chimp XOR-based floating-point encodings.

Table 2 cites Gorilla [70] and Chimp [60]: both XOR each value with its
predecessor and exploit "patterns in XOR'd values' leading and trailing
zeros". Gorilla emits (flag, leading-zero count, meaningful-bit length,
bits); Chimp observes that trailing zeros are rare in real data and
re-encodes the leading-zero count with a small lookup table plus a
previous-window trick. We implement Gorilla faithfully and Chimp's
leading-zero-table variant (its "chimp128" ring buffer is ablated in
``benchmarks/bench_cascading.py``).

The XOR / leading-zero / trailing-zero analysis runs whole-array in
numpy; only the (small) state machine that chooses each value's token
shape stays scalar, and it emits (value, width) pairs that a single
:func:`repro.util.bitio.pack_varwidth_msb` call turns into the bit
stream. Decode walks precomputed 64-bit windows, so each token costs
two list lookups regardless of its width.
"""

from __future__ import annotations

import numpy as np

from repro.encodings.base import (
    Encoding,
    EncodingError,
    Kind,
    as_float,
    float_dtype_code,
    float_dtype_from_code,
    register,
)
from repro.util.bitio import (
    ByteReader,
    ByteWriter,
    bit_lengths,
    pack_varwidth_msb,
)

_M64 = (1 << 64) - 1


def _to_bits(values: np.ndarray) -> np.ndarray:
    return values.astype(np.float64).view(np.uint64)


def _xor_lead_trail(bits: np.ndarray):
    """Per-transition xor plus leading/trailing zero counts, whole-array.

    The token state machines consume these one at a time; callers
    ``.tolist()`` what they iterate (one bulk conversion beats ``count``
    boxed ``int()`` calls).
    """
    xors = bits[:-1] ^ bits[1:]
    lead = 64 - bit_lengths(xors)
    low = xors & (~xors + np.uint64(1))
    trail = bit_lengths(low) - 1
    trail[xors == 0] = 64
    return xors, lead, trail


def _emit(values: list[int], widths: list[int]) -> tuple[bytes, int]:
    return pack_varwidth_msb(
        np.array(values, dtype=np.uint64), np.array(widths, dtype=np.int64)
    )


def _msb_windows(data: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Big-endian 64-bit window at every byte offset, plus next bytes."""
    raw = np.frombuffer(data, dtype=np.uint8)
    n = len(raw) + 1
    padded = np.zeros(n + 8, dtype=np.uint64)
    padded[: len(raw)] = raw
    win = np.zeros(n, dtype=np.uint64)
    for k in range(8):
        win |= padded[k : k + n] << np.uint64(8 * (7 - k))
    return win, padded[8 : 8 + n]


def _accumulate_xors(
    win: np.ndarray,
    nxt: np.ndarray,
    first: int,
    count: int,
    idxs: list[int],
    poss: list[int],
    widths: list[int],
    trails: list[int],
) -> np.ndarray:
    """Gather all payload fields whole-array and fold the XOR chain.

    ``prev ^= xor`` per value means ``out[i]`` is the running XOR of
    every field up to ``i`` — exactly ``np.bitwise_xor.accumulate`` —
    so once the scalar parse has located each payload (bit position,
    width, trailing shift), no per-value Python work remains.
    """
    xors = np.zeros(count, dtype=np.uint64)
    xors[0] = first
    if idxs:
        p = np.array(poss, dtype=np.int64)
        s = (p & 7).astype(np.uint64)
        b = p >> 3
        window = (win[b] << s) | (nxt[b] >> (np.uint64(8) - s))
        w = np.array(widths, dtype=np.uint64)
        t = np.array(trails, dtype=np.uint64)
        xors[np.array(idxs, dtype=np.int64)] = (
            window >> (np.uint64(64) - w)
        ) << t
    return np.bitwise_xor.accumulate(xors)


@register
class Gorilla(Encoding):
    """Facebook Gorilla XOR compression for float columns."""

    id = 17
    name = "gorilla"
    kinds = frozenset({Kind.FLOAT})

    def encode(self, values) -> bytes:
        values = as_float(values)
        writer = ByteWriter()
        writer.write_u8(float_dtype_code(values.dtype))
        writer.write_u64(len(values))
        if len(values) == 0:
            return writer.getvalue()
        bits = _to_bits(values)
        xors, leads, trails = (
            a.tolist() for a in _xor_lead_trail(bits)
        )
        vals: list[int] = [int(bits[0])]
        widths: list[int] = [64]
        ap_v = vals.append
        ap_w = widths.append
        prev_lead, prev_trail = 65, 65  # invalid -> first xor writes window
        for j, xor in enumerate(xors):
            if xor == 0:
                ap_v(0)
                ap_w(1)
                continue
            lead = leads[j]
            if lead > 31:
                lead = 31
            trail = trails[j]
            if lead >= prev_lead and trail >= prev_trail:
                ap_v(2)  # bits '1','0': reuse the previous window
                ap_w(2)
                ap_v(xor >> prev_trail)
                ap_w(64 - prev_lead - prev_trail)
            else:
                meaningful = 64 - lead - trail
                # '11' + 5-bit lead + 7-bit length, as one 14-bit field
                ap_v((0b11 << 12) | (lead << 7) | meaningful)
                ap_w(14)
                ap_v(xor >> trail)
                ap_w(meaningful)
                prev_lead, prev_trail = lead, trail
        payload, n_bits = _emit(vals, widths)
        writer.write_u64(n_bits)
        writer.write(payload)
        return writer.getvalue()

    @classmethod
    def decode(cls, reader: ByteReader) -> np.ndarray:
        dtype = float_dtype_from_code(reader.read_u8())
        count = reader.read_u64()
        if count == 0:
            return np.zeros(0, dtype=dtype)
        total = reader.read_u64()
        payload = reader.read((total + 7) // 8)
        if total < 64:
            raise EncodingError("gorilla: truncated bit stream")
        win_np, nxt_np = _msb_windows(payload)
        win = win_np.tolist()
        nxt = nxt_np.tolist()
        pos = 64
        lead, trail = 65, 65
        idxs: list[int] = []
        poss: list[int] = []
        widths: list[int] = []
        trails: list[int] = []
        for i in range(1, count):
            if pos >= total:
                raise EncodingError("gorilla: truncated bit stream")
            byte_idx = pos >> 3
            shift = pos & 7
            if shift:
                window = ((win[byte_idx] << shift) & _M64) | (
                    nxt[byte_idx] >> (8 - shift)
                )
            else:
                window = win[byte_idx]
            if not window >> 63:
                pos += 1
                continue
            if window >> 62 == 0b10:
                pos += 2
                meaningful = 64 - lead - trail
                if meaningful <= 0:
                    # corrupt stream reusing the initial (invalid)
                    # window; the scalar reference read zero bits here
                    continue
            else:
                pos += 2
                if pos + 12 > total:
                    raise EncodingError("gorilla: truncated bit stream")
                # lead(5) + length(7) sit inside the same 64-bit window
                header = (window >> 50) & 0xFFF
                lead = header >> 7
                meaningful = header & 0x7F
                trail = 64 - lead - meaningful
                pos += 12
                if trail < 0:
                    raise EncodingError("gorilla: corrupt meaningful length")
            if pos + meaningful > total:
                raise EncodingError("gorilla: truncated bit stream")
            if meaningful:
                idxs.append(i)
                poss.append(pos)
                widths.append(meaningful)
                trails.append(trail)
                pos += meaningful
        out = _accumulate_xors(
            win_np, nxt_np, win[0], count, idxs, poss, widths, trails
        )
        return out.view(np.float64).astype(dtype)


#: Chimp's leading-zero rounding table (values 0..64 -> class)
_CHIMP_LEAD_ROUND = [0, 8, 12, 16, 18, 20, 22, 24]


@register
class Chimp(Encoding):
    """Chimp: Gorilla with a 3-bit leading-zero class table.

    Flag scheme per value (2 bits):
      00 -> identical to previous
      01 -> reuse previous leading class, meaningful bits follow
      10 -> new leading class (3 bits) + meaningful bits to the end
      11 -> new leading class (3 bits) + 6-bit significant length + bits
    """

    id = 18
    name = "chimp"
    kinds = frozenset({Kind.FLOAT})

    def encode(self, values) -> bytes:
        values = as_float(values)
        writer = ByteWriter()
        writer.write_u8(float_dtype_code(values.dtype))
        writer.write_u64(len(values))
        if len(values) == 0:
            return writer.getvalue()
        bits = _to_bits(values)
        xors_np, lead_np, trail_np = _xor_lead_trail(bits)
        # leading-zero class per transition, whole-array
        class_idx = (
            np.searchsorted(_CHIMP_LEAD_ROUND, lead_np, side="right") - 1
        ).tolist()
        xors = xors_np.tolist()
        trails = trail_np.tolist()
        vals: list[int] = [int(bits[0])]
        widths: list[int] = [64]
        ap_v = vals.append
        ap_w = widths.append
        prev_class = -1
        for j, xor in enumerate(xors):
            if xor == 0:
                ap_v(0b00)
                ap_w(2)
                continue
            idx = class_idx[j]
            lead_class = _CHIMP_LEAD_ROUND[idx]
            trail = trails[j]
            if trail > 6:
                # worth spending 6 bits on an explicit length;
                # '11' + 3-bit class + 6-bit length as one 11-bit field
                sig = 64 - lead_class - trail
                ap_v((0b11 << 9) | (idx << 6) | sig)
                ap_w(11)
                ap_v(xor >> trail)
                ap_w(sig)
                prev_class = lead_class
            elif lead_class == prev_class:
                ap_v(0b01)
                ap_w(2)
                ap_v(xor)
                ap_w(64 - lead_class)
            else:
                ap_v((0b10 << 3) | idx)
                ap_w(5)
                ap_v(xor)
                ap_w(64 - lead_class)
                prev_class = lead_class
        payload, n_bits = _emit(vals, widths)
        writer.write_u64(n_bits)
        writer.write(payload)
        return writer.getvalue()

    @classmethod
    def decode(cls, reader: ByteReader) -> np.ndarray:
        dtype = float_dtype_from_code(reader.read_u8())
        count = reader.read_u64()
        if count == 0:
            return np.zeros(0, dtype=dtype)
        total = reader.read_u64()
        payload = reader.read((total + 7) // 8)
        if total < 64:
            raise EncodingError("chimp: truncated bit stream")
        win_np, nxt_np = _msb_windows(payload)
        win = win_np.tolist()
        nxt = nxt_np.tolist()
        pos = 64
        lead_class = 0
        table = _CHIMP_LEAD_ROUND
        idxs: list[int] = []
        poss: list[int] = []
        widths: list[int] = []
        trails: list[int] = []
        for i in range(1, count):
            if pos + 2 > total:
                raise EncodingError("chimp: truncated bit stream")
            byte_idx = pos >> 3
            shift = pos & 7
            if shift:
                window = ((win[byte_idx] << shift) & _M64) | (
                    nxt[byte_idx] >> (8 - shift)
                )
            else:
                window = win[byte_idx]
            flag = window >> 62
            if flag == 0b00:
                pos += 2
                continue
            if flag == 0b11:
                if pos + 11 > total:
                    raise EncodingError("chimp: truncated bit stream")
                # class(3) + length(6) sit inside the same window
                lead_class = table[(window >> 59) & 7]
                sig = (window >> 53) & 63
                trail = 64 - lead_class - sig
                if trail < 0:
                    raise EncodingError("chimp: corrupt significant length")
                pos += 11
                if pos + sig > total:
                    raise EncodingError("chimp: truncated bit stream")
                if sig:
                    idxs.append(i)
                    poss.append(pos)
                    widths.append(sig)
                    trails.append(trail)
                    pos += sig
            else:
                if flag == 0b10:
                    lead_class = table[(window >> 59) & 7]
                    pos += 5
                else:  # 0b01
                    pos += 2
                meaningful = 64 - lead_class
                if pos + meaningful > total:
                    raise EncodingError("chimp: truncated bit stream")
                idxs.append(i)
                poss.append(pos)
                widths.append(meaningful)
                trails.append(0)
                pos += meaningful
        out = _accumulate_xors(
            win_np, nxt_np, win[0], count, idxs, poss, widths, trails
        )
        return out.view(np.float64).astype(dtype)
