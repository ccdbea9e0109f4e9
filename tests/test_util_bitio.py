"""Tests for repro.util.bitio: byte streams and bit packing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.bitio import (
    ByteReader,
    ByteWriter,
    min_bit_width,
    pack_bits,
    set_packed_values,
    unpack_bits,
)


class TestByteWriterReader:
    def test_scalar_roundtrip(self):
        w = ByteWriter()
        w.write_u8(7)
        w.write_u16(65535)
        w.write_u32(123456)
        w.write_u64(2**63)
        w.write_i64(-42)
        w.write_f64(3.25)
        r = ByteReader(w.getvalue())
        assert r.read_u8() == 7
        assert r.read_u16() == 65535
        assert r.read_u32() == 123456
        assert r.read_u64() == 2**63
        assert r.read_i64() == -42
        assert r.read_f64() == 3.25
        assert r.remaining() == 0

    def test_blob_roundtrip(self):
        w = ByteWriter()
        w.write_blob(b"hello")
        w.write_blob(b"")
        r = ByteReader(w.getvalue())
        assert r.read_blob() == b"hello"
        assert r.read_blob() == b""

    def test_array_roundtrip(self):
        arr = np.array([1, -2, 3], dtype=np.int64)
        w = ByteWriter()
        w.write_array(arr)
        r = ByteReader(w.getvalue())
        assert np.array_equal(r.read_array(np.int64, 3), arr)

    def test_read_past_end_raises(self):
        r = ByteReader(b"abc")
        with pytest.raises(ValueError, match="exceeds"):
            r.read(4)

    def test_reader_offset_start(self):
        r = ByteReader(b"\x00\x01\x02", offset=1)
        assert r.read_u8() == 1

    def test_len_tracks_written_bytes(self):
        w = ByteWriter()
        w.write_u32(0)
        w.write(b"xy")
        assert len(w) == 6


class TestBitPacking:
    def test_min_bit_width(self):
        assert min_bit_width(np.array([], dtype=np.uint64)) == 0
        assert min_bit_width(np.array([0], dtype=np.uint64)) == 0
        assert min_bit_width(np.array([1], dtype=np.uint64)) == 1
        assert min_bit_width(np.array([255], dtype=np.uint64)) == 8
        assert min_bit_width(np.array([256], dtype=np.uint64)) == 9

    def test_min_bit_width_rejects_negative(self):
        with pytest.raises(ValueError):
            min_bit_width(np.array([-1], dtype=np.int64))

    def test_pack_unpack_basic(self):
        values = np.array([0, 1, 5, 7], dtype=np.uint64)
        packed = pack_bits(values, 3)
        assert len(packed) == (3 * 4 + 7) // 8
        assert np.array_equal(unpack_bits(packed, 3, 4), values)

    def test_width_zero(self):
        assert pack_bits(np.zeros(10, dtype=np.uint64), 0) == b""
        assert np.array_equal(
            unpack_bits(b"", 0, 10), np.zeros(10, dtype=np.uint64)
        )

    def test_width_64(self):
        values = np.array([2**64 - 1, 0, 12345], dtype=np.uint64)
        packed = pack_bits(values, 64)
        assert np.array_equal(unpack_bits(packed, 64, 3), values)

    def test_width_over_64_rejected(self):
        with pytest.raises(ValueError):
            pack_bits(np.array([1], dtype=np.uint64), 65)

    def test_truncated_buffer_raises(self):
        packed = pack_bits(np.array([7, 7, 7], dtype=np.uint64), 3)
        with pytest.raises(ValueError, match="too small"):
            unpack_bits(packed[:0], 3, 3)

    @given(
        st.lists(st.integers(0, 2**32 - 1), min_size=0, max_size=200),
        st.integers(32, 64),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_roundtrip(self, values, width):
        arr = np.array(values, dtype=np.uint64)
        packed = pack_bits(arr, width)
        assert np.array_equal(unpack_bits(packed, width, len(arr)), arr)


def _pack_bits_generic(values: np.ndarray, width: int) -> bytes:
    """The bit-at-a-time layout definition, with no aligned fast path."""
    shifts = np.arange(width, dtype=np.uint64)
    bits = ((values[:, None] >> shifts[None, :]) & np.uint64(1)).astype(np.uint8)
    return np.packbits(bits.reshape(-1), bitorder="little").tobytes()


def _unpack_bits_generic(data: bytes, width: int, count: int) -> np.ndarray:
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8), bitorder="little")
    weights = np.uint64(1) << np.arange(width, dtype=np.uint64)
    return (
        bits[: width * count].reshape(count, width).astype(np.uint64) * weights
    ).sum(axis=1, dtype=np.uint64)


class TestByteAlignedWidths:
    """Widths 8/16/32/64 take a ``frombuffer`` shortcut; bytes and values
    must match the generic LSB-first layout exactly."""

    WIDTHS = [8, 16, 32, 64]

    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("count", [1, 7, 8, 9, 1024])
    def test_matches_generic_layout(self, width, count):
        rng = np.random.default_rng([width, count])
        values = rng.integers(0, 1 << width, count, dtype=np.uint64, endpoint=False)
        values[0] = (1 << width) - 1
        packed = pack_bits(values, width)
        assert packed == _pack_bits_generic(values, width)
        out = unpack_bits(packed, width, count)
        assert out.dtype == np.uint64 and out.flags.writeable
        assert np.array_equal(out, values)
        assert np.array_equal(out, _unpack_bits_generic(packed, width, count))

    @pytest.mark.parametrize("width", [8, 16, 32])
    def test_pack_keeps_only_the_low_bits(self, width):
        values = np.array([(1 << width) + 5, 2**64 - 1], dtype=np.uint64)
        assert pack_bits(values, width) == _pack_bits_generic(values, width)

    @pytest.mark.parametrize("width", WIDTHS)
    def test_short_buffer_raises(self, width):
        packed = pack_bits(np.arange(10, dtype=np.uint64), width)
        with pytest.raises(ValueError, match="too small"):
            unpack_bits(packed[:-1], width, 10)
        with pytest.raises(ValueError, match="too small"):
            unpack_bits(b"", width, 1)

    @pytest.mark.parametrize("width", WIDTHS)
    def test_surplus_buffer_and_views_are_accepted(self, width):
        values = np.arange(10, dtype=np.uint64)
        packed = pack_bits(values, width) + b"\xff" * 3
        for data in (packed, bytearray(packed), memoryview(packed)):
            assert np.array_equal(unpack_bits(data, width, 10), values)

    @pytest.mark.parametrize("width", WIDTHS)
    def test_slot_access_agrees(self, width):
        values = np.arange(1, 6, dtype=np.uint64)
        buf = bytearray(pack_bits(values, width))
        set_packed_values(buf, [3], width, 0)
        assert np.array_equal(unpack_bits(bytes(buf), width, 5), [1, 2, 3, 0, 5])


class TestInPlaceSlotAccess:
    """set_packed_values backs the §2.1 bit-packed deletion masker."""

    def test_set_and_get(self):
        values = np.array([3, 5, 7, 1], dtype=np.uint64)
        buf = bytearray(pack_bits(values, 3))
        set_packed_values(buf, [2], 3, 0)
        out = unpack_bits(bytes(buf), 3, 4)
        assert np.array_equal(out, [3, 5, 0, 1])

    def test_neighbours_untouched(self):
        values = np.arange(16, dtype=np.uint64)
        buf = bytearray(pack_bits(values, 5))
        set_packed_values(buf, [7, 9], 5, 31)
        out = unpack_bits(bytes(buf), 5, 16)
        expected = values.copy()
        expected[[7, 9]] = 31
        assert np.array_equal(out, expected)

    def test_value_too_wide_rejected(self):
        buf = bytearray(pack_bits(np.array([1], dtype=np.uint64), 2))
        with pytest.raises(ValueError):
            set_packed_values(buf, [0], 2, 4)

    def test_width_zero_noop(self):
        buf = bytearray()
        set_packed_values(buf, [3], 0, 0)
        assert buf == bytearray()
        assert np.array_equal(unpack_bits(b"", 0, 4), np.zeros(4))
