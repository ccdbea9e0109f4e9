"""Tests for bytes/bool/nullable/list encodings and the sparse delta."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.encodings import (
    EncodingError,
    FSST,
    ListEncoding,
    Nullable,
    Roaring,
    Sentinel,
    SparseBool,
    SparseListDelta,
    decode_blob,
    encode_blob,
    find_overlap,
)
from repro.encodings.roaring import ARRAY_CONTAINER_MAX, BUCKET_SIZE


class TestFSST:
    def test_structured_strings_compress(self):
        data = [
            f"https://shop.example.com/product/{i % 100}/view".encode()
            for i in range(2000)
        ]
        blob = encode_blob(data, FSST())
        raw = sum(len(s) for s in data)
        assert len(blob) < raw  # symbol table finds the shared substrings

    def test_empty_strings(self):
        data = [b"", b"a", b""]
        assert decode_blob(encode_blob(data, FSST())) == data

    def test_binary_with_escape_byte(self):
        data = [bytes([0xFF, 0xFF, 0x00]), bytes(range(256))]
        assert decode_blob(encode_blob(data, FSST())) == data

    @given(st.lists(st.binary(max_size=40), max_size=60))
    @settings(max_examples=25, deadline=None)
    def test_property_roundtrip(self, data):
        assert decode_blob(encode_blob(data, FSST())) == data


class TestSparseBool:
    def test_sparse_uses_positions_mode(self):
        data = np.zeros(100000, dtype=np.bool_)
        data[[5, 999, 70000]] = True
        blob = encode_blob(data, SparseBool())
        assert len(blob) < 100  # far below the 12.5 KB bitmap

    def test_dense_uses_bitmap_mode(self):
        rng = np.random.default_rng(0)
        data = rng.random(8000) < 0.5
        blob = encode_blob(data, SparseBool())
        assert len(blob) <= 8000 // 8 + 32

    def test_rejects_non_bool(self):
        with pytest.raises(EncodingError):
            encode_blob(np.array([1, 0]), SparseBool())


class TestRoaring:
    def test_array_and_bitmap_containers(self):
        data = np.zeros(3 * BUCKET_SIZE, dtype=np.bool_)
        data[:10] = True  # bucket 0: array container
        data[BUCKET_SIZE : BUCKET_SIZE + ARRAY_CONTAINER_MAX + 100] = True  # bitmap
        blob = encode_blob(data, Roaring())
        assert np.array_equal(decode_blob(blob), data)

    def test_cardinality_without_decode(self):
        data = np.zeros(10000, dtype=np.bool_)
        data[::7] = True
        blob = encode_blob(data, Roaring())
        assert Roaring.cardinality(blob[1:]) == int(data.sum())

    def test_all_false(self):
        data = np.zeros(500, dtype=np.bool_)
        assert np.array_equal(decode_blob(encode_blob(data, Roaring())), data)


class TestNullable:
    def test_masked_int_roundtrip(self):
        values = np.ma.MaskedArray(
            np.array([1, 2, 3, 4], dtype=np.int64),
            mask=[False, True, False, True],
        )
        out = decode_blob(encode_blob(values, Nullable()))
        assert np.ma.allequal(out, values)
        assert list(np.ma.getmaskarray(out)) == [False, True, False, True]

    def test_bytes_with_none(self):
        data = [b"a", None, b"c", None, None]
        assert decode_blob(encode_blob(data, Nullable())) == data

    def test_all_null(self):
        values = np.ma.MaskedArray(np.zeros(10, dtype=np.int64), mask=True)
        out = decode_blob(encode_blob(values, Nullable()))
        assert np.ma.getmaskarray(out).all()

    def test_sentinel_picks_unused_value(self):
        values = np.ma.MaskedArray(
            np.array([5, 5, 7], dtype=np.int64), mask=[False, True, False]
        )
        out = decode_blob(encode_blob(values, Sentinel()))
        assert np.ma.allequal(out, values)

    def test_sentinel_requires_masked_input(self):
        with pytest.raises(EncodingError):
            encode_blob(np.array([1, 2], dtype=np.int64), Sentinel())


class TestListEncoding:
    def test_float_lists(self):
        data = [np.array([1.5, 2.5]), np.array([]), np.array([3.0])]
        out = decode_blob(encode_blob(data, ListEncoding()))
        for a, b in zip(out, data):
            assert np.array_equal(a, np.asarray(b))

    def test_bytes_lists(self):
        data = [[b"a", b"bb"], [], [b"ccc"]]
        assert decode_blob(encode_blob(data, ListEncoding())) == data

    def test_nested_int_lists(self):
        data = [
            [np.array([1, 2], dtype=np.int64)],
            [],
            [np.array([3], dtype=np.int64), np.array([4, 5], dtype=np.int64)],
        ]
        out = decode_blob(encode_blob(data, ListEncoding()))
        assert len(out) == 3
        assert np.array_equal(out[2][1], [4, 5])

    def test_ragged_rejected(self):
        with pytest.raises(EncodingError):
            encode_blob(
                [np.zeros((2, 2), dtype=np.int64)], ListEncoding()
            )


class TestFindOverlap:
    def test_identical(self):
        a = np.arange(10, dtype=np.int64)
        ov = find_overlap(a, a.copy())
        assert (ov.start, ov.end, ov.head_len, ov.tail_len) == (0, 10, 0, 0)

    def test_new_head_element(self):
        """Fig 4's second row: one new value at the head."""
        prev = np.array([92, 82, 66, 18], dtype=np.int64)
        cur = np.array([76, 92, 82, 66], dtype=np.int64)
        ov = find_overlap(prev, cur)
        assert (ov.start, ov.end) == (0, 3)
        assert ov.head_len == 1 and ov.tail_len == 0

    def test_dropped_head_element(self):
        """Fig 4's fourth row: window slides, oldest head drops."""
        prev = np.array([76, 92, 82, 66], dtype=np.int64)
        cur = np.array([92, 82, 66, 55], dtype=np.int64)
        ov = find_overlap(prev, cur)
        assert (ov.start, ov.end) == (1, 4)
        assert ov.head_len == 0 and ov.tail_len == 1

    def test_middle_match(self):
        prev = np.array([1, 2, 3, 4], dtype=np.int64)
        cur = np.array([9, 2, 3, 9], dtype=np.int64)
        ov = find_overlap(prev, cur)
        assert (ov.start, ov.end, ov.head_len, ov.tail_len) == (1, 3, 1, 1)

    def test_no_overlap(self):
        ov = find_overlap(
            np.array([1, 2], dtype=np.int64), np.array([8, 9], dtype=np.int64)
        )
        assert ov.length == 0

    def test_empty_inputs(self):
        empty = np.zeros(0, dtype=np.int64)
        assert find_overlap(empty, empty).length == 0
        assert find_overlap(empty, np.array([1], dtype=np.int64)).length == 0


class TestSparseListDelta:
    def _windows(self, n_rows=40, size=32, seed=0):
        rng = np.random.default_rng(seed)
        window = list(rng.integers(0, 10**6, size))
        rows = []
        for _ in range(n_rows):
            new = list(rng.integers(0, 10**6, int(rng.integers(0, 3))))
            window = (new + window)[:size]
            rows.append(np.array(window, dtype=np.int64))
        return rows

    def test_sliding_windows_roundtrip(self):
        rows = self._windows()
        out = decode_blob(encode_blob(rows, SparseListDelta()))
        for a, b in zip(out, rows):
            assert np.array_equal(a, b)

    def test_large_savings_on_windows(self):
        rows = self._windows(n_rows=200, size=256)
        blob = encode_blob(rows, SparseListDelta())
        plain = 8 * sum(len(r) for r in rows) + 4 * len(rows)  # int64 + len
        assert len(blob) < plain / 5  # the §2.2 substantial savings

    def test_reanchors_on_unrelated_rows(self):
        rng = np.random.default_rng(1)
        rows = [
            rng.integers(0, 10**9, 64).astype(np.int64) for _ in range(20)
        ]
        out = decode_blob(encode_blob(rows, SparseListDelta()))
        for a, b in zip(out, rows):
            assert np.array_equal(a, b)

    def test_empty_and_varying_lengths(self):
        rows = [
            np.array([], dtype=np.int64),
            np.array([1, 2, 3], dtype=np.int64),
            np.array([2, 3], dtype=np.int64),
            np.array([], dtype=np.int64),
        ]
        out = decode_blob(encode_blob(rows, SparseListDelta()))
        for a, b in zip(out, rows):
            assert np.array_equal(a, b)

    @given(
        st.lists(
            st.lists(st.integers(0, 50), max_size=12),
            max_size=25,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_property_roundtrip(self, pyrows):
        rows = [np.array(r, dtype=np.int64) for r in pyrows]
        out = decode_blob(encode_blob(rows, SparseListDelta()))
        assert len(out) == len(rows)
        for a, b in zip(out, rows):
            assert np.array_equal(a, b)
