"""Tests for the cascading encoding selector (§2.6)."""

import numpy as np
import pytest

from repro.cascading import (
    BALANCED,
    COLD_STORAGE,
    CostWeights,
    candidate_encodings,
    choose_encoding,
    collect_stats,
    score_candidate,
    select_encoding,
    take_sample,
)
from repro.cascading.stats import SAMPLE_RUNS
from repro.encodings import Kind, Trivial, decode_blob, encode_blob

RNG = np.random.default_rng(11)


class TestStats:
    def test_int_stats(self):
        data = np.repeat(np.arange(10, dtype=np.int64), 100)
        s = collect_stats(data)
        assert s.kind == Kind.INT
        assert s.n_unique == 10
        assert s.avg_run_length > 50
        assert s.sorted_fraction == 1.0
        assert s.non_negative

    def test_negative_detected(self):
        s = collect_stats(np.array([-5, 3], dtype=np.int64))
        assert not s.non_negative

    def test_float_decimal_fraction(self):
        decs = np.round(RNG.normal(size=500), 2)
        gauss = RNG.normal(size=500)
        assert collect_stats(decs).decimal_fraction > 0.95
        assert collect_stats(gauss).decimal_fraction < 0.05

    def test_bool_stats(self):
        data = RNG.random(1000) < 0.1
        s = collect_stats(data)
        assert s.kind == Kind.BOOL
        assert 0.0 < s.true_fraction < 0.25

    def test_bytes_stats(self):
        data = [b"a", b"a", b"b"] * 100
        s = collect_stats(data)
        assert s.n_unique == 2
        assert s.avg_byte_length == 1.0

    def test_list_window_overlap(self):
        window = list(RNG.integers(0, 1000, 64))
        rows = []
        for _ in range(20):
            window = ([int(RNG.integers(0, 1000))] + window)[:64]
            rows.append(np.array(window, dtype=np.int64))
        s = collect_stats(rows)
        assert s.kind == Kind.LIST_INT
        assert s.window_overlap > 0.8

    def test_sample_preserves_head_structure(self):
        """What runs promise: each contiguous, the first starting at
        row 0, the last ending at the last row, at most ``limit``."""
        data = np.arange(100000, dtype=np.int64)
        sample = take_sample(data, limit=1000)
        assert len(sample) <= 1000
        runs = np.split(sample, np.flatnonzero(np.diff(sample) != 1) + 1)
        assert len(runs) == SAMPLE_RUNS
        assert all(len(run) == 1000 // SAMPLE_RUNS for run in runs)
        assert runs[0][0] == 0 and runs[-1][-1] == len(data) - 1
        gaps = [b[0] - a[-1] for a, b in zip(runs, runs[1:])]
        assert max(gaps) - min(gaps) <= 1  # spread evenly
        # lists take the same rows; a column that fits is returned whole
        assert take_sample(data.tolist(), limit=1000) == sample.tolist()
        fits = data[:1000]
        assert take_sample(fits, limit=1000) is fits


class TestSelector:
    def test_constant_column(self):
        r = select_encoding(np.full(5000, 9, dtype=np.int64))
        assert r.description == "constant"

    def test_winner_always_roundtrips(self):
        cases = [
            RNG.integers(-(10**6), 10**6, 2000).astype(np.int64),
            np.sort(RNG.integers(0, 10**9, 2000)).astype(np.int64),
            np.round(RNG.normal(size=1500), 3),
            RNG.normal(size=1500),
            [f"u{i % 50}@x.com".encode() for i in range(1000)],
            RNG.random(3000) < 0.01,
        ]
        for data in cases:
            r = select_encoding(data)
            out = decode_blob(encode_blob(data, r.encoding))
            if isinstance(data, np.ndarray):
                assert np.array_equal(np.asarray(out, dtype=data.dtype), data)
            else:
                assert list(out) == list(data)

    def test_sliding_windows_pick_sparse_delta(self):
        from repro.workloads.sparse import (
            SlidingWindowConfig,
            generate_click_sequences,
        )

        rows, _ = generate_click_sequences(
            SlidingWindowConfig(n_users=5, events_per_user=30, window_size=128)
        )
        # under size-dominant weights the structure-aware scheme wins
        r = select_encoding(rows, weights=COLD_STORAGE)
        assert "sparse_list_delta" in r.description
        # and it is always in the candidate pool when overlap is high
        default = select_encoding(rows)
        assert any(
            "sparse_list_delta" in s.description for s in default.scores
        )

    def test_depth_zero_excludes_compositions(self):
        data = np.repeat(RNG.integers(0, 4, 100), 50).astype(np.int64)
        r = select_encoding(data, max_depth=0)
        descriptions = {s.description for s in r.scores}
        assert all("rle(" not in d and "chunked" not in d for d in descriptions)

    def test_depth_increases_candidate_pool(self):
        data = np.repeat(RNG.integers(0, 4, 100), 50).astype(np.int64)
        stats = collect_stats(data)

        def pool(depth):
            return candidate_encodings(data, stats, depth, BALANCED)

        assert len(pool(2)) > len(pool(0))

    def test_scores_sorted_by_objective(self):
        r = select_encoding(RNG.integers(0, 100, 2000).astype(np.int64))
        objectives = [s.objective for s in r.scores]
        assert objectives == sorted(objectives)

    def test_cold_storage_weights_prefer_smaller(self):
        data = np.resize(
            np.repeat(RNG.integers(0, 1000, 50), RNG.integers(1, 20, 50)), 4000
        ).astype(np.int64)
        cold = select_encoding(data, weights=COLD_STORAGE)
        # under cold weights the winner's size must be minimal-ish
        sizes = [s.encoded_bytes for s in cold.scores]
        assert cold.best.encoded_bytes <= np.percentile(sizes, 30)


class TestObjective:
    def test_score_none_on_inapplicable(self):
        from repro.encodings import Varint

        assert (
            score_candidate(
                np.array([-1], dtype=np.int64), Varint(), BALANCED
            )
            is None
        )

    def test_weights_change_ranking_direction(self):
        w_size = CostWeights(size=100.0, read=0.0, write=0.0)
        w_read = CostWeights(size=0.0, read=100.0, write=0.0)
        data = RNG.integers(0, 50, 4000).astype(np.int64)
        by_size = select_encoding(data, weights=w_size)
        assert by_size.best.encoded_bytes == min(
            s.encoded_bytes for s in by_size.scores
        )
        by_read = select_encoding(data, weights=w_read)
        assert by_read.best.read_seconds <= np.median(
            [s.read_seconds for s in by_read.scores]
        )

    def test_choose_encoding_alias(self):
        r = choose_encoding(np.arange(100, dtype=np.int64))
        assert isinstance(r.encoding, object)
        assert r.encoding is not None or isinstance(r.encoding, Trivial)
