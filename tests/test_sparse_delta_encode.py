"""The vectorized overlap search of ``SparseListDelta.encode``.

``batch_overlaps`` evaluates ``find_overlap``'s fast paths for every row
at once and hands only the rows they do not settle to ``find_overlap``
itself. Its answer must be ``find_overlap``'s, row for row: that is
what keeps the encoded bytes those of the row-by-row encoder (the
digests in ``test_writer_golden.py``).
"""

import numpy as np
import pytest

from repro.encodings import RaggedColumn, SparseListDelta, decode_blob, encode_blob
from repro.encodings.sparse_delta import batch_overlaps, find_overlap
from tests.test_writer_golden import SLD_CASES, _mixed


def _assert_matches_find_overlap(rows: list) -> None:
    column = RaggedColumn.from_rows(rows)
    start, end, head, tail = batch_overlaps(column)
    assert len(start) == max(len(rows) - 1, 0)
    for i in range(1, len(rows)):
        want = find_overlap(rows[i - 1], rows[i])
        got = (start[i - 1], end[i - 1], head[i - 1], tail[i - 1])
        assert got == (want.start, want.end, want.head_len, want.tail_len), i


@pytest.mark.parametrize("seed", range(20))
def test_batch_choice_equals_find_overlap(seed):
    _assert_matches_find_overlap(_mixed(1000 + seed))


@pytest.mark.parametrize("case", sorted(SLD_CASES))
def test_batch_choice_equals_find_overlap_on_golden_shapes(case):
    _assert_matches_find_overlap(SLD_CASES[case]())


@pytest.mark.parametrize("rows", [[], [np.arange(3)], [np.zeros(0), np.zeros(0)]])
def test_degenerate_columns_round_trip(rows):
    rows = [np.asarray(r, dtype=np.int64) for r in rows]
    _assert_matches_find_overlap(rows)
    out = decode_blob(encode_blob(rows, SparseListDelta()))
    assert out.equals(rows)
