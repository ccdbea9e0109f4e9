"""Long-sequence sparse feature delta encoding (paper §2.2, Fig 4).

Sparse features like ``clk_seq_cids`` are ``list<int64>`` vectors (e.g.
256 ad IDs) sorted by (uid, time). Consecutive vectors of the same user
overlap heavily — a *sliding window*: a few new IDs enter at the head,
a few old ones fall off the tail. The paper extends delta encoding to
these vectors:

    the first vector of the column serves as the base vector, using a
    delta flag set to 0 ... Subsequent feature encodings adopt the
    format: <delta bit> <delta range> <len(head),data> <len(tail),data>

so a row is reconstructed as ``head ++ prev[a:b] ++ tail``. Exactly as
in Fig 4, "feature metadata and indexes are placed at the beginning,
encoded via bitpacking or varint due to their smaller value. The bulk
data follows, which can be compressed via zstd" (zlib here; see
DESIGN.md substitutions).

Overlap search: the common sliding-window alignments (small shifts) are
tried first with vectorized runs, so typical rows cost O(n); the general
fallback scans all alignments (worst case O(n^2), only hit by
adversarial data).

Decode
------
``decode_pages`` takes all pages of a chunk at once. Every page starts
with a base row, so their sub-columns concatenate into one valid
stream; the size columns are validated first, page by page (a page is
checked against its own bulk, never a neighbour's), and assembly then
runs once, with no per-row allocation. Rows come back as read-only
``int64`` views that may overlap each other in memory. The stream
splits into *segments*, a base row and the delta rows up to the next
base, and each segment takes one of three paths, chosen from the size
columns alone:

* **Append run** (Fig 4 row 4): every delta row has no head and keeps
  its predecessor through to the end (``range_end == len(prev)``). The
  bulk is then already the id stream, base row followed by the tails in
  order, so row ``i`` is ``bulk[e_i - len_i : e_i]`` with ``e_i`` the
  end of its own bulk slice. Nothing is copied. A sliding window over
  an id stream encodes to exactly this.
* **Prepend run** (Fig 4 row 2): every delta row has no tail and keeps
  its predecessor from the start (``range_start == 0``). The segment's
  bulk pieces are written once, back to front (last head first, base row
  last); each row is then a window starting at its own head. Only bulk
  elements move, in one vectorised scatter.
* **Generic**: one flat ``int64`` buffer for all such rows. Heads and
  tails land in the same scatter (``np.repeat`` + ``arange`` index
  ranges, no per-row call). The copy of ``prev[a:b]`` depends on the row
  before it, so it stays a loop, reduced to ``out[d:d+k] = out[s:s+k]``
  over plain ints.

Per 1,024-row page, decode of the old per-row ``np.concatenate`` loop
against this one: append run 1.85 -> 0.34 ms at W=32 and 2.71 -> 0.38 ms
at W=256; prepend run 1.86 -> 0.55 ms at W=32; generic 1.89 -> 0.93 ms
at W=32 and 2.20 -> 1.10 ms at W=256. Per chunk of 8 such pages (append
run, W=32), page by page against one ``decode_pages`` call: 4.11 ->
3.41 ms. What is left is per page or per row, not per chunk: 32 varint
size columns (1.3 ms), zlib on the bulk (0.4 ms) and about 0.15 us per
row to create its view (1.1 ms).

Resolving every output element by pointer doubling (each element points
at the element of the previous row it copies; ``ptr = ptr[ptr]`` until
fixed) was tried and is not used. It gathers over all *output* elements
once per doubling, and chains are as long as an id stays in the window:
the gathers alone take 6.9 ms per page at W=256, 13.6 ms with the
pointer array built. The paths above touch each output element at most
once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.encodings.base import (
    Encoding,
    EncodingError,
    Kind,
    decode_child,
    encode_child,
    join_values,
    register,
)
from repro.encodings.chunked import Chunked
from repro.encodings.lists import normalize_list_column
from repro.encodings.varint_enc import Varint
from repro.util.bitio import ByteReader, ByteWriter


@dataclass(frozen=True)
class Overlap:
    """A match ``cur[head_len : len(cur)-tail_len] == prev[start:end]``."""

    start: int
    end: int
    head_len: int
    tail_len: int

    @property
    def length(self) -> int:
        return self.end - self.start


def _longest_run(eq: np.ndarray) -> tuple[int, int]:
    """(start, length) of the longest run of True in a boolean array."""
    if len(eq) == 0:
        return 0, 0
    padded = np.concatenate(([False], eq, [False]))
    edges = np.flatnonzero(padded[1:] != padded[:-1])
    if len(edges) == 0:
        return 0, 0
    starts, ends = edges[0::2], edges[1::2]
    lengths = ends - starts
    best = int(np.argmax(lengths))
    return int(starts[best]), int(lengths[best])


from functools import lru_cache


@lru_cache(maxsize=64)
def _shift_order(n_prev: int, n_cur: int) -> tuple[int, ...]:
    return tuple(sorted(range(-(n_prev - 1), n_cur), key=abs))


def find_overlap(prev: np.ndarray, cur: np.ndarray) -> Overlap:
    """Best contiguous overlap between ``prev`` and ``cur``.

    Fast paths cover the canonical sliding-window shapes (identical
    window, new IDs at the head, old IDs dropped) in O(window) time;
    the general fallback tries alignment shifts in order of increasing
    magnitude with pruning.
    """
    n_prev, n_cur = len(prev), len(cur)
    if n_prev == 0 or n_cur == 0:
        return Overlap(0, 0, 0, n_cur)
    # fast path 1: identical windows (repeat events, Fig 4 row 3)
    if n_prev == n_cur and prev[0] == cur[0] and np.array_equal(prev, cur):
        return Overlap(0, n_prev, 0, 0)
    # fast path 2: h new values at the head, window truncated to size
    # (cur = new ++ prev[:keep]) — Fig 4 row 2
    max_probe = min(8, n_cur - 1)
    for h in range(1, max_probe + 1):
        keep = min(n_cur - h, n_prev)
        if keep > 0 and prev[0] == cur[h] and np.array_equal(
            cur[h : h + keep], prev[:keep]
        ):
            return Overlap(0, keep, h, n_cur - h - keep)
    # fast path 3: d oldest values dropped from the head — Fig 4 row 4
    for d in range(1, min(8, n_prev - 1) + 1):
        keep = min(n_prev - d, n_cur)
        if keep > 0 and prev[d] == cur[0] and np.array_equal(
            cur[:keep], prev[d : d + keep]
        ):
            return Overlap(d, d + keep, 0, n_cur - keep)
    best = Overlap(0, 0, 0, n_cur)  # empty match
    # upper bound: a contiguous match cannot exceed the multiset overlap;
    # re-anchored (fresh) windows exit here in one vectorized op
    max_possible = len(np.intersect1d(prev, cur))
    if max_possible == 0:
        return best
    # shift s aligns prev[a] with cur[a + s]
    shifts = _shift_order(n_prev, n_cur)
    for shift in shifts:
        if best.length >= max_possible:
            break
        a0 = max(0, -shift)
        k0 = a0 + shift
        overlap = min(n_prev - a0, n_cur - k0)
        if overlap <= best.length:
            continue  # cannot beat current best at this shift
        eq = prev[a0 : a0 + overlap] == cur[k0 : k0 + overlap]
        run_start, run_len = _longest_run(eq)
        if run_len > best.length:
            start = a0 + run_start
            head_len = k0 + run_start
            best = Overlap(
                start,
                start + run_len,
                head_len,
                n_cur - head_len - run_len,
            )
        if run_len == overlap and overlap == min(n_prev, n_cur):
            break  # perfect sliding-window match; nothing longer exists
    return best


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``arange(s, s + c)`` for every ``(s, c)`` pair, concatenated."""
    ends = np.cumsum(counts)
    return np.repeat(starts - (ends - counts), counts) + np.arange(
        int(ends[-1]), dtype=np.int64
    )


def _interleave(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a[0], b[0], a[1], b[1], ...``"""
    return np.stack((a, b), axis=1).ravel()


def _assemble(
    delta_flags, starts, ends, heads, mids, tails, prev_len, bulk
) -> list[np.ndarray]:
    """Rows from validated size columns and their bulk ids: see "Decode"
    in the module docstring. One or many pages, it is the same stream."""
    n = len(delta_flags)
    lens = heads + mids + tails
    bulk_counts = heads + tails
    bulk.flags.writeable = False
    bulk_ends = np.cumsum(bulk_counts)
    bases = np.flatnonzero(~delta_flags)
    seg_sizes = np.diff(np.append(bases, n))

    def whole_segments(delta_row_ok: np.ndarray) -> np.ndarray:
        """Per row: does every delta row of its segment qualify?"""
        row_ok = delta_row_ok | ~delta_flags
        return np.repeat(
            np.logical_and.reduceat(row_ok, bases), seg_sizes
        )

    appended = whole_segments((heads == 0) & (ends == prev_len))
    if appended.all():
        return [
            bulk[a:b]
            for a, b in zip((bulk_ends - lens).tolist(), bulk_ends.tolist())
        ]
    prepended = whole_segments((tails == 0) & (starts == 0)) & ~appended
    out_lens = np.where(appended, 0, np.where(prepended, heads, lens))
    out_ends = np.cumsum(out_lens)
    out_starts = out_ends - out_lens
    # a prepend run is laid out back to front: last head first, base
    # row last, so each row starts at its own head
    seg_span = out_starts[bases] + out_ends[bases + seg_sizes - 1]
    out_starts = np.where(
        prepended, np.repeat(seg_span, seg_sizes) - out_ends, out_starts
    )
    out = np.empty(int(out_ends[-1]), dtype=np.int64)
    # every head and tail out of bulk in one scatter: two pieces per
    # row, none for rows that are views of bulk already
    piece_counts = _interleave(
        np.where(appended, 0, heads), np.where(appended, 0, tails)
    )
    bulk_starts = bulk_ends - bulk_counts
    dst = _interleave(out_starts, out_starts + heads + mids)
    src = _interleave(bulk_starts, bulk_starts + heads)
    out[_ranges(dst, piece_counts)] = bulk[_ranges(src, piece_counts)]
    # generic rows: the overlap comes out of the row just written
    copies = np.flatnonzero(~appended & ~prepended & (mids > 0))
    for d, s, k in zip(
        (out_starts[copies] + heads[copies]).tolist(),
        (out_starts[copies - 1] + starts[copies]).tolist(),
        mids[copies].tolist(),
    ):
        out[d : d + k] = out[s : s + k]
    out.flags.writeable = False
    lo = np.where(appended, bulk_ends - lens, out_starts)
    return [
        (bulk if from_bulk else out)[a:b]
        for from_bulk, a, b in zip(
            appended.tolist(), lo.tolist(), (lo + lens).tolist()
        )
    ]


@register
class SparseListDelta(Encoding):
    """Fig 4 encoding for ``list<int64>`` sparse feature columns."""

    id = 25
    name = "sparse_list_delta"
    kinds = frozenset({Kind.LIST_INT})

    #: below this reuse fraction a row is re-anchored as a new base
    MIN_OVERLAP_FRACTION = 0.25

    def __init__(self, bulk_child: Encoding | None = None) -> None:
        self._bulk_child = bulk_child if bulk_child is not None else Chunked()

    def encode(self, values) -> bytes:
        rows = normalize_list_column(values, Kind.LIST_INT)
        n = len(rows)
        delta_flags = np.zeros(n, dtype=np.bool_)
        range_starts = np.zeros(n, dtype=np.int64)
        range_ends = np.zeros(n, dtype=np.int64)
        head_sizes = np.zeros(n, dtype=np.int64)
        tail_sizes = np.zeros(n, dtype=np.int64)
        bulk_parts: list[np.ndarray] = []
        prev: np.ndarray | None = None
        for i, cur in enumerate(rows):
            overlap = (
                find_overlap(prev, cur) if prev is not None else None
            )
            reuse_ok = (
                overlap is not None
                and len(cur) > 0
                and overlap.length >= self.MIN_OVERLAP_FRACTION * len(cur)
            )
            if reuse_ok:
                delta_flags[i] = True
                range_starts[i] = overlap.start
                range_ends[i] = overlap.end
                head_sizes[i] = overlap.head_len
                tail_sizes[i] = overlap.tail_len
                bulk_parts.append(cur[: overlap.head_len])
                bulk_parts.append(cur[len(cur) - overlap.tail_len :])
            else:
                # base vector: delta flag 0, full data in bulk
                head_sizes[i] = len(cur)
                bulk_parts.append(cur)
            prev = cur
        bulk = (
            np.concatenate(bulk_parts)
            if bulk_parts
            else np.zeros(0, dtype=np.int64)
        )
        writer = ByteWriter()
        writer.write_u64(n)
        flags_packed = np.packbits(delta_flags, bitorder="little").tobytes()
        writer.write_blob(flags_packed)
        encode_child(writer, range_starts, Varint())
        encode_child(writer, range_ends, Varint())
        encode_child(writer, head_sizes, Varint())
        encode_child(writer, tail_sizes, Varint())
        encode_child(writer, bulk, self._bulk_child)
        return writer.getvalue()

    @classmethod
    def decode(cls, reader: ByteReader) -> list[np.ndarray]:
        return cls.decode_pages([reader])

    @classmethod
    def decode_pages(cls, readers: list[ByteReader]) -> list[np.ndarray]:
        """Validate page by page, assemble once.

        Every page starts with a base row, so the sub-columns of a
        chunk's pages concatenate into one valid multi-segment stream.
        Each check below is against the page's *own* sizes, so a page
        that overruns its bulk can never borrow a neighbour's ids.
        """
        pages = []  # (flags, starts, ends, heads, tails, bulk) per non-empty page
        for reader in readers:
            n = reader.read_u64()
            flags = np.unpackbits(
                np.frombuffer(reader.read_blob(), dtype=np.uint8),
                bitorder="little",
            )[:n]
            columns = [
                np.asarray(decode_child(reader), dtype=np.int64)
                for _ in range(5)
            ]
            if n == 0:
                continue
            if len(flags) != n or any(c.shape != (n,) for c in columns[:4]):
                raise EncodingError("sparse_list_delta: corrupt size columns")
            if columns[4].ndim != 1:
                raise EncodingError("sparse_list_delta: truncated bulk data")
            pages.append((flags, *columns))
        if not pages:
            return []
        page_flags, *size_columns, bulks = zip(*pages)
        page_rows = np.array([len(flags) for flags in page_flags])
        page_starts = np.cumsum(page_rows) - page_rows
        delta_flags = join_values(page_flags).astype(np.bool_)
        starts, ends, heads, tail_sizes = map(join_values, size_columns)
        n = len(delta_flags)
        if delta_flags[page_starts].any():
            raise EncodingError("delta row without a base vector")
        # base rows carry their whole payload as "head"; their range and
        # tail columns are padding and must not contribute
        tails = np.where(delta_flags, tail_sizes, 0)
        if int(heads.min()) < 0 or int(tails.min()) < 0:
            raise EncodingError("sparse_list_delta: negative segment size")
        mids = np.where(delta_flags, ends - starts, 0)
        lens = heads + mids + tails
        # a page's first row is a base (checked above), so no delta row
        # ever looks across a page boundary
        prev_len = np.zeros(n, dtype=np.int64)
        prev_len[1:] = lens[:-1]
        bad_range = delta_flags & (
            (starts < 0) | (ends < starts) | (ends > prev_len)
        )
        if bad_range.any():
            raise EncodingError("sparse_list_delta: corrupt overlap range")
        bulk_counts = heads + tails
        bulk_lens = np.array([len(bulk) for bulk in bulks])
        bulk_used = np.add.reduceat(bulk_counts, page_starts)
        # each size is bounded first so the sums cannot wrap int64
        if (
            np.maximum.reduceat(np.maximum(heads, tails), page_starts)
            > bulk_lens
        ).any() or (bulk_used > bulk_lens).any():
            raise EncodingError("sparse_list_delta: truncated bulk data")
        # surplus ids at the end of a page's bulk are dropped here, so
        # the running bulk offsets of the assembly need no per-page rebasing
        bulk = join_values(
            [bulk[:used] for bulk, used in zip(bulks, bulk_used.tolist())]
        )
        return _assemble(
            delta_flags, starts, ends, heads, mids, tails, prev_len, bulk
        )

    @staticmethod
    def plain_size(values) -> int:
        """Bytes of the trivially-encoded column (for savings reports)."""
        rows = normalize_list_column(values, Kind.LIST_INT)
        return sum(8 * len(r) + 4 for r in rows)
