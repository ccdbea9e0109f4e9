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
tried first for every row of a page at once (:func:`batch_overlaps`);
only the rows they miss scan all alignments (:func:`find_overlap`,
worst case O(n^2)).

Decode
------
``decode_pages`` takes all pages of a chunk at once. Every page starts
with a base row, so their sub-columns concatenate into one valid
stream: the four size columns of all pages are decoded in one codec call
(``Varint.decode_pages`` holds every page to its own count and bytes),
validated page by page (a page is checked against its own bulk, never a
neighbour's), and assembly then runs once into one
:class:`~repro.encodings.base.RaggedColumn`: one ``int64`` buffer plus
row starts and lengths, rows free to overlap, no per-row object. The
stream splits into *segments*, a base row and the delta rows up to the
next base, and each segment takes one of three paths, chosen from the
size columns alone:

* **Append run** (Fig 4 row 4): every delta row has no head and keeps
  its predecessor through to the end (``range_end == len(prev)``). The
  bulk is then already the id stream, base row followed by the tails in
  order, so row ``i`` is ``bulk[e_i - len_i : e_i]`` with ``e_i`` the
  end of its own bulk slice. Nothing is copied. A sliding window over
  an id stream encodes to exactly this.
* **Prepend run** (Fig 4 row 2): every delta row has no tail and keeps
  its predecessor from the start (``range_start == 0``). The segment's
  bulk pieces are written once, back to front (last head first, base row
  last); each row is then a window starting at its own head.
* **Generic**: the row is written out whole. Its overlap ``prev[a:b]``
  depends on the row before it, so that copy stays a loop, reduced to
  ``out[d:d+k] = out[s:s+k]`` over plain ints.

The pages' bulks are joined at the front of the buffer, where append
runs are windows of them; the heads and tails of all other rows move
behind that in one vectorised scatter (``np.repeat`` + ``arange`` index
ranges, no per-row call). A chunk of nothing but append runs is the
joined bulk and nothing else, and a chunk of nothing but prepend runs is
one gather of the bulk pieces in reverse order.

Resolving every output element by pointer doubling (each element points
at the element of the previous row it copies; ``ptr = ptr[ptr]`` until
fixed) was tried and is not used: it gathers over all *output* elements
once per doubling, and chains are as long as an id stays in the window
(13.6 ms per 1,024-row page at W=256). The paths above touch each
output element at most once.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from repro.encodings.base import (
    Encoding,
    EncodingError,
    Kind,
    RaggedColumn,
    decode_blob,
    encode_child,
    index_ranges,
    join_values,
    register,
)
from repro.encodings.chunked import Chunked
from repro.encodings.lists import normalize_list_column
from repro.encodings.trivial import Trivial
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


#: find_overlap's fast-path candidates, in its order, as (offset into
#: prev, offset into cur): the identical window, then ``h`` new ids at
#: the head, then ``d`` old ids dropped
_CANDIDATES = np.array(
    [(0, 0)] + [(0, h) for h in range(1, 9)] + [(d, 0) for d in range(1, 9)]
)


def batch_overlaps(rows: RaggedColumn) -> np.ndarray:
    """:func:`find_overlap` of every row against the row before it, as
    a ``(4, n - 1)`` array of ``start, end, head_len, tail_len``.

    Every fast path is evaluated for all rows at once: each candidate
    shape is kept only where its sizes allow it and its first ids agree,
    the survivors are compared whole in one ragged gather, and each row
    takes its first candidate that matches. Rows that no fast path
    settles go to :func:`find_overlap` one by one, so the answer is its
    answer, row for row.
    """
    values = rows.values
    p_start, p_len = rows.starts[:-1], rows.lens[:-1]
    c_start, c_len = rows.starts[1:], rows.lens[1:]
    # the empty match, which is also the answer when a side is empty
    out = np.zeros((4, len(c_len)), dtype=np.int64)
    out[3] = c_len
    a, b = _CANDIDATES[:, 0], _CANDIDATES[:, 1]
    keep = np.minimum(p_len[:, None] - a, c_len[:, None] - b)
    keep[:, 0] = np.where(p_len == c_len, p_len, 0)
    # a candidate whose sizes leave nothing to keep is out: this is
    # find_overlap's ``h < n_cur`` and ``d < n_prev``
    rows_i, cands = np.nonzero(keep > 0)
    p_at = p_start[rows_i] + a[cands]
    c_at = c_start[rows_i] + b[cands]
    first = values[p_at] == values[c_at]
    rows_i, cands, p_at, c_at = (x[first] for x in (rows_i, cands, p_at, c_at))
    k = keep[rows_i, cands]
    if len(k):
        same = values[index_ranges(p_at, k)] == values[index_ranges(c_at, k)]
        whole = np.logical_and.reduceat(same, np.cumsum(k) - k)
        # pairs run row by row, candidates in order: a row's first
        # matching pair is its answer
        rows_i, cands, k = rows_i[whole], cands[whole], k[whole]
        rows_i, first_pair = np.unique(rows_i, return_index=True)
        a_k, b_k, k = a[cands[first_pair]], b[cands[first_pair]], k[first_pair]
        out[:, rows_i] = (a_k, a_k + k, b_k, c_len[rows_i] - b_k - k)
    open_rows = (p_len > 0) & (c_len > 0)
    open_rows[rows_i] = False
    for i in np.flatnonzero(open_rows).tolist():
        o = find_overlap(rows[i], rows[i + 1])
        out[:, i] = (o.start, o.end, o.head_len, o.tail_len)
    return out


def _bulk_ids(blob) -> np.ndarray:
    """One page's bulk ids: the encoder's (Trivial ids in zlib chunks)
    inflated once and viewed in place, any other through its codecs."""
    if blob[:1] == bytes([Chunked.id]):
        blob = Chunked.inflate(ByteReader(blob, offset=1))
        if blob[:1] == bytes([Trivial.id]):
            return np.asarray(Trivial.decode_view(ByteReader(blob, 1)), np.int64)
    return np.asarray(decode_blob(blob), dtype=np.int64)


def _assemble(is_base, bases, sizes, mids, lens, pieces, prev_len, bulks):
    """Rows from validated size columns and the pages' bulk ids ("Decode"
    in the module docstring); one or many pages, it is the same stream."""
    n = len(is_base)
    starts, ends, heads, tails = sizes
    bulk_ends = np.cumsum(pieces)
    append_row = is_base | ((heads == 0) & (ends == prev_len))
    if append_row.all():
        return RaggedColumn(join_values(bulks), bulk_ends - lens, lens)
    prepend_row = is_base | ((tails == 0) & (starts == 0))
    if prepend_row.all():
        # the bulk pieces, last first: a row starts at its own head and
        # runs on through the heads before it into its base row
        order = index_ranges((bulk_ends - heads)[::-1], heads[::-1])
        bulk = join_values(bulks)[order]
        return RaggedColumn(bulk, len(bulk) - bulk_ends, lens)
    seg_sizes = np.diff(np.append(bases, n))

    def whole_segments(row_ok: np.ndarray) -> np.ndarray:
        """Per row: does every row of its segment qualify?"""
        return np.repeat(np.logical_and.reduceat(row_ok, bases), seg_sizes)

    appended = whole_segments(append_row)
    prepended = whole_segments(prepend_row) & ~appended
    # the bulk goes first, joined in place: append runs are windows of
    # it, every other row is written behind it
    kept = int(bulk_ends[-1])
    out_lens = np.where(appended, 0, np.where(prepended, heads, lens))
    out_ends = kept + np.cumsum(out_lens)
    out_starts = out_ends - out_lens
    # a prepend run is laid out back to front: last head first, base
    # row last, so each row starts at its own head
    seg_span = out_starts[bases] + out_ends[bases + seg_sizes - 1]
    out_starts = np.where(
        prepended, np.repeat(seg_span, seg_sizes) - out_ends, out_starts
    )
    out = np.empty(int(out_ends[-1]), dtype=np.int64)
    bulk = np.concatenate(bulks, out=out[:kept])
    # heads and tails of those other rows in one scatter, two pieces a row
    counts = np.where(appended, 0, np.stack((heads, tails))).T.ravel()
    bulk_starts = bulk_ends - pieces
    dst = np.stack((out_starts, out_starts + heads + mids), axis=1).ravel()
    src = np.stack((bulk_starts, bulk_starts + heads), axis=1).ravel()
    out[index_ranges(dst, counts)] = bulk[index_ranges(src, counts)]
    # generic rows: the overlap comes out of the row just written
    copies = np.flatnonzero(~appended & ~prepended & (mids > 0))
    for d, s, k in zip(
        (out_starts[copies] + heads[copies]).tolist(),
        (out_starts[copies - 1] + starts[copies]).tolist(),
        mids[copies].tolist(),
    ):
        out[d : d + k] = out[s : s + k]
    return RaggedColumn(out, np.where(appended, bulk_ends - lens, out_starts), lens)


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
        lens = rows.lens
        sizes = np.zeros((4, n), dtype=np.int64)
        sizes[:, 1:] = batch_overlaps(rows)
        # a row reuses its predecessor only for a long enough overlap;
        # every other row is a base vector: delta flag 0, all in bulk
        delta_flags = (lens > 0) & (
            sizes[1] - sizes[0] >= self.MIN_OVERLAP_FRACTION * lens
        )
        delta_flags[:1] = False
        sizes[:, ~delta_flags] = 0
        sizes[2, ~delta_flags] = lens[~delta_flags]
        range_starts, range_ends, head_sizes, tail_sizes = sizes
        # the bulk is every row's head then its tail, gathered at once
        pieces = np.stack((rows.starts, rows.starts + lens - tail_sizes), axis=1)
        counts = np.stack((head_sizes, tail_sizes), axis=1)
        bulk = rows.values[index_ranges(pieces.ravel(), counts.ravel())]
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
    def decode(cls, reader: ByteReader) -> RaggedColumn:
        return cls.decode_pages([reader])

    @classmethod
    def decode_pages(cls, readers: list[ByteReader]) -> RaggedColumn:
        """Validate page by page, decode each sub-column and assemble
        once.

        Every page starts with a base row, so the sub-columns of a
        chunk's pages concatenate into one valid multi-segment stream.
        Each check below is against the page's *own* sizes, so a page
        that overruns its bulk can never borrow a neighbour's ids.
        """
        page_flags, page_sizes, bulks = [], [], []  # of the non-empty pages
        for reader in readers:
            n = reader.read_u64()
            # the sub-columns are views of the page, none copied
            blobs = [reader.view(reader.read_u32()) for _ in range(6)]
            flags, *size_blobs, bulk = blobs
            flags = np.unpackbits(
                np.frombuffer(flags, dtype=np.uint8), bitorder="little"
            )[:n]
            bulk = _bulk_ids(bulk)
            if n == 0:
                for blob in size_blobs:
                    decode_blob(blob)  # corrupt is corrupt, rows or none
                continue
            if len(flags) != n:
                raise EncodingError("sparse_list_delta: corrupt size columns")
            if bulk.ndim != 1:
                raise EncodingError("sparse_list_delta: truncated bulk data")
            page_flags.append(flags)
            page_sizes.append(size_blobs)
            bulks.append(bulk)
        if not page_flags:
            return RaggedColumn(np.zeros(0, dtype=np.int64), [], [])
        rows = [len(flags) for flags in page_flags]
        page_starts = [0, *accumulate(rows)][:-1]
        is_base = ~np.concatenate(page_flags).view(np.bool_)
        if not is_base[page_starts].all():
            raise EncodingError("delta row without a base vector")
        sizes = cls._size_columns(page_sizes, rows)
        # base rows carry their whole payload as "head"; their range and
        # tail columns are padding and must not contribute
        bases = np.flatnonzero(is_base)
        sizes[[[0], [1], [3]], bases] = 0
        low_start, _low_end, low_head, low_tail = sizes.min(axis=1).tolist()
        if min(low_head, low_tail) < 0:
            raise EncodingError("sparse_list_delta: negative segment size")
        starts, ends, heads, tails = sizes
        mids = ends - starts
        pieces = heads + tails
        lens = pieces + mids
        # a page's first row is a base (checked above), so no delta row
        # ever looks across a page boundary
        prev_len = np.concatenate(([0], lens[:-1]))
        if min(low_start, int(mids.min())) < 0 or (ends > prev_len).any():
            raise EncodingError("sparse_list_delta: corrupt overlap range")
        bulk_lens = np.array([len(bulk) for bulk in bulks])
        bulk_used = np.add.reduceat(pieces, page_starts)
        # each size is bounded first so the sums cannot wrap int64
        if (
            np.maximum.reduceat(np.maximum(heads, tails), page_starts)
            > bulk_lens
        ).any() or (bulk_used > bulk_lens).any():
            raise EncodingError("sparse_list_delta: truncated bulk data")
        # surplus ids at the end of a page's bulk are dropped here, so
        # the running bulk offsets of the assembly need no per-page rebasing
        bulks = [bulk[:used] for bulk, used in zip(bulks, bulk_used.tolist())]
        return _assemble(
            is_base, bases, sizes, mids, lens, pieces, prev_len, bulks
        )

    @staticmethod
    def _size_columns(page_blobs: list, rows: list[int]) -> np.ndarray:
        """The four size sub-columns over all pages, one per row of the
        result, each page holding exactly its own row count: blobs that
        open the way the encoder's do (varint id, then the count) in one
        Varint call for all four, others one by one."""
        blobs = [blobs[k] for k in range(4) for blobs in page_blobs]
        counts = rows * 4
        opens = [bytes([Varint.id]) + n.to_bytes(8, "little") for n in rows] * 4
        if all(blob[:9] == head for blob, head in zip(blobs, opens)):
            readers = [ByteReader(blob, offset=1) for blob in blobs]
            return Varint.decode_pages(readers).reshape(4, -1)
        parts = [np.asarray(decode_blob(b), dtype=np.int64) for b in blobs]
        if any(part.shape != (n,) for part, n in zip(parts, counts)):
            raise EncodingError("sparse_list_delta: corrupt size columns")
        return np.concatenate(parts).reshape(4, -1)

    @staticmethod
    def plain_size(values) -> int:
        """Bytes of the trivially-encoded column (for savings reports)."""
        lens = normalize_list_column(values, Kind.LIST_INT).lens
        return int(8 * lens.sum() + 4 * len(lens))
