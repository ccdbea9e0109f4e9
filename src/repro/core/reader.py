"""BullionReader: scan-oriented reads over a Bullion file.

The access path follows §2.3: one speculative ``pread`` covers the
footer tail *and* (for typical footers) the footer itself — a single
metadata round trip per file — then a binary map scan per requested
column locates the (column, row group) chunk extents. Metadata cost is
independent of how many *other* columns the file holds — the Fig 5
property.

Chunk fetches go through a batch planner: the extents a scan step
needs are claimed from the chunk cache with single-flight dedup, the
misses are sorted and **coalesced** — adjacent (or, with a configured
gap threshold, near-adjacent) extents merge into one ranged ``pread``
whose result is sliced back into per-chunk bytes. On local devices
this only removes redundant syscalls; on :class:`~repro.iosim.ObjectStorage`,
where every request pays a fixed round trip, it is the difference
between per-chunk and per-row-group request counts.

The footers a read needs are one index, a table of contents to find
what to fetch: a :class:`FileIndex` views one footer's chunk,
zone-map, page and row-group sections as record arrays, and a
:class:`ReadIndex` joins the files of a read — one file for a reader,
every file of a pinned snapshot for the catalog — into one row per
file × row group and, per column name (:class:`ColumnRows`), one per
column chunk. A file's rows are filled once, on the first read that
reaches it; files of one physical schema share a :class:`Layout`,
which names each current column's stored column, stored type and
current type, so a file written under an older schema reads like a
plain file: narrower stored values widen, and columns it never stored
fill with typed nulls without any fetch. Zone-map verdicts are one
:func:`~repro.expr.interval.evaluate_zones` pass over every row group
at once.

Every read of row data — :class:`Scan`, and through it ``project()``,
the training loader and the catalog's scans, as well as the query
engine's batches — goes through one pipeline, :func:`read_segments`,
over a slice of a :class:`Plan` (the row groups a request reads, as
arrays):

1. **prune**: row groups the zone maps prove ``NEVER`` never enter
   the plan; ``ALWAYS`` groups are read as if there were no filter;
2. **fetch the filter columns** of every other group, one
   ``claim_many`` per reader, and decode them;
3. **filter**: ``where`` is evaluated vectorized over the widened
   values (§2.4 quantized columns compare as floats, like their zone
   maps), then the deletion vector is ANDed in;
4. **late materialization**: only a group with surviving rows fetches
   its residual projection, and decodes it; both phases decode a
   column's pages with their headers checked in one pass at the
   offsets the index knows (:func:`_decode_known`).

``read_segments`` runs on one of two schedules. **Batches**: the
groups of many files, in order, cut at ``_BATCH_BYTES`` decoded bytes
(:func:`_batches`), so a column decodes once per batch of small
files, not once per file. The query engine reads this way, and so
does a snapshot scan on a memory-speed device (:func:`scan_batches`).
**File by file**: :class:`Scan` reads a file's groups one at a time
and, on a device that waits per request
(:func:`repro.iosim.waits_per_request`), keeps the next groups' filter
chunks in flight on threads. A snapshot scan over such a device keeps
this schedule, reading each footer as the scan reaches it: batching
would overlap fetches across files, a faster cold read that holds
more in memory at once (on the object-store scenario, more than its
peak-memory bound allows).

Chunks are cached in a :class:`~repro.core.chunk_cache.TieredChunkCache`
— the shared one a caller passes, else a small private one; a batch
claims each reader's chunks under one lock and publishes the caches'
counters once. :class:`ScanStats` counts what each layer skipped.
"""

from __future__ import annotations

import struct
import threading
import time
from bisect import bisect_right
from collections import Counter, deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import islice

import numpy as np

from repro.core.chunk_cache import TieredChunkCache, storage_identity
from repro.core.footer import (
    CHUNK_DTYPE,
    MAGIC,
    PAGE_DTYPE,
    RG_DTYPE,
    SEC_CHUNKINDEX,
    SEC_PAGEINDEX,
    SEC_RGINDEX,
    SEC_STATS,
    STATS_DTYPE,
    FooterView,
)
from repro.core.page import PAGE_HEADER, PAGE_HEADER_SIZE, PageHeader
from repro.core.schema import Primitive, Schema, STORAGE_DTYPES, stats_kind
from repro.core.table import (
    Table,
    concat_tables,
    fill_column,
    rebatch,
    widen_quantized,
    widen_values,
)
from repro.encodings import decode_blob, decode_blobs
from repro.encodings.base import RaggedColumn, join_values
from repro.expr import Expr, TriState, coerce_where, evaluate as evaluate_expr
from repro.expr.interval import Zones, evaluate_zones, verdicts
from repro.iosim import Storage, waits_per_request
from repro.obs import metrics as obs_metrics, trace as obs_trace
from repro.obs.families import (
    CHUNK_FETCH_SECONDS,
    READER_OPENS,
    SCAN_COALESCE_WASTE_BYTES,
    SCAN_COALESCED_CHUNKS,
    SCAN_COALESCED_REQUESTS,
    Counters,
    backend_label,
)
from repro.util.hashing import hash_bytes

_TAIL_SIZE = 4 + len(MAGIC)

#: Bytes speculatively read from the end of the file at open: one
#: request covers the 8-byte tail and, for typical footers, the whole
#: footer — a single metadata round trip on object stores. Footers
#: larger than this cost one extra pread, exactly the historical shape.
_TAIL_SPECULATION = 4096

#: Upper bound on one coalesced ranged read (further capped by the
#: storage's own ``max_request_bytes`` when it advertises one).
_MAX_RUN_BYTES = 8 << 20

#: groups whose first chunks a scan keeps in flight beyond the one it
#: decodes, on a device that waits per request
_PREFETCH_GROUPS = 2

#: quantized primitives stored as codes, which INT codecs decode to int64
_CODED = (Primitive.BFLOAT16, Primitive.FLOAT8_E4M3, Primitive.FLOAT8_E5M2)

#: decoded bytes one batch of segments may hold, counted as 8 per row
#: of every projected column (a batch always holds one segment): enough
#: rows that numpy's per-call costs vanish, few enough that a batch's
#: temporaries reuse the memory the last batch freed instead of
#: faulting in fresh pages from the OS
_BATCH_BYTES = 1 << 20



class BullionFormatError(ValueError):
    """Malformed file, bad magic, or checksum mismatch."""


@dataclass
class ScanStats(Counters):
    """What each pushdown layer skipped, for one scan (or, when one
    instance is shared across scans, a whole multi-file read).

    Counters accumulate as the scan iterates; a scan consumed twice
    counts twice. ``files_*`` are filled by the catalog layer, which
    prunes whole files from manifest statistics before any open.
    """

    files_scanned: int = 0
    files_pruned: int = 0
    groups_total: int = 0    # candidate groups before zone-map pruning
    groups_pruned: int = 0   # skipped via zone maps: zero data I/O
    groups_scanned: int = 0  # filter columns fetched and decoded
    groups_empty: int = 0    # scanned, zero matches: residual skipped
    rows_pruned: int = 0     # rows inside zone-map-pruned groups
    rows_scanned: int = 0    # rows whose filter columns were decoded
    rows_matched: int = 0    # rows surviving the exact filter
    chunks_fetched: int = 0
    chunks_skipped: int = 0  # residual chunks never fetched

    families = {
        "files_scanned": "scan_files_scanned_total",
        "files_pruned": "scan_files_pruned_total",
        "groups_total": "scan_groups_considered_total",
        "groups_pruned": "scan_groups_pruned_total",
        "groups_scanned": "scan_groups_scanned_total",
        "groups_empty": "scan_groups_empty_total",
        "rows_pruned": "scan_rows_pruned_total",
        "rows_scanned": "scan_rows_scanned_total",
        "rows_matched": "scan_rows_matched_total",
        "chunks_fetched": "scan_chunks_fetched_total",
        "chunks_skipped": "scan_chunks_skipped_total",
    }


class Scan:
    """Lazy batch iterator over one file, through either reader kind.

    Created via :meth:`ScanSource.scan` (or, per file, by a snapshot
    scan on a device that waits per request) over a :class:`Plan` of
    the file's kept row groups (zone-map-pruned groups cost no data
    I/O). Iterating yields :class:`Table` batches; ``to_table()``
    materializes the whole result. Every kept group is read by
    :func:`read_segments` on its own: filter chunks first, the residual
    projection only if rows survive.

    On a device that waits per request the first chunks of the next
    ``_PREFETCH_GROUPS`` groups are in flight on a thread pool while
    one group decodes (positional reads are independent); decode and
    assembly stay on the consuming thread. On a memory-speed device,
    or with ``max_workers <= 1``, every fetch is inline and no thread
    is started.
    """

    def __init__(
        self,
        plan: "Plan",
        columns: list[str],
        *,
        where: Expr | None,
        stats: ScanStats,
        batch_size: int | None = None,
        widen_quantized: bool = False,
        max_workers: int = 4,
    ) -> None:
        self.stats = stats
        self._plan = plan
        self._columns = list(columns)
        self._where = where
        self._batch_size = batch_size
        self._widen = widen_quantized
        #: look-ahead pool width; 0 when every fetch is inline
        waits = len(plan.groups) and plan.reader_of(
            int(plan.files[0])
        ).waits_per_request
        self._fetch_threads = max_workers if max_workers > 1 and waits else 0

    @property
    def row_groups(self) -> list[int]:
        """The row groups this scan will touch, post-pruning."""
        return self._plan.g.tolist()

    # -- iteration ------------------------------------------------------
    def __iter__(self):
        if self._batch_size is None:
            return self._group_tables()
        return rebatch(self._group_tables(), self._batch_size)

    def to_table(self) -> Table:
        """Materialize the scan into one table."""
        if not self._columns:
            return Table({})
        tables = list(self._group_tables())
        if tables:
            return concat_tables(tables)
        # every group pruned (or filtered) away: empty, but typed
        # exactly like a non-empty result — including widening
        plan = self._plan
        return Table({
            name: fill_column(plan.column(name).ptype, 0, self._widen)
            for name in self._columns
        })

    # -- internals ------------------------------------------------------
    def _group_tables(self):
        """The scan loop: one table per kept group, in group order.

        An unfiltered scan yields every group (an all-deleted one as
        an empty table); a filtered scan skips groups without
        survivors. The group being consumed first is fetched inline,
        so a one-group scan never needs the pool.
        """
        plan = self._plan
        n = len(plan.groups)
        threaded = self._fetch_threads > 0 and n > 1

        def fetch(j: int) -> dict:
            reader, keys = plan.requests([j], plan.first_of)[0]
            return reader._fetch_chunks(keys)

        with (
            ThreadPoolExecutor(max_workers=self._fetch_threads)
            if threaded
            else nullcontext()
        ) as pool:
            # groups not yet handed to the pool (none without one) ...
            waiting = iter(range(1, n) if threaded else ())
            # ... and the first-phase fetches in flight, in group order
            ahead: deque = deque()

            def fetch_ahead(depth: int) -> None:
                for j in islice(waiting, depth - len(ahead)):
                    ahead.append(pool.submit(fetch, j))

            fetch_ahead(_PREFETCH_GROUPS)
            for j in range(n):
                got = ahead.popleft().result() if threaded and j else fetch(j)
                fetch_ahead(_PREFETCH_GROUPS + 1)
                counts = Counter()
                columns, _kept, _matched = read_segments(
                    plan, j, j + 1, self._where, self._columns, _fetch,
                    counts, widen=self._widen, fetched=[got],
                )
                self.stats.bump(**counts)
                if columns is not None:
                    yield Table(columns)


class ScanSource:
    """The read surface both reader kinds share.

    A subclass provides ``footer`` (current-schema coordinates),
    ``reader`` (the :class:`BullionReader` holding the bytes),
    ``file_index`` and ``layout``; scanning, projection and zone-map
    classification are defined here once, over the source's one-file
    :class:`ReadIndex`, so a plain file and an old-schema file read
    through the same code and count the same work.
    """

    def column_names(self) -> list[str]:
        return self.layout.names()

    @property
    def read_index(self) -> "ReadIndex":
        """This file as a one-file :class:`ReadIndex`, built on first use."""
        index = self.__dict__.get("_read_index")
        if index is None:
            index = self._read_index = ReadIndex(
                [(self.file_index, self.layout)]
            )
        return index

    def scan(
        self,
        columns: list[str],
        *,
        where: Expr | str | None = None,
        row_groups: list[int] | None = None,
        batch_size: int | None = None,
        drop_deleted: bool = True,
        widen_quantized: bool = False,
        max_workers: int = 4,
        scan_stats: ScanStats | None = None,
    ) -> Scan:
        """Lazy batch iterator over a feature projection.

        ``batch_size=None`` yields one batch per row group; otherwise
        batches of exactly ``batch_size`` rows (last one may be short).
        ``max_workers`` bounds the fetch look-ahead on a device that
        waits per request (a memory-speed device never uses threads);
        ``max_workers <= 1`` forces serial chunk fetches everywhere.

        ``where`` takes a :class:`repro.expr.Expr` or its text form
        and applies the full pushdown: zone-map row-group pruning plus
        exact vectorized row filtering with late materialization.
        Pass a shared :class:`ScanStats` as ``scan_stats`` to
        aggregate skip counters across several scans.
        """
        where = coerce_where(where)
        stats = scan_stats if scan_stats is not None else ScanStats()
        counts = Counter()
        state = self.read_index.state()
        groups = (
            np.arange(state.n_groups) if row_groups is None
            else np.asarray(row_groups, dtype=np.int64).reshape(-1)
        )
        plan = state.plan(
            groups, columns, where, counts, lambda _i: self.reader,
            drop_deleted=drop_deleted,
        )
        stats.bump(**counts)
        return Scan(
            plan, columns, where=where, stats=stats, batch_size=batch_size,
            widen_quantized=widen_quantized, max_workers=max_workers,
        )

    def project(
        self,
        columns: list[str],
        drop_deleted: bool = True,
        row_groups: list[int] | None = None,
        widen_quantized: bool = False,
    ) -> Table:
        """Eagerly read the named columns (the ML feature projection).

        A thin wrapper over a serial :meth:`scan` so accounting-based
        experiments see deterministic I/O ordering.

        ``widen_quantized=True`` dequantizes §2.4 storage-quantized
        columns (FP16/BF16/FP8) back to float32 on the way out; the
        default returns the stored representation, which trainers with
        native low-precision support consume directly ("usable directly
        in training and serving").
        """
        return self.scan(
            columns,
            row_groups=row_groups,
            drop_deleted=drop_deleted,
            widen_quantized=widen_quantized,
            max_workers=0,
        ).to_table()

    def read_column(self, name: str, drop_deleted: bool = True):
        return self.project([name], drop_deleted=drop_deleted).column(name)

    def prune_row_groups_expr(self, where: Expr) -> list[int]:
        """Row groups the interval evaluator cannot rule out.

        Evaluates ``where`` against each group's zone maps (chunk
        min/max statistics) with the conservative tri-state semantics
        of :mod:`repro.expr.interval`: missing stats, NaN bounds and
        float64-rounded int64 bounds never prune. Zero data I/O.
        """
        never, _always = self.read_index.state().verdicts(where)
        return np.flatnonzero(~never).tolist()

    def classify_row_groups_expr(self, where: Expr) -> "list[TriState]":
        """Tri-state zone-map verdict for every row group, in order.

        ``NEVER`` — no row of the group can match (pruned with zero
        data I/O); ``ALWAYS`` — every row provably matches, which lets
        the query engine answer counts and extrema from the group's
        statistics alone; ``MAYBE`` — decode and let the vectorized
        evaluator decide. Shares :meth:`prune_row_groups_expr`'s
        conservative evaluator, so the two can never disagree. A
        column the file never stored has no zone map: ``MAYBE``.
        """
        return verdicts(*self.read_index.state().verdicts(where))


class BullionReader(ScanSource):
    """Read-side API: open, scan, project, verify."""

    def __init__(
        self,
        storage: Storage,
        chunk_cache_size: int = 32,
        *,
        chunk_cache: TieredChunkCache | None = None,
        coalesce_gap: int = 0,
    ) -> None:
        self._storage = storage
        if storage.size < _TAIL_SIZE:
            raise BullionFormatError(
                f"not a Bullion file: {storage.size} bytes is smaller "
                f"than the {_TAIL_SIZE}-byte tail"
            )
        # one speculative tail read covers the 8-byte tail and, for
        # typical footers, the footer itself: one metadata round trip
        spec = min(storage.size, max(_TAIL_SIZE, _TAIL_SPECULATION))
        tail_block = storage.pread(storage.size - spec, spec)
        tail = tail_block[-_TAIL_SIZE:]
        (footer_len,) = struct.unpack_from("<I", tail, 0)
        if tail[4:] != MAGIC:
            raise BullionFormatError(f"bad trailing magic {tail[4:]!r}")
        if footer_len + _TAIL_SIZE > storage.size:
            raise BullionFormatError(
                f"footer length {footer_len} exceeds file size {storage.size}"
            )
        footer_offset = storage.size - _TAIL_SIZE - footer_len
        if footer_len + _TAIL_SIZE <= spec:
            footer_bytes = tail_block[
                spec - _TAIL_SIZE - footer_len : spec - _TAIL_SIZE
            ]
        else:
            footer_bytes = storage.pread(footer_offset, footer_len)
        self.footer = FooterView(footer_bytes, file_offset=footer_offset)
        #: content fingerprint for shared-cache keys: a hash of the
        #: footer bytes, which cover the Merkle root, stats and the
        #: deletion vector — any in-place scrub or rewrite yields a new
        #: fingerprint, so shared-cache entries can never serve stale
        self.fingerprint = hash_bytes(footer_bytes)
        #: how many gap bytes the fetch planner may over-read to merge
        #: two near-adjacent extents into one ranged request (0: only
        #: truly adjacent extents merge, so bytes moved never grow;
        #: -1 disables coalescing entirely — every chunk is its own
        #: request, the historical per-chunk access pattern)
        self.coalesce_gap = coalesce_gap
        if chunk_cache is not None:
            #: a shared tiered cache: keys are prefixed with (storage
            #: identity, file fingerprint) so entries are correct
            #: across readers, snapshots and epochs
            self.chunk_cache = chunk_cache
            self._cache_prefix: tuple = (
                storage_identity(storage),
                self.fingerprint,
            )
        else:
            #: private raw chunk LRU shared by every scan from this
            #: reader (``chunk_cache_size=0``: uncached); assumes the
            #: file is immutable for the reader's lifetime — reopen (or
            #: ``invalidate_cache()``) after in-place deletions
            self.chunk_cache = TieredChunkCache(
                max_entries=chunk_cache_size, name="reader"
            )
            self._cache_prefix = ()
        #: whether reads from this device overlap on threads — decided
        #: once, here, from the device (see ``waits_per_request``);
        #: scans and the query's fetches both ask this and nothing else
        self.waits_per_request = waits_per_request(storage)
        #: where each column lives (see :class:`Layout`)
        self.layout = Layout(self.footer)
        # resolved once: per-fetch latency histogram child for this
        # storage backend (class-derived label, never the file name)
        self._fetch_hist = CHUNK_FETCH_SECONDS.labels(
            backend=backend_label(storage)
        )
        if obs_metrics.enabled():
            READER_OPENS.inc()

    # -- metadata -------------------------------------------------------
    @property
    def num_rows(self) -> int:
        return self.footer.num_rows

    @property
    def num_columns(self) -> int:
        return self.footer.num_columns

    @property
    def live_rows(self) -> int:
        """Rows that survive deletion filtering (the manifest stat)."""
        return self.footer.num_rows - self.footer.deleted_count()

    def schema(self) -> Schema:
        return self.footer.schema()

    def schema_fingerprint(self) -> int:
        """See :meth:`FooterView.schema_fingerprint`."""
        return self.footer.schema_fingerprint()

    @property
    def reader(self) -> "BullionReader":
        return self

    @property
    def file_index(self) -> "FileIndex":
        """The footer as arrays, derived on first use."""
        index = self.__dict__.get("_file_index")
        if index is None:
            index = self._file_index = FileIndex(self.footer)
        return index

    def invalidate_cache(self) -> None:
        # shared cache: every entry for this device (any fingerprint),
        # not other readers' files; private cache: everything
        self.chunk_cache.invalidate_prefix(self._cache_prefix[:1])

    def aggregate(
        self,
        aggregates,
        *,
        where: Expr | str | None = None,
        group_by=None,
        use_metadata: bool = True,
        max_workers: int = 4,
    ):
        """Run an aggregation query over this file (``repro.query``).

        ``aggregates`` is a list of specs like ``"count"``,
        ``"sum(clicks)"``, ``"min(price)"``. With ``use_metadata``
        (the default), counts and extrema are answered from footer
        statistics wherever the tri-state evaluator can prove them —
        often with zero chunk fetches; ``use_metadata=False`` forces
        the decode path. Returns a
        :class:`repro.query.QueryResult`.
        """
        from repro.query import aggregate_reader

        return aggregate_reader(
            self,
            aggregates,
            where=where,
            group_by=group_by,
            use_metadata=use_metadata,
            max_workers=max_workers,
        )

    def _cache_key(self, col_idx: int, rg: int) -> tuple:
        return self._cache_prefix + (col_idx, rg)

    def _pread_chunk(self, col_idx: int, rg: int) -> bytes:
        """One backend pread for a single (column, row-group) extent."""
        chunk = self.footer.chunk(col_idx, rg)
        if obs_metrics.enabled():
            with obs_trace.span("scan.fetch_chunk", col=col_idx, group=rg):
                t0 = time.perf_counter()
                raw = self._storage.pread(chunk.offset, chunk.size)
                self._fetch_hist.observe(time.perf_counter() - t0)
        else:
            raw = self._storage.pread(chunk.offset, chunk.size)
        return raw

    def _fetch_chunks(
        self, keys: list[tuple[int, int]], tally: dict | None = None
    ) -> dict[tuple[int, int], bytes]:
        """Batch fetch with single-flight claims and ranged coalescing.

        Claims every missing key up front, merges the claimed extents
        into maximal runs — adjacent, or within :attr:`coalesce_gap`
        bytes of each other, and no longer than the storage's max
        ranged-get size — issues one ``pread`` per run, slices the
        bytes back out per chunk, and finally waits on any keys other
        threads had in flight. Exactly one backend fetch happens per
        chunk process-wide, however many scans want it concurrently.
        ``tally``: as :meth:`TieredChunkCache.claim_many`'s.
        """
        cache = self.chunk_cache
        prefix = self._cache_prefix
        results: dict[tuple[int, int], bytes] = {}
        todo = keys if len(keys) == 1 else list(dict.fromkeys(keys))
        while todo:
            values, mine, waits = cache.claim_many(
                [prefix + k for k in todo] if prefix else todo, tally
            )
            results.update(zip(todo, values))  # a miss maps to None
            if not mine and not waits:
                return results
            if mine:
                mine = [todo[i] for i in mine]
                try:
                    self._fetch_claimed(mine, results)
                except BaseException as exc:
                    for key in mine:
                        if results[key] is None:
                            cache.abandon(self._cache_key(*key), exc)
                    raise
            retry = []
            for i, flight in waits:
                flight.event.wait()
                if flight.error is None:
                    results[todo[i]] = flight.value
                else:
                    # the leader failed: claim again, possibly as leader
                    retry.append(todo[i])
            todo = retry
        return results

    def _fetch_claimed(
        self,
        mine: list[tuple[int, int]],
        results: dict[tuple[int, int], bytes],
    ) -> None:
        """Plan and issue coalesced reads for claimed (miss) keys."""
        footer = self.footer
        cache = self.chunk_cache
        extents = sorted(
            (chunk.offset, chunk.size, (c, g))
            for c, g in mine
            for chunk in [footer.chunk(c, g)]
        )
        max_run = _MAX_RUN_BYTES
        storage_cap = getattr(self._storage, "max_request_bytes", None)
        if storage_cap:
            max_run = min(max_run, storage_cap)
        gap = self.coalesce_gap
        runs: list[list[tuple[int, int, tuple[int, int]]]] = []
        run_start = run_end = None
        for ext in extents:
            off, size, _key = ext
            if (
                run_start is not None
                and off - run_end <= gap
                and max(run_end, off + size) - run_start <= max_run
            ):
                runs[-1].append(ext)
                run_end = max(run_end, off + size)
            else:
                runs.append([ext])
                run_start, run_end = off, off + size
        for run in runs:
            if len(run) == 1:
                _off, _size, key = run[0]
                raw = self._pread_chunk(*key)
                results[key] = raw
                cache.fulfill(self._cache_key(*key), raw)
                continue
            start = run[0][0]
            end = max(off + size for off, size, _key in run)
            if obs_metrics.enabled():
                with obs_trace.span(
                    "scan.fetch_run", chunks=len(run), nbytes=end - start
                ):
                    t0 = time.perf_counter()
                    blob = self._storage.pread(start, end - start)
                    self._fetch_hist.observe(time.perf_counter() - t0)
                SCAN_COALESCED_REQUESTS.inc()
                SCAN_COALESCED_CHUNKS.inc(len(run))
                SCAN_COALESCE_WASTE_BYTES.inc(
                    (end - start) - sum(size for _o, size, _k in run)
                )
            else:
                blob = self._storage.pread(start, end - start)
            for off, size, key in run:
                raw = blob[off - start : off - start + size]
                results[key] = raw
                cache.fulfill(self._cache_key(*key), raw)

    def _decode_column(self, raw: bytes, col_idx: int, rg: int, ptype):
        """One chunk's values as a column in storage representation
        (:func:`decode_chunks` of one chunk)."""
        return decode_chunks([(self, raw, col_idx, rg)], ptype)

    def _walk_pages(self, raw, col_idx: int, rg: int, parts, run) -> int:
        """One validated walk over a chunk's page headers, following
        each header's ``alloc_len`` (the general path of a decode: bytes
        framed by hand, damage, pages a deletion compacted).

        Each page's payload, a view of ``raw``, joins ``run``, the
        payloads waiting for one decode call; only a page a deletion
        compacted — its header holds fewer values than the footer
        recorded — is decoded on its own (``run`` flushed to ``parts``
        first), because it must be re-aligned through the deletion
        vector before it can be joined. Returns how many values the
        footer records for the chunk.
        """
        footer = self.footer
        chunk = footer.chunk(col_idx, rg)
        first_page = chunk.first_page
        counts = footer.page_counts(first_page, chunk.n_pages)
        row_start = footer.row_group(rg).row_start
        view, size = memoryview(raw), len(raw)
        pos = 0
        page_row = row_start
        for pid, original in enumerate(counts, first_page):
            body = pos + PAGE_HEADER_SIZE
            # a header cut short by the end of the chunk reads as empty
            alloc_len, payload_len, n_values, _flags = (
                PAGE_HEADER.unpack_from(raw, pos) if body <= size else (0, 0, 0, 0)
            )
            if not 0 < payload_len <= alloc_len <= size - body:
                raise BullionFormatError(
                    f"column {col_idx} row group {rg} page {pid}: corrupt "
                    f"page header at byte {pos} of a {size}-byte chunk "
                    f"(alloc_len {alloc_len}, payload_len {payload_len})"
                )
            payload = view[body : body + payload_len]
            if n_values == original:
                run.append(payload)
            else:
                if run:
                    parts.append(decode_blobs(run))
                    run.clear()
                parts.append(
                    self._re_expand(decode_blob(payload), pid, page_row, original)
                )
            pos = body + alloc_len
            page_row += original
        return page_row - row_start

    def _re_expand(self, stored, pid: int, page_row: int, original: int):
        """Re-align a compacted page using the deletion vector.

        After a compacting deletion (e.g. RLE), the page stores only the
        surviving values; the deletion vector "details the valid values
        and their offsets in a page ... misaligned values are restored
        using the deletion vector" (§2.1).
        """
        bitmap = self.footer.deletion_bitmap()
        local_deleted = bitmap[page_row : page_row + original]
        live = original - int(local_deleted.sum())
        if len(stored) != live:
            raise BullionFormatError(
                f"page {pid} holds {len(stored)} values, the deletion "
                f"vector leaves {live}"
            )
        if not isinstance(stored, np.ndarray):
            # only the RLE masker compacts, and RLE holds ints and bools
            raise BullionFormatError(
                f"page {pid} is compacted but holds "
                f"{type(stored).__name__} values, not an array"
            )
        full = np.zeros(original, dtype=stored.dtype)
        full[~local_deleted] = stored
        return full

    # -- integrity (Fig 2) ------------------------------------------------
    def verify(self, page_ids: list[int] | None = None) -> bool:
        """Check page payload hashes + Merkle structure consistency."""
        footer = self.footer
        ids = page_ids if page_ids is not None else range(footer.num_pages)
        for pid in ids:
            meta = footer.page(pid)
            raw = self._storage.pread(
                meta.offset, PAGE_HEADER_SIZE + meta.alloc_len
            )
            header = PageHeader.unpack(raw)
            payload = raw[
                PAGE_HEADER_SIZE : PAGE_HEADER_SIZE + header.payload_len
            ]
            if hash_bytes(payload) != footer.page_hash(pid):
                return False
        from repro.core.checksum import MerkleTree

        tree = MerkleTree.from_leaves(
            [footer.page_hash(p) for p in range(footer.num_pages)],
            footer.pages_per_group(),
        )
        return (
            tree.group_hashes
            == [footer.group_hash(g) for g in range(footer.num_row_groups)]
            and tree.root == footer.root_hash()
        )


def decode_chunks(chunks, ptype, widen: bool = False):
    """Chunks of one column — ``(reader, raw bytes, col_idx, rg)`` each,
    from one file or many — as one column in storage representation
    (``widen``: dequantized, BF16/FP8 codes straight from the codec).

    Every chunk gets its validated page walk; the pages then go to the
    codecs in as few calls as the chunks allow
    (:func:`~repro.encodings.decode_blobs` runs a codec once per run of
    same-codec pages, across chunk and file boundaries), so a chunk pays
    each codec's framing and kernel once, not once per page.
    """
    parts = []  # decoded runs and re-expanded pages, in page order
    run = []  # payloads waiting for one decode call
    expected = sum(
        reader._walk_pages(raw, col_idx, rg, parts, run)
        for reader, raw, col_idx, rg in chunks
    )
    if run:
        parts.append(decode_blobs(run))
    if not parts:
        return fill_column(ptype)
    values = join_values(parts)
    if len(values) != expected:
        _reader, _raw, col_idx, rg = chunks[0]
        more = f" (+{len(chunks) - 1} chunks)" if len(chunks) > 1 else ""
        raise BullionFormatError(
            f"column {col_idx} row group {rg}{more}: pages hold "
            f"{len(values)} values, the footer records {expected}"
        )
    return _as_stored(values, ptype, widen)


def _as_stored(values, ptype, widen: bool):
    """Decoded values in storage representation, or dequantized with
    ``widen`` (BF16/FP8 codes straight from the codec)."""
    coded = widen and ptype.primitive in _CODED and not ptype.list_depth
    if not (coded and values.dtype == np.int64):  # codes widen as decoded
        values = _cast_to_storage(values, ptype)
    return widen_quantized(values, ptype) if widen else values


# ---------------------------------------------------------------------------
# the index: footers as arrays, for one file or a whole snapshot
# ---------------------------------------------------------------------------

class Layout:
    """Where one file keeps each column of the schema it is read as:
    ``name -> (col_idx, stored type, type)``, looked up once per name.
    ``col_idx`` and the stored type are None for a column the file never
    stored (it reads as typed nulls). With a ``resolution`` (an
    old-schema file read as the current schema) a name resolves through
    it to the stored column, else straight through the footer. Files
    that share a physical schema share one layout."""

    __slots__ = ("footer", "resolution", "_located")

    def __init__(self, footer, resolution=None) -> None:
        self.footer = footer
        self.resolution = resolution
        self._located: dict = {}

    def locate(self, name: str) -> tuple:
        located = self._located.get(name)
        if located is None:
            located = self._located[name] = self._locate(name)
        return located

    def names(self) -> list[str]:
        """The column names of the schema the file is read as."""
        if self.resolution is None:
            return [c.name for c in self.footer.physical_columns()]
        return self.resolution.current.names()

    def _locate(self, name: str) -> tuple:
        footer, res = self.footer, self.resolution
        if res is None:
            col_idx = footer.find_column(name)
            ptype = footer.column_type(col_idx)
            return col_idx, ptype, ptype
        ptype = res.current_column(name).type  # KeyError contract
        stored = res.stored_column(name)
        if stored is None:
            return None, None, ptype
        return footer.find_column(stored.name), stored.type, ptype


class FileIndex:
    """One file's footer as arrays: its row groups' ``row_start`` and
    ``rows``, and record views (no copy) of the column-major chunk
    index, the zone maps (all unknown when the file has none) and the
    page index."""

    __slots__ = (
        "footer", "row_start", "rows", "chunks", "stats", "pages",
        "deleted_count", "_deleted", "_page_tables",
    )

    def __init__(self, footer: FooterView) -> None:
        groups = footer.table(SEC_RGINDEX, RG_DTYPE)
        self.footer = footer
        self.row_start = groups["row_start"].astype(np.int64)
        self.rows = groups["n_rows"].astype(np.int64)
        self.chunks = footer.table(SEC_CHUNKINDEX, CHUNK_DTYPE)
        self.stats = footer.table(SEC_STATS, STATS_DTYPE)
        if not len(self.stats):  # no zone maps: none known
            self.stats = np.zeros(len(self.chunks), STATS_DTYPE)
        self.pages = footer.table(SEC_PAGEINDEX, PAGE_DTYPE)
        self.deleted_count = footer.deleted_count()
        self._deleted = None
        self._page_tables: dict = {}

    def page_table(self, col_idx: int, rg: int):
        """One chunk's pages as the footer records them, derived once:
        ``(chunk size, each page header's offset in the chunk, each
        page's alloc_len << 32 | n_values)``, or None when the pages do
        not lie back to back inside the chunk."""
        key = (col_idx, rg)
        table = self._page_tables.get(key, False)
        if table is False:
            offset, size, first, n = self.chunks[col_idx * len(self.rows) + rg].item()
            pages = self.pages[first : first + n].tolist()
            rel = [at - offset for at, _alloc, _count in pages]
            ends = [at + PAGE_HEADER_SIZE + p[1] for at, p in zip(rel, pages)]
            table = None if not n or rel[0] or rel[1:] != ends[:-1] or (
                ends[-1] > size
            ) else (size, rel, [alloc << 32 | count for _at, alloc, count in pages])
            self._page_tables[key] = table
        return table

    def deleted(self) -> np.ndarray:
        """The deletion vector over all rows, unpacked once."""
        if self._deleted is None:
            self._deleted = self.footer.deletion_bitmap()
        return self._deleted


class ReadIndex:
    """Files as one struct-of-arrays index, one row per row group and,
    per column a read names, one per column chunk.

    ``blocks[i]`` is file ``i``'s ``(FileIndex, Layout)``, None until
    :meth:`fill` fills it — once, under a lock — so a file no read
    reaches is never opened. :meth:`state` is the arrays over the files
    filled so far, built once per fill and shared by every read until
    the next one."""

    def __init__(self, blocks) -> None:
        self.blocks = list(blocks)
        self.filled = np.array([b is not None for b in self.blocks], dtype=bool)
        self._lock = threading.Lock()
        self._state: IndexState | None = None

    def fill(self, ordinals, block_of) -> None:
        """Fill files ``ordinals`` that are not yet, file ``i`` with
        ``block_of(i)``."""
        if self.filled[ordinals].all():
            return
        with self._lock:
            for i in np.asarray(ordinals).reshape(-1).tolist():
                if self.blocks[i] is None:
                    self.blocks[i] = block_of(i)
                    # drop the stale state before a lock-free reader of
                    # ``filled`` can see file i as filled
                    self._state = None
                    self.filled[i] = True

    def state(self) -> "IndexState":
        state = self._state
        if state is None:
            with self._lock:
                state = self._state
                if state is None:
                    state = self._state = IndexState(self.blocks, self._lock)
        return state


def _joined(parts, dtype=np.int64) -> np.ndarray:
    if len(parts) == 1:
        return parts[0]
    return np.concatenate(parts) if parts else np.zeros(0, dtype=dtype)


class IndexState:
    """A :class:`ReadIndex`'s arrays over the files filled when it was
    built. Per row group, in file order: ``g_file`` (file ordinal),
    ``g_rg`` (group within its file), ``row_start`` and ``rows``; per
    file: ``file_start`` (its first group row), ``file_deleted`` and
    ``file_layout``; ``stats``, every filled file's zone maps joined.
    :meth:`column` adds one :class:`ColumnRows` per column name, on
    first use."""

    def __init__(self, blocks, lock) -> None:
        self.blocks = list(blocks)
        self._lock = lock
        self._columns: dict = {}
        n = len(self.blocks)
        filled = [b[0] for b in self.blocks if b is not None]
        sizes = [0 if b is None else len(b[0].rows) for b in self.blocks]
        self.file_start = np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))
        self.n_groups = int(self.file_start[-1])
        self.g_file = np.repeat(np.arange(n), sizes)
        self.g_rg = np.arange(self.n_groups) - self.file_start[self.g_file]
        self.file_list, self.rg_list = self.g_file.tolist(), self.g_rg.tolist()
        self.row_start = _joined([fi.row_start for fi in filled])
        self.rows = _joined([fi.rows for fi in filled])
        self.file_deleted = np.array(
            [0 if b is None else b[0].deleted_count for b in self.blocks],
            dtype=np.int64,
        )
        # every filled file's zone maps, joined as bytes (numpy joins
        # record arrays slowly); a file's (column, group) chunk is row
        # chunk_base + col * groups + group of them
        self.stats = _joined(
            [fi.stats.view(np.uint8) for fi in filled], np.uint8
        ).view(STATS_DTYPE)
        self.chunk_base = np.concatenate(([0], np.cumsum(
            [0 if b is None else len(b[0].stats) for b in self.blocks],
            dtype=np.int64,
        )))[:-1]
        #: the distinct layouts, and each file's (-1: not filled)
        distinct = {id(b[1]): b[1] for b in self.blocks if b is not None}
        self.layouts = list(distinct.values())
        codes = {key: k for k, key in enumerate(distinct)}
        self.file_layout = np.array(
            [-1 if b is None else codes[id(b[1])] for b in self.blocks],
            dtype=np.intp,
        )

    def column(self, name: str) -> "ColumnRows":
        rows = self._columns.get(name)
        if rows is None:
            with self._lock:
                rows = self._columns.get(name)
                if rows is None:
                    rows = self._columns[name] = ColumnRows(self, name)
        return rows

    def verdicts(self, where: Expr):
        """``(never, always)`` of ``where`` over every row group, from
        the zone maps in one pass per predicate node."""
        zones = {name: self.column(name).zones() for name in where.columns()}
        return evaluate_zones(where, zones, self.n_groups)

    def plan(
        self, groups, columns, where, counts, reader_of, *, files=1,
        drop_deleted=True, answer=None,
    ) -> "Plan":
        """The :class:`Plan` of row groups ``groups`` (rows of this
        state, in read order, of ``files`` files) classified under
        ``where``: ``NEVER`` groups are counted into ``counts``
        (:class:`ScanStats` fields) as pruned, those ``answer(never,
        always)`` marks as answered from statistics are left out, the
        rest are read — ``ALWAYS`` ones (every one without a ``where``)
        unfiltered. Names are checked before anything is counted."""
        filters = () if where is None else sorted(where.columns())
        names = list(dict.fromkeys([*columns, *filters]))
        for name in names:
            self.column(name)  # bad names fail fast
        for name in filters:
            if self.column(name).ptype.list_depth > 0:
                raise ValueError(f"cannot filter on list column {name!r}")
        if where is None:
            never = np.zeros(len(groups), dtype=bool)
            always = ~never
        else:
            never, always = self.verdicts(where)
            never, always = never[groups], always[groups]
        counts["files_scanned"] += files
        counts["groups_total"] += len(groups)
        counts["groups_pruned"] += int(never.sum())
        counts["rows_pruned"] += int(self.rows[groups][never].sum())
        read = ~never if answer is None else ~never & ~answer(never, always)
        return Plan(
            self, groups[read], always[read], columns, filters, reader_of,
            drop_deleted,
        )


class ColumnRows:
    """One column over every row group of an :class:`IndexState`, one
    row per chunk: ``col`` (−1 where the file never stored the column)
    and the zone map ``has``/``lo``/``hi``. ``layout`` indexes
    ``types``, the ``(stored type, type)`` pairs the files read it as;
    ``ptype`` is its type."""

    __slots__ = (
        "col", "has", "lo", "hi", "layout", "types", "ptype", "_zones",
        "_lists",
    )

    def __init__(self, state: IndexState, name: str) -> None:
        # one lookup per distinct layout, then array work over groups
        located = [layout.locate(name) for layout in state.layouts]
        self.types = list(dict.fromkeys((s, t) for _c, s, t in located))
        per_file = state.file_layout[state.g_file]
        # narrow codes: an index holds these for every group it knows
        self.layout = np.array(
            [self.types.index((s, t)) for _c, s, t in located], dtype=np.int8
        )[per_file] if located else np.zeros(0, dtype=np.int8)
        at = [-1 if c is None else c for c, _s, _t in located]
        self.col = np.array(at, dtype=np.int32)[per_file] if located else (
            np.zeros(0, dtype=np.int32)
        )
        present = self.col >= 0
        rows = state.chunk_base[state.g_file] + state.g_rg + self.col * (
            np.diff(state.file_start)[state.g_file]
        )
        stats = state.stats[np.where(present, rows, 0)]
        self.has = present & (stats["has"] != 0)
        self.lo, self.hi = stats["min"].copy(), stats["max"].copy()
        self.ptype = self.types[0][1] if self.types else None
        self._zones = self._lists = None

    def lists(self) -> list:
        """``col`` as a plain list, for reads that index it a group at
        a time."""
        if self._lists is None:
            self._lists = self.col.tolist()
        return self._lists

    def zones(self) -> Zones:
        """The zone maps as :class:`~repro.expr.interval.Zones`, kinds
        from each file's stored type."""
        if self._zones is None:
            kinds = [None if s is None else stats_kind(s) for s, _t in self.types]
            layout = self.layout.astype(np.intp)
            self._zones = Zones.from_stats(
                self.lo, self.hi,
                self.has & np.array([k is not None for k in kinds])[layout],
                np.array([k == "int" for k in kinds])[layout],
            )
        return self._zones


class Plan:
    """The row groups one read decodes, in order: ``groups`` (rows of
    an :class:`IndexState`) with their ``files``, ``g`` and ``rows``
    as arrays; per group, as lists, ``always`` (nothing to filter: no
    ``where``, or zone maps proving every row matches — it fetches its
    whole projection at once and skips the filter), ``deleted`` (its
    file's deletion vector applies) and the stored columns each phase
    fetches: ``first_of`` (the filter columns; the whole projection for
    an ``always`` group) and ``rest`` (the projection's other columns).
    ``reader_of(i)`` is file ``i``'s reader."""

    def __init__(
        self, state, groups, always, columns, filters, reader_of,
        drop_deleted=True,
    ) -> None:
        self.state = state
        self.groups = groups
        self.files = state.g_file[groups]
        self.g = state.g_rg[groups]
        self.rows = state.rows[groups]
        self._reader_of = reader_of
        self._readers: dict = {}
        # the same, as lists, for the per-group bookkeeping of a batch
        self._files, self._g = self.files.tolist(), self.g.tolist()
        self._groups, self._rows = groups.tolist(), self.rows.tolist()
        names = list(dict.fromkeys([*columns, *filters]))
        #: decoded bytes per row, counted as 8 per column read
        self.width = 8 * max(1, len(names))
        self.deleted = (
            state.file_deleted[self.files] > 0 if drop_deleted
            else np.zeros(len(groups), dtype=bool)
        ).tolist()
        self.always = always.tolist()
        projected = set(columns)
        codes = state.file_layout[self.files].tolist()

        def per_group(chosen):
            # the stored columns, once per layout; groups share the list
            by_layout = [
                [c for c in (layout.locate(n)[0] for n in chosen) if c is not None]
                for layout in state.layouts
            ]
            if len(by_layout) == 1:
                return by_layout * len(groups)
            return [by_layout[k] for k in codes]

        first = per_group([n for n in names if n in filters])
        whole = per_group([n for n in names if n in projected])
        self.rest = per_group([n for n in names if n not in filters])
        self.first_of = first if not any(self.always) else [
            w if a else f for f, w, a in zip(first, whole, self.always)
        ]

    def column(self, name: str) -> ColumnRows:
        return self.state.column(name)

    def reader_of(self, f: int):
        """File ``f``'s reader, looked up once per plan."""
        reader = self._readers.get(f)
        if reader is None:
            reader = self._readers[f] = self._reader_of(f)
        return reader

    def requests(self, positions, phase) -> list:
        """``(reader, keys)`` per run of ``positions`` in one file: the
        chunks ``phase[j]`` names for each group ``j``."""
        out, last = [], None
        files, gs = self._files, self._g
        for j in positions:
            f, g = files[j], gs[j]
            keys = [(c, g) for c in phase[j]]
            if f == last:
                out[-1][1].extend(keys)
            else:
                out.append((self.reader_of(f), keys))
                last = f
        return out


def _fetch(requests, pool=None):
    """Each ``(reader, keys)`` request's chunks, in order — on
    ``pool``'s threads, if one is given, when there are several; inline,
    the chunk caches' counters publish once for all of them."""
    if pool is not None and len(requests) > 1:
        return list(pool.map(lambda r: r[0]._fetch_chunks(r[1]), requests))
    tally: dict = {}
    out = [reader._fetch_chunks(keys, tally) for reader, keys in requests]
    if tally:
        requests[0][0].chunk_cache.stats.publish(tally)
    return out


def _batches(plan: Plan, budget: int):
    """``(lo, hi)`` ranges of the plan's groups, in order, each at most
    ``budget`` decoded bytes (and at least one group)."""
    ends = np.cumsum(plan.rows * plan.width).tolist()
    lo, n = 0, len(ends)
    while lo < n:
        limit = (ends[lo - 1] if lo else 0) + budget
        hi = max(lo + 1, bisect_right(ends, limit, lo))
        yield lo, hi
        lo = hi


def scan_batches(plan, columns, where, stats, counts, *, widen_quantized=False):
    """A multi-file scan on one schedule: the plan's groups in batches
    of ``_BATCH_BYTES`` decoded bytes, one table per kept group sliced
    back out. ``counts`` publishes to ``stats`` once per batch."""
    for lo, hi in _batches(plan, _BATCH_BYTES):
        out, _kept, matched = read_segments(
            plan, lo, hi, where, columns, _fetch, counts, widen=widen_quantized
        )
        stats.bump(**counts)
        counts.clear()
        if out is None:
            continue
        table, start = Table(out), 0
        for rows in matched:
            yield table.slice(start, start + rows)
            start += rows
    stats.bump(**counts)


def _decode(plan: Plan, name: str, at: list, held: list, widen=False):
    """One column over the plan's groups ``at`` (``held[k]``: group
    ``at[k]``'s raw chunks) in the current schema's type, in storage
    representation (``widen``: quantized columns dequantized); runs of
    groups whose files store the column alike decode in one call, their
    page headers checked where the index puts them."""
    column = plan.column(name)
    col, rg = column.lists(), plan.state.rg_list
    groups = [plan._groups[j] for j in at]
    layout = column.layout[groups].tolist() if len(column.types) > 1 else None
    cuts = [0, len(groups)] if layout is None else [0, *(
        k for k in range(1, len(groups)) if layout[k] != layout[k - 1]
    ), len(groups)]
    pieces = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        stored, ptype = column.types[0 if layout is None else layout[lo]]
        run = groups[lo:hi]
        if stored is None:
            rows = sum(plan._rows[j] for j in at[lo:hi])
            pieces.append(fill_column(ptype, rows, widen))
            continue
        cols = [col[g] for g in run]
        raws = [held[k][(c, rg[g])] for k, g, c in zip(range(lo, hi), run, cols)]
        wide = widen and stored == ptype
        values = _decode_known(plan.state, run, cols, raws)
        if values is None:  # the general path: walk every header
            values = decode_chunks([
                (plan.reader_of(plan.state.file_list[g]), raw, c, rg[g])
                for g, raw, c in zip(run, raws, cols)
            ], stored, wide)
        else:
            values = _as_stored(values, stored, wide)
        values = widen_values(values, stored, ptype)
        if widen and stored != ptype:
            values = widen_quantized(values, ptype)
        pieces.append(values)
    return join_values(pieces)


def _decode_known(state, run, cols, raws):
    """The chunks of row groups ``run`` (column ``cols[k]`` of each)
    decoded and joined, when they are exactly as the footer records
    them: one pass reads every page header where its
    :meth:`FileIndex.page_table` puts it and checks it against the
    footer's ``alloc_len`` and value count (so ``0 < payload_len <=
    alloc_len <= bytes left`` holds), then one decode. None
    (:func:`decode_chunks` walks the headers instead) when anything
    differs — a page that moved, a bad header, a page a deletion
    compacted — so errors and re-expansion stay in one place."""
    blocks, files, rgs = state.blocks, state.file_list, state.rg_list
    unpack = PAGE_HEADER.unpack_from
    payloads, expected = [], 0
    for raw, g, c in zip(raws, run, cols):
        table = blocks[files[g]][0].page_table(c, rgs[g])
        if table is None or len(raw) != table[0]:
            return None
        view = memoryview(raw)
        for at, packed in zip(table[1], table[2]):
            alloc, size, count, _flags = unpack(raw, at)
            if alloc << 32 | count != packed or not 0 < size <= alloc:
                return None
            at += PAGE_HEADER_SIZE
            payloads.append(view[at : at + size])
            expected += count
    if not payloads:
        return None
    values = decode_blobs(payloads)
    return values if len(values) == expected else None


def _take(values, pick):
    """One column's rows at positions ``pick`` (None: every row)."""
    if pick is None:
        return values
    if isinstance(values, (np.ndarray, RaggedColumn)):
        return values[pick]
    return [values[i] for i in pick.tolist()]  # bytes and nested lists


def read_segments(
    plan, lo, hi, where, names, fetch, counts, *, widen=True, fetched=None,
):
    """Read ``names`` over the plan's groups ``[lo, hi)``: the one
    two-phase read.

    The groups' first chunks (:attr:`Plan.first_of`) come in one
    ``fetch([(reader, keys), ...])`` call, which returns each request's
    chunks in order, unless the caller fetched them ahead (``fetched``,
    one dict per group). The filter columns decode once across the
    batch, and ``where`` is evaluated once over their widened values
    (quantized columns compare as floats, like their zone maps);
    ``always`` groups take every row and hold only their projection, so
    a filter column outside it decodes over the other groups alone. The
    deletion vectors apply once. A group the filter leaves empty never
    fetches its residual chunks (late materialization); the others
    fetch theirs in one more ``fetch``, and every other column of
    ``names`` decodes once over them. Stored columns widen to the
    current type, absent ones fill with typed nulls, and ``widen``
    dequantizes quantized columns.

    Returns ``(columns, kept, matched)``: each name's output rows, in
    the order of ``names`` (None when no group is kept), and lists of
    the plan positions of the kept groups and their output rows.
    ``counts`` (a ``Counter`` of :class:`ScanStats` fields) adds what
    the batch read and skipped.
    """
    m = hi - lo
    at = range(lo, hi)
    rows = plan.rows[lo:hi]
    always, deleted = plan.always[lo:hi], plan.deleted[lo:hi]
    if fetched is None:
        fetched = _fetch_phase(plan, at, plan.first_of, fetch)
    held = fetched
    n_fetched = sum(len(d) for d in {id(d): d for d in held}.values())
    stored, evals, mask = {}, {}, None
    if where is not None and not all(always):
        tested = at
        if any(always) and not where.columns() <= set(names):
            tested = [j for j, a in zip(at, always) if not a]
        tested_held = held if tested is at else [
            h for h, a in zip(held, always) if not a
        ]
        for name in sorted(where.columns()):
            stored[name] = _decode(plan, name, tested, tested_held)
            evals[name] = widen_quantized(stored[name], plan.column(name).ptype)
        mask = evaluate_expr(where, evals)
        if any(always):
            every = np.repeat(always, rows)
            if tested is at:
                mask = mask | every
            else:  # the values cover the tested groups only
                every[~every] = mask
                mask, stored, evals = every, {}, {}
    if any(deleted):
        state = plan.state
        mask = ~np.concatenate([
            state.blocks[plan._files[j]][0].deleted()[s : s + n] if d
            else np.zeros(n, dtype=bool)
            for j, s, n, d in zip(
                at, state.row_start[plan.groups[lo:hi]].tolist(),
                plan._rows[lo:hi], deleted,
            )
        ]) & (True if mask is None else mask)
    #: the matched rows, as positions among the batch's rows
    pick = None if mask is None else np.flatnonzero(mask)
    if pick is None:
        matched = plan._rows[lo:hi]
    elif m == 1:
        matched = [len(pick)]
    else:
        ends = np.concatenate(([0], np.cumsum(rows)))
        matched = np.diff(np.searchsorted(pick, ends)).tolist()
    # kept groups and their residual requests; the emptied ones'
    # residual chunks are skipped (late materialization)
    keep = [
        where is None or n > 0 or a and not d
        for n, a, d in zip(matched, always, deleted)
    ]
    rest = plan.rest
    residual = [
        k for k in range(m) if keep[k] and not always[k] and rest[lo + k]
    ]
    if residual:
        got = fetch(plan.requests([lo + k for k in residual], rest))
        fresh = iter(got)
        last = None
        for k in residual:
            f = plan._files[lo + k]
            if f != last:
                chunks = next(fresh)
                held[k].update(chunks)
                n_fetched += len(chunks)
                last = f
    counts.update(
        chunks_fetched=n_fetched, groups_scanned=m,
        rows_scanned=sum(plan._rows[lo:hi]), rows_matched=sum(matched),
        groups_empty=keep.count(False),
        chunks_skipped=sum(
            len(rest[lo + k]) for k in range(m) if not keep[k] and not always[k]
        ),
    )
    out = None
    kept = [k for k in range(m) if keep[k]]
    if kept:
        # the matched rows again, as positions among the kept groups'
        pick_kept = pick
        if pick is not None and len(kept) < m:
            pick_kept = np.flatnonzero(mask[np.repeat(keep, rows)])
        # each batch-wide array is dropped as soon as its matched rows
        # are out: peak memory is what a batch costs
        source = evals if widen else stored
        out = {n: _take(source[n], pick) for n in names if n in source}
        del stored, evals, source, mask, pick
        kept_at = at if len(kept) == m else [lo + k for k in kept]
        kept_held = held if len(kept) == m else [held[k] for k in kept]
        for name in names:
            if name not in out:
                out[name] = _take(
                    _decode(plan, name, kept_at, kept_held, widen), pick_kept
                )
        out = {name: out[name] for name in names}
    return out, [lo + k for k in kept], [matched[k] for k in kept]


def _fetch_phase(plan, positions, phase, fetch) -> list:
    """One dict of raw chunks per group of ``positions`` (the groups of
    one file share theirs), fetched in one ``fetch`` call."""
    positions = list(positions)
    results = iter(fetch(plan.requests(positions, phase)))
    held, last, chunks = [], None, None
    files = plan._files
    for j in positions:
        f = files[j]
        if f != last:
            chunks, last = next(results), f
        held.append(chunks)
    return held


def _cast_to_storage(values, ptype):
    """Decoded values in the column's storage dtype (usually a no-op)."""
    prim = ptype.primitive
    if prim in (Primitive.STRING, Primitive.BINARY) or ptype.list_depth > 1:
        # pages of nothing but empty rows are written, and decode, as a
        # depth-1 int list whatever the column's kind
        return list(values) if isinstance(values, RaggedColumn) else values
    dtype = np.dtype(STORAGE_DTYPES[prim])
    if ptype.list_depth == 1:
        if not isinstance(values, RaggedColumn):
            raise BullionFormatError(
                f"list column pages decode to {type(values).__name__}"
            )
        return values.astype(dtype)  # one cast, of the buffer
    arr = np.asarray(values)
    if arr.dtype != dtype:
        if dtype in (np.uint16, np.uint8) and arr.dtype.kind not in "iu":
            arr = arr.astype(np.int64)  # bf16 / fp8 payloads are codes
        arr = arr.astype(dtype)
    return arr
