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

Every read of row data — :class:`Scan`, and through it ``project()``,
the training loader and the catalog's scans, as well as the query
engine's batches — goes through one pipeline:

1. **prune**: each row group is classified by its footer zone maps
   (per-chunk min/max) under the conservative interval evaluator of
   :mod:`repro.expr`; ``NEVER`` groups cost no data I/O, ``ALWAYS``
   groups are read as if there were no filter;
2. **fetch the filter columns** of every other group, as one
   coalesced fetch per group, and decode them;
3. **filter**: ``where`` is evaluated vectorized over the widened
   values (§2.4 quantized columns compare as floats, like their zone
   maps), then the deletion vector is ANDed in;
4. **late materialization**: only a group with surviving rows fetches
   its residual projection, in a second coalesced fetch, and decodes
   it; both phases decode through :func:`decode_chunks`.

The pipeline is :func:`read_segments` over :class:`Segment` s (row
groups) of :class:`ScanFile` s, which :meth:`ScanFile.open`, the one
file opener of scans and queries, classifies and cuts. It reads a file
through ``locate_columns``, which names each current column's stored
column, stored type and current type, so a file written under an
older schema reads like a plain file: narrower stored values widen,
and columns it never stored fill with typed nulls without any fetch.
:class:`ScanSource` defines ``scan``, ``project`` and the zone-map
classification once, for :class:`BullionReader` and the catalog's
old-schema reader alike, and keeps what a read derives from the footer
alone (column locations, zone-map intervals, layouts, page counts)
once per source: a request pays per file only for its verdicts.

``read_segments`` runs on one of two schedules. **Batches**: the
segments of many files, in order, cut at ``_BATCH_BYTES`` decoded
bytes (:func:`_batches`), so a column decodes once per batch of small
files, not once per file. The query engine reads this way, and so does
a multi-file scan (:func:`scan_files`), which opens each file as the
budget reaches it and slices one table per kept segment back out.
**File by file**: :class:`Scan` reads a file's groups one at a time
and, on a device that waits per request
(:func:`repro.iosim.waits_per_request`), keeps the next groups' filter
chunks in flight on threads. A multi-file scan over such a device
keeps this schedule: batching would overlap fetches across files, a
faster cold read that holds more in memory at once (on the
object-store scenario, more than its peak-memory bound allows).

Chunks are cached in a :class:`~repro.core.chunk_cache.TieredChunkCache`
— the shared one a caller passes, else a small private one; a batch
claims each reader's chunks under one lock and publishes the caches'
counters once. :class:`ScanStats` counts what each layer skipped.
"""

from __future__ import annotations

import struct
import time
from collections import Counter, deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import chain, groupby, islice

import numpy as np

from repro.core.chunk_cache import TieredChunkCache, storage_identity
from repro.core.footer import MAGIC, FooterView
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
from repro.expr import (
    Expr,
    TriState,
    coerce_where,
    evaluate as evaluate_expr,
    evaluate_interval,
    interval_from_stats,
)
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

    Created via :meth:`ScanSource.scan`, over a :class:`ScanFile` that
    :meth:`ScanFile.open` classified (zone-map-pruned groups cost no
    data I/O). Iterating yields :class:`Table` batches; ``to_table()``
    materializes the whole result. Every kept group is a
    :class:`Segment` that :func:`read_segments` reads on its own:
    filter chunks first, the residual projection only if rows survive.

    On a device that waits per request the first chunks of the next
    ``_PREFETCH_GROUPS`` groups are in flight on a thread pool while
    one group decodes (positional reads are independent); decode and
    assembly stay on the consuming thread. On a memory-speed device,
    or with ``max_workers <= 1``, every fetch is inline and no thread
    is started.
    """

    def __init__(
        self,
        file: "ScanFile",
        columns: list[str],
        *,
        where: Expr | None,
        stats: ScanStats,
        batch_size: int | None = None,
        widen_quantized: bool = False,
        max_workers: int = 4,
    ) -> None:
        self.stats = stats
        self._file = file
        self._columns = list(columns)
        self._where = where
        self._batch_size = batch_size
        self._widen = widen_quantized
        #: look-ahead pool width; 0 when every fetch is inline
        waits = file.reader.waits_per_request
        self._fetch_threads = max_workers if max_workers > 1 and waits else 0

    @property
    def row_groups(self) -> list[int]:
        """The row groups this scan will touch, post-pruning."""
        return [seg.g for seg in self._file.segments]

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
        types = self._file.columns
        return Table({
            name: fill_column(types[name][2], 0, self._widen)
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
        segments = self._file.segments
        fetch = self._file.reader._fetch_chunks
        threaded = self._fetch_threads > 0 and len(segments) > 1

        with (
            ThreadPoolExecutor(max_workers=self._fetch_threads)
            if threaded
            else nullcontext()
        ) as pool:
            # groups not yet handed to the pool (none without one) ...
            waiting = iter(segments[1:] if threaded else ())
            # ... and the first-phase fetches in flight, in group order
            ahead: deque = deque()

            def fetch_ahead(depth: int) -> None:
                for seg in islice(waiting, depth - len(ahead)):
                    ahead.append(pool.submit(fetch, seg.first_keys()))

            fetch_ahead(_PREFETCH_GROUPS)
            for i, seg in enumerate(segments):
                if threaded and i:
                    seg.chunks = ahead.popleft().result()
                else:
                    seg.chunks = fetch(seg.first_keys())
                fetch_ahead(_PREFETCH_GROUPS + 1)
                counts = Counter()
                columns, _kept = read_segments(
                    [seg], self._where, self._columns, _fetch, counts,
                    widen=self._widen,
                )
                self.stats.bump(**counts)
                if columns is not None:
                    yield Table(columns)


class ScanSource:
    """The read surface both reader kinds share.

    A subclass provides ``footer`` (row-group geometry and the deletion
    vector) and ``locate_columns``; scanning,
    projection and zone-map classification are defined here once, over
    those, so a plain file and an old-schema file read through the same
    code and count the same work.
    """

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
        file = ScanFile.open(
            self, columns, where, counts,
            row_groups=row_groups, drop_deleted=drop_deleted,
        )
        stats.bump(**counts)
        return Scan(
            file, columns, where=where, stats=stats, batch_size=batch_size,
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
        return [
            g
            for g, verdict in enumerate(self.classify_row_groups_expr(where))
            if verdict is not TriState.NEVER
        ]

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
        names = tuple(sorted(where.columns()))
        zones = self._memo(("zones", names), lambda: self._zone_maps(names))
        return [evaluate_interval(where, zone) for zone in zones]

    def _zone_maps(self, names: tuple) -> list[dict]:
        """Per row group, each named column's zone-map interval."""
        reader, located = self.locate_columns(list(names))
        footer = reader.footer
        zones = [{} for _g in range(footer.num_row_groups)]
        for name, (col_idx, stored, _type) in zip(names, located):
            kind = None if col_idx is None else stats_kind(stored)
            for g, zone in enumerate(zones):
                stats = None if kind is None else footer.chunk_stats(col_idx, g)
                zone[name] = None if stats is None else interval_from_stats(
                    stats.min_value, stats.max_value, kind
                )
        return zones

    def _memo(self, key: tuple, make):
        """``make()``, once per ``key``: a file invariant derived from
        the footer (metadata only, never chunk bytes; threads that race
        on a key derive it twice, alike)."""
        value = self._memos.get(key)
        if value is None:
            value = self._memos[key] = make()
        return value

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
        #: see ``_memo``
        self._memos: dict = {}
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

    def column_names(self) -> list[str]:
        return [c.name for c in self.footer.physical_columns()]

    def locate_columns(self, names: list[str]):
        """Where the named columns' chunks live, for a caller that
        decodes them itself: ``(reader, [(col_idx, stored type, type)])``
        — here the reader is this one and the two types are the same.
        Remembered per list of names: a reader outlives many queries."""
        return self, self._memo(("located", *names), lambda: [
            (col_idx, ptype, ptype)
            for col_idx in map(self.footer.find_column, names)
            for ptype in [self.footer.column_type(col_idx)]
        ])

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
        todo = list(dict.fromkeys(keys))
        while todo:
            values, mine, waits = cache.claim_many(
                [prefix + k for k in todo], tally
            )
            results.update(zip(todo, values))  # a miss maps to None
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
            (footer.chunk(c, g).offset, footer.chunk(c, g).size, (c, g))
            for c, g in mine
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
        """One validated walk over a chunk's page headers, read as plain
        ints: the page-index entries in one read, a header in one call.

        Each page's payload, a view of ``raw``, joins ``run``, the
        payloads waiting for one decode call; only a page a deletion
        compacted — its header holds fewer values than the footer
        recorded — is decoded on its own (``run`` flushed to ``parts``
        first), because it must be re-aligned through the deletion
        vector before it can be joined. Returns how many values the
        footer records for the chunk.
        """
        footer = self.footer
        first_page, counts, row_start = self._memo(("pages", col_idx, rg), lambda: (
            (chunk := footer.chunk(col_idx, rg)).first_page,
            footer.page_counts(chunk.first_page, chunk.n_pages),
            footer.row_group(rg).row_start,
        ))
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
    coded = widen and ptype.primitive in _CODED and not ptype.list_depth
    if not (coded and values.dtype == np.int64):  # codes widen as decoded
        values = _cast_to_storage(values, ptype)
    return widen_quantized(values, ptype) if widen else values


# ---------------------------------------------------------------------------
# the read core: fetch -> filter -> late materialization, for every reader
# ---------------------------------------------------------------------------

class ScanFile:
    """One file's side of a read.

    The reader that holds the bytes, where each named column lives
    (``name -> (col_idx, stored type, type)`` from ``locate_columns``;
    ``col_idx`` is None for a column the file never stored, which reads
    as typed nulls), the stored columns a row group fetches — ``first``
    (the filter columns), the ``rest`` of the projection, or the
    ``whole`` projection when nothing is left to filter — the deletion
    vector the read applies, each row group's ``(row_start, n_rows)``
    and the file's segments. All but the segments are the source's
    layout for ``(columns, filters)``, derived once per source.
    """

    __slots__ = (
        "reader", "columns", "first", "rest", "whole", "deleted", "groups",
        "segments",
    )

    def __init__(
        self, source, columns: list[str], filters=(), drop_deleted=True
    ) -> None:
        filters = tuple(sorted(filters))
        (
            self.reader, self.columns, self.first, self.rest, self.whole,
            self.deleted, self.groups,
        ) = source._memo(
            ("layout", tuple(columns), filters, drop_deleted),
            lambda: _layout(source, columns, filters, drop_deleted),
        )
        self.segments: list[Segment] = []

    @classmethod
    def open(
        cls, source, columns, where, counts, *, row_groups=None,
        drop_deleted=True, answer=None,
    ) -> "ScanFile":
        """``source`` ready to scan: its row groups (all, or
        ``row_groups`` in that order) classified under ``where`` by
        their zone maps. ``NEVER`` groups are counted into ``counts``
        (:class:`ScanStats` fields) as pruned; an ``ALWAYS`` group that
        ``answer(g, n_rows)`` answers from its statistics is left out;
        the rest become segments, ``ALWAYS`` ones (every one without a
        ``where``) unfiltered. The one file opener of scans and
        queries."""
        file = cls(
            source, columns, () if where is None else where.columns(),
            drop_deleted,
        )
        groups = file.groups
        if row_groups is None:
            row_groups = range(len(groups))
        verdicts = None if where is None else source.classify_row_groups_expr(where)
        counts["files_scanned"] += 1
        counts["groups_total"] += len(row_groups)
        for g in row_groups:
            verdict = TriState.ALWAYS if verdicts is None else verdicts[g]
            row_start, rows = groups[g]
            if verdict is TriState.NEVER:
                counts["groups_pruned"] += 1
                counts["rows_pruned"] += rows
            elif verdict is TriState.MAYBE or not (answer and answer(g, rows)):
                file.segments.append(Segment(
                    file, g, verdict is TriState.ALWAYS, row_start, rows
                ))
        return file


def _layout(source, columns, filters, drop_deleted) -> tuple:
    """:class:`ScanFile`'s fields but the segments, for ``columns``
    read under a filter on the sorted ``filters``."""
    names = list(dict.fromkeys([*columns, *filters]))
    # located up front, so bad names fail fast
    reader, located = source.locate_columns(names)
    types = dict(zip(names, located))
    for name in filters:
        if types[name][2].list_depth > 0:
            raise ValueError(f"cannot filter on list column {name!r}")
    projected = set(columns)
    first, rest, whole = [], [], []
    for name, (col_idx, _stored, _type) in types.items():
        if col_idx is None:
            continue
        (first if name in filters else rest).append(col_idx)
        if name in projected:
            whole.append(col_idx)
    footer = reader.footer
    deleted = (
        footer.deletion_bitmap()
        if drop_deleted and footer.deleted_count()
        else None
    )
    groups = map(footer.row_group, range(footer.num_row_groups))
    groups = [(rg.row_start, rg.n_rows) for rg in groups]
    return reader, types, first, rest, whole, deleted, groups


class Segment:
    """One row group of one file: what a read fetches, masks and
    decodes together with the other segments of its batch. ``always``
    marks a group with nothing to filter (no ``where``, or zone maps
    proving every row matches): it fetches its whole projection at
    once and skips the filter."""

    __slots__ = ("file", "g", "always", "row_start", "rows", "chunks")

    def __init__(
        self, file: ScanFile, g: int, always: bool, row_start: int, rows: int
    ) -> None:
        self.file, self.g, self.always = file, g, always
        self.row_start, self.rows = row_start, rows
        #: raw chunks fetched so far, ``(col_idx, g) -> bytes``; None
        #: before the first fetch and once the segment has been read
        self.chunks: dict | None = None

    def first_keys(self) -> list[tuple[int, int]]:
        """The chunks the first phase fetches."""
        columns = self.file.whole if self.always else self.file.first
        return [(col_idx, self.g) for col_idx in columns]


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


def _batches(files, budget: int):
    """Every file's segments in order, cut into batches of at most
    ``budget`` decoded bytes. ``files`` is pulled lazily: a file is
    opened only once the batches before it are cut."""
    batch, size = [], 0
    for file in files:
        width = 8 * max(1, len(file.columns))
        for seg in file.segments:
            if batch and size + width * seg.rows > budget:
                yield batch
                batch, size = [], 0
            batch.append(seg)
            size += width * seg.rows
    if batch:
        yield batch


def scan_files(
    files, columns, where, stats, counts, *, widen_quantized=False,
    max_workers=4,
):
    """A multi-file scan: the tables each file's :class:`Scan` would
    yield, in file order. ``files`` yields :class:`ScanFile` s, each
    opened into ``counts`` as it is pulled; the first one's device
    picks the schedule (see the module docstring). ``counts``
    publishes to ``stats`` once per batch."""
    files = iter(files)
    first = next(files, None)
    if first is not None and first.reader.waits_per_request:
        for file in chain([first], files):
            stats.bump(**counts)
            counts.clear()
            yield from Scan(
                file, columns, where=where, stats=stats,
                widen_quantized=widen_quantized, max_workers=max_workers,
            )
    elif first is not None:
        for batch in _batches(chain([first], files), _BATCH_BYTES):
            out, kept = read_segments(
                batch, where, columns, _fetch, counts, widen=widen_quantized
            )
            stats.bump(**counts)
            counts.clear()
            if out is None:
                continue
            table, start = Table(out), 0
            for _seg, rows in kept:
                yield table.slice(start, start + rows)
                start += rows
    stats.bump(**counts)


def _decode(name: str, segments: list, widen: bool = False):
    """One column over ``segments`` in the current schema's type, in
    storage representation (``widen``: quantized columns dequantized);
    consecutive segments whose files store the column alike decode in
    one :func:`decode_chunks` call."""
    pieces = []
    for (stored, ptype), run in groupby(
        segments, key=lambda seg: seg.file.columns[name][1:]
    ):
        run = list(run)
        if stored is None:
            rows = sum(seg.rows for seg in run)
            pieces.append(fill_column(ptype, rows, widen))
            continue
        chunks = []
        for seg in run:
            col_idx = seg.file.columns[name][0]
            chunks.append(
                (seg.file.reader, seg.chunks[(col_idx, seg.g)], col_idx, seg.g)
            )
        values = decode_chunks(chunks, stored, widen and stored == ptype)
        values = widen_values(values, stored, ptype)
        if widen and stored != ptype:
            values = widen_quantized(values, ptype)
        pieces.append(values)
    return join_values(pieces)


def _take(values, pick):
    """One column's rows at positions ``pick`` (None: every row)."""
    if pick is None:
        return values
    if isinstance(values, (np.ndarray, RaggedColumn)):
        return values[pick]
    return [values[i] for i in pick.tolist()]  # bytes and nested lists


def read_segments(batch, where, names, fetch, counts, *, widen=True):
    """Read ``names`` over a batch of segments: the one two-phase read.

    The segments' first chunks (:meth:`Segment.first_keys`) that the
    caller did not fetch ahead come in one ``fetch([(reader, keys),
    ...])`` call, which returns each request's chunks in order. The
    filter columns decode once across the batch, and ``where`` is
    evaluated once over their widened values (quantized columns compare
    as floats, like their zone maps); ``always`` segments take every
    row and hold only their projection, so a filter column outside it
    decodes over the other segments alone. The deletion vectors apply
    once. A segment the filter leaves empty never fetches its residual
    chunks (late materialization); the others fetch theirs in one more
    ``fetch``, and every other column of ``names`` decodes once over
    them. Stored columns widen to the current type, absent ones fill
    with typed nulls, and ``widen`` dequantizes quantized columns.

    Returns ``(columns, kept)``: each name's output rows, in the order
    of ``names`` (None when no segment is kept), and ``(segment, output
    rows)`` per kept segment, in order. ``counts`` (a ``Counter`` of
    :class:`ScanStats` fields) adds what the batch read and skipped.
    The segments' raw chunks are released on return.
    """
    todo = [seg for seg in batch if seg.chunks is None]
    first = fetch([(seg.file.reader, seg.first_keys()) for seg in todo])
    for seg, chunks in zip(todo, first):
        seg.chunks = chunks
    fetched = sum(len(seg.chunks) for seg in batch)
    rows = [seg.rows for seg in batch]
    always = [seg.always for seg in batch]
    types = batch[0].file.columns
    stored, evals, mask = {}, {}, None
    if where is not None and not all(always):
        tested = batch
        if any(always) and not where.columns() <= set(names):
            tested = [seg for seg in batch if not seg.always]
        for name in sorted(where.columns()):
            stored[name] = _decode(name, tested)
            evals[name] = widen_quantized(stored[name], types[name][2])
        mask = evaluate_expr(where, evals)
        if any(always):
            every = np.repeat(always, rows)
            if tested is batch:
                mask = mask | every
            else:  # the values cover the tested segments only
                every[~every] = mask
                mask, stored, evals = every, {}, {}
    if any(seg.file.deleted is not None for seg in batch):
        mask = ~np.concatenate([
            np.zeros(seg.rows, bool) if seg.file.deleted is None
            else seg.file.deleted[seg.row_start : seg.row_start + seg.rows]
            for seg in batch
        ]) & (True if mask is None else mask)
    #: the matched rows, as positions among the batch's rows
    pick = None if mask is None else np.flatnonzero(mask)
    if pick is None:
        matched = rows
    elif len(batch) == 1:
        matched = [len(pick)]
    else:
        ends = np.concatenate(([0], np.cumsum(rows)))
        matched = np.diff(np.searchsorted(pick, ends)).tolist()
    # one pass: kept segments and their residual requests; the emptied
    # ones' residual chunks are skipped (late materialization)
    kept, held, residual = [], [], []
    for seg, n in zip(batch, matched):
        held.append(
            where is None or n > 0 or seg.always and seg.file.deleted is None
        )
        if held[-1]:
            kept.append((seg, n))
            if not seg.always and seg.file.rest:
                residual.append(seg)
    requests = [(seg.file.reader, [(c, seg.g) for c in seg.file.rest])
                for seg in residual]
    for seg, chunks in zip(residual, fetch(requests)):
        seg.chunks.update(chunks)
        fetched += len(chunks)
    emptied = [seg for seg, h in zip(batch, held) if not h]
    counts.update(
        chunks_fetched=fetched, groups_scanned=len(batch),
        rows_scanned=sum(rows), rows_matched=sum(matched),
        groups_empty=len(emptied),
        chunks_skipped=sum(
            len(seg.file.rest) for seg in emptied if not seg.always
        ),
    )
    out = None
    if kept:
        # the matched rows again, as positions among the kept segments'
        pick_kept = pick
        if pick is not None and len(kept) < len(batch):
            pick_kept = np.flatnonzero(mask[np.repeat(held, rows)])
        # each batch-wide array is dropped as soon as its matched rows
        # are out: peak memory is what a batch costs
        source = evals if widen else stored
        out = {n: _take(source[n], pick) for n in names if n in source}
        del stored, evals, source, mask, pick
        segments = [seg for seg, _n in kept]
        for name in names:
            if name not in out:
                out[name] = _take(_decode(name, segments, widen), pick_kept)
        out = {name: out[name] for name in names}
    for seg in batch:
        seg.chunks = None
    return out, kept


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
