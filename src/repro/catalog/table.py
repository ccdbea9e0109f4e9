"""CatalogTable: the transactional control plane over Bullion files.

A table is a log of immutable :class:`~repro.catalog.Snapshot`\\ s in a
:class:`~repro.catalog.CatalogStore`. HEAD is simply the highest
committed snapshot id; commits race through the store's put-if-absent
CAS (see :mod:`repro.catalog.transaction`). A handle parses each
manifest entry once (see :meth:`CatalogTable.snapshot`).

Reads never touch HEAD directly — they **pin** a snapshot:
``pin()``/``scan()``/``as_of()`` resolve to one immutable file set and
hold a refcount the garbage collector respects, which is what makes
the reader's batch loop and chunk cache safe
by construction (a pinned file is never mutated, and never deleted
while pinned). A pin's scans, queries and
:class:`~repro.core.dataset.TrainingDataLoader` epochs all read
through its one :class:`~repro.catalog.snapshot.SnapshotIndex`, so
training epochs are reproducible while ingest keeps committing.
"""

from __future__ import annotations

import threading
import time
import weakref
from collections import Counter, OrderedDict
from dataclasses import dataclass

from repro.catalog.readers import ReaderPool
from repro.catalog.schema_evolution import EvolutionOp, SchemaLog, TableSchema
from repro.catalog.snapshot import (
    DataFile,
    Snapshot,
    SnapshotIndex,
    newest_snapshot_id,
    parse_snapshot_name,
    snapshot_name,
)
from repro.catalog.store import TOMBSTONE, CatalogStore
from repro.catalog.transaction import Transaction
from repro.core.compact import CompactionReport
from repro.core.dataset import LoaderOptions, TrainingDataLoader
import numpy as np

from repro.core.reader import BullionReader, ScanStats, scan_batches
from repro.expr import Expr, coerce_where
from repro.core.schema import Schema
from repro.core.table import (
    Table, check_int, concat_tables, fill_column, rebatch,
)
from repro.core.writer import WriterOptions
from repro.obs import trace as obs_trace
from repro.obs.families import Counters

#: parsed-snapshot cache bound (oldest ids evicted first; pinned
#: snapshots are unaffected — each PinnedSnapshot holds its own copy)
_SNAP_CACHE_MAX = 128

#: snapshot indexes a handle keeps beyond those its live pins hold
_INDEX_CACHE_MAX = 4


@dataclass
class CatalogStats(Counters):
    """Control-plane counters for one table handle (no registry
    families: the transaction publishes ``catalog_commit*`` itself)."""

    commits: int = 0
    conflicts: int = 0
    aborts: int = 0


class PinnedSnapshot:
    """An immutable file set held open for reading.

    Refcounts on the owning table keep the snapshot's metadata and
    data files out of GC's reach until :meth:`release` (or context
    exit). Readers are borrowed lazily from the table's
    ``reader_provider`` and held until release, so repeat scans share
    each file's chunk cache across epochs, and pins that overlap in time
    share each file's reader.
    """

    def __init__(self, table: "CatalogTable", snapshot: Snapshot) -> None:
        self._table = table
        self.snapshot = snapshot
        #: file_id -> the reader this pin borrowed from
        #: ``table.reader_provider`` (returned on release); populated
        #: lazily, and only for files a read needs (pruned files are
        #: never opened)
        self._reader_cache: dict[str, BullionReader] = {}
        self._log: SchemaLog | None = None
        self._index: SnapshotIndex | None = None
        self._provider = table.reader_provider
        #: concurrent requests (the serving layer) may race to open a
        #: reader; the lock makes "parse each footer once per pin" hold
        #: under concurrency instead of best-effort
        self._reader_lock = threading.RLock()
        self._released = False

    # -- lifecycle ------------------------------------------------------
    def release(self) -> None:
        if not self._released:
            self._released = True
            with self._reader_lock:
                pooled, self._reader_cache = self._reader_cache, {}
            for fid, reader in pooled.items():
                self._provider.release(fid, reader)
            self._table._unpin(self.snapshot.snapshot_id)

    def __enter__(self) -> "PinnedSnapshot":
        return self

    def __exit__(self, *exc) -> None:
        self.release()

    # -- reading --------------------------------------------------------
    def _reader_for(self, file_id: str) -> BullionReader:
        if self._released:
            raise RuntimeError("pinned snapshot already released")
        with self._reader_lock:
            reader = self._reader_cache.get(file_id)
            if reader is None:
                # borrowed from the table's pool: every live pin reads
                # a file through one reader
                reader = self._provider.acquire(file_id)
                self._reader_cache[file_id] = reader
        return reader

    def schema_log(self) -> SchemaLog:
        """The snapshot's schema log (legacy snapshots: empty log)."""
        if self._log is None:
            self._log = SchemaLog.from_snapshot(self.snapshot)
        return self._log

    def current_schema(self) -> TableSchema | None:
        return self.schema_log().current()

    def index(self) -> SnapshotIndex:
        """The snapshot as arrays (see :class:`SnapshotIndex`), shared
        with the handle's other pins of it."""
        if self._index is None:
            self._index = self._table._index_for(self.snapshot, self.schema_log())
        return self._index

    def _fill(self, ordinals, span: str) -> None:
        """Fill files ``ordinals`` of the index from their footers; one
        ``span`` per file when tracing."""
        index = self.index()
        if not obs_trace.enabled():
            return index.fill(ordinals, self._reader_for)
        for i in ordinals.tolist():
            f = index.files[i]
            with obs_trace.span(span, file=f.file_id, rows=f.row_count):
                index.fill([i], self._reader_for)

    def prune_files(self, where) -> tuple[list, list]:
        """Split the snapshot's files into (kept, pruned) for ``where``
        by manifest statistics alone (see
        :meth:`~repro.catalog.snapshot.ManifestIndex.verdicts`): a
        pruned file is never opened."""
        files = self.index().files
        kept = set(self._kept(coerce_where(where)).tolist())
        return (
            [f for i, f in enumerate(files) if i in kept],
            [f for i, f in enumerate(files) if i not in kept],
        )

    def scan(
        self,
        columns: list[str],
        *,
        where: Expr | str | None = None,
        batch_size: int | None = None,
        drop_deleted: bool = True,
        widen_quantized: bool = False,
        scan_stats: ScanStats | None = None,
    ):
        """Lazy scan over the pinned file set: the tables each file's
        scan would yield, one per kept row group, in file order
        (``batch_size`` re-slices them to exact sizes). ``batch_size``,
        the ``where`` text and every name are checked before this
        returns, from metadata the read would load first anyway: a bad
        one raises here, not at the first batch.

        ``where=`` (an :class:`~repro.expr.Expr` or its text form)
        prunes files from manifest stats before any open, then row
        groups by zone maps and rows by the exact filter, each in one
        pass over the snapshot's index. A bad name or list-column filter
        fails even when every file is pruned. Pass ``scan_stats=`` a
        shared :class:`~repro.core.reader.ScanStats` to collect
        per-layer skip counts across the whole read.

        The surviving files' footers are read up front, in file order,
        and their row groups read in batches across files by
        :func:`~repro.core.reader.read_batches`; on a device that waits
        per request (see :func:`~repro.iosim.waits_per_request`) the
        next batch's filter chunks are in flight while one decodes.
        """
        if batch_size is not None:
            check_int(batch_size, "batch_size", positive=True)
        tables = self._read(
            columns, where, scan_stats, drop_deleted=drop_deleted,
            widen_quantized=widen_quantized,
        )
        return tables if batch_size is None else rebatch(tables, batch_size)

    def _kept(self, where: Expr | None, stats: ScanStats | None = None):
        """Ordinals of the files manifest statistics cannot rule out
        for ``where``; ``stats`` counts the others as pruned."""
        manifest = self.index().manifest
        if where is None:
            return np.arange(len(manifest.row_count))
        never, _always = manifest.verdicts(where)
        if stats is not None:
            stats.bump(
                files_pruned=int(never.sum()),
                rows_pruned=int(manifest.row_count[never].sum()),
            )
        return np.flatnonzero(~never)

    def _read(
        self, columns, where, stats, *, files=None, shuffle=None,
        drop_deleted=True, widen_quantized=False,
    ):
        """The one read of row data behind :meth:`scan` and the
        loader's epochs: one table per kept row group of files ``files``
        (ordinals, in read order; by default those ``where`` leaves),
        each file's groups in order — or in the order ``shuffle``
        leaves an array of them in. ``where`` is parsed, the files'
        footers read and the read planned before this returns, so a bad
        filter or name raises here; rows are read as the result is
        iterated."""
        where = coerce_where(where)
        stats = stats if stats is not None else ScanStats()
        if files is None:
            files = self._kept(where, stats)
            if where is not None and not len(files):
                self._empty(columns, where.columns())  # no open checks names
        if not len(files):
            return iter(())
        index = self.index()
        counts = Counter()
        self._fill(files, "scan.file")
        state = index.read.state()
        return scan_batches(
            state.plan(
                _file_groups(state, files, shuffle), columns, where, counts,
                lambda i: self._reader_for(index.files[i].file_id),
                files=len(files), drop_deleted=drop_deleted,
            ),
            columns, where, stats, counts, widen_quantized=widen_quantized,
        )

    def _empty(self, columns, filters=(), widen=False) -> Table:
        """The typed empty result, with each name (and each filter on a
        list column) rejected as a file's open would: from the current
        schema when the log has one, else from the first file's footer
        — one metadata read, no chunk I/O."""
        current = self.current_schema()
        if current is not None:
            types = {n: current.column(n).type for n in [*columns, *filters]}
        elif self.snapshot.files:
            layout = self._reader_for(self.snapshot.files[0].file_id).layout
            types = {n: layout.locate(n)[2] for n in [*columns, *filters]}
        else:
            return Table({})
        for name in sorted(filters):
            if types[name].list_depth > 0:
                raise ValueError(f"cannot filter on list column {name!r}")
        return Table({n: fill_column(types[n], 0, widen) for n in columns})

    def read(self, columns: list[str], **scan_kwargs) -> Table:
        """Eagerly materialize a projection of the pinned snapshot;
        takes :meth:`scan`'s keywords. When every row is filtered (or
        every file pruned) the result is still a correctly-typed empty
        table."""
        tables = list(self.scan(columns, **scan_kwargs))
        if tables:
            return concat_tables(tables)
        return self._empty(
            columns, widen=scan_kwargs.get("widen_quantized", False)
        )

    def query(
        self,
        aggregates,
        *,
        where: Expr | str | None = None,
        group_by=None,
        use_metadata: bool = True,
    ):
        """Aggregate over the pinned file set (``repro.query``).

        ``aggregates`` is a list of specs like ``"count"``,
        ``"sum(clicks)"``, ``"min(price)"``. With ``use_metadata``
        (the default) the engine answers whatever it can from manifest
        and footer statistics — metadata-answerable queries on a
        clean snapshot fetch **zero** data chunks, and files the
        manifest fully proves are never even opened. The rest decode in
        batches of row groups across files, merged in file order, so
        results are bit-identical however many threads fetch.
        Returns a :class:`repro.query.QueryResult`; its ``stats``
        reports which answer path handled what.
        """
        from repro.query import aggregate_snapshot

        return aggregate_snapshot(
            self,
            aggregates,
            where=where,
            group_by=group_by,
            use_metadata=use_metadata,
        )

    def loader(
        self, columns: list[str], options: LoaderOptions | None = None
    ) -> TrainingDataLoader:
        """A loader bound to this pin: every epoch sees the same rows.

        The projection and ``options.where`` are checked here, as a
        scan checks them. When ``options.where`` is set, manifest
        column statistics prune files up front — the loader never opens
        a file the interval evaluator rules out, and every epoch reuses
        the same pruned set (zone maps and decode-time filtering then
        apply inside each epoch's read).
        """
        options = options or LoaderOptions()
        where = options.where
        self._empty(columns, () if where is None else where.columns())
        return TrainingDataLoader(self, columns, self._kept(where), options)


def _released_after(tables, pinned: PinnedSnapshot):
    try:
        yield from tables
    finally:
        pinned.release()


def _file_groups(state, files, shuffle) -> np.ndarray:
    """Rows of ``state`` for every group of files ``files``, file after
    file: each file's in group order, or as ``shuffle`` reorders them
    in place."""
    sizes = np.diff(state.file_start)[files]
    ends = np.cumsum(sizes)
    groups = np.arange(ends[-1]) + np.repeat(
        state.file_start[files] - ends + sizes, sizes
    )
    if shuffle is not None:
        for part in np.split(groups, ends[:-1]):
            shuffle(part)  # a view: groups reorders with it
    return groups


class CatalogTable:
    """Open (or :meth:`create`) a table in a :class:`CatalogStore`."""

    def __init__(
        self,
        store: CatalogStore,
        clock=None,
        *,
        chunk_cache=None,
        reader_options: dict | None = None,
    ) -> None:
        self.store = store
        self.stats = CatalogStats()
        #: a shared TieredChunkCache every reader this table opens will
        #: use (keys carry storage identity + file fingerprint, so the
        #: cache is correct across snapshots and epochs); None keeps
        #: the historical per-reader LRU
        self.chunk_cache = chunk_cache
        #: extra BullionReader kwargs (e.g. ``coalesce_gap``) applied
        #: to every reader opened through a pin
        self.reader_options = dict(reader_options or {})
        #: where pins borrow readers (``acquire(file_id)`` /
        #: ``release(file_id, reader)``): by default a pool that keeps
        #: no idle reader, so live pins share each file's reader and a
        #: released one closes; the serving layer installs a pool that
        #: keeps readers (see repro.server.cache)
        self.reader_provider = ReaderPool(
            store, chunk_cache=chunk_cache, reader_options=self.reader_options
        )
        self._clock = clock or (lambda: time.time_ns() // 1_000_000)
        self._lock = threading.Lock()
        self._snap_cache: dict[int, Snapshot] = {}
        #: file_id -> the DataFile this handle holds for that entry,
        #: reused by every manifest whose record of it is unchanged
        self._files: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
        #: snapshot id -> its SnapshotIndex, shared by this handle's pins
        #: (the newest few kept; a pin holds its own)
        self._indexes: OrderedDict[int, SnapshotIndex] = OrderedDict()
        #: snapshot id -> pin count (this handle's readers)
        self._pins: dict[int, int] = {}
        #: data files staged by open transactions (GC must not touch)
        self._inflight: set[str] = set()
        #: ids whose document is a tombstone (expired, id still taken)
        self._expired: set[int] = set()
        if self._snapshot_ids() == []:
            raise FileNotFoundError(
                "store holds no snapshots; use CatalogTable.create()"
            )

    @classmethod
    def create(
        cls,
        store: CatalogStore,
        clock=None,
        *,
        chunk_cache=None,
        reader_options: dict | None = None,
    ) -> "CatalogTable":
        """Initialize an empty table (snapshot 0) in ``store``."""
        now = (clock or (lambda: time.time_ns() // 1_000_000))()
        genesis = Snapshot(
            snapshot_id=0,
            parent_id=None,
            timestamp_ms=now,
            operation="create",
        )
        if not store.put_metadata(snapshot_name(0), genesis.to_json()):
            raise FileExistsError("store already holds a table")
        return cls(
            store,
            clock=clock,
            chunk_cache=chunk_cache,
            reader_options=reader_options,
        )

    # -- snapshot log ---------------------------------------------------
    def _snapshot_ids(self) -> list[int]:
        ids = [
            sid
            for name in self.store.list_metadata()
            if (sid := parse_snapshot_name(name)) is not None
        ]
        return sorted(ids)

    def snapshot(self, snapshot_id: int) -> Snapshot:
        """One snapshot, parsed once per handle: a manifest record
        equal, unknown keys included, to the record of an entry this
        handle holds yields that entry, so only new or changed records
        are parsed (see :meth:`DataFile.matches`). The id must be a
        non-negative ``int`` (``TypeError``/``ValueError``); an id the
        log does not hold raises ``FileNotFoundError``."""
        check_int(snapshot_id, "snapshot_id")
        with self._lock:
            cached = self._snap_cache.get(snapshot_id)
            expired = snapshot_id in self._expired
        if cached is not None:
            return cached
        data = None if expired else self.store.read_metadata(
            snapshot_name(snapshot_id)
        )
        if data is None or data == TOMBSTONE:
            with self._lock:
                self._expired.add(snapshot_id)
            raise FileNotFoundError(f"snapshot {snapshot_id} was expired")
        snap = Snapshot.from_json(data, self._entry)
        with self._lock:
            self._cache_snapshot(snap)
        return snap

    def _entry(self, raw) -> DataFile:
        with self._lock:
            held = self._files.get(raw["file_id"])
            if held is None or not held.matches(raw):
                held = self._files[raw["file_id"]] = DataFile.from_dict(raw)
        return held

    def _index_for(self, snap: Snapshot, log: SchemaLog) -> SnapshotIndex:
        """The handle's one :class:`SnapshotIndex` of ``snap``."""
        with self._lock:
            index = self._indexes.get(snap.snapshot_id)
            if index is None or index.files is not snap.files:
                index = self._indexes[snap.snapshot_id] = SnapshotIndex(snap, log)
            self._indexes.move_to_end(snap.snapshot_id)
            while len(self._indexes) > _INDEX_CACHE_MAX:
                self._indexes.popitem(last=False)
        return index

    def _cache_snapshot(self, snap: Snapshot) -> None:
        """Insert under the held lock, evicting the oldest past the cap."""
        self._snap_cache[snap.snapshot_id] = snap
        while len(self._snap_cache) > _SNAP_CACHE_MAX:
            self._snap_cache.pop(min(self._snap_cache))

    def current_snapshot(self) -> Snapshot:
        for _attempt in range(10):
            head = newest_snapshot_id(self.store.list_metadata())
            if head is None:
                raise FileNotFoundError("table has no snapshots")
            try:
                return self.snapshot(head)
            except FileNotFoundError:
                if head in self._expired:  # HEAD itself expired by hand
                    return self.history()[-1]
                # head was expired between listing and reading —
                # only possible once a newer snapshot exists, so a
                # re-listing converges on the new HEAD
                continue
        raise RuntimeError("could not read HEAD: expiry kept racing")

    def history(self) -> list[Snapshot]:
        """All retained snapshots, oldest first."""
        out = []
        for sid in self._snapshot_ids():
            try:
                out.append(self.snapshot(sid))
            except FileNotFoundError:
                continue  # expired between listing and reading
        return out

    def as_of(self, timestamp_ms: int) -> Snapshot:
        """Latest snapshot committed at or before ``timestamp_ms``."""
        best: Snapshot | None = None
        for snap in self.history():
            if snap.timestamp_ms <= timestamp_ms:
                best = snap
        if best is None:
            raise LookupError(
                f"no snapshot at or before t={timestamp_ms} ms"
            )
        return best

    def _next_timestamp_ms(self, parent_ms: int) -> int:
        # strictly increasing along the log so as_of() is unambiguous
        return max(self._clock(), parent_ms + 1)

    # -- transactions ---------------------------------------------------
    def transaction(self) -> Transaction:
        """A new :class:`Transaction` on HEAD; ``with`` it to abort
        whatever it staged unless it commits."""
        return Transaction(self)

    def append(
        self,
        table: Table,
        schema: Schema | None = None,
        options: WriterOptions | None = None,
    ) -> Snapshot:
        with self.transaction() as txn:
            txn.append(table, schema=schema, options=options)
            return txn.commit()

    def evolve(self, *ops: EvolutionOp) -> Snapshot:
        """Commit a schema evolution (add/drop/rename/widen columns)."""
        with self.transaction() as txn:
            txn.evolve(*ops)
            return txn.commit()

    def upsert(
        self,
        table: Table,
        key: str,
        schema: Schema | None = None,
        options: WriterOptions | None = None,
    ) -> Snapshot:
        """Keyed upsert committed as one snapshot; see
        :meth:`Transaction.upsert`."""
        with self.transaction() as txn:
            txn.upsert(table, key, schema=schema, options=options)
            return txn.commit()

    def current_schema(self) -> TableSchema | None:
        """HEAD's current schema version (None: never evolved)."""
        snap = self.current_snapshot()
        return SchemaLog.from_snapshot(snap).current()

    def delete(self, where: "Expr | str") -> Snapshot:
        """Delete rows matching an expression (or its text form).

        Shares the scan path's evaluator and pushdown layers: the rows
        removed are exactly the rows ``scan(where=where)`` would have
        returned.
        """
        with self.transaction() as txn:
            if txn.delete(where) == 0:  # nothing matched: no no-op snapshot
                return self.current_snapshot()
            return txn.commit()

    def compact(
        self,
        min_deleted_fraction: float = 0.0,
        options: WriterOptions | None = None,
    ) -> tuple[Snapshot, CompactionReport]:
        with self.transaction() as txn:
            report = txn.compact(
                min_deleted_fraction=min_deleted_fraction, options=options
            )
            if report.bytes_in == 0:  # nothing to compact: no no-op snapshot
                return self.current_snapshot(), report
            return txn.commit(), report

    def expire_snapshot(self, snapshot_id: int, *, keep_id: bool = False) -> bool:
        """Expire one snapshot unless it is pinned. Returns True when
        expired.

        Its document is deleted, or replaced by a tombstone when an open
        transaction on this store may still claim its id (see
        :mod:`repro.catalog.store`) or ``keep_id`` says one in another
        process may: a commit then conflicts instead of landing below
        HEAD. :meth:`collect_tombstones` deletes them later. The pin
        check and the expiry happen under the table lock — the same lock
        :meth:`pin` registers under — so a racing ``pin()`` either lands
        first (we refuse) or observes the expiry and re-resolves.
        """
        name = snapshot_name(snapshot_id)
        with self._lock:
            if snapshot_id in self._pins:
                return False
            self._snap_cache.pop(snapshot_id, None)
            floor = self.store.base_floor()
            if keep_id or floor is not None and snapshot_id > floor:
                self.store.put_tombstone(name)
                self._expired.add(snapshot_id)
            else:
                self.store.delete_metadata(name)
        return True

    def collect_tombstones(self, grace_ms: int = 0) -> int:
        """Delete the tombstones this handle has seen whose id no open
        transaction on this store can claim, and, given ``grace_ms``,
        that are at least that old (a transaction in another process
        may claim a younger one). Returns how many went."""
        floor = self.store.base_floor()
        now_ms = time.time_ns() // 1_000_000
        with self._lock:
            ids = sorted(self._expired)
        collected = 0
        for sid in ids:
            if floor is not None and sid > floor:
                break
            name = snapshot_name(sid)
            try:
                if grace_ms and (
                    now_ms - self.store.metadata_mtime_ms(name) < grace_ms
                ):
                    continue
            except FileNotFoundError:
                pass  # another handle collected it
            else:
                self.store.delete_metadata(name)
                collected += 1
            with self._lock:
                self._expired.discard(sid)
        return collected

    # -- pinned reads ---------------------------------------------------
    def pin(
        self,
        snapshot_id: int | None = None,
        as_of: int | None = None,
    ) -> PinnedSnapshot:
        """Pin one immutable snapshot for reading (default: HEAD)."""
        if snapshot_id is not None and as_of is not None:
            raise ValueError("pass at most one of snapshot_id/as_of")
        for _attempt in range(10):
            if as_of is not None:
                snap = self.as_of(as_of)
            elif snapshot_id is not None:
                snap = self.snapshot(snapshot_id)
            else:
                snap = self.current_snapshot()
            with self._lock:
                self._pins[snap.snapshot_id] = (
                    self._pins.get(snap.snapshot_id, 0) + 1
                )
            # the snapshot may have been expired between resolving it
            # and registering the pin; expire_snapshot serializes on
            # the same lock, so a post-registration existence check
            # closes the window (bypassing the snapshot cache — one
            # metadata read, not a full listing)
            try:
                data = self.store.read_metadata(snapshot_name(snap.snapshot_id))
                if data != TOMBSTONE:
                    return PinnedSnapshot(self, snap)
            except FileNotFoundError:
                pass
            self._unpin(snap.snapshot_id)
            if snapshot_id is not None:
                raise LookupError(f"snapshot {snapshot_id} was expired")
        raise RuntimeError("could not pin a snapshot: expiry kept racing")

    def _unpin(self, snapshot_id: int) -> None:
        with self._lock:
            count = self._pins.get(snapshot_id, 0) - 1
            if count <= 0:
                self._pins.pop(snapshot_id, None)
            else:
                self._pins[snapshot_id] = count

    def pinned_snapshot_ids(self) -> set[int]:
        with self._lock:
            return set(self._pins)

    def pinned_file_ids(self) -> set[str]:
        """Data files GC must leave alone: pinned or mid-transaction."""
        out: set[str] = set()
        for sid in self.pinned_snapshot_ids():
            out |= self.snapshot(sid).file_ids()
        with self._lock:
            out |= self._inflight
        return out

    def scan(
        self,
        columns: list[str],
        snapshot_id: int | None = None,
        as_of: int | None = None,
        **scan_kwargs,
    ):
        """Lazy batch stream over a pinned snapshot. Its arguments are
        checked before this returns, as :meth:`PinnedSnapshot.scan`
        checks them; the pin is held while iterating, and released when
        the stream ends, is closed, or is collected unread."""
        pinned = self.pin(snapshot_id=snapshot_id, as_of=as_of)
        try:
            tables = pinned.scan(columns, **scan_kwargs)
        except BaseException:
            pinned.release()
            raise
        stream = _released_after(tables, pinned)
        weakref.finalize(stream, pinned.release)
        return stream

    def read(
        self,
        columns: list[str],
        snapshot_id: int | None = None,
        as_of: int | None = None,
        **scan_kwargs,
    ) -> Table:
        with self.pin(snapshot_id=snapshot_id, as_of=as_of) as pinned:
            return pinned.read(columns, **scan_kwargs)

    def query(
        self,
        aggregates,
        snapshot_id: int | None = None,
        as_of: int | None = None,
        **query_kwargs,
    ):
        """Aggregate over a pinned snapshot (default HEAD); see
        :meth:`PinnedSnapshot.query`."""
        with self.pin(snapshot_id=snapshot_id, as_of=as_of) as pinned:
            return pinned.query(aggregates, **query_kwargs)

    # -- transaction bookkeeping (called by Transaction) ----------------
    def _register_inflight(self, file_id: str) -> None:
        with self._lock:
            self._inflight.add(file_id)

    def _unregister_inflight(self, file_ids: list[str]) -> None:
        with self._lock:
            self._inflight.difference_update(file_ids)

    def _note_commit(self, snap: Snapshot, added) -> None:
        """``snap`` is published; ``added`` are the entries it adds."""
        with self._lock:
            self._cache_snapshot(snap)
            for f in added:
                self._files[f.file_id] = f
            self.stats.bump(commits=1)

    def _bump(self, **deltas: int) -> None:
        with self._lock:
            self.stats.bump(**deltas)
