"""Transactions: stage new files, commit a snapshot, retry on races.

Every mutation follows the same two-phase shape:

1. **stage** — write new *immutable* data files through the existing
   streaming writer (``append``), restage an entry with more rows in
   its deletion vector (``delete``, for files only partly matched: a
   file every row of which matches is just left out of the next
   snapshot), or rewrite (``rewrite``: a compaction is a bin of one
   file, a roll-up a bin of small files; ``erase``: the §2.1 scrub of
   a file's vector, on a copy). Nothing is visible yet: a data file
   only becomes part of the table when a committed snapshot names it,
   so no committed snapshot can ever reference a half-written file.
2. **commit** — serialize ``base snapshot − removed files + added
   files`` as snapshot ``HEAD+1`` and publish it with the store's
   put-if-absent CAS. Losing the race means another committer moved
   HEAD first: the transaction re-reads HEAD, re-validates (every entry
   it removes or restages must be at HEAD as at its base — if a
   conflicting committer replaced or re-vectored one, the transaction
   aborts), and replays its edit on top. Pure appends always replay;
   delete/rewrite/erase abort iff their input entries changed
   concurrently, and a delete also aborts when files were appended
   concurrently (its predicate never scanned their rows, so replaying
   could leave matches live).

``abort()`` deletes the staged data files so nothing leaks. It is
the one exit of a transaction that does not commit: the commit calls it
on conflict exhaustion or validation failure, and ``with
table.transaction() as txn:`` calls it on leaving the block, so a
transaction that raises, or is left uncommitted, aborts.
"""

from __future__ import annotations

import time
import weakref
from collections import Counter
from dataclasses import replace as _replace

import numpy as np

from repro.catalog.schema_evolution import (
    EvolutionOp,
    SchemaLog,
    SchemaLogError,
    TableSchema,
    apply_ops,
    schema_from_footer,
)
from repro.catalog.store import CommitOutcomeUnknown
from repro.catalog.snapshot import (
    DELETION_VECTORS,
    ColumnStats,
    DataFile,
    ManifestIndex,
    Snapshot,
    check_features,
    snapshot_name,
)
from repro.expr.interval import verdicts
from repro.core.compact import CompactionReport, rewrite as rewrite_files
from repro.core.deletion import delete_rows
from repro.core.reader import (
    BullionReader,
    Layout,
    ReadIndex,
    ScanStats,
    scan_batches,
)
from repro.core.schema import Schema, stats_kind
from repro.core.table import Table
from repro.core.writer import BullionWriter, WriterOptions
from repro.expr import (
    Expr,
    TriState,
    coerce_where,
    col,
    evaluate as evaluate_expr,
)
from repro.iosim import Storage
from repro.obs import metrics as obs_metrics, trace as obs_trace
from repro.obs.families import (
    COMMIT_ABORTS,
    COMMIT_ATTEMPTS,
    COMMIT_CONFLICTS,
    COMMIT_REPLAYS,
    COMMIT_SECONDS,
    COMMITS,
)


class CommitConflict(RuntimeError):
    """The transaction lost its race and could not be replayed."""


def data_file_entry(storage: Storage, file_id: str) -> DataFile:
    """Manifest entry for a finished Bullion file, stats from its footer.

    Folds the footer's per-chunk zone maps into per-file column
    [min, max] — the statistics ``CatalogTable.scan(where=...)`` uses
    to prune whole files before opening them.
    """
    reader = BullionReader(storage)
    footer = reader.footer
    column_stats: dict[str, ColumnStats] = {}
    for col_idx, col in enumerate(footer.physical_columns()):
        kind = stats_kind(col.type)
        if kind is None:
            continue
        stats = footer.column_stats_range(col_idx)
        if stats is None:
            continue
        column_stats[col.name] = ColumnStats(
            stats.min_value, stats.max_value, kind
        )
    return DataFile(
        file_id=file_id,
        row_count=reader.num_rows,
        deleted_count=reader.footer.deleted_count(),
        byte_size=storage.size,
        schema_fingerprint=reader.schema_fingerprint(),
        column_stats=column_stats,
    )


def _adopt_legacy_files(
    files: list[DataFile], schemas: dict[int, TableSchema]
) -> list[DataFile]:
    """Tag files that predate the schema log with the oldest version
    whose fingerprint they match (the bootstrap guarantees one exists
    for every legacy file): a later version can share the layout — a
    column dropped and added back — but not the field ids the file was
    written under. Unmatched files stay untagged and read as-is.
    """
    by_fingerprint: dict[int, int] = {}
    for sid in sorted(schemas, reverse=True):
        by_fingerprint[schemas[sid].fingerprint()] = sid
    out = []
    for f in files:
        if f.schema_id is None:
            sid = by_fingerprint.get(f.schema_fingerprint)
            if sid is not None:
                f = _replace(f, schema_id=sid)
        out.append(f)
    return out


def _delete_verdicts(files, resolutions, where: Expr) -> list:
    """The manifest verdicts :meth:`Transaction.delete` acts on.

    :meth:`ManifestIndex.verdicts`, except that ``ALWAYS`` — which
    drops the file unopened — also requires every referenced column to
    be one the file is known to have. An OR can be proven by one arm
    alone, and a typo'd name in the other must still raise when the
    file is opened, as it does for ``scan(where=...)``, not delete
    quietly.
    """
    states = verdicts(*ManifestIndex(files, resolutions).verdicts(where))
    names = where.columns()
    for k, (entry, resolution) in enumerate(zip(files, resolutions)):
        if states[k] is not TriState.ALWAYS:
            continue
        if resolution is not None:
            for name in names:
                resolution.current_column(name)  # KeyError on a typo
        elif not names <= set(entry.column_stats or ()):
            states[k] = TriState.MAYBE
    return states


class Transaction:
    """One atomic mutation of a :class:`~repro.catalog.CatalogTable`."""

    def __init__(self, table) -> None:
        self._table = table
        self._store = table.store
        # hold every id while the base is read, then the base's: an
        # expiry meanwhile must not free the id the commit will claim.
        # Released on commit or abort, or when a transaction left open
        # is collected
        self._store.hold_base(-1)
        try:
            self._base = table.current_snapshot()
            self._store.hold_base(self._base.snapshot_id)
        finally:
            self._store.release_base(-1)
        self._release_base = weakref.finalize(
            self, self._store.release_base, self._base.snapshot_id
        )
        self._added: list[DataFile] = []
        self._removed: set[str] = set()
        self._staged_ids: list[str] = []
        self._staged_storages: list[Storage] = []
        self._ops: list[str] = []
        self._summary: dict = {}
        self._state = "open"  # open -> committed | aborted
        # schema log as this transaction sees it: the base snapshot's
        # log, plus any version evolve() stages. Empty + None for
        # legacy tables that never evolved.
        self._schemas: dict[int, TableSchema] = {
            s.schema_id: s for s in self._base.schemas
        }
        self._current_schema_id: int | None = self._base.current_schema_id
        self._evolved = False

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, *exc) -> None:
        self.abort()  # a no-op once committed

    # -- staging helpers ------------------------------------------------
    def _require_open(self) -> None:
        if self._state != "open":
            raise RuntimeError(f"transaction already {self._state}")

    def staged_files(self) -> list[DataFile]:
        """The file list this transaction would commit right now."""
        kept = [
            f for f in self._base.files if f.file_id not in self._removed
        ]
        return kept + list(self._added)

    def new_data_file(self) -> tuple[str, Storage]:
        """Allocate a staged data file (deleted again if we abort)."""
        self._require_open()
        while True:
            file_id = self._store.new_file_id()
            # register BEFORE creating: GC lists its candidates from the
            # store, so the file must be protected the moment it exists
            self._table._register_inflight(file_id)
            try:
                storage = self._store.create_data(file_id)
                break
            except BaseException as exc:
                self._table._unregister_inflight([file_id])
                if not isinstance(exc, FileExistsError):
                    raise  # FileExistsError: a racing handle won the id
        self._staged_ids.append(file_id)
        self._staged_storages.append(storage)
        return file_id, storage

    def _close_staged(self) -> None:
        for storage in self._staged_storages:
            storage.close()
        self._staged_storages = []

    def add_file(
        self,
        storage: Storage,
        file_id: str,
        *,
        schema_id: int | None = None,
    ) -> DataFile:
        """Stage a finished Bullion file written via :meth:`new_data_file`.

        ``schema_id`` carries a rewrite's source version forward
        (delete/compact copies keep the layout they were written
        under); new files instead validate against — and adopt — the
        table's current schema version.
        """
        entry = data_file_entry(storage, file_id)
        if schema_id is not None:
            entry = _replace(entry, schema_id=schema_id)
            self._added.append(entry)
            return entry
        current = self.current_schema()
        if current is not None:
            if entry.schema_fingerprint != current.fingerprint():
                raise ValueError(
                    f"schema fingerprint mismatch: file {entry.file_id!r} "
                    f"({entry.schema_fingerprint:#x}) vs current schema "
                    f"{current.schema_id} ({current.fingerprint():#x}); "
                    f"evolve() the schema before appending a new layout"
                )
            entry = _replace(entry, schema_id=current.schema_id)
        else:
            self._check_fingerprint(entry)
        self._added.append(entry)
        return entry

    def _check_fingerprint(self, entry: DataFile) -> None:
        for existing in self.staged_files():
            if existing.schema_fingerprint != entry.schema_fingerprint:
                raise ValueError(
                    f"schema fingerprint mismatch: file {entry.file_id!r} "
                    f"({entry.schema_fingerprint:#x}) vs table "
                    f"({existing.schema_fingerprint:#x})"
                )
            break

    # -- schema log -----------------------------------------------------
    def current_schema(self) -> TableSchema | None:
        """The schema version new appends must match (None: legacy)."""
        if self._current_schema_id is None:
            return None
        return self._schemas[self._current_schema_id]

    def schema_log(self) -> SchemaLog:
        """The schema log as this transaction sees it."""
        return SchemaLog(dict(self._schemas), self._current_schema_id)

    def _bootstrap_schema(self) -> TableSchema:
        """First evolution on a legacy table: reconstruct version 0
        from a live file's footer (legacy snapshots guarantee every
        file shares one frozen layout)."""
        for entry in self.staged_files():
            source = self._store.open_data(entry.file_id)
            try:
                footer = BullionReader(source).footer
                return schema_from_footer(footer, schema_id=0)
            finally:
                source.close()
        raise SchemaLogError(
            "cannot evolve an empty table with no schema history; "
            "append data first to establish the base schema"
        )

    def evolve(self, *ops: EvolutionOp) -> TableSchema:
        """Stage a schema evolution (add/drop/rename/widen columns).

        Derives the next schema version from the current one and makes
        it this transaction's current — subsequent appends must match
        it, while every already-committed file keeps its own version
        and is resolved at read time. The new version becomes a
        committed evolution entry in the snapshot's schema log.
        """
        self._require_open()
        if not ops:
            raise SchemaLogError("evolve() needs at least one operation")
        if self._current_schema_id is None:
            base = self._bootstrap_schema()
            self._schemas[base.schema_id] = base
            self._current_schema_id = base.schema_id
        current = self.current_schema()
        next_field_id = (
            max(s.max_field_id() for s in self._schemas.values()) + 1
        )
        new_schema = apply_ops(
            current,
            ops,
            new_schema_id=max(self._schemas) + 1,
            next_field_id=next_field_id,
        )
        self._schemas[new_schema.schema_id] = new_schema
        self._current_schema_id = new_schema.schema_id
        self._evolved = True
        self._ops.append("evolve")
        self._bump("schema_evolutions", 1)
        return new_schema

    def _supersede(
        self, entries: list[DataFile], replacement: DataFile | None
    ) -> None:
        """Take ``entries`` out of the staged file list, putting
        ``replacement`` (their rewrite, or one of them restaged; None
        drops them) at its end."""
        ids = {f.file_id for f in entries}
        self._removed |= ids - {f.file_id for f in self._added}
        self._added = [f for f in self._added if f.file_id not in ids]
        if replacement is not None:
            self._added.append(replacement)

    def _bump(self, key: str, amount: int) -> None:
        self._summary[key] = self._summary.get(key, 0) + amount

    # -- mutations ------------------------------------------------------
    def append(
        self,
        table: Table,
        schema: Schema | None = None,
        options: WriterOptions | None = None,
    ) -> DataFile:
        """Write one new file holding ``table`` and stage it."""
        self._require_open()
        if schema is None:
            current = self.current_schema()
            if current is not None:
                # write the current version's exact physical layout —
                # dtype inference must not drift from the schema log
                schema = current.write_schema()
        file_id, storage = self.new_data_file()
        writer = BullionWriter(storage, schema=schema, options=options)
        writer.open()
        writer.write_batch(table)
        writer.finish()
        entry = self.add_file(storage, file_id)
        self._ops.append("append")
        self._bump("rows_added", table.num_rows)
        return entry

    def delete(self, where: "Expr | str") -> int:
        """Delete matching rows; the zone-map verdict picks the work.

        ``where`` is an expression (:mod:`repro.expr`) or its text
        form, run through the same unified evaluator the scan path
        uses, so ``delete(e)`` removes exactly the rows
        ``scan(where=e)`` would return. Per file, from manifest
        statistics alone (:meth:`ManifestIndex.verdicts`):

        ``NEVER``   no row can match: the file is carried over unopened.
        ``ALWAYS``  every row matches: the file is *dropped* from the
                    next snapshot — not opened, copied or scrubbed.
                    Pinned readers of earlier snapshots keep it; its
                    bytes leave the disk when the last snapshot naming
                    it expires, like the original of a scrubbed copy.
        ``MAYBE``   the file is opened and each row group's footer
                    verdict decides again: ``ALWAYS`` groups give up
                    their live rows undecoded, ``NEVER`` groups are
                    skipped, ``MAYBE`` groups decode their filter
                    columns for the exact mask. A file with victims is
                    restaged as the same file with the victims added
                    to its entry's deletion vector — no data file is
                    written — at the end of the file list, where a
                    rewrite goes. Every read masks the vector; the
                    maintenance ``erase`` job scrubs it from the bytes
                    (§2.1, on a copy, see :meth:`erase`) at its next
                    cycle.

        Both evaluators compare a stored value with a literal as real
        numbers (:mod:`repro.expr.literals`), so an ``ALWAYS`` file
        holds no row the exact mask would have kept. A literal of the
        wrong type for its column (a number against a string column)
        raises :class:`~repro.expr.VectorEvalError` where rows are
        evaluated, that is in a ``MAYBE`` group: an extent the
        statistics decide alone evaluates none, as a pruned one never
        did. A column name the file does not have raises before any
        file is dropped. Returns rows deleted.
        """
        self._require_open()
        where = coerce_where(where)
        if where is None:
            raise TypeError("delete() needs a where expression")
        log = self.schema_log()
        files = self.staged_files()
        resolutions = [log.resolution(f) for f in files]
        verdicts = _delete_verdicts(files, resolutions, where)
        if (
            self._current_schema_id is None
            and files
            and all(
                v is TriState.ALWAYS and f.live_rows
                for f, v in zip(files, verdicts)
            )
        ):
            # dropping every file of a table with no schema log would
            # leave nothing to take the schema from (evolve() reads a
            # live footer, append checks the fingerprint against one):
            # the last file takes the vector way and stays, fully
            # deleted
            verdicts[-1] = TriState.MAYBE
        total = dropped = 0
        victims = self._victims([
            (entry, res)
            for entry, res, verdict in zip(files, resolutions, verdicts)
            if verdict is TriState.MAYBE and entry.live_rows
        ], where)
        for entry, verdict in zip(files, verdicts):
            if verdict is TriState.NEVER or entry.live_rows == 0:
                continue  # file never opened
            if verdict is TriState.ALWAYS:
                self._supersede([entry], None)
                total += entry.live_rows
                dropped += 1
                continue
            rows = victims[entry.file_id]
            if len(rows):  # else: stats said maybe, the rows said no
                self._supersede([entry], entry.with_deleted(rows))
                total += len(rows)
        if total:  # zero matches stage nothing: no no-op snapshot
            self._ops.append("delete")
            self._bump("rows_deleted", total)
            if dropped:
                self._bump("files_dropped", dropped)
        return total

    def _victims(self, files, where: Expr) -> dict:
        """Each ``(entry, resolution)``'s live rows that ``where``
        matches, by file id — the entry's deletion vector and its
        file's footer say which are live. The files are read as one
        index: their row groups' zone-map verdicts in one pass, then the
        filter columns of the undecided groups decoded in batches across
        files, in the current schema's coordinates (renames resolve,
        narrow values widen, absent columns fill, so e.g. a predicate on
        an added column simply matches its typed-null fill). ``ALWAYS``
        groups give up their live rows undecoded. A missing filter
        column raises, exactly like ``scan(where=...)``: a typo'd name
        must not silently delete nothing."""
        if not files:
            return {}
        sources = []
        try:
            for entry, _res in files:
                sources.append(self._store.open_data(entry.file_id))
            readers = [BullionReader(source) for source in sources]
            indexes = [
                reader.file_index.with_deleted(entry.vector_rows())
                for reader, (entry, _res) in zip(readers, files)
            ]
            state = ReadIndex([
                (index, Layout(reader.footer, res))
                for index, reader, (_entry, res) in zip(indexes, readers, files)
            ]).state()
            never, always = state.verdicts(where)
            undecided = np.flatnonzero(~never & ~always)
            filters = sorted(where.columns())
            plan = state.plan(
                undecided, filters, None, Counter(), readers.__getitem__,
                files=len(files), drop_deleted=False,
            )
            masks = {
                g: evaluate_expr(where, table.columns)
                for g, table in zip(undecided.tolist(), scan_batches(
                    plan, filters, None, ScanStats(), Counter(),
                    widen_quantized=True,
                ))
            }
            victims = {}
            for i, (entry, _res) in enumerate(files):
                index, first = indexes[i], int(state.file_start[i])
                parts = []
                for rg in range(len(index.rows)):
                    mask = masks.get(first + rg)  # None: ALWAYS or NEVER
                    if never[first + rg] or mask is not None and not mask.any():
                        continue
                    start = int(index.row_start[rg])
                    live = ~index.deleted()[start : start + int(index.rows[rg])]
                    parts.append(
                        start + np.flatnonzero(live if mask is None else mask & live)
                    )
                victims[entry.file_id] = (
                    np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)
                )
            return victims
        finally:
            for source in sources:
                source.close()

    def erase(self, file_ids) -> int:
        """Scrub each staged file of ``file_ids`` that carries a
        deletion vector: one copy with the whole vector scrubbed (§2.1)
        staged in its place, so the deleted rows' bytes leave every
        file the next snapshot names. The original leaves the disk when
        the last snapshot naming it expires. Returns files erased."""
        self._require_open()
        staged = {f.file_id: f for f in self.staged_files()}
        erased = 0
        for file_id in file_ids:
            entry = staged.get(file_id)
            if entry is None or not entry.deletion_vector:
                continue  # rewritten or erased since it was picked
            source = self._store.open_data(file_id)
            try:
                copy = self._scrubbed_copy(entry, source, entry.vector_rows())
            finally:
                source.close()
            self._supersede([entry], copy)
            erased += 1
        if erased:
            self._ops.append("erase")
            self._bump("files_erased", erased)
        return erased

    def _scrubbed_copy(self, entry: DataFile, source, rows) -> DataFile:
        """Stage a copy of ``entry``'s file (open as ``source``) with
        ``rows`` scrubbed (§2.1, in place on the copy): its manifest
        entry. The copy is byte-identical modulo scrubbed pages, so it
        keeps the source's schema version."""
        new_id, copy = self.new_data_file()
        copy.append(source.pread(0, source.size))
        delete_rows(copy, rows)
        return _replace(data_file_entry(copy, new_id), schema_id=entry.schema_id)

    def upsert(
        self,
        table: Table,
        key: str,
        schema: Schema | None = None,
        options: WriterOptions | None = None,
    ) -> DataFile:
        """Keyed upsert: replace rows matching ``table``'s keys, insert
        the rest — one atomic snapshot.

        Composes the existing machinery: :meth:`delete` with
        ``key IN (batch keys)`` removes the old versions (files and row
        groups whose key range holds no batch key are never opened or
        decoded), and the batch is appended as one new file. Keys must
        be exact-match types (int,
        bool, string, bytes — float keys are rejected: NaN and rounding
        make float equality a correctness trap) and unique within the
        batch (duplicate keys would make the surviving row ambiguous).

        Commits replay like deletes: concurrent appends abort the
        transaction, because rows added after our key scan could hold a
        key this batch claims to have replaced.
        """
        self._require_open()
        if table.num_rows == 0:
            raise ValueError("upsert of an empty batch")
        if key not in table.columns:
            raise ValueError(f"upsert key column {key!r} not in batch")
        current = self.current_schema()
        if current is not None and current.maybe_column(key) is None:
            raise ValueError(
                f"upsert key column {key!r} not in current schema"
            )
        raw_keys = table.column(key)
        if isinstance(raw_keys, np.ndarray):
            if raw_keys.dtype.kind == "f":
                raise ValueError(
                    f"upsert key column {key!r} is floating point; "
                    f"float equality is not a safe upsert key"
                )
            keys = [v.item() for v in raw_keys]
        else:
            keys = list(raw_keys)
            if any(isinstance(v, float) for v in keys):
                raise ValueError(
                    f"upsert key column {key!r} is floating point; "
                    f"float equality is not a safe upsert key"
                )
        if len(set(keys)) != len(keys):
            raise ValueError(
                f"duplicate keys in upsert batch for {key!r}; "
                f"the surviving row would be ambiguous"
            )
        # stage via delete + append, then relabel the pair as one
        # logical "upsert" with its own summary counters
        ops_mark = len(self._ops)
        summary_before = dict(self._summary)
        replaced = self.delete(col(key).isin(keys))
        entry = self.append(table, schema=schema, options=options)
        del self._ops[ops_mark:]
        self._ops.append("upsert")
        self._summary = summary_before
        self._bump("rows_upserted", table.num_rows)
        self._bump("rows_replaced", replaced)
        return entry

    def rewrite(
        self, file_ids: list[str], options: WriterOptions | None = None
    ) -> CompactionReport:
        """Rewrite staged files of one schema version into one file.

        The one rewrite behind compaction (a bin of one file) and
        roll-up (a bin of small files): the live rows of ``file_ids``,
        in order, go through :func:`repro.core.compact.rewrite` into a
        new file staged under the inputs' schema version in their
        place, each input's deletion vector left out with its footer's
        deleted rows. When no row is live the inputs are just dropped. A
        bin of one file is a ``compact``, a larger one a ``rollup``.
        """
        self._require_open()
        staged = {f.file_id: f for f in self.staged_files()}
        entries = [staged[fid] for fid in file_ids if fid in staged]
        if not entries or len(entries) < len(file_ids):
            raise ValueError(f"cannot rewrite {file_ids}: not all are staged")
        if len({f.schema_id for f in entries}) > 1:
            raise ValueError("cannot rewrite files of different schema versions")
        report = CompactionReport(
            rows_in=sum(f.row_count for f in entries), rows_out=0,
            bytes_in=sum(f.byte_size for f in entries), bytes_out=0,
        )
        replacement = None
        if any(f.live_rows for f in entries):
            new_id, target = self.new_data_file()
            sources = [self._store.open_data(fid) for fid in file_ids]
            try:
                report = rewrite_files(
                    sources, target, options,
                    drops=[f.vector_rows() for f in entries],
                )
            finally:
                for source in sources:
                    source.close()
            replacement = _replace(
                data_file_entry(target, new_id), schema_id=entries[0].schema_id
            )
        self._supersede(entries, replacement)
        if len(entries) > 1:
            self._ops.append("rollup")
            self._bump("files_merged", len(entries))
        else:
            self._ops.append("compact")
        self._bump("bytes_reclaimed", report.bytes_reclaimed)
        return report

    def compact(
        self,
        min_deleted_fraction: float = 0.0,
        options: WriterOptions | None = None,
    ) -> CompactionReport:
        """Rewrite each staged file carrying deletions at or above
        ``min_deleted_fraction`` without its dead rows (a bin of one
        file, see :meth:`rewrite`). Returns the aggregate report."""
        reports = [
            self.rewrite([f.file_id], options)
            for f in self.staged_files()
            if f.deleted_count and f.deleted_fraction >= min_deleted_fraction
        ]
        return CompactionReport(*(
            sum(getattr(r, k) for r in reports)
            for k in ("rows_in", "rows_out", "bytes_in", "bytes_out")
        ))

    # -- commit protocol ------------------------------------------------
    def commit(self, max_retries: int = 20) -> Snapshot:
        """Publish the staged edit as the next snapshot (CAS + retry)."""
        obs_on = obs_metrics.enabled()
        t0 = time.perf_counter() if obs_on else 0.0
        with obs_trace.span("catalog.commit", ops=",".join(self._ops)):
            snap = self._commit_impl(max_retries, obs_on)
        if obs_on:
            COMMIT_SECONDS.observe(time.perf_counter() - t0)
            COMMITS.labels(operation=snap.operation).inc()
        return snap

    def _published(self, snap: Snapshot) -> None:
        """Bookkeeping once ``snap`` is visible."""
        self._state = "committed"
        self._release_base()
        self._table._note_commit(snap, self._added)
        self._table._unregister_inflight(self._staged_ids)
        self._close_staged()  # readers re-open via open_data
        # staged files superseded within this very transaction
        # (e.g. delete-then-compact) are unreferenced: drop them
        referenced = snap.file_ids()
        for file_id in self._staged_ids:
            if file_id not in referenced:
                self._store.delete_data(file_id)

    def _commit_impl(self, max_retries: int, obs_on: bool) -> Snapshot:
        self._require_open()
        if not self._ops and not self._added and not self._removed:
            raise ValueError("empty transaction: nothing staged")
        check_features(self._base.required_features)
        # durability first: staged data must be on disk before the
        # manifest that references it — put_metadata only makes the
        # small snapshot JSON durable
        for storage in self._staged_storages:
            storage.sync()
        if self._staged_ids:  # a manifest-only commit (a delete that
            # only dropped files) put nothing in the data directory
            self._store.sync_data()
        table = self._table
        head = self._base
        base_entries = {
            f.file_id: f for f in self._base.files if f.file_id in self._removed
        }
        for _attempt in range(max_retries + 1):
            if obs_on:
                COMMIT_ATTEMPTS.inc()
                if _attempt:  # turn N>0 replays the edit on a new HEAD
                    COMMIT_REPLAYS.inc()
            # re-validate against (possibly moved) HEAD: every entry we
            # replace or restage must be there as our base had it (what
            # we made of it would otherwise lose the rows a concurrent
            # delete added to its vector)
            head_entries = {f.file_id: f for f in head.files}
            changed = [
                fid for fid, entry in base_entries.items()
                if head_entries.get(fid) != entry
            ]
            if changed:
                self.abort()
                raise CommitConflict(
                    f"files {sorted(changed)} were replaced by a concurrent "
                    f"commit; transaction aborted"
                )
            if (self._evolved or self._added) and (
                head.schemas != self._base.schemas
                or head.current_schema_id != self._base.current_schema_id
            ):
                # staged files were fingerprint-validated (and tagged)
                # against our base's schema log; a concurrent evolution
                # invalidates that — abort rather than commit files
                # under a schema they were never checked against
                self.abort()
                raise CommitConflict(
                    "the schema log changed under a concurrent commit; "
                    "transaction aborted"
                )
            if {"delete", "upsert"} & set(self._ops):
                # a delete's (or upsert's key-scan) predicate never
                # scanned files appended after its base snapshot —
                # replaying over them would silently leave matching
                # rows live, so abort instead
                unseen = (
                    head_entries.keys()
                    - self._base.file_ids()
                    - {f.file_id for f in self._added}
                )
                if unseen:
                    self.abort()
                    raise CommitConflict(
                        f"files {sorted(unseen)} were added concurrently; "
                        f"a delete cannot replay without re-scanning them; "
                        f"transaction aborted"
                    )
            files = [
                f for f in head.files if f.file_id not in self._removed
            ] + list(self._added)
            # schema log for the new snapshot: ours if we evolved,
            # otherwise carried forward from HEAD
            if self._evolved:
                schemas, current_id = self._schemas, self._current_schema_id
            else:
                schemas = {s.schema_id: s for s in head.schemas}
                current_id = head.current_schema_id
            if current_id is not None:
                files = _adopt_legacy_files(files, schemas)
                referenced = {
                    f.schema_id for f in files if f.schema_id is not None
                }
                referenced.add(current_id)
                kept_schemas = tuple(
                    schemas[i] for i in sorted(referenced) if i in schemas
                )
            else:
                kept_schemas = ()
            # readers that cannot apply a deletion vector must refuse
            # the snapshot while any entry carries one
            features = tuple(
                f for f in head.required_features if f != DELETION_VECTORS
            )
            if any(f.deletion_vector for f in files):
                features += (DELETION_VECTORS,)
            snap = Snapshot(
                snapshot_id=head.snapshot_id + 1,
                parent_id=head.snapshot_id,
                timestamp_ms=table._next_timestamp_ms(head.timestamp_ms),
                # bare new_data_file()+add_file() staging records no op
                operation=",".join(dict.fromkeys(self._ops)) or "add-files",
                files=tuple(files),
                summary=dict(self._summary),
                schemas=kept_schemas,
                current_schema_id=current_id,
                format_version=head.format_version,
                required_features=features,
                extra=head.extra,
            )
            try:
                published = self._store.put_metadata(
                    snapshot_name(snap.snapshot_id), snap.to_json()
                )
            except CommitOutcomeUnknown as exc:
                # visible, maybe not durable: the handle knows it as
                # committed, and the caller learns which snapshot it is
                exc.snapshot_id = snap.snapshot_id
                self._published(snap)
                raise
            if published:
                self._published(snap)
                return snap
            table._bump(conflicts=1)
            if obs_on:
                COMMIT_CONFLICTS.inc()
            head = table.current_snapshot()
        self.abort()
        raise CommitConflict(f"commit failed after {max_retries} retries")

    def abort(self) -> None:
        """Drop the transaction and delete its staged data files."""
        if self._state != "open":
            return
        self._state = "aborted"
        self._release_base()
        self._close_staged()
        for file_id in self._staged_ids:
            self._store.delete_data(file_id)
        self._table._unregister_inflight(self._staged_ids)
        self._table._bump(aborts=1)
        if obs_metrics.enabled():
            COMMIT_ABORTS.inc()
