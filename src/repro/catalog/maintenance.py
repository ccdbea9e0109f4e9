"""Background maintenance: roll-ups, compaction, snapshot expiry.

The paper deliberately keeps space reclamation off the
compliance-critical path (§2.1: deletes scrub pages in place; a later
compaction reclaims the bytes). The catalog gives that division of
labour a scheduler: :class:`MaintenanceService` inspects HEAD, plans
jobs, and executes each as an ordinary transaction — so maintenance
commits race (and retry) like any other writer and never blocks
training readers, which hold pinned snapshots.

Four job kinds:

``retention`` delete rows matching the policy's standing expression
              (e.g. ``col("ts") < horizon``) through the same unified
              evaluator and pushdown layers every scan and delete use
``rollup``    merge small incremental ingest files into
              training-sized ones via :func:`repro.core.merge`
``compact``   rewrite files whose deleted-row fraction crossed the
              policy threshold via :func:`repro.core.compact`
``expire``    drop old snapshots beyond the retention policy, then
              delete data files no retained (or pinned, or
              mid-transaction) snapshot references

Pins and in-flight staged files live in the :class:`CatalogTable`
handle, not the store, so expiry only sees readers and open
transactions on the *same* handle. When several processes write one
``DirectoryCatalogStore``, run expiry in the writer process or set
``MaintenancePolicy.gc_grace_ms`` above the longest transaction so GC
never collects a file another process staged but has not committed yet.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.catalog.snapshot import ManifestIndex, Snapshot
from repro.catalog.table import CatalogTable
from repro.catalog.transaction import CommitConflict, data_file_entry
from repro.core.compact import merge
from repro.core.writer import WriterOptions
from repro.obs import metrics as obs_metrics, trace as obs_trace
from repro.obs.families import (
    MAINT_BYTES_RECLAIMED,
    MAINT_CYCLE_SECONDS,
    MAINT_CYCLES,
    MAINT_GC_REFUSALS,
    MAINT_JOBS_RUN,
    MAINT_JOBS_SKIPPED,
    Counters,
)


@dataclass
class MaintenancePolicy:
    """When maintenance considers a file or snapshot actionable."""

    #: files with fewer live rows than this are roll-up candidates
    rollup_small_file_rows: int = 4096
    #: stop filling a roll-up bin once it reaches this many rows
    rollup_target_rows: int = 65536
    #: never merge fewer files than this (a 1-file merge is a no-op)
    rollup_min_files: int = 2
    #: compact a file once this fraction of its rows is deleted
    compact_deleted_fraction: float = 0.25
    #: always retain the most recent N snapshots
    keep_snapshots: int = 3
    #: additionally require expired snapshots to be older than this
    snapshot_ttl_ms: int | None = None
    #: GC grace period: leave unreferenced data files whose last
    #: modification is younger than this alone. Pins and in-flight
    #: staged files are tracked per table handle, so when OTHER
    #: processes write the same store, set this above the longest
    #: transaction (or only run expiry in the writer process)
    gc_grace_ms: int = 0
    #: standing row-retention filter (:class:`repro.expr.Expr`):
    #: every cycle deletes the rows it matches, using the same
    #: evaluator and file/group pruning as ``scan(where=...)`` —
    #: files whose manifest stats rule the filter out are untouched,
    #: so a steady-state cycle plans no retention job at all
    retention_filter: "object | None" = None
    #: writer options for rewritten files (None = defaults)
    writer_options: WriterOptions | None = None


@dataclass(frozen=True)
class MaintenanceJob:
    """One planned unit of background work."""

    kind: str  # "rollup" | "compact" | "expire"
    file_ids: tuple[str, ...] = ()
    snapshot_ids: tuple[int, ...] = ()
    reason: str = ""


@dataclass
class MaintenanceReport(Counters):
    """What one maintenance cycle actually did. ``bytes_reclaimed``
    publishes by hand: the registry takes only a clamped delta."""

    jobs_planned: int = 0
    jobs_run: int = 0
    files_merged: int = 0
    files_compacted: int = 0
    bytes_reclaimed: int = 0
    snapshots_expired: int = 0
    data_files_deleted: int = 0
    rows_deleted: int = 0
    skipped: list[str] = field(default_factory=list)

    families = {
        "rows_deleted": "maintenance_rows_deleted_total",
        "snapshots_expired": "maintenance_snapshots_expired_total",
        "data_files_deleted": "maintenance_files_deleted_total",
    }


class MaintenanceService:
    """Plan and execute maintenance for one table.

    ``plan()`` is pure (inspects HEAD, returns jobs); ``run_once()``
    plans then executes one cycle; ``start(interval_s)`` runs cycles
    on a daemon thread until ``stop()``.
    """

    def __init__(
        self,
        table: CatalogTable,
        policy: MaintenancePolicy | None = None,
    ) -> None:
        self.table = table
        self.policy = policy or MaintenancePolicy()
        self.cycles = 0
        self.last_report: MaintenanceReport | None = None
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()

    # -- planning -------------------------------------------------------
    def plan(self) -> list[MaintenanceJob]:
        policy = self.policy
        head = self.table.current_snapshot()
        jobs: list[MaintenanceJob] = []

        if policy.retention_filter is not None:
            # manifest-level pruning decides the candidate set: in the
            # steady state (all expired rows already deleted) no file
            # can match and no job is planned
            never, _always = ManifestIndex(
                head.files, [None] * len(head.files)
            ).verdicts(policy.retention_filter)
            matchable = [
                f
                for f, pruned in zip(head.files, never.tolist())
                if f.live_rows and not pruned
            ]
            if matchable:
                jobs.append(
                    MaintenanceJob(
                        kind="retention",
                        file_ids=tuple(f.file_id for f in matchable),
                        reason=(
                            f"{len(matchable)} files may hold rows "
                            f"matching {policy.retention_filter!r}"
                        ),
                    )
                )

        compactable = [
            f
            for f in head.files
            if f.row_count
            and f.deleted_fraction >= policy.compact_deleted_fraction
        ]
        for f in compactable:
            jobs.append(
                MaintenanceJob(
                    kind="compact",
                    file_ids=(f.file_id,),
                    reason=(
                        f"{f.deleted_count}/{f.row_count} rows deleted "
                        f"({f.deleted_fraction:.0%} >= "
                        f"{policy.compact_deleted_fraction:.0%})"
                    ),
                )
            )

        taken = {f.file_id for f in compactable}
        small = [
            f
            for f in head.files
            if f.file_id not in taken
            and f.live_rows < policy.rollup_small_file_rows
        ]
        bin_files: list[str] = []
        bin_rows = 0
        for f in small:
            bin_files.append(f.file_id)
            bin_rows += f.live_rows
            if bin_rows >= policy.rollup_target_rows:
                jobs.append(self._rollup_job(bin_files, bin_rows))
                bin_files, bin_rows = [], 0
        if len(bin_files) >= policy.rollup_min_files:
            jobs.append(self._rollup_job(bin_files, bin_rows))

        expirable = self._expirable_snapshots(head)
        if expirable:
            jobs.append(
                MaintenanceJob(
                    kind="expire",
                    snapshot_ids=tuple(s.snapshot_id for s in expirable),
                    reason=(
                        f"retention keeps {policy.keep_snapshots} "
                        f"snapshots"
                    ),
                )
            )
        return jobs

    def _rollup_job(self, file_ids: list[str], rows: int) -> MaintenanceJob:
        return MaintenanceJob(
            kind="rollup",
            file_ids=tuple(file_ids),
            reason=(
                f"{len(file_ids)} small files "
                f"({rows} live rows) below "
                f"{self.policy.rollup_small_file_rows}-row threshold"
            ),
        )

    def _expirable_snapshots(self, head: Snapshot) -> list[Snapshot]:
        policy = self.policy
        history = self.table.history()
        keep = history[-policy.keep_snapshots :] if policy.keep_snapshots else []
        retained = {s.snapshot_id for s in keep}
        retained.add(head.snapshot_id)
        pinned = self.table.pinned_snapshot_ids()
        out = []
        for snap in history:
            if snap.snapshot_id in retained or snap.snapshot_id in pinned:
                continue
            if (
                policy.snapshot_ttl_ms is not None
                and head.timestamp_ms - snap.timestamp_ms
                < policy.snapshot_ttl_ms
            ):
                continue
            out.append(snap)
        return out

    # -- execution ------------------------------------------------------
    def run_once(self) -> MaintenanceReport:
        obs_on = obs_metrics.enabled()
        t0 = time.perf_counter() if obs_on else 0.0
        with obs_trace.span("maintenance.cycle"):
            report = self._run_once_impl(obs_on)
        if obs_on:
            MAINT_CYCLES.inc()
            MAINT_CYCLE_SECONDS.observe(time.perf_counter() - t0)
        return report

    def _run_once_impl(self, obs_on: bool) -> MaintenanceReport:
        report = MaintenanceReport()
        jobs = self.plan()
        report.jobs_planned = len(jobs)
        for job in jobs:
            try:
                with obs_trace.span("maintenance.job", kind=job.kind):
                    if job.kind == "retention":
                        self._run_retention(job, report)
                    elif job.kind == "compact":
                        self._run_compact(job, report)
                    elif job.kind == "rollup":
                        self._run_rollup(job, report)
                    elif job.kind == "expire":
                        self._run_expire(job, report)
                report.jobs_run += 1
                if obs_on:
                    MAINT_JOBS_RUN.labels(kind=job.kind).inc()
            except CommitConflict as exc:
                # a foreground writer won a race against this job; the
                # next cycle re-plans from the new HEAD
                report.skipped.append(f"{job.kind}: {exc}")
                if obs_on:
                    MAINT_JOBS_SKIPPED.labels(kind=job.kind).inc()
            except Exception as exc:
                # anything else (I/O error, a file expired by another
                # process, ...) must not kill the background loop
                report.skipped.append(
                    f"{job.kind}: {type(exc).__name__}: {exc}"
                )
                if obs_on:
                    MAINT_JOBS_SKIPPED.labels(kind=job.kind).inc()
        self.cycles += 1
        self.last_report = report
        return report

    def _run_retention(
        self, job: MaintenanceJob, report: MaintenanceReport
    ) -> None:
        txn = self.table.transaction()
        try:
            deleted = txn.delete(self.policy.retention_filter)
            if deleted == 0:
                # stats said maybe, the exact evaluator said no —
                # nothing staged, so commit would be a no-op snapshot
                txn.abort()
                return
            txn.commit()
        except BaseException:
            txn.abort()  # no-op after commit()'s own conflict abort
            raise
        report.bump(rows_deleted=deleted)

    def _run_compact(
        self, job: MaintenanceJob, report: MaintenanceReport
    ) -> None:
        txn = self.table.transaction()
        try:
            comp = txn.compact(
                file_ids=list(job.file_ids),
                options=self.policy.writer_options,
            )
            if comp.bytes_in == 0:  # inputs vanished under a racing commit
                txn.abort()
                report.skipped.append(
                    f"compact: inputs vanished ({job.file_ids})"
                )
                return
            txn.commit()
        except BaseException:
            txn.abort()  # no-op after commit()'s own conflict abort
            raise
        report.files_compacted += len(job.file_ids)
        report.bytes_reclaimed += comp.bytes_reclaimed
        if obs_metrics.enabled():
            # a rewrite can grow a file (encoding drift); counters only
            # go up, so clamp the reclaimed delta at zero
            MAINT_BYTES_RECLAIMED.inc(max(0, comp.bytes_reclaimed))

    def _run_rollup(
        self, job: MaintenanceJob, report: MaintenanceReport
    ) -> None:
        txn = self.table.transaction()
        try:
            staged = {f.file_id for f in txn.staged_files()}
            present = [fid for fid in job.file_ids if fid in staged]
            if len(present) < self.policy.rollup_min_files:
                txn.abort()
                report.skipped.append(
                    f"rollup: inputs vanished before merge ({job.file_ids})"
                )
                return
            sources = [self.table.store.open_data(fid) for fid in present]
            try:
                new_id, target = txn.new_data_file()
                comp = merge(
                    sources, target, options=self.policy.writer_options
                )
            finally:
                for source in sources:
                    source.close()
            txn.replace_files(
                removed_ids=present,
                added=[data_file_entry(target, new_id)],
                operation="rollup",
                summary={
                    "files_merged": len(sources),
                    "bytes_reclaimed": comp.bytes_reclaimed,
                },
            )
            txn.commit()
        except BaseException:
            txn.abort()  # no-op after commit()'s own conflict abort
            raise
        report.files_merged += len(sources)
        report.bytes_reclaimed += comp.bytes_reclaimed
        if obs_metrics.enabled():
            MAINT_BYTES_RECLAIMED.inc(max(0, comp.bytes_reclaimed))

    def _run_expire(
        self, job: MaintenanceJob, report: MaintenanceReport
    ) -> None:
        table = self.table
        store = table.store
        policy = self.policy
        # Read order is load-bearing. Candidates are listed first: a
        # file staged-and-committed after this listing is simply not a
        # candidate this cycle. Pins/in-flight files are read BEFORE
        # the snapshot log: a racing transaction unregisters a staged
        # file only after its commit published the snapshot, so a file
        # missing from pinned_file_ids() is guaranteed to show up in
        # the later history() read if HEAD references it.
        obs_on = obs_metrics.enabled()
        candidates = store.list_data()
        referenced: set[str] = set(table.pinned_file_ids())
        for sid in job.snapshot_ids:
            # expire_snapshot re-checks pins under the table lock, so
            # a pin registered since the plan wins the race
            if table.expire_snapshot(sid):
                report.bump(snapshots_expired=1)
            else:
                report.skipped.append(f"expire: snapshot {sid} is pinned")
                if obs_on:
                    MAINT_GC_REFUSALS.labels(reason="pinned").inc()
        # GC: a data file also survives if any retained snapshot
        # references it
        for snap in table.history():
            referenced |= snap.file_ids()
        now_ms = time.time_ns() // 1_000_000
        for file_id in candidates:
            if file_id in referenced:
                continue
            try:
                if (
                    policy.gc_grace_ms > 0
                    and now_ms - store.data_mtime_ms(file_id)
                    < policy.gc_grace_ms
                ):
                    # possibly staged by a writer in another process,
                    # which this handle's in-flight set cannot see
                    if obs_on:
                        MAINT_GC_REFUSALS.labels(reason="grace").inc()
                    continue
                reclaimed = store.data_size(file_id)
            except (FileNotFoundError, OSError):
                continue  # already gone (aborted transaction cleanup)
            store.delete_data(file_id)
            report.bump(bytes_reclaimed=reclaimed, data_files_deleted=1)
            if obs_on:
                MAINT_BYTES_RECLAIMED.inc(reclaimed)

    # -- background loop ------------------------------------------------
    def start(self, interval_s: float = 1.0) -> None:
        if self._thread is not None:
            raise RuntimeError("maintenance service already running")
        self._stop.clear()

        def loop() -> None:
            while not self._stop.is_set():
                self.run_once()
                self._stop.wait(interval_s)

        self._thread = threading.Thread(
            target=loop, name="catalog-maintenance", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join()
        self._thread = None
