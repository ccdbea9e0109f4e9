"""Background maintenance: roll-ups, compaction, erasure, expiry.

The paper keeps space reclamation off the compliance-critical path
(§2.1: a delete records its rows in a deletion vector and scrubs their
pages in place; a later compaction reclaims the bytes). The catalog
moves the page scrub off it too: a delete only restages manifest
entries with deletion vectors, and the ``erase`` job scrubs them at the
next cycle. :class:`MaintenanceService` inspects HEAD, plans jobs, and
executes each as an ordinary transaction — so maintenance commits race
(and retry) like any other writer and never blocks training readers,
which hold pinned snapshots.

Four job kinds (row retention is a foreground
``CatalogTable.delete(where)``, not a job); ``rollup`` and ``compact``
run one executor, :meth:`~repro.catalog.Transaction.rewrite` of the
job's files:

``rollup``    merge small incremental ingest files of one schema
              version into training-sized ones
``compact``   rewrite files whose deleted-row fraction crossed the
              policy threshold without their dead rows
``erase``     give every other file with a deletion vector one copy
              with the whole vector scrubbed (§2.1,
              :meth:`~repro.catalog.Transaction.erase`): a deleted
              row's bytes leave every live file at the next cycle
``expire``    drop old snapshots beyond the retention policy, then
              delete data files no retained (or pinned, or
              mid-transaction) snapshot references — the pre-erasure
              originals among them

Pins and in-flight staged files live in the :class:`CatalogTable`
handle, not the store, so expiry only sees readers and open
transactions on the *same* handle; the bases of open transactions are
known to every store object of the table in this process, so an
expired snapshot id one of them may still claim stays a tombstone (see
:mod:`repro.catalog.store`). When
several processes write one ``DirectoryCatalogStore``, run expiry in
the writer process or set ``MaintenancePolicy.gc_grace_ms`` above the
longest transaction so GC never collects a file another process staged
but has not committed yet, nor a tombstone whose id it may claim.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.catalog.snapshot import Snapshot
from repro.catalog.table import CatalogTable
from repro.catalog.transaction import CommitConflict
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
    #: writer options for rewritten files (None = defaults)
    writer_options: WriterOptions | None = None


@dataclass(frozen=True)
class MaintenanceJob:
    """One planned unit of background work."""

    kind: str  # "rollup" | "compact" | "erase" | "expire"
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
    files_erased: int = 0
    bytes_reclaimed: int = 0
    snapshots_expired: int = 0
    data_files_deleted: int = 0
    skipped: list[str] = field(default_factory=list)

    families = {
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

        # small files roll up in bins of one schema version each: a
        # rewrite keeps its inputs' version
        taken = {f.file_id for f in compactable}
        small: dict[int | None, list] = {}
        for f in head.files:
            if (
                f.file_id not in taken
                and f.live_rows < policy.rollup_small_file_rows
            ):
                small.setdefault(f.schema_id, []).append(f)
        for files in small.values():
            bin_files: list[str] = []
            bin_rows = 0
            for f in files:
                bin_files.append(f.file_id)
                bin_rows += f.live_rows
                if bin_rows >= policy.rollup_target_rows:
                    jobs.append(self._rollup_job(bin_files, bin_rows))
                    bin_files, bin_rows = [], 0
            if len(bin_files) >= policy.rollup_min_files:
                jobs.append(self._rollup_job(bin_files, bin_rows))

        # a file rewritten this cycle leaves its vector out already
        rewritten = {fid for job in jobs for fid in job.file_ids}
        vectored = [
            f.file_id for f in head.files
            if f.deletion_vector and f.file_id not in rewritten
        ]
        if vectored:
            jobs.append(MaintenanceJob(
                kind="erase",
                file_ids=tuple(vectored),
                reason=f"{len(vectored)} files carry deletion vectors",
            ))

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
                    if job.kind == "expire":
                        self._run_expire(job, report)
                    elif job.kind == "erase":
                        self._run_erase(job, report)
                    else:
                        self._run_rewrite(job, report)
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

    def _run_rewrite(
        self, job: MaintenanceJob, report: MaintenanceReport
    ) -> None:
        """A ``compact`` or ``rollup`` job: one :meth:`Transaction.rewrite`
        of the job's files still live at HEAD."""
        with self.table.transaction() as txn:
            live = {f.file_id for f in txn.staged_files()}
            present = [fid for fid in job.file_ids if fid in live]
            need = self.policy.rollup_min_files if job.kind == "rollup" else 1
            if len(present) < need:
                # a racing commit replaced the inputs since the plan
                report.skipped.append(
                    f"{job.kind}: inputs vanished ({job.file_ids})"
                )
                return
            comp = txn.rewrite(present, self.policy.writer_options)
            txn.commit()
        done = "files_merged" if job.kind == "rollup" else "files_compacted"
        report.bump(**{done: len(present)}, bytes_reclaimed=comp.bytes_reclaimed)
        if obs_metrics.enabled():
            # a rewrite can grow a file (encoding drift); counters only
            # go up, so clamp the reclaimed delta at zero
            MAINT_BYTES_RECLAIMED.inc(max(0, comp.bytes_reclaimed))

    def _run_erase(
        self, job: MaintenanceJob, report: MaintenanceReport
    ) -> None:
        """An ``erase`` job: one :meth:`Transaction.erase` of the job's
        files, one commit."""
        with self.table.transaction() as txn:
            erased = txn.erase(job.file_ids)
            if not erased:
                report.skipped.append(f"erase: inputs vanished ({job.file_ids})")
                return
            txn.commit()
        report.bump(files_erased=erased)

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
            if table.expire_snapshot(sid, keep_id=policy.gc_grace_ms > 0):
                report.bump(snapshots_expired=1)
            else:
                report.skipped.append(f"expire: snapshot {sid} is pinned")
                if obs_on:
                    MAINT_GC_REFUSALS.labels(reason="pinned").inc()
        # GC: a data file also survives if any retained snapshot
        # references it
        for snap in table.history():
            referenced |= snap.file_ids()
        table.collect_tombstones(policy.gc_grace_ms)
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
