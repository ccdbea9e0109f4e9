"""``ingest_churn``: micro-batch appends beside compliance deletes,
retention, upserts and background maintenance.

The same catalog and core layers as the read workloads, used the other
way round. The writer, commits (the manifest is re-serialised per
commit), the deletion scrub, maintenance and the cascading selector
dominate; a read-side gain paid for at write time (more statistics,
bigger manifests, heavier encodings) shows here. Retention keeps the
live row count constant, so the numbers are steady-state rather than a
function of how long the run lasted. Flush policy is the store's own
(fsync of every staged file, the data directory and the manifest).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

import datagen
from common import (
    Context,
    ScenarioResult,
    end_to_end,
    median,
    ratio,
)
from wrappers import live_bytes, make_store

ROW_BYTES = 8 + 8 + 8 + 4 + 4 + 8  # one narrow row of user data


@dataclass(frozen=True)
class Scale:
    batch_rows: int
    #: batches kept live by retention (also the warm-up append count)
    live_batches: int
    appends_per_cycle: int
    upsert_keys: int
    upsert_every: int
    maintain_every: int
    #: cycles to run; None sizes the phase from ``--seconds`` in whole
    #: maintenance periods (see :func:`cycles_for`)
    cycles: int | None


FULL = Scale(batch_rows=2000, live_batches=100, appends_per_cycle=10,
             upsert_keys=500, upsert_every=5, maintain_every=10,
             cycles=None)
MINI = Scale(batch_rows=250, live_batches=20, appends_per_cycle=5,
             upsert_keys=100, upsert_every=5, maintain_every=10,
             cycles=20)

#: write_amp and space_ratio are read after this many cycles (one full
#: maintenance period), so they do not depend on the run's length
CHECKPOINT_CYCLE = 10

#: seconds one ten-cycle period takes at the parent commit
PERIOD_S = 7.5


def cycles_for(scale: Scale, seconds: float) -> int:
    """Whole maintenance periods, one per ``PERIOD_S`` of budget.

    The phase is not cut off by the clock: a cycle before the first
    roll-up costs a quarter of one after it, so a run that stopped
    wherever its time ran out would mix a different share of cheap and
    dear cycles every time. Every run does the same work instead, sized
    to the budget.
    """
    if scale.cycles is not None:
        return scale.cycles
    periods = max(1, round(seconds / PERIOD_S))
    return periods * scale.maintain_every


class Shadow:
    """Numpy model of the table: ``ts`` is the global row number, so
    ``user``/``clicks``/``live`` are plain arrays indexed by it."""

    def __init__(self) -> None:
        self.user = np.zeros(0, dtype=np.int64)
        self.clicks = np.zeros(0, dtype=np.int64)
        self.live = np.zeros(0, dtype=bool)
        self.rows = 0

    def _reserve(self, rows: int) -> None:
        if rows > len(self.live):
            grow = max(rows, 2 * len(self.live)) - len(self.live)
            self.user = np.concatenate([self.user, np.zeros(grow, np.int64)])
            self.clicks = np.concatenate(
                [self.clicks, np.zeros(grow, np.int64)]
            )
            self.live = np.concatenate([self.live, np.zeros(grow, bool)])

    def put(self, batch: dict) -> None:
        """Append or upsert: the batch's rows become the live versions."""
        ts = batch["ts"]
        self._reserve(int(ts.max()) + 1)
        self.user[ts] = batch["user"]
        self.clicks[ts] = batch["clicks"]
        self.live[ts] = True
        self.rows = max(self.rows, int(ts.max()) + 1)

    def delete_user(self, user: int) -> None:
        self.live[: self.rows] &= self.user[: self.rows] != user

    def delete_before(self, cutoff: int) -> None:
        self.live[:cutoff] = False

    def count(self) -> int:
        return int(self.live[: self.rows].sum())

    def sum_clicks(self) -> int:
        return int(self.clicks[: self.rows][self.live[: self.rows]].sum())

    def count_by_user(self, users) -> dict[int, int]:
        live_users = self.user[: self.rows][self.live[: self.rows]]
        return {int(u): int((live_users == u).sum()) for u in users}


def run(ctx: Context) -> ScenarioResult:
    from repro.catalog import (
        CatalogTable,
        MaintenancePolicy,
        MaintenanceService,
    )
    from repro.core import BullionReader, Table, WriterOptions
    from repro.expr import col

    scale = FULL if ctx.full else MINI
    res = ScenarioResult()
    rng = np.random.default_rng([ctx.seed, 3])
    shadow = Shadow()
    store = make_store(ctx.subdir("ingest"), ctx.recorder)
    batches = 0  # appended so far; the next batch starts at batches*rows

    def append(op: str) -> tuple[float, float]:
        """One micro-batch: returns (append, commit) seconds. Staging
        and commit are timed apart so the catalog's share is known;
        together they are exactly what ``table.append`` does."""
        nonlocal batches
        batch = datagen.narrow_batch(
            rng, scale.batch_rows, batches * scale.batch_rows
        )
        batches += 1
        with ctx.span("ingest.append", op=op):
            t0 = time.perf_counter()
            txn = table.transaction()
            txn.append(Table(batch))
            t1 = time.perf_counter()
            txn.commit()
            t2 = time.perf_counter()
        shadow.put(batch)
        return t2 - t0, t2 - t1

    # -- set-up: warm the table up to its steady live size ----------------
    t0 = time.perf_counter()
    table = CatalogTable.create(store)
    warm_commit_s = []
    for k in range(scale.live_batches):
        warm_commit_s.append(append(f"warm-{k}")[1])
    maintenance = MaintenanceService(
        table,
        MaintenancePolicy(
            writer_options=WriterOptions(encoding_policy="cascade")
        ),
    )
    res.setup_s = time.perf_counter() - t0

    # -- timed phase: steady cycles ---------------------------------------
    append_s: list[float] = []
    commit_s: list[float] = []
    delete_s: list[float] = []
    retention_s: list[float] = []
    upsert_s: list[float] = []
    maintain_s: list[float] = []
    deleted_users: list[int] = []
    raw_written = 0
    retention_bytes = maintenance_bytes = 0
    checkpoint: dict = {}
    bytes_before = store.bytes_written()
    puts_before = store.metadata_puts
    manifest_before = store.metadata_bytes
    cycles = cycles_for(scale, ctx.seconds)

    def run_cycle(cycle: int) -> None:
        nonlocal raw_written, retention_bytes, maintenance_bytes, checkpoint
        for j in range(scale.appends_per_cycle):
            total, commit = append(f"append-{cycle}-{j}")
            append_s.append(total)
            commit_s.append(commit)
            raw_written += scale.batch_rows * ROW_BYTES

        user = int(rng.integers(0, datagen.N_USERS))
        with ctx.span("ingest.delete", op=f"delete-{cycle}"):
            t1 = time.perf_counter()
            table.delete(col("user") == user)
            delete_s.append(time.perf_counter() - t1)
        shadow.delete_user(user)
        deleted_users.append(user)

        cutoff = (batches - scale.live_batches) * scale.batch_rows
        before = store.data_bytes_written()
        with ctx.span("ingest.retention", op=f"retention-{cycle}"):
            t1 = time.perf_counter()
            table.delete(col("ts") < cutoff)
            retention_s.append(time.perf_counter() - t1)
        retention_bytes += store.data_bytes_written() - before
        shadow.delete_before(cutoff)

        if cycle % scale.upsert_every == 0:
            keys = np.sort(rng.choice(
                np.arange(cutoff, batches * scale.batch_rows),
                scale.upsert_keys, replace=False,
            ))
            batch = datagen.narrow_batch(rng, scale.upsert_keys, 0)
            batch["ts"] = keys.astype(np.int64)
            with ctx.span("ingest.upsert", op=f"upsert-{cycle}"):
                t1 = time.perf_counter()
                table.upsert(Table(batch), "ts")
                upsert_s.append(time.perf_counter() - t1)
            shadow.put(batch)
            raw_written += scale.upsert_keys * ROW_BYTES

        if cycle % scale.maintain_every == 0:
            before = store.data_bytes_written()
            with ctx.span("ingest.maintenance", op=f"maintain-{cycle}"):
                t1 = time.perf_counter()
                report = maintenance.run_once()
                maintain_s.append(time.perf_counter() - t1)
            maintenance_bytes += store.data_bytes_written() - before
            res.op(not report.skipped,
                   f"maintenance cycle {cycle} skipped jobs: {report.skipped}")
            with ctx.span("ingest.verify_query", op=f"verify-{cycle}"):
                got = table.query(["count", "sum(clicks)"]).rows[0]
            res.op(
                (got["count(*)"], got["sum(clicks)"])
                == (shadow.count(), shadow.sum_clicks()),
                f"ingest cycle {cycle}: count/sum(clicks) {got} != shadow "
                f"{shadow.count()}/{shadow.sum_clicks()}",
            )

        if cycle == CHECKPOINT_CYCLE:
            snapshot = table.current_snapshot()
            checkpoint = {
                "write_amp": ratio(
                    store.bytes_written() - bytes_before, raw_written
                ),
                "space_ratio": ratio(
                    live_bytes(snapshot), shadow.count() * ROW_BYTES
                ),
            }

    with ctx.timed_phase():
        t_phase = time.perf_counter()
        for cycle in range(1, cycles + 1):
            run_cycle(cycle)
        res.timed_s = time.perf_counter() - t_phase
    if ctx.traced:
        res.io = store.tally.snapshot()
    res.attempted += (
        len(append_s) + len(delete_s) + len(retention_s) + len(upsert_s)
    )

    rows_appended = len(append_s) * scale.batch_rows
    res.detail["ingest.rows_per_s"] = ratio(rows_appended, res.timed_s)
    res.detail["ingest.append_p50_ms"] = 1e3 * median(append_s)
    res.detail["ingest.delete_p50_ms"] = 1e3 * median(delete_s)
    res.detail["ingest.write_amp"] = checkpoint["write_amp"]
    res.samples.update({
        "ingest.rows_per_s": cycles,
        "ingest.append_p50_ms": len(append_s),
        "ingest.delete_p50_ms": len(delete_s),
        "ingest.write_amp": CHECKPOINT_CYCLE,
    })
    # the operation is the append: its median hides the stalls deletes,
    # retention, upserts and maintenance put between appends; appends
    # per second of the whole phase shows them
    end_to_end(
        res, op_s=append_s,
        space_ratio=checkpoint["space_ratio"],
        write_amp=checkpoint["write_amp"],
    )

    # -- verification, outside the timed window ---------------------------
    final = table.current_snapshot()
    got = table.query(["count", "sum(clicks)"]).rows[0]
    res.verify(
        (got["count(*)"], got["sum(clicks)"])
        == (shadow.count(), shadow.sum_clicks()),
        f"ingest final count/sum(clicks) {got} != shadow "
        f"{shadow.count()}/{shadow.sum_clicks()}",
    )
    users = sorted(set(deleted_users))
    grouped = table.query(
        ["count"], where=col("user").isin(users), group_by=["user"]
    )
    got_users = {row["user"]: row["count(*)"] for row in grouped.rows}
    want_users = {u: n for u, n in shadow.count_by_user(users).items() if n}
    res.verify(
        got_users == want_users,
        "ingest: rows of deleted users differ from the shadow "
        f"({len(got_users)} users with rows, expected {len(want_users)})",
    )
    scrubbed = [f for f in final.files if f.deleted_count][:4]
    for f in scrubbed:
        storage = store.open_data(f.file_id)
        try:
            res.verify(
                BullionReader(storage).verify(),
                f"ingest: scrubbed file {f.file_id} fails verify()",
            )
        finally:
            storage.close()

    if ctx.traced:
        import probes

        res.layers.update(probes.ingest_layers(
            ctx, store, table, scale,
            warm_commit_s=warm_commit_s,
            commit_s=commit_s,
            append_s=append_s,
            upsert_s=upsert_s,
            retention_s=retention_s,
            maintain_s=maintain_s,
            commits=store.metadata_puts - puts_before,
            manifest_bytes=store.metadata_bytes - manifest_before,
            retention_bytes=retention_bytes,
            maintenance_bytes=maintenance_bytes,
            io=res.io,
        ))
    return res
