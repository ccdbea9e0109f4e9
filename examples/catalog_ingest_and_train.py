"""Catalog quickstart: concurrent ingest + training at a pinned snapshot.

An ingest thread keeps committing small files to a transactional
table while a trainer pins one snapshot and runs reproducible epochs
over it. A maintenance pass then rolls the small ingest files into
one training-sized file and expires old snapshots — without touching
anything the pinned trainer holds. A last compliance delete writes
only a manifest; the next maintenance pass erases its rows' bytes.

Run:  python examples/catalog_ingest_and_train.py
"""

import threading

import numpy as np

from repro import Table, WriterOptions
from repro.catalog import (
    CatalogTable,
    MaintenancePolicy,
    MaintenanceService,
    MemoryCatalogStore,
)
from repro.core import LoaderOptions
from repro.expr import col

ROWS_PER_COMMIT = 1_000
N_COMMITS = 8
OPTS = WriterOptions(rows_per_page=256, rows_per_group=1024)


def _batch(start: int, n: int) -> Table:
    rng = np.random.default_rng(start)
    return Table(
        {
            "event_id": np.arange(start, start + n, dtype=np.int64),
            "ctr_score": rng.random(n).astype(np.float32),
        }
    )


def main() -> None:
    # 1. create a table and seed it with the first day of events
    table = CatalogTable.create(MemoryCatalogStore())
    table.append(_batch(0, ROWS_PER_COMMIT * 2), options=OPTS)
    print(
        f"seeded snapshot {table.current_snapshot().snapshot_id}: "
        f"{table.current_snapshot().live_rows:,} rows"
    )

    # 2. ingest keeps committing in the background (optimistic
    # concurrency: racing commits replay on the moved HEAD)
    def ingest() -> None:
        for i in range(N_COMMITS):
            start = (2 + i) * ROWS_PER_COMMIT
            table.append(_batch(start, ROWS_PER_COMMIT), options=OPTS)

    ingester = threading.Thread(target=ingest, name="ingest")

    # 3. the trainer pins HEAD: every epoch sees exactly these rows,
    # no matter what ingest commits meanwhile
    with table.pin() as pinned:
        ingester.start()
        loader = pinned.loader(
            ["event_id", "ctr_score"],
            LoaderOptions(batch_size=512, shuffle_row_groups=True, seed=1),
        )
        for epoch in range(2):
            ids = np.concatenate(
                [np.asarray(b.column("event_id")) for b in loader]
            )
            print(
                f"epoch {epoch}: {len(ids):,} of {loader.num_rows:,} rows "
                f"in {loader.num_shards} file(s) at pinned snapshot "
                f"{pinned.snapshot.snapshot_id} "
                f"(checksum {int(ids.sum()):,})"
            )
        ingester.join()

    head = table.current_snapshot()
    print(
        f"ingest finished: HEAD is snapshot {head.snapshot_id} with "
        f"{len(head.files)} files, {head.live_rows:,} rows "
        f"({table.stats.commits} commits, {table.stats.conflicts} replays)"
    )

    # 4. GDPR-style delete runs as a transaction: the file takes the
    # rows into its manifest entry's deletion vector; old snapshots
    # unaffected
    snap = table.delete(col("event_id") <= 499)
    print(
        f"deleted {snap.summary['rows_deleted']} rows -> snapshot "
        f"{snap.snapshot_id}; time travel to snapshot 1 still sees "
        f"{table.read(['event_id'], snapshot_id=1).num_rows:,} rows"
    )

    # 5. maintenance: roll small ingest files together, compact away
    # the deleted rows, expire unreferenced snapshots and files
    service = MaintenanceService(
        table,
        MaintenancePolicy(
            rollup_small_file_rows=2_000,
            rollup_target_rows=10_000,
            compact_deleted_fraction=0.1,
            keep_snapshots=3,
            writer_options=OPTS,
        ),
    )
    for job in service.plan():
        print(f"planned: {job.kind:8s} {job.reason}")
    report = service.run_once()
    head = table.current_snapshot()
    print(
        f"maintenance: merged {report.files_merged} files, "
        f"compacted {report.files_compacted}, reclaimed "
        f"{report.bytes_reclaimed:,} bytes, expired "
        f"{report.snapshots_expired} snapshots -> HEAD has "
        f"{len(head.files)} files, {head.live_rows:,} rows"
    )

    # 6. one user's rows: a manifest-only commit, then the next cycle
    # gives the file one copy with the §2.1 page scrub of its vector
    snap = table.delete(col("event_id").isin([2_500, 7_777]))
    vectors = sum(bool(f.deletion_vector) for f in snap.files)
    report = service.run_once()
    print(
        f"deleted {snap.summary['rows_deleted']} rows into {vectors} "
        f"deletion vector(s); maintenance erased {report.files_erased} "
        f"file(s) -> HEAD has {table.current_snapshot().live_rows:,} rows"
    )


if __name__ == "__main__":
    main()
