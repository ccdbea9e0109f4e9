"""Quickstart: write a Bullion file, project columns, delete rows.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import (
    BullionReader,
    BullionWriter,
    SimulatedStorage,
    Table,
    WriterOptions,
    delete_rows,
)


def main() -> None:
    rng = np.random.default_rng(0)
    n = 10_000

    # 1. an ML-ish table: ids, a float feature, a tag, a sequence feature
    table = Table(
        {
            "user_id": np.sort(rng.integers(0, 2_000, n)).astype(np.int64),
            "ctr_score": rng.random(n),
            "device": [b"ios" if i % 3 else b"android" for i in range(n)],
            "clk_seq": [
                rng.integers(0, 1_000_000, 8).astype(np.int64)
                for _ in range(n)
            ],
        }
    )

    # 2. write it (compliance level 2: deletion vectors + in-place scrub)
    storage = SimulatedStorage("quickstart.bullion")
    writer = BullionWriter(
        storage,
        options=WriterOptions(rows_per_page=1024, rows_per_group=4096),
    )
    footer = writer.write(table)
    print(f"wrote {footer.num_rows:,} rows, {footer.num_columns} columns, "
          f"{footer.num_pages} pages -> {storage.size:,} bytes")

    # 3. read back a projection (the typical ML access pattern)
    reader = BullionReader(storage)
    batch = reader.project(["user_id", "ctr_score"])
    print(f"projected 2 columns: {batch.num_rows:,} rows, "
          f"mean ctr {np.mean(batch.column('ctr_score')):.4f}")

    # 3b. the same read as a lazy scan: batches stream out group by
    # group, the footer's min/max stats prune row groups the filter
    # cannot match, and surviving groups are filtered row by row
    scan = reader.scan(
        ["user_id", "ctr_score"],
        where="user_id >= 1000",
        batch_size=2048,
    )
    n_batches = sum(1 for _ in scan)
    print(f"scan(user_id >= 1000): {len(scan.row_groups)} row groups kept, "
          f"{n_batches} batches of <=2048 rows")

    # 4. verify integrity via the Merkle checksums
    print(f"checksums valid: {reader.verify()}")

    # 5. GDPR-style deletion of one user's rows, in place
    user = int(batch.column("user_id")[50])
    victims = np.flatnonzero(np.asarray(batch.column("user_id")) == user)
    report = delete_rows(storage, victims)
    print(
        f"deleted user {user}: {report.rows_deleted} rows, "
        f"{report.pages_rewritten} pages rewritten in place, "
        f"{report.bytes_written:,} bytes written "
        f"(file is {storage.size:,} bytes — no rewrite)"
    )

    after = BullionReader(storage)
    print(f"rows visible now: {after.project(['user_id']).num_rows:,}")
    print(f"checksums still valid: {after.verify()}")

    # 6. inspect the file layout (the parquet-tools equivalent)
    from repro.tools import describe

    print("\n" + describe(storage))

    # 7. background compaction reclaims the scrubbed rows' space
    from repro.core import compact

    compacted = SimulatedStorage("compacted.bullion")
    report = compact(storage, compacted)
    print(
        f"\ncompaction: {report.rows_in:,} -> {report.rows_out:,} rows, "
        f"reclaimed {report.bytes_reclaimed:,} bytes"
    )


if __name__ == "__main__":
    main()
