"""§2.1 — deletion-compliance I/O costs.

Paper: "When deleting 2% of rows within a file, data rewrite I/O costs
can decrease by up to a factor of 50. Furthermore, storage costs are
nearly halved when full file rewrites are eliminated."

Reproduction: a 100k-row file sorted by user id; GDPR deletes remove a
*user's contiguous rows* (the production pattern — erasure requests
target users, and ad tables are bucketed/sorted by uid). We compare:

* level 2 in-place scrub (reads+writes only the affected pages +
  footer words), vs
* level 0 full rewrite (read everything, write everything back).

We also report the random-row worst case, where in-place updating
degrades gracefully toward the rewrite cost.
"""

import numpy as np
from reporting import report

from repro.core import (
    BullionReader,
    BullionWriter,
    Table,
    WriterOptions,
    delete_rows,
    rewrite_without_rows,
)
from repro.iosim import SimulatedStorage

N_ROWS = 100_000
ROWS_PER_PAGE = 1000
DELETE_FRACTION = 0.02


def _make_file():
    rng = np.random.default_rng(12)
    table = Table(
        {
            "uid": np.sort(rng.integers(0, N_ROWS // 20, N_ROWS)).astype(np.int64),
            "clicks": rng.integers(0, 10**6, N_ROWS).astype(np.int64),
            "score": rng.normal(size=N_ROWS),
            "tag": [b"t%d" % (i % 50) for i in range(N_ROWS)],
        }
    )
    dev = SimulatedStorage()
    BullionWriter(
        dev,
        options=WriterOptions(
            rows_per_page=ROWS_PER_PAGE, rows_per_group=10 * ROWS_PER_PAGE
        ),
    ).write(table)
    return dev, table


def _clustered_victims(n):
    """One user's contiguous block of rows (the GDPR request shape)."""
    start = 31_337
    return np.arange(start, start + n)


def test_bench_inplace_clustered_delete(benchmark):
    n_delete = int(N_ROWS * DELETE_FRACTION)

    def run():
        dev, _ = _make_file()
        return dev, delete_rows(dev, _clustered_victims(n_delete))

    dev, rep = benchmark.pedantic(run, rounds=3, iterations=1)
    assert BullionReader(dev).verify()

    # baseline: full rewrite of the same deletion
    dev2, _ = _make_file()
    target = SimulatedStorage()
    base = rewrite_without_rows(dev2, _clustered_victims(n_delete), target)

    write_factor = base.bytes_written / max(1, rep.bytes_written)
    io_factor = (base.bytes_read + base.bytes_written) / max(
        1, rep.bytes_read + rep.bytes_written
    )

    # random-row worst case for the honesty row
    dev3, _ = _make_file()
    rng = np.random.default_rng(1)
    rep_rand = delete_rows(
        dev3, rng.choice(N_ROWS, size=n_delete, replace=False)
    )

    lines = [
        f"file: {N_ROWS:,} rows x 4 cols ({dev.size:,} B), "
        f"delete {n_delete:,} rows (2%)",
        f"{'strategy':34s} {'read_B':>12} {'written_B':>12} pages",
        f"{'level 2 in-place (user-clustered)':34s} {rep.bytes_read:>12,} "
        f"{rep.bytes_written:>12,} {rep.pages_rewritten:5d}",
        f"{'level 0 full rewrite':34s} {base.bytes_read:>12,} "
        f"{base.bytes_written:>12,}     -",
        f"{'level 2 in-place (random rows)':34s} {rep_rand.bytes_read:>12,} "
        f"{rep_rand.bytes_written:>12,} {rep_rand.pages_rewritten:5d}",
        f"rewrite-I/O reduction (clustered): {write_factor:5.1f}x "
        f"(paper: 'up to a factor of 50')",
        f"total-I/O reduction (clustered):   {io_factor:5.1f}x",
    ]
    report(
        "deletion_compliance",
        lines,
        data={"write_factor": write_factor, "io_factor": io_factor},
    )
    assert write_factor > 10  # order-of-magnitude class win
    assert rep.pages_rewritten < 4 * (n_delete // ROWS_PER_PAGE + 2)


def test_bench_deletion_vector_only(benchmark):
    dev, _ = _make_file()
    rows = _clustered_victims(50)

    def run():
        return delete_rows(dev, rows, level=1)

    rep = benchmark.pedantic(run, rounds=3, iterations=1)
    assert rep.pages_rewritten == 0


def test_bench_read_after_delete(benchmark):
    dev, table = _make_file()
    delete_rows(dev, _clustered_victims(2000))

    def read():
        return BullionReader(dev).project(["clicks"])

    out = benchmark(read)
    assert out.num_rows == N_ROWS - 2000
