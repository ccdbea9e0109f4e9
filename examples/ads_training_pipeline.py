"""Ads ranking pipeline: wide tables, sparse features, 10% projection.

Recreates the paper's motivating workload (§1, §2.2, §2.3): a table
whose type census matches Table 1, sliding-window ``clk_seq_cids``
sparse features, and a training job that projects ~10% of the columns
into mini-batches.

Run:  python examples/ads_training_pipeline.py
"""

import numpy as np

from repro import BullionReader, BullionWriter, SimulatedStorage, WriterOptions
from repro.encodings import SparseListDelta
from repro.workloads import (
    AdsDataConfig,
    build_ads_schema,
    census_of,
    generate_ads_table,
)


def main() -> None:
    # full production schema is 17,733 columns; a 1% sample keeps the
    # demo fast while preserving the exact type mix of Table 1
    schema = build_ads_schema(scale=0.01)
    print(f"schema: {len(schema.fields)} logical columns "
          f"({len(schema.physical_columns())} physical after flattening)")
    top = sorted(census_of(schema).items(), key=lambda kv: -kv[1])[:3]
    print("top types:", ", ".join(f"{t} x{c}" for t, c in top))

    table = generate_ads_table(schema, AdsDataConfig(rows=512, seq_length=64))

    # sparse list<int64> features use the Fig 4 sliding-window delta
    sparse_cols = {
        col.name: SparseListDelta()
        for col in schema.physical_columns()
        if col.type.list_depth == 1 and col.type.primitive.name == "INT64"
    }
    storage = SimulatedStorage("ads.bullion")
    BullionWriter(
        storage,
        schema=schema,
        options=WriterOptions(
            rows_per_page=256, rows_per_group=512, encodings=sparse_cols
        ),
    ).write(table)
    print(f"file: {storage.size:,} bytes "
          f"({len(sparse_cols)} sparse columns via SparseListDelta)")

    # a training job reads <10% of features (paper: [83])
    reader = BullionReader(storage)
    all_names = reader.column_names()
    projection = all_names[:: 10][: len(all_names) // 10]
    storage.stats.reset()
    batch = reader.project(projection)
    print(
        f"training projection: {len(projection)}/{len(all_names)} columns, "
        f"{batch.num_rows} rows, {storage.stats.bytes_read:,} bytes read "
        f"({100 * storage.stats.bytes_read / storage.size:.1f}% of the file)"
    )

    # mini-batch iteration feeding a (mock) trainer: the scan path
    # streams fixed-size batches (fetching ahead on threads only from a
    # device that waits per request)
    n_batches = 0
    for mini in reader.scan(projection, batch_size=128):
        _features = [np.asarray(v, dtype=object) for v in mini.columns.values()]
        n_batches += 1
    print(f"iterated {n_batches} mini-batches via reader.scan()")


if __name__ == "__main__":
    main()
