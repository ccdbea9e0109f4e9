"""Bullion: a column store for machine learning — full reproduction.

Reproduction of Liao, Liu, Chen & Abadi, *Bullion: A Column Store for
Machine Learning* (CIDR 2025). See DESIGN.md for the system inventory
and EXPERIMENTS.md for paper-vs-measured results.

Quickstart::

    import numpy as np
    from repro import BullionWriter, BullionReader, Table, SimulatedStorage

    storage = SimulatedStorage()
    table = Table({"clicks": np.arange(1000, dtype=np.int64)})
    BullionWriter(storage).write(table)
    reader = BullionReader(storage)
    clicks = reader.read_column("clicks")

Subpackages
-----------
``repro.core``          the Bullion file format (footer, pages, Merkle
                        checksums, deletion compliance)
``repro.catalog``       transactional table catalog: snapshots, atomic
                        commits, time travel, background maintenance
``repro.expr``          unified expression engine: predicate AST with
                        vectorized, interval (pruning) and JSON
                        evaluators, pushed down through catalog
                        manifests, footer zone maps and decode-time
                        filtering
``repro.query``         vectorized aggregation engine
                        (count/sum/min/max/mean, where, group-by)
                        with metadata-only fast paths: provable
                        extents answer from manifest/footer stats
                        with zero data I/O
``repro.encodings``     the Table 2 cascading encoding catalog
``repro.cascading``     sampling-based encoding selection (§2.6)
``repro.quantization``  storage quantization (§2.4, Fig 6)
``repro.multimodal``    dual-table multimodal layout (§2.5, Fig 7)
``repro.baseline``      Parquet-like comparator format (Fig 5)
``repro.workloads``     synthetic stand-ins for the production data
``repro.iosim``         pluggable storage backends (simulated, real
                        file, latency-modelled) with I/O stats
"""

from repro.core import (
    BullionReader,
    BullionWriter,
    Field,
    LogicalType,
    Scan,
    ScanStats,
    Schema,
    ShardedDataset,
    Table,
    WriterOptions,
    delete_rows,
    rewrite_without_rows,
    write_table,
)
from repro.expr import Expr, col, parse
from repro.iosim import FileStorage, LatencyModelledStorage, SimulatedStorage

__version__ = "1.2.0"

__all__ = [
    "BullionReader",
    "BullionWriter",
    "WriterOptions",
    "write_table",
    "delete_rows",
    "rewrite_without_rows",
    "Table",
    "Schema",
    "Field",
    "LogicalType",
    "Scan",
    "ScanStats",
    "Expr",
    "col",
    "parse",
    "ShardedDataset",
    "SimulatedStorage",
    "FileStorage",
    "LatencyModelledStorage",
    "__version__",
]
