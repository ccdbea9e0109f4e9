"""Bullion core: the columnar file format itself.

Schema/type system, page framing, the flat binary footer, writer,
reader, Merkle checksums and deletion compliance — the paper's primary
contribution (§2.1, §2.3) plus its substrate.
"""

from repro.core.checksum import MerkleTree, full_file_checksum
from repro.core.chunk_cache import (
    TieredChunkCache,
    TierStats,
    add_mutation_listener,
    notify_mutation,
    remove_mutation_listener,
    storage_identity,
)
from repro.core.compact import CompactionReport, compact, merge
from repro.core.dataset import LoaderOptions, ShardedDataset, TrainingDataLoader
from repro.core.deletion import (
    DeletionReport,
    MaskError,
    delete_rows,
    mask_page_payload,
    rewrite_without_rows,
)
from repro.core.footer import FooterBuilder, FooterView
from repro.core.reader import (
    BullionFormatError,
    BullionReader,
    Scan,
    ScanStats,
)
from repro.core.schema import (
    BINARY,
    BOOL,
    FLOAT32,
    FLOAT64,
    INT32,
    INT64,
    STRING,
    Field,
    LogicalType,
    PhysicalColumn,
    PhysicalType,
    Primitive,
    Schema,
)
from repro.core.table import Table
from repro.core.writer import (
    LEVEL_DELETION_VECTOR,
    LEVEL_IN_PLACE,
    LEVEL_PLAIN,
    BullionWriter,
    WriterOptions,
    WriterStats,
    write_table,
)

__all__ = [
    "MerkleTree",
    "full_file_checksum",
    "TieredChunkCache",
    "TierStats",
    "notify_mutation",
    "add_mutation_listener",
    "remove_mutation_listener",
    "storage_identity",
    "CompactionReport",
    "compact",
    "merge",
    "TrainingDataLoader",
    "LoaderOptions",
    "ShardedDataset",
    "DeletionReport",
    "MaskError",
    "delete_rows",
    "mask_page_payload",
    "rewrite_without_rows",
    "FooterBuilder",
    "FooterView",
    "BullionFormatError",
    "BullionReader",
    "Scan",
    "ScanStats",
    "Field",
    "LogicalType",
    "PhysicalColumn",
    "PhysicalType",
    "Primitive",
    "Schema",
    "Table",
    "BullionWriter",
    "WriterOptions",
    "WriterStats",
    "write_table",
    "LEVEL_PLAIN",
    "LEVEL_DELETION_VECTOR",
    "LEVEL_IN_PLACE",
    "INT32",
    "INT64",
    "FLOAT32",
    "FLOAT64",
    "STRING",
    "BINARY",
    "BOOL",
]
