"""Transactional table catalog: snapshots, atomic commits, time travel.

The control plane over Bullion data files. A **table** is a log of
immutable **snapshots** held in a :class:`CatalogStore`; every
mutation — ``append``, ``add_shards``, ``delete(where)``,
``compact`` — is a :class:`Transaction` that writes new files through
the streaming writer and publishes the next snapshot with an atomic
put-if-absent commit, retrying optimistically when another committer
moved HEAD. Reads pin a snapshot (``pin()`` / ``scan(snapshot_id=…)``
/ ``as_of(ts)``), which fixes an immutable file set — the existing
``Scan``/chunk-cache/``TrainingDataLoader`` machinery is safe by
construction on top. :class:`MaintenanceService` rolls small ingests
into training-sized files, compacts deletion-scrubbed files, and
expires unreferenced snapshots without ever touching pinned files.

Quickstart::

    from repro.catalog import CatalogTable, MemoryCatalogStore

    table = CatalogTable.create(MemoryCatalogStore())
    table.append(some_table)
    with table.pin() as snap:            # immutable view
        loader = snap.loader(["clicks"]) # reproducible epochs
"""

from repro.catalog.maintenance import (
    MaintenanceJob,
    MaintenancePolicy,
    MaintenanceReport,
    MaintenanceService,
)
from repro.catalog.readers import LeaseCache, ReaderPool
from repro.catalog.schema_evolution import (
    AddColumn,
    CatalogMetadataError,
    DropColumn,
    FileResolution,
    RenameColumn,
    ResolvedReader,
    SchemaColumn,
    SchemaLog,
    SchemaLogError,
    TableSchema,
    WidenColumn,
)
from repro.catalog.snapshot import (
    ColumnStats,
    DataFile,
    Snapshot,
    parse_snapshot_name,
    snapshot_name,
)
from repro.catalog.store import (
    CatalogStore,
    CommitOutcomeUnknown,
    DirectoryCatalogStore,
    MemoryCatalogStore,
)
from repro.catalog.table import CatalogStats, CatalogTable, PinnedSnapshot
from repro.catalog.transaction import (
    CommitConflict,
    Transaction,
    data_file_entry,
)

__all__ = [
    "CatalogTable",
    "CatalogStats",
    "PinnedSnapshot",
    "LeaseCache",
    "ReaderPool",
    "Transaction",
    "CommitConflict",
    "CommitOutcomeUnknown",
    "data_file_entry",
    "Snapshot",
    "DataFile",
    "ColumnStats",
    "TableSchema",
    "SchemaColumn",
    "SchemaLog",
    "FileResolution",
    "ResolvedReader",
    "AddColumn",
    "DropColumn",
    "RenameColumn",
    "WidenColumn",
    "CatalogMetadataError",
    "SchemaLogError",
    "snapshot_name",
    "parse_snapshot_name",
    "CatalogStore",
    "MemoryCatalogStore",
    "DirectoryCatalogStore",
    "MaintenanceService",
    "MaintenancePolicy",
    "MaintenanceJob",
    "MaintenanceReport",
]
