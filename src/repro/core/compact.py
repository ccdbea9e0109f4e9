"""Compaction: reclaim space from deletion-scrubbed files.

The §2.1 hybrid scheme deliberately leaves page allocations unchanged
(masked slots, padded payloads) so deletes never rewrite the file.
Space is reclaimed later, off the compliance-critical path, by a
background compaction — the same division of labour as Delta Lake's
OPTIMIZE after deletion vectors.

:func:`merge` concatenates files without their deleted rows (and
without the per-page padding and mask slots), which is how small
incremental ingests roll up into training-sized files; :func:`compact`
is the merge of one file. Both, and the level-0 deletion baseline
(:func:`repro.core.deletion.rewrite_without_rows`), run the one
:func:`rewrite` loop on any :class:`~repro.iosim.Storage` backend, so
every rewrite keeps the source's physical layout and catalog
maintenance runs unchanged against an actual filesystem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.reader import BullionReader
from repro.core.schema import Field, LogicalType, Schema
from repro.core.table import concat_tables
from repro.core.writer import BullionWriter, WriterOptions
from repro.iosim import Storage


def layout_schema(reader: BullionReader) -> Schema:
    """A schema that reproduces ``reader``'s physical layout exactly.

    Rewrites must not re-infer types from decoded payloads: a BF16/FP8
    column decodes to raw integer payloads, and inference would turn it
    into an int column with a different fingerprint. The footer's own
    logical schema is authoritative — except for files written under a
    quantization *policy*, where the logical section still records the
    pre-quantization float type; there the physical columns are the
    truth and the rewrite adopts them as its logical fields.
    """
    schema = reader.footer.schema()
    physical = reader.footer.physical_columns()
    derived = schema.physical_columns()
    if [(c.name, str(c.type)) for c in derived] == [
        (c.name, str(c.type)) for c in physical
    ]:
        return schema
    return Schema(
        [Field(c.name, LogicalType.parse(str(c.type))) for c in physical]
    )


@dataclass(frozen=True)
class CompactionReport:
    rows_in: int
    rows_out: int
    bytes_in: int
    bytes_out: int

    @property
    def bytes_reclaimed(self) -> int:
        return self.bytes_in - self.bytes_out


def merge(
    sources: list[Storage],
    target: Storage,
    options: WriterOptions | None = None,
) -> CompactionReport:
    """Concatenate files with identical physical columns into one."""
    if not sources:
        raise ValueError("nothing to merge")
    return rewrite(sources, target, options)


def compact(
    source: Storage,
    target: Storage,
    options: WriterOptions | None = None,
) -> CompactionReport:
    """Rewrite ``source`` into ``target`` dropping deleted rows."""
    return merge([source], target, options)


def check_row_ids(rows: np.ndarray, num_rows: int) -> None:
    if len(rows) and (rows[0] < 0 or rows[-1] >= num_rows):
        raise ValueError("row id out of range")


def rewrite(
    sources: list[Storage],
    target: Storage,
    options: WriterOptions | None = None,
    drop: np.ndarray | None = None,
) -> CompactionReport:
    """Write the live rows of ``sources``, in order, into ``target``
    under the first file's physical layout; ``drop`` (sorted unique row
    ids) leaves those rows of each source out as well — the level-0
    deletion baseline rewrites one file this way."""
    tables = []
    names: list[str] | None = None
    rows_in = 0
    for src in sources:
        reader = BullionReader(src)
        if names is None:
            names, schema = reader.column_names(), layout_schema(reader)
        elif reader.column_names() != names:
            raise ValueError("cannot merge files with different columns")
        table = reader.project(names, drop_deleted=True)
        if drop is not None:
            check_row_ids(drop, reader.num_rows)
            live_ids = np.flatnonzero(~reader.footer.deletion_bitmap())
            table = table.take_mask(~np.isin(live_ids, drop))
        tables.append(table)
        rows_in += reader.num_rows
    table = concat_tables(tables)
    BullionWriter(
        target, schema=schema, options=options or WriterOptions()
    ).write(table)
    return CompactionReport(
        rows_in=rows_in,
        rows_out=table.num_rows,
        bytes_in=sum(src.size for src in sources),
        bytes_out=target.size,
    )
