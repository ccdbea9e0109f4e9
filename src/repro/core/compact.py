"""Compaction: reclaim space from deletion-scrubbed files.

The §2.1 hybrid scheme deliberately leaves page allocations unchanged
(masked slots, padded payloads) so deletes never rewrite the file.
Space is reclaimed later, off the compliance-critical path, by a
background compaction — the same division of labour as Delta Lake's
OPTIMIZE after deletion vectors.

:func:`compact` rewrites a file without its deleted rows (and without
the per-page padding and mask slots), returning how many bytes were
reclaimed. :func:`merge` concatenates several files into one, which is
how small incremental ingests roll up into training-sized files.

Both accept any :class:`~repro.iosim.Storage` backend — simulated,
real file, or latency-modelled — so catalog maintenance jobs run
unchanged against an actual filesystem.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def compact(
    source: Storage,
    target: Storage,
    options: WriterOptions | None = None,
) -> CompactionReport:
    """Rewrite ``source`` into ``target`` dropping deleted rows."""
    reader = BullionReader(source)
    names = reader.column_names()
    table = reader.project(names, drop_deleted=True)
    BullionWriter(
        target, schema=layout_schema(reader), options=options or WriterOptions()
    ).write(table)
    return CompactionReport(
        rows_in=reader.num_rows,
        rows_out=table.num_rows,
        bytes_in=source.size,
        bytes_out=target.size,
    )


def merge(
    sources: list[Storage],
    target: Storage,
    options: WriterOptions | None = None,
) -> CompactionReport:
    """Concatenate files with identical physical columns into one."""
    if not sources:
        raise ValueError("nothing to merge")
    tables = []
    names: list[str] | None = None
    schema: Schema | None = None
    rows_in = 0
    bytes_in = 0
    for src in sources:
        reader = BullionReader(src)
        if names is None:
            names = reader.column_names()
            schema = layout_schema(reader)
        elif reader.column_names() != names:
            raise ValueError("cannot merge files with different columns")
        tables.append(reader.project(names, drop_deleted=True))
        rows_in += reader.num_rows
        bytes_in += src.size
    table = concat_tables(tables)
    BullionWriter(
        target, schema=schema, options=options or WriterOptions()
    ).write(table)
    return CompactionReport(
        rows_in=rows_in,
        rows_out=table.num_rows,
        bytes_in=bytes_in,
        bytes_out=target.size,
    )
