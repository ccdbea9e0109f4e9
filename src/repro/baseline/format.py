"""Parquet-like file writer/reader over the simulated storage.

Layout mirrors Parquet: ``magic | column chunks ... | thrift footer |
u32 footer_len | magic``. The reader's ``open`` cost is a full
:func:`repro.baseline.metadata.parse_metadata` — the linear-in-columns
behaviour Fig 5 plots. Pages reuse the shared encoding catalog so the
data path is identical to Bullion's; only the metadata design differs,
isolating the variable the experiment measures.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.baseline.metadata import (
    ColumnMetaData,
    FileMetaData,
    RowGroup,
    SchemaElement,
    Statistics,
    parse_metadata,
    serialize_metadata,
)
from repro.core.page import PAGE_HEADER_SIZE, PageHeader, frame_page
from repro.core.table import Table, physical_schema_for_table
from repro.core.writer import _to_encodable, default_encoding
from repro.encodings import decode_blob, encode_blob
from repro.encodings.base import join_values
from repro.iosim import SimulatedStorage

PARQUET_MAGIC = b"PAR1"


class ParquetLikeWriter:
    """Write a table in the Parquet-shaped layout."""

    def __init__(
        self,
        storage: SimulatedStorage,
        rows_per_group: int = 65536,
        with_statistics: bool = True,
    ) -> None:
        self._storage = storage
        self._rows_per_group = rows_per_group
        self._with_statistics = with_statistics

    def write(self, table: Table) -> FileMetaData:
        storage = self._storage
        storage.append(PARQUET_MAGIC)
        columns = physical_schema_for_table(table)
        num_rows = table.num_rows
        n_groups = max(
            1, (num_rows + self._rows_per_group - 1) // self._rows_per_group
        )
        meta = FileMetaData(num_rows=num_rows)
        meta.schema.append(
            SchemaElement(name="root", num_children=len(columns))
        )
        for col in columns:
            meta.schema.append(
                SchemaElement(
                    name=col.name,
                    type_code=int(col.type.primitive),
                    repetition=col.type.list_depth,
                )
            )
        for g in range(n_groups):
            start = g * self._rows_per_group
            end = min(start + self._rows_per_group, num_rows)
            rg = RowGroup(num_rows=end - start)
            for col in columns:
                values = _to_encodable(
                    table.columns[col.name][start:end], col
                )
                encoding = default_encoding(col)
                payload = encode_blob(values, encoding)
                offset = storage.append(frame_page(payload, end - start))
                stats = None
                if self._with_statistics and isinstance(values, np.ndarray):
                    if len(values) and values.dtype != np.bool_:
                        stats = Statistics(
                            min_value=struct.pack("<d", float(values.min())),
                            max_value=struct.pack("<d", float(values.max())),
                        )
                rg.columns.append(
                    ColumnMetaData(
                        path_in_schema=col.name,
                        type_code=int(col.type.primitive),
                        encodings=[payload[0]],
                        num_values=end - start,
                        total_uncompressed_size=len(payload),
                        total_compressed_size=len(payload),
                        data_page_offset=offset,
                        statistics=stats,
                    )
                )
                rg.total_byte_size += len(payload) + PAGE_HEADER_SIZE
            meta.row_groups.append(rg)
        footer = serialize_metadata(meta)
        storage.append(footer)
        storage.append(struct.pack("<I", len(footer)) + PARQUET_MAGIC)
        return meta


class ParquetLikeReader:
    """Open = parse the whole footer; then project like any reader."""

    def __init__(self, storage: SimulatedStorage) -> None:
        self._storage = storage
        tail = storage.pread(storage.size - 8, 8)
        (footer_len,) = struct.unpack_from("<I", tail, 0)
        if tail[4:] != PARQUET_MAGIC:
            raise ValueError(f"bad parquet-like magic {tail[4:]!r}")
        raw = storage.pread(storage.size - 8 - footer_len, footer_len)
        # the cost Fig 5 measures: full deserialization of every column's
        # metadata, regardless of how few columns the query needs
        self.metadata = parse_metadata(raw)
        self._column_index = {
            col.path_in_schema: i
            for i, col in enumerate(
                self.metadata.row_groups[0].columns
                if self.metadata.row_groups
                else []
            )
        }

    @property
    def num_rows(self) -> int:
        return self.metadata.num_rows

    def column_names(self) -> list[str]:
        return [el.name for el in self.metadata.schema[1:]]

    def project(self, columns: list[str]) -> Table:
        out: dict[str, object] = {}
        for name in columns:
            idx = self._column_index[name]
            parts = []
            for rg in self.metadata.row_groups:
                col = rg.columns[idx]
                header_raw = self._storage.pread(
                    col.data_page_offset, PAGE_HEADER_SIZE
                )
                header = PageHeader.unpack(header_raw)
                payload = self._storage.pread(
                    col.data_page_offset + PAGE_HEADER_SIZE,
                    header.payload_len,
                )
                parts.append(decode_blob(payload))
            out[name] = join_values(parts)
        return Table(out)
