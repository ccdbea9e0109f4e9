"""Parquet-shaped file metadata, serialized thrift-compact-style.

Mirrors the real ``parquet.thrift`` structures that matter for the
Fig 5 experiment:

* ``FileMetaData { version, schema: list<SchemaElement>, num_rows,
  row_groups: list<RowGroup>, created_by }``
* ``SchemaElement { type, repetition, name, num_children,
  converted_type }``
* ``RowGroup { columns: list<ColumnChunk>, total_byte_size, num_rows }``
* ``ColumnChunk.meta_data = ColumnMetaData { type, encodings,
  path_in_schema, codec, num_values, total_uncompressed_size,
  total_compressed_size, data_page_offset, statistics }``

The reader deserializes the entire tree on open — exactly what
parquet-mr/arrow do and exactly the linear-in-columns cost Zeng et al.
measured and the paper reports (52 ms at 10k columns).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.baseline.thriftlike import (
    CompactReader,
    CompactWriter,
    T_I64,
    T_STRUCT,
)


@dataclass
class SchemaElement:
    name: str
    type_code: int = 0
    repetition: int = 0
    num_children: int = 0
    converted_type: int = 0


@dataclass
class Statistics:
    min_value: bytes = b""
    max_value: bytes = b""
    null_count: int = 0


@dataclass
class ColumnMetaData:
    path_in_schema: str
    type_code: int = 0
    encodings: list[int] = field(default_factory=list)
    codec: int = 0
    num_values: int = 0
    total_uncompressed_size: int = 0
    total_compressed_size: int = 0
    data_page_offset: int = 0
    statistics: Statistics | None = None


@dataclass
class RowGroup:
    columns: list[ColumnMetaData] = field(default_factory=list)
    total_byte_size: int = 0
    num_rows: int = 0


@dataclass
class FileMetaData:
    version: int = 1
    schema: list[SchemaElement] = field(default_factory=list)
    num_rows: int = 0
    row_groups: list[RowGroup] = field(default_factory=list)
    created_by: str = "repro-parquet-like"


def serialize_metadata(meta: FileMetaData) -> bytes:
    w = CompactWriter()
    w.struct_begin()
    w.field_i32(1, meta.version)
    w.list_begin(2, T_STRUCT, len(meta.schema))
    for el in meta.schema:
        w.struct_begin()
        w.field_i32(1, el.type_code)
        w.field_i32(2, el.repetition)
        w.field_string(3, el.name)
        w.field_i32(4, el.num_children)
        w.field_i32(5, el.converted_type)
        w.struct_end()
    w.field_i64(3, meta.num_rows)
    w.list_begin(4, T_STRUCT, len(meta.row_groups))
    for rg in meta.row_groups:
        w.struct_begin()
        w.list_begin(1, T_STRUCT, len(rg.columns))
        for col in rg.columns:
            w.struct_begin()
            w.field_i32(1, col.type_code)
            w.list_begin(2, T_I64, len(col.encodings))
            for e in col.encodings:
                w.list_elem_i64(e)
            w.field_string(3, col.path_in_schema)
            w.field_i32(4, col.codec)
            w.field_i64(5, col.num_values)
            w.field_i64(6, col.total_uncompressed_size)
            w.field_i64(7, col.total_compressed_size)
            w.field_i64(8, col.data_page_offset)
            if col.statistics is not None:
                w.field_struct(9)
                w.field_binary(1, col.statistics.min_value)
                w.field_binary(2, col.statistics.max_value)
                w.field_i64(3, col.statistics.null_count)
                w.struct_end()
            w.struct_end()
        w.field_i64(2, rg.total_byte_size)
        w.field_i64(3, rg.num_rows)
        w.struct_end()
    w.field_string(5, meta.created_by)
    w.struct_end()
    return w.getvalue()


def parse_metadata(data: bytes) -> FileMetaData:
    """Full deserialization — walks and materializes every struct."""
    r = CompactReader(data)
    meta = FileMetaData(schema=[], row_groups=[])
    r.struct_begin()
    while True:
        header = r.read_field_header()
        if header is None:
            break
        field_id, type_code = header
        if field_id == 1:
            meta.version = r.read_i32()
        elif field_id == 2:
            size, _ = r.read_list_header()
            for _ in range(size):
                meta.schema.append(_parse_schema_element(r))
        elif field_id == 3:
            meta.num_rows = r.read_i64()
        elif field_id == 4:
            size, _ = r.read_list_header()
            for _ in range(size):
                meta.row_groups.append(_parse_row_group(r))
        elif field_id == 5:
            meta.created_by = r.read_string()
        else:
            r.skip(type_code)
    r.struct_end()
    return meta


def _parse_schema_element(r: CompactReader) -> SchemaElement:
    el = SchemaElement(name="")
    r.struct_begin()
    while True:
        header = r.read_field_header()
        if header is None:
            break
        field_id, type_code = header
        if field_id == 1:
            el.type_code = r.read_i32()
        elif field_id == 2:
            el.repetition = r.read_i32()
        elif field_id == 3:
            el.name = r.read_string()
        elif field_id == 4:
            el.num_children = r.read_i32()
        elif field_id == 5:
            el.converted_type = r.read_i32()
        else:
            r.skip(type_code)
    r.struct_end()
    return el


def _parse_row_group(r: CompactReader) -> RowGroup:
    rg = RowGroup()
    r.struct_begin()
    while True:
        header = r.read_field_header()
        if header is None:
            break
        field_id, type_code = header
        if field_id == 1:
            size, _ = r.read_list_header()
            for _ in range(size):
                rg.columns.append(_parse_column(r))
        elif field_id == 2:
            rg.total_byte_size = r.read_i64()
        elif field_id == 3:
            rg.num_rows = r.read_i64()
        else:
            r.skip(type_code)
    r.struct_end()
    return rg


def _parse_column(r: CompactReader) -> ColumnMetaData:
    col = ColumnMetaData(path_in_schema="")
    r.struct_begin()
    while True:
        header = r.read_field_header()
        if header is None:
            break
        field_id, type_code = header
        if field_id == 1:
            col.type_code = r.read_i32()
        elif field_id == 2:
            size, _ = r.read_list_header()
            col.encodings = [r.read_i64() for _ in range(size)]
        elif field_id == 3:
            col.path_in_schema = r.read_string()
        elif field_id == 4:
            col.codec = r.read_i32()
        elif field_id == 5:
            col.num_values = r.read_i64()
        elif field_id == 6:
            col.total_uncompressed_size = r.read_i64()
        elif field_id == 7:
            col.total_compressed_size = r.read_i64()
        elif field_id == 8:
            col.data_page_offset = r.read_i64()
        elif field_id == 9:
            col.statistics = _parse_statistics(r)
        else:
            r.skip(type_code)
    r.struct_end()
    return col


def _parse_statistics(r: CompactReader) -> Statistics:
    st = Statistics()
    r.struct_begin()
    while True:
        header = r.read_field_header()
        if header is None:
            break
        field_id, type_code = header
        if field_id == 1:
            st.min_value = r.read_binary()
        elif field_id == 2:
            st.max_value = r.read_binary()
        elif field_id == 3:
            st.null_count = r.read_i64()
        else:
            r.skip(type_code)
    r.struct_end()
    return st
