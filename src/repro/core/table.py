"""In-memory table model: the unit handed to the writer and returned
by the reader.

A :class:`Table` is an ordered mapping of *physical* column name to
values. Values follow the encoding kinds of :mod:`repro.encodings`:
numpy arrays for primitives, ``list[bytes]`` for string/binary, one
:class:`~repro.encodings.RaggedColumn` (a values buffer plus row starts
and lengths) for ``list<int>`` / ``list<float>``, nested Python lists
for ``list<bytes>`` / ``list<list<int>>``. The writer also takes a plain
``list`` of row arrays for a numeric list column and normalises it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.schema import (
    QUANTIZED_FORMATS,
    STORAGE_DTYPES,
    PhysicalColumn,
    PhysicalType,
    Primitive,
    Schema,
)
from repro.encodings.base import RaggedColumn, join_values
from repro.quantization import dequantize, quantize


def column_length(values) -> int:
    return len(values)


@dataclass
class Table:
    """Columnar batch: physical column name -> values."""

    columns: dict[str, object]

    def __post_init__(self) -> None:
        lengths = {name: column_length(v) for name, v in self.columns.items()}
        if len(set(lengths.values())) > 1:
            raise ValueError(f"ragged table: column lengths {lengths}")

    @property
    def num_rows(self) -> int:
        if not self.columns:
            return 0
        return column_length(next(iter(self.columns.values())))

    @property
    def num_columns(self) -> int:
        return len(self.columns)

    def column(self, name: str):
        return self.columns[name]

    def select(self, names: list[str]) -> "Table":
        return Table({name: self.columns[name] for name in names})

    def slice(self, start: int, stop: int) -> "Table":
        return Table(
            {name: v[start:stop] for name, v in self.columns.items()}
        )

    def take_mask(self, keep: np.ndarray) -> "Table":
        """Rows where ``keep`` is True (used to drop deleted rows)."""
        out = {}
        for name, values in self.columns.items():
            if isinstance(values, (np.ndarray, RaggedColumn)):
                out[name] = values[keep]
            else:
                out[name] = [v for v, k in zip(values, keep) if k]
        return Table(out)

    def equals(self, other: "Table") -> bool:
        return set(self.columns) == set(other.columns) and all(
            _values_equal(mine, other.columns[name])
            for name, mine in self.columns.items()
        )


def _values_equal(a, b) -> bool:
    """Columns, rows of a nested list column, or single values."""
    if isinstance(b, RaggedColumn):
        a, b = b, a
    if isinstance(a, RaggedColumn):
        return a.equals(b)
    if isinstance(a, np.ndarray):
        return np.array_equal(a, np.asarray(b))
    if isinstance(a, list):
        return (
            isinstance(b, (list, tuple, np.ndarray))
            and len(a) == len(b)
            and all(map(_values_equal, a, b))
        )
    return bool(a == b)


_BYTES_PRIMS = (Primitive.STRING, Primitive.BINARY)


def fill_column(ptype: PhysicalType, n: int = 0, widen: bool = False):
    """``n`` typed nulls in the container and dtype of ``ptype``: the
    column a field absent from a file reads as, and at ``n == 0`` the
    empty column of the type (an empty float or string column
    round-trips as such).

    Floats (quantized included, as payload bits) fill with NaN — the
    engine's null: NaN rows are skipped by every aggregate and excluded
    from float statistics. Ints fill with 0, bools with False, bytes
    with ``b""``, lists with empty lists; those kinds carry no null
    sentinel, so the fill *is* the column's value. ``widen`` returns a
    quantized column dequantized, as :func:`widen_quantized` does.
    """
    prim = ptype.primitive
    if ptype.list_depth > 0:
        if prim in _BYTES_PRIMS:
            return [[] for _ in range(n)]
        inner = np.zeros(0, dtype=STORAGE_DTYPES[prim])
        if ptype.list_depth == 1:
            empty = np.zeros(n, dtype=np.int64)
            return RaggedColumn(inner, empty, empty)
        return [inner for _ in range(n)]
    if prim in _BYTES_PRIMS:
        return [b""] * n
    fmt = QUANTIZED_FORMATS.get(prim)
    if fmt is not None:
        values = quantize(np.full(n, np.nan, dtype=np.float32), fmt)
        return widen_quantized(values, ptype) if widen else values
    dtype = np.dtype(STORAGE_DTYPES[prim])
    if dtype.kind == "f":
        return np.full(n, np.nan, dtype=dtype)
    return np.zeros(n, dtype=dtype)


def widen_quantized(values, ptype: PhysicalType):
    """Dequantize FP16/BF16/FP8 storage to float32 (§2.4 read path);
    any other column passes through."""
    fmt = QUANTIZED_FORMATS.get(ptype.primitive)
    if fmt is None or ptype.list_depth:
        return values
    return dequantize(np.asarray(values), fmt)


def widen_values(values, stored: PhysicalType, target: PhysicalType):
    """Decoded storage values of type ``stored`` as type ``target``, a
    legal widening of it (see the schema log's ``can_widen``).

    FP16/BF16/FP8 sources dequantize to float32 first, then cast to the
    target's storage dtype; a quantized target re-quantizes. Every
    legal widening is value-preserving, so this is exact.
    """
    if stored is target or stored == target:
        return values
    if stored.list_depth > 0:
        dtype = STORAGE_DTYPES[target.primitive]
        if isinstance(values, RaggedColumn):
            return values.astype(dtype)
        return [np.asarray(v).astype(dtype) for v in values]
    arr = np.asarray(widen_quantized(values, stored))
    fmt = QUANTIZED_FORMATS.get(target.primitive)
    if fmt is not None:
        return quantize(arr.astype(np.float32, copy=False), fmt)
    return arr.astype(STORAGE_DTYPES[target.primitive], copy=False)


def concat_tables(tables: list["Table"]) -> "Table":
    """Row-wise concatenation of same-schema tables."""
    if not tables:
        return Table({})
    out: dict[str, object] = {}
    for name in tables[0].columns:
        out[name] = join_values([t.columns[name] for t in tables])
    return Table(out)


def rebatch(chunks, batch_size: int, drop_last: bool = False):
    """Re-slice a stream of tables into exact ``batch_size`` batches.

    The carry flows across whatever boundaries the input stream has
    (row groups, files, shards); only the final batch may be short,
    and ``drop_last`` discards it.
    """
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    carry: Table | None = None
    for chunk in chunks:
        if carry is not None:
            chunk = concat_tables([carry, chunk])
            carry = None
        pos = 0
        while pos + batch_size <= chunk.num_rows:
            yield chunk.slice(pos, pos + batch_size)
            pos += batch_size
        if pos < chunk.num_rows:
            carry = chunk.slice(pos, chunk.num_rows)
    if carry is not None and carry.num_rows and not drop_last:
        yield carry


def infer_physical_type(values) -> PhysicalType:
    """Best-effort physical type for schema-less writes."""
    if isinstance(values, np.ndarray):
        dtype = values.dtype
        if dtype == np.bool_:
            return PhysicalType(Primitive.BOOL, 0)
        if dtype == np.int32:
            return PhysicalType(Primitive.INT32, 0)
        if np.issubdtype(dtype, np.integer):
            return PhysicalType(Primitive.INT64, 0)
        if dtype == np.float32:
            return PhysicalType(Primitive.FLOAT32, 0)
        if dtype == np.float16:
            return PhysicalType(Primitive.FLOAT16, 0)
        if np.issubdtype(dtype, np.floating):
            return PhysicalType(Primitive.FLOAT64, 0)
        raise ValueError(f"cannot infer physical type for dtype {dtype}")
    if isinstance(values, RaggedColumn):
        return PhysicalType(infer_physical_type(values.values).primitive, 1)
    if isinstance(values, list):
        probe = next((v for v in values if v is not None and len(v)), None)
        if probe is None or isinstance(probe, (bytes, bytearray)):
            return PhysicalType(Primitive.BINARY, 0)
        if isinstance(probe, np.ndarray):
            if np.issubdtype(probe.dtype, np.floating):
                prim = (
                    Primitive.FLOAT32
                    if probe.dtype == np.float32
                    else Primitive.FLOAT64
                )
                return PhysicalType(prim, 1)
            return PhysicalType(Primitive.INT64, 1)
        if isinstance(probe, list):
            inner = next((x for x in probe if x is not None), None)
            if isinstance(inner, (bytes, bytearray)):
                return PhysicalType(Primitive.BINARY, 1)
            if isinstance(inner, (list, np.ndarray)):
                return PhysicalType(Primitive.INT64, 2)
            if isinstance(inner, float):
                return PhysicalType(Primitive.FLOAT64, 1)
            return PhysicalType(Primitive.INT64, 1)
    raise ValueError(f"cannot infer physical type for {type(values)!r}")


def physical_schema_for_table(table: Table) -> list[PhysicalColumn]:
    """Physical column list inferred from a schema-less table."""
    return [
        PhysicalColumn(name, infer_physical_type(values), name)
        for name, values in table.columns.items()
    ]


def validate_against_schema(table: Table, schema: Schema) -> list[PhysicalColumn]:
    """Check the table provides exactly the schema's physical columns."""
    cols = schema.physical_columns()
    missing = [c.name for c in cols if c.name not in table.columns]
    extra = [n for n in table.columns if n not in {c.name for c in cols}]
    if missing or extra:
        raise ValueError(
            f"table/schema mismatch: missing={missing[:5]} extra={extra[:5]}"
        )
    return cols
