"""In-memory table model: the unit handed to the writer and returned
by the reader.

A :class:`Table` is an ordered mapping of *physical* column name to
values. Values follow the encoding kinds of :mod:`repro.encodings`:
numpy arrays for primitives, ``list[bytes]`` for string/binary,
``list[np.ndarray]`` for ``list<T>`` and so on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.schema import PhysicalColumn, PhysicalType, Primitive, Schema


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
            if isinstance(values, np.ndarray):
                out[name] = values[keep]
            else:
                out[name] = [v for v, k in zip(values, keep) if k]
        return Table(out)

    def equals(self, other: "Table") -> bool:
        if set(self.columns) != set(other.columns):
            return False
        for name, mine in self.columns.items():
            theirs = other.columns[name]
            if isinstance(mine, np.ndarray):
                if not np.array_equal(np.asarray(theirs), mine):
                    return False
            elif len(mine) != len(theirs):
                return False
            else:
                for a, b in zip(mine, theirs):
                    if isinstance(a, np.ndarray):
                        if not np.array_equal(a, np.asarray(b)):
                            return False
                    elif isinstance(a, list) and a and isinstance(a[0], np.ndarray):
                        if len(a) != len(b) or any(
                            not np.array_equal(x, np.asarray(y))
                            for x, y in zip(a, b)
                        ):
                            return False
                    elif a != b:
                        return False
        return True


def concat_tables(tables: list["Table"]) -> "Table":
    """Row-wise concatenation of same-schema tables."""
    if not tables:
        return Table({})
    out: dict[str, object] = {}
    for name in tables[0].columns:
        parts = [t.columns[name] for t in tables]
        if isinstance(parts[0], np.ndarray):
            out[name] = np.concatenate(parts)
        else:
            merged: list = []
            for p in parts:
                merged.extend(p)
            out[name] = merged
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
