"""Schema evolution: a per-snapshot schema log and a per-file resolver.

Real feature-store tables do not keep one frozen schema: columns are
added, dropped, renamed and widened across a table's life, and every
historical snapshot must keep replaying correctly under time travel.
This module gives the catalog that vocabulary:

* a :class:`TableSchema` is one committed schema version — an ordered
  list of physical columns, each carrying a **stable field id** that
  survives renames (resolution is by field id, never by name, so a
  renamed column still finds its bytes in old files);
* evolution operations (:class:`AddColumn`, :class:`DropColumn`,
  :class:`RenameColumn`, :class:`WidenColumn`) derive the next
  :class:`TableSchema` from the current one, each application a
  committed evolution entry in the snapshot's **schema log**;
* every manifest :class:`~repro.catalog.DataFile` names the schema it
  was written under (``schema_id``); the snapshot carries the schemas
  its files reference plus the current one;
* a :class:`FileResolution` maps the *current* schema onto one file's
  *stored* schema, and :class:`ResolvedReader` wraps a plain
  :class:`~repro.core.reader.BullionReader` so scans, aggregation and
  training loaders see every file as if it already held the current
  schema:

  - **absent** columns (added after the file was written, or whose
    field was dropped from the file's version) materialize as typed
    nulls — NaN for floats (skipped by aggregates, exactly the
    engine's null semantics), ``0``/``False``/``b""``/``[]`` for
    ints/bools/bytes/lists;
  - **narrower** stored values widen at decode, reusing the §2.4
    quantization widening machinery (FP16/BF16/FP8 dequantize to
    float32 first, then cast to the current storage dtype);
  - **renamed** columns resolve through the field id;
  - manifest and footer statistics are remapped the same way, and a
    column absent from a file always evaluates conservatively
    (``MAYBE``) at the interval layers — evolution can never make
    pushdown prune wrongly.

Filtering over widened columns is always evaluated in the *current*
widened domain (never pushed down into the narrower stored domain),
so a float32 file widened to float64 filters bit-identically to a
native float64 file.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.reader import ScanStats
from repro.core.table import rebatch
from repro.encodings.base import RaggedColumn
from repro.core.schema import (
    PhysicalColumn,
    PhysicalType,
    Primitive,
    STORAGE_DTYPES,
    _PRIMITIVE_BY_NAME,
    stats_kind,
)
from repro.expr import (
    Expr,
    TriState,
    coerce_where,
    evaluate as evaluate_expr,
    evaluate_interval,
    interval_from_stats,
)
from repro.util.hashing import hash64


class CatalogMetadataError(ValueError):
    """Malformed catalog metadata (snapshot JSON, schema log)."""


class SchemaLogError(CatalogMetadataError):
    """Corrupt schema-log entry, dangling schema id, or illegal
    evolution operation."""


# ---------------------------------------------------------------------------
# widening lattice
# ---------------------------------------------------------------------------

#: rank within the int widening chain int8 -> int16 -> int32 -> int64
_INT_RANK = {
    Primitive.INT8: 1,
    Primitive.INT16: 2,
    Primitive.INT32: 3,
    Primitive.INT64: 4,
}
#: rank within the float widening chain fp8 -> f16/bf16 -> f32 -> f64;
#: every step is value-preserving (each narrower format embeds exactly
#: into the next — the same property §2.4 widening relies on)
_FLOAT_RANK = {
    Primitive.FLOAT8_E4M3: 1,
    Primitive.FLOAT8_E5M2: 1,
    Primitive.FLOAT16: 2,
    Primitive.BFLOAT16: 2,
    Primitive.FLOAT32: 3,
    Primitive.FLOAT64: 4,
}

_QUANTIZED_PRIMS = frozenset(
    {
        Primitive.FLOAT16,
        Primitive.BFLOAT16,
        Primitive.FLOAT8_E4M3,
        Primitive.FLOAT8_E5M2,
    }
)


def can_widen(src: PhysicalType, dst: PhysicalType) -> bool:
    """True iff ``src -> dst`` is a legal (value-preserving) widening."""
    if src.list_depth != dst.list_depth:
        return False
    for rank in (_INT_RANK, _FLOAT_RANK):
        if src.primitive in rank and dst.primitive in rank:
            return rank[dst.primitive] > rank[src.primitive]
    return False


def parse_physical_type(text: str) -> PhysicalType:
    """Parse a physical type string (``int64``, ``list<float>``, ...)."""
    s = str(text).strip()
    depth = 0
    while s.startswith("list<") and s.endswith(">"):
        depth += 1
        s = s[5:-1].strip()
    prim = _PRIMITIVE_BY_NAME.get(s)
    if prim is None or depth > 2:
        raise SchemaLogError(f"cannot parse physical type {text!r}")
    return PhysicalType(prim, depth)


# ---------------------------------------------------------------------------
# committed schemas
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SchemaColumn:
    """One physical column of a committed schema version.

    ``field_id`` is the stable identity: assigned once when the column
    is added, preserved across renames and widenings, never reused
    after a drop — so an old file's bytes can always be matched to the
    current schema (or proven absent) by id alone.
    """

    field_id: int
    name: str
    type: PhysicalType

    def to_dict(self) -> dict:
        return {"id": self.field_id, "name": self.name, "type": str(self.type)}

    @staticmethod
    def from_dict(d: dict) -> "SchemaColumn":
        try:
            field_id = int(d["id"])
            name = d["name"]
            type_text = d["type"]
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaLogError(f"malformed schema column {d!r}") from exc
        if not isinstance(name, str) or not name:
            raise SchemaLogError(f"malformed schema column name {name!r}")
        return SchemaColumn(field_id, name, parse_physical_type(type_text))


@dataclass(frozen=True)
class TableSchema:
    """One committed schema version: ordered columns + an id."""

    schema_id: int
    columns: tuple[SchemaColumn, ...]

    def __post_init__(self) -> None:
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise SchemaLogError(f"duplicate column names in schema: {names}")
        ids = [c.field_id for c in self.columns]
        if len(set(ids)) != len(ids):
            raise SchemaLogError(f"duplicate field ids in schema: {ids}")

    def names(self) -> list[str]:
        return [c.name for c in self.columns]

    def column(self, name: str) -> SchemaColumn:
        for c in self.columns:
            if c.name == name:
                return c
        raise KeyError(name)

    def maybe_column(self, name: str) -> "SchemaColumn | None":
        for c in self.columns:
            if c.name == name:
                return c
        return None

    def by_field_id(self) -> dict[int, SchemaColumn]:
        return {c.field_id: c for c in self.columns}

    def max_field_id(self) -> int:
        return max((c.field_id for c in self.columns), default=0)

    def fingerprint(self) -> int:
        """Same formula as :meth:`FooterView.schema_fingerprint`, so a
        file's physical layout can be checked against a schema version
        without opening the file."""
        desc = ";".join(f"{c.name}:{c.type}" for c in self.columns)
        return hash64(desc)

    def physical_columns(self) -> list[PhysicalColumn]:
        return [PhysicalColumn(c.name, c.type, c.name) for c in self.columns]

    def write_schema(self):
        """A writer-facing :class:`~repro.core.schema.Schema` with this
        version's exact physical layout (so appends under an evolved
        schema don't depend on dtype inference)."""
        from repro.core.schema import Field, LogicalType, Schema

        fields = []
        for c in self.columns:
            lt = LogicalType.of(c.type.primitive)
            for _ in range(c.type.list_depth):
                lt = LogicalType.list_(lt)
            fields.append(Field(c.name, lt))
        return Schema(fields)

    def to_dict(self) -> dict:
        return {
            "schema_id": self.schema_id,
            "columns": [c.to_dict() for c in self.columns],
        }

    @staticmethod
    def from_dict(d: dict) -> "TableSchema":
        try:
            schema_id = int(d["schema_id"])
            raw_columns = d["columns"]
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaLogError(f"malformed schema entry: {exc}") from exc
        if not isinstance(raw_columns, (list, tuple)) or not raw_columns:
            raise SchemaLogError(
                f"schema {schema_id} has no columns (or a malformed list)"
            )
        return TableSchema(
            schema_id=schema_id,
            columns=tuple(SchemaColumn.from_dict(c) for c in raw_columns),
        )


def schema_from_footer(footer, schema_id: int = 0) -> TableSchema:
    """Bootstrap a :class:`TableSchema` from a file's physical layout
    (field ids assigned 1..n in column order)."""
    return TableSchema(
        schema_id=schema_id,
        columns=tuple(
            SchemaColumn(i + 1, c.name, c.type)
            for i, c in enumerate(footer.physical_columns())
        ),
    )


# ---------------------------------------------------------------------------
# evolution operations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AddColumn:
    """Add a new column; existing files materialize it as typed nulls."""

    name: str
    type: str | PhysicalType


@dataclass(frozen=True)
class DropColumn:
    """Drop a column; its field id is retired, never reused."""

    name: str


@dataclass(frozen=True)
class RenameColumn:
    """Rename a column; old files resolve through the field id."""

    old: str
    new: str


@dataclass(frozen=True)
class WidenColumn:
    """Widen a column within its kind (int8→…→int64, fp8→…→double)."""

    name: str
    type: str | PhysicalType


EvolutionOp = AddColumn | DropColumn | RenameColumn | WidenColumn


def _as_ptype(t: str | PhysicalType) -> PhysicalType:
    return t if isinstance(t, PhysicalType) else parse_physical_type(t)


def apply_ops(
    current: TableSchema,
    ops,
    *,
    new_schema_id: int,
    next_field_id: int,
) -> TableSchema:
    """Apply evolution ops to ``current``, yielding the next version.

    ``next_field_id`` must be strictly greater than every field id any
    schema in the log has ever used (dropped ids are never reused — a
    reused id would resurrect a dropped column's bytes in old files).
    Raises :class:`SchemaLogError` on any illegal operation.
    """
    columns = list(current.columns)
    fid = next_field_id

    def index_of(name: str) -> int:
        for i, c in enumerate(columns):
            if c.name == name:
                return i
        raise SchemaLogError(f"no column {name!r} in current schema")

    for op in ops:
        if isinstance(op, AddColumn):
            if any(c.name == op.name for c in columns):
                raise SchemaLogError(f"column {op.name!r} already exists")
            columns.append(SchemaColumn(fid, op.name, _as_ptype(op.type)))
            fid += 1
        elif isinstance(op, DropColumn):
            i = index_of(op.name)
            del columns[i]
            if not columns:
                raise SchemaLogError("cannot drop the last column")
        elif isinstance(op, RenameColumn):
            i = index_of(op.old)
            if any(c.name == op.new for c in columns):
                raise SchemaLogError(f"column {op.new!r} already exists")
            columns[i] = SchemaColumn(
                columns[i].field_id, op.new, columns[i].type
            )
        elif isinstance(op, WidenColumn):
            i = index_of(op.name)
            target = _as_ptype(op.type)
            if not can_widen(columns[i].type, target):
                raise SchemaLogError(
                    f"cannot widen {op.name!r} from {columns[i].type} "
                    f"to {target}"
                )
            columns[i] = SchemaColumn(columns[i].field_id, op.name, target)
        else:
            raise SchemaLogError(f"unknown evolution op {op!r}")
    return TableSchema(schema_id=new_schema_id, columns=tuple(columns))


# ---------------------------------------------------------------------------
# the per-snapshot schema log and per-file resolution
# ---------------------------------------------------------------------------

class SchemaLog:
    """The schemas one snapshot carries, plus which one is current.

    ``current_id is None`` means a legacy (pre-evolution) snapshot:
    every file shares one frozen fingerprint and resolution is always
    the identity.
    """

    def __init__(
        self, schemas: dict[int, TableSchema], current_id: int | None
    ) -> None:
        self.schemas = schemas
        self.current_id = current_id
        if current_id is not None and current_id not in schemas:
            raise SchemaLogError(
                f"current_schema_id {current_id} is not in the schema log "
                f"(ids: {sorted(schemas)})"
            )

    @staticmethod
    def from_snapshot(snapshot) -> "SchemaLog":
        schemas = {s.schema_id: s for s in snapshot.schemas}
        log = SchemaLog(schemas, snapshot.current_schema_id)
        for f in snapshot.files:
            if f.schema_id is not None and f.schema_id not in schemas:
                raise SchemaLogError(
                    f"file {f.file_id!r} references schema {f.schema_id} "
                    f"which is not in the snapshot's schema log"
                )
        return log

    def current(self) -> TableSchema | None:
        if self.current_id is None:
            return None
        return self.schemas[self.current_id]

    def schema_for(self, schema_id: int) -> TableSchema:
        schema = self.schemas.get(schema_id)
        if schema is None:
            raise SchemaLogError(
                f"dangling schema id {schema_id} (log holds "
                f"{sorted(self.schemas)})"
            )
        return schema

    def resolution(self, data_file) -> "FileResolution | None":
        """The resolution one file needs, or None for identity.

        Files with no ``schema_id`` (legacy manifests) and files
        already at the current schema read as-is.
        """
        current = self.current()
        if current is None or data_file.schema_id is None:
            return None
        if data_file.schema_id == self.current_id:
            return None
        file_schema = self.schema_for(data_file.schema_id)
        if file_schema.columns == current.columns:
            return None
        return FileResolution(file_schema, current)

    def is_homogeneous(self, files) -> bool:
        """True iff no file of ``files`` needs resolution."""
        return all(self.resolution(f) is None for f in files)


class FileResolution:
    """Maps the current schema onto one file's stored schema.

    For every current column name: the stored :class:`SchemaColumn`
    holding its bytes (possibly under an old name or a narrower type),
    or ``None`` when the file predates the column (or its field was
    dropped from the file's version and later re-added).
    """

    def __init__(self, file_schema: TableSchema, current: TableSchema):
        self.file_schema = file_schema
        self.current = current
        stored_by_id = file_schema.by_field_id()
        #: current name -> stored SchemaColumn | None
        self._stored: dict[str, SchemaColumn | None] = {
            c.name: stored_by_id.get(c.field_id) for c in current.columns
        }

    def current_column(self, name: str) -> SchemaColumn:
        """Raises KeyError for names outside the current schema — the
        same "typo'd column" contract as ``footer.find_column``."""
        return self.current.column(name)

    def stored_column(self, name: str) -> SchemaColumn | None:
        """Stored column for a current name; None when absent from the
        file. Raises KeyError for unknown current names."""
        if name not in self._stored:
            raise KeyError(name)
        return self._stored[name]

    def stored_name(self, name: str) -> str | None:
        stored = self.stored_column(name)
        return None if stored is None else stored.name

    def stats_of(self, column_stats):
        """A manifest-stats lookup remapped through this resolution:
        ``stats_of(current_name) -> (min, max, kind) | None``.

        Stored statistics stay valid under widening (int bounds are
        value-domain, float bounds are exact stored values, quantized
        stats are already collected in the widened float domain);
        absent columns report no stats, so every interval layer stays
        conservative."""

        def stats_of(name: str):
            stored = self._stored.get(name)
            if stored is None or column_stats is None:
                return None
            stats = column_stats.get(stored.name)
            if stats is None:
                return None
            return (stats.min_value, stats.max_value, stats.kind)

        return stats_of

    def interval_for(self, name: str, column_stats):
        """Interval of one current column from stored manifest stats
        (None — conservative MAYBE — when absent or stats-free)."""
        stats = self.stats_of(column_stats)(name)
        if stats is None:
            return None
        return interval_from_stats(*stats)


# ---------------------------------------------------------------------------
# value-level machinery: typed nulls, widening
# ---------------------------------------------------------------------------

def fill_values(ptype: PhysicalType, n: int, widen_quantized: bool):
    """The typed-null column an absent field materializes as.

    Floats (quantized included) fill with NaN — the engine's null:
    NaN rows are skipped by every aggregate and excluded from float
    statistics. Ints fill with 0, bools with False, bytes with
    ``b""``, lists with empty lists; those kinds carry no null
    sentinel, so the fill *is* the column's value.
    """
    prim = ptype.primitive
    if ptype.list_depth > 0:
        if prim in (Primitive.STRING, Primitive.BINARY):
            return [[] for _ in range(n)]
        inner = np.zeros(0, dtype=STORAGE_DTYPES.get(prim, np.int64))
        if ptype.list_depth == 1:
            empty = np.zeros(n, dtype=np.int64)
            return RaggedColumn(inner, empty, empty)
        return [inner for _ in range(n)]
    if prim in (Primitive.STRING, Primitive.BINARY):
        return [b""] * n
    if prim is Primitive.BOOL:
        return np.zeros(n, dtype=np.bool_)
    if prim in _INT_RANK:
        return np.zeros(n, dtype=STORAGE_DTYPES[prim])
    # float kinds: NaN in the representation the caller would get from
    # a file that stored the column (payload bits when not widening)
    if widen_quantized and prim in _QUANTIZED_PRIMS:
        return np.full(n, np.nan, dtype=np.float32)
    if prim in (Primitive.BFLOAT16, Primitive.FLOAT8_E4M3,
                Primitive.FLOAT8_E5M2):
        from repro.quantization import FloatFormat, quantize

        fmt = {
            Primitive.BFLOAT16: FloatFormat.BF16,
            Primitive.FLOAT8_E4M3: FloatFormat.FP8_E4M3,
            Primitive.FLOAT8_E5M2: FloatFormat.FP8_E5M2,
        }[prim]
        return quantize(np.full(n, np.nan, dtype=np.float32), fmt)
    return np.full(n, np.nan, dtype=STORAGE_DTYPES[prim])


def widen_values(values, stored: PhysicalType, target: PhysicalType):
    """Widen decoded storage values from ``stored`` to ``target``.

    Reuses the §2.4 quantization widening for FP16/BF16/FP8 sources
    (dequantize to float32), then casts to the target storage dtype.
    Every legal widening is value-preserving, so this is exact.
    """
    if stored == target:
        return values
    if stored.list_depth > 0:
        dtype = STORAGE_DTYPES[target.primitive]
        if isinstance(values, RaggedColumn):
            return values.astype(dtype)
        return [np.asarray(v).astype(dtype) for v in values]
    if stored.primitive in _QUANTIZED_PRIMS:
        from repro.core.reader import _widen_quantized

        values = _widen_quantized(values, stored)
    arr = np.asarray(values)
    if target.primitive in _QUANTIZED_PRIMS:
        # payload-bit targets (bf16/fp8 store uint payloads; fp16 its
        # own dtype): re-quantize — exact, since the widening lattice
        # guarantees every source value is representable in the target
        from repro.quantization import FloatFormat, quantize

        fmt = {
            Primitive.FLOAT16: FloatFormat.FP16,
            Primitive.BFLOAT16: FloatFormat.BF16,
            Primitive.FLOAT8_E4M3: FloatFormat.FP8_E4M3,
            Primitive.FLOAT8_E5M2: FloatFormat.FP8_E5M2,
        }[target.primitive]
        return quantize(arr.astype(np.float32, copy=False), fmt)
    target_dtype = STORAGE_DTYPES[target.primitive]
    if arr.dtype != target_dtype:
        arr = arr.astype(target_dtype)
    return arr


def eval_repr(values, ptype: PhysicalType):
    """A column's exact-filter representation (quantized -> float32),
    matching what ``Scan`` feeds the vector evaluator."""
    from repro.core.reader import _widen_quantized

    return _widen_quantized(values, ptype)


# ---------------------------------------------------------------------------
# the resolved reader: one old-schema file, read as the current schema
# ---------------------------------------------------------------------------

class _ResolvedFooter:
    """Footer facade in current-schema coordinates.

    ``find_column``/``column_type`` speak current names and types;
    ``chunk_stats`` remaps to the stored column (None when absent, so
    the query engine's metadata paths fall back instead of lying).
    Row-group geometry and deletion state pass straight through.
    """

    def __init__(self, inner, resolution: FileResolution) -> None:
        self._inner = inner
        self._res = resolution
        self._columns = resolution.current.columns

    # -- geometry (pass-through) ---------------------------------------
    @property
    def num_rows(self) -> int:
        return self._inner.num_rows

    @property
    def num_row_groups(self) -> int:
        return self._inner.num_row_groups

    @property
    def num_columns(self) -> int:
        return len(self._columns)

    def row_group(self, rg: int):
        return self._inner.row_group(rg)

    def deleted_count(self) -> int:
        return self._inner.deleted_count()

    def deletion_bitmap(self):
        return self._inner.deletion_bitmap()

    # -- columns in current coordinates --------------------------------
    def find_column(self, name: str) -> int:
        for i, c in enumerate(self._columns):
            if c.name == name:
                return i
        raise KeyError(f"no column {name!r}")

    def column_type(self, col_idx: int) -> PhysicalType:
        return self._columns[col_idx].type

    def physical_columns(self) -> list[PhysicalColumn]:
        return self._res.current.physical_columns()

    def schema_fingerprint(self) -> int:
        return self._res.current.fingerprint()

    def chunk_stats(self, col_idx: int, rg: int):
        stored = self._res.stored_column(self._columns[col_idx].name)
        if stored is None:
            return None
        return self._inner.chunk_stats(
            self._inner.find_column(stored.name), rg
        )

    def column_stats_range(self, col_idx: int):
        stored = self._res.stored_column(self._columns[col_idx].name)
        if stored is None:
            return None
        return self._inner.column_stats_range(
            self._inner.find_column(stored.name)
        )


class _ResolvedScan:
    """Iterable of resolved batches; quacks like :class:`Scan` where
    the read paths need it (iteration + ``to_table()``)."""

    def __init__(self, batches, empty_table) -> None:
        self._batches = batches
        self._empty = empty_table

    def __iter__(self):
        return iter(self._batches)

    def to_table(self):
        from repro.core.table import concat_tables

        tables = list(self._batches)
        if not tables:
            return self._empty()
        return concat_tables(tables)


class ResolvedReader:
    """A :class:`BullionReader` facade that reads one old-schema file
    as if it held the snapshot's current schema.

    Implements the reader surface the scan, query and loader paths
    use: ``footer`` (current coordinates), ``scan``,
    ``classify_row_groups_expr``, ``num_rows``/``live_rows``.
    """

    def __init__(self, reader, resolution: FileResolution) -> None:
        self._reader = reader
        self._res = resolution
        self.footer = _ResolvedFooter(reader.footer, resolution)

    # -- metadata -------------------------------------------------------
    @property
    def num_rows(self) -> int:
        return self._reader.num_rows

    @property
    def live_rows(self) -> int:
        return self._reader.live_rows

    @property
    def chunk_cache(self):
        return self._reader.chunk_cache

    @property
    def waits_per_request(self) -> bool:
        return self._reader.waits_per_request

    def schema_fingerprint(self) -> int:
        return self._res.current.fingerprint()

    def column_names(self) -> list[str]:
        return self._res.current.names()

    def locate_columns(self, names: list[str]):
        """:meth:`BullionReader.locate_columns` in current coordinates:
        the stored column behind each current name, its stored and its
        current type (``col_idx`` and stored type ``None`` for a column
        the file never stored)."""
        inner = self._reader.footer
        located = []
        for name in names:
            ptype = self._res.current_column(name).type  # KeyError contract
            stored = self._res.stored_column(name)
            if stored is None:
                located.append((None, None, ptype))
            else:
                located.append(
                    (inner.find_column(stored.name), stored.type, ptype)
                )
        return self._reader, located

    # -- pushdown (current coordinates, conservative) -------------------
    def classify_row_groups_expr(self, where: Expr) -> list[TriState]:
        """Zone-map verdicts with absent columns forced to MAYBE."""
        inner = self._reader.footer
        specs = []
        for name in sorted(where.columns()):
            cur = self._res.current_column(name)  # KeyError contract
            stored = self._res.stored_column(name)
            if stored is None or stats_kind(cur.type) is None:
                specs.append((name, None, None))
            else:
                specs.append(
                    (name, inner.find_column(stored.name),
                     stats_kind(stored.type))
                )
        verdicts = []
        for g in range(inner.num_row_groups):
            intervals = {}
            for name, col_idx, kind in specs:
                stats = (
                    inner.chunk_stats(col_idx, g)
                    if col_idx is not None
                    else None
                )
                if stats is None or kind is None:
                    intervals[name] = None
                else:
                    intervals[name] = interval_from_stats(
                        stats.min_value, stats.max_value, kind
                    )
            verdicts.append(evaluate_interval(where, intervals))
        return verdicts

    # -- scanning -------------------------------------------------------
    def scan(
        self,
        columns: list[str],
        *,
        where: Expr | None = None,
        row_groups: list[int] | None = None,
        batch_size: int | None = None,
        drop_deleted: bool = True,
        widen_quantized: bool = False,
        max_workers: int = 4,
        prefetch_groups: int = 2,
        scan_stats=None,
    ) -> _ResolvedScan:
        where = coerce_where(where)
        res = self._res
        # resolve the projection in current coordinates (KeyError fast)
        specs = [(name, res.stored_column(name)) for name in columns]
        where_specs = (
            [(name, res.stored_column(name)) for name in sorted(where.columns())]
            if where is not None
            else []
        )
        for name, _stored in where_specs:
            if res.current_column(name).type.list_depth > 0:
                raise ValueError(f"cannot filter on list column {name!r}")

        def empty_table():
            from repro.core.table import Table

            return Table({
                name: fill_values(
                    res.current_column(name).type, 0, widen_quantized
                )
                for name in columns
            })

        batches = self._scan_batches(
            specs,
            where,
            where_specs,
            row_groups,
            drop_deleted,
            widen_quantized,
            max_workers,
            prefetch_groups,
            scan_stats,
        )
        if batch_size is not None:
            batches = rebatch(batches, batch_size)
        return _ResolvedScan(batches, empty_table)

    def _scan_batches(
        self,
        specs,
        where,
        where_specs,
        row_groups,
        drop_deleted,
        widen_quantized,
        max_workers,
        prefetch_groups,
        scan_stats,
    ):
        from repro.core.table import Table

        reader = self._reader
        res = self._res
        footer = reader.footer
        groups = (
            list(range(footer.num_row_groups))
            if row_groups is None
            else list(row_groups)
        )
        if where is not None:
            # conservative zone-map pruning in current coordinates; the
            # exact filter below always evaluates in the current
            # (widened) domain, never the narrower stored one
            verdicts = self.classify_row_groups_expr(where)
            kept = [g for g in groups if verdicts[g] is not TriState.NEVER]
            if scan_stats is not None:
                pruned = [g for g in groups if verdicts[g] is TriState.NEVER]
                scan_stats.bump(
                    groups_pruned=len(pruned),
                    rows_pruned=sum(
                        footer.row_group(g).n_rows for g in pruned
                    ),
                )
            groups = kept
        if scan_stats is not None:
            scan_stats.bump(files_scanned=1, groups_total=len(groups))

        # stored columns the inner scan must decode: projected present
        # columns plus present filter columns
        inner_names: list[str] = []
        for _name, stored in specs + where_specs:
            if stored is not None and stored.name not in inner_names:
                inner_names.append(stored.name)
        deleted = (
            footer.deletion_bitmap()
            if drop_deleted and footer.deleted_count()
            else None
        )

        for g in groups:
            rg = footer.row_group(g)
            # this layer counts groups and rows itself and folds in the
            # inner scan's chunk counts, which publish only from here
            inner = ScanStats.unmirrored()
            if inner_names:
                # widen_quantized=False: widening to the *current* type
                # happens below, per column
                raw = reader.scan(
                    inner_names,
                    row_groups=[g],
                    drop_deleted=False,
                    widen_quantized=False,
                    max_workers=max_workers,
                    prefetch_groups=prefetch_groups,
                    scan_stats=inner,
                ).to_table()
                n = raw.num_rows
            else:
                raw = None
                n = rg.n_rows
            if scan_stats is not None:
                scan_stats.bump(
                    groups_scanned=1,
                    rows_scanned=n,
                    chunks_fetched=inner.chunks_fetched,
                    chunks_skipped=inner.chunks_skipped,
                )

            def current_values(name, stored, widen):
                if stored is None:
                    return fill_values(
                        res.current_column(name).type, n, widen
                    )
                cur_type = res.current_column(name).type
                values = widen_values(
                    raw.column(stored.name), stored.type, cur_type
                )
                if widen:
                    values = eval_repr(values, cur_type)
                return values

            mask = None
            if where is not None:
                eval_values = {
                    name: eval_repr(
                        current_values(name, stored, False),
                        res.current_column(name).type,
                    )
                    for name, stored in where_specs
                }
                mask = evaluate_expr(where, eval_values)
            if deleted is not None:
                live = ~deleted[rg.row_start : rg.row_start + rg.n_rows]
                mask = live if mask is None else (mask & live)
            if mask is not None and not mask.any():
                continue
            out = {
                name: current_values(name, stored, widen_quantized)
                for name, stored in specs
            }
            table = Table(out)
            if mask is not None and table.num_columns:
                table = table.take_mask(mask)
            if scan_stats is not None:
                scan_stats.bump(rows_matched=table.num_rows)
            if table.num_rows:
                yield table

    def project(
        self,
        columns: list[str],
        drop_deleted: bool = True,
        row_groups: list[int] | None = None,
        widen_quantized: bool = False,
    ):
        return self.scan(
            columns,
            row_groups=row_groups,
            drop_deleted=drop_deleted,
            widen_quantized=widen_quantized,
            max_workers=0,
        ).to_table()
