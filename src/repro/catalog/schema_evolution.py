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
  *stored* schema — **renamed** columns resolve through the field id,
  manifest statistics are remapped the same way, and a column absent
  from a file has no interval (``MAYBE``), so evolution can never make
  pushdown prune wrongly;
* a :class:`ResolvedReader` presents one old-schema file in current
  coordinates through a layout naming each current column's stored
  column, stored type and current type. It
  holds no read loop of its own: scans, aggregation and training
  loaders read it through the pipeline of :mod:`repro.core.reader`,
  which widens **narrower** stored values at decode
  (:func:`~repro.core.table.widen_values`), fills **absent** columns
  with typed nulls without fetching anything
  (:func:`~repro.core.table.fill_column`), and filters in the current
  widened domain — so a float32 file widened to float64 filters
  bit-identically to a native float64 file.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.reader import Layout, ScanSource
from repro.core.schema import (
    PhysicalColumn,
    PhysicalType,
    Primitive,
    _PRIMITIVE_BY_NAME,
)
from repro.util.hashing import hash64


class CatalogMetadataError(ValueError):
    """Malformed catalog metadata (snapshot JSON, schema log)."""


def unknown_keys(doc: dict, known) -> dict:
    """The keys of a manifest record this build does not read — a newer
    writer's optional fields, kept so they are written back unchanged."""
    return {k: v for k, v in doc.items() if k not in known}


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
    #: keys a newer writer added, written back unchanged
    extra: dict = field(default_factory=dict, compare=False, hash=False)

    def to_dict(self) -> dict:
        return {
            **self.extra,
            "id": self.field_id, "name": self.name, "type": str(self.type),
        }

    @staticmethod
    def from_dict(d: dict) -> "SchemaColumn":
        try:
            field_id = int(d["id"])
            name = d["name"]
            type_text = d["type"]
            extra = unknown_keys(d, ("id", "name", "type"))
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaLogError(f"malformed schema column {d!r}") from exc
        if not isinstance(name, str) or not name:
            raise SchemaLogError(f"malformed schema column name {name!r}")
        return SchemaColumn(
            field_id, name, parse_physical_type(type_text), extra
        )


@dataclass(frozen=True)
class TableSchema:
    """One committed schema version: ordered columns + an id."""

    schema_id: int
    columns: tuple[SchemaColumn, ...]
    #: keys a newer writer added, written back unchanged
    extra: dict = field(default_factory=dict, compare=False, hash=False)

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
            **self.extra,
            "schema_id": self.schema_id,
            "columns": [c.to_dict() for c in self.columns],
        }

    @staticmethod
    def from_dict(d: dict) -> "TableSchema":
        try:
            schema_id = int(d["schema_id"])
            raw_columns = d["columns"]
            extra = unknown_keys(d, ("schema_id", "columns"))
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaLogError(f"malformed schema entry: {exc}") from exc
        if not isinstance(raw_columns, (list, tuple)) or not raw_columns:
            raise SchemaLogError(
                f"schema {schema_id} has no columns (or a malformed list)"
            )
        return TableSchema(
            schema_id=schema_id,
            columns=tuple(SchemaColumn.from_dict(c) for c in raw_columns),
            extra=extra,
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
            columns[i] = replace(columns[i], name=op.new)
        elif isinstance(op, WidenColumn):
            i = index_of(op.name)
            target = _as_ptype(op.type)
            if not can_widen(columns[i].type, target):
                raise SchemaLogError(
                    f"cannot widen {op.name!r} from {columns[i].type} "
                    f"to {target}"
                )
            columns[i] = replace(columns[i], type=target)
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
        """The stored name behind a current one: None when the file
        lacks the column or no current column has the name. Stored
        statistics stay valid under widening (int bounds are
        value-domain, float bounds exact stored values, quantized stats
        collected in the widened float domain), so a manifest lookup
        through this name stays conservative."""
        stored = self._stored.get(name)
        return None if stored is None else stored.name


# ---------------------------------------------------------------------------
# the resolved reader: one old-schema file, read as the current schema
# ---------------------------------------------------------------------------

class ResolvedReader(ScanSource):
    """A :class:`BullionReader` facade that reads one old-schema file
    as if it held the snapshot's current schema.

    It supplies a :class:`~repro.core.reader.Layout` that resolves
    current names to stored columns; ``scan``, ``project`` and
    ``prune_row_groups_expr`` come from
    :class:`~repro.core.reader.ScanSource`, the same code a plain
    file reads through.
    """

    def __init__(self, reader, resolution: FileResolution) -> None:
        self.reader = reader
        self.layout = Layout(reader.footer, resolution)

    # -- metadata -------------------------------------------------------
    @property
    def file_index(self):
        return self.reader.file_index
