"""Bullion's logical type system and physical flattening.

Logical types mirror the Parquet/Arrow vocabulary the paper's Table 1
census uses (``list<int64>``, ``struct<list<int64>, list<float>>``,
``string``, ...). Physically Bullion flattens structs — each struct
field becomes its own on-disk stream ("feature flattening, which stores
each feature as a separate stream on disk", §3's description of Meta's
Alpha, adopted here) — so a physical column is always a primitive plus
a list-nesting depth (0, 1 or 2).

Quantized primitives (FLOAT16/BFLOAT16/FP8) are first-class physical
types: §2.4's storage quantization writes them directly, stored as
uint16/uint8 payloads with the logical float semantics recorded here.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.quantization import FloatFormat


class Primitive(enum.IntEnum):
    """Leaf physical types (codes are persisted in the footer)."""

    INT64 = 0
    INT32 = 1
    INT16 = 2
    INT8 = 3
    FLOAT64 = 4
    FLOAT32 = 5
    FLOAT16 = 6
    BFLOAT16 = 7
    FLOAT8_E4M3 = 8
    FLOAT8_E5M2 = 9
    STRING = 10
    BINARY = 11
    BOOL = 12

    @property
    def type_name(self) -> str:
        return _PRIMITIVE_NAMES[self]


_PRIMITIVE_NAMES = {
    Primitive.INT64: "int64",
    Primitive.INT32: "int32",
    Primitive.INT16: "int16",
    Primitive.INT8: "int8",
    Primitive.FLOAT64: "double",
    Primitive.FLOAT32: "float",
    Primitive.FLOAT16: "float16",
    Primitive.BFLOAT16: "bfloat16",
    Primitive.FLOAT8_E4M3: "fp8_e4m3",
    Primitive.FLOAT8_E5M2: "fp8_e5m2",
    Primitive.STRING: "string",
    Primitive.BINARY: "binary",
    Primitive.BOOL: "bool",
}
_PRIMITIVE_BY_NAME = {v: k for k, v in _PRIMITIVE_NAMES.items()}

#: numpy storage dtype per primitive (bytes columns have none)
STORAGE_DTYPES = {
    Primitive.INT64: np.int64,
    Primitive.INT32: np.int32,
    Primitive.INT16: np.int16,
    Primitive.INT8: np.int8,
    Primitive.FLOAT64: np.float64,
    Primitive.FLOAT32: np.float32,
    Primitive.FLOAT16: np.float16,
    Primitive.BFLOAT16: np.uint16,
    Primitive.FLOAT8_E4M3: np.uint8,
    Primitive.FLOAT8_E5M2: np.uint8,
    Primitive.BOOL: np.bool_,
}

#: §2.4 storage-quantized primitives and the float format each holds
QUANTIZED_FORMATS = {
    Primitive.FLOAT16: FloatFormat.FP16,
    Primitive.BFLOAT16: FloatFormat.BF16,
    Primitive.FLOAT8_E4M3: FloatFormat.FP8_E4M3,
    Primitive.FLOAT8_E5M2: FloatFormat.FP8_E5M2,
}

#: primitives whose values are integer-valued (no NaN; float64 stats
#: storage may round magnitudes beyond 2**53)
_INT_KIND_PRIMS = frozenset(
    {Primitive.INT64, Primitive.INT32, Primitive.INT16, Primitive.INT8,
     Primitive.BOOL}
)
_FLOAT_KIND_PRIMS = frozenset(
    {Primitive.FLOAT64, Primitive.FLOAT32, *QUANTIZED_FORMATS}
)


def stats_kind(ptype: "PhysicalType") -> str | None:
    """Interval-evaluation kind of a physical column's statistics.

    ``"int"`` — integer-valued, NaN-free, but float64 stats storage may
    have rounded bounds beyond 2**53; ``"float"`` — bounds are exact
    stored values but NaN rows may exist outside them (quantized floats
    included: their stats are collected in the widened float domain);
    ``None`` — no statistics are collected (strings, binary, lists).
    """
    if ptype.list_depth > 0:
        return None
    if ptype.primitive in _INT_KIND_PRIMS:
        return "int"
    if ptype.primitive in _FLOAT_KIND_PRIMS:
        return "float"
    return None


@dataclass(frozen=True)
class LogicalType:
    """A type tree node: primitive, list<child> or struct<children>."""

    primitive: Primitive | None = None
    list_of: "LogicalType | None" = None
    struct_of: tuple["LogicalType", ...] = ()

    def __post_init__(self) -> None:
        set_count = sum(
            (
                self.primitive is not None,
                self.list_of is not None,
                len(self.struct_of) > 0,
            )
        )
        if set_count != 1:
            raise ValueError(
                "LogicalType must be exactly one of primitive/list/struct"
            )

    # -- constructors ---------------------------------------------------
    @staticmethod
    def of(primitive: Primitive) -> "LogicalType":
        return LogicalType(primitive=primitive)

    @staticmethod
    def list_(inner: "LogicalType") -> "LogicalType":
        return LogicalType(list_of=inner)

    @staticmethod
    def struct(*children: "LogicalType") -> "LogicalType":
        return LogicalType(struct_of=tuple(children))

    # -- rendering (Table 1 census strings) ------------------------------
    def __str__(self) -> str:
        if self.primitive is not None:
            return self.primitive.type_name
        if self.list_of is not None:
            return f"list<{self.list_of}>"
        return f"struct<{', '.join(str(c) for c in self.struct_of)}>"

    @staticmethod
    def parse(text: str) -> "LogicalType":
        """Parse the census string format back into a type tree."""
        text = text.strip()
        if text.startswith("list<") and text.endswith(">"):
            return LogicalType.list_(LogicalType.parse(text[5:-1]))
        if text.startswith("struct<") and text.endswith(">"):
            parts = _split_top_level(text[7:-1])
            return LogicalType.struct(*(LogicalType.parse(p) for p in parts))
        if text in _PRIMITIVE_BY_NAME:
            return LogicalType.of(_PRIMITIVE_BY_NAME[text])
        raise ValueError(f"cannot parse type {text!r}")

    # -- physical flattening ---------------------------------------------
    def flatten(self, name: str) -> list[tuple[str, "PhysicalType"]]:
        """Struct-flattened physical columns for a field of this type."""
        if self.primitive is not None:
            return [(name, PhysicalType(self.primitive, 0))]
        if self.list_of is not None:
            inner = self.list_of
            depth = 1
            while inner.list_of is not None:
                inner = inner.list_of
                depth += 1
            if inner.primitive is None:
                raise ValueError("list<struct> columns are not supported")
            if depth > 2:
                raise ValueError("list nesting deeper than 2 not supported")
            return [(name, PhysicalType(inner.primitive, depth))]
        out: list[tuple[str, PhysicalType]] = []
        for i, child in enumerate(self.struct_of):
            out.extend(child.flatten(f"{name}.f{i}"))
        return out


def _split_top_level(text: str) -> list[str]:
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "<":
            depth += 1
        elif ch == ">":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return [p for p in (s.strip() for s in parts) if p]


@dataclass(frozen=True)
class PhysicalType:
    """What actually hits the disk: primitive + list depth (0..2)."""

    primitive: Primitive
    list_depth: int = 0

    def __str__(self) -> str:
        out = self.primitive.type_name
        for _ in range(self.list_depth):
            out = f"list<{out}>"
        return out


@dataclass(frozen=True)
class Field:
    """A named logical column in the user-facing schema."""

    name: str
    type: LogicalType


@dataclass(frozen=True)
class PhysicalColumn:
    """A flattened on-disk column (unit of projection and encoding)."""

    name: str
    type: PhysicalType
    source_field: str


@dataclass
class Schema:
    """Ordered logical fields + derived physical layout."""

    fields: list[Field] = field(default_factory=list)

    def __post_init__(self) -> None:
        names = [f.name for f in self.fields]
        if len(set(names)) != len(names):
            raise ValueError("duplicate field names in schema")

    def __len__(self) -> int:
        return len(self.fields)

    def field_names(self) -> list[str]:
        return [f.name for f in self.fields]

    def physical_columns(self) -> list[PhysicalColumn]:
        out: list[PhysicalColumn] = []
        for f in self.fields:
            for name, ptype in f.type.flatten(f.name):
                out.append(PhysicalColumn(name, ptype, f.name))
        return out

    def census(self) -> dict[str, int]:
        """Logical type -> count, the Table 1 'statistical breakdown'."""
        counts: dict[str, int] = {}
        for f in self.fields:
            key = str(f.type)
            counts[key] = counts.get(key, 0) + 1
        return counts


# convenience aliases used throughout workloads/tests
INT64 = LogicalType.of(Primitive.INT64)
INT32 = LogicalType.of(Primitive.INT32)
FLOAT32 = LogicalType.of(Primitive.FLOAT32)
FLOAT64 = LogicalType.of(Primitive.FLOAT64)
STRING = LogicalType.of(Primitive.STRING)
BINARY = LogicalType.of(Primitive.BINARY)
BOOL = LogicalType.of(Primitive.BOOL)
