"""Generic list encoding: offsets sub-column + flattened values.

This is the Parquet-equivalent physical layout for ``list<int64>`` /
``list<float>`` columns (repetition levels collapse to an offsets array
for one nesting level) and the baseline the paper's sparse-feature
delta encoding (Fig 4) is compared against.
"""

from __future__ import annotations

import numpy as np

from repro.encodings.base import (
    Encoding,
    EncodingError,
    Kind,
    decode_child,
    encode_child,
    float_dtype_code,
    float_dtype_from_code,
    infer_kind,
    register,
)
from repro.encodings.delta import Delta
from repro.encodings.trivial import Trivial
from repro.util.bitio import ByteReader, ByteWriter

_TAG_INT = 0
_TAG_FLOAT = 1
_TAG_BYTES = 2
_TAG_NESTED_INT = 3


def normalize_list_column(values, kind: Kind) -> list[np.ndarray]:
    """Coerce a LIST_* column into a list of 1-D numpy arrays."""
    dtype = np.int64 if kind == Kind.LIST_INT else np.float64
    out = []
    for item in values:
        arr = np.asarray(item)
        if arr.ndim != 1:
            raise EncodingError("list columns must contain 1-D sequences")
        if kind == Kind.LIST_INT:
            arr = arr.astype(np.int64, copy=False)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(dtype)
        out.append(arr)
    return out


@register
class ListEncoding(Encoding):
    """Offsets + flattened values, each a composable sub-column."""

    id = 24
    name = "list"
    kinds = frozenset(
        {Kind.LIST_INT, Kind.LIST_FLOAT, Kind.LIST_BYTES, Kind.LIST_LIST_INT}
    )

    def __init__(
        self,
        values_child: Encoding | None = None,
        offsets_child: Encoding | None = None,
    ) -> None:
        self._values_child = values_child if values_child is not None else Trivial()
        self._offsets_child = offsets_child if offsets_child is not None else Delta()

    def encode(self, values) -> bytes:
        kind = infer_kind(values) if len(values) else Kind.LIST_INT
        if kind not in self.kinds:
            raise EncodingError(f"list encoding cannot handle {kind}")
        writer = ByteWriter()
        if kind == Kind.LIST_BYTES:
            rows = [[bytes(b) for b in row] for row in values]
            writer.write_u8(_TAG_BYTES)
            flat: object = [b for row in rows for b in row]
        elif kind == Kind.LIST_LIST_INT:
            rows = [
                [np.asarray(inner, dtype=np.int64) for inner in row]
                for row in values
            ]
            writer.write_u8(_TAG_NESTED_INT)
            flat = [inner for row in rows for inner in row]
        elif kind == Kind.LIST_INT:
            rows = normalize_list_column(values, kind)
            writer.write_u8(_TAG_INT)
            flat = (
                np.concatenate(rows) if rows else np.zeros(0, dtype=np.int64)
            ).astype(np.int64)
        else:
            rows = normalize_list_column(values, kind)
            writer.write_u8(_TAG_FLOAT)
            flat = (
                np.concatenate(rows) if rows else np.zeros(0, dtype=np.float64)
            )
            if flat.dtype not in (np.float32, np.float64):
                flat = flat.astype(np.float64)
            writer.write_u8(float_dtype_code(flat.dtype))
        lengths = np.fromiter(
            (len(r) for r in rows), dtype=np.int64, count=len(rows)
        )
        offsets = np.concatenate(([0], np.cumsum(lengths))).astype(np.int64)
        encode_child(writer, offsets, self._offsets_child)
        if kind == Kind.LIST_LIST_INT:
            encode_child(writer, flat, ListEncoding(self._values_child))
        else:
            encode_child(writer, flat, self._values_child)
        return writer.getvalue()

    @classmethod
    def decode(cls, reader: ByteReader):
        tag = reader.read_u8()
        if tag == _TAG_FLOAT:
            float_dtype_from_code(reader.read_u8())  # dtype carried by child
        offsets = decode_child(reader)
        flat = decode_child(reader)
        if tag == _TAG_INT:
            # LIST_INT rows are int64 whatever the child blob holds
            flat = np.asarray(flat).astype(np.int64, copy=False)
        return [
            flat[int(offsets[i]) : int(offsets[i + 1])]
            for i in range(len(offsets) - 1)
        ]
