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
    RaggedColumn,
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


def normalize_list_column(values, kind: Kind) -> RaggedColumn:
    """Coerce a LIST_INT / LIST_FLOAT column — a plain sequence of rows
    or a :class:`RaggedColumn` — into a compact ``RaggedColumn`` of the
    kind's dtype (int64; float32 only if every row is)."""
    if isinstance(values, RaggedColumn):
        dtypes = {values.values.dtype}
    else:
        values = [np.asarray(item) for item in values]
        dtypes = {row.dtype for row in values}
        values = RaggedColumn.from_rows(values)
    if kind == Kind.LIST_INT:
        dtype = np.int64
    else:
        dtype = np.float32 if dtypes == {np.dtype(np.float32)} else np.float64
    return values.compact().astype(dtype)


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
        if kind in (Kind.LIST_INT, Kind.LIST_FLOAT):
            column = normalize_list_column(values, kind)
            flat: object = column.values
            offsets = column.offsets()
            if kind == Kind.LIST_INT:
                writer.write_u8(_TAG_INT)
            else:
                writer.write_u8(_TAG_FLOAT)
                writer.write_u8(float_dtype_code(flat.dtype))
        else:
            if kind == Kind.LIST_BYTES:
                rows = [[bytes(b) for b in row] for row in values]
                writer.write_u8(_TAG_BYTES)
            else:
                rows = [
                    [np.asarray(inner, dtype=np.int64) for inner in row]
                    for row in values
                ]
                writer.write_u8(_TAG_NESTED_INT)
            flat = [item for row in rows for item in row]
            lengths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
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
        # Python slices would hide a backward or overrunning offset
        if (
            not isinstance(offsets, np.ndarray)
            or offsets.dtype != np.int64
            or offsets.ndim != 1
            or len(offsets) == 0
            or offsets[0] != 0
            or (np.diff(offsets) < 0).any()
            or offsets[-1] > len(flat)
        ):
            raise EncodingError("list: corrupt offsets")
        if tag == _TAG_INT:
            # LIST_INT values are int64 whatever the child blob holds
            flat = np.asarray(flat).astype(np.int64, copy=False)
        if tag in (_TAG_INT, _TAG_FLOAT):
            if not isinstance(flat, np.ndarray):
                raise EncodingError("list: values child is not an array")
            return RaggedColumn.from_offsets(flat, offsets)
        if isinstance(flat, RaggedColumn):
            flat = list(flat)  # list<list<int>> rows stay lists of arrays
        bounds = offsets.tolist()
        return [flat[a:b] for a, b in zip(bounds, bounds[1:])]
