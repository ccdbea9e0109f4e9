"""Run-Length Encoding with composable sub-columns.

"Compresses repeated values by storing distinct values and their
consecutive occurrence counts in separate sub-columns" (Table 2). Both
sub-columns are nested self-describing blobs, so a cascade can choose
e.g. Dictionary for the run values and Varint for the run lengths.

The deletion story for RLE (paper §2.1) is *not* in-place masking —
masking can grow the re-encoded data — but drop-and-realign: deleted
elements are removed before re-encoding and a deletion vector restores
offsets at read time (see :mod:`repro.core.deletion`).
"""

from __future__ import annotations

import numpy as np

from repro.encodings.base import (
    Encoding,
    EncodingError,
    Kind,
    as_int64,
    decode_child,
    encode_child,
    register,
)
from repro.encodings.varint_enc import Varint, ZigZag
from repro.util.bitio import ByteReader, ByteWriter


def compute_runs(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split an array into (run_values, run_lengths)."""
    if len(values) == 0:
        return values[:0], np.zeros(0, dtype=np.int64)
    change = np.flatnonzero(values[1:] != values[:-1]) + 1
    starts = np.concatenate(([0], change))
    ends = np.concatenate((change, [len(values)]))
    return values[starts], (ends - starts).astype(np.int64)


@register
class RLE(Encoding):
    """Run-length encoding of int64 (bools are cast through int)."""

    id = 4
    name = "rle"
    kinds = frozenset({Kind.INT, Kind.BOOL})

    def __init__(
        self,
        values_child: Encoding | None = None,
        counts_child: Encoding | None = None,
    ) -> None:
        self._values_child = values_child if values_child is not None else ZigZag()
        self._counts_child = counts_child if counts_child is not None else Varint()

    def encode(self, values) -> bytes:
        arr = np.asarray(values)
        is_bool = arr.dtype == np.bool_
        arr = arr.astype(np.int64) if is_bool else as_int64(arr)
        run_values, run_lengths = compute_runs(arr)
        writer = ByteWriter()
        writer.write_u8(1 if is_bool else 0)
        writer.write_u64(len(arr))
        encode_child(writer, run_values, self._values_child)
        encode_child(writer, run_lengths, self._counts_child)
        return writer.getvalue()

    @classmethod
    def decode(cls, reader: ByteReader):
        is_bool = reader.read_u8() == 1
        total = reader.read_u64()
        run_values = decode_child(reader)
        run_lengths = decode_child(reader)
        if int(run_lengths.sum()) != total:
            raise EncodingError(
                f"RLE corrupt: run lengths sum to {int(run_lengths.sum())}, "
                f"expected {total}"
            )
        out = np.repeat(run_values.astype(np.int64), run_lengths)
        return out.astype(np.bool_) if is_bool else out
