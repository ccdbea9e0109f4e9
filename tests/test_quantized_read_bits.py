"""The quantized read path is bit-identical over the whole code space.

Every BF16 code (65,536) and every FP8 E4M3 / E5M2 code (256 each) is
written as stored codes, read back through :func:`decode_chunks` and
widened the way the loader widens them — straight from the codec's
int64 codes, and from the storage column — and compared as ``uint32``
bit patterns with the reference formulas below: NaN payloads and
signs, ``-0.0`` and ``±inf`` included.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import BullionReader, BullionWriter, WriterOptions
from repro.core.reader import decode_chunks
from repro.core.schema import Field, LogicalType, Primitive, Schema
from repro.core.table import Table, widen_quantized
from repro.encodings import FixedBitWidth
from repro.iosim import SimulatedStorage
from repro.quantization.floats import _E4M3_TABLE, _E5M2_TABLE


def _bf16_reference(codes: np.ndarray) -> np.ndarray:
    return (codes.astype(np.uint16).astype(np.uint32) << np.uint32(16)).view(
        np.float32
    )


def _fp8_reference(table: np.ndarray):
    def widen(codes: np.ndarray) -> np.ndarray:
        codes = codes.astype(np.uint8)
        sign = np.where(codes & 0x80, -1.0, 1.0)
        return (table[codes & 0x7F] * sign).astype(np.float32)

    return widen


CASES = [
    (Primitive.BFLOAT16, np.uint16, 1 << 16, _bf16_reference),
    (Primitive.FLOAT8_E4M3, np.uint8, 256, _fp8_reference(_E4M3_TABLE)),
    (Primitive.FLOAT8_E5M2, np.uint8, 256, _fp8_reference(_E5M2_TABLE)),
]


@pytest.mark.parametrize("forced", [False, True], ids=["auto", "fixed_bit_width"])
@pytest.mark.parametrize(
    "prim,dtype,n,reference", CASES, ids=[c[0].type_name for c in CASES]
)
def test_every_code_widens_to_the_reference_bits(prim, dtype, n, reference, forced):
    codes = np.arange(n, dtype=dtype)
    # shuffled, so a page holds codes from all over the space
    codes = codes[np.random.default_rng(n).permutation(n)]
    options = WriterOptions(
        rows_per_page=n // 8,
        rows_per_group=n // 2,
        encodings={"x": FixedBitWidth()} if forced else {},
    )
    dev = SimulatedStorage()
    schema = Schema([Field("x", LogicalType.of(prim))])
    BullionWriter(dev, schema, options).write(Table({"x": codes}))
    reader = BullionReader(dev)
    footer = reader.footer
    col_idx = footer.find_column("x")
    ptype = footer.column_type(col_idx)
    groups = range(footer.num_row_groups)
    raws = reader._fetch_chunks([(col_idx, g) for g in groups])
    chunks = [(reader, raws[(col_idx, g)], col_idx, g) for g in groups]
    want = reference(codes).view(np.uint32)
    stored = decode_chunks(chunks, ptype)
    assert stored.dtype == dtype and np.array_equal(stored, codes)
    for widened in (
        decode_chunks(chunks, ptype, widen=True),
        widen_quantized(stored, ptype),
        reader.project(["x"], widen_quantized=True).column("x"),
    ):
        assert widened.dtype == np.float32
        assert np.array_equal(widened.view(np.uint32), want)
