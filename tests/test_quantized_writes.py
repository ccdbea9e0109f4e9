"""Tests for write-time storage quantization (§2.4 writer integration)."""

import numpy as np
import pytest

from repro.core import BullionReader, BullionWriter, Table, WriterOptions
from repro.core.schema import Primitive
from repro.iosim import SimulatedStorage
from repro.quantization import FloatFormat, QuantizationPolicy


@pytest.fixture
def embeddings():
    rng = np.random.default_rng(17)
    return {
        f"emb_{i}": np.tanh(rng.normal(size=500)).astype(np.float32)
        for i in range(4)
    }


def _write(columns, policy):
    dev = SimulatedStorage()
    BullionWriter(
        dev, options=WriterOptions(quantization=policy)
    ).write(Table(dict(columns)))
    return dev


class TestQuantizedWrites:
    def test_physical_types_recorded(self, embeddings):
        policy = QuantizationPolicy(
            assignments={
                "emb_0": FloatFormat.FP16,
                "emb_1": FloatFormat.BF16,
                "emb_2": FloatFormat.FP8_E4M3,
            },
            default=FloatFormat.FP32,
        )
        dev = _write(embeddings, policy)
        footer = BullionReader(dev).footer
        expect = {
            "emb_0": Primitive.FLOAT16,
            "emb_1": Primitive.BFLOAT16,
            "emb_2": Primitive.FLOAT8_E4M3,
            "emb_3": Primitive.FLOAT32,
        }
        for name, prim in expect.items():
            assert footer.column_type(footer.find_column(name)).primitive == prim

    def test_file_shrinks(self, embeddings):
        dev32 = _write(embeddings, QuantizationPolicy())
        dev16 = _write(
            embeddings, QuantizationPolicy(default=FloatFormat.FP16)
        )
        dev8 = _write(
            embeddings, QuantizationPolicy(default=FloatFormat.FP8_E4M3)
        )
        assert dev16.size < dev32.size * 0.65
        assert dev8.size < dev16.size * 0.8

    def test_widen_on_read(self, embeddings):
        policy = QuantizationPolicy(default=FloatFormat.FP16)
        dev = _write(embeddings, policy)
        out = BullionReader(dev).project(
            list(embeddings), widen_quantized=True
        )
        for name, original in embeddings.items():
            widened = out.column(name)
            assert widened.dtype == np.float32
            assert np.allclose(widened, original, atol=1e-3)

    def test_stored_representation_default(self, embeddings):
        policy = QuantizationPolicy(default=FloatFormat.BF16)
        dev = _write(embeddings, policy)
        out = BullionReader(dev).project(list(embeddings))
        assert out.column("emb_0").dtype == np.uint16  # raw bf16 payload

    def test_fp8_error_bounded(self, embeddings):
        policy = QuantizationPolicy(default=FloatFormat.FP8_E4M3)
        dev = _write(embeddings, policy)
        out = BullionReader(dev).project(["emb_0"], widen_quantized=True)
        err = np.abs(out.column("emb_0") - embeddings["emb_0"]).max()
        assert err < 0.07  # e4m3 spacing near 1.0

    def test_non_float_columns_untouched(self):
        rng = np.random.default_rng(1)
        table = {
            "ids": rng.integers(0, 100, 200).astype(np.int64),
            "emb": rng.normal(size=200).astype(np.float32),
        }
        dev = _write(table, QuantizationPolicy(default=FloatFormat.FP8_E4M3))
        out = BullionReader(dev).project(["ids"])
        assert np.array_equal(out.column("ids"), table["ids"])

    def test_mixed_policy_end_to_end(self, embeddings):
        policy = QuantizationPolicy(
            assignments={"emb_0": FloatFormat.FP32},
            default=FloatFormat.FP8_E4M3,
        )
        dev = _write(embeddings, policy)
        out = BullionReader(dev).project(
            list(embeddings), widen_quantized=True
        )
        # critical feature is bit-exact; others are within fp8 error
        assert np.array_equal(out.column("emb_0"), embeddings["emb_0"])
        assert not np.array_equal(out.column("emb_1"), embeddings["emb_1"])
        assert np.allclose(out.column("emb_1"), embeddings["emb_1"], atol=0.07)


QUANTIZED = [
    (FloatFormat.BF16, "bfloat16"),
    (FloatFormat.FP8_E4M3, "fp8_e4m3"),
    (FloatFormat.FP8_E5M2, "fp8_e5m2"),
]


class TestQuantizedSchemaColumns:
    """A column the write schema types BF16/FP8 takes floats and
    quantizes them; its stored codes pass through unchanged."""

    @pytest.mark.parametrize("fmt,type_name", QUANTIZED)
    def test_schema_typed_column_takes_floats_or_codes(self, fmt, type_name):
        from repro.core.schema import Field, LogicalType, Schema
        from repro.quantization import dequantize, quantize

        values = np.array([0.5, 1.0, -2.0, 0.25], dtype=np.float32)
        schema = Schema([Field("x", LogicalType.parse(type_name))])
        reads = []
        for given in (values, quantize(values, fmt)):
            dev = SimulatedStorage()
            BullionWriter(dev, schema=schema).write(Table({"x": given}))
            reads.append(BullionReader(dev).project(["x"]).column("x"))
        assert np.array_equal(reads[0], quantize(values, fmt))
        assert np.array_equal(reads[1], reads[0])
        assert np.array_equal(dequantize(reads[0], fmt), values)

    @pytest.mark.parametrize("use_policy", [False, True], ids=["plain", "policy"])
    @pytest.mark.parametrize("fmt,type_name", QUANTIZED)
    def test_float_append_after_evolution(self, fmt, type_name, use_policy):
        """After ``evolve()`` an append writes the current version's
        physical layout, which types the column as its stored format:
        floats appended to it are quantized, with or without the
        policy that first narrowed it."""
        from repro.catalog import AddColumn, CatalogTable, MemoryCatalogStore
        from repro.core.schema import Field, LogicalType, Schema

        values = np.array([0.5, 1.0, -2.0], dtype=np.float32)
        table = CatalogTable.create(MemoryCatalogStore())
        if use_policy:
            options = WriterOptions(quantization=QuantizationPolicy(default=fmt))
            table.append(Table({"x": values}), options=options)
        else:
            options = None
            schema = Schema([Field("x", LogicalType.parse(type_name))])
            table.append(Table({"x": values}), schema=schema)
        table.evolve(AddColumn("k", "int64"))
        table.append(
            Table({"x": values, "k": np.arange(3, dtype=np.int64)}),
            options=options,
        )
        got = table.read(["x"], widen_quantized=True).column("x")
        assert np.array_equal(got, np.concatenate([values, values]))
