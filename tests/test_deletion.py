"""Deletion-compliance tests (§2.1): maskers, levels, Merkle updates."""

import numpy as np
import pytest

from repro.core import (
    BullionReader,
    BullionWriter,
    LEVEL_DELETION_VECTOR,
    LEVEL_IN_PLACE,
    LEVEL_PLAIN,
    Table,
    WriterOptions,
    delete_rows,
    rewrite_without_rows,
)
from repro.core.deletion import MaskError, mask_page_payload
from repro.encodings import (
    Dictionary,
    FixedBitWidth,
    RLE,
    SparseBool,
    Trivial,
    Varint,
    decode_blob,
    encode_blob,
)
from repro.iosim import SimulatedStorage
from repro.quantization import FloatFormat, QuantizationPolicy


class TestMaskers:
    """Each §2.1 masking case: size never grows, data is destroyed."""

    def test_trivial_int_scrub(self):
        data = np.array([11, 22, 33, 44], dtype=np.int64)
        blob = encode_blob(data, Trivial())
        res = mask_page_payload(blob, np.array([1, 3]))
        assert len(res.payload) == len(blob)
        assert list(decode_blob(res.payload)) == [11, 0, 33, 0]

    def test_trivial_float_scrub(self):
        data = np.array([1.5, 2.5, 3.5], dtype=np.float64)
        blob = encode_blob(data, Trivial())
        res = mask_page_payload(blob, np.array([0]))
        out = decode_blob(res.payload)
        assert out[0] == 0.0 and out[1] == 2.5

    def test_trivial_bytes_scrub_keeps_layout(self):
        data = [b"secret", b"keep", b"private"]
        blob = encode_blob(data, Trivial())
        res = mask_page_payload(blob, np.array([0, 2]))
        assert len(res.payload) == len(blob)
        out = decode_blob(res.payload)
        assert out[1] == b"keep"
        assert out[0] == b"\x00" * 6  # content gone, length preserved
        assert out[2] == b"\x00" * 7

    def test_bitpack_scrub_in_place(self):
        data = np.array([5, 6, 7, 8], dtype=np.int64)
        blob = encode_blob(data, FixedBitWidth())
        res = mask_page_payload(blob, np.array([2]))
        assert len(res.payload) == len(blob)
        out = decode_blob(res.payload)
        assert out[2] == 5  # masked slot decodes to the page base
        assert list(out[[0, 1, 3]]) == [5, 6, 8]

    def test_varint_scrub_preserves_framing(self):
        """The paper's MSB trick: stream length and alignment survive."""
        data = np.array([1, 300, 70000, 5], dtype=np.int64)
        blob = encode_blob(data, Varint())
        res = mask_page_payload(blob, np.array([1, 2]))
        assert len(res.payload) == len(blob)
        out = decode_blob(res.payload)
        assert list(out) == [1, 0, 0, 5]

    def test_dictionary_scrub_via_mask_entry(self):
        data = np.array([100, 200, 100, 300], dtype=np.int64)
        blob = encode_blob(data, Dictionary())
        res = mask_page_payload(blob, np.array([0, 3]))
        assert len(res.payload) == len(blob)
        out = decode_blob(res.payload)
        assert list(out) == [0, 200, 100, 0]

    def test_rle_drop_and_realign(self):
        """The paper's 222666663 example: drop the third '6'."""
        data = np.array([2, 2, 2, 6, 6, 6, 6, 6, 3], dtype=np.int64)
        blob = encode_blob(data, RLE())
        res = mask_page_payload(blob, np.array([5]))
        assert len(res.payload) <= len(blob)
        assert res.compacted
        out = decode_blob(res.payload)
        assert list(out) == [2, 2, 2, 6, 6, 6, 6, 3]

    def test_bool_scrub(self):
        data = np.array([True, False, True, True], dtype=np.bool_)
        blob = encode_blob(data, SparseBool())
        res = mask_page_payload(blob, np.array([0]))
        assert len(res.payload) <= len(blob)
        out = decode_blob(res.payload)
        assert list(out) == [False, False, True, True]

    def test_generic_masker_delta_family(self):
        from repro.encodings import Delta

        data = np.cumsum(np.ones(100, dtype=np.int64)) * 10
        blob = encode_blob(data, Delta())
        res = mask_page_payload(blob, np.array([50]))
        assert len(res.payload) <= len(blob)
        out = decode_blob(res.payload)
        assert out[50] == out[49]  # neighbour fill => delta 0

    def test_list_page_scrub_empties_rows(self):
        from repro.encodings import ListEncoding

        data = [np.array([1, 2], dtype=np.int64) for _ in range(10)]
        blob = encode_blob(data, ListEncoding())
        res = mask_page_payload(blob, np.array([3]))
        out = decode_blob(res.payload)
        assert len(out[3]) == 0
        assert np.array_equal(out[4], [1, 2])


def _make_file(level=LEVEL_IN_PLACE, n=2000, **encodings):
    rng = np.random.default_rng(7)
    table = Table(
        {
            "ids": rng.integers(0, 10**6, n).astype(np.int64),
            "score": rng.normal(size=n),
            "tag": [f"t{i % 9}".encode() for i in range(n)],
        }
    )
    dev = SimulatedStorage()
    BullionWriter(
        dev,
        options=WriterOptions(
            rows_per_page=250,
            rows_per_group=500,
            compliance_level=level,
            encodings=dict(encodings),
        ),
    ).write(table)
    return dev, table


class TestDeleteRows:
    def test_level1_vector_only(self):
        dev, table = _make_file(level=LEVEL_DELETION_VECTOR)
        report = delete_rows(dev, [3, 10, 999], level=LEVEL_DELETION_VECTOR)
        assert report.pages_rewritten == 0
        reader = BullionReader(dev)
        assert reader.footer.deleted_count() == 3
        out = reader.project(["ids"])
        assert out.num_rows == table.num_rows - 3
        # level 1 leaves the bytes in place (the compliance gap)
        raw = reader.project(["ids"], drop_deleted=False)
        assert np.array_equal(raw.column("ids"), table.column("ids"))

    def test_level2_scrubs_and_filters(self):
        dev, table = _make_file()
        victims = [0, 500, 1500, 1999]
        report = delete_rows(dev, victims)
        assert report.pages_rewritten > 0
        reader = BullionReader(dev)
        out = reader.project(["ids", "score", "tag"])
        keep = np.ones(2000, dtype=bool)
        keep[victims] = False
        assert out.equals(table.take_mask(keep))
        # physical scrub check: raw read shows destroyed values
        raw = reader.project(["ids"], drop_deleted=False)
        for v in victims:
            assert raw.column("ids")[v] != table.column("ids")[v] or (
                table.column("ids")[v] == raw.column("ids")[v] == 0
            )

    def test_merkle_still_valid_after_delete(self):
        dev, _table = _make_file()
        delete_rows(dev, [7, 8, 9, 1000])
        assert BullionReader(dev).verify()

    def test_cumulative_deletes(self):
        dev, table = _make_file()
        delete_rows(dev, [1, 2, 3])
        delete_rows(dev, [3, 4, 5])  # overlap is idempotent
        reader = BullionReader(dev)
        assert reader.footer.deleted_count() == 5
        out = reader.project(["ids"])
        assert out.num_rows == 1995
        assert BullionReader(dev).verify()

    def test_rle_page_cumulative_deletes(self):
        rng = np.random.default_rng(8)
        table = Table(
            {
                "r": np.resize(
                    np.repeat(rng.integers(0, 4, 50), rng.integers(5, 30, 50)),
                    1000,
                ).astype(np.int64)
            }
        )
        dev = SimulatedStorage()
        BullionWriter(
            dev,
            options=WriterOptions(
                rows_per_page=500, rows_per_group=500, encodings={"r": RLE()}
            ),
        ).write(table)
        delete_rows(dev, [10, 20, 30])
        delete_rows(dev, [15, 600])
        out = BullionReader(dev).project(["r"])
        keep = np.ones(1000, dtype=bool)
        keep[[10, 20, 30, 15, 600]] = False
        assert np.array_equal(out.column("r"), table.column("r")[keep])

    def test_level0_requires_rewrite(self):
        dev, _table = _make_file(level=LEVEL_PLAIN)
        with pytest.raises(ValueError, match="rewrite"):
            delete_rows(dev, [1])

    def test_out_of_range_rejected(self):
        dev, _table = _make_file()
        with pytest.raises(ValueError, match="range"):
            delete_rows(dev, [2000])

    def test_clustered_delete_io_factor(self):
        """The §2.1 claim: clustered (per-user) deletes touch few pages,
        so in-place I/O beats a full rewrite by a large factor."""
        dev, table = _make_file(n=20000)
        victims = range(100, 140)  # one user's contiguous rows
        report = delete_rows(dev, victims)
        target = SimulatedStorage()
        baseline = rewrite_without_rows(dev, victims, target)
        factor = baseline.bytes_written / max(1, report.bytes_written)
        assert factor > 10

    def test_rewrite_baseline_correct(self):
        dev, table = _make_file(n=500)
        target = SimulatedStorage()
        rewrite_without_rows(dev, [5, 6], target)
        out = BullionReader(target).project(["ids", "score", "tag"])
        keep = np.ones(500, dtype=bool)
        keep[[5, 6]] = False
        assert out.equals(table.take_mask(keep))


class TestRewriteWithoutRows:
    """The level-0 baseline rewrites through compaction's loop."""

    def _quantized_file(self):
        table = Table({
            "x": np.arange(10, dtype=np.int64),
            "f": (np.arange(10) / 9).astype(np.float32),
        })
        dev = SimulatedStorage()
        BullionWriter(
            dev,
            options=WriterOptions(
                quantization=QuantizationPolicy(default=FloatFormat.BF16)
            ),
        ).write(table)
        return dev

    def test_quantized_column_keeps_its_layout(self):
        dev = self._quantized_file()
        target = SimulatedStorage()
        rewrite_without_rows(dev, [3], target)
        source, rewritten = BullionReader(dev), BullionReader(target)
        assert [
            (c.name, str(c.type)) for c in rewritten.footer.physical_columns()
        ] == [(c.name, str(c.type)) for c in source.footer.physical_columns()]
        keep = np.arange(10) != 3
        before = source.project(["x", "f"], widen_quantized=True)
        after = rewritten.project(["x", "f"], widen_quantized=True)
        assert after.equals(before.take_mask(keep))
        assert 0.1 < float(np.asarray(after.column("f"))[1]) < 0.12

    @pytest.mark.parametrize("bad", [[-1], [10], [2, 10]])
    def test_out_of_range_row_ids_rejected(self, bad):
        dev = self._quantized_file()
        for delete in (
            lambda: delete_rows(dev, bad),
            lambda: rewrite_without_rows(dev, bad, SimulatedStorage()),
        ):
            with pytest.raises(ValueError, match="row id out of range"):
                delete()
        assert BullionReader(dev).project(["x"]).num_rows == 10

    def test_rows_already_deleted_stay_deleted(self):
        dev, table = _make_file(n=500)
        delete_rows(dev, [1, 2])
        target = SimulatedStorage()
        report = rewrite_without_rows(dev, [2, 7], target)
        assert report.rows_deleted == 2
        keep = np.ones(500, dtype=bool)
        keep[[1, 2, 7]] = False
        out = BullionReader(target).project(["ids", "score", "tag"])
        assert out.equals(table.take_mask(keep))


class TestMaskErrorFallback:
    def test_unmaskable_page_falls_back_to_vector(self):
        from repro.encodings import Gorilla

        rng = np.random.default_rng(9)
        table = Table({"g": rng.normal(size=400)})
        dev = SimulatedStorage()
        BullionWriter(
            dev,
            options=WriterOptions(
                rows_per_page=200,
                rows_per_group=200,
                encodings={"g": Gorilla()},
            ),
        ).write(table)
        report = delete_rows(dev, [17])
        # gorilla may or may not re-encode smaller; either way reads filter
        out = BullionReader(dev).project(["g"])
        assert out.num_rows == 399
        assert report.pages_rewritten + report.pages_vector_only >= 1
