"""Failure injection: corruption, truncation and misuse must be loud.

"Errors should never pass silently" — every malformed input should
raise a typed error or be caught by the Merkle verification, never
return silently-wrong data.
"""

import numpy as np
import pytest

from repro.core import (
    BullionReader,
    BullionWriter,
    Table,
    WriterOptions,
    delete_rows,
)
from repro.core.footer import FooterError, FooterView
from repro.encodings import (
    EncodingError,
    FixedBitWidth,
    Trivial,
    decode_blob,
    encode_blob,
    encoding_by_id,
    encoding_by_name,
)
from repro.expr import col
from repro.iosim import SimulatedStorage


class TestBlobCorruption:
    def test_empty_blob(self):
        with pytest.raises(EncodingError, match="empty"):
            decode_blob(b"")

    def test_unknown_encoding_id(self):
        with pytest.raises(EncodingError, match="unknown encoding id"):
            decode_blob(bytes([250]) + b"\x00" * 10)

    def test_unknown_encoding_name(self):
        with pytest.raises(EncodingError, match="unknown encoding"):
            encoding_by_name("lzma_turbo")

    def test_registry_lookup(self):
        assert encoding_by_id(Trivial.id) is Trivial

    def test_truncated_payload_raises(self):
        blob = encode_blob(np.arange(100, dtype=np.int64), Trivial())
        with pytest.raises(Exception):
            decode_blob(blob[: len(blob) // 2])

    def test_truncated_bitpack_raises(self):
        blob = encode_blob(np.arange(1000, dtype=np.int64), FixedBitWidth())
        with pytest.raises(Exception):
            decode_blob(blob[:-20])


class TestFileCorruption:
    def _file(self):
        rng = np.random.default_rng(0)
        table = Table(
            {
                "a": rng.integers(0, 100, 500).astype(np.int64),
                "b": rng.normal(size=500),
            }
        )
        dev = SimulatedStorage()
        footer = BullionWriter(
            dev, options=WriterOptions(rows_per_page=100, rows_per_group=100)
        ).write(table)
        return dev, footer

    def test_truncated_file(self):
        dev, _f = self._file()
        dev.truncate(dev.size // 2)
        with pytest.raises(Exception):
            BullionReader(dev)

    def test_corrupt_tail_magic(self):
        dev, _f = self._file()
        dev.corrupt(dev.size - 2, b"XX")
        with pytest.raises(Exception, match="magic"):
            BullionReader(dev)

    def test_corrupt_footer_header(self):
        dev, footer = self._file()
        dev.corrupt(footer.file_offset, b"EVIL")
        with pytest.raises(FooterError, match="magic"):
            BullionReader(dev)

    def test_page_corruption_caught_by_merkle(self):
        dev, footer = self._file()
        page = footer.page(3)
        dev.corrupt(page.offset + 25, b"\xde\xad")
        reader = BullionReader(dev)
        assert not reader.verify()
        assert not reader.verify(page_ids=[3])
        assert reader.verify(page_ids=[0, 1, 2])  # others untouched

    def test_checksum_section_tamper_detected(self):
        dev, footer = self._file()
        pages_base, _g, _r = footer.checksum_file_offsets()
        dev.corrupt(pages_base, b"\x00" * 8)
        assert not BullionReader(dev).verify()

    def test_footer_view_requires_header(self):
        with pytest.raises(FooterError):
            FooterView(b"")


class TestMisuse:
    def test_project_missing_column(self):
        dev = SimulatedStorage()
        BullionWriter(dev).write(Table({"x": np.zeros(4, dtype=np.int64)}))
        with pytest.raises(KeyError):
            BullionReader(dev).project(["nope"])

    def test_delete_negative_row(self):
        dev = SimulatedStorage()
        BullionWriter(dev).write(Table({"x": np.zeros(4, dtype=np.int64)}))
        with pytest.raises(ValueError, match="range"):
            delete_rows(dev, [-1])

    def test_prune_missing_column(self):
        dev = SimulatedStorage()
        BullionWriter(dev).write(Table({"x": np.zeros(4, dtype=np.int64)}))
        with pytest.raises(KeyError):
            BullionReader(dev).prune_row_groups_expr(col("nope") >= 0)


class TestDeletionPropertyStyle:
    """Randomized end-to-end: delete arbitrary subsets, reads stay exact."""

    @pytest.mark.parametrize("seed", range(5))
    def test_random_delete_sequences(self, seed):
        rng = np.random.default_rng(seed)
        n = 700
        table = Table(
            {
                "i": rng.integers(0, 50, n).astype(np.int64),
                "f": np.round(rng.normal(size=n), 2),
                "s": [b"v%d" % (i % 7) for i in range(n)],
            }
        )
        dev = SimulatedStorage()
        BullionWriter(
            dev, options=WriterOptions(rows_per_page=128, rows_per_group=256)
        ).write(table)
        deleted: set[int] = set()
        for _round in range(3):
            batch = rng.choice(n, size=rng.integers(1, 40), replace=False)
            delete_rows(dev, batch)
            deleted.update(int(b) for b in batch)
            reader = BullionReader(dev)
            assert reader.verify()
            out = reader.project(["i", "f", "s"])
            keep = np.array([i not in deleted for i in range(n)])
            assert out.equals(table.take_mask(keep))
