"""Cross-file batches answer exactly what one file at a time answered.

The query engine decodes the row groups of many files in one batch,
cut at a byte budget. These tests pin that the budget is invisible:
every answer — float sums and means compared by ``float.hex`` — and
every ``QueryStats``/``ScanStats`` count equals the golden values below,
recorded when the engine still read one file at a time, for a budget
smaller than one row group (each file split over several batches), one
that ends exactly at a file boundary, the whole table in one batch, and
the default. The datasets mix the shapes a batch must keep apart: files
with deletion vectors beside clean ones, old-schema files beside
current ones, group keys only some files hold, all-NaN files, ``-0.0``
sums, and ``ALWAYS`` row groups answered from zone maps between
decoded ones.
"""

import dataclasses

import numpy as np
import pytest

from repro.catalog import (
    AddColumn,
    CatalogTable,
    MemoryCatalogStore,
    WidenColumn,
)
from repro.core import Table, WriterOptions, reader
from repro.expr import col
from repro.query import QueryPlan, engine

ROWS = 120  # per file: three 40-row groups of two pages
_OPTS = WriterOptions(rows_per_page=20, rows_per_group=40)


def _mixed() -> CatalogTable:
    """Six files; ``g`` keys 0-3, but files 0 and 2 hold only 0 and 1,
    file 4 only 3, and file 5 two new keys per row group (so keys
    arrive while a file's float total is still open); ``x`` spans
    sixteen decades with NaN holes, ``z`` is all NaN in file 3, ``nz``
    is -0.0 everywhere; files 1 and 4 carry deletion vectors."""
    cat = CatalogTable.create(MemoryCatalogStore())
    rng = np.random.default_rng(27)
    for k in range(6):
        i = np.arange(ROWS)
        g = (i % 4).astype(np.int32)
        if k in (0, 2):
            g = (i % 2).astype(np.int32)
        elif k == 4:
            g = np.full(ROWS, 3, dtype=np.int32)
        elif k == 5:
            g = (i // 30).astype(np.int32)
        x = rng.normal(size=ROWS) * 10.0 ** rng.integers(-8, 8, ROWS)
        x[rng.random(ROWS) < 0.1] = np.nan
        z = np.full(ROWS, np.nan) if k == 3 else rng.normal(size=ROWS)
        cat.append(
            Table({
                "ts": np.arange(k * ROWS, (k + 1) * ROWS, dtype=np.int64),
                "g": g,
                "x": x,
                "z": z,
                "nz": np.full(ROWS, -0.0),
            }),
            options=_OPTS,
        )
    # a row in file 1 and two in file 4: both are copied with a
    # deletion vector, the other four stay clean
    cat.delete(col("ts").isin([ROWS + 7, 4 * ROWS + 50, 4 * ROWS + 51]))
    return cat


def _evolved() -> CatalogTable:
    """Three files at schema 0 (``i`` int32, no ``extra``), then ``i``
    widened to int64 and ``extra`` added, then two files at schema 1."""
    cat = CatalogTable.create(MemoryCatalogStore())
    rng = np.random.default_rng(28)
    for k in range(5):
        if k == 3:
            cat.evolve(WidenColumn("i", "int64"), AddColumn("extra", "double"))
        cols = {
            "ts": np.arange(k * ROWS, (k + 1) * ROWS, dtype=np.int64),
            "g": rng.integers(0, 3, ROWS).astype(np.int32),
            "x": rng.normal(size=ROWS) * 1e3,
            "i": rng.integers(-(2**20), 2**20, ROWS).astype(
                np.int64 if k >= 3 else np.int32
            ),
        }
        if k >= 3:
            cols["extra"] = rng.normal(size=ROWS)
        cat.append(Table(cols), options=_OPTS)
    return cat


_FLOAT_AGGS = ["count", "count(x)", "sum(x)", "mean(x)", "min(x)", "max(x)"]

#: case -> (dataset, aggregates, where, group_by)
CASES = {
    "maybe": ("mixed", _FLOAT_AGGS, col("x") > -1e-3, None),
    "maybe_grouped": ("mixed", _FLOAT_AGGS, col("x") > -1e-3, ["g"]),
    "unfiltered_grouped": ("mixed", _FLOAT_AGGS, None, ["g"]),
    "nan_and_negative_zero": (
        "mixed", ["sum(z)", "mean(z)", "count(z)", "sum(nz)", "mean(nz)"],
        None, None,
    ),
    "nan_and_negative_zero_grouped": (
        "mixed", ["sum(z)", "mean(z)", "count(z)", "sum(nz)", "mean(nz)"],
        col("g") != 2, ["g"],
    ),
    # ts cuts the middle group of file 2: its first group and every
    # group of files 0-1 are ALWAYS (zone maps answer them), the rest
    # NEVER; with a sum the ALWAYS groups decode, unfiltered
    "always_meta": (
        "mixed", ["count", "min(ts)", "max(ts)", "min(x)"],
        col("ts") < 2 * ROWS + 60, None,
    ),
    "always_decoded": (
        "mixed", ["count", "sum(x)", "max(ts)"], col("ts") < 2 * ROWS + 60,
        None,
    ),
    "old_schema": (
        "evolved", ["count", "sum(x)", "sum(i)", "max(i)", "sum(extra)",
                    "count(extra)"], col("x") > -300.0, ["g"],
    ),
    "old_schema_ungrouped": (
        "evolved", ["count", "sum(x)", "mean(extra)", "min(i)"],
        (col("i") > 0) | (col("extra") > 0.5), None,
    ),
}


def _hex(value):
    return value.hex() if isinstance(value, float) else value


def _answer(cat, case):
    """A case's rows (floats as ``float.hex``) and every stats count."""
    _data, aggs, where, group_by = CASES[case]
    res = cat.query(QueryPlan.build(aggs, where=where, group_by=group_by))
    rows = [tuple(_hex(v) for v in row.values()) for row in res.rows]
    return rows, dataclasses.asdict(res.stats)


@pytest.fixture(scope="module")
def tables():
    return {"mixed": _mixed(), "evolved": _evolved()}


#: recorded with one file decoded at a time
GOLDEN = {
    "always_decoded": (
        [(299, "0x1.33a8eea7914a7p+23", 299)],
        {"files_total": 6,
         "files_pruned": 3,
         "files_meta_answered": 0,
         "files_footer_answered": 0,
         "files_decoded": 3,
         "groups_meta_answered": 0,
         "groups_decoded": 8,
         "rows_from_metadata": 0,
         "scan": {"files_scanned": 3,
                  "files_pruned": 3,
                  "groups_total": 9,
                  "groups_pruned": 1,
                  "groups_scanned": 8,
                  "groups_empty": 0,
                  "rows_pruned": 400,
                  "rows_scanned": 320,
                  "rows_matched": 299,
                  "chunks_fetched": 16,
                  "chunks_skipped": 0}},
    ),
    "always_meta": (
        [(299, 0, 299, "-0x1.d1e2ac395c4dfp+23")],
        {"files_total": 6,
         "files_pruned": 3,
         "files_meta_answered": 1,
         "files_footer_answered": 0,
         "files_decoded": 2,
         "groups_meta_answered": 1,
         "groups_decoded": 4,
         "rows_from_metadata": 160,
         "scan": {"files_scanned": 2,
                  "files_pruned": 3,
                  "groups_total": 6,
                  "groups_pruned": 1,
                  "groups_scanned": 4,
                  "groups_empty": 0,
                  "rows_pruned": 400,
                  "rows_scanned": 160,
                  "rows_matched": 139,
                  "chunks_fetched": 8,
                  "chunks_skipped": 0}},
    ),
    "maybe": (
        [(437, 437, "0x1.6e6fc4172088dp+27", "0x1.ad537f3a24f25p+18",
          "-0x1.cb6f60a56a6bdp-11", "0x1.2b4fc4a21c85bp+24")],
        {"files_total": 6,
         "files_pruned": 0,
         "files_meta_answered": 0,
         "files_footer_answered": 0,
         "files_decoded": 6,
         "groups_meta_answered": 0,
         "groups_decoded": 18,
         "rows_from_metadata": 0,
         "scan": {"files_scanned": 6,
                  "files_pruned": 0,
                  "groups_total": 18,
                  "groups_pruned": 0,
                  "groups_scanned": 18,
                  "groups_empty": 0,
                  "rows_pruned": 0,
                  "rows_scanned": 720,
                  "rows_matched": 437,
                  "chunks_fetched": 18,
                  "chunks_skipped": 0}},
    ),
    "maybe_grouped": (
        [(0, 140, 140, "0x1.fe24ff782feb6p+25", "0x1.d26af8335f031p+18",
          "-0x1.cb6f60a56a6bdp-11", "0x1.92b174817aa91p+23"),
         (1, 120, 120, "0x1.0e752527ab386p+26", "0x1.207cf46e94806p+19",
          "-0x1.16d3f6e06d865p-11", "0x1.fa2c7db9f2d16p+23"),
         (2, 48, 48, "0x1.1496ae353dfc0p+21", "0x1.70c8e846fd500p+15",
          "-0x1.7ad67f498397fp-11", "0x1.9d315164586abp+19"),
         (3, 129, 129, "0x1.8d665bb1a7e76p+25", "0x1.8a51b841259c2p+18",
          "-0x1.7253269fbaffep-11", "0x1.2b4fc4a21c85bp+24")],
        {"files_total": 6,
         "files_pruned": 0,
         "files_meta_answered": 0,
         "files_footer_answered": 0,
         "files_decoded": 6,
         "groups_meta_answered": 0,
         "groups_decoded": 18,
         "rows_from_metadata": 0,
         "scan": {"files_scanned": 6,
                  "files_pruned": 0,
                  "groups_total": 18,
                  "groups_pruned": 0,
                  "groups_scanned": 18,
                  "groups_empty": 0,
                  "rows_pruned": 0,
                  "rows_scanned": 720,
                  "rows_matched": 437,
                  "chunks_fetched": 36,
                  "chunks_skipped": 0}},
    ),
    "nan_and_negative_zero": (
        [("0x1.3022b4aeae801p+5", "0x1.04d54ba087eeep-4", 597, "0x0.0p+0",
          "0x0.0p+0")],
        {"files_total": 6,
         "files_pruned": 0,
         "files_meta_answered": 0,
         "files_footer_answered": 0,
         "files_decoded": 6,
         "groups_meta_answered": 0,
         "groups_decoded": 18,
         "rows_from_metadata": 0,
         "scan": {"files_scanned": 6,
                  "files_pruned": 0,
                  "groups_total": 18,
                  "groups_pruned": 0,
                  "groups_scanned": 18,
                  "groups_empty": 0,
                  "rows_pruned": 0,
                  "rows_scanned": 720,
                  "rows_matched": 717,
                  "chunks_fetched": 36,
                  "chunks_skipped": 0}},
    ),
    "nan_and_negative_zero_grouped": (
        [(0, "0x1.148417d6eecafp+3", "0x1.8944662bfe487p-5", 180, "0x0.0p+0",
          "0x0.0p+0"),
         (1, "0x1.ed29422baff99p+3", "0x1.5eb1401f110c8p-4", 180, "0x0.0p+0",
          "0x0.0p+0"),
         (3, "0x1.43a68eaaed26cp+2", "0x1.d41ad705adc74p-6", 177, "0x0.0p+0",
          "0x0.0p+0")],
        {"files_total": 6,
         "files_pruned": 0,
         "files_meta_answered": 0,
         "files_footer_answered": 0,
         "files_decoded": 6,
         "groups_meta_answered": 0,
         "groups_decoded": 18,
         "rows_from_metadata": 0,
         "scan": {"files_scanned": 6,
                  "files_pruned": 0,
                  "groups_total": 18,
                  "groups_pruned": 0,
                  "groups_scanned": 18,
                  "groups_empty": 0,
                  "rows_pruned": 0,
                  "rows_scanned": 720,
                  "rows_matched": 627,
                  "chunks_fetched": 54,
                  "chunks_skipped": 0}},
    ),
    "old_schema": (
        [(0, 121, "0x1.0f77dd6f69292p+16", 2455996, 1032805,
          "0x1.0fc32dbaa11b6p+0", 54),
         (1, 112, "0x1.08d4cf717aed2p+16", -7423718, 996754,
          "0x1.24cc04dfd8ec2p+3", 51),
         (2, 129, "0x1.392807d4f8375p+16", 6902048, 1041922,
          "0x1.c68ed72a08360p-1", 45)],
        {"files_total": 5,
         "files_pruned": 0,
         "files_meta_answered": 0,
         "files_footer_answered": 0,
         "files_decoded": 5,
         "groups_meta_answered": 0,
         "groups_decoded": 15,
         "rows_from_metadata": 0,
         "scan": {"files_scanned": 5,
                  "files_pruned": 0,
                  "groups_total": 15,
                  "groups_pruned": 0,
                  "groups_scanned": 15,
                  "groups_empty": 0,
                  "rows_pruned": 0,
                  "rows_scanned": 600,
                  "rows_matched": 362,
                  "chunks_fetched": 51,
                  "chunks_skipped": 0}},
    ),
    "old_schema_ungrouped": (
        [(338, "0x1.75320b562fc91p+12", "0x1.b5341282b197dp-2", -1020454)],
        {"files_total": 5,
         "files_pruned": 0,
         "files_meta_answered": 0,
         "files_footer_answered": 0,
         "files_decoded": 5,
         "groups_meta_answered": 0,
         "groups_decoded": 15,
         "rows_from_metadata": 0,
         "scan": {"files_scanned": 5,
                  "files_pruned": 0,
                  "groups_total": 15,
                  "groups_pruned": 0,
                  "groups_scanned": 15,
                  "groups_empty": 0,
                  "rows_pruned": 0,
                  "rows_scanned": 600,
                  "rows_matched": 338,
                  "chunks_fetched": 36,
                  "chunks_skipped": 0}},
    ),
    "unfiltered_grouped": (
        [(0, 210, 184, "0x1.0685bcb5d1c05p+25", "0x1.6d3fa26123d3fp+17",
          "-0x1.d1e2ac395c4dfp+23", "0x1.92b174817aa91p+23"),
         (1, 210, 191, "0x1.34f0703f55bf9p+23", "0x1.9e135a21f4f0bp+15",
          "-0x1.035f0d7052e05p+24", "0x1.fa2c7db9f2d16p+23"),
         (2, 90, 74, "-0x1.0a892987b8099p+22", "-0x1.cd08ede3d68d1p+15",
          "-0x1.5ae52a719b3b6p+22", "0x1.9d315164586abp+19"),
         (3, 207, 190, "-0x1.c5e6bbcd1e4c0p+22", "-0x1.31c9408a2f5bap+15",
          "-0x1.a135e0b961201p+23", "0x1.2b4fc4a21c85bp+24")],
        {"files_total": 6,
         "files_pruned": 0,
         "files_meta_answered": 0,
         "files_footer_answered": 0,
         "files_decoded": 6,
         "groups_meta_answered": 0,
         "groups_decoded": 18,
         "rows_from_metadata": 0,
         "scan": {"files_scanned": 6,
                  "files_pruned": 0,
                  "groups_total": 18,
                  "groups_pruned": 0,
                  "groups_scanned": 18,
                  "groups_empty": 0,
                  "rows_pruned": 0,
                  "rows_scanned": 720,
                  "rows_matched": 717,
                  "chunks_fetched": 36,
                  "chunks_skipped": 0}},
    ),
}


def _file_bytes(cat, case) -> int:
    """The batch bytes of one whole file under ``case``'s plan."""
    _data, aggs, where, group_by = CASES[case]
    plan = QueryPlan.build(aggs, where=where, group_by=group_by)
    return 8 * max(1, len(plan.scan_columns())) * ROWS


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize(
    "budget", ["below_one_group", "file_boundary", "whole_table", "default"]
)
def test_batches_answer_as_files_did(tables, monkeypatch, case, budget):
    cat = tables[CASES[case][0]]
    if budget != "default":
        monkeypatch.setattr(reader, "_BATCH_BYTES", {
            "below_one_group": 1,
            "file_boundary": 2 * _file_bytes(cat, case),
            "whole_table": 1 << 40,
        }[budget])
    rows, stats = _answer(cat, case)
    expected_rows, expected_stats = GOLDEN[case]
    assert rows == expected_rows
    assert stats == expected_stats


def test_old_schema_pruned_groups_are_candidates(tables):
    """Every row group of an opened file counts in ``groups_total``,
    one the zone maps prune included — old-schema files too, on the
    grouped (never metadata-answered) path."""
    res = tables["evolved"].query(
        ["count", "sum(x)"], where=col("x") > 2500.0, group_by=["g"]
    )
    s = res.stats
    assert (s.files_decoded, s.scan.groups_pruned) == (2, 4)
    assert s.scan.groups_total == 6 == (
        s.scan.groups_pruned + s.groups_meta_answered + s.scan.groups_scanned
    )


def test_per_segment_sums_are_not_reduceat():
    """Ungrouped float sums are one pairwise ``np.sum`` per row group,
    folded in order. ``np.add.reduceat`` over the same segments adds in
    another order: on these segments it changes the bits, so an engine
    that used it would fail the golden answers above."""
    rng = np.random.default_rng(5)
    values = rng.normal(size=4000) * 10.0 ** rng.integers(-8, 8, 4000)
    starts = np.arange(0, 4000, 40)
    matched = np.full(len(starts), 40)
    _bounds, _keys, sums = engine._segment_sums(
        values, None, None, matched, 1
    )
    assert [s.hex() for s in sums.tolist()] == [
        np.sum(values[a : a + 40]).hex() for a in starts.tolist()
    ]
    reduceat = np.add.reduceat(values, starts)
    assert any(a != b for a, b in zip(sums.tolist(), reduceat.tolist()))
