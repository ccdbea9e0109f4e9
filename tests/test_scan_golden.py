"""Golden scan digests for both reader kinds, and for snapshot scans.

Every case digests each batch a scan yields (row count, then per
column its container, dtype and bytes) and records the scan's
:class:`ScanStats`. The digests below were recorded from the read
paths as they stood before ``Scan``, the old-schema resolver and the
query engine came to share one fetch → filter → late-materialize core:

* a plain file must yield the same batches and count the same stats;
* an old-schema file (rename + widen + add) must yield the same rows —
  the earlier resolver loop skipped empty batches, so its digests cover
  non-empty batches only — and must count exactly what its plain twin
  (a file holding the same rows under the current schema) counts.

Run this file as a script to print the digests of the code at hand.
"""

import hashlib
from collections import Counter
from dataclasses import astuple

import numpy as np
import pytest

from repro.catalog.schema_evolution import (
    AddColumn,
    FileResolution,
    RenameColumn,
    ResolvedReader,
    WidenColumn,
    apply_ops,
    schema_from_footer,
)
from repro.core import BullionReader, BullionWriter, Table, WriterOptions
from repro.core import delete_rows
from repro.core.reader import ScanStats
from repro.encodings import RaggedColumn
from repro.expr import col
from repro.iosim import SimulatedStorage
from repro.quantization import FloatFormat, QuantizationPolicy

N = 600
OPTS = dict(rows_per_page=50, rows_per_group=100)
#: a few scattered rows, and every row of group 4
DELETED = list(range(10, 30)) + [250, 251, 257] + list(range(400, 500))


def _rows(ts_dtype):
    i = np.arange(N)
    return {
        "ts": i.astype(ts_dtype),
        "v": np.linspace(0.0, 1.0, N).astype(np.float32),
        # exact in bf16 and fp8, so a plain float32 twin holds the same
        "q": ((i % 8) * 0.25 - 0.5).astype(np.float32),
        "h": ((i % 16) * 0.125).astype(np.float32),
        "tag": [b"t%d" % (k % 7) for k in range(N)],
        "seq": [np.arange(k % 4, dtype=np.int64) + k for k in range(N)],
    }


def _write(columns, assignments):
    dev = SimulatedStorage()
    policy = QuantizationPolicy(assignments=assignments)
    BullionWriter(
        dev, options=WriterOptions(quantization=policy, **OPTS)
    ).write(Table(columns))
    delete_rows(dev, DELETED)
    return BullionReader(dev)


QUANTIZED = {"q": FloatFormat.BF16, "h": FloatFormat.FP8_E4M3}
EVOLUTION = (
    RenameColumn("v", "value"),
    WidenColumn("ts", "int64"),
    WidenColumn("q", "float"),
    AddColumn("extra", "int64"),
    AddColumn("eq", "bfloat16"),
    AddColumn("et", "string"),
)


def _sources():
    """``plain``: int64 ts, bf16 ``q``; ``old``: int32 ts read through
    :data:`EVOLUTION`; ``twin``: the old file's rows stored under the
    current schema (without the added columns)."""
    plain = _write(_rows(np.int64), QUANTIZED)
    stored = _write(_rows(np.int32), QUANTIZED)
    file_schema = schema_from_footer(stored.footer, 0)
    current = apply_ops(
        file_schema,
        EVOLUTION,
        new_schema_id=1,
        next_field_id=file_schema.max_field_id() + 1,
    )
    old = ResolvedReader(stored, FileResolution(file_schema, current))
    twin_rows = _rows(np.int64)
    twin_rows["value"] = twin_rows.pop("v")
    twin_rows = {c.name: twin_rows[c.name] for c in current.columns[:6]}
    twin = _write(twin_rows, {"h": FloatFormat.FP8_E4M3})
    return {"plain": plain, "old": old, "twin": twin}


# (name, columns, scan keyword arguments, how: "iter" | "table" | "project");
# ``v`` names ``value`` on the old file and its twin, and a callable
# ``where`` is called with that name
_ALL = ["ts", "v", "q", "h", "tag", "seq"]
_NARROW_NEVER_MATCHES = (col("ts") > 130) & (col("ts") < 131)
CASES = [
    ("all", _ALL, {}, "iter"),
    ("keep_deleted", _ALL, {"drop_deleted": False}, "iter"),
    ("widen", ["ts", "q", "h"], {"widen_quantized": True}, "iter"),
    # groups 0-1 NEVER, 2 MAYBE, 3-5 ALWAYS (4 wholly deleted)
    ("ts_ge_250", _ALL, {"where": col("ts") >= 250}, "iter"),
    ("ts_ge_250_keep_widen", ["ts", "q", "seq"],
     {"where": col("ts") >= 250, "drop_deleted": False,
      "widen_quantized": True}, "iter"),
    # a MAYBE group whose filter empties it, one emptied by deletions
    ("maybe_empties", ["ts", "v", "tag"],
     {"where": _NARROW_NEVER_MATCHES}, "iter"),
    ("maybe_deleted", ["ts", "v"], {"where": col("ts") == 20}, "iter"),
    ("quantized_filter", ["q", "v", "ts"], {"where": col("q") > 0.0}, "iter"),
    ("quantized_filter_widen", ["q", "h"],
     {"where": (col("q") > 0.0) & (col("h") < 1.0),
      "widen_quantized": True}, "iter"),
    ("filter_not_projected", ["tag", "seq"],
     {"where": col("ts") >= 250}, "iter"),
    ("bytes_filter", ["ts", "tag"], {"where": col("tag") == b"t3"}, "iter"),
    ("shuffled", _ALL, {"row_groups": [3, 0, 5, 1, 4]}, "iter"),
    ("shuffled_where", ["ts", "v"],
     {"row_groups": [5, 2, 0, 3], "where": col("ts") >= 250}, "iter"),
    ("batch_64", ["ts", "v", "seq"],
     {"batch_size": 64, "where": lambda v: col(v) < 0.8}, "iter"),
    ("batch_64_shuffled", ["ts", "tag"],
     {"batch_size": 64, "row_groups": [4, 1, 3]}, "iter"),
    ("empty_never", _ALL, {"where": col("ts") < 0}, "table"),
    ("empty_never_widen", ["q", "h", "v"],
     {"where": col("ts") < 0, "widen_quantized": True}, "table"),
    ("empty_groups", _ALL, {"row_groups": []}, "table"),
    ("empty_maybe", _ALL, {"where": _NARROW_NEVER_MATCHES}, "table"),
    ("to_table_where", _ALL, {"where": col("ts") >= 250}, "table"),
    ("project", _ALL, {}, "project"),
    ("project_widen_keep", ["q", "h", "ts"],
     {"widen_quantized": True, "drop_deleted": False}, "project"),
]
#: cases only the old file can run: they touch the added columns
OLD_CASES = [
    ("added", ["ts", "extra", "eq", "et", "q"], {}, "iter"),
    ("added_widen", ["eq", "q", "value"], {"widen_quantized": True}, "iter"),
    ("filter_on_added", ["ts", "value"], {"where": col("extra") == 0}, "iter"),
    ("filter_on_added_nan", ["ts", "eq"], {"where": col("eq") > 0.0}, "iter"),
    ("filter_added_and_stored", ["extra", "value"],
     {"where": (col("extra") == 0) & (col("ts") >= 250)}, "iter"),
    ("added_empty", ["extra", "eq", "et", "q"],
     {"where": col("ts") < 0}, "table"),
    ("added_empty_widen", ["eq", "q", "extra"],
     {"row_groups": [], "widen_quantized": True}, "table"),
    ("added_project", ["et", "eq", "ts"], {}, "project"),
]


def _hash_values(h, values) -> None:
    if isinstance(values, RaggedColumn):
        flat = values.compact()
        h.update(b"ragged" + flat.values.dtype.str.encode())
        h.update(flat.values.tobytes() + flat.lens.tobytes())
    elif isinstance(values, np.ndarray):
        h.update(b"array" + values.dtype.str.encode())
        h.update(np.ascontiguousarray(values).tobytes())
    elif isinstance(values, (bytes, bytearray)):
        h.update(b"bytes%d:" % len(values) + bytes(values))
    else:
        h.update(b"list%d" % len(values))
        for item in values:
            _hash_values(h, item)


def _digest(batches) -> str:
    h = hashlib.sha256()
    for batch in batches:
        h.update(b"batch%d" % batch.num_rows)
        for name, values in batch.columns.items():
            h.update(name.encode())
            _hash_values(h, values)
    return h.hexdigest()[:16]


def _run(reader, columns, kwargs, how, renamed):
    v = "value" if renamed else "v"
    columns = [v if c == "v" else c for c in columns]
    where = kwargs.get("where")
    if callable(where):
        kwargs = {**kwargs, "where": where(v)}
    if how == "project":
        return [reader.project(columns, **kwargs)], None
    stats = ScanStats.unmirrored()
    scan = reader.scan(columns, scan_stats=stats, **kwargs)
    batches = [scan.to_table()] if how == "table" else list(scan)
    return batches, astuple(stats)


@pytest.fixture(scope="module")
def sources():
    return _sources()


def _observe(sources):
    """Every case's ``(digest, digest of non-empty batches, stats)``."""
    out = {}
    for source in ("plain", "twin", "old"):
        cases = CASES + (OLD_CASES if source == "old" else [])
        for name, columns, kwargs, how in cases:
            batches, stats = _run(
                sources[source], columns, kwargs, how, source != "plain"
            )
            nonempty = [b for b in batches if b.num_rows] or batches[:1]
            out[f"{source}/{name}"] = (
                _digest(batches), _digest(nonempty), stats
            )
    return out


#: ``source/case -> (digest, digest of non-empty batches, stats)``
GOLDEN = {
    'plain/all': ('37e77fc60922522f', '588d0d06c3351729', (1, 0, 6, 0, 6, 0, 0, 600, 477, 36, 0)),
    'plain/keep_deleted': ('03c5d987dfe5c2d4', '03c5d987dfe5c2d4', (1, 0, 6, 0, 6, 0, 0, 600, 600, 36, 0)),
    'plain/widen': ('dd06d43ae1f597f8', 'e6fdf7aecbb55ee7', (1, 0, 6, 0, 6, 0, 0, 600, 477, 18, 0)),
    'plain/ts_ge_250': ('1926615376c25e5d', '1926615376c25e5d', (1, 0, 6, 2, 4, 1, 200, 400, 247, 24, 0)),
    'plain/ts_ge_250_keep_widen': ('e786890ef7dbb53f', 'e786890ef7dbb53f', (1, 0, 6, 2, 4, 0, 200, 400, 350, 12, 0)),
    'plain/maybe_empties': ('e3b0c44298fc1c14', 'e3b0c44298fc1c14', (1, 0, 6, 5, 1, 1, 500, 100, 0, 1, 2)),
    'plain/maybe_deleted': ('e3b0c44298fc1c14', 'e3b0c44298fc1c14', (1, 0, 6, 5, 1, 1, 500, 100, 0, 1, 1)),
    'plain/quantized_filter': ('ffb97a1b39367047', 'ffb97a1b39367047', (1, 0, 6, 0, 6, 1, 0, 600, 300, 16, 2)),
    'plain/quantized_filter_widen': ('55664beb6ceca9ba', '55664beb6ceca9ba', (1, 0, 6, 0, 6, 1, 0, 600, 154, 12, 0)),
    'plain/filter_not_projected': ('c95291edfc7da5ec', 'c95291edfc7da5ec', (1, 0, 6, 2, 4, 1, 200, 400, 247, 9, 0)),
    'plain/bytes_filter': ('96bf4089079dc01b', '96bf4089079dc01b', (1, 0, 6, 0, 6, 1, 0, 600, 69, 11, 1)),
    'plain/shuffled': ('6a523895c791e394', 'a4c6a3b477a56ac9', (1, 0, 5, 0, 5, 0, 0, 500, 380, 30, 0)),
    'plain/shuffled_where': ('c70f8d75a2538641', 'c70f8d75a2538641', (1, 0, 4, 1, 3, 0, 100, 300, 247, 6, 0)),
    'plain/batch_64': ('eecd12c40ab8fff4', 'eecd12c40ab8fff4', (1, 0, 6, 1, 5, 1, 100, 500, 377, 13, 2)),
    'plain/batch_64_shuffled': ('34e1db03e2df41da', '34e1db03e2df41da', (1, 0, 3, 0, 3, 0, 0, 300, 200, 6, 0)),
    'plain/empty_never': ('7f868cf0476b9a31', '7f868cf0476b9a31', (1, 0, 6, 6, 0, 0, 600, 0, 0, 0, 0)),
    'plain/empty_never_widen': ('b31565b8410c935e', 'b31565b8410c935e', (1, 0, 6, 6, 0, 0, 600, 0, 0, 0, 0)),
    'plain/empty_groups': ('7f868cf0476b9a31', '7f868cf0476b9a31', (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
    'plain/empty_maybe': ('7f868cf0476b9a31', '7f868cf0476b9a31', (1, 0, 6, 5, 1, 1, 500, 100, 0, 1, 5)),
    'plain/to_table_where': ('07393bbf8b43e788', '07393bbf8b43e788', (1, 0, 6, 2, 4, 1, 200, 400, 247, 24, 0)),
    'plain/project': ('9e020fbf127118e3', '9e020fbf127118e3', None),
    'plain/project_widen_keep': ('796963be7a8999ae', '796963be7a8999ae', None),
    'twin/all': ('a3e47457f5d6516b', '9aa8ac432a6c9bae', (1, 0, 6, 0, 6, 0, 0, 600, 477, 36, 0)),
    'twin/keep_deleted': ('75edcb6c0082eed8', '75edcb6c0082eed8', (1, 0, 6, 0, 6, 0, 0, 600, 600, 36, 0)),
    'twin/widen': ('dd06d43ae1f597f8', 'e6fdf7aecbb55ee7', (1, 0, 6, 0, 6, 0, 0, 600, 477, 18, 0)),
    'twin/ts_ge_250': ('9b36c6416e336767', '9b36c6416e336767', (1, 0, 6, 2, 4, 1, 200, 400, 247, 24, 0)),
    'twin/ts_ge_250_keep_widen': ('e786890ef7dbb53f', 'e786890ef7dbb53f', (1, 0, 6, 2, 4, 0, 200, 400, 350, 12, 0)),
    'twin/maybe_empties': ('e3b0c44298fc1c14', 'e3b0c44298fc1c14', (1, 0, 6, 5, 1, 1, 500, 100, 0, 1, 2)),
    'twin/maybe_deleted': ('e3b0c44298fc1c14', 'e3b0c44298fc1c14', (1, 0, 6, 5, 1, 1, 500, 100, 0, 1, 1)),
    'twin/quantized_filter': ('35057d15544a967a', '35057d15544a967a', (1, 0, 6, 0, 6, 1, 0, 600, 300, 16, 2)),
    'twin/quantized_filter_widen': ('55664beb6ceca9ba', '55664beb6ceca9ba', (1, 0, 6, 0, 6, 1, 0, 600, 154, 12, 0)),
    'twin/filter_not_projected': ('c95291edfc7da5ec', 'c95291edfc7da5ec', (1, 0, 6, 2, 4, 1, 200, 400, 247, 9, 0)),
    'twin/bytes_filter': ('96bf4089079dc01b', '96bf4089079dc01b', (1, 0, 6, 0, 6, 1, 0, 600, 69, 11, 1)),
    'twin/shuffled': ('810a207fc45c28c1', '553d96d9acd1079d', (1, 0, 5, 0, 5, 0, 0, 500, 380, 30, 0)),
    'twin/shuffled_where': ('9cc25c37b28933bd', '9cc25c37b28933bd', (1, 0, 4, 1, 3, 0, 100, 300, 247, 6, 0)),
    'twin/batch_64': ('3ce5286f59e986fd', '3ce5286f59e986fd', (1, 0, 6, 1, 5, 1, 100, 500, 377, 13, 2)),
    'twin/batch_64_shuffled': ('34e1db03e2df41da', '34e1db03e2df41da', (1, 0, 3, 0, 3, 0, 0, 300, 200, 6, 0)),
    'twin/empty_never': ('ac0f003a15c3bebd', 'ac0f003a15c3bebd', (1, 0, 6, 6, 0, 0, 600, 0, 0, 0, 0)),
    'twin/empty_never_widen': ('dd0227fb43815cb8', 'dd0227fb43815cb8', (1, 0, 6, 6, 0, 0, 600, 0, 0, 0, 0)),
    'twin/empty_groups': ('ac0f003a15c3bebd', 'ac0f003a15c3bebd', (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
    'twin/empty_maybe': ('ac0f003a15c3bebd', 'ac0f003a15c3bebd', (1, 0, 6, 5, 1, 1, 500, 100, 0, 1, 5)),
    'twin/to_table_where': ('f8ec3f143b67be9f', 'f8ec3f143b67be9f', (1, 0, 6, 2, 4, 1, 200, 400, 247, 24, 0)),
    'twin/project': ('db46d61a563c450a', 'db46d61a563c450a', None),
    'twin/project_widen_keep': ('796963be7a8999ae', '796963be7a8999ae', None),
    'old/all': ('9aa8ac432a6c9bae', '9aa8ac432a6c9bae', (1, 0, 6, 0, 6, 0, 0, 600, 477, 36, 0)),
    'old/keep_deleted': ('75edcb6c0082eed8', '75edcb6c0082eed8', (1, 0, 6, 0, 6, 0, 0, 600, 600, 36, 0)),
    'old/widen': ('e6fdf7aecbb55ee7', 'e6fdf7aecbb55ee7', (1, 0, 6, 0, 6, 0, 0, 600, 477, 18, 0)),
    'old/ts_ge_250': ('9b36c6416e336767', '9b36c6416e336767', (1, 0, 4, 2, 4, 0, 200, 400, 247, 24, 0)),
    'old/ts_ge_250_keep_widen': ('e786890ef7dbb53f', 'e786890ef7dbb53f', (1, 0, 4, 2, 4, 0, 200, 400, 350, 12, 0)),
    'old/maybe_empties': ('e3b0c44298fc1c14', 'e3b0c44298fc1c14', (1, 0, 1, 5, 1, 0, 500, 100, 0, 3, 0)),
    'old/maybe_deleted': ('e3b0c44298fc1c14', 'e3b0c44298fc1c14', (1, 0, 1, 5, 1, 0, 500, 100, 0, 2, 0)),
    'old/quantized_filter': ('35057d15544a967a', '35057d15544a967a', (1, 0, 6, 0, 6, 0, 0, 600, 300, 18, 0)),
    'old/quantized_filter_widen': ('55664beb6ceca9ba', '55664beb6ceca9ba', (1, 0, 6, 0, 6, 0, 0, 600, 154, 12, 0)),
    'old/filter_not_projected': ('c95291edfc7da5ec', 'c95291edfc7da5ec', (1, 0, 4, 2, 4, 0, 200, 400, 247, 12, 0)),
    'old/bytes_filter': ('96bf4089079dc01b', '96bf4089079dc01b', (1, 0, 6, 0, 6, 0, 0, 600, 69, 12, 0)),
    'old/shuffled': ('553d96d9acd1079d', '553d96d9acd1079d', (1, 0, 5, 0, 5, 0, 0, 500, 380, 30, 0)),
    'old/shuffled_where': ('9cc25c37b28933bd', '9cc25c37b28933bd', (1, 0, 3, 1, 3, 0, 100, 300, 247, 6, 0)),
    'old/batch_64': ('3ce5286f59e986fd', '3ce5286f59e986fd', (1, 0, 5, 1, 5, 0, 100, 500, 377, 15, 0)),
    'old/batch_64_shuffled': ('34e1db03e2df41da', '34e1db03e2df41da', (1, 0, 3, 0, 3, 0, 0, 300, 200, 6, 0)),
    'old/empty_never': ('ac0f003a15c3bebd', 'ac0f003a15c3bebd', (1, 0, 0, 6, 0, 0, 600, 0, 0, 0, 0)),
    'old/empty_never_widen': ('dd0227fb43815cb8', 'dd0227fb43815cb8', (1, 0, 0, 6, 0, 0, 600, 0, 0, 0, 0)),
    'old/empty_groups': ('ac0f003a15c3bebd', 'ac0f003a15c3bebd', (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
    'old/empty_maybe': ('ac0f003a15c3bebd', 'ac0f003a15c3bebd', (1, 0, 1, 5, 1, 0, 500, 100, 0, 6, 0)),
    'old/to_table_where': ('f8ec3f143b67be9f', 'f8ec3f143b67be9f', (1, 0, 4, 2, 4, 0, 200, 400, 247, 24, 0)),
    'old/project': ('db46d61a563c450a', 'db46d61a563c450a', None),
    'old/project_widen_keep': ('796963be7a8999ae', '796963be7a8999ae', None),
    'old/added': ('22726b62ddfa4557', '22726b62ddfa4557', (1, 0, 6, 0, 6, 0, 0, 600, 477, 12, 0)),
    'old/added_widen': ('528601ba4e794b22', '528601ba4e794b22', (1, 0, 6, 0, 6, 0, 0, 600, 477, 12, 0)),
    'old/filter_on_added': ('c027e7c8be4b672e', 'c027e7c8be4b672e', (1, 0, 6, 0, 6, 0, 0, 600, 477, 12, 0)),
    'old/filter_on_added_nan': ('e3b0c44298fc1c14', 'e3b0c44298fc1c14', (1, 0, 6, 0, 6, 0, 0, 600, 0, 6, 0)),
    'old/filter_added_and_stored': ('797ff8ade3d0de93', '797ff8ade3d0de93', (1, 0, 4, 2, 4, 0, 200, 400, 247, 8, 0)),
    'old/added_empty': ('ff151d9ded1799e7', 'ff151d9ded1799e7', (1, 0, 0, 6, 0, 0, 600, 0, 0, 0, 0)),
    'old/added_empty_widen': ('41e4896dbe06f3a4', '41e4896dbe06f3a4', (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
    'old/added_project': ('953ece92d9d34eab', '953ece92d9d34eab', None),
}


@pytest.fixture(scope="module")
def observed(sources):
    return _observe(sources)


@pytest.mark.parametrize("name", [c[0] for c in CASES])
@pytest.mark.parametrize("source", ["plain", "twin"])
def test_plain_file_matches_golden(observed, source, name):
    digest, _nonempty, stats = observed[f"{source}/{name}"]
    golden_digest, _golden_nonempty, golden_stats = GOLDEN[f"{source}/{name}"]
    assert digest == golden_digest
    assert stats == golden_stats


@pytest.mark.parametrize("name", [c[0] for c in CASES + OLD_CASES])
def test_old_schema_rows_match_golden(observed, name):
    _digest_all, nonempty, _stats = observed[f"old/{name}"]
    assert nonempty == GOLDEN[f"old/{name}"][1]


@pytest.mark.parametrize("name", [c[0] for c in CASES])
def test_old_schema_yields_and_counts_like_its_twin(observed, name):
    old_digest, _nonempty, old_stats = observed[f"old/{name}"]
    twin_digest, _twin_nonempty, twin_stats = observed[f"twin/{name}"]
    assert old_digest == twin_digest
    assert old_stats == twin_stats


@pytest.mark.parametrize("case", OLD_CASES, ids=[c[0] for c in OLD_CASES])
def test_old_schema_added_columns_are_filled_not_fetched(observed, case):
    name, columns, kwargs, how = case
    if how == "project":
        return  # project() reports no stats
    s = ScanStats(*observed[f"old/{name}"][2])
    assert s.groups_total == s.groups_pruned + s.groups_scanned
    # every scanned group fetches or skips one chunk per stored column
    # it reads, and none for an added column
    where = kwargs.get("where")
    read = set(columns) | (where.columns() if where is not None else set())
    stored = read - {"extra", "eq", "et"}
    assert s.chunks_fetched + s.chunks_skipped == (
        len(stored) * s.groups_scanned
    )


# ---------------------------------------------------------------------------
# snapshot scans: many files, one stream
# ---------------------------------------------------------------------------
#
# Each case digests the server's reply frames for the scan
# (``protocol.replay_scan_frames``; a case the wire cannot express, like
# ``drop_deleted=False``, digests the batch frames the server would
# encode) and records the ``ScanStats`` of the same scan. The digests
# were recorded when a snapshot scan still read one file at a time; the
# tests below run them under several batch budgets.

SNAP_OPTS = WriterOptions(rows_per_page=50, rows_per_group=250)


def _events(lo, n, users, rng):
    i = np.arange(lo, lo + n)
    return {
        "ts": i.astype(np.int64),
        "user": np.asarray(users, dtype=np.int64),
        "v": rng.normal(size=n).astype(np.float32),
        "tag": [b"t%d" % (k % 5) for k in i],
        "seq": [np.arange(k % 3, dtype=np.int64) + k for k in i],
    }


def _table(parts, options=SNAP_OPTS, store=None):
    from repro.catalog import CatalogTable, MemoryCatalogStore

    cat = CatalogTable.create(store or MemoryCatalogStore())
    for part in parts:
        cat.append(Table(part), options=options)
    return cat


def _many():
    """Forty files of 380-1,080 rows, so batch cuts fall mid-file."""
    rng = np.random.default_rng(41)
    parts, lo = [], 0
    for k in range(40):
        n = 380 + (k * 137) % 700
        parts.append(_events(lo, n, rng.integers(0, 50, n), rng))
        lo += n
    return _table(parts)


def _verdicts(store=None):
    """``user == 7`` is ALWAYS for files 0 and 5, for the first group of
    file 3, NEVER (manifest-pruned) for files 2 and 6, MAYBE elsewhere
    — and file 7's groups are MAYBE but hold no 7 at all."""
    rng = np.random.default_rng(42)
    users = {
        0: np.full(600, 7),
        2: rng.integers(100, 120, 600),
        3: np.concatenate([np.full(250, 7), rng.integers(0, 20, 350)]),
        4: 7 + np.arange(600) % 2,
        5: np.full(600, 7),
        6: rng.integers(100, 120, 600),
        7: np.where(np.arange(600) % 2 == 0, 3, 11),
    }
    return _table(
        [
            _events(
                600 * k, 600, users.get(k, rng.integers(0, 20, 600)), rng
            )
            for k in range(8)
        ],
        store=store,
    )


def _deleted():
    """Six files; files 1, 3 and 4 carry deletion vectors, and group 2
    of file 3 and group 0 of file 4 lose every row."""
    rng = np.random.default_rng(43)
    cat = _table([
        _events(600 * k, 600, rng.integers(0, 20, 600), rng)
        for k in range(6)
    ])
    cat.delete(
        col("ts").isin([610, 611, 650, 1000])
        | col("ts").between(1800 + 500, 1800 + 599)
        | col("ts").between(2400, 2400 + 249)
        | col("ts").isin([2900, 2950])
    )
    return cat


def _evolved():
    """Files 0-1 at schema 0 (int32 ``ts``, ``v``), file 2 after ``v``
    became ``value``, ``ts`` int64 and ``extra`` was added, files 3-5
    after ``note`` was added too: three stored shapes, one stream."""
    from repro.catalog import AddColumn, RenameColumn, WidenColumn

    rng = np.random.default_rng(44)
    cat = _table([])

    def part(k, n=500):
        cols = _events(500 * k, n, rng.integers(0, 20, n), rng)
        del cols["seq"]
        return cols

    for k in range(2):
        cols = part(k)
        cols["ts"] = cols["ts"].astype(np.int32)
        cat.append(Table(cols), options=SNAP_OPTS)
    cat.evolve(
        RenameColumn("v", "value"),
        WidenColumn("ts", "int64"),
        AddColumn("extra", "int64"),
    )
    cols = part(2)
    cols["value"] = cols.pop("v")
    cols["extra"] = np.arange(500, dtype=np.int64) % 3
    cat.append(Table(cols), options=SNAP_OPTS)
    cat.evolve(AddColumn("note", "string"))
    for k in (3, 4, 5):
        cols = part(k)
        cols["value"] = cols.pop("v")
        cols["extra"] = np.arange(500, dtype=np.int64) % 4
        cols["note"] = [b"n%d" % (j % 6) for j in range(500)]
        cat.append(Table(cols), options=SNAP_OPTS)
    return cat


def _quantized():
    rng = np.random.default_rng(45)
    policy = QuantizationPolicy(assignments=QUANTIZED)
    parts = []
    for k in range(5):
        i = np.arange(400 * k, 400 * (k + 1))
        parts.append({
            "ts": i.astype(np.int64),
            "q": ((i % 8) * 0.25 - 0.5).astype(np.float32),
            "h": ((i % 16) * 0.125).astype(np.float32),
            "v": rng.normal(size=400).astype(np.float32),
        })
    return _table(
        parts,
        WriterOptions(quantization=policy, rows_per_page=100,
                      rows_per_group=200),
    )


SNAP_TABLES = {
    "many": _many,
    "verdicts": _verdicts,
    "deleted": _deleted,
    "evolved": _evolved,
    "quantized": _quantized,
}

_EV = ["ts", "user", "v", "tag", "seq"]
# (table, name, columns, scan keyword arguments, how: "frames" | "read")
SNAP_CASES = [
    ("many", "all", _EV, {}, "frames"),
    ("many", "user_filter", ["ts", "v", "tag"], {"where": "user == 7"},
     "frames"),
    ("many", "user_filter_all", _EV, {"where": "user == 7"}, "frames"),
    ("many", "range", ["ts", "seq"], {"where": "ts >= 3000 and ts < 21000"},
     "frames"),
    ("many", "batch_100", ["ts", "v"],
     {"where": "user < 3", "batch_size": 100}, "frames"),
    ("many", "batch_4096", _EV, {"batch_size": 4096}, "frames"),
    ("verdicts", "trap", ["ts", "v", "tag"], {"where": "user == 7"},
     "frames"),
    ("verdicts", "trap_projected", ["ts", "user", "v"],
     {"where": "user == 7"}, "frames"),
    ("verdicts", "trap_and_range", ["v", "seq"],
     {"where": "user == 7 and ts >= 1700"}, "frames"),
    ("verdicts", "not_7", ["ts", "tag"], {"where": "user != 7"}, "frames"),
    ("verdicts", "trap_batch_7", ["ts"],
     {"where": "user == 7", "batch_size": 7}, "frames"),
    ("deleted", "all", _EV, {}, "frames"),
    ("deleted", "keep_deleted", _EV, {"drop_deleted": False}, "frames"),
    ("deleted", "filter", ["ts", "tag"], {"where": "ts >= 1000"}, "frames"),
    ("deleted", "filter_keep_deleted", ["ts", "v"],
     {"where": "ts >= 1000", "drop_deleted": False}, "frames"),
    ("deleted", "user_filter", ["ts", "seq"], {"where": "user == 3"},
     "frames"),
    ("deleted", "batch_333", ["ts", "user"], {"batch_size": 333}, "frames"),
    ("evolved", "all", ["ts", "user", "value", "tag", "extra", "note"], {},
     "frames"),
    ("evolved", "filter_added", ["ts", "note"], {"where": "extra == 0"},
     "frames"),
    ("evolved", "filter_widened", ["value", "extra"],
     {"where": "ts >= 700 and ts < 2300"}, "frames"),
    ("evolved", "filter_new_only", ["ts"], {"where": "note == 'n1'"},
     "frames"),
    ("quantized", "stored", ["ts", "q", "h"], {}, "frames"),
    ("quantized", "widened", ["ts", "q", "h"], {"widen_quantized": True},
     "frames"),
    ("quantized", "filter", ["q", "v"], {"where": "q > 0.0"}, "frames"),
    ("quantized", "filter_widened", ["h", "ts"],
     {"where": "q > 0.0 and h < 1.0", "widen_quantized": True}, "frames"),
    ("many", "pruned_empty", _EV, {"where": "ts < 0"}, "read"),
    ("quantized", "pruned_empty_widened", ["q", "h", "v"],
     {"where": "ts < 0", "widen_quantized": True}, "read"),
    ("evolved", "pruned_empty", ["ts", "value", "note"],
     {"where": "ts < 0"}, "read"),
    ("verdicts", "filtered_empty", ["ts", "tag"],
     {"where": "user == 5 and ts >= 4200"}, "read"),
]

#: what the server takes; anything else is digested from ``pin.scan``
_WIRE_KWARGS = {"where", "batch_size", "widen_quantized"}


def _snap_run(cat, columns, kwargs, how):
    """``(digest, stats)`` of one snapshot-scan case."""
    from repro.server import protocol

    h = hashlib.sha256()
    stats = ScanStats.unmirrored()
    with cat.pin() as pin:
        if how == "read":
            table = pin.read(columns, scan_stats=stats, **kwargs)
            return _digest([table]), astuple(stats)
        batches = list(pin.scan(columns, scan_stats=stats, **kwargs))
        if set(kwargs) <= _WIRE_KWARGS:
            sid = pin.snapshot.snapshot_id
            plan = protocol.canonical_scan_plan({"columns": columns, **kwargs})
            frames = protocol.replay_scan_frames(pin, sid, plan)
        else:
            frames = [
                protocol.dumps_canonical({"batch": protocol.encode_table(b)})
                for b in batches
            ]
    for frame in frames:
        h.update(b"%d:" % len(frame) + frame)
    return h.hexdigest()[:16], astuple(stats)


def _observe_snapshots():
    tables = {name: build() for name, build in SNAP_TABLES.items()}
    return {
        f"{table}/{name}": _snap_run(tables[table], columns, kwargs, how)
        for table, name, columns, kwargs, how in SNAP_CASES
    }


#: ``table/case -> (digest, stats)``
SNAP_GOLDEN = {
    'many/all': ('5fd09034198bb416', (40, 0, 136, 0, 136, 0, 0, 28960, 28960, 680, 0)),
    'many/user_filter': ('e3dd7ebd6983b029', (40, 0, 136, 2, 134, 6, 7, 28953, 539, 518, 18)),
    'many/user_filter_all': ('70435870cd689914', (40, 0, 136, 2, 134, 6, 7, 28953, 539, 646, 24)),
    'many/range': ('d512a1ca22412f62', (25, 15, 88, 2, 86, 0, 10660, 18300, 18000, 172, 0)),
    'many/batch_100': ('53a0bac7851a71a5', (40, 0, 136, 3, 133, 0, 27, 28933, 1719, 399, 0)),
    'many/batch_4096': ('3d4151cc9f9b4e28', (40, 0, 136, 0, 136, 0, 0, 28960, 28960, 680, 0)),
    'verdicts/trap': ('0ce88ff52fec86ce', (6, 2, 18, 0, 18, 3, 1200, 3600, 1780, 56, 9)),
    'verdicts/trap_projected': ('96f6076cc7e72e1d', (6, 2, 18, 0, 18, 3, 1200, 3600, 1780, 48, 6)),
    'verdicts/trap_and_range': ('d317892fd9e40225', (4, 4, 12, 0, 12, 3, 2400, 2400, 1161, 34, 6)),
    'verdicts/not_7': ('c199251e8697dc3b', (6, 2, 18, 1, 17, 0, 1450, 3350, 3020, 45, 0)),
    'verdicts/trap_batch_7': ('ed7bdcff2d079fa7', (6, 2, 18, 0, 18, 3, 1200, 3600, 1780, 26, 3)),
    'deleted/all': ('0ed5ee3ce9740c72', (6, 0, 18, 0, 18, 0, 0, 3600, 3244, 90, 0)),
    'deleted/keep_deleted': ('7a6fd61398c485c6', (6, 0, 18, 0, 18, 0, 0, 3600, 3600, 90, 0)),
    'deleted/filter': ('25bea07899787c11', (5, 1, 15, 1, 14, 2, 850, 2750, 2247, 28, 0)),
    'deleted/filter_keep_deleted': ('b046dd818481f5fc', (5, 1, 15, 1, 14, 0, 850, 2750, 2600, 28, 0)),
    'deleted/user_filter': ('f0a8496905b785f0', (6, 0, 18, 0, 18, 2, 0, 3600, 151, 50, 4)),
    'deleted/batch_333': ('a466871fab8d6c18', (6, 0, 18, 0, 18, 0, 0, 3600, 3244, 36, 0)),
    'evolved/all': ('baae327af03e710d', (6, 0, 12, 0, 12, 0, 0, 3000, 3000, 62, 0)),
    'evolved/filter_added': ('94e81e48c7054da7', (6, 0, 12, 0, 12, 0, 0, 3000, 1542, 26, 0)),
    'evolved/filter_widened': ('c9357d802a78059b', (4, 2, 8, 0, 8, 0, 1000, 2000, 1600, 16, 0)),
    'evolved/filter_new_only': ('b54959b0c2830d0d', (6, 0, 12, 0, 12, 6, 0, 3000, 252, 12, 6)),
    'quantized/stored': ('80fc59d7f2c9c957', (5, 0, 10, 0, 10, 0, 0, 2000, 2000, 30, 0)),
    'quantized/widened': ('b10ab94f8ab8dc02', (5, 0, 10, 0, 10, 0, 0, 2000, 2000, 30, 0)),
    'quantized/filter': ('b00c3c6e6668e01a', (5, 0, 10, 0, 10, 0, 0, 2000, 1250, 20, 0)),
    'quantized/filter_widened': ('22352ad6d2bfb5aa', (5, 0, 10, 0, 10, 0, 0, 2000, 625, 30, 0)),
    'many/pruned_empty': ('e7b7609bffdf6821', (0, 40, 0, 0, 0, 0, 28960, 0, 0, 0, 0)),
    'quantized/pruned_empty_widened': ('b31565b8410c935e', (0, 5, 0, 0, 0, 0, 2000, 0, 0, 0, 0)),
    'evolved/pruned_empty': ('b9fc47772f69854c', (0, 6, 0, 0, 0, 0, 3000, 0, 0, 0, 0)),
    'verdicts/filtered_empty': ('2572d1b6d61f2f90', (1, 7, 3, 0, 3, 3, 4200, 600, 0, 6, 3)),
}


@pytest.fixture(scope="module")
def snap_tables():
    return {name: build() for name, build in SNAP_TABLES.items()}


@pytest.mark.parametrize(
    "case", SNAP_CASES, ids=[f"{c[0]}/{c[1]}" for c in SNAP_CASES]
)
@pytest.mark.parametrize("budget", ["default", "one_group", "whole_table"])
def test_snapshot_scan_matches_golden(snap_tables, monkeypatch, case, budget):
    """The frames and counts do not depend on where batches are cut."""
    from repro.core import reader

    if budget != "default":
        monkeypatch.setattr(
            reader, "_BATCH_BYTES", 1 if budget == "one_group" else 1 << 40
        )
    table, name, columns, kwargs, how = case
    got = _snap_run(snap_tables[table], columns, kwargs, how)
    assert got == SNAP_GOLDEN[f"{table}/{name}"]


def test_many_file_batches_cut_mid_file(snap_tables):
    """The default budget cuts the ``many`` table inside a file, so the
    goldens above cover a file whose groups straddle two batches."""
    from repro.core import reader

    with snap_tables["many"].pin() as pin:
        index = pin.index()
        everything = np.arange(len(index.files))
        index.fill(everything, pin._reader_for)
        state = index.read.state()
        plan = state.plan(
            np.arange(state.n_groups), _EV, None, Counter(),
            lambda i: pin._reader_for(index.files[i].file_id),
            files=len(everything),
        )
    cuts = [
        (plan.files[lo], plan.g[lo])
        for lo, _hi in reader._batches(plan, reader._BATCH_BYTES)
    ]
    assert len(cuts) > 1
    assert any(g > 0 for _file, g in cuts)


def _sleeping_requests():
    """Every storage request of four snapshot scans of the ``verdicts``
    table, its data files behind an object store that sleeps out each
    request: ``{case: (count, digest)}``. With one worker the digest
    covers the requests in issue order; with four, the look-ahead's
    threads race, so it covers them sorted."""
    from repro.catalog import MemoryCatalogStore
    from repro.iosim import ObjectStorage, SeekModel

    log = []

    class SleepingStore(MemoryCatalogStore):
        def open_data(self, file_id):
            def note(op, offset, nbytes):
                log.append((file_id, op, offset, nbytes))
                return 0.0

            return ObjectStorage(
                super().open_data(file_id),
                SeekModel(seek_latency_s=0.0, request_latency_s=1e-4),
                jitter_fn=note,
                sleep=True,
            )

    cat = _verdicts(SleepingStore())
    order = {f.file_id: k for k, f in enumerate(cat.current_snapshot().files)}
    out = {}
    for name, kwargs in (
        ("filtered_serial", {"where": "user == 7", "max_workers": 1}),
        ("filtered", {"where": "user == 7"}),
        ("unfiltered_serial", {"max_workers": 1}),
        ("unfiltered", {}),
    ):
        log.clear()
        with cat.pin() as pin:
            for _batch in pin.scan(["ts", "v", "tag"], **kwargs):
                pass
        seen = [(order[fid], *rest) for fid, *rest in log]
        if "max_workers" not in kwargs:
            seen.sort()
        out[name] = (len(seen), hashlib.sha256(repr(seen).encode())
                     .hexdigest()[:16])
    return out


#: recorded when a snapshot scan still read one file at a time
SLEEPING_GOLDEN = {
    'filtered_serial': (47, '297b53bcebc72de0'),
    'filtered': (47, '75dedbc54fd852da'),
    'unfiltered_serial': (56, '65d00a8681781fb0'),
    'unfiltered': (56, 'd4803f9ca63f8f3c'),
}


def test_sleeping_device_keeps_the_per_file_schedule():
    """A device that waits per request gets the requests it got when
    every file was read through its own look-ahead loop: the same
    count, in the same order."""
    assert _sleeping_requests() == SLEEPING_GOLDEN


if __name__ == "__main__":
    for key, value in _observe(_sources()).items():
        print(f"    {key!r}: {value!r},")
    print()
    for key, value in _observe_snapshots().items():
        print(f"    {key!r}: {value!r},")
    print()
    for key, value in _sleeping_requests().items():
        print(f"    {key!r}: {value!r},")
