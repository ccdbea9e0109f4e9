"""Golden scan digests for both reader kinds.

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


if __name__ == "__main__":
    for key, value in _observe(_sources()).items():
        print(f"    {key!r}: {value!r},")
