"""CLI behavior of ``repro-inspect``: exit codes and error hygiene.

A malformed ``--where`` / ``--agg`` is a *usage* error: the tool must
exit with status 2 and a one-line ``repro-inspect:`` message — never a
traceback. Environment problems (missing file, no catalog) stay
status 1. The ``query`` subcommand's happy path is covered here too.
"""

import numpy as np
import pytest

from repro.catalog import CatalogTable, DirectoryCatalogStore
from repro.core import BullionWriter, Table, WriterOptions
from repro.iosim import FileStorage
from repro.tools.inspect import main


@pytest.fixture
def bullion_file(tmp_path):
    path = tmp_path / "data.bln"
    with FileStorage(str(path)) as dev:
        BullionWriter(
            dev, options=WriterOptions(rows_per_page=10, rows_per_group=20)
        ).write(Table({
            "ts": np.arange(100, dtype=np.int64),
            "v": np.linspace(0, 1, 100),
        }))
    return str(path)


@pytest.fixture
def catalog_dir(tmp_path):
    root = tmp_path / "table"
    cat = CatalogTable.create(DirectoryCatalogStore(str(root)))
    for k in range(2):
        cat.append(
            Table({
                "ts": np.arange(k * 100, (k + 1) * 100, dtype=np.int64),
                "v": np.linspace(0, 1, 100),
                "region": np.arange(100, dtype=np.int64) % 3,
                "tag": [b"x"] * 100,
            }),
            options=WriterOptions(rows_per_page=20, rows_per_group=100),
        )
    return str(root)


def _run(argv, capsys):
    """Invoke main(); return (exit_code, stdout, stderr)."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def _assert_usage_error(code, err):
    assert code == 2
    lines = [line for line in err.splitlines() if line]
    assert len(lines) == 1, f"expected a one-line message, got {err!r}"
    assert lines[0].startswith("repro-inspect:")
    assert "Traceback" not in err


class TestExpressionErrorsExitTwo:
    def test_scan_parse_error(self, bullion_file, capsys):
        code, _out, err = _run(
            ["scan", bullion_file, "--where", "ts >>> 3"], capsys
        )
        _assert_usage_error(code, err)

    def test_scan_unbalanced_paren(self, bullion_file, capsys):
        code, _out, err = _run(
            ["scan", bullion_file, "--where", "(ts > 3"], capsys
        )
        _assert_usage_error(code, err)

    def test_scan_type_mismatch_expression(self, bullion_file, capsys):
        # parses fine, but comparing a numeric column to a string can
        # only be discovered during evaluation — still a usage error
        code, _out, err = _run(
            ["scan", bullion_file, "--where", "ts == 'abc'"], capsys
        )
        _assert_usage_error(code, err)

    def test_catalog_files_parse_error(self, catalog_dir, capsys):
        code, _out, err = _run(
            ["catalog", "files", catalog_dir, "--where", "and and"],
            capsys,
        )
        _assert_usage_error(code, err)

    def test_query_parse_error(self, catalog_dir, capsys):
        code, _out, err = _run(
            ["query", catalog_dir, "--agg", "count", "--where", "v <"],
            capsys,
        )
        _assert_usage_error(code, err)

    def test_query_bad_aggregate(self, catalog_dir, capsys):
        code, _out, err = _run(
            ["query", catalog_dir, "--agg", "median(v)"], capsys
        )
        _assert_usage_error(code, err)

    def test_query_inapplicable_aggregate(self, catalog_dir, capsys):
        code, _out, err = _run(
            ["query", catalog_dir, "--agg", "sum(tag)"], capsys
        )
        _assert_usage_error(code, err)


class TestEnvironmentErrorsExitOne:
    def test_scan_missing_file(self, tmp_path, capsys):
        code, _out, err = _run(
            ["scan", str(tmp_path / "absent"), "--where", "ts > 1"],
            capsys,
        )
        assert code == 1
        assert err.startswith("repro-inspect:")

    def test_scan_corrupt_page_header(self, bullion_file, capsys):
        # a page header whose alloc_len runs past its chunk used to
        # escape as a struct.error traceback
        from repro.core import BullionReader

        with FileStorage(bullion_file) as dev:
            footer = BullionReader(dev).footer
            chunk = footer.chunk(footer.find_column("ts"), 2)
            dev.pwrite(chunk.offset, (0xFFFFFF00).to_bytes(4, "little"))
        code, _out, err = _run(
            ["scan", bullion_file, "--columns", "ts", "--where", "ts >= 0"],
            capsys,
        )
        assert code == 1
        lines = [line for line in err.splitlines() if line]
        assert len(lines) == 1, f"expected a one-line message, got {err!r}"
        assert lines[0].startswith("repro-inspect: column 0 row group 2 page 8:")

    def test_query_missing_table(self, tmp_path, capsys):
        missing = tmp_path / "nope"
        code, _out, err = _run(
            ["query", str(missing), "--agg", "count"], capsys
        )
        assert code == 1
        assert "no catalog table" in err
        assert not missing.exists(), "error path created directories"

    def test_query_unknown_column_filter(self, catalog_dir, capsys):
        code, _out, err = _run(
            ["query", catalog_dir, "--agg", "count", "--where",
             "absent > 1"],
            capsys,
        )
        assert code == 1  # well-formed query, wrong for this table
        assert err.startswith("repro-inspect:")


class TestQueryHappyPath:
    def test_global_aggregates(self, catalog_dir, capsys):
        code, out, _err = _run(
            ["query", catalog_dir, "--agg", "count, min(ts), max(ts)"],
            capsys,
        )
        assert code == 0
        assert "count(*)" in out and "200" in out
        assert "manifest-only" in out
        assert "data chunks fetched: 0" in out

    def test_grouped_filtered(self, catalog_dir, capsys):
        code, out, _err = _run(
            ["query", catalog_dir, "--agg", "count,mean(v)",
             "--group-by", "region", "--where", "ts < 150"],
            capsys,
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == ["region", "count(*)", "mean(v)"]
        data_rows = [
            l for l in lines[1:] if l.strip() and l.strip()[0].isdigit()
        ]
        assert len(data_rows) == 3  # regions 0, 1, 2

    def test_no_metadata_flag(self, catalog_dir, capsys):
        code, out, _err = _run(
            ["query", catalog_dir, "--agg", "count", "--no-metadata"],
            capsys,
        )
        assert code == 0
        assert "0 file(s) manifest-only" in out

    def test_snapshot_pinning(self, catalog_dir, capsys):
        code, out, _err = _run(
            ["query", catalog_dir, "--agg", "count", "--snapshot", "1"],
            capsys,
        )
        assert code == 0
        assert "100" in out


class TestCodecsSubcommand:
    def test_catalog_listing(self, capsys):
        code, out, _err = _run(["codecs"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == ["id", "codec", "kinds"]
        names = {line.split()[1] for line in lines[1:]}
        assert {"huffman", "fastpfor", "gorilla", "fsst"} <= names


class TestCatalogSchemaRendering:
    """``catalog files``/``snapshot`` show schema ids + column lists.

    The old rendering printed only the opaque 64-bit layout
    fingerprint; evolved tables now get a per-file ``s<id>`` reference
    and a legend mapping each logged schema to its column list, with
    the current schema starred.
    """

    @pytest.fixture
    def evolved_dir(self, tmp_path):
        from repro.catalog import AddColumn, RenameColumn

        root = tmp_path / "table"
        cat = CatalogTable.create(DirectoryCatalogStore(str(root)))
        cat.append(Table({
            "ts": np.arange(50, dtype=np.int64),
            "v": np.linspace(0, 1, 50),
        }))
        cat.evolve(AddColumn("clicks", "int64"), RenameColumn("v", "score"))
        cat.append(Table({
            "ts": np.arange(50, 100, dtype=np.int64),
            "score": np.linspace(1, 2, 50),
            "clicks": np.arange(50, dtype=np.int64),
        }))
        return str(root)

    def test_files_schema_ids_and_legend(self, evolved_dir, capsys):
        code, out, _err = _run(["catalog", "files", evolved_dir], capsys)
        assert code == 0
        assert "0x" not in out  # no opaque fingerprint hex
        rows = [line for line in out.splitlines() if line.startswith("f-")]
        assert len(rows) == 2
        assert rows[0].split()[-1] == "s0"
        assert rows[1].split()[-1] == "s1"
        assert "schemas:" in out
        assert "  s0: ts:int64, v:double" in out
        assert "* s1: ts:int64, score:double, clicks:int64" in out

    def test_snapshot_manifest_has_legend(self, evolved_dir, capsys):
        code, out, _err = _run(
            ["catalog", "snapshot", evolved_dir, "3"], capsys
        )
        assert code == 0
        assert "schemas:" in out
        assert "* s1: ts:int64, score:double, clicks:int64" in out

    def test_pre_evolution_snapshot_keeps_fingerprint(
        self, evolved_dir, capsys
    ):
        # snapshot 1 predates the schema log: fingerprint is all we have
        code, out, _err = _run(
            ["catalog", "files", evolved_dir, "--snapshot", "1"], capsys
        )
        assert code == 0
        assert "0x" in out
        assert "schemas:" not in out

    def test_legacy_table_unchanged(self, catalog_dir, capsys):
        code, out, _err = _run(["catalog", "files", catalog_dir], capsys)
        assert code == 0
        assert "0x" in out
        assert "schemas:" not in out

    def test_where_resolves_renamed_column(self, evolved_dir, capsys):
        # 'score' was 'v' in the s0 file; its manifest stats live under
        # the stored name, so pruning must resolve through the log.
        code, out, _err = _run(
            ["catalog", "files", evolved_dir, "--where", "score > 1.5"],
            capsys,
        )
        assert code == 0
        rows = [line for line in out.splitlines() if line.startswith("f-")]
        verdicts = {line.split()[-2]: line.split()[-1] for line in rows}
        assert verdicts == {"s0": "PRUNED", "s1": "scan"}


class TestCatalogFilesTriState:
    def test_where_shows_what_a_delete_would_drop(self, catalog_dir, capsys):
        # files hold ts 0..99 and 100..199: the filter covers the first
        # whole and cuts the second, a third is out of its reach
        cat = CatalogTable(DirectoryCatalogStore(catalog_dir))
        cat.append(Table({
            "ts": np.arange(500, 600, dtype=np.int64),
            "v": np.linspace(0, 1, 100),
            "region": np.arange(100, dtype=np.int64) % 3,
            "tag": [b"x"] * 100,
        }))
        argv = ["catalog", "files", catalog_dir, "--where", "ts < 150"]
        code, out, _err = _run(argv, capsys)
        assert code == 0
        assert "prunes 1 of 3 files" in out
        assert "matches every row of 1 files, 100 live rows" in out
        rows = [line for line in out.splitlines() if line.startswith("f-")]
        assert [line.split()[-1] for line in rows] == [
            "ALWAYS", "scan", "PRUNED",
        ]
        always_id = rows[0].split()[0]

        snap = cat.delete("ts < 150")
        assert snap.summary == {"rows_deleted": 150, "files_dropped": 1}
        assert always_id not in snap.file_ids()
        code, out, _err = _run(
            ["catalog", "snapshot", catalog_dir, str(snap.snapshot_id)],
            capsys,
        )
        assert code == 0
        assert "files_dropped=1" in out


class TestObjectReplayAndCache:
    def _request_count(self, out):
        (line,) = [
            ln for ln in out.splitlines() if ln.startswith("requests:")
        ]
        return int(line.split()[1])

    def test_object_replay_prints_request_log(self, bullion_file, capsys):
        code, out, _err = _run(
            ["scan", bullion_file, "--backend", "object"], capsys
        )
        assert code == 0
        assert "object-store replay" in out
        assert "coalescing gap=0" in out
        assert "GET" in out and "modelled time" in out
        # a request table row: index, op, offset, bytes, cost
        rows = [ln for ln in out.splitlines() if " GET " in ln]
        assert rows and all("ms" in r for r in rows)

    def test_no_coalesce_issues_more_requests(self, bullion_file, capsys):
        code, out, _err = _run(
            ["scan", bullion_file, "--backend", "object"], capsys
        )
        assert code == 0
        coalesced = self._request_count(out)
        code, out, _err = _run(
            ["scan", bullion_file, "--backend", "object", "--no-coalesce"],
            capsys,
        )
        assert code == 0
        assert "coalescing off" in out
        assert self._request_count(out) > coalesced

    def test_object_replay_accepts_where(self, bullion_file, capsys):
        code, out, _err = _run(
            ["scan", bullion_file, "--backend", "object",
             "--where", "ts > 49", "--columns", "v"],
            capsys,
        )
        assert code == 0
        assert "50 rows" in out

    def test_file_backend_still_requires_where(self, bullion_file, capsys):
        code, _out, err = _run(["scan", bullion_file], capsys)
        assert code == 2
        assert "--where is required" in err
