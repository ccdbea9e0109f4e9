"""File inspector: the parquet-tools equivalent for Bullion files.

``inspect_file`` returns a structured :class:`FileReport` (per-column
sizes, encodings observed in page blobs, deletion state, checksum
health); ``describe`` renders it as text. Both read only the footer
plus one byte per page (the encoding id), so inspection is cheap even
for wide files.

Command-line usage (installed as the ``repro-inspect`` console script
via ``pyproject.toml``, or run as ``python -m repro.tools.inspect``)::

    repro-inspect FILE [--max-columns N] [--no-verify]
    repro-inspect scan FILE --where EXPR [--columns A,B,...]
    repro-inspect scan FILE --backend object [--gap BYTES]
                 [--no-coalesce] [--where EXPR] [--columns A,B,...]
    repro-inspect query DIR --agg SPECS [--where EXPR]
                 [--group-by A,B,...] [--snapshot ID] [--no-metadata]
    repro-inspect catalog log DIR
    repro-inspect catalog snapshot DIR ID
    repro-inspect catalog files DIR [--snapshot ID] [--where EXPR]
    repro-inspect metrics [SNAPSHOT.json] [--format table|text|json]
    repro-inspect trace FILE [--top N]
    repro-inspect server health|tables HOST:PORT
    repro-inspect server query HOST:PORT TABLE --agg SPECS [--where EXPR]
    repro-inspect server scan HOST:PORT TABLE --columns A,B [--where EXPR]

Observability surfaces (:mod:`repro.obs`): ``metrics`` renders a
written registry snapshot (``Registry.write_snapshot`` /
``export_json``, or a ``BENCH_*.json`` embedding one) — or, with no
file, whatever the live in-process registry accumulated. Any other
subcommand accepts a global ``--metrics`` flag that dumps the registry
in Prometheus text format after the command's own output, so
``repro-inspect query DIR --agg count --metrics`` shows the I/O and
pushdown counters the query itself incremented. ``trace`` summarizes
a span export (JSON-lines or Chrome trace-event JSON, see
:mod:`repro.obs.trace`) as a top-spans-by-self-time table.

``FILE`` is a Bullion file on the local filesystem, opened through
:class:`~repro.iosim.FileStorage`. ``--max-columns`` caps the listed
columns (default 20); ``--no-verify`` skips the Merkle checksum pass,
which touches every page of large files.

``scan`` dry-runs a filtered scan and reports what each pushdown
layer skipped: row groups pruned from footer zone maps, rows filtered
at decode time, residual chunks never fetched (late materialization).
``EXPR`` uses the :mod:`repro.expr.parse` syntax, e.g.
``"price > 100 and region in (3, 5)"``. With ``--backend object`` the
same file is replayed through the modelled
:class:`~repro.iosim.ObjectStorage` instead and the per-request GET/PUT
log is printed — request count, bytes moved and modelled wall-clock —
so the effect of the coalescing planner is directly visible.
``--gap BYTES`` sets the coalescing gap threshold; ``--no-coalesce``
disables merging entirely (one GET per chunk) for comparison.

``query`` runs an aggregation (``repro.query``) over a catalog table
directory: ``--agg "count, sum(clicks), min(price)"`` with optional
``--where`` / ``--group-by``, reporting the result rows plus which
answer path (manifest-only / footer-stats-only / decode) handled each
file. ``--no-metadata`` forces the decode path for comparison.

The ``catalog`` subcommands inspect a transactional table rooted at a
directory (see :class:`~repro.catalog.DirectoryCatalogStore`):
``log`` prints the retained snapshot history, ``snapshot`` dumps one
snapshot's manifest (files, stats, summary), and ``files`` lists the
data files a snapshot references — plus any orphans awaiting GC when
run against HEAD, and with ``--where`` a PRUNED/scan/ALWAYS verdict per file
from the manifest column statistics alone (no file opens). (The
literal subcommand words like ``catalog``/``scan`` select
subcommand mode; a Bullion file with one of those names is still
inspectable as ``./scan``.)

Exit status: 0 on success, 2 for a malformed or inapplicable
expression/aggregate (one-line message, never a traceback), 1 for
everything else (missing files, corrupt data, ...).
"""

from __future__ import annotations

import argparse
import datetime
import os
import sys
from dataclasses import dataclass, field

from repro.core.page import PAGE_HEADER_SIZE, PageHeader
from repro.core.reader import BullionReader
from repro.encodings import encoding_by_id
from repro.iosim import FileStorage, Storage


@dataclass
class ColumnReport:
    name: str
    type: str
    encoded_bytes: int
    n_pages: int
    encodings: dict[str, int] = field(default_factory=dict)


@dataclass
class FileReport:
    file_bytes: int
    num_rows: int
    num_columns: int
    num_row_groups: int
    num_pages: int
    compliance_level: int
    deleted_rows: int
    footer_bytes: int
    checksums_valid: bool
    columns: list[ColumnReport] = field(default_factory=list)

    @property
    def data_bytes(self) -> int:
        return sum(c.encoded_bytes for c in self.columns)


def inspect_file(
    storage: Storage, verify_checksums: bool = True
) -> FileReport:
    reader = BullionReader(storage)
    footer = reader.footer
    columns = footer.physical_columns()
    report = FileReport(
        file_bytes=storage.size,
        num_rows=footer.num_rows,
        num_columns=footer.num_columns,
        num_row_groups=footer.num_row_groups,
        num_pages=footer.num_pages,
        compliance_level=footer.compliance_level,
        deleted_rows=footer.deleted_count(),
        footer_bytes=storage.size - footer.file_offset - 8,
        checksums_valid=reader.verify() if verify_checksums else True,
    )
    for c, col in enumerate(columns):
        col_report = ColumnReport(
            name=col.name, type=str(col.type), encoded_bytes=0, n_pages=0
        )
        for g in range(footer.num_row_groups):
            chunk = footer.chunk(c, g)
            col_report.encoded_bytes += chunk.size
            col_report.n_pages += chunk.n_pages
            for pid in range(chunk.first_page, chunk.first_page + chunk.n_pages):
                meta = footer.page(pid)
                header_raw = storage.pread(meta.offset, PAGE_HEADER_SIZE + 1)
                header = PageHeader.unpack(header_raw)
                if header.payload_len:
                    enc_id = header_raw[PAGE_HEADER_SIZE]
                    name = encoding_by_id(enc_id).name
                    col_report.encodings[name] = (
                        col_report.encodings.get(name, 0) + 1
                    )
        report.columns.append(col_report)
    return report


def describe(
    storage: Storage, max_columns: int = 20, verify_checksums: bool = True
) -> str:
    """Human-readable layout summary of a Bullion file."""
    report = inspect_file(storage, verify_checksums=verify_checksums)
    lines = [
        f"bullion file: {report.file_bytes:,} bytes "
        f"({report.data_bytes:,} data, {report.footer_bytes:,} footer)",
        f"rows: {report.num_rows:,} ({report.deleted_rows:,} deleted), "
        f"columns: {report.num_columns}, "
        f"row groups: {report.num_row_groups}, pages: {report.num_pages}",
        f"compliance level: {report.compliance_level}, "
        f"checksums: {'OK' if report.checksums_valid else 'INVALID'}",
        "",
        f"{'column':28s} {'type':20s} {'bytes':>12} {'pages':>6}  encodings",
    ]
    for col in report.columns[:max_columns]:
        encs = ", ".join(
            f"{name} x{count}" for name, count in sorted(col.encodings.items())
        )
        lines.append(
            f"{col.name[:28]:28s} {col.type[:20]:20s} "
            f"{col.encoded_bytes:>12,} {col.n_pages:>6}  {encs}"
        )
    if len(report.columns) > max_columns:
        lines.append(f"... and {len(report.columns) - max_columns} more columns")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# shared CLI plumbing
# ---------------------------------------------------------------------------

def _parse_where_arg(parser: argparse.ArgumentParser, text: str):
    """Parse ``--where`` or exit 2 with a one-line message.

    A malformed expression is a usage error, not a crash: report the
    parser's own message on one line and exit with status 2 so shell
    callers can tell "bad query" from "broken table" (status 1).
    """
    from repro.expr import ExprError, parse as parse_expr

    try:
        return parse_expr(text)
    except ExprError as exc:
        parser.exit(2, f"repro-inspect: invalid --where expression: {exc}\n")


def _run_guarded(parser: argparse.ArgumentParser, fn) -> int:
    """Run a subcommand body with the shared error-to-exit mapping."""
    from repro.expr import ExprError, VectorEvalError
    from repro.query import PlanError

    try:
        fn()
    except (ExprError, PlanError, VectorEvalError) as exc:
        # a well-formed table asked a malformed question: usage error
        parser.exit(2, f"repro-inspect: {exc}\n")
    except (OSError, ValueError, LookupError) as exc:
        parser.exit(1, f"repro-inspect: {exc}\n")
    return 0


# ---------------------------------------------------------------------------
# codecs subcommand (the Table 2 catalog)
# ---------------------------------------------------------------------------

def _codecs_main(argv: list[str]) -> int:
    """List the registered encoding catalog: id, name, accepted kinds."""
    from repro.encodings import catalog

    argparse.ArgumentParser(
        prog="repro-inspect codecs", description="List the encoding catalog."
    ).parse_args(argv)
    lines = [f"{'id':>4}  {'codec':18s}  kinds"]
    for name, cls in sorted(catalog().items(), key=lambda kv: kv[1].id):
        kinds = ", ".join(sorted(k.value for k in cls.kinds))
        lines.append(f"{cls.id:>4}  {name:18s}  {kinds}")
    print("\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# filtered-scan subcommand (the pushdown-layer report)
# ---------------------------------------------------------------------------

def describe_scan(
    storage: Storage, where, columns: list[str] | None = None
) -> str:
    """Run a filtered scan and report what every layer skipped."""
    from repro.core.reader import ScanStats

    reader = BullionReader(storage)
    if columns is None:
        columns = reader.column_names()
    stats = ScanStats()
    scan = reader.scan(columns, where=where, scan_stats=stats)
    matched = sum(batch.num_rows for batch in scan)
    total_groups = reader.footer.num_row_groups
    lines = [
        f"scan of {storage.name}: {len(columns)} columns, "
        f"filter columns: {', '.join(sorted(where.columns()))}",
        f"row groups: {total_groups} total, "
        f"{stats.groups_pruned} pruned by zone maps, "
        f"{stats.groups_scanned} scanned, "
        f"{stats.groups_empty} matched nothing after decode",
        f"rows: {stats.rows_pruned:,} pruned without I/O, "
        f"{stats.rows_scanned:,} scanned, {matched:,} matched",
        f"chunks: {stats.chunks_fetched:,} fetched, "
        f"{stats.chunks_skipped:,} skipped by late materialization",
    ]
    return "\n".join(lines)


def describe_object_replay(
    storage,
    columns: list[str] | None = None,
    where=None,
    coalesce_gap: int = 0,
    max_requests: int = 100,
) -> str:
    """Replay a scan through a modelled object store, log every request.

    ``storage`` is an :class:`~repro.iosim.ObjectStorage`. The reader
    runs cacheless so the request log is exactly what the coalescing
    planner asked the backend for — the knob being tuned.
    """
    reader = BullionReader(
        storage, chunk_cache_size=0, coalesce_gap=coalesce_gap
    )
    if columns is None:
        columns = reader.column_names()
    matched = sum(
        batch.num_rows for batch in reader.scan(columns, where=where)
    )
    gets = [r for r in storage.requests if r.op == "GET"]
    puts = [r for r in storage.requests if r.op == "PUT"]
    mode = "off" if coalesce_gap < 0 else f"gap={coalesce_gap}"
    lines = [
        f"object-store replay of {storage.name}: "
        f"{len(columns)} columns, {matched:,} rows, coalescing {mode}",
        f"requests: {len(storage.requests)} "
        f"({len(gets)} GET, {len(puts)} PUT), "
        f"{storage.bytes_moved():,} bytes moved, "
        f"modelled time {storage.elapsed_s * 1e3:.2f} ms",
        "",
        f"{'#':>4} {'op':4} {'offset':>12} {'bytes':>10} {'cost':>10}",
    ]
    for i, r in enumerate(storage.requests[:max_requests]):
        lines.append(
            f"{i:>4} {r.op:4} {r.offset:>12,} {r.nbytes:>10,} "
            f"{r.cost_s * 1e3:>8.2f}ms"
        )
    if len(storage.requests) > max_requests:
        lines.append(
            f"... and {len(storage.requests) - max_requests} more requests"
        )
    return "\n".join(lines)


def _scan_main(parser: argparse.ArgumentParser, argv: list[str]) -> int:
    sub = argparse.ArgumentParser(
        prog="repro-inspect scan",
        description="Report per-layer pushdown skipping for a filter, "
        "or (--backend object) replay the scan against a modelled "
        "object store and print its request log.",
    )
    sub.add_argument("file", help="path to a Bullion file")
    sub.add_argument(
        "--where", default=None, metavar="EXPR",
        help="filter expression, e.g. \"price > 100 and region in (3, 5)\"",
    )
    sub.add_argument(
        "--columns", default=None, metavar="A,B,...",
        help="projection (default: every column)",
    )
    sub.add_argument(
        "--backend", choices=("file", "object"), default="file",
        help="file (default): pushdown report; object: request-log replay",
    )
    sub.add_argument(
        "--gap", type=int, default=0, metavar="BYTES",
        help="coalescing gap threshold for --backend object (default: 0, "
        "merge only adjacent chunks)",
    )
    sub.add_argument(
        "--no-coalesce", action="store_true",
        help="disable ranged-get coalescing: one GET per chunk",
    )
    args = sub.parse_args(argv)
    if args.backend == "file" and args.where is None:
        sub.error("--where is required unless --backend object")
    where = (
        _parse_where_arg(parser, args.where)
        if args.where is not None
        else None
    )
    columns = (
        [c.strip() for c in args.columns.split(",") if c.strip()]
        if args.columns is not None
        else None
    )

    def run() -> None:
        with FileStorage(args.file, readonly=True) as storage:
            if args.backend == "object":
                from repro.iosim import ObjectStorage

                gap = -1 if args.no_coalesce else args.gap
                obj = ObjectStorage(storage)
                print(
                    describe_object_replay(
                        obj, columns, where, coalesce_gap=gap
                    )
                )
            else:
                print(describe_scan(storage, where, columns))

    return _run_guarded(parser, run)


# ---------------------------------------------------------------------------
# query subcommand (aggregation over a catalog table)
# ---------------------------------------------------------------------------

def _format_value(v) -> str:
    if v is None:
        return "null"
    if isinstance(v, bytes):
        return v.decode("utf-8", "backslashreplace")
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def describe_query(result) -> str:
    """Aggregation rows plus the answer-path accounting."""
    plan = result.plan
    names = list(plan.group_by) + [a.name for a in plan.aggregates]
    cells = [
        [_format_value(row[name]) for name in names] for row in result.rows
    ]
    widths = [
        max(len(name), *(len(r[i]) for r in cells)) if cells else len(name)
        for i, name in enumerate(names)
    ]
    lines = [
        "  ".join(name.rjust(w) for name, w in zip(names, widths)),
    ]
    for row in cells:
        lines.append("  ".join(v.rjust(w) for v, w in zip(row, widths)))
    stats = result.stats
    lines += [
        "",
        f"answer paths: {stats.files_meta_answered} file(s) manifest-only, "
        f"{stats.files_footer_answered} footer-stats-only, "
        f"{stats.files_decoded} decoded, {stats.files_pruned} pruned "
        f"(of {stats.files_total})",
        f"rows from metadata: {stats.rows_from_metadata:,}; "
        f"row groups metadata-answered: {stats.groups_meta_answered}; "
        f"data chunks fetched: {stats.data_chunks_fetched:,}",
    ]
    return "\n".join(lines)


def _query_main(parser: argparse.ArgumentParser, argv: list[str]) -> int:
    from repro.catalog import CatalogTable, DirectoryCatalogStore
    from repro.query import PlanError, as_aggregate

    sub = argparse.ArgumentParser(
        prog="repro-inspect query",
        description="Run an aggregation query over a catalog table.",
    )
    sub.add_argument("dir", help="table root directory")
    sub.add_argument(
        "--agg", required=True, metavar="SPECS",
        help="comma-separated aggregates, e.g. "
        "\"count, sum(clicks), min(price)\"",
    )
    sub.add_argument(
        "--where", default=None, metavar="EXPR",
        help="filter expression (repro.expr.parse syntax)",
    )
    sub.add_argument(
        "--group-by", default=None, metavar="A,B,...",
        help="grouping columns",
    )
    sub.add_argument(
        "--snapshot", type=int, default=None, metavar="ID",
        help="snapshot to query (default: HEAD)",
    )
    sub.add_argument(
        "--no-metadata", action="store_true",
        help="force the decode path (skip metadata fast paths)",
    )
    args = sub.parse_args(argv)
    try:
        aggregates = [
            as_aggregate(part.strip())
            for part in args.agg.split(",")
            if part.strip()
        ]
        if not aggregates:
            raise PlanError("--agg names no aggregates")
    except PlanError as exc:
        parser.exit(2, f"repro-inspect: invalid --agg: {exc}\n")
    where = (
        _parse_where_arg(parser, args.where)
        if args.where is not None
        else None
    )
    group_by = (
        [c.strip() for c in args.group_by.split(",") if c.strip()]
        if args.group_by is not None
        else None
    )

    def run() -> None:
        if not os.path.isdir(os.path.join(args.dir, "snapshots")):
            raise FileNotFoundError(f"no catalog table at {args.dir!r}")
        table = CatalogTable(DirectoryCatalogStore(args.dir))
        result = table.query(
            aggregates,
            snapshot_id=args.snapshot,
            where=where,
            group_by=group_by,
            use_metadata=not args.no_metadata,
        )
        print(describe_query(result))

    return _run_guarded(parser, run)


# ---------------------------------------------------------------------------
# observability subcommands (metrics registry + span traces)
# ---------------------------------------------------------------------------

def describe_metrics(snapshot) -> str:
    """Render a :class:`~repro.obs.metrics.RegistrySnapshot` as a table.

    Counters and gauges print one row per labeled child; histograms
    print observation count, sum, and the bucket-interpolated
    p50/p90/p99. Families that have recorded nothing are summarized in
    one trailing line instead of padding the table with zeros.
    """
    rows: list[tuple[str, str, str]] = []
    silent: list[str] = []
    for name in sorted(snapshot.data):
        fam = snapshot.data[name]
        samples = fam["samples"]
        live = {
            key: s
            for key, s in samples.items()
            if (s["count"] if isinstance(s, dict) else s)
        }
        if not live:
            silent.append(name)
            continue
        for key in sorted(live):
            s = live[key]
            pairs = ",".join(
                f"{ln}={v}" for ln, v in zip(fam["label_names"], key)
            )
            label = f"{name}{{{pairs}}}" if pairs else name
            if isinstance(s, dict):
                q = lambda p: _bucket_quantile_text(fam, s, p)  # noqa: E731
                rows.append(
                    (
                        label,
                        fam["kind"],
                        f"count={s['count']} sum={s['sum']:.6g} "
                        f"p50={q(0.50)} p90={q(0.90)} p99={q(0.99)}",
                    )
                )
            else:
                v = s
                rows.append(
                    (
                        label,
                        fam["kind"],
                        str(int(v)) if float(v).is_integer() else f"{v:.6g}",
                    )
                )
    width = max((len(r[0]) for r in rows), default=20)
    lines = [f"{'metric':{width}s}  {'type':9s}  value"]
    for label, kind, value in rows:
        lines.append(f"{label:{width}s}  {kind:9s}  {value}")
    if silent:
        lines.append("")
        lines.append(
            f"{len(silent)} families with no recorded samples: "
            + ", ".join(silent)
        )
    return "\n".join(lines)


def _bucket_quantile_text(fam: dict, s: dict, q: float) -> str:
    from repro.obs.metrics import _bucket_quantile

    v = _bucket_quantile(tuple(fam["buckets"]), s["buckets"], s["count"], q)
    return f"{v:.3g}"


def _load_metrics_file(path: str):
    import json

    from repro.obs.metrics import load_snapshot

    with open(path, "r", encoding="utf-8") as fh:
        return load_snapshot(json.load(fh))


def _metrics_main(parser: argparse.ArgumentParser, argv: list[str]) -> int:
    from repro.obs.metrics import default_registry

    sub = argparse.ArgumentParser(
        prog="repro-inspect metrics",
        description="Render a metrics registry snapshot (a file written "
        "by Registry.write_snapshot / export_json, or a BENCH_*.json "
        "embedding one); with no file, the live in-process registry.",
    )
    sub.add_argument(
        "snapshot", nargs="?", default=None,
        help="path to a metrics snapshot JSON (default: live registry)",
    )
    sub.add_argument(
        "--format", choices=("table", "text", "json"), default="table",
        help="table (default), Prometheus text exposition, or JSON",
    )
    args = sub.parse_args(argv)

    def run() -> None:
        snap = (
            default_registry().snapshot()
            if args.snapshot is None
            else _load_metrics_file(args.snapshot)
        )
        if args.format == "text":
            print(snap.export_text(), end="")
        elif args.format == "json":
            print(snap.export_json(indent=2))
        else:
            print(describe_metrics(snap))

    return _run_guarded(parser, run)


def describe_trace(rows: list[dict], top: int = 15) -> str:
    """Top spans by self-time from ``summarize_events`` rows."""
    lines = [
        f"{'span':28s} {'count':>7} {'total':>12} {'self':>12}  % self"
    ]
    total_self = sum(r["self_us"] for r in rows) or 1
    for r in rows[:top]:
        lines.append(
            f"{r['name'][:28]:28s} {r['count']:>7} "
            f"{r['total_us'] / 1e3:>10.3f}ms {r['self_us'] / 1e3:>10.3f}ms "
            f" {100.0 * r['self_us'] / total_self:>5.1f}%"
        )
    if len(rows) > top:
        lines.append(f"... and {len(rows) - top} more span names")
    return "\n".join(lines)


def _trace_main(parser: argparse.ArgumentParser, argv: list[str]) -> int:
    from repro.obs.trace import load_trace, summarize_events

    sub = argparse.ArgumentParser(
        prog="repro-inspect trace",
        description="Summarize a span trace export (JSON-lines or "
        "Chrome trace-event JSON) as top spans by self-time.",
    )
    sub.add_argument("file", help="path to a trace export")
    sub.add_argument(
        "--top", type=int, default=15, metavar="N",
        help="span names to list (default: 15)",
    )
    args = sub.parse_args(argv)

    def run() -> None:
        events = load_trace(args.file)
        if not events:
            print("empty trace: no spans recorded")
            return
        print(describe_trace(summarize_events(events), top=args.top))

    return _run_guarded(parser, run)


# ---------------------------------------------------------------------------
# catalog subcommands
# ---------------------------------------------------------------------------

def _fmt_ts(timestamp_ms: int) -> str:
    return datetime.datetime.fromtimestamp(
        timestamp_ms / 1000, tz=datetime.timezone.utc
    ).strftime("%Y-%m-%d %H:%M:%S")


def describe_catalog_log(table) -> str:
    """One line per retained snapshot, oldest first."""
    lines = [
        f"{'id':>6} {'parent':>6} {'timestamp (utc)':19} "
        f"{'operation':16} {'files':>5} {'live rows':>10} {'bytes':>12}  summary"
    ]
    for snap in table.history():
        summary = ", ".join(
            f"{k}={v}" for k, v in sorted(snap.summary.items())
        )
        parent = "-" if snap.parent_id is None else str(snap.parent_id)
        lines.append(
            f"{snap.snapshot_id:>6} {parent:>6} {_fmt_ts(snap.timestamp_ms):19} "
            f"{snap.operation[:16]:16} {len(snap.files):>5} "
            f"{snap.live_rows:>10,} {snap.total_bytes:>12,}  {summary}"
        )
    return "\n".join(lines)


def _file_table(files, log=None) -> list[str]:
    lines = [
        f"{'file id':24} {'rows':>10} {'deleted':>8} {'live':>10} "
        f"{'bytes':>12}  schema"
    ]
    for f in files:
        if f.schema_id is not None:
            schema_ref = f"s{f.schema_id}"
        elif log is not None and log.current_id is not None:
            # legacy file inside an evolved snapshot: not yet adopted
            schema_ref = f"(legacy {f.schema_fingerprint:#018x})"
        else:
            schema_ref = f"{f.schema_fingerprint:#018x}"
        lines.append(
            f"{f.file_id[:24]:24} {f.row_count:>10,} {f.deleted_count:>8,} "
            f"{f.live_rows:>10,} {f.byte_size:>12,}  {schema_ref}"
        )
    return lines


def _schema_legend(log) -> list[str]:
    """One line per logged schema: id, current marker, column list."""
    if log is None or not log.schemas:
        return []
    lines = ["", "schemas:"]
    for schema_id in sorted(log.schemas):
        schema = log.schemas[schema_id]
        marker = "*" if schema_id == log.current_id else " "
        cols = ", ".join(f"{c.name}:{c.type}" for c in schema.columns)
        lines.append(f"{marker} s{schema_id}: {cols}")
    return lines


def describe_catalog_snapshot(table, snapshot_id: int) -> str:
    """One snapshot's manifest in full."""
    from repro.catalog import SchemaLog

    snap = table.snapshot(snapshot_id)
    log = SchemaLog.from_snapshot(snap)
    parent = "-" if snap.parent_id is None else str(snap.parent_id)
    lines = [
        f"snapshot {snap.snapshot_id} (parent {parent}), "
        f"operation: {snap.operation}, "
        f"committed {_fmt_ts(snap.timestamp_ms)} UTC",
        f"rows: {snap.total_rows:,} total, {snap.live_rows:,} live; "
        f"files: {len(snap.files)}, bytes: {snap.total_bytes:,}",
    ]
    if snap.summary:
        lines.append(
            "summary: "
            + ", ".join(f"{k}={v}" for k, v in sorted(snap.summary.items()))
        )
    lines.append("")
    lines.extend(_file_table(snap.files, log))
    lines.extend(_schema_legend(log))
    return "\n".join(lines)


def describe_catalog_files(
    table, snapshot_id: int | None = None, where=None
) -> str:
    """Data files referenced by a snapshot; orphans flagged at HEAD.

    With ``where``, each file gets the tri-state verdict of its
    manifest column statistics — the catalog pushdown layer, decided
    without opening a single file: ``PRUNED`` (no row can match; scans
    and deletes skip it), ``scan`` (open it and look), ``ALWAYS``
    (every row matches; a delete drops the file whole). On evolved
    snapshots the verdicts go through each file's schema resolution,
    so stats recorded under old column names or narrower types still
    prune correctly.
    """
    from repro.catalog import SchemaLog
    from repro.catalog.snapshot import ManifestIndex
    from repro.expr import TriState
    from repro.expr.interval import verdicts as tri_states

    snap = (
        table.current_snapshot()
        if snapshot_id is None
        else table.snapshot(snapshot_id)
    )
    log = SchemaLog.from_snapshot(snap)
    lines = [f"data files of snapshot {snap.snapshot_id}:"]
    if where is not None:
        manifest = ManifestIndex(
            snap.files, [log.resolution(f) for f in snap.files]
        )
        verdicts = tri_states(*manifest.verdicts(where))
        pruned = [
            f for f, v in zip(snap.files, verdicts) if v is TriState.NEVER
        ]
        always = [
            f for f, v in zip(snap.files, verdicts) if v is TriState.ALWAYS
        ]
        lines[0] += (
            f" (filter prunes {len(pruned)} of {len(snap.files)} files, "
            f"{sum(f.row_count for f in pruned):,} rows, "
            f"{sum(f.byte_size for f in pruned):,} bytes; "
            f"matches every row of {len(always)} files, "
            f"{sum(f.live_rows for f in always):,} live rows — "
            f"manifest stats only, zero file opens)"
        )
        body = _file_table(snap.files, log)
        lines.append(body[0] + "  verdict")
        labels = {
            TriState.NEVER: "PRUNED",
            TriState.MAYBE: "scan",
            TriState.ALWAYS: "ALWAYS",
        }
        for row, verdict in zip(body[1:], verdicts):
            lines.append(f"{row}  {labels[verdict]}")
    else:
        lines.extend(_file_table(snap.files, log))
    lines.extend(_schema_legend(log))
    if snapshot_id is None:
        referenced: set[str] = set()
        for s in table.history():
            referenced |= s.file_ids()
        orphans = [
            fid for fid in table.store.list_data() if fid not in referenced
        ]
        if orphans:
            lines.append("")
            lines.append(
                f"orphans (no retained snapshot, awaiting GC): "
                f"{', '.join(orphans)}"
            )
    return "\n".join(lines)


def _catalog_main(parser: argparse.ArgumentParser, argv: list[str]) -> int:
    from repro.catalog import CatalogTable, DirectoryCatalogStore

    sub = argparse.ArgumentParser(
        prog="repro-inspect catalog",
        description="Inspect a transactional catalog table directory.",
    )
    commands = sub.add_subparsers(dest="command", required=True)
    log_p = commands.add_parser("log", help="snapshot history")
    log_p.add_argument("dir", help="table root directory")
    snap_p = commands.add_parser("snapshot", help="one snapshot's manifest")
    snap_p.add_argument("dir", help="table root directory")
    snap_p.add_argument("id", type=int, help="snapshot id")
    files_p = commands.add_parser("files", help="data files of a snapshot")
    files_p.add_argument("dir", help="table root directory")
    files_p.add_argument(
        "--snapshot", type=int, default=None, metavar="ID",
        help="snapshot to list (default: HEAD, with orphan detection)",
    )
    files_p.add_argument(
        "--where", default=None, metavar="EXPR",
        help="filter expression: report which files manifest stats prune",
    )
    args = sub.parse_args(argv)
    where = None
    if getattr(args, "where", None) is not None:
        where = _parse_where_arg(parser, args.where)

    def run() -> None:
        if not os.path.isdir(os.path.join(args.dir, "snapshots")):
            # refuse before DirectoryCatalogStore mkdir-p's a tree at
            # a mistyped path: inspection must not create directories
            raise FileNotFoundError(f"no catalog table at {args.dir!r}")
        table = CatalogTable(DirectoryCatalogStore(args.dir))
        if args.command == "log":
            print(describe_catalog_log(table))
        elif args.command == "snapshot":
            print(describe_catalog_snapshot(table, args.id))
        else:
            print(describe_catalog_files(table, args.snapshot, where=where))

    return _run_guarded(parser, run)


def _server_main(parser: argparse.ArgumentParser, argv: list[str]) -> int:
    """Client for a running ``repro-serve`` instance."""
    sub = argparse.ArgumentParser(
        prog="repro-inspect server",
        description="Talk to a running Bullion scan/query server.",
    )
    sub.add_argument(
        "command", choices=["health", "tables", "query", "scan"]
    )
    sub.add_argument("address", metavar="HOST:PORT")
    sub.add_argument("table", nargs="?", help="served table name")
    sub.add_argument("--agg", help="aggregate specs, comma separated")
    sub.add_argument("--columns", help="scan projection, comma separated")
    sub.add_argument("--where", help="filter expression")
    sub.add_argument("--group-by", help="group-by columns, comma separated")
    sub.add_argument("--snapshot", type=int, default=None)
    sub.add_argument("--deadline-ms", type=int, default=None)
    args = sub.parse_args(argv)
    host, sep, port_text = args.address.rpartition(":")
    if not sep or not port_text.isdigit():
        sub.exit(2, "repro-inspect: address must be HOST:PORT\n")
    where = _parse_where_arg(sub, args.where) if args.where else None

    def run() -> None:
        from repro.server import ServerClient, ServerError

        with ServerClient(host, int(port_text), timeout=30.0) as client:
            try:
                if args.command == "health":
                    doc = client.health()
                    for key in sorted(doc):
                        if key not in ("ok", "op"):
                            print(f"{key:16s} {doc[key]}")
                elif args.command == "tables":
                    for entry in client.tables():
                        print(
                            f"{entry['name']:20s} "
                            f"snapshot={entry.get('snapshot_id', '?')} "
                            f"files={entry.get('files', '?')} "
                            f"rows={entry.get('rows', '?')}"
                        )
                elif args.command == "query":
                    if not args.table or not args.agg:
                        sub.exit(
                            2, "repro-inspect: query needs TABLE --agg\n"
                        )
                    reply = client.query(
                        args.table,
                        [a.strip() for a in args.agg.split(",")],
                        where=where,
                        group_by=(
                            [g.strip() for g in args.group_by.split(",")]
                            if args.group_by
                            else None
                        ),
                        snapshot_id=args.snapshot,
                        deadline_ms=args.deadline_ms,
                    )
                    print(f"snapshot {reply.snapshot_id}")
                    for row in reply.rows:
                        print("  " + ", ".join(
                            f"{k}={v}" for k, v in row.items()
                        ))
                else:  # scan
                    if not args.table or not args.columns:
                        sub.exit(
                            2, "repro-inspect: scan needs TABLE --columns\n"
                        )
                    reply = client.scan(
                        args.table,
                        [c.strip() for c in args.columns.split(",")],
                        where=where,
                        snapshot_id=args.snapshot,
                        deadline_ms=args.deadline_ms,
                    )
                    print(
                        f"snapshot {reply.snapshot_id}: "
                        f"{reply.rows} rows in "
                        f"{len(reply.batches)} batches"
                    )
            except ServerError as exc:
                sub.exit(1, f"repro-inspect: server error: {exc}\n")

    return _run_guarded(sub, run)


def main(argv: list[str] | None = None) -> int:
    """Console entry point: inspect a Bullion file or catalog table."""
    parser = argparse.ArgumentParser(
        prog="repro-inspect",
        description="Describe the layout of a Bullion file.",
    )
    raw = list(sys.argv[1:] if argv is None else argv)
    # global --metrics: run the command, then dump what the in-process
    # registry accumulated while it ran (Prometheus text exposition)
    dump_metrics = "--metrics" in raw
    if dump_metrics:
        raw = [a for a in raw if a != "--metrics"]
    status: int | None = None
    if raw[:1] == ["catalog"]:
        status = _catalog_main(parser, raw[1:])
    elif raw[:1] == ["codecs"]:
        status = _codecs_main(raw[1:])
    elif raw[:1] == ["scan"]:
        status = _scan_main(parser, raw[1:])
    elif raw[:1] == ["query"]:
        status = _query_main(parser, raw[1:])
    elif raw[:1] == ["metrics"]:
        status = _metrics_main(parser, raw[1:])
    elif raw[:1] == ["trace"]:
        status = _trace_main(parser, raw[1:])
    elif raw[:1] == ["server"]:
        status = _server_main(parser, raw[1:])
    if status is not None:
        if dump_metrics:
            from repro.obs.metrics import default_registry

            print()
            print(default_registry().export_text(), end="")
        return status
    parser.add_argument("file", help="path to a Bullion file")
    parser.add_argument(
        "--max-columns",
        type=int,
        default=20,
        metavar="N",
        help="columns to list before truncating (default: 20)",
    )
    parser.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the Merkle checksum pass (reads every page)",
    )
    args = parser.parse_args(raw)
    try:
        with FileStorage(args.file, readonly=True) as storage:
            print(
                describe(
                    storage,
                    max_columns=args.max_columns,
                    verify_checksums=not args.no_verify,
                )
            )
    except (OSError, ValueError) as exc:
        parser.exit(1, f"repro-inspect: {exc}\n")
    if dump_metrics:
        from repro.obs.metrics import default_registry

        print()
        print(default_registry().export_text(), end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
