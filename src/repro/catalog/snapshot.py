"""Snapshots and manifests: the immutable unit of the table log.

A :class:`Snapshot` is a committed, immutable view of a table: an
ordered list of :class:`DataFile` entries (each an immutable Bullion
file plus the footer-derived stats the control plane plans with), a
parent pointer, a timestamp for ``as_of`` time travel, and an
operation label plus summary counters for the log.

Snapshots serialize to compact, key-sorted JSON. A manifest is written
on every commit, and ``indent=`` would take ``json.dumps`` off its C
encoder, so there is no indentation: ``repro-inspect catalog snapshot``
formats the parsed object for people, and ``from_json`` reads indented
manifests written by older versions as well. The heavy metadata
(page/chunk indexes, Merkle trees, deletion vectors) stays in each
file's binary footer where the paper puts it. The
manifest only ever *names* files and caches their headline stats —
including, since the expression engine, per-column [min, max] so a
``scan(where=...)`` can prune whole files without opening them.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

from repro.catalog.schema_evolution import (
    CatalogMetadataError,
    FileResolution,
    TableSchema,
)
from repro.expr import (
    Expr,
    TriState,
    evaluate_interval,
    interval_from_stats,
)


@dataclass(frozen=True)
class ColumnStats:
    """Manifest-level [min, max] of one column across a whole file.

    ``kind`` carries what the interval evaluator needs to stay
    conservative: ``"int"`` bounds may be float64-rounded beyond 2**53,
    ``"float"`` bounds exclude NaN rows. Aggregated from the file's
    footer chunk statistics by the writer at commit time.
    """

    min_value: float
    max_value: float
    kind: str  # "int" | "float"

    def to_dict(self) -> dict:
        return {
            "min": self.min_value,
            "max": self.max_value,
            "kind": self.kind,
        }

    @staticmethod
    def from_dict(d: dict) -> "ColumnStats":
        return ColumnStats(
            min_value=float(d["min"]),
            max_value=float(d["max"]),
            kind=str(d["kind"]),
        )


@dataclass(frozen=True)
class DataFile:
    """One immutable member file, with its footer-derived stats."""

    file_id: str
    row_count: int
    deleted_count: int
    byte_size: int
    schema_fingerprint: int
    #: per-column file-level [min, max]; None for pre-stats manifests
    column_stats: "dict[str, ColumnStats] | None" = None
    #: schema-log id this file was written under; None for legacy
    #: manifests that predate the schema log (one frozen schema)
    schema_id: "int | None" = None
    #: column_stats as intervals, derived on first use
    _intervals: "dict | None" = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def live_rows(self) -> int:
        return self.row_count - self.deleted_count

    @property
    def deleted_fraction(self) -> float:
        return self.deleted_count / self.row_count if self.row_count else 0.0

    def classify(
        self, where: Expr, resolution: "FileResolution | None" = None
    ) -> TriState:
        """Tri-state manifest verdict for ``where`` over this file.

        ``NEVER`` — provably no matching row (the file is prunable);
        ``ALWAYS`` — provably every row matches, which lets the query
        engine answer counts and extrema from the manifest alone and a
        delete drop the file unopened;
        ``MAYBE`` — open the file and let finer layers decide. Files
        without statistics are always ``MAYBE``.

        ``where`` speaks current-schema names; when the file was
        written under an older schema version, ``resolution`` remaps
        each reference to the stored column's stats — a column the
        file never stored gets no interval, which the evaluator treats
        as ``MAYBE`` (evolution can never prune wrongly).
        """
        intervals = self._intervals
        if intervals is None:
            intervals = {
                name: interval_from_stats(s.min_value, s.max_value, s.kind)
                for name, s in (self.column_stats or {}).items()
            }
            object.__setattr__(self, "_intervals", intervals)
        if resolution is not None:
            intervals = {
                name: intervals.get(resolution.stored_name(name))
                for name in where.columns()
            }
        elif self.column_stats is None:
            return TriState.MAYBE
        return evaluate_interval(where, intervals)

    def to_dict(self) -> dict:
        doc = {
            "file_id": self.file_id,
            "row_count": self.row_count,
            "deleted_count": self.deleted_count,
            "byte_size": self.byte_size,
            "schema_fingerprint": self.schema_fingerprint,
        }
        if self.column_stats is not None:
            doc["column_stats"] = {
                name: stats.to_dict()
                for name, stats in sorted(self.column_stats.items())
            }
        if self.schema_id is not None:
            doc["schema_id"] = self.schema_id
        return doc

    @staticmethod
    def from_dict(d: dict) -> "DataFile":
        raw_stats = d.get("column_stats")
        raw_schema_id = d.get("schema_id")
        return DataFile(
            file_id=d["file_id"],
            row_count=int(d["row_count"]),
            deleted_count=int(d["deleted_count"]),
            byte_size=int(d["byte_size"]),
            schema_fingerprint=int(d["schema_fingerprint"]),
            column_stats=(
                None
                if raw_stats is None
                else {
                    name: ColumnStats.from_dict(s)
                    for name, s in raw_stats.items()
                }
            ),
            schema_id=(
                None if raw_schema_id is None else int(raw_schema_id)
            ),
        )


@dataclass(frozen=True)
class Snapshot:
    """One committed table version (a node of the snapshot log)."""

    snapshot_id: int
    parent_id: int | None
    timestamp_ms: int
    operation: str
    files: tuple[DataFile, ...] = ()
    summary: dict = field(default_factory=dict)
    #: schema log: every schema version the files reference, plus the
    #: current one. Empty for legacy (pre-evolution) snapshots, whose
    #: files all share one frozen fingerprint.
    schemas: tuple[TableSchema, ...] = ()
    current_schema_id: "int | None" = None

    # -- aggregates -----------------------------------------------------
    @property
    def total_rows(self) -> int:
        return sum(f.row_count for f in self.files)

    @property
    def live_rows(self) -> int:
        return sum(f.live_rows for f in self.files)

    @property
    def total_bytes(self) -> int:
        return sum(f.byte_size for f in self.files)

    def file_ids(self) -> set[str]:
        return {f.file_id for f in self.files}

    # -- serialization --------------------------------------------------
    def to_json(self) -> bytes:
        doc = {
            "snapshot_id": self.snapshot_id,
            "parent_id": self.parent_id,
            "timestamp_ms": self.timestamp_ms,
            "operation": self.operation,
            "files": [f.to_dict() for f in self.files],
            "summary": self.summary,
        }
        # emitted only when the table has evolved: legacy tables keep
        # writing (and re-reading) byte-identical manifests
        if self.schemas:
            doc["schemas"] = [s.to_dict() for s in self.schemas]
        if self.current_schema_id is not None:
            doc["current_schema_id"] = self.current_schema_id
        return json.dumps(
            doc, sort_keys=True, separators=(",", ":")
        ).encode()

    @staticmethod
    def from_json(data: bytes) -> "Snapshot":
        """Parse one snapshot manifest.

        Any malformation — bad JSON, missing keys, corrupt schema-log
        entries — surfaces as :class:`CatalogMetadataError`, never a
        bare ``KeyError``/``TypeError``: manifest bytes come from
        storage and may be truncated or damaged.
        """
        try:
            doc = json.loads(data)
        except (ValueError, UnicodeDecodeError) as exc:
            raise CatalogMetadataError(
                f"snapshot manifest is not valid JSON: {exc}"
            ) from exc
        try:
            snapshot = Snapshot(
                snapshot_id=int(doc["snapshot_id"]),
                parent_id=(
                    None
                    if doc["parent_id"] is None
                    else int(doc["parent_id"])
                ),
                timestamp_ms=int(doc["timestamp_ms"]),
                operation=doc["operation"],
                files=tuple(DataFile.from_dict(d) for d in doc["files"]),
                summary=dict(doc.get("summary", {})),
                schemas=tuple(
                    TableSchema.from_dict(s)
                    for s in doc.get("schemas", ())
                ),
                current_schema_id=(
                    None
                    if doc.get("current_schema_id") is None
                    else int(doc["current_schema_id"])
                ),
            )
        except CatalogMetadataError:
            raise
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise CatalogMetadataError(
                f"malformed snapshot manifest: {exc!r}"
            ) from exc
        return snapshot


def snapshot_name(snapshot_id: int) -> str:
    """Metadata object name for a snapshot id (sortable, fixed width)."""
    return f"snap-{snapshot_id:010d}.json"


#: snapshot names in a NUL-joined listing (no file name holds a NUL)
_SNAPSHOT_NAMES = re.compile(r"(?:^|\0)snap-(\d+)\.json(?=\0|$)")


def newest_snapshot_id(names) -> int | None:
    """The highest id :func:`parse_snapshot_name` reads among ``names``
    (None if none), without parsing each: names are fixed-width until
    an id outgrows 10 digits, so the newest has the longest, then the
    greatest, digit string."""
    ids = _SNAPSHOT_NAMES.findall("\0".join(names))
    return int(max(ids, key=lambda d: (len(d), d))) if ids else None


def parse_snapshot_name(name: str) -> int | None:
    """Inverse of :func:`snapshot_name`; None for foreign objects."""
    if not (name.startswith("snap-") and name.endswith(".json")):
        return None
    digits = name[len("snap-") : -len(".json")]
    return int(digits) if digits.isdigit() else None
