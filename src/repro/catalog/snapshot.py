"""Snapshots and manifests: the immutable unit of the table log.

A :class:`Snapshot` is a committed, immutable view of a table: an
ordered list of :class:`DataFile` entries (each an immutable Bullion
file plus the footer-derived stats the control plane plans with), a
parent pointer, a timestamp for ``as_of`` time travel, and an
operation label plus summary counters for the log.

Snapshots serialize to compact, key-sorted JSON, and a commit costs
what it changes. A :class:`DataFile` is shared by a snapshot and its
children, and encodes its manifest record once, the first time a
manifest names it: :meth:`Snapshot.to_json` splices those records into
the document, so a commit encodes only the entries it adds.
:meth:`Snapshot.from_json` takes the entry parser as an argument; a
table handle passes one that hands back the entry it already holds
when the record is unchanged, so each record is parsed once per
handle. There is no indentation: ``repro-inspect catalog snapshot``
formats the parsed object for people, and ``from_json`` reads indented
manifests written by older versions as well. The heavy metadata
(page/chunk indexes, Merkle trees, the file's own deletion vector)
stays in each file's binary footer where the paper puts it. The
manifest *names* files and caches their headline stats — per-column
[min, max], so a ``scan(where=...)`` can prune whole files without
opening them — plus one thing the file does not hold: an entry's
``deletion_vector``, the rows deleted since the file was written (see
:class:`DataFile`). A snapshot that carries one lists
``deletion_vectors`` in ``required_features``, so a build that cannot
apply vectors refuses it instead of reading deleted rows back.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, replace as _replace
from functools import cached_property

from repro.catalog.schema_evolution import (
    CatalogMetadataError,
    TableSchema,
    unknown_keys,
)
import numpy as np

from repro.core.reader import Layout, ReadIndex
from repro.expr import Expr
from repro.expr.interval import Zones, evaluate_zones


#: the feature a snapshot requires while any entry carries a vector
DELETION_VECTORS = "deletion_vectors"

#: manifest features this build reads. A snapshot whose
#: ``required_features`` names any other is refused, on read and on
#: commit, before anything is written: this build would misread it.
KNOWN_FEATURES: frozenset = frozenset({DELETION_VECTORS})

_FILE_KEYS = (
    "file_id", "row_count", "deleted_count", "byte_size",
    "schema_fingerprint", "column_stats", "schema_id", "deletion_vector",
)
_SNAPSHOT_KEYS = (
    "snapshot_id", "parent_id", "timestamp_ms", "operation", "files",
    "summary", "schemas", "current_schema_id", "format_version",
    "required_features",
)


#: the one manifest encoder: ``json.dumps(doc, sort_keys=True,
#: separators=(",", ":"))`` without building an encoder per call
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


class _FrozenDict(dict):
    """A dict that refuses changes (see :func:`_freeze`)."""

    def _refuse(self, *args, **kwargs):
        raise TypeError("manifest entries are immutable")

    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return (_FrozenDict, (dict(self),))


class _FrozenList(list):
    """A list that refuses changes (see :func:`_freeze`)."""

    _refuse = _FrozenDict._refuse
    __setitem__ = __delitem__ = __iadd__ = __imul__ = _refuse
    append = extend = insert = pop = remove = clear = _refuse
    sort = reverse = _refuse

    def __reduce__(self):
        return (_FrozenList, (list(self),))


def _freeze(value):
    """``value`` with every dict and list in it made read-only: an
    entry caches its encoding, which must not go stale. Still a dict or
    a list to ``==``, ``isinstance`` and the JSON encoder."""
    if isinstance(value, (_FrozenDict, _FrozenList)):
        return value
    if isinstance(value, dict):
        return _FrozenDict({k: _freeze(v) for k, v in value.items()})
    if isinstance(value, list):
        return _FrozenList(_freeze(v) for v in value)
    return value


def check_features(features) -> None:
    """Raise :class:`CatalogMetadataError` for any required feature
    this build does not know."""
    unknown = sorted(set(features) - KNOWN_FEATURES)
    if unknown:
        raise CatalogMetadataError(
            f"snapshot requires manifest features this build does not "
            f"know: {unknown}"
        )


def encode_runs(rows) -> tuple[int, ...]:
    """Sorted unique row positions as ``(start, length, start, length,
    ...)``: a retention cut (a prefix of the file) is one run."""
    rows = np.asarray(rows, dtype=np.int64)
    if not len(rows):
        return ()
    breaks = np.flatnonzero(np.diff(rows) != 1) + 1
    starts = rows[np.concatenate(([0], breaks))]
    lengths = np.diff(np.concatenate(([0], breaks, [len(rows)])))
    return tuple(np.column_stack((starts, lengths)).ravel().tolist())


def decode_runs(runs, row_count: int) -> np.ndarray:
    """The sorted row positions :func:`encode_runs` encoded; raises
    ``ValueError`` unless the runs are ascending, disjoint, non-empty
    and inside ``row_count`` rows."""
    pairs = np.asarray(runs, dtype=np.int64).reshape(-1, 2)
    starts, lengths = pairs[:, 0], pairs[:, 1]
    ends = starts + lengths
    if len(pairs) and (
        (lengths <= 0).any() or starts[0] < 0 or ends[-1] > row_count
        or (starts[1:] <= ends[:-1]).any()
    ):
        raise ValueError(f"malformed deletion vector {list(runs)[:8]!r}")
    return np.repeat(ends - lengths.cumsum(), lengths) + np.arange(
        int(lengths.sum())
    )


def _features(raw) -> tuple[str, ...]:
    if not isinstance(raw, list) or not all(isinstance(f, str) for f in raw):
        raise CatalogMetadataError(f"malformed required_features {raw!r}")
    return tuple(raw)


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
    #: keys a newer writer added, written back unchanged (read-only)
    extra: dict = field(default_factory=dict, compare=False, hash=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "extra", _freeze(self.extra))

    def to_dict(self) -> dict:
        return {
            **self.extra,
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
            extra=unknown_keys(d, ("min", "max", "kind")),
        )


@dataclass(frozen=True)
class DataFile:
    """One immutable member file, with its footer-derived stats.

    ``deletion_vector`` holds the rows deleted since the file was
    written, as runs (:func:`encode_runs`): a delete restages the entry,
    not the file. ``deleted_count`` counts the footer's deleted rows and
    the vector's, so :attr:`live_rows` and every threshold read it
    alike. ``column_stats`` and ``extra`` are read-only: the entry
    encodes its manifest record once (:attr:`record_json`) and
    snapshots splice it.
    """

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
    #: rows deleted since the file was written, as runs; empty: none
    deletion_vector: tuple[int, ...] = ()
    #: keys a newer writer added, written back unchanged (read-only)
    extra: dict = field(default_factory=dict, compare=False, hash=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "column_stats", _freeze(self.column_stats))
        object.__setattr__(self, "extra", _freeze(self.extra))

    def vector_rows(self) -> np.ndarray:
        """The rows :attr:`deletion_vector` deletes, ascending (decoded
        per call: snapshots of a table hold many entries of one file,
        and a retention cut's vector is one run of many rows)."""
        return decode_runs(self.deletion_vector, self.row_count)

    def with_deleted(self, rows) -> "DataFile":
        """This entry with live rows ``rows`` (ascending) deleted too.

        Merges runs, not rows: a retention cut's vector is one run of
        many rows, and expanding it on every later delete would cost
        its length each time."""
        old = np.asarray(self.deletion_vector, dtype=np.int64).reshape(-1, 2)
        new = np.asarray(encode_runs(rows), dtype=np.int64).reshape(-1, 2)
        runs = np.concatenate((old, new))
        if not len(runs):
            return self
        runs = runs[np.argsort(runs[:, 0], kind="stable")]
        starts, ends = runs[:, 0], runs.sum(axis=1)
        # a run starting at or before the furthest end so far (touching
        # or overlapping it) extends the merged run
        reach = np.maximum.accumulate(ends)
        heads = np.flatnonzero(np.r_[True, starts[1:] > reach[:-1]])
        starts, ends = starts[heads], np.maximum.reduceat(ends, heads)
        return _replace(
            self,
            deleted_count=self.deleted_count + int((ends - starts).sum())
            - int(old[:, 1].sum()),
            deletion_vector=tuple(
                np.column_stack((starts, ends - starts)).ravel().tolist()
            ),
        )

    @property
    def live_rows(self) -> int:
        return self.row_count - self.deleted_count

    @property
    def deleted_fraction(self) -> float:
        return self.deleted_count / self.row_count if self.row_count else 0.0

    def to_dict(self) -> dict:
        doc = {
            **self.extra,
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
        if self.deletion_vector:
            doc["deletion_vector"] = list(self.deletion_vector)
        return doc

    @cached_property
    def record_json(self) -> str:
        """This entry's manifest record, encoded on first use."""
        return _encode(self.to_dict())

    @cached_property
    def _record(self) -> dict:
        return self.to_dict()

    def matches(self, raw) -> bool:
        """Is ``raw`` (an entry of a parsed manifest) exactly this
        entry's record, unknown keys included, so that parsing it would
        give this entry back? ``==`` takes ``1``, ``1.0`` and ``true``
        for one value; :meth:`from_dict` converts the keys it reads, so
        only unknown ones are also compared as the bytes they encode
        to."""
        return raw == self._record and (
            not self._has_extra or _encode(raw) == self.record_json
        )

    @cached_property
    def _has_extra(self) -> bool:
        return bool(self.extra) or any(
            s.extra for s in (self.column_stats or {}).values()
        )

    @staticmethod
    def from_dict(d: dict) -> "DataFile":
        raw_stats = d.get("column_stats")
        raw_schema_id = d.get("schema_id")
        runs = tuple(d.get("deletion_vector", ()))
        if runs:
            decode_runs(runs, int(d["row_count"]))  # ValueError if malformed
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
            deletion_vector=runs,
            extra=unknown_keys(d, _FILE_KEYS),
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
    #: the manifest format; written only when it is not 1
    format_version: int = 1
    #: features a reader must know to read this snapshot (see
    #: :func:`check_features`); written only when there are some
    required_features: tuple[str, ...] = ()
    #: top-level keys a newer writer added, written back unchanged
    extra: dict = field(default_factory=dict, compare=False, hash=False)

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
        """The manifest: exactly ``json.dumps(doc, sort_keys=True,
        separators=(",", ":"))`` of the snapshot's document, with each
        entry's record spliced in as it encoded it once."""
        check_features(self.required_features)
        doc = {
            **self.extra,
            "snapshot_id": self.snapshot_id,
            "parent_id": self.parent_id,
            "timestamp_ms": self.timestamp_ms,
            "operation": self.operation,
            "files": None,
            "summary": self.summary,
        }
        # emitted only when the table has evolved: legacy tables keep
        # writing (and re-reading) byte-identical manifests
        if self.schemas:
            doc["schemas"] = [s.to_dict() for s in self.schemas]
        if self.current_schema_id is not None:
            doc["current_schema_id"] = self.current_schema_id
        if self.format_version != 1:
            doc["format_version"] = self.format_version
        if self.required_features:
            doc["required_features"] = list(self.required_features)
        files = "[" + ",".join(f.record_json for f in self.files) + "]"
        return ("{" + ",".join(
            _encode(key) + ":" + (files if key == "files" else _encode(value))
            for key, value in sorted(doc.items())
        ) + "}").encode()

    @staticmethod
    def from_json(data: bytes, entry=None) -> "Snapshot":
        """Parse one snapshot manifest; ``entry`` (default
        :meth:`DataFile.from_dict`) turns each parsed record of
        ``files`` into its :class:`DataFile`.

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
                files=tuple(map(entry or DataFile.from_dict, doc["files"])),
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
                format_version=int(doc.get("format_version", 1)),
                required_features=_features(doc.get("required_features", [])),
                extra=unknown_keys(doc, _SNAPSHOT_KEYS),
            )
            check_features(snapshot.required_features)
        except CatalogMetadataError:
            raise
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise CatalogMetadataError(
                f"malformed snapshot manifest: {exc!r}"
            ) from exc
        return snapshot


#: manifest stat kinds as codes (``ManifestIndex.meta_stats``)
KIND_NONE, KIND_INT, KIND_FLOAT, KIND_BYTES = range(4)
_KIND_CODES = {"int": KIND_INT, "float": KIND_FLOAT}


class ManifestIndex:
    """The manifest rows of a file list as arrays, one row per file:
    ``row_count``, ``deleted_count`` and, per column name on first use,
    its file-level stats read through each file's schema ``resolution``
    (a column an old-schema file never stored has none). Manifest
    verdicts are one :func:`~repro.expr.interval.evaluate_zones` pass
    over them."""

    def __init__(self, files, resolutions) -> None:
        self.files = list(files)
        self.resolutions = list(resolutions)
        self.row_count = np.array([f.row_count for f in self.files], dtype=np.int64)
        self.deleted_count = np.array(
            [f.deleted_count for f in self.files], dtype=np.int64
        )
        self._stats: dict = {}
        self._zones: dict = {}

    def meta_stats(self, name: str):
        """``(has, lo, hi, kind)`` arrays of ``name``'s stats per file
        (``kind``: ``KIND_*`` codes)."""
        found = self._stats.get(name)
        if found is None:
            stats = [
                None if f.column_stats is None or stored is None
                else f.column_stats.get(stored)
                for f, stored in zip(self.files, (
                    name if r is None else r.stored_name(name)
                    for r in self.resolutions
                ))
            ]
            found = self._stats[name] = (
                np.array([s is not None for s in stats], dtype=bool),
                np.array([s.min_value if s else 0.0 for s in stats]),
                np.array([s.max_value if s else 0.0 for s in stats]),
                np.array([
                    _KIND_CODES.get(s.kind, KIND_NONE) if s else KIND_NONE
                    for s in stats
                ], dtype=np.int8),
            )
        return found

    def verdicts(self, where: Expr):
        """``(never, always)`` of ``where`` per file from manifest stats.

        ``NEVER`` — provably no matching row (the file is prunable);
        ``ALWAYS`` — provably every row matches, which lets the query
        engine answer counts and extrema from the manifest alone and a
        delete drop the file unopened; neither — open the file and let
        finer layers decide. Files without statistics are never
        decided. ``where`` speaks current-schema names; an old-schema
        file's stats are read through its resolution, and a column the
        file never stored has none (evolution can never prune wrongly).
        """
        zones = {}
        for name in where.columns():
            zones[name] = self._zones.get(name)
            if zones[name] is None:
                has, lo, hi, kind = self.meta_stats(name)
                zones[name] = self._zones[name] = Zones.from_stats(
                    lo, hi, has, kind == KIND_INT
                )
        return evaluate_zones(where, zones, len(self.files))


class SnapshotIndex:
    """One parsed snapshot as arrays, shared by a table handle's pins:
    its :class:`ManifestIndex`, and a :class:`~repro.core.reader.ReadIndex`
    whose row per file × row group × column chunk is filled from a
    file's footer on the first read that reaches the file, so a file the
    manifest prunes costs no open. Files of one physical schema share
    one :class:`~repro.core.reader.Layout`."""

    def __init__(self, snapshot: "Snapshot", log) -> None:
        self.files = snapshot.files
        self.resolutions = [log.resolution(f) for f in self.files]
        self.manifest = ManifestIndex(self.files, self.resolutions)
        self.read = ReadIndex([None] * len(self.files))
        self._layouts: dict = {}

    def layout_key(self, i: int):
        """Files with one key share a layout (and a decode projection)."""
        f = self.files[i]
        return f.schema_fingerprint if self.resolutions[i] is None else (
            "schema", f.schema_id
        )

    def fill(self, ordinals, reader_for) -> None:
        """Fill files ``ordinals`` from their readers (``reader_for(file
        id)``), once each."""

        def block(i: int):
            reader = reader_for(self.files[i].file_id)
            key = self.layout_key(i)
            layout = self._layouts.get(key)
            if layout is None:
                layout = self._layouts[key] = Layout(
                    reader.footer, self.resolutions[i]
                )
            # the vector is this snapshot's: applied to a copy of the
            # reader's index, which other snapshots share
            index = reader.file_index.with_deleted(self.files[i].vector_rows())
            return index, layout

        self.read.fill(ordinals, block)


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
