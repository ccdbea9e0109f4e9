"""Manifests are byte-identical to one ``json.dumps`` of the document.

``Snapshot.to_json`` splices each entry's record, encoded once, into
the manifest. The oracle below is the encoder it replaced, kept
verbatim: one ``json.dumps(doc, sort_keys=True, separators=(",", ":"))``
over the whole document, every entry re-encoded. Seeded random
histories — appends, deletes, upserts, compactions and evolutions by
two handles, and a newer writer that adds unknown keys at the
snapshot, file and stats level, raises ``format_version``, lists a
``required_features`` entry and writes infinite bounds and non-ASCII
text — must publish exactly the oracle's bytes, and every manifest
must parse back to the same records.
"""

import json

import numpy as np
import pytest

from repro.catalog import (
    AddColumn,
    CatalogTable,
    MemoryCatalogStore,
    RenameColumn,
    Snapshot,
)
from repro.catalog import snapshot as snapshot_module
from repro.catalog.snapshot import check_features, snapshot_name
from repro.core import Table


# -- the oracle: the whole-document encoder, verbatim ------------------------

def _oracle_stats_to_dict(self) -> dict:
    return {
        **self.extra,
        "min": self.min_value,
        "max": self.max_value,
        "kind": self.kind,
    }


def _oracle_file_to_dict(self) -> dict:
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
            name: _oracle_stats_to_dict(stats)
            for name, stats in sorted(self.column_stats.items())
        }
    if self.schema_id is not None:
        doc["schema_id"] = self.schema_id
    return doc


def _oracle_to_json(self) -> bytes:
    check_features(self.required_features)
    doc = {
        **self.extra,
        "snapshot_id": self.snapshot_id,
        "parent_id": self.parent_id,
        "timestamp_ms": self.timestamp_ms,
        "operation": self.operation,
        "files": [_oracle_file_to_dict(f) for f in self.files],
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
    return json.dumps(
        doc, sort_keys=True, separators=(",", ":")
    ).encode()


# -- random histories --------------------------------------------------------

#: unknown-key values a newer writer might write, non-ASCII included
_VALUES = [
    42, 1.5, True, None, "ünïcode ✓", [1, "☃", {"k": []}],
    {"nested": {"deep": [0.25, -3]}}, float("inf"), -0.0,
]


class History:
    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng(seed)
        self.store = MemoryCatalogStore()
        CatalogTable.create(self.store)
        self.handles = [CatalogTable(self.store), CatalogTable(self.store)]
        self.columns = ["ts", "v"]  # current schema's names, in order
        self.next_ts = 0
        self.evolutions = 0

    def _batch(self, n: int, keys=None) -> Table:
        ts = (
            np.arange(self.next_ts, self.next_ts + n, dtype=np.int64)
            if keys is None else np.asarray(keys, dtype=np.int64)
        )
        if keys is None:
            self.next_ts += n
        v = self.rng.random(len(ts))
        if self.rng.random() < 0.3:  # infinite float bounds
            v[0], v[-1] = -np.inf, np.inf
        cols = {"ts": ts, "v": v}
        for name in self.columns[2:]:
            cols[name] = self.rng.integers(-5, 5, len(ts))
        return Table(cols)

    def step(self, op=None) -> CatalogTable:
        """One operation (``op``, else a random one); returns the
        handle that acted."""
        cat = self.handles[int(self.rng.integers(2))]
        op = op or self.rng.choice(
            ["append", "append", "delete", "upsert", "compact", "evolve",
             "newer", "fresh"]
        )
        if op == "append" or self.next_ts < 40:
            cat.append(self._batch(int(self.rng.integers(5, 30))))
        elif op == "delete":
            cut = int(self.rng.integers(0, self.next_ts))
            cat.delete(f"ts < {cut}" if self.rng.random() < 0.5 else f"ts == {cut}")
        elif op == "upsert":
            keys = self.rng.choice(self.next_ts, 6, replace=False)
            cat.upsert(self._batch(6, keys=np.sort(keys)), "ts")
        elif op == "compact":
            cat.compact()
        elif op == "evolve":
            self.evolutions += 1
            name = f"c{self.evolutions}"
            if len(self.columns) > 2 and self.rng.random() < 0.5:
                cat.evolve(RenameColumn(self.columns[-1], name))
                self.columns[-1] = name
            else:
                cat.evolve(AddColumn(name, "int64"))
                self.columns.append(name)
        elif op == "newer":
            self._newer_writer(cat)
        else:  # a handle that knows nothing parses every entry anew
            cat = self.handles[0] = CatalogTable(self.store)
        return cat

    def _value(self):
        return _VALUES[int(self.rng.integers(len(_VALUES)))]

    def _newer_writer(self, cat: CatalogTable) -> None:
        """Publish HEAD again as a newer build would: unknown keys at
        every level, some entries changed, format and features raised."""
        sid = cat.current_snapshot().snapshot_id
        doc = json.loads(self.store.read_metadata(snapshot_name(sid)))
        doc[f"top_ü{sid}"] = self._value()
        for record in doc["files"]:
            if self.rng.random() < 0.3:
                record[f"file_{sid}"] = self._value()
            for name, stats in record.get("column_stats", {}).items():
                if self.rng.random() < 0.2:
                    stats[f"stats_{sid}"] = self._value()
                if stats["kind"] == "float" and self.rng.random() < 0.1:
                    stats["min"] = float("-inf")
        doc["format_version"] = 2
        doc["required_features"] = ["x-newer"]
        doc["snapshot_id"], doc["parent_id"] = sid + 1, sid
        data = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
        assert self.store.put_metadata(snapshot_name(sid + 1), data)


def _assert_round_trip(snap: Snapshot) -> None:
    back = Snapshot.from_json(snap.to_json())
    assert back == snap and back.extra == snap.extra
    for a, b in zip(back.files, snap.files):
        assert a.extra == b.extra
        for name, stats in (a.column_stats or {}).items():
            assert stats.extra == b.column_stats[name].extra


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_every_published_manifest_is_the_oracles_bytes(seed, monkeypatch):
    monkeypatch.setattr(snapshot_module, "KNOWN_FEATURES", frozenset({"x-newer"}))
    history = History(seed)
    seen = set()
    for i in range(40):
        cat = history.step("newer" if i == 25 else None)
        snap = cat.current_snapshot()
        raw = history.store.read_metadata(snapshot_name(snap.snapshot_id))
        assert snap.to_json() == raw == _oracle_to_json(snap)
        _assert_round_trip(snap)
        seen.add(snap.snapshot_id)
    assert len(seen) > 20
    # every manifest in the log, written by this build or the newer one
    for name in history.store.list_metadata():
        raw = history.store.read_metadata(name)
        snap = Snapshot.from_json(raw)
        assert snap.to_json() == raw == _oracle_to_json(snap)
    # the histories reached what the oracle must agree on
    manifests = b"".join(
        history.store.read_metadata(n) for n in history.store.list_metadata()
    )
    for needle in (b"Infinity", b"\\u00fc", b'"format_version":2',
                   b"x-newer", b'"schemas"', b"stats_"):
        assert needle in manifests, needle


def test_a_snapshot_built_by_hand_encodes_like_the_oracle():
    """Unknown keys that sort before and after ``files``, a key holding
    the text ``"files":[]``, and entries without stats or schema ids."""
    from repro.catalog import ColumnStats, DataFile

    stats = ColumnStats(float("-inf"), float("inf"), "float",
                        extra={"zz": "ö", "aa": [1, 2]})
    files = (
        DataFile("f-1", 10, 2, 100, 7, {"b": stats, "a": stats}, 3,
                 extra={"aaa": {"files": []}, "zzz": -0.0}),
        DataFile("f-2", 5, 0, 50, 7),
    )
    snap = Snapshot(
        7, 6, 123, "append", files, {"rows_added": 15},
        format_version=3,
        extra={"a": '"files":[]', "files_x": 1, "fil": None},
    )
    assert snap.to_json() == _oracle_to_json(snap)
    assert Snapshot(0, None, 1, "create").to_json() == _oracle_to_json(
        Snapshot(0, None, 1, "create")
    )
    _assert_round_trip(snap)
