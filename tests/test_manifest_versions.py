"""Manifest records survive versions.

A manifest a newer build wrote may carry keys this build does not
read. Optional ones (at the snapshot, data-file, column-stats and
schema-log levels) are kept and written back unchanged by every commit
on top; a feature the newer build lists in ``required_features`` is
one this build would misread, so it refuses the snapshot — on read and
on commit, before anything is written. Manifests this build writes
without either keep re-serialising byte for byte.
"""

import copy
import json
import pickle

import numpy as np
import pytest

from repro.catalog import (
    AddColumn,
    CatalogMetadataError,
    CatalogTable,
    MemoryCatalogStore,
    Snapshot,
)
from repro.catalog.snapshot import parse_snapshot_name, snapshot_name
from repro.core import Table


def _batch(start: int, extra: bool = False) -> Table:
    cols = {
        "ts": np.arange(start, start + 50, dtype=np.int64),
        "v": np.linspace(0.0, 1.0, 50),
    }
    if extra:
        cols["clicks"] = np.arange(50, dtype=np.int64)
    return Table(cols)


def _table() -> CatalogTable:
    cat = CatalogTable.create(MemoryCatalogStore())
    cat.append(_batch(0))
    cat.evolve(AddColumn("clicks", "int64"))
    cat.append(_batch(50, extra=True))
    cat.delete("ts < 10")
    return cat


def _head_doc(cat) -> tuple[int, dict]:
    sid = cat.current_snapshot().snapshot_id
    return sid, json.loads(cat.store.read_metadata(snapshot_name(sid)))


def _publish(cat, doc: dict) -> int:
    """Put ``doc`` as the next snapshot, as a newer build would."""
    sid = doc["snapshot_id"] = doc["snapshot_id"] + 1
    doc["parent_id"] = sid - 1
    data = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    assert cat.store.put_metadata(snapshot_name(sid), data)
    return sid


def test_manifests_without_new_keys_reserialise_byte_identically():
    cat = _table()
    names = [n for n in cat.store.list_metadata() if parse_snapshot_name(n)]
    assert len(names) >= 4
    for name in names:
        raw = cat.store.read_metadata(name)
        snap = Snapshot.from_json(raw)
        assert snap.to_json() == raw
        assert b"format_version" not in raw and b"required_features" not in raw


def test_optional_fields_of_a_newer_writer_survive_an_append():
    cat = _table()
    _sid, doc = _head_doc(cat)
    doc["lineage"] = {"job": "nightly", "attempt": 3}
    doc["files"][0]["encryption"] = {"key_id": "k1"}
    doc["files"][0]["column_stats"]["ts"]["null_count"] = 0
    doc["schemas"][0]["comment"] = "first"
    doc["schemas"][-1]["columns"][0]["doc"] = "event time"
    doc["format_version"] = 2
    _publish(cat, doc)

    fresh = CatalogTable(cat.store)
    fresh.append(_batch(100, extra=True))
    _sid, after = _head_doc(fresh)
    assert after["lineage"] == {"job": "nightly", "attempt": 3}
    assert after["format_version"] == 2
    carried = {f["file_id"]: f for f in after["files"]}[doc["files"][0]["file_id"]]
    assert carried == doc["files"][0]
    schemas = {s["schema_id"]: s for s in after["schemas"]}
    for schema in doc["schemas"]:
        assert schemas[schema["schema_id"]] == schema
    # and the rows read as before
    assert fresh.read(["ts"]).num_rows == 140


def test_an_unknown_required_feature_is_refused_before_anything_is_written():
    cat = _table()
    _sid, doc = _head_doc(cat)
    doc["required_features"] = ["pages-v9"]
    sid = _publish(cat, doc)
    names = sorted(cat.store.list_metadata())
    data = sorted(cat.store.list_data())

    fresh = CatalogTable(cat.store)
    with pytest.raises(CatalogMetadataError, match="pages-v9"):
        fresh.append(_batch(100, extra=True))
    with pytest.raises(CatalogMetadataError, match="pages-v9"):
        fresh.pin()
    with pytest.raises(CatalogMetadataError, match="pages-v9"):
        Snapshot.from_json(cat.store.read_metadata(snapshot_name(sid)))
    assert sorted(cat.store.list_metadata()) == names
    assert sorted(cat.store.list_data()) == data
    assert cat.store.backend.list("tmp") == []


def test_a_commit_refuses_a_snapshot_requiring_an_unknown_feature():
    cat = _table()
    head = cat.current_snapshot()
    snap = Snapshot(
        snapshot_id=head.snapshot_id + 1, parent_id=head.snapshot_id,
        timestamp_ms=head.timestamp_ms + 1, operation="t",
        required_features=("pages-v9",),
    )
    with pytest.raises(CatalogMetadataError, match="pages-v9"):
        snap.to_json()


def test_malformed_required_features_fail_typed():
    doc = json.loads(_table().current_snapshot().to_json())
    for bad in ("pages-v9", [1], {"a": 1}):
        doc["required_features"] = bad
        with pytest.raises(CatalogMetadataError):
            Snapshot.from_json(json.dumps(doc).encode())


@pytest.mark.parametrize("level", ["file", "stats"])
def test_keys_a_newer_writer_adds_to_an_entry_a_handle_holds_survive(level):
    """The handle has parsed the entry already; the newer writer's
    record of it differs only in a key this build does not read. The
    handle must take the new record, not the entry it holds."""
    cat = _table()
    held = CatalogTable(cat.store)
    held.current_snapshot()
    _sid, doc = _head_doc(cat)
    record = doc["files"][0]
    if level == "file":
        record["future_field"] = 42
    else:
        record["column_stats"]["ts"]["future_field"] = 42
    _publish(cat, doc)

    entry = held.current_snapshot().files[0]
    extra = entry.extra if level == "file" else entry.column_stats["ts"].extra
    assert extra == {"future_field": 42}
    held.append(_batch(100, extra=True))
    _sid, after = _head_doc(held)
    carried = {f["file_id"]: f for f in after["files"]}[record["file_id"]]
    assert carried == record


def test_an_entry_is_read_only_so_its_encoding_cannot_go_stale():
    cat = _table()
    _sid, doc = _head_doc(cat)
    doc["files"][0]["encryption"] = {"key_ids": ["k1"]}
    _publish(cat, doc)
    entry = CatalogTable(cat.store).current_snapshot().files[0]
    encoded = entry.record_json
    stats = entry.column_stats["ts"]
    for change in (
        lambda: entry.extra.update(x=1),
        lambda: entry.extra["encryption"].pop("key_ids"),
        lambda: entry.extra["encryption"]["key_ids"].append("k2"),
        lambda: entry.column_stats.__setitem__("ts", stats),
        lambda: entry.column_stats.pop("ts"),
        lambda: stats.extra.setdefault("null_count", 0),
    ):
        with pytest.raises(TypeError, match="immutable"):
            change()
    assert entry.record_json == encoded == json.dumps(
        entry.to_dict(), sort_keys=True, separators=(",", ":")
    )
    # still plain JSON values to everything that reads them
    assert entry.extra == {"encryption": {"key_ids": ["k1"]}}
    assert isinstance(entry.extra["encryption"]["key_ids"], list)
    for clone in (pickle.loads(pickle.dumps(entry)), copy.deepcopy(entry)):
        assert clone == entry and clone.extra == entry.extra
        assert clone.record_json == encoded
