"""A commit costs what it changes.

Work is counted, not timed: entries encoded (``DataFile.to_dict``) and
entries parsed (``DataFile.from_dict``) on a 200-file table. Then HEAD
lookups under races: two handles committing alternately, a stale
handle, expiry while a handle looks HEAD up, a pin on another handle
that keeps an old snapshot, and a commit whose outcome is unknown.
"""

import sys
import threading

import numpy as np
import pytest

from repro.catalog import (
    CatalogStore,
    CatalogTable,
    CommitOutcomeUnknown,
    DataFile,
    MaintenancePolicy,
    MaintenanceService,
)
from repro.core import Table
from repro.iosim import MemoryDirectory


class FaultyDirectory(MemoryDirectory):
    """``fail_link_after`` raises once a link into ``snapshots/`` has
    taken effect."""

    def __init__(self):
        super().__init__()
        self.fail_link_after = False

    def link(self, src, dst):
        linked = super().link(src, dst)
        if self.fail_link_after and dst.startswith("snapshots/"):
            self.fail_link_after = False
            raise OSError("injected after link")
        return linked


def _expire_all_but_head(table: CatalogTable) -> None:
    for snap in table.history()[:-1]:
        table.expire_snapshot(snap.snapshot_id)


def _batch(start: int, n: int = 10) -> Table:
    return Table({
        "ts": np.arange(start, start + n, dtype=np.int64),
        "v": np.linspace(0.0, 1.0, n),
    })


@pytest.fixture()
def wide():
    """A 200-file table (one add_shards commit) and its directory."""
    fs = FaultyDirectory()
    table = CatalogTable.create(CatalogStore(fs))
    table.add_shards(_batch(0, 2000), rows_per_shard=10)
    assert len(table.current_snapshot().files) == 200
    return fs, table


@pytest.fixture()
def count(monkeypatch):
    """Counts of entries encoded and parsed, by the methods doing it."""
    counts = {"encoded": 0, "parsed": 0}
    to_dict, from_dict = DataFile.to_dict, DataFile.from_dict

    def counted_to_dict(self):
        counts["encoded"] += 1
        return to_dict(self)

    def counted_from_dict(d):
        counts["parsed"] += 1
        return from_dict(d)

    monkeypatch.setattr(DataFile, "to_dict", counted_to_dict)
    monkeypatch.setattr(DataFile, "from_dict", staticmethod(counted_from_dict))
    return counts


# -- counted work ----------------------------------------------------------

def test_an_append_commit_encodes_one_entry(wide, count):
    _fs, table = wide
    for k in range(3):
        count["encoded"] = 0
        table.append(_batch(10_000 + 10 * k))
        assert count["encoded"] == 1
    assert count["parsed"] == 0


def test_a_handle_holding_the_parent_parses_only_changed_entries(wide, count):
    fs, writer = wide
    reader = CatalogTable(CatalogStore(fs))
    assert len(reader.current_snapshot().files) == 200
    count["parsed"] = 0
    writer.append(_batch(10_000))
    head = reader.current_snapshot()
    assert len(head.files) == 201 and count["parsed"] == 1
    # a delete that copies one file: one entry out, its copy in
    count["parsed"] = 0
    writer.delete("ts == 15")
    assert len(reader.current_snapshot().files) == 201
    assert count["parsed"] == 1
    # the entries the two snapshots share are one object
    assert reader.current_snapshot().files[0] is head.files[0]


def test_maintenance_parses_each_distinct_entry_at_most_once(wide, count):
    fs, writer = wide
    for k in range(4):
        writer.append(_batch(10_000 + 10 * k))
    writer.delete("ts < 25")
    distinct = {
        (f.file_id, f.record_json)
        for s in writer.history() for f in s.files
    }
    fresh = CatalogTable(CatalogStore(fs))
    count["parsed"] = 0
    report = MaintenanceService(fresh, MaintenancePolicy(keep_snapshots=2)).run_once()
    assert report.snapshots_expired > 0
    assert 0 < count["parsed"] <= len(distinct)


# -- HEAD lookups under races ----------------------------------------------

def test_two_handles_commit_alternately():
    fs = FaultyDirectory()
    CatalogTable.create(CatalogStore(fs))
    a, b = CatalogTable(CatalogStore(fs)), CatalogTable(CatalogStore(fs))
    ids = []
    for k in range(8):
        ids.append((a, b)[k % 2].append(_batch(10 * k)).snapshot_id)
    assert ids == list(range(1, 9))
    for handle in (a, b):
        head = handle.current_snapshot()
        assert head.snapshot_id == 8 and len(head.files) == 8
    chain = [s.parent_id for s in a.history()]
    assert chain == [None, *range(8)]
    assert a.stats.conflicts == b.stats.conflicts == 0


def test_a_stale_handle_finds_the_true_head():
    fs = FaultyDirectory()
    writer = CatalogTable.create(CatalogStore(fs))
    stale = CatalogTable(CatalogStore(fs))
    assert stale.current_snapshot().snapshot_id == 0
    for k in range(5):
        writer.append(_batch(10 * k))
    head = stale.current_snapshot()
    assert head.snapshot_id == 5 and len(head.files) == 5
    # and it commits on top of it
    assert stale.append(_batch(100)).parent_id == 5


def test_a_stale_handle_whose_head_was_expired_finds_the_new_one():
    fs = FaultyDirectory()
    writer = CatalogTable.create(CatalogStore(fs))
    stale = CatalogTable(CatalogStore(fs))
    stale.current_snapshot()
    for k in range(5):
        writer.append(_batch(10 * k))
    _expire_all_but_head(writer)
    assert [s.snapshot_id for s in writer.history()] == [5]
    assert stale.current_snapshot().snapshot_id == 5
    assert stale.append(_batch(100)).snapshot_id == 6


def test_expiry_below_head_while_a_handle_looks_head_up():
    """One thread appends and expires all but the newest snapshots;
    another keeps looking HEAD up on its own handle. Every lookup
    returns a snapshot at least as new as the one before, and the last
    one is the writer's last commit."""
    fs = FaultyDirectory()
    writer = CatalogTable.create(CatalogStore(fs))
    reader = CatalogTable(CatalogStore(fs))
    done = threading.Event()
    errors, seen = [], []

    def write():
        try:
            for k in range(30):
                writer.append(_batch(10 * k))
                if k % 3 == 2:
                    _expire_all_but_head(writer)
        except BaseException as exc:  # surfaced by the asserts below
            errors.append(exc)
        finally:
            done.set()

    thread = threading.Thread(target=write)
    thread.start()
    while not done.is_set():
        seen.append(reader.current_snapshot().snapshot_id)
    thread.join(30)
    assert errors == [] and not thread.is_alive()
    seen.append(reader.current_snapshot().snapshot_id)
    assert seen == sorted(seen) and seen[-1] == 30
    assert reader.current_snapshot().live_rows == 300


def test_current_snapshot_after_a_post_link_fault_on_the_same_handle():
    fs = FaultyDirectory()
    table = CatalogTable.create(CatalogStore(fs))
    table.append(_batch(0))
    fs.fail_link_after = True
    with pytest.raises(CommitOutcomeUnknown) as info:
        table.append(_batch(10))
    assert info.value.snapshot_id == 2
    head = table.current_snapshot()
    assert head.snapshot_id == 2 and head.live_rows == 20
    assert table.append(_batch(20)).snapshot_id == 3


def test_a_pin_on_another_handle_hides_no_commit():
    """Handle ``b`` pins snapshot 1, which handle ``a`` committed, and
    expires the snapshots above it but below HEAD. ``a`` then commits on
    the true HEAD, not in the gap right above 1."""
    fs = FaultyDirectory()
    a = CatalogTable.create(CatalogStore(fs))
    a.append(_batch(0))
    b = CatalogTable(CatalogStore(fs))
    policy = MaintenancePolicy(keep_snapshots=1, rollup_min_files=10**9)
    with b.pin() as pinned:
        assert pinned.snapshot.snapshot_id == 1
        for k in range(1, 5):
            b.append(_batch(10 * k))
        MaintenanceService(b, policy).run_once()
        assert [s.snapshot_id for s in b.history()] == [1, 5]
        snap = a.append(_batch(100))
    assert (snap.snapshot_id, snap.parent_id) == (6, 5)
    for handle in (a, b):
        head = handle.current_snapshot()
        assert head.snapshot_id == 6 and head.live_rows == 60


def test_threads_on_two_handles_lose_no_commit():
    """More writer threads than cores, over two handles of one
    directory, with thread switches forced often: every commit lands on
    its own consecutive id and every row is live at the end."""
    fs = FaultyDirectory()
    CatalogTable.create(CatalogStore(fs))
    handles = [CatalogTable(CatalogStore(fs)) for _ in range(2)]
    n_threads, commits_each = 6, 4
    barrier = threading.Barrier(n_threads)
    errors = []

    def write(k):
        try:
            barrier.wait(30)
            for i in range(commits_each):
                handles[(k + i) % 2].append(_batch(10 * (k * commits_each + i)))
                handles[k % 2].current_snapshot()
        except BaseException as exc:  # surfaced by the asserts below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=write, args=(k,)) for k in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert errors == [] and not any(t.is_alive() for t in threads)
    total = n_threads * commits_each
    for handle in handles:
        head = handle.current_snapshot()
        assert head.snapshot_id == total and head.live_rows == 10 * total
    assert [s.parent_id for s in handles[0].history()] == [None, *range(total)]
