"""A pinned snapshot is one columnar index, derived once.

A request over a held pin pays per file only for what depends on the
request. The snapshot's index — manifest rows per file, and a row per
file × row group × column chunk filled from a footer on the first read
that reaches the file — is built once per snapshot and shared by the
handle's pins; a second query or scan derives nothing. Its size is set
by the snapshot (its files, groups and column names), not by how many
projections or filters were asked of it; two threads racing the first
request fill it once and answer alike; and a read through it answers
exactly as a read through a fresh handle does, old-schema files
included.
"""

import dataclasses
import sys
import threading
from collections import Counter

import numpy as np
import pytest

from repro.catalog import AddColumn, CatalogTable, MemoryCatalogStore
from repro.catalog import snapshot as snapshot_mod
from repro.catalog.snapshot import Snapshot, newest_snapshot_id, snapshot_name
from repro.core import ScanStats, Table, WriterOptions
from repro.core import reader as reader_mod
from repro.expr import col
from repro.obs import metrics as obs_metrics

FILES = 20
ROWS = 300
GROUPS = 3  # per file
#: the last files are written after ``extra`` is added; the earlier
#: ones read through a resolved layout
EVOLVED = 4


@pytest.fixture(scope="module")
def table():
    cat = CatalogTable.create(MemoryCatalogStore())
    rng = np.random.default_rng(7)
    opts = WriterOptions(rows_per_page=50, rows_per_group=ROWS // GROUPS)
    for k in range(FILES):
        if k == FILES - EVOLVED:
            cat.evolve(AddColumn("extra", "int64"))
        cols = {
            "ts": np.arange(k * ROWS, (k + 1) * ROWS, dtype=np.int64),
            "v": rng.standard_normal(ROWS),
            "region": rng.integers(0, 4, ROWS).astype(np.int32),
        }
        if k >= FILES - EVOLVED:
            cols["extra"] = rng.integers(0, 9, ROWS, dtype=np.int64)
        cat.append(Table(cols), options=opts)
    return cat


def _requests(pin, i):
    """A cold query, a grouped one and a filtered scan; the literals
    change with ``i``, the shapes do not."""
    cold = pin.query(["count", "sum(v)", "min(ts)"], where=col("v") > -1 + i / 8)
    grouped = pin.query(
        ["count", "sum(v)", "max(extra)"], where=col("v") > -i / 8,
        group_by=["region"],
    )
    stats = ScanStats()
    scanned = pin.read(
        ["ts", "v", "extra"],
        where=(col("region") == i % 4) & (col("ts") >= i * 250),
        scan_stats=stats,
    )
    return [
        (cold.rows, dataclasses.asdict(cold.stats)),
        (grouped.rows, dataclasses.asdict(grouped.stats)),
        ({n: c.tolist() for n, c in scanned.columns.items()},
         dataclasses.asdict(stats)),
    ]


def _counting(monkeypatch):
    """Count every derivation: a snapshot index, a file's footer rows,
    the arrays over the filled files, a column's chunk rows, and a
    column's manifest stats."""
    calls = Counter()

    def wrap(cls, attr, name):
        fn = getattr(cls, attr)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(cls, attr, counted)

    wrap(snapshot_mod.SnapshotIndex, "__init__", "index")
    wrap(reader_mod.FileIndex, "__init__", "footer rows")
    wrap(reader_mod.IndexState, "__init__", "arrays")
    wrap(reader_mod.ColumnRows, "__init__", "chunk rows")
    real = snapshot_mod.ManifestIndex.meta_stats

    def meta_stats(self, name):
        if name not in self._stats:
            calls["manifest"] += 1
        return real(self, name)

    monkeypatch.setattr(snapshot_mod.ManifestIndex, "meta_stats", meta_stats)
    return calls


def test_second_request_derives_nothing(table, monkeypatch):
    """The index is derived once per snapshot: a second query or scan,
    and a second pin of the snapshot, derive nothing."""
    calls = _counting(monkeypatch)
    fresh = CatalogTable(table.store)
    with fresh.pin() as pin:
        _requests(pin, 1)
        assert calls["index"] == 1
        # every file's footer, once; the arrays at most once per fill
        assert calls["footer rows"] == FILES
        assert set(calls) == {
            "index", "footer rows", "arrays", "chunk rows", "manifest",
        }
        calls.clear()
        _requests(pin, 2)
        assert not calls
    # a second pin of the snapshot shares it
    with fresh.pin() as again:
        _requests(again, 3)
        assert not calls


def test_the_index_is_bounded_by_the_snapshot(table):
    """Any number of projections and filters: one row per file × group,
    one chunk-row set per column name, one manifest-stats set per
    filtered name."""
    with CatalogTable(table.store).pin() as pin:
        names = ["ts", "v", "region", "extra"]
        for k in range(12):
            columns = names[k % 4 :] + names[: k % 4 - 1]
            pin.read(columns, where=col(names[k % 3]) >= k)
            pin.query(["count", f"max({names[k % 4]})"], where=col("v") < k / 4)
        index = pin.index()
        state = index.read.state()
        assert state.n_groups == FILES * GROUPS
        assert len(state._columns) <= len(names)
        assert set(index.manifest._stats) <= set(names)
        assert len(index._layouts) == 2  # one per stored schema


@pytest.mark.parametrize("i", [0, 3, 5])
def test_memos_answer_as_a_fresh_handle(table, i):
    """The index, the snapshot's memo of its footers, answers as a
    fresh handle does."""
    with CatalogTable(table.store).pin() as held:
        for k in range(4):
            _requests(held, k)
        warm = _requests(held, i)
        index = held.index()
    with CatalogTable(table.store).pin() as fresh:
        assert _requests(fresh, i) == warm
    # old-schema files are covered: resolved through their own layout
    resolved = [r for r in index.resolutions if r is not None]
    assert len(resolved) == FILES - EVOLVED
    layouts = {id(block[1]) for block in index.read.blocks}
    assert len(layouts) == 2


def test_racing_first_requests_fill_the_index_once(table, monkeypatch):
    calls = _counting(monkeypatch)
    with CatalogTable(table.store).pin() as pin:
        want = _requests(CatalogTable(table.store).pin(), 0)
        calls.clear()
        barrier = threading.Barrier(2)
        got, errors = [], []

        def client():
            try:
                barrier.wait()
                got.append(_requests(pin, 0))
            except Exception as exc:  # reported by the assert below
                errors.append(exc)

        threads = [threading.Thread(target=client) for _ in range(2)]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(switch)
        assert not errors and got == [want, want]
        assert calls["index"] == 1 and calls["footer rows"] == FILES


class _HookedFlags(np.ndarray):
    """A ``filled`` array that runs ``hook`` right after each store."""

    hook = None

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        if self.hook is not None:
            self.hook()


def test_a_file_seen_filled_is_in_the_state_read_next(table):
    """A request whose files all read as filled skips the lock; the
    state it reads next must cover them. Request B runs at the moment
    request A marks file 1 filled, with an older state built."""
    with CatalogTable(table.store).pin() as pin:
        pin.read(["ts"])
        blocks = pin.index().read.blocks
    index = reader_mod.ReadIndex([blocks[0], None])
    assert index.state().n_groups == GROUPS  # the state B must not reuse
    index.filled = index.filled.view(_HookedFlags)
    seen = []

    def request_b():
        index.fill([1], blocks.__getitem__)
        seen.append(index.state().n_groups)

    def hook():
        index.filled.hook = None
        b = threading.Thread(target=request_b)
        b.start()
        b.join(timeout=0.5)  # B blocks on the lock unless it went stale
        threads.append(b)

    threads = []
    index.filled.hook = hook
    index.fill([1], blocks.__getitem__)
    threads[0].join(timeout=60)
    assert seen == [2 * GROUPS]


def test_threads_filling_different_files_answer_as_a_fresh_handle(table):
    """Two threads racing their first requests over overlapping halves
    of a cold snapshot answer as a fresh handle does, trial after
    trial."""
    halves = [col("ts") < ROWS * FILES * 3 // 5, col("ts") >= ROWS * FILES * 2 // 5]

    def ask(pin, where):
        stats = ScanStats()
        rows = pin.read(["ts", "extra"], where=where, scan_stats=stats)
        answer = pin.query(["count", "sum(ts)", "max(extra)"], where=where)
        return rows.column("ts").tolist(), answer.rows, stats.files_scanned

    with CatalogTable(table.store).pin() as pin:
        want = [ask(pin, where) for where in halves]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _trial in range(4):
            with CatalogTable(table.store).pin() as pin:
                got, errors = [None, None], []

                def client(k):
                    try:
                        got[k] = ask(pin, halves[k])
                    except Exception as exc:  # reported by the assert below
                        errors.append(exc)

                threads = [threading.Thread(target=client, args=(k,)) for k in (0, 1)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
            assert not errors and got == want
    finally:
        sys.setswitchinterval(switch)


def _chunks_fetched(answers) -> int:
    """Chunks the requests of one ``_requests`` call fetched."""
    return sum(stats.get("scan", stats)["chunks_fetched"] for _, stats in answers)


def test_threads_share_the_index(table):
    """Eight threads over one pin, switching often: every answer is the
    single-threaded one, and every chunk a read fetched is one claim
    the caches counted (hit, miss or wait), published exactly once."""
    registry = obs_metrics.default_registry()
    with CatalogTable(table.store).pin() as pin:
        want = {i: _requests(pin, i) for i in range(4)}
        got, errors = [], []

        def client():
            try:
                got.extend((i % 4, _requests(pin, i % 4)) for i in range(12))
            except Exception as exc:  # reported by the assert below
                errors.append(exc)

        threads = [threading.Thread(target=client) for _ in range(8)]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        before = registry.snapshot()
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads) and not errors
    assert len(got) == 8 * 12 and all(answers == want[i] for i, answers in got)
    delta = registry.delta(before)
    claims = sum(
        delta.value("cache_tier_hits_total", tier=tier)
        for tier in ("memory", "disk")
    )
    claims += delta.value("cache_tier_misses_total")
    claims += delta.value("cache_singleflight_waits_total")
    fetched = sum(_chunks_fetched(answers) for _i, answers in got)
    assert fetched > 8 * 12 * FILES and claims == fetched


def _holds_bytes(value) -> bool:
    if isinstance(value, (bytes, bytearray, memoryview)):
        return True
    if isinstance(value, dict):
        value = [*value.keys(), *value.values()]
    if isinstance(value, (list, tuple, set, frozenset)):
        return any(map(_holds_bytes, value))
    return False


def test_the_index_holds_no_chunk_bytes(table):
    """Only footers: the chunk rows and manifest stats are arrays."""
    with CatalogTable(table.store).pin() as pin:
        for k in range(3):
            _requests(pin, k)
        index = pin.index()
        state = index.read.state()
        for rows in state._columns.values():
            for attr in rows.__slots__:
                value = getattr(rows, attr)
                assert not _holds_bytes(value)
                assert not isinstance(value, np.ndarray) or value.dtype != object
        assert not _holds_bytes(index.manifest._stats)


def test_snapshots_share_their_file_entries(table):
    fresh = CatalogTable(table.store)
    head = fresh.current_snapshot()
    older = fresh.snapshot(head.snapshot_id - 3)
    shared = {f.file_id: f for f in head.files}
    assert older.files and all(
        shared[f.file_id] is f for f in older.files if f.file_id in shared
    )


def test_newest_snapshot_name_widens_past_ten_digits():
    names = [
        "notes.json", snapshot_name(9_999_999_999), "snap-x.json",
        snapshot_name(10**10), snapshot_name(7), "snap-99999999999.json.tmp",
    ]
    assert newest_snapshot_id(names) == 10**10
    assert newest_snapshot_id(["notes.json", "snap-.json"]) is None
    assert newest_snapshot_id([]) is None


def test_current_snapshot_ignores_foreign_objects():
    store = MemoryCatalogStore()
    cat = CatalogTable.create(store)
    for sid in (9_999_999_999, 10**10):
        snap = Snapshot(
            snapshot_id=sid, parent_id=0, timestamp_ms=sid, operation="t"
        )
        assert store.put_metadata(snapshot_name(sid), snap.to_json())
    assert store.put_metadata("snap-abc.json", b"{}")
    assert store.put_metadata("zz-notes.json", b"{}")
    assert cat.current_snapshot().snapshot_id == 10**10


class _File:
    def __init__(self, n_segments: int) -> None:
        self.segments = [None] * n_segments


class _Seg:
    def __init__(self, file) -> None:
        self.file = file


def _fold_one_segment_at_a_time(acc, at, segments, sums):
    """The reference fold: every segment in order, a single-segment
    file added to the totals at once, a longer one through its own open
    total that the next file adds."""
    current, open_ = None, {}

    def flush():
        for name, (total, touched) in open_.items():
            acc.states[(name, "sum")][touched] += total[touched]
        open_.clear()

    n_slots = len(acc.rows)
    with np.errstate(invalid="ignore"):
        for j, seg in enumerate(segments):
            if seg.file is not current:
                flush()
                current = seg.file
            for name, (bounds, keys, values) in sums.items():
                lo, hi = bounds[j], bounds[j + 1]
                slots = keys[lo:hi] if at is None else at[keys[lo:hi]]
                if len(seg.file.segments) == 1:
                    acc.states[(name, "sum")][slots] += values[lo:hi]
                elif lo < hi:
                    total, touched = open_.setdefault(
                        name, (np.zeros(n_slots), np.zeros(n_slots, bool))
                    )
                    total[slots] += values[lo:hi]
                    touched[slots] = True
        flush()


def test_float_sum_fold_matches_one_segment_at_a_time():
    """The fold adds each run of single-segment files in one
    ``np.add.at``; bit for bit it is the per-segment loop, over NaN,
    infinities, -0.0 and sixteen decades, with and without a merge
    moving the slots."""
    from repro.query import engine

    rng = np.random.default_rng(34)
    special = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 1e300, -1e300])
    for _trial in range(300):
        n_slots = int(rng.integers(1, 9))
        segments, file = [], None
        while len(segments) < int(rng.integers(1, 25)):
            file = _File(int(rng.choice([1, 1, 1, 2, 3])))
            segments += [_Seg(file) for _ in file.segments]
        sums = {}
        for name in ("a", "b"):
            counts = rng.integers(0, n_slots + 1, len(segments))
            keys = np.concatenate([
                np.sort(rng.choice(n_slots, c, replace=False)) for c in counts
            ]).astype(np.intp)
            values = rng.normal(size=len(keys)) * 10.0 ** rng.integers(
                -8, 8, len(keys)
            )
            odd = rng.random(len(keys)) < 0.1
            values[odd] = rng.choice(special, odd.sum())
            sums[name] = (np.concatenate(([0], np.cumsum(counts))), keys, values)
        at = rng.permutation(n_slots) if rng.random() < 0.5 else None
        got, want = (
            engine._Partial([], np.zeros(n_slots), {
                (name, "sum"): rng.normal(size=n_slots) for name in sums
            })
            for _ in range(2)
        )
        want.states = {k: v.copy() for k, v in got.states.items()}
        fold = engine._SumFold()
        files = {id(seg.file): k for k, seg in enumerate(segments)}
        fold.add(
            got, None, slice(None) if at is None else at,
            np.array([files[id(seg.file)] for seg in segments]),
            np.array([len(seg.file.segments) == 1 for seg in segments]),
            sums,
        )
        fold.flush(got)
        _fold_one_segment_at_a_time(want, at, segments, sums)
        for key, total in want.states.items():
            assert got.states[key].tobytes() == total.tobytes(), key
