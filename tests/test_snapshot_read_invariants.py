"""Per-file invariants of a snapshot read are derived once.

A request over a held pin pays per file only for what depends on the
request. The manifest intervals of a ``DataFile``, a reader's zone-map
intervals and its ``ScanFile`` layouts are derived on first use and
reused by every later request of the same shape; a second query and a
second scan derive none of them again. The memos hold metadata only,
never chunk bytes, and a read through them answers exactly as a read
through a fresh handle does, old-schema files included.
"""

import dataclasses
import sys
import threading
from collections import Counter

import numpy as np
import pytest

from repro.catalog import AddColumn, CatalogTable, MemoryCatalogStore
from repro.catalog.schema_evolution import ResolvedReader
from repro.catalog import snapshot as snapshot_mod
from repro.catalog.snapshot import Snapshot, newest_snapshot_id, snapshot_name
from repro.core import ScanStats, Table, WriterOptions
from repro.core import reader as reader_mod
from repro.expr import col
from repro.obs import metrics as obs_metrics

FILES = 20
ROWS = 300
#: the last files are written after ``extra`` is added; the earlier
#: ones read through a ``ResolvedReader``
EVOLVED = 4


@pytest.fixture(scope="module")
def table():
    cat = CatalogTable.create(MemoryCatalogStore())
    rng = np.random.default_rng(7)
    opts = WriterOptions(rows_per_page=50, rows_per_group=100)
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
    """Count every derivation of a manifest interval, a zone-map
    interval and a layout."""
    calls = Counter()

    def wrap(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    monkeypatch.setattr(
        snapshot_mod, "interval_from_stats",
        wrap("manifest", snapshot_mod.interval_from_stats),
    )
    monkeypatch.setattr(
        reader_mod, "interval_from_stats",
        wrap("zone map", reader_mod.interval_from_stats),
    )
    monkeypatch.setattr(reader_mod, "_layout", wrap("layout", reader_mod._layout))
    return calls


def test_second_request_derives_nothing(table, monkeypatch):
    calls = _counting(monkeypatch)
    with CatalogTable(table.store).pin() as pin:
        _requests(pin, 1)
        assert set(calls) == {"manifest", "zone map", "layout"}
        calls.clear()
        _requests(pin, 2)
        assert not calls


@pytest.mark.parametrize("i", [0, 3, 5])
def test_memos_answer_as_a_fresh_handle(table, i):
    with CatalogTable(table.store).pin() as held:
        for k in range(4):
            _requests(held, k)
        warm = _requests(held, i)
        resolved = [r for r in held._resolved_cache.values()]
    with CatalogTable(table.store).pin() as fresh:
        assert _requests(fresh, i) == warm
    assert len(resolved) == FILES - EVOLVED
    assert all(isinstance(r, ResolvedReader) for r in resolved)


def _chunks_fetched(answers) -> int:
    """Chunks the requests of one ``_requests`` call fetched."""
    return sum(stats.get("scan", stats)["chunks_fetched"] for _, stats in answers)


def test_threads_share_the_memos(table):
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


def test_memos_hold_no_bytes(table):
    with CatalogTable(table.store).pin() as pin:
        for k in range(3):
            _requests(pin, k)
        sources = [*pin._reader_cache.values(), *pin._resolved_cache.values()]
        assert len(sources) == 2 * FILES - EVOLVED
        for source in sources:
            assert source._memos
            assert not _holds_bytes(source._memos)
        for f in pin.snapshot.files:
            assert f._intervals and not _holds_bytes(f._intervals)


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
        fold.add(got, None, slice(None) if at is None else at, segments, sums)
        fold.flush(got)
        _fold_one_segment_at_a_time(want, at, segments, sums)
        for key, total in want.states.items():
            assert got.states[key].tobytes() == total.tobytes(), key
