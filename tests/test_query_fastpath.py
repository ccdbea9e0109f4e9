"""Fast-path isolation: metadata answers must not touch data.

The paper's claim is not "aggregation is fast" but "aggregation over
rich metadata needs *zero* data I/O". These tests pin that down with
storage instrumentation rather than trusting the engine's own
accounting (though both are asserted):

* a metadata-answerable query (count/min/max, clean snapshot) opens
  **zero** data files at the catalog level and fetches **zero** data
  chunks at the file level;
* a ``MAYBE`` predicate decodes only the extents the interval
  evaluator could not prove, and a single live deletion vector
  disables the metadata path entirely (footer statistics summarize
  deleted rows too);
* partial-aggregate merge is bit-identical for executor widths
  1/2/8, float sums included — parallelism never changes the answer.
"""

import numpy as np
import pytest

from repro.catalog import CatalogTable, MemoryCatalogStore
from repro.core import Table, WriterOptions
from repro.expr import col


class CountingCatalogStore(MemoryCatalogStore):
    """Memory store that counts ``open_data`` calls and remembers the
    opened storages so tests can total the preads issued *after* the
    open (the shared in-memory storages carry commit-time counters)."""

    def __init__(self) -> None:
        super().__init__("counting")
        self.opened = []

    def open_data(self, file_id: str):
        storage = super().open_data(file_id)
        self.opened.append((storage, storage.stats.reads))
        return storage

    def begin_run(self) -> None:
        self.opened = []

    @property
    def data_reads(self) -> int:
        return sum(s.stats.reads - base for s, base in self.opened)


def _build_catalog(n_files=4, rows=200, sorted_key=True):
    store = CountingCatalogStore()
    cat = CatalogTable.create(store)
    rng = np.random.default_rng(0)
    for k in range(n_files):
        lo = k * rows
        cat.append(
            Table({
                "ts": np.arange(lo, lo + rows, dtype=np.int64),
                "v": rng.normal(size=rows),
                "region": rng.integers(0, 3, rows).astype(np.int32),
            }),
            options=WriterOptions(rows_per_page=25, rows_per_group=50),
        )
    return store, cat


# ---------------------------------------------------------------------------
# zero-I/O assertions (the acceptance criterion)
# ---------------------------------------------------------------------------

class TestManifestOnlyPath:
    def test_count_min_max_opens_no_files(self):
        """count/min/max on a clean snapshot: zero file opens, zero
        data chunks — the manifest alone answers."""
        store, cat = _build_catalog()
        store.begin_run()
        with cat.pin() as snap:
            res = snap.query(["count", "min(ts)", "max(ts)", "min(v)"])
        assert store.opened == [], "manifest-only query opened a file"
        assert res.stats.files_meta_answered == 4
        assert res.stats.data_chunks_fetched == 0
        row = res.rows[0]
        assert row["count(*)"] == 800
        assert row["min(ts)"] == 0 and row["max(ts)"] == 799

    def test_count_under_never_and_always_predicate(self):
        """A predicate proven per file from manifest stats counts with
        zero opens: ALWAYS files count whole, NEVER files vanish."""
        store, cat = _build_catalog()
        store.begin_run()
        with cat.pin() as snap:
            # files hold ts ranges [0,200) [200,400) [400,600) [600,800):
            # < 400 is ALWAYS for the first two, NEVER for the rest
            res = snap.query(["count"], where=col("ts") < 400)
        assert store.opened == []
        assert res.rows[0]["count(*)"] == 400
        assert res.stats.files_meta_answered == 2
        assert res.stats.files_pruned == 2
        assert res.stats.data_chunks_fetched == 0


class TestFooterOnlyPath:
    def test_maybe_file_counts_from_zone_maps(self):
        """A file the manifest can't decide opens its footer but
        answers from zone maps when every row group is provable."""
        store, cat = _build_catalog()
        store.begin_run()
        with cat.pin() as snap:
            # 250 straddles file 2 ([200,400)) on a row-group boundary
            # (groups of 50), so every group is ALWAYS or NEVER
            res = snap.query(["count"], where=col("ts") < 250)
        assert res.rows[0]["count(*)"] == 250
        assert res.stats.files_meta_answered == 1   # file 1: ALWAYS
        assert res.stats.files_footer_answered == 1  # file 2: zone maps
        assert res.stats.files_pruned == 2
        assert res.stats.data_chunks_fetched == 0
        # the opened file read only its footer: one speculative tail
        # pread covers the tail and the footer together
        assert len(store.opened) == 1
        assert store.data_reads == 1

    def test_maybe_group_decodes_only_itself(self):
        """A predicate cutting inside one row group decodes exactly
        that group's filter chunk; provable groups stay metadata."""
        store, cat = _build_catalog()
        store.begin_run()
        with cat.pin() as snap:
            res = snap.query(["count"], where=col("ts") < 230)
        assert res.rows[0]["count(*)"] == 230
        assert res.stats.groups_meta_answered == 0  # file 2's ALWAYS ...
        # file 1 is manifest-answered; inside file 2, group [200,250)
        # is the only MAYBE extent
        assert res.stats.files_decoded == 1
        assert res.stats.scan.chunks_fetched == 1
        assert res.stats.scan.rows_scanned == 50


class TestFallbacks:
    def test_single_deletion_vector_forces_decode(self):
        """One live deletion vector and the same query decodes —
        footer stats summarize deleted rows, so metadata may not
        answer."""
        store, cat = _build_catalog()
        cat.delete(col("ts") == 123)  # file 1 rewritten with a delvec
        store.begin_run()
        with cat.pin() as snap:
            res = snap.query(["count", "min(ts)", "max(ts)"])
        assert res.rows[0]["count(*)"] == 799
        assert res.rows[0]["min(ts)"] == 0
        assert res.rows[0]["max(ts)"] == 799
        # the three untouched files stay manifest-answered; the
        # rewritten one (delvec) must decode
        assert res.stats.files_meta_answered == 3
        assert res.stats.files_decoded == 1
        assert res.stats.data_chunks_fetched > 0

    def test_star_count_over_a_deletion_vector_stays_metadata(self):
        """``count(*)`` alone needs no statistics: a file whose
        manifest entry carries a deletion vector answers its live rows
        (``row_count - deleted_count``) unopened, under an ``ALWAYS``
        predicate too."""
        store, cat = _build_catalog()
        after = cat.delete(col("ts") == 123)  # a MAYBE cut: a vector
        assert sum(bool(f.deletion_vector) for f in after.files) == 1
        store.begin_run()
        with cat.pin() as snap:
            res = snap.query(["count"])
            under = snap.query(["count"], where=col("ts") < 400)
        assert store.opened == [], "a count(*) opened a file"
        assert res.rows[0]["count(*)"] == 799
        assert res.stats.files_meta_answered == 4
        assert res.stats.rows_from_metadata == 799
        assert res.stats.data_chunks_fetched == 0
        assert under.rows[0]["count(*)"] == 399
        assert under.stats.files_meta_answered == 2
        assert under.stats.files_pruned == 2

    def test_single_file_deletion_vector(self):
        store, cat = _build_catalog(n_files=1)
        cat.delete(col("ts") == 7)  # the file rewritten with a delvec
        store.begin_run()
        with cat.pin() as snap:
            res = snap.query(["count", "min(ts)"])
        assert res.rows[0]["count(*)"] == 199
        assert res.rows[0]["min(ts)"] == 0
        assert res.stats.files_decoded == 1
        assert res.stats.data_chunks_fetched > 0
        assert store.data_reads > 1  # more than the footer

    def test_maybe_predicate_falls_back(self):
        """Strings carry no statistics: every verdict is MAYBE and the
        whole query decodes, correctly."""
        rows = 200
        store_tag = CountingCatalogStore()
        cat_tag = CatalogTable.create(store_tag)
        cat_tag.append(
            Table({
                "ts": np.arange(rows, dtype=np.int64),
                "tag": [f"t{i % 4}".encode() for i in range(rows)],
            }),
            options=WriterOptions(rows_per_page=25, rows_per_group=50),
        )
        store_tag.begin_run()
        with cat_tag.pin() as snap:
            res = snap.query(["count"], where=col("tag") == "t1")
        assert res.rows[0]["count(*)"] == rows // 4
        assert res.stats.files_meta_answered == 0
        assert res.stats.files_decoded == 1
        assert res.stats.data_chunks_fetched > 0

    def test_reader_zero_chunk_fetches(self):
        """File form of the acceptance criterion: count/min/max over
        the row groups a predicate proves, in a file the manifest
        cannot decide, issue no preads beyond the footer open."""
        store = CountingCatalogStore()
        cat = CatalogTable.create(store)
        v = np.linspace(-1, 1, 500)
        cat.append(
            Table({"ts": np.arange(500, dtype=np.int64), "v": v}),
            options=WriterOptions(rows_per_page=20, rows_per_group=40),
        )
        store.begin_run()
        with cat.pin() as snap:
            # groups of 40: ts < 240 is ALWAYS or NEVER per group
            res = snap.query(
                ["count", "min(ts)", "max(v)", "count(ts)"],
                where=col("ts") < 240,
            )
        assert store.data_reads == 1, "fast path touched data"
        assert res.stats.data_chunks_fetched == 0
        assert res.stats.files_footer_answered == 1
        assert res.rows[0] == {
            "count(*)": 240, "min(ts)": 0, "max(v)": float(v[239]),
            "count(ts)": 240,
        }

    def test_forced_decode_matches_fast_path(self):
        store, cat = _build_catalog()
        with cat.pin() as snap:
            fast = snap.query(["count", "min(ts)", "max(v)"])
            slow = snap.query(
                ["count", "min(ts)", "max(v)"], use_metadata=False
            )
        assert fast.rows == slow.rows
        assert fast.stats.data_chunks_fetched == 0
        assert slow.stats.data_chunks_fetched > 0


# ---------------------------------------------------------------------------
# concurrency determinism
# ---------------------------------------------------------------------------

class TestMergeDeterminism:
    """Executor width must never change the answer — bit for bit."""

    def _catalog(self, n_files=6):
        store = MemoryCatalogStore()
        cat = CatalogTable.create(store)
        rng = np.random.default_rng(42)
        for k in range(n_files):
            n = 300
            f = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4)
            f[rng.random(n) < 0.03] = np.nan
            cat.append(
                Table({
                    "ts": np.arange(k * n, (k + 1) * n, dtype=np.int64),
                    "f": f,
                    "g": rng.integers(0, 4, n).astype(np.int32),
                }),
                options=WriterOptions(rows_per_page=25, rows_per_group=75),
            )
        return cat

    @pytest.mark.parametrize("group_by", [None, ["g"]])
    def test_float_sum_bit_identical_across_widths(self, group_by, monkeypatch):
        from repro.core import reader

        cat = self._catalog()
        results = {}
        with cat.pin() as snap:
            for workers in (1, 2, 8):
                monkeypatch.setattr(reader, "_FETCH_THREADS", workers)
                res = snap.query(
                    ["count", "sum(f)", "mean(f)", "min(f)", "max(f)"],
                    group_by=group_by,
                )
                results[workers] = res.rows
        base = results[1]
        for workers in (2, 8):
            rows = results[workers]
            assert len(rows) == len(base)
            for a, b in zip(base, rows):
                for name in a:
                    va, vb = a[name], b[name]
                    if isinstance(va, float):
                        # bit-identical, not merely close
                        assert np.float64(va).tobytes() == np.float64(
                            vb
                        ).tobytes(), (name, va, vb, workers)
                    else:
                        assert va == vb

    def test_filtered_float_sum_bit_identical(self, monkeypatch):
        from repro.core import reader

        cat = self._catalog()
        outs = []
        with cat.pin() as snap:
            for workers in (1, 2, 8):
                monkeypatch.setattr(reader, "_FETCH_THREADS", workers)
                outs.append(snap.query(
                    ["sum(f)", "mean(f)"],
                    where=(col("ts") > 100) & (col("g") != 2),
                ).rows)
        assert outs[0] == outs[1] == outs[2]
