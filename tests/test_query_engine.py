"""Unit tests for ``repro.query``: plans, group-by, validation, API.

The differential suite (``test_query_differential``) proves results
match brute force; these tests pin the *interface*: spec parsing,
plan validation errors, output ordering, result helpers, and the
time-travel / plan-object entry points.
"""

from collections import Counter

import numpy as np
import pytest

from repro.catalog import AddColumn, CatalogTable, MemoryCatalogStore
from repro.core import Table, WriterOptions
from repro.expr import col
from repro.query import (
    AggregateSpec,
    PlanError,
    QueryPlan,
    as_aggregate,
)


def _pin(table, rows_per_page=20, rows_per_group=40):
    """``table`` as the one file of a catalog table, pinned."""
    cat = CatalogTable.create(MemoryCatalogStore())
    cat.append(table, options=WriterOptions(
        rows_per_page=rows_per_page, rows_per_group=rows_per_group
    ))
    return cat.pin()


class TestAggregateSpec:
    @pytest.mark.parametrize(
        "text,fn,column",
        [
            ("count", "count", None),
            ("count(*)", "count", None),
            ("COUNT( * )", "count", None),
            ("count(clicks)", "count", "clicks"),
            ("sum(price)", "sum", "price"),
            ("Min(a.f0)", "min", "a.f0"),
            ("max(x)", "max", "x"),
            ("mean(x)", "mean", "x"),
        ],
    )
    def test_parse(self, text, fn, column):
        spec = AggregateSpec.parse(text)
        assert (spec.fn, spec.column) == (fn, column)

    @pytest.mark.parametrize(
        "text", ["", "frobnicate(x)", "sum", "sum()", "mean", "count(a,b)",
                 "sum(x) extra"]
    )
    def test_parse_rejects(self, text):
        with pytest.raises(PlanError):
            AggregateSpec.parse(text)

    def test_canonical_names(self):
        assert AggregateSpec.parse("count").name == "count(*)"
        assert AggregateSpec.parse("sum(x)").name == "sum(x)"
        assert as_aggregate("min(y)") == AggregateSpec("min", "y")

    def test_plan_build_rejects_duplicates(self):
        with pytest.raises(PlanError):
            QueryPlan.build(["count", "count(*)"])
        with pytest.raises(PlanError):
            QueryPlan.build(["count"], group_by=["g", "g"])
        with pytest.raises(PlanError):
            QueryPlan.build([])

    def test_scan_columns_cover_all_layers(self):
        plan = QueryPlan.build(
            ["count", "sum(v)"],
            where=col("ts") > 3,
            group_by=["g"],
        )
        assert plan.scan_columns() == ["g", "v", "ts"]

    def test_plan_build_parses_text_where(self):
        plan = QueryPlan.build(["count"], where="ts > 3 and g == 1")
        assert plan.where == (col("ts") > 3) & (col("g") == 1)
        with pytest.raises(TypeError):
            QueryPlan.build(["count"], where=3)

    def test_every_entry_point_takes_text_where(self):
        table = Table({"a": np.arange(10, dtype=np.int64)})
        snap = _pin(table)
        assert snap.query(["count"], where="a > 1").scalar("count") == 8
        cat = CatalogTable.create(MemoryCatalogStore())
        cat.append(table)
        assert cat.query(["count"], where="a > 1").scalar("count") == 8


class TestValidation:
    def _table(self):
        return Table({
            "i": np.arange(50, dtype=np.int64),
            "f": np.linspace(0, 1, 50),
            "tag": [b"x"] * 50,
            "vec": [np.arange(3, dtype=np.int64)] * 50,
        })

    def test_sum_on_string_column(self):
        snap = _pin(self._table())
        with pytest.raises(PlanError, match="string"):
            snap.query(["sum(tag)"])

    def test_aggregate_on_list_column(self):
        snap = _pin(self._table())
        with pytest.raises(PlanError, match="list"):
            snap.query(["min(vec)"])

    def test_group_by_float_column(self):
        snap = _pin(self._table())
        with pytest.raises(PlanError, match="float"):
            snap.query(["count"], group_by=["f"])

    def test_group_by_list_column(self):
        snap = _pin(self._table())
        with pytest.raises(PlanError, match="list"):
            snap.query(["count"], group_by=["vec"])

    def test_unknown_column(self):
        snap = _pin(self._table())
        with pytest.raises(KeyError):
            snap.query(["sum(absent)"])
        with pytest.raises(KeyError):
            snap.query(["count"], where=col("absent") > 1,
                       use_metadata=False)

    def test_count_of_string_column_is_fine(self):
        snap = _pin(self._table())
        res = snap.query(["count(tag)"])
        assert res.rows[0]["count(tag)"] == 50

    def test_plan_object_and_loose_args_conflict(self):
        snap = _pin(self._table())
        plan = QueryPlan.build(["count"])
        with pytest.raises(PlanError):
            snap.query(plan, group_by=["i"])


class TestGroupBy:
    def test_multi_key_ordering_and_values(self):
        n = 120
        t = Table({
            "a": np.tile(np.array([2, 0, 1], dtype=np.int32), n // 3),
            "tag": [b"y" if i % 2 else b"x" for i in range(n)],
            "v": np.arange(n, dtype=np.int64),
        })
        snap = _pin(t)
        res = snap.query(
            ["count", "sum(v)"], group_by=["a", "tag"]
        )
        keys = [(r["a"], r["tag"]) for r in res.rows]
        assert keys == sorted(keys)
        assert len(keys) == 6
        assert sum(r["count(*)"] for r in res.rows) == n
        assert sum(r["sum(v)"] for r in res.rows) == n * (n - 1) // 2

    def test_bool_group_keys(self):
        t = Table({
            "flag": np.array([True, False] * 30),
            "v": np.ones(60, dtype=np.int64),
        })
        res = _pin(t).query(["sum(v)"], group_by=["flag"])
        assert [r["flag"] for r in res.rows] == [False, True]
        assert all(r["sum(v)"] == 30 for r in res.rows)

    def test_group_by_aggregated_column(self):
        t = Table({"g": np.repeat(np.arange(4, dtype=np.int64), 10)})
        res = _pin(t).query(
            ["count", "min(g)", "max(g)"], group_by=["g"]
        )
        for r in res.rows:
            assert r["min(g)"] == r["max(g)"] == r["g"]
            assert r["count(*)"] == 10

    def test_multi_key_codes_never_overflow(self):
        """Six int64 keys with 4,096 distinct values in five of them:
        multiplying per-key codes would pass 2**63 and fold rows whose
        first key differs by 16 into one group. 8,192 distinct tuples
        are 8,192 groups."""
        n = 8192
        i = np.arange(n)
        j, half = i % 4096, i // 4096
        cols = {"k0": (j % 16 + 16 * half).astype(np.int64)}
        for m in range(1, 6):
            cols[f"k{m}"] = (j * (m + 1) * 1_000_003 - m).astype(np.int64)
        cat = CatalogTable.create(MemoryCatalogStore())
        cat.append(Table(cols))
        res = cat.query(["count"], group_by=[f"k{m}" for m in range(6)])
        assert len(res.rows) == n
        assert {r["count(*)"] for r in res.rows} == {1}
        keys = [tuple(r[f"k{m}"] for m in range(6)) for r in res.rows]
        assert keys == sorted(keys)

    def test_groups_absent_after_filter_vanish(self):
        t = Table({
            "g": np.repeat(np.arange(4, dtype=np.int64), 10),
            "v": np.arange(40, dtype=np.int64),
        })
        res = _pin(t).query(
            ["count"], where=col("g") <= 1, group_by=["g"]
        )
        assert [r["g"] for r in res.rows] == [0, 1]


class TestResultHelpers:
    def test_scalar_and_column(self):
        t = Table({"v": np.arange(10, dtype=np.int64)})
        res = _pin(t).query(["count", "sum(v)"])
        assert res.scalar("count") == 10
        assert res.scalar("sum(v)") == 45
        assert res.column("sum(v)") == [45]
        assert len(res) == 1

    def test_scalar_on_grouped_query_raises(self):
        t = Table({"g": np.zeros(5, dtype=np.int64)})
        res = _pin(t).query(["count"], group_by=["g"])
        with pytest.raises(PlanError):
            res.scalar("count")


class TestCatalogEntryPoints:
    def test_query_time_travel(self):
        cat = CatalogTable.create(MemoryCatalogStore())
        s1 = cat.append(Table({"v": np.arange(10, dtype=np.int64)}))
        cat.append(Table({"v": np.arange(10, 20, dtype=np.int64)}))
        assert cat.query(["count"]).scalar("count") == 20
        old = cat.query(["count", "max(v)"], snapshot_id=s1.snapshot_id)
        assert old.rows[0] == {"count(*)": 10, "max(v)": 9}
        as_of = cat.query(["count"], as_of=s1.timestamp_ms)
        assert as_of.scalar("count") == 10

    def test_query_plan_object(self):
        cat = CatalogTable.create(MemoryCatalogStore())
        cat.append(Table({
            "g": np.repeat(np.arange(2, dtype=np.int64), 8),
            "v": np.arange(16, dtype=np.int64),
        }))
        plan = QueryPlan.build(
            ["count", "mean(v)"], where=col("v") >= 4, group_by=["g"]
        )
        res = cat.query(plan)
        assert [r["g"] for r in res.rows] == [0, 1]
        assert res.rows[0]["count(*)"] == 4
        assert res.rows[1]["count(*)"] == 8

    def test_pruned_to_nothing_keeps_sum_types(self):
        """sum() stays float 0.0 / int 0 by column kind even when the
        answer never touches a single extent (all files pruned)."""
        cat = CatalogTable.create(MemoryCatalogStore())
        cat.append(Table({
            "ts": np.arange(50, dtype=np.int64),
            "f": np.linspace(0, 1, 50),
        }))
        res = cat.query(
            ["count", "sum(f)", "sum(ts)"], where=col("ts") > 10**6
        )
        assert res.stats.files_pruned == 1
        row = res.rows[0]
        assert row["sum(f)"] == 0.0 and isinstance(row["sum(f)"], float)
        assert row["sum(ts)"] == 0 and isinstance(row["sum(ts)"], int)
        # same contract on a float-only file
        r = _pin(Table({"f": np.linspace(0, 1, 30)})).query(
            ["sum(f)"], where=col("f") > 100.0
        )
        assert isinstance(r.rows[0]["sum(f)"], float)

    def test_stats_partition_files(self):
        cat = CatalogTable.create(MemoryCatalogStore())
        for k in range(3):
            cat.append(Table({
                "ts": np.arange(k * 50, (k + 1) * 50, dtype=np.int64)
            }))
        res = cat.query(["count"], where=col("ts") < 60)
        s = res.stats
        assert s.files_total == 3
        assert (
            s.files_pruned + s.files_meta_answered
            + s.files_footer_answered + s.files_decoded
            == 3
        )
        assert res.scalar("count") == 60


class TestPerQueryBookkeeping:
    """Per-file work a query does once, however many files it opens."""

    def _catalog(self):
        """Three files at schema 0 and one at schema 1 (old files read
        through a resolved layout), three row groups each: ``u > 0.5``
        is NEVER, MAYBE and ALWAYS on them, MAYBE on every file."""
        cat = CatalogTable.create(MemoryCatalogStore())
        opts = WriterOptions(rows_per_page=20, rows_per_group=40)
        for k in range(4):
            if k == 3:
                cat.evolve(AddColumn("extra", "int64"))
            cols = {
                "g": np.arange(120, dtype=np.int32) % 3,
                "u": np.linspace(0.0, 1.0, 120),
                "v": np.arange(120, dtype=np.float64) + k,
            }
            if k == 3:
                cols["extra"] = np.zeros(120, dtype=np.int64)
            cat.append(Table(cols), options=opts)
        return cat

    @pytest.mark.parametrize("group_by", [None, ["g"]])
    def test_each_opened_file_is_classified_once(self, monkeypatch, group_by):
        """The zone maps of every opened file are classified in one
        pass over the snapshot's index, and the plan is checked once
        per stored schema."""
        from repro.core.reader import IndexState
        from repro.query import engine

        classified = Counter()
        original = IndexState.verdicts

        def counting(self, where):
            classified[id(self)] += 1
            return original(self, where)

        monkeypatch.setattr(IndexState, "verdicts", counting)
        resolved = []
        resolve = engine._resolve
        monkeypatch.setattr(
            engine, "_resolve",
            lambda plan, footer: resolved.append(footer) or resolve(plan, footer),
        )
        res = self._catalog().query(
            ["count", "sum(v)"], where=col("u") > 0.5, group_by=group_by
        )
        assert res.stats.files_decoded == 4
        assert sorted(classified.values()) == [1]
        # one stored schema per schema version: old files share one
        assert len(resolved) == 2
        assert sum(r["count(*)"] for r in res.rows) == 4 * 60
