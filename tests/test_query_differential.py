"""Differential harness: every query path vs brute-force numpy.

The aggregation engine has three answer paths (manifest-only,
footer-stats-only, decode) and picks per file and per row group. The
contract is that the choice is invisible: for any dataset and any
plan, ``query(...)`` — with metadata fast paths on *and* forced off —
returns exactly what brute-force numpy computes over the fully
materialized (widened, deletion-filtered) table.

These tests throw randomized datasets at that contract: every
filterable dtype, NaN/±inf floats, int64 values at the 2**53±1
float64-precision boundary, quantized FP16/BF16 columns, deletion
vectors, and multi-file catalogs — seeded and reproducible. Counts,
extrema and integer sums must match bit for bit; float sums/means are
compared to 1e-9 relative tolerance (the engine's deterministic
merge order differs from numpy's pairwise whole-array sum).
"""

import math

import numpy as np
import pytest

from repro.catalog import CatalogTable, MemoryCatalogStore
from repro.core import (
    BullionWriter,
    Table,
    WriterOptions,
    delete_rows,
    reader,
)
from repro.expr import all_of, any_of, col, evaluate
from repro.query import QueryPlan
from repro.quantization import FloatFormat, QuantizationPolicy

# ---------------------------------------------------------------------------
# dataset generators
# ---------------------------------------------------------------------------

GROUPABLE = ("region", "flag", "tag")
NUMERIC = ("i64", "i32", "f64", "f32", "flag", "region")


def _random_table(rng, n, quantized=False):
    """Every filterable dtype, plus NaN/inf and 2**53-boundary ints."""
    i64 = rng.integers(-(10**9), 10**9, n).astype(np.int64)
    big_at = rng.integers(0, n, max(1, n // 40))
    i64[big_at] = 2**53 + rng.integers(-3, 4, len(big_at))
    f64 = rng.normal(size=n)
    f64[rng.random(n) < 0.05] = np.nan
    f64[rng.random(n) < 0.02] = np.inf
    f64[rng.random(n) < 0.02] = -np.inf
    cols = {
        "i64": i64,
        "i32": rng.integers(-50, 50, n).astype(np.int32),
        "f64": f64,
        "f32": rng.normal(size=n).astype(np.float32),
        "flag": rng.random(n) < 0.3,
        "region": rng.integers(0, 5, n).astype(np.int32),
        "tag": [f"t{int(v)}".encode() for v in rng.integers(0, 4, n)],
    }
    if quantized:
        cols["q16"] = rng.normal(size=n).astype(np.float32)
        cols["qb"] = (rng.normal(size=n) * 4).astype(np.float32)
    return Table(cols)


def _quant_policy():
    return QuantizationPolicy(
        assignments={"q16": FloatFormat.FP16, "qb": FloatFormat.BF16},
        default=FloatFormat.FP32,
    )


def _random_leaf(rng, table):
    name = rng.choice(["i64", "i32", "f64", "f32", "flag", "tag", "region"])
    values = table.columns[name]
    if name == "tag":
        choices = [b"t0", b"t2", b"zzz"]
        return col(name) == choices[rng.integers(0, len(choices))]
    if name == "flag":
        return col(name) == bool(rng.random() < 0.5)
    arr = np.asarray(values, dtype=np.float64)
    finite = arr[np.isfinite(arr)]
    pivot = float(rng.choice(finite)) if len(finite) else 0.0
    if name.startswith(("i", "r")) and rng.random() < 0.7:
        pivot = int(pivot)
    op = rng.choice(["==", "!=", "<", "<=", ">", ">="])
    return getattr(col(name), {
        "==": "__eq__", "!=": "__ne__", "<": "__lt__",
        "<=": "__le__", ">": "__gt__", ">=": "__ge__",
    }[op])(pivot)


def _random_expr(rng, table, depth=2):
    if depth == 0 or rng.random() < 0.45:
        return _random_leaf(rng, table)
    combine = all_of if rng.random() < 0.6 else any_of
    return combine(
        _random_expr(rng, table, depth - 1),
        _random_expr(rng, table, depth - 1),
    )


def _random_plan(rng, table, quantized=False):
    numeric = list(NUMERIC) + (["q16", "qb"] if quantized else [])
    fns = ["count(*)", "count", "sum", "min", "max", "mean"]
    specs = set()
    for _ in range(int(rng.integers(1, 5))):
        fn = fns[rng.integers(0, len(fns))]
        if fn == "count(*)":
            specs.add("count")
        else:
            c = numeric[rng.integers(0, len(numeric))]
            specs.add(f"{fn}({c})" if fn != "count" or rng.random() < 0.8
                      else "count")
    specs.add("count")  # every plan checks row counting
    where = _random_expr(rng, table) if rng.random() < 0.6 else None
    group_by = None
    if rng.random() < 0.4:
        k = int(rng.integers(1, 3))
        group_by = list(rng.choice(GROUPABLE, size=k, replace=False))
    return QueryPlan.build(sorted(specs), where=where, group_by=group_by)


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------

def _pylist(values):
    if isinstance(values, np.ndarray):
        if values.dtype == np.bool_:
            return [bool(v) for v in values]
        if np.issubdtype(values.dtype, np.integer):
            return [int(v) for v in values]
        return [float(v) for v in values]
    return [bytes(v) for v in values]


def _brute_one_group(plan, cols, idx):
    """Aggregate one group (row indices ``idx``) with plain numpy."""
    row = {}
    for spec in plan.aggregates:
        if spec.column is None:
            row[spec.name] = len(idx)
            continue
        values = cols[spec.column]
        if isinstance(values, np.ndarray):
            v = values[idx]
        else:
            v = [values[i] for i in idx]
        if not isinstance(values, np.ndarray):  # bytes: count only
            row[spec.name] = len(v)
            continue
        if v.dtype == np.bool_ or np.issubdtype(v.dtype, np.integer):
            v = v.astype(np.int64)
            exact = sum(int(x) for x in v)
            out = {
                "count": len(v),
                "sum": exact,
                "min": int(v.min()) if len(v) else None,
                "max": int(v.max()) if len(v) else None,
                "mean": exact / len(v) if len(v) else None,
            }
        else:
            v = v.astype(np.float64)
            v = v[~np.isnan(v)]
            with np.errstate(invalid="ignore"):  # inf + -inf
                total = float(np.sum(v)) if len(v) else 0.0
            out = {
                "count": len(v),
                "sum": total,
                "min": float(np.min(v)) if len(v) else None,
                "max": float(np.max(v)) if len(v) else None,
                "mean": total / len(v) if len(v) else None,
            }
        row[spec.name] = out[spec.fn]
    return row


def _brute_aggregate(plan, cols, n_rows):
    """The oracle: materialized widened columns -> expected rows."""
    idx = np.arange(n_rows)
    if plan.where is not None:
        mask = evaluate(plan.where, cols)
        idx = idx[mask]
    if not plan.group_by:
        return [_brute_one_group(plan, cols, idx)]
    key_lists = [_pylist(cols[k]) for k in plan.group_by]
    groups: dict = {}
    for i in idx:
        key = tuple(kl[i] for kl in key_lists)
        groups.setdefault(key, []).append(i)
    rows = []
    for key in sorted(groups):
        row = dict(zip(plan.group_by, key))
        row.update(
            _brute_one_group(plan, cols, np.asarray(groups[key]))
        )
        rows.append(row)
    return rows


def _values_close(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    if isinstance(a, float) or isinstance(b, float):
        fa, fb = float(a), float(b)
        if math.isnan(fa) or math.isnan(fb):
            return math.isnan(fa) and math.isnan(fb)
        if math.isinf(fa) or math.isinf(fb):
            return fa == fb
        return math.isclose(fa, fb, rel_tol=1e-9, abs_tol=1e-9)
    return a == b


_EXACT_FNS = ("count", "min", "max")


def _assert_rows_match(plan, got, expected, context=""):
    assert len(got) == len(expected), (
        f"{context}: {len(got)} result rows vs {len(expected)} expected "
        f"for {plan}"
    )
    for grow, erow in zip(got, expected):
        assert set(grow) == set(erow)
        for name in erow:
            gv, ev = grow[name], erow[name]
            spec_fn = name.split("(")[0]
            if name in plan.group_by or spec_fn in _EXACT_FNS or (
                isinstance(ev, int) and isinstance(gv, int)
            ):
                assert gv == ev, (
                    f"{context}: {name} = {gv!r}, expected {ev!r} "
                    f"(plan {plan}, group {grow})"
                )
            else:
                assert _values_close(gv, ev), (
                    f"{context}: {name} = {gv!r}, expected {ev!r} "
                    f"(plan {plan}, group {grow})"
                )


# ---------------------------------------------------------------------------
# single-file differential
# ---------------------------------------------------------------------------

def _pin_file(table, options, doomed=()):
    """``table`` as the one file of a catalog table, its ``doomed``
    rows deleted in place before the commit, pinned."""
    cat = CatalogTable.create(MemoryCatalogStore())
    txn = cat.transaction()
    file_id, dev = txn.new_data_file()
    BullionWriter(dev, options=options).write(table)
    if len(doomed):
        delete_rows(dev, doomed)
    txn.add_file(dev, file_id)
    txn.commit()
    return cat.pin()


def _check_file(pinned, table, plan, context):
    names = list(table.columns)
    widened = pinned.read(names, widen_quantized=True)
    expected = _brute_aggregate(plan, widened.columns, widened.num_rows)
    for use_metadata in (True, False):
        res = pinned.query(plan, use_metadata=use_metadata)
        _assert_rows_match(
            plan, res.rows, expected,
            f"{context} metadata={use_metadata}",
        )


class TestFileDifferential:
    """~160 randomized (plan, path) cases over one-file catalogs."""

    @pytest.mark.parametrize("seed", range(10))
    def test_randomized(self, seed):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(200, 800))
        quantized = bool(seed % 2)
        table = _random_table(rng, n, quantized=quantized)
        options = WriterOptions(
            rows_per_page=25,
            rows_per_group=int(rng.integers(2, 6)) * 25,
            quantization=_quant_policy() if quantized else None,
        )
        doomed = ()
        if rng.random() < 0.5:
            doomed = np.flatnonzero(rng.random(n) < 0.15)
        pinned = _pin_file(table, options, doomed)
        for case in range(8):
            plan = _random_plan(rng, table, quantized=quantized)
            _check_file(pinned, table, plan, f"seed={seed} case={case}")


# ---------------------------------------------------------------------------
# multi-file catalog differential
# ---------------------------------------------------------------------------

def _check_snapshot(pinned, names, plan, context):
    widened = pinned.read(names, widen_quantized=True)
    expected = _brute_aggregate(plan, widened.columns, widened.num_rows)
    for use_metadata in (True, False):
        for workers in (1, 4):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(reader, "_FETCH_THREADS", workers)
                res = pinned.query(plan, use_metadata=use_metadata)
            _assert_rows_match(
                plan, res.rows, expected,
                f"{context} metadata={use_metadata} workers={workers}",
            )


class TestCatalogDifferential:
    """~140 randomized (plan, path, width) cases over catalogs."""

    @pytest.mark.parametrize("seed", range(6))
    def test_randomized(self, seed):
        rng = np.random.default_rng(5000 + seed)
        store = MemoryCatalogStore()
        cat = CatalogTable.create(store)
        quantized = bool(seed % 2)
        tables = []
        for _shard in range(int(rng.integers(2, 5))):
            n = int(rng.integers(150, 400))
            t = _random_table(rng, n, quantized=quantized)
            tables.append(t)
            cat.append(
                t,
                options=WriterOptions(
                    rows_per_page=25,
                    rows_per_group=int(rng.integers(2, 5)) * 25,
                    quantization=_quant_policy() if quantized else None,
                ),
            )
        if rng.random() < 0.5:
            # live deletion vectors in some committed files
            cat.delete(col("region") == int(rng.integers(0, 5)))
        names = list(tables[0].columns)
        with cat.pin() as pinned:
            for case in range(6):
                plan = _random_plan(rng, tables[0], quantized=quantized)
                _check_snapshot(
                    pinned, names, plan, f"seed={seed} case={case}"
                )


# ---------------------------------------------------------------------------
# directed edges the random sweep could miss
# ---------------------------------------------------------------------------

class TestDirectedEdges:
    def _pin_for(self, table, **writer_kwargs):
        return _pin_file(table, WriterOptions(
            rows_per_page=10, rows_per_group=20, **writer_kwargs
        ))

    def test_int64_precision_boundary(self):
        """min/max at 2**53±1 are exact — the metadata path must
        refuse the rounded stats and decode instead of answering
        2**53 for 2**53 + 1."""
        v = np.array(
            [2**53 - 1, 2**53, 2**53 + 1, -(2**53) - 1, 7],
            dtype=np.int64,
        )
        snap = self._pin_for(Table({"v": v}))
        for use_metadata in (True, False):
            res = snap.query(
                ["min(v)", "max(v)", "sum(v)"], use_metadata=use_metadata
            )
            assert res.rows[0]["min(v)"] == -(2**53) - 1
            assert res.rows[0]["max(v)"] == 2**53 + 1
            assert res.rows[0]["sum(v)"] == int(np.sum(v))

    def test_small_int_min_max_is_metadata_answered(self):
        v = np.arange(100, dtype=np.int64)
        snap = self._pin_for(Table({"v": v}))
        res = snap.query(["min(v)", "max(v)", "count"])
        assert res.rows[0] == {"min(v)": 0, "max(v)": 99, "count(*)": 100}
        assert res.stats.data_chunks_fetched == 0

    def test_all_nan_column(self):
        t = Table({
            "k": np.arange(40, dtype=np.int64),
            "f": np.full(40, np.nan),
        })
        snap = self._pin_for(t)
        for use_metadata in (True, False):
            res = snap.query(
                ["count", "count(f)", "sum(f)", "min(f)", "mean(f)"],
                use_metadata=use_metadata,
            )
            row = res.rows[0]
            assert row["count(*)"] == 40
            assert row["count(f)"] == 0
            assert row["sum(f)"] == 0.0
            assert row["min(f)"] is None
            assert row["mean(f)"] is None

    def test_infinities_survive_min_max(self):
        f = np.array([1.5, np.inf, -np.inf, np.nan, 2.0])
        snap = self._pin_for(Table({"f": f}))
        for use_metadata in (True, False):
            res = snap.query(
                ["min(f)", "max(f)", "count(f)"], use_metadata=use_metadata
            )
            row = res.rows[0]
            assert row["min(f)"] == -np.inf
            assert row["max(f)"] == np.inf
            assert row["count(f)"] == 4

    def test_int64_sum_past_int64_is_exact(self):
        v = np.array([2**62, 2**62, 2**62], dtype=np.int64)
        snap = self._pin_for(Table({"v": v}))
        res = snap.query(["sum(v)"], use_metadata=False)
        assert res.rows[0]["sum(v)"] == 3 * 2**62

    def test_zero_match_filter(self):
        t = Table({
            "k": np.arange(60, dtype=np.int64),
            "f": np.linspace(0, 1, 60),
        })
        snap = self._pin_for(t)
        for use_metadata in (True, False):
            res = snap.query(
                ["count", "count(f)", "sum(f)", "min(f)", "max(k)",
                 "mean(f)"],
                where=col("k") > 1000,
                use_metadata=use_metadata,
            )
            row = res.rows[0]
            assert row["count(*)"] == 0 and row["count(f)"] == 0
            assert row["sum(f)"] == 0.0
            assert row["min(f)"] is None and row["max(k)"] is None
            assert row["mean(f)"] is None

    def test_empty_catalog(self):
        cat = CatalogTable.create(MemoryCatalogStore())
        res = cat.query(["count", "min(x)", "sum(x)"])
        assert res.rows == [
            {"count(*)": 0, "min(x)": None, "sum(x)": 0}
        ]
        grouped = cat.query(["count"], group_by=["g"])
        assert grouped.rows == []

    def test_group_spanning_files_and_groups(self):
        """One group key spread over every file and row group merges
        into a single exact output row."""
        store = MemoryCatalogStore()
        cat = CatalogTable.create(store)
        total = 0
        for k in range(3):
            n = 90
            cat.append(
                Table({
                    "g": np.tile(
                        np.arange(3, dtype=np.int32), n // 3
                    ),
                    "v": np.arange(n, dtype=np.int64) + 100 * k,
                }),
                options=WriterOptions(rows_per_page=10, rows_per_group=30),
            )
            total += n
        with cat.pin() as snap:
            names = ["g", "v"]
            plan = QueryPlan.build(
                ["count", "sum(v)", "min(v)", "max(v)"], group_by=["g"]
            )
            _check_snapshot(snap, names, plan, "span")
            res = snap.query(plan)
            assert [r["g"] for r in res.rows] == [0, 1, 2]
            assert sum(r["count(*)"] for r in res.rows) == total


# ---------------------------------------------------------------------------
# array partials: the merge and factorization edges
# ---------------------------------------------------------------------------

def _catalog(parts, store=None):
    """One file per ``parts`` entry (a dict of columns), 20-row groups."""
    cat = CatalogTable.create(store or MemoryCatalogStore())
    for columns in parts:
        cat.append(
            Table(columns),
            options=WriterOptions(rows_per_page=10, rows_per_group=20),
        )
    return cat


def _check_catalog(cat, plan):
    """Brute force vs every path and width; returns the default rows."""
    with cat.pin() as snap:
        names = snap._reader_for(snap.snapshot.files[0].file_id).column_names()
        _check_snapshot(snap, names, plan, str(plan))
        return snap.query(plan).rows


class TestArrayPartials:
    def test_keys_present_in_only_some_files(self):
        """Each file holds a different subset of the keys: the merge
        aligns them and a key absent from a file gets nothing added."""
        parts = []
        for k, keys in enumerate(([0, 1], [2, 3], [1, 3], [5])):
            n = 40
            parts.append({
                "g": np.array(keys * (n // len(keys)), dtype=np.int64),
                "v": np.arange(n, dtype=np.float64) * (k + 1) + 0.1,
                "c": np.arange(n, dtype=np.int64) - 7,
            })
        cat = _catalog(parts)
        plan = QueryPlan.build(
            ["count", "sum(v)", "mean(v)", "min(c)", "max(v)", "sum(c)"],
            group_by=["g"],
        )
        rows = _check_catalog(cat, plan)
        assert [r["g"] for r in rows] == [0, 1, 2, 3, 5]
        assert [r["count(*)"] for r in rows] == [20, 40, 20, 40, 40]

    def test_all_nan_group(self):
        """A group whose float values are all NaN — in the first batch
        of the first file, too — counts 0, sums 0.0, has no extrema."""
        n = 40
        g = np.repeat(np.arange(2, dtype=np.int32), n // 2)
        first = np.full(n, np.nan)
        later = np.where(g == 0, np.nan, np.arange(n) * 0.5)
        cat = _catalog([{"g": g, "f": first}, {"g": g, "f": later}])
        plan = QueryPlan.build(
            ["count", "count(f)", "sum(f)", "mean(f)", "min(f)", "max(f)"],
            group_by=["g"],
        )
        rows = _check_catalog(cat, plan)
        nan_group = rows[0]
        assert nan_group["count(*)"] == 2 * (n // 2)
        assert nan_group["count(f)"] == 0
        assert nan_group["sum(f)"] == 0.0
        assert isinstance(nan_group["sum(f)"], float)
        assert nan_group["mean(f)"] is None
        assert nan_group["min(f)"] is None and nan_group["max(f)"] is None
        assert rows[1]["count(f)"] == n // 2

    def test_negative_zero_total_is_positive_zero(self):
        """A running float total starts at 0.0, so values that are all
        -0.0 sum to +0.0 — grouped and ungrouped, across merges."""
        n = 40
        cols = {
            "g": np.tile(np.arange(2, dtype=np.int32), n // 2),
            "z": np.full(n, -0.0),
        }
        cat = _catalog([cols, cols])
        for group_by in (None, ["g"]):
            plan = QueryPlan.build(["sum(z)", "mean(z)"], group_by=group_by)
            for row in _check_catalog(cat, plan):
                assert row["sum(z)"].hex() == "0x0.0p+0"
                assert row["mean(z)"].hex() == "0x0.0p+0"

    def test_bool_bytes_and_negative_keys_order_lexicographically(self):
        n = 60
        i = np.arange(n)
        parts = [
            {
                "flag": i % 2 == 0,
                "tag": [b"b" if j % 3 else b"a\x00" for j in i + k],
                "neg": (-(i % 4) - 2**40 * k).astype(np.int64),
                "v": i * 1.5 - k,
            }
            for k in range(2)
        ]
        cat = _catalog(parts)
        plan = QueryPlan.build(
            ["count", "sum(v)", "mean(v)"], group_by=["flag", "tag", "neg"]
        )
        rows = _check_catalog(cat, plan)
        keys = [(r["flag"], r["tag"], r["neg"]) for r in rows]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)
        assert {type(r["flag"]) for r in rows} == {bool}
        assert {type(r["tag"]) for r in rows} == {bytes}

    @pytest.mark.parametrize("spread", [1, 10**15], ids=["small", "wide"])
    def test_int64_keys_of_either_range(self, spread):
        """A key whose batch range is a few slots per row is
        offset-indexed; a wide one is sorted — same answer either way."""
        n = 80
        i = np.arange(n)
        parts = [
            {
                "k": ((i % 7) * spread - 3 * spread + k).astype(np.int64),
                "v": np.cos(i + k) * 100,
            }
            for k in range(3)
        ]
        cat = _catalog(parts)
        plan = QueryPlan.build(["count", "sum(v)", "max(v)"], group_by=["k"])
        rows = _check_catalog(cat, plan)
        assert len(rows) == (9 if spread == 1 else 21)

    def test_factorize_branches(self, monkeypatch):
        from repro.query import engine

        calls = []
        unique = np.unique
        monkeypatch.setattr(
            np, "unique", lambda *a, **k: calls.append(1) or unique(*a, **k)
        )
        small = np.array([5, -2, 5, 0, -2], dtype=np.int64)
        keys, codes, rows = engine._factorize([small])
        assert calls == []
        assert keys[0].tolist() == [-2, 0, 5]
        assert codes.tolist() == [2, 0, 2, 1, 0]
        assert rows.tolist() == [2, 1, 2]
        wide = np.array([2**62, -(2**62), 2**62, 0], dtype=np.int64)
        keys, codes, rows = engine._factorize([wide])
        assert calls == [1]
        assert keys[0].tolist() == [-(2**62), 0, 2**62]
        assert codes.tolist() == [2, 0, 2, 1]
        assert rows.tolist() == [1, 1, 2]

    def test_exact_integer_sums_beyond_2_53_and_int64(self):
        """Sums stay exact past 2**53 and past int64."""
        n = 40
        cols = {
            "g": np.tile(np.arange(2, dtype=np.int32), n // 2),
            "big": np.full(n, 2**62, dtype=np.int64),
            "odd": np.full(n, 2**53 + 1, dtype=np.int64),
            "low": np.full(n, -(2**63), dtype=np.int64),
        }
        cat = _catalog([cols, cols, cols])
        for group_by, per_group in ((None, 3 * n), (["g"], 3 * n // 2)):
            plan = QueryPlan.build(
                ["sum(big)", "mean(big)", "sum(odd)", "mean(odd)",
                 "sum(low)", "mean(low)"],
                group_by=group_by,
            )
            for row in _check_catalog(cat, plan):
                assert row["sum(big)"] == per_group * 2**62
                assert row["mean(big)"] == float(2**62)
                assert row["sum(odd)"] == per_group * (2**53 + 1)
                assert row["mean(odd)"] == (per_group * (2**53 + 1)) / per_group
                assert row["sum(low)"] == per_group * -(2**63)
                assert row["mean(low)"] == float(-(2**63))

    def test_fan_out_over_a_sleeping_device_is_bit_identical(self, monkeypatch):
        """Fetches over a device that waits per request fan out on
        threads; the merge order keeps every float."""
        from repro.iosim import ObjectStorage, SeekModel

        class SleepingStore(MemoryCatalogStore):
            def open_data(self, file_id):
                return ObjectStorage(
                    super().open_data(file_id),
                    SeekModel(request_latency_s=2e-4),
                    sleep=True,
                )

        rng = np.random.default_rng(7)
        parts = []
        for _ in range(5):
            n = 90
            f = rng.normal(size=n) * 10.0 ** rng.integers(-6, 6, n)
            f[rng.random(n) < 0.1] = np.nan
            parts.append({
                "g": rng.integers(0, 6, n).astype(np.int32),
                "f": f,
                "i": rng.integers(-(2**40), 2**40, n),
            })
        cat = _catalog(parts, store=SleepingStore())
        plan = QueryPlan.build(
            ["count", "sum(f)", "mean(f)", "min(f)", "sum(i)", "max(i)"],
            where=col("f") > -1.0,
            group_by=["g"],
        )
        with cat.pin() as snap:
            assert snap._reader_for(snap.snapshot.files[0].file_id).waits_per_request
            fanned = snap.query(plan)
            monkeypatch.setattr(reader, "_FETCH_THREADS", 1)
            serial = snap.query(plan)
        assert serial.stats.files_decoded == fanned.stats.files_decoded == 5
        assert len(serial.rows) == len(fanned.rows) == 6
        for a, b in zip(serial.rows, fanned.rows):
            assert a.keys() == b.keys()
            for name in a:
                x, y = a[name], b[name]
                assert (x.hex() == y.hex()) if isinstance(x, float) else x == y

    def test_float_sums_match_parent_golden_hex(self):
        """Float sums/means recorded (``float.hex``) before partials
        became arrays: the fixed merge order is part of the contract."""
        cat = CatalogTable.create(MemoryCatalogStore())
        for k in range(3):
            i = np.arange(120)
            x = np.sin(i * 0.913 + k) * 10.0 ** ((i % 9) * 2 - 8)
            x[i % 11 == 5] = np.nan
            cat.append(
                Table({"g": (i % 4).astype(np.int32), "x": x}),
                options=WriterOptions(rows_per_page=20, rows_per_group=40),
            )
        golden = {
            None: (
                [("-0x1.bc0f109216cf0p+24", "-0x1.5ba4744fec474p+16")],
                [
                    ("-0x1.fea7ca6d6586fp+25", "-0x1.937b180a95bffp+19"),
                    ("-0x1.7876e2b031fa2p+27", "-0x1.29740ec41ad89p+21"),
                    ("0x1.afdb03513d121p+27", "0x1.4908640d2256ep+21"),
                    ("0x1.0c3efe80b6ff6p+23", "0x1.a7e5206643f26p+16"),
                ],
            ),
            -1e-3: (
                [("0x1.1201dd15201ffp+30", "0x1.3a8e31753cfc8p+22")],
                [
                    ("0x1.4c0e71a9052fbp+28", "0x1.90f94a752812fp+22"),
                    ("0x1.67906573a6e04p+27", "0x1.793f5dd9dd3f3p+21"),
                    ("0x1.7e78661e865c2p+28", "0x1.ad70ba85149d5p+22"),
                    ("0x1.9370d3a64307ap+27", "0x1.f08add1b6630cp+21"),
                ],
            ),
        }
        for cut, (ungrouped, grouped) in golden.items():
            where = None if cut is None else col("x") > cut
            for group_by, expected in ((None, ungrouped), (["g"], grouped)):
                for workers in (1, 4):
                    with pytest.MonkeyPatch.context() as patch:
                        patch.setattr(reader, "_FETCH_THREADS", workers)
                        res = cat.query(
                            ["sum(x)", "mean(x)"], where=where,
                            group_by=group_by,
                        )
                    got = [
                        (r["sum(x)"].hex(), r["mean(x)"].hex())
                        for r in res.rows
                    ]
                    assert got == expected, (cut, group_by, workers)
