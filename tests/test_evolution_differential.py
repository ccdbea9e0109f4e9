"""Differential harness: randomized table histories vs a brute-force model.

Schema evolution multiplies the catalog's state space: every
historical snapshot must keep replaying correctly under time travel,
all three pushdown layers, and both query answer paths, while files
written under different schema versions coexist in one snapshot. This
harness exhausts those interactions the same way the PR-5 query
harness did (which caught the 2**53 and NaN-pruning bug classes):

* each seeded case runs a randomized history of
  append / add_shards / upsert / evolve / delete / compact / expire /
  racing-commit steps against a real catalog AND a brute-force
  in-memory model (rows keyed by stable field id, so renames and
  widenings are free on the model side);
* after the history, **every retained snapshot** is pinned and checked:
  full scans must match the model bit for bit (sorted by the ``id``
  key; floats compared with NaN-aware exact equality — widening and
  typed-null fills are exact by construction), ``as_of`` time travel
  must resolve each recorded timestamp to the right snapshot, and
  randomized aggregation plans must match brute force with metadata
  fast paths on *and* forced off (counts/extrema/int sums bit-exact,
  float sums/means at 1e-9 rtol).

Float filter literals are always exactly representable in float32 so
that stored-domain (f32/f16/bf16) and widened-domain (f64) comparisons
provably agree — the same contract the resolver guarantees by always
evaluating filters over widened values.
"""

import copy
import math

import numpy as np
import pytest

from repro.catalog import (
    AddColumn,
    CatalogTable,
    CommitConflict,
    DropColumn,
    MemoryCatalogStore,
    RenameColumn,
    WidenColumn,
)
from repro.core import Table, WriterOptions
from repro.core.schema import Field, LogicalType, Schema
from repro.expr import And, Comparison, Expr, In, Not, Or, col
from repro.quantization import FloatFormat, dequantize, quantize

# ---------------------------------------------------------------------------
# the model: rows keyed by stable field id
# ---------------------------------------------------------------------------

#: type tag -> (writer type name, widening successors)
WIDEN_NEXT = {
    "i16": ["i32", "i64"],
    "i32": ["i64"],
    "i64": [],
    "f16": ["f32", "f64"],
    "bf16": ["f32", "f64"],
    "f32": ["f64"],
    "f64": [],
    "bool": [],
    "str": [],
}
TYPE_NAME = {
    "i64": "int64",
    "i32": "int32",
    "i16": "int16",
    "f64": "double",
    "f32": "float",
    "f16": "float16",
    "bf16": "bfloat16",
    "bool": "bool",
    "str": "string",
}
INT_TAGS = ("i64", "i32", "i16")
FLOAT_TAGS = ("f64", "f32", "f16", "bf16")
ADDABLE = ("i64", "i32", "i16", "f64", "f32", "f16", "bf16", "bool", "str")

FILL = {
    "i64": 0, "i32": 0, "i16": 0,
    "f64": math.nan, "f32": math.nan, "f16": math.nan, "bf16": math.nan,
    "bool": False, "str": b"",
}


class ModelColumn:
    def __init__(self, field_id, name, tag):
        self.field_id = field_id
        self.name = name
        self.tag = tag


class Model:
    """Brute-force table: list of {field_id: python value} rows plus an
    ordered schema. Values are stored in their *exact* widened form
    (python int / float64-representable float / bool / bytes), so
    widening a column is a schema-only change."""

    def __init__(self, columns):
        self.columns = columns  # list[ModelColumn]; columns[0] is "id"
        self.rows = []  # list[dict[int, value]]
        self.next_field_id = max(c.field_id for c in columns) + 1

    def clone(self):
        m = Model([ModelColumn(c.field_id, c.name, c.tag)
                   for c in self.columns])
        m.rows = copy.deepcopy(self.rows)
        m.next_field_id = self.next_field_id
        return m

    def column(self, name):
        for c in self.columns:
            if c.name == name:
                return c
        raise KeyError(name)

    def view(self):
        """Materialize current-schema rows with typed-null fills."""
        out = []
        for row in self.rows:
            out.append({
                c.name: row.get(c.field_id, FILL[c.tag])
                for c in self.columns
            })
        return out


def _storage_value(rng, tag):
    """(model value, ) for one cell of a fresh column/row."""
    if tag == "i64":
        v = int(rng.integers(-(10**9), 10**9))
        if rng.random() < 0.03:
            v = 2**53 + int(rng.integers(-3, 4))
        return v
    if tag == "i32":
        return int(rng.integers(-50_000, 50_000))
    if tag == "i16":
        return int(rng.integers(-300, 300))
    if tag == "f64":
        r = rng.random()
        if r < 0.04:
            return math.nan
        if r < 0.06:
            return math.inf if r < 0.05 else -math.inf
        return float(rng.normal())
    if tag == "f32":
        if rng.random() < 0.04:
            return math.nan
        return float(np.float32(rng.normal()))
    if tag == "f16":
        stored = quantize(
            np.array([rng.normal()], dtype=np.float32), FloatFormat.FP16
        )
        return float(dequantize(stored, FloatFormat.FP16)[0])
    if tag == "bf16":
        stored = quantize(
            np.array([rng.normal() * 4], dtype=np.float32), FloatFormat.BF16
        )
        return float(dequantize(stored, FloatFormat.BF16)[0])
    if tag == "bool":
        return bool(rng.random() < 0.4)
    return f"t{int(rng.integers(0, 4))}".encode()


def _schema_of(model) -> Schema:
    """Explicit writer schema from the model (dtype inference cannot
    recover payload-bit types like bfloat16 from raw uint16 arrays)."""
    return Schema([
        Field(c.name, LogicalType.parse(TYPE_NAME[c.tag]))
        for c in model.columns
    ])


def _write_arrays(model, rows):
    """Current-schema storage arrays for ``rows`` (model-view dicts)."""
    cols = {}
    for c in model.columns:
        vals = [r[c.name] for r in rows]
        if c.tag in INT_TAGS:
            dtype = {"i64": np.int64, "i32": np.int32, "i16": np.int16}[c.tag]
            cols[c.name] = np.array(vals, dtype=dtype)
        elif c.tag == "f64":
            cols[c.name] = np.array(vals, dtype=np.float64)
        elif c.tag == "f32":
            cols[c.name] = np.array(vals, dtype=np.float32)
        elif c.tag == "f16":
            cols[c.name] = quantize(
                np.array(vals, dtype=np.float32), FloatFormat.FP16
            )
        elif c.tag == "bf16":
            cols[c.name] = quantize(
                np.array(vals, dtype=np.float32), FloatFormat.BF16
            )
        elif c.tag == "bool":
            cols[c.name] = np.array(vals, dtype=np.bool_)
        else:
            cols[c.name] = list(vals)
    return Table(cols)


def _new_rows(rng, model, keys):
    rows = []
    for k in keys:
        row = {"id": int(k)}
        for c in model.columns[1:]:
            row[c.name] = _storage_value(rng, c.tag)
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# model-side expression evaluation (IEEE semantics, like numpy)
# ---------------------------------------------------------------------------

def _eval_leaf(op, a, b):
    if isinstance(a, float) and math.isnan(a):
        # numpy elementwise: every comparison with NaN is False except !=
        return op == "!="
    if op == "==":
        return a == b
    if op == "!=":
        return a != b
    if op == "<":
        return a < b
    if op == "<=":
        return a <= b
    if op == ">":
        return a > b
    return a >= b


def _eval_model(expr, row):
    if isinstance(expr, Comparison):
        return _eval_leaf(expr.op, row[expr.column], expr.value)
    if isinstance(expr, In):
        v = row[expr.column]
        if isinstance(v, float) and math.isnan(v):
            return False
        return v in expr.values
    if isinstance(expr, And):
        return all(_eval_model(a, row) for a in expr.args)
    if isinstance(expr, Or):
        return any(_eval_model(a, row) for a in expr.args)
    if isinstance(expr, Not):
        return not _eval_model(expr.arg, row)
    raise TypeError(expr)


def _f32_exact(x) -> float:
    return float(np.float32(x))


def _random_leaf(rng, model) -> Expr:
    c = model.columns[int(rng.integers(0, len(model.columns)))]
    if c.tag in INT_TAGS or c.name == "id":
        lo = {"i64": 10**9, "i32": 50_000, "i16": 300}.get(c.tag, 10**9)
        pivot = int(rng.integers(-lo // 2, lo // 2))
        op = rng.choice(["<", "<=", ">", ">=", "==", "!="])
        return Comparison(str(op), c.name, pivot)
    if c.tag in FLOAT_TAGS:
        pivot = _f32_exact(rng.normal())
        op = rng.choice(["<", "<=", ">", ">="])
        return Comparison(str(op), c.name, pivot)
    if c.tag == "bool":
        return col(c.name) == bool(rng.random() < 0.5)
    choices = [b"t0", b"t2", b"zzz"]
    if rng.random() < 0.5:
        return col(c.name) == choices[int(rng.integers(0, 3))]
    return col(c.name).isin([b"t1", b"t3"])


def _random_expr(rng, model, depth=2) -> Expr:
    if depth == 0 or rng.random() < 0.45:
        leaf = _random_leaf(rng, model)
        if rng.random() < 0.15:
            return Not(leaf)
        return leaf
    combine = And if rng.random() < 0.5 else Or
    return combine((
        _random_expr(rng, model, depth - 1),
        _random_expr(rng, model, depth - 1),
    ))


# ---------------------------------------------------------------------------
# brute-force aggregation with engine semantics
# ---------------------------------------------------------------------------

def _brute_query(model, aggregates, where, group_by):
    view = model.view()
    if where is not None:
        view = [r for r in view if _eval_model(where, r)]
    tags = {c.name: c.tag for c in model.columns}

    def agg_one(rows_subset):
        out = {}
        for spec in aggregates:
            if spec == "count":
                out["count(*)"] = len(rows_subset)
                continue
            fn, name = spec[:-1].split("(", 1)
            tag = tags[name]
            vals = [r[name] for r in rows_subset]
            if tag in FLOAT_TAGS:
                vals = [v for v in vals if not math.isnan(v)]
            key = f"{fn}({name})"
            if fn == "count":
                out[key] = len(vals)
            elif fn == "sum":
                if tag in FLOAT_TAGS:
                    out[key] = float(sum(vals))
                else:
                    out[key] = int(sum(int(v) for v in vals))
            elif fn == "mean":
                out[key] = (
                    sum(float(v) for v in vals) / len(vals) if vals else None
                )
            elif fn == "min":
                out[key] = min(vals) if vals else None
            else:
                out[key] = max(vals) if vals else None
        return out

    if not group_by:
        return [agg_one(view)]
    groups = {}
    for r in view:
        groups.setdefault(tuple(r[g] for g in group_by), []).append(r)
    rows = []
    for key in sorted(groups):
        row = dict(zip(group_by, key))
        row.update(agg_one(groups[key]))
        rows.append(row)
    return rows


def _random_plan(rng, model):
    numeric = [c.name for c in model.columns if c.tag not in ("str",)]
    aggs = ["count"]
    for _ in range(int(rng.integers(1, 4))):
        name = numeric[int(rng.integers(0, len(numeric)))]
        fn = rng.choice(["count", "sum", "min", "max", "mean"])
        spec = f"{fn}({name})"
        if spec not in aggs:
            aggs.append(spec)
    where = _random_expr(rng, model) if rng.random() < 0.7 else None
    group_by = None
    groupable = [
        c.name for c in model.columns
        if c.tag in ("bool", "str", "i16", "i32") and c.name != "id"
    ]
    if groupable and rng.random() < 0.3:
        group_by = [groupable[int(rng.integers(0, len(groupable)))]]
    return aggs, where, group_by


def _values_close(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    if isinstance(a, bool) or isinstance(b, bool):
        return bool(a) == bool(b)
    if isinstance(a, bytes) or isinstance(b, bytes):
        return a == b
    fa, fb = float(a), float(b)
    if math.isnan(fa) or math.isnan(fb):
        return math.isnan(fa) and math.isnan(fb)
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    if fa == fb:
        return True
    return math.isclose(fa, fb, rel_tol=1e-9, abs_tol=1e-9)


def _assert_rows_match(got, expected, context):
    assert len(got) == len(expected), (
        f"{context}: {len(got)} rows vs {len(expected)} expected\n"
        f"got={got}\nexpected={expected}"
    )
    for g, e in zip(got, expected):
        assert set(g) == set(e), f"{context}: keys {set(g)} vs {set(e)}"
        for k in e:
            assert _values_close(g[k], e[k]), (
                f"{context}: {k}: {g[k]!r} vs expected {e[k]!r}\n"
                f"got={g}\nexpected={e}"
            )


# ---------------------------------------------------------------------------
# history runner
# ---------------------------------------------------------------------------

OPTS = WriterOptions(rows_per_page=8, rows_per_group=16)


class History:
    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.store = MemoryCatalogStore()
        self.table = CatalogTable.create(self.store)
        self.next_key = 0
        columns = [ModelColumn(1, "id", "i64")]
        tags = list(self.rng.choice(ADDABLE, size=int(self.rng.integers(2, 5))))
        for i, tag in enumerate(tags):
            columns.append(ModelColumn(i + 2, f"c{i}", str(tag)))
        self.model = Model(columns)
        #: snapshot_id -> (timestamp_ms, frozen model)
        self.records = {}
        self.n_renames = 0

    def _keys(self, n):
        keys = list(range(self.next_key, self.next_key + n))
        self.next_key += n
        return keys

    def _record(self, snap):
        self.records[snap.snapshot_id] = (snap.timestamp_ms, self.model.clone())

    # -- steps ---------------------------------------------------------
    def step_append(self):
        n = int(self.rng.integers(8, 40))
        rows = _new_rows(self.rng, self.model, self._keys(n))
        batch = _write_arrays(self.model, rows)
        schema = _schema_of(self.model)
        if self.rng.random() < 0.3:
            snap = self.table.add_shards(
                batch, rows_per_shard=max(4, n // 3), schema=schema,
                options=OPTS,
            )
        else:
            snap = self.table.append(batch, schema=schema, options=OPTS)
        self.model.rows.extend(
            {self.model.column(k).field_id: v for k, v in r.items()}
            for r in rows
        )
        self._record(snap)

    def step_upsert(self):
        keys = []
        live = [r[1] for r in self.model.rows]  # field id 1 is "id"
        n_new = int(self.rng.integers(1, 10))
        keys.extend(self._keys(n_new))
        if live:
            n_old = int(self.rng.integers(1, min(12, len(live)) + 1))
            picked = self.rng.choice(live, size=n_old, replace=False)
            keys.extend(int(k) for k in picked)
        rows = _new_rows(self.rng, self.model, keys)
        batch = _write_arrays(self.model, rows)
        snap = self.table.upsert(
            batch, key="id", schema=_schema_of(self.model), options=OPTS
        )
        by_key = {r["id"]: r for r in rows}
        kept = [r for r in self.model.rows if r.get(1) not in by_key]
        self.model.rows = kept + [
            {self.model.column(k).field_id: v for k, v in r.items()}
            for r in rows
        ]
        self._record(snap)
        assert snap.summary.get("rows_upserted") == len(rows)

    def step_evolve(self):
        model = self.model
        ops = []
        n_ops = int(self.rng.integers(1, 4))
        for _ in range(n_ops):
            choice = self.rng.random()
            mutable = [c for c in model.columns if c.name != "id"]
            widenable = [c for c in mutable if WIDEN_NEXT[c.tag]]
            if choice < 0.35:
                tag = str(self.rng.choice(ADDABLE))
                name = f"a{model.next_field_id}"
                ops.append(AddColumn(name, TYPE_NAME[tag]))
                model.columns.append(
                    ModelColumn(model.next_field_id, name, tag)
                )
                model.next_field_id += 1
            elif choice < 0.55 and len(mutable) > 1:
                victim = mutable[int(self.rng.integers(0, len(mutable)))]
                ops.append(DropColumn(victim.name))
                model.columns.remove(victim)
            elif choice < 0.75 and mutable:
                victim = mutable[int(self.rng.integers(0, len(mutable)))]
                new_name = f"r{self.n_renames}_{victim.name}"[:24]
                self.n_renames += 1
                ops.append(RenameColumn(victim.name, new_name))
                victim.name = new_name
            elif widenable:
                victim = widenable[int(self.rng.integers(0, len(widenable)))]
                nxt = str(self.rng.choice(WIDEN_NEXT[victim.tag]))
                ops.append(WidenColumn(victim.name, TYPE_NAME[nxt]))
                victim.tag = nxt
        if not ops:
            return
        snap = self.table.evolve(*ops)
        self._record(snap)

    def step_delete(self):
        where = _random_expr(self.rng, self.model, depth=1)
        before = self.table.current_snapshot().snapshot_id
        snap = self.table.delete(where)
        view = self.model.view()
        keep = [
            row for row, v in zip(self.model.rows, view)
            if not _eval_model(where, v)
        ]
        deleted = len(self.model.rows) - len(keep)
        self.model.rows = keep
        if deleted == 0:
            assert snap.snapshot_id == before  # no no-op snapshot
            return
        self._record(snap)

    def step_compact(self):
        snap, report = self.table.compact()
        if report.bytes_in == 0:
            return
        self._record(snap)  # model unchanged: compaction is invisible

    def step_expire(self):
        retained = sorted(self.records)
        if len(retained) < 3:
            return
        victim = retained[int(self.rng.integers(0, len(retained) - 1))]
        if self.table.expire_snapshot(victim):
            del self.records[victim]

    def step_racing_appends(self):
        """Two appends from the same base: the loser must replay."""
        rows1 = _new_rows(self.rng, self.model, self._keys(6))
        rows2 = _new_rows(self.rng, self.model, self._keys(6))
        txn1 = self.table.transaction()
        txn2 = self.table.transaction()
        schema = _schema_of(self.model)
        txn1.append(_write_arrays(self.model, rows1), schema=schema,
                    options=OPTS)
        txn2.append(_write_arrays(self.model, rows2), schema=schema,
                    options=OPTS)
        snap1 = txn1.commit()
        self.model.rows.extend(
            {self.model.column(k).field_id: v for k, v in r.items()}
            for r in rows1
        )
        self._record(snap1)
        snap2 = txn2.commit()  # lost the race: replays on top
        assert snap2.snapshot_id == snap1.snapshot_id + 1
        self.model.rows.extend(
            {self.model.column(k).field_id: v for k, v in r.items()}
            for r in rows2
        )
        self._record(snap2)

    def run(self, n_steps):
        # histories always start with one append so there is data
        self.step_append()
        steps = [
            (self.step_append, 0.22),
            (self.step_upsert, 0.24),
            (self.step_evolve, 0.22),
            (self.step_delete, 0.12),
            (self.step_compact, 0.06),
            (self.step_expire, 0.06),
            (self.step_racing_appends, 0.08),
        ]
        fns = [s[0] for s in steps]
        weights = np.array([s[1] for s in steps])
        weights = weights / weights.sum()
        for _ in range(n_steps):
            fn = fns[int(self.rng.choice(len(fns), p=weights))]
            fn()

    # -- verification --------------------------------------------------
    def check_snapshot(self, snapshot_id):
        ts, model = self.records[snapshot_id]
        # as_of time travel resolves the recorded timestamp exactly
        assert self.table.as_of(ts).snapshot_id == snapshot_id
        with self.table.pin(snapshot_id=snapshot_id) as pinned:
            self._check_scan(pinned, model, snapshot_id)
            for _ in range(2):
                aggs, where, group_by = _random_plan(self.rng, model)
                expected = _brute_query(model, aggs, where, group_by)
                for use_metadata in (True, False):
                    got = pinned.query(
                        aggs,
                        where=where,
                        group_by=group_by,
                        use_metadata=use_metadata,
                    ).rows
                    _assert_rows_match(
                        got,
                        expected,
                        f"snap {snapshot_id} meta={use_metadata} "
                        f"aggs={aggs} where={where} by={group_by}",
                    )

    def _check_scan(self, pinned, model, snapshot_id):
        names = [c.name for c in model.columns]
        got = pinned.read(names, widen_quantized=True)
        view = model.view()
        assert got.num_rows == len(view), (
            f"snap {snapshot_id}: {got.num_rows} rows vs {len(view)}"
        )
        if not view:
            return
        order = np.argsort(np.asarray(got.column("id")), kind="stable")
        expected_rows = sorted(view, key=lambda r: r["id"])
        for c in model.columns:
            values = got.column(c.name)
            if isinstance(values, np.ndarray):
                values = values[order]
            else:
                values = [values[i] for i in order]
            expected = [r[c.name] for r in expected_rows]
            if c.tag in FLOAT_TAGS:
                # widening and fills are exact: bit-exact, NaN-aware
                assert np.array_equal(
                    np.asarray(values, dtype=np.float64),
                    np.array(expected, dtype=np.float64),
                    equal_nan=True,
                ), f"snap {snapshot_id}: column {c.name} mismatch"
            elif c.tag in INT_TAGS or c.tag == "bool":
                assert np.array_equal(
                    np.asarray(values), np.array(expected)
                ), f"snap {snapshot_id}: column {c.name} mismatch"
            else:
                assert list(values) == expected, (
                    f"snap {snapshot_id}: column {c.name} mismatch"
                )

    def check_all(self):
        for snapshot_id in sorted(self.records):
            self.check_snapshot(snapshot_id)


# ---------------------------------------------------------------------------
# the randomized suite: 200 seeded histories
# ---------------------------------------------------------------------------

class TestEvolutionDifferential:
    @pytest.mark.parametrize("seed", range(200))
    def test_randomized_history(self, seed):
        h = History(seed)
        h.run(n_steps=int(h.rng.integers(4, 8)))
        h.check_all()


# ---------------------------------------------------------------------------
# directed racing-commit edges
# ---------------------------------------------------------------------------

def _simple_table(keys, clicks):
    return Table({
        "id": np.array(keys, dtype=np.int64),
        "clicks": np.array(clicks, dtype=np.int64),
    })


class TestRacingCommits:
    def _fresh(self):
        t = CatalogTable.create(MemoryCatalogStore())
        t.append(_simple_table([1, 2, 3], [10, 20, 30]), options=OPTS)
        return t

    def test_upsert_aborts_on_concurrent_append(self):
        t = self._fresh()
        txn = t.transaction()
        txn.upsert(_simple_table([2, 4], [99, 99]), key="id")
        t.append(_simple_table([5], [50]), options=OPTS)
        with pytest.raises(CommitConflict):
            txn.commit()
        # the loser's staged files are cleaned up; table is untouched
        got = t.read(["id", "clicks"])
        assert sorted(np.asarray(got.column("id")).tolist()) == [1, 2, 3, 5]

    def test_upsert_replays_over_concurrent_upsert_of_other_files(self):
        # two upserts race: loser aborts because the winner appended
        t = self._fresh()
        txn = t.transaction()
        txn.upsert(_simple_table([2], [99]), key="id")
        t.upsert(_simple_table([3], [77]), key="id")
        with pytest.raises(CommitConflict):
            txn.commit()

    def test_evolve_aborts_on_concurrent_evolve(self):
        t = self._fresh()
        txn = t.transaction()
        txn.evolve(AddColumn("a", "double"))
        t.evolve(AddColumn("b", "double"))
        with pytest.raises(CommitConflict):
            txn.commit()

    def test_evolve_replays_over_concurrent_append(self):
        t = self._fresh()
        txn = t.transaction()
        txn.evolve(AddColumn("a", "double"))
        t.append(_simple_table([7], [70]), options=OPTS)
        snap = txn.commit()  # schema log unchanged by the append: replay
        assert snap.current_schema_id is not None
        assert {f.schema_id for f in snap.files} == {0}
        got = t.read(["id", "clicks", "a"])
        assert got.num_rows == 4
        assert np.isnan(np.asarray(got.column("a"))).all()

    def test_append_aborts_on_concurrent_evolve(self):
        t = self._fresh()
        txn = t.transaction()
        txn.append(_simple_table([9], [90]), options=OPTS)
        t.evolve(AddColumn("a", "double"))
        with pytest.raises(CommitConflict):
            txn.commit()
