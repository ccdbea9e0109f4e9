"""Execution: compile a :class:`QueryPlan` against the scan path.

The engine is a partial-aggregation machine. Every *unit* of the table
— a whole file at the catalog level, a row group inside one file —
produces a partial state (group key -> per-column counters), and
partials merge in a fixed order (file order, then row-group order,
then batch order) on the coordinating thread regardless of how many
executor workers computed them. Counts, minima, maxima and exact
integer sums are associative, and float sums only ever accumulate in
that fixed order — so the answer is bit-identical for any
``max_workers``.

Each unit is answered by the cheapest path that can prove the right
answer:

* **manifest-only** — an ungrouped query over a clean (no deletion
  vector) file whose ``where`` the interval evaluator proves
  ``ALWAYS`` (or trivially, no ``where``) answers ``count`` from the
  manifest row count and ``min``/``max`` from manifest column stats,
  when those stats are exact for the purpose (float stats exclude NaN
  — exactly the NaN-skipping aggregate semantics; int stats beyond
  2**53 may be float64-rounded, so they refuse the shortcut). The
  file is never opened.
* **footer-stats-only** — otherwise the footer is read (two metadata
  preads, no data chunks) and each row group is classified with the
  same tri-state evaluator over its zone maps: ``ALWAYS`` groups
  answer from ``ChunkStats``, ``NEVER`` groups vanish, ``MAYBE``
  groups fall through.
* **decode** — the remaining row groups run the existing
  ``scan(where=...)`` machinery (zone-map pruning, late
  materialization, deletion filtering, quantization widening) and
  accumulate vectorized per-batch partials: one ``np.unique``
  factorization per batch, then ``bincount``/``add.at``/
  ``minimum.at`` per aggregate — the streaming hash group-by.

``sum``/``mean`` and grouped queries can never be metadata-answered
(statistics carry no sums and no group structure); a live deletion
vector also forces decode, because footer statistics summarize deleted
rows too.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro.core.schema import Primitive, stats_kind
from repro.expr import TriState, int_bound_is_exact
from repro.obs import metrics as obs_metrics, trace as obs_trace
from repro.obs.families import QUERY_SECONDS
from repro.query.plan import (
    AggregateSpec,
    PlanError,
    QueryPlan,
    QueryResult,
    QueryStats,
)

_U32_MASK = 0xFFFFFFFF
_I64_WRAP = 2**64
_I64_HALF = 2**63

_BYTES_PRIMS = (Primitive.STRING, Primitive.BINARY)


# ---------------------------------------------------------------------------
# partial-aggregation state
# ---------------------------------------------------------------------------

@dataclass
class _ColState:
    """NaN-skipping counters for one aggregated column in one group.

    ``kind`` is ``"int"`` (integers and bools: exact Python-int sums,
    no NaN), ``"float"`` (float64 accumulation, NaN rows excluded) or
    ``"bytes"`` (only ``count`` is defined). ``total`` stays exact for
    ints — int64 wraparound is applied once, at finalize — so ``mean``
    never sees a wrapped sum.
    """

    kind: str | None = None
    count: int = 0
    total: object = 0
    vmin: object = None
    vmax: object = None

    def fold(self, kind, count, total, vmin, vmax) -> None:
        if self.kind is None:
            self.kind = kind
            if kind == "float":
                self.total = 0.0
        elif kind != self.kind:
            raise PlanError(
                f"inconsistent column kinds {self.kind!r} vs {kind!r}"
            )
        self.count += count
        self.total += total
        if vmin is not None:
            self.vmin = vmin if self.vmin is None else min(self.vmin, vmin)
        if vmax is not None:
            self.vmax = vmax if self.vmax is None else max(self.vmax, vmax)

    def merge(self, other: "_ColState") -> None:
        if other.kind is None:
            return
        self.fold(
            other.kind, other.count, other.total, other.vmin, other.vmax
        )


@dataclass
class _GroupAcc:
    """One group's partial state: matched rows + per-column counters."""

    rows: int = 0
    cols: dict = field(default_factory=dict)

    def col(self, name: str) -> _ColState:
        state = self.cols.get(name)
        if state is None:
            state = self.cols[name] = _ColState()
        return state

    def merge(self, other: "_GroupAcc") -> None:
        self.rows += other.rows
        for name, state in other.cols.items():
            self.col(name).merge(state)


def _merge_partials(into: dict, other: dict) -> None:
    """Fold ``other`` into ``into`` in ``other``'s insertion order."""
    for key, acc in other.items():
        mine = into.get(key)
        if mine is None:
            into[key] = acc
        else:
            mine.merge(acc)


# ---------------------------------------------------------------------------
# vectorized batch accumulation (the decode path)
# ---------------------------------------------------------------------------

def _pyval(v):
    """Numpy scalar -> plain Python value (group keys, extrema)."""
    if isinstance(v, (bytes, bytearray)):
        return bytes(v)
    if isinstance(v, np.bool_):
        return bool(v)
    if isinstance(v, np.integer):
        return int(v)
    if isinstance(v, np.floating):
        return float(v)
    return v


def _column_kind(values) -> str:
    if isinstance(values, np.ndarray):
        if values.ndim != 1:
            raise PlanError("cannot aggregate a nested column")
        if values.dtype == np.bool_ or np.issubdtype(
            values.dtype, np.integer
        ):
            return "int"
        if np.issubdtype(values.dtype, np.floating):
            return "float"
        raise PlanError(f"cannot aggregate dtype {values.dtype}")
    return "bytes"


def _exact_int_sum(v: np.ndarray) -> int:
    """Exact (arbitrary-precision) sum of an integer array.

    Splits each value into high/low 32-bit halves so both partial sums
    stay far from int64 overflow for any realistic row count, then
    recombines in Python ints. Order-independent, so parallelism can
    never change the answer.
    """
    v = v.astype(np.int64, copy=False)
    high = int(np.sum(v >> 32, dtype=np.int64))
    low = int(np.sum(v & _U32_MASK, dtype=np.int64))
    return high * (2**32) + low


def _factorize_keys(key_values: list):
    """Per-batch group codes: (inverse codes, ordered key tuples).

    Key tuples come back in ascending combined-code order, which is
    ascending lexicographic key order — deterministic however the
    batch arrived.
    """
    codes = None
    arrays = []
    for values in key_values:
        if isinstance(values, np.ndarray):
            arr = values
        else:  # list[bytes]
            arr = np.empty(len(values), dtype=object)
            arr[:] = values
        arrays.append(arr)
        uniq, inv = np.unique(arr, return_inverse=True)
        codes = inv if codes is None else codes * len(uniq) + inv
    _ucodes, first_idx, inv = np.unique(
        codes, return_index=True, return_inverse=True
    )
    keys = [tuple(_pyval(arr[i]) for arr in arrays) for i in first_idx]
    return inv, keys


def _accumulate_batch(partial: dict, batch, plan: QueryPlan) -> None:
    """Fold one decoded batch into the running hash group-by."""
    n = batch.num_rows
    if n == 0:
        return
    agg_cols = plan.agg_columns()
    if not plan.group_by:
        acc = partial.get(())
        if acc is None:
            acc = partial[()] = _GroupAcc()
        acc.rows += n
        for name in agg_cols:
            _fold_global(acc.col(name), batch.column(name))
        return
    inv, keys = _factorize_keys([batch.column(k) for k in plan.group_by])
    ngroups = len(keys)
    accs = []
    for key in keys:
        acc = partial.get(key)
        if acc is None:
            acc = partial[key] = _GroupAcc()
        accs.append(acc)
    group_rows = np.bincount(inv, minlength=ngroups)
    for g, acc in enumerate(accs):
        acc.rows += int(group_rows[g])
    for name in agg_cols:
        _fold_grouped(accs, name, inv, ngroups, batch.column(name))


def _fold_global(state: _ColState, values) -> None:
    kind = _column_kind(values)
    if kind == "bytes":
        state.fold("bytes", len(values), 0, None, None)
        return
    if kind == "float":
        v = np.asarray(values, dtype=np.float64)
        v = v[~np.isnan(v)]
        if len(v) == 0:
            state.fold("float", 0, 0.0, None, None)
        else:
            with np.errstate(invalid="ignore"):  # inf + -inf is just NaN
                total = float(np.sum(v))
            state.fold(
                "float", len(v), total,
                float(np.min(v)), float(np.max(v)),
            )
        return
    v = values
    if v.dtype == np.bool_:
        v = v.astype(np.int64)
    if len(v) == 0:
        state.fold("int", 0, 0, None, None)
    else:
        state.fold(
            "int", len(v), _exact_int_sum(v),
            int(np.min(v)), int(np.max(v)),
        )


def _fold_grouped(accs, name: str, inv, ngroups: int, values) -> None:
    kind = _column_kind(values)
    if kind == "bytes":
        counts = np.bincount(inv, minlength=ngroups)
        for g, acc in enumerate(accs):
            acc.col(name).fold("bytes", int(counts[g]), 0, None, None)
        return
    if kind == "float":
        v = np.asarray(values, dtype=np.float64)
        valid = ~np.isnan(v)
        iv, vv = inv[valid], v[valid]
        counts = np.bincount(iv, minlength=ngroups)
        # bincount accumulates weights in one fixed left-to-right C
        # loop: deterministic for a given batch
        with np.errstate(invalid="ignore"):  # inf + -inf is just NaN
            sums = np.bincount(iv, weights=vv, minlength=ngroups)
        mins = np.full(ngroups, np.inf)
        maxs = np.full(ngroups, -np.inf)
        np.minimum.at(mins, iv, vv)
        np.maximum.at(maxs, iv, vv)
        for g, acc in enumerate(accs):
            c = int(counts[g])
            acc.col(name).fold(
                "float", c, float(sums[g]),
                float(mins[g]) if c else None,
                float(maxs[g]) if c else None,
            )
        return
    v = values
    if v.dtype == np.bool_:
        v = v.astype(np.int64)
    v = v.astype(np.int64, copy=False)
    counts = np.bincount(inv, minlength=ngroups)
    # exact sums: 32-bit split accumulators can't overflow int64
    high = np.zeros(ngroups, dtype=np.int64)
    low = np.zeros(ngroups, dtype=np.int64)
    np.add.at(high, inv, v >> 32)
    np.add.at(low, inv, v & _U32_MASK)
    info = np.iinfo(np.int64)
    mins = np.full(ngroups, info.max, dtype=np.int64)
    maxs = np.full(ngroups, info.min, dtype=np.int64)
    np.minimum.at(mins, inv, v)
    np.maximum.at(maxs, inv, v)
    for g, acc in enumerate(accs):
        c = int(counts[g])
        total = int(high[g]) * (2**32) + int(low[g])
        acc.col(name).fold(
            "int", c, total,
            int(mins[g]) if c else None,
            int(maxs[g]) if c else None,
        )


# ---------------------------------------------------------------------------
# metadata answers
# ---------------------------------------------------------------------------

def _meta_partial(plan: QueryPlan, n_rows: int, stats_of) -> dict | None:
    """Answer one extent (file or row group) purely from statistics.

    The extent is already proven ``ALWAYS``-matching and free of
    deletion vectors, so every one of its ``n_rows`` rows matches the
    filter. ``stats_of(column)`` returns ``(min, max, kind)`` or
    ``None``. Returns the partial (a ``{(): _GroupAcc}`` mapping), or
    ``None`` when any aggregate cannot be proven from statistics alone
    — the caller falls back to decode.
    """
    needs: dict[str, set[str]] = {}
    for spec in plan.aggregates:
        if spec.column is None:
            continue  # count(*) == n_rows
        if spec.fn in ("sum", "mean"):
            return None  # statistics carry no sums
        needs.setdefault(spec.column, set()).add(spec.fn)
    acc = _GroupAcc(rows=n_rows)
    for name, fns in needs.items():
        stats = stats_of(name)
        if stats is None:
            return None
        lo, hi, kind = stats
        count = 0
        if "count" in fns:
            # int/bool/string values are never NaN, so every row
            # counts; a float column may hide NaN rows outside stats
            if kind == "float":
                return None
            count = n_rows
        vmin = vmax = None
        if "min" in fns or "max" in fns:
            if kind == "int":
                if not (int_bound_is_exact(lo) and int_bound_is_exact(hi)):
                    return None  # float64-rounded beyond 2**53
                vmin, vmax = int(lo), int(hi)
            elif kind == "float":
                # float stats exclude NaN — exactly the NaN-skipping
                # aggregate semantics; an all-NaN extent carries no
                # stats at all, so stats present ⇒ ≥ 1 real value
                vmin, vmax = float(lo), float(hi)
            else:
                return None
            count = max(count, 1)
        acc.col(name).fold(kind, count, 0, vmin, vmax)
    return {(): acc}


# ---------------------------------------------------------------------------
# single-reader execution
# ---------------------------------------------------------------------------

def _validate_plan(plan: QueryPlan, footer) -> None:
    """Fail fast on columns the plan cannot aggregate or group by."""
    for spec in plan.aggregates:
        if spec.column is None:
            continue
        col_idx = footer.find_column(spec.column)
        ptype = footer.column_type(col_idx)
        if ptype.list_depth > 0:
            raise PlanError(
                f"cannot aggregate list column {spec.column!r}"
            )
        if ptype.primitive in _BYTES_PRIMS and spec.fn != "count":
            raise PlanError(
                f"{spec.fn}({spec.column}) is not defined for "
                f"string/binary columns"
            )
    for name in plan.group_by:
        col_idx = footer.find_column(name)
        ptype = footer.column_type(col_idx)
        if ptype.list_depth > 0:
            raise PlanError(f"cannot group by list column {name!r}")
        if stats_kind(ptype) == "float":
            raise PlanError(
                f"cannot group by float column {name!r} (NaN keys are "
                f"not well-defined); cast or bucket it first"
            )


def _scan_projection(plan: QueryPlan, footer) -> list[str]:
    """Columns the decode path projects; never empty for a counting
    scan (batches must carry a row count)."""
    columns = plan.scan_columns()
    if columns:
        return columns
    physical = footer.physical_columns()
    if not physical:
        raise PlanError("cannot aggregate a file with no columns")
    return [physical[0].name]


def _classify_groups(reader, where) -> list[TriState]:
    if where is None:
        return [TriState.ALWAYS] * reader.footer.num_row_groups
    return reader.classify_row_groups_expr(where)


def _group_stats_of(footer, g: int):
    """``stats_of`` callback over one row group's zone maps."""

    def stats_of(name: str):
        try:
            col_idx = footer.find_column(name)
        except KeyError:
            return None
        ptype = footer.column_type(col_idx)
        if ptype.list_depth > 0:
            return None
        if ptype.primitive in _BYTES_PRIMS:
            # no [min,max], but values exist and are never NaN: good
            # enough for count(col); min/max refuse a "bytes" kind
            return (None, None, "bytes")
        stats = footer.chunk_stats(col_idx, g)
        kind = stats_kind(ptype)
        if stats is None or kind is None:
            return None
        return (stats.min_value, stats.max_value, kind)

    return stats_of


def _aggregate_one_reader(
    reader,
    plan: QueryPlan,
    *,
    use_metadata: bool,
    stats: QueryStats,
    max_workers: int = 0,
) -> dict:
    """Partial for one open file: footer stats where provable, decode
    for the rest. Merges metadata partials first (row-group order),
    then the single ordered decode scan — deterministic regardless of
    executor width above or scan parallelism below."""
    if not obs_trace.enabled():
        return _aggregate_one_reader_impl(
            reader, plan, use_metadata=use_metadata, stats=stats,
            max_workers=max_workers,
        )
    storage = getattr(reader, "_storage", None)
    with obs_trace.span("query.file", file=getattr(storage, "name", "?")):
        return _aggregate_one_reader_impl(
            reader, plan, use_metadata=use_metadata, stats=stats,
            max_workers=max_workers,
        )


def _aggregate_one_reader_impl(
    reader,
    plan: QueryPlan,
    *,
    use_metadata: bool,
    stats: QueryStats,
    max_workers: int = 0,
) -> dict:
    footer = reader.footer
    _validate_plan(plan, footer)
    partial: dict = {}
    n_groups = footer.num_row_groups
    file_clean = footer.deleted_count() == 0
    decode_groups = list(range(n_groups))
    meta_eligible = (
        use_metadata and not plan.group_by and file_clean
    )
    if meta_eligible:
        verdicts = _classify_groups(reader, plan.where)
        decode_groups = []
        for g, verdict in enumerate(verdicts):
            n_rows = footer.row_group(g).n_rows
            if verdict is TriState.NEVER:
                # zone-map-pruned here, before the decode scan ever
                # sees the group — surface it in the per-layer skip
                # counters or the pruning is invisible in QueryStats
                stats.scan.bump(
                    groups_total=1, groups_pruned=1, rows_pruned=n_rows
                )
                continue
            meta = (
                _meta_partial(plan, n_rows, _group_stats_of(footer, g))
                if verdict is TriState.ALWAYS
                else None
            )
            if meta is None:
                decode_groups.append(g)
            else:
                _merge_partials(partial, meta)
                # counted into groups_total so the invariant
                # scan.groups_total == scan.groups_pruned
                #   + groups_meta_answered + scan.groups_scanned
                # holds across answer paths
                stats.scan.bump(groups_total=1)
                stats.bump(groups_meta_answered=1, rows_from_metadata=n_rows)
    if decode_groups:
        scanned_before = stats.scan.groups_scanned
        scan = reader.scan(
            _scan_projection(plan, footer),
            where=plan.where,
            row_groups=decode_groups,
            widen_quantized=True,
            max_workers=max_workers,
            scan_stats=stats.scan,
        )
        for batch in scan:
            _accumulate_batch(partial, batch, plan)
        stats.bump(
            groups_decoded=stats.scan.groups_scanned - scanned_before,
            files_decoded=1,
        )
    else:
        stats.bump(files_footer_answered=1)
    return partial


# ---------------------------------------------------------------------------
# finalize
# ---------------------------------------------------------------------------

def _finalize_agg(spec: AggregateSpec, acc: _GroupAcc, kinds: dict):
    if spec.column is None:
        return acc.rows
    state = acc.cols.get(spec.column) or _ColState()
    kind = state.kind or kinds.get(spec.column)
    if spec.fn == "count":
        return state.count
    if spec.fn == "sum":
        if kind == "float":
            return float(state.total)
        total = int(state.total)
        # int64 wraparound semantics, applied exactly once
        return ((total + _I64_HALF) % _I64_WRAP) - _I64_HALF
    if spec.fn == "mean":
        if state.count == 0:
            return None
        return state.total / state.count
    if spec.fn == "min":
        return state.vmin
    return state.vmax


def _finalize(
    plan: QueryPlan, partial: dict, stats: QueryStats, kinds: dict
) -> QueryResult:
    """``kinds`` hints each aggregate column's kind for groups no
    extent touched — so ``sum`` over a float column stays ``0.0``
    (not ``0``) even when every file was pruned."""
    if plan.group_by:
        items = sorted(partial.items())
    else:
        items = [((), partial.get(()) or _GroupAcc())]
    rows = []
    for key, acc in items:
        row = dict(zip(plan.group_by, key))
        for spec in plan.aggregates:
            row[spec.name] = _finalize_agg(spec, acc, kinds)
        rows.append(row)
    return QueryResult(plan=plan, rows=rows, stats=stats)


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------

def _build_plan(aggregates, where, group_by) -> QueryPlan:
    if isinstance(aggregates, QueryPlan):
        if where is not None or group_by is not None:
            raise PlanError(
                "pass either a QueryPlan or loose arguments, not both"
            )
        return aggregates
    return QueryPlan.build(aggregates, where=where, group_by=group_by)


def _kinds_from_footer(plan: QueryPlan, footer) -> dict:
    kinds: dict = {}
    for name in plan.agg_columns():
        try:
            ptype = footer.column_type(footer.find_column(name))
        except KeyError:
            continue
        kinds[name] = (
            "bytes"
            if ptype.primitive in _BYTES_PRIMS and ptype.list_depth == 0
            else stats_kind(ptype)
        )
    return kinds


def _kinds_from_manifest(plan: QueryPlan, files) -> dict:
    """Best-effort column kinds without opening any file: the first
    manifest stats entry naming the column wins (kinds are consistent
    across a table's files — appends check schema fingerprints)."""
    kinds: dict = {}
    wanted = set(plan.agg_columns())
    for f in files:
        if not wanted:
            break
        if f.column_stats is None:
            continue
        for name in list(wanted):
            stats = f.column_stats.get(name)
            if stats is not None:
                kinds[name] = stats.kind
                wanted.discard(name)
    return kinds


def aggregate_reader(
    reader,
    aggregates,
    *,
    where=None,
    group_by=None,
    use_metadata: bool = True,
    max_workers: int = 4,
) -> QueryResult:
    """Run an aggregation query over one open Bullion file.

    ``aggregates`` is a :class:`QueryPlan`, a spec/string, or a list of
    them. ``use_metadata=False`` forces the decode path end to end
    (the differential suite's second leg).
    """
    plan = _build_plan(aggregates, where, group_by)
    stats = QueryStats()
    stats.bump(files_total=1)
    obs_on = obs_metrics.enabled()
    t0 = time.perf_counter() if obs_on else 0.0
    with obs_trace.span("query.reader", aggregates=len(plan.aggregates)):
        partial = _aggregate_one_reader(
            reader,
            plan,
            use_metadata=use_metadata,
            stats=stats,
            max_workers=max_workers,
        )
    if obs_on:
        QUERY_SECONDS.observe(time.perf_counter() - t0)
    return _finalize(
        plan, partial, stats, _kinds_from_footer(plan, reader.footer)
    )


def _file_stats_of(data_file, resolution=None):
    """``stats_of`` callback over one manifest entry's column stats.

    With a schema ``resolution`` (old-schema file in an evolved
    snapshot) lookups remap current names to the stored column's
    stats; columns the file never stored report no stats, which makes
    :func:`_meta_partial` refuse and the engine fall back to decode —
    where the typed-null fills produce the right answer.
    """
    if resolution is not None:
        return resolution.stats_of(data_file.column_stats)

    def stats_of(name: str):
        if data_file.column_stats is None:
            return None
        stats = data_file.column_stats.get(name)
        if stats is None:
            return None
        return (stats.min_value, stats.max_value, stats.kind)

    return stats_of


def _kinds_from_schema(plan: QueryPlan, schema) -> dict:
    """Column kinds straight from the current table schema — the
    authority on evolved snapshots, where manifest stats are keyed by
    *stored* (possibly renamed) column names."""
    kinds: dict = {}
    for name in plan.agg_columns():
        column = schema.maybe_column(name)
        if column is None:
            continue
        ptype = column.type
        kinds[name] = (
            "bytes"
            if ptype.primitive in _BYTES_PRIMS and ptype.list_depth == 0
            else stats_kind(ptype)
        )
    return kinds


def aggregate_snapshot(
    pinned,
    aggregates,
    *,
    where=None,
    group_by=None,
    use_metadata: bool = True,
    max_workers: int = 4,
) -> QueryResult:
    """Run an aggregation query over a pinned catalog snapshot.

    Files are classified from manifest statistics first: proven-empty
    files are pruned unopened, fully-proven files are answered from
    the manifest alone, and the rest run one partial-aggregation
    task per file — on a thread pool when the files' device waits per
    request, inline otherwise. Partials merge on the calling
    thread in file order, so the result — including float sums — is
    bit-identical for any ``max_workers``.
    """
    plan = _build_plan(aggregates, where, group_by)
    stats = QueryStats()
    files = list(pinned.snapshot.files)
    stats.bump(files_total=len(files))
    obs_on = obs_metrics.enabled()
    t0 = time.perf_counter() if obs_on else 0.0
    with obs_trace.span("query.snapshot", files=len(files)):
        result = _aggregate_snapshot_impl(
            pinned, plan, stats, files, use_metadata, max_workers
        )
    if obs_on:
        QUERY_SECONDS.observe(time.perf_counter() - t0)
    return result


def _aggregate_snapshot_impl(
    pinned, plan, stats, files, use_metadata, max_workers
) -> QueryResult:
    log = pinned.schema_log()
    current_schema = log.current()

    #: per file: ("meta", partial) | ("skip",) | ("task", reader)
    dispositions = []
    for f in files:
        resolution = log.resolution(f)
        verdict = (
            TriState.ALWAYS
            if plan.where is None
            else f.classify(plan.where, resolution)
        )
        if verdict is TriState.NEVER:
            stats.bump(files_pruned=1)
            # mirror the catalog-layer prune into the scan-layer skip
            # counters, matching what PinnedSnapshot.scan reports
            stats.scan.bump(files_pruned=1, rows_pruned=f.row_count)
            dispositions.append(("skip", None))
            continue
        meta = None
        if (
            use_metadata
            and not plan.group_by
            and verdict is TriState.ALWAYS
            and f.deleted_count == 0
        ):
            meta = _meta_partial(
                plan, f.row_count, _file_stats_of(f, resolution)
            )
        if meta is not None:
            stats.bump(files_meta_answered=1, rows_from_metadata=f.row_count)
            dispositions.append(("meta", meta))
        else:
            # open (footer pread) on the coordinator so the pin's
            # reader cache is never touched from worker threads;
            # old-schema files get their resolver facade here
            dispositions.append(("task", pinned._resolved_reader_for(f)))
    tasks = [reader for kind, reader in dispositions if kind == "task"]
    # threads only where the device waits per request (the same rule
    # the scan applies below): across files when several decode,
    # inside the scan when only one does (scan yields groups in order
    # either way, so the deterministic merge is unaffected)
    fan_out = (
        max_workers > 1
        and len(tasks) > 1
        and any(reader.waits_per_request for reader in tasks)
    )
    inner_workers = 0 if fan_out else max_workers

    def run_file(reader):
        file_stats = QueryStats()
        part = _aggregate_one_reader(
            reader,
            plan,
            use_metadata=use_metadata,
            stats=file_stats,
            max_workers=inner_workers,
        )
        return part, file_stats

    results: dict[int, tuple] = {}
    if fan_out:
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            futures = {
                i: pool.submit(run_file, reader)
                for i, (kind, reader) in enumerate(dispositions)
                if kind == "task"
            }
            for i, fut in futures.items():
                results[i] = fut.result()
    else:
        for i, (kind, reader) in enumerate(dispositions):
            if kind == "task":
                results[i] = run_file(reader)

    partial: dict = {}
    kinds = (
        _kinds_from_schema(plan, current_schema)
        if current_schema is not None
        else _kinds_from_manifest(plan, files)
    )
    for i, (kind, payload) in enumerate(dispositions):
        if kind == "meta":
            _merge_partials(partial, payload)
        elif kind == "task":
            part, file_stats = results[i]
            _merge_partials(partial, part)
            file_stats.files_total = 0  # already counted up front
            stats.merge(file_stats)
            kinds.update(_kinds_from_footer(plan, payload.footer))
    return _finalize(plan, partial, stats, kinds)
