"""Execution: compile a :class:`QueryPlan` against the stored files.

The engine is a partial-aggregation machine over arrays. A partial
holds the sorted unique group keys it saw, as one array per
``group_by`` column, and one array per state the plan needs (matched
``rows``; per aggregated column ``count``, ``sum``, ``min`` or ``max``
only if some aggregate asks for it). A group is a slot in those
arrays, never a Python object; merging two partials aligns their key
sets (identical ones, the common case, align for free) and combines
slot by slot, only where the incoming partial has the key. Counts,
minima, maxima and exact integer sums (int64 sums of each value's
32-bit halves, recombined as Python ints at finalize) are associative,
so they reduce over as many rows at once as the engine holds. Float
sums are not: every row group sums its own rows, a file folds its row
groups in order, and the query folds the file totals in file order —
the same order for any batching and any fetch threads, so the answer
is bit-identical.

Each file is answered by the cheapest path that can prove the right
answer, every path deciding all the files (or row groups) of a query
in one pass over the snapshot's index
(:class:`~repro.catalog.snapshot.SnapshotIndex`):

* **manifest-only** — an ungrouped query over a clean (no deletion
  vector) file whose ``where`` the interval evaluator proves
  ``ALWAYS`` (or trivially, no ``where``) answers ``count`` from the
  manifest row count (a ``count(*)``-only query, over a file with
  deleted rows too, from its live rows) and ``min``/``max`` from
  manifest column stats,
  when those stats are exact for the purpose (float stats exclude NaN
  — exactly the NaN-skipping aggregate semantics; int stats beyond
  2**53 may be float64-rounded, so they refuse the shortcut). The
  file is never opened.
* **footer-stats-only** — otherwise the file's footer rows join the
  index (read once, on the first query that reaches the file; no data
  chunks) and its row groups are classified with the same tri-state
  evaluator over their zone maps: ``ALWAYS`` groups answer from the
  zone maps, ``NEVER`` groups vanish, ``MAYBE`` groups fall through.
* **decode** — the remaining row groups of every file (*segments*)
  run in batches of at most ``_BATCH_BYTES`` decoded bytes: tens of
  small files at a time, or a slice of a large file's groups. Each
  batch is read by the one batch loop every read shares,
  :func:`~repro.core.reader.read_batches` (filter columns first, the
  rest only for segments with survivors, each column decoded once per
  batch, old-schema files widened and filled on the way; the next
  batch's filter chunks in flight when the device waits per request). The
  engine's own work is the reduction: the matched rows are factorized
  once — a small-range int/bool key (at most a few slots per row) is
  offset-indexed straight into ``bincount``, anything wider takes one
  ``np.unique``, and multi-key codes are re-compacted after each key so
  they never outgrow the batch. Each order-free state is then one
  ``bincount`` (or ``ufunc.at``); each float sum is one ``bincount``
  over compound ``(segment, key)`` codes — one ``np.sum`` per segment
  when ungrouped — folded in the fixed order.

``sum``/``mean`` and grouped queries can never be metadata-answered
(statistics carry no sums and no group structure); a live deletion
vector also forces decode, because footer statistics summarize deleted
rows too — except for a query whose every aggregate is ``count(*)``,
which the manifest answers as ``row_count - deleted_count``.
"""

from __future__ import annotations

import time
from collections import Counter
from itertools import groupby

import numpy as np

from repro.catalog.snapshot import KIND_BYTES, KIND_FLOAT, KIND_INT, KIND_NONE
from repro.core.reader import Plan, read_batches
from repro.core.schema import Primitive, stats_kind
from repro.expr.literals import EXACT_INT_BOUND
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

_BYTES_PRIMS = (Primitive.STRING, Primitive.BINARY)

_KIND_CODES = {"int": KIND_INT, "float": KIND_FLOAT, "bytes": KIND_BYTES}

#: a batch key spanning at most this many slots per row is
#: offset-indexed; a wider one is sorted
_SLOTS_PER_ROW = 4

#: the states each aggregate needs, per column kind; a column that is
#: not float is never NaN, so its ``count`` is the group's ``rows``
_STATES = {
    "float": {
        "count": ("count",), "sum": ("sum",), "mean": ("sum", "count"),
        "min": ("min",), "max": ("max",),
    },
    "int": {
        "count": (), "sum": ("hi", "lo"), "mean": ("hi", "lo"),
        "min": ("min",), "max": ("max",),
    },
}

#: how two slots of a state combine; every other state adds
_COMBINE = {"min": np.fmin, "max": np.fmax}


# ---------------------------------------------------------------------------
# partial-aggregation state: one array slot per group
# ---------------------------------------------------------------------------

def _fill(state: str, dtype: np.dtype):
    """What a slot of ``state`` holds before any value reached it (NaN
    marks a float extremum with no value; an int one has ``rows == 0``)."""
    if state not in _COMBINE:
        return 0
    if dtype.kind == "f":
        return np.nan
    info = np.iinfo(dtype)
    return info.max if state == "min" else info.min


class _Partial:
    """A group-by state as arrays.

    ``keys`` holds one array per ``group_by`` column (none when the
    query is ungrouped: one slot), unique and ascending
    lexicographically; ``rows`` counts matched rows per slot; ``states``
    maps ``(column, state)`` to one array per state the plan needs —
    ``count`` (non-NaN values of a float column), ``sum`` (float64),
    ``hi``/``lo`` (an int column's exact sum as int64 sums of its high
    and low 32-bit halves), ``min``/``max``.
    """

    __slots__ = ("keys", "rows", "states")

    def __init__(self, keys: list, rows: np.ndarray, states: dict) -> None:
        self.keys = keys
        self.rows = rows
        self.states = states

    def merge(self, other: "_Partial"):
        """Fold ``other`` in after ``self``.

        Slots combine only where ``other`` has the key: ``-0.0 + 0.0``
        is ``0.0``, so adding a zero elsewhere would not be a no-op. A
        state ``other`` does not carry (a batch's float sums, folded
        segment by segment) is only re-aligned. Returns where ``self``'s
        slots moved (None: they did not) and where ``other``'s landed.
        """
        mine, at = None, slice(None)
        if not all(map(np.array_equal, self.keys, other.keys)):
            self.keys, codes, _rows = _factorize(
                [np.concatenate(pair) for pair in zip(self.keys, other.keys)]
            )
            n_slots, n_mine = len(self.keys[0]), len(self.rows)
            mine, at = codes[:n_mine], codes[n_mine:]
            self.rows = _spread(self.rows, mine, n_slots, 0)
            for name, values in self.states.items():
                self.states[name] = _spread(
                    values, mine, n_slots, _fill(name[1], values.dtype)
                )
        self.rows[at] += other.rows
        for name, values in self.states.items():
            incoming = other.states.get(name)
            if incoming is None:
                continue
            combine = _COMBINE.get(name[1], np.add)
            with np.errstate(invalid="ignore"):  # inf + -inf is just NaN
                values[at] = combine(values[at], incoming)
        for (column, state), low in self.states.items():
            if state == "lo":
                # carry so neither half of an exact sum can overflow
                # int64 however many rows a group collects
                self.states[(column, "hi")] += low >> 32
                low &= _U32_MASK
        return mine, at


def _spread(values: np.ndarray, at, n_slots: int, fill) -> np.ndarray:
    out = np.full(n_slots, fill, dtype=values.dtype)
    out[at] = values
    return out


class _SumFold:
    """Float sums folded in the fixed order: each file's row groups in
    order into the file's total, file totals in file order into the
    query's.

    A batch reports each segment's sums; each run of files with one
    segment adds them straight to the query's totals in one
    ``np.add.at`` (unbuffered, in index order: file order, as adding
    them one file at a time would); a longer file collects them in an
    open total (over the query's slots, re-aligned when a merge moves
    them) that the next file, or :meth:`flush`, adds. Every segment sum
    starts from +0.0 (``bincount``, numpy's add-reduce), so no total is
    -0.0 and a new slot's ``0.0 + s`` is ``s``.
    """

    def __init__(self) -> None:
        self._file = None
        #: column -> (total, touched) of the open multi-segment file
        self._open: dict = {}

    def add(self, acc: _Partial, mine, at, files, single, sums: dict) -> None:
        """Fold one batch's ``sums`` (see :func:`_segment_sums`) over
        its kept segments — of files ``files``, ``single`` where the file
        has no other — into ``acc``, which ``acc.merge`` just aligned
        (``mine``, ``at``)."""
        n_slots = len(acc.rows)
        if mine is not None:
            for name, (total, touched) in self._open.items():
                self._open[name] = (
                    _spread(total, mine, n_slots, 0.0),
                    _spread(touched, mine, n_slots, False),
                )
        sums = {
            name: (bounds.tolist(), keys if isinstance(at, slice) else at[keys],
                   values)
            for name, (bounds, keys, values) in sums.items()
        }
        runs = groupby(
            enumerate(zip(files.tolist(), single.tolist())),
            lambda item: item[1][1],
        )
        with np.errstate(invalid="ignore"):  # inf + -inf is just NaN
            for whole, run in runs:
                run = list(run)
                if whole:  # one run of single-segment files
                    self.flush(acc)
                    self._file = run[-1][1][0]
                    j, k = run[0][0], run[-1][0] + 1
                    for name, (bounds, slots, values) in sums.items():
                        lo, hi = bounds[j], bounds[k]
                        np.add.at(
                            acc.states[(name, "sum")], slots[lo:hi],
                            values[lo:hi],
                        )
                    continue
                for j, (file, _single) in run:
                    if file != self._file:
                        self.flush(acc)
                        self._file = file
                    for name, (bounds, slots, values) in sums.items():
                        lo, hi = bounds[j], bounds[j + 1]
                        if lo == hi:
                            continue  # no row of this segment matched
                        if name not in self._open:
                            self._open[name] = (
                                np.zeros(n_slots), np.zeros(n_slots, dtype=bool)
                            )
                        total, touched = self._open[name]
                        total[slots[lo:hi]] += values[lo:hi]
                        touched[slots[lo:hi]] = True

    def flush(self, acc: "_Partial | None") -> None:
        """Add the open file's totals to ``acc``."""
        if not self._open:
            return
        with np.errstate(invalid="ignore"):
            for name, (total, touched) in self._open.items():
                acc.states[(name, "sum")][touched] += total[touched]
        self._open = {}


# ---------------------------------------------------------------------------
# vectorized accumulation (the decode path)
# ---------------------------------------------------------------------------

def _compact(codes: np.ndarray, n_slots: int):
    """Dense renumbering of ``codes`` in ``[0, n_slots)``: the occupied
    slots ascending, each row's index among them, rows per slot."""
    if n_slots > _SLOTS_PER_ROW * len(codes):
        return np.unique(codes, return_inverse=True, return_counts=True)
    counts = np.bincount(codes, minlength=n_slots)
    if counts.all():
        return np.arange(n_slots), codes, counts
    seen = counts > 0
    return np.flatnonzero(seen), (np.cumsum(seen) - 1)[codes], counts[seen]


def _key_codes(values):
    """One key column as ``_compact`` returns it, with the slots
    translated to the key values they stand for."""
    if not isinstance(values, np.ndarray) or values.dtype == object:
        keys = np.empty(len(values), dtype=object)
        keys[:] = values  # bytes keys
        return np.unique(keys, return_inverse=True, return_counts=True)
    ints = values.view(np.uint8) if values.dtype == np.bool_ else values
    lo, hi = int(ints.min()), int(ints.max())
    if hi - lo >= _SLOTS_PER_ROW * len(ints):
        return np.unique(values, return_inverse=True, return_counts=True)
    slots, codes, counts = _compact(
        np.subtract(ints, lo, dtype=np.intp), hi - lo + 1
    )
    return (slots + lo).astype(values.dtype), codes, counts


def _factorize(columns: list):
    """Group rows by their key columns: ``(keys, codes, rows)`` where
    ``keys`` holds one array per key column, lexicographically
    ascending, ``codes[i]`` indexes row ``i``'s key and ``rows`` counts
    the rows of each. Combined codes are re-compacted after each key,
    so they stay below the row count and cannot overflow."""
    first, codes, rows = _key_codes(columns[0])
    keys = [first]
    for values in columns[1:]:
        uniq, more, _rows = _key_codes(values)
        width = len(uniq)
        slots, codes, rows = _compact(
            codes * width + more, len(keys[0]) * width
        )
        keys = [k[slots // width] for k in keys] + [uniq[slots % width]]
    return keys, codes, rows


def _reduce(state: str, values: np.ndarray, at, n_slots: int) -> np.ndarray:
    """One order-free state over every slot; ``at is None`` is the
    ungrouped slot."""
    if state == "count":
        if at is None:
            return np.array([len(values)])
        return np.bincount(at, minlength=n_slots)
    if state in ("hi", "lo"):
        half = values >> 32 if state == "hi" else values & _U32_MASK
        if at is None:
            return np.array([half.sum()])
        out = np.zeros(n_slots, dtype=np.int64)
        np.add.at(out, at, half)
        return out
    if at is None:
        if not len(values):
            return np.array([_fill(state, values.dtype)])
        return np.array([np.min(values) if state == "min" else np.max(values)])
    out = np.full(n_slots, _fill(state, values.dtype), dtype=values.dtype)
    _COMBINE[state].at(out, at, values)
    return out


def _segment_sums(values, at, valid, matched, n_slots: int):
    """Each segment's float sum per key slot, exactly as that segment
    alone sums it: ``(bounds, keys, sums)``, segment ``j``'s part being
    ``[bounds[j], bounds[j + 1])``. ``values`` (and ``at``) hold the
    matched rows that ``valid`` (None: all) keeps.

    Grouped, one ``bincount`` over compound ``(segment, key)`` codes
    adds each slot's rows in row order from 0.0, like a per-segment
    ``bincount``. Ungrouped, each segment with a matched row takes its
    own pairwise ``np.sum`` — ``np.add.reduceat`` adds in another order
    and would change the bits.
    """
    n_seg = len(matched)
    with np.errstate(invalid="ignore"):  # inf + -inf is just NaN
        if at is None:
            starts = np.concatenate(([0], np.cumsum(matched)))
            if valid is not None:  # rows dropped before each start
                starts -= np.searchsorted(np.flatnonzero(~valid), starts)
            starts = starts.tolist()
            present = np.flatnonzero(matched).tolist()
            # np.add.reduce is np.sum's reduction, bit for bit
            sums = np.array([
                np.add.reduce(values[starts[j] : starts[j + 1]])
                for j in present
            ])
            bounds = np.concatenate(([0], np.cumsum(matched > 0)))
            return bounds, np.zeros(len(present), dtype=np.intp), sums
        compound = np.repeat(np.arange(0, n_seg * n_slots, n_slots), matched)
        if valid is not None:
            compound = compound[valid]
        compound += at
        pairs, codes, _rows = _compact(compound, n_seg * n_slots)
        del compound
        sums = np.bincount(codes, weights=values, minlength=len(pairs))
        bounds = np.searchsorted(pairs // n_slots, np.arange(n_seg + 1))
        return bounds, pairs % n_slots, sums.astype(np.float64, copy=False)


def _batch_partial(columns: dict, matched, group_by: tuple, needs: list):
    """A batch's matched rows as ``(partial, sums)``: the partial holds
    every order-free state, ``sums`` each float sum per segment (see
    :func:`_segment_sums`)."""
    if group_by:
        keys, codes, rows = _factorize([columns[k] for k in group_by])
        n_slots = len(rows)
    else:
        codes, keys, n_slots = None, [], 1
        rows = np.array([matched.sum()])
    states, sums = {}, {}
    for name, kind, wanted in needs:
        values, at, valid = columns[name], codes, None
        if kind == "float":
            values = np.asarray(values, dtype=np.float64)
            valid = ~np.isnan(values)
            if valid.all():
                valid = None
            else:
                values = values[valid]
                at = None if codes is None else codes[valid]
        else:
            values = values.astype(np.int64, copy=False)
        for state in wanted:
            if kind == "float" and state == "sum":
                sums[name] = _segment_sums(values, at, valid, matched, n_slots)
            else:
                states[(name, state)] = _reduce(state, values, at, n_slots)
    return _Partial(keys, rows, states), sums


def _needs(plan: QueryPlan, kinds: dict) -> list:
    """Per aggregated column: ``(name, kind, states the plan needs)``."""
    wanted: dict[str, list] = {}
    for spec in plan.aggregates:
        table = _STATES.get(kinds.get(spec.column))
        if table is None:
            continue  # count(*), or a column with no numeric states
        states = wanted.setdefault(spec.column, [])
        states += [s for s in table[spec.fn] if s not in states]
    return [
        (name, kinds[name], tuple(states))
        for name, states in wanted.items()
        if states
    ]


def _empty(needs: list) -> _Partial:
    """The ungrouped partial of no rows at all."""
    states = {}
    for name, kind, wanted in needs:
        for state in wanted:
            dtype = np.dtype(
                np.float64 if kind == "float" and state != "count" else np.int64
            )
            states[(name, state)] = np.full(1, _fill(state, dtype), dtype)
    return _Partial([], np.zeros(1, dtype=np.int64), states)


# ---------------------------------------------------------------------------
# metadata answers
# ---------------------------------------------------------------------------

def _meta_answers(plan: QueryPlan, candidates: np.ndarray, stats_of):
    """Which candidate extents (files or row groups, already proven
    ``ALWAYS``-matching and free of deletion vectors) statistics alone
    answer, and how: ``(answered mask, {(column, fn): bound per
    extent})``. ``stats_of(column)`` gives ``(has, lo, hi, kind)``
    arrays over the extents (``kind``: the ``KIND_*`` codes of
    :mod:`repro.catalog.snapshot`).

    An extent is refused — the caller decodes it — when any aggregate
    cannot be proven from its statistics: sums (statistics carry none),
    missing stats, a ``count`` of a float column (NaN rows may hide
    outside the stats), or an int bound float64 may have rounded
    (beyond 2**53). Float stats exclude NaN — exactly the NaN-skipping
    aggregate semantics; an all-NaN extent carries no stats at all, so
    stats present ⇒ ≥ 1 real value.
    """
    ok = candidates.copy()
    bounds = {}
    for spec in plan.aggregates:
        if spec.column is None:
            continue  # count(*) == n_rows
        if spec.fn in ("sum", "mean"):
            return np.zeros_like(ok), {}
        has, lo, hi, kind = stats_of(spec.column)
        ok &= has
        if spec.fn == "count":
            # int/bool/string values are never NaN, so every row counts
            ok &= kind != KIND_FLOAT
            continue
        with np.errstate(invalid="ignore"):
            exact = (np.abs(lo) < EXACT_INT_BOUND) & (np.abs(hi) < EXACT_INT_BOUND)
        ok &= (kind == KIND_FLOAT) | (kind == KIND_INT) & exact
        bounds[(spec.column, spec.fn)] = (lo if spec.fn == "min" else hi, kind)
    return ok, bounds


class _MetaExtents:
    """The extents a query answers from statistics, folded in file
    order into one ungrouped partial."""

    def __init__(self) -> None:
        self.order: list = []  # (file ordinals, row group or -1)
        self.rows: list = []
        self.bounds: list = []

    def add(self, files, groups, rows, ok, bounds) -> None:
        if ok.any():
            self.order.append((files[ok], groups[ok]))
            self.rows.append(rows[ok])
            self.bounds.append({
                name: (values[ok], kind[ok]) for name, (values, kind) in bounds.items()
            })

    def partial(self) -> "_Partial | None":
        if not self.order:
            return None
        files = np.concatenate([f for f, _g in self.order])
        groups = np.concatenate([g for _f, g in self.order])
        order = np.lexsort((groups, files))
        states = {}
        for name in self.bounds[0]:
            values = np.concatenate([b[name][0] for b in self.bounds])[order]
            kinds = np.concatenate([b[name][1] for b in self.bounds])[order]
            if kinds[0] == KIND_INT:
                values = values.astype(np.int64)
            combine = _COMBINE[name[1]]
            states[name] = np.array([combine.reduce(values)], dtype=values.dtype)
        rows = int(np.concatenate(self.rows).sum())
        return _Partial([], np.array([rows], dtype=np.int64), states)


# ---------------------------------------------------------------------------
# opened files
# ---------------------------------------------------------------------------

def _kind(ptype) -> str | None:
    if ptype.primitive in _BYTES_PRIMS and ptype.list_depth == 0:
        return "bytes"
    return stats_kind(ptype)


def _resolve(plan: QueryPlan, layout) -> tuple[dict, list[str]]:
    """Check ``plan`` against one file schema (``layout``: a
    :class:`~repro.core.reader.Layout` of a file at it, read as the
    current schema): its aggregate columns' kinds and the columns the
    decode path projects (never empty for a counting query, which
    fetches one column per row group). Fails fast on columns the plan
    cannot filter, aggregate or group by."""
    kinds = {}

    def ptype(name):
        return layout.locate(name)[2]

    for spec in plan.aggregates:
        if spec.column is None:
            continue
        if ptype(spec.column).list_depth > 0:
            raise PlanError(
                f"cannot aggregate list column {spec.column!r}"
            )
        if ptype(spec.column).primitive in _BYTES_PRIMS and spec.fn != "count":
            raise PlanError(
                f"{spec.fn}({spec.column}) is not defined for "
                f"string/binary columns"
            )
        kinds[spec.column] = _kind(ptype(spec.column))
    for name in plan.group_by:
        if ptype(name).list_depth > 0:
            raise PlanError(f"cannot group by list column {name!r}")
        if stats_kind(ptype(name)) == "float":
            raise PlanError(
                f"cannot group by float column {name!r} (NaN keys are "
                f"not well-defined); cast or bucket it first"
            )
    for name in sorted(plan.where.columns()) if plan.where is not None else ():
        if ptype(name).list_depth > 0:
            raise ValueError(f"cannot filter on list column {name!r}")
    projection = plan.scan_columns() or layout.names()[:1]
    return kinds, projection


def _zone_stats_of(state, groups):
    """``stats_of`` for :func:`_meta_answers` over row groups ``groups``
    of an index state: each group's zone map, kinds from the column's
    current type. A string/binary column has no [min, max], but its
    values exist and are never NaN: good enough for ``count(col)``."""

    def stats_of(name: str):
        column = state.column(name)
        code = _KIND_CODES.get(
            _kind(column.ptype) if not column.ptype.list_depth else None,
            KIND_NONE,
        )
        has = column.has[groups] if code != KIND_BYTES else np.ones(len(groups), bool)
        return (
            has & (code != KIND_NONE), column.lo[groups], column.hi[groups],
            np.full(len(groups), code, dtype=np.int8),
        )

    return stats_of


class _Tally:
    """One query's counts, published in one ``bump`` per stats object."""

    __slots__ = ("query", "scan")

    def __init__(self) -> None:
        self.query: Counter = Counter()
        self.scan: Counter = Counter()

    def publish(self, stats: QueryStats) -> None:
        stats.bump(**self.query)
        stats.scan.bump(**self.scan)


def _open_files(
    state, opened, plan, projection, use_metadata, tally, meta, reader_of,
) -> Plan:
    """Classify the row groups of files ``opened`` (file ordinals of an
    index state, ascending) under the query's ``where``, in one pass
    over the index (:meth:`~repro.core.reader.IndexState.plan`).

    ``NEVER`` groups count as pruned; ``ALWAYS`` groups of a clean,
    ungrouped query answer from their zone maps where they can (into
    ``meta``); every other group is read. A file left with nothing to
    read is footer-answered. Returns the :class:`Plan` of the groups to
    decode.
    """
    mask = np.zeros(len(state.file_start) - 1, dtype=bool)
    mask[opened] = True
    groups = np.flatnonzero(mask[state.g_file])
    files, rows = state.g_file[groups], state.rows[groups]
    meta_ok = use_metadata and not plan.group_by
    clean = state.file_deleted == 0

    def answer(never, always):
        answered, bounds = _meta_answers(
            plan, always & ~never & clean[files], _zone_stats_of(state, groups)
        )
        meta.add(files, state.g_rg[groups], rows, answered, bounds)
        tally.query.update(
            groups_meta_answered=int(answered.sum()),
            rows_from_metadata=int(rows[answered].sum()),
        )
        return answered

    # every group of an opened file is a candidate, however answered:
    # scan.groups_total == scan.groups_pruned + groups_meta_answered
    #   + scan.groups_scanned
    read = state.plan(
        groups, projection, plan.where, tally.scan, reader_of,
        files=len(opened), answer=answer if meta_ok else None,
    )
    # without metadata answers (a grouped query, a deletion vector)
    # every group is a candidate, even one the zone maps then prune
    touched = np.where(
        meta_ok & clean[opened],
        np.bincount(read.files, minlength=len(mask))[opened] > 0,
        np.diff(state.file_start)[opened] > 0,
    )
    footer_answered = int((~touched).sum())
    tally.query["files_footer_answered"] += footer_answered
    tally.scan["files_scanned"] -= footer_answered  # answered, not scanned
    tally.query["files_decoded"] += len(opened) - footer_answered
    if footer_answered < len(opened) and not projection:
        raise PlanError("cannot aggregate a file with no columns")
    return read


# ---------------------------------------------------------------------------
# batches of row groups
# ---------------------------------------------------------------------------

def _decode_files(read, plan, needs, tally, partial):
    """Fold every group of the plan ``read`` into ``partial``, batch by
    batch, in file and row-group order, as
    :func:`~repro.core.reader.read_batches` reads them."""
    if not len(read.groups):
        return partial
    used = list(plan.group_by) + [
        name for name, _kind, _states in needs if name not in plan.group_by
    ]
    fold = _SumFold()
    # files with one group each fold their sums straight into the query's
    single = (np.bincount(read.files) == 1)[read.files]
    batches = read_batches(read, plan.where, used, tally.scan)
    hi, n = 0, len(read.groups)
    while hi < n:
        # the span covers the batch's read (the loop's step) and its
        # reduction; the batch ending at the plan's last group is last
        with obs_trace.span("query.batch") as batch:
            lo, hi, (columns, kept, matched) = next(batches)
            batch.set(segments=hi - lo)
            tally.query["groups_decoded"] += hi - lo
            if not any(matched):
                continue
            matched = np.array(matched, dtype=np.int64)
            part, sums = _batch_partial(columns, matched, plan.group_by, needs)
        if partial is None:
            partial, mine, at = part, None, slice(None)
        else:
            mine, at = partial.merge(part)
        for name in sums:
            partial.states.setdefault((name, "sum"), np.zeros(len(partial.rows)))
        fold.add(partial, mine, at, read.files[kept], single[kept], sums)
    if partial is not None:
        fold.flush(partial)
    return partial


# ---------------------------------------------------------------------------
# finalize
# ---------------------------------------------------------------------------

def _finalize_agg(spec: AggregateSpec, partial: _Partial, rows: list) -> list:
    """One aggregate's output value for every slot."""
    if spec.column is None:
        return rows
    states = partial.states
    if spec.fn in ("count", "min", "max"):
        values = states.get((spec.column, spec.fn))
        if values is None:  # count of a never-NaN column, or no kind
            return rows if spec.fn == "count" else [None] * len(rows)
        if spec.fn == "count":
            return values.tolist()
        if values.dtype.kind == "f":
            return [None if v != v else v for v in values.tolist()]
        return [v if r else None for v, r in zip(values.tolist(), rows)]
    totals = states.get((spec.column, "sum"))
    if totals is not None:  # float
        if spec.fn == "sum":
            return totals.tolist()
        counts = states[(spec.column, "count")].tolist()
        return [t / c if c else None for t, c in zip(totals.tolist(), counts)]
    high = states.get((spec.column, "hi"))
    if high is None:
        exact = [0] * len(rows)
    else:
        low = states[(spec.column, "lo")].tolist()
        exact = [h * 2**32 + lo for h, lo in zip(high.tolist(), low)]
    if spec.fn == "sum":
        return exact  # exact Python ints, never wrapped to int64
    return [t / r if r else None for t, r in zip(exact, rows)]


def _finalize(
    plan: QueryPlan, partial: "_Partial | None", needs: list, stats: QueryStats
) -> QueryResult:
    """``needs`` types an ungrouped query no extent touched — so
    ``sum`` over a float column stays ``0.0`` (not ``0``) even when
    every file was pruned."""
    if partial is None:
        if plan.group_by:
            return QueryResult(plan=plan, rows=[], stats=stats)
        partial = _empty(needs)
    rows = partial.rows.tolist()
    names = list(plan.group_by) + [spec.name for spec in plan.aggregates]
    columns = [keys.tolist() for keys in partial.keys] + [
        _finalize_agg(spec, partial, rows) for spec in plan.aggregates
    ]
    return QueryResult(
        plan=plan,
        rows=[dict(zip(names, values)) for values in zip(*columns)],
        stats=stats,
    )


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


def _kinds_from_schema(plan: QueryPlan, schema) -> dict:
    """Column kinds straight from the current table schema — the
    authority on evolved snapshots, where manifest stats are keyed by
    *stored* (possibly renamed) column names."""
    kinds: dict = {}
    for name in plan.agg_columns():
        column = schema.maybe_column(name)
        if column is not None:
            kinds[name] = _kind(column.type)
    return kinds


def aggregate_snapshot(
    pinned,
    aggregates,
    *,
    where=None,
    group_by=None,
    use_metadata: bool = True,
) -> QueryResult:
    """Run an aggregation query over a pinned catalog snapshot.

    Files are classified from manifest statistics first: proven-empty
    files are pruned unopened, fully-proven files are answered from
    the manifest alone, and the rest are opened (on the calling
    thread), classified by their zone maps and decoded in batches
    across files. The result — including float sums — is
    bit-identical however many threads fetch.
    """
    plan = _build_plan(aggregates, where, group_by)
    stats = QueryStats()
    files = list(pinned.snapshot.files)
    obs_on = obs_metrics.enabled()
    t0 = time.perf_counter() if obs_on else 0.0
    with obs_trace.span("query.snapshot", files=len(files)):
        result = _aggregate_snapshot_impl(
            pinned, plan, stats, files, use_metadata
        )
    if obs_on:
        QUERY_SECONDS.observe(time.perf_counter() - t0)
    return result


def _aggregate_snapshot_impl(
    pinned, plan, stats, files, use_metadata
) -> QueryResult:
    current_schema = pinned.schema_log().current()
    kinds = (
        _kinds_from_schema(plan, current_schema)
        if current_schema is not None
        else _kinds_from_manifest(plan, files)
    )
    tally = _Tally()
    tally.query.update(files_total=len(files))
    index = pinned.index()
    manifest = index.manifest
    n = len(files)
    if plan.where is None:
        never = np.zeros(n, dtype=bool)
        always = ~never
    else:
        never, always = manifest.verdicts(plan.where)
    pruned = int(never.sum())
    # the catalog-layer prune is a scan-layer skip too, as
    # PinnedSnapshot.scan reports it
    tally.query["files_pruned"] += pruned
    tally.scan["files_pruned"] += pruned
    tally.scan["rows_pruned"] += int(manifest.row_count[never].sum())
    meta = _MetaExtents()
    answered = np.zeros(n, dtype=bool)
    if use_metadata and not plan.group_by:
        ordinals = np.arange(n)
        # a count(*)-only query needs no statistics, so deleted rows
        # (footer or manifest vector) only come off the row count
        stars = all(spec.column is None for spec in plan.aggregates)
        live = manifest.row_count - manifest.deleted_count
        answered, bounds = _meta_answers(
            plan, always & ~never & (stars | (manifest.deleted_count == 0)),
            manifest.meta_stats,
        )
        meta.add(ordinals, np.full(n, -1), live, answered, bounds)
        tally.query["files_meta_answered"] += int(answered.sum())
        tally.query["rows_from_metadata"] += int(live[answered].sum())
    opened = np.flatnonzero(~never & ~answered)
    read = None
    if len(opened):
        pinned._fill(opened, "query.file")
        # stored schema -> decode projection, resolved on its first file;
        # old-schema files all read as the current schema
        projection: dict = {}
        for i in {index.layout_key(i): i for i in opened[::-1].tolist()}.values():
            file_kinds, names = _resolve(plan, index.read.blocks[i][1])
            kinds.update(file_kinds)
            projection.update(dict.fromkeys(names))
        read = _open_files(
            index.read.state(), opened, plan, list(projection), use_metadata,
            tally, meta, lambda i: pinned._reader_for(files[i].file_id),
        )
    needs = _needs(plan, kinds)
    partial = meta.partial()
    if read is not None:
        partial = _decode_files(read, plan, needs, tally, partial)
    tally.publish(stats)
    return _finalize(plan, partial, needs, stats)
