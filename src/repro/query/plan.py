"""Logical query plans: ``scan → where → group_by → aggregate``.

A :class:`QueryPlan` names what to compute — aggregate functions over
columns, an optional filter expression, optional grouping columns —
and nothing about how. The engine (:mod:`repro.query.engine`) compiles
it against the existing scan path and decides, per file and per row
group, which of the three answer paths applies:

1. **manifest-only** — answered from catalog ``DataFile`` stats, the
   file is never opened;
2. **footer-stats-only** — answered from the footer's per-row-group
   ``ChunkStats`` zone maps, no data chunk is fetched;
3. **decode** — the vectorized path over batches of row groups.

:class:`QueryStats` counts which path answered what, so tests can
assert "this query touched zero data chunks" rather than trust it.

Aggregate semantics (shared by all three paths and by the brute-force
oracle in the differential test suite):

* ``count`` / ``count(*)`` — rows matching the filter (deleted rows
  never count).
* ``count(col)`` — matching rows where ``col`` is not NaN. For
  integer, bool and string columns this equals ``count(*)``.
* ``sum(col)`` — NaN-skipping sum. Integer sums are exact Python
  ``int``s, never wrapped to int64 (``sum`` of ``[3, 2**63 - 1]`` is
  ``2**63 + 2``) and order-independent; float sums accumulate in
  float64 in deterministic (file, row group) order.
* ``min(col)`` / ``max(col)`` — NaN-skipping extrema; ``None`` when no
  non-NaN value matched.
* ``mean(col)`` — ``sum(col) / count(col)``; ``None`` when
  ``count(col)`` is zero.

Quantized (FP16/BF16/FP8) columns aggregate in their widened float
domain — the same domain their statistics are collected in, which is
what makes the metadata min/max answer exact.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.core.reader import ScanStats
from repro.expr import Expr, coerce_where
from repro.obs.families import Counters

#: supported aggregate functions
AGG_FUNCTIONS = ("count", "sum", "min", "max", "mean")

_SPEC_RE = re.compile(
    r"^\s*(?P<fn>[a-zA-Z]+)\s*(?:\(\s*(?P<col>\*|[A-Za-z_][A-Za-z0-9_.]*)?\s*\))?\s*$"
)


class PlanError(ValueError):
    """Malformed aggregate spec or an unexecutable plan."""


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate function over one column (or ``count(*)``)."""

    fn: str
    column: str | None = None

    def __post_init__(self) -> None:
        if self.fn not in AGG_FUNCTIONS:
            raise PlanError(
                f"unknown aggregate {self.fn!r}: expected one of "
                f"{', '.join(AGG_FUNCTIONS)}"
            )
        if self.fn != "count" and self.column is None:
            raise PlanError(f"{self.fn} requires a column: {self.fn}(col)")

    @staticmethod
    def parse(text: str) -> "AggregateSpec":
        """Parse ``"count"``, ``"count(*)"``, ``"sum(price)"``, ..."""
        m = _SPEC_RE.match(text)
        if m is None:
            raise PlanError(f"cannot parse aggregate spec {text!r}")
        fn = m.group("fn").lower()
        column = m.group("col")
        if column in (None, "*"):
            column = None
        return AggregateSpec(fn, column)

    @property
    def name(self) -> str:
        """Canonical result-column name, e.g. ``sum(price)``."""
        if self.column is None:
            return "count(*)"
        return f"{self.fn}({self.column})"

    def __repr__(self) -> str:
        return self.name


def as_aggregate(spec) -> AggregateSpec:
    """Normalize a string or :class:`AggregateSpec` into a spec."""
    if isinstance(spec, AggregateSpec):
        return spec
    if isinstance(spec, str):
        return AggregateSpec.parse(spec)
    raise PlanError(f"cannot interpret {spec!r} as an aggregate")


@dataclass(frozen=True)
class QueryPlan:
    """A logical aggregation query: filter, group, aggregate."""

    aggregates: tuple[AggregateSpec, ...]
    where: Expr | None = None
    group_by: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.aggregates:
            raise PlanError("a query needs at least one aggregate")
        names = [a.name for a in self.aggregates]
        if len(set(names)) != len(names):
            raise PlanError(f"duplicate aggregates in {names}")
        # grouping by an aggregated column is fine; just forbid dup keys
        if len(set(self.group_by)) != len(self.group_by):
            raise PlanError(f"duplicate group_by columns {self.group_by}")

    @staticmethod
    def build(aggregates, where=None, group_by=None) -> "QueryPlan":
        """Normalize loose arguments (strings, lists) into a plan; a
        text ``where`` is parsed here, once, for every entry point."""
        if isinstance(aggregates, (str, AggregateSpec)):
            aggregates = [aggregates]
        specs = tuple(as_aggregate(a) for a in aggregates)
        if group_by is None:
            group = ()
        elif isinstance(group_by, str):
            group = (group_by,)
        else:
            group = tuple(group_by)
        return QueryPlan(
            aggregates=specs, where=coerce_where(where), group_by=group
        )

    def agg_columns(self) -> list[str]:
        """Columns whose values some aggregate needs, in spec order."""
        out: list[str] = []
        for a in self.aggregates:
            if a.column is not None and a.column not in out:
                out.append(a.column)
        return out

    def scan_columns(self) -> list[str]:
        """Every column the decode path must project."""
        out = list(self.group_by)
        for name in self.agg_columns():
            if name not in out:
                out.append(name)
        if self.where is not None:
            for name in sorted(self.where.columns()):
                if name not in out:
                    out.append(name)
        return out


@dataclass
class QueryStats(Counters):
    """Which answer path handled how much of one query.

    ``files_*`` partition the snapshot's files (single-file queries
    count as one file): pruned files were proven empty of matches and
    contributed nothing; ``meta_answered`` files were answered from
    manifest statistics without being opened; ``footer_answered``
    files were opened (footer read) but answered entirely from zone
    maps; ``decoded`` files fetched at least one data chunk.
    ``groups_meta_answered`` / ``groups_decoded`` give the row-group
    split inside opened files. ``scan`` carries the decode path's own
    per-layer skip counters; ``scan.chunks_fetched == 0`` is the
    zero-data-I/O proof the fast-path tests assert.
    """

    files_total: int = 0
    files_pruned: int = 0
    files_meta_answered: int = 0
    files_footer_answered: int = 0
    files_decoded: int = 0
    groups_meta_answered: int = 0
    groups_decoded: int = 0
    rows_from_metadata: int = 0
    scan: ScanStats = field(default_factory=ScanStats)

    families = {
        "files_total": "query_files_considered_total",
        "files_pruned": "query_files_pruned_total",
        "files_meta_answered": "query_files_meta_answered_total",
        "files_footer_answered": "query_files_footer_answered_total",
        "files_decoded": "query_files_decoded_total",
        "groups_meta_answered": "query_groups_meta_answered_total",
        "groups_decoded": "query_groups_decoded_total",
        "rows_from_metadata": "query_rows_from_metadata_total",
    }

    @property
    def data_chunks_fetched(self) -> int:
        return self.scan.chunks_fetched


@dataclass
class QueryResult:
    """Aggregation output: one row per group (one row when ungrouped).

    ``rows`` holds plain Python values — group keys as int/bool/bytes,
    aggregates as int/float/``None`` — keyed by group column name and
    canonical aggregate name. Groups are ordered by ascending key so
    the output is deterministic regardless of scan parallelism.
    """

    plan: QueryPlan
    rows: list[dict]
    stats: QueryStats

    def scalar(self, spec) -> object:
        """The single value of one aggregate (ungrouped queries)."""
        if self.plan.group_by:
            raise PlanError("scalar() on a grouped query; use rows")
        return self.rows[0][as_aggregate(spec).name]

    def column(self, name: str) -> list:
        """One output column (group key or aggregate) across rows."""
        return [r[name] for r in self.rows]

    def __len__(self) -> int:
        return len(self.rows)
