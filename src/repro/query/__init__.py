"""Vectorized aggregation over Bullion tables, metadata-first.

The paper's central bet — rich footer/manifest metadata lets ML-scale
tables answer work without touching data — extends from filtering to
aggregation. ``repro.query`` runs a small logical plan
(``scan → where → group_by → aggregate``) against the existing scan
machinery, answering whatever it can from statistics alone:

* ``count``/``min``/``max`` over a clean snapshot — zero data chunks
  fetched; often zero file opens (manifest column stats suffice);
* ``count`` under a predicate — per file and per row group, extents
  the interval evaluator proves ``ALWAYS`` count from metadata,
  ``NEVER`` extents vanish, only ``MAYBE`` extents decode;
* everything else — a vectorized group-by over batches of row groups
  from many files at once (a partial is sorted key arrays plus one
  array per needed state), each column decoded, filtered and reduced
  once per batch, and float sums folded in file order (batching and
  parallelism never change the answer, bit for bit).

Quickstart::

    from repro.expr import col

    with table.pin() as snap:
        res = snap.query(["count", "min(price)", "max(price)"])
        res.scalar("count")            # no chunk I/O on a clean table
        by_region = snap.query(
            ["count", "sum(clicks)"],
            where=col("price") > 100,
            group_by=["region"],
        )
        for row in by_region.rows:
            ...

    reader.aggregate(["sum(clicks)"])  # single-file form

:class:`QueryStats` reports which answer path handled what, so "this
never touched data" is assertable, not aspirational.
"""

from repro.query.engine import aggregate_reader, aggregate_snapshot
from repro.query.plan import (
    AGG_FUNCTIONS,
    AggregateSpec,
    PlanError,
    QueryPlan,
    QueryResult,
    QueryStats,
    as_aggregate,
)

__all__ = [
    "AGG_FUNCTIONS",
    "AggregateSpec",
    "PlanError",
    "QueryPlan",
    "QueryResult",
    "QueryStats",
    "as_aggregate",
    "aggregate_reader",
    "aggregate_snapshot",
]
