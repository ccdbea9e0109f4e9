"""Unified expression engine: one predicate, three pushdown layers.

Build a filter once with the tiny AST here and the *same* object
skips work at every level of the read path:

1. **catalog file pruning** — manifests carry per-file column min/max;
   :func:`evaluate_interval` over them drops whole files before any
   open (:meth:`CatalogTable.scan(where=...)`),
2. **footer zone maps** — the same interval evaluator over per-row-
   group chunk statistics drops row groups with zero data I/O
   (:meth:`BullionReader.scan(where=...)`),
3. **vectorized decode-time filtering** — :func:`evaluate` runs the
   exact numpy mask over decoded batches, with late materialization:
   filter columns decode first, remaining projected chunks are fetched
   only for row groups with surviving rows.

Quickstart::

    from repro.expr import col, parse

    e = (col("price") > 100) & col("region").isin([3, 5, 7])
    e = parse("price > 100 and region in (3, 5, 7)")   # same thing
    table.scan(["price", "clicks"], where=e)

The interval layer is strictly conservative: missing statistics, NaN,
and float64-rounded int64 bounds all degrade to "scan it" — pruning
can only ever skip extents proven unmatchable.
"""

from repro.expr.ast import (
    And,
    ColumnRef,
    Comparison,
    Expr,
    ExprError,
    In,
    Not,
    Or,
    all_of,
    any_of,
    col,
)
from repro.expr.interval import (
    Interval,
    TriState,
    evaluate_interval,
    interval_from_stats,
)
from repro.expr.parse import ParseError, coerce_where, parse
from repro.expr.vector import VectorEvalError, evaluate

__all__ = [
    "Expr",
    "ExprError",
    "Comparison",
    "In",
    "And",
    "Or",
    "Not",
    "ColumnRef",
    "col",
    "all_of",
    "any_of",
    "evaluate",
    "VectorEvalError",
    "TriState",
    "Interval",
    "interval_from_stats",
    "evaluate_interval",
    "parse",
    "ParseError",
    "coerce_where",
]
