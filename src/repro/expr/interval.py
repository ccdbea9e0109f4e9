"""Conservative interval evaluation: "can this extent possibly match?"

The two metadata pushdown layers (catalog manifests, footer zone
maps) know only a min/max summary per column extent — a whole file or
one row group. :func:`evaluate_interval` answers with a tri-state
:class:`TriState`:

``NEVER``   no row of the extent can satisfy the expression — the
            extent is skipped with **zero** data I/O.
``ALWAYS``  every row satisfies it: a scan reads the extent
            unfiltered, a count is answered from metadata, a delete
            drops the file unopened.
``MAYBE``   cannot tell; decode and let the vector evaluator decide.

Both definite answers are acted on without reading a row, so neither
may ever be wrong. That needs the vector evaluator to mean the same
thing by ``column <op> literal``: the comparison of the stored value
and the literal as real numbers, which is what comparing exact
float64 statistics with an unrounded Python literal does here
(:mod:`repro.expr.literals` holds the vector side to it). Every
source of imprecision degrades toward ``MAYBE``:

* **Missing stats** (string columns, empty or statistics-free files,
  pre-stats writers) → ``MAYBE``. Extents without stats are always
  scanned.
* **NaN** — float stats summarize only non-NaN values, so an extent
  may hold NaN rows outside [min, max]. NaN fails every ordered
  comparison and ``==`` (so ``NEVER`` decisions stand) but satisfies
  ``!=`` — hence ``ALWAYS`` for ordered ops and ``NEVER`` for ``!=``
  additionally require :attr:`Interval.maybe_nan` to be False. Stats
  whose own bounds are NaN (corrupt or degenerate) evaluate ``MAYBE``
  and therefore never prune.
* **int64 precision** — stats are stored as float64, which rounds
  integers beyond 2**53. A rounded bound may sit strictly *inside*
  the true value range, so taking it at face value could prune an
  extent that really contains a match (a false negative — wrong
  results, not a missed optimization). :func:`interval_from_stats`
  widens any inexactly-representable integer bound outward by one ULP
  (≥ the maximum rounding error) and drops point-equality exactness,
  restoring strict conservatism at the precision boundary.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_left
from dataclasses import dataclass

from repro.expr.ast import And, Comparison, Expr, In, Not, Or
from repro.expr.literals import EXACT_INT_BOUND


class TriState(enum.Enum):
    NEVER = "never"
    MAYBE = "maybe"
    ALWAYS = "always"

    def __invert__(self) -> "TriState":
        if self is TriState.NEVER:
            return TriState.ALWAYS
        if self is TriState.ALWAYS:
            return TriState.NEVER
        return TriState.MAYBE

    def __and__(self, other: "TriState") -> "TriState":
        if TriState.NEVER in (self, other):
            return TriState.NEVER
        if self is TriState.ALWAYS and other is TriState.ALWAYS:
            return TriState.ALWAYS
        return TriState.MAYBE

    def __or__(self, other: "TriState") -> "TriState":
        if TriState.ALWAYS in (self, other):
            return TriState.ALWAYS
        if self is TriState.NEVER and other is TriState.NEVER:
            return TriState.NEVER
        return TriState.MAYBE


@dataclass(frozen=True)
class Interval:
    """Summary of one column extent, with its imprecision flags.

    Invariant the evaluator relies on: every non-NaN value of the
    extent lies in ``[lo, hi]``. ``maybe_nan`` records whether NaN
    values may exist outside the interval; ``eq_exact`` whether the
    bounds are exact values from the data (False once float64 rounding
    may have moved them, i.e. integers beyond 2**53).
    """

    lo: float
    hi: float
    maybe_nan: bool = False
    eq_exact: bool = True


def _widen_int_bound(value: float, direction: int) -> tuple[float, bool]:
    """Push an int-column stat bound outward past its rounding error.

    float64 rounds an int64 by at most ulp(stored)/2; one full ULP
    outward is therefore always enough. The boundary is inclusive:
    a stored 2**53 may itself be the round-to-even image of 2**53 + 1.
    Returns (bound, was_exact).
    """
    if abs(value) < EXACT_INT_BOUND:
        return value, True
    if math.isinf(value) or math.isnan(value):
        return value, True
    return value + direction * math.ulp(value), False


def int_bound_is_exact(value: float) -> bool:
    """Is a float64-stored integer statistic guaranteed unrounded?

    True only strictly below 2**53: the boundary itself is excluded
    because a stored 2**53 may be the round-to-even image of 2**53+1.
    Metadata consumers that need the *exact* value (the query engine's
    ``min``/``max`` fast path) must refuse bounds this returns False
    for; the pruning path instead widens them outward
    (:func:`interval_from_stats`) and keeps going.
    """
    return abs(value) < EXACT_INT_BOUND


def interval_from_stats(
    min_value: float, max_value: float, kind: str
) -> Interval:
    """Build an :class:`Interval` from stored min/max statistics.

    ``kind`` is ``"int"`` for integer-valued columns (no NaN possible,
    but float64 storage may have rounded large values) or ``"float"``
    for float-valued columns (bounds are exact stored values, but NaN
    rows may exist outside them).
    """
    if kind == "int":
        lo, lo_exact = _widen_int_bound(float(min_value), -1)
        hi, hi_exact = _widen_int_bound(float(max_value), +1)
        return Interval(lo, hi, maybe_nan=False,
                        eq_exact=lo_exact and hi_exact)
    return Interval(float(min_value), float(max_value),
                    maybe_nan=True, eq_exact=True)


def evaluate_interval(expr: Expr, stats) -> TriState:
    """Tri-state evaluation of ``expr`` over per-column intervals.

    ``stats`` maps column name -> :class:`Interval` or ``None``
    (unknown). Columns absent from the mapping, or mapped to ``None``,
    make their leaves ``MAYBE`` — conservative include.
    """
    if isinstance(expr, Comparison):
        return _leaf(stats.get(expr.column), expr.op, expr.value)
    if isinstance(expr, In):
        return _membership(stats.get(expr.column), expr.literals)
    if isinstance(expr, And):
        out = TriState.ALWAYS
        for a in expr.args:
            out = out & evaluate_interval(a, stats)
            if out is TriState.NEVER:
                break
        return out
    if isinstance(expr, Or):
        out = TriState.NEVER
        for a in expr.args:
            out = out | evaluate_interval(a, stats)
            if out is TriState.ALWAYS:
                break
        return out
    if isinstance(expr, Not):
        return ~evaluate_interval(expr.arg, stats)
    return TriState.MAYBE


def might_match(expr: Expr, stats) -> bool:
    """True unless the interval evaluator proves no row can match."""
    return evaluate_interval(expr, stats) is not TriState.NEVER


def _membership(iv: Interval | None, literals) -> TriState:
    """``In`` over one interval: the OR of an ``==`` leaf per literal,
    answered from the sorted literals with one bisect."""
    if iv is None or math.isnan(iv.lo) or math.isnan(iv.hi):
        return TriState.MAYBE
    numbers = literals.numbers
    i = bisect_left(numbers, iv.lo)
    if i < len(numbers) and numbers[i] <= iv.hi:
        # a literal inside [lo, hi]; on a one-point extent it *is* the
        # point, which is the == leaf's only ALWAYS
        if iv.lo == iv.hi and iv.eq_exact and not iv.maybe_nan:
            return TriState.ALWAYS
        return TriState.MAYBE
    # a string literal against numeric stats decides nothing
    return TriState.MAYBE if literals.texts else TriState.NEVER


def _leaf(iv: Interval | None, op: str, value) -> TriState:
    if iv is None:
        return TriState.MAYBE
    if isinstance(value, bool):
        value = int(value)
    elif not isinstance(value, (int, float)):
        return TriState.MAYBE  # string literal vs numeric stats
    if math.isnan(iv.lo) or math.isnan(iv.hi):
        return TriState.MAYBE  # degenerate stats never prune
    if isinstance(value, float) and math.isnan(value):
        # NaN satisfies only !=, and does so for every row
        return TriState.ALWAYS if op == "!=" else TriState.NEVER
    lo, hi = iv.lo, iv.hi
    # Python compares int and float with full precision, so an int
    # literal beyond 2**53 is not silently rounded here — the stats
    # side alone carries the rounding, already widened outward.
    if op == "<":
        if lo >= value:
            return TriState.NEVER
        if hi < value:
            return _always_unless_nan(iv)
        return TriState.MAYBE
    if op == "<=":
        if lo > value:
            return TriState.NEVER
        if hi <= value:
            return _always_unless_nan(iv)
        return TriState.MAYBE
    if op == ">":
        if hi <= value:
            return TriState.NEVER
        if lo > value:
            return _always_unless_nan(iv)
        return TriState.MAYBE
    if op == ">=":
        if hi < value:
            return TriState.NEVER
        if lo >= value:
            return _always_unless_nan(iv)
        return TriState.MAYBE
    if op == "==":
        if value < lo or value > hi:
            return TriState.NEVER
        if lo == hi == value and iv.eq_exact and not iv.maybe_nan:
            return TriState.ALWAYS
        return TriState.MAYBE
    if op == "!=":
        if value < lo or value > hi:
            # every in-interval row differs, and NaN != value is True
            return TriState.ALWAYS
        if lo == hi == value and iv.eq_exact and not iv.maybe_nan:
            return TriState.NEVER
        return TriState.MAYBE
    return TriState.MAYBE


def _always_unless_nan(iv: Interval) -> TriState:
    """Ordered ops and == are False for NaN rows, so a possible NaN
    downgrades an all-rows-match verdict to MAYBE."""
    return TriState.MAYBE if iv.maybe_nan else TriState.ALWAYS
