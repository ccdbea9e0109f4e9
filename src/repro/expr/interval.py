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
from dataclasses import dataclass

import numpy as np

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


def interval_from_stats(
    min_value: float, max_value: float, kind: str
) -> Interval:
    """Build an :class:`Interval` from stored min/max statistics: one
    row of :meth:`Zones.from_stats`.

    ``kind`` is ``"int"`` for integer-valued columns (no NaN possible,
    but float64 storage may have rounded large values) or ``"float"``
    for float-valued columns (bounds are exact stored values, but NaN
    rows may exist outside them).
    """
    z = Zones.from_stats([min_value], [max_value], [True], [kind == "int"])
    return Interval(float(z.lo[0]), float(z.hi[0]), maybe_nan=kind != "int",
                    eq_exact=bool(z.eq_exact[0]))


def bracket(value) -> tuple[float, float]:
    """``(a, b)``: the largest float64 at or below a real number and the
    smallest at or above it (``a == b`` when it is a float64). An int
    literal beyond 2**53 usually falls between two floats; numpy would
    round it to one of them, and a rounded literal can turn a ``MAYBE``
    into an unsound ``NEVER``."""
    if isinstance(value, float):
        return value, value
    try:
        f = float(value)
    except OverflowError:
        f = math.inf if value > 0 else -math.inf
    if math.isfinite(f) and int(f) == value:
        return f, f
    if f > value:
        return math.nextafter(f, -math.inf), f
    return f, math.nextafter(f, math.inf)


class Zones:
    """The intervals of one column over ``n`` extents, as arrays: the
    array form of :class:`Interval` (``known`` False: no stats, every
    verdict ``MAYBE``), with the rows a leaf can decide at all
    (``valid``: stats whose bounds are not NaN) and those that also
    hold no NaN rows (``sure``) derived once."""

    __slots__ = ("lo", "hi", "eq_exact", "valid", "sure")

    def __init__(self, lo, hi, maybe_nan, eq_exact, known) -> None:
        self.lo, self.hi, self.eq_exact = lo, hi, eq_exact
        self.valid = known & ~np.isnan(lo) & ~np.isnan(hi)
        self.sure = self.valid & ~maybe_nan

    @staticmethod
    def from_stats(lo, hi, known, is_int) -> "Zones":
        """Zones from stored min/max statistics. ``is_int`` rows are
        int columns: float64 rounds an int64 by at most ulp/2, so a
        bound at or beyond 2**53 (a stored 2**53 may be the
        round-to-even image of 2**53 + 1) is widened one ULP outward
        and loses point-equality exactness. The other known rows are
        float columns, whose NaN rows may hide outside the bounds."""
        lo = np.asarray(lo, dtype=np.float64)
        hi = np.asarray(hi, dtype=np.float64)
        is_int = np.asarray(is_int, dtype=bool)
        with np.errstate(invalid="ignore"):
            lo_moved = is_int & np.isfinite(lo) & (np.abs(lo) >= EXACT_INT_BOUND)
            hi_moved = is_int & np.isfinite(hi) & (np.abs(hi) >= EXACT_INT_BOUND)
        if lo_moved.any():
            lo = np.where(lo_moved, lo - np.spacing(np.abs(lo)), lo)
        if hi_moved.any():
            hi = np.where(hi_moved, hi + np.spacing(np.abs(hi)), hi)
        return Zones(lo, hi, ~is_int, ~(lo_moved | hi_moved),
                     np.asarray(known, dtype=bool))

    @staticmethod
    def of(iv: "Interval") -> "Zones":
        """One extent's :class:`Interval` as one row."""
        return Zones(
            np.array([iv.lo], dtype=np.float64),
            np.array([iv.hi], dtype=np.float64),
            np.array([iv.maybe_nan]), np.array([iv.eq_exact]),
            np.ones(1, dtype=bool),
        )


def evaluate_zones(expr: Expr, zones, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Tri-state evaluation of ``expr`` over ``n`` extents at once, one
    array pass per node: ``(never, always)`` boolean masks, ``MAYBE``
    where neither is set. ``zones`` maps column name -> :class:`Zones`
    or None; a column it does not name is ``MAYBE`` everywhere."""
    if isinstance(expr, Comparison):
        return _leaf(zones.get(expr.column), expr.op, expr.value, n)
    if isinstance(expr, In):
        return _membership(zones.get(expr.column), expr.literals, n)
    if isinstance(expr, And):
        never, always = np.zeros(n, dtype=bool), np.ones(n, dtype=bool)
        for a in expr.args:
            a_never, a_always = evaluate_zones(a, zones, n)
            never |= a_never
            always &= a_always
        return never, always & ~never
    if isinstance(expr, Or):
        never, always = np.ones(n, dtype=bool), np.zeros(n, dtype=bool)
        for a in expr.args:
            a_never, a_always = evaluate_zones(a, zones, n)
            never &= a_never
            always |= a_always
        return never & ~always, always
    if isinstance(expr, Not):
        never, always = evaluate_zones(expr.arg, zones, n)
        return always, never
    return np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)


def verdicts(never: np.ndarray, always: np.ndarray) -> "list[TriState]":
    """The masks of :func:`evaluate_zones` as one :class:`TriState` per
    extent."""
    out = np.where(never, 0, np.where(always, 2, 1)).tolist()
    return [_STATES[k] for k in out]


def evaluate_interval(expr: Expr, stats) -> TriState:
    """Tri-state evaluation of ``expr`` over per-column intervals: one
    extent through :func:`evaluate_zones`.

    ``stats`` maps column name -> :class:`Interval` or ``None``
    (unknown). Columns absent from the mapping, or mapped to ``None``,
    make their leaves ``MAYBE`` — conservative include.
    """
    zones = {
        name: Zones.of(stats.get(name))
        for name in expr.columns()
        if stats.get(name) is not None
    }
    return verdicts(*evaluate_zones(expr, zones, 1))[0]


_STATES = (TriState.NEVER, TriState.MAYBE, TriState.ALWAYS)


def _membership(z: "Zones | None", literals, n: int):
    """``In``: the OR of an ``==`` leaf per literal, answered from the
    sorted literals with one ``searchsorted``."""
    nothing = np.zeros(n, dtype=bool)
    if z is None:
        return nothing, nothing
    below, above = literals.brackets()
    if len(below):
        # the first literal at or above lo, and whether it is <= hi
        i = np.searchsorted(below, z.lo, side="left")
        inside = (i < len(below)) & (above[np.minimum(i, len(below) - 1)] <= z.hi)
    else:
        inside = nothing
    # a literal inside [lo, hi]; on a one-point extent it *is* the
    # point, which is the == leaf's only ALWAYS
    always = z.sure & inside & (z.lo == z.hi) & z.eq_exact
    # a string literal against numeric stats decides nothing
    never = nothing if literals.texts else z.valid & ~inside
    return never, always


def _leaf(z: "Zones | None", op: str, value, n: int):
    nothing = np.zeros(n, dtype=bool)
    if z is None:
        return nothing, nothing
    if isinstance(value, bool):
        value = int(value)
    elif not isinstance(value, (int, float)):
        return nothing, nothing  # string literal vs numeric stats
    if isinstance(value, float) and math.isnan(value):
        # NaN satisfies only !=, and does so for every row
        return (nothing, z.valid) if op == "!=" else (z.valid, nothing)
    lo, hi = z.lo, z.hi
    # v strictly between floats a < b: x < v is x <= a and x > v is
    # x >= b, so the literal is never rounded (numpy would round it);
    # the stats side alone carries rounding, already widened outward
    a, b = bracket(value)
    exact = a == b
    if op in ("<", ">="):
        below = lo < a if exact else lo <= a  # lo < v
        above = hi < a if exact else hi <= a  # hi < v
        never, always = (~below, above) if op == "<" else (above, ~below)
    elif op in ("<=", ">"):
        at_most = lo <= a  # lo <= v
        under = hi <= a  # hi <= v
        never, always = (~at_most, under) if op == "<=" else (under, ~at_most)
    elif op in ("==", "!="):
        outside = (lo > a if exact else lo >= b) | (hi < a if exact else hi <= a)
        point = (lo == hi) & (lo == a) & z.eq_exact & z.sure & exact
        if op == "==":
            return z.valid & outside, point & ~outside
        # every in-interval row differs, and NaN != value is True
        return point & ~outside, z.valid & outside
    else:
        return nothing, nothing
    # ordered ops are False for NaN rows, so a possible NaN downgrades
    # an all-rows-match verdict to MAYBE
    never &= z.valid
    return never, always & z.sure & ~never
