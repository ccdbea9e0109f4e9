"""The array interval evaluator against the scalar one it replaced.

:func:`repro.expr.interval.evaluate_zones` decides every extent of a
snapshot in one pass per predicate node. Its oracle here is a verbatim
copy of the scalar evaluator it replaced (``_leaf``, ``_membership``,
the tri-state combinators and ``interval_from_stats``), so the check
is not the code checking itself. Seeded cases cover the corners where
an array form can go wrong: ±0.0, ±inf and NaN bounds, int bounds and
int literals at ±2**53±1 and the int64 extremes (numpy would round the
literal to a float64, and a rounded literal gives an unsound
``NEVER``), subnormals, bools, strings, every comparison, ``In`` over
mixed literal sets, and ``And``/``Or``/``Not`` nested to depth 3.
"""

import enum
import math
import random
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from repro.expr import And, Comparison, In, Not, Or, TriState, col
from repro.expr.interval import Zones, evaluate_interval, evaluate_zones, verdicts

EXACT_INT_BOUND = 2**53


# -- the oracle: the scalar evaluator as it was, verbatim --------------------

class _Tri(enum.Enum):
    NEVER = "never"
    MAYBE = "maybe"
    ALWAYS = "always"

    def __invert__(self):
        if self is _Tri.NEVER:
            return _Tri.ALWAYS
        if self is _Tri.ALWAYS:
            return _Tri.NEVER
        return _Tri.MAYBE

    def __and__(self, other):
        if _Tri.NEVER in (self, other):
            return _Tri.NEVER
        if self is _Tri.ALWAYS and other is _Tri.ALWAYS:
            return _Tri.ALWAYS
        return _Tri.MAYBE

    def __or__(self, other):
        if _Tri.ALWAYS in (self, other):
            return _Tri.ALWAYS
        if self is _Tri.NEVER and other is _Tri.NEVER:
            return _Tri.NEVER
        return _Tri.MAYBE


@dataclass(frozen=True)
class _Interval:
    lo: float
    hi: float
    maybe_nan: bool = False
    eq_exact: bool = True


def _widen_int_bound(value, direction):
    if abs(value) < EXACT_INT_BOUND:
        return value, True
    if math.isinf(value) or math.isnan(value):
        return value, True
    return value + direction * math.ulp(value), False


def _interval_from_stats(min_value, max_value, kind):
    if kind == "int":
        lo, lo_exact = _widen_int_bound(float(min_value), -1)
        hi, hi_exact = _widen_int_bound(float(max_value), +1)
        return _Interval(lo, hi, maybe_nan=False,
                         eq_exact=lo_exact and hi_exact)
    return _Interval(float(min_value), float(max_value),
                     maybe_nan=True, eq_exact=True)


def _evaluate(expr, stats):
    if isinstance(expr, Comparison):
        return _leaf(stats.get(expr.column), expr.op, expr.value)
    if isinstance(expr, In):
        return _membership(stats.get(expr.column), expr.literals)
    if isinstance(expr, And):
        out = _Tri.ALWAYS
        for a in expr.args:
            out = out & _evaluate(a, stats)
            if out is _Tri.NEVER:
                break
        return out
    if isinstance(expr, Or):
        out = _Tri.NEVER
        for a in expr.args:
            out = out | _evaluate(a, stats)
            if out is _Tri.ALWAYS:
                break
        return out
    if isinstance(expr, Not):
        return ~_evaluate(expr.arg, stats)
    return _Tri.MAYBE


def _membership(iv, literals):
    if iv is None or math.isnan(iv.lo) or math.isnan(iv.hi):
        return _Tri.MAYBE
    numbers = literals.numbers
    i = bisect_left(numbers, iv.lo)
    if i < len(numbers) and numbers[i] <= iv.hi:
        if iv.lo == iv.hi and iv.eq_exact and not iv.maybe_nan:
            return _Tri.ALWAYS
        return _Tri.MAYBE
    return _Tri.MAYBE if literals.texts else _Tri.NEVER


def _leaf(iv, op, value):
    if iv is None:
        return _Tri.MAYBE
    if isinstance(value, bool):
        value = int(value)
    elif not isinstance(value, (int, float)):
        return _Tri.MAYBE
    if math.isnan(iv.lo) or math.isnan(iv.hi):
        return _Tri.MAYBE
    if isinstance(value, float) and math.isnan(value):
        return _Tri.ALWAYS if op == "!=" else _Tri.NEVER
    lo, hi = iv.lo, iv.hi
    if op == "<":
        if lo >= value:
            return _Tri.NEVER
        if hi < value:
            return _always_unless_nan(iv)
        return _Tri.MAYBE
    if op == "<=":
        if lo > value:
            return _Tri.NEVER
        if hi <= value:
            return _always_unless_nan(iv)
        return _Tri.MAYBE
    if op == ">":
        if hi <= value:
            return _Tri.NEVER
        if lo > value:
            return _always_unless_nan(iv)
        return _Tri.MAYBE
    if op == ">=":
        if hi < value:
            return _Tri.NEVER
        if lo >= value:
            return _always_unless_nan(iv)
        return _Tri.MAYBE
    if op == "==":
        if value < lo or value > hi:
            return _Tri.NEVER
        if lo == hi == value and iv.eq_exact and not iv.maybe_nan:
            return _Tri.ALWAYS
        return _Tri.MAYBE
    if op == "!=":
        if value < lo or value > hi:
            return _Tri.ALWAYS
        if lo == hi == value and iv.eq_exact and not iv.maybe_nan:
            return _Tri.NEVER
        return _Tri.MAYBE
    return _Tri.MAYBE


def _always_unless_nan(iv):
    return _Tri.MAYBE if iv.maybe_nan else _Tri.ALWAYS


# -- seeded cases -------------------------------------------------------------

_EDGE_INTS = [
    2**53 - 1, 2**53, 2**53 + 1, -(2**53) - 1, -(2**53), -(2**53) + 1,
    2**63 - 1, -(2**63), 2**63 - 2, -(2**63) + 1, 0, 1, -1, 7,
]
_EDGE_FLOATS = [
    0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
    2.2250738585072014e-308, 1.5, -2.5, float(2**53), float(2**63), 7.0,
]
_BOUNDS = [float(v) for v in _EDGE_INTS] + [
    v for v in _EDGE_FLOATS
] + [3.0, 10.0, -10.0]
COLUMNS = ("x", "y")


def _literal(rng):
    kind = rng.random()
    if kind < 0.35:
        return rng.choice(_EDGE_INTS) + rng.choice((0, 0, 1, -1))
    if kind < 0.65:
        return rng.choice(_EDGE_FLOATS)
    if kind < 0.75:
        return rng.choice((True, False))
    if kind < 0.8:
        return rng.choice(("a", "zz"))
    return rng.choice((rng.randint(-20, 20), rng.uniform(-20, 20)))


def _stats(rng):
    """``(lo, hi, kind)`` of a stats record, or None (missing stats)."""
    if rng.random() < 0.08:
        return None
    lo, hi = rng.choice(_BOUNDS), rng.choice(_BOUNDS)
    if rng.random() < 0.6 and not (math.isnan(lo) or math.isnan(hi)):
        lo, hi = min(lo, hi), max(lo, hi)
    if rng.random() < 0.2:
        hi = lo
    return lo, hi, rng.choice(("int", "float"))


def _expr(rng, depth):
    roll = rng.random()
    if depth >= 3 or roll < 0.45:
        column = rng.choice(COLUMNS)
        if rng.random() < 0.25:
            values = [_literal(rng) for _ in range(rng.randint(1, 5))]
            return col(column).isin(values)
        op = rng.choice(("<", "<=", ">", ">=", "==", "!="))
        return Comparison(op, column, _literal(rng))
    if roll < 0.65:
        return Not(_expr(rng, depth + 1))
    args = tuple(_expr(rng, depth + 1) for _ in range(rng.randint(2, 3)))
    return (And if roll < 0.83 else Or)(args)


def _zones(records):
    """The production zones over ``records`` (one per extent)."""
    known = np.array([r is not None for r in records])
    lo = np.array([r[0] if r else 0.0 for r in records])
    hi = np.array([r[1] if r else 0.0 for r in records])
    is_int = np.array([bool(r) and r[2] == "int" for r in records])
    return Zones.from_stats(lo, hi, known, is_int)


def test_array_verdicts_equal_the_scalar_oracle():
    rng = random.Random(36)
    cases = 0
    for _ in range(500):
        expr = _expr(rng, 0)
        n = 48
        records = {name: [_stats(rng) for _ in range(n)] for name in COLUMNS}
        never, always = evaluate_zones(
            expr, {name: _zones(rows) for name, rows in records.items()}, n
        )
        assert not (never & always).any()
        got = verdicts(never, always)
        for k in range(n):
            stats = {
                name: None if rows[k] is None else _interval_from_stats(*rows[k])
                for name, rows in records.items()
            }
            want = _evaluate(expr, stats)
            assert got[k].value == want.value, (expr, stats)
            cases += 1
    assert cases >= 20_000


def test_a_literal_between_floats_is_never_rounded_into_a_never():
    """2**53 + 1 is no float64; numpy would compare it as 2**53."""
    point = (float(2**53), float(2**53))
    for kind in ("float", "int"):
        for op in ("<", "<=", ">", ">=", "==", "!="):
            expr = Comparison(op, "x", 2**53 + 1)
            never, always = evaluate_zones(
                expr, {"x": _zones([(*point, kind)])}, 1
            )
            oracle = _evaluate(expr, {"x": _interval_from_stats(*point, kind)})
            assert verdicts(never, always)[0].value == oracle.value, (kind, op)
    # a float stat of exactly 2**53 cannot equal 2**53 + 1 ...
    never, _always = evaluate_zones(
        col("x") == 2**53 + 1, {"x": _zones([(*point, "float")])}, 1
    )
    assert never[0]
    # ... an int stat may be its rounded image, so it must not prune
    never, _always = evaluate_zones(
        col("x") == 2**53 + 1, {"x": _zones([(*point, "int")])}, 1
    )
    assert not never[0]


def test_scalar_evaluate_interval_is_one_row_of_the_array_form():
    rng = random.Random(7)
    for _ in range(300):
        expr = _expr(rng, 0)
        records = {name: _stats(rng) for name in COLUMNS}
        stats = {
            name: None if r is None else _interval_from_stats(*r)
            for name, r in records.items()
        }
        assert evaluate_interval(expr, stats).value == _evaluate(expr, stats).value
        assert isinstance(evaluate_interval(expr, stats), TriState)
