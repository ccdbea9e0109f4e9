"""Exact vectorized evaluation of an :class:`~repro.expr.Expr`.

:func:`evaluate` maps an expression over decoded column batches — the
third (and only exact) pushdown layer. Input is any mapping of column
name to values in the reader's decoded kinds: numpy arrays for
primitives, ``list[bytes]`` for string/binary columns. Output is a
boolean numpy mask, one element per row.

A comparison compares the stored value and the literal as real
numbers (:mod:`repro.expr.literals` has the rules: ``float32(0.1)`` is
not ``0.1``), and NaN follows IEEE: comparisons against NaN are False
(so a NaN row never satisfies ``<  <=  >  >=  ==``), while ``!=`` is
True — exactly the semantics the conservative interval evaluator
(:mod:`repro.expr.interval`) assumes when it decides a row group can
be skipped, or a file dropped, without decoding.

String columns store bytes; ``str`` literals are UTF-8-encoded before
comparison so ``col("tag") == "ads"`` and ``== b"ads"`` agree.
"""

from __future__ import annotations

import numpy as np

from repro.expr.ast import And, Comparison, Expr, In, Not, Or
from repro.expr.literals import float_image

_ORDERED_OPS = {
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}


class VectorEvalError(TypeError):
    """Expression cannot be evaluated over the given columns."""


def evaluate(expr: Expr, columns) -> np.ndarray:
    """Boolean mask of rows matching ``expr``.

    ``columns`` maps column name -> decoded values (numpy array or
    ``list[bytes]``); every column the expression references must be
    present. Nested list columns are not filterable.
    """
    n_rows = None
    for name in expr.columns():
        if name not in columns:
            raise KeyError(f"filter column {name!r} not in batch")
        n = len(columns[name])
        if n_rows is None:
            n_rows = n
    mask = _eval(expr, columns)
    if n_rows is not None and len(mask) != n_rows:
        raise VectorEvalError("evaluator produced a wrong-length mask")
    return mask


def _eval(expr: Expr, columns) -> np.ndarray:
    if isinstance(expr, Comparison):
        return _eval_comparison(expr, columns)
    if isinstance(expr, In):
        return _member(columns[expr.column], expr.literals)
    if isinstance(expr, And):
        out = _eval(expr.args[0], columns)
        for a in expr.args[1:]:
            out &= _eval(a, columns)
        return out
    if isinstance(expr, Or):
        out = _eval(expr.args[0], columns)
        for a in expr.args[1:]:
            out |= _eval(a, columns)
        return out
    if isinstance(expr, Not):
        return ~_eval(expr.arg, columns)
    raise VectorEvalError(f"cannot evaluate node {expr!r}")


def _eval_comparison(expr: Comparison, columns) -> np.ndarray:
    return _compare(columns[expr.column], expr.op, expr.value)


def _compare(values, op: str, literal) -> np.ndarray:
    values, literal = _align(values, op, literal)
    if values.dtype.kind == "f":
        # the literal in the column's dtype, the operator adjusted for
        # the way it was rounded: real-number comparison (see literals)
        literal, moved = float_image(values.dtype, literal)
        if moved and op in ("==", "!="):
            return np.full(len(values), op == "!=")
        if moved:  # no value of the dtype lies between the two
            if op in ("<", "<="):
                op = "<" if moved > 0 else "<="
            else:
                op = ">=" if moved > 0 else ">"
    if op == "==":
        return np.asarray(values == literal, dtype=np.bool_)
    if op == "!=":
        return np.asarray(values != literal, dtype=np.bool_)
    with np.errstate(invalid="ignore"):  # NaN comparisons are just False
        return np.asarray(
            _ORDERED_OPS[op](values, literal), dtype=np.bool_
        )


def _member(values, literals) -> np.ndarray:
    """``In`` as a set operation: the rows an ``==`` against any of the
    literals would match, in one probe."""
    if _is_numeric(values):
        if literals.first_text is not None:
            raise VectorEvalError(
                f"cannot compare numeric column with {literals.first_text!r}"
            )
        if values.dtype.kind not in "iubf":
            raise VectorEvalError(f"cannot filter on a {values.dtype} column")
        exact, rounded = literals.typed_for(values.dtype)
        if values.dtype.kind == "b":
            values = values.view(np.uint8)
        out = np.isin(values, exact)
        if rounded is not None:
            out |= np.isin(values.astype(np.float64), rounded)
        return out
    if literals.first_number is not None:
        raise VectorEvalError(
            f"cannot compare string column with {literals.first_number!r}"
        )
    texts = literals.texts
    return np.fromiter(
        (v in texts for v in values), dtype=np.bool_, count=len(values)
    )


def _is_numeric(values) -> bool:
    """True for a primitive column (1-d array), False for a string /
    binary one (``list[bytes]``); a nested column is not filterable."""
    if isinstance(values, np.ndarray):
        if values.ndim != 1:
            raise VectorEvalError("cannot filter on a nested column")
        return True
    if values and isinstance(values[0], np.ndarray):
        raise VectorEvalError("cannot filter on a list<T> column")
    return False


def _align(values, op: str, literal):
    """Coerce column values and literal into one comparable domain."""
    if _is_numeric(values):
        if isinstance(literal, (str, bytes)):
            raise VectorEvalError(
                f"cannot compare numeric column with {literal!r}"
            )
        if (
            np.issubdtype(values.dtype, np.integer)
            and isinstance(literal, float)
            and not literal.is_integer()
        ):
            # int columns vs fractional literals: compare in float64
            # explicitly (numpy would do this silently; spelled out so
            # the 2^53 rounding caveat is a documented choice)
            return values.astype(np.float64), literal
        return values, literal
    if isinstance(literal, str):
        literal = literal.encode("utf-8")
    if not isinstance(literal, bytes):
        raise VectorEvalError(
            f"cannot compare string column with {literal!r}"
        )
    arr = np.empty(len(values), dtype=object)
    arr[:] = values
    # the literal rides in an object scalar: numpy would make a bare
    # bytes an ``S`` array, which drops trailing NUL bytes
    boxed = np.empty((), dtype=object)
    boxed[()] = literal
    return arr, boxed
