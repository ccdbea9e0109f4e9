"""How a literal meets a column's dtype — the one place that decides.

A comparison is answered twice: exactly, row by row, by
:mod:`repro.expr.vector`, and conservatively, from ``[min, max]``
statistics, by :mod:`repro.expr.interval`. A verdict of ``NEVER`` or
``ALWAYS`` skips the rows (a scan prunes, a delete drops the file), so
both must mean the same thing by ``column <op> literal``: the
comparison of the stored value and the literal **as real numbers**.
Statistics are exact float64 images of the values and Python compares
them with an int or float literal without rounding either; the vector
side gets there through the two rules kept here.

* **Float columns** (:func:`float_image`): numpy would round the
  literal to the column's dtype first, so ``float32(0.1) == 0.1`` would
  hold although the stored value is 0.100000001490116… The literal is
  rounded here instead, the direction it moved is kept, and the caller
  adjusts: a literal the dtype cannot hold equals no row, and
  ``x < v`` with ``v`` rounded down to ``f`` is ``x <= f``.
* **Int and bool columns**: an int literal compares exactly (out of
  the dtype's range it equals no row); a float literal is compared in
  float64, so a fractional one equals no row, an integral one below
  2**53 is that integer, and at or beyond 2**53 it is compared with
  the column's float64 image (statistics that large are widened by an
  ULP for the same reason).
"""

from __future__ import annotations

import math

import numpy as np

#: integers with |v| <= 2**53 are exactly representable as float64
EXACT_INT_BOUND = 2**53


def float_image(
    dtype: np.dtype, literal
) -> tuple[float | np.floating, int]:
    """``literal`` rounded to a float ``dtype``, and which way it moved:
    ``(image, +1 | 0 | -1)`` — up, held exactly, down. NaN "holds"."""
    if dtype.itemsize == 8 and isinstance(literal, float):
        return literal, 0  # the usual case: float64 is Python's float
    try:
        with np.errstate(over="ignore"):
            image = dtype.type(literal)
    except OverflowError:  # an int beyond every float
        image = dtype.type(math.inf if literal > 0 else -math.inf)
    # float(image) is exact, and Python compares it with an int or a
    # float exactly, beyond 2**53 too
    back = float(image)
    return image, (back > literal) - (back < literal)


class InLiterals:
    """The literals of one :class:`~repro.expr.In`, sorted and typed once.

    Both evaluators read this instead of walking ``In.values``: the
    interval evaluator bisects :attr:`numbers`, the vector evaluator
    probes :attr:`texts` or the arrays of :meth:`typed_for`.
    Serialization never looks here, so the caller's order and spelling
    survive ``to_dict``/``repr`` untouched.
    """

    __slots__ = (
        "ints", "floats", "numbers", "texts",
        "first_number", "first_text", "_typed",
    )

    def __init__(self, values: tuple) -> None:
        ints: set[int] = set()
        floats: set[float] = set()
        texts: set[bytes] = set()
        #: the first numeric / first text literal in the caller's
        #: order (None when there is none): what a type-mismatch error
        #: names, and how the evaluators know the list is mixed
        self.first_number = self.first_text = None
        for v in values:
            if isinstance(v, (str, bytes)):
                if self.first_text is None:
                    self.first_text = v
                texts.add(v.encode("utf-8") if isinstance(v, str) else v)
                continue
            if self.first_number is None:
                self.first_number = v
            if isinstance(v, float):
                if v == v:  # NaN equals nothing: it matches no row
                    floats.add(v)
            else:
                ints.add(int(v))  # bool is an int: True is 1
        #: distinct int (bool included) and non-NaN float literals
        self.ints = frozenset(ints)
        self.floats = frozenset(floats)
        #: both, in ascending order (Python compares int with float
        #: exactly, beyond 2**53 too)
        self.numbers = sorted(ints | floats)
        self.texts = frozenset(texts)
        self._typed: dict = {}

    def brackets(self):
        """:attr:`numbers` as two ascending float64 arrays, built once:
        per literal the largest float at or below it and the smallest at
        or above it (equal unless an int literal falls between floats)."""
        typed = self._typed.get("brackets")
        if typed is None:
            from repro.expr.interval import bracket

            pairs = [bracket(v) for v in self.numbers]
            typed = self._typed["brackets"] = tuple(
                np.array(side, dtype=np.float64).reshape(-1)
                for side in (zip(*pairs) if pairs else ((), ()))
            )
        return typed

    def typed_for(self, dtype: np.dtype):
        """The numeric literals as ``(exact, rounded)`` arrays for one
        int, bool or float column dtype, built once per dtype.

        ``exact`` holds, in the column's own dtype, the literals a row
        can equal under the module's rules; ``rounded`` (64-bit int
        columns only, usually None) the float literals at or beyond
        2**53, which are compared with the column's float64 image.
        """
        typed = self._typed.get(dtype)
        if typed is None:
            typed = self._typed[dtype] = self._build(dtype)
        return typed

    def _build(self, dtype: np.dtype):
        if dtype.kind == "f":
            held = []
            for v in self.numbers:
                image, moved = float_image(dtype, v)
                if moved == 0:
                    held.append(image)
            return np.unique(np.array(held, dtype=dtype)), None
        info = np.iinfo(np.uint8 if dtype.kind == "b" else dtype)
        ints = set(self.ints)
        rounded = []
        for f in self.floats:
            if not f.is_integer():
                continue
            if abs(f) < EXACT_INT_BOUND:
                ints.add(int(f))
            elif dtype.itemsize == 8:
                rounded.append(f)
        exact = np.array(
            sorted(v for v in ints if info.min <= v <= info.max),
            dtype=info.dtype,
        )
        return exact, np.array(rounded) if rounded else None
