"""`In` as a set operation, checked against the OR-of-`==` it replaced.

The reference below is what `expr.vector` and `expr.interval` did
before `In` kept its literals prepared: one `==` per literal, OR-ed.
It stays here as the oracle. Where numpy's scalar comparison leaks an
`OverflowError` (an int too large for a C long) the oracle treats that
literal as matching nothing — which is what the set evaluator does,
without raising.

`==` itself is checked against plain Python, which compares a stored
value with an int or float literal as real numbers: the statistics do
that too, so a `NEVER` or `ALWAYS` verdict can be acted on unread.
"""

import operator
import random

import numpy as np
import pytest

from repro.expr import (
    Comparison,
    In,
    Interval,
    TriState,
    VectorEvalError,
    col,
    evaluate,
    evaluate_interval,
    interval_from_stats,
    parse,
)
from repro.expr.vector import _compare
from repro.quantization import FloatFormat, dequantize, quantize


# -- the oracle ----------------------------------------------------------

def or_of_eq(values, literals) -> np.ndarray:
    out = np.zeros(len(values), dtype=np.bool_)
    for v in literals:
        try:
            with np.errstate(over="ignore"):
                out |= _compare(values, "==", v)
        except OverflowError:
            pass
    return out


def or_of_leaves(iv, literals) -> TriState:
    out = TriState.NEVER
    for v in literals:
        out = out | evaluate_interval(col("x") == v, {"x": iv})
    return out


def check_vector(values, literals):
    got = evaluate(col("x").isin(literals), {"x": values})
    assert got.dtype == np.bool_
    np.testing.assert_array_equal(got, or_of_eq(values, literals))


# -- literal and column generators --------------------------------------

EDGE_INTS = [
    0, 1, -1, 2, 127, 128, -128, -129, 255, 256, 2**31 - 1, 2**31,
    -(2**31), 2**32, 2**53 - 1, 2**53, 2**53 + 1, 2**53 + 2,
    -(2**53) - 1, 2**63 - 1, 2**63, -(2**63), -(2**63) - 1, 2**64 - 1,
    2**64, 10**39, 10**400, -(10**400),
]
EDGE_FLOATS = [
    0.0, -0.0, 0.5, 1.0, 1.5, -1.0, 2.5, 127.0, 0.1, 3.0e9,
    float(2**53), float(2**53 + 2), -float(2**53), 9.223372036854775807e18,
    1.8446744073709552e19, 1e40, -1e40, float("inf"), float("-inf"),
    float("nan"),
]

INT_DTYPES = [np.int8, np.int16, np.int32, np.int64,
              np.uint8, np.uint16, np.uint32, np.uint64]
FLOAT_DTYPES = [np.float16, np.float32, np.float64]


def int_column(rng, dtype, n=64):
    info = np.iinfo(dtype)
    edges = [v for v in EDGE_INTS if info.min <= v <= info.max]
    edges += [info.min, info.max]
    picks = [rng.choice(edges) for _ in range(n // 2)]
    picks += [rng.randint(max(info.min, -50), min(info.max, 50))
              for _ in range(n - len(picks))]
    return np.array(picks, dtype=dtype)


def float_column(rng, dtype, n=64):
    picks = []
    for _ in range(n):
        v = rng.choice(EDGE_FLOATS + [float(i) for i in EDGE_INTS[:20]])
        picks.append(v)
    with np.errstate(over="ignore"):
        return np.array(picks, dtype=np.float64).astype(dtype)


def numeric_literals(rng, k):
    out = []
    for _ in range(k):
        kind = rng.random()
        if kind < 0.4:
            out.append(rng.choice(EDGE_INTS))
        elif kind < 0.7:
            out.append(rng.choice(EDGE_FLOATS))
        elif kind < 0.8:
            out.append(rng.choice([True, False]))
        else:
            out.append(rng.randint(-60, 60))
    return out


# -- vector differential --------------------------------------------------

@pytest.mark.parametrize("dtype", INT_DTYPES, ids=lambda d: d.__name__)
def test_int_columns_match_or_of_eq(dtype):
    rng = random.Random(f"int-{dtype.__name__}")
    for _ in range(60):
        check_vector(int_column(rng, dtype),
                     numeric_literals(rng, rng.randint(1, 12)))


@pytest.mark.parametrize("dtype", FLOAT_DTYPES, ids=lambda d: d.__name__)
def test_float_columns_match_or_of_eq(dtype):
    rng = random.Random(f"float-{dtype.__name__}")
    for _ in range(60):
        check_vector(float_column(rng, dtype),
                     numeric_literals(rng, rng.randint(1, 12)))


def test_bool_column_matches_or_of_eq():
    rng = random.Random("bool")
    values = np.array([True, False, True, True, False])
    for _ in range(80):
        check_vector(values, numeric_literals(rng, rng.randint(1, 6)))


@pytest.mark.parametrize(
    "fmt", [FloatFormat.BF16, FloatFormat.FP8_E4M3, FloatFormat.FP8_E5M2],
    ids=lambda f: f.name,
)
def test_quantized_columns_match_or_of_eq(fmt):
    # the scan evaluates a quantized column in its widened float32
    # domain; the literals are values the format can and cannot hold
    rng = random.Random(f"quant-{fmt.name}")
    source = np.array(
        [0.0, 1.0, -1.0, 0.5, 0.1, 3.0, 448.0, 1e-3, np.nan, 57344.0] * 4,
        dtype=np.float32,
    )
    with np.errstate(over="ignore", invalid="ignore"):
        widened = dequantize(quantize(source, fmt), fmt)
    assert widened.dtype == np.float32
    held = [float(v) for v in widened if v == v]
    for _ in range(60):
        literals = [rng.choice(held + [0.1, 0.3, 2, 1, 10**400])
                    for _ in range(rng.randint(1, 8))]
        check_vector(widened, literals)


def test_fractional_literal_on_int_column_matches_nothing():
    x = np.array([0, 1, 2, 3], dtype=np.int64)
    assert not evaluate(col("x").isin([0.5, 1.5, 2.25]), {"x": x}).any()
    np.testing.assert_array_equal(
        evaluate(col("x").isin([0.5, 2.0]), {"x": x}),
        [False, False, True, False],
    )


def test_float_literals_at_two_to_the_53_compare_in_float64():
    x = np.array([2**53 - 1, 2**53, 2**53 + 1, 2**53 + 2, 2**63 - 1],
                 dtype=np.int64)
    # an int literal is exact ...
    np.testing.assert_array_equal(
        evaluate(col("x").isin([2**53 + 1]), {"x": x}),
        [False, False, True, False, False],
    )
    # ... a float literal sees the column's float64 image, as == does
    for literals in ([float(2**53)], [2.0**63], [float(2**53), 3, 2.0**63]):
        check_vector(x, literals)
    np.testing.assert_array_equal(
        evaluate(col("x").isin([float(2**53)]), {"x": x}),
        [False, True, True, False, False],
    )
    u = np.array([0, 2**63, 2**64 - 1], dtype=np.uint64)
    check_vector(u, [float(2**64), -1, 2**63])


def test_nan_literal_and_nan_rows_never_match():
    x = np.array([np.nan, 1.0, np.inf, -np.inf])
    np.testing.assert_array_equal(
        evaluate(col("x").isin([float("nan"), 1.0, float("inf")]),
                 {"x": x}),
        [False, True, True, False],
    )
    assert not evaluate(col("x").isin([float("nan")]), {"x": x}).any()


def test_int_literals_beyond_int64_match_nothing_and_raise_nothing():
    for dtype in INT_DTYPES + FLOAT_DTYPES + [np.bool_]:
        x = np.array([0, 1], dtype=dtype)
        got = evaluate(
            col("x").isin([2**63, -(2**63) - 1, 2**64, 10**400, -(10**400)]),
            {"x": x},
        )
        assert got.dtype == np.bool_ and not got.any(), dtype
    u = np.array([2**63, 2**64 - 1], dtype=np.uint64)
    np.testing.assert_array_equal(
        evaluate(col("x").isin([2**63, 2**64]), {"x": u}), [True, False]
    )


def test_duplicates_and_order_do_not_change_the_mask():
    rng = random.Random("dups")
    x = int_column(rng, np.int64)
    literals = numeric_literals(rng, 10)
    want = evaluate(col("x").isin(literals), {"x": x})
    shuffled = literals * 3
    rng.shuffle(shuffled)
    np.testing.assert_array_equal(
        evaluate(col("x").isin(shuffled), {"x": x}), want
    )


def test_bytes_column_probe_matches_or_of_eq():
    rng = random.Random("bytes")
    pool = [b"", b"a", b"ab", "é".encode(), b"\xff\x00", b"ads", b"zz"]
    for _ in range(60):
        values = [rng.choice(pool) for _ in range(rng.randint(0, 30))]
        literals = [
            rng.choice(pool + ["é", "ads", "a", "missing", b"nope"])
            for _ in range(rng.randint(1, 6))
        ]
        check_vector(values, literals)
    np.testing.assert_array_equal(
        evaluate(col("s").isin(["é", b"a"]),
                 {"s": [b"a", "é".encode(), b"b"]}),
        [True, True, False],
    )


def test_literal_with_trailing_nul_bytes_matches_itself():
    # a bare bytes literal handed to numpy becomes an ``S`` scalar,
    # which drops trailing NULs: == used to miss these rows
    s = [b"ab\x00", b"ab", b"\x00"]
    for e, want in (
        (col("s") == b"ab\x00", [True, False, False]),
        (col("s") != b"ab\x00", [False, True, True]),
        (col("s").isin([b"ab\x00", b"\x00"]), [True, False, True]),
    ):
        np.testing.assert_array_equal(evaluate(e, {"s": s}), want)


def test_mixed_literal_lists_raise_the_typed_error_only():
    x = np.arange(4, dtype=np.int64)
    s = [b"a", b"b"]
    for literals in ([1, "a"], ["a", 1], [1.5, b"a", True], [10**400, "x"]):
        with pytest.raises(VectorEvalError, match="numeric column"):
            evaluate(col("x").isin(literals), {"x": x})
        with pytest.raises(VectorEvalError, match="string column"):
            evaluate(col("s").isin(literals), {"s": s})
    with pytest.raises(VectorEvalError, match="string column"):
        evaluate(col("s").isin([1, 2]), {"s": s})
    with pytest.raises(VectorEvalError, match="numeric column"):
        evaluate(col("x").isin(["a"]), {"x": x})
    with pytest.raises(VectorEvalError, match="nested"):
        evaluate(col("x").isin([1]), {"x": np.zeros((2, 2))})
    with pytest.raises(VectorEvalError, match="list<T>"):
        evaluate(col("x").isin([1]), {"x": [np.arange(2), np.arange(3)]})


def test_in_inside_a_larger_expression_and_negated():
    x = np.arange(10, dtype=np.int32)
    y = np.arange(10, dtype=np.float64) / 2
    e = ~col("x").isin([1, 2, 3.0]) & (col("y").isin([2.0, 4, 0.5]) | (col("x") > 8))
    want = ~or_of_eq(x, [1, 2, 3.0]) & (or_of_eq(y, [2.0, 4, 0.5]) | (x > 8))
    np.testing.assert_array_equal(evaluate(e, {"x": x, "y": y}), want)


# -- interval differential ------------------------------------------------

def random_interval(rng):
    kind = rng.choice(["int", "float"])
    if rng.random() < 0.08:
        return Interval(float("nan"), rng.choice([1.0, float("nan")]))
    points = sorted(
        rng.choice(EDGE_INTS[:26] + [-40, -3, 7, 40]) for _ in range(2)
    )
    if rng.random() < 0.3:
        points[1] = points[0]  # the single-point extent
    if kind == "float":
        lo, hi = float(points[0]), float(points[1])
        if rng.random() < 0.1:
            lo, hi = float("-inf"), float("inf")
        return interval_from_stats(lo, hi, "float")
    return interval_from_stats(float(points[0]), float(points[1]), "int")


def test_interval_verdict_equals_the_or_of_leaves():
    rng = random.Random("interval")
    for _ in range(3000):
        iv = random_interval(rng) if rng.random() > 0.05 else None
        literals = numeric_literals(rng, rng.randint(1, 8))
        if rng.random() < 0.15:
            literals.insert(rng.randrange(len(literals) + 1),
                            rng.choice(["a", b"b"]))
        got = evaluate_interval(col("x").isin(literals), {"x": iv})
        assert got is or_of_leaves(iv, literals), (iv, literals)


BRUTE_DTYPES = [np.int8, np.int32, np.int64,
                np.float16, np.float32, np.float64]


def column_and_interval(rng, dtype):
    """A short random column and its statistics as the writer stores
    them: the float64 min / max of the non-NaN values."""
    is_int = np.issubdtype(dtype, np.integer)
    while True:
        values = (int_column if is_int else float_column)(
            rng, dtype, rng.randint(1, 6)
        )
        finite = values[values == values]
        if len(finite):
            break
    iv = interval_from_stats(
        float(finite.min()), float(finite.max()),
        "int" if is_int else "float",
    )
    return values, finite, iv


@pytest.mark.parametrize("dtype", BRUTE_DTYPES, ids=lambda d: d.__name__)
def test_interval_is_conservative_against_brute_force(dtype):
    # NEVER only where no row matches, ALWAYS only where every row
    # does — for every literal, the ones the dtype cannot hold too
    # (0.1 on a float32 column, 2**53 + 1 on a float64 one)
    rng = random.Random(f"brute-{dtype.__name__}")
    for _ in range(200):
        values, finite, iv = column_and_interval(rng, dtype)
        literals = numeric_literals(rng, rng.randint(1, 6))
        literals += [v.item() for v in finite[:2]]
        for e in (col("x").isin(literals), ~col("x").isin(literals)):
            verdict = evaluate_interval(e, {"x": iv})
            mask = evaluate(e, {"x": values})
            if verdict is TriState.NEVER:
                assert not mask.any(), (values, e)
            if verdict is TriState.ALWAYS:
                assert mask.all(), (values, e)


PY_OPS = {"==": operator.eq, "!=": operator.ne, "<": operator.lt,
          "<=": operator.le, ">": operator.gt, ">=": operator.ge}


@pytest.mark.parametrize("dtype", BRUTE_DTYPES, ids=lambda d: d.__name__)
def test_comparison_verdicts_are_conservative_too(dtype):
    # the same invariant for the six operators and their negations:
    # a delete drops an ALWAYS file unread, so ALWAYS must be as sound
    # as NEVER
    rng = random.Random(f"brute-cmp-{dtype.__name__}")
    for _ in range(200):
        values, finite, iv = column_and_interval(rng, dtype)
        v = rng.choice(numeric_literals(rng, 3) + [finite[0].item()])
        if isinstance(v, int) and abs(v) >= 2**63:
            continue  # numpy's scalar comparison raises on these
        for op in PY_OPS:
            leaf = Comparison(op, "x", v)
            for e in (leaf, ~leaf):
                verdict = evaluate_interval(e, {"x": iv})
                mask = evaluate(e, {"x": values})
                if verdict is TriState.NEVER:
                    assert not mask.any(), (values, e)
                if verdict is TriState.ALWAYS:
                    assert mask.all(), (values, e)


@pytest.mark.parametrize("dtype", FLOAT_DTYPES, ids=lambda d: d.__name__)
def test_float_columns_compare_as_real_numbers(dtype):
    # the oracle is Python itself: float(x) is the stored value exactly
    # and Python compares it with an int or a float without rounding
    with np.errstate(over="ignore"):
        x = np.array(
            [0.1, 0.5, 0.3, 1e6, 65504, np.inf, -np.inf, np.nan, 0.0,
             -0.0, 2.0**24, 2.0**24 + 2, 2.0**53, 2.0**53 + 2, 1e-50],
            dtype=np.float64,
        ).astype(dtype)
    literals = [
        0.1, 0.5, float(np.float32(0.1)), float(np.float16(0.1)), 1e6,
        65504, 65505, 70000, 2**24 + 1, 2**53, 2**53 + 1, 10**400,
        -(10**400), 1e40, -1e40, 5e-324, float("inf"), float("-inf"),
        float("nan"), True, 0, -0.0,
    ]
    for v in literals:
        for op, py_op in PY_OPS.items():
            want = [py_op(float(e), v) for e in x]
            np.testing.assert_array_equal(
                _compare(x, op, v), want, err_msg=f"{op} {v!r}"
            )
        np.testing.assert_array_equal(
            evaluate(col("x").isin([v, float("nan")]), {"x": x}),
            [float(e) == v for e in x], err_msg=f"in {v!r}",
        )


def test_a_literal_the_column_cannot_hold_equals_no_row():
    # float32(0.1) is 0.100000001490116..., not 0.1: numpy's weak
    # scalars would round the literal and say equal, the float64
    # statistics would say 0.1 < min. Both now say: not equal.
    x = np.full(4, 0.1, dtype=np.float32)
    iv = interval_from_stats(float(x.min()), float(x.max()), "float")
    for e, every_row in (
        (col("x") == 0.1, False),
        (col("x") != 0.1, True),
        (col("x") <= 0.1, False),
        (~(col("x") <= 0.1), True),
        (col("x").isin([0.1]), False),
        (~col("x").isin([0.1]), True),
        (col("x") > 0.1, True),
        (col("x") == float(np.float32(0.1)), True),
    ):
        assert evaluate(e, {"x": x}).tolist() == [every_row] * 4, e
        verdict = evaluate_interval(e, {"x": iv})
        assert verdict is not (
            TriState.NEVER if every_row else TriState.ALWAYS
        ), e


def test_interval_thousands_of_literals():
    keys = list(range(0, 40_000, 20))
    e = col("k").isin(keys)
    inside = interval_from_stats(1000.0, 1030.0, "int")
    between = interval_from_stats(1001.0, 1019.0, "int")
    point = interval_from_stats(1020.0, 1020.0, "int")
    assert evaluate_interval(e, {"k": inside}) is TriState.MAYBE
    assert evaluate_interval(e, {"k": between}) is TriState.NEVER
    assert evaluate_interval(e, {"k": point}) is TriState.ALWAYS
    assert evaluate_interval(e, {"k": None}) is TriState.MAYBE
    assert evaluate_interval(e, {}) is TriState.MAYBE


# -- the prepared form is invisible --------------------------------------

def test_serialized_forms_keep_the_callers_order():
    values = (5, 1, 5, 2.5, True, "b", b"a", 10**30)
    e = In("c", values)
    before = (e.to_json(), repr(e), hash(e))
    evaluate_interval(e, {"c": Interval(0.0, 9.0)})  # prepares literals
    assert (e.to_json(), repr(e), hash(e)) == before
    assert e.to_dict()["values"][:5] == [5, 1, 5, 2.5, True]
    assert e == In("c", values) and e != In("c", values[::-1])
    assert parse("c in (3, 1, 2)").to_json() == col("c").isin([3, 1, 2]).to_json()
