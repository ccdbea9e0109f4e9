"""Unit tests for the unified expression engine (repro.expr)."""

import json
import math

import numpy as np
import pytest

from repro.expr import (
    And,
    Comparison,
    Expr,
    ExprError,
    In,
    Interval,
    Not,
    Or,
    ParseError,
    TriState,
    col,
    evaluate,
    evaluate_interval,
    interval_from_stats,
    parse,
)


class TestAst:
    def test_builder_produces_expected_nodes(self):
        e = (col("a") > 1) & ~(col("b") == 2.5) | col("c").isin([1, 2])
        assert isinstance(e, Or)
        left, right = e.args
        assert isinstance(left, And)
        assert left.args[0] == Comparison(">", "a", 1)
        assert left.args[1] == Not(Comparison("==", "b", 2.5))
        assert right == In("c", (1, 2))

    def test_columns_collects_every_reference(self):
        e = ((col("a") > 1) | (col("b") <= 0)) & ~(col("c") != 5)
        assert e.columns() == {"a", "b", "c"}

    def test_between_is_inclusive_range(self):
        e = col("x").between(3, 7)
        assert e == And((Comparison(">=", "x", 3), Comparison("<=", "x", 7)))

    def test_truth_testing_is_rejected(self):
        with pytest.raises(TypeError, match="truth value"):
            bool(col("a") > 1)

    def test_bad_literals_and_ops_rejected(self):
        with pytest.raises(ExprError):
            Comparison("~", "a", 1)
        with pytest.raises(ExprError):
            Comparison("==", "a", [1, 2])
        with pytest.raises(ExprError):
            In("a", ())


class TestJsonSerde:
    @pytest.mark.parametrize(
        "expr",
        [
            col("a") > 1,
            col("a") == 2.5,
            col("s") == "spam",
            col("s") != b"\x00\xff raw",
            col("b") == True,  # noqa: E712
            col("c").isin([1, 2, 3]),
            col("t").isin(["x", b"y"]),
            (col("a") > 1) & (col("b") < 2) & ~(col("c") == 0),
            (col("a") >= -1) | col("s").isin(["u", "v"]),
        ],
    )
    def test_round_trip(self, expr):
        assert Expr.from_json(expr.to_json()) == expr

    def test_json_is_plain_data(self):
        doc = json.loads(((col("a") > 1) & (col("s") == b"z")).to_json())
        assert doc["type"] == "and"
        assert doc["args"][1]["value"] == {"$bytes": "eg=="}

    def test_malformed_json_raises(self):
        with pytest.raises(ExprError):
            Expr.from_json("{not json")
        with pytest.raises(ExprError):
            Expr.from_json('{"type": "frobnicate"}')
        with pytest.raises(ExprError):
            Expr.from_json('{"type": "cmp", "op": ">"}')
        with pytest.raises(ExprError):
            Expr.from_json(
                '{"type": "cmp", "op": ">", "column": "a",'
                ' "value": {"$oops": 1}}'
            )


class TestParser:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("a > 1", col("a") > 1),
            ("a = 1", col("a") == 1),
            ("a.b_c <= -2.5e3", col("a.b_c") <= -2500.0),
            ("s == 'spam'", col("s") == "spam"),
            ('s != "with \\" quote"', col("s") != 'with " quote'),
            ("a in (1, 2, 3)", col("a").isin([1, 2, 3])),
            ("x between 3 and 7", col("x").between(3, 7)),
            ("flag == true and a < inf", (col("flag") == True) & (col("a") < math.inf)),  # noqa: E712
            ("not a > 1", ~(col("a") > 1)),
            (
                "a > 1 and b < 2 or not c == 0",
                ((col("a") > 1) & (col("b") < 2)) | ~(col("c") == 0),
            ),
            ("(a > 1 or b < 2) and c == 0", ((col("a") > 1) | (col("b") < 2)) & (col("c") == 0)),
            ("100 < price", col("price") > 100),
            ("1 >= q", col("q") <= 1),
        ],
    )
    def test_grammar(self, text, expected):
        assert parse(text) == expected

    def test_parse_round_trips_through_json(self):
        e = parse("price > 100 and region in (3, 5, 7) or not q <= 0.5")
        assert Expr.from_json(e.to_json()) == e

    @pytest.mark.parametrize(
        "bad",
        ["", "   ", "a >", "> 1", "a in ()", "a in 1", "a between 1",
         "a == == 1", "(a > 1", "a > 1 extra", "$bad > 1", "a ! 1"],
    )
    def test_syntax_errors(self, bad):
        with pytest.raises(ParseError):
            parse(bad)


class TestVectorEvaluate:
    def test_all_ops_match_numpy(self):
        vals = np.array([-3, 0, 2, 7, 7], dtype=np.int64)
        cols = {"x": vals}
        for op, fn in [
            ("==", lambda v: v == 2),
            ("!=", lambda v: v != 7),
            ("<", lambda v: v < 2),
            ("<=", lambda v: v <= 2),
            (">", lambda v: v > 0),
            (">=", lambda v: v >= 7),
        ]:
            lit = {"==": 2, "!=": 7, "<": 2, "<=": 2, ">": 0, ">=": 7}[op]
            out = evaluate(Comparison(op, "x", lit), cols)
            assert out.dtype == np.bool_
            assert np.array_equal(out, fn(vals))

    def test_boolean_combinators(self):
        cols = {"x": np.arange(10, dtype=np.int64)}
        e = ((col("x") >= 2) & (col("x") < 8)) | (col("x") == 9)
        expected = ((cols["x"] >= 2) & (cols["x"] < 8)) | (cols["x"] == 9)
        assert np.array_equal(evaluate(e, cols), expected)
        assert np.array_equal(evaluate(~e, cols), ~expected)

    def test_in_over_ints_and_strings(self):
        cols = {
            "x": np.array([1, 5, 9], dtype=np.int64),
            "s": [b"a", b"b", b"c"],
        }
        assert np.array_equal(
            evaluate(col("x").isin([5, 9, 100]), cols),
            np.array([False, True, True]),
        )
        assert np.array_equal(
            evaluate(col("s").isin(["a", b"c"]), cols),
            np.array([True, False, True]),
        )

    def test_nan_comparisons_follow_ieee(self):
        vals = np.array([1.0, np.nan, 3.0])
        cols = {"x": vals}
        assert np.array_equal(
            evaluate(col("x") > 0, cols), np.array([True, False, True])
        )
        assert np.array_equal(
            evaluate(col("x") == np.nan, cols),
            np.array([False, False, False]),
        )
        assert np.array_equal(
            evaluate(col("x") != 1.0, cols), np.array([False, True, True])
        )

    def test_string_literal_encodes_to_bytes(self):
        cols = {"s": [b"spam", b"eggs"]}
        assert np.array_equal(
            evaluate(col("s") == "spam", cols), np.array([True, False])
        )
        assert np.array_equal(
            evaluate(col("s") >= b"f", cols), np.array([True, False])
        )

    def test_missing_column_raises(self):
        with pytest.raises(KeyError):
            evaluate(col("nope") > 1, {"x": np.arange(3)})

    def test_type_mismatches_raise(self):
        from repro.expr import VectorEvalError

        with pytest.raises(VectorEvalError):
            evaluate(col("x") == "s", {"x": np.arange(3)})
        with pytest.raises(VectorEvalError):
            evaluate(col("s") == 3, {"s": [b"a"]})
        with pytest.raises(VectorEvalError):
            evaluate(col("l") == 3, {"l": [np.arange(2), np.arange(3)]})

    def test_int_column_vs_fractional_literal(self):
        cols = {"x": np.array([1, 2, 3], dtype=np.int64)}
        assert np.array_equal(
            evaluate(col("x") > 1.5, cols), np.array([False, True, True])
        )


class TestIntervalEvaluate:
    def test_tristate_algebra(self):
        A, M, N = TriState.ALWAYS, TriState.MAYBE, TriState.NEVER
        assert (A & M) is M and (A & N) is N and (M & N) is N
        assert (A | M) is A and (M | N) is M and (N | N) is N
        assert (~A) is N and (~N) is A and (~M) is M

    def test_comparison_verdicts(self):
        iv = {"x": Interval(10.0, 20.0)}
        assert evaluate_interval(col("x") < 10, iv) is TriState.NEVER
        assert evaluate_interval(col("x") < 25, iv) is TriState.ALWAYS
        assert evaluate_interval(col("x") < 15, iv) is TriState.MAYBE
        assert evaluate_interval(col("x") >= 10, iv) is TriState.ALWAYS
        assert evaluate_interval(col("x") > 20, iv) is TriState.NEVER
        assert evaluate_interval(col("x") == 5, iv) is TriState.NEVER
        assert evaluate_interval(col("x") == 15, iv) is TriState.MAYBE
        assert evaluate_interval(col("x") != 5, iv) is TriState.ALWAYS
        assert evaluate_interval(
            col("x").isin([1, 2, 15]), iv
        ) is TriState.MAYBE
        assert evaluate_interval(
            col("x").isin([1, 2, 3]), iv
        ) is TriState.NEVER

    def test_point_interval_equality(self):
        point = {"x": Interval(7.0, 7.0, maybe_nan=False, eq_exact=True)}
        assert evaluate_interval(col("x") == 7, point) is TriState.ALWAYS
        assert evaluate_interval(col("x") != 7, point) is TriState.NEVER
        fuzzy = {"x": Interval(7.0, 7.0, maybe_nan=True)}
        assert evaluate_interval(col("x") == 7, fuzzy) is TriState.MAYBE
        assert evaluate_interval(col("x") != 7, fuzzy) is TriState.MAYBE

    def test_missing_stats_are_maybe(self):
        assert evaluate_interval(col("x") > 1, {}) is TriState.MAYBE
        assert evaluate_interval(col("x") > 1, {"x": None}) is TriState.MAYBE

    def test_not_never_prunes_through_missing_stats(self):
        stats = {"x": None}
        assert evaluate_interval(~(col("x") > 1), stats) is TriState.MAYBE

    def test_nan_stat_bounds_never_prune(self):
        stats = {"x": Interval(float("nan"), float("nan"))}
        for e in [col("x") > 1, col("x") == 0, ~(col("x") <= 5)]:
            assert evaluate_interval(e, stats) is TriState.MAYBE

    def test_nan_literal(self):
        iv = {"x": Interval(0.0, 1.0)}
        assert evaluate_interval(col("x") == float("nan"), iv) is TriState.NEVER
        assert evaluate_interval(col("x") != float("nan"), iv) is TriState.ALWAYS
        assert evaluate_interval(col("x") > float("nan"), iv) is TriState.NEVER

    def test_float_kind_blocks_always_for_ordered_ops(self):
        # a float extent may hide NaN rows; NaN fails ordered ops, so
        # "every row matches" can never be proven from stats alone
        iv = {"x": interval_from_stats(0.0, 1.0, "float")}
        assert evaluate_interval(col("x") <= 2.0, iv) is TriState.MAYBE
        # ...but "no row matches" still prunes
        assert evaluate_interval(col("x") > 2.0, iv) is TriState.NEVER
        # and != stays ALWAYS: NaN != v too
        assert evaluate_interval(col("x") != 9.0, iv) is TriState.ALWAYS

    def test_infinite_bounds(self):
        iv = {"x": interval_from_stats(0.0, float("inf"), "float")}
        assert evaluate_interval(col("x") >= 1e300, iv) is TriState.MAYBE
        assert evaluate_interval(col("x") < 0.0, iv) is TriState.NEVER

    def test_string_literal_vs_numeric_stats_is_maybe(self):
        iv = {"x": interval_from_stats(0, 1, "int")}
        assert evaluate_interval(col("x") == "zzz", iv) is TriState.MAYBE


class TestInt64PrecisionBoundary:
    """float64-stored int stats must stay conservative past 2**53."""

    def test_exact_below_boundary(self):
        iv = {"x": interval_from_stats(5.0, 2.0**53 - 2, "int")}
        assert evaluate_interval(col("x") == 4, iv) is TriState.NEVER
        assert evaluate_interval(
            col("x") == 2**53 - 2, iv
        ) is TriState.MAYBE
        assert evaluate_interval(
            col("x") > 2**53 - 2, iv
        ) is TriState.NEVER

    def test_boundary_value_is_widened(self):
        # 2**53 + 1 rounds to 2**53 in float64: a stored max of exactly
        # 2**53 may describe a chunk whose true max is 2**53 + 1
        stored = float(2**53)
        iv = {"x": interval_from_stats(stored, stored, "int")}
        assert evaluate_interval(col("x") == 2**53 + 1, iv) is TriState.MAYBE
        assert evaluate_interval(col("x") > 2**53, iv) is TriState.MAYBE
        # equality exactness is dropped at the boundary too
        assert evaluate_interval(col("x") != 2**53, iv) is TriState.MAYBE

    def test_large_bounds_widen_by_ulp(self):
        true_value = 2**60 + 1
        stored = float(true_value)  # rounds
        assert int(stored) != true_value
        iv = {"x": interval_from_stats(stored, stored, "int")}
        assert evaluate_interval(
            col("x") == true_value, iv
        ) is not TriState.NEVER

    def test_small_ints_keep_point_equality(self):
        iv = {"x": interval_from_stats(42.0, 42.0, "int")}
        assert evaluate_interval(col("x") == 42, iv) is TriState.ALWAYS
        assert evaluate_interval(col("x") != 42, iv) is TriState.NEVER

    def test_negative_boundary(self):
        stored = float(-(2**53))
        iv = {"x": interval_from_stats(stored, -5.0, "int")}
        assert evaluate_interval(
            col("x") == -(2**53) - 1, iv
        ) is TriState.MAYBE
