"""Unit tests for the columnar executor's vectorized kernels.

The generated kernels must reproduce ``Expr.evaluate``'s expression
semantics — which the naive oracle interprets — *exactly*: NULL
comparisons are false, NULL arithmetic is NULL, AND/OR genuinely
short-circuit, truthiness coerces like ``bool()``.  The differential
harness compares the executor's outputs with the oracle's row for row,
so every test here cross-checks a compiled kernel against
``Expr.evaluate`` row by row.
"""

from __future__ import annotations

import pytest

from repro.exec.columnar import (
    ColumnBatch,
    aggregate_groups,
    compile_select_kernel,
    compile_value_kernel,
)
from repro.plan.expressions import (
    Aggregate,
    AggFunc,
    BinaryExpr,
    BinaryOp,
    ColumnRef,
    Literal,
    NotExpr,
)


def col(name):
    return ColumnRef(name)


def lit(value):
    return Literal(value)


def binop(op, left, right):
    return BinaryExpr(op, left, right)


#: A table exercising NULLs, zeros, negatives, floats and unicode.
ROWS = [
    {"A": 3, "B": 0, "S": "x"},
    {"A": None, "B": 2, "S": "naïve-✓"},
    {"A": -1, "B": None, "S": ""},
    {"A": 0, "B": 5, "S": "x"},
    {"A": 7, "B": 7, "S": None},
    {"A": 2, "B": -3, "S": "naïve-✓"},
]
BATCH = ColumnBatch.from_rows(("A", "B", "S"), ROWS)


def assert_matches_row_semantics(expr, rows=ROWS, batch=BATCH):
    """The compiled kernels agree with ``Expr.evaluate`` on every row."""
    expected_values = [expr.evaluate(row) for row in rows]
    value_kernel = compile_value_kernel(expr)
    assert value_kernel(batch.columns, len(batch)) == expected_values
    expected_selection = [
        i for i, v in enumerate(expected_values) if bool(v)
    ]
    select_kernel = compile_select_kernel(expr)
    assert select_kernel(batch.columns, len(batch)) == expected_selection


class TestComparisonAndArithmetic:
    @pytest.mark.parametrize("op", [
        BinaryOp.EQ, BinaryOp.NE, BinaryOp.LT, BinaryOp.LE,
        BinaryOp.GT, BinaryOp.GE,
    ])
    def test_null_comparison_is_false(self, op):
        assert_matches_row_semantics(binop(op, col("A"), col("B")))

    @pytest.mark.parametrize("op", [
        BinaryOp.ADD, BinaryOp.SUB, BinaryOp.MUL,
    ])
    def test_null_arithmetic_is_null(self, op):
        expr = binop(op, col("A"), col("B"))
        values = compile_value_kernel(expr)(BATCH.columns, len(BATCH))
        assert values[1] is None and values[2] is None  # NULL operands
        assert_matches_row_semantics(expr)

    def test_comparison_against_literal(self):
        assert_matches_row_semantics(binop(BinaryOp.GT, col("A"), lit(1)))

    def test_string_equality_unicode(self):
        assert_matches_row_semantics(
            binop(BinaryOp.EQ, col("S"), lit("naïve-✓"))
        )

    def test_literal_value_kernel_fast_path(self):
        values = compile_value_kernel(lit(42))(BATCH.columns, len(BATCH))
        assert values == [42] * len(BATCH)


class TestBooleanLogic:
    def test_and_short_circuit_protects_division(self):
        # Row semantics: B <> 0 AND A / B > 1 never divides by zero
        # because AND short-circuits.  The generated kernel must too.
        expr = binop(
            BinaryOp.AND,
            binop(BinaryOp.NE, col("B"), lit(0)),
            binop(BinaryOp.GT,
                  binop(BinaryOp.DIV, col("A"), col("B")), lit(0)),
        )
        assert_matches_row_semantics(expr)

    def test_or_short_circuit(self):
        expr = binop(
            BinaryOp.OR,
            binop(BinaryOp.EQ, col("B"), lit(0)),
            binop(BinaryOp.GT,
                  binop(BinaryOp.DIV, col("A"), col("B")), lit(0)),
        )
        # B == 0 rows must not evaluate the division.
        assert_matches_row_semantics(expr)

    def test_not(self):
        assert_matches_row_semantics(
            NotExpr(binop(BinaryOp.EQ, col("A"), col("B")))
        )

    def test_not_of_null_comparison(self):
        # NULL = NULL is false, so NOT of it is true — rows with NULLs
        # pass through NOT(=) filters.
        expr = NotExpr(binop(BinaryOp.EQ, col("A"), lit(None)))
        assert_matches_row_semantics(expr)

    def test_nested_boolean_tree(self):
        expr = binop(
            BinaryOp.OR,
            binop(BinaryOp.AND,
                  binop(BinaryOp.GE, col("A"), lit(0)),
                  binop(BinaryOp.LT, col("B"), lit(6))),
            NotExpr(binop(BinaryOp.EQ, col("S"), lit("x"))),
        )
        assert_matches_row_semantics(expr)


class TestKernelCompilation:
    def test_kernels_are_cached_per_expression(self):
        expr = binop(BinaryOp.GT, col("A"), lit(1))
        assert compile_select_kernel(expr) is compile_select_kernel(expr)
        assert compile_value_kernel(expr) is compile_value_kernel(expr)

    def test_generated_source_is_attached(self):
        expr = binop(BinaryOp.AND,
                     binop(BinaryOp.GT, col("A"), lit(1)),
                     binop(BinaryOp.LT, col("B"), lit(9)))
        source = compile_select_kernel(expr).__source__
        assert "for i in range(n):" in source
        # AND compiles to a nested if, not a boolean operator.
        assert "if " in source and " and " not in source

    def test_empty_batch(self):
        empty = ColumnBatch.from_rows(("A", "B", "S"), [])
        expr = binop(BinaryOp.GT, col("A"), lit(1))
        assert compile_select_kernel(expr)(empty.columns, 0) == []
        assert compile_value_kernel(expr)(empty.columns, 0) == []


class TestAggregateGroups:
    GROUPS = [[0, 2, 4], [1, 3], [5], []]

    def _expected(self, agg, values):
        # ``accumulate`` folds row dicts; rebuild rows from the column.
        rows = [{"A": v} for v in (values or [])]
        out = []
        for indices in self.GROUPS:
            state = agg.init_state()
            for i in indices:
                state = agg.accumulate(state, rows[i] if rows else {})
            out.append(agg.finalize(state))
        return out

    @pytest.mark.parametrize("func", list(AggFunc))
    def test_matches_row_accumulate_chain(self, func):
        agg = Aggregate(func, col("A"), "out")
        values = [row["A"] for row in ROWS]
        assert aggregate_groups(agg, values, self.GROUPS) == \
            self._expected(agg, values)

    def test_count_star_counts_nulls(self):
        agg = Aggregate(AggFunc.COUNT, None, "n")
        assert aggregate_groups(agg, None, self.GROUPS) == [3, 2, 1, 0]

    def test_count_arg_skips_nulls(self):
        agg = Aggregate(AggFunc.COUNT, col("A"), "n")
        values = [row["A"] for row in ROWS]
        assert aggregate_groups(agg, values, self.GROUPS) == [3, 1, 1, 0]

    def test_all_null_group_sums_to_null(self):
        agg = Aggregate(AggFunc.SUM, col("A"), "s")
        assert aggregate_groups(agg, [None, None], [[0, 1]]) == [None]

    def test_avg_preserves_float_fold_order(self):
        agg = Aggregate(AggFunc.AVG, col("A"), "a")
        values = [0.1, 0.2, 0.3]
        expected = self._expected(agg, values + [None] * 3)
        assert aggregate_groups(agg, values + [None] * 3,
                                self.GROUPS) == expected
