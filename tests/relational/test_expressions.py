"""Unit tests for the compiled scalar and aggregate expression closures."""

import pytest

from repro.errors import SqlExecutionError
from repro.relational.expressions import (
    Binding,
    compile_aggregate,
    compile_scalar,
)
from repro.sql.ast import (
    BinaryOp,
    ColumnRef,
    Contains,
    FuncCall,
    IsNull,
    Literal,
    Star,
    agg,
)


@pytest.fixture
def binding() -> Binding:
    return Binding([("S", "Sid"), ("S", "Sname"), (None, "Age")])


ROW = ("s1", "Green", 24)


class TestBinding:
    def test_qualified_resolution(self, binding):
        assert binding.resolve(ColumnRef("Sname", "S")) == 1

    def test_unqualified_resolution(self, binding):
        assert binding.resolve(ColumnRef("Age")) == 2

    def test_case_insensitive(self, binding):
        assert binding.resolve(ColumnRef("sname", "S")) == 1

    def test_unknown_column(self, binding):
        with pytest.raises(SqlExecutionError):
            binding.resolve(ColumnRef("Nope"))

    def test_ambiguous_column(self):
        b = Binding([("A", "x"), ("B", "x")])
        with pytest.raises(SqlExecutionError):
            b.resolve(ColumnRef("x"))
        assert b.resolve(ColumnRef("x", "B")) == 1

    def test_merge(self, binding):
        merged = binding.merge(Binding([("T", "z")]))
        assert merged.resolve(ColumnRef("z", "T")) == 3

    def test_can_resolve(self, binding):
        assert binding.can_resolve(ColumnRef("Sid", "S"))
        assert not binding.can_resolve(ColumnRef("Nope"))


class TestScalarEvaluation:
    def test_literal(self, binding):
        assert compile_scalar(Literal(5), binding)(ROW) == 5

    def test_column(self, binding):
        assert compile_scalar(ColumnRef("Sname", "S"), binding)(ROW) == "Green"

    def test_comparison(self, binding):
        expr = BinaryOp(">", ColumnRef("Age"), Literal(21))
        assert compile_scalar(expr, binding)(ROW) is True

    def test_comparison_with_null_is_false(self, binding):
        expr = BinaryOp("=", ColumnRef("Age"), Literal(None))
        assert compile_scalar(expr, binding)(ROW) is False

    def test_numeric_widening_comparison(self, binding):
        expr = BinaryOp("=", Literal(24.0), ColumnRef("Age"))
        assert compile_scalar(expr, binding)(ROW) is True

    def test_mixed_type_comparison_raises(self, binding):
        expr = BinaryOp("<", ColumnRef("Sname", "S"), Literal(3))
        with pytest.raises(SqlExecutionError):
            compile_scalar(expr, binding)(ROW)

    def test_and_or(self, binding):
        t = BinaryOp("=", Literal(1), Literal(1))
        f = BinaryOp("=", Literal(1), Literal(2))
        assert compile_scalar(BinaryOp("AND", t, f), binding)(ROW) is False
        assert compile_scalar(BinaryOp("OR", t, f), binding)(ROW) is True

    def test_contains(self, binding):
        assert compile_scalar(Contains(ColumnRef("Sname", "S"), "gree"), binding)(ROW)
        assert not compile_scalar(Contains(ColumnRef("Sname", "S"), "blue"), binding)(ROW)

    def test_contains_null_is_false(self, binding):
        assert compile_scalar(Contains(ColumnRef("Sname", "S"), "x"), binding)(("s", None, 1)) is False

    def test_is_null(self, binding):
        assert compile_scalar(IsNull(ColumnRef("Age")), binding)(("s", "n", None))
        assert compile_scalar(IsNull(ColumnRef("Age"), negated=True), binding)(ROW)

    def test_arithmetic(self, binding):
        expr = BinaryOp("*", ColumnRef("Age"), Literal(2))
        assert compile_scalar(expr, binding)(ROW) == 48

    def test_arithmetic_null_propagates(self, binding):
        expr = BinaryOp("+", Literal(None), Literal(1))
        assert compile_scalar(expr, binding)(ROW) is None

    def test_division_by_zero(self, binding):
        with pytest.raises(SqlExecutionError):
            compile_scalar(BinaryOp("/", Literal(1), Literal(0)), binding)(ROW)

    def test_aggregate_outside_group_raises(self, binding):
        with pytest.raises(SqlExecutionError):
            compile_scalar(agg("COUNT", ColumnRef("Age")), binding)(ROW)


GROUP = [("s1", "a", 10), ("s2", "b", 20), ("s3", "c", None)]


class TestAggregates:
    def test_count_star(self, binding):
        assert compile_aggregate(FuncCall("COUNT", (Star(),)), binding)(GROUP) == 3

    def test_count_ignores_nulls(self, binding):
        assert compile_aggregate(agg("COUNT", ColumnRef("Age")), binding)(GROUP) == 2

    def test_count_distinct(self, binding):
        rows = [("s1", "a", 10), ("s2", "b", 10)]
        call = agg("COUNT", ColumnRef("Age"), distinct=True)
        assert compile_aggregate(call, binding)(rows) == 1

    def test_sum_avg_min_max(self, binding):
        assert compile_aggregate(agg("SUM", ColumnRef("Age")), binding)(GROUP) == 30
        assert compile_aggregate(agg("AVG", ColumnRef("Age")), binding)(GROUP) == 15
        assert compile_aggregate(agg("MIN", ColumnRef("Age")), binding)(GROUP) == 10
        assert compile_aggregate(agg("MAX", ColumnRef("Age")), binding)(GROUP) == 20

    def test_empty_group_aggregates_are_null(self, binding):
        assert compile_aggregate(agg("SUM", ColumnRef("Age")), binding)([]) is None
        assert compile_aggregate(agg("MAX", ColumnRef("Age")), binding)([]) is None

    def test_count_of_empty_group_is_zero(self, binding):
        assert compile_aggregate(agg("COUNT", ColumnRef("Age")), binding)([]) == 0

    def test_sum_over_text_raises(self, binding):
        with pytest.raises(SqlExecutionError):
            compile_aggregate(agg("SUM", ColumnRef("Sname", "S")), binding)(GROUP)

    def test_min_max_over_dates(self, binding):
        rows = [("s1", "a", None)]
        b = Binding([(None, "d")])
        date_rows = [("2001-01-01",), ("1999-12-31",)]
        assert compile_aggregate(agg("MAX", ColumnRef("d")), b)(date_rows) == "2001-01-01"
        assert compile_aggregate(agg("MIN", ColumnRef("d")), b)(date_rows) == "1999-12-31"


class TestMixedEvaluation:
    def test_scalar_on_first_row(self, binding):
        value = compile_aggregate(ColumnRef("Sid", "S"), binding)(GROUP)
        assert value == "s1"

    def test_aggregate(self, binding):
        value = compile_aggregate(agg("SUM", ColumnRef("Age")), binding)(GROUP)
        assert value == 30

    def test_arithmetic_over_aggregates(self, binding):
        expr = BinaryOp(
            "/", agg("SUM", ColumnRef("Age")), agg("COUNT", ColumnRef("Age"))
        )
        assert compile_aggregate(expr, binding)(GROUP) == 15

    def test_empty_group_scalar_is_null(self, binding):
        assert compile_aggregate(ColumnRef("Age"), binding)([]) is None
