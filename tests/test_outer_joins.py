"""Tests for ANSI JOIN syntax and LEFT OUTER JOIN semantics."""

import pytest

from repro.api import optimize_script
from repro.exec import Cluster, ColumnarExecutor
from repro.naive import NaiveEvaluator
from repro.optimizer.cost import CostParams
from repro.optimizer.engine import OptimizerConfig
from repro.plan.columns import ColumnType
from repro.plan.logical import JoinKind, LogicalFilter, LogicalJoin
from repro.scope.catalog import Catalog
from repro.scope.compiler import compile_script
from repro.scope.errors import ResolutionError
from repro.workloads.datagen import generate_for_catalog

LEFT_JOIN_SCRIPT = """
U = EXTRACT UserId,Region FROM "users.log" USING E;
P = EXTRACT UserId,Amount FROM "purchases.log" USING E;
J = SELECT U.UserId,Region,Amount FROM U LEFT OUTER JOIN P
    ON U.UserId = P.UserId;
OUTPUT J TO "o";
"""


@pytest.fixture
def join_catalog():
    catalog = Catalog()
    catalog.register_file(
        "users.log",
        [("UserId", ColumnType.INT), ("Region", ColumnType.INT)],
        rows=200,
        ndv={"UserId": 200, "Region": 4},
    )
    catalog.register_file(
        "purchases.log",
        [("UserId", ColumnType.INT), ("Amount", ColumnType.INT)],
        rows=300,
        ndv={"UserId": 120, "Amount": 50},
    )
    return catalog


FILES = {
    "users.log": [
        {"UserId": 1, "Region": 10},
        {"UserId": 2, "Region": 20},
        {"UserId": 3, "Region": 10},
    ],
    "purchases.log": [
        {"UserId": 1, "Amount": 5},
        {"UserId": 1, "Amount": 7},
        {"UserId": 3, "Amount": 9},
    ],
}


class TestParsingAndCompilation:
    def test_inner_join_keyword(self, join_catalog):
        text = LEFT_JOIN_SCRIPT.replace("LEFT OUTER JOIN", "INNER JOIN")
        plan = compile_script(text, join_catalog)
        join = next(
            n for n in plan.iter_nodes() if isinstance(n.op, LogicalJoin)
        )
        assert join.op.kind is JoinKind.INNER

    def test_bare_join_is_inner(self, join_catalog):
        text = LEFT_JOIN_SCRIPT.replace("LEFT OUTER JOIN", "JOIN")
        plan = compile_script(text, join_catalog)
        join = next(
            n for n in plan.iter_nodes() if isinstance(n.op, LogicalJoin)
        )
        assert join.op.kind is JoinKind.INNER

    def test_left_join_kind(self, join_catalog):
        plan = compile_script(LEFT_JOIN_SCRIPT, join_catalog)
        join = next(
            n for n in plan.iter_nodes() if isinstance(n.op, LogicalJoin)
        )
        assert join.op.kind is JoinKind.LEFT

    def test_left_without_outer(self, join_catalog):
        text = LEFT_JOIN_SCRIPT.replace("LEFT OUTER JOIN", "LEFT JOIN")
        plan = compile_script(text, join_catalog)
        join = next(
            n for n in plan.iter_nodes() if isinstance(n.op, LogicalJoin)
        )
        assert join.op.kind is JoinKind.LEFT

    def test_non_equi_on_rejected(self, join_catalog):
        text = LEFT_JOIN_SCRIPT.replace(
            "ON U.UserId = P.UserId", "ON U.UserId = P.UserId AND Amount > 3"
        )
        with pytest.raises(ResolutionError):
            compile_script(text, join_catalog)


class TestNaiveSemantics:
    def run(self, text, join_catalog):
        return NaiveEvaluator(FILES).run(compile_script(text, join_catalog))

    def test_unmatched_left_rows_padded(self, join_catalog):
        rows = self.run(LEFT_JOIN_SCRIPT, join_catalog)["o"]
        # User 2 has no purchases: one padded row.
        assert (2, 20, None) in rows
        assert len(rows) == 4  # 2×user1 + user3 + padded user2

    def test_inner_join_drops_unmatched(self, join_catalog):
        text = LEFT_JOIN_SCRIPT.replace("LEFT OUTER JOIN", "JOIN")
        rows = self.run(text, join_catalog)["o"]
        assert len(rows) == 3
        assert all(r[2] is not None for r in rows)

    def test_null_padding_is_ignored_by_aggregates(self, join_catalog):
        text = LEFT_JOIN_SCRIPT.replace(
            'OUTPUT J TO "o";',
            "G = SELECT Region,Sum(Amount) AS T,Count(*) AS N "
            "FROM J GROUP BY Region;\n"
            'OUTPUT G TO "o";',
        )
        rows = self.run(text, join_catalog)["o"]
        by_region = {r[0]: (r[1], r[2]) for r in rows}
        assert by_region[10] == (21, 3)   # 5+7+9, three rows
        assert by_region[20] == (None, 1)  # only the padded row

    def test_where_on_right_column_drops_padded_rows(self, join_catalog):
        text = LEFT_JOIN_SCRIPT.replace(
            'OUTPUT J TO "o";',
            "F = SELECT UserId,Region,Amount FROM J WHERE Amount > 0;\n"
            'OUTPUT F TO "o";',
        )
        rows = self.run(text, join_catalog)["o"]
        assert all(r[2] is not None for r in rows)
        assert len(rows) == 3


class TestOptimizedExecution:
    @pytest.mark.parametrize("exploit_cse", [False, True])
    def test_left_join_matches_oracle(self, join_catalog, exploit_cse):
        config = OptimizerConfig(cost_params=CostParams(machines=3))
        files = generate_for_catalog(join_catalog, seed=17)
        result = optimize_script(LEFT_JOIN_SCRIPT, join_catalog, config,
                                 exploit_cse=exploit_cse)
        cluster = Cluster(machines=3)
        for path, rows in files.items():
            cluster.load_file(path, rows)
        outputs = ColumnarExecutor(cluster, validate=True).execute(result.plan)
        expected = NaiveEvaluator(files).run(
            compile_script(LEFT_JOIN_SCRIPT, join_catalog)
        )
        assert outputs["o"].sorted_rows() == expected["o"]

    def test_left_join_with_downstream_aggregation(self, join_catalog):
        text = LEFT_JOIN_SCRIPT.replace(
            'OUTPUT J TO "o";',
            "G = SELECT Region,Sum(Amount) AS T FROM J GROUP BY Region;\n"
            'OUTPUT G TO "o";',
        )
        config = OptimizerConfig(cost_params=CostParams(machines=3))
        files = generate_for_catalog(join_catalog, seed=17)
        result = optimize_script(text, join_catalog, config)
        cluster = Cluster(machines=3)
        for path, rows in files.items():
            cluster.load_file(path, rows)
        outputs = ColumnarExecutor(cluster, validate=True).execute(result.plan)
        expected = NaiveEvaluator(files).run(
            compile_script(text, join_catalog)
        )
        assert outputs["o"].sorted_rows() == expected["o"]

    def test_cardinality_left_join_at_least_left_rows(self, join_catalog):
        config = OptimizerConfig(cost_params=CostParams(machines=3))
        result = optimize_script(LEFT_JOIN_SCRIPT, join_catalog, config)
        from repro.plan.physical import (
            PhysBroadcastJoin,
            PhysHashJoin,
            PhysMergeJoin,
        )

        join = next(
            n
            for n in result.plan.iter_nodes()
            if isinstance(n.op, (PhysHashJoin, PhysMergeJoin,
                                 PhysBroadcastJoin))
        )
        assert join.rows >= 200


class TestRewriteSafety:
    def test_right_filter_not_pushed_below_left_join(self, join_catalog):
        """A WHERE on right-side columns must stay above a LEFT join —
        pushing it below would keep null-padded rows the filter drops.
        Verified end to end: the oracle uses the unrewritten DAG, so a
        bad push would surface as a result mismatch."""
        text = LEFT_JOIN_SCRIPT.replace(
            'OUTPUT J TO "o";',
            "F = SELECT UserId,Region,Amount FROM J WHERE Amount > 10;\n"
            'OUTPUT F TO "o";',
        )
        config = OptimizerConfig(cost_params=CostParams(machines=3))
        files = generate_for_catalog(join_catalog, seed=17)
        result = optimize_script(text, join_catalog, config)
        cluster = Cluster(machines=3)
        for path, rows in files.items():
            cluster.load_file(path, rows)
        outputs = ColumnarExecutor(cluster, validate=True).execute(result.plan)
        expected = NaiveEvaluator(files).run(
            compile_script(text, join_catalog)
        )
        assert outputs["o"].sorted_rows() == expected["o"]

    def test_left_filter_still_pushed(self, join_catalog):
        """Left-side predicates ARE safe below a LEFT join and the rule
        still applies to them."""
        from repro.optimizer.cardinality import CardinalityEstimator, annotate_memo
        from repro.optimizer.memo import Memo
        from repro.optimizer.rules.transformation import (
            PushFilterBelowJoin,
            RuleEnv,
        )

        # The WHERE lands directly above the join (before the final
        # projection), which is the shape the rule matches.
        text = """
U = EXTRACT UserId,Region FROM "users.log" USING E;
P = EXTRACT UserId,Amount FROM "purchases.log" USING E;
J = SELECT U.UserId,Region,Amount FROM U LEFT OUTER JOIN P
    ON U.UserId = P.UserId WHERE Region > 1 AND Amount > 2;
OUTPUT J TO "o";
"""
        memo = Memo.from_logical_plan(compile_script(text, join_catalog))
        estimator = CardinalityEstimator(join_catalog, machines=3)
        annotate_memo(memo, estimator)
        env = RuleEnv(memo, estimator)
        rule = PushFilterBelowJoin()
        produced = []
        for group in memo.live_groups():
            if isinstance(group.initial_expr.op, LogicalFilter):
                produced.extend(
                    rule.apply(memo, group.gid, group.initial_expr, env)
                )
        assert produced  # Region>1 pushed left; Amount>2 stayed above
        top = produced[0]
        assert isinstance(top.op, LogicalFilter)
        assert top.op.predicate.referenced_columns() == {"Amount"}
