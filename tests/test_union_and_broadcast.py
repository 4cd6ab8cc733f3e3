"""End-to-end coverage for UNION ALL and broadcast joins."""

import pytest

from repro.api import optimize_script
from repro.exec import Cluster, ColumnarExecutor
from repro.naive import NaiveEvaluator
from repro.optimizer.cost import CostParams
from repro.optimizer.engine import OptimizerConfig
from repro.plan.columns import ColumnType
from repro.plan.physical import PhysBroadcastJoin, PhysUnionAll
from repro.scope.catalog import Catalog
from repro.scope.compiler import compile_script
from repro.workloads.datagen import generate_for_catalog

UNION_SCRIPT = """
X = EXTRACT A,D FROM "test.log" USING E;
Y = EXTRACT A,D FROM "test2.log" USING E;
HighX = SELECT A,D FROM X WHERE D > 25;
HighY = SELECT A,D FROM Y WHERE D > 25;
Combined = SELECT A,D FROM HighX UNION ALL SELECT A,D FROM HighY;
Agg = SELECT A,Sum(D) AS S,Count(*) AS N FROM Combined GROUP BY A;
OUTPUT Agg TO "o";
"""

BROADCAST_SCRIPT = """
Facts = EXTRACT K,V FROM "facts.log" USING E;
Dim = EXTRACT K,Label FROM "dim.log" USING E;
J = SELECT Facts.K AS K,V,Label FROM Facts JOIN Dim ON Facts.K = Dim.K;
Agg = SELECT Label,Sum(V) AS S FROM J GROUP BY Label;
OUTPUT Agg TO "o";
"""


class TestUnionAll:
    def run(self, abcd_catalog, exploit_cse):
        config = OptimizerConfig(cost_params=CostParams(machines=4))
        files = generate_for_catalog(abcd_catalog, seed=29)
        result = optimize_script(UNION_SCRIPT, abcd_catalog, config,
                                 exploit_cse=exploit_cse)
        cluster = Cluster(machines=4)
        for path, rows in files.items():
            cluster.load_file(path, rows)
        outputs = ColumnarExecutor(cluster, validate=True).execute(result.plan)
        expected = NaiveEvaluator(files).run(
            compile_script(UNION_SCRIPT, abcd_catalog)
        )
        return result, outputs, expected

    @pytest.mark.parametrize("exploit_cse", [False, True])
    def test_union_matches_oracle(self, abcd_catalog, exploit_cse):
        _result, outputs, expected = self.run(abcd_catalog, exploit_cse)
        assert outputs["o"].sorted_rows() == expected["o"]

    def test_union_operator_in_plan(self, abcd_catalog):
        result, _outputs, _expected = self.run(abcd_catalog, False)
        assert result.plan.find_all(PhysUnionAll)


class TestBroadcastJoin:
    @pytest.fixture
    def star_catalog(self):
        catalog = Catalog()
        catalog.register_file(
            "facts.log",
            [("K", ColumnType.INT), ("V", ColumnType.INT)],
            rows=5_000,
            ndv={"K": 8, "V": 200},
        )
        catalog.register_file(
            "dim.log",
            [("K", ColumnType.INT), ("Label", ColumnType.INT)],
            rows=8,
            ndv={"K": 8, "Label": 8},
        )
        return catalog

    def test_tiny_dimension_is_broadcast(self, star_catalog):
        """An 8-row dimension against 5000 facts: replicating the
        dimension beats shuffling the facts."""
        config = OptimizerConfig(cost_params=CostParams(machines=4))
        result = optimize_script(BROADCAST_SCRIPT, star_catalog, config)
        assert result.plan.find_all(PhysBroadcastJoin)

    def test_broadcast_execution_correct(self, star_catalog):
        config = OptimizerConfig(cost_params=CostParams(machines=4))
        files = generate_for_catalog(star_catalog, seed=29)
        result = optimize_script(BROADCAST_SCRIPT, star_catalog, config)
        cluster = Cluster(machines=4)
        for path, rows in files.items():
            cluster.load_file(path, rows)
        executor = ColumnarExecutor(cluster, validate=True)
        outputs = executor.execute(result.plan)
        expected = NaiveEvaluator(files).run(
            compile_script(BROADCAST_SCRIPT, star_catalog)
        )
        assert outputs["o"].sorted_rows() == expected["o"]
        if result.plan.find_all(PhysBroadcastJoin):
            assert executor.metrics.rows_broadcast > 0


class TestFingerprintClasses:
    def test_three_way_duplicate_merged_to_one_spool(self, abcd_catalog):
        from repro.cse.fingerprint import identify_common_subexpressions
        from repro.optimizer.memo import Memo
        from repro.plan.logical import LogicalSpool

        text = (
            'X = EXTRACT A,D FROM "test.log" USING E;\n'
            "R1 = SELECT A,Sum(D) AS S FROM X GROUP BY A;\n"
            "R2 = SELECT A,Sum(D) AS S FROM X GROUP BY A;\n"
            "R3 = SELECT A,Sum(D) AS S FROM X GROUP BY A;\n"
            'OUTPUT R1 TO "a";\nOUTPUT R2 TO "b";\nOUTPUT R3 TO "c";'
        )
        memo = Memo.from_logical_plan(compile_script(text, abcd_catalog))
        report = identify_common_subexpressions(memo)
        assert len(report.merged) == 2
        spools = [
            g
            for g in memo.live_groups()
            if isinstance(g.initial_expr.op, LogicalSpool)
        ]
        assert len(spools) == 1
        assert len(memo.parents_of(spools[0].gid)) == 3

    def test_false_positive_buckets_counted(self, abcd_catalog):
        """Two different GROUP BYs over the same child collide by
        Definition 1 and must be told apart (counted, not merged)."""
        from repro.cse.fingerprint import identify_common_subexpressions
        from repro.optimizer.memo import Memo
        from repro.workloads.paper_scripts import S1

        memo = Memo.from_logical_plan(compile_script(S1, abcd_catalog))
        report = identify_common_subexpressions(memo)
        assert report.false_positives >= 1
        # ...and nothing got merged by accident (S1 has only the
        # explicitly shared group).
        assert not report.merged


class TestJoinCommutativity:
    @pytest.fixture
    def reversed_star_catalog(self):
        """Tiny LEFT input, huge RIGHT input: only the commuted join can
        broadcast the small side."""
        catalog = Catalog()
        catalog.register_file(
            "dim.log",
            [("K", ColumnType.INT), ("Label", ColumnType.INT)],
            rows=8,
            ndv={"K": 8, "Label": 8},
        )
        catalog.register_file(
            "facts.log",
            [("K", ColumnType.INT), ("V", ColumnType.INT)],
            rows=5_000,
            ndv={"K": 8, "V": 200},
        )
        return catalog

    SCRIPT = """
Dim = EXTRACT K,Label FROM "dim.log" USING E;
Facts = EXTRACT K,V FROM "facts.log" USING E;
J = SELECT Dim.K AS K,Label,V FROM Dim JOIN Facts ON Dim.K = Facts.K;
Agg = SELECT Label,Sum(V) AS S FROM J GROUP BY Label;
OUTPUT Agg TO "o";
"""

    def test_commuted_join_broadcasts_the_small_left_side(
        self, reversed_star_catalog
    ):
        config = OptimizerConfig(cost_params=CostParams(machines=4))
        result = optimize_script(self.SCRIPT, reversed_star_catalog, config)
        broadcasts = result.plan.find_all(PhysBroadcastJoin)
        assert broadcasts, "the commuted join should enable a broadcast"
        # The broadcast (build) side must be the 8-row dimension.
        build = broadcasts[0].children[1]
        assert build.rows <= 8

    def test_commuted_execution_correct(self, reversed_star_catalog):
        config = OptimizerConfig(cost_params=CostParams(machines=4))
        files = generate_for_catalog(reversed_star_catalog, seed=29)
        result = optimize_script(self.SCRIPT, reversed_star_catalog, config)
        cluster = Cluster(machines=4)
        for path, rows in files.items():
            cluster.load_file(path, rows)
        outputs = ColumnarExecutor(cluster, validate=True).execute(result.plan)
        expected = NaiveEvaluator(files).run(
            compile_script(self.SCRIPT, reversed_star_catalog)
        )
        assert outputs["o"].sorted_rows() == expected["o"]

    def test_left_join_never_commuted(self, reversed_star_catalog):
        from repro.optimizer.rules.transformation import CommuteJoin, RuleEnv
        from repro.optimizer.cardinality import (
            CardinalityEstimator,
            annotate_memo,
        )
        from repro.optimizer.memo import Memo
        from repro.plan.logical import LogicalJoin

        text = self.SCRIPT.replace("JOIN Facts", "LEFT OUTER JOIN Facts")
        memo = Memo.from_logical_plan(
            compile_script(text, reversed_star_catalog)
        )
        estimator = CardinalityEstimator(reversed_star_catalog, machines=4)
        annotate_memo(memo, estimator)
        env = RuleEnv(memo, estimator)
        rule = CommuteJoin()
        for group in memo.live_groups():
            if isinstance(group.initial_expr.op, LogicalJoin):
                assert not list(
                    rule.apply(memo, group.gid, group.initial_expr, env)
                )
