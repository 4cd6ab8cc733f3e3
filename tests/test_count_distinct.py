"""Tests for COUNT(DISTINCT x) and its dedup-then-count rewrite."""

import pytest

from repro.api import optimize_script
from repro.exec import Cluster, ColumnarExecutor
from repro.naive import NaiveEvaluator
from repro.optimizer.cost import CostParams
from repro.optimizer.engine import OptimizerConfig
from repro.plan.logical import LogicalGroupBy
from repro.scope.compiler import compile_script
from repro.scope.errors import ResolutionError
from repro.scope.parser import parse
from repro.workloads.datagen import generate_for_catalog

SCRIPT = """
X = EXTRACT A,B,D FROM "test.log" USING E;
C = SELECT A,Count(DISTINCT B) AS NB FROM X GROUP BY A;
OUTPUT C TO "c";
"""


class TestParsing:
    def test_distinct_flag_on_call(self):
        query = parse(
            "R = SELECT Count(DISTINCT B) AS N FROM X;"
        ).statements[0].queries[0]
        call = query.items[0].expr
        assert call.distinct
        assert call.func == "Count"

    def test_plain_call_not_distinct(self):
        query = parse("R = SELECT Count(B) AS N FROM X;").statements[0]
        assert not query.queries[0].items[0].expr.distinct


class TestRewrite:
    def test_two_group_by_stages(self, abcd_catalog):
        plan = compile_script(SCRIPT, abcd_catalog)
        group_bys = [
            n for n in plan.iter_nodes() if isinstance(n.op, LogicalGroupBy)
        ]
        assert len(group_bys) == 2
        dedup = next(g for g in group_bys if not g.op.aggregates)
        counting = next(g for g in group_bys if g.op.aggregates)
        assert set(dedup.op.keys) == {"A", "B"}
        assert counting.op.keys == ("A",)
        assert counting.op.aggregates[0].alias == "NB"

    def test_mixed_aggregates_rejected(self, abcd_catalog):
        bad = SCRIPT.replace(
            "Count(DISTINCT B) AS NB",
            "Count(DISTINCT B) AS NB,Sum(D) AS S",
        )
        with pytest.raises(ResolutionError):
            compile_script(bad, abcd_catalog)

    def test_distinct_sum_rejected(self, abcd_catalog):
        bad = SCRIPT.replace("Count(DISTINCT B)", "Sum(DISTINCT B)")
        with pytest.raises(ResolutionError):
            compile_script(bad, abcd_catalog)

    def test_distinct_over_grouping_key_rejected(self, abcd_catalog):
        bad = SCRIPT.replace("Count(DISTINCT B)", "Count(DISTINCT A)")
        with pytest.raises(ResolutionError):
            compile_script(bad, abcd_catalog)

    def test_distinct_over_expression_rejected(self, abcd_catalog):
        bad = SCRIPT.replace("Count(DISTINCT B)", "Count(DISTINCT B + 1)")
        with pytest.raises(ResolutionError):
            compile_script(bad, abcd_catalog)


class TestExecution:
    def run(self, script, abcd_catalog, exploit_cse=True):
        config = OptimizerConfig(cost_params=CostParams(machines=4))
        files = generate_for_catalog(abcd_catalog, seed=13)
        result = optimize_script(script, abcd_catalog, config,
                                 exploit_cse=exploit_cse)
        cluster = Cluster(machines=4)
        for path, rows in files.items():
            cluster.load_file(path, rows)
        outputs = ColumnarExecutor(cluster, validate=True).execute(result.plan)
        expected = NaiveEvaluator(files).run(
            compile_script(script, abcd_catalog)
        )
        return outputs, expected

    @pytest.mark.parametrize("exploit_cse", [False, True])
    def test_grouped_distinct_count(self, abcd_catalog, exploit_cse):
        outputs, expected = self.run(SCRIPT, abcd_catalog, exploit_cse)
        assert outputs["c"].sorted_rows() == expected["c"]

    def test_global_distinct_count(self, abcd_catalog):
        script = (
            'X = EXTRACT A,B FROM "test.log" USING E;\n'
            "G = SELECT Count(DISTINCT A) AS NA FROM X;\n"
            'OUTPUT G TO "g";'
        )
        outputs, expected = self.run(script, abcd_catalog)
        assert outputs["g"].sorted_rows() == expected["g"]
        # With ndv(A)=7 in the fixture catalog, the count is exactly 7.
        assert outputs["g"].sorted_rows()[0][0] == 7

    def test_distinct_count_over_shared_relation(self, abcd_catalog):
        """The dedup stage is itself a shareable aggregation."""
        script = (
            'X = EXTRACT A,B,D FROM "test.log" USING E;\n'
            "R = SELECT A,B,Sum(D) AS S FROM X GROUP BY A,B;\n"
            "C1 = SELECT A,Count(DISTINCT B) AS NB FROM R GROUP BY A;\n"
            "C2 = SELECT B,Sum(S) AS T FROM R GROUP BY B;\n"
            'OUTPUT C1 TO "c1";\nOUTPUT C2 TO "c2";'
        )
        outputs, expected = self.run(script, abcd_catalog)
        for path in ("c1", "c2"):
            assert outputs[path].sorted_rows() == expected[path]
