"""Tests for SELECT TOP n ... ORDER BY."""

import pytest

from repro.api import optimize_script
from repro.exec import Cluster, ColumnarExecutor, ExecutionError
from repro.naive import NaiveEvaluator
from repro.optimizer.cost import CostParams
from repro.optimizer.engine import OptimizerConfig
from repro.plan.columns import ColumnType
from repro.plan.logical import GroupByMode, LogicalTopN
from repro.plan.physical import PhysMerge, PhysTopN
from repro.scope.catalog import Catalog
from repro.scope.compiler import compile_script
from repro.scope.errors import ParseError
from repro.scope.parser import parse
from repro.workloads.datagen import generate_for_catalog

TOP_SCRIPT = """
X = EXTRACT A,D FROM "f.log" USING E;
T = SELECT TOP 4 A,Sum(D) AS S FROM X GROUP BY A ORDER BY S;
OUTPUT T TO "o";
"""


@pytest.fixture
def top_catalog():
    catalog = Catalog()
    catalog.register_file(
        "f.log",
        [("A", ColumnType.INT), ("D", ColumnType.INT)],
        rows=5_000,
        ndv={"A": 40, "D": 200},
    )
    return catalog


class TestParsing:
    def test_top_with_order(self):
        query = parse(
            "R = SELECT TOP 5 A FROM X ORDER BY A;"
        ).statements[0].queries[0]
        assert query.top == 5
        assert [r.name for r in query.top_order] == ["A"]

    def test_top_without_order_rejected(self):
        with pytest.raises(ParseError):
            parse("R = SELECT TOP 5 A FROM X;")

    def test_top_requires_number(self):
        with pytest.raises(ParseError):
            parse("R = SELECT TOP A FROM X ORDER BY A;")


class TestCompilation:
    def test_topn_above_aggregation(self, top_catalog):
        plan = compile_script(TOP_SCRIPT, top_catalog)
        top = next(
            n for n in plan.iter_nodes() if isinstance(n.op, LogicalTopN)
        )
        assert top.op.n == 4
        assert top.op.order_columns == ("S",)
        assert top.op.mode is GroupByMode.FULL

    def test_order_column_must_be_produced(self, top_catalog):
        from repro.scope.errors import ResolutionError

        bad = TOP_SCRIPT.replace("ORDER BY S", "ORDER BY Z")
        with pytest.raises(ResolutionError):
            compile_script(bad, top_catalog)

    def test_zero_rows_rejected(self, top_catalog):
        with pytest.raises(ValueError):
            LogicalTopN(0, ("A",))


class TestPlanShape:
    def optimize(self, top_catalog):
        config = OptimizerConfig(cost_params=CostParams(machines=4))
        return optimize_script(TOP_SCRIPT, top_catalog, config)

    def test_split_into_local_and_final(self, top_catalog):
        result = self.optimize(top_catalog)
        tops = result.plan.find_all(PhysTopN)
        modes = {t.op.mode for t in tops}
        assert GroupByMode.LOCAL in modes
        assert modes & {GroupByMode.FULL, GroupByMode.FINAL}

    def test_local_selection_below_the_gather(self, top_catalog):
        result = self.optimize(top_catalog)
        merge = result.plan.find_all(PhysMerge)[0]
        below = {
            t.op.mode
            for t in merge.iter_nodes()
            if isinstance(t.op, PhysTopN)
        }
        assert below == {GroupByMode.LOCAL}
        # The gather ships at most n × machines rows.
        assert merge.children[0].rows <= 4 * 4


class TestExecution:
    def run(self, top_catalog, script=TOP_SCRIPT, seed=2):
        config = OptimizerConfig(cost_params=CostParams(machines=4))
        files = generate_for_catalog(top_catalog, seed=seed)
        result = optimize_script(script, top_catalog, config)
        cluster = Cluster(machines=4)
        for path, rows in files.items():
            cluster.load_file(path, rows)
        outputs = ColumnarExecutor(cluster, validate=True).execute(result.plan)
        expected = NaiveEvaluator(files).run(
            compile_script(script, top_catalog)
        )
        return outputs, expected

    def test_matches_oracle(self, top_catalog):
        outputs, expected = self.run(top_catalog)
        assert outputs["o"].sorted_rows() == expected["o"]
        assert outputs["o"].total_rows() == 4

    def test_top_larger_than_result(self, top_catalog):
        script = TOP_SCRIPT.replace("TOP 4", "TOP 100")
        outputs, expected = self.run(top_catalog, script)
        assert outputs["o"].sorted_rows() == expected["o"]
        assert outputs["o"].total_rows() == 40  # all groups

    def test_top_one(self, top_catalog):
        script = TOP_SCRIPT.replace("TOP 4", "TOP 1")
        outputs, expected = self.run(top_catalog, script)
        assert outputs["o"].sorted_rows() == expected["o"]
        assert outputs["o"].total_rows() == 1

    def test_ties_resolved_deterministically(self, top_catalog):
        """Many rows share the same D value: the full-row tie-break must
        keep the optimizer's answer equal to the oracle's."""
        script = (
            'X = EXTRACT A,D FROM "f.log" USING E;\n'
            "T = SELECT TOP 7 A,D FROM X ORDER BY D;\n"
            'OUTPUT T TO "o";'
        )
        catalog = Catalog()
        catalog.register_file(
            "f.log",
            [("A", ColumnType.INT), ("D", ColumnType.INT)],
            rows=2_000,
            ndv={"A": 50, "D": 3},  # heavy ties on D
        )
        outputs, expected = self.run(catalog, script)
        assert outputs["o"].sorted_rows() == expected["o"]

    def test_topn_over_shared_subexpression(self, top_catalog):
        """TOP consumers participate in CSE like any other consumer."""
        script = (
            'X = EXTRACT A,D FROM "f.log" USING E;\n'
            "R = SELECT A,Sum(D) AS S FROM X GROUP BY A;\n"
            "T1 = SELECT TOP 3 A,S FROM R ORDER BY S;\n"
            "T2 = SELECT A,S FROM R WHERE S > 100;\n"
            'OUTPUT T1 TO "top";\nOUTPUT T2 TO "big";'
        )
        outputs, expected = self.run(top_catalog, script)
        for path in ("top", "big"):
            assert outputs[path].sorted_rows() == expected[path]


class TestRuntimeGuards:
    def test_full_topn_requires_serial_input(self, top_catalog):
        from repro.plan.columns import Column, Schema
        from repro.plan.physical import PhysExtract, PhysicalPlan
        from repro.plan.properties import PhysicalProps

        schema = Schema([Column("A"), Column("D")])
        cluster = Cluster(machines=3)
        cluster.load_file("f.log", [{"A": i, "D": i} for i in range(30)])
        scan = PhysicalPlan(
            op=PhysExtract(1, "f.log", "E", schema),
            children=(),
            schema=schema,
            props=PhysicalProps(),
        )
        bad = PhysicalPlan(
            op=PhysTopN(5, ("A",), GroupByMode.FULL),
            children=(scan,),
            schema=schema,
            props=PhysTopN(5, ("A",), GroupByMode.FULL).derive_props(
                [scan.props]
            ),
        )
        with pytest.raises(ExecutionError):
            ColumnarExecutor(cluster)._run(bad)
